//! §6.3 demonstration: automatic isolation of an optimizer-induced
//! failure by binary search over the inliner's operation limit.
//!
//! "We have implemented controllable operation limits on
//! transformations such as inlining so we can employ binary search to
//! identify the inline that makes the difference between a failing and
//! a working program." Here we plant a pretend miscompile — an oracle
//! that declares the program broken once a specific inline operation
//! has been applied — and let the driver find it.
//!
//! Run with `cargo run --release -p cmo-bench --bin isolate_demo`.

use cmo::{isolate_faulty_op, BuildOptions, InlineOptions, OptLevel};
use cmo_bench::compiler_for;
use cmo_synth::{generate, spec_preset};

fn main() {
    let app = generate(&spec_preset("li"));
    let cc = compiler_for(&app);

    // Full CMO build to learn the total operation count.
    let full = cc
        .build(&BuildOptions::new(OptLevel::O4))
        .expect("full build");
    let total = full.report.hlo.inlines;
    println!("program {}: {} inline operations at +O4", app.name, total);

    // Plant the bug: pretend the 2/3rd-way inline miscompiles.
    let planted = (total * 2 / 3).max(1);
    println!("planting a failure at inline operation #{planted}");

    // The search runs at one worker and again at four: an op limit
    // numbers the operations cluster by cluster at any worker count,
    // so both must probe the same limits and find the same operation.
    let search = |jobs: usize| {
        let mut builds_log = Vec::new();
        let report = isolate_faulty_op(total, |limit| {
            let opts = BuildOptions::new(OptLevel::O4)
                .with_inline(InlineOptions {
                    op_limit: Some(limit),
                    ..InlineOptions::default()
                })
                .with_jobs(jobs);
            let out = cc.build(&opts).expect("limited build");
            // The oracle: a real deployment would run the program's
            // test suite here (§6.4); our planted bug trips once the op
            // count reaches the planted operation.
            let applied = out.report.hlo.inlines;
            builds_log.push((limit, applied));
            applied < planted
        });
        (report, builds_log)
    };
    let (report, builds_log) = search(1);

    println!("binary search performed {} builds:", report.builds);
    for (limit, applied) in &builds_log {
        println!("  limit {limit:>5} -> {applied} inlines applied");
    }
    match report.first_faulty_op {
        Some(op) => println!("isolated faulty operation: #{op} (planted #{planted})"),
        None => println!("no failure found (unexpected)"),
    }
    assert_eq!(report.first_faulty_op, Some(planted));
    assert_eq!(
        search(4),
        (report, builds_log),
        "the search moved at 4 workers"
    );
    println!("the same {} builds at 4 workers", report.builds);
    let linear_builds = total;
    println!(
        "binary search cost {} builds versus {} for a linear scan",
        report.builds, linear_builds
    );
}
