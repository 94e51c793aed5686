//! Determinism under parallelism (§6.2 discipline, extended to `-j`):
//! the unified report and the event trace must be byte-identical no
//! matter how many workers ran the build.
//!
//! CI runs this suite twice with `CMO_TEST_JOBS=1` and `CMO_TEST_JOBS=4`
//! so the "reference" level itself moves; the assertions compare every
//! level against `-j1` directly, so either way nothing may drift.

use cmo::{
    isolate_faulty_op, BuildOptions, BuildOutput, Compiler, InlineOptions, NaimConfig, OptLevel,
    Telemetry,
};
use cmo_repro::harness::{compiler_for, train_profile};
use cmo_synth::{generate, SynthSpec};

/// Worker counts under test: always 1, 2, and 4, plus whatever CI asks
/// for through `CMO_TEST_JOBS`.
fn jobs_levels() -> Vec<usize> {
    let mut levels = vec![1, 2, 4];
    if let Some(n) = std::env::var("CMO_TEST_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if n >= 1 && !levels.contains(&n) {
            levels.push(n);
        }
    }
    levels
}

/// One instrumented build at `jobs` workers; returns (report JSON,
/// trace JSONL, image code) for byte-for-byte comparison.
fn build_at(jobs: usize) -> (String, String, Vec<u8>) {
    let app = generate(&SynthSpec::small("par-det", 23));
    let cc = compiler_for(&app).unwrap();
    let db = train_profile(&cc, &app.train_input).unwrap();
    let tel = Telemetry::enabled();
    let mut opts = BuildOptions::new(OptLevel::O4)
        .with_profile_db(db)
        .with_selectivity(40.0)
        .with_naim(NaimConfig::with_budget(64 << 10))
        .with_jobs(jobs);
    opts.telemetry = tel.clone();
    let out = cc.build(&opts).unwrap();
    let code: Vec<u8> = out
        .image
        .code
        .iter()
        .flat_map(|w| format!("{w:?};").into_bytes())
        .collect();
    (out.report.to_json(), tel.render_trace(), code)
}

#[test]
fn report_and_trace_are_byte_identical_across_jobs() {
    let (report_1, trace_1, code_1) = build_at(1);
    for jobs in jobs_levels() {
        let (report_j, trace_j, code_j) = build_at(jobs);
        assert_eq!(report_1, report_j, "report drifted at -j{jobs}");
        assert_eq!(trace_1, trace_j, "trace drifted at -j{jobs}");
        assert_eq!(code_1, code_j, "image drifted at -j{jobs}");
    }
}

#[test]
fn trace_records_worker_ids_but_sorts_on_the_work_clock() {
    let (_, trace, _) = build_at(4);
    let mut last_work = 0u64;
    let mut saw_worker_field = false;
    for line in trace.lines().skip(1) {
        let work: u64 = line
            .split("\"work\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("trace line without work clock: {line}"));
        assert!(work >= last_work, "trace not sorted on work clock: {line}");
        last_work = work;
        saw_worker_field |= line.contains("\"worker\":");
    }
    assert!(saw_worker_field, "trace lines carry no worker field");
}

/// A hand-written program whose call graph partitions into several
/// independent clusters: two "families" (a big root plus a small
/// helper each) whose internal edges couple, and a `main` that only
/// makes cross-cluster calls to the big roots — too big to be inline
/// candidates, so the edges stay cross-cluster.
fn multi_cluster_compiler() -> Compiler {
    let big_root = |name: &str, helper: &str| {
        let bulk: String = (0..40)
            .map(|i| format!("acc = acc + {} * x;", i + 2))
            .collect::<Vec<_>>()
            .join("\n");
        format!(
            r#"
            static fn {helper}(x: int) -> int {{ return x * 3 + 1; }}
            fn {name}(x: int) -> int {{
                var acc: int = {helper}(x);
                {bulk}
                return acc;
            }}
            "#
        )
    };
    let app = r#"
        extern fn root_a(x: int) -> int;
        extern fn root_b(x: int) -> int;
        fn main() -> int { return root_a(5) + root_b(7); }
    "#;
    let mut cc = Compiler::new();
    cc.add_source("app", app).unwrap();
    cc.add_source("fam_a", &big_root("root_a", "help_a"))
        .unwrap();
    cc.add_source("fam_b", &big_root("root_b", "help_b"))
        .unwrap();
    cc
}

/// One build of `cc` with telemetry on: the output and its trace.
fn traced_build(cc: &Compiler, opts: BuildOptions) -> (BuildOutput, String) {
    let tel = Telemetry::enabled();
    let out = cc.build(&opts.with_telemetry(tel.clone())).unwrap();
    (out, tel.render_trace())
}

/// (report JSON, trace JSONL, image bytes) of a `+O4` build of the
/// multi-cluster program at `jobs` workers.
fn multi_cluster_build(jobs: usize) -> (String, String, Vec<u8>) {
    let opts = BuildOptions::new(OptLevel::O4).with_jobs(jobs);
    let (out, trace) = traced_build(&multi_cluster_compiler(), opts);
    (out.report.to_json(), trace, out.image.to_bytes())
}

#[test]
fn multi_cluster_hlo_is_byte_identical_across_jobs() {
    let (report_1, trace_1, code_1) = multi_cluster_build(1);
    // The fixture must actually exercise the fan-out: the partitioner
    // has to find at least two clusters or this test proves nothing.
    let n_clusters: u64 = report_1
        .split("\"clusters\":")
        .nth(1)
        .and_then(|rest| rest.split("\"count\":").nth(1))
        .and_then(|rest| {
            rest.trim_start()
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|n| n.parse().ok())
        })
        .expect("report carries an hlo.clusters.count field");
    assert!(
        n_clusters >= 2,
        "expected a multi-cluster program, got {n_clusters}"
    );
    assert!(
        trace_1.contains("\"cluster\""),
        "trace records cluster events"
    );
    for jobs in jobs_levels() {
        let (report_j, trace_j, code_j) = multi_cluster_build(jobs);
        assert_eq!(report_1, report_j, "report drifted at -j{jobs}");
        assert_eq!(trace_1, trace_j, "trace drifted at -j{jobs}");
        assert_eq!(code_1, code_j, "image drifted at -j{jobs}");
    }
}

/// An op limit (§6.3 bisection) numbers inline operations cluster by
/// cluster while the clusters fan out like any build's. Image, report
/// and trace must not depend on the worker count whether the limit
/// admits no operation, some, or all of them.
#[test]
fn op_limited_multi_cluster_builds_are_byte_identical_across_jobs() {
    let cc = multi_cluster_compiler();
    let total = cc
        .build(&BuildOptions::new(OptLevel::O4))
        .unwrap()
        .report
        .hlo
        .inlines;
    assert!(total >= 2, "each family inlines its helper: {total} ops");
    for limit in [0, total / 2, total] {
        let build = |jobs: usize| {
            let inline = InlineOptions {
                op_limit: Some(limit),
                ..InlineOptions::default()
            };
            let opts = BuildOptions::new(OptLevel::O4)
                .with_inline(inline)
                .with_jobs(jobs);
            traced_build(&cc, opts)
        };
        let (out_1, trace_1) = build(1);
        assert_eq!(out_1.report.hlo.inlines, limit, "the limit binds");
        for jobs in jobs_levels() {
            let (out_j, trace_j) = build(jobs);
            let at = format!("op limit {limit}, -j{jobs}");
            assert_eq!(out_1.image.to_bytes(), out_j.image.to_bytes(), "{at}");
            assert_eq!(out_1.report.to_json(), out_j.report.to_json(), "{at}");
            assert_eq!(trace_1, trace_j, "{at}");
        }
    }
}

/// A fault planted at the first inline operation of the fixture's
/// second active cluster: the binary search over the op limit finds it
/// with the same probes at every worker count.
#[test]
fn a_fault_in_the_second_active_cluster_is_isolated_at_any_jobs() {
    let cc = multi_cluster_compiler();
    let (_, trace) = traced_build(&cc, BuildOptions::new(OptLevel::O4));
    // The cluster (virtual worker) of each inline operation, in order.
    let clusters: Vec<&str> = trace
        .lines()
        .filter(|l| l.contains("\"event\":\"inline\"") && l.contains("\"accepted\":true"))
        .map(|l| {
            l.split("\"worker\":")
                .nth(1)
                .and_then(|r| r.split(',').next())
        })
        .collect::<Option<_>>()
        .expect("cluster inline events carry a worker");
    let total = clusters.len() as u64;
    let planted = 1 + clusters.iter().take_while(|&&c| c == clusters[0]).count() as u64;
    assert!(planted <= total, "one active cluster only: {clusters:?}");
    let search = |jobs: usize| {
        let mut probes = Vec::new();
        let report = isolate_faulty_op(total, |limit| {
            let inline = InlineOptions {
                op_limit: Some(limit),
                ..InlineOptions::default()
            };
            let opts = BuildOptions::new(OptLevel::O4)
                .with_inline(inline)
                .with_jobs(jobs);
            let inlines = cc.build(&opts).unwrap().report.hlo.inlines;
            probes.push((limit, inlines));
            inlines < planted
        });
        (report, probes)
    };
    let (report_1, probes_1) = search(1);
    assert_eq!(report_1.first_faulty_op, Some(planted));
    for jobs in jobs_levels() {
        let (report_j, probes_j) = search(jobs);
        assert_eq!(report_1, report_j, "-j{jobs}");
        assert_eq!(probes_1, probes_j, "-j{jobs}");
    }
}

#[test]
fn parallel_frontend_matches_sequential_frontend() {
    let app = generate(&SynthSpec::small("par-fe", 9));
    let modules: Vec<(String, String)> = app.modules.clone();
    let build = |jobs: usize| {
        let mut cc = Compiler::new();
        cc.add_sources(&modules, jobs).unwrap();
        cc.build(&BuildOptions::new(OptLevel::O4)).unwrap()
    };
    let seq = build(1);
    let par = build(4);
    assert_eq!(seq.image.code, par.image.code);
    assert_eq!(seq.report.hlo, par.report.hlo);
}
