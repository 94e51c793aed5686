//! §6.2 reproducibility: "the compiler must behave in exactly the same
//! way when compiling the same piece of code, using the same profile
//! data, on a machine with the same memory configuration from run to
//! run." Nothing in this system hashes or sorts on addresses; these
//! tests pin that discipline down.

use cmo::{BuildOptions, Compiler, NaimConfig, OptLevel, Telemetry};
use cmo_repro::harness::{compiler_for, naim_levels, trace_decisions, train_profile};
use cmo_synth::{generate, spec_preset, SynthSpec};

fn images_equal(a: &cmo::BuildOutput, b: &cmo::BuildOutput) -> bool {
    a.image.code == b.image.code
        && a.image.globals == b.image.globals
        && a.image.entry_routine == b.image.entry_routine
}

#[test]
fn identical_inputs_give_identical_images_at_every_level() {
    let app = generate(&SynthSpec::small("det", 77));
    let cc = compiler_for(&app).unwrap();
    let db = train_profile(&cc, &app.train_input).unwrap();
    for opts in [
        BuildOptions::new(OptLevel::O1),
        BuildOptions::o2(),
        BuildOptions::instrumented(),
        BuildOptions::o2().with_profile_db(db.clone()),
        BuildOptions::new(OptLevel::O4),
        BuildOptions::new(OptLevel::O4)
            .with_profile_db(db.clone())
            .with_selectivity(30.0),
    ] {
        let a = cc.build(&opts).unwrap();
        let b = cc.build(&opts).unwrap();
        assert!(images_equal(&a, &b), "nondeterministic build at {opts:?}");
        assert_eq!(a.report.hlo, b.report.hlo);
    }
}

#[test]
fn module_registration_order_is_what_matters_not_time() {
    // Two separately constructed compilers with the same sources give
    // identical images.
    let build = || {
        let mut cc = Compiler::new();
        cc.add_source("b", "fn helper(x: int) -> int { return x * 2; }")
            .unwrap();
        cc.add_source(
            "a",
            "extern fn helper(x: int) -> int;\nfn main() -> int { return helper(21); }",
        )
        .unwrap();
        cc.build(&BuildOptions::new(OptLevel::O4)).unwrap()
    };
    let x = build();
    let y = build();
    assert!(images_equal(&x, &y));
}

#[test]
fn profile_runs_are_deterministic() {
    let app = generate(&spec_preset("compress"));
    let cc = compiler_for(&app).unwrap();
    let a = train_profile(&cc, &app.train_input).unwrap();
    let b = train_profile(&cc, &app.train_input).unwrap();
    assert_eq!(a, b, "profile collection must be reproducible");
}

#[test]
fn naim_memory_configuration_changes_nothing_but_effort() {
    let app = generate(&SynthSpec::small("naim-det", 5));
    let cc = compiler_for(&app).unwrap();
    let roomy = cc
        .build(&BuildOptions::new(OptLevel::O4).with_naim(NaimConfig::with_budget(1 << 30)))
        .unwrap();
    let tight = cc
        .build(&BuildOptions::new(OptLevel::O4).with_naim(NaimConfig::with_budget(16 << 10)))
        .unwrap();
    assert!(images_equal(&roomy, &tight));
    // The tight build did real NAIM work; the roomy one did none.
    assert!(tight.report.loader.compactions > 0);
    assert_eq!(roomy.report.loader.compactions, 0);
}

#[test]
fn naim_level_and_jobs_change_no_decision() {
    // NAIM off / compaction only / tight with offload, each at -j1 and
    // -j4: one image, one checksum, one set of HLO and partition
    // counters, and one sequence of optimizer decisions in the trace;
    // across -j the whole trace, pool events included, is identical.
    let app = generate(&SynthSpec::small("naim-axis", 5));
    let cc = compiler_for(&app).unwrap();
    let db = train_profile(&cc, &app.train_input).unwrap();
    let mut reference = None;
    for (level, naim) in ["off", "compact", "offload"]
        .into_iter()
        .zip(naim_levels(16 << 10))
    {
        let mut trace_j1 = None;
        for jobs in [1, 4] {
            let tel = Telemetry::enabled();
            let out = cc
                .build(
                    &BuildOptions::new(OptLevel::O4)
                        .with_profile_db(db.clone())
                        .with_selectivity(60.0)
                        .with_naim(naim.clone())
                        .with_jobs(jobs)
                        .with_telemetry(tel.clone()),
                )
                .unwrap();
            let loader = out.report.loader;
            match level {
                "off" => assert_eq!(loader.compactions, 0),
                "compact" => assert!(loader.compactions > 0 && loader.offload_writes == 0),
                _ => assert!(
                    loader.offload_writes > 0,
                    "the budget must force offloading"
                ),
            }
            let trace = tel.render_trace();
            let decisions: Vec<String> = trace_decisions(&trace)
                .into_iter()
                .map(str::to_owned)
                .collect();
            assert!(decisions.iter().any(|d| d.contains("\"event\":\"inline\"")));
            let got = (
                out.image.to_bytes(),
                out.run(&app.ref_input).unwrap().checksum,
                out.report.hlo,
                out.report.clusters,
                decisions,
            );
            let want = reference.get_or_insert_with(|| got.clone());
            assert!(*want == got, "{level} -j{jobs} diverged from off -j1");
            assert_eq!(
                *trace_j1.get_or_insert_with(|| trace.clone()),
                trace,
                "{level}: trace drifted at -j{jobs}"
            );
        }
    }
}
