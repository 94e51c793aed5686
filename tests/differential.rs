//! Differential correctness testing: every optimization configuration
//! must produce observably identical behaviour on randomly generated
//! programs.
//!
//! This is the §6.3 concern turned into a gate: "run-time behaviour
//! differences that appear only when large-scale interprocedural
//! optimizations are deployed are particularly difficult to diagnose" —
//! so we hunt them continuously with random programs. The checksum
//! mixes every `output()` value order-sensitively plus `main`'s return,
//! so any miscompile that changes observable behaviour is caught.

use cmo::{BuildCache, BuildOptions, Compiler, OptLevel, Telemetry};
use cmo_naim::{MemStorage, Storage};
use cmo_repro::harness::{compiler_for, naim_levels, trace_decisions, train_profile};
use cmo_synth::{generate, SynthSpec};
use proptest::prelude::*;
use std::sync::Arc;

fn spec_from(seed: u64, modules: usize, levels: usize, float_frac: f64) -> SynthSpec {
    SynthSpec {
        modules,
        levels,
        float_module_frac: float_frac,
        workload_iters: 200,
        ..SynthSpec::small("diff", seed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// O1, O2, O2+P, O4, O4+P (several selectivities) all agree.
    #[test]
    fn all_configurations_agree(
        seed in 0u64..10_000,
        modules in 2usize..6,
        levels in 3usize..7,
        float_frac in 0.0f64..0.7,
        sel in 0.0f64..100.0,
    ) {
        let app = generate(&spec_from(seed, modules, levels, float_frac));
        let cc = compiler_for(&app).unwrap();
        let db = train_profile(&cc, &app.train_input).unwrap();

        let reference = cc
            .build(&BuildOptions::new(OptLevel::O1))
            .unwrap()
            .run(&app.ref_input)
            .unwrap();

        let configs = [
            BuildOptions::o2(),
            BuildOptions::o2().with_profile_db(db.clone()),
            BuildOptions::new(OptLevel::O4),
            BuildOptions::new(OptLevel::O4)
                .with_profile_db(db.clone())
                .with_selectivity(sel),
            BuildOptions::new(OptLevel::O4)
                .with_profile_db(db.clone())
                .with_selectivity(100.0),
        ];
        for (i, opts) in configs.iter().enumerate() {
            let r = cc.build(opts).unwrap().run(&app.ref_input).unwrap();
            prop_assert_eq!(
                r.checksum,
                reference.checksum,
                "config {} diverged on seed {} (returned {} vs {})",
                i,
                seed,
                r.returned,
                reference.returned
            );
        }
    }

    /// Cache transparency, code tier included: a cached build — cold,
    /// after a link-order shuffle, after a one-module edit, each
    /// against the cache the previous one left — emits exactly the
    /// image of an uncached build of the same sources, while taking
    /// the lowerings it can from the cache.
    #[test]
    fn cached_builds_equal_uncached_images(
        seed in 0u64..10_000,
        modules in 2usize..6,
        levels in 3usize..7,
        float_frac in 0.0f64..0.7,
        sel in 0.0f64..100.0,
    ) {
        let app = generate(&spec_from(seed, modules, levels, float_frac));
        let cc = compiler_for(&app).unwrap();
        let db = train_profile(&cc, &app.train_input).unwrap();
        let options = BuildOptions::new(OptLevel::O4)
            .with_profile_db(db)
            .with_selectivity(sel);
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());

        let mut shuffled = app.modules.clone();
        shuffled.rotate_left(1 + seed as usize % (modules - 1));
        let mut edited = shuffled.clone();
        let victim = seed as usize % modules;
        edited[victim]
            .1
            .push_str("\nfn diff_spare(x: int) -> int { return x * 3 + 1; }\n");
        for (what, sources) in [("cold", &app.modules), ("shuffled", &shuffled), ("edited", &edited)] {
            let mut uncached = Compiler::new();
            uncached.add_sources(sources, 1).unwrap();
            let uncached = uncached.build(&options).unwrap();

            let mut cache = BuildCache::open_on(Arc::clone(&storage), &Telemetry::disabled()).unwrap();
            let mut cached = Compiler::new();
            cached.add_sources_cached_with(sources, &options, &mut cache).unwrap();
            let cached = cached.build_cached(&options, &mut cache).unwrap();
            prop_assert!(cached.report.replayed.is_none(), "{}: a different build", what);
            prop_assert_eq!(
                cached.image.to_bytes(),
                uncached.image.to_bytes(),
                "{} cached build diverged on seed {}",
                what,
                seed
            );
            prop_assert_eq!(cache.stats().invalidations, 0);
            if what == "cold" {
                prop_assert_eq!(cache.routines_replayed(), 0);
            } else {
                prop_assert!(
                    cache.routines_replayed() > 0,
                    "{} build replayed none of {} routines on seed {}",
                    what,
                    cache.routines_lowered(),
                    seed
                );
            }
        }
    }

    /// NAIM transparency: memory pressure must not change the emitted
    /// image at all — compaction and offloading are lossless, and the
    /// compiler "must behave in exactly the same way ... on a machine
    /// with the same memory configuration" (§6.2). We check something
    /// stronger: across *different* memory configurations (NAIM off,
    /// compaction only, tight with offload) and job counts the image
    /// bytes, the VM checksum, the HLO and partition counters and the
    /// sequence of optimizer decisions in the trace are all identical,
    /// and across job counts so is the whole trace, pool events
    /// included.
    #[test]
    fn naim_pressure_is_invisible(
        seed in 0u64..10_000,
        budget_kib in 8usize..64,
        sel in 0.0f64..100.0,
    ) {
        let app = generate(&spec_from(seed, 3, 5, 0.2));
        let cc = compiler_for(&app).unwrap();
        let db = train_profile(&cc, &app.train_input).unwrap();

        for base in [
            BuildOptions::new(OptLevel::O4),
            BuildOptions::new(OptLevel::O4).with_profile_db(db.clone()),
            BuildOptions::new(OptLevel::O4)
                .with_profile_db(db.clone())
                .with_selectivity(sel),
        ] {
            let mut reference = None;
            for naim in naim_levels(budget_kib << 10) {
                let mut trace_j1 = None;
                for jobs in [1, 4] {
                    let tel = Telemetry::enabled();
                    let out = cc
                        .build(
                            &base
                                .clone()
                                .with_naim(naim.clone())
                                .with_jobs(jobs)
                                .with_telemetry(tel.clone()),
                        )
                        .unwrap();
                    let trace = tel.render_trace();
                    let got = (
                        out.image.to_bytes(),
                        out.run(&app.ref_input).unwrap().checksum,
                        out.report.hlo,
                        out.report.clusters,
                        trace_decisions(&trace)
                            .into_iter()
                            .map(str::to_owned)
                            .collect::<Vec<_>>(),
                    );
                    let want = reference.get_or_insert_with(|| got.clone());
                    prop_assert!(
                        *want == got,
                        "seed {} diverged at {:?} -j{}",
                        seed,
                        naim.max_level,
                        jobs
                    );
                    prop_assert_eq!(
                        trace_j1.get_or_insert_with(|| trace.clone()),
                        &trace,
                        "seed {}: trace drifted at -j{}",
                        seed,
                        jobs
                    );
                }
            }
        }
    }

    /// Instrumentation transparency: probes must not change behaviour.
    #[test]
    fn instrumentation_is_behaviour_neutral(seed in 0u64..10_000) {
        let app = generate(&spec_from(seed, 3, 5, 0.3));
        let cc = compiler_for(&app).unwrap();
        let plain = cc
            .build(&BuildOptions::o2())
            .unwrap()
            .run(&app.ref_input)
            .unwrap();
        let probed = cc
            .build(&BuildOptions::instrumented())
            .unwrap()
            .run(&app.ref_input)
            .unwrap();
        prop_assert_eq!(plain.checksum, probed.checksum);
        prop_assert!(probed.cycles > plain.cycles, "probes must cost cycles");
    }
}
