//! A staged mirror of `cmo::build_objects` for `+O4 +P` builds: the
//! same public functions of each crate, called in the same order with
//! the same arguments, with a span recorded around each call from this
//! file. The image it links must be byte-identical to
//! `Compiler::build`'s — the harness checks that on every traced
//! iteration, which is what keeps the mirror honest.
//!
//! Stage spans are direct children of the caller's root span and are
//! named `<crate>.<step>`; per-module, per-cluster and per-routine
//! spans hang under their stage.

use crate::trace::{SpanId, Tracer};
use cmo::{run_jobs, BuildError, BuildOptions, OptLevel, Telemetry};
use cmo_hlo::{
    fold_globals, merge_outcomes, plan_clusters, run_cluster, CallGraph, CloneOptions, GlobalFacts,
    HloSession, HloStats, PartitionStats,
};
use cmo_ir::{link_objects, RoutineBody, RoutineId};
use cmo_link::{assemble, CallArc, LinkOptions};
use cmo_llo::{
    lower_routine, shape_of, GlobalLayout, LloOptions, LoweredRoutine, OptEffort, OptEffortOpt,
};
use cmo_naim::LoaderStats;
use cmo_profile::{Freshness, ProfileDb};
use cmo_select::coarse_select;
use cmo_vm::MachineImage;
use std::collections::{BTreeMap, BTreeSet};

/// Stages with no worker fan-out: their share of a `jobs = 1` build is
/// `parallel.serial_share`.
pub const SERIAL_STAGES: [&str; 9] = [
    "ir.link",
    "select.coarse",
    "hlo.read_in",
    "hlo.ipa",
    "hlo.partition",
    "hlo.merge",
    "hlo.callgraph",
    "hlo.write_out",
    "link.assemble",
];

/// What a staged build produced, with the counts taken at the stage
/// boundaries.
#[derive(Debug)]
pub struct Staged {
    /// The linked image.
    pub image: MachineImage,
    /// Modules selected for CMO.
    pub cmo_modules: usize,
    /// HLO transformation counters.
    pub hlo: HloStats,
    /// Cluster partition counters.
    pub clusters: PartitionStats,
    /// NAIM loader counters at the end of the HLO stage.
    pub loader: LoaderStats,
    /// IL instructions over all routine bodies after HLO wrote them out.
    pub il_size_after: u64,
    /// IL instructions over all routines after LLO's local optimization.
    pub il_after_opt: u64,
}

fn loader_delta(before: &LoaderStats, after: &LoaderStats) -> Vec<(&'static str, u64)> {
    vec![
        ("compactions", after.compactions - before.compactions),
        ("uncompactions", after.uncompactions - before.uncompactions),
        (
            "offload_writes",
            after.offload_writes - before.offload_writes,
        ),
        (
            "fetch_work_units",
            after.fetch_work_units - before.fetch_work_units,
        ),
        ("work_units", after.work_units - before.work_units),
    ]
}

/// Stored profile block counts for a body, clipped to its current
/// block count (the driver's `correlated_counts`).
fn correlated_counts(db: &ProfileDb, name: &str, body: &RoutineBody) -> Option<Vec<u64>> {
    match db.lookup(name, shape_of(body)) {
        (Freshness::Missing, _) | (_, None) => None,
        (_, Some(p)) => {
            let mut counts = p.blocks.clone();
            counts.resize(body.blocks.len(), 0);
            Some(counts)
        }
    }
}

/// Front end, HLO, LLO and final link of `modules` at `options`, one
/// span per stage under `root`.
///
/// # Errors
///
/// Whatever the mirrored calls return.
///
/// # Panics
///
/// Panics unless `options` is a plain `+O4 +P` build: the mirror
/// covers only the path the benchmark's workloads take.
pub fn build(
    modules: &[(String, String)],
    options: &BuildOptions,
    tracer: &Tracer,
    root: SpanId,
) -> Result<Staged, BuildError> {
    assert!(
        options.level == OptLevel::O4 && options.pbo && !options.instrument && !options.layered,
        "the staged mirror covers +O4 +P only"
    );
    assert!(
        options.inline.op_limit.is_none(),
        "no op limit in the benchmark"
    );
    let db = options
        .profile
        .as_ref()
        .expect("+P carries a profile database");
    let tel = Telemetry::disabled();
    let workers = options.jobs.max(1);

    let objects = tracer.scope("frontend.compile", root, |stage| {
        run_jobs(modules.len(), workers, |_, i| {
            tracer.scope("frontend.compile_module", stage, |_| {
                cmo_frontend::compile_module(&modules[i].0, &modules[i].1)
            })
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
    })?;

    // `Compiler::build` hands `build_objects` a copy of its objects.
    let objects = tracer.scope("ir.clone_objects", root, |_| objects.clone());
    let unit = tracer.scope("ir.link", root, |_| link_objects(objects))?;
    if unit.program.main_routine().is_none() {
        return Err(BuildError::NoMain);
    }
    let total_modules = unit.program.modules().len();

    let selection = match options.selectivity {
        Some(pct) => Some(tracer.scope("select.coarse", root, |_| {
            coarse_select(&unit.program, &unit.bodies, db, pct)
        })?),
        None => None,
    };
    let (targets, cmo_modules): (Option<BTreeSet<RoutineId>>, usize) = match &selection {
        Some(plan) => (
            Some(plan.hot_routines.iter().copied().collect()),
            plan.cmo_modules.len(),
        ),
        None => (None, total_modules),
    };

    let span = tracer.begin("hlo.read_in", root);
    let mut session = HloSession::new(unit, options.naim.clone(), Some(db))?;
    let mut seen = session.loader_stats();
    tracer.end_with(span, loader_delta(&LoaderStats::default(), &seen));
    // Closes an HLO stage span with the loader activity since the
    // previous boundary.
    let mut close = |span: SpanId, session: &HloSession| {
        let now = session.loader_stats();
        tracer.end_with(span, loader_delta(&seen, &now));
        seen = now;
    };

    let span = tracer.begin("hlo.ipa", root);
    let facts = GlobalFacts::build(&mut session)?;
    let fold_targets: Vec<RoutineId> = match &targets {
        Some(t) => t.iter().copied().collect(),
        None => (0..session.n_routines())
            .map(RoutineId::from_index)
            .collect(),
    };
    fold_globals(&mut session, &facts, &fold_targets)?;
    session.unload_all()?;
    close(span, &session);

    let mut inline_opts = options.inline.clone();
    inline_opts.targets = targets;
    let clone_opts = CloneOptions {
        min_callee_il: inline_opts.hot_callee_il,
        targets: inline_opts.targets.clone(),
        ..CloneOptions::default()
    };

    let span = tracer.begin("hlo.partition", root);
    let plan = plan_clusters(&mut session, Some(&inline_opts), Some(&clone_opts))?;
    close(span, &session);
    let clusters = plan.stats();

    let span = tracer.begin("hlo.inline", root);
    let config = session.loader_config();
    let program = &session.program;
    let outcomes = run_jobs(plan.inputs().len(), workers, |_, i| {
        tracer.scope("hlo.run_cluster", span, |_| {
            run_cluster(
                program,
                &plan,
                i,
                &config,
                Some(&inline_opts),
                Some(&clone_opts),
                None,
                &tel,
            )
        })
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    close(span, &session);

    let span = tracer.begin("hlo.merge", root);
    merge_outcomes(&mut session, &plan, outcomes)?;
    close(span, &session);

    let span = tracer.begin("hlo.callgraph", root);
    let graph = CallGraph::build(&mut session)?;
    let main = session.program.main_routine().expect("checked above");
    let reach = graph.reachable_from(main);
    let dead: Vec<RoutineId> = (0..session.n_routines())
        .map(RoutineId::from_index)
        .filter(|r| !reach[r.index()])
        .collect();
    session.record_dead_routines(dead.len() as u64);
    let mut agg: BTreeMap<(RoutineId, RoutineId), u64> = BTreeMap::new();
    for e in &graph.edges {
        *agg.entry((e.caller, e.callee)).or_insert(0) += e.count;
    }
    let arcs: Vec<CallArc> = agg
        .into_iter()
        .map(|((caller, callee), weight)| CallArc {
            caller,
            callee,
            weight,
        })
        .collect();
    session.unload_all()?;
    close(span, &session);

    let hlo = session.stats();
    let loader = session.loader_stats();
    let (program, bodies, symtabs, maintained_counts) =
        tracer.scope("hlo.write_out", root, |_| session.into_parts())?;
    let il_size_after = bodies.iter().map(|b| b.instr_count() as u64).sum();

    let dead_set: BTreeSet<usize> = dead.iter().map(|r| r.index()).collect();
    let (layout, lowered) = tracer.scope("llo.lower", root, |stage| {
        let layout = GlobalLayout::new(&program);
        let lowered: Vec<LoweredRoutine> = run_jobs(bodies.len(), workers, |_, i| {
            tracer.scope("llo.lower_routine", stage, |_| {
                let body = &bodies[i];
                let rid = RoutineId::from_index(i);
                let name = program.name(program.routine(rid).name).to_owned();
                if dead_set.contains(&i) {
                    return LoweredRoutine {
                        name,
                        code: vec![cmo_vm::MInstr::Ret { value: None }],
                        frame_slots: 0,
                        probes: Vec::new(),
                        shape: shape_of(body),
                        llo_work_bytes: 0,
                        il_after_opt: 0,
                    };
                }
                let block_counts = match &maintained_counts[i] {
                    Some(c) => Some(c.clone()),
                    None => correlated_counts(db, &name, body),
                };
                let llo_opts = LloOptions {
                    effort: OptEffortOpt(OptEffort::O2),
                    instrument: false,
                    block_counts,
                };
                lower_routine(rid, body, &program, &layout, &llo_opts)
            })
        });
        (layout, lowered)
    });
    let il_after_opt = lowered.iter().map(|lr| u64::from(lr.il_after_opt)).sum();

    let image = tracer.scope("link.assemble", root, |_| {
        assemble(
            &program,
            lowered,
            &symtabs,
            &layout,
            &LinkOptions {
                arcs: Some(arcs),
                dead,
                telemetry: tel.clone(),
            },
        )
    });

    Ok(Staged {
        image,
        cmo_modules,
        hlo,
        clusters,
        loader,
        il_size_after,
        il_after_opt,
    })
}
