//! Summary-is-truth: the resident per-routine summaries must equal a
//! fresh scan of the bodies at every phase boundary, and the analyses
//! that read them must touch no body.
//!
//! Mutation checklist — each of these edits turns the named tests red
//! (re-run them when touching anything that writes a routine body):
//!
//! * `inline_core` does not refresh `cx.calls` after a splice →
//!   `second_pass_sees_the_sites_the_first_pass_copied` (through the
//!   `stale call list` assertion in `run_cluster`, as every inlining
//!   test).
//! * `clone_core` does not patch `cx.calls` after a retarget → the same
//!   assertion, under `clone_is_reachable_through_the_retargeted_site`.
//! * `merge_outcomes` does not `set_summary` a changed member (spliced
//!   or retargeted) → `clone_is_reachable_through_the_retargeted_site`,
//!   `summaries_stay_true_at_every_phase_boundary`.
//! * `fold_globals` does not `set_summary` after rewriting a body →
//!   `facts_rebuilt_after_the_fold_see_the_folded_bodies`,
//!   `session::tests::read_in_folds_what_the_sweep_folds`.
//! * `HloSession::read_in` does not refresh a folded body's summary →
//!   `summaries_stay_true_at_every_phase_boundary`,
//!   `session::tests::read_in_folds_what_the_sweep_folds`.
//! * `plan_clusters` expands, clones and unloads a member instead of
//!   copying it out, or `merge_outcomes` writes through `body_mut`
//!   instead of replacing →
//!   `read_in_encodes_each_pool_once_and_only_replaced_pools_compact_again`.
//! * `merge_outcomes` summarizes a member or a clone before `remap` →
//!   `nested_clone_summary_names_final_ids`,
//!   `summaries_stay_true_at_every_phase_boundary`.
//! * `run_clusters` drops its reruns, slices each cluster from the
//!   whole limit instead of what the clusters before it left, reruns
//!   only a cluster that overshot its slice, or reruns inert clusters →
//!   `op_limited_builds_match_the_goldens_at_every_limit`.
//! * `merge_outcomes` does not absorb a cluster's loader activity →
//!   `op_limited_builds_match_the_goldens_at_every_limit`.

use crate::{
    fold_globals, merge_outcomes, plan_clusters, run_cluster, run_clusters, CallGraph,
    CloneOptions, GlobalFacts, HloSession, HloStats, InlineOptions, PartitionStats,
};
use cmo::{run_jobs, BuildOptions, Compiler};
use cmo_frontend::compile_module;
use cmo_ir::{link_objects, IlObject, LinkedUnit, RoutineId};
use cmo_naim::{LoaderStats, MemClass, NaimConfig, NaimLevel};
use cmo_profile::{ProbeKey, ProfileDb, RoutineShape};
use cmo_select::coarse_select;
use cmo_synth::{generate, mcad_preset, SynthApp};
use cmo_telemetry::{Telemetry, TraceEvent};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::fmt::Write;
use std::sync::OnceLock;

pub(crate) fn unit_of(modules: &[(String, String)]) -> LinkedUnit {
    let objects = modules
        .iter()
        .map(|(name, src)| compile_module(name, src).unwrap())
        .collect();
    link_objects(objects).unwrap()
}

fn session(srcs: &[(&str, &str)], db: Option<&ProfileDb>) -> HloSession {
    let modules: Vec<(String, String)> = srcs
        .iter()
        .map(|&(n, s)| (n.to_owned(), s.to_owned()))
        .collect();
    HloSession::new(unit_of(&modules), NaimConfig::default(), db).unwrap()
}

/// `mcad1` at an eighth of the benchmark's scale, with its trained
/// profile.
pub(crate) fn mcad() -> &'static (SynthApp, ProfileDb) {
    static APP: OnceLock<(SynthApp, ProfileDb)> = OnceLock::new();
    APP.get_or_init(|| {
        let app = generate(&mcad_preset("mcad1", 0.125));
        let mut cc = Compiler::new();
        cc.add_sources(&app.modules, 1).unwrap();
        let db = cc
            .build(&BuildOptions::instrumented())
            .unwrap()
            .run_for_profile(&app.train_input)
            .unwrap();
        (app, db)
    })
}

/// What one run of the HLO pipeline did, seen from outside the bodies.
struct Run {
    hlo: HloStats,
    partition: PartitionStats,
    loader: LoaderStats,
    peak: usize,
    /// Routines of clusters that got no bodies.
    inert: Vec<RoutineId>,
    /// `body` / `body_mut` calls per routine up to (not including)
    /// `into_parts`.
    accesses: Vec<u32>,
    /// Members the clusters handed back.
    changed: usize,
    /// Routines whose `body_mut` the merge called.
    written: usize,
}

/// The driver's HLO stage up to the partition (`cmo::Compiler::build`):
/// the session read in with the targets folded, and the inline and
/// clone options, with the oracle run after read-in when asked.
fn folded(
    unit: LinkedUnit,
    db: Option<&ProfileDb>,
    selectivity: Option<f64>,
    naim: NaimConfig,
    tel: Telemetry,
    oracle: bool,
) -> (HloSession, InlineOptions, Option<CloneOptions>) {
    let targets: Option<BTreeSet<RoutineId>> = selectivity.map(|pct| {
        let db = db.expect("selectivity needs a profile");
        let plan = coarse_select(&unit.program, &unit.bodies, db, pct).unwrap();
        plan.hot_routines.iter().copied().collect()
    });
    let fold_targets: Vec<RoutineId> = match &targets {
        Some(t) => t.iter().copied().collect(),
        None => (0..unit.bodies.len()).map(RoutineId::from_index).collect(),
    };
    let mut session = HloSession::read_in(unit, naim, db, Some(&fold_targets), tel).unwrap();
    if oracle {
        session.assert_summaries_match_bodies("read-in");
    }

    let mut inline_opts = InlineOptions {
        targets,
        ..InlineOptions::default()
    };
    if db.is_none() {
        inline_opts.small_callee_il = inline_opts.small_callee_il.max(80);
    }
    let clone_opts = db.is_some().then(|| CloneOptions {
        min_callee_il: inline_opts.hot_callee_il,
        targets: inline_opts.targets.clone(),
        ..CloneOptions::default()
    });
    (session, inline_opts, clone_opts)
}

/// The driver's HLO stage, with the oracle run at every phase boundary
/// when asked.
fn pipeline(
    unit: LinkedUnit,
    db: Option<&ProfileDb>,
    selectivity: Option<f64>,
    naim: NaimConfig,
    jobs: usize,
    oracle: bool,
) -> Run {
    let (mut session, inline_opts, clone_opts) =
        folded(unit, db, selectivity, naim, Telemetry::disabled(), oracle);
    let check = |session: &mut HloSession, phase: &str| {
        if oracle {
            session.assert_summaries_match_bodies(phase);
        }
    };
    let before_plan = session.body_accesses.clone();
    let plan = plan_clusters(&mut session, Some(&inline_opts), clone_opts.as_ref()).unwrap();
    let inert: Vec<RoutineId> = plan
        .inputs()
        .iter()
        .filter(|input| input.bodies.is_empty())
        .flat_map(|input| input.members.iter().copied())
        .collect();
    for r in &inert {
        assert_eq!(
            session.body_accesses[r.index()],
            before_plan[r.index()],
            "plan_clusters loaded inert {r}"
        );
    }

    let config = session.loader_config();
    let program = &session.program;
    let tel = session.telemetry().clone();
    let outcomes: Vec<_> = run_jobs(plan.inputs().len(), jobs, |_, i| {
        run_cluster(
            program,
            &plan,
            i,
            &config,
            Some(&inline_opts),
            clone_opts.as_ref(),
            None,
            &tel,
        )
        .unwrap()
    });
    let changed = outcomes.iter().map(|o| o.changed.len()).sum();
    let before_merge = session.body_accesses.clone();
    merge_outcomes(&mut session, &plan, outcomes).unwrap();
    let written = before_merge
        .iter()
        .zip(&session.body_accesses)
        .filter(|(before, after)| after > before)
        .count();
    check(&mut session, "merge_outcomes");

    let graph = CallGraph::build(&mut session).unwrap();
    let main = session.program.main_routine().unwrap();
    let reach = graph.reachable_from(main);
    session.record_dead_routines(reach.iter().filter(|&&r| !r).count() as u64);
    drop(graph);
    session.unload_all().unwrap();
    check(&mut session, "the final call graph");

    let run = Run {
        hlo: session.stats(),
        partition: plan.stats(),
        loader: session.loader_stats(),
        peak: session.memory().peak_total,
        inert,
        accesses: session.body_accesses.clone(),
        changed,
        written,
    };
    session.into_parts().unwrap();
    run
}

/// The NAIM-off peak of the all-CMO `+O4 +P` build, for sizing a tight
/// budget the way the benchmark's `naim_tight` does.
fn naim_off_peak() -> usize {
    static PEAK: OnceLock<usize> = OnceLock::new();
    *PEAK.get_or_init(|| {
        let (app, db) = mcad();
        let unit = unit_of(&app.modules);
        pipeline(unit, Some(db), None, NaimConfig::disabled(), 1, false).peak
    })
}

pub(crate) fn tight() -> NaimConfig {
    NaimConfig::with_budget(naim_off_peak() / 12).max_level(NaimLevel::Offload)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        .. ProptestConfig::default()
    })]

    /// The oracle, over link order × {`+O4`, `+O4 +P`, `+O4 +P` at
    /// 20 %} × {NAIM off, tight with offload} × {`-j1`, `-j4`}: after
    /// read-in, after the fold, after the merge (clones registered,
    /// provisional ids remapped) and before `into_parts`.
    #[test]
    fn summaries_stay_true_at_every_phase_boundary(rotate in 0usize..6) {
        let (app, db) = mcad();
        let mut modules = app.modules.clone();
        modules.rotate_left(rotate);
        for (db, sel) in [(None, None), (Some(db), None), (Some(db), Some(20.0))] {
            let mut seen: Option<(HloStats, PartitionStats)> = None;
            for naim in [NaimConfig::disabled(), tight()] {
                for jobs in [1, 4] {
                    let run = pipeline(unit_of(&modules), db, sel, naim.clone(), jobs, true);
                    // Memory configuration and fan-out change nothing
                    // but effort.
                    let got = (run.hlo, run.partition);
                    prop_assert_eq!(*seen.get_or_insert(got), got);
                }
            }
            if db.is_some() && sel.is_none() {
                let (hlo, _) = seen.unwrap();
                prop_assert!(hlo.inlines > 0 && hlo.clones > 0, "{:?}", hlo);
            }
        }
    }
}

/// Per configuration of `mcad()` (`+O4`, `+O4 +P`, `+O4 +P` at 20 %):
/// the inline operations of the unlimited build, and the hash of the
/// merged sessions of the builds limited to `0..=total + 1` (body
/// fingerprints, `HloStats`, `LoaderStats` and the rendered trace, of
/// each). The op-limit semantics are those of commit 393b260, which ran
/// the clusters one after another, each on the budget those before it
/// left over. The hashes were re-recorded when the partition started
/// copying members out and the merge started replacing them, which
/// moves the loader's counters and pool events but no body, verdict or
/// other trace line; and again when IL instructions became 24-byte
/// plain data with a per-body argument pool, which moves only the
/// `bytes` of pool events (accounted expanded sizes).
const LIMIT_GOLDENS: [(&str, u64, &str); 3] = [
    ("+O4", 34, "1fbc2cacc502b50170dd0a7ab3382e3e"),
    ("+O4 +P", 85, "da5f48b85e21af85f946c840ecc6c7c2"),
    ("+O4 +P at 20 %", 41, "4035744d1daba5eb70b4547e7a8c5a9a"),
];

/// The goldens' hash: the two-lane byte-serial FNV-1a that
/// `ContentHash::of` was when they were recorded, kept here so a
/// change of the repository's hash cannot move them.
fn golden_hash(data: &[u8]) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut a: u64 = 0xcbf2_9ce4_8422_2325;
    let mut b: u64 = 0x6c62_272e_07bb_0142;
    for &byte in data {
        a = (a ^ u64::from(byte)).wrapping_mul(PRIME);
        b = (b ^ u64::from(byte.rotate_left(3))).wrapping_mul(PRIME);
    }
    let len = data.len() as u64;
    a = (a ^ len).wrapping_mul(PRIME);
    b = (b ^ len.rotate_left(17)).wrapping_mul(PRIME);
    format!("{a:016x}{b:016x}")
}

#[test]
fn op_limited_builds_match_the_goldens_at_every_limit() {
    let (app, db) = mcad();
    let objects: Vec<IlObject> = app
        .modules
        .iter()
        .map(|(name, src)| compile_module(name, src).unwrap())
        .collect();
    let configs = [(None, None), (Some(db), None), (Some(db), Some(20.0))];
    for ((config, ops, golden), (db, sel)) in LIMIT_GOLDENS.into_iter().zip(configs) {
        let build = |limit: Option<u64>| {
            let tel = Telemetry::enabled();
            let unit = link_objects(objects.clone()).unwrap();
            let (mut session, mut inline, clone) =
                folded(unit, db, sel, NaimConfig::default(), tel.clone(), false);
            inline.op_limit = limit;
            let plan = plan_clusters(&mut session, Some(&inline), clone.as_ref()).unwrap();
            let active = plan
                .inputs()
                .iter()
                .filter(|i| !i.bodies.is_empty())
                .count();
            let mut fan_outs = Vec::new();
            let outcomes =
                run_clusters(&session, &plan, Some(&inline), clone.as_ref(), |n, job| {
                    fan_outs.push(n);
                    (0..n).map(job).collect()
                })
                .unwrap();
            assert!(fan_outs[1] <= active, "{config} at {limit:?}: {fan_outs:?}");
            let (inlined, _) = merge_outcomes(&mut session, &plan, outcomes).unwrap();
            let mut merged = format!("{:?}\n{:?}\n", session.stats(), session.loader_stats());
            let (_, bodies, _, _) = session.into_parts().unwrap();
            for body in &bodies {
                writeln!(merged, "{:016x}", body.fingerprint()).unwrap();
            }
            merged.push_str(&tel.render_trace());
            (inlined.inlines, golden_hash(merged.as_bytes()))
        };
        let (total, _) = build(None);
        let mut rolled = String::new();
        for limit in 0..=total + 1 {
            let (inlines, hash) = build(Some(limit));
            assert_eq!(inlines, limit.min(total), "{config}: the limit binds");
            rolled.push_str(&hash);
        }
        let got = (total, golden_hash(rolled.as_bytes()));
        assert_eq!(got, (ops, golden.to_owned()), "{config}");
    }
}

#[test]
fn whole_program_analyses_load_no_body_and_release_their_charge() {
    let (app, db) = mcad();
    let mut s = HloSession::new(unit_of(&app.modules), tight(), Some(db)).unwrap();
    let stats = s.loader_stats();
    let derived = s.memory().class(MemClass::Derived);

    let facts = GlobalFacts::build(&mut s).unwrap();
    assert!(facts.read.iter().any(|&r| r) && facts.written.iter().any(|&w| w));
    assert!(s.memory().class(MemClass::Derived) > derived);
    drop(facts);
    assert_eq!(s.memory().class(MemClass::Derived), derived);

    let graph = CallGraph::build(&mut s).unwrap();
    assert!(!graph.edges.is_empty());
    assert_eq!(
        s.memory().class(MemClass::Derived),
        derived + graph.heap_bytes()
    );
    drop(graph);
    assert_eq!(s.memory().class(MemClass::Derived), derived);

    // The partition-time graph dies with `plan_clusters`.
    let plan = plan_clusters(&mut s, Some(&InlineOptions::default()), None).unwrap();
    assert_eq!(s.memory().class(MemClass::Derived), derived);
    drop(plan);

    assert!(s.body_accesses.iter().any(|&n| n > 0), "active clusters");
    let mut s = HloSession::new(unit_of(&app.modules), tight(), Some(db)).unwrap();
    GlobalFacts::build(&mut s).unwrap();
    CallGraph::build(&mut s).unwrap();
    assert_eq!(
        s.loader_stats(),
        stats,
        "zero hits, expansions, compactions"
    );
    assert!(s.body_accesses.iter().all(|&n| n == 0));
}

#[test]
fn tight_budget_loads_an_inert_routine_only_at_write_out_and_writes_back_only_changes() {
    let (app, db) = mcad();
    let run = pipeline(unit_of(&app.modules), Some(db), None, tight(), 1, false);
    assert!(run.loader.offload_writes > 0, "the budget must bite");
    assert!(run.loader.compactions > 0);
    assert!(
        run.loader.compactions <= run.loader.pools * 2,
        "{} compactions over {} pools",
        run.loader.compactions,
        run.loader.pools
    );
    // An inert routine is folded in hand at read-in and expanded for
    // write-out (`into_parts`, after this count), never in between.
    assert!(!run.inert.is_empty());
    for r in &run.inert {
        assert_eq!(run.accesses[r.index()], 0, "{r}: loaded before write-out");
    }
    // The merge writes exactly the members the clusters changed.
    assert!(run.changed > 0);
    assert_eq!(run.written, run.changed);
    assert!(run.changed as u64 <= run.hlo.inlines + run.hlo.clones * 4);
}

#[test]
fn read_in_encodes_each_pool_once_and_only_replaced_pools_compact_again() {
    let (app, db) = mcad();
    let tel = Telemetry::enabled();
    let (mut session, inline, clone) = folded(
        unit_of(&app.modules),
        Some(db),
        None,
        tight(),
        tel.clone(),
        false,
    );
    let read_in = session.loader_stats();
    assert!(read_in.offload_writes > 0, "the budget must bite");
    assert_eq!(read_in.uncompactions, 0);
    assert!(read_in.compactions <= read_in.pools, "{read_in:?}");
    drop(tel.drain_records());

    let plan = plan_clusters(&mut session, Some(&inline), clone.as_ref()).unwrap();
    let outcomes = run_clusters(&session, &plan, Some(&inline), clone.as_ref(), |n, job| {
        (0..n).map(job).collect()
    })
    .unwrap();
    merge_outcomes(&mut session, &plan, outcomes).unwrap();
    // Through partition and merge a pool read in is compacted again only
    // after the merge replaced its contents, and none is expanded: the
    // partition copies bodies out and the merge never decodes the body
    // it replaces. Clones are new pools; cluster loaders are private.
    let (records, _) = tel.drain_records();
    let mut replaced = BTreeSet::new();
    let mut recompacted = 0;
    for record in &records {
        let TraceEvent::Pool { action, pool, .. } = record.event else {
            continue;
        };
        if u64::from(pool) >= read_in.pools {
            continue;
        }
        match action {
            "replace" => assert!(replaced.insert(pool), "pool {pool} replaced twice"),
            "compact" => {
                assert!(
                    replaced.remove(&pool),
                    "pool {pool} compacted again unchanged"
                );
                recompacted += 1;
            }
            "expand" | "rescue" => panic!("pool {pool}: {action} before write-out"),
            _ => {}
        }
    }
    assert!(recompacted > 0);
}

#[test]
fn a_three_pass_inline_cluster_charges_one_graph_at_a_time() {
    // main -> a -> b -> c, main first so that each pass inlines one
    // level into main and the next pass must look again: three graphs
    // of at most three edges each, then the clone core's.
    let mut s = session(
        &[(
            "m",
            r#"
            fn main() -> int { return a(); }
            static fn a() -> int { return b() + 1; }
            static fn b() -> int { return c() + 1; }
            static fn c() -> int { return 5; }
            "#,
        )],
        None,
    );
    let opts = InlineOptions::default();
    let plan = plan_clusters(&mut s, Some(&opts), Some(&CloneOptions::default())).unwrap();
    assert_eq!(plan.inputs().len(), 1);
    let outcome = run_cluster(
        &s.program,
        &plan,
        0,
        &s.loader_config(),
        Some(&opts),
        Some(&CloneOptions::default()),
        None,
        s.telemetry(),
    )
    .unwrap();
    assert!(outcome.inline_stats.inlines >= 3);
    let one_graph = 3 * std::mem::size_of::<crate::CallEdge>();
    assert!(outcome.peak.peak_class(MemClass::Derived) <= one_graph);
    assert_eq!(outcome.peak.class(MemClass::Derived), 0, "all released");
}

#[test]
fn second_pass_sees_the_sites_the_first_pass_copied() {
    // `main` comes first, so pass one splices `middle`'s original body
    // (with its call to `inner` under a fresh site id) into `main`
    // before `middle` itself is rewritten; only a refreshed call list
    // shows pass two that new site.
    let mut s = session(
        &[(
            "m",
            r#"
            fn main() -> int { return middle(); }
            static fn middle() -> int { return inner() + 1; }
            static fn inner() -> int { return 5; }
            "#,
        )],
        None,
    );
    crate::inline_pass(&mut s, &InlineOptions::default()).unwrap();
    s.assert_summaries_match_bodies("inline_pass");
    let main = s.program.find_routine("main").unwrap();
    assert_eq!(s.summaries().calls(main).len(), 0, "both levels inlined");
}

#[test]
fn facts_rebuilt_after_the_fold_see_the_folded_bodies() {
    let mut s = session(
        &[(
            "m",
            r#"
            global ro_config: int = 7;
            global write_only_log: int = 0;
            fn main() -> int { write_only_log = input(); return ro_config; }
            "#,
        )],
        None,
    );
    let facts = GlobalFacts::build(&mut s).unwrap();
    let main = s.program.find_routine("main").unwrap();
    fold_globals(&mut s, &facts, &[main]).unwrap();
    let after = GlobalFacts::build(&mut s).unwrap();
    assert!(after.read.iter().all(|&r| !r), "the load was folded");
    assert!(after.written.iter().all(|&w| !w), "the store was removed");
    s.assert_summaries_match_bodies("fold_globals");
}

/// A profile that makes every site of every routine hot.
fn all_hot(unit: &LinkedUnit) -> ProfileDb {
    let mut db = ProfileDb::new();
    let mut probes = Vec::new();
    let mut shapes = Vec::new();
    for (i, body) in unit.bodies.iter().enumerate() {
        let meta = unit.program.routine(RoutineId::from_index(i));
        let name = unit.program.name(meta.name);
        probes.push((ProbeKey::block(name, 0), 1000));
        for site in 0..body.next_site {
            probes.push((ProbeKey::site(name, site), 1000));
        }
        shapes.push((
            name.to_owned(),
            RoutineShape {
                n_blocks: body.blocks.len() as u32,
                n_sites: body.next_site,
                fingerprint: body.fingerprint(),
            },
        ));
    }
    db.record(&probes, &shapes);
    db
}

/// A callee too big to inline, specializable on `mode`.
fn big(name: &str, inner: &str) -> String {
    let arm: String = (0..40)
        .map(|i| format!("acc = acc + (acc / (mode + {})) % 97;", i + 2))
        .collect();
    format!(
        "fn {name}(x: int, mode: int) -> int {{
            var acc: int = x;
            if (mode == 0) {{ acc = acc + {inner}; }} else {{ {arm} }}
            return acc;
        }}"
    )
}

fn cloned(srcs: &[(&str, &str)]) -> (HloSession, usize) {
    let modules: Vec<(String, String)> = srcs
        .iter()
        .map(|&(n, s)| (n.to_owned(), s.to_owned()))
        .collect();
    let db = all_hot(&unit_of(&modules));
    let mut s = HloSession::new(unit_of(&modules), NaimConfig::default(), Some(&db)).unwrap();
    let before = s.n_routines();
    crate::clone_pass(&mut s, &CloneOptions::default()).unwrap();
    s.assert_summaries_match_bodies("clone_pass");
    (s, before)
}

#[test]
fn clone_is_reachable_through_the_retargeted_site() {
    let lib = big("work", "1");
    let (mut s, before) = cloned(&[
        (
            "app",
            "extern fn work(x: int, mode: int) -> int;\nfn main() -> int { return work(input(), 0); }",
        ),
        ("lib", &lib),
    ]);
    assert_eq!(s.n_routines(), before + 1);
    let graph = CallGraph::build(&mut s).unwrap();
    let main = s.program.main_routine().unwrap();
    let reach = graph.reachable_from(main);
    assert!(reach[before], "main now calls the clone");
    let work = s.program.find_routine("work").unwrap();
    assert!(!reach[work.index()], "and nothing calls the original");
}

#[test]
fn nested_clone_summary_names_final_ids() {
    // Two clusters that each clone. In the second, `mid` is defined
    // before `top`, so `mid`'s site is retargeted to `leaf`'s clone
    // first and `mid`'s own clone — taken for `top` — embeds that
    // provisional id, which the first cluster's clone has shifted.
    let solo = big("solo", "1");
    let leaf = big("leaf", "1");
    let mid = big("mid", "leaf(x, 0)");
    let (mut s, before) = cloned(&[
        (
            "a",
            &format!("{solo}\nfn first() -> int {{ return solo(input(), 0); }}"),
        ),
        (
            "b",
            &format!("{leaf}\n{mid}\nfn top() -> int {{ return mid(input(), 0); }}"),
        ),
        (
            "c",
            "extern fn first() -> int;\nextern fn top() -> int;\nfn main() -> int { return first() + top(); }",
        ),
    ]);
    assert_eq!(s.n_routines(), before + 3, "solo, leaf and mid clones");
    let graph = CallGraph::build(&mut s).unwrap();
    let reach = graph.reachable_from(s.program.main_routine().unwrap());
    assert!(reach[before..].iter().all(|&r| r), "every clone is called");
}
