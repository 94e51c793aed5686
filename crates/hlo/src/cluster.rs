//! Cluster-partitioned HLO: WHOPR-style parallel inlining/cloning.
//!
//! The monolithic inline/clone pipeline becomes a three-step protocol:
//!
//! 1. [`plan_clusters`] condenses the call graph into independent
//!    clusters (no coupled edge leaves a cluster) and *extracts* each
//!    cluster's call lists and maintained counts out of the main
//!    session into self-contained [`ClusterInput`]s. Member bodies are
//!    copied out (their pools left as they are) only for a cluster with
//!    an edge between two distinct members; every edge of any other
//!    (*inert*) cluster is self-recursive or cross-cluster, and both are
//!    rejected before a body is read.
//! 2. [`run_cluster`] optimizes one cluster against a **private** NAIM
//!    loader and a **private** telemetry sink — no shared mutable
//!    state, so [`run_clusters`] fans them out across worker threads,
//!    under an op limit too.
//!    Clones are created under *provisional* routine ids above the
//!    pre-pass id space. It hands back only the members it changed.
//! 3. [`merge_outcomes`] folds outcomes back in ascending cluster
//!    order: changed bodies replace the stale ones without decoding
//!    them, counts and il sizes are written back, summaries refreshed,
//!    provisional clone ids are remapped to their final program ids,
//!    loader activity is absorbed as a concurrent peak, and trace
//!    records are re-stamped onto the main work clock.
//!
//! Because every merge step is keyed on the cluster *index* — never on
//! completion order — `HloStats`, `InlineStats`, the compile report
//! and the trace are byte-identical at every `-j` level.

use crate::callgraph::{CallEdge, CallGraph, PartitionStats};
use crate::clone::{const_sig_key, site_const_args, specialize, CloneOptions, CloneStats};
use crate::inline::{splice_call, InlineOptions, InlineStats};
use crate::session::HloSession;
use cmo_ir::{
    CallSiteId, Instr, Linkage, ModuleId, Program, RoutineBody, RoutineId, RoutineMeta,
    RoutineSummary, Signature, Transitory,
};
use cmo_naim::{
    Loader, LoaderStats, MemClass, MemorySnapshot, NaimConfig, NaimError, PoolId, PoolKind,
};
use cmo_telemetry::{Telemetry, TraceEvent, TraceRecord};
use std::collections::BTreeMap;

/// Base of the private pool-id namespace for per-cluster loaders:
/// far above anything the main session allocates, and strided by the
/// cluster count so no two clusters ever share a pool id in the trace.
const CLUSTER_POOL_BASE: u32 = 1_000_000;

/// A self-contained unit of parallel HLO work: one cluster's member
/// routines with their call lists and maintained profile counts,
/// extracted from the session at plan time.
#[derive(Debug)]
pub struct ClusterInput {
    /// Cluster index (position in the plan; also the merge order).
    index: usize,
    /// Member routines, ascending.
    members: Vec<RoutineId>,
    /// One body per member — or none at all for an inert cluster,
    /// whose verdicts all come from `calls`.
    bodies: Vec<RoutineBody>,
    /// Each member's `(site, callee)` list, from its summary.
    calls: Vec<Vec<(CallSiteId, RoutineId)>>,
    counts: Vec<Option<Vec<u64>>>,
    site_counts: Vec<BTreeMap<u32, u64>>,
    il_size: Vec<u32>,
}

/// The partition plus the extracted per-cluster inputs, ready to fan
/// out.
#[derive(Debug)]
pub struct ClusterPlan {
    stats: PartitionStats,
    inputs: Vec<ClusterInput>,
    /// Number of routines when the plan was taken: provisional clone
    /// ids start here.
    id_space: usize,
    /// Session memory when the fan-out begins; cluster peaks fold on
    /// top of this as concurrent peaks.
    at_split: MemorySnapshot,
}

impl ClusterPlan {
    /// The per-cluster work units, in cluster order.
    #[must_use]
    pub fn inputs(&self) -> &[ClusterInput] {
        &self.inputs
    }

    /// Partition summary counters for the compile report.
    #[must_use]
    pub fn stats(&self) -> PartitionStats {
        self.stats
    }
}

/// A clone created inside a cluster, carried out under a provisional
/// id and registered with the program only at merge time (the shared
/// program is read-only while workers run).
#[derive(Debug)]
struct PendingClone {
    name: String,
    module: ModuleId,
    sig: Signature,
    source_lines: u32,
    il_size: u32,
    body: RoutineBody,
    counts: Option<Vec<u64>>,
    site_counts: BTreeMap<u32, u64>,
}

/// A member whose body a splice or a clone retarget rewrote, with the
/// maintained data that moved with it.
#[derive(Debug)]
struct ChangedMember {
    rid: RoutineId,
    body: RoutineBody,
    counts: Option<Vec<u64>>,
    site_counts: BTreeMap<u32, u64>,
    il_size: u32,
}

/// Everything one finished cluster hands back for the index-ordered
/// merge.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// The members this cluster changed, ascending; the rest are
    /// still exactly what the session holds.
    changed: Vec<ChangedMember>,
    pending: Vec<PendingClone>,
    /// Inline counters for this cluster.
    pub inline_stats: InlineStats,
    /// Clone counters for this cluster.
    pub clone_stats: CloneStats,
    loader_stats: LoaderStats,
    peak: MemorySnapshot,
    records: Vec<TraceRecord>,
    work: u64,
}

/// Partitions the session's call graph and extracts per-cluster
/// inputs. The coupling predicate deliberately *over*-approximates the
/// inline and clone candidate tests (dominance and growth caps are
/// ignored): over-coupling only shrinks parallelism, while any
/// candidate the predicate missed is rejected at inline time with the
/// `cross_cluster` reason — so correctness never depends on the
/// predicate being tight.
///
/// # Errors
///
/// Propagates loader failures.
pub fn plan_clusters(
    session: &mut HloSession,
    inline: Option<&InlineOptions>,
    clone: Option<&CloneOptions>,
) -> Result<ClusterPlan, NaimError> {
    let graph = CallGraph::build(session)?;
    let n = session.n_routines();
    let max_cluster = std::cmp::max(16, n / 8);
    let program = &session.program;
    let may_couple = |e: &CallEdge| {
        let callee_il = program.routine(e.callee).il_size;
        let inline_couples = inline.is_some_and(|o| {
            o.targets.as_ref().is_none_or(|t| t.contains(&e.caller))
                && (callee_il <= o.small_callee_il
                    || (e.count >= o.hot_site_min_count && callee_il <= o.hot_callee_il))
        });
        let clone_couples = clone.is_some_and(|o| {
            o.targets.as_ref().is_none_or(|t| t.contains(&e.caller))
                && e.count >= o.min_count
                && callee_il > o.min_callee_il
        });
        inline_couples || clone_couples
    };
    let partition = graph.partition(n, max_cluster, may_couple);
    let tel = session.telemetry().clone();
    if tel.is_enabled() {
        for (k, c) in partition.clusters.iter().enumerate() {
            tel.emit(TraceEvent::Cluster {
                cluster: k as u32,
                routines: c.members.len() as u64,
                edges: c.edges,
            });
        }
    }
    // A cluster can inline or clone only across an edge between two
    // distinct members; without one its bodies stay where they are.
    let mut active = vec![false; partition.clusters.len()];
    for e in &graph.edges {
        if e.caller != e.callee && partition.same_cluster(e.caller, e.callee) {
            active[partition.cluster_of[e.caller.index()] as usize] = true;
        }
    }
    drop(graph);
    let mut inputs = Vec::with_capacity(partition.clusters.len());
    for (index, cluster) in partition.clusters.iter().enumerate() {
        let n = cluster.members.len();
        let mut bodies = Vec::with_capacity(if active[index] { n } else { 0 });
        let mut calls = Vec::with_capacity(n);
        let mut counts = Vec::with_capacity(n);
        let mut site_counts = Vec::with_capacity(n);
        let mut il_size = Vec::with_capacity(n);
        for &rid in &cluster.members {
            if active[index] {
                bodies.push(session.copy_body(rid)?);
            }
            calls.push(session.summaries().calls(rid).collect());
            counts.push(session.block_counts(rid).map(<[u64]>::to_vec));
            site_counts.push(session.site_counts_of(rid).clone());
            il_size.push(session.program.routine(rid).il_size);
        }
        inputs.push(ClusterInput {
            index,
            members: cluster.members.clone(),
            bodies,
            calls,
            counts,
            site_counts,
            il_size,
        });
    }
    session.unload_all()?;
    Ok(ClusterPlan {
        stats: partition.stats(),
        inputs,
        id_space: n,
        at_split: session.memory(),
    })
}

/// The per-cluster working state: a private loader over the member
/// bodies plus locally maintained counts and il sizes. The shared
/// [`Program`] is read-only (names, modules, signatures); anything a
/// pass mutates lives here.
struct ClusterCx<'a> {
    program: &'a Program,
    members: Vec<RoutineId>,
    /// `slot_of[member] = slot`; non-members are absent (cross-cluster).
    slot_of: BTreeMap<RoutineId, usize>,
    loader: Loader<Transitory>,
    /// One pool per member; empty for an inert cluster.
    pool: Vec<PoolId>,
    /// Each member's `(site, callee)` list, kept equal to its body's by
    /// the splice that rewrites it.
    calls: Vec<Vec<(CallSiteId, RoutineId)>>,
    /// Members a splice or a retarget rewrote.
    changed: Vec<bool>,
    counts: Vec<Option<Vec<u64>>>,
    site_counts: Vec<BTreeMap<u32, u64>>,
    il_size: Vec<u32>,
    id_space: usize,
    pending: Vec<PendingClone>,
    tel: Telemetry,
}

impl<'a> ClusterCx<'a> {
    fn is_local(&self, rid: RoutineId) -> bool {
        self.slot_of.contains_key(&rid)
    }

    fn slot(&self, rid: RoutineId) -> usize {
        self.slot_of[&rid]
    }

    fn il(&self, rid: RoutineId) -> u32 {
        self.il_size[self.slot(rid)]
    }

    fn entry_count(&self, rid: RoutineId) -> u64 {
        self.counts[self.slot(rid)]
            .as_ref()
            .and_then(|c| c.first().copied())
            .unwrap_or(0)
    }

    fn site_count(&self, rid: RoutineId, site: u32) -> u64 {
        self.site_counts[self.slot(rid)]
            .get(&site)
            .copied()
            .unwrap_or(0)
    }

    fn body(&mut self, rid: RoutineId) -> Result<&RoutineBody, NaimError> {
        let pool = self.pool[self.slot_of[&rid]];
        Ok(self.loader.get(pool)?.routine())
    }

    fn body_mut(&mut self, rid: RoutineId) -> Result<&mut RoutineBody, NaimError> {
        let pool = self.pool[self.slot_of[&rid]];
        Ok(self.loader.get_mut(pool)?.routine_mut())
    }

    fn unload(&mut self, rid: RoutineId) -> Result<(), NaimError> {
        self.loader.unload(self.pool[self.slot_of[&rid]])
    }

    /// Lays out the cluster-local call graph from the members' call
    /// lists (derived-data discipline: charged here, released by
    /// [`ClusterCx::release_graph`]). Edges to non-member callees are
    /// kept — they are what the inline core rejects as `cross_cluster`.
    fn local_graph(&mut self) -> Vec<CallEdge> {
        let mut edges = Vec::with_capacity(self.calls.iter().map(Vec::len).sum());
        for (slot, &caller) in self.members.iter().enumerate() {
            edges.extend(self.calls[slot].iter().map(|&(site, callee)| CallEdge {
                caller,
                site,
                callee,
                count: self.site_count(caller, site.0),
            }));
        }
        self.loader
            .account(MemClass::Derived, graph_bytes(&edges) as isize);
        edges
    }

    /// Drops a graph from [`ClusterCx::local_graph`] and its charge.
    fn release_graph(&mut self, graph: Vec<CallEdge>) {
        self.loader
            .account(MemClass::Derived, -(graph_bytes(&graph) as isize));
    }

    /// Traces one inline verdict, when tracing is on.
    fn inline_event(
        &self,
        caller: RoutineId,
        callee: RoutineId,
        site: CallSiteId,
        accepted: bool,
        reason: &'static str,
        count: u64,
    ) {
        if !self.tel.is_enabled() {
            return;
        }
        let p = self.program;
        self.tel.emit(TraceEvent::Inline {
            caller: p.name(p.routine(caller).name).to_owned(),
            callee: p.name(p.routine(callee).name).to_owned(),
            site: site.0,
            accepted,
            reason,
            count,
        });
    }
}

fn graph_bytes(edges: &Vec<CallEdge>) -> usize {
    edges.capacity() * std::mem::size_of::<CallEdge>()
}

struct Candidate {
    caller: RoutineId,
    site: CallSiteId,
    callee: RoutineId,
    count: u64,
    /// Sort key for cache-friendly scheduling.
    module_pair: (u32, u32),
    /// Which heuristic qualified this site (`"small"` or `"hot"`).
    why: &'static str,
}

/// The inlining core, over one cluster. Identical heuristics and
/// scheduling to the historical whole-program pass, with one addition:
/// a candidate whose callee lives in another cluster is rejected with
/// the `cross_cluster` reason (such sites only exist when the coupling
/// predicate over-approximated — see [`plan_clusters`]).
fn inline_core(
    cx: &mut ClusterCx,
    options: &InlineOptions,
    op_budget: Option<u64>,
) -> Result<InlineStats, NaimError> {
    let mut stats = InlineStats::default();
    let mut ops_done = 0u64;

    for _pass in 0..options.max_passes {
        let graph = cx.local_graph();
        let mut candidates: Vec<Candidate> = Vec::new();
        for e in &graph {
            if e.caller == e.callee {
                continue; // no direct self-inlining
            }
            if let Some(targets) = &options.targets {
                if !targets.contains(&e.caller) {
                    continue;
                }
            }
            stats.considered += 1;
            let count = e.count;
            if !cx.is_local(e.callee) {
                cx.inline_event(e.caller, e.callee, e.site, false, "cross_cluster", count);
                continue;
            }
            let callee_il = cx.il(e.callee);
            let small = callee_il <= options.small_callee_il;
            let callee_entries = cx.entry_count(e.callee);
            let dominant = callee_entries == 0
                || count as f64 >= options.hot_site_dominance * callee_entries as f64;
            let hot = count >= options.hot_site_min_count
                && callee_il <= options.hot_callee_il
                && dominant;
            if small || hot {
                let cm = cx.program.routine(e.callee).module.0;
                let rm = cx.program.routine(e.caller).module.0;
                candidates.push(Candidate {
                    caller: e.caller,
                    site: e.site,
                    callee: e.callee,
                    count,
                    module_pair: (cm, rm),
                    why: if small { "small" } else { "hot" },
                });
            } else {
                let reason = if count < options.hot_site_min_count {
                    "cold"
                } else if callee_il > options.hot_callee_il {
                    "too_large"
                } else {
                    "not_dominant"
                };
                cx.inline_event(e.caller, e.callee, e.site, false, reason, count);
            }
        }
        cx.release_graph(graph);
        if candidates.is_empty() {
            break;
        }
        // Cache-friendly deterministic schedule: same (callee module,
        // caller module) pairs adjacent; hotter sites first within a
        // pair.
        candidates.sort_by(|a, b| {
            a.module_pair
                .cmp(&b.module_pair)
                .then(b.count.cmp(&a.count))
                .then(a.caller.cmp(&b.caller))
                .then(a.site.cmp(&b.site))
        });

        let mut did_any = false;
        for c in candidates {
            if let Some(limit) = op_budget {
                if ops_done >= limit {
                    stats.hit_op_limit = true;
                    cx.loader.unload_all()?;
                    return Ok(stats);
                }
            }
            let caller_il = cx.il(c.caller);
            let callee_il = cx.il(c.callee);
            if caller_il.saturating_add(callee_il) > options.caller_growth_cap {
                stats.capped += 1;
                cx.inline_event(c.caller, c.callee, c.site, false, "growth_cap", c.count);
                continue;
            }
            // Clone the callee body (it is only read), then mutate the
            // caller in place.
            let callee_body = cx.body(c.callee)?.clone();
            let callee_entry = cx.entry_count(c.callee);
            let callee_slot = cx.slot(c.callee);
            let callee_counts: Option<Vec<u64>> = cx.counts[callee_slot].clone();
            let callee_sites: Vec<(u32, u64)> = cx.site_counts[callee_slot]
                .iter()
                .map(|(&s, &n)| (s, n))
                .collect();

            let caller_body = cx.body_mut(c.caller)?;
            let Some(info) = splice_call(caller_body, c.site, &callee_body) else {
                cx.inline_event(c.caller, c.callee, c.site, false, "site_gone", c.count);
                continue;
            };
            let new_il = caller_body.instr_count() as u32;
            let new_calls = RoutineSummary::of(caller_body).calls;
            did_any = true;
            ops_done += 1;
            stats.inlines += 1;
            cx.inline_event(c.caller, c.callee, c.site, true, c.why, c.count);

            // Maintain profile counts through the transformation.
            let scale = if callee_entry == 0 {
                0.0
            } else {
                c.count as f64 / callee_entry as f64
            };
            let caller_slot = cx.slot(c.caller);
            if let Some(counts) = cx.counts[caller_slot].as_mut() {
                let call_block_count = counts.get(info.call_block.index()).copied().unwrap_or(0);
                // Continuation executes as often as the original block.
                counts.resize(info.cont_block.index(), 0);
                counts.push(call_block_count);
                for i in 0..info.callee_blocks {
                    let c_i = callee_counts
                        .as_ref()
                        .and_then(|v| v.get(i as usize).copied())
                        .unwrap_or(callee_entry);
                    counts.push((c_i as f64 * scale) as u64);
                }
                debug_assert_eq!(
                    counts.len(),
                    (info.callee_base + info.callee_blocks) as usize
                );
            }
            cx.site_counts[caller_slot].remove(&c.site.0);
            for (old, new) in &info.site_map {
                let old_count = callee_sites
                    .iter()
                    .find(|&&(s, _)| s == old.0)
                    .map_or(0, |&(_, n)| n);
                cx.site_counts[caller_slot].insert(new.0, (old_count as f64 * scale) as u64);
            }
            cx.il_size[caller_slot] = new_il;
            cx.calls[caller_slot] = new_calls;
            cx.changed[caller_slot] = true;
            cx.unload(c.caller)?;
            cx.unload(c.callee)?;
        }
        cx.loader.unload_all()?;
        if !did_any {
            break;
        }
    }
    Ok(stats)
}

/// The cloning core, over one cluster. Non-local callees are skipped
/// silently (the historical pass emitted no rejection events either);
/// clones are recorded as [`PendingClone`]s under provisional ids and
/// materialized at merge time.
fn clone_core(cx: &mut ClusterCx, options: &CloneOptions) -> Result<CloneStats, NaimError> {
    let mut stats = CloneStats::default();
    let graph = cx.local_graph();
    // (callee, const signature) -> provisional clone id.
    let mut clone_cache: BTreeMap<(RoutineId, String), RoutineId> = BTreeMap::new();

    for e in &graph {
        if stats.clones >= u64::from(options.max_clones) {
            break;
        }
        if e.caller == e.callee || e.count < options.min_count {
            continue;
        }
        if let Some(targets) = &options.targets {
            if !targets.contains(&e.caller) {
                continue;
            }
        }
        if !cx.is_local(e.callee) {
            continue; // cross-cluster callees are never cloned
        }
        if cx.il(e.callee) <= options.min_callee_il {
            continue; // inlining territory
        }
        let callee_meta = cx.program.routine(e.callee);
        let callee_name = cx.program.name(callee_meta.name);
        if callee_name.contains("$clone") {
            continue; // already specialized; nothing more to gain
        }
        let caller_body = cx.body(e.caller)?;
        let Some(sig) = site_const_args(caller_body, e.site.0) else {
            continue;
        };
        if sig.iter().all(Option::is_none) {
            continue;
        }
        let key = (e.callee, const_sig_key(&sig));
        let clone_id = match clone_cache.get(&key) {
            Some(&id) => id,
            None => {
                let callee_body = cx.body(e.callee)?.clone();
                let specialized = specialize(&callee_body, &sig);
                let scale = {
                    let entries = cx.entry_count(e.callee);
                    if entries == 0 {
                        0.0
                    } else {
                        e.count as f64 / entries as f64
                    }
                };
                let callee_slot = cx.slot(e.callee);
                let counts = cx.counts[callee_slot]
                    .as_ref()
                    .map(|c| c.iter().map(|&x| (x as f64 * scale) as u64).collect());
                let sites: BTreeMap<u32, u64> = cx.site_counts[callee_slot]
                    .iter()
                    .map(|(&s, &n)| (s, (n as f64 * scale) as u64))
                    .collect();
                let name = format!("{callee_name}$clone{}", cx.pending.len());
                let pid = RoutineId::from_index(cx.id_space + cx.pending.len());
                cx.pending.push(PendingClone {
                    name: name.clone(),
                    module: callee_meta.module,
                    sig: callee_meta.sig.clone(),
                    source_lines: callee_meta.source_lines,
                    il_size: specialized.instr_count() as u32,
                    body: specialized,
                    counts,
                    site_counts: sites,
                });
                clone_cache.insert(key, pid);
                stats.clones += 1;
                if cx.tel.is_enabled() {
                    cx.tel.emit(TraceEvent::CloneRoutine {
                        callee: callee_name.to_owned(),
                        clone: name,
                        count: e.count,
                    });
                }
                pid
            }
        };
        // Retarget the site to the provisional id (fixed up at merge).
        let site = e.site.0;
        let caller_body = cx.body_mut(e.caller)?;
        'outer: for block in &mut caller_body.blocks {
            for instr in &mut block.instrs {
                if let Instr::Call {
                    site: s, callee, ..
                } = instr
                {
                    if s.0 == site {
                        *callee = cmo_ir::CalleeRef::Id(clone_id);
                        break 'outer;
                    }
                }
            }
        }
        let caller_slot = cx.slot(e.caller);
        if let Some(call) = cx.calls[caller_slot].iter_mut().find(|c| c.0 == e.site) {
            call.1 = clone_id;
        }
        cx.changed[caller_slot] = true;
        cx.unload(e.caller)?;
        stats.retargeted += 1;
    }
    cx.release_graph(graph);
    cx.loader.unload_all()?;
    Ok(stats)
}

/// Optimizes one cluster in isolation: member bodies (none, for an
/// inert cluster) go into a private NAIM loader (same thresholds,
/// disjoint pool-id namespace),
/// decisions are traced into a private sink tagged with the cluster's
/// *virtual* worker id (`index + 1`, so the trace is identical at every
/// `-j`), and the op budget — if any — caps this cluster's inline
/// operations. Pure with respect to the session: safe to call from
/// worker threads with a shared `&Program`.
///
/// # Errors
///
/// Propagates loader failures (a per-cluster loader enforces the same
/// hard memory limit as the main session).
#[allow(clippy::too_many_arguments)] // one per input a cluster run reads
pub fn run_cluster(
    program: &Program,
    plan: &ClusterPlan,
    index: usize,
    config: &NaimConfig,
    inline: Option<&InlineOptions>,
    clone: Option<&CloneOptions>,
    op_budget: Option<u64>,
    telemetry: &Telemetry,
) -> Result<ClusterOutcome, NaimError> {
    let input = &plan.inputs[index];
    debug_assert_eq!(input.index, index);
    let tel = if telemetry.is_enabled() {
        Telemetry::enabled().for_worker(index as u32 + 1)
    } else {
        Telemetry::disabled()
    };
    let mut loader: Loader<Transitory> = Loader::with_ids(
        config.clone(),
        CLUSTER_POOL_BASE + index as u32,
        plan.inputs.len() as u32,
    );
    loader.set_telemetry(tel.clone());
    let mut pool = Vec::with_capacity(input.members.len());
    for body in &input.bodies {
        let p = loader.insert(Transitory::Routine(body.clone()), PoolKind::Ir);
        loader.unload(p)?;
        pool.push(p);
    }
    let derived: usize = input
        .counts
        .iter()
        .map(|c| c.as_ref().map_or(0, |v| v.len() * 8 + 24))
        .sum();
    loader.account(MemClass::Derived, derived as isize);
    loader.enforce()?;

    let mut cx = ClusterCx {
        program,
        members: input.members.clone(),
        slot_of: input
            .members
            .iter()
            .enumerate()
            .map(|(slot, &rid)| (rid, slot))
            .collect(),
        loader,
        pool,
        calls: input.calls.clone(),
        changed: vec![false; input.members.len()],
        counts: input.counts.clone(),
        site_counts: input.site_counts.clone(),
        il_size: input.il_size.clone(),
        id_space: plan.id_space,
        pending: Vec::new(),
        tel: tel.clone(),
    };

    let inline_stats = match inline {
        Some(options) => inline_core(&mut cx, options, op_budget)?,
        None => InlineStats::default(),
    };
    // The same simulated-work lumps the driver historically charged;
    // charging them locally keeps the absorbed work clock — and so
    // every re-stamped trace record — identical at any -j.
    tel.work(inline_stats.inlines * 200 + inline_stats.considered);
    let clone_stats = match clone {
        Some(options) => clone_core(&mut cx, options)?,
        None => CloneStats::default(),
    };
    tel.work(clone_stats.clones * 150);

    let mut changed = Vec::new();
    for slot in 0..cx.members.len() {
        if !cx.changed[slot] {
            continue;
        }
        let rid = cx.members[slot];
        // Taken, so the pool leaves the cluster's accounting now
        // rather than staying pinned beside every other changed member;
        // cloned, to shed the spare capacity the splices left, which
        // would otherwise stay accounted (and allocated) until
        // write-out.
        let body = cx.loader.take(cx.pool[slot])?.into_routine().clone();
        #[cfg(test)]
        assert_eq!(
            RoutineSummary::of(&body).calls,
            cx.calls[slot],
            "stale call list of {rid}"
        );
        changed.push(ChangedMember {
            rid,
            body,
            counts: cx.counts[slot].take(),
            site_counts: std::mem::take(&mut cx.site_counts[slot]),
            il_size: cx.il_size[slot],
        });
    }
    cx.loader.unload_all()?;
    let loader_stats = cx.loader.stats();
    let peak = cx.loader.memory();
    let (records, work) = tel.drain_records();
    Ok(ClusterOutcome {
        changed,
        pending: cx.pending,
        inline_stats,
        clone_stats,
        loader_stats,
        peak,
        records,
        work,
    })
}

/// One cluster's run by job number, as [`run_clusters`] hands it out.
pub type ClusterJob<'a> = dyn Fn(usize) -> Result<ClusterOutcome, NaimError> + Sync + 'a;

/// Runs every cluster of `plan` through `fan_out(n, job)`, which must
/// return `job(0..n)` in job order: the driver's worker pool, or an
/// in-order map.
///
/// An op limit `L` numbers inline operations cluster by cluster (§6.3),
/// as if each cluster ran on the budget the ones before it left over.
/// Pass one runs every cluster at `L`, which none can exceed. Walking
/// the outcomes in order with `left = L`, a cluster's slice is `left`,
/// which then drops by its inline count. A run at budget `b` is the run
/// at `L` until it has done `b` operations, and an inert cluster never
/// reaches a candidate, so only an active cluster with a slice below
/// `L` that it reached runs again, at its slice, in a second fan-out
/// whose outcomes replace pass one's.
///
/// # Errors
///
/// Propagates the lowest-numbered cluster failure.
pub fn run_clusters(
    session: &HloSession,
    plan: &ClusterPlan,
    inline: Option<&InlineOptions>,
    clone: Option<&CloneOptions>,
    mut fan_out: impl FnMut(usize, &ClusterJob) -> Vec<Result<ClusterOutcome, NaimError>>,
) -> Result<Vec<ClusterOutcome>, NaimError> {
    let (program, tel) = (&session.program, session.telemetry());
    let config = session.loader_config();
    let limit = inline.and_then(|o| o.op_limit);
    let run =
        |index, budget| run_cluster(program, plan, index, &config, inline, clone, budget, tel);
    let mut outcomes = fan_out(plan.inputs.len(), &|index| run(index, limit))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    let mut reruns = Vec::new();
    if let Some(limit) = limit {
        let mut left = limit;
        for (index, outcome) in outcomes.iter().enumerate() {
            let done = outcome.inline_stats.inlines;
            if !plan.inputs[index].bodies.is_empty() && left < limit && done >= left {
                reruns.push((index, left));
            }
            left = left.saturating_sub(done);
        }
    }
    let rerun = fan_out(reruns.len(), &|k| run(reruns[k].0, Some(reruns[k].1)));
    for (&(index, _), outcome) in reruns.iter().zip(rerun) {
        outcomes[index] = outcome?;
    }
    Ok(outcomes)
}

/// Plans, runs and merges the clusters one after another on this
/// thread: [`crate::inline_pass`] and [`crate::clone_pass`].
pub(crate) fn run_in_order(
    session: &mut HloSession,
    inline: Option<&InlineOptions>,
    clone: Option<&CloneOptions>,
) -> Result<(InlineStats, CloneStats), NaimError> {
    let plan = plan_clusters(session, inline, clone)?;
    let outcomes = run_clusters(session, &plan, inline, clone, |n, job| {
        (0..n).map(job).collect()
    })?;
    merge_outcomes(session, &plan, outcomes)
}

/// Folds cluster outcomes back into the session in ascending cluster
/// order: changed bodies, counts and il sizes are written back (with
/// the summary of the body as written), pending clones are registered
/// (remapping their provisional callee ids — in member bodies *and* in
/// the clone bodies themselves, which may embed retargeted sites —
/// before either is summarized), loader activity is absorbed as a
/// concurrent peak over the at-split snapshot, and trace records are
/// re-stamped onto the main work clock. Returns the summed stats.
///
/// # Errors
///
/// Propagates loader failures.
pub fn merge_outcomes(
    session: &mut HloSession,
    plan: &ClusterPlan,
    outcomes: Vec<ClusterOutcome>,
) -> Result<(InlineStats, CloneStats), NaimError> {
    let id_space = plan.id_space;
    let mut inline_total = InlineStats::default();
    let mut clone_total = CloneStats::default();
    for outcome in outcomes {
        let base = session.program.routines().len();
        let remap = |body: &mut RoutineBody| {
            for block in &mut body.blocks {
                for instr in &mut block.instrs {
                    if let Instr::Call {
                        callee: cmo_ir::CalleeRef::Id(p),
                        ..
                    } = instr
                    {
                        if p.index() >= id_space {
                            *p = RoutineId::from_index(base + (p.index() - id_space));
                        }
                    }
                }
            }
        };
        let ClusterOutcome {
            changed,
            pending,
            inline_stats,
            clone_stats,
            loader_stats,
            peak,
            records,
            work,
        } = outcome;
        for member in changed {
            let ChangedMember {
                rid,
                mut body,
                counts,
                site_counts,
                il_size,
            } = member;
            remap(&mut body);
            session.set_summary(rid, &RoutineSummary::of(&body));
            session.replace_body(rid, body);
            session.set_counts(rid, counts, site_counts);
            session.program.routine_mut(rid).il_size = il_size;
            session.unload(rid)?;
        }
        for (q, p) in pending.into_iter().enumerate() {
            let mut body = p.body;
            remap(&mut body);
            let name_sym = session.program.interner_mut().intern(&p.name);
            let meta = RoutineMeta {
                name: name_sym,
                module: p.module,
                sig: p.sig,
                linkage: Linkage::Internal,
                source_lines: p.source_lines,
                il_size: p.il_size,
            };
            let rid = session.add_cloned_routine(meta, body, p.counts, p.site_counts)?;
            debug_assert_eq!(rid.index(), base + q);
        }
        inline_total.inlines += inline_stats.inlines;
        inline_total.considered += inline_stats.considered;
        inline_total.capped += inline_stats.capped;
        inline_total.hit_op_limit |= inline_stats.hit_op_limit;
        clone_total.clones += clone_stats.clones;
        clone_total.retargeted += clone_stats.retargeted;
        session.absorb_cluster_loader(&plan.at_split, &loader_stats, &peak);
        session.telemetry().clone().absorb_records(records, work);
    }
    session.settle_summaries();
    session.unload_all()?;
    session.stats.inlines += inline_total.inlines;
    session.stats.sites_considered += inline_total.considered;
    session.stats.clones += clone_total.clones;
    Ok((inline_total, clone_total))
}

#[cfg(test)]
pub(crate) mod tests;
