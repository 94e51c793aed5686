#![warn(missing_docs)]
//! Deterministic structured telemetry for the compilation pipeline.
//!
//! The paper's entire evaluation (Figures 4, 5 and 6) is
//! observability-driven: loader byte accounting, compaction/offload
//! activity, and selectivity-versus-work curves. This crate is the
//! substrate those measurements flow through:
//!
//! * [`Telemetry`] — a cheaply cloneable, **thread-safe** handle to a
//!   shared event sink. Disabled by default (every operation is a
//!   no-op), enabled with [`Telemetry::enabled`]. Handles are `Send`
//!   and `Sync`, so one sink can be shared by the driver's worker
//!   pool; each handle carries a *worker id* tag
//!   ([`Telemetry::for_worker`]) stamped onto every event it records.
//! * Hierarchical **phase timers** ([`Telemetry::phase`]): each phase
//!   records its span on the *monotonic work-unit clock* (advanced by
//!   [`Telemetry::work`]) plus wall time. Wall time is kept out of all
//!   serialized output so trace *content* is byte-identical across
//!   runs; the work-unit clock is the deterministic stand-in.
//! * Typed **trace events** ([`TraceEvent`]) for NAIM pool-state
//!   transitions, HLO inline/clone/dead-routine decisions, and
//!   selectivity choices. Each recorded event carries the worker id of
//!   the handle that emitted it, and serialization stable-sorts events
//!   on the work-unit clock, so traces are byte-identical regardless
//!   of how work was spread over threads.
//! * A hand-rolled, versioned **JSON encoding** ([`json::JsonWriter`],
//!   [`Telemetry::render_trace`]) — no serde, matching the repository's
//!   deterministic-encoding policy. Schema versions are
//!   [`REPORT_SCHEMA`] and [`TRACE_SCHEMA`].
//!
//! This crate sits below every other workspace crate (it has no
//! dependencies); `cmo-naim`, `cmo-hlo`, `cmo-select`, `cmo-link`, and
//! the `cmo` driver all thread a `Telemetry` handle through their
//! hot paths. The aggregate `CompileReport` lives in the `cmo` crate,
//! which can see every stats struct.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

pub mod json;

use json::escape_into;

/// Schema identifier written into every JSON compile report.
pub const REPORT_SCHEMA: &str = "cmo.report.v1";

/// Schema identifier written as the first line of every trace file.
pub const TRACE_SCHEMA: &str = "cmo.trace.v1";

/// One completed (or still open) phase of the compilation pipeline.
///
/// `name` is the full dotted path (`"hlo.inline"`), so consumers never
/// need to reconstruct the hierarchy from nesting order; `depth` is
/// retained for indented rendering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseRecord {
    /// Dotted phase path, e.g. `"hlo.inline"`.
    pub name: String,
    /// Nesting depth (0 = top-level phase).
    pub depth: u32,
    /// Work-unit clock reading when the phase started.
    pub start_work: u64,
    /// Work-unit clock reading when the phase ended.
    pub end_work: u64,
    /// Wall-clock duration in nanoseconds. Diagnostic only — NEVER
    /// serialized to JSON, so reports and traces stay deterministic.
    pub wall_nanos: u64,
}

impl PhaseRecord {
    /// Work units spent inside this phase (including children).
    #[must_use]
    pub fn work(&self) -> u64 {
        self.end_work.saturating_sub(self.start_work)
    }
}

/// A typed trace event. Every variant carries only deterministic data
/// (ids, names, counts) — no pointers, no wall time.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A NAIM pool-state transition.
    Pool {
        /// What happened: `"expand"` (uncompaction), `"compact"`,
        /// `"offload"` (write to repository), `"fetch"` (read back
        /// from repository), or `"rescue"` (unload-pending pool
        /// reclaimed from the cache at zero cost).
        action: &'static str,
        /// The pool's id within its loader.
        pool: u32,
        /// Pool kind: `"ir"` or `"symtab"`.
        kind: &'static str,
        /// Bytes processed by the transition.
        bytes: u64,
        /// Position in the unload-pending LRU at event time
        /// (0 = least recently used; 0 also for pools not in the
        /// cache).
        lru_pos: u32,
    },
    /// An inlining decision, accepted or rejected.
    Inline {
        /// Caller routine name.
        caller: String,
        /// Callee routine name.
        callee: String,
        /// Call-site id within the caller.
        site: u32,
        /// Whether the site was inlined.
        accepted: bool,
        /// Why: accepted sites report the qualifying heuristic
        /// (`"small"`, `"hot"`); rejected sites the disqualifier
        /// (`"cold"`, `"too_large"`, `"not_dominant"`,
        /// `"growth_cap"`, `"site_gone"`, or `"cross_cluster"` when
        /// the callee lives in a different callgraph cluster than the
        /// caller and partitioned HLO therefore may not touch the
        /// site).
        reason: &'static str,
        /// Profile count of the site (0 when unprofiled).
        count: u64,
    },
    /// A specialized clone was created for a hot constant-argument
    /// callee.
    CloneRoutine {
        /// The original callee.
        callee: String,
        /// The new clone's name.
        clone: String,
        /// Profile count of the site that triggered the clone.
        count: u64,
    },
    /// A routine was found unreachable after optimization and will be
    /// stubbed at link time.
    DeadRoutine {
        /// The dead routine's name.
        routine: String,
    },
    /// One callgraph cluster produced by the HLO partitioner. Emitted
    /// once per cluster, in cluster-index order, when the partition is
    /// computed; the cluster id is also the virtual worker id
    /// (`cluster + 1`) stamped on every event the cluster's
    /// optimization job records.
    Cluster {
        /// Cluster index (0-based, ordered by smallest member routine).
        cluster: u32,
        /// Number of member routines.
        routines: u64,
        /// Call edges with both endpoints inside the cluster — the
        /// only edges its inline/clone passes may transform.
        edges: u64,
    },
    /// A ranked call site was kept or cut by coarse-grained
    /// selectivity.
    SelectSite {
        /// Caller routine name.
        caller: String,
        /// Call-site id within the caller.
        site: u32,
        /// Rank in the frequency-sorted site list (0 = hottest).
        rank: u32,
        /// Profile count of the site.
        count: u64,
        /// Whether the site made the cut.
        selected: bool,
    },
    /// An incremental-build cache decision.
    Cache {
        /// What happened: `"hit"` (entry reused), `"miss"` (entry
        /// absent, recompiling), `"store"` (entry written),
        /// `"invalidate"` (entry present but unusable — corrupted,
        /// truncated, or format-mismatched — so the module falls back
        /// to a full recompile), or `"replay"` (a whole-build hit
        /// replayed the cached image and report).
        action: &'static str,
        /// Granularity: `"module"` (per-module front-end IL) or
        /// `"build"` (whole-program image + report).
        scope: &'static str,
        /// Module name for module-scope events; the build-key digest
        /// for build-scope events.
        name: String,
        /// Payload bytes moved for hits/stores; 0 otherwise.
        bytes: u64,
    },
    /// A mark-and-sweep compaction of the incremental-build cache
    /// repository (`cmocc --gc-cache` or the `--gc-threshold-bytes`
    /// auto-trigger). Wall time deliberately stays out of the trace —
    /// traces are byte-identical across runs and `-j` levels — and is
    /// reported on stderr instead.
    CacheGc {
        /// Bytes reclaimed by the generation swap (old size − new size).
        reclaimed_bytes: u64,
        /// Live records copied into the new generation.
        live_records: u64,
        /// Dangling manifest lines pruned by the same atomic rewrite.
        pruned_lines: u64,
    },
    /// A module was placed in or out of the CMO set by selectivity.
    SelectModule {
        /// Module name.
        module: String,
        /// Number of selected sites whose caller or callee lives in
        /// this module.
        sites: u32,
        /// Whether the module will be compiled with CMO.
        selected: bool,
    },
    /// Crash-consistency recovery performed while opening persistent
    /// state: torn bytes truncated, a half-committed generation rolled
    /// back, or an unreadable store recreated from scratch.
    Recover {
        /// What was recovered: `"repository"` or `"manifest"`.
        component: &'static str,
        /// What was done: `"truncate"` (torn tail dropped),
        /// `"rollback"` (uncommitted generation discarded via the
        /// commit journal), or `"recreate"` (store unreadable, started
        /// fresh).
        action: &'static str,
        /// Bytes discarded by the recovery action.
        bytes: u64,
    },
    /// A fault was contained and the build continued in degraded mode
    /// (`--keep-going`, or a cache persist failure that was swallowed).
    Degraded {
        /// The degraded component: `"frontend"` (a compilation unit
        /// failed but the rest of the build went on) or `"cache"`
        /// (cache writes failed; the build ran uncached).
        component: &'static str,
        /// Module name or cache operation name.
        name: String,
        /// The diagnostic that was contained.
        error: String,
    },
    /// A worker job panicked; the pool contained the panic and
    /// returned a structured per-job error instead of tearing down.
    JobPanic {
        /// Index of the panicking job.
        job: u64,
        /// The panic payload (message), when it was a string.
        payload: String,
    },
    /// Rehydration-arena activity in the NAIM loader.
    Arena {
        /// What happened: `"recycle"` (the fetch arena was returned to
        /// the allocator at the end of an enforcement sweep).
        action: &'static str,
        /// Bytes the arena served since the previous recycle. Counted
        /// identically whether a storage view or the arena served each
        /// fetch, so the value does not depend on the storage transport.
        bytes: u64,
    },
    /// Remote shared-cache tier activity. All delays are expressed on
    /// the deterministic work-unit clock (never wall time), so traces
    /// through a remote tier stay byte-identical run to run.
    Remote {
        /// What happened: `"hit"` (blob fetched and verified),
        /// `"miss"` (daemon has no such blob), `"put"` (blob pushed),
        /// `"retry"` (an exchange failed; backing off and retrying),
        /// or `"open"` (the circuit breaker tripped and the build
        /// demoted itself to local-only).
        action: &'static str,
        /// Blob name for hit/miss/put; the failing operation's
        /// description for retry/open.
        name: String,
        /// Payload bytes for hit/put; the seeded backoff delay in
        /// work units for retry; 0 otherwise.
        bytes: u64,
    },
}

impl TraceEvent {
    /// Event-type tag used in the JSON encoding.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::Pool { .. } => "pool",
            TraceEvent::Inline { .. } => "inline",
            TraceEvent::CloneRoutine { .. } => "clone",
            TraceEvent::DeadRoutine { .. } => "dead_routine",
            TraceEvent::Cluster { .. } => "cluster",
            TraceEvent::SelectSite { .. } => "select_site",
            TraceEvent::SelectModule { .. } => "select_module",
            TraceEvent::Cache { .. } | TraceEvent::CacheGc { .. } => "cache",
            TraceEvent::Recover { .. } => "recover",
            TraceEvent::Degraded { .. } => "degraded",
            TraceEvent::JobPanic { .. } => "job-panic",
            TraceEvent::Arena { .. } => "arena",
            TraceEvent::Remote { .. } => "remote",
        }
    }

    /// Writes the event-specific JSON fields (no surrounding braces).
    fn fields_into(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            TraceEvent::Pool {
                action,
                pool,
                kind,
                bytes,
                lru_pos,
            } => {
                let _ = write!(
                    out,
                    "\"action\":\"{action}\",\"pool\":{pool},\"kind\":\"{kind}\",\"bytes\":{bytes},\"lru_pos\":{lru_pos}"
                );
            }
            TraceEvent::Inline {
                caller,
                callee,
                site,
                accepted,
                reason,
                count,
            } => {
                out.push_str("\"caller\":\"");
                escape_into(caller, out);
                out.push_str("\",\"callee\":\"");
                escape_into(callee, out);
                let _ = write!(
                    out,
                    "\",\"site\":{site},\"accepted\":{accepted},\"reason\":\"{reason}\",\"count\":{count}"
                );
            }
            TraceEvent::CloneRoutine {
                callee,
                clone,
                count,
            } => {
                out.push_str("\"callee\":\"");
                escape_into(callee, out);
                out.push_str("\",\"clone\":\"");
                escape_into(clone, out);
                let _ = write!(out, "\",\"count\":{count}");
            }
            TraceEvent::DeadRoutine { routine } => {
                out.push_str("\"routine\":\"");
                escape_into(routine, out);
                out.push('"');
            }
            TraceEvent::Cluster {
                cluster,
                routines,
                edges,
            } => {
                let _ = write!(
                    out,
                    "\"cluster\":{cluster},\"routines\":{routines},\"edges\":{edges}"
                );
            }
            TraceEvent::SelectSite {
                caller,
                site,
                rank,
                count,
                selected,
            } => {
                out.push_str("\"caller\":\"");
                escape_into(caller, out);
                let _ = write!(
                    out,
                    "\",\"site\":{site},\"rank\":{rank},\"count\":{count},\"selected\":{selected}"
                );
            }
            TraceEvent::SelectModule {
                module,
                sites,
                selected,
            } => {
                out.push_str("\"module\":\"");
                escape_into(module, out);
                let _ = write!(out, "\",\"sites\":{sites},\"selected\":{selected}");
            }
            TraceEvent::Cache {
                action,
                scope,
                name,
                bytes,
            } => {
                let _ = write!(
                    out,
                    "\"action\":\"{action}\",\"scope\":\"{scope}\",\"name\":\""
                );
                escape_into(name, out);
                let _ = write!(out, "\",\"bytes\":{bytes}");
            }
            TraceEvent::CacheGc {
                reclaimed_bytes,
                live_records,
                pruned_lines,
            } => {
                let _ = write!(
                    out,
                    "\"action\":\"gc\",\"reclaimed_bytes\":{reclaimed_bytes},\"live_records\":{live_records},\"pruned_lines\":{pruned_lines}"
                );
            }
            TraceEvent::Recover {
                component,
                action,
                bytes,
            } => {
                let _ = write!(
                    out,
                    "\"component\":\"{component}\",\"action\":\"{action}\",\"bytes\":{bytes}"
                );
            }
            TraceEvent::Degraded {
                component,
                name,
                error,
            } => {
                let _ = write!(out, "\"component\":\"{component}\",\"name\":\"");
                escape_into(name, out);
                out.push_str("\",\"error\":\"");
                escape_into(error, out);
                out.push('"');
            }
            TraceEvent::JobPanic { job, payload } => {
                let _ = write!(out, "\"job\":{job},\"payload\":\"");
                escape_into(payload, out);
                out.push('"');
            }
            TraceEvent::Arena { action, bytes } => {
                let _ = write!(out, "\"action\":\"{action}\",\"bytes\":{bytes}");
            }
            TraceEvent::Remote {
                action,
                name,
                bytes,
            } => {
                let _ = write!(out, "\"action\":\"{action}\",\"name\":\"");
                escape_into(name, out);
                let _ = write!(out, "\",\"bytes\":{bytes}");
            }
        }
    }
}

/// One recorded event with its timestamp and phase context.
#[derive(Debug, Clone)]
struct Recorded {
    work: u64,
    worker: u32,
    phase: String,
    event: TraceEvent,
}

/// One event drained from a private sink, ready to be re-stamped into
/// another sink by [`Telemetry::absorb_records`]. The `work` value is
/// relative to the private sink's own clock (which starts at zero);
/// the phase context is dropped because the absorbing sink supplies
/// its own open phase path.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Reading of the *private* work-unit clock when the event fired.
    pub work: u64,
    /// Worker id the recording handle was tagged with.
    pub worker: u32,
    /// The event itself.
    pub event: TraceEvent,
}

#[derive(Debug, Default)]
struct Inner {
    work: u64,
    phases: Vec<PhaseRecord>,
    /// Indices into `phases` of the currently open phases, innermost
    /// last.
    open: Vec<usize>,
    events: Vec<Recorded>,
}

impl Inner {
    fn phase_path(&self) -> String {
        match self.open.last() {
            Some(&idx) => self.phases[idx].name.clone(),
            None => String::new(),
        }
    }
}

/// Locks a sink, recovering from a poisoned mutex: telemetry must keep
/// working (and stay readable) even if some worker thread panicked.
fn lock(sink: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    sink.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A cheaply cloneable, thread-safe handle to a shared telemetry sink.
///
/// The default handle is *disabled*: every method is a no-op, so
/// instrumented code paths cost one branch when telemetry is off.
/// Clones share the same sink, which is how one handle threads through
/// the loader, HLO, selection, the linker, and the driver while the
/// caller keeps a view of everything recorded. The sink is guarded by
/// a mutex, so handles may be shared freely with the worker pool; each
/// handle additionally carries a logical *worker id*
/// ([`Telemetry::for_worker`]) stamped onto the events it records.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Inner>>>,
    worker: u32,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Telemetry(disabled)"),
            Some(sink) => {
                let inner = lock(sink);
                write!(
                    f,
                    "Telemetry(worker={}, work={}, phases={}, events={})",
                    self.worker,
                    inner.work,
                    inner.phases.len(),
                    inner.events.len()
                )
            }
        }
    }
}

impl Telemetry {
    /// A disabled (no-op) handle; identical to `Telemetry::default()`.
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry {
            inner: None,
            worker: 0,
        }
    }

    /// An enabled handle with an empty sink, tagged as worker 0 (the
    /// driver's main thread).
    #[must_use]
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Inner::default()))),
            worker: 0,
        }
    }

    /// A handle to the *same* sink tagged with a different logical
    /// worker id. Events recorded through the returned handle carry
    /// `worker` in the serialized trace; the work clock and phase
    /// stack stay shared.
    #[must_use]
    pub fn for_worker(&self, worker: u32) -> Telemetry {
        Telemetry {
            inner: self.inner.clone(),
            worker,
        }
    }

    /// The logical worker id this handle stamps onto events.
    #[must_use]
    pub fn worker_id(&self) -> u32 {
        self.worker
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Advances the monotonic work-unit clock by `units`.
    ///
    /// Work units are the deterministic time base: simulated NAIM
    /// traffic costs, per-routine analysis and lowering costs. They
    /// accumulate across the whole compilation.
    pub fn work(&self, units: u64) {
        if let Some(sink) = &self.inner {
            lock(sink).work += units;
        }
    }

    /// Current reading of the work-unit clock.
    #[must_use]
    pub fn current_work(&self) -> u64 {
        self.inner.as_ref().map_or(0, |sink| lock(sink).work)
    }

    /// Opens a phase; the returned guard closes it on drop.
    ///
    /// Phases nest: a phase opened while another is open becomes its
    /// child, and its dotted path (`"hlo.inline"`) records the chain.
    pub fn phase(&self, name: &str) -> PhaseGuard {
        let idx = self.inner.as_ref().map(|sink| {
            let mut inner = lock(sink);
            let path = match inner.open.last() {
                Some(&p) => format!("{}.{name}", inner.phases[p].name),
                None => name.to_owned(),
            };
            let depth = inner.open.len() as u32;
            let start_work = inner.work;
            let idx = inner.phases.len();
            inner.phases.push(PhaseRecord {
                name: path,
                depth,
                start_work,
                end_work: start_work,
                wall_nanos: 0,
            });
            inner.open.push(idx);
            idx
        });
        PhaseGuard {
            telemetry: self.clone(),
            idx,
            started: Instant::now(),
        }
    }

    /// Records a trace event, stamped with the current work-unit clock,
    /// the open phase path, and this handle's worker id.
    pub fn emit(&self, event: TraceEvent) {
        if let Some(sink) = &self.inner {
            let mut inner = lock(sink);
            let work = inner.work;
            let phase = inner.phase_path();
            inner.events.push(Recorded {
                work,
                worker: self.worker,
                phase,
                event,
            });
        }
    }

    /// Takes every event recorded in this sink, returning them with
    /// the final clock reading: `(records, total_work)`.
    ///
    /// This is the first half of the deterministic parallel-merge
    /// protocol: a worker job records into a *private* enabled sink
    /// (clock starting at zero), and when the job completes the driver
    /// drains it and feeds the records to
    /// [`Telemetry::absorb_records`] on the main sink — in a fixed
    /// (index) order, so the merged trace does not depend on
    /// scheduling. A disabled handle returns `(vec![], 0)`.
    #[must_use]
    pub fn drain_records(&self) -> (Vec<TraceRecord>, u64) {
        match &self.inner {
            None => (Vec::new(), 0),
            Some(sink) => {
                let mut inner = lock(sink);
                let records = std::mem::take(&mut inner.events)
                    .into_iter()
                    .map(|rec| TraceRecord {
                        work: rec.work,
                        worker: rec.worker,
                        event: rec.event,
                    })
                    .collect();
                (records, inner.work)
            }
        }
    }

    /// Splices records drained from a private sink into this sink and
    /// advances the clock by the private sink's total work.
    ///
    /// Each record is re-stamped at `current clock + record.work` and
    /// tagged with this sink's innermost open phase path; the record's
    /// own worker id is preserved. Callers absorb one drained sink
    /// after another in a deterministic order (e.g. cluster index), so
    /// the resulting clock values — and therefore the rendered trace —
    /// are byte-identical no matter how many threads did the work.
    /// No-op on a disabled handle.
    pub fn absorb_records(&self, records: Vec<TraceRecord>, total_work: u64) {
        if let Some(sink) = &self.inner {
            let mut inner = lock(sink);
            let base = inner.work;
            let phase = inner.phase_path();
            for rec in records {
                inner.events.push(Recorded {
                    work: base + rec.work,
                    worker: rec.worker,
                    phase: phase.clone(),
                    event: rec.event,
                });
            }
            inner.work = base + total_work;
        }
    }

    /// All phases recorded so far, in open order. Open phases report
    /// `end_work == start_work` until their guard drops.
    #[must_use]
    pub fn phases(&self) -> Vec<PhaseRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |sink| lock(sink).phases.clone())
    }

    /// Number of trace events recorded so far.
    #[must_use]
    pub fn n_events(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |sink| lock(sink).events.len())
    }

    /// Renders the trace in the versioned JSON-lines encoding: a
    /// `{"schema":"cmo.trace.v1"}` header line, then one object per
    /// event with `work`, `phase`, `worker`, `event`, and the event
    /// fields.
    ///
    /// Events are stable-sorted on the work-unit clock before
    /// rendering, so the serialized order depends only on the
    /// deterministic clock (ties keep recording order). Contains no
    /// wall-clock data: two identical compilations render
    /// byte-identical traces.
    #[must_use]
    pub fn render_trace(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{{\"schema\":\"{TRACE_SCHEMA}\"}}");
        if let Some(sink) = &self.inner {
            let mut events = lock(sink).events.clone();
            events.sort_by_key(|rec| rec.work);
            for rec in &events {
                let _ = write!(out, "{{\"work\":{},\"phase\":\"", rec.work);
                escape_into(&rec.phase, &mut out);
                let _ = write!(
                    out,
                    "\",\"worker\":{},\"event\":\"{}\",",
                    rec.worker,
                    rec.event.tag()
                );
                rec.event.fields_into(&mut out);
                out.push_str("}\n");
            }
        }
        out
    }
}

/// Closes a phase opened by [`Telemetry::phase`] when dropped.
#[must_use = "dropping the guard immediately would close the phase at once"]
pub struct PhaseGuard {
    telemetry: Telemetry,
    idx: Option<usize>,
    started: Instant,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let (Some(sink), Some(idx)) = (&self.telemetry.inner, self.idx) {
            let mut inner = lock(sink);
            inner.open.retain(|&i| i != idx);
            let work = inner.work;
            let rec = &mut inner.phases[idx];
            rec.end_work = work;
            rec.wall_nanos = self.started.elapsed().as_nanos() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_no_op() {
        let t = Telemetry::disabled();
        t.work(100);
        t.emit(TraceEvent::DeadRoutine {
            routine: "x".into(),
        });
        let _p = t.phase("parse");
        assert!(!t.is_enabled());
        assert_eq!(t.current_work(), 0);
        assert_eq!(t.n_events(), 0);
        assert!(t.phases().is_empty());
        assert_eq!(t.render_trace(), "{\"schema\":\"cmo.trace.v1\"}\n");
    }

    #[test]
    fn phases_nest_and_record_work_spans() {
        let t = Telemetry::enabled();
        {
            let _outer = t.phase("hlo");
            t.work(5);
            {
                let _inner = t.phase("inline");
                t.work(7);
            }
            t.work(1);
        }
        let phases = t.phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].name, "hlo");
        assert_eq!(phases[0].depth, 0);
        assert_eq!(phases[0].work(), 13);
        assert_eq!(phases[1].name, "hlo.inline");
        assert_eq!(phases[1].depth, 1);
        assert_eq!(phases[1].start_work, 5);
        assert_eq!(phases[1].end_work, 12);
    }

    #[test]
    fn events_are_stamped_with_work_and_phase() {
        let t = Telemetry::enabled();
        let _p = t.phase("naim");
        t.work(42);
        t.emit(TraceEvent::Pool {
            action: "compact",
            pool: 3,
            kind: "ir",
            bytes: 256,
            lru_pos: 0,
        });
        let trace = t.render_trace();
        let mut lines = trace.lines();
        assert_eq!(lines.next(), Some("{\"schema\":\"cmo.trace.v1\"}"));
        let ev = lines.next().unwrap();
        assert!(ev.contains("\"work\":42"));
        assert!(ev.contains("\"phase\":\"naim\""));
        assert!(ev.contains("\"worker\":0"));
        assert!(ev.contains("\"event\":\"pool\""));
        assert!(ev.contains("\"action\":\"compact\""));
        assert!(ev.contains("\"lru_pos\":0"));
    }

    #[test]
    fn fault_events_encode_their_fields() {
        let t = Telemetry::enabled();
        t.emit(TraceEvent::Recover {
            component: "repository",
            action: "truncate",
            bytes: 17,
        });
        t.emit(TraceEvent::Degraded {
            component: "module",
            name: "app".into(),
            error: "parse error: \"oops\"".into(),
        });
        t.emit(TraceEvent::JobPanic {
            job: 2,
            payload: "boom".into(),
        });
        let trace = t.render_trace();
        assert!(
            trace.contains(
                r#""event":"recover","component":"repository","action":"truncate","bytes":17"#
            ),
            "trace: {trace}"
        );
        assert!(
            trace.contains(
                r#""event":"degraded","component":"module","name":"app","error":"parse error: \"oops\"""#
            ),
            "trace: {trace}"
        );
        assert!(
            trace.contains(r#""event":"job-panic","job":2,"payload":"boom""#),
            "trace: {trace}"
        );
    }

    #[test]
    fn worker_handles_share_the_sink_and_tag_events() {
        let t = Telemetry::enabled();
        let w = t.for_worker(3);
        assert_eq!(w.worker_id(), 3);
        w.work(5);
        w.emit(TraceEvent::DeadRoutine {
            routine: "dead".into(),
        });
        // Work clock and events are shared with the original handle.
        assert_eq!(t.current_work(), 5);
        assert_eq!(t.n_events(), 1);
        let trace = t.render_trace();
        assert!(trace.contains("\"worker\":3"), "trace: {trace}");
    }

    #[test]
    fn trace_is_sorted_on_the_work_clock() {
        // Record events out of clock order (as interleaved workers
        // could), then check the render is sorted and stable.
        let t = Telemetry::enabled();
        t.work(10);
        t.emit(TraceEvent::DeadRoutine {
            routine: "b".into(),
        });
        let late = t.for_worker(1);
        late.emit(TraceEvent::DeadRoutine {
            routine: "c".into(),
        });
        // A second sink event at an earlier clock cannot happen through
        // the shared clock, so splice one in via a fresh handle merged
        // by hand: emit before advancing on a new telemetry and compare
        // orderings purely on the rendered output of this sink.
        let trace = t.render_trace();
        let lines: Vec<&str> = trace.lines().skip(1).collect();
        assert_eq!(lines.len(), 2);
        // Ties on work keep recording order (stable sort).
        assert!(lines[0].contains("\"routine\":\"b\""));
        assert!(lines[1].contains("\"routine\":\"c\""));
        assert!(lines[1].contains("\"worker\":1"));
    }

    #[test]
    fn cache_events_serialize_all_fields() {
        let t = Telemetry::enabled();
        t.emit(TraceEvent::Cache {
            action: "hit",
            scope: "module",
            name: "alpha\"x".into(),
            bytes: 512,
        });
        let trace = t.render_trace();
        let ev = trace.lines().nth(1).unwrap();
        assert!(ev.contains("\"event\":\"cache\""), "{ev}");
        assert!(ev.contains("\"action\":\"hit\""), "{ev}");
        assert!(ev.contains("\"scope\":\"module\""), "{ev}");
        assert!(ev.contains("\"name\":\"alpha\\\"x\""), "{ev}");
        assert!(ev.contains("\"bytes\":512"), "{ev}");
    }

    #[test]
    fn remote_events_serialize_all_fields() {
        let t = Telemetry::enabled();
        t.emit(TraceEvent::Remote {
            action: "hit",
            name: "repo.naim".into(),
            bytes: 2048,
        });
        t.emit(TraceEvent::Remote {
            action: "retry",
            name: "get repo.naim".into(),
            bytes: 12,
        });
        let trace = t.render_trace();
        assert!(
            trace.contains(r#""event":"remote","action":"hit","name":"repo.naim","bytes":2048"#),
            "trace: {trace}"
        );
        assert!(
            trace
                .contains(r#""event":"remote","action":"retry","name":"get repo.naim","bytes":12"#),
            "trace: {trace}"
        );
        // The remote tier's backoff is on the work clock, never wall time.
        assert!(!trace.contains("wall"), "{trace}");
        assert!(!trace.contains("nanos"), "{trace}");
    }

    #[test]
    fn cache_gc_event_serializes_all_fields() {
        let t = Telemetry::enabled();
        t.emit(TraceEvent::CacheGc {
            reclaimed_bytes: 4096,
            live_records: 7,
            pruned_lines: 2,
        });
        let trace = t.render_trace();
        let ev = trace.lines().nth(1).unwrap();
        assert!(ev.contains("\"event\":\"cache\""), "{ev}");
        assert!(ev.contains("\"action\":\"gc\""), "{ev}");
        assert!(ev.contains("\"reclaimed_bytes\":4096"), "{ev}");
        assert!(ev.contains("\"live_records\":7"), "{ev}");
        assert!(ev.contains("\"pruned_lines\":2"), "{ev}");
        // GC is traced without wall time, like everything else.
        assert!(!trace.contains("wall"), "{trace}");
        assert!(!trace.contains("nanos"), "{trace}");
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Telemetry>();

        // And actually usable across threads: four workers hammer the
        // shared sink concurrently.
        let t = Telemetry::enabled();
        std::thread::scope(|s| {
            for w in 0..4u32 {
                let h = t.for_worker(w);
                s.spawn(move || {
                    for _ in 0..100 {
                        h.work(1);
                        h.emit(TraceEvent::DeadRoutine {
                            routine: format!("r{w}"),
                        });
                    }
                });
            }
        });
        assert_eq!(t.current_work(), 400);
        assert_eq!(t.n_events(), 400);
        // Rendered trace is sorted on the work clock.
        let trace = t.render_trace();
        let mut last = 0u64;
        for line in trace.lines().skip(1) {
            let work: u64 = line
                .split("\"work\":")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|n| n.parse().ok())
                .unwrap();
            assert!(work >= last, "trace not sorted: {trace}");
            last = work;
        }
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Telemetry::enabled();
        let u = t.clone();
        u.work(9);
        u.emit(TraceEvent::DeadRoutine {
            routine: "gone".into(),
        });
        assert_eq!(t.current_work(), 9);
        assert_eq!(t.n_events(), 1);
    }

    #[test]
    fn cluster_event_serializes_all_fields() {
        let t = Telemetry::enabled();
        t.emit(TraceEvent::Cluster {
            cluster: 2,
            routines: 5,
            edges: 9,
        });
        let trace = t.render_trace();
        let ev = trace.lines().nth(1).unwrap();
        assert!(ev.contains("\"event\":\"cluster\""), "{ev}");
        assert!(ev.contains("\"cluster\":2"), "{ev}");
        assert!(ev.contains("\"routines\":5"), "{ev}");
        assert!(ev.contains("\"edges\":9"), "{ev}");
    }

    #[test]
    fn drained_records_absorb_deterministically() {
        // Two "cluster" sinks record independently; absorbing them in
        // index order yields one fixed trace regardless of which sink
        // did its work first.
        let cluster = |worker: u32, routine: &str| {
            let t = Telemetry::enabled().for_worker(worker);
            t.work(10);
            t.emit(TraceEvent::DeadRoutine {
                routine: routine.into(),
            });
            t.work(5);
            t.drain_records()
        };
        let (r0, w0) = cluster(1, "a");
        let (r1, w1) = cluster(2, "b");

        let main = Telemetry::enabled();
        let _p = main.phase("hlo");
        main.work(100);
        main.absorb_records(r0.clone(), w0);
        main.absorb_records(r1.clone(), w1);
        assert_eq!(main.current_work(), 130);
        let trace = main.render_trace();
        let lines: Vec<&str> = trace.lines().skip(1).collect();
        assert_eq!(lines.len(), 2);
        // First cluster re-stamped at 100 + 10, second at 115 + 10,
        // both inside the absorbing sink's open phase.
        assert!(lines[0].contains("\"work\":110"), "{trace}");
        assert!(lines[0].contains("\"worker\":1"), "{trace}");
        assert!(lines[0].contains("\"phase\":\"hlo\""), "{trace}");
        assert!(lines[1].contains("\"work\":125"), "{trace}");
        assert!(lines[1].contains("\"worker\":2"), "{trace}");

        // Same drains absorbed into a fresh sink give the same bytes.
        let again = Telemetry::enabled();
        let _p2 = again.phase("hlo");
        again.work(100);
        again.absorb_records(r0, w0);
        again.absorb_records(r1, w1);
        assert_eq!(trace, again.render_trace());
    }

    #[test]
    fn drain_on_disabled_handle_is_empty() {
        let t = Telemetry::disabled();
        let (records, work) = t.drain_records();
        assert!(records.is_empty());
        assert_eq!(work, 0);
        t.absorb_records(Vec::new(), 7); // no-op, must not panic
        assert_eq!(t.current_work(), 0);
    }

    #[test]
    fn trace_is_deterministic_and_wall_free() {
        let run = || {
            let t = Telemetry::enabled();
            let _p = t.phase("hlo");
            t.work(3);
            t.emit(TraceEvent::Inline {
                caller: "main".into(),
                callee: "f\"q\"".into(),
                site: 1,
                accepted: true,
                reason: "small",
                count: 10,
            });
            t.render_trace()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.contains("f\\\"q\\\""), "names are JSON-escaped: {a}");
        assert!(!a.contains("nanos"), "no wall time in traces");
    }
}
