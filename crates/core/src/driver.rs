//! The compilation driver: HP-UX-style option levels over the full
//! pipeline.

use crate::cache::{self, BuildCache, CachedObject, CodeSlot};
use crate::parallel::{run_jobs, run_jobs_on};
use crate::report::CompileReport;
use cmo_frontend::FrontendError;
use cmo_hlo::{
    merge_outcomes, plan_clusters, run_clusters, CallGraph, CloneOptions, ClusterPlan, HloSession,
    InlineOptions,
};
use cmo_ir::{link_objects, IlObject, LinkError, LinkedUnit, Program, RoutineBody, RoutineId};
use cmo_link::{assemble, CallArc, LinkOptions};
use cmo_llo::memo::{decode_entry, encode_entry, routine_key, CodeKey};
use cmo_llo::{
    lower_owned, shape_of, GlobalLayout, LloOptions, LoweredRoutine, OptEffort, OptEffortOpt,
};
use cmo_naim::{NaimConfig, NaimError};
use cmo_profile::ProfileDb;
use cmo_select::{coarse_select_traced, layered_levels, OptLayer, SelectError};
use cmo_telemetry::{Telemetry, TraceEvent};
use cmo_vm::{profile_from_run, run, ExecResult, MachineImage, RunConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Optimization level, mirroring the paper's option set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLevel {
    /// Optimize only within basic blocks (the Mcad3 baseline).
    O1,
    /// Full intraprocedural optimization (the default baseline, `-O`).
    O2,
    /// Cross-module optimization: IL objects routed through HLO.
    O4,
}

/// A build failure.
#[derive(Debug)]
pub enum BuildError {
    /// A source module failed to compile.
    Frontend(FrontendError),
    /// IL linking failed (undefined/duplicate symbols, interface
    /// mismatches).
    Link(LinkError),
    /// The optimizer ran out of memory or the repository failed — the
    /// paper's 1 GB-heap compile failures surface here.
    Naim(NaimError),
    /// The selectivity request was invalid (e.g. a NaN percentage).
    Select(SelectError),
    /// The program defines no `main`.
    NoMain,
    /// `run_for_profile` was called on an uninstrumented image.
    NotInstrumented,
    /// Program execution failed.
    Exec(cmo_vm::ExecError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Frontend(e) => write!(f, "frontend error: {e}"),
            BuildError::Link(e) => write!(f, "link error: {e}"),
            BuildError::Naim(e) => write!(f, "optimizer resource failure: {e}"),
            BuildError::Select(e) => write!(f, "selectivity error: {e}"),
            BuildError::NoMain => f.write_str("program defines no `main` routine"),
            BuildError::NotInstrumented => {
                f.write_str("image carries no probes; build with instrumentation (+I)")
            }
            BuildError::Exec(e) => write!(f, "execution failure: {e}"),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::Frontend(e) => Some(e),
            BuildError::Link(e) => Some(e),
            BuildError::Naim(e) => Some(e),
            BuildError::Select(e) => Some(e),
            BuildError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrontendError> for BuildError {
    fn from(e: FrontendError) -> Self {
        BuildError::Frontend(e)
    }
}

impl From<LinkError> for BuildError {
    fn from(e: LinkError) -> Self {
        BuildError::Link(e)
    }
}

impl From<NaimError> for BuildError {
    fn from(e: NaimError) -> Self {
        BuildError::Naim(e)
    }
}

impl From<SelectError> for BuildError {
    fn from(e: SelectError) -> Self {
        BuildError::Select(e)
    }
}

/// Options for one build.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Optimization level.
    pub level: OptLevel,
    /// Use profile data (`+P`). Requires [`BuildOptions::profile`].
    pub pbo: bool,
    /// Insert profiling probes (`+I`).
    pub instrument: bool,
    /// The profile database from earlier instrumented runs.
    pub profile: Option<ProfileDb>,
    /// Coarse-grained selectivity: percentage of call sites to select
    /// (§5). `None` at `+O4` optimizes every module (the expensive
    /// non-selective mode).
    pub selectivity: Option<f64>,
    /// NAIM loader configuration (memory budget, hard limit, level).
    pub naim: NaimConfig,
    /// Inliner heuristics.
    pub inline: InlineOptions,
    /// Enable the §8 multi-layered strategy: cold routines drop to
    /// `+O1` treatment.
    pub layered: bool,
    /// Worker threads for the parallel pipeline sections (front-end
    /// lowering, the HLO cluster fan-out and per-routine LLO; `cmocc
    /// -j N`). 1 (the default) runs everything inline on the calling
    /// thread. Output is byte-identical at every job count: results are
    /// keyed by module, cluster or routine index and merged in index
    /// order.
    pub jobs: usize,
    /// Auto-trigger for cache compaction (`cmocc
    /// --gc-threshold-bytes N`): when a cache is attached and its
    /// repository carries more than this many dead bytes, the build
    /// runs a mark-and-sweep compaction before probing. `None` (the
    /// default) never compacts. Excluded from the options signature —
    /// when the GC policy changed, the outputs did not.
    pub gc_threshold_bytes: Option<u64>,
    /// Telemetry sink threaded through the whole pipeline (loader,
    /// HLO, selection, final link). Disabled (no-op) by default;
    /// enable it to collect phase timers and trace events for the
    /// `--report-json` / `--trace` outputs.
    pub telemetry: Telemetry,
}

impl BuildOptions {
    /// Options for `level` with everything else at defaults.
    #[must_use]
    pub fn new(level: OptLevel) -> Self {
        BuildOptions {
            level,
            pbo: false,
            instrument: false,
            profile: None,
            selectivity: None,
            naim: NaimConfig::default(),
            inline: InlineOptions::default(),
            layered: false,
            jobs: 1,
            gc_threshold_bytes: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// The default optimization level (`+O2`), the Figure 1 baseline.
    #[must_use]
    pub fn o2() -> Self {
        BuildOptions::new(OptLevel::O2)
    }

    /// An instrumented `+O2 +I` build for profile collection.
    #[must_use]
    pub fn instrumented() -> Self {
        BuildOptions {
            instrument: true,
            ..BuildOptions::new(OptLevel::O2)
        }
    }

    /// Attaches a profile database and enables PBO (`+P`).
    #[must_use]
    pub fn with_profile_db(mut self, db: ProfileDb) -> Self {
        self.profile = Some(db);
        self.pbo = true;
        self
    }

    /// Sets the coarse-grained selectivity percentage.
    #[must_use]
    pub fn with_selectivity(mut self, percent: f64) -> Self {
        self.selectivity = Some(percent);
        self
    }

    /// Sets the NAIM configuration.
    #[must_use]
    pub fn with_naim(mut self, naim: NaimConfig) -> Self {
        self.naim = naim;
        self
    }

    /// Sets the inliner options.
    #[must_use]
    pub fn with_inline(mut self, inline: InlineOptions) -> Self {
        self.inline = inline;
        self
    }

    /// Attaches a telemetry sink.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Sets the worker-thread count for the parallel pipeline sections.
    /// Values below 1 are clamped to 1 (fully inline).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Compacts an attached cache before the build whenever its
    /// repository carries more than `bytes` dead bytes.
    #[must_use]
    pub fn with_gc_threshold_bytes(mut self, bytes: u64) -> Self {
        self.gc_threshold_bytes = Some(bytes);
        self
    }
}

/// A finished build: the executable image plus its report.
#[derive(Debug, Clone)]
pub struct BuildOutput {
    /// The linked executable.
    pub image: MachineImage,
    /// What the build did. On a whole-build replay, the cold run's
    /// stored report with this session's cache counters beside the
    /// stored ones (see [`CompileReport::replayed`]).
    pub report: CompileReport,
}

impl BuildOutput {
    /// Runs the image on `input` with default limits.
    ///
    /// # Errors
    ///
    /// Propagates machine faults (fuel, stack).
    pub fn run(&self, input: &[i64]) -> Result<ExecResult, BuildError> {
        run(&self.image, input, &RunConfig::default()).map_err(BuildError::Exec)
    }

    /// Runs an instrumented image and returns the resulting profile
    /// database (§3: "when this specially instrumented program is run,
    /// a profile database is generated").
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::NotInstrumented`] if the image carries no
    /// probes.
    pub fn run_for_profile(&self, input: &[i64]) -> Result<ProfileDb, BuildError> {
        if !self.image.is_instrumented() {
            return Err(BuildError::NotInstrumented);
        }
        let result = self.run(input)?;
        Ok(profile_from_run(&self.image, &result.probe_counts))
    }

    /// A copy of [`BuildOutput::report`], for callers written against
    /// this accessor.
    #[must_use]
    pub fn compile_report(&self) -> CompileReport {
        self.report.clone()
    }
}

/// One input of a front-end batch ([`Compiler::add_inputs`]).
#[derive(Debug, Clone)]
pub enum ModuleInput {
    /// MLC source: probed in the cache when there is one, compiled on a
    /// miss.
    Source {
        /// The module's name.
        module: String,
        /// Its source text.
        source: String,
    },
    /// A pre-compiled IL object (the `make` flow of §6.1): never
    /// probed, keyed on its own bytes.
    Object(IlObject),
}

/// The compile step of a front-end batch ([`Compiler::add_inputs`]):
/// compiles the source inputs at the given positions, one result entry
/// per position.
pub type CompileStep<'a, E> =
    dyn FnMut(&[ModuleInput], &[usize]) -> Result<Vec<Option<IlObject>>, E> + 'a;

/// Where a slot's IL object is.
#[derive(Debug, Clone)]
enum SlotObject {
    /// In hand: compiled this session, or added as an object.
    Ready(IlObject),
    /// A module-tier cache hit, still the stored bytes. Decoded when —
    /// and only if — a link needs it; the source stays alongside so a
    /// record that turns out undecodable costs a recompile, no more.
    Pending {
        hit: CachedObject,
        module: String,
        source: String,
    },
}

/// Everything the driver knows about one added module.
#[derive(Debug, Clone)]
struct ModuleSlot {
    /// Content fingerprint: the module's incremental-cache key.
    fingerprint: String,
    object: SlotObject,
}

#[cfg(test)]
thread_local! {
    /// Front-end compilations on this thread.
    static COMPILES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// `IlObject` clones made to feed a link, on this thread.
    static CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// `lower_routine` calls on this thread (all of a `-j1` build's).
    static LOWERINGS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The front end, counted in test builds.
fn compile(module: &str, source: &str) -> Result<IlObject, FrontendError> {
    #[cfg(test)]
    COMPILES.with(|c| c.set(c.get() + 1));
    cmo_frontend::compile_module(module, source)
}

/// The compiler driver: collects modules, builds at any option level.
///
/// Each added module is one slot: its fingerprint and its object —
/// either in hand or a *pending* cache hit that is decoded only when a
/// link consumes it. A whole-build replay consumes none.
#[derive(Debug, Clone, Default)]
pub struct Compiler {
    slots: Vec<ModuleSlot>,
}

impl Compiler {
    /// An empty driver.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles an MLC source module and adds its IL object.
    ///
    /// # Errors
    ///
    /// Returns frontend diagnostics.
    pub fn add_source(&mut self, module: &str, source: &str) -> Result<(), BuildError> {
        let modules = [(module.to_owned(), source.to_owned())];
        self.add_sources_with(&modules, 1, None, &Telemetry::disabled())
            .map(drop)
    }

    /// Compiles a batch of MLC source modules, fanning front-end
    /// lowering out over `jobs` worker threads, and adds their IL
    /// objects in batch order. Modules are independent compilation
    /// units, so this parallelizes trivially; with multiple failures
    /// the reported error is the first by batch position, independent
    /// of scheduling. A failed batch adds nothing.
    ///
    /// # Errors
    ///
    /// Returns frontend diagnostics.
    pub fn add_sources(
        &mut self,
        modules: &[(String, String)],
        jobs: usize,
    ) -> Result<(), BuildError> {
        self.add_sources_with(modules, jobs, None, &Telemetry::disabled())
            .map(drop)
    }

    /// Like [`Compiler::add_sources`], but consults `cache` first:
    /// modules whose fingerprint hits skip the front end entirely and
    /// reuse the cached IL object; misses compile over `options.jobs`
    /// workers and are stored for next time. Returns the number of
    /// cache hits. See [`Compiler::add_inputs`].
    ///
    /// # Errors
    ///
    /// Returns frontend diagnostics for the recompiled modules; a
    /// failed batch adds nothing.
    pub fn add_sources_cached_with(
        &mut self,
        modules: &[(String, String)],
        options: &BuildOptions,
        bcache: &mut BuildCache,
    ) -> Result<usize, BuildError> {
        self.add_sources_with(modules, options.jobs, Some(bcache), &options.telemetry)
    }

    /// The library's compile step: [`Compiler::add_inputs`] over source
    /// modules, compiling the misses over `jobs` workers.
    fn add_sources_with(
        &mut self,
        modules: &[(String, String)],
        jobs: usize,
        bcache: Option<&mut BuildCache>,
        tel: &Telemetry,
    ) -> Result<usize, BuildError> {
        // The copy is what a pending slot keeps its source in.
        let inputs = modules
            .iter()
            .map(|(module, source)| ModuleInput::Source {
                module: module.clone(),
                source: source.clone(),
            })
            .collect();
        self.add_inputs(inputs, bcache, tel, &mut |inputs, which| {
            run_jobs(which.len(), jobs.max(1), |_, k| match &inputs[which[k]] {
                ModuleInput::Source { module, source } => compile(module, source).map(Some),
                ModuleInput::Object(_) => unreachable!("only source inputs are compiled"),
            })
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(BuildError::Frontend)
        })
    }

    /// The front end over classified inputs, with the caller's compile
    /// step: `compile(inputs, which)` compiles the source inputs at
    /// positions `which` (over whatever worker pool it likes) and
    /// returns one entry per position — `None` for a module the caller
    /// chose to drop (`cmocc --keep-going`), which then gets no slot
    /// and no cache entry — or an error, which abandons the batch with
    /// nothing added.
    ///
    /// This is the one way modules enter a driver — every `add_source*`
    /// method and `cmocc` go through it. Every input is fingerprinted
    /// on its content alone (front-end objects do not depend on the
    /// profile, so it never enters a module key). With a cache, the
    /// module tier is probed in input order, each hit kept as pending
    /// bytes, and only the misses compiled and stored; without one,
    /// every source input is compiled and nothing is probed or stored.
    /// All cache traffic happens on the calling thread in input order,
    /// so traces stay deterministic at every job count. Returns the
    /// number of cache hits.
    ///
    /// # Errors
    ///
    /// Whatever `compile` returns.
    pub fn add_inputs<E>(
        &mut self,
        inputs: Vec<ModuleInput>,
        mut bcache: Option<&mut BuildCache>,
        tel: &Telemetry,
        compile: &mut CompileStep<'_, E>,
    ) -> Result<usize, E> {
        let fps: Vec<String> = inputs
            .iter()
            .map(|input| match input {
                ModuleInput::Source { module, source } => cache::module_fingerprint(module, source),
                ModuleInput::Object(obj) => {
                    cache::object_fingerprint(&obj.module_name, &obj.to_bytes())
                }
            })
            .collect();
        let mut hits: Vec<Option<CachedObject>> = vec![None; inputs.len()];
        let mut misses = Vec::new();
        // A hit stays pending; objects need no entry.
        for (i, input) in inputs.iter().enumerate() {
            if let ModuleInput::Source { module, .. } = input {
                let hit = bcache
                    .as_deref_mut()
                    .and_then(|bcache| bcache.get_module(module, &fps[i], tel));
                match hit {
                    Some(hit) => hits[i] = Some(hit),
                    None => misses.push(i),
                }
            }
        }
        let n_hits = hits.iter().flatten().count();
        let mut fresh: Vec<Option<IlObject>> = vec![None; inputs.len()];
        for (&i, obj) in misses.iter().zip(compile(&inputs, &misses)?) {
            if let (Some(bcache), ModuleInput::Source { module, .. }, Some(obj)) =
                (bcache.as_deref_mut(), &inputs[i], &obj)
            {
                bcache.put_module(module, &fps[i], obj, tel);
            }
            fresh[i] = obj;
        }

        // Only now, with nothing left that can fail, do slots appear.
        for (i, (input, fingerprint)) in inputs.into_iter().zip(fps).enumerate() {
            let object = match (input, fresh[i].take(), hits[i].take()) {
                (ModuleInput::Object(obj), ..) | (_, Some(obj), _) => SlotObject::Ready(obj),
                (ModuleInput::Source { module, source }, None, Some(hit)) => SlotObject::Pending {
                    hit,
                    module,
                    source,
                },
                // A miss the compile step dropped.
                (ModuleInput::Source { .. }, None, None) => continue,
            };
            self.slots.push(ModuleSlot {
                fingerprint,
                object,
            });
        }
        Ok(n_hits)
    }

    /// Number of modules added.
    #[must_use]
    pub fn n_modules(&self) -> usize {
        self.slots.len()
    }

    /// The objects one link of this driver consumes, by value and in
    /// module order: objects in hand are cloned, pending cache hits are
    /// decoded straight from their stored bytes (through `bcache` when
    /// there is one, which keeps its counters and manifest honest).
    ///
    /// A pending record that fails to decode is recompiled from the
    /// slot's source — and, with a cache, invalidated and stored
    /// afresh, exactly as if the probe had found the damage.
    ///
    /// # Errors
    ///
    /// Frontend diagnostics, should such a recompile fail.
    pub fn objects(
        &self,
        mut bcache: Option<&mut BuildCache>,
        tel: &Telemetry,
    ) -> Result<Vec<IlObject>, BuildError> {
        let mut objects = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            objects.push(match &slot.object {
                SlotObject::Ready(obj) => {
                    #[cfg(test)]
                    CLONES.with(|c| c.set(c.get() + 1));
                    obj.clone()
                }
                SlotObject::Pending {
                    hit,
                    module,
                    source,
                } => {
                    let decoded = match bcache.as_deref_mut() {
                        Some(bcache) => bcache.materialize(module, hit, tel),
                        None => hit.decode().ok(),
                    };
                    match decoded {
                        Some(obj) => obj,
                        None => {
                            let obj = compile(module, source)?;
                            if let Some(bcache) = bcache.as_deref_mut() {
                                bcache.put_module(module, hit.key(), &obj, tel);
                            }
                            obj
                        }
                    }
                }
            });
        }
        Ok(objects)
    }

    /// Builds the program at the requested options.
    ///
    /// # Errors
    ///
    /// Link errors, optimizer out-of-memory (hard NAIM limit), or a
    /// missing `main`.
    pub fn build(&self, options: &BuildOptions) -> Result<BuildOutput, BuildError> {
        build_objects_with(self.objects(None, &options.telemetry)?, options, None)
    }

    /// Like [`Compiler::build`], but with the incremental cache in the
    /// loop.
    ///
    /// The driver derives a whole-build key from the slots'
    /// fingerprints and the options signature (which covers an attached
    /// profile's counts and shapes) and probes the build tier *before*
    /// touching any object. On a hit, the linked image and the cold
    /// run's stored report come straight from the cache: HLO,
    /// LLO, and linking are skipped, no pending object is decoded, and
    /// a build-scope `"replay"` trace event records the shortcut. On a
    /// miss the pending objects are decoded, the build runs normally
    /// and its image and report are stored for next time.
    ///
    /// Cached and uncached builds of the same inputs produce
    /// byte-identical images; warm and cold `--report-json` documents
    /// are byte-identical because the warm run replays the stored
    /// report instead of recomputing one.
    ///
    /// # Errors
    ///
    /// See [`Compiler::build`]. Cache *persistence* failures (a full
    /// disk at commit time) never fail the build: they degrade to a
    /// `degraded` trace event and the next run starts colder.
    pub fn build_cached(
        &self,
        options: &BuildOptions,
        bcache: &mut BuildCache,
    ) -> Result<BuildOutput, BuildError> {
        let tel = options.telemetry.clone();
        // Opportunistic compaction: when the caller set a dead-byte
        // threshold and the repository has crossed it, compact before
        // the probes. Like persistence, GC failures degrade rather
        // than fail — a build that compiles correctly must not die
        // over cache hygiene.
        if let Some(threshold) = options.gc_threshold_bytes {
            match bcache.dead_bytes() {
                Ok(dead) if dead > threshold => degrade(&tel, "gc", bcache.gc(&tel).map(drop)),
                Ok(_) => {}
                Err(e) => degrade(&tel, "gc", Err(e)),
            }
        }
        let fps: Vec<&str> = self.fingerprints().collect();
        let key = cache::build_key(&fps, options);
        if let Some((image, mut report)) = bcache.get_build(&key, &tel) {
            tel.emit(TraceEvent::Cache {
                action: "replay",
                scope: "build",
                name: key.clone(),
                bytes: 0,
            });
            // The stored counters are the cold run's; this session's
            // own probes take their place in `cache`.
            report.replayed = Some(std::mem::replace(&mut report.cache, bcache.stats()));
            bcache.record_routines(0, 0);
            degrade(&tel, "persist", bcache.persist());
            return Ok(BuildOutput { image, report });
        }
        let objects = self.objects(Some(bcache), &tel)?;
        let mut out = build_objects_with(objects, options, Some(bcache))?;
        // Snapshot the cache counters *before* storing the report, so
        // the stored report equals the one this cold run returns — the
        // warm replay then matches byte for byte.
        // The remote tier's counters are snapshotted at the same point
        // for the same reason (the put/persist pushes below
        // deliberately land after the snapshot on every path).
        out.report.cache = bcache.stats();
        out.report.faults.remote = bcache.remote_stats();
        bcache.put_build(&key, &out.image, &out.report, &tel);
        degrade(&tel, "persist", bcache.persist());
        Ok(out)
    }

    /// The per-module content fingerprints, in module order.
    pub fn fingerprints(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.slots.iter().map(|slot| slot.fingerprint.as_str())
    }
}

/// Correlates stored profile block counts with a body's current shape
/// (§6.2): fresh data is used as-is; stale data is clipped to the
/// current block count ("benefits diminish over time").
fn correlated_counts(db: &ProfileDb, name: &str, body: &RoutineBody) -> Option<Vec<u64>> {
    let mut counts = db.lookup(name, shape_of(body)).1?.blocks.clone();
    counts.resize(body.blocks.len(), 0);
    Some(counts)
}

/// Sums call counts per caller→callee pair into the arcs the final
/// link clusters on, in (caller, callee) order.
fn call_arcs(calls: impl Iterator<Item = (RoutineId, RoutineId, u64)>) -> Vec<CallArc> {
    let mut agg: BTreeMap<(RoutineId, RoutineId), u64> = BTreeMap::new();
    for (caller, callee, count) in calls {
        *agg.entry((caller, callee)).or_insert(0) += count;
    }
    agg.into_iter()
        .map(|((caller, callee), weight)| CallArc {
            caller,
            callee,
            weight,
        })
        .collect()
}

/// One live routine's passage through the code tier.
struct CodeUse {
    key: CodeKey,
    /// The entry encoded from a fresh lowering; `None` when the slot's
    /// entry under `key` was replayed.
    fresh: Option<Vec<u8>>,
    /// The slot had an entry under `key` that would not decode.
    damaged: bool,
}

/// What HLO hands LLO: the linked unit after cross-module optimization
/// (below `+O4`, as the IL link left it) and what HLO found out.
struct Optimized {
    unit: LinkedUnit,
    /// Block counts HLO maintained, per routine (all `None` below `+O4`).
    counts: Vec<Option<Vec<u64>>>,
    /// Routines unreachable from `main`, ascending (none below `+O4`).
    dead: Vec<RoutineId>,
    /// Under PBO, the call arcs the final link clusters on.
    arcs: Option<Vec<CallArc>>,
}

/// One build: what every stage reads, and the report they fill in.
struct Build<'a> {
    options: &'a BuildOptions,
    /// The profile database when PBO is on — the one place that says so.
    db: Option<&'a ProfileDb>,
    tel: Telemetry,
    report: CompileReport,
}

/// Builds a set of IL objects at the requested options: the paper's
/// "linker encounters IL objects and sends them to the optimizer and
/// code generator" flow, behind [`Compiler::build`] and
/// [`Compiler::build_cached`], as a list of stages. With a cache, its
/// code tier sits in the LLO stage.
fn build_objects_with(
    objects: Vec<IlObject>,
    options: &BuildOptions,
    bcache: Option<&mut BuildCache>,
) -> Result<BuildOutput, BuildError> {
    let mut build = Build {
        options,
        db: options.profile.as_ref().filter(|_| options.pbo),
        tel: options.telemetry.clone(),
        report: CompileReport::default(),
    };
    let unit = build.link(objects)?;
    let mut optimized = if options.level == OptLevel::O4 {
        build.hlo(unit)?
    } else {
        build.hand_over(unit)
    };
    let bodies = std::mem::take(&mut optimized.unit.bodies);
    let counts = std::mem::take(&mut optimized.counts);
    let (lowered, layout) = build.llo(&optimized, bodies.into_iter().zip(counts).collect(), bcache);
    Ok(build.link_image(optimized, lowered, &layout))
}

impl Build<'_> {
    fn link(&mut self, objects: Vec<IlObject>) -> Result<LinkedUnit, BuildError> {
        let _p = self.tel.phase("link");
        let unit = link_objects(objects)?;
        if unit.program.main_routine().is_none() {
            return Err(BuildError::NoMain);
        }
        self.report.total_modules = unit.program.modules().len();
        self.report.total_loc = unit.program.total_source_lines();
        Ok(unit)
    }

    /// The HLO stage (`+O4`): one phase per step, under `hlo`.
    fn hlo(&mut self, unit: LinkedUnit) -> Result<Optimized, BuildError> {
        let _p = self.tel.phase("hlo");
        let targets = self.select(&unit)?;
        let (inline, clone) = self.heuristics(targets);
        let mut session = self.read_in(unit, &inline)?;
        let plan = self.partition(&mut session, &inline, clone.as_ref())?;
        self.inline(&mut session, &plan, &inline, clone.as_ref())?;
        let (dead, arcs) = self.callgraph(&mut session)?;
        self.write_out(session, dead, arcs)
    }

    /// Coarse-grained selectivity (§5): CMO modules picked by ranked
    /// call sites, their hot routines the targets. Without PBO or a
    /// percentage every module is CMO and every routine a target.
    fn select(&mut self, unit: &LinkedUnit) -> Result<Option<BTreeSet<RoutineId>>, BuildError> {
        let (Some(db), Some(pct)) = (self.db, self.options.selectivity) else {
            self.report.cmo_modules = self.report.total_modules;
            self.report.cmo_loc = self.report.total_loc;
            return Ok(None);
        };
        let _p = self.tel.phase("select");
        let plan = coarse_select_traced(&unit.program, &unit.bodies, db, pct, &self.tel)?;
        self.report.cmo_modules = plan.cmo_modules.len();
        let lines = |&m| u64::from(unit.program.module(m).source_lines);
        self.report.cmo_loc = plan.cmo_modules.iter().map(lines).sum();
        Ok(Some(plan.hot_routines))
    }

    /// The inliner's and the cloner's settings, limited to `targets`.
    fn heuristics(
        &self,
        targets: Option<BTreeSet<RoutineId>>,
    ) -> (InlineOptions, Option<CloneOptions>) {
        let mut inline = self.options.inline.clone();
        inline.targets = targets;
        if self.db.is_none() {
            // "Our heuristics drive the compiler to thoroughly
            // optimize all routines" (§5): without profiles, medium
            // callees become inlinable everywhere, at real cost in
            // code growth, time, and memory.
            inline.small_callee_il = inline.small_callee_il.max(80);
        }
        // Cloning, when profiles justify the code growth, runs in the
        // same per-cluster fan-out, after each cluster's inlining.
        let clone = self.db.is_some().then(|| CloneOptions {
            min_callee_il: inline.hot_callee_il,
            targets: inline.targets.clone(),
            ..CloneOptions::default()
        });
        (inline, clone)
    }

    /// Read-in folds globals into the inliner's targets, every routine
    /// when none are selected; the facts need every routine (§5).
    fn read_in(&self, unit: LinkedUnit, inline: &InlineOptions) -> Result<HloSession, BuildError> {
        let _p = self.tel.phase("read_in");
        let targets: Vec<RoutineId> = match &inline.targets {
            Some(t) => t.iter().copied().collect(),
            None => (0..unit.bodies.len()).map(RoutineId::from_index).collect(),
        };
        let (config, tel) = (self.options.naim.clone(), self.tel.clone());
        Ok(HloSession::read_in(
            unit,
            config,
            self.db,
            Some(&targets),
            tel,
        )?)
    }

    /// WHOPR-style cluster partition: the call graph condensed into
    /// independent clusters, and their inputs extracted.
    fn partition(
        &mut self,
        session: &mut HloSession,
        inline: &InlineOptions,
        clone: Option<&CloneOptions>,
    ) -> Result<ClusterPlan, BuildError> {
        let _p = self.tel.phase("partition");
        let plan = plan_clusters(session, Some(inline), clone)?;
        self.report.clusters = plan.stats();
        Ok(plan)
    }

    /// Inline + clone, cluster by cluster. Clusters share no mutable
    /// state, so they fan out over the worker pool (at -j1, inline on
    /// this thread), op-limited builds included (§6.3 bisection). The
    /// merge is keyed on cluster index, never completion order, so
    /// stats, report, and trace are byte-identical at any -j.
    fn inline(
        &mut self,
        session: &mut HloSession,
        plan: &ClusterPlan,
        inline: &InlineOptions,
        clone: Option<&CloneOptions>,
    ) -> Result<(), BuildError> {
        let _p = self.tel.phase("inline");
        let jobs = self.options.jobs.max(1);
        let outcomes = run_clusters(session, plan, Some(inline), clone, |n, job| {
            run_jobs(n, jobs, |_, i| job(i))
        })?;
        let (inlined, cloned) = merge_outcomes(session, plan, outcomes)?;
        self.report.compile_work +=
            inlined.inlines * 200 + inlined.considered + cloned.clones * 150;
        Ok(())
    }

    /// The post-inline call graph: the dead routines and, under PBO,
    /// the arcs the final link clusters on. Its edge counts are the
    /// *maintained* site counts (scaled through inlining), not the raw
    /// database — inlining created sites the database has never seen.
    /// Then HLO's counters go into the report, the memory snapshot
    /// taken while the graph's derived bytes are still charged.
    fn callgraph(
        &mut self,
        session: &mut HloSession,
    ) -> Result<(Vec<RoutineId>, Option<Vec<CallArc>>), BuildError> {
        let _p = self.tel.phase("callgraph");
        let graph = CallGraph::build(session)?;
        let reach = graph.reachable_from(session.program.main_routine().expect("checked at link"));
        let dead: Vec<RoutineId> = (0..session.n_routines())
            .map(RoutineId::from_index)
            .filter(|r| !reach[r.index()])
            .collect();
        session.record_dead_routines(dead.len() as u64);
        if self.tel.is_enabled() {
            let program = &session.program;
            for &r in &dead {
                let routine = program.name(program.routine(r).name).to_owned();
                self.tel.emit(TraceEvent::DeadRoutine { routine });
            }
        }
        let edges = graph.edges.iter().map(|e| (e.caller, e.callee, e.count));
        let arcs = self.db.map(|_| call_arcs(edges));
        session.unload_all()?;
        self.report.hlo = session.stats();
        self.report.loader = session.loader_stats();
        self.report.memory = session.memory();
        self.report.compile_work += self.report.loader.work_units;
        Ok((dead, arcs))
    }

    /// The session drained into what LLO takes.
    fn write_out(
        &self,
        session: HloSession,
        dead: Vec<RoutineId>,
        arcs: Option<Vec<CallArc>>,
    ) -> Result<Optimized, BuildError> {
        let _p = self.tel.phase("write_out");
        let (program, bodies, symtabs, counts) = session.into_parts()?;
        Ok(Optimized {
            unit: LinkedUnit {
                program,
                bodies,
                symtabs,
            },
            counts,
            dead,
            arcs,
        })
    }

    /// Below `+O4` the linked unit goes to LLO as it is, and the arcs
    /// come straight from the database's site counts.
    fn hand_over(&self, unit: LinkedUnit) -> Optimized {
        let arcs = self.db.map(|db| {
            call_arcs(unit.bodies.iter().enumerate().flat_map(|(i, body)| {
                let caller = RoutineId::from_index(i);
                let name = unit.program.name(unit.program.routine(caller).name);
                body.blocks
                    .iter()
                    .flat_map(|block| &block.instrs)
                    .filter_map(move |instr| match instr {
                        cmo_ir::Instr::Call { callee, site, .. } => Some((
                            caller,
                            callee.id(),
                            db.site_count(name, site.0).unwrap_or(0),
                        )),
                        _ => None,
                    })
            }))
        });
        Optimized {
            counts: vec![None; unit.bodies.len()],
            dead: Vec::new(),
            arcs,
            unit,
        }
    }

    /// Per-routine LLO is the pipeline's embarrassingly-parallel stage
    /// (the LTRANS-style fan-out): each routine lowers independently
    /// against shared read-only program state, consuming the body and
    /// block counts HLO handed over (`bodies`, in routine order) — or,
    /// with a cache, is decoded from its module's slot when an entry
    /// under its id-free key is there, the two being arms of one step.
    /// Jobs are keyed by routine index and merged in index order, so
    /// the lowered code — and every downstream byte — is identical at
    /// any `-j`. Workers tag their telemetry handle with a worker id and
    /// advance only the work clock (commutative adds, the same on either
    /// arm); no events are emitted here, which is what keeps traces
    /// byte-identical across job counts.
    fn llo(
        &mut self,
        hlo: &Optimized,
        bodies: Vec<(RoutineBody, Option<Vec<u64>>)>,
        mut bcache: Option<&mut BuildCache>,
    ) -> (Vec<LoweredRoutine>, GlobalLayout) {
        let program = &hlo.unit.program;
        let n_bodies = bodies.len();
        let (options, db, tel) = (self.options, self.db, &self.tel);
        let layout = GlobalLayout::new(program);
        let effort = match options.level {
            OptLevel::O1 => OptEffort::O1,
            _ => OptEffort::O2,
        };
        let layers = db.filter(|_| options.layered);
        let layers = layers.map(|db| layered_levels(program, db, 0.95));
        let _p = tel.phase("llo");
        // The code tier's slots, one per module, fetched on the calling
        // thread in module order (as every cache access is) and shared
        // read-only with the workers.
        let mode = cache::code_mode(options);
        let slots: Option<Vec<Option<CodeSlot>>> = bcache.as_deref_mut().map(|bcache| {
            let names = program.modules().iter().map(|m| program.name(m.name));
            names.map(|m| bcache.get_code(&mode, m, tel)).collect()
        });
        let jobs = run_jobs_on(bodies, options.jobs.max(1), |worker, i, (body, counts)| {
            let rid = RoutineId::from_index(i);
            let meta = program.routine(rid);
            let name = program.name(meta.name);
            if hlo.dead.binary_search(&rid).is_ok() {
                // Dead routine elimination: skip all LLO work, emit a stub.
                let stub = LoweredRoutine {
                    name: name.to_owned(),
                    code: vec![cmo_vm::MInstr::Ret { value: None }],
                    frame_slots: 0,
                    probes: Vec::new(),
                    shape: shape_of(&body),
                    llo_work_bytes: 0,
                    il_after_opt: 0,
                };
                return (stub, None);
            }
            let effort = match &layers {
                Some(layers) if layers.get(&rid) == Some(&OptLayer::Minimal) => OptEffort::O1,
                _ => effort,
            };
            let llo_opts = LloOptions {
                effort: OptEffortOpt(effort),
                instrument: options.instrument,
                block_counts: counts.or_else(|| correlated_counts(db?, name, &body)),
            };
            let (lr, code_use) = match &slots {
                Some(slots) => {
                    let slot = slots[meta.module.index()].as_ref();
                    lower_through(slot, rid, body, program, &layout, llo_opts)
                }
                None => (lower(rid, body, program, &layout, llo_opts), None),
            };
            tel.for_worker(worker).work(llo_work(&lr));
            (lr, code_use)
        });
        let (lowered, code_uses): (Vec<_>, Vec<_>) = jobs.into_iter().unzip();
        for lr in &lowered {
            self.report.llo_peak_bytes = self.report.llo_peak_bytes.max(lr.llo_work_bytes);
            self.report.compile_work += llo_work(lr);
        }
        if let (Some(bcache), Some(slots)) = (bcache, &slots) {
            let live = (n_bodies - hlo.dead.len()) as u64;
            store_code_slots(bcache, &mode, program, live, slots, &code_uses, tel);
        }
        (lowered, layout)
    }

    /// The final link: procedure clustering and image assembly.
    fn link_image(
        mut self,
        hlo: Optimized,
        lowered: Vec<LoweredRoutine>,
        layout: &GlobalLayout,
    ) -> BuildOutput {
        let image = {
            let _p = self.tel.phase("link_image");
            let link = LinkOptions {
                arcs: hlo.arcs,
                dead: hlo.dead,
                telemetry: self.tel.clone(),
            };
            assemble(&hlo.unit.program, lowered, &hlo.unit.symtabs, layout, &link)
        };
        self.report.image_instrs = image.code_size();
        self.report.phases = self.tel.phases();
        BuildOutput {
            image,
            report: self.report,
        }
    }
}

/// The work units lowering `lr` charges.
fn llo_work(lr: &LoweredRoutine) -> u64 {
    u64::from(lr.il_after_opt) * 3 + (lr.llo_work_bytes as u64) / 256
}

/// One live routine through the code tier: the entry `slot` holds
/// under the routine's id-free key — if there is one and it decodes —
/// is the lowering; otherwise the routine is lowered and the result
/// encoded for the slot.
fn lower_through(
    slot: Option<&CodeSlot>,
    rid: RoutineId,
    body: RoutineBody,
    program: &Program,
    layout: &GlobalLayout,
    options: LloOptions,
) -> (LoweredRoutine, Option<CodeUse>) {
    let (key, refs) = routine_key(rid, &body, program, layout, &options);
    let name = program.name(program.routine(rid).name);
    let stored = slot.and_then(|slot| slot.find(key));
    let damaged = match stored.map(|bytes| decode_entry(bytes, name, &refs, layout)) {
        Some(Ok(lr)) => {
            let replayed = CodeUse {
                key,
                fresh: None,
                damaged: false,
            };
            return (lr, Some(replayed));
        }
        decoded => decoded.is_some(),
    };
    let lr = lower(rid, body, program, layout, options);
    // A routine whose lowering cannot be encoded stays out of its slot
    // and is lowered every build.
    let code_use = encode_entry(&lr, &refs, layout).map(|fresh| CodeUse {
        key,
        fresh: Some(fresh),
        damaged,
    });
    (lr, code_use)
}

/// `lower_owned`, counted in test builds.
fn lower(
    rid: RoutineId,
    body: RoutineBody,
    program: &Program,
    layout: &GlobalLayout,
    options: LloOptions,
) -> LoweredRoutine {
    #[cfg(test)]
    LOWERINGS.with(|c| c.set(c.get() + 1));
    lower_owned(rid, body, program, layout, options)
}

/// The code tier's write half, on the calling thread in module order
/// after the LLO merge: a slot whose live routines used exactly the
/// keys it already holds is left alone (an unchanged module appends
/// nothing); any other is *replaced* by the entries this build used —
/// replayed ones copied from the old slot, the rest freshly encoded —
/// never merged with what it held, so a slot cannot outgrow its
/// module. A slot in which a worker found an undecodable entry is
/// invalidated first and always rewritten.
fn store_code_slots(
    bcache: &mut BuildCache,
    mode: &str,
    program: &Program,
    live: u64,
    slots: &[Option<CodeSlot>],
    code_uses: &[Option<CodeUse>],
    tel: &Telemetry,
) {
    let mut by_module: Vec<Vec<&CodeUse>> = vec![Vec::new(); slots.len()];
    let mut replayed = 0u64;
    for (i, code_use) in code_uses.iter().enumerate() {
        if let Some(code_use) = code_use {
            replayed += u64::from(code_use.fresh.is_none());
            let module = program.routine(RoutineId::from_index(i)).module;
            by_module[module.index()].push(code_use);
        }
    }
    bcache.record_routines(replayed, live - replayed);
    for (m, (mut uses, slot)) in by_module.into_iter().zip(slots).enumerate() {
        let module = program.name(program.modules()[m].name);
        // Routines of one module with one key share one entry.
        uses.sort_by_key(|u| u.key);
        uses.dedup_by_key(|u| u.key);
        let damaged = uses.iter().any(|u| u.damaged);
        if let (true, Some(slot)) = (damaged, slot) {
            bcache.invalidate_code(mode, module, slot, tel);
        }
        let keys = uses.iter().map(|u| u.key);
        if !damaged && slot.as_ref().is_some_and(|s| s.holds(keys)) {
            continue;
        }
        let stored = |key| slot.as_ref().and_then(|s| s.find(key));
        let entries: Vec<(CodeKey, &[u8])> = uses
            .iter()
            .map(|u| {
                let bytes = u.fresh.as_deref().or_else(|| stored(u.key));
                (u.key, bytes.expect("a replayed entry came from this slot"))
            })
            .collect();
        bcache.put_code(mode, module, &entries, tel);
    }
}

/// Downgrades a failed cache operation (`name`: a commit on a full
/// disk or with revoked permissions, a compaction) to a `degraded`
/// trace event: a build that compiled correctly must not fail because
/// of its *cache* — the next run simply starts colder.
fn degrade(tel: &Telemetry, name: &str, outcome: Result<(), NaimError>) {
    if let Err(e) = outcome {
        tel.emit(TraceEvent::Degraded {
            component: "cache",
            name: name.to_owned(),
            error: e.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_module_compiler() -> Compiler {
        let mut cc = Compiler::new();
        cc.add_source(
            "util",
            r#"
            global factor: int = 3;
            fn scale(x: int) -> int { return x * factor; }
            fn unused_export(x: int) -> int { return x - 1; }
            "#,
        )
        .unwrap();
        cc.add_source(
            "app",
            r#"
            extern fn scale(x: int) -> int;
            fn main() -> int {
                var i: int = 0;
                var acc: int = 0;
                while (i < 200) {
                    acc = acc + scale(i);
                    i = i + 1;
                }
                output(acc);
                return acc % 1000;
            }
            "#,
        )
        .unwrap();
        cc
    }

    #[test]
    fn all_levels_agree_on_semantics() {
        let cc = two_module_compiler();
        let o1 = cc.build(&BuildOptions::new(OptLevel::O1)).unwrap();
        let o2 = cc.build(&BuildOptions::o2()).unwrap();
        let o4 = cc.build(&BuildOptions::new(OptLevel::O4)).unwrap();
        let r1 = o1.run(&[]).unwrap();
        let r2 = o2.run(&[]).unwrap();
        let r4 = o4.run(&[]).unwrap();
        assert_eq!(r1.checksum, r2.checksum);
        assert_eq!(r2.checksum, r4.checksum);
        assert!(r2.cycles <= r1.cycles);
        assert!(
            r4.cycles < r2.cycles,
            "CMO must beat O2: {} vs {}",
            r4.cycles,
            r2.cycles
        );
    }

    #[test]
    fn full_pbo_pipeline_beats_o2() {
        let cc = two_module_compiler();
        let train = cc.build(&BuildOptions::instrumented()).unwrap();
        let db = train.run_for_profile(&[]).unwrap();
        let o2 = cc.build(&BuildOptions::o2()).unwrap();
        let best = cc
            .build(
                &BuildOptions::new(OptLevel::O4)
                    .with_profile_db(db)
                    .with_selectivity(100.0),
            )
            .unwrap();
        let r2 = o2.run(&[]).unwrap();
        let rb = best.run(&[]).unwrap();
        assert_eq!(r2.checksum, rb.checksum);
        assert!(rb.cycles < r2.cycles);
        assert!(best.report.hlo.inlines > 0);
    }

    #[test]
    fn dead_exports_are_stubbed_at_o4() {
        let cc = two_module_compiler();
        let o4 = cc.build(&BuildOptions::new(OptLevel::O4)).unwrap();
        assert!(o4.report.hlo.dead_routines >= 1, "unused_export is dead");
    }

    #[test]
    fn selectivity_reports_loc_fraction() {
        let cc = two_module_compiler();
        let train = cc.build(&BuildOptions::instrumented()).unwrap();
        let db = train.run_for_profile(&[]).unwrap();
        let half = cc
            .build(
                &BuildOptions::new(OptLevel::O4)
                    .with_profile_db(db)
                    .with_selectivity(50.0),
            )
            .unwrap();
        assert!(half.report.cmo_modules >= 1);
        assert!(half.report.cmo_loc <= half.report.total_loc);
    }

    #[test]
    fn missing_main_is_an_error() {
        let mut cc = Compiler::new();
        cc.add_source("lib", "fn f() -> int { return 1; }").unwrap();
        assert!(matches!(
            cc.build(&BuildOptions::o2()),
            Err(BuildError::NoMain)
        ));
    }

    #[test]
    fn profile_from_uninstrumented_image_is_an_error() {
        let cc = two_module_compiler();
        let o2 = cc.build(&BuildOptions::o2()).unwrap();
        assert!(matches!(
            o2.run_for_profile(&[]),
            Err(BuildError::NotInstrumented)
        ));
    }

    #[test]
    fn builds_are_deterministic() {
        let cc = two_module_compiler();
        let train = cc.build(&BuildOptions::instrumented()).unwrap();
        let db = train.run_for_profile(&[]).unwrap();
        let opts = BuildOptions::new(OptLevel::O4)
            .with_profile_db(db)
            .with_selectivity(40.0);
        let a = cc.build(&opts).unwrap();
        let b = cc.build(&opts).unwrap();
        assert_eq!(a.image.code, b.image.code, "same inputs, same image (§6.2)");
    }

    /// A retrain moves profile counts, never a front-end object: every
    /// module hits, and only the build tier, whose key covers the
    /// database, misses.
    #[test]
    fn retrain_keeps_every_module_warm() {
        use cmo_naim::{MemStorage, Storage};
        use cmo_profile::ProbeKey;
        use std::sync::Arc;
        let modules: Vec<(String, String)> = vec![
            (
                "util".to_owned(),
                "global factor: int = 3;
                 fn scale(x: int) -> int { return x * factor; }"
                    .to_owned(),
            ),
            (
                "app".to_owned(),
                "extern fn scale(x: int) -> int;
                 extern fn island(x: int) -> int;
                 fn main() -> int {
                     var i: int = 0;
                     var acc: int = 0;
                     while (i < 200) {
                         acc = acc + scale(i);
                         i = i + 1;
                     }
                     acc = acc + island(3);
                     return acc % 1000;
                 }"
                .to_owned(),
            ),
            (
                "isl".to_owned(),
                "fn island(x: int) -> int {
                     var a: int = x;
                     a = a + 1; a = a + 2; a = a + 3; a = a + 4;
                     a = a + 5; a = a + 6; a = a + 7; a = a + 8;
                     return a;
                 }"
                .to_owned(),
            ),
        ];
        let mut cc = Compiler::new();
        cc.add_sources(&modules, 1).unwrap();
        let train = cc.build(&BuildOptions::instrumented()).unwrap();
        let db1 = train.run_for_profile(&[]).unwrap();
        // The retrain: only the island's internal counts move.
        let island_shape = db1.routine("island").expect("island trained").shape;
        let mut db2 = db1.clone();
        db2.record(
            &[(ProbeKey::block("island", 0), 5_000)],
            &[("island".to_owned(), island_shape)],
        );
        let opts = |db: &ProfileDb, jobs: usize| {
            BuildOptions::new(OptLevel::O4)
                .with_profile_db(db.clone())
                .with_jobs(jobs)
        };

        let tel = Telemetry::disabled();
        let cold = Arc::new(MemStorage::new());
        {
            let mut cache =
                BuildCache::open_on(Arc::clone(&cold) as Arc<dyn Storage>, &tel).unwrap();
            let mut cold_cc = Compiler::new();
            let hits = cold_cc
                .add_sources_cached_with(&modules, &opts(&db1, 1), &mut cache)
                .unwrap();
            assert_eq!(hits, 0);
            cold_cc.build_cached(&opts(&db1, 1), &mut cache).unwrap();
        }

        // Each worker count meets the cache as the cold build left it.
        let fresh = cc.build(&opts(&db2, 1)).unwrap();
        for jobs in [1, 4] {
            let storage: Arc<dyn Storage> = Arc::new(cold.snapshot());
            let mut cache = BuildCache::open_on(storage, &tel).unwrap();
            let mut warm_cc = Compiler::new();
            let hits = warm_cc
                .add_sources_cached_with(&modules, &opts(&db2, jobs), &mut cache)
                .unwrap();
            assert_eq!(hits, modules.len(), "-j{jobs}: every module survives");
            assert_eq!(cache.stats().module_misses, 0, "-j{jobs}");
            let warm = warm_cc.build_cached(&opts(&db2, jobs), &mut cache).unwrap();
            assert!(
                warm.report.replayed.is_none(),
                "-j{jobs}: moved counts must re-key the build tier"
            );
            assert_eq!(warm.image.code, fresh.image.code, "-j{jobs}");
        }
    }

    /// A `Storage` that forwards to a [`MemStorage`] and counts every
    /// operation that changes a file.
    #[derive(Debug, Default)]
    struct CountingStorage {
        inner: cmo_naim::MemStorage,
        mutations: std::sync::atomic::AtomicU64,
    }

    impl CountingStorage {
        fn mutated(&self) -> u64 {
            self.mutations.load(std::sync::atomic::Ordering::SeqCst)
        }

        fn count(&self) {
            self.mutations
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    impl cmo_naim::Storage for CountingStorage {
        fn read(&self, name: &str) -> std::io::Result<Vec<u8>> {
            self.inner.read(name)
        }
        fn write(&self, name: &str, data: &[u8]) -> std::io::Result<()> {
            self.count();
            self.inner.write(name, data)
        }
        fn append(&self, name: &str, data: &[u8]) -> std::io::Result<u64> {
            self.count();
            self.inner.append(name, data)
        }
        fn read_at(&self, name: &str, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
            self.inner.read_at(name, offset, len)
        }
        fn size(&self, name: &str) -> std::io::Result<u64> {
            self.inner.size(name)
        }
        fn truncate(&self, name: &str, len: u64) -> std::io::Result<()> {
            self.count();
            self.inner.truncate(name, len)
        }
        fn sync(&self, name: &str) -> std::io::Result<()> {
            self.count();
            self.inner.sync(name)
        }
        fn rename(&self, from: &str, to: &str) -> std::io::Result<()> {
            self.count();
            self.inner.rename(from, to)
        }
        fn exists(&self, name: &str) -> bool {
            self.inner.exists(name)
        }
        fn remove(&self, name: &str) -> std::io::Result<()> {
            self.count();
            self.inner.remove(name)
        }
    }

    /// Six modules: `main` calls a chain of five one-routine modules.
    fn six_modules() -> Vec<(String, String)> {
        let mut modules: Vec<(String, String)> = (0..5)
            .map(|i| {
                (
                    format!("m{i}"),
                    format!("fn f{i}(x: int) -> int {{ return x * {} + {i}; }}\n", i + 2),
                )
            })
            .collect();
        let externs: String = (0..5)
            .map(|i| format!("extern fn f{i}(x: int) -> int;\n"))
            .collect();
        let calls: String = (0..5).map(|i| format!("acc = acc + f{i}(i);\n")).collect();
        modules.push((
            "app".to_owned(),
            format!(
                "{externs}fn main() -> int {{\n var i: int = 0;\n var acc: int = 0;\n \
                 while (i < 30) {{\n {calls} i = i + 1;\n }}\n return acc % 1000;\n}}\n"
            ),
        ));
        modules
    }

    fn trained(modules: &[(String, String)]) -> ProfileDb {
        let mut cc = Compiler::new();
        cc.add_sources(modules, 1).unwrap();
        let train = cc.build(&BuildOptions::instrumented()).unwrap();
        train.run_for_profile(&[]).unwrap()
    }

    /// What one cached `+O4 +P` session did, by the step counters.
    struct Session {
        out: BuildOutput,
        decodes: u64,
        clones: u64,
        compiles: u64,
    }

    fn cached_session(
        storage: &std::sync::Arc<CountingStorage>,
        modules: &[(String, String)],
        add_db: &ProfileDb,
        build_db: &ProfileDb,
    ) -> Session {
        use crate::cache::DECODES;
        let options = |db: &ProfileDb| BuildOptions::new(OptLevel::O4).with_profile_db(db.clone());
        let counters = || {
            (
                DECODES.with(std::cell::Cell::get),
                CLONES.with(std::cell::Cell::get),
                COMPILES.with(std::cell::Cell::get),
            )
        };
        let before = counters();
        let storage: std::sync::Arc<dyn cmo_naim::Storage> = storage.clone();
        let mut cache = BuildCache::open_on(storage, &Telemetry::disabled()).unwrap();
        let mut cc = Compiler::new();
        cc.add_sources_cached_with(modules, &options(add_db), &mut cache)
            .unwrap();
        let out = cc.build_cached(&options(build_db), &mut cache).unwrap();
        let after = counters();
        Session {
            out,
            decodes: after.0 - before.0,
            clones: after.1 - before.1,
            compiles: after.2 - before.2,
        }
    }

    fn cache_files(storage: &CountingStorage) -> Vec<Vec<u8>> {
        use cmo_naim::Storage;
        ["repo.naim", "manifest.tsv", "commit.journal"]
            .iter()
            .map(|name| storage.read(name).unwrap())
            .collect()
    }

    #[test]
    fn a_replay_decodes_nothing_and_writes_nothing() {
        let modules = six_modules();
        let db = trained(&modules);
        let storage = std::sync::Arc::new(CountingStorage::default());
        let cold = cached_session(&storage, &modules, &db, &db);
        assert_eq!(cold.compiles, 6);
        assert!(storage.mutated() > 0, "a cold build commits");

        let (files, mutated) = (cache_files(&storage), storage.mutated());
        let warm = cached_session(&storage, &modules, &db, &db);
        assert!(warm.out.report.replayed.is_some());
        assert_eq!(warm.out.report.cache.module_hits, 6);
        assert_eq!((warm.decodes, warm.clones, warm.compiles), (0, 0, 0));
        assert_eq!(
            storage.mutated(),
            mutated,
            "a replay must not touch storage"
        );
        assert_eq!(cache_files(&storage), files);
        assert_eq!(warm.out.image.to_bytes(), cold.out.image.to_bytes());
    }

    /// A replay's report counts this session's probes in `cache` and
    /// keeps the cold run's stored counters beside them in `replayed`,
    /// which its JSON presents: the cold document, at any worker count.
    #[test]
    fn a_replay_reports_its_own_cache_counters_beside_the_cold_ones() {
        use cmo_naim::{MemStorage, Storage};
        use std::sync::Arc;
        let modules = six_modules();
        let db = trained(&modules);
        let session = |storage: Arc<dyn Storage>, jobs: usize| {
            let options = BuildOptions::new(OptLevel::O4)
                .with_profile_db(db.clone())
                .with_jobs(jobs)
                .with_telemetry(Telemetry::enabled());
            let mut cache = BuildCache::open_on(storage, &Telemetry::disabled()).unwrap();
            let mut cc = Compiler::new();
            cc.add_sources_cached_with(&modules, &options, &mut cache)
                .unwrap();
            cc.build_cached(&options, &mut cache).unwrap()
        };
        let cold_storage = Arc::new(MemStorage::new());
        let cold = session(Arc::clone(&cold_storage) as Arc<dyn Storage>, 1);
        assert_eq!(cold.report.replayed, None);
        assert_eq!(cold.report.cache.module_misses, 6);
        for jobs in [1, 4] {
            let warm = session(Arc::new(cold_storage.snapshot()), jobs);
            assert_eq!(warm.report.replayed, Some(cold.report.cache), "-j{jobs}");
            assert_eq!(warm.report.cache.build_hits, 1, "-j{jobs}");
            assert_eq!(warm.report.to_json(), cold.report.to_json(), "-j{jobs}");
        }
    }

    #[test]
    fn a_one_module_edit_decodes_the_rest_and_compiles_one() {
        let mut modules = six_modules();
        let db = trained(&modules);
        let storage = std::sync::Arc::new(CountingStorage::default());
        cached_session(&storage, &modules, &db, &db);
        modules[2]
            .1
            .push_str("fn untouched_extra(x: int) -> int { return x; }\n");
        let edit = cached_session(&storage, &modules, &db, &db);
        assert!(edit.out.report.replayed.is_none());
        assert_eq!(edit.out.report.cache.module_hits, 5);
        // The edited module is compiled once, and that object is the
        // one that links.
        assert_eq!((edit.decodes, edit.clones, edit.compiles), (5, 1, 1));
        let mut cc = Compiler::new();
        cc.add_sources(&modules, 1).unwrap();
        let uncached = cc
            .build(&BuildOptions::new(OptLevel::O4).with_profile_db(db))
            .unwrap();
        assert_eq!(edit.out.image.to_bytes(), uncached.image.to_bytes());
    }

    #[test]
    fn building_under_another_profile_plans_again_and_misses() {
        let modules = six_modules();
        let db = trained(&modules);
        let storage = std::sync::Arc::new(CountingStorage::default());
        cached_session(&storage, &modules, &db, &db);
        let mut retrained = db.clone();
        let (name, shape) = db
            .iter()
            .map(|(name, p)| (name.to_owned(), p.shape))
            .next()
            .unwrap();
        retrained.record(
            &[(cmo_profile::ProbeKey::block(&name, 0), 9_000)],
            &[(name, shape)],
        );
        // Sources added under `db`, built under `retrained`: every
        // module hits, the build key follows the database it runs under.
        let other = cached_session(&storage, &modules, &db, &retrained);
        assert_eq!(other.out.report.cache.module_hits, 6);
        assert!(other.out.report.replayed.is_none());
        assert_eq!(other.decodes, 6, "every hit is decoded for the link");
        let mut cc = Compiler::new();
        cc.add_sources(&modules, 1).unwrap();
        let uncached = cc
            .build(&BuildOptions::new(OptLevel::O4).with_profile_db(retrained))
            .unwrap();
        assert_eq!(other.out.image.to_bytes(), uncached.image.to_bytes());
    }

    /// What one cached `+O4 +P` session did to the code tier, with
    /// inlining off so every routine `main` calls stays a live routine
    /// of its own module.
    struct CodeSession {
        out: BuildOutput,
        lowerings: u64,
        fetches: u64,
        stores: u64,
        replayed: u64,
        lowered: u64,
    }

    fn no_inlining(db: &ProfileDb) -> BuildOptions {
        let mut options = BuildOptions::new(OptLevel::O4).with_profile_db(db.clone());
        options.inline.small_callee_il = 0;
        options.inline.hot_callee_il = 0;
        options
    }

    fn code_session(
        storage: &std::sync::Arc<CountingStorage>,
        modules: &[(String, String)],
        db: &ProfileDb,
    ) -> CodeSession {
        use crate::cache::{CODE_FETCHES, CODE_STORES};
        let counters = || {
            (
                LOWERINGS.with(std::cell::Cell::get),
                CODE_FETCHES.with(std::cell::Cell::get),
                CODE_STORES.with(std::cell::Cell::get),
            )
        };
        let before = counters();
        let storage: std::sync::Arc<dyn cmo_naim::Storage> = storage.clone();
        let mut cache = BuildCache::open_on(storage, &Telemetry::disabled()).unwrap();
        let mut cc = Compiler::new();
        cc.add_sources_cached_with(modules, &no_inlining(db), &mut cache)
            .unwrap();
        let out = cc.build_cached(&no_inlining(db), &mut cache).unwrap();
        let after = counters();
        CodeSession {
            out,
            lowerings: after.0 - before.0,
            fetches: after.1 - before.1,
            stores: after.2 - before.2,
            replayed: cache.routines_replayed(),
            lowered: cache.routines_lowered(),
        }
    }

    fn uncached_image(modules: &[(String, String)], db: &ProfileDb) -> Vec<u8> {
        let mut cc = Compiler::new();
        cc.add_sources(modules, 1).unwrap();
        cc.build(&no_inlining(db)).unwrap().image.to_bytes()
    }

    #[test]
    fn a_cold_cached_build_lowers_every_live_routine_once_and_stores_a_slot_per_module() {
        let modules = six_modules();
        let db = trained(&modules);
        let storage = std::sync::Arc::new(CountingStorage::default());
        let cold = code_session(&storage, &modules, &db);
        // `main` and the five routines it calls.
        assert_eq!((cold.lowerings, cold.lowered, cold.replayed), (6, 6, 0));
        assert_eq!((cold.fetches, cold.stores), (6, 6));
        assert_eq!(cold.out.image.to_bytes(), uncached_image(&modules, &db));

        // Nothing changed: the build tier answers before any slot is read.
        let warm = code_session(&storage, &modules, &db);
        assert!(warm.out.report.replayed.is_some());
        assert_eq!((warm.lowerings, warm.fetches, warm.stores), (0, 0, 0));
        assert_eq!((warm.lowered, warm.replayed), (0, 0));
    }

    #[test]
    fn an_edit_that_changes_no_live_routine_lowers_nothing_and_stores_no_slot() {
        let mut modules = six_modules();
        let db = trained(&modules);
        let storage = std::sync::Arc::new(CountingStorage::default());
        code_session(&storage, &modules, &db);
        // A new routine nothing calls: dead, and ahead of `main` in
        // link order, so every later routine's id moves.
        modules[2]
            .1
            .push_str("fn untouched_extra(x: int) -> int { return x; }\n");
        let edit = code_session(&storage, &modules, &db);
        assert!(edit.out.report.replayed.is_none());
        assert_eq!((edit.lowerings, edit.lowered, edit.replayed), (0, 0, 6));
        assert_eq!((edit.fetches, edit.stores), (6, 0));
        assert_eq!(edit.out.image.to_bytes(), uncached_image(&modules, &db));
    }

    #[test]
    fn a_body_edit_of_a_live_routine_lowers_it_alone_and_rewrites_its_slot_alone() {
        let mut modules = six_modules();
        let db = trained(&modules);
        let storage = std::sync::Arc::new(CountingStorage::default());
        code_session(&storage, &modules, &db);
        modules[2].1 = modules[2].1.replace("x * 4 + 2", "x * 4 + 3");
        assert_ne!(modules, six_modules(), "the edit took");
        let edit = code_session(&storage, &modules, &db);
        assert!(edit.out.report.replayed.is_none());
        assert_eq!((edit.lowerings, edit.lowered, edit.replayed), (1, 1, 5));
        assert_eq!((edit.fetches, edit.stores), (6, 1));
        assert_eq!(edit.out.image.to_bytes(), uncached_image(&modules, &db));

        // Replace, not merge: the slot now holds the edited body's
        // entry alone, so going back (past the build tier, by way of an
        // unrelated dead routine) lowers the old body again.
        let mut reverted = six_modules();
        reverted[4].1.push_str("fn bump() -> int { return 1; }\n");
        let back = code_session(&storage, &reverted, &db);
        assert!(back.out.report.replayed.is_none());
        assert_eq!((back.lowerings, back.stores), (1, 1));
    }

    /// PBO is on exactly when a profile is attached: `pbo` set without
    /// one builds what no PBO builds, at every level, with and without
    /// calls left for the final link to cluster on.
    #[test]
    fn pbo_without_a_profile_builds_as_without_pbo() {
        let mut cc = Compiler::new();
        cc.add_sources(&six_modules(), 1).unwrap();
        let no_inlines = InlineOptions {
            op_limit: Some(0),
            ..InlineOptions::default()
        };
        for level in [OptLevel::O1, OptLevel::O2, OptLevel::O4] {
            for inline in [InlineOptions::default(), no_inlines.clone()] {
                let plain = BuildOptions::new(level).with_inline(inline);
                let mut pbo = plain.clone();
                pbo.pbo = true;
                let (a, b) = (cc.build(&plain).unwrap(), cc.build(&pbo).unwrap());
                assert_eq!(a.image.to_bytes(), b.image.to_bytes(), "{level:?}");
                assert_eq!(a.report.to_json(), b.report.to_json(), "{level:?}");
            }
        }
    }

    #[test]
    fn hard_memory_limit_fails_unselective_cmo() {
        let cc = two_module_compiler();
        let tiny = NaimConfig::disabled().hard_limit(2_000);
        let result = cc.build(&BuildOptions::new(OptLevel::O4).with_naim(tiny));
        assert!(matches!(result, Err(BuildError::Naim(_))));
    }
}
