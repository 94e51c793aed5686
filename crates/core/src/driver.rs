//! The compilation driver: HP-UX-style option levels over the full
//! pipeline.

use crate::cache::{self, BuildCache, CacheStats};
use crate::parallel::run_jobs;
use crate::report::{CompileReport, FaultStats};
use crate::slices::{ModuleScope, SliceGranularity, SlicePlan};
use cmo_frontend::FrontendError;
use cmo_hlo::{
    fold_globals, merge_outcomes, plan_clusters, run_cluster, run_clusters_seq, CallGraph,
    GlobalFacts, HloSession, HloStats, InlineOptions, PartitionStats,
};
use cmo_ir::{link_objects, IlObject, LinkError, Program, RoutineBody, RoutineId};
use cmo_link::{assemble, CallArc, LinkOptions};
use cmo_llo::{
    lower_routine, shape_of, GlobalLayout, LloOptions, LoweredRoutine, OptEffort, OptEffortOpt,
};
use cmo_naim::{LoaderStats, MemorySnapshot, NaimConfig, NaimError};
use cmo_profile::{Freshness, ProfileDb};
use cmo_select::{coarse_select_traced, layered_levels, OptLayer, SelectError};
use cmo_telemetry::{PhaseRecord, Telemetry, TraceEvent};
use cmo_vm::{profile_from_run, run, ExecResult, MachineImage, RunConfig};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use std::sync::{Mutex, PoisonError};

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
    /// NAIM loader configuration (memory budget, thresholds, level).
    pub naim: NaimConfig,
    /// Inliner heuristics.
    pub inline: InlineOptions,
    /// Enable the §8 multi-layered strategy: cold routines drop to
    /// `+O1` treatment.
    pub layered: bool,
    /// Worker threads for the parallel pipeline sections (front-end
    /// lowering and per-routine LLO; `cmocc -j N`). 1 (the default)
    /// runs everything inline on the calling thread. Output is
    /// byte-identical at every job count: results are keyed by module
    /// or routine index and merged in index order.
    pub jobs: usize,
    /// Auto-trigger for cache compaction (`cmocc
    /// --gc-threshold-bytes N`): when a cache is attached and its
    /// repository carries more than this many dead bytes, the build
    /// runs a mark-and-sweep compaction before probing. `None` (the
    /// default) never compacts. Excluded from the options signature —
    /// when the GC policy changed, the outputs did not.
    pub gc_threshold_bytes: Option<u64>,
    /// How wide each module's profile-slice scope reaches when a
    /// profile database is attached (`cmocc
    /// --profile-slice-granularity`). Excluded from the options
    /// signature: granularity only decides *which* database projection
    /// keys an entry, and identical slice fingerprints imply identical
    /// observable counts regardless of how the scope was drawn.
    pub slice_granularity: SliceGranularity,
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
            slice_granularity: SliceGranularity::default(),
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

    /// Sets the profile-slice scope granularity.
    #[must_use]
    pub fn with_slice_granularity(mut self, granularity: SliceGranularity) -> Self {
        self.slice_granularity = granularity;
        self
    }
}

/// What the build did, for diagnostics and the paper's experiments.
#[derive(Debug, Clone, Default)]
pub struct BuildReport {
    /// Modules compiled with CMO.
    pub cmo_modules: usize,
    /// Total modules.
    pub total_modules: usize,
    /// Source lines in CMO modules (Figure 6 x-axis).
    pub cmo_loc: u64,
    /// Total source lines.
    pub total_loc: u64,
    /// HLO transformation counters.
    pub hlo: HloStats,
    /// Cluster partition counters from the parallel HLO fan-out
    /// (zeros below `+O4`).
    pub clusters: PartitionStats,
    /// NAIM loader counters.
    pub loader: LoaderStats,
    /// Peak optimizer memory (Figures 4/5).
    pub peak_memory: MemorySnapshot,
    /// Largest per-routine LLO working set.
    pub llo_peak_bytes: usize,
    /// Simulated compile effort in abstract work units: NAIM traffic
    /// plus per-routine analysis/lowering costs. Wall-clock time tracks
    /// this closely; benches report both.
    pub compile_work: u64,
    /// Final image size in instructions.
    pub image_instrs: usize,
    /// Incremental-cache counters for this build (zeros when no cache
    /// was attached).
    pub cache: CacheStats,
    /// Faults contained during the build: worker panics absorbed by
    /// the job pool and modules skipped under `--keep-going`.
    pub faults: FaultStats,
    /// Hierarchical phase timers recorded by the build's telemetry
    /// sink. Empty when telemetry was disabled.
    pub phases: Vec<PhaseRecord>,
    /// On a warm whole-build cache hit, the cold run's stored unified
    /// report, replayed verbatim so `--report-json` output is
    /// byte-identical between cold and warm builds.
    pub replayed: Option<CompileReport>,
}

/// A finished build: the executable image plus its report.
#[derive(Debug, Clone)]
pub struct BuildOutput {
    /// The linked executable.
    pub image: MachineImage,
    /// Build diagnostics.
    pub report: BuildReport,
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

    /// The unified, versioned view of this build's statistics — the
    /// surface benches and external tooling should consume instead of
    /// the per-crate stats structs.
    #[must_use]
    pub fn compile_report(&self) -> crate::CompileReport {
        if let Some(replayed) = &self.report.replayed {
            return replayed.clone();
        }
        crate::CompileReport::from_build(&self.report)
    }
}

/// The compiler driver: collects modules, builds at any option level.
#[derive(Debug, Clone, Default)]
pub struct Compiler {
    objects: Vec<IlObject>,
    /// Per-module content fingerprints, parallel to `objects`, used as
    /// incremental-cache keys.
    fingerprints: Vec<String>,
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
        let obj = cmo_frontend::compile_module(module, source)?;
        self.fingerprints
            .push(cache::module_fingerprint(module, source));
        self.objects.push(obj);
        Ok(())
    }

    /// Compiles a batch of MLC source modules, fanning front-end
    /// lowering out over `jobs` worker threads, and adds their IL
    /// objects in batch order. Modules are independent compilation
    /// units, so this parallelizes trivially; with multiple failures
    /// the reported error is the first by batch position, independent
    /// of scheduling.
    ///
    /// # Errors
    ///
    /// Returns frontend diagnostics.
    pub fn add_sources(
        &mut self,
        modules: &[(String, String)],
        jobs: usize,
    ) -> Result<(), BuildError> {
        let objects = run_jobs(modules.len(), jobs.max(1), |_, i| {
            cmo_frontend::compile_module(&modules[i].0, &modules[i].1)
        });
        for (obj, (module, source)) in objects.into_iter().zip(modules) {
            self.fingerprints
                .push(cache::module_fingerprint(module, source));
            self.objects.push(obj?);
        }
        Ok(())
    }

    /// Like [`Compiler::add_sources`], but consults `cache` first:
    /// modules whose fingerprint hits skip the front end entirely and
    /// reuse the cached IL object; misses compile over `jobs` workers
    /// and are stored for next time. All cache traffic happens on the
    /// calling thread in batch order, so traces stay deterministic at
    /// every job count. Returns the number of cache hits.
    ///
    /// # Errors
    ///
    /// Returns frontend diagnostics for the recompiled modules.
    pub fn add_sources_cached(
        &mut self,
        modules: &[(String, String)],
        jobs: usize,
        bcache: &mut BuildCache,
        tel: &Telemetry,
    ) -> Result<usize, BuildError> {
        let base = self.objects.len();
        let mut slots: Vec<Option<IlObject>> = Vec::with_capacity(modules.len());
        let mut misses: Vec<usize> = Vec::new();
        for (i, (module, source)) in modules.iter().enumerate() {
            let fp = cache::module_fingerprint(module, source);
            match bcache.get_module(module, &fp, tel) {
                Some(obj) => slots.push(Some(obj)),
                None => {
                    slots.push(None);
                    misses.push(i);
                }
            }
            self.fingerprints.push(fp);
        }
        let hits = modules.len() - misses.len();
        let compiled = run_jobs(misses.len(), jobs.max(1), |_, k| {
            let (module, source) = &modules[misses[k]];
            cmo_frontend::compile_module(module, source)
        });
        for (k, obj) in compiled.into_iter().enumerate() {
            slots[misses[k]] = Some(obj?);
        }
        for (i, slot) in slots.into_iter().enumerate() {
            let obj = slot.expect("every slot filled by hit or compile");
            if misses.binary_search(&i).is_ok() {
                let (module, _) = &modules[i];
                bcache.put_module(module, &self.fingerprints[base + i], &obj, tel);
            }
            self.objects.push(obj);
        }
        Ok(hits)
    }

    /// Like [`Compiler::add_sources_cached`], but profile-slice aware:
    /// when `options` carries a profile database, module entries are
    /// probed and stored under *composed* keys — the source
    /// fingerprint plus the module's profile-slice fingerprint — so a
    /// retrain re-keys only the modules whose observable counts moved.
    /// A hit under a composed key is a **retained hit**
    /// ([`CacheStats::profile_retained_hits`]).
    ///
    /// Slices are planned from [`ModuleScope`] sidecars stored next to
    /// each object under the source fingerprint alone. A scope is
    /// profile-independent and a pure function of the object, so a
    /// module whose sidecar is missing (new or edited source, a cold
    /// cache, or one written before slicing existed) is compiled
    /// first and its scope derived from the fresh object: planned and
    /// derived scopes mix freely, composed keys come out the same
    /// either way, and a one-module edit still hits on every other
    /// module.
    ///
    /// Without a profile database this is exactly
    /// [`Compiler::add_sources_cached`].
    ///
    /// # Errors
    ///
    /// Returns frontend diagnostics for the recompiled modules.
    pub fn add_sources_cached_with(
        &mut self,
        modules: &[(String, String)],
        options: &BuildOptions,
        bcache: &mut BuildCache,
    ) -> Result<usize, BuildError> {
        let tel = &options.telemetry;
        let Some(db) = options.profile.as_ref() else {
            return self.add_sources_cached(modules, options.jobs, bcache, tel);
        };
        let jobs = options.jobs.max(1);
        let compile_all = |which: &[usize]| {
            run_jobs(which.len(), jobs, |_, k| {
                let (module, source) = &modules[which[k]];
                cmo_frontend::compile_module(module, source)
            })
        };
        let fps: Vec<String> = modules
            .iter()
            .map(|(module, source)| cache::module_fingerprint(module, source))
            .collect();

        // Scopes: from the sidecar where there is one, else from the
        // module's freshly compiled object.
        let mut slots: Vec<Option<IlObject>> = vec![None; modules.len()];
        let mut scopes: Vec<Option<ModuleScope>> =
            fps.iter().map(|fp| bcache.get_scope(fp)).collect();
        let unscoped: Vec<usize> = (0..modules.len())
            .filter(|&i| scopes[i].is_none())
            .collect();
        for (k, obj) in compile_all(&unscoped).into_iter().enumerate() {
            let obj = obj?;
            let scope = ModuleScope::of_object(&obj);
            bcache.put_scope(&fps[unscoped[k]], &scope);
            scopes[unscoped[k]] = Some(scope);
            slots[unscoped[k]] = Some(obj);
        }
        let scopes: Vec<ModuleScope> = scopes
            .into_iter()
            .map(|scope| scope.expect("every scope fetched or derived"))
            .collect();
        let plan = SlicePlan::compute(&scopes, db, options.slice_granularity, &options.inline);
        emit_slices(&plan, bcache, tel);

        // Probe composed keys, on the calling thread in input order.
        let composed: Vec<String> = (0..modules.len())
            .map(|i| plan.composed_fp(i, &fps[i]))
            .collect();
        let mut misses: Vec<usize> = Vec::new();
        for (i, (module, _)) in modules.iter().enumerate() {
            match bcache.get_module(module, &composed[i], tel) {
                Some(obj) => {
                    bcache.record_retained_hit();
                    slots[i] = Some(obj);
                }
                None => misses.push(i),
            }
        }
        let uncompiled: Vec<usize> = misses
            .iter()
            .copied()
            .filter(|&i| slots[i].is_none())
            .collect();
        for (k, obj) in compile_all(&uncompiled).into_iter().enumerate() {
            slots[uncompiled[k]] = Some(obj?);
        }
        for (i, slot) in slots.into_iter().enumerate() {
            let obj = slot.expect("every slot filled by hit or compile");
            if misses.binary_search(&i).is_ok() {
                bcache.put_module(&modules[i].0, &composed[i], &obj, tel);
            }
            self.objects.push(obj);
        }
        self.fingerprints.extend(fps);
        Ok(modules.len() - misses.len())
    }

    /// Adds a pre-compiled IL object (e.g. read back from disk, the
    /// `make` flow of §6.1).
    pub fn add_object(&mut self, obj: IlObject) {
        self.fingerprints
            .push(cache::object_fingerprint(&obj.module_name, &obj.to_bytes()));
        self.objects.push(obj);
    }

    /// Number of modules added.
    #[must_use]
    pub fn n_modules(&self) -> usize {
        self.objects.len()
    }

    /// Builds the program at the requested options.
    ///
    /// # Errors
    ///
    /// Link errors, optimizer out-of-memory (hard NAIM limit), or a
    /// missing `main`.
    pub fn build(&self, options: &BuildOptions) -> Result<BuildOutput, BuildError> {
        build_objects(self.objects.clone(), options)
    }

    /// Like [`Compiler::build`], but consults `bcache` for a
    /// whole-build replay first and stores the result on a miss. See
    /// [`build_objects_cached`].
    ///
    /// # Errors
    ///
    /// See [`Compiler::build`]; additionally propagates cache
    /// persistence I/O failures.
    pub fn build_cached(
        &self,
        options: &BuildOptions,
        bcache: &mut BuildCache,
    ) -> Result<BuildOutput, BuildError> {
        build_objects_cached(
            self.objects.clone(),
            &self.fingerprints,
            options,
            Some(bcache),
        )
    }

    /// The per-module content fingerprints, parallel to the added
    /// objects.
    #[must_use]
    pub fn fingerprints(&self) -> &[String] {
        &self.fingerprints
    }
}

/// Emits one `profile_slice` trace event per planned slice (in module
/// input order, on the calling thread) and folds the slice counters
/// into the cache stats.
fn emit_slices(plan: &SlicePlan, bcache: &mut BuildCache, tel: &Telemetry) {
    for slice in &plan.slices {
        bcache.record_profile_slice(slice.stale);
        tel.emit(TraceEvent::ProfileSlice {
            module: slice.module.clone(),
            routines: slice.routines,
            stale: slice.stale,
            fp: slice.fp.clone(),
        });
    }
}

/// Correlates stored profile block counts with a body's current shape
/// (§6.2): fresh data is used as-is; stale data is clipped to the
/// current block count ("benefits diminish over time").
fn correlated_counts(db: &ProfileDb, name: &str, body: &RoutineBody) -> Option<Vec<u64>> {
    let current = shape_of(body);
    match db.lookup(name, current) {
        (Freshness::Missing, _) => None,
        (_, Some(p)) => {
            let mut counts = p.blocks.clone();
            counts.resize(body.blocks.len(), 0);
            Some(counts)
        }
        (_, None) => None,
    }
}

/// Aggregates per-site counts into caller→callee arcs for clustering.
fn arcs_from(
    program: &Program,
    bodies: &[RoutineBody],
    site_count: impl Fn(RoutineId, u32) -> u64,
) -> Vec<CallArc> {
    use std::collections::BTreeMap;
    let mut agg: BTreeMap<(RoutineId, RoutineId), u64> = BTreeMap::new();
    for (i, body) in bodies.iter().enumerate() {
        let caller = RoutineId::from_index(i);
        for block in &body.blocks {
            for instr in &block.instrs {
                if let cmo_ir::Instr::Call { callee, site, .. } = instr {
                    *agg.entry((caller, callee.id())).or_insert(0) += site_count(caller, site.0);
                }
            }
        }
    }
    let _ = program;
    agg.into_iter()
        .map(|((caller, callee), weight)| CallArc {
            caller,
            callee,
            weight,
        })
        .collect()
}

/// Builds a set of IL objects at the requested options. This is the
/// paper's "linker encounters IL objects and sends them to the
/// optimizer and code generator" flow.
///
/// # Errors
///
/// See [`Compiler::build`].
pub fn build_objects(
    objects: Vec<IlObject>,
    options: &BuildOptions,
) -> Result<BuildOutput, BuildError> {
    let tel = options.telemetry.clone();
    let unit = {
        let _p = tel.phase("link");
        link_objects(objects)?
    };
    if unit.program.main_routine().is_none() {
        return Err(BuildError::NoMain);
    }
    let mut report = BuildReport {
        total_modules: unit.program.modules().len(),
        total_loc: unit.program.total_source_lines(),
        ..BuildReport::default()
    };
    let db = options.profile.as_ref().filter(|_| options.pbo);

    // === The HLO stage (+O4 only). ===
    let (program, bodies, symtabs, maintained_counts, dead, o4_arcs) =
        if options.level == OptLevel::O4 {
            let _hlo_phase = tel.phase("hlo");
            // Coarse-grained selectivity (§5): pick CMO modules by ranked
            // call sites. Without PBO or a percentage, everything is CMO.
            let plan = match (db, options.selectivity) {
                (Some(db), Some(pct)) => {
                    let _p = tel.phase("select");
                    Some(coarse_select_traced(
                        &unit.program,
                        &unit.bodies,
                        db,
                        pct,
                        &tel,
                    )?)
                }
                _ => None,
            };
            let (targets, cmo_modules, cmo_loc): (Option<BTreeSet<RoutineId>>, usize, u64) =
                match &plan {
                    Some(plan) => {
                        let loc = plan
                            .cmo_modules
                            .iter()
                            .map(|&m| u64::from(unit.program.module(m).source_lines))
                            .sum();
                        (
                            Some(plan.hot_routines.iter().copied().collect()),
                            plan.cmo_modules.len(),
                            loc,
                        )
                    }
                    None => (None, unit.program.modules().len(), report.total_loc),
                };
            report.cmo_modules = cmo_modules;
            report.cmo_loc = cmo_loc;

            let mut session = {
                let _p = tel.phase("read_in");
                HloSession::new_with_telemetry(unit, options.naim.clone(), db, tel.clone())?
            };
            {
                let _p = tel.phase("ipa");
                // Read-in pass: whole-program facts need every routine (§5).
                let facts = GlobalFacts::build(&mut session)?;
                let fold_targets: Vec<RoutineId> = match &targets {
                    Some(t) => t.iter().copied().collect(),
                    None => (0..session.n_routines())
                        .map(RoutineId::from_index)
                        .collect(),
                };
                fold_globals(&mut session, &facts, &fold_targets)?;
                session.unload_all()?;
            }

            // Inlining. Without PBO the heuristics "drive the compiler to
            // thoroughly optimize all routines" (§5): every callee up to
            // the hot threshold becomes inlinable everywhere.
            let mut inline_opts = options.inline.clone();
            inline_opts.targets = targets;
            if db.is_none() {
                // "Our heuristics drive the compiler to thoroughly
                // optimize all routines" (§5): without profiles, medium
                // callees become inlinable everywhere, at real cost in
                // code growth, time, and memory.
                inline_opts.small_callee_il = inline_opts.small_callee_il.max(80);
            }
            // Cloning (when profiles justify the code growth) runs in
            // the same per-cluster fan-out, after each cluster's
            // inlining.
            let clone_opts = db.is_some().then(|| cmo_hlo::CloneOptions {
                min_callee_il: inline_opts.hot_callee_il,
                targets: inline_opts.targets.clone(),
                ..cmo_hlo::CloneOptions::default()
            });

            // WHOPR-style cluster partition: condense the call graph
            // into independent clusters and extract their inputs.
            let plan = {
                let _p = tel.phase("partition");
                plan_clusters(&mut session, Some(&inline_opts), clone_opts.as_ref())?
            };
            report.clusters = plan.stats();

            // Inline + clone, cluster by cluster. Clusters share no
            // mutable state, so they fan out over the worker pool —
            // except under an op limit, whose single global sequential
            // counter (§6.3 bisection) forces the sequential path. The
            // merge is keyed on cluster index, never completion order,
            // so stats, report, and trace are byte-identical at any -j.
            {
                let _p = tel.phase("inline");
                let config = session.loader_config();
                let workers = options.jobs.max(1);
                let outcomes = if inline_opts.op_limit.is_some() || workers <= 1 {
                    run_clusters_seq(
                        &session.program,
                        &plan,
                        &config,
                        Some(&inline_opts),
                        clone_opts.as_ref(),
                        &tel,
                    )?
                } else {
                    let program = &session.program;
                    let results = run_jobs(plan.inputs().len(), workers, |_, i| {
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
                    });
                    let mut outcomes = Vec::with_capacity(results.len());
                    for r in results {
                        outcomes.push(r?);
                    }
                    outcomes
                };
                let (inline_stats, clone_stats) = merge_outcomes(&mut session, &plan, outcomes)?;
                report.compile_work +=
                    inline_stats.inlines * 200 + inline_stats.considered + clone_stats.clones * 150;
            }

            // Post-inline call graph: dead-routine detection and cluster
            // arcs. The graph's edge counts are the *maintained* site
            // counts (scaled through inlining), not the raw database —
            // inlining created fresh sites the database has never seen.
            let _cg_phase = tel.phase("callgraph");
            let graph = CallGraph::build(&mut session)?;
            let main = session.program.main_routine().expect("checked above");
            let reach = graph.reachable_from(main);
            let dead: Vec<RoutineId> = (0..session.n_routines())
                .map(RoutineId::from_index)
                .filter(|r| !reach[r.index()])
                .collect();
            session.record_dead_routines(dead.len() as u64);
            if tel.is_enabled() {
                for &r in &dead {
                    let program = &session.program;
                    tel.emit(TraceEvent::DeadRoutine {
                        routine: program.name(program.routine(r).name).to_owned(),
                    });
                }
            }
            let maintained_arcs: Option<Vec<CallArc>> = options.pbo.then(|| {
                use std::collections::BTreeMap;
                let mut agg: BTreeMap<(RoutineId, RoutineId), u64> = BTreeMap::new();
                for e in &graph.edges {
                    *agg.entry((e.caller, e.callee)).or_insert(0) += e.count;
                }
                agg.into_iter()
                    .map(|((caller, callee), weight)| CallArc {
                        caller,
                        callee,
                        weight,
                    })
                    .collect()
            });
            session.unload_all()?;
            drop(_cg_phase);

            report.hlo = session.stats();
            report.loader = session.loader_stats();
            report.peak_memory = session.memory();
            report.compile_work += session.loader_stats().work_units;
            let (program, bodies, symtabs, counts) = {
                let _p = tel.phase("write_out");
                session.into_parts()?
            };
            (program, bodies, symtabs, counts, dead, maintained_arcs)
        } else {
            report.cmo_modules = 0;
            report.cmo_loc = 0;
            let n = unit.bodies.len();
            let counts = vec![None; n];
            (
                unit.program,
                unit.bodies,
                unit.symtabs,
                counts,
                Vec::new(),
                None,
            )
        };

    // === LLO + instrumentation. ===
    let layout = GlobalLayout::new(&program);
    let effort = match options.level {
        OptLevel::O1 => OptEffort::O1,
        _ => OptEffort::O2,
    };
    let layers = if options.layered {
        db.map(|db| layered_levels(&program, db, 0.95))
    } else {
        None
    };
    let mut is_dead = vec![false; bodies.len()];
    for r in &dead {
        is_dead[r.index()] = true;
    }
    // Each job takes its routine's maintained counts out of its slot;
    // a job index is claimed exactly once, so no lock is contended.
    let maintained_counts: Vec<Mutex<Option<Vec<u64>>>> =
        maintained_counts.into_iter().map(Mutex::new).collect();
    let llo_phase = tel.phase("llo");
    // Per-routine LLO is the pipeline's embarrassingly-parallel stage
    // (the LTRANS-style fan-out): each routine lowers independently
    // against shared read-only program state. Jobs are keyed by routine
    // index and merged in index order below, so the lowered code — and
    // every downstream byte — is identical at any `-j`. Workers tag
    // their telemetry handle with a worker id and advance only the
    // work clock (commutative adds); no events are emitted here, which
    // is what keeps traces byte-identical across job counts.
    let lowered: Vec<LoweredRoutine> = run_jobs(bodies.len(), options.jobs.max(1), |worker, i| {
        let body = &bodies[i];
        let rid = RoutineId::from_index(i);
        let name = program.name(program.routine(rid).name);
        if is_dead[i] {
            // Dead routine elimination: skip all LLO work, emit a stub.
            return LoweredRoutine {
                name: name.to_owned(),
                code: vec![cmo_vm::MInstr::Ret { value: None }],
                frame_slots: 0,
                probes: Vec::new(),
                shape: shape_of(body),
                llo_work_bytes: 0,
                il_after_opt: 0,
            };
        }
        let block_counts = if options.pbo {
            let maintained = maintained_counts[i]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            maintained.or_else(|| db.and_then(|db| correlated_counts(db, name, body)))
        } else {
            None
        };
        let routine_effort = match &layers {
            Some(layers) if layers.get(&rid) == Some(&OptLayer::Minimal) => OptEffort::O1,
            _ => effort,
        };
        let llo_opts = LloOptions {
            effort: OptEffortOpt(routine_effort),
            instrument: options.instrument,
            block_counts,
        };
        let lr = lower_routine(rid, body, &program, &layout, &llo_opts);
        tel.for_worker(worker)
            .work(u64::from(lr.il_after_opt) * 3 + (lr.llo_work_bytes as u64) / 256);
        lr
    });
    // Stable merge: fold per-routine results into the report in routine
    // order, regardless of which worker produced them.
    for lr in &lowered {
        report.llo_peak_bytes = report.llo_peak_bytes.max(lr.llo_work_bytes);
        report.compile_work += u64::from(lr.il_after_opt) * 3 + (lr.llo_work_bytes as u64) / 256;
    }
    drop(llo_phase);

    // === Final link: clustering + image assembly. ===
    let arcs = match o4_arcs {
        Some(arcs) => Some(arcs),
        None if options.pbo => db.map(|db| {
            arcs_from(&program, &bodies, |rid, site| {
                let name = program.name(program.routine(rid).name);
                db.site_count(name, site).unwrap_or(0)
            })
        }),
        None => None,
    };
    let image = {
        let _p = tel.phase("link_image");
        assemble(
            &program,
            lowered,
            &symtabs,
            &layout,
            &LinkOptions {
                arcs,
                dead,
                telemetry: tel.clone(),
            },
        )
    };
    report.image_instrs = image.code_size();
    report.phases = tel.phases();
    Ok(BuildOutput { image, report })
}

/// [`build_objects`] with an optional incremental cache.
///
/// With a cache attached, the driver derives a whole-build key from
/// the per-module fingerprints (`module_fps`, parallel to `objects`)
/// and the options signature. On a hit, the linked image and the cold
/// run's stored unified report come straight from the cache — HLO,
/// LLO, and linking are skipped entirely and a build-scope `"replay"`
/// trace event records the shortcut. On a miss the build runs
/// normally and its image and report are stored for next time.
///
/// Cached and uncached builds of the same inputs produce
/// byte-identical images; warm and cold `--report-json` documents are
/// byte-identical because the warm run replays the stored report
/// instead of recomputing one.
///
/// # Errors
///
/// See [`build_objects`]. Cache *persistence* failures (a full disk at
/// commit time) never fail the build: they degrade to a `degraded`
/// trace event and the next run starts colder.
pub fn build_objects_cached(
    objects: Vec<IlObject>,
    module_fps: &[String],
    options: &BuildOptions,
    bcache: Option<&mut BuildCache>,
) -> Result<BuildOutput, BuildError> {
    let Some(bcache) = bcache else {
        return build_objects(objects, options);
    };
    let tel = options.telemetry.clone();
    // Opportunistic compaction: when the caller set a dead-byte
    // threshold and the repository has crossed it, compact before the
    // probes. Like persistence, GC failures degrade rather than fail —
    // a build that compiles correctly must not die over cache hygiene.
    if let Some(threshold) = options.gc_threshold_bytes {
        let outcome = match bcache.dead_bytes() {
            Ok(dead) if dead > threshold => bcache.gc(&tel).map(|_| ()),
            Ok(_) => Ok(()),
            Err(e) => Err(e),
        };
        if let Err(e) = outcome {
            tel.emit(TraceEvent::Degraded {
                component: "cache",
                name: "gc".to_owned(),
                error: e.to_string(),
            });
        }
    }
    debug_assert_eq!(
        module_fps.len(),
        objects.len(),
        "one fingerprint per object"
    );
    // With a profile attached, the build tier keys on the vector of
    // per-module slice fingerprints (plus the residual) instead of the
    // monolithic database bytes; scopes re-derived from the objects in
    // hand are identical to the sidecar-planned ones, so the key is
    // stable across cold and warm runs.
    let key = match options.profile.as_ref() {
        Some(db) => {
            let scopes: Vec<ModuleScope> = objects.iter().map(ModuleScope::of_object).collect();
            let plan = SlicePlan::compute(&scopes, db, options.slice_granularity, &options.inline);
            cache::build_key_sliced(module_fps, &plan, options)
        }
        None => cache::build_key(module_fps, options),
    };
    if let Some((image, stored)) = bcache.get_build(&key, &tel) {
        tel.emit(TraceEvent::Cache {
            action: "replay",
            scope: "build",
            name: key.clone(),
            bytes: 0,
        });
        let report = BuildReport {
            cmo_modules: stored.cmo_modules,
            total_modules: stored.total_modules,
            cmo_loc: stored.cmo_loc,
            total_loc: stored.total_loc,
            hlo: stored.hlo,
            clusters: stored.clusters,
            loader: stored.loader,
            peak_memory: stored.memory,
            llo_peak_bytes: stored.llo_peak_bytes,
            compile_work: stored.compile_work,
            image_instrs: stored.image_instrs,
            cache: bcache.stats(),
            faults: stored.faults.clone(),
            phases: stored.phases.clone(),
            replayed: Some(stored),
        };
        persist_or_degrade(bcache, &tel);
        return Ok(BuildOutput { image, report });
    }
    let mut out = build_objects(objects, options)?;
    // Snapshot the cache counters *before* building the report that
    // gets stored, so the stored report equals the one this cold run
    // emits — the warm replay then matches byte for byte. The remote
    // tier's counters are snapshotted at the same point for the same
    // reason (the put/persist pushes below deliberately land after the
    // snapshot on every path).
    out.report.cache = bcache.stats();
    out.report.faults.remote = bcache.remote_stats();
    let stored = CompileReport::from_build(&out.report);
    bcache.put_build(&key, &out.image, &stored, &tel);
    persist_or_degrade(bcache, &tel);
    Ok(out)
}

/// Commits the cache, downgrading a persist failure (full disk,
/// revoked permissions) to a `degraded` trace event: a build that
/// compiled correctly must not fail because its *cache* could not be
/// written — the next run simply starts colder.
fn persist_or_degrade(bcache: &mut BuildCache, tel: &Telemetry) {
    if let Err(e) = bcache.persist() {
        tel.emit(TraceEvent::Degraded {
            component: "cache",
            name: "persist".to_owned(),
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

    #[test]
    fn retrain_keeps_untouched_module_slices_warm() {
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
                // Large (il > small_callee_il) and cold (one call):
                // couples with nobody, so its slice is its own.
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
        for (module, source) in &modules {
            cc.add_source(module, source).unwrap();
        }
        let train = cc.build(&BuildOptions::instrumented()).unwrap();
        let db1 = train.run_for_profile(&[]).unwrap();
        // The retrain: only the island's internal counts move.
        let island_shape = crate::slices::ModuleScope::of_object(&cc.objects[2])
            .routines
            .iter()
            .find(|r| r.name == "island")
            .expect("island defined")
            .shape;
        let mut db2 = db1.clone();
        db2.record(
            &[(ProbeKey::block("island", 0), 5_000)],
            &[("island".to_owned(), island_shape)],
        );

        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let tel = Telemetry::disabled();
        let opts = |db: &ProfileDb| BuildOptions::new(OptLevel::O4).with_profile_db(db.clone());

        // Cold profiled build: everything compiles, slices are seeded.
        let mut cache = BuildCache::open_on(Arc::clone(&storage), &tel).unwrap();
        let mut cold_cc = Compiler::new();
        let hits = cold_cc
            .add_sources_cached_with(&modules, &opts(&db1), &mut cache)
            .unwrap();
        assert_eq!(hits, 0);
        assert_eq!(cache.stats().profile_slices, 3);
        assert_eq!(cache.stats().profile_stale_slices, 0);
        cold_cc.build_cached(&opts(&db1), &mut cache).unwrap();

        // Warm build under the retrained database: only the perturbed
        // module re-keys; the other slices are retained hits.
        let mut warm_cache = BuildCache::open_on(Arc::clone(&storage), &tel).unwrap();
        let mut warm_cc = Compiler::new();
        let hits = warm_cc
            .add_sources_cached_with(&modules, &opts(&db2), &mut warm_cache)
            .unwrap();
        assert_eq!(hits, 2, "util and app slices survive the retrain");
        assert_eq!(warm_cache.stats().profile_retained_hits, 2);
        assert_eq!(warm_cache.stats().module_misses, 1);
        let warm = warm_cc.build_cached(&opts(&db2), &mut warm_cache).unwrap();
        assert!(
            warm.report.replayed.is_none(),
            "moved slice must re-key the build tier"
        );

        // Byte-identity bar: the retained-warm image equals a fresh
        // cold build of the same inputs under the same database.
        let fresh = cc.build(&opts(&db2)).unwrap();
        assert_eq!(warm.image.code, fresh.image.code);

        // Same retrain replayed at -j4: same hits, same bytes.
        let mut j4_cache = BuildCache::open_on(Arc::clone(&storage), &tel).unwrap();
        let mut j4_cc = Compiler::new();
        let hits = j4_cc
            .add_sources_cached_with(&modules, &opts(&db2).with_jobs(4), &mut j4_cache)
            .unwrap();
        assert_eq!(hits, 3, "second retrain build is fully warm");
        let j4 = j4_cc
            .build_cached(&opts(&db2).with_jobs(4), &mut j4_cache)
            .unwrap();
        assert!(j4.report.replayed.is_some(), "build tier replays");
        assert_eq!(j4.image.code, fresh.image.code);
    }

    #[test]
    fn hard_memory_limit_fails_unselective_cmo() {
        let cc = two_module_compiler();
        let tiny = NaimConfig::disabled().hard_limit(2_000);
        let result = cc.build(&BuildOptions::new(OptLevel::O4).with_naim(tiny));
        assert!(matches!(result, Err(BuildError::Naim(_))));
    }
}
