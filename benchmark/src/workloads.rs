//! The five workloads: what each sets up, what its timed operation
//! is, and how an operation's output is checked. README.md records why
//! each was chosen.

use crate::calibrate::reference_seconds;
use crate::expected::{self, Expected};
use crate::inputs::{self, Inputs};
use crate::trace::{SpanId, Tracer};
use cmo::{
    BuildCache, BuildOptions, BuildOutput, Compiler, NaimConfig, NaimLevel, OptLevel, Telemetry,
};
use std::error::Error;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Selectivity (percent of call sites) of the paper's production flow.
pub const SELECTIVITY: f64 = 20.0;
/// `naim_tight` gives the loader a twelfth of the NAIM-off peak.
const NAIM_BUDGET_DIVISOR: usize = 12;

/// One of the five named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full `+O4 +P` build, selectivity 20 %, one worker.
    ColdFullJ1,
    /// The same build at `min(nproc, 4)` workers.
    ColdFullJN,
    /// Every module CMO under a tight NAIM budget.
    NaimTight,
    /// One-module edit against a cold-built disk cache.
    IncrEdit,
    /// Nothing changed: whole-build replay from the same cache.
    WarmReplay,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::ColdFullJ1,
        Workload::ColdFullJN,
        Workload::NaimTight,
        Workload::IncrEdit,
        Workload::WarmReplay,
    ];

    /// The name later issues cite.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdFullJ1 => "cold_full.j1",
            Workload::ColdFullJN => "cold_full.jN",
            Workload::NaimTight => "naim_tight",
            Workload::IncrEdit => "incr_edit",
            Workload::WarmReplay => "warm_replay",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the timed operation goes through the disk cache.
    #[must_use]
    pub fn cached(self) -> bool {
        matches!(self, Workload::IncrEdit | Workload::WarmReplay)
    }

    /// Worker threads of the timed operation: never more than `nproc`.
    #[must_use]
    pub fn jobs(self) -> usize {
        match self {
            Workload::ColdFullJN => cmo::default_jobs().min(4),
            _ => 1,
        }
    }
}

/// Everything set-up hands to the timed operations.
#[derive(Debug)]
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// The generated inputs.
    pub inputs: Inputs,
    /// Options of the timed operation.
    pub options: BuildOptions,
    /// Bytes of the reference image: the uncached, `jobs = 1` (and for
    /// `naim_tight`, NAIM-off) build of the same sources, itself
    /// checked against the frozen reference outputs.
    pub reference_image: Vec<u8>,
    /// Whether the reference build computed the frozen outputs.
    pub reference_ok: bool,
    /// The frozen reference outputs.
    pub expected: Expected,
    /// Cold-built cache no operation writes to (cache workloads).
    pub pristine: PathBuf,
    /// The cache the timed operation opens (cache workloads).
    pub work: PathBuf,
}

/// Replaces `dst` with a copy of the flat directory `src`.
fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    if dst.exists() {
        fs::remove_dir_all(dst)?;
    }
    fs::create_dir_all(dst)?;
    for entry in fs::read_dir(src)? {
        let entry = entry?;
        fs::copy(entry.path(), dst.join(entry.file_name()))?;
    }
    Ok(())
}

/// One set-up, for the `order`-th link order of `seed`: generation, front end, instrumented build, training
/// run, reference build and its check, and for the cache workloads the
/// cold cached build. Each step is a span under `root`.
///
/// # Errors
///
/// Fails when a build or run fails or the scratch directory cannot be
/// written.
pub fn prepare(
    workload: Workload,
    seed: u64,
    order: u64,
    smoke: bool,
    scratch: &Path,
    tracer: &Tracer,
    root: SpanId,
) -> Result<Prepared, Box<dyn Error>> {
    let scale = if smoke {
        inputs::SMOKE_SCALE
    } else {
        inputs::FULL_SCALE
    };
    let inputs = tracer.scope("synth.generate", root, |_| inputs::make(seed, order, scale));
    let mut cc = Compiler::new();
    tracer.scope("frontend.compile", root, |_| {
        cc.add_sources(&inputs.modules, 1)
    })?;
    let train = tracer.scope("setup.train_build", root, |_| {
        cc.build(&BuildOptions::instrumented())
    })?;
    let db = tracer.scope("vm.train_run", root, |_| {
        train.run_for_profile(&inputs.train_input)
    })?;

    // The reference is the uncached `jobs = 1` build of the same
    // sources, with NAIM off where the workload turns it on.
    let profiled = BuildOptions::new(OptLevel::O4).with_profile_db(db);
    let selective = profiled.clone().with_selectivity(SELECTIVITY);
    let reference_options = match workload {
        Workload::NaimTight => profiled.clone().with_naim(NaimConfig::disabled()),
        _ => selective.clone(),
    };
    let reference = tracer.scope("setup.reference_build", root, |_| {
        cc.build(&reference_options)
    })?;
    let options = match workload {
        Workload::NaimTight => {
            let off_peak = reference.compile_report().peak_bytes();
            profiled.with_naim(
                NaimConfig::with_budget(off_peak / NAIM_BUDGET_DIVISOR)
                    .max_level(NaimLevel::Offload),
            )
        }
        _ => selective.with_jobs(workload.jobs()),
    };
    let run = tracer.scope("vm.run", root, |_| reference.run(&inputs.ref_input))?;
    let expected = expected::frozen(smoke);
    let mut reference_ok = inputs.total_lines == expected.lines
        && run.checksum == expected.checksum
        && run.returned == expected.returned;
    let reference_image = reference.image.to_bytes();

    let pristine = scratch.join("pristine");
    let work = scratch.join("work");
    if workload.cached() {
        let cold = tracer.scope("setup.cold_cached_build", root, |_| {
            if pristine.exists() {
                fs::remove_dir_all(&pristine)?;
            }
            cached_build(&pristine, &inputs.modules, &options, None)
        })?;
        reference_ok &= cold.image.to_bytes() == reference_image;
    }
    Ok(Prepared {
        workload,
        inputs,
        options,
        reference_image,
        reference_ok,
        expected,
        pristine,
        work,
    })
}

/// Runs `f`, inside a span under the given root when there is one.
fn step<R>(trace: Option<(&Tracer, SpanId)>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match trace {
        Some((tracer, root)) => tracer.scope(name, root, |_| f()),
        None => f(),
    }
}

/// `BuildCache::open` + `add_sources_cached_with` + `build_cached` on
/// the cache in `dir`, each inside a span when `trace` is given.
fn cached_build(
    dir: &Path,
    modules: &[(String, String)],
    options: &BuildOptions,
    trace: Option<(&Tracer, SpanId)>,
) -> Result<BuildOutput, Box<dyn Error>> {
    let mut cache = step(trace, "cache.open", || BuildCache::open(dir))?;
    let mut cc = Compiler::new();
    step(trace, "cache.frontend_cached", || {
        cc.add_sources_cached_with(modules, options, &mut cache)
    })?;
    let out = step(trace, "cache.build_cached", || {
        cc.build_cached(options, &mut cache)
    })?;
    Ok(out)
}

/// One timed operation's wall time and output.
#[derive(Debug)]
pub struct Operation {
    /// Wall time of the timed part, in seconds.
    pub seconds: f64,
    /// Mean wall time of the reference computation run immediately
    /// before and after the timed part.
    pub reference_seconds: f64,
    /// What the build produced.
    pub output: BuildOutput,
}

impl Prepared {
    /// The sources the `iteration`-th operation compiles.
    #[must_use]
    pub fn sources(&self, iteration: u64) -> Vec<(String, String)> {
        match self.workload {
            Workload::IncrEdit => self.inputs.edited(iteration),
            _ => self.inputs.modules.clone(),
        }
    }

    /// Runs the workload's timed operation through the driver's own
    /// entry points. Untimed: producing the sources and, for the cache
    /// workloads, restoring the pristine cache. `telemetry` is
    /// `Telemetry::disabled()` for every end-to-end sample; `trace`
    /// adds the three cache spans on the traced pass.
    ///
    /// # Errors
    ///
    /// Fails when the build fails.
    pub fn operate(
        &self,
        iteration: u64,
        telemetry: Telemetry,
        trace: Option<(&Tracer, SpanId)>,
    ) -> Result<Operation, Box<dyn Error>> {
        let sources = self.sources(iteration);
        let options = self.options.clone().with_telemetry(telemetry);
        if self.workload.cached() {
            // Every operation meets the cache exactly as the cold build
            // left it: even a replay appends to the repository.
            step(trace, "cache.restore", || {
                copy_dir(&self.pristine, &self.work)
            })?;
        }
        let before = reference_seconds();
        let start = Instant::now();
        let output = if self.workload.cached() {
            cached_build(&self.work, &sources, &options, trace)?
        } else {
            let mut cc = Compiler::new();
            cc.add_sources(&sources, options.jobs)?;
            cc.build(&options)?
        };
        let seconds = start.elapsed().as_secs_f64();
        Ok(Operation {
            seconds,
            reference_seconds: (before + reference_seconds()) / 2.0,
            output,
        })
    }

    /// Why `output` is wrong, or `None` if it is right. `incr_edit`
    /// links a different image on every edit, so it is run and its
    /// outputs compared with the frozen reference; everywhere else the
    /// image must equal the reference image byte for byte. The harness
    /// also refuses a workload that no longer does what it is named
    /// for.
    #[must_use]
    pub fn fault(&self, output: &BuildOutput) -> Option<String> {
        if !self.reference_ok {
            return Some("the reference build does not compute the frozen outputs".to_owned());
        }
        let replayed = output.report.replayed.is_some();
        match self.workload {
            Workload::IncrEdit => {
                if replayed {
                    return Some("an edited program replayed a stored build".to_owned());
                }
                match output.run(&self.inputs.ref_input) {
                    Err(e) => return Some(format!("the image faults: {e}")),
                    Ok(run)
                        if run.checksum != self.expected.checksum
                            || run.returned != self.expected.returned =>
                    {
                        return Some("the image computes different outputs".to_owned())
                    }
                    Ok(_) => {}
                }
            }
            _ => {
                if output.image.to_bytes() != self.reference_image {
                    return Some("the image differs from the reference image".to_owned());
                }
            }
        }
        match self.workload {
            Workload::WarmReplay if !replayed => {
                Some("an unchanged program did not replay".to_owned())
            }
            Workload::NaimTight if output.report.loader.offload_writes == 0 => {
                Some("the NAIM budget no longer forces offloading".to_owned())
            }
            _ => None,
        }
    }
}
