//! One benchmark run: set up several times, warm up, measure one
//! workload for the requested time, check every output, and render the
//! result line. With tracing off the metrics are the end-to-end ones;
//! the traced pass reports the per-layer ones and writes the spans.

use crate::staged::{self, Staged, SERIAL_STAGES};
use crate::stats::{median, tail_percentile};
use crate::trace::{spans_json, SpanId, Tracer};
use crate::workloads::{prepare, Prepared, Workload};
use cmo::{BuildCache, BuildOptions, BuildOutput, CacheStats, NaimConfig, Telemetry};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("build_rel", "ratio"),
    ("peak_bytes", "bytes"),
    ("run_cycles", "cycles"),
    ("image_instrs", "instrs"),
    ("setup_s", "s"),
];

/// Per-layer metrics and their units, as `BENCHMARK.json` lists them.
/// A layer the workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("op.wall_s", "s"),
    ("frontend.compile_s", "s"),
    ("frontend.lines_per_s", "1/s"),
    ("ir.link_s", "s"),
    ("select.coarse_s", "s"),
    ("select.cmo_modules", "count"),
    ("hlo.read_in_s", "s"),
    ("hlo.ipa_s", "s"),
    ("hlo.partition_s", "s"),
    ("hlo.inline_s", "s"),
    ("hlo.merge_s", "s"),
    ("hlo.callgraph_s", "s"),
    ("hlo.write_out_s", "s"),
    ("hlo.inlines", "count"),
    ("hlo.clones", "count"),
    ("hlo.clusters", "count"),
    ("hlo.largest_cluster", "count"),
    ("hlo.il_size_after", "instrs"),
    ("naim.compactions", "count"),
    ("naim.uncompactions", "count"),
    ("naim.offload_writes", "count"),
    ("naim.fetch_work_units", "count"),
    ("naim.work_units", "count"),
    ("naim.overhead_s", "s"),
    ("naim.useful_ratio", "ratio"),
    ("llo.lower_s", "s"),
    ("llo.il_after_opt", "instrs"),
    ("link.assemble_s", "s"),
    ("cache.open_s", "s"),
    ("cache.frontend_cached_s", "s"),
    ("cache.build_cached_s", "s"),
    ("cache.module_hits", "count"),
    ("cache.module_misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.repo_bytes_appended", "bytes"),
    ("cache.records", "count"),
    ("parallel.speedup.frontend", "ratio"),
    ("parallel.speedup.hlo_inline", "ratio"),
    ("parallel.speedup.llo", "ratio"),
    ("parallel.serial_share", "ratio"),
    ("vm.run_s", "s"),
    ("vm.train_run_s", "s"),
    ("telemetry.overhead_share", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Staged stage beside the driver phase it mirrors, for the
/// cross-check. The driver's `hlo.inline` phase spans the cluster
/// fan-out and the merge.
const CROSSCHECK: [(&str, &[&str]); 10] = [
    ("link", &["ir.link"]),
    ("hlo.select", &["select.coarse"]),
    ("hlo.read_in", &["hlo.read_in"]),
    ("hlo.ipa", &["hlo.ipa"]),
    ("hlo.partition", &["hlo.partition"]),
    ("hlo.inline", &["hlo.inline", "hlo.merge"]),
    ("hlo.callgraph", &["hlo.callgraph"]),
    ("hlo.write_out", &["hlo.write_out"]),
    ("llo", &["llo.lower"]),
    ("link_image", &["link.assemble"]),
];

/// Discarded operations before the first sample.
const WARM_UPS: u64 = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: u32 = 5;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload to measure.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long to measure, in seconds.
    pub seconds: f64,
    /// Run the traced per-layer pass instead of the end-to-end one.
    pub trace: bool,
    /// Eighth-scale program, one set-up, two operations, no warm-up.
    pub smoke: bool,
    /// Where scratch files and `trace.<workload>.json` go.
    pub out_dir: PathBuf,
}

/// A metric value: times and ratios as measured, counts exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A measured quantity.
    Float(f64),
    /// An exact count.
    Count(u64),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Float(v) => write!(f, "{v}"),
            Value::Count(v) => write!(f, "{v}"),
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// No operation failed.
    pub correct: bool,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that errored, computed wrong outputs or broke a
    /// promised byte-identity.
    pub failed: u64,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, Value, &'static str)>,
}

/// `"name": {"value": v, "unit": "u"}` for each metric, joined by `sep`.
fn metrics_json(metrics: &[(&'static str, Value, &'static str)], sep: &str) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    entries.join(sep)
}

impl Outcome {
    /// The one-line JSON object the driver reads.
    #[must_use]
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics, ", ")
        )
    }
}

/// The accounted optimizer peak: HLO heap plus the largest LLO
/// working set.
fn peak_bytes(output: &BuildOutput) -> u64 {
    let report = output.compile_report();
    (report.peak_bytes() + report.llo_peak_bytes) as u64
}

/// Whether the measured window is still open.
fn keep_going(config: &Config, done: u64, start: Instant) -> bool {
    if config.smoke {
        done < 2
    } else {
        start.elapsed().as_secs_f64() < config.seconds
    }
}

/// Runs `config` and returns its outcome.
///
/// # Errors
///
/// Fails when set-up fails or no operation at all succeeds; nothing is
/// reported then.
pub fn run(config: &Config) -> Result<Outcome, Box<dyn Error>> {
    let scratch = config.out_dir.join(format!(
        "scratch-{}-{}",
        config.workload.name(),
        std::process::id()
    ));
    fs::create_dir_all(&scratch)?;
    let result = run_in(config, &scratch);
    fs::remove_dir_all(&scratch)?;
    result
}

fn run_in(config: &Config, scratch: &Path) -> Result<Outcome, Box<dyn Error>> {
    let tracer = Tracer::new();
    // Each set-up draws its own link order from the seed and all of
    // them are kept: operations rotate over them, so one run averages
    // over several orders (README.md, "Why five link orders a run").
    let mut setup_roots = Vec::new();
    let mut orders = Vec::new();
    for order in 0..if config.smoke { 1 } else { SETUPS } {
        let root = tracer.begin_root("setup", order);
        orders.push(prepare(
            config.workload,
            config.seed,
            u64::from(order),
            config.smoke,
            &scratch.join(order.to_string()),
            &tracer,
            root,
        )?);
        tracer.end(root);
        setup_roots.push(root);
    }
    let setup_s: Vec<f64> = setup_roots.iter().map(|&r| tracer.seconds(r)).collect();
    eprintln!(
        "{}: seed {}, {} lines in {} modules, jobs {} of nproc {}, setup_s median {:.4} of {}",
        config.workload.name(),
        config.seed,
        orders[0].inputs.total_lines,
        orders[0].inputs.modules.len(),
        orders[0].options.jobs,
        cmo::default_jobs(),
        median(&setup_s),
        setup_s.len(),
    );
    if !config.smoke {
        for i in 0..WARM_UPS {
            orders[0].operate(i, Telemetry::disabled(), None)?;
        }
    }
    if config.trace {
        traced_pass(config, &orders, &tracer, &setup_roots)
    } else {
        end_to_end_pass(config, &orders, median(&setup_s))
    }
}

/// Mean over the link orders of an exact count.
fn mean(counts: &[u64]) -> f64 {
    counts.iter().sum::<u64>() as f64 / counts.len() as f64
}

fn end_to_end_pass(
    config: &Config,
    orders: &[Prepared],
    setup_s: f64,
) -> Result<Outcome, Box<dyn Error>> {
    let mut samples = Vec::new();
    let mut relative = Vec::new();
    let mut first: Vec<Option<BuildOutput>> = orders.iter().map(|_| None).collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while keep_going(config, attempted, start) {
        let iteration = WARM_UPS + attempted;
        let order = (attempted % orders.len() as u64) as usize;
        let prepared = &orders[order];
        attempted += 1;
        let fault = match prepared.operate(iteration, Telemetry::disabled(), None) {
            Err(e) => Some(e.to_string()),
            Ok(op) => {
                let fault = prepared.fault(&op.output).or_else(|| {
                    // The compiler behaves identically run to run: the
                    // same sources account the same peak.
                    let moved = config.workload != Workload::IncrEdit
                        && first[order]
                            .as_ref()
                            .is_some_and(|f| peak_bytes(f) != peak_bytes(&op.output));
                    moved.then(|| "peak memory differs between identical builds".to_owned())
                });
                if fault.is_none() {
                    samples.push(op.seconds);
                    relative.push(op.seconds / op.reference_seconds);
                    first[order].get_or_insert(op.output);
                }
                fault
            }
        };
        if let Some(why) = fault {
            failed += 1;
            eprintln!("operation {iteration} failed: {why}");
        }
    }
    // Counts are exact per link order; the run reports their mean.
    let built: Vec<&BuildOutput> = first.iter().flatten().collect();
    if built.is_empty() {
        return Err("no operation succeeded".into());
    }
    let mut cycles = Vec::new();
    for output in &built {
        cycles.push(output.run(&orders[0].inputs.ref_input)?.cycles);
    }
    let peaks: Vec<u64> = built.iter().map(|o| peak_bytes(o)).collect();
    let instrs: Vec<u64> = built.iter().map(|o| o.image.code_size() as u64).collect();
    let wall_s = median(&samples);
    let tail = tail_percentile(&samples).map_or(String::new(), |(p, v)| format!(", p{p} {v:.4} s"));
    eprintln!(
        "wall time median {wall_s:.4} s{tail}, n={}; {:.0} lines/s; VmHWM {} kB",
        samples.len(),
        orders[0].inputs.total_lines as f64 / wall_s,
        vm_hwm_kb().map_or("?".to_owned(), |kb| kb.to_string()),
    );
    let values = [
        median(&relative),
        mean(&peaks),
        mean(&cycles),
        mean(&instrs),
        setup_s,
    ];
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, Value::Float(value), unit))
            .collect(),
    })
}

/// Peak resident set of this process, informational.
fn vm_hwm_kb() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Per-stage samples of one kind of traced operation.
#[derive(Debug, Default)]
struct StageSamples(BTreeMap<&'static str, Vec<f64>>);

impl StageSamples {
    fn add(&mut self, tracer: &Tracer, root: SpanId) {
        for (name, seconds) in tracer.child_seconds(root) {
            self.0.entry(name).or_default().push(seconds);
        }
    }

    fn median(&self, stage: &str) -> f64 {
        self.0.get(stage).map_or(0.0, |s| median(s))
    }

    fn sum(&self, keep: impl Fn(&str) -> bool) -> f64 {
        self.0
            .iter()
            .filter(|(name, _)| keep(name))
            .map(|(_, s)| median(s))
            .sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Counts read off the first traced cache operation.
#[derive(Debug)]
struct CacheCounts {
    stats: CacheStats,
    /// Bytes the operation appended to `repo.naim`.
    appended: u64,
    /// Records in the cache after the operation.
    records: u64,
}

/// Everything the traced iterations collect.
#[derive(Debug, Default)]
struct Traced {
    /// Wall time of the untraced operation.
    plain_s: Vec<f64>,
    /// Wall time of the traced operation.
    traced_s: Vec<f64>,
    /// Stages of the staged mirror at the workload's options.
    stages: StageSamples,
    /// The cache calls of the traced cache operation.
    cache_stages: StageSamples,
    /// Stages of the staged mirror with NAIM off (`naim_tight`) or at
    /// `jobs = 1` (`cold_full.jN`).
    variant: StageSamples,
    /// The driver's own phase timers, by phase name.
    driver_phases: BTreeMap<String, Vec<f64>>,
    first_staged: Option<Staged>,
    first_cached: Option<CacheCounts>,
}

impl Traced {
    /// One traced iteration; returns why it failed, if it did.
    fn iterate(
        &mut self,
        prepared: &Prepared,
        iteration: u64,
        tracer: &Tracer,
    ) -> Result<Option<String>, Box<dyn Error>> {
        let workload = prepared.workload;
        let op = iteration as u32;
        // Tracing off: what `telemetry.overhead_share` divides by.
        let plain = prepared.operate(iteration, Telemetry::disabled(), None)?;
        self.plain_s.push(plain.seconds);
        if let Some(why) = prepared.fault(&plain.output) {
            return Ok(Some(why));
        }
        let plain_image = plain.output.image.to_bytes();
        let sources = prepared.sources(iteration);
        let staged = |name, options: &BuildOptions| {
            let root = tracer.begin_root(name, op);
            let built = staged::build(&sources, options, tracer, root);
            tracer.end(root);
            built.map(|built| (root, built))
        };

        if workload.cached() {
            let root = tracer.begin_root("cache_op", op);
            let traced = prepared.operate(iteration, Telemetry::disabled(), Some((tracer, root)));
            tracer.end(root);
            let traced = traced?;
            self.traced_s.push(traced.seconds);
            self.cache_stages.add(tracer, root);
            if traced.output.image.to_bytes() != plain_image {
                return Ok(Some("two identical cached builds differ".to_owned()));
            }
            if self.first_cached.is_none() {
                let repo_len = |dir: &Path| fs::metadata(dir.join("repo.naim")).map(|m| m.len());
                self.first_cached = Some(CacheCounts {
                    stats: traced.output.report.cache,
                    appended: repo_len(&prepared.work)?
                        .saturating_sub(repo_len(&prepared.pristine)?),
                    records: BuildCache::open(&prepared.work)?.record_count() as u64,
                });
            }
        }
        if workload != Workload::WarmReplay {
            // The staged mirror; on `incr_edit` it rebuilds, outside the
            // cache, what `build_cached` just built inside it.
            let (root, built) = staged("staged", &prepared.options)?;
            if !workload.cached() {
                self.traced_s.push(tracer.seconds(root));
            }
            self.stages.add(tracer, root);
            if built.image.to_bytes() != plain_image {
                return Ok(Some(
                    "the staged image differs from the driver's".to_owned(),
                ));
            }
            self.first_staged.get_or_insert(built);
        }
        if !workload.cached() {
            // The driver's own phase timers, for the cross-check.
            let telemetry = Telemetry::enabled();
            prepared.operate(iteration, telemetry.clone(), None)?;
            for phase in telemetry.phases() {
                self.driver_phases
                    .entry(phase.name)
                    .or_default()
                    .push(phase.wall_nanos as f64 / 1e9);
            }
        }
        let variant = match workload {
            Workload::NaimTight => Some((
                "staged.naim_off",
                prepared.options.clone().with_naim(NaimConfig::disabled()),
            )),
            Workload::ColdFullJN => Some(("staged.j1", prepared.options.clone().with_jobs(1))),
            _ => None,
        };
        if let Some((name, options)) = variant {
            let (root, _) = staged(name, &options)?;
            self.variant.add(tracer, root);
        }
        Ok(None)
    }

    /// Share of the untraced operation's wall time the spans account for.
    fn coverage(&self, workload: Workload) -> f64 {
        let spans = if workload.cached() {
            self.cache_stages.sum(|n| n != "cache.restore")
        } else {
            self.stages.sum(|_| true)
        };
        ratio(spans, median(&self.plain_s))
    }

    /// The per-layer metric values, in [`PER_LAYER`] order.
    fn values(&self, workload: Workload, lines: f64, setup: &StageSamples) -> [Value; 44] {
        let (stages, variant, cache_stages) = (&self.stages, &self.variant, &self.cache_stages);
        let f = Value::Float;
        let stage = |name| f(stages.median(name));
        let staged = self.first_staged.as_ref();
        let count = |get: &dyn Fn(&Staged) -> u64| Value::Count(staged.map_or(0, get));
        let loader = staged.map(|s| s.loader).unwrap_or_default();
        let cached = self.first_cached.as_ref();
        let hits = cached.map_or(0, |c| c.stats.module_hits);
        let misses = cached.map_or(0, |c| c.stats.module_misses);
        let is_hlo = |name: &str| name.starts_with("hlo.");
        let speedup = |name| match workload {
            Workload::ColdFullJN => f(ratio(variant.median(name), stages.median(name))),
            _ => f(0.0),
        };
        let (serial_share, naim_overhead) = match workload {
            Workload::ColdFullJN => (
                ratio(
                    variant.sum(|n| SERIAL_STAGES.contains(&n)),
                    variant.sum(|_| true),
                ),
                0.0,
            ),
            Workload::NaimTight => (0.0, stages.sum(is_hlo) - variant.sum(is_hlo)),
            _ => (0.0, 0.0),
        };
        let frontend_s = stages.median("frontend.compile");
        [
            f(median(&self.plain_s)),
            f(frontend_s),
            f(ratio(lines, frontend_s)),
            stage("ir.link"),
            stage("select.coarse"),
            count(&|s| s.cmo_modules as u64),
            stage("hlo.read_in"),
            stage("hlo.ipa"),
            stage("hlo.partition"),
            stage("hlo.inline"),
            stage("hlo.merge"),
            stage("hlo.callgraph"),
            stage("hlo.write_out"),
            count(&|s| s.hlo.inlines),
            count(&|s| s.hlo.clones),
            count(&|s| s.clusters.clusters),
            count(&|s| s.clusters.largest),
            count(&|s| s.il_size_after),
            Value::Count(loader.compactions),
            Value::Count(loader.uncompactions),
            Value::Count(loader.offload_writes),
            Value::Count(loader.fetch_work_units),
            Value::Count(loader.work_units),
            f(naim_overhead),
            f(ratio(
                loader.uncompactions as f64,
                loader.compactions as f64,
            )),
            stage("llo.lower"),
            count(&|s| s.il_after_opt),
            stage("link.assemble"),
            f(cache_stages.median("cache.open")),
            f(cache_stages.median("cache.frontend_cached")),
            f(cache_stages.median("cache.build_cached")),
            Value::Count(hits),
            Value::Count(misses),
            f(ratio(hits as f64, (hits + misses) as f64)),
            Value::Count(cached.map_or(0, |c| c.appended)),
            Value::Count(cached.map_or(0, |c| c.records)),
            speedup("frontend.compile"),
            speedup("hlo.inline"),
            speedup("llo.lower"),
            f(serial_share),
            f(setup.median("vm.run")),
            f(setup.median("vm.train_run")),
            f(ratio(median(&self.traced_s), median(&self.plain_s)) - 1.0),
            f(self.coverage(workload)),
        ]
    }

    /// Prints each staged span beside the driver's own phase timer and
    /// returns the same rows as the `"crosscheck"` array of the trace.
    fn crosscheck(&self) -> String {
        let mut rows = String::new();
        if self.driver_phases.is_empty() {
            return rows;
        }
        eprintln!(
            "{:<16} {:>12} {:>12} {:>8}",
            "phase", "staged_s", "driver_s", "diff"
        );
        for (phase, mirrors) in CROSSCHECK {
            let staged_s: f64 = mirrors.iter().map(|m| self.stages.median(m)).sum();
            let driver_s = self.driver_phases.get(phase).map_or(0.0, |s| median(s));
            let diff = if staged_s == driver_s {
                0.0 // a phase the workload bypasses is 0 on both sides
            } else {
                ratio(staged_s, driver_s) - 1.0
            };
            let agree = diff.abs() <= 0.15;
            let flag = if agree {
                ""
            } else {
                "  (off by more than 15%)"
            };
            eprintln!(
                "{phase:<16} {staged_s:>12.6} {driver_s:>12.6} {:>+7.1}%{flag}",
                diff * 100.0
            );
            let sep = if rows.is_empty() { "" } else { "," };
            let _ = write!(
                rows,
                "{sep}\n    {{\"phase\": \"{phase}\", \"staged_s\": {staged_s}, \
                 \"driver_s\": {driver_s}, \"agree\": {agree}}}"
            );
        }
        rows
    }
}

fn traced_pass(
    config: &Config,
    orders: &[Prepared],
    tracer: &Tracer,
    setup_roots: &[SpanId],
) -> Result<Outcome, Box<dyn Error>> {
    let workload = config.workload;
    let mut traced = Traced::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while keep_going(config, attempted, start) {
        let iteration = WARM_UPS + attempted;
        let prepared = &orders[(attempted % orders.len() as u64) as usize];
        attempted += 1;
        let fault = traced
            .iterate(prepared, iteration, tracer)
            .unwrap_or_else(|e| Some(e.to_string()));
        if let Some(why) = fault {
            failed += 1;
            eprintln!("operation {iteration} failed: {why}");
        }
    }
    if attempted == failed {
        return Err("no operation succeeded".into());
    }

    let mut setup = StageSamples::default();
    for &root in setup_roots {
        setup.add(tracer, root);
    }
    let values = traced.values(workload, orders[0].inputs.total_lines as f64, &setup);
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    let crosscheck = traced.crosscheck();
    eprintln!(
        "spans cover {:.1}% of the untraced operation ({:.4} s, n={})",
        traced.coverage(workload) * 100.0,
        median(&traced.plain_s),
        traced.plain_s.len()
    );

    let doc = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"jobs\": {},\n  \"nproc\": {},\n  \
         \"metrics\": {{\n    {}\n  }},\n  \"crosscheck\": [{crosscheck}\n  ],\n  \"spans\": {}\n}}\n",
        workload.name(),
        config.seed,
        orders[0].options.jobs,
        cmo::default_jobs(),
        metrics_json(&metrics, ",\n    "),
        spans_json(&tracer.spans())
    );
    let path = config
        .out_dir
        .join(format!("trace.{}.json", workload.name()));
    fs::write(path, doc)?;

    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}
