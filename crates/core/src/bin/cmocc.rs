//! `cmocc` — the command-line face of the framework, styled after the
//! HP-UX compiler driver the paper describes (§3, §6.1).
//!
//! ```text
//! usage: cmocc [options] <file.mlc | file.cmo>...
//!
//!   -c                 compile sources to IL objects (.cmo) and stop
//!   +O1 | +O2 | +O4    optimization level           (default +O2)
//!   +P <profile.db>    use profile data (PBO)
//!   +I                 instrument for profiling
//!   --sel <percent>    call-site selectivity at +O4
//!   --budget <MiB>     NAIM optimizer memory budget
//!   -j, --jobs <N>     worker threads for the front-end, HLO cluster
//!                      and LLO fan-outs, --isolate's search builds
//!                      included (output is byte-identical at every N)
//!   --run <v1,v2,...>  execute main with the given input stream
//!   --profile-out <f>  after --run of an instrumented build, write
//!                      the profile database to <f>
//!   --emit-asm         print a disassembly of the linked image
//!   --report           print the build report
//!   --report-json <f>  write the unified cmo.report.v1 JSON report
//!   --trace <f>        write the cmo.trace.v1 event trace (JSONL)
//!   --cache-dir <dir>  persistent incremental cache: unchanged
//!                      modules skip the front end, an unchanged build
//!                      replays the linked image and report
//!   --gc-cache         mark-and-sweep compaction of the cache
//!                      repository: live records are copied into a
//!                      fresh generation and the old one is atomically
//!                      swapped out (requires --cache-dir; with no
//!                      input files, runs the compaction and exits)
//!   --gc-threshold-bytes <N>
//!                      auto-compact before a cached build whenever
//!                      the repository carries more than N dead bytes
//!                      (requires --cache-dir)
//!   --remote-cache <addr>
//!                      two-tier cache: local misses read through a
//!                      cmocached daemon at <addr> (host:port) and
//!                      committed records write through to it; a
//!                      remote outage demotes the build to local-only
//!                      and never fails it (requires --cache-dir)
//!   --remote-timeout-ms <N>
//!                      per-operation remote socket timeout in
//!                      milliseconds (default 1000; requires
//!                      --remote-cache)
//!   --remote-retries <N>
//!                      extra attempts per failed remote operation,
//!                      backed off on a deterministic seeded schedule
//!                      (default 2; requires --remote-cache)
//!   --keep-going       degraded mode: a failing module becomes a
//!                      diagnostic, the remaining modules still build
//!                      (and cache); the image links only if all
//!                      modules succeed
//!   --isolate          binary-search the first inline operation that
//!                      changes behaviour on the --run input (§6.3);
//!                      requires --run and +O4
//! ```
//!
//! Sources compile to IL objects; objects feed the optimizing link.
//! Mixing `.mlc` and pre-compiled `.cmo` files on one command line is
//! the `make` flow of §6.1.
//!
//! # Exit codes
//!
//! | code | meaning |
//! |---|---|
//! | 0 | success |
//! | 1 | compile/run diagnostics (including `--keep-going` with failures) |
//! | 2 | usage or flag errors |
//! | 3 | success, but storage corruption was recovered and rebuilt |
//! | 101 | internal bug (uncontained panic) |

use cmo::{
    BuildCache, BuildError, BuildOptions, CompileReport, DiskStorage, FaultStats, ModuleInput,
    NaimConfig, OptLevel, ProfileDb, RemoteStorage, RetryPolicy, Storage, TcpTransport, Telemetry,
    TieredStorage, TraceEvent,
};
use cmo_ir::IlObject;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

struct Cli {
    inputs: Vec<PathBuf>,
    compile_only: bool,
    level: OptLevel,
    profile: Option<PathBuf>,
    instrument: bool,
    selectivity: Option<f64>,
    budget_bytes: Option<usize>,
    jobs: usize,
    run: Option<Vec<i64>>,
    profile_out: Option<PathBuf>,
    emit_asm: bool,
    report: bool,
    report_json: Option<PathBuf>,
    trace: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
    gc_cache: bool,
    gc_threshold_bytes: Option<u64>,
    remote_cache: Option<String>,
    remote_timeout_ms: Option<u64>,
    remote_retries: Option<u32>,
    keep_going: bool,
    isolate: bool,
}

/// A diagnosed failure carrying its exit code: 1 for compile/run
/// diagnostics, 2 for usage errors, 101 reserved for internal bugs
/// (reached by letting the panic escape, never constructed here).
struct Failure {
    code: u8,
    msg: String,
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure { code: 1, msg }
    }
}

fn usage() -> String {
    "usage: cmocc [-c] [+O1|+O2|+O4] [+P <db>] [+I] [--sel <pct>] [--budget <MiB>] \
     [-j <N>] [--run <v1,v2,..>] [--profile-out <f>] [--emit-asm] [--report] \
     [--report-json <f>] [--trace <f>] [--cache-dir <dir>] [--gc-cache] \
     [--gc-threshold-bytes <N>] [--remote-cache <addr>] [--remote-timeout-ms <N>] \
     [--remote-retries <N>] [--keep-going] [--isolate] <files...>"
        .to_owned()
}

/// Checks the mutual-exclusion and dependency rules between flags.
/// Every violation is a diagnostic plus exit code 2 — never a panic or
/// a silently ignored option.
fn validate(cli: &Cli) -> Result<(), String> {
    if cli.compile_only {
        let conflicts: &[(&str, bool)] = &[
            ("--run", cli.run.is_some()),
            ("--profile-out", cli.profile_out.is_some()),
            ("--emit-asm", cli.emit_asm),
            ("--report", cli.report),
            ("--report-json", cli.report_json.is_some()),
            ("--trace", cli.trace.is_some()),
            ("--isolate", cli.isolate),
        ];
        for (flag, given) in conflicts {
            if *given {
                return Err(format!(
                    "{flag} conflicts with -c: compile-only builds produce no linked image"
                ));
            }
        }
    }
    if cli.gc_cache && cli.cache_dir.is_none() {
        return Err(
            "--gc-cache requires --cache-dir (it compacts that cache's repository)".to_owned(),
        );
    }
    if cli.gc_threshold_bytes.is_some() && cli.cache_dir.is_none() {
        return Err(
            "--gc-threshold-bytes requires --cache-dir (it compacts that cache's repository)"
                .to_owned(),
        );
    }
    if cli.remote_cache.is_some() && cli.cache_dir.is_none() {
        return Err(
            "--remote-cache requires --cache-dir (the remote tier populates the local cache)"
                .to_owned(),
        );
    }
    if cli.remote_timeout_ms.is_some() && cli.remote_cache.is_none() {
        return Err(
            "--remote-timeout-ms requires --remote-cache (it bounds that daemon's operations)"
                .to_owned(),
        );
    }
    if cli.remote_retries.is_some() && cli.remote_cache.is_none() {
        return Err(
            "--remote-retries requires --remote-cache (it bounds that daemon's operations)"
                .to_owned(),
        );
    }
    if cli.gc_cache && cli.inputs.is_empty() {
        let conflicts: &[(&str, bool)] = &[
            ("-c", cli.compile_only),
            ("--run", cli.run.is_some()),
            ("--emit-asm", cli.emit_asm),
            ("--report", cli.report),
            ("--report-json", cli.report_json.is_some()),
            ("--isolate", cli.isolate),
        ];
        for (flag, given) in conflicts {
            if *given {
                return Err(format!(
                    "{flag} conflicts with standalone --gc-cache: no build runs without input files"
                ));
            }
        }
    }
    if cli.profile_out.is_some() && cli.run.is_none() {
        return Err("--profile-out requires --run (profiles come from executing main)".to_owned());
    }
    if cli.isolate {
        if cli.run.is_none() {
            return Err("--isolate requires --run (isolation compares run checksums)".to_owned());
        }
        if cli.level != OptLevel::O4 {
            return Err("--isolate requires +O4 (it searches the inliner's op limit)".to_owned());
        }
        if cli.instrument {
            return Err("--isolate conflicts with +I: probes perturb the checksum".to_owned());
        }
    }
    if let Some(sel) = cli.selectivity {
        if !sel.is_finite() || !(0.0..=100.0).contains(&sel) {
            return Err(format!(
                "bad --sel value: {sel} (expected a percentage in [0, 100])"
            ));
        }
    }
    Ok(())
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        inputs: Vec::new(),
        compile_only: false,
        level: OptLevel::O2,
        profile: None,
        instrument: false,
        selectivity: None,
        budget_bytes: None,
        jobs: 1,
        run: None,
        profile_out: None,
        emit_asm: false,
        report: false,
        report_json: None,
        trace: None,
        cache_dir: None,
        gc_cache: false,
        gc_threshold_bytes: None,
        remote_cache: None,
        remote_timeout_ms: None,
        remote_retries: None,
        keep_going: false,
        isolate: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |what: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} expects {what}"))
        };
        match a.as_str() {
            "-c" => cli.compile_only = true,
            "+O1" => cli.level = OptLevel::O1,
            "+O2" => cli.level = OptLevel::O2,
            "+O4" => cli.level = OptLevel::O4,
            "+P" => cli.profile = Some(PathBuf::from(next("a profile database path")?)),
            "+I" => cli.instrument = true,
            "--sel" => {
                cli.selectivity = Some(
                    next("a percentage")?
                        .parse()
                        .map_err(|e| format!("bad --sel value: {e}"))?,
                );
            }
            "--budget" => {
                let mib: usize = next("a size in MiB")?
                    .parse()
                    .map_err(|e| format!("bad --budget value: {e}"))?;
                // A checked conversion: 2^44 MiB would overflow the
                // byte count and (pre-fix) panic in debug builds or
                // silently wrap in release builds.
                cli.budget_bytes = Some(
                    mib.checked_mul(1 << 20)
                        .ok_or_else(|| format!("bad --budget value: {mib} MiB overflows"))?,
                );
            }
            "-j" | "--jobs" => {
                let n: usize = next("a worker count")?
                    .parse()
                    .map_err(|e| format!("bad {a} value: {e}"))?;
                if n == 0 {
                    return Err(format!("bad {a} value: 0 (need at least one worker)"));
                }
                cli.jobs = n;
            }
            "--run" => {
                let spec = next("a comma-separated input list (or '-' for empty)")?;
                let vals = if spec == "-" {
                    Vec::new()
                } else {
                    spec.split(',')
                        .map(|v| v.trim().parse::<i64>())
                        .collect::<Result<_, _>>()
                        .map_err(|e| format!("bad --run value: {e}"))?
                };
                cli.run = Some(vals);
            }
            "--profile-out" => cli.profile_out = Some(PathBuf::from(next("a path")?)),
            "--emit-asm" => cli.emit_asm = true,
            "--report" => cli.report = true,
            "--report-json" => cli.report_json = Some(PathBuf::from(next("a path")?)),
            "--trace" => cli.trace = Some(PathBuf::from(next("a path")?)),
            "--cache-dir" => cli.cache_dir = Some(PathBuf::from(next("a directory")?)),
            "--gc-cache" => cli.gc_cache = true,
            "--gc-threshold-bytes" => {
                cli.gc_threshold_bytes = Some(
                    next("a size in bytes")?
                        .parse()
                        .map_err(|e| format!("bad --gc-threshold-bytes value: {e}"))?,
                );
            }
            "--remote-cache" => {
                cli.remote_cache = Some(next("a daemon address (host:port)")?);
            }
            "--remote-timeout-ms" => {
                cli.remote_timeout_ms = Some(
                    next("a timeout in milliseconds")?
                        .parse()
                        .map_err(|e| format!("bad --remote-timeout-ms value: {e}"))?,
                );
            }
            "--remote-retries" => {
                cli.remote_retries = Some(
                    next("a retry count")?
                        .parse()
                        .map_err(|e| format!("bad --remote-retries value: {e}"))?,
                );
            }
            "--keep-going" => cli.keep_going = true,
            "--isolate" => cli.isolate = true,
            "-h" | "--help" => return Err(usage()),
            jn if jn.strip_prefix("-j").is_some_and(|n| !n.is_empty()) => {
                let n: usize = jn[2..].parse().map_err(|e| format!("bad -j value: {e}"))?;
                if n == 0 {
                    return Err("bad -j value: 0 (need at least one worker)".to_owned());
                }
                cli.jobs = n;
            }
            other if other.starts_with('-') || other.starts_with('+') => {
                return Err(format!("unknown option `{other}`\n{}", usage()));
            }
            file => cli.inputs.push(PathBuf::from(file)),
        }
    }
    if cli.inputs.is_empty() && !cli.gc_cache {
        return Err(format!("no input files\n{}", usage()));
    }
    validate(&cli)?;
    Ok(cli)
}

fn module_name(path: &Path) -> String {
    path.file_stem()
        .map_or_else(|| "module".to_owned(), |s| s.to_string_lossy().into_owned())
}

/// Test hook for worker-panic containment: `CMOCC_PANIC_ON=<module>`
/// panics the worker compiling that module, exercising the
/// `--keep-going` and exit-101 paths from the outside.
fn maybe_injected_panic(module: &str) {
    if std::env::var("CMOCC_PANIC_ON").as_deref() == Ok(module) {
        panic!("injected front-end panic in `{module}`");
    }
}

/// How one module failed to load: a front-end diagnostic, or a panic
/// contained by the worker pool.
enum LoadFailure {
    Diag(String),
    Panic(String),
}

/// Folds the load results, each tagged with its input's command-line
/// position; `keep` gets a survivor's index in `results`. Without
/// `--keep-going` the first
/// diagnostic aborts (and a panic re-raises as an internal bug); with
/// it, each failure becomes a stderr diagnostic plus `degraded` /
/// `job-panic` trace events, and the survivors go on.
fn absorb_failures<T>(
    cli: &Cli,
    tel: &Telemetry,
    faults: &mut FaultStats,
    results: Vec<(usize, Result<T, LoadFailure>)>,
    mut keep: impl FnMut(usize, T),
) -> Result<(), Failure> {
    for (k, (i, result)) in results.into_iter().enumerate() {
        match result {
            Ok(value) => keep(k, value),
            Err(failure) => {
                let module = module_name(&cli.inputs[i]);
                let msg = match &failure {
                    LoadFailure::Diag(msg) => msg.clone(),
                    LoadFailure::Panic(payload) => {
                        format!("module `{module}` panicked the compiler: {payload}")
                    }
                };
                if !cli.keep_going {
                    if let LoadFailure::Panic(payload) = &failure {
                        // An uncontained compiler panic is an internal
                        // bug: re-raise so the process exits 101.
                        panic!("front-end worker panicked on `{module}`: {payload}");
                    }
                    return Err(Failure { code: 1, msg });
                }
                eprintln!("cmocc: {msg} (--keep-going: skipping `{module}`)");
                if let LoadFailure::Panic(payload) = &failure {
                    faults.job_panics += 1;
                    tel.emit(TraceEvent::JobPanic {
                        job: i as u64,
                        payload: payload.clone(),
                    });
                }
                tel.emit(TraceEvent::Degraded {
                    component: "frontend",
                    name: module,
                    error: msg,
                });
                faults.degraded.push(module_name(&cli.inputs[i]));
            }
        }
    }
    Ok(())
}

/// Reads and classifies one input file: a pre-compiled IL object, or
/// MLC source still to be compiled (or found in the cache).
fn read_one(path: &Path) -> Result<ModuleInput, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if IlObject::is_il_object(&bytes) {
        let obj = IlObject::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        return Ok(ModuleInput::Object(obj));
    }
    let source = String::from_utf8(bytes).map_err(|_| {
        format!(
            "{} is neither an IL object nor UTF-8 source",
            path.display()
        )
    })?;
    Ok(ModuleInput::Source {
        module: module_name(path),
        source,
    })
}

/// Flattens a worker pool's results into per-input load outcomes.
fn flatten<T>(
    results: Vec<Result<Result<T, String>, cmo::JobError>>,
    position: impl Fn(usize) -> usize,
) -> Vec<(usize, Result<T, LoadFailure>)> {
    results
        .into_iter()
        .enumerate()
        .map(|(k, r)| {
            let flat = match r {
                Ok(Ok(value)) => Ok(value),
                Ok(Err(msg)) => Err(LoadFailure::Diag(msg)),
                Err(e) => Err(LoadFailure::Panic(e.payload)),
            };
            (position(k), flat)
        })
        .collect()
}

/// Loads every input into a driver: inputs are read and classified
/// over the worker pool, then handed to the driver's front end
/// ([`cmo::Compiler::add_inputs`]) — the probe → defer flow the
/// library's `add_sources*` methods run, with or without a cache, with
/// this binary's compile step plugged in: sources compile over the `-j`
/// pool, and a failing one is reported or, under `--keep-going`,
/// absorbed (it then contributes no module and no fingerprint). Results
/// merge in input order, so with several bad inputs the diagnostic is
/// the first by position, independent of scheduling; an unreadable
/// input is reported before any compile diagnostic. Cache hits stay
/// undecoded in the returned driver until the link — or `-c`'s object
/// writer, which writes nothing unless the batch succeeds (or
/// `--keep-going` absorbs its failures) — needs them.
fn load_inputs(
    cli: &Cli,
    mut bcache: Option<&mut BuildCache>,
    tel: &Telemetry,
    faults: &mut FaultStats,
) -> Result<cmo::Compiler, Failure> {
    let reads = cmo::try_run_jobs(cli.inputs.len(), cli.jobs, |_, i| read_one(&cli.inputs[i]));
    // `paths[k]` is the command-line position of the k-th input that
    // survived the read stage.
    let mut paths = Vec::with_capacity(reads.len());
    let mut inputs = Vec::with_capacity(reads.len());
    absorb_failures(cli, tel, faults, flatten(reads, |i| i), |i, input| {
        paths.push(i);
        inputs.push(input);
    })?;
    let is_source: Vec<bool> = inputs
        .iter()
        .map(|input| matches!(input, ModuleInput::Source { .. }))
        .collect();
    let mut kept = vec![true; inputs.len()];
    let mut cc = cmo::Compiler::new();
    cc.add_inputs::<Failure>(inputs, bcache.as_deref_mut(), tel, &mut |inputs, which| {
        let compiled = cmo::try_run_jobs(which.len(), cli.jobs, |_, k| {
            let ModuleInput::Source { module, source } = &inputs[which[k]] else {
                unreachable!("only source inputs are compiled");
            };
            maybe_injected_panic(module);
            cmo::compile_module(module, source)
                .map_err(|e| format!("{}:{e}", cli.inputs[paths[which[k]]].display()))
        });
        let mut objects: Vec<Option<IlObject>> = which.iter().map(|_| None).collect();
        let results = flatten(compiled, |k| paths[which[k]]);
        absorb_failures(cli, tel, faults, results, |k, obj| objects[k] = Some(obj))?;
        for (k, obj) in objects.iter().enumerate() {
            kept[which[k]] &= obj.is_some();
        }
        Ok(objects)
    })?;
    if cli.compile_only {
        let survivors = (0..kept.len()).filter(|&k| kept[k]);
        let objects = cc.objects(bcache, tel).map_err(|e| e.to_string())?;
        for (k, obj) in survivors.zip(&objects) {
            if is_source[k] {
                let out = cli.inputs[paths[k]].with_extension("cmo");
                std::fs::write(&out, obj.to_bytes())
                    .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
                println!("wrote {}", out.display());
            }
        }
    }
    Ok(cc)
}

/// The exit code of a run that otherwise succeeded: 3 when the cache
/// store was found corrupted (and recovered, forcing a rebuild), 0
/// otherwise.
fn success_code(bcache: Option<&BuildCache>) -> u8 {
    match bcache {
        Some(cache) if cache.recovered() > 0 || cache.stats().invalidations > 0 => 3,
        _ => 0,
    }
}

/// The `--keep-going` failure epilogue: the image is not linked, but
/// the trace, a partial report (selection and fault sections only),
/// and the cache of successfully compiled survivors are all written.
fn write_degraded_outputs(
    cli: &Cli,
    tel: &Telemetry,
    bcache: Option<&mut BuildCache>,
    faults: &FaultStats,
) -> Result<(), Failure> {
    let mut cache_stats = cmo::CacheStats::default();
    let mut faults = faults.clone();
    if let Some(cache) = bcache {
        cache_stats = cache.stats();
        faults.remote = cache.remote_stats();
        if let Err(e) = cache.persist() {
            tel.emit(TraceEvent::Degraded {
                component: "cache",
                name: "persist".to_owned(),
                error: e.to_string(),
            });
        }
    }
    if let Some(path) = &cli.report_json {
        let report = CompileReport {
            total_modules: cli.inputs.len(),
            cache: cache_stats,
            faults,
            ..CompileReport::default()
        };
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote report to {}", path.display());
    }
    if let Some(path) = &cli.trace {
        std::fs::write(path, tel.render_trace())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote trace to {}", path.display());
    }
    Ok(())
}

fn run_cli(cli: &Cli) -> Result<u8, Failure> {
    let tel = if cli.report_json.is_some() || cli.trace.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let mut bcache = match &cli.cache_dir {
        Some(dir) => {
            let storage = DiskStorage::new(dir)
                .map_err(|e| format!("cannot open cache at {}: {e}", dir.display()))?;
            let storage: Arc<dyn Storage> = match &cli.remote_cache {
                Some(addr) => {
                    let transport =
                        TcpTransport::new(addr.clone(), cli.remote_timeout_ms.unwrap_or(1000));
                    let policy = RetryPolicy {
                        retries: cli
                            .remote_retries
                            .unwrap_or_else(|| RetryPolicy::default().retries),
                        ..RetryPolicy::default()
                    };
                    let remote =
                        RemoteStorage::new(Arc::new(transport), policy).with_telemetry(tel.clone());
                    Arc::new(TieredStorage::new(Arc::new(storage), Arc::new(remote)))
                }
                None => Arc::new(storage),
            };
            Some(
                BuildCache::open_on(storage, &tel)
                    .map_err(|e| format!("cannot open cache at {}: {e}", dir.display()))?,
            )
        }
        None => None,
    };
    if cli.gc_cache {
        let cache = bcache
            .as_mut()
            .expect("--gc-cache was validated to require --cache-dir");
        let start = std::time::Instant::now();
        let gc = cache
            .gc(&tel)
            .map_err(|e| format!("cache gc failed: {e}"))?;
        // Wall time goes to stderr only: the trace and reports carry
        // no timings, so cached replays stay byte-identical.
        eprintln!(
            "cmocc: gc reclaimed {} bytes, kept {} live records, pruned {} manifest lines ({} ms)",
            gc.reclaimed_bytes,
            gc.live_records,
            gc.pruned_lines,
            start.elapsed().as_millis()
        );
        if cli.inputs.is_empty() {
            if let Some(path) = &cli.trace {
                std::fs::write(path, tel.render_trace())
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                println!("wrote trace to {}", path.display());
            }
            return Ok(success_code(bcache.as_ref()));
        }
    }
    let mut options = BuildOptions::new(cli.level).with_jobs(cli.jobs);
    options.telemetry = tel.clone();
    if let Some(bytes) = cli.gc_threshold_bytes {
        options = options.with_gc_threshold_bytes(bytes);
    }
    options.instrument = cli.instrument;
    if let Some(path) = &cli.profile {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let db = ProfileDb::from_bytes(&bytes)
            .map_err(|e| format!("{}: corrupt profile database: {e}", path.display()))?;
        options = options.with_profile_db(db);
    }
    if let Some(sel) = cli.selectivity {
        options = options.with_selectivity(sel);
    }
    if let Some(bytes) = cli.budget_bytes {
        options = options.with_naim(NaimConfig::with_budget(bytes));
    }
    let mut faults = FaultStats::default();
    let cc = {
        let _parse = tel.phase("parse");
        load_inputs(cli, bcache.as_mut(), &tel, &mut faults)?
    };
    if !faults.degraded.is_empty() {
        write_degraded_outputs(cli, &tel, bcache.as_mut(), &faults)?;
        return Err(Failure {
            code: 1,
            msg: format!(
                "{} of {} modules failed; image not linked",
                faults.degraded.len(),
                cli.inputs.len()
            ),
        });
    }
    if cli.compile_only {
        if let Some(cache) = bcache.as_mut() {
            cache
                .persist()
                .map_err(|e| format!("cannot persist cache: {e}"))?;
        }
        return Ok(success_code(bcache.as_ref()));
    }
    let built = match bcache.as_mut() {
        Some(cache) => cc.build_cached(&options, cache),
        None => cc.build(&options),
    };
    let out = built.map_err(|e| match e {
        BuildError::Naim(inner) => {
            format!("optimizer out of memory: {inner}\n(hint: raise --budget or lower --sel, §5)")
        }
        other => other.to_string(),
    })?;
    println!(
        "linked {} instructions across {} routines",
        out.image.code_size(),
        out.image.routines.len()
    );
    if cli.report {
        let r = &out.report;
        println!("report:");
        println!(
            "  modules: {}/{} compiled with CMO",
            r.cmo_modules, r.total_modules
        );
        println!("  source lines: {}/{} under CMO", r.cmo_loc, r.total_loc);
        println!(
            "  HLO: {} inlines, {} clones, {} globals folded, {} dead stores, {} dead routines",
            r.hlo.inlines,
            r.hlo.clones,
            r.hlo.globals_folded,
            r.hlo.dead_stores_removed,
            r.hlo.dead_routines
        );
        println!(
            "  memory: peak {} bytes ({} compactions, {} offloads)",
            r.memory.peak_total, r.loader.compactions, r.loader.offload_writes
        );
        println!("  compile work: {} units", r.compile_work);
        if r.cache.enabled {
            println!(
                "  cache: {} module hits, {} misses, {} invalidations, build replay: {}",
                r.cache.module_hits,
                r.cache.module_misses,
                r.cache.invalidations,
                if r.cache.build_hits > 0 { "yes" } else { "no" }
            );
        }
        if r.faults.remote.enabled {
            let rem = &r.faults.remote;
            println!(
                "  remote: {} hits, {} misses, {} puts, {} retries, {} failures{}",
                rem.hits,
                rem.misses,
                rem.puts,
                rem.retries,
                rem.failures,
                if rem.breaker_open {
                    " (breaker open, demoted to local)"
                } else {
                    ""
                }
            );
        }
        for phase in &r.phases {
            println!(
                "  phase {:indent$}{}: {} work units",
                "",
                phase.name,
                phase.work(),
                indent = 2 * phase.depth as usize
            );
        }
    }
    if let Some(path) = &cli.report_json {
        std::fs::write(path, out.report.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote report to {}", path.display());
    }
    if let Some(path) = &cli.trace {
        std::fs::write(path, tel.render_trace())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote trace to {}", path.display());
    }
    if cli.emit_asm {
        print!("{}", cmo_vm::disassemble(&out.image));
    }
    if let Some(input) = &cli.run {
        let result = out.run(input).map_err(|e| e.to_string())?;
        println!(
            "ran main: returned {}, {} cycles, {} instructions, checksum {:#018x}",
            result.returned, result.cycles, result.instrs, result.checksum
        );
        if let Some(path) = &cli.profile_out {
            if !out.image.is_instrumented() {
                return Err("--profile-out needs an instrumented (+I) build"
                    .to_owned()
                    .into());
            }
            let db = cmo_vm::profile_from_run(&out.image, &result.probe_counts);
            std::fs::write(path, db.to_bytes())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("wrote profile database to {}", path.display());
        }
        if cli.isolate {
            let isolation =
                cmo::isolate_inline_ops(&cc, &options, input).map_err(|e| e.to_string())?;
            match isolation.report.first_faulty_op {
                Some(op) => println!(
                    "isolated: inline op {op} of {} first changes behaviour ({} builds)",
                    isolation.total_ops, isolation.report.builds
                ),
                None => println!(
                    "isolated: all {} inline ops behave ({} builds)",
                    isolation.total_ops, isolation.report.builds
                ),
            }
        }
    }
    Ok(success_code(bcache.as_ref()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run_cli(&cli) {
        Ok(code) => ExitCode::from(code),
        Err(Failure { code, msg }) => {
            eprintln!("cmocc: {msg}");
            ExitCode::from(code)
        }
    }
}
