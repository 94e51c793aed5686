#![warn(missing_docs)]
//! Shared measurement plumbing for the figure-regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure from
//! the paper's evaluation and prints the same rows/series the paper
//! reports, plus a CSV copy under `results/` for plotting. Absolute
//! numbers differ from the paper (our substrate is a simulated
//! machine, not a 180 MHz PA-8000); the *shapes* — who wins, rough
//! factors, crossovers — are the reproduction target. See
//! EXPERIMENTS.md for the paper-vs-measured record.

use cmo::{
    BuildCache, BuildError, BuildOptions, CompileReport, Compiler, LoopbackTransport, MemStorage,
    OptLevel, ProfileDb, RemoteStorage, RetryPolicy, Storage, Telemetry, TieredStorage,
};
use cmo_synth::SynthApp;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

pub mod json;

pub use json::{bench_args, parse_json, BenchArgs, BenchReport, BenchRow, BenchValue, Json};

/// One build + one reference run, with wall-clock compile time.
#[derive(Debug)]
pub struct Measured {
    /// The build's report — the single stats surface every figure
    /// binary reads.
    pub report: CompileReport,
    /// Simulated run cycles on the reference input.
    pub cycles: u64,
    /// Output checksum (for cross-configuration equality checks).
    pub checksum: u64,
    /// Wall-clock build time in milliseconds.
    pub compile_ms: f64,
    /// Wall-clock nanoseconds spent inside the `hlo` phase, read from
    /// the build's telemetry phase records. Zero when the build ran
    /// with telemetry disabled (phase timing needs an enabled sink).
    pub hlo_wall_nanos: u64,
}

/// Loads every module of `app` into a fresh driver.
///
/// # Panics
///
/// Panics on generator-produced source that fails to compile (a bug).
#[must_use]
pub fn compiler_for(app: &SynthApp) -> Compiler {
    let mut cc = Compiler::new();
    for (name, source) in &app.modules {
        cc.add_source(name, source)
            .unwrap_or_else(|e| panic!("generated module {name} failed: {e}"));
    }
    cc
}

/// Trains a profile database on the app's training input.
///
/// # Errors
///
/// Propagates build or run failures.
pub fn train(cc: &Compiler, app: &SynthApp) -> Result<ProfileDb, BuildError> {
    let instrumented = cc.build(&BuildOptions::instrumented())?;
    instrumented.run_for_profile(&app.train_input)
}

/// Builds with `options` and runs on the reference input.
///
/// # Errors
///
/// Propagates build or run failures.
pub fn measure(
    cc: &Compiler,
    app: &SynthApp,
    options: &BuildOptions,
) -> Result<Measured, BuildError> {
    let t0 = Instant::now();
    let output = cc.build(options)?;
    let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
    let hlo_wall_nanos = options
        .telemetry
        .phases()
        .iter()
        .find(|p| p.name == "hlo")
        .map_or(0, |p| p.wall_nanos);
    let r = output.run(&app.ref_input)?;
    Ok(Measured {
        report: output.report,
        cycles: r.cycles,
        checksum: r.checksum,
        compile_ms,
        hlo_wall_nanos,
    })
}

/// Builds the same configuration at several `-j` worker counts and
/// returns `(jobs, Measured)` rows for wall-clock comparison.
///
/// Every parallel build must reproduce the single-worker build
/// exactly — same output checksum, same unified report — so the only
/// thing allowed to vary down the rows is wall-clock time. (On a
/// single-core runner the times will simply be similar; no speedup is
/// asserted.)
///
/// # Errors
///
/// Propagates build or run failures.
///
/// # Panics
///
/// Panics if a worker count changes the checksum or the report.
pub fn measure_at_jobs(
    cc: &Compiler,
    app: &SynthApp,
    options: &BuildOptions,
    jobs: &[usize],
) -> Result<Vec<(usize, Measured)>, BuildError> {
    let mut rows: Vec<(usize, Measured)> = Vec::with_capacity(jobs.len());
    for &j in jobs {
        // Fresh telemetry per build: phase records must cover exactly
        // this build (a shared sink would accumulate phases across the
        // sweep), and `hlo_wall_nanos` needs an enabled sink.
        let mut o = options.clone().with_jobs(j);
        o.telemetry = Telemetry::enabled();
        let m = measure(cc, app, &o)?;
        if let Some((j0, first)) = rows.first() {
            assert_eq!(
                first.checksum, m.checksum,
                "-j{j} changed the output vs -j{j0}"
            );
            assert_eq!(
                first.report.to_json(),
                m.report.to_json(),
                "-j{j} changed the report vs -j{j0}"
            );
        }
        rows.push((j, m));
    }
    Ok(rows)
}

/// The five standard configurations of Figure 1.
///
/// # Errors
///
/// Propagates build or run failures.
///
/// # Panics
///
/// Panics if any configuration changes the output checksum
/// (miscompile).
pub fn measure_standard_levels(
    app: &SynthApp,
    sel_percent: f64,
) -> Result<[Measured; 5], BuildError> {
    let cc = compiler_for(app);
    let db = train(&cc, app)?;
    let o1 = measure(&cc, app, &BuildOptions::new(OptLevel::O1))?;
    let o2 = measure(&cc, app, &BuildOptions::o2())?;
    let o2p = measure(&cc, app, &BuildOptions::o2().with_profile_db(db.clone()))?;
    let o4 = measure(&cc, app, &BuildOptions::new(OptLevel::O4))?;
    let o4p = measure(
        &cc,
        app,
        &BuildOptions::new(OptLevel::O4)
            .with_profile_db(db)
            .with_selectivity(sel_percent),
    )?;
    for m in [&o2, &o2p, &o4, &o4p] {
        assert_eq!(o1.checksum, m.checksum, "miscompile in {}", app.name);
    }
    Ok([o1, o2, o2p, o4, o4p])
}

/// Deterministic work-unit cost of one `+O4` cached build in the
/// three cache scenarios the remote tier adds: cold (empty cache),
/// local-warm (second build on the same local store), and remote-warm
/// (fresh machine, empty local tier, warm `cmocached` daemon reached
/// through the in-process loopback transport).
#[derive(Debug)]
pub struct CacheTierWork {
    /// Work units of the cold build.
    pub cold_work: u64,
    /// Work units of the local-warm replay.
    pub local_warm_work: u64,
    /// Work units of the remote-warm replay (includes the wire
    /// fetches that populate the local tier).
    pub remote_warm_work: u64,
    /// Payload bytes the remote-warm replay fetched from the daemon.
    pub remote_fetched_bytes: u64,
}

/// Measures [`CacheTierWork`] for `app`. All three counts come off the
/// deterministic work-unit clock (the loopback transport never sleeps
/// and a healthy wire schedules no backoff), so bench-diff can gate
/// them.
///
/// # Panics
///
/// Panics if any build fails — the storage here is in-memory and the
/// wire is loopback, so a failure is a bug.
#[must_use]
pub fn measure_cache_tiers(app: &SynthApp) -> CacheTierWork {
    let cc = compiler_for(app);
    let build = |storage: Arc<dyn Storage>| -> u64 {
        let tel = Telemetry::enabled();
        let mut bcache = BuildCache::open_on(Arc::clone(&storage), &tel).expect("open bench cache");
        let mut opts = BuildOptions::new(OptLevel::O4);
        opts.telemetry = tel.clone();
        cc.build_cached(&opts, &mut bcache).expect("cached build");
        tel.current_work()
    };
    let tier_over = |daemon: &Arc<MemStorage>| -> Arc<dyn Storage> {
        let transport = Arc::new(LoopbackTransport::over(
            Arc::clone(daemon) as Arc<dyn Storage>
        ));
        let remote = RemoteStorage::new(transport, RetryPolicy::default());
        Arc::new(TieredStorage::new(
            Arc::new(MemStorage::new()) as Arc<dyn Storage>,
            Arc::new(remote),
        ))
    };

    let local = Arc::new(MemStorage::new());
    let cold_work = build(Arc::clone(&local) as Arc<dyn Storage>);
    let local_warm_work = build(local as Arc<dyn Storage>);

    let daemon = Arc::new(MemStorage::new());
    build(tier_over(&daemon)); // one machine's cold build warms the daemon
    let fresh_machine = tier_over(&daemon);
    let remote_warm_work = build(Arc::clone(&fresh_machine));
    let remote_fetched_bytes = fresh_machine.remote_stats().map_or(0, |s| s.fetched_bytes);
    CacheTierWork {
        cold_work,
        local_warm_work,
        remote_warm_work,
        remote_fetched_bytes,
    }
}

/// Writes a CSV file under `results/`, creating the directory.
///
/// # Panics
///
/// Panics on I/O failure (benches run in a writable checkout).
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for row in rows {
        writeln!(f, "{row}").expect("write row");
    }
    eprintln!("wrote {}", path.display());
}
