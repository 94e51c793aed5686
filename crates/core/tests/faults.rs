//! Fault-injection integration tests: the build must survive a crash
//! at *every* storage I/O operation of a cached build (reopen, recover,
//! and rebuild byte-identical output), contain panicking front-end
//! workers behind `--keep-going`, and report failures through the
//! documented exit codes — 1 for diagnostics, 2 for usage errors,
//! 3 for recovered corruption, 101 for internal bugs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use cmo::{
    BuildCache, BuildOptions, Compiler, FaultyStorage, MemStorage, OptLevel, Storage, Telemetry,
};

const UTIL_V1: &str = r#"
global factor: int = 3;
fn scale(x: int) -> int { return x * factor; }
"#;

const UTIL_V2: &str = r#"
global factor: int = 4;
fn scale(x: int) -> int { return x * factor; }
"#;

const APP: &str = r#"
extern fn scale(x: int) -> int;
fn main() -> int {
    var i: int = 0;
    var acc: int = 0;
    while (i < 50) { acc = acc + scale(i); i = i + 1; }
    return acc % 1000;
}
"#;

/// Worker counts under test: 1 and 4, plus whatever CI asks for
/// through `CMO_TEST_JOBS`.
fn jobs_levels() -> Vec<usize> {
    let mut levels = vec![1, 4];
    if let Some(n) = std::env::var("CMO_TEST_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if n >= 1 && !levels.contains(&n) {
            levels.push(n);
        }
    }
    levels
}

fn compiler(util: &str) -> Compiler {
    let mut cc = Compiler::new();
    cc.add_source("util", util).unwrap();
    cc.add_source("app", APP).unwrap();
    cc
}

/// Renders the image's code words for byte-for-byte comparison.
fn image_string(out: &cmo::BuildOutput) -> String {
    out.image.code.iter().map(|w| format!("{w:?};")).collect()
}

/// Strips the `"cache"` object from a report JSON. The cache counters
/// legitimately depend on how much cached state survived a crash;
/// everything else in the report must be byte-identical.
fn mask_cache(json: &str) -> String {
    let mut out = String::new();
    let mut skipping = false;
    for line in json.lines() {
        if line.starts_with("  \"cache\": {") {
            skipping = true;
            continue;
        }
        if skipping {
            if line.starts_with("  }") {
                skipping = false;
            }
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    assert!(out.len() < json.len(), "cache section not found: {json}");
    out
}

/// One `+O4` cached build of `util` + `app` against `storage`,
/// returning (image code, report JSON, trace, recovery count).
fn cached_build(
    storage: Arc<dyn Storage>,
    util: &str,
    jobs: usize,
) -> (String, String, String, u64) {
    let tel = Telemetry::enabled();
    let mut bcache = BuildCache::open_on(storage, &tel).expect("open on healthy storage");
    let mut opts = BuildOptions::new(OptLevel::O4).with_jobs(jobs);
    opts.telemetry = tel.clone();
    let out = compiler(util)
        .build_cached(&opts, &mut bcache)
        .expect("build on healthy storage");
    (
        image_string(&out),
        out.report.to_json(),
        tel.render_trace(),
        bcache.recovered(),
    )
}

/// The tentpole acceptance test: commit generation 1, then crash an
/// incremental rebuild at every single storage I/O operation. After
/// each crash the store must reopen without panicking and the rebuild
/// must produce byte-identical output at every `-j` level — never
/// stale generation-1 bytes, never garbage.
#[test]
fn kill_point_sweep_recovers_at_every_io_op() {
    // Generation 1: a committed cache of the v1 sources.
    let gen1 = Arc::new(MemStorage::new());
    cached_build(Arc::clone(&gen1) as Arc<dyn Storage>, UTIL_V1, 1);

    // Reference: the v2 incremental build on a pristine copy of gen 1.
    let (ref_code, ref_report, _, _) =
        cached_build(Arc::new(gen1.snapshot()) as Arc<dyn Storage>, UTIL_V2, 1);
    let ref_masked = mask_cache(&ref_report);

    // Probe: count the storage ops of that same incremental build.
    let probe_inner = Arc::new(gen1.snapshot());
    let probe = Arc::new(FaultyStorage::new(
        Arc::clone(&probe_inner) as Arc<dyn Storage>
    ));
    cached_build(Arc::clone(&probe) as Arc<dyn Storage>, UTIL_V2, 1);
    let total_ops = probe.ops();
    assert!(total_ops > 10, "suspiciously few storage ops: {total_ops}");

    let mut recoveries = 0u64;
    for k in 0..total_ops {
        // Crash the incremental build at op k.
        let inner = Arc::new(gen1.snapshot());
        let faulty =
            Arc::new(FaultyStorage::new(Arc::clone(&inner) as Arc<dyn Storage>).kill_at(k));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let tel = Telemetry::disabled();
            let Ok(mut bcache) = BuildCache::open_on(Arc::clone(&faulty) as Arc<dyn Storage>, &tel)
            else {
                return; // the kill landed inside open: acceptable
            };
            // The build itself must absorb storage failure (the cache
            // degrades to cold); only the image matters here and the
            // process "dies" at the kill point regardless.
            let _ = compiler(UTIL_V2).build_cached(&BuildOptions::new(OptLevel::O4), &mut bcache);
        }));
        assert!(outcome.is_ok(), "build panicked at kill point {k}");
        assert!(faulty.crashed(), "kill point {k} never fired");

        // Reopen the post-crash state and rebuild at every -j level.
        let mut per_jobs = Vec::new();
        for jobs in jobs_levels() {
            let state = Arc::new(inner.snapshot()) as Arc<dyn Storage>;
            let (code, report, trace, recovered) = cached_build(state, UTIL_V2, jobs);
            assert_eq!(code, ref_code, "kill {k} -j{jobs}: image diverged");
            assert_eq!(
                mask_cache(&report),
                ref_masked,
                "kill {k} -j{jobs}: report diverged"
            );
            recoveries += recovered;
            per_jobs.push((jobs, code, report, trace));
        }
        let (_, code1, report1, trace1) = &per_jobs[0];
        for (jobs, code, report, trace) in &per_jobs[1..] {
            assert_eq!(code1, code, "kill {k}: image differs at -j{jobs}");
            assert_eq!(report1, report, "kill {k}: report differs at -j{jobs}");
            assert_eq!(trace1, trace, "kill {k}: trace differs at -j{jobs}");
        }
    }
    // At least one kill point must land between the repository fsync
    // and the journal commit, forcing an actual rollback recovery.
    assert!(
        recoveries > 0,
        "no kill point exercised recovery across {total_ops} ops"
    );
}

/// GC crash-safety: compaction killed at *every* storage I/O operation
/// must leave `repo.naim` byte-identical to either the pre-GC or the
/// post-GC generation — never a mix of the two — and a reopened cache
/// must still replay the reference build at every `-j` level.
#[test]
fn gc_kill_point_sweep_leaves_old_or_new_generation_never_a_mix() {
    const REPO: &str = "repo.naim";

    // A committed cache with plenty of dead bytes: the v1 build's util
    // record dies when v2 supersedes it, and every extra build appends
    // another stale index segment.
    let base = Arc::new(MemStorage::new());
    cached_build(Arc::clone(&base) as Arc<dyn Storage>, UTIL_V1, 1);
    cached_build(Arc::clone(&base) as Arc<dyn Storage>, UTIL_V2, 1);
    cached_build(Arc::clone(&base) as Arc<dyn Storage>, UTIL_V2, 1);
    let pre_bytes = base.read(REPO).unwrap();

    // Reference warm output on the uncompacted cache.
    let (ref_code, ref_report, _, _) =
        cached_build(Arc::new(base.snapshot()) as Arc<dyn Storage>, UTIL_V2, 1);
    let ref_masked = mask_cache(&ref_report);

    // The post-GC generation: a clean, uninterrupted compaction.
    let post = Arc::new(base.snapshot());
    {
        let tel = Telemetry::disabled();
        let mut bcache = BuildCache::open_on(Arc::clone(&post) as Arc<dyn Storage>, &tel).unwrap();
        let stats = bcache.gc(&tel).unwrap();
        assert!(stats.reclaimed_bytes > 0, "setup produced no dead bytes");
    }
    let post_bytes = post.read(REPO).unwrap();
    assert_ne!(pre_bytes, post_bytes, "gc was a no-op");

    // Probe: count the storage ops of open + gc.
    let probe = Arc::new(FaultyStorage::new(
        Arc::new(base.snapshot()) as Arc<dyn Storage>
    ));
    {
        let tel = Telemetry::disabled();
        let mut bcache = BuildCache::open_on(Arc::clone(&probe) as Arc<dyn Storage>, &tel).unwrap();
        bcache.gc(&tel).unwrap();
    }
    let total_ops = probe.ops();
    assert!(total_ops > 10, "suspiciously few storage ops: {total_ops}");

    let (mut pre_survivals, mut post_survivals) = (0u64, 0u64);
    for k in 0..total_ops {
        let inner = Arc::new(base.snapshot());
        let faulty =
            Arc::new(FaultyStorage::new(Arc::clone(&inner) as Arc<dyn Storage>).kill_at(k));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let tel = Telemetry::disabled();
            let Ok(mut bcache) = BuildCache::open_on(Arc::clone(&faulty) as Arc<dyn Storage>, &tel)
            else {
                return; // the kill landed inside open: acceptable
            };
            let _ = bcache.gc(&tel);
        }));
        assert!(outcome.is_ok(), "gc panicked at kill point {k}");
        assert!(faulty.crashed(), "kill point {k} never fired");

        // Atomicity: the surviving repository is one generation or the
        // other, byte for byte.
        let crashed_bytes = inner.read(REPO).unwrap();
        if crashed_bytes == pre_bytes {
            pre_survivals += 1;
        } else if crashed_bytes == post_bytes {
            post_survivals += 1;
        } else {
            panic!("kill {k}: repo.naim is a mix of generations");
        }

        // Recovery: a reopened cache replays the reference build at
        // every -j level, identically across levels.
        let mut per_jobs = Vec::new();
        for jobs in jobs_levels() {
            let state = Arc::new(inner.snapshot()) as Arc<dyn Storage>;
            let (code, report, trace, _) = cached_build(state, UTIL_V2, jobs);
            assert_eq!(code, ref_code, "kill {k} -j{jobs}: image diverged");
            assert_eq!(
                mask_cache(&report),
                ref_masked,
                "kill {k} -j{jobs}: report diverged"
            );
            per_jobs.push((jobs, code, report, trace));
        }
        let (_, code1, report1, trace1) = &per_jobs[0];
        for (jobs, code, report, trace) in &per_jobs[1..] {
            assert_eq!(code1, code, "kill {k}: image differs at -j{jobs}");
            assert_eq!(report1, report, "kill {k}: report differs at -j{jobs}");
            assert_eq!(trace1, trace, "kill {k}: trace differs at -j{jobs}");
        }
    }
    // The sweep must land on both sides of the atomic swap, or it is
    // not exercising the interesting window.
    assert!(
        pre_survivals > 0 && post_survivals > 0,
        "sweep never crossed the swap: {pre_survivals} pre, {post_survivals} post"
    );
}

// ---------------------------------------------------------------- CLI

fn cmocc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cmocc"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cmocc-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_sources(dir: &Path, app: &str) -> (PathBuf, PathBuf) {
    let util = dir.join("util.mlc");
    let app_path = dir.join("app.mlc");
    std::fs::write(&util, UTIL_V1).unwrap();
    std::fs::write(&app_path, app).unwrap();
    (util, app_path)
}

/// `--keep-going` with one broken module: diagnostics for the broken
/// one, objects for the rest, exit 1, the failure recorded in the JSON
/// report, and a byte-identical trace at every `-j`.
#[test]
fn keep_going_skips_broken_module_and_reports_it() {
    let dir = workdir("keep-going");
    write_sources(&dir, "fn main( -> int { return 0; }"); // syntax error
    let mut traces = Vec::new();
    for jobs in jobs_levels() {
        let json = dir.join(format!("report-{jobs}.json"));
        let trace = dir.join(format!("trace-{jobs}.jsonl"));
        let out = cmocc()
            .args(["+O4", "--keep-going", "-j", &jobs.to_string()])
            .args(["--report-json"])
            .arg(&json)
            .arg("--trace")
            .arg(&trace)
            .arg(dir.join("util.mlc"))
            .arg(dir.join("app.mlc"))
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
        assert!(
            stderr.contains("--keep-going: skipping `app`"),
            "missing skip diagnostic: {stderr}"
        );
        assert!(
            stderr.contains("1 of 2 modules failed; image not linked"),
            "missing summary: {stderr}"
        );
        let report = std::fs::read_to_string(&json).unwrap();
        assert!(
            report.contains("\"degraded\": [\n      \"app\"\n    ]")
                || report.contains("\"degraded\": [\"app\"]"),
            "report does not record the degraded module: {report}"
        );
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(
            trace_text.contains(r#""event":"degraded","component":"frontend","name":"app""#),
            "missing degraded event: {trace_text}"
        );
        traces.push((jobs, trace_text));
    }
    for (jobs, trace) in &traces[1..] {
        assert_eq!(&traces[0].1, trace, "trace differs at -j{jobs}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--keep-going -c` still writes the surviving objects.
#[test]
fn keep_going_compile_only_writes_surviving_objects() {
    let dir = workdir("keep-going-c");
    write_sources(&dir, "fn main( -> int { return 0; }");
    let out = cmocc()
        .args(["-c", "--keep-going"])
        .arg(dir.join("util.mlc"))
        .arg(dir.join("app.mlc"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        dir.join("util.cmo").exists(),
        "surviving object not written"
    );
    assert!(
        !dir.join("app.cmo").exists(),
        "broken module wrote an object"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A worker panic without `--keep-going` is an internal bug: exit 101.
#[test]
fn worker_panic_without_keep_going_exits_101() {
    let dir = workdir("panic-101");
    write_sources(&dir, APP);
    for jobs in jobs_levels() {
        let out = cmocc()
            .env("CMOCC_PANIC_ON", "util")
            .args(["+O4", "-j", &jobs.to_string()])
            .arg(dir.join("util.mlc"))
            .arg(dir.join("app.mlc"))
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(101),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same panic under `--keep-going` is contained: exit 1, a
/// `job-panic` trace event, and `job_panics` counted in the report.
#[test]
fn worker_panic_with_keep_going_is_contained() {
    let dir = workdir("panic-contained");
    write_sources(&dir, APP);
    for jobs in jobs_levels() {
        let json = dir.join(format!("report-{jobs}.json"));
        let trace = dir.join(format!("trace-{jobs}.jsonl"));
        let out = cmocc()
            .env("CMOCC_PANIC_ON", "util")
            .args(["+O4", "--keep-going", "-j", &jobs.to_string()])
            .args(["--report-json"])
            .arg(&json)
            .arg("--trace")
            .arg(&trace)
            .arg(dir.join("util.mlc"))
            .arg(dir.join("app.mlc"))
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
        assert!(
            stderr.contains("panicked the compiler"),
            "missing panic diagnostic: {stderr}"
        );
        let report = std::fs::read_to_string(&json).unwrap();
        assert!(
            report.contains("\"job_panics\": 1"),
            "panic not counted: {report}"
        );
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(
            trace_text.contains(r#""event":"job-panic""#),
            "missing job-panic event: {trace_text}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--isolate` flag rules are usage errors (exit 2); a healthy program
/// isolates nothing (exit 0).
#[test]
fn isolate_validates_flags_and_runs_clean() {
    let dir = workdir("isolate");
    write_sources(&dir, APP);
    // Missing --run: usage error.
    let out = cmocc()
        .args(["+O4", "--isolate"])
        .arg(dir.join("util.mlc"))
        .arg(dir.join("app.mlc"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Wrong level: usage error.
    let out = cmocc()
        .args(["+O2", "--isolate", "--run", "-"])
        .arg(dir.join("util.mlc"))
        .arg(dir.join("app.mlc"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Healthy +O4 program: the search clears every inline op.
    let out = cmocc()
        .args(["+O4", "--isolate", "--run", "-"])
        .arg(dir.join("util.mlc"))
        .arg(dir.join("app.mlc"))
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("isolated: all"),
        "missing isolation verdict: {stdout}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A plain front-end diagnostic (no panic, no keep-going) stays exit 1.
#[test]
fn compile_diagnostic_exits_1() {
    let dir = workdir("diag");
    write_sources(&dir, "fn main( -> int { return 0; }");
    let out = cmocc()
        .arg(dir.join("util.mlc"))
        .arg(dir.join("app.mlc"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(!String::from_utf8_lossy(&out.stderr).is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}
