//! Remote-tier fault-injection tests: a cached build running through
//! the two-tier stack must survive a wire fault at *every* remote
//! exchange — dropped connections, stalls, garbage replies, mid-stream
//! disconnects, and a daemon that dies and never comes back. The local
//! tier owns correctness: whatever the remote does, the image is
//! byte-identical, the local cache is never poisoned, and identical
//! fault schedules replay identical traces and reports at every `-j`.

use std::sync::Arc;

use cmo::{
    BuildCache, BuildOptions, Compiler, FlakyTransport, LoopbackTransport, MemStorage, OptLevel,
    RemoteStorage, RemoteTransport, RetryPolicy, Storage, Telemetry, TieredStorage, WireFault,
};

const UTIL: &str = r#"
global factor: int = 3;
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

fn compiler() -> Compiler {
    let mut cc = Compiler::new();
    cc.add_source("util", UTIL).unwrap();
    cc.add_source("app", APP).unwrap();
    cc
}

fn image_string(out: &cmo::BuildOutput) -> String {
    out.image.code.iter().map(|w| format!("{w:?};")).collect()
}

/// Strips one `"name": {` object (at the given line prefix) from a
/// report JSON. The cache and remote counters legitimately depend on
/// the fault schedule; everything else must be byte-identical.
fn mask_obj(json: &str, open_prefix: &str, close_prefix: &str) -> String {
    let mut out = String::new();
    let mut skipping = false;
    for line in json.lines() {
        if line.starts_with(open_prefix) {
            skipping = true;
            continue;
        }
        if skipping {
            if line.starts_with(close_prefix) {
                skipping = false;
            }
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    assert!(out.len() < json.len(), "{open_prefix} not found: {json}");
    out
}

fn mask_variable_sections(json: &str) -> String {
    let masked = mask_obj(json, "  \"cache\": {", "  }");
    mask_obj(&masked, "    \"remote\": {", "    }")
}

/// One `+O4` build of `util` + `app` through a two-tier cache: `local`
/// in front, a [`RemoteStorage`] over `transport` behind it. Returns
/// (image code, report JSON, trace).
fn tiered_build(
    local: Arc<dyn Storage>,
    transport: Arc<dyn RemoteTransport>,
    jobs: usize,
) -> (String, String, String) {
    let tel = Telemetry::enabled();
    let remote = RemoteStorage::new(transport, RetryPolicy::default()).with_telemetry(tel.clone());
    let tiered: Arc<dyn Storage> = Arc::new(TieredStorage::new(local, Arc::new(remote)));
    let mut bcache = BuildCache::open_on(tiered, &tel).expect("open tiered cache");
    let mut opts = BuildOptions::new(OptLevel::O4).with_jobs(jobs);
    opts.telemetry = tel.clone();
    let out = compiler()
        .build_cached(&opts, &mut bcache)
        .expect("a remote fault must never fail the build");
    (image_string(&out), out.report.to_json(), tel.render_trace())
}

fn fresh_local() -> Arc<dyn Storage> {
    Arc::new(MemStorage::new()) as Arc<dyn Storage>
}

fn loopback_over(daemon: &Arc<MemStorage>) -> Arc<dyn RemoteTransport> {
    Arc::new(LoopbackTransport::over(
        Arc::new(daemon.snapshot()) as Arc<dyn Storage>
    ))
}

/// A healthy daemon store warmed by one cold build, plus that build's
/// reference output.
fn warmed_daemon() -> (Arc<MemStorage>, String, String) {
    let daemon = Arc::new(MemStorage::new());
    let transport = Arc::new(LoopbackTransport::over(
        Arc::clone(&daemon) as Arc<dyn Storage>
    ));
    let (code, report, _) = tiered_build(fresh_local(), transport, 1);
    (daemon, code, report)
}

/// Remote-warm replay: a cold build through a healthy tier populates
/// the daemon; a *fresh machine* (empty local tier) against that warm
/// daemon must replay the image byte-for-byte and the report
/// byte-for-byte outside the live cache counters — the replayed report
/// carries the cold build's fault section (remote counters included)
/// verbatim.
#[test]
fn remote_warm_replay_is_byte_identical_to_cold() {
    let (daemon, cold_code, cold_report) = warmed_daemon();
    let cold_masked = mask_obj(&cold_report, "  \"cache\": {", "  }");
    let mut per_jobs = Vec::new();
    for jobs in jobs_levels() {
        let (code, report, trace) = tiered_build(fresh_local(), loopback_over(&daemon), jobs);
        assert_eq!(code, cold_code, "-j{jobs}: remote-warm image diverged");
        assert_eq!(
            mask_obj(&report, "  \"cache\": {", "  }"),
            cold_masked,
            "-j{jobs}: remote-warm report diverged"
        );
        assert!(
            trace.contains(r#""event":"remote","action":"hit""#),
            "-j{jobs}: warm replay never hit the remote tier: {trace}"
        );
        per_jobs.push((jobs, trace));
    }
    for (jobs, trace) in &per_jobs[1..] {
        assert_eq!(&per_jobs[0].1, trace, "trace differs at -j{jobs}");
    }
}

/// The tentpole acceptance sweep: inject every wire-fault kind at every
/// remote exchange of a fresh-machine build against a warm daemon. The
/// build must always succeed with a byte-identical image, the report
/// must match the reference outside the cache/remote counters, and the
/// local tier must come out clean — a follow-up replay on the same
/// local cache with the daemon *gone* still produces the reference
/// image.
#[test]
fn wire_fault_sweep_never_breaks_the_build_or_poisons_the_local_cache() {
    let (daemon, ref_code, ref_report) = warmed_daemon();
    let ref_masked = mask_variable_sections(&ref_report);

    // Probe: count the remote exchanges of the fresh-machine build.
    let probe = Arc::new(FlakyTransport::new(loopback_over(&daemon)));
    tiered_build(
        fresh_local(),
        Arc::clone(&probe) as Arc<dyn RemoteTransport>,
        1,
    );
    let total_ops = probe.ops();
    assert!(
        total_ops > 4,
        "suspiciously few remote exchanges: {total_ops}"
    );

    let faults = [
        WireFault::Drop,
        WireFault::Stall,
        WireFault::Garbage,
        WireFault::Disconnect,
    ];
    for k in 0..total_ops {
        for fault in faults {
            let mut per_jobs = Vec::new();
            for jobs in jobs_levels() {
                let local = fresh_local();
                let flaky =
                    Arc::new(FlakyTransport::new(loopback_over(&daemon)).with_fault(k, fault));
                let (code, report, trace) = tiered_build(
                    Arc::clone(&local),
                    Arc::clone(&flaky) as Arc<dyn RemoteTransport>,
                    jobs,
                );
                assert!(flaky.ops() > k, "{fault:?}@{k} -j{jobs}: fault never fired");
                assert_eq!(code, ref_code, "{fault:?}@{k} -j{jobs}: image diverged");
                assert_eq!(
                    mask_variable_sections(&report),
                    ref_masked,
                    "{fault:?}@{k} -j{jobs}: report diverged"
                );

                // The local tier absorbed whatever the wire did: a
                // local-warm replay with the daemon gone still serves
                // the reference image from an unpoisoned cache.
                let dead = Arc::new(FlakyTransport::new(loopback_over(&daemon)).kill_at(0));
                let (replay_code, _, _) = tiered_build(local, dead, jobs);
                assert_eq!(
                    replay_code, ref_code,
                    "{fault:?}@{k} -j{jobs}: local cache poisoned"
                );
                per_jobs.push((jobs, trace));
            }
            // Satellite: an identical fault schedule yields an
            // identical trace at every worker count.
            for (jobs, trace) in &per_jobs[1..] {
                assert_eq!(
                    &per_jobs[0].1, trace,
                    "{fault:?}@{k}: trace differs at -j{jobs}"
                );
            }
        }
    }
}

/// A daemon that dies at exchange `k` and never recovers: the retry
/// budget drains and the build demotes to local-only — it still
/// succeeds with the reference image at every kill point and every
/// `-j`. A daemon dead from the very first exchange additionally trips
/// the circuit breaker early enough to show in the report, alongside
/// the breaker-open and degraded trace events.
#[test]
fn daemon_death_at_every_exchange_demotes_to_local_only() {
    let (daemon, ref_code, _) = warmed_daemon();

    let probe = Arc::new(FlakyTransport::new(loopback_over(&daemon)));
    tiered_build(
        fresh_local(),
        Arc::clone(&probe) as Arc<dyn RemoteTransport>,
        1,
    );
    let total_ops = probe.ops();

    for k in 0..total_ops {
        let mut per_jobs = Vec::new();
        for jobs in jobs_levels() {
            let flaky = Arc::new(FlakyTransport::new(loopback_over(&daemon)).kill_at(k));
            let (code, report, trace) = tiered_build(
                fresh_local(),
                Arc::clone(&flaky) as Arc<dyn RemoteTransport>,
                jobs,
            );
            assert_eq!(code, ref_code, "kill {k} -j{jobs}: image diverged");
            if k == 0 {
                // Every exchange fails, so by the report snapshot the
                // breaker has tripped and the demotion is on record.
                assert!(
                    report.contains("\"breaker_open\": true"),
                    "kill 0 -j{jobs}: breaker never tripped: {report}"
                );
                assert!(
                    trace.contains(r#""event":"remote","action":"open""#),
                    "kill 0 -j{jobs}: missing breaker-open event: {trace}"
                );
                assert!(
                    trace.contains(r#""event":"degraded","component":"remote""#),
                    "kill 0 -j{jobs}: missing degraded event: {trace}"
                );
            }
            per_jobs.push((jobs, trace));
        }
        for (jobs, trace) in &per_jobs[1..] {
            assert_eq!(&per_jobs[0].1, trace, "kill {k}: trace differs at -j{jobs}");
        }
    }
}

/// Determinism at the integration level: running the *same* faulted
/// build twice yields byte-identical traces and reports, including the
/// remote counters.
#[test]
fn identical_fault_schedules_replay_identical_outputs() {
    let (daemon, _, _) = warmed_daemon();
    let build = || {
        let flaky =
            Arc::new(FlakyTransport::new(loopback_over(&daemon)).with_fault(2, WireFault::Garbage));
        tiered_build(fresh_local(), flaky, 4)
    };
    let (code_a, report_a, trace_a) = build();
    let (code_b, report_b, trace_b) = build();
    assert_eq!(code_a, code_b);
    assert_eq!(report_a, report_b);
    assert_eq!(trace_a, trace_b);
}
