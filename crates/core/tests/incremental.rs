//! End-to-end tests of the persistent incremental cache: cold vs warm
//! `cmocc --cache-dir` builds must be byte-identical at every `-j`,
//! clean modules must skip the front end and HLO on warm runs, and a
//! corrupted cache must fall back to a full recompile — with the same
//! bytes — instead of producing a garbage image.

use std::path::{Path, PathBuf};
use std::process::Command;

use cmo::{BuildCache, BuildOptions, Compiler, DiskStorage, OptLevel, Telemetry};

fn cmocc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cmocc"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cmocc-incr-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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

fn write_sources(dir: &Path) -> (PathBuf, PathBuf) {
    let util = dir.join("util.mlc");
    let app = dir.join("app.mlc");
    std::fs::write(&util, UTIL).unwrap();
    std::fs::write(&app, APP).unwrap();
    (util, app)
}

/// Runs a `+O4` cached build writing report, trace, and disassembly;
/// returns (stdout, report json, trace). `code` is the expected exit
/// code: 0 for a clean build, 3 when the cache was found corrupted.
fn build_expecting(
    dir: &Path,
    cache: &Path,
    jobs: &str,
    tag: &str,
    code: i32,
) -> (String, String, String) {
    let json = dir.join(format!("{tag}.json"));
    let trace = dir.join(format!("{tag}.trace"));
    let out = cmocc()
        .args(["+O4", "-j", jobs, "--cache-dir"])
        .arg(cache)
        .args(["--report", "--report-json"])
        .arg(&json)
        .arg("--trace")
        .arg(&trace)
        .arg("--emit-asm")
        .args(["--run", "-"])
        .arg(dir.join("util.mlc"))
        .arg(dir.join("app.mlc"))
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(code),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        std::fs::read_to_string(&json).unwrap(),
        std::fs::read_to_string(&trace).unwrap(),
    )
}

/// [`build_expecting`] success.
fn build(dir: &Path, cache: &Path, jobs: &str, tag: &str) -> (String, String, String) {
    build_expecting(dir, cache, jobs, tag, 0)
}

/// Strips the "wrote ..." progress lines (temp paths) and the human
/// report's `cache:` line — the latter deliberately shows the *live*
/// hit/miss counters of each run, unlike the JSON report, whose cache
/// section replays the cold run's and stays byte-identical.
fn stable_output(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|l| !l.starts_with("wrote ") && !l.trim_start().starts_with("cache: "))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn warm_build_replays_cold_build_byte_for_byte_at_any_jobs() {
    let dir = workdir("replay");
    write_sources(&dir);
    let cache = dir.join("cache");

    let (cold_out, cold_json, cold_trace) = build(&dir, &cache, "1", "cold");
    // Warm at a different job count: identical image (disassembly +
    // run checksum), identical report JSON.
    let (warm_out, warm_json, warm_trace) = build(&dir, &cache, "4", "warm");
    assert_eq!(
        stable_output(&cold_out),
        stable_output(&warm_out),
        "warm image or run output diverged from cold"
    );
    assert_eq!(cold_json, warm_json, "warm report JSON diverged from cold");

    // The cold run misses and stores; the warm run hits every module
    // and replays the whole build.
    assert!(cold_trace.contains(r#""action":"miss","scope":"module","name":"util""#));
    assert!(cold_trace.contains(r#""action":"store","scope":"build""#));
    for module in ["util", "app"] {
        assert!(
            warm_trace.contains(&format!(
                r#""action":"hit","scope":"module","name":"{module}""#
            )),
            "no module hit for {module} in warm trace: {warm_trace}"
        );
    }
    assert!(warm_trace.contains(r#""action":"hit","scope":"build""#));
    assert!(warm_trace.contains(r#""action":"replay","scope":"build""#));
    // A replayed build runs no optimizer: no pool traffic, no HLO
    // events in the warm trace.
    assert!(
        !warm_trace.contains(r#""event":"pool""#) && !warm_trace.contains(r#""phase":"hlo"#),
        "warm build still ran the optimizer: {warm_trace}"
    );
    // The human-readable report shows the hits.
    assert!(
        warm_out.contains("cache: 2 module hits, 0 misses, 0 invalidations, build replay: yes"),
        "missing cache line: {warm_out}"
    );
    // A third run, back at -j1, replays the same bytes again.
    let (_, third_json, third_trace) = build(&dir, &cache, "1", "third");
    assert_eq!(cold_json, third_json);
    assert_eq!(warm_trace, third_trace, "warm traces differ across -j");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn editing_one_module_recompiles_only_that_module() {
    let dir = workdir("dirty");
    let (util, _) = write_sources(&dir);
    let cache = dir.join("cache");

    build(&dir, &cache, "1", "cold");
    // Touching the file without changing content stays a full hit.
    std::fs::write(&util, UTIL).unwrap();
    let (_, _, clean_trace) = build(&dir, &cache, "1", "clean");
    assert!(clean_trace.contains(r#""action":"replay","scope":"build""#));

    // A real edit dirties util: its module entry misses, app still
    // hits, and the whole-build key changes so the build re-runs.
    std::fs::write(&util, UTIL.replace("factor: int = 3", "factor: int = 4")).unwrap();
    let (out, _, trace) = build(&dir, &cache, "1", "dirty");
    assert!(trace.contains(r#""action":"miss","scope":"module","name":"util""#));
    assert!(trace.contains(r#""action":"hit","scope":"module","name":"app""#));
    assert!(trace.contains(r#""action":"miss","scope":"build""#));
    assert!(!trace.contains(r#""action":"replay""#));
    assert!(
        out.contains("cache: 1 module hits, 1 misses"),
        "unexpected cache line: {out}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn editing_one_module_under_pbo_recompiles_only_that_module() {
    let dir = workdir("dirtypbo");
    let (util, app) = write_sources(&dir);
    let cache = dir.join("cache");
    let db = dir.join("train.db");
    let trained = cmocc()
        .args(["+I", "--run", "-", "--profile-out"])
        .arg(&db)
        .args([&util, &app])
        .output()
        .unwrap();
    assert!(trained.status.success());
    let profiled = |tag: &str| {
        let trace = dir.join(format!("{tag}.trace"));
        let out = cmocc()
            .args(["+O4", "+P"])
            .arg(&db)
            .arg("--cache-dir")
            .arg(&cache)
            .args(["--report", "--trace"])
            .arg(&trace)
            .args([&util, &app])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            std::fs::read_to_string(&trace).unwrap(),
        )
    };

    profiled("cold");
    // Module entries are keyed on the source alone: the profile does
    // not move them, the edit moves only the edited one.
    std::fs::write(&util, UTIL.replace("factor: int = 3", "factor: int = 4")).unwrap();
    let (out, trace) = profiled("dirty");
    assert!(trace.contains(r#""action":"miss","scope":"module","name":"util""#));
    assert!(trace.contains(r#""action":"hit","scope":"module","name":"app""#));
    assert!(
        out.contains("cache: 1 module hits, 1 misses"),
        "unexpected cache line: {out}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_cache_falls_back_to_identical_full_recompile() {
    let dir = workdir("corrupt");
    write_sources(&dir);
    let cache = dir.join("cache");

    let (cold_out, _, _) = build(&dir, &cache, "1", "cold");

    // Flip one byte of a record every build reads: the first module
    // object (an unchanged build replays before reading a code slot).
    let repo = cache.join("repo.naim");
    let mut bytes = std::fs::read(&repo).unwrap();
    let at = bytes
        .windows(5)
        .position(|w| w == b"scale")
        .expect("util's object names its routine");
    bytes[at] ^= 0xFF;
    std::fs::write(&repo, &bytes).unwrap();

    // The fallback succeeds but flags the corruption via exit code 3.
    let (hurt_out, _, hurt_trace) = build_expecting(&dir, &cache, "1", "hurt", 3);
    assert!(
        hurt_trace.contains(r#""action":"invalidate""#),
        "no diagnostic invalidate event: {hurt_trace}"
    );
    assert_eq!(
        stable_output(&cold_out),
        stable_output(&hurt_out),
        "corrupted cache changed the produced image or run output"
    );

    // The fallback also re-stored good entries: the next build replays.
    let (_, _, healed_trace) = build(&dir, &cache, "1", "healed");
    assert!(healed_trace.contains(r#""action":"replay","scope":"build""#));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn api_level_cached_build_replays_and_counts_hits() {
    let dir = workdir("api");
    let cache_dir = dir.join("cache");
    let modules = vec![
        ("util".to_owned(), UTIL.to_owned()),
        ("app".to_owned(), APP.to_owned()),
    ];
    let options = BuildOptions::new(OptLevel::O4);

    let cold = {
        let mut cache = BuildCache::open(&cache_dir).unwrap();
        let mut cc = Compiler::new();
        let hits = cc
            .add_sources_cached_with(&modules, &options, &mut cache)
            .unwrap();
        assert_eq!(hits, 0);
        cc.build_cached(&options, &mut cache).unwrap()
    };
    let warm = {
        let mut cache = BuildCache::open(&cache_dir).unwrap();
        let mut cc = Compiler::new();
        let hits = cc
            .add_sources_cached_with(&modules, &options.clone().with_jobs(4), &mut cache)
            .unwrap();
        assert_eq!(hits, 2, "both modules should hit on the warm run");
        cc.build_cached(&options, &mut cache).unwrap()
    };
    assert_eq!(
        cold.image.to_bytes(),
        warm.image.to_bytes(),
        "replayed image differs from the cold build's"
    );
    assert_eq!(
        cold.report.to_json(),
        warm.report.to_json(),
        "replayed report differs from the cold build's"
    );
    assert_eq!(warm.report.cache.build_hits, 1);
    assert_eq!(warm.report.cache.module_hits, 2);

    // An uncached build of the same modules produces the same image.
    let mut cc = Compiler::new();
    cc.add_sources(&modules, 1).unwrap();
    let uncached = cc.build(&options).unwrap();
    assert_eq!(uncached.image.to_bytes(), cold.image.to_bytes());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn failed_add_leaves_the_compiler_consistent() {
    let dir = workdir("failedadd");
    let cache_dir = dir.join("cache");
    let good = vec![
        ("util".to_owned(), UTIL.to_owned()),
        ("app".to_owned(), APP.to_owned()),
    ];
    let mut bad = good.clone();
    bad[1].1 = "fn main( -> int { return 0; }".to_owned();
    let options = BuildOptions::new(OptLevel::O4);

    let mut cache = BuildCache::open(&cache_dir).unwrap();
    let mut cc = Compiler::new();
    assert!(cc.add_sources(&bad, 1).is_err());
    assert_eq!((cc.n_modules(), cc.fingerprints().len()), (0, 0));
    assert!(cc
        .add_sources_cached_with(&bad, &options, &mut cache)
        .is_err());
    assert_eq!((cc.n_modules(), cc.fingerprints().len()), (0, 0));

    // The corrected re-add builds under the key a fresh driver computes:
    // the fresh driver's build replays it.
    cc.add_sources_cached_with(&good, &options, &mut cache)
        .unwrap();
    assert_eq!((cc.n_modules(), cc.fingerprints().len()), (2, 2));
    let built = cc.build_cached(&options, &mut cache).unwrap();
    assert!(built.report.replayed.is_none());
    drop(cache);

    let mut cache = BuildCache::open(&cache_dir).unwrap();
    let mut fresh = Compiler::new();
    fresh
        .add_sources_cached_with(&good, &options, &mut cache)
        .unwrap();
    assert!(cc.fingerprints().eq(fresh.fingerprints()));
    let warm = fresh.build_cached(&options, &mut cache).unwrap();
    assert!(warm.report.replayed.is_some(), "built under another key");
    assert_eq!(warm.image.to_bytes(), built.image.to_bytes());

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The repository of the cache at `dir`, bound as `BuildCache` binds
/// it: `repo.naim` of a [`DiskStorage`] rooted there.
fn open_repo(dir: &Path) -> cmo_naim::Repository {
    let storage = std::sync::Arc::new(DiskStorage::new(dir).unwrap());
    cmo_naim::Repository::open(storage, "repo.naim").unwrap()
}

/// Damage only a decode can find, through the CLI: `app`'s manifest
/// line re-pointed at a CRC-valid record that is no object. The probe
/// counts a hit; when `util` is edited the link needs `app`, the decode
/// fails, and the build recompiles `app` — exit 3, the image of an
/// uncached build, a healed cache.
#[test]
fn undecodable_record_found_at_link_time_costs_only_a_recompile() {
    use cmo_naim::ContentHash;
    let dir = workdir("latedamage");
    let (util, app) = write_sources(&dir);
    let pristine = dir.join("pristine");
    build(&dir, &pristine, "1", "cold");
    {
        let repo_path = pristine.join("repo.naim");
        let junk = [1u8, 4, b'j', b'u', b'n', b'k']; // object tag, 4 bytes of no object
        let mut repo = open_repo(&pristine);
        repo.store(&junk).unwrap();
        repo.flush_index().unwrap();
        drop(repo);
        let app_line = format!("mod:{}\t", cmo::module_fingerprint("app", APP));
        let manifest: String = std::fs::read_to_string(pristine.join("manifest.tsv"))
            .unwrap()
            .lines()
            .map(|line| match line.strip_prefix(&app_line) {
                Some(_) => format!("{app_line}{}\n", ContentHash::of(&junk).to_hex()),
                None => format!("{line}\n"),
            })
            .collect();
        assert!(manifest.contains(&ContentHash::of(&junk).to_hex()));
        std::fs::write(pristine.join("manifest.tsv"), manifest).unwrap();
        let committed = std::fs::metadata(&repo_path).unwrap().len();
        std::fs::write(
            pristine.join("commit.journal"),
            format!("cmo.journal.v1\n{committed}\n"),
        )
        .unwrap();
    }

    std::fs::write(&util, UTIL.replace("factor: int = 3", "factor: int = 4")).unwrap();
    let uncached = cmocc()
        .args(["+O4", "--emit-asm", "--run", "-"])
        .args([&util, &app])
        .output()
        .unwrap();
    assert!(uncached.status.success());
    let uncached = String::from_utf8_lossy(&uncached.stdout).into_owned();
    for jobs in ["1", "4"] {
        let cache = dir.join(format!("cache-j{jobs}"));
        std::fs::create_dir_all(&cache).unwrap();
        for file in ["repo.naim", "manifest.tsv", "commit.journal"] {
            std::fs::copy(pristine.join(file), cache.join(file)).unwrap();
        }
        let (out, _, trace) = build_expecting(&dir, &cache, jobs, &format!("hurt{jobs}"), 3);
        let hit = trace
            .find(r#""action":"hit","scope":"module","name":"app""#)
            .expect("the probe counts a hit");
        let invalidate = trace
            .find(r#""action":"invalidate","scope":"module","name":"app""#)
            .expect("the link-time decode invalidates it");
        assert!(hit < invalidate, "-j{jobs}: {trace}");
        assert!(
            out.contains("cache: 0 module hits, 2 misses, 1 invalidations"),
            "-j{jobs}: counters differ from an eager decode's: {out}"
        );
        // The disassembly and the run line, past the report.
        let image = |stdout: &str| -> Vec<String> {
            stdout
                .lines()
                .skip_while(|line| !line.contains("; routine #"))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(image(&out), image(&uncached), "-j{jobs}: image differs");
        assert!(image(&out)
            .iter()
            .any(|l| l.starts_with("ran main: returned")));
        let (_, _, healed) = build(&dir, &cache, jobs, &format!("healed{jobs}"));
        assert!(healed.contains(r#""action":"replay","scope":"build""#));
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The code tier's damage path through `cmocc`: `app`'s code slot is
/// re-pointed at a CRC-valid record that is no slot. The next edit's
/// build finds it when it fetches the slots, lowers `app`'s routines
/// afresh — exit 3, the image of an uncached build — and stores a sound
/// slot, so the edit after that replays `main` without a complaint.
#[test]
fn damaged_code_slot_costs_only_a_relowering() {
    use cmo_naim::ContentHash;
    let dir = workdir("codedamage");
    let (util, app) = write_sources(&dir);
    let cache = dir.join("cache");
    build(&dir, &cache, "1", "cold");
    {
        let repo_path = cache.join("repo.naim");
        let junk = [5u8, 4, b'j', b'u', b'n', b'k']; // code tag, no table
        let mut repo = open_repo(&cache);
        repo.store(&junk).unwrap();
        repo.flush_index().unwrap();
        drop(repo);
        let manifest: String = std::fs::read_to_string(cache.join("manifest.tsv"))
            .unwrap()
            .lines()
            .map(|line| match line.strip_prefix("code:o4:app\t") {
                Some(_) => format!("code:o4:app\t{}\n", ContentHash::of(&junk).to_hex()),
                None => format!("{line}\n"),
            })
            .collect();
        assert!(manifest.contains(&ContentHash::of(&junk).to_hex()));
        std::fs::write(cache.join("manifest.tsv"), manifest).unwrap();
        let committed = std::fs::metadata(&repo_path).unwrap().len();
        std::fs::write(
            cache.join("commit.journal"),
            format!("cmo.journal.v1\n{committed}\n"),
        )
        .unwrap();
    }

    // An edit that leaves `main` as it was: a routine nothing calls.
    let edited = format!("{UTIL}fn spare(x: int) -> int {{ return x; }}\n");
    std::fs::write(&util, &edited).unwrap();
    let uncached = cmocc()
        .args(["+O4", "--emit-asm", "--run", "-"])
        .args([&util, &app])
        .output()
        .unwrap();
    assert!(uncached.status.success());
    let uncached = String::from_utf8_lossy(&uncached.stdout).into_owned();
    let image = |stdout: &str| -> Vec<String> {
        stdout
            .lines()
            .skip_while(|line| !line.contains("; routine #"))
            .map(str::to_owned)
            .collect()
    };

    let (out, _, trace) = build_expecting(&dir, &cache, "4", "hurt", 3);
    let invalidate = trace
        .find(r#""action":"invalidate","scope":"code","name":"app""#)
        .unwrap_or_else(|| panic!("the slot fetch invalidates it: {trace}"));
    assert!(
        trace[invalidate..].contains(r#""action":"store","scope":"code","name":"app""#),
        "{trace}"
    );
    assert!(
        out.contains("cache: 1 module hits, 1 misses, 1 invalidations"),
        "{out}"
    );
    assert_eq!(image(&out), image(&uncached), "image differs");
    assert!(image(&out)
        .iter()
        .any(|l| l.starts_with("ran main: returned")));

    std::fs::write(
        &util,
        format!("{edited}fn spare2() -> int {{ return 2; }}\n"),
    )
    .unwrap();
    let (_, _, healed) = build(&dir, &cache, "1", "healed");
    assert!(
        healed.contains(r#""action":"hit","scope":"code","name":"app""#)
            && !healed.contains(r#""action":"store","scope":"code""#),
        "{healed}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

/// `+O4 +P` cached build of `modules` against `cache_dir` at `jobs`
/// workers: (front-end hits, build output, rendered trace).
fn profiled_cached_build(
    cache_dir: &Path,
    modules: &[(String, String)],
    db: &cmo::ProfileDb,
    jobs: usize,
) -> (usize, cmo::BuildOutput, String) {
    let tel = Telemetry::enabled();
    let options = BuildOptions::new(OptLevel::O4)
        .with_profile_db(db.clone())
        .with_jobs(jobs)
        .with_telemetry(tel.clone());
    let mut cache = BuildCache::open(cache_dir).unwrap();
    let mut cc = Compiler::new();
    let hits = cc
        .add_sources_cached_with(modules, &options, &mut cache)
        .unwrap();
    let out = cc.build_cached(&options, &mut cache).unwrap();
    (hits, out, tel.render_trace())
}

#[test]
fn one_module_edit_under_pbo_recompiles_only_that_module() {
    let dir = workdir("pboedit");
    let mut modules = vec![
        ("util".to_owned(), UTIL.to_owned()),
        (
            "mid".to_owned(),
            "extern fn scale(x: int) -> int;\n\
             fn twice(x: int) -> int { return scale(x) + scale(x + 1); }\n"
                .to_owned(),
        ),
        (
            "leaf".to_owned(),
            "fn bump(x: int) -> int { return x + 7; }\n".to_owned(),
        ),
        (
            "app".to_owned(),
            "extern fn twice(x: int) -> int;\n\
             extern fn bump(x: int) -> int;\n\
             fn main() -> int {\n\
                 var i: int = 0;\n\
                 var acc: int = 0;\n\
                 while (i < 40) { acc = acc + twice(i) + bump(i); i = i + 1; }\n\
                 return acc % 1000;\n\
             }\n"
            .to_owned(),
        ),
    ];
    let n = modules.len();
    let db = {
        let mut cc = Compiler::new();
        cc.add_sources(&modules, 1).unwrap();
        let train = cc.build(&BuildOptions::instrumented()).unwrap();
        train.run_for_profile(&[]).unwrap()
    };

    // Two identical cold caches, one per worker count, so both
    // rebuilds meet the cache exactly as the cold build left it.
    let caches = [dir.join("cache-j1"), dir.join("cache-j4")];
    for cache_dir in &caches {
        let (hits, cold, _) = profiled_cached_build(cache_dir, &modules, &db, 1);
        assert_eq!(hits, 0);
        assert_eq!(cold.report.cache.module_misses, n as u64);
    }

    // The edit: one new routine in one module.
    modules[2]
        .1
        .push_str("fn unused_extra(x: int) -> int { return x * 5; }\n");
    let uncached = {
        let mut cc = Compiler::new();
        cc.add_sources(&modules, 1).unwrap();
        cc.build(&BuildOptions::new(OptLevel::O4).with_profile_db(db.clone()))
            .unwrap()
    };
    let mut traces = Vec::new();
    for (cache_dir, jobs) in caches.iter().zip([1, 4]) {
        let (hits, out, trace) = profiled_cached_build(cache_dir, &modules, &db, jobs);
        assert_eq!(hits, n - 1, "-j{jobs}: every untouched module hits");
        assert_eq!(out.report.cache.module_hits, (n - 1) as u64);
        assert_eq!(out.report.cache.module_misses, 1);
        assert!(out.report.replayed.is_none(), "the edit re-keys the build");
        assert_eq!(
            out.image.to_bytes(),
            uncached.image.to_bytes(),
            "-j{jobs}: image differs from an uncached build of the edited sources"
        );
        traces.push(trace);
    }
    assert_eq!(traces[0], traces[1], "trace differs between -j1 and -j4");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// One-line edits the GC tests bloat a cache with.
const EDITS: usize = 20;

/// `util` after the `i`-th one-line edit.
fn edited_util(i: usize) -> String {
    UTIL.replace("factor: int = 3", &format!("factor: int = {}", 4 + i))
}

#[test]
fn gc_cache_compacts_the_repository_and_keeps_warm_replay_byte_identical() {
    let dir = workdir("gccli");
    write_sources(&dir);
    let cache = dir.join("cache");

    let (cold_out, cold_json, _) = build(&dir, &cache, "1", "cold");
    // A rebuild that changes nothing commits nothing, so bloat the way
    // real use does: each edit of one module commits a generation whose
    // fresh index segment orphans the previous one, and the dead share
    // of the repository climbs well past 50%.
    for i in 0..EDITS {
        std::fs::write(dir.join("util.mlc"), edited_util(i)).unwrap();
        build(&dir, &cache, "1", &format!("bloat{i}"));
    }
    // Back to the original sources, whose keys are still in the manifest.
    std::fs::write(dir.join("util.mlc"), UTIL).unwrap();
    let repo = cache.join("repo.naim");
    let size_bloated = std::fs::metadata(&repo).unwrap().len();

    // Standalone compaction: no input files, just --gc-cache.
    let trace_path = dir.join("gc.trace");
    let out = cmocc()
        .args(["--gc-cache", "--cache-dir"])
        .arg(&cache)
        .arg("--trace")
        .arg(&trace_path)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("gc reclaimed") && stderr.contains("ms)"),
        "missing gc summary on stderr: {stderr}"
    );
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    assert!(
        trace.contains(r#""event":"cache","action":"gc""#),
        "no gc event in trace: {trace}"
    );
    let size_compacted = std::fs::metadata(&repo).unwrap().len();
    assert!(
        size_compacted * 2 <= size_bloated,
        "gc reclaimed less than half of the bloated repository: \
         {size_bloated} -> {size_compacted}"
    );

    // The compacted cache replays the cold build byte for byte.
    let (warm_out, warm_json, warm_trace) = build(&dir, &cache, "4", "warm");
    assert_eq!(stable_output(&cold_out), stable_output(&warm_out));
    assert_eq!(cold_json, warm_json);
    assert!(warm_trace.contains(r#""action":"replay","scope":"build""#));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gc_flags_validate_their_dependencies() {
    let dir = workdir("gcflags");
    let (util, _) = write_sources(&dir);

    // --gc-cache needs a cache to compact.
    let out = cmocc().arg("--gc-cache").arg(&util).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--gc-cache requires --cache-dir"));

    // So does --gc-threshold-bytes.
    let out = cmocc()
        .args(["--gc-threshold-bytes", "4096"])
        .arg(&util)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--gc-threshold-bytes requires --cache-dir")
    );

    // Standalone --gc-cache runs no build: build-output flags conflict.
    let out = cmocc()
        .args(["--gc-cache", "--cache-dir"])
        .arg(dir.join("cache"))
        .args(["--run", "-"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("conflicts with standalone --gc-cache"));

    // Without --gc-cache, an empty input list is still an error.
    let out = cmocc()
        .arg("--cache-dir")
        .arg(dir.join("cache"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no input files"));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gc_threshold_compacts_during_cached_build_without_changing_output() {
    let dir = workdir("gcauto");
    let cache_dir = dir.join("cache");
    let modules = vec![
        ("util".to_owned(), UTIL.to_owned()),
        ("app".to_owned(), APP.to_owned()),
    ];
    let options = BuildOptions::new(OptLevel::O4);

    let run = |modules: &[(String, String)], options: &BuildOptions| {
        let mut cache = BuildCache::open(&cache_dir).unwrap();
        let mut cc = Compiler::new();
        cc.add_sources_cached_with(modules, options, &mut cache)
            .unwrap();
        cc.build_cached(options, &mut cache).unwrap()
    };
    let cold = run(&modules, &options);
    // Every build that stores something persists a fresh index segment,
    // orphaning the previous one: edits steadily grow the dead-byte
    // share. (A warm rebuild stores nothing and appends nothing.)
    for i in 0..EDITS {
        let mut edited = modules.clone();
        edited[0].1 = edited_util(i);
        run(&edited, &options);
    }
    let repo = cache_dir.join("repo.naim");
    let size_bloated = std::fs::metadata(&repo).unwrap().len();

    // A threshold of 0 means "compact whenever any byte is dead".
    let tel = Telemetry::enabled();
    let gc_options = BuildOptions::new(OptLevel::O4)
        .with_gc_threshold_bytes(0)
        .with_telemetry(tel.clone());
    let compacted = run(&modules, &gc_options);
    let trace = tel.render_trace();
    assert!(
        trace.contains(r#""event":"cache","action":"gc""#),
        "no gc event in trace: {trace}"
    );
    assert!(
        trace.contains(r#""action":"replay","scope":"build""#),
        "the gc run should still replay the cold build: {trace}"
    );
    let size_compacted = std::fs::metadata(&repo).unwrap().len();
    assert!(
        size_compacted < size_bloated,
        "gc did not shrink the repository: {size_bloated} -> {size_compacted}"
    );

    // The compacted cache still replays byte-for-byte, during the gc
    // run itself and on the next plain warm build.
    assert_eq!(compacted.image.to_bytes(), cold.image.to_bytes());
    assert_eq!(compacted.report.to_json(), cold.report.to_json());
    let warm = run(&modules, &options);
    assert_eq!(warm.image.to_bytes(), cold.image.to_bytes());

    std::fs::remove_dir_all(&dir).unwrap();
}
