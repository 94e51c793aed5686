//! Figure 7 (reproduction extra): cold vs warm build cost with the
//! persistent incremental cache.
//!
//! The paper's §6.1 describes the `make` flow — IL objects persist on
//! disk so the front end runs only for changed sources, and the
//! expensive cross-module optimization re-runs at link time. The
//! persistent content-addressed repository extends that flow: a warm
//! rebuild with no changed sources replays the linked image and
//! report straight from the cache, and an edit to one module re-runs
//! the front end for that module only before the whole-program
//! optimization re-runs.
//!
//! Scenarios measured (all byte-identical outputs, asserted):
//!
//! * `cold`    — empty cache, everything compiles and is stored;
//! * `warm`    — nothing changed, whole build replays from the cache;
//! * `dirty1`  — one module edited (a routine nothing calls appended):
//!   the front end re-runs for it alone, and the code tier replays
//!   every live routine's lowering;
//! * `dirty1-live` — one line of a reachable routine's body edited:
//!   that routine (and whatever its change reaches through HLO) is
//!   lowered again, the rest replayed;
//! * `recover` — torn repository rolled back on open, then rebuilt;
//! * `cold+P` / `warm+P` / `dirty1+P` / `dirty1-live+P` — the first
//!   four under `+O4 +P`;
//! * `retrain` — sources unchanged, profile database retrained: every
//!   module hits (front-end objects do not depend on the profile), and
//!   the build re-runs because its key covers the database.
//!
//! Every scenario is repeated (9 times; 3 under `--smoke`) from the
//! same restored cache state, and its wall time reported as median and
//! median absolute deviation. Four columns are deterministic and gated:
//! `objects_decoded` (cache hits actually decoded into IL objects),
//! `repo_bytes_appended` (bytes the build added to `repo.naim`), and
//! the work split `routines_lowered` / `routines_replayed` (live
//! routines `lower_routine` ran on / taken from the code tier) — all
//! zero on a warm replay, which performs no work at all.
//!
//! Run with `cargo run --release -p cmo-bench --bin fig7_incremental`.
//! Flags: `--smoke` (quarter-scale app), `--json-out <path>` (write a
//! `cmo.bench.v1` snapshot for `bench-diff`).

use cmo::{BuildCache, BuildOptions, BuildOutput, Compiler, OptLevel};
use cmo_bench::{bench_args, write_csv, BenchReport, BenchRow};
use cmo_profile::ProbeKey;
use cmo_synth::{generate, mcad_preset};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `(module name, source)` pairs, as the driver takes them.
type Sources = [(String, String)];

/// One cached build: what it produced and what it cost.
struct Sample {
    hits: usize,
    out: BuildOutput,
    ms: f64,
    objects_decoded: u64,
    repo_bytes_appended: u64,
    routines_lowered: u64,
    routines_replayed: u64,
}

impl Sample {
    /// The deterministic counters every repetition must reproduce.
    fn counters(&self) -> (usize, u64, u64, u64, u64) {
        (
            self.hits,
            self.objects_decoded,
            self.repo_bytes_appended,
            self.routines_lowered,
            self.routines_replayed,
        )
    }
}

/// `BuildCache::open` + cached front end + cached build on the cache
/// in `dir`, timed end to end.
fn cached_build(dir: &Path, modules: &[(String, String)], options: &BuildOptions) -> Sample {
    let t0 = Instant::now();
    let mut cache = BuildCache::open(dir).expect("open cache");
    let mut cc = Compiler::new();
    let hits = cc
        .add_sources_cached_with(modules, options, &mut cache)
        .expect("front end");
    let out = cc.build_cached(options, &mut cache).expect("build");
    Sample {
        hits,
        ms: t0.elapsed().as_secs_f64() * 1e3,
        objects_decoded: cache.objects_decoded(),
        repo_bytes_appended: cache.repo_bytes_appended(),
        routines_lowered: cache.routines_lowered(),
        routines_replayed: cache.routines_replayed(),
        out,
    }
}

/// Replaces the flat directory `dst` with a copy of `src` (an absent
/// `src` leaves `dst` absent: the empty cache).
fn restore(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    if !src.exists() {
        return;
    }
    std::fs::create_dir_all(dst).expect("create cache dir");
    for entry in std::fs::read_dir(src).expect("read snapshot") {
        let entry = entry.expect("snapshot entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy cache file");
    }
}

/// Median and median absolute deviation.
fn median_mad(samples: &[f64]) -> (f64, f64) {
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let mid = median(&mut samples.to_vec());
    let mad = median(&mut samples.iter().map(|s| (s - mid).abs()).collect());
    (mid, mad)
}

/// Everything the scenarios share: where the caches live, how often to
/// repeat, and the rows collected so far.
struct Bench {
    scratch: PathBuf,
    reps: usize,
    ref_input: Vec<i64>,
    /// Run checksum every scenario must reproduce.
    checksum: Option<u64>,
    csv: Vec<String>,
    rows: Vec<BenchRow>,
}

impl Bench {
    fn dir(&self, name: &str) -> PathBuf {
        self.scratch.join(name)
    }

    /// Runs `op` `reps` times, each on the cache `work` restored from
    /// the snapshot `from`, and records one row (`op` times itself, so
    /// it may first prepare the cache untimed). Returns the median wall
    /// time; `work` keeps the last repetition's state for the next
    /// scenario to snapshot.
    fn scenario(
        &mut self,
        name: &str,
        (from, work): (&Path, &Path),
        base_ms: Option<f64>,
        op: &dyn Fn(&Path) -> Sample,
    ) -> (f64, Sample) {
        let mut samples: Vec<Sample> = (0..self.reps)
            .map(|_| {
                restore(from, work);
                op(work)
            })
            .collect();
        let times: Vec<f64> = samples.iter().map(|s| s.ms).collect();
        let (ms, mad) = median_mad(&times);
        let last = samples.pop().expect("at least one repetition");
        for s in &samples {
            assert_eq!(
                s.counters(),
                last.counters(),
                "{name}: repetitions from one cache state differ"
            );
        }
        // The cache must never change what the program computes.
        let run = last.out.run(&self.ref_input).expect("run");
        let expected = *self.checksum.get_or_insert(run.checksum);
        assert_eq!(run.checksum, expected, "{name} changed behaviour");
        let replayed = last.out.report.cache.build_hits > 0;
        let speedup = base_ms.unwrap_or(ms) / ms;
        println!(
            "{:>13} {:>8} {:>7} {:>9.2} {:>7.2} {:>12} {:>8} {:>10} {:>8} {:>9} {:>8.2}",
            name,
            last.hits,
            if replayed { "yes" } else { "no" },
            ms,
            mad,
            last.out.report.compile_work,
            last.objects_decoded,
            last.repo_bytes_appended,
            last.routines_lowered,
            last.routines_replayed,
            speedup
        );
        self.csv.push(format!(
            "{},{},{},{:.2},{:.2},{},{},{},{},{},{:.3}",
            name,
            last.hits,
            u8::from(replayed),
            ms,
            mad,
            last.out.report.compile_work,
            last.objects_decoded,
            last.repo_bytes_appended,
            last.routines_lowered,
            last.routines_replayed,
            speedup
        ));
        let mut row = BenchRow::new(name);
        row.int("frontend_hits", last.hits as u64)
            .int("build_replayed", u64::from(replayed))
            .int("compile_work", last.out.report.compile_work)
            .int("work_units", last.out.report.loader.work_units)
            .int("fetch_work_units", last.out.report.loader.fetch_work_units)
            .int("peak_bytes", last.out.report.peak_bytes() as u64)
            .int("objects_decoded", last.objects_decoded)
            .int("repo_bytes_appended", last.repo_bytes_appended)
            .int("routines_lowered", last.routines_lowered)
            .int("routines_replayed", last.routines_replayed)
            .float("wall_ms", ms)
            .float("wall_mad_ms", mad)
            .float("speedup_vs_cold", speedup);
        self.rows.push(row);
        (ms, last)
    }

    /// `cold`, `warm`, `dirty1-live` and `dirty1` (names suffixed with
    /// `tag`) under `options`; leaves the cold + dirty1 cache in
    /// `dir("work")` and returns the cold build's median wall time.
    fn cold_warm_dirty(
        &mut self,
        tag: &str,
        modules: &Sources,
        (dirty, dirty_live): (&Sources, &Sources),
        options: &BuildOptions,
    ) -> f64 {
        let (empty, cold, work) = (self.dir("empty"), self.dir("cold"), self.dir("work"));
        let (cold_ms, _) = self.scenario(&format!("cold{tag}"), (&empty, &work), None, &|dir| {
            cached_build(dir, modules, options)
        });
        restore(&work, &cold);
        self.scenario(
            &format!("warm{tag}"),
            (&cold, &work),
            Some(cold_ms),
            &|dir| cached_build(dir, modules, options),
        );
        let (_, live) = self.scenario(
            &format!("dirty1-live{tag}"),
            (&cold, &work),
            Some(cold_ms),
            &|dir| cached_build(dir, dirty_live, options),
        );
        let (_, dead) = self.scenario(
            &format!("dirty1{tag}"),
            (&cold, &work),
            Some(cold_ms),
            &|dir| cached_build(dir, dirty, options),
        );
        // What the code tier is for: an edit re-lowers what it changed.
        assert_eq!(
            dead.routines_lowered, 0,
            "dirty1{tag}: no live routine changed"
        );
        assert!(
            (1..=3).contains(&live.routines_lowered),
            "dirty1-live{tag}: {} routines lowered for a one-line edit",
            live.routines_lowered
        );
        cold_ms
    }
}

fn main() {
    let args = bench_args();
    let scale = if args.smoke { 0.25 } else { 0.5 };
    let app = generate(&mcad_preset("mcad1", scale));
    let scratch = std::env::temp_dir().join(format!("cmo-fig7-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut bench = Bench {
        scratch: scratch.clone(),
        reps: if args.smoke { 3 } else { 9 },
        ref_input: app.ref_input.clone(),
        checksum: None,
        csv: Vec::new(),
        rows: Vec::new(),
    };

    println!(
        "Figure 7: incremental recompilation on {} ({} lines, {} modules), median of {}",
        app.name,
        app.total_lines,
        app.modules.len(),
        bench.reps
    );
    println!(
        "{:>13} {:>8} {:>7} {:>9} {:>7} {:>12} {:>8} {:>10} {:>8} {:>9} {:>8}",
        "scenario",
        "fe_hits",
        "replay",
        "build ms",
        "mad",
        "work units",
        "decoded",
        "appended",
        "lowered",
        "replayed",
        "speedup"
    );

    // Edit one module: append a routine nothing calls. The program's
    // behaviour is unchanged, but the module's fingerprint — and with
    // it the whole-build key — is not.
    let mut dirty = app.modules.clone();
    dirty[0]
        .1
        .push_str("\nfn fig7_touched(x: int) -> int { return x; }\n");

    // Edit one line of a routine that runs: `main` gains a variable it
    // never reads. Its body, frame and code change (and with them its
    // code-tier key and the image); what the program computes does not.
    let mut dirty_live = app.modules.clone();
    dirty_live[0].1 = dirty_live[0].1.replace(
        "    var it: int = 0;\n",
        "    var it: int = 0; var fig7_spare: int = 7;\n",
    );
    assert_ne!(dirty_live[0].1, app.modules[0].1, "main's body edit took");

    let plain = BuildOptions::new(OptLevel::O4);
    let cold_ms = bench.cold_warm_dirty("", &app.modules, (&dirty, &dirty_live), &plain);

    // Crash recovery: tear the repository's tail, as a kill -9 during
    // an append would. open() truncates back to the last well-framed
    // record, invalidates dangling manifest entries, and the rebuild
    // must reproduce the same program — the cost shown is the price of
    // recovering instead of starting cold. (A fifth of the file: into
    // the image the edit's build appended last, as a crash during that
    // append would leave it, and short of the object stored before it.)
    let (torn, work) = (bench.dir("torn"), bench.dir("work"));
    restore(&work, &torn);
    let tear = |dir: &Path| {
        let repo = dir.join("repo.naim");
        let mut bytes = std::fs::read(&repo).expect("read repo");
        let keep = bytes.len().saturating_sub(bytes.len() / 5);
        bytes.truncate(keep);
        std::fs::write(&repo, &bytes).expect("tear repo");
    };
    bench.scenario("recover", (&torn, &work), Some(cold_ms), &|dir| {
        tear(dir);
        cached_build(dir, &dirty, &plain)
    });

    // The same four scenarios under +O4 +P.
    let mut cc = Compiler::new();
    cc.add_sources(&app.modules, 1).expect("front end");
    let train = cc
        .build(&BuildOptions::instrumented())
        .expect("train build");
    let db1 = train.run_for_profile(&app.ref_input).expect("training run");
    let profiled = BuildOptions::new(OptLevel::O4).with_profile_db(db1.clone());
    bench.cold_warm_dirty("+P", &app.modules, (&dirty, &dirty_live), &profiled);

    // Retrain: the sources are untouched but the profile database is
    // not — the situation §6.2's feedback flow hits on every fresh
    // training run. Front-end objects are keyed on their source alone,
    // so every module hits; the build key covers the database, so HLO,
    // LLO and the link re-run, and the image still matches a cold build
    // under the new database byte for byte.
    {
        // The retrained database: one routine's hot block moves, as a
        // shifted workload would move it.
        let (name, shape) = db1
            .iter()
            .next()
            .map(|(name, routine)| (name.to_owned(), routine.shape))
            .expect("training run populated the database");
        let mut db2 = db1.clone();
        db2.record(
            &[(ProbeKey::block(&name, 0), 50_000)],
            &[(name.clone(), shape)],
        );
        let options =
            |db: &cmo::ProfileDb| BuildOptions::new(OptLevel::O4).with_profile_db(db.clone());
        let seeded = bench.dir("retrain-cold");
        let cold = cached_build(&seeded, &app.modules, &options(&db1));
        let work = bench.dir("work");
        let (_, warm) = bench.scenario("retrain", (&seeded, &work), Some(cold.ms), &|dir| {
            cached_build(dir, &app.modules, &options(&db2))
        });
        // The cache must change neither the image nor the behaviour.
        let fresh = cc.build(&options(&db2)).expect("fresh build");
        assert_eq!(
            warm.out.image.code, fresh.image.code,
            "retrain-warm image must match a cold build of the same database"
        );
        let stats = warm.out.report.cache;
        assert_eq!(
            (stats.module_hits, stats.module_misses, stats.build_hits),
            (app.modules.len() as u64, 0, 0),
            "a retrain reuses every module and re-runs the build"
        );
        println!(
            "          retrain: {} module hits, {} misses",
            stats.module_hits, stats.module_misses
        );
        let row = bench.rows.last_mut().expect("retrain row");
        row.int("module_hits", stats.module_hits)
            .int("module_misses", stats.module_misses);
    }

    write_csv(
        "fig7_incremental.csv",
        "scenario,frontend_hits,build_replayed,build_ms,mad_ms,work_units,objects_decoded,repo_bytes_appended,routines_lowered,routines_replayed,speedup_vs_cold",
        &bench.csv,
    );
    if let Some(path) = &args.json_out {
        let mut snapshot = BenchReport::new("fig7", args.smoke);
        snapshot.rows = bench.rows;
        snapshot.write(path);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    println!();
    println!("A warm rebuild replays the image and report from the cache (§6.1's");
    println!("make flow, extended to the whole optimizing link) without decoding");
    println!("an object or writing a byte; editing one module re-runs the front");
    println!("end for that module and the low-level optimizer for the routines the");
    println!("edit changed. A torn repository is rolled back on open and rebuilt,");
    println!("never trusted.");
}
