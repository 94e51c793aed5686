//! End-to-end tests of the `cmocc` command-line driver: the developer
//! workflow of §3/§6.1 run through a real process — separate
//! compilation to object files, an instrumented run producing a
//! profile database on disk, and a profile-guided CMO link.

use std::path::PathBuf;
use std::process::Command;

fn cmocc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cmocc"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cmocc-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const LIB: &str = "fn triple(x: int) -> int { return x * 3; }\n";
const APP: &str = r#"
extern fn triple(x: int) -> int;
fn main() -> int {
    var n: int = input();
    var acc: int = 0;
    var i: int = 0;
    while (i < n) { acc = acc + triple(i); i = i + 1; }
    output(acc);
    return acc % 1000;
}
"#;

#[test]
fn full_workflow_through_the_cli() {
    let dir = workdir("flow");
    let lib = dir.join("lib.mlc");
    let app = dir.join("app.mlc");
    std::fs::write(&lib, LIB).unwrap();
    std::fs::write(&app, APP).unwrap();

    // 1. Separate compilation: -c writes .cmo object files.
    let out = cmocc().args(["-c"]).arg(&lib).arg(&app).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("lib.cmo").exists());
    assert!(dir.join("app.cmo").exists());

    // 2. Instrumented build + training run straight from the objects,
    //    writing the profile database.
    let db = dir.join("train.db");
    let out = cmocc()
        .args(["+I", "--run", "500", "--profile-out"])
        .arg(&db)
        .arg(dir.join("lib.cmo"))
        .arg(dir.join("app.cmo"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(db.exists());

    // 3. +O4 +P link with report; run and compare against +O2.
    let run = |extra: &[&str]| -> String {
        let mut cmd = cmocc();
        cmd.args(extra);
        cmd.arg(dir.join("lib.cmo")).arg(dir.join("app.cmo"));
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let o2 = run(&["+O2", "--run", "500"]);
    let o4 = run(&[
        "+O4",
        "+P",
        db.to_str().unwrap(),
        "--run",
        "500",
        "--report",
    ]);
    let checksum = |s: &str| {
        s.lines()
            .find(|l| l.contains("checksum"))
            .unwrap()
            .split("checksum ")
            .nth(1)
            .unwrap()
            .to_owned()
    };
    assert_eq!(checksum(&o2), checksum(&o4), "CMO changed behaviour");
    assert!(o4.contains("inlines"), "report missing: {o4}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn emit_asm_lists_routines() {
    let dir = workdir("asm");
    let app = dir.join("solo.mlc");
    std::fs::write(&app, "fn main() -> int { return 42; }\n").unwrap();
    let out = cmocc().args(["--emit-asm"]).arg(&app).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("main:"));
    assert!(text.contains("ret"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn diagnostics_and_exit_codes() {
    // Unknown option.
    let out = cmocc().args(["--bogus", "x.mlc"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    // Frontend error carries the file and position.
    let dir = workdir("err");
    let bad = dir.join("bad.mlc");
    std::fs::write(&bad, "fn main( { }").unwrap();
    let out = cmocc().arg(&bad).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad.mlc"), "{err}");

    // Missing main.
    let lonely = dir.join("lonely.mlc");
    std::fs::write(&lonely, "fn f() -> int { return 1; }").unwrap();
    let out = cmocc().arg(&lonely).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_nine_parameter_routine_is_a_diagnostic_never_a_panic() {
    // Before the front end enforced the limit, +O2 panicked in the
    // backend (exit 101) and +O4 built only because the callee was
    // inlined away.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/nine_params.mlc"
    );
    for args in [&["+O2"][..], &["+O4", "--run", "1"]] {
        let out = cmocc().args(args).arg(fixture).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            err.contains(
                "nine_params.mlc:4:1: `sum9` declares 9 parameters, at most 8 are supported"
            ),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn a_corrupted_object_is_a_diagnostic_never_a_panic() {
    // Before the IL decoder bounded every operand by its body's counts
    // and the linker checked symbols, local shapes and call sites, 212
    // of these 1 168 flips made `cmocc +O2` panic: in the local
    // optimizer, the interner, the linker and the emitter.
    let dir = workdir("corrupt");
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/mlc");
    let modules = ["hot", "lib", "prog", "util"];
    for m in modules {
        std::fs::copy(format!("{examples}/{m}.mlc"), dir.join(format!("{m}.mlc"))).unwrap();
    }
    let compiled = cmocc()
        .current_dir(&dir)
        .arg("-c")
        .args(modules.map(|m| format!("{m}.mlc")))
        .output()
        .unwrap();
    assert!(compiled.status.success());
    let prog = std::fs::read(dir.join("prog.cmo")).unwrap();
    let objects = modules.map(|m| {
        if m == "prog" {
            "bad.cmo".to_owned()
        } else {
            format!("{m}.cmo")
        }
    });
    let mut failed = 0;
    for bit in 0..prog.len() * 8 {
        let mut bad = prog.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(dir.join("bad.cmo"), &bad).unwrap();
        let out = cmocc()
            .current_dir(&dir)
            .arg("+O2")
            .args(&objects)
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        match out.status.code() {
            Some(0) => {}
            Some(1) => failed += 1,
            status => panic!("flipping bit {bit} of prog.cmo: status {status:?}\n{err}"),
        }
    }
    assert!(failed > 0, "no flip was rejected");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_json_and_trace_are_versioned_and_reproducible() {
    let dir = workdir("telemetry");
    let lib = dir.join("lib.mlc");
    let app = dir.join("app.mlc");
    std::fs::write(&lib, LIB).unwrap();
    std::fs::write(&app, APP).unwrap();

    // Train a profile so the +O4 +P pipeline (selectivity, hot-site
    // inlining) actually runs.
    let db = dir.join("train.db");
    let out = cmocc()
        .args(["+I", "--run", "200", "--profile-out"])
        .arg(&db)
        .arg(&lib)
        .arg(&app)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let emit = |tag: &str| -> (String, String) {
        let report = dir.join(format!("report-{tag}.json"));
        let trace = dir.join(format!("trace-{tag}.jsonl"));
        let out = cmocc()
            .args(["+O4", "+P"])
            .arg(&db)
            .args(["--budget", "1", "--report-json"])
            .arg(&report)
            .arg("--trace")
            .arg(&trace)
            .arg(&lib)
            .arg(&app)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            std::fs::read_to_string(&report).unwrap(),
            std::fs::read_to_string(&trace).unwrap(),
        )
    };
    let (report_a, trace_a) = emit("a");
    let (report_b, trace_b) = emit("b");
    assert_eq!(
        report_a, report_b,
        "report must be byte-identical across runs"
    );
    assert_eq!(trace_a, trace_b, "trace must be byte-identical across runs");
    assert!(
        report_a.contains("\"schema\": \"cmo.report.v1\""),
        "{report_a}"
    );
    for section in ["\"selection\"", "\"hlo\"", "\"loader\"", "\"phases\""] {
        assert!(report_a.contains(section), "missing {section}: {report_a}");
    }
    assert!(
        trace_a.starts_with("{\"schema\":\"cmo.trace.v1\"}\n"),
        "{trace_a}"
    );
    // The CLI's extra "parse" phase wraps source loading.
    assert!(report_a.contains("\"name\": \"parse\""), "{report_a}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_flag_values_are_diagnosed_not_panicked() {
    // Every case must exit 2 with a diagnostic on stderr — no panic
    // backtraces, no silently ignored options.
    let cases: &[&[&str]] = &[
        // --sel must be a finite percentage in [0, 100].
        &["--sel", "NaN", "x.mlc"],
        &["--sel", "inf", "x.mlc"],
        &["--sel", "-3", "x.mlc"],
        &["--sel", "250", "x.mlc"],
        // --budget in MiB must not overflow the byte count (this used
        // to hit a `mib << 20` debug-mode panic).
        &["--budget", "99999999999999999999", "x.mlc"],
        &["--budget", "18446744073709551615", "x.mlc"],
        // Worker counts must be positive.
        &["-j", "0", "x.mlc"],
        &["--jobs", "nope", "x.mlc"],
        // -c builds no image, so image-consuming flags conflict.
        &["-c", "--run", "1", "x.mlc"],
        &["-c", "--emit-asm", "x.mlc"],
        &["-c", "--report", "x.mlc"],
        &["-c", "--report-json", "r.json", "x.mlc"],
        &["-c", "--trace", "t.jsonl", "x.mlc"],
        // A profile database can only come out of a run.
        &["--profile-out", "p.db", "x.mlc"],
        // Flags that expect a value must say so when it is missing.
        &["--sel"],
        &["--budget"],
        &["-j"],
    ];
    for args in cases {
        let out = cmocc().args(*args).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "expected usage error for {args:?}, got {:?}\nstderr: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.is_empty(), "no diagnostic for {args:?}");
        assert!(
            !err.contains("panicked"),
            "panic instead of diagnostic for {args:?}: {err}"
        );
    }

    // A removed flag is an unknown option, not a silent no-op.
    for removed in [
        &["--shards", "2"][..],
        &["--profile-slice-granularity", "module"],
        &["--no-cache"],
        &["--no-mmap"],
    ] {
        let flag = removed[0];
        let out = cmocc().args(removed).arg("x.mlc").output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown option `{flag}`")), "{err}");
    }

    // A missing input file is a runtime failure (exit 1), not a crash.
    let out = cmocc().arg("no-such-file.mlc").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no-such-file.mlc"), "{err}");
}

#[test]
fn jobs_flag_reproduces_report_and_trace_byte_for_byte() {
    let dir = workdir("jobs");
    let lib = dir.join("lib.mlc");
    let app = dir.join("app.mlc");
    std::fs::write(&lib, LIB).unwrap();
    std::fs::write(&app, APP).unwrap();

    let emit = |tag: &str, jflag: &str| -> (String, String) {
        let report = dir.join(format!("report-{tag}.json"));
        let trace = dir.join(format!("trace-{tag}.jsonl"));
        let out = cmocc()
            .args(["+O4", jflag, "--budget", "1", "--report-json"])
            .arg(&report)
            .arg("--trace")
            .arg(&trace)
            .arg(&lib)
            .arg(&app)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            std::fs::read_to_string(&report).unwrap(),
            std::fs::read_to_string(&trace).unwrap(),
        )
    };
    let (report_1, trace_1) = emit("j1", "-j1");
    let (report_4, trace_4) = emit("j4", "-j4");
    assert_eq!(report_1, report_4, "-j4 report differs from -j1");
    assert_eq!(trace_1, trace_4, "-j4 trace differs from -j1");
    assert!(trace_1.contains("\"worker\":"), "{trace_1}");

    // The spaced `--jobs N` spelling is accepted too.
    let out = cmocc()
        .args(["--jobs", "4", "--run", "10"])
        .arg(&lib)
        .arg(&app)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The memory-mapped read path is a pure transport optimization: cold
/// and warm cached builds produce byte-identical reports with mmap on
/// and declined, at -j1 and -j4 (the cost model charges fetches by
/// length, never by how the bytes arrived).
#[test]
fn mmap_toggle_reproduces_reports_byte_for_byte() {
    let dir = workdir("mmap");
    let lib = dir.join("lib.mlc");
    let app = dir.join("app.mlc");
    std::fs::write(&lib, LIB).unwrap();
    std::fs::write(&app, APP).unwrap();

    let emit = |tag: &str, cache: &str, jflag: &str, envs: &[(&str, &str)]| {
        let report = dir.join(format!("report-{tag}.json"));
        let cache = dir.join(format!("cache-{cache}"));
        let mut cmd = cmocc();
        cmd.args(["+O4", jflag, "--budget", "0", "--cache-dir"])
            .arg(&cache)
            .arg("--report-json")
            .arg(&report)
            .arg(&lib)
            .arg(&app);
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(&report).unwrap()
    };

    let on_cold = emit("on-cold", "on", "-j1", &[]);
    let on_warm = emit("on-warm", "on", "-j4", &[]);
    assert_eq!(on_cold, on_warm, "warm report differs from cold (mmap on)");

    // `CMO_NO_MMAP=1` forces the decline-to-map arm that non-unix
    // builds always take (`DiskStorage::map` answers `Ok(None)` before
    // reaching the platform mmap), so unix CI exercises that path
    // without a cross build.
    let declined = [("CMO_NO_MMAP", "1")];
    let declined_cold = emit("declined-cold", "declined", "-j1", &declined);
    let declined_warm = emit("declined-warm", "declined", "-j4", &declined);
    assert_eq!(
        declined_cold, declined_warm,
        "warm report differs from cold (map declined)"
    );
    assert_eq!(on_cold, declined_cold, "CMO_NO_MMAP=1 changed the report");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compile_only_messages_follow_input_order_at_any_jobs() {
    let dir = workdir("corder");
    let mut paths = Vec::new();
    for i in 0..6 {
        let p = dir.join(format!("m{i}.mlc"));
        let body = if i == 0 {
            "fn main() -> int { return 0; }\n".to_owned()
        } else {
            format!("fn f{i}(x: int) -> int {{ return x + {i}; }}\n")
        };
        std::fs::write(&p, body).unwrap();
        paths.push(p);
    }
    let run = |jobs: &str| -> String {
        let out = cmocc()
            .args(["-c", "-j", jobs])
            .args(&paths)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert_eq!(run("1"), run("4"), "-c progress output depends on -j");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn builds_under_memory_pressure() {
    let dir = workdir("pressure");
    let mut src = String::from("fn main() -> int {\n var acc: int = 0;\n");
    for i in 0..300 {
        src.push_str(&format!(" acc = acc + {i};\n"));
    }
    src.push_str(" return acc; }\n");
    let f = dir.join("big.mlc");
    std::fs::write(&f, src).unwrap();
    let out = cmocc()
        .args(["+O4", "--budget", "1"])
        .arg(&f)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What one front-door run left behind: the last step's exit code,
/// every step's stdout and stderr, and its working directory.
struct Door {
    code: Option<i32>,
    stdout: String,
    stderr: String,
    dir: PathBuf,
}

impl Door {
    /// The `.cmo` objects in the working directory, by name.
    fn objects(&self) -> Vec<(String, Vec<u8>)> {
        let mut objects: Vec<(String, Vec<u8>)> = std::fs::read_dir(&self.dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "cmo"))
            .map(|path| {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).unwrap())
            })
            .collect();
        objects.sort();
        objects
    }

    /// Stdout without the lines that name where things were written or
    /// count cache traffic, which only one of the two modes has.
    fn stdout_sans_cache(&self) -> Vec<&str> {
        self.stdout
            .lines()
            .filter(|line| !line.starts_with("wrote ") && !line.contains("  cache: "))
            .collect()
    }
}

/// Runs `steps` at `-j<jobs>` in a fresh directory holding `files`,
/// with relative paths (so diagnostics name the same files in both
/// modes) and, when `cached`, a fresh `--cache-dir` shared by the
/// steps. Sources and objects enter `cmocc` through one flow, with or
/// without a cache, so the two modes must agree.
fn door(tag: &str, jobs: &str, cached: bool, files: &[(&str, &str)], steps: &[&[&str]]) -> Door {
    let mode = if cached { "cached" } else { "plain" };
    let dir = workdir(&format!("door-{tag}-j{jobs}-{mode}"));
    for (name, text) in files {
        std::fs::write(dir.join(name), text).unwrap();
    }
    let mut run = Door {
        code: None,
        stdout: String::new(),
        stderr: String::new(),
        dir,
    };
    for step in steps {
        let mut cmd = cmocc();
        cmd.current_dir(&run.dir).args(["-j", jobs]).args(*step);
        if cached {
            cmd.args(["--cache-dir", "cache"]);
        }
        let out = cmd.output().unwrap();
        run.code = out.status.code();
        run.stdout.push_str(&String::from_utf8_lossy(&out.stdout));
        run.stderr.push_str(&String::from_utf8_lossy(&out.stderr));
    }
    run
}

/// Both modes of one front-door scenario at one worker count.
fn both_doors(tag: &str, jobs: &str, files: &[(&str, &str)], steps: &[&[&str]]) -> [Door; 2] {
    [false, true].map(|cached| door(tag, jobs, cached, files, steps))
}

const BROKEN: &str = "fn main( { }";

#[test]
fn an_unreadable_input_is_reported_before_compile_diagnostics_with_or_without_a_cache() {
    for jobs in ["1", "4"] {
        let files = [("bad.mlc", BROKEN)];
        let [plain, cached] =
            both_doors("unreadable", jobs, &files, &[&["bad.mlc", "missing.mlc"]]);
        for run in [&plain, &cached] {
            assert_eq!(run.code, Some(1), "-j{jobs}: {}", run.stderr);
            let first = run.stderr.lines().next().unwrap_or_default();
            assert!(
                first.starts_with("cmocc: cannot read missing.mlc"),
                "-j{jobs}: {first}"
            );
        }
        assert_eq!(plain.stderr, cached.stderr, "-j{jobs}");
    }
}

#[test]
fn compile_only_writes_nothing_from_a_failed_batch_with_or_without_a_cache() {
    let files = [
        ("good0.mlc", "fn main() -> int { return 0; }\n"),
        ("bad.mlc", BROKEN),
        ("good2.mlc", LIB),
    ];
    let batch = ["-c", "good0.mlc", "bad.mlc", "good2.mlc"];
    for jobs in ["1", "4"] {
        let [plain, cached] = both_doors("cfail", jobs, &files, &[&batch]);
        for run in [&plain, &cached] {
            assert_eq!(run.code, Some(1), "-j{jobs}: {}", run.stderr);
            assert!(
                run.objects().is_empty(),
                "-j{jobs}: a failed batch wrote objects"
            );
        }
        assert_eq!(plain.stderr, cached.stderr, "-j{jobs}");

        // Under --keep-going the survivors, and only they, are written.
        let keep_going = [&batch[..], &["--keep-going"]].concat();
        let [plain, cached] = both_doors("ckeep", jobs, &files, &[&keep_going]);
        for run in [&plain, &cached] {
            assert_eq!(run.code, Some(1), "-j{jobs}: {}", run.stderr);
            let names: Vec<String> = run.objects().into_iter().map(|(name, _)| name).collect();
            assert_eq!(names, ["good0.cmo", "good2.cmo"], "-j{jobs}");
        }
        assert_eq!(plain.objects(), cached.objects(), "-j{jobs}");
        assert_eq!(plain.stdout, cached.stdout, "-j{jobs}");
    }
}

#[test]
fn the_make_flow_links_the_same_image_with_or_without_a_cache() {
    let files = [
        ("lib.mlc", LIB),
        ("app.mlc", APP),
        ("extra.mlc", "fn spare(x: int) -> int { return x - 1; }\n"),
    ];
    let steps: &[&[&str]] = &[
        &["-c", "lib.mlc", "app.mlc"],
        &[
            "+I",
            "--run",
            "500",
            "--profile-out",
            "train.db",
            "lib.cmo",
            "app.cmo",
        ],
        &[
            "+O4",
            "+P",
            "train.db",
            "--report",
            "--emit-asm",
            "--run",
            "500",
            "lib.cmo",
            "app.cmo",
            "extra.mlc",
        ],
    ];
    for jobs in ["1", "4"] {
        let [plain, cached] = both_doors("make", jobs, &files, steps);
        for run in [&plain, &cached] {
            assert_eq!(run.code, Some(0), "-j{jobs}: {}", run.stderr);
        }
        assert!(cached.stdout.contains("  cache: "), "-j{jobs}");
        assert!(plain.stdout.contains("ran main: returned"), "-j{jobs}");
        assert_eq!(
            plain.stdout_sans_cache(),
            cached.stdout_sans_cache(),
            "-j{jobs}"
        );
        assert_eq!(plain.objects(), cached.objects(), "-j{jobs}");
    }
}

#[test]
fn isolate_reports_the_same_search_with_or_without_a_cache() {
    let files = [("lib.mlc", LIB), ("app.mlc", APP)];
    let isolate = ["+O4", "--run", "50", "--isolate", "lib.mlc", "app.mlc"];
    let lines = ["1", "4"].map(|jobs| {
        let [plain, cached] = both_doors("isolate", jobs, &files, &[&isolate]);
        let isolated = |run: &Door| -> String {
            assert_eq!(run.code, Some(0), "-j{jobs}: {}", run.stderr);
            let line = run.stdout.lines().find(|l| l.starts_with("isolated: "));
            line.expect("an isolated: line").to_owned()
        };
        assert_eq!(isolated(&plain), isolated(&cached), "-j{jobs}");
        isolated(&plain)
    });
    assert_eq!(lines[0], lines[1], "-j1 and -j4 search alike");
}
