//! `make`-compatible incremental builds and stale profiles (§6.1–6.2).
//!
//! Each build below is one `cmocc --cache-dir` invocation: it opens the
//! persistent [`BuildCache`], reuses the front-end output of every
//! unchanged module, rebuilds program-wide information from the
//! objects, and commits what it compiled. Editing one module misses on
//! just that module; an unchanged build replays the cached image.
//! Profile data recorded before an edit keeps working — the compiler
//! correlates it with the current code and degrades gracefully where
//! the shape changed.
//!
//! Run with `cargo run --release --example incremental_build`.

use cmo::{BuildCache, BuildError, BuildOptions, BuildOutput, Compiler, OptLevel};
use std::path::Path;

const APP: &str = r#"
    extern fn step(x: int) -> int;
    fn main() -> int {
        var n: int = input();
        var acc: int = 1;
        var i: int = 0;
        while (i < n) { acc = step(acc); i = i + 1; }
        output(acc);
        return acc;
    }
"#;

fn sources(engine: &str) -> Vec<(String, String)> {
    vec![
        ("engine".to_owned(), engine.to_owned()),
        ("app".to_owned(), APP.to_owned()),
    ]
}

/// One build against the cache directory, printing its module-tier
/// hits and misses.
fn build(
    dir: &Path,
    label: &str,
    modules: &[(String, String)],
    options: &BuildOptions,
) -> Result<BuildOutput, BuildError> {
    let mut cache = BuildCache::open(dir)?;
    let mut cc = Compiler::new();
    cc.add_sources_cached_with(modules, options, &mut cache)?;
    let out = cc.build_cached(options, &mut cache)?;
    cache.persist()?;
    let stats = out.report.cache;
    println!(
        "{label}: {} module hits, {} misses{}",
        stats.module_hits,
        stats.module_misses,
        if out.report.replayed.is_some() {
            ", whole build replayed"
        } else {
            ""
        }
    );
    Ok(out)
}

fn main() -> Result<(), BuildError> {
    let dir = std::env::temp_dir().join(format!("cmo-incremental-{}", std::process::id()));
    let v1_engine = r#"
        global rate: int = 3;
        fn step(x: int) -> int { return (x * rate + 1) % 9973; }
    "#;
    let workload = vec![20_000_i64];

    // Train once.
    let db = build(
        &dir,
        "training build",
        &sources(v1_engine),
        &BuildOptions::instrumented(),
    )?
    .run_for_profile(&workload)?;

    let o4 = BuildOptions::new(OptLevel::O4).with_profile_db(db);
    let v1 = build(&dir, "v1 build", &sources(v1_engine), &o4)?;
    let r1 = v1.run(&workload)?;
    println!("v1: {} cycles, returned {}", r1.cycles, r1.returned);

    // Touch only the engine module (like `make` after one file edit),
    // then rebuild with the OLD profile: §6.2's stale-profile
    // tolerance — the compiler correlates what still matches and
    // carries on.
    let v2_engine = r#"
        global rate: int = 5;
        fn step(x: int) -> int { return (x * rate + 2) % 9973; }
    "#;
    let v2 = build(&dir, "after editing engine", &sources(v2_engine), &o4)?;
    let r2 = v2.run(&workload)?;
    println!(
        "v2 (stale profile): {} cycles, returned {} (different code, still optimized: {} inlines)",
        r2.cycles, r2.returned, v2.report.hlo.inlines
    );
    assert_ne!(r1.returned, r2.returned, "the edit changed behaviour");

    // Unchanged sources never recompile.
    build(
        &dir,
        "re-adding identical sources",
        &sources(v2_engine),
        &o4,
    )?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
