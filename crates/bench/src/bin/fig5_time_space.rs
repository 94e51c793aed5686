//! Figure 5: HLO compile time versus memory usage when compiling a
//! 126.gcc-scale program under the four NAIM configurations.
//!
//! The paper shows the trade-off curve: NAIM off (~240 MB, fastest),
//! IR compaction (~100 MB, +20 % time), symbol-table compaction, and
//! disk offloading (~25 MB, +50 % time). We regenerate the same four
//! points: peak optimizer memory against both wall-clock build time
//! and the deterministic simulated work-unit count.
//!
//! The offload row also reports how much cheaper rehydration is with
//! the zero-copy fetch path: fetched bytes are charged
//! `FETCH_COST_PER_BYTE` (borrowed view / arena read) instead of the
//! legacy `DISK_COST_PER_BYTE` (copy through an owned buffer), and the
//! run asserts the reduction is at least 20 %.
//!
//! Run with `cargo run --release -p cmo-bench --bin fig5_time_space`.
//! Flags: `--smoke` (CI-sized program), `--json-out <path>` (write a
//! `cmo.bench.v1` snapshot for `bench-diff`).

use cmo::{BuildOptions, NaimConfig, NaimLevel, OptLevel};
use cmo_bench::{
    bench_args, compiler_for, measure_at_jobs, train, write_csv, BenchReport, BenchRow,
};
use cmo_naim::{DISK_COST_PER_BYTE, FETCH_COST_PER_BYTE};
use cmo_synth::{generate, spec_preset};

fn main() {
    let args = bench_args();
    // A gcc-scale program, grown so its expanded IR dwarfs the budget.
    // Smoke mode shrinks both the program and the budget in step, so
    // every NAIM level still binds at CI sizes. The budget is a tenth
    // of the NAIM-off peak: HLO expands a routine fewer than three
    // times per build, so anything roomier offloads a handful of pools
    // and reads none of them back before write-out.
    let mut spec = spec_preset("gcc");
    spec.modules = if args.smoke { 8 } else { 24 };
    let budget = if args.smoke { 120 << 10 } else { 400 << 10 };
    let app = generate(&spec);
    let cc = compiler_for(&app);
    let db = train(&cc, &app).expect("train");

    let configs: [(&str, NaimConfig); 4] = [
        ("naim-off", NaimConfig::disabled()),
        (
            "ir-compaction",
            NaimConfig::with_budget(budget).max_level(NaimLevel::CompactIr),
        ),
        (
            "st-compaction",
            NaimConfig::with_budget(budget).max_level(NaimLevel::CompactAll),
        ),
        (
            "offload",
            NaimConfig::with_budget(budget).max_level(NaimLevel::Offload),
        ),
    ];

    println!(
        "Figure 5: time/space trade-off on a gcc-scale program ({} lines)",
        app.total_lines
    );
    println!(
        "{:<14} {:>12} {:>11} {:>11} {:>12} {:>11} {:>10} {:>10} {:>9}",
        "config",
        "peak bytes",
        "ms (-j1)",
        "ms (-j4)",
        "work units",
        "fetch wu",
        "compacts",
        "expands",
        "offloads"
    );
    let mut rows = Vec::new();
    let mut snapshot = BenchReport::new("fig5", args.smoke);
    let mut checksum = None;
    for (name, naim) in configs {
        let opts = BuildOptions::new(OptLevel::O4)
            .with_profile_db(db.clone())
            .with_selectivity(100.0)
            .with_naim(naim);
        // Each configuration builds at one and at four workers; the
        // sweep asserts the report and checksum are identical, so the
        // table's two ms columns are the only thing -j may change.
        let sweep = measure_at_jobs(&cc, &app, &opts, &[1, 4]).expect("build");
        let (ms_j1, ms_j4) = (sweep[0].1.compile_ms, sweep[1].1.compile_ms);
        let (hlo_j1, hlo_j4) = (sweep[0].1.hlo_wall_nanos, sweep[1].1.hlo_wall_nanos);
        let m = &sweep[0].1;
        let report = &m.report;
        println!(
            "{:<14} {:>12} {:>11.1} {:>11.1} {:>12} {:>11} {:>10} {:>10} {:>9}",
            name,
            report.peak_bytes(),
            ms_j1,
            ms_j4,
            report.loader.work_units,
            report.loader.fetch_work_units,
            report.loader.compactions,
            report.loader.uncompactions,
            report.loader.offload_writes,
        );
        rows.push(format!(
            "{},{},{:.2},{:.2},{},{},{},{},{}",
            name,
            report.peak_bytes(),
            ms_j1,
            ms_j4,
            report.loader.work_units,
            report.loader.fetch_work_units,
            report.loader.compactions,
            report.loader.uncompactions,
            report.loader.offload_writes
        ));
        let mut row = BenchRow::new(name);
        row.int("peak_bytes", report.peak_bytes() as u64)
            .int("compile_work", report.compile_work)
            .int("work_units", report.loader.work_units)
            .int("fetch_work_units", report.loader.fetch_work_units)
            .int("compactions", report.loader.compactions)
            .int("uncompactions", report.loader.uncompactions)
            .int("offload_writes", report.loader.offload_writes)
            .float("wall_ms_j1", ms_j1)
            .float("wall_ms_j4", ms_j4)
            .float("hlo_wall_nanos_j1", hlo_j1 as f64)
            .float("hlo_wall_nanos_j4", hlo_j4 as f64);
        if name == "offload" {
            // The zero-copy fetch path charges FETCH_COST_PER_BYTE for
            // every rehydrated byte; the legacy path charged the full
            // DISK_COST_PER_BYTE copy. Same bytes, so the ratio of the
            // two per-byte rates is exactly the work-unit reduction.
            let fetch_wu = report.loader.fetch_work_units;
            assert!(
                fetch_wu > 0,
                "offload config never rehydrated — budget too large"
            );
            let legacy_wu = fetch_wu / FETCH_COST_PER_BYTE * DISK_COST_PER_BYTE;
            let cut_pct = 100.0 * (legacy_wu - fetch_wu) as f64 / legacy_wu as f64;
            println!(
                "zero-copy fetch: {fetch_wu} work units vs {legacy_wu} legacy \
                 (copying) work units = {cut_pct:.1}% reduction"
            );
            assert!(
                cut_pct >= 20.0,
                "fetch/rehydrate work-unit reduction {cut_pct:.1}% below the 20% floor"
            );
            row.float("fetch_reduction_pct", cut_pct);
        }
        snapshot.rows.push(row);
        match checksum {
            None => checksum = Some(m.checksum),
            Some(c) => assert_eq!(c, m.checksum, "NAIM level must not change code"),
        }
    }
    write_csv(
        "fig5_time_space.csv",
        "config,peak_bytes,build_ms_j1,build_ms_j4,work_units,fetch_work_units,compactions,uncompactions,offload_writes",
        &rows,
    );
    if let Some(path) = &args.json_out {
        snapshot.write(path);
    }
    println!();
    println!("Paper (Figure 5): each successive NAIM level trades compile time");
    println!("for memory — expect peak bytes to fall monotonically down the");
    println!("table while work units rise.");
}
