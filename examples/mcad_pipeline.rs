//! The ISV shipping pipeline (§2, §6.4): build a large multi-module,
//! mixed-language application the way HP shipped its MCAD vendors'
//! products — train, select, cross-module optimize under a memory
//! budget, and verify behaviour is unchanged.
//!
//! Run with `cargo run --release --example mcad_pipeline`.

use cmo::{BuildOptions, Compiler, NaimConfig, OptLevel};
use cmo_synth::{generate, mcad_preset};

fn main() -> Result<(), cmo::BuildError> {
    // A scaled-down Mcad2: mixed C-flavored and Fortran-flavored
    // modules (HLO neither knows nor cares, §3).
    let app = generate(&mcad_preset("mcad2", 0.5));
    let f77 = app
        .modules
        .iter()
        .filter(|(_, s)| s.contains("f77-flavored"))
        .count();
    println!(
        "{}: {} modules ({} Fortran-flavored), {} source lines",
        app.name,
        app.modules.len(),
        f77,
        app.total_lines
    );

    let mut cc = Compiler::new();
    for (name, source) in &app.modules {
        cc.add_source(name, source)?;
    }

    // Train on the training workload.
    let instrumented = cc.build(&BuildOptions::instrumented())?;
    let db = instrumented.run_for_profile(&app.train_input)?;

    // Ship build: +O4 +P, 20% call-site selectivity, 8 MiB optimizer
    // budget (NAIM engages if the program outgrows it).
    let ship_opts = BuildOptions::new(OptLevel::O4)
        .with_profile_db(db.clone())
        .with_selectivity(20.0)
        .with_naim(NaimConfig::with_budget(8 << 20));
    let ship = cc.build(&ship_opts)?;
    let report = &ship.report;
    println!(
        "selective CMO: {}/{} modules selected ({:.0}% of source lines)",
        report.cmo_modules,
        report.total_modules,
        100.0 * report.cmo_loc as f64 / report.total_loc as f64
    );
    println!(
        "HLO: {} inlines, {} globals folded, {} dead stores removed, {} dead routines",
        report.hlo.inlines,
        report.hlo.globals_folded,
        report.hlo.dead_stores_removed,
        report.hlo.dead_routines
    );
    println!(
        "optimizer peak memory: {} KiB (loader: {} compactions, {} offloads)",
        report.memory.peak_total / 1024,
        report.loader.compactions,
        report.loader.offload_writes
    );

    // Benchmark against the default build on the reference workload.
    let baseline = cc.build(&BuildOptions::o2())?;
    let rb = baseline.run(&app.ref_input)?;
    let rs = ship.run(&app.ref_input)?;
    assert_eq!(
        rb.checksum, rs.checksum,
        "shipping build must behave identically"
    );
    println!(
        "reference run: +O2 {} cycles, ship {} cycles — {:.2}x",
        rb.cycles,
        rs.cycles,
        rb.cycles as f64 / rs.cycles as f64
    );
    Ok(())
}
