//! Shared experiment harness for the examples, integration tests, and
//! figure-regeneration binaries.
//!
//! Encapsulates the paper's measurement methodology (§2): train an
//! instrumented `+O2 +I` build on the *training* input, then build at
//! each optimization level and run on the *reference* input, reporting
//! cycles relative to the `+O2` baseline.

use cmo::{BuildError, BuildOptions, Compiler, NaimConfig, NaimLevel, OptLevel, ProfileDb};
use cmo_synth::SynthApp;

/// Makes a driver loaded with every module of `app`.
///
/// # Errors
///
/// Propagates frontend diagnostics (a generator bug if it ever fires).
pub fn compiler_for(app: &SynthApp) -> Result<Compiler, BuildError> {
    let mut cc = Compiler::new();
    for (name, source) in &app.modules {
        cc.add_source(name, source)?;
    }
    Ok(cc)
}

/// Trains a profile: instrumented `+O2 +I` build, one run on the
/// training input.
///
/// # Errors
///
/// Propagates build or execution failures.
pub fn train_profile(cc: &Compiler, train_input: &[i64]) -> Result<ProfileDb, BuildError> {
    let instrumented = cc.build(&BuildOptions::instrumented())?;
    instrumented.run_for_profile(train_input)
}

/// Cycle counts at each optimization level on the reference input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelCycles {
    /// `+O1` (optimize only within basic blocks).
    pub o1: u64,
    /// `+O2` (the speedup baseline).
    pub o2: u64,
    /// `+O2 +P` (PBO).
    pub o2_pbo: u64,
    /// `+O4` (CMO).
    pub o4: u64,
    /// `+O4 +P` (CMO+PBO).
    pub o4_pbo: u64,
}

impl LevelCycles {
    /// Speedup of `cycles` relative to the `+O2` baseline.
    #[must_use]
    pub fn speedup(&self, cycles: u64) -> f64 {
        self.o2 as f64 / cycles.max(1) as f64
    }
}

/// Builds and measures `app` at `+O1`, `+O2`, `+O2 +P`, `+O4`, and
/// `+O4 +P` (selectivity `sel_percent` for the last), verifying that
/// every configuration produces the same output checksum.
///
/// # Errors
///
/// Propagates build/run failures.
///
/// # Panics
///
/// Panics if any optimized configuration changes observable behaviour —
/// that is a miscompile, the §6.3 scenario.
pub fn measure_levels(app: &SynthApp, sel_percent: f64) -> Result<LevelCycles, BuildError> {
    let cc = compiler_for(app)?;
    let db = train_profile(&cc, &app.train_input)?;

    let run = |opts: &BuildOptions| -> Result<(u64, u64), BuildError> {
        let out = cc.build(opts)?;
        let r = out.run(&app.ref_input)?;
        Ok((r.cycles, r.checksum))
    };

    let (o1, sum1) = run(&BuildOptions::new(OptLevel::O1))?;
    let (o2, sum2) = run(&BuildOptions::o2())?;
    let (o2_pbo, sum2p) = run(&BuildOptions::o2().with_profile_db(db.clone()))?;
    let (o4, sum4) = run(&BuildOptions::new(OptLevel::O4))?;
    let (o4_pbo, sum4p) = run(&BuildOptions::new(OptLevel::O4)
        .with_profile_db(db)
        .with_selectivity(sel_percent))?;

    assert_eq!(sum1, sum2, "O1 vs O2 checksum mismatch: miscompile");
    assert_eq!(sum2, sum2p, "O2+P checksum mismatch: miscompile");
    assert_eq!(sum2, sum4, "O4 checksum mismatch: miscompile");
    assert_eq!(sum2, sum4p, "O4+P checksum mismatch: miscompile");

    Ok(LevelCycles {
        o1,
        o2,
        o2_pbo,
        o4,
        o4_pbo,
    })
}

/// The NAIM axis of the configuration lattice at one budget: off,
/// compaction only, and compaction with offload.
#[must_use]
pub fn naim_levels(budget: usize) -> [NaimConfig; 3] {
    [
        NaimConfig::disabled(),
        NaimConfig::with_budget(budget).max_level(NaimLevel::CompactAll),
        NaimConfig::with_budget(budget).max_level(NaimLevel::Offload),
    ]
}

/// The optimizer's decisions in a rendered trace: every event that
/// does not come from the NAIM storage layer (`pool`, `arena`, `mmap`)
/// — `cluster`, `inline` with reason and count, `clone`,
/// `dead_routine`, `select_*`, ... — in order, with the work-clock
/// stamp dropped. Memory pressure moves storage events and the clock;
/// it must not move these.
#[must_use]
pub fn trace_decisions(trace: &str) -> Vec<&str> {
    let storage = ["pool", "arena", "mmap"].map(|tag| format!("\"event\":\"{tag}\""));
    trace
        .lines()
        .skip(1) // the schema header
        .filter(|line| !storage.iter().any(|tag| line.contains(tag)))
        .map(|line| line.split_once(',').map_or(line, |(_work, rest)| rest))
        .collect()
}
