//! Inputs made from `--seed`. The program is the paper's headline MCAD
//! shape (`mcad_preset("mcad1", 1.0)`: ~21 k lines, 49 modules, Zipf
//! 2.2) with its own generator seed, so that run cycles, image size and
//! peak memory stay comparable from run to run; the seed decides the
//! order the modules reach the compiler (link order shifts routine ids,
//! cluster numbering and code layout; a run measures five orders per seed)
//! and the edits `incr_edit` makes.
//! README.md records why the generator seed itself is not varied.

use cmo_synth::{generate, mcad_preset};

/// Scale of the measured program, and of the `--smoke` one.
pub const FULL_SCALE: f64 = 1.0;
/// Scale of the `--smoke` program.
pub const SMOKE_SCALE: f64 = 0.125;

/// Everything the program under test receives.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// `(module name, MLC source)` in the order handed to the compiler.
    pub modules: Vec<(String, String)>,
    /// Training workload input.
    pub train_input: Vec<i64>,
    /// Reference workload input.
    pub ref_input: Vec<i64>,
    /// Source lines over all modules.
    pub total_lines: u64,
    /// Where the edits' own random stream starts.
    edit_seed: u64,
}

/// SplitMix64: a full-period mixer, enough for shuffles and picks.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates the inputs for the `order`-th link order of `seed`: the
/// same pair gives the same inputs.
#[must_use]
pub fn make(seed: u64, order: u64, scale: f64) -> Inputs {
    let app = generate(&mcad_preset("mcad1", scale));
    let mut modules = app.modules;
    let mut state = seed;
    state = next(&mut state) ^ order;
    for i in (1..modules.len()).rev() {
        let j = (next(&mut state) % (i as u64 + 1)) as usize;
        modules.swap(i, j);
    }
    Inputs {
        modules,
        train_input: app.train_input,
        ref_input: app.ref_input,
        total_lines: app.total_lines,
        edit_seed: state,
    }
}

impl Inputs {
    /// The sources after the `iteration`-th edit: one novel routine
    /// that nothing calls, appended to a module that rotates from a
    /// seeded start. The program's behaviour is unchanged; the module's
    /// fingerprint, and with it the whole-build key, is not.
    #[must_use]
    pub fn edited(&self, iteration: u64) -> Vec<(String, String)> {
        let mut state = self.edit_seed;
        let start = next(&mut state);
        let addend = next(&mut state) % 1000;
        let target = (start.wrapping_add(iteration) % self.modules.len() as u64) as usize;
        let mut modules = self.modules.clone();
        modules[target].1.push_str(&format!(
            "\nfn bench_edit_{:x}_{iteration}(x: int) -> int {{ return x + {addend}; }}\n",
            self.edit_seed
        ));
        modules
    }
}
