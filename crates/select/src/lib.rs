#![warn(missing_docs)]
//! Selectivity: focusing optimization effort with profile data (§5).
//!
//! Compiling more code costs more time and memory, so the compiler
//! uses profile data to decide *where* to spend effort:
//!
//! * **Coarse-grained** ([`coarse_select`]): the user specifies a
//!   selection percentage; the compiler ranks every call site in the
//!   program by call frequency, retains the selected percentage, and
//!   marks the modules containing the callers and callees of those
//!   sites for CMO+PBO compilation. All other modules bypass HLO
//!   entirely and are compiled at the default level (with PBO).
//! * **Fine-grained**: within CMO modules, only the routines involved
//!   in selected sites are candidates for inlining and aggressive
//!   optimization; the rest are scanned once for global data-access
//!   facts and left unloaded.
//! * **Multi-layered** ([`layered_levels`]): the §8 extension — rather
//!   than a binary optimized/not-optimized split, routines are binned
//!   into aggressive / standard / minimal levels by execution
//!   frequency.
//!
//! All rankings are deterministic: ties break by routine name and site
//! index (§6.2).

use cmo_ir::{CallSiteId, Instr, ModuleId, Program, RoutineBody, RoutineId};
use cmo_profile::ProfileDb;
use cmo_telemetry::{Telemetry, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A selectivity request the compiler cannot honor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectError {
    /// The selection percentage was NaN or infinite. A NaN percentage
    /// silently propagating through the ranking math would select zero
    /// sites with no diagnostic, so it is rejected up front.
    NonFinitePercent(f64),
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectError::NonFinitePercent(p) => {
                write!(f, "selectivity percentage must be finite, got {p}")
            }
        }
    }
}

impl std::error::Error for SelectError {}

/// One ranked call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedSite {
    /// The routine containing the call.
    pub caller: RoutineId,
    /// The call site within the caller.
    pub site: CallSiteId,
    /// The resolved callee.
    pub callee: RoutineId,
    /// Profile count (0 when untrained — §6.2's caveat that untrained
    /// code may go under-optimized applies here too).
    pub count: u64,
}

/// The outcome of coarse- plus fine-grained selection.
#[derive(Debug, Clone, Default)]
pub struct SelectionPlan {
    /// Modules to compile with CMO+PBO.
    pub cmo_modules: BTreeSet<ModuleId>,
    /// The selected (hot) call sites.
    pub selected_sites: Vec<RankedSite>,
    /// Routines eligible for aggressive interprocedural optimization
    /// (fine-grained selection): callers and callees of selected
    /// sites.
    pub hot_routines: BTreeSet<RoutineId>,
    /// Fraction of program source lines inside CMO modules, the
    /// Figure 6 x-axis.
    pub loc_fraction: f64,
}

impl SelectionPlan {
    /// Returns `true` if `r` is eligible for aggressive optimization.
    #[must_use]
    pub fn is_hot(&self, r: RoutineId) -> bool {
        self.hot_routines.contains(&r)
    }
}

/// Enumerates every call site in the program with its profile count,
/// ranked by descending count (ties by caller name, then site id).
#[must_use]
pub fn rank_sites(program: &Program, bodies: &[RoutineBody], db: &ProfileDb) -> Vec<RankedSite> {
    let mut sites = Vec::new();
    for (i, body) in bodies.iter().enumerate() {
        let caller = RoutineId::from_index(i);
        let caller_name = program.name(program.routine(caller).name);
        for block in &body.blocks {
            for instr in &block.instrs {
                if let Instr::Call { callee, site, .. } = instr {
                    sites.push(RankedSite {
                        caller,
                        site: *site,
                        callee: callee.id(),
                        count: db.site_count(caller_name, site.0).unwrap_or(0),
                    });
                }
            }
        }
    }
    sites.sort_by(|a, b| {
        b.count
            .cmp(&a.count)
            .then_with(|| {
                let an = program.name(program.routine(a.caller).name);
                let bn = program.name(program.routine(b.caller).name);
                an.cmp(bn)
            })
            .then(a.site.cmp(&b.site))
    });
    sites
}

/// Coarse-grained selection: retain the top `percent`% of call sites
/// and mark the modules of their callers and callees for CMO (§5).
///
/// Finite `percent` values are clamped to `[0, 100]`. With 0 no module
/// is selected; with 100 every module containing or targeted by any
/// call is.
///
/// # Errors
///
/// Returns [`SelectError::NonFinitePercent`] for NaN or infinite
/// `percent` — `NaN.clamp(0.0, 100.0)` stays NaN, and
/// `(len as f64 * NaN / 100.0).ceil() as usize` collapses to 0, which
/// used to silently deselect every site.
pub fn coarse_select(
    program: &Program,
    bodies: &[RoutineBody],
    db: &ProfileDb,
    percent: f64,
) -> Result<SelectionPlan, SelectError> {
    coarse_select_traced(program, bodies, db, percent, &Telemetry::disabled())
}

/// Like [`coarse_select`], but emits a [`TraceEvent::SelectSite`] for
/// every ranked site (kept or cut, with its rank and count) and a
/// [`TraceEvent::SelectModule`] for every module, into `telemetry`.
///
/// # Errors
///
/// Returns [`SelectError::NonFinitePercent`] for NaN or infinite
/// `percent`.
pub fn coarse_select_traced(
    program: &Program,
    bodies: &[RoutineBody],
    db: &ProfileDb,
    percent: f64,
    telemetry: &Telemetry,
) -> Result<SelectionPlan, SelectError> {
    if !percent.is_finite() {
        return Err(SelectError::NonFinitePercent(percent));
    }
    let percent = percent.clamp(0.0, 100.0);
    let ranked = rank_sites(program, bodies, db);
    let keep = ((ranked.len() as f64) * percent / 100.0).ceil() as usize;
    let keep = if percent == 0.0 {
        0
    } else {
        keep.max(1).min(ranked.len())
    };
    if telemetry.is_enabled() {
        for (rank, s) in ranked.iter().enumerate() {
            telemetry.emit(TraceEvent::SelectSite {
                caller: program.name(program.routine(s.caller).name).to_owned(),
                site: s.site.0,
                rank: rank as u32,
                count: s.count,
                selected: rank < keep,
            });
        }
    }
    let selected: Vec<RankedSite> = ranked.into_iter().take(keep).collect();

    let mut plan = SelectionPlan::default();
    let mut module_sites: BTreeMap<ModuleId, u32> = BTreeMap::new();
    for s in &selected {
        for m in [
            program.routine(s.caller).module,
            program.routine(s.callee).module,
        ] {
            plan.cmo_modules.insert(m);
            *module_sites.entry(m).or_insert(0) += 1;
        }
        plan.hot_routines.insert(s.caller);
        plan.hot_routines.insert(s.callee);
    }
    if telemetry.is_enabled() {
        for m in 0..program.modules().len() {
            let mid = ModuleId::from_index(m);
            telemetry.emit(TraceEvent::SelectModule {
                module: program.name(program.module(mid).name).to_owned(),
                sites: module_sites.get(&mid).copied().unwrap_or(0),
                selected: plan.cmo_modules.contains(&mid),
            });
        }
    }
    plan.selected_sites = selected;
    let total: u64 = program.total_source_lines();
    let in_cmo: u64 = plan
        .cmo_modules
        .iter()
        .map(|&m| u64::from(program.module(m).source_lines))
        .sum();
    plan.loc_fraction = if total == 0 {
        0.0
    } else {
        in_cmo as f64 / total as f64
    };
    Ok(plan)
}

/// Optimization layer assigned to a routine by the multi-layered
/// strategy (§8): hot code gets CMO, warm code standard optimization,
/// and code that "is executed little or not at all may not be
/// optimized at all".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLayer {
    /// Barely or never executed: minimal optimization (+O1).
    Minimal,
    /// Moderately executed: standard optimization (+O2).
    Standard,
    /// Hot: full CMO+PBO treatment (+O4 +P).
    Aggressive,
}

/// Assigns an [`OptLayer`] to every routine by entry-count bands:
/// routines covering the top `hot_fraction` of total entries are
/// `Aggressive`; routines with zero entries are `Minimal`; the rest
/// `Standard`.
#[must_use]
pub fn layered_levels(
    program: &Program,
    db: &ProfileDb,
    hot_fraction: f64,
) -> BTreeMap<RoutineId, OptLayer> {
    let mut counts: Vec<(RoutineId, u64)> = (0..program.routines().len())
        .map(|i| {
            let rid = RoutineId::from_index(i);
            let name = program.name(program.routine(rid).name);
            (rid, db.entry_count(name))
        })
        .collect();
    let total: u64 = counts.iter().map(|&(_, c)| c).sum();
    counts.sort_by(|a, b| {
        b.1.cmp(&a.1).then_with(|| {
            program
                .name(program.routine(a.0).name)
                .cmp(program.name(program.routine(b.0).name))
        })
    });
    let mut layers = BTreeMap::new();
    let budget = (total as f64 * hot_fraction.clamp(0.0, 1.0)) as u64;
    let mut covered = 0u64;
    for (rid, c) in counts {
        let layer = if c == 0 {
            OptLayer::Minimal
        } else if covered < budget {
            covered += c;
            OptLayer::Aggressive
        } else {
            OptLayer::Standard
        };
        layers.insert(rid, layer);
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmo_frontend::compile_module;
    use cmo_ir::link_objects;
    use cmo_profile::{ProbeKey, RoutineShape};

    /// Three modules: hot calls helper_hot often, cold calls
    /// helper_cold rarely.
    fn fixture() -> (Program, Vec<RoutineBody>, ProfileDb) {
        let main_src = r#"
            extern fn helper_hot(x: int) -> int;
            extern fn helper_cold(x: int) -> int;
            fn main() -> int {
                var a: int = helper_hot(1);
                var b: int = helper_cold(2);
                return a + b;
            }
        "#;
        let hot_src = "fn helper_hot(x: int) -> int { return x + 1; }";
        let cold_src = "fn helper_cold(x: int) -> int { return x + 2; }";
        let unit = link_objects(vec![
            compile_module("main_mod", main_src).unwrap(),
            compile_module("hot_mod", hot_src).unwrap(),
            compile_module("cold_mod", cold_src).unwrap(),
        ])
        .unwrap();
        let mut db = ProfileDb::new();
        db.record(
            &[
                (ProbeKey::site("main", 0), 10_000),
                (ProbeKey::site("main", 1), 1),
                (ProbeKey::block("main", 0), 1),
                (ProbeKey::block("helper_hot", 0), 10_000),
                (ProbeKey::block("helper_cold", 0), 1),
            ],
            &[
                (
                    "main".to_owned(),
                    RoutineShape {
                        n_blocks: 1,
                        n_sites: 2,
                        fingerprint: 1,
                    },
                ),
                (
                    "helper_hot".to_owned(),
                    RoutineShape {
                        n_blocks: 1,
                        n_sites: 0,
                        fingerprint: 2,
                    },
                ),
                (
                    "helper_cold".to_owned(),
                    RoutineShape {
                        n_blocks: 1,
                        n_sites: 0,
                        fingerprint: 3,
                    },
                ),
            ],
        );
        (unit.program, unit.bodies, db)
    }

    #[test]
    fn ranking_orders_by_count() {
        let (program, bodies, db) = fixture();
        let ranked = rank_sites(&program, &bodies, &db);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].count, 10_000);
        assert_eq!(ranked[1].count, 1);
    }

    #[test]
    fn half_selection_takes_the_hot_module_only() {
        let (program, bodies, db) = fixture();
        let plan = coarse_select(&program, &bodies, &db, 50.0).unwrap();
        assert_eq!(plan.selected_sites.len(), 1);
        // main_mod (caller) + hot_mod (callee), but not cold_mod.
        assert_eq!(plan.cmo_modules.len(), 2);
        let names: Vec<&str> = plan
            .cmo_modules
            .iter()
            .map(|&m| program.name(program.module(m).name))
            .collect();
        assert!(names.contains(&"main_mod"));
        assert!(names.contains(&"hot_mod"));
        assert!(!names.contains(&"cold_mod"));
        assert!(plan.loc_fraction > 0.0 && plan.loc_fraction < 1.0);
    }

    #[test]
    fn full_selection_takes_everything_zero_takes_nothing() {
        let (program, bodies, db) = fixture();
        let all = coarse_select(&program, &bodies, &db, 100.0).unwrap();
        assert_eq!(all.cmo_modules.len(), 3);
        let none = coarse_select(&program, &bodies, &db, 0.0).unwrap();
        assert!(none.cmo_modules.is_empty());
        assert!(none.selected_sites.is_empty());
        assert_eq!(none.loc_fraction, 0.0);
    }

    #[test]
    fn fine_grained_marks_callers_and_callees() {
        let (program, bodies, db) = fixture();
        let plan = coarse_select(&program, &bodies, &db, 50.0).unwrap();
        let main = program.find_routine("main").unwrap();
        let hot = program.find_routine("helper_hot").unwrap();
        let cold = program.find_routine("helper_cold").unwrap();
        assert!(plan.is_hot(main));
        assert!(plan.is_hot(hot));
        assert!(!plan.is_hot(cold));
    }

    #[test]
    fn selection_without_profile_still_works() {
        let (program, bodies, _) = fixture();
        let empty = ProfileDb::new();
        // All counts are zero; 100% still selects every module, with
        // deterministic tie-breaking.
        let plan = coarse_select(&program, &bodies, &empty, 100.0).unwrap();
        assert_eq!(plan.cmo_modules.len(), 3);
        let plan2 = coarse_select(&program, &bodies, &empty, 100.0).unwrap();
        assert_eq!(plan.selected_sites, plan2.selected_sites);
    }

    #[test]
    fn layers_follow_frequency_bands() {
        let (program, _, db) = fixture();
        let layers = layered_levels(&program, &db, 0.9);
        let main = program.find_routine("main").unwrap();
        let hot = program.find_routine("helper_hot").unwrap();
        let cold = program.find_routine("helper_cold").unwrap();
        assert_eq!(layers[&hot], OptLayer::Aggressive);
        assert_eq!(layers[&cold], OptLayer::Standard);
        // main ran once: it is warm, not hot.
        assert!(layers[&main] >= OptLayer::Standard);
    }

    #[test]
    fn non_finite_percent_is_rejected() {
        // Regression: NaN used to flow through clamp() and the
        // keep-count math, silently selecting zero sites.
        let (program, bodies, db) = fixture();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    coarse_select(&program, &bodies, &db, bad),
                    Err(SelectError::NonFinitePercent(_))
                ),
                "percent {bad} must be rejected"
            );
        }
    }

    #[test]
    fn untrained_routine_gets_minimal_layer() {
        let (program, _, _) = fixture();
        let empty = ProfileDb::new();
        let layers = layered_levels(&program, &empty, 0.9);
        assert!(layers.values().all(|&l| l == OptLayer::Minimal));
    }
}
