//! Automatic isolation of optimizer-induced failures (§6.3).
//!
//! "We have implemented controllable operation limits on
//! transformations such as inlining so we can employ binary search to
//! identify the inline that makes the difference between a failing and
//! a working program." The inliner numbers its operations; this driver
//! binary-searches the operation limit against a caller-supplied
//! oracle and reports the first faulty operation.

use crate::driver::{BuildError, BuildOptions, Compiler};
use cmo_hlo::InlineOptions;
use cmo_telemetry::Telemetry;

/// The outcome of an isolation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsolationReport {
    /// The 1-based index of the first operation whose inclusion makes
    /// the program fail. `None` if the program never fails up to
    /// `max_ops`.
    pub first_faulty_op: Option<u64>,
    /// Builds performed during the search.
    pub builds: u64,
}

/// Binary-searches the operation limit in `[0, max_ops]`.
///
/// `is_good(limit)` must build the program with at most `limit`
/// operations and report whether it behaves correctly; it must be
/// monotone in the sense the paper relies on (once the faulty
/// operation is included, the program stays broken). The return value
/// names the first operation count at which the program breaks.
pub fn isolate_faulty_op(max_ops: u64, mut is_good: impl FnMut(u64) -> bool) -> IsolationReport {
    let mut builds = 0u64;
    let mut check = |limit: u64, builds: &mut u64| {
        *builds += 1;
        is_good(limit)
    };
    if check(max_ops, &mut builds) {
        return IsolationReport {
            first_faulty_op: None,
            builds,
        };
    }
    // Invariant: good at `lo`, bad at `hi`.
    let (mut lo, mut hi) = (0u64, max_ops);
    if max_ops == 0 || !check(0, &mut builds) {
        return IsolationReport {
            first_faulty_op: Some(0),
            builds,
        };
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if check(mid, &mut builds) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    IsolationReport {
        first_faulty_op: Some(hi),
        builds,
    }
}

/// [`isolate_faulty_op`] instantiated for the inliner against real
/// builds: the end-to-end flow behind `cmocc --isolate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InlineIsolation {
    /// Binary-search outcome over the inline operation limit.
    pub report: IsolationReport,
    /// Inline operations the unrestricted build performs.
    pub total_ops: u64,
    /// Output checksum of the zero-inline reference build on the
    /// isolation input.
    pub reference_checksum: u64,
}

/// Binary-searches for the first inline operation that changes the
/// program's observable behaviour on `input`.
///
/// The reference is the same build with the inliner's operation limit
/// pinned to zero, so any divergence is attributable to an inline
/// operation. A search build whose run faults (fuel, stack) counts as
/// misbehaving — a miscompile that diverges is exactly what the limit
/// exists to catch. Search builds run with telemetry disabled so the
/// caller's trace only records its own builds.
///
/// # Errors
///
/// Propagates build failures and a reference run that faults; the
/// reference must work for the oracle to mean anything.
pub fn isolate_inline_ops(
    cc: &Compiler,
    options: &BuildOptions,
    input: &[i64],
) -> Result<InlineIsolation, BuildError> {
    let mut search = options.clone();
    search.telemetry = Telemetry::disabled();
    let limited = |limit: u64| {
        search.clone().with_inline(InlineOptions {
            op_limit: Some(limit),
            ..options.inline.clone()
        })
    };
    let reference_checksum = cc.build(&limited(0))?.run(input)?.checksum;
    let total_ops = cc.build(&search)?.report.hlo.inlines;
    let mut build_error = None;
    let report = isolate_faulty_op(total_ops, |limit| {
        if build_error.is_some() {
            return true; // short-circuit; the report is discarded below
        }
        match cc.build(&limited(limit)) {
            Ok(out) => match out.run(input) {
                Ok(r) => r.checksum == reference_checksum,
                Err(_) => false,
            },
            Err(e) => {
                build_error = Some(e);
                true
            }
        }
    });
    match build_error {
        Some(e) => Err(e),
        None => Ok(InlineIsolation {
            report,
            total_ops,
            reference_checksum,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::OptLevel;

    #[test]
    fn finds_planted_bad_operation() {
        // Oracle: anything including operation 23 or beyond "fails".
        let report = isolate_faulty_op(100, |limit| limit < 23);
        assert_eq!(report.first_faulty_op, Some(23));
        // Binary search, not linear: ~log2(100) + 2 builds.
        assert!(report.builds <= 10, "took {} builds", report.builds);
    }

    #[test]
    fn healthy_program_reports_none() {
        let report = isolate_faulty_op(64, |_| true);
        assert_eq!(report.first_faulty_op, None);
        assert_eq!(report.builds, 1);
    }

    #[test]
    fn broken_from_the_start_reports_zero() {
        let report = isolate_faulty_op(64, |limit| limit > 1_000);
        assert_eq!(report.first_faulty_op, Some(0));
    }

    /// With no operation to search, the first build already built
    /// limit 0.
    #[test]
    fn no_operations_and_broken_takes_one_build() {
        let report = isolate_faulty_op(0, |_| false);
        assert_eq!(report.first_faulty_op, Some(0));
        assert_eq!(report.builds, 1);
    }

    /// End-to-end: drive real builds with an inline op limit, with a
    /// "miscompilation" simulated by an oracle that dislikes one
    /// specific inline operation's effect on the image.
    #[test]
    fn isolates_against_real_builds() {
        let mut cc = Compiler::new();
        cc.add_source(
            "m",
            r#"
            static fn a() -> int { return 1; }
            static fn b() -> int { return 2; }
            static fn c() -> int { return 3; }
            fn main() -> int { return a() + b() + c(); }
            "#,
        )
        .unwrap();
        // Count total inline ops first.
        let full = cc.build(&BuildOptions::new(OptLevel::O4)).unwrap();
        let total = full.report.hlo.inlines;
        assert_eq!(total, 3);
        // Pretend the program "fails" whenever 2 or more inlines are
        // applied (a stand-in for a real miscompile at op 2).
        let report = isolate_faulty_op(total, |limit| {
            let opts = BuildOptions::new(OptLevel::O4).with_inline(InlineOptions {
                op_limit: Some(limit),
                ..InlineOptions::default()
            });
            let out = cc.build(&opts).unwrap();
            out.report.hlo.inlines < 2
        });
        assert_eq!(report.first_faulty_op, Some(2));
    }

    /// The inliner is semantics-preserving here, so end-to-end
    /// isolation on a correct program finds nothing — and counts the
    /// ops it cleared.
    #[test]
    fn correct_program_isolates_nothing() {
        let mut cc = Compiler::new();
        cc.add_source(
            "m",
            r#"
            static fn a(x: int) -> int { return x + 1; }
            static fn b(x: int) -> int { return a(x) * 2; }
            fn main() -> int { return a(3) + b(4); }
            "#,
        )
        .unwrap();
        let isolation = isolate_inline_ops(&cc, &BuildOptions::new(OptLevel::O4), &[]).unwrap();
        assert_eq!(isolation.report.first_faulty_op, None);
        assert!(isolation.total_ops > 0, "expected some inline ops");
    }

    /// Every search build fans its clusters out at the caller's `-j`,
    /// and an op limit numbers the operations cluster by cluster at any
    /// worker count, so `-j` must not change the outcome: same op count,
    /// same verdict, same checksum at `-j4` as at `-j1`.
    #[test]
    fn isolation_is_identical_at_any_worker_count() {
        let mut cc = Compiler::new();
        cc.add_source(
            "m",
            r#"
            static fn a(x: int) -> int { return x + 1; }
            static fn b(x: int) -> int { return a(x) * 2; }
            fn main() -> int { return a(3) + b(4); }
            "#,
        )
        .unwrap();
        let j1 =
            isolate_inline_ops(&cc, &BuildOptions::new(OptLevel::O4).with_jobs(1), &[]).unwrap();
        let j4 =
            isolate_inline_ops(&cc, &BuildOptions::new(OptLevel::O4).with_jobs(4), &[]).unwrap();
        assert_eq!(j1, j4);
    }
}
