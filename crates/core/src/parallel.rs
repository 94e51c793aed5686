//! A fixed-size worker pool with deterministic result merging and
//! panic containment.
//!
//! The driver's parallel sections (front-end lowering, per-routine LLO)
//! all follow one shape: `n` independent jobs, each producing a result
//! keyed by its index, merged back in index order. [`try_run_jobs`] is
//! that shape: workers — the calling thread and `workers - 1` threads
//! spawned beside it — pull job indices from a shared queue (an atomic
//! cursor), write results into index-keyed slots, and the caller gets a
//! `Vec` in job order — so the *output* is independent of which worker
//! ran which job, and byte-identical across `-j` levels.
//!
//! A panicking job does not tear down the pool: each job runs under
//! [`std::panic::catch_unwind`], its panic is converted into a
//! [`JobError`] carrying the job index and payload, and the remaining
//! jobs still run. [`run_jobs`] is the infallible wrapper that
//! re-raises the first failure for callers whose jobs cannot fail.
//!
//! With `workers <= 1` (or a single job) everything runs inline on the
//! calling thread through the same code path, which is what makes
//! `-j1` structurally identical to the parallel runs rather than a
//! separate sequential implementation.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// A job that panicked instead of producing its result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Index of the job that panicked.
    pub index: usize,
    /// The panic payload, when it was a string ("non-string panic
    /// payload" otherwise).
    pub payload: String,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.payload)
    }
}

impl std::error::Error for JobError {}

/// Renders a `catch_unwind` payload for diagnostics.
fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `n_jobs` jobs over `workers` threads and returns their results
/// in job order, with each panic contained as a [`JobError`].
///
/// `f` is called once per job index `i` in `0..n_jobs`, with the id of
/// the executing worker as its first argument (0 when running inline;
/// in pool mode 1 on the calling thread and `2..=workers` on the
/// threads spawned beside it). Worker ids exist for telemetry
/// tagging only — results are keyed by job index, never by worker.
pub fn try_run_jobs<R, F>(n_jobs: usize, workers: usize, f: F) -> Vec<Result<R, JobError>>
where
    R: Send,
    F: Fn(u32, usize) -> R + Sync,
{
    let guarded = |worker: u32, i: usize| {
        catch_unwind(AssertUnwindSafe(|| f(worker, i))).map_err(|payload| JobError {
            index: i,
            payload: payload_string(payload.as_ref()),
        })
    };
    if workers <= 1 || n_jobs <= 1 {
        return (0..n_jobs).map(|i| guarded(0, i)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, JobError>>>> =
        (0..n_jobs).map(|_| Mutex::new(None)).collect();
    let work = |worker: u32| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n_jobs {
            break;
        }
        let result = guarded(worker, i);
        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
    };
    // The calling thread is worker 1 and `workers - 1` threads are
    // spawned beside it. A caller parked behind `workers` fresh
    // threads does the same work on an idle machine, but leaves every
    // fan-out waiting for the scheduler to place all of its workers;
    // at `-j nproc` beside a busy neighbour that cost as much as the
    // fan-out saved. With the caller already on a core and pulling
    // jobs, a late or slow helper costs only the jobs it did not take.
    std::thread::scope(|s| {
        for worker in 2..=workers.min(n_jobs) {
            let work = &work;
            s.spawn(move || work(worker as u32));
        }
        work(1);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every job index was claimed exactly once")
        })
        .collect()
}

/// Infallible wrapper over [`try_run_jobs`] for jobs that cannot fail.
///
/// # Panics
///
/// Re-raises the lowest-indexed job panic (after all jobs have run and
/// all workers have joined).
pub fn run_jobs<R, F>(n_jobs: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u32, usize) -> R + Sync,
{
    try_run_jobs(n_jobs, workers, f)
        .into_iter()
        .map(|result| match result {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        })
        .collect()
}

/// [`run_jobs`] over owned inputs: job `i` takes `items[i]` by value,
/// so a worker consumes (and drops) what it is handed instead of
/// working on a copy.
///
/// # Panics
///
/// As [`run_jobs`].
pub(crate) fn run_jobs_on<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(u32, usize, T) -> R + Sync,
{
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    run_jobs(items.len(), workers, |worker, i| {
        let item = items[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        f(
            worker,
            i,
            item.expect("every job index is claimed exactly once"),
        )
    })
}

/// Default worker count for `-j` without an argument: the machine's
/// available parallelism, or 1 if it cannot be determined.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        for workers in [1, 2, 4, 9] {
            let out = run_jobs(100, workers, |_, i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn owned_inputs_reach_their_jobs_in_order() {
        for workers in [1, 3] {
            let items: Vec<String> = (0..50).map(|i| i.to_string()).collect();
            let out = run_jobs_on(items, workers, |_, i, s| (i, s));
            assert!(out.iter().all(|(i, s)| *s == i.to_string()));
        }
    }

    #[test]
    fn zero_jobs_is_fine() {
        let out: Vec<usize> = run_jobs(0, 4, |_, i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn inline_mode_reports_worker_zero() {
        let out = run_jobs(3, 1, |w, _| w);
        assert_eq!(out, vec![0, 0, 0]);
    }

    #[test]
    fn pool_mode_uses_nonzero_worker_ids() {
        let out = run_jobs(64, 4, |w, _| w);
        assert!(out.iter().all(|&w| (1..=4).contains(&w)));
    }

    #[test]
    fn the_calling_thread_is_worker_one_of_the_pool() {
        // Four jobs that each wait for the other three: every worker,
        // the caller included, takes exactly one.
        let barrier = std::sync::Barrier::new(4);
        let out = run_jobs(4, 4, |w, _| {
            barrier.wait();
            (w, std::thread::current().id())
        });
        let caller = std::thread::current().id();
        let mut workers: Vec<u32> = out.iter().map(|&(w, _)| w).collect();
        workers.sort_unstable();
        assert_eq!(workers, vec![1, 2, 3, 4]);
        for (w, thread) in out {
            assert_eq!(w == 1, thread == caller);
        }
    }

    #[test]
    fn output_is_identical_across_worker_counts() {
        let seq = run_jobs(200, 1, |_, i| i.wrapping_mul(2_654_435_761));
        for workers in [2, 3, 4, 8] {
            assert_eq!(
                seq,
                run_jobs(200, workers, |_, i| i.wrapping_mul(2_654_435_761))
            );
        }
    }

    #[test]
    fn panicking_job_yields_a_structured_error() {
        for workers in [1, 4] {
            let results = try_run_jobs(8, workers, |_, i| {
                if i == 3 {
                    panic!("job three exploded");
                }
                i * 10
            });
            for (i, result) in results.iter().enumerate() {
                if i == 3 {
                    let err = result.as_ref().unwrap_err();
                    assert_eq!(err.index, 3);
                    assert_eq!(err.payload, "job three exploded");
                    assert_eq!(format!("{err}"), "job 3 panicked: job three exploded");
                } else {
                    assert_eq!(*result.as_ref().unwrap(), i * 10, "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn formatted_panic_payloads_are_captured() {
        let results = try_run_jobs(2, 1, |_, i| {
            if i == 1 {
                panic!("formatted {} payload", 42);
            }
        });
        assert_eq!(
            results[1].as_ref().unwrap_err().payload,
            "formatted 42 payload"
        );
    }

    #[test]
    fn run_jobs_reraises_the_first_panic() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_jobs(4, 2, |_, i| {
                if i >= 2 {
                    panic!("boom {i}");
                }
            })
        }))
        .unwrap_err();
        assert_eq!(payload_string(caught.as_ref()), "job 2 panicked: boom 2");
    }

    #[test]
    fn default_jobs_is_at_least_one() {
        assert!(default_jobs() >= 1);
    }
}
