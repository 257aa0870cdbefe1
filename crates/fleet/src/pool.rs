//! The work-stealing batch executor.
//!
//! A batch of independent jobs is distributed round-robin across
//! per-worker deques; each worker pops from the front of its own deque
//! and, when empty, steals from the back of a victim's. Results are
//! written into per-job slots, so the returned vector is **always in
//! submission order** no matter which worker finished which job when —
//! the scheduling is nondeterministic, the collection is not.
//!
//! Failure isolation: each job runs under `catch_unwind`, so a panicking
//! job becomes a typed [`JobError`] in its own slot while every other job
//! completes normally (the pool is never poisoned). A failed job is not
//! rerun: a deterministic simulation that panicked once will panic again.
//!
//! Nested batches collapse: a `run_batch` issued from inside a fleet
//! worker runs its jobs inline on that worker (single-threaded), so
//! composed layers — a property runner fanning out cases whose property
//! itself fans out an oracle grid — cannot multiply worker threads.

use std::cell::Cell;
use std::collections::HashSet;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

/// Worker count from the environment: `MAPLE_JOBS` when set (must be a
/// positive integer), otherwise the host's available parallelism.
///
/// # Panics
///
/// Panics when `MAPLE_JOBS` is set but does not parse as a positive
/// integer — a silently ignored job count would make "I ran it with
/// MAPLE_JOBS=8" unfalsifiable.
#[must_use]
pub fn jobs_from_env() -> usize {
    match std::env::var("MAPLE_JOBS") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("[maple-fleet] could not parse MAPLE_JOBS={raw} as a positive integer"),
        },
        Err(_) => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// Executor configuration for one batch.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads to spawn (clamped to the job count; at least one).
    pub workers: usize,
}

impl FleetConfig {
    /// The standard configuration: workers from [`jobs_from_env`].
    #[must_use]
    pub fn from_env() -> Self {
        FleetConfig {
            workers: jobs_from_env(),
        }
    }

    /// Overrides the worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig::from_env()
    }
}

/// A job that panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// The panic payload, rendered.
    pub message: String,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

/// Per-job accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobStats {
    /// Wall-clock spent executing this job, in nanoseconds. Varies run
    /// to run; never part of the deterministic result surface.
    pub wall_nanos: u64,
    /// Index of the worker that ran the job (scheduling detail, varies).
    pub worker: usize,
}

/// One job's result and accounting, in submission order within
/// [`Batch::outcomes`].
#[derive(Debug)]
pub struct JobOutcome<T> {
    /// The job's return value, or the typed panic report.
    pub result: Result<T, JobError>,
    /// Wall-clock / placement accounting.
    pub stats: JobStats,
}

/// Whole-batch accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    /// Jobs submitted.
    pub jobs: usize,
    /// Workers actually used (after clamping to the job count and nested
    /// collapse).
    pub workers: usize,
    /// Batch wall-clock, submission to collection, in nanoseconds.
    pub wall_nanos: u64,
    /// Jobs that panicked.
    pub panics: u64,
    /// Jobs executed by a worker other than the one they were assigned
    /// to (work-stealing traffic; scheduling detail, varies).
    pub steals: u64,
}

impl BatchStats {
    /// Batch wall-clock in seconds.
    #[must_use]
    pub fn wall_seconds(&self) -> f64 {
        self.wall_nanos as f64 / 1e9
    }
}

/// The completed batch: per-job outcomes in submission order plus the
/// aggregate accounting.
#[derive(Debug)]
pub struct Batch<T> {
    /// One outcome per submitted job, submission order.
    pub outcomes: Vec<JobOutcome<T>>,
    /// Aggregate accounting.
    pub stats: BatchStats,
}

impl<T> Batch<T> {
    /// Unwraps every job's value, submission order.
    ///
    /// # Errors
    ///
    /// Returns the first failed job's index and error.
    pub fn into_results(self) -> Result<Vec<T>, (usize, JobError)> {
        self.outcomes
            .into_iter()
            .enumerate()
            .map(|(i, o)| o.result.map_err(|e| (i, e)))
            .collect()
    }
}

thread_local! {
    /// Set while the current thread is executing fleet jobs; nested
    /// batches observe it and run inline.
    static IN_FLEET_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Runs a batch of independent jobs and collects their results in
/// submission order.
///
/// Each job must be a pure function of its captured inputs for the
/// batch-level determinism guarantee to hold (see the crate docs); the
/// pool itself guarantees submission-order collection and panic
/// isolation regardless.
pub fn run_batch<T, F>(cfg: &FleetConfig, jobs: Vec<F>) -> Batch<T>
where
    T: Send,
    F: Fn() -> T + Send,
{
    let start = Instant::now();
    let n = jobs.len();
    let nested = IN_FLEET_WORKER.with(Cell::get);
    let workers = if nested {
        1
    } else {
        cfg.workers.max(1).min(n.max(1))
    };

    let job_slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let result_slots: Vec<Mutex<Option<JobOutcome<T>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    // Round-robin assignment: job i starts on worker i % workers.
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..n).step_by(workers.max(1)).collect()))
        .collect();
    let panics = AtomicU64::new(0);
    let steals = AtomicU64::new(0);

    {
        let worker_loop = |me: usize| {
            let was_worker = IN_FLEET_WORKER.with(|f| f.replace(true));
            while let Some((idx, stolen)) = claim(&deques, me) {
                if stolen {
                    steals.fetch_add(1, Ordering::Relaxed);
                }
                let job = job_slots[idx]
                    .lock()
                    .expect("job slot lock")
                    .take()
                    .expect("job claimed twice");
                let outcome = run_one(&job, me, &panics);
                *result_slots[idx].lock().expect("result slot lock") = Some(outcome);
            }
            IN_FLEET_WORKER.with(|f| f.set(was_worker));
        };
        if workers == 1 {
            // Inline on the current thread: nested batches and
            // single-worker runs share one code path.
            worker_loop(0);
        } else {
            let worker_loop = &worker_loop;
            std::thread::scope(|s| {
                for w in 0..workers {
                    s.spawn(move || worker_loop(w));
                }
            });
        }
    }

    let outcomes: Vec<JobOutcome<T>> = result_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock")
                .expect("every job produced an outcome")
        })
        .collect();
    Batch {
        outcomes,
        stats: BatchStats {
            jobs: n,
            workers,
            wall_nanos: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            panics: panics.into_inner(),
            steals: steals.into_inner(),
        },
    }
}

/// Claims the next job index for worker `me`: own front first, then a
/// steal from the back of the first non-empty victim. `None` when every
/// deque is empty (batch drained — jobs never spawn jobs).
fn claim(deques: &[Mutex<VecDeque<usize>>], me: usize) -> Option<(usize, bool)> {
    if let Some(idx) = deques[me].lock().expect("own deque lock").pop_front() {
        return Some((idx, false));
    }
    let w = deques.len();
    for off in 1..w {
        let victim = (me + off) % w;
        if let Some(idx) = deques[victim].lock().expect("victim deque lock").pop_back() {
            return Some((idx, true));
        }
    }
    None
}

/// Executes one job with panic isolation.
fn run_one<T, F>(job: &F, worker: usize, panics: &AtomicU64) -> JobOutcome<T>
where
    F: Fn() -> T,
{
    let t0 = Instant::now();
    let quiet = QuietPanics::enter();
    let caught = panic::catch_unwind(AssertUnwindSafe(job));
    drop(quiet);
    let result = caught.map_err(|payload| {
        panics.fetch_add(1, Ordering::Relaxed);
        JobError {
            message: panic_message(&*payload),
        }
    });
    JobOutcome {
        result,
        stats: JobStats {
            wall_nanos: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            worker,
        },
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Suppresses the default panic-hook backtrace for panics raised by jobs
/// currently under `catch_unwind` in this pool — an isolated job failure
/// is a *reported value*, not console noise. Panics on unrelated threads
/// still reach the previously installed hook.
struct QuietPanics;

fn suppressed() -> &'static Mutex<HashSet<ThreadId>> {
    static SET: OnceLock<Mutex<HashSet<ThreadId>>> = OnceLock::new();
    SET.get_or_init(|| Mutex::new(HashSet::new()))
}

impl QuietPanics {
    fn enter() -> QuietPanics {
        static INSTALL: Once = Once::new();
        INSTALL.call_once(|| {
            let prev = panic::take_hook();
            panic::set_hook(Box::new(move |info| {
                let me = std::thread::current().id();
                let quiet = suppressed().lock().is_ok_and(|s| s.contains(&me));
                if !quiet {
                    prev(info);
                }
            }));
        });
        if let Ok(mut set) = suppressed().lock() {
            set.insert(std::thread::current().id());
        }
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Ok(mut set) = suppressed().lock() {
            set.remove(&std::thread::current().id());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_batch(workers: usize, n: u64) -> Vec<u64> {
        let cfg = FleetConfig::from_env().with_workers(workers);
        let jobs: Vec<_> = (0..n).map(|i| move || i * i).collect();
        run_batch(&cfg, jobs)
            .into_results()
            .expect("no job panics")
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let expected: Vec<u64> = (0..64).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 64, 100] {
            assert_eq!(square_batch(workers, 64), expected, "workers={workers}");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let cfg = FleetConfig::from_env().with_workers(4);
        let batch = run_batch(&cfg, Vec::<fn() -> u8>::new());
        assert!(batch.outcomes.is_empty());
        assert_eq!(batch.stats.jobs, 0);
    }

    #[test]
    fn panicking_job_is_isolated_and_typed() {
        let cfg = FleetConfig::from_env().with_workers(4);
        let jobs: Vec<Box<dyn Fn() -> u64 + Send>> = (0u64..8)
            .map(|i| {
                Box::new(move || {
                    assert!(i != 3, "job three is broken");
                    i
                }) as Box<dyn Fn() -> u64 + Send>
            })
            .collect();
        let batch = run_batch(&cfg, jobs);
        assert_eq!(batch.outcomes.len(), 8);
        for (i, o) in batch.outcomes.iter().enumerate() {
            if i == 3 {
                let err = o.result.as_ref().expect_err("job 3 panics");
                assert!(err.message.contains("job three is broken"), "{err}");
            } else {
                assert_eq!(*o.result.as_ref().expect("healthy job"), i as u64);
            }
        }
        assert_eq!(batch.stats.panics, 1);
        // The pool is not poisoned: it runs another batch fine.
        assert_eq!(square_batch(4, 8), (0..8).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn nested_batches_collapse_to_inline_execution() {
        let cfg = FleetConfig::from_env().with_workers(4);
        let jobs: Vec<_> = (0u64..4)
            .map(|i| {
                move || {
                    // Inner batch runs inline on this worker.
                    let inner_cfg = FleetConfig::from_env().with_workers(8);
                    let inner: Vec<_> = (0..4).map(|j| move || i * 10 + j).collect();
                    let inner_batch = run_batch(&inner_cfg, inner);
                    assert_eq!(inner_batch.stats.workers, 1, "nested batch collapsed");
                    inner_batch.into_results().unwrap()
                }
            })
            .collect();
        let out = run_batch(&cfg, jobs).into_results().unwrap();
        for (i, row) in out.iter().enumerate() {
            let expected: Vec<u64> = (0..4).map(|j| i as u64 * 10 + j).collect();
            assert_eq!(*row, expected);
        }
    }

    #[test]
    fn accounting_covers_every_job() {
        let batch = run_batch(
            &FleetConfig::from_env().with_workers(3),
            (0..10).map(|i| move || i).collect::<Vec<_>>(),
        );
        assert_eq!(batch.stats.jobs, 10);
        assert_eq!(batch.stats.workers, 3);
        for o in &batch.outcomes {
            assert!(o.stats.worker < 3);
        }
    }

    #[test]
    fn workers_clamped_to_job_count() {
        let batch = run_batch(
            &FleetConfig::from_env().with_workers(64),
            vec![|| 1u8, || 2u8],
        );
        assert_eq!(batch.stats.workers, 2);
    }
}
