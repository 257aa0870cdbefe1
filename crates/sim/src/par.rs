//! Ordered parallel map over independent cases: the figure suites, the
//! oracle grids, the serving gate and the property runner all run their
//! case matrices through [`par_map`]. A `par_map` issued from inside
//! another runs inline on the calling thread, so composed layers (a
//! property runner whose property runs an oracle grid) cannot multiply
//! threads.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Set while the current thread runs `par_map` items; nested calls
    /// see it and run inline.
    static IN_PAR_MAP: Cell<bool> = const { Cell::new(false) };
}

/// Worker count from the environment: `MAPLE_JOBS` when set, otherwise
/// the host's available parallelism.
///
/// # Errors
///
/// Says so when `MAPLE_JOBS` is set but is not a positive integer
/// (surrounding whitespace allowed).
pub fn try_jobs_from_env() -> Result<usize, String> {
    match std::env::var_os("MAPLE_JOBS") {
        Some(raw) => raw
            .to_str()
            .and_then(|s| s.trim().parse().ok())
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("MAPLE_JOBS={raw:?} is not a positive integer")),
        None => Ok(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)),
    }
}

/// [`try_jobs_from_env`], for library callers.
///
/// # Panics
///
/// Panics on a bad `MAPLE_JOBS` value — a silently ignored job count
/// would make "I ran it with MAPLE_JOBS=8" unfalsifiable.
#[must_use]
pub fn jobs_from_env() -> usize {
    try_jobs_from_env().unwrap_or_else(|e| panic!("{e}"))
}

/// Maps `f` over `items` on up to `workers` scoped threads, which claim
/// the next index from one shared counter, and returns the results in
/// input order — bit-identical at every worker count when each call of
/// `f` is a pure function of its item.
///
/// # Errors
///
/// Returns the lowest index whose call panicked, with the panic
/// message. Every item still runs.
pub fn par_map<I, T, F>(workers: usize, items: &[I], f: F) -> Result<Vec<T>, (usize, String)>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    // `Relaxed`: the counter only hands out indices; results come back
    // through the workers' joins.
    let next = AtomicUsize::new(0);
    let work = || {
        let outer = IN_PAR_MAP.replace(true);
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            done.push((i, panic::catch_unwind(AssertUnwindSafe(|| f(item)))));
        }
        IN_PAR_MAP.set(outer);
        done
    };
    let workers = if IN_PAR_MAP.get() {
        1
    } else {
        workers.clamp(1, items.len().max(1))
    };
    let mut done = if workers == 1 {
        work()
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
            let parts = handles
                .into_iter()
                .map(|h| h.join().expect("workers catch every item panic"));
            parts.flatten().collect()
        })
    };
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter()
        .map(|(i, r)| r.map_err(|payload| (i, panic_message(&*payload))))
        .collect()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(workers: usize, n: u64) -> Vec<u64> {
        let items: Vec<u64> = (0..n).collect();
        par_map(workers, &items, |&i| i * i).expect("no item panics")
    }

    #[test]
    fn results_come_back_in_input_order() {
        let expected: Vec<u64> = (0..64).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 64, 100] {
            assert_eq!(squares(workers, 64), expected, "workers={workers}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        assert_eq!(par_map(4, &[] as &[u8], |&b| b), Ok(Vec::new()));
    }

    #[test]
    fn panicking_item_reports_the_lowest_index_and_its_message() {
        let items: Vec<u64> = (0..8).collect();
        let err = par_map(4, &items, |&i| {
            assert!(i != 3 && i != 5, "item {i} is broken");
            i
        })
        .expect_err("items 3 and 5 panic");
        assert_eq!(err, (3, "item 3 is broken".to_owned()));
        // Nothing is poisoned: the next call runs clean.
        assert_eq!(squares(4, 8), (0..8).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn nested_calls_run_inline_on_the_outer_items_thread() {
        let outer: Vec<u64> = (0..4).collect();
        let rows = par_map(4, &outer, |&i| {
            let me = std::thread::current().id();
            let inner: Vec<u64> = (0..4).collect();
            par_map(8, &inner, |&j| (std::thread::current().id(), i * 10 + j))
                .unwrap()
                .into_iter()
                .map(|(id, v)| {
                    assert_eq!(id, me, "inner item ran off the outer item's thread");
                    v
                })
                .collect::<Vec<_>>()
        })
        .unwrap();
        for (i, row) in rows.iter().enumerate() {
            let expected: Vec<u64> = (0..4).map(|j| i as u64 * 10 + j).collect();
            assert_eq!(*row, expected);
        }
    }
}
