//! A minimal scoped worker pool for deterministic fan-out.
//!
//! The exploration layer parallelizes three independent-task shapes —
//! per-benchmark anneals with their multi-start corner seeds, the
//! cross-evaluation of every configuration on every workload, and grid
//! baselines. All three reduce to "evaluate item `i` of `n` with a pure
//! function": tasks never share mutable state, so the pool can hand
//! them out dynamically (work-stealing over an atomic counter) while
//! the caller merges results **in item order**, making the output
//! bit-identical to a serial run regardless of scheduling.
//!
//! Built on [`std::thread::scope`] only — no external runtime.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolve a `--jobs`-style knob to a concrete worker count: `0` means
/// "use the machine's available parallelism", anything else is taken
/// literally.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        jobs
    }
}

/// The outcome of one [`run_parallel`] fan-out.
#[derive(Debug)]
pub struct ParallelRun<T> {
    /// Per-item results, in item order (index `i` holds `f(i)`).
    pub results: Vec<T>,
    /// How many items each worker evaluated; one entry per worker.
    pub per_worker: Vec<u64>,
}

/// Evaluate `f(0), f(1), …, f(n - 1)` on a pool of `jobs` workers
/// (0 = available parallelism) and return the results in item order.
///
/// Items are claimed dynamically from a shared counter so an uneven
/// workload still balances, but because `f` is required to be a pure
/// function of its index, the merged `results` vector is independent of
/// which worker ran what. `jobs == 1` (or `n <= 1`) degenerates to a
/// serial loop on the calling thread with no spawning overhead.
pub fn run_parallel<T, F>(jobs: usize, n: usize, f: F) -> ParallelRun<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = resolve_jobs(jobs).min(n.max(1));
    if workers <= 1 {
        let results: Vec<T> = (0..n).map(&f).collect();
        return ParallelRun {
            results,
            per_worker: vec![n as u64],
        };
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let mut per_worker = vec![0u64; workers];

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        mine.push((i, f(i)));
                    }
                    mine
                })
            })
            .collect();
        for (w, handle) in handles.into_iter().enumerate() {
            // A worker thread only unwinds when `f` itself panicked —
            // the recovery layer catches per-task panics before they
            // get here. Re-raise the original payload on the caller
            // thread so the real message (not a generic join error)
            // reaches the user.
            let mine = match handle.join() {
                Ok(mine) => mine,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            per_worker[w] = mine.len() as u64;
            for (i, value) in mine {
                slots[i] = Some(value);
            }
        }
    });

    #[expect(
        clippy::expect_used,
        reason = "the claim counter hands each index to exactly one worker; every slot is filled at join"
    )]
    let results = slots
        .into_iter()
        .map(|s| s.expect("every item claimed exactly once"))
        .collect();
    ParallelRun {
        results,
        per_worker,
    }
}

/// Accumulate one fan-out's per-worker counts into a running total,
/// growing the total if this run used more workers than any before it.
pub fn merge_counts(total: &mut Vec<u64>, part: &[u64]) {
    if total.len() < part.len() {
        total.resize(part.len(), 0);
    }
    for (t, p) in total.iter_mut().zip(part) {
        *t += p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_item_order_any_worker_count() {
        for jobs in [1, 2, 3, 4, 9] {
            let run = run_parallel(jobs, 23, |i| i * i);
            assert_eq!(run.results, (0..23).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(run.per_worker.iter().sum::<u64>(), 23, "jobs {jobs}");
        }
    }

    #[test]
    fn zero_items_and_single_item() {
        let run = run_parallel(4, 0, |i| i);
        assert!(run.results.is_empty());
        assert_eq!(run.per_worker, vec![0]);
        let run = run_parallel(4, 1, |i| i + 10);
        assert_eq!(run.results, vec![10]);
    }

    #[test]
    fn resolve_jobs_zero_means_machine() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
    }

    #[test]
    fn merge_counts_grows_and_adds() {
        let mut total = vec![1, 2];
        merge_counts(&mut total, &[10, 10, 10]);
        assert_eq!(total, vec![11, 12, 10]);
        merge_counts(&mut total, &[1]);
        assert_eq!(total, vec![12, 12, 10]);
    }
}
