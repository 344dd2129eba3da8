//! Structured data-parallel helpers over `std` scoped threads.
//!
//! The workspace's heavy computations (per-region year traces, the
//! distinct traces of a batch, the rows of a sweep) are embarrassingly
//! parallel across independent work items. `par_map` is the workspace's
//! one parallel map: every data-parallel computation goes through it,
//! and it gives two guarantees:
//!
//! 1. **Determinism** — results are returned in input order and any
//!    randomness must be derived per-item (see [`crate::rng::SimRng::fork`]),
//!    so the outcome is independent of thread count and interleaving.
//! 2. **Data-race freedom by construction** — work items are distributed by
//!    an atomic cursor; each worker returns the `(index, value)` pairs it
//!    claimed, and the caller puts them back in input order.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads to use: the available parallelism, capped by
/// the number of work items (spawning more threads than items is waste).
pub fn worker_count(items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    hw.min(items).max(1)
}

/// Applies `f` to every element of `items` in parallel, returning results
/// in input order.
///
/// Work is distributed dynamically with an atomic cursor (work-stealing-lite),
/// so heterogeneous item costs — e.g. simulating regions with different
/// fuel-mix complexity — still balance.
///
/// ```
/// let squares = hpcarbon_sim::par::par_map(&[1u64, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_workers(items, worker_count(items.len()), f)
}

/// [`par_map`] with an explicit worker count.
///
/// The result is identical for every `workers` value — work distribution
/// affects only wall-clock time, never outputs (results return in input
/// order and randomness must be forked per item, not per thread). Sweep
/// determinism tests exercise exactly this property; `workers` is clamped
/// to `[1, items.len()]`. A worker that panics stops the others after the
/// item each is running, and the panic re-raises on the caller once every
/// worker has stopped.
pub fn par_map_workers<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut claimed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let _stop = StopOnPanic {
                        cursor: &cursor,
                        end: n,
                    };
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break mine;
                        }
                        mine.push((i, f(i, &items[i])));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    // The cursor hands out each index exactly once, so sorting by index
    // restores input order.
    claimed.sort_unstable_by_key(|&(i, _)| i);
    claimed.into_iter().map(|(_, r)| r).collect()
}

/// Moves the cursor to the end of the items when its worker unwinds, so
/// the other workers claim nothing more and the panic reaches the caller
/// without the rest of the items being computed for nothing.
struct StopOnPanic<'a> {
    cursor: &'a AtomicUsize,
    end: usize,
}

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.cursor.store(self.end, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |_, &x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = par_map(&[] as &[u64], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        let out = par_map(&[42u64], |i, &x| (i, x));
        assert_eq!(out, vec![(0, 42)]);
    }

    #[test]
    fn index_argument_matches_position() {
        let items = vec!["a", "b", "c", "d"];
        let out = par_map(&items, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let n = 10_000;
        let counter = AtomicU64::new(0);
        let items: Vec<usize> = (0..n).collect();
        let out = par_map(&items, |_, &x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), n as u64);
        assert_eq!(out.len(), n);
    }

    #[test]
    fn matches_sequential_result() {
        // The Rayon guarantee: parallel result equals sequential result.
        let items: Vec<f64> = (0..5000).map(|i| i as f64 * 0.001).collect();
        let seq: Vec<f64> = items.iter().map(|x| (x.sin() * x.cos()).abs()).collect();
        let par = par_map(&items, |_, x| (x.sin() * x.cos()).abs());
        assert_eq!(seq, par);
    }

    #[test]
    fn worker_count_bounds() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1_000_000) >= 1);
    }

    #[test]
    fn forced_worker_counts_agree() {
        // The determinism guarantee the sweep engine is built on: the
        // result is a pure function of the input, not of the thread count.
        let items: Vec<u64> = (0..257).collect();
        let reference: Vec<u64> = par_map_workers(&items, 1, |i, &x| {
            let mut rng = crate::rng::SimRng::seed_from(42).fork(i as u64);
            x.wrapping_add(rng.next_u64())
        });
        for workers in [2, 3, 4, 8, 64, 1000] {
            let out = par_map_workers(&items, workers, |i, &x| {
                let mut rng = crate::rng::SimRng::seed_from(42).fork(i as u64);
                x.wrapping_add(rng.next_u64())
            });
            assert_eq!(out, reference, "workers={workers}");
        }
    }

    #[test]
    fn empty_input_with_forced_workers() {
        let out: Vec<u64> = par_map_workers(&[] as &[u64], 8, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_is_sequential() {
        // With one worker the items are processed strictly in order.
        let order = std::sync::Mutex::new(Vec::new());
        let items: Vec<usize> = (0..100).collect();
        let _ = par_map_workers(&items, 1, |i, _| {
            order.lock().unwrap().push(i);
        });
        assert_eq!(*order.lock().unwrap(), items);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u64> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_workers(&items, 4, |_, &x| {
                if x == 33 {
                    panic!("worker exploded on item {x}");
                }
                x
            })
        });
        assert!(result.is_err(), "a worker panic must not be swallowed");
    }

    #[test]
    fn a_worker_panic_stops_the_other_workers() {
        // Item 0 panics at once; every other item takes 1 ms. Without the
        // stop, the surviving worker runs all 999 of them before the
        // panic reaches the caller.
        let ran = AtomicU64::new(0);
        let items: Vec<u64> = (0..1000).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_workers(&items, 2, |_, &x| {
                assert!(x != 0, "injected fault on item 0");
                std::thread::sleep(std::time::Duration::from_millis(1));
                ran.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert!(result.is_err(), "a worker panic must not be swallowed");
        let ran = ran.load(Ordering::Relaxed);
        assert!(ran < 100, "{ran} of 999 items ran after item 0 panicked");
    }

    #[test]
    fn heterogeneous_costs_balance() {
        // Items with wildly different costs still all complete.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, |_, &x| {
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        assert_eq!(out.len(), 64);
    }
}
