//! A bounded store of region-year traces that outlives requests.
//!
//! A footprint service answers many what-if requests against a handful
//! of region-years, and each miss of its response cache would otherwise
//! run a dispatch simulation for a grid year it built moments ago. Each
//! [`crate::Estimator`] owns one trace store. Evaluation consults it for
//! every non-file trace that its context does not hold, before the
//! intensity provider. [`crate::Estimator::context_for`] neither reads
//! nor fills it, so batches and sweeps run exactly as before.
//!
//! ## What an entry holds
//!
//! An entry holds the operator, the hourly values and the [`TraceStats`]
//! of the trace the provider returned: ~70 KB. A hit rebuilds the trace
//! with [`IntensityTrace::new`]. That is the only way to build a trace,
//! and the prefix-sum index it computes is a pure function of the
//! values, so the rebuilt trace equals the provider's bit for bit. The
//! stats are the ones [`TraceStats::of`] computed on the provider's
//! trace. Keeping the index too would double each entry.
//!
//! ## Admission on second sight
//!
//! A key enters the store only on its second miss. A FIFO of the last
//! [`SEEN`] first sights remembers the rest. Traffic that never repeats
//! a key, every request under a fresh seed, therefore admits nothing
//! and holds no trace. A repeating key pays one extra build per store
//! lifetime: its first sight builds without storing, its second fills
//! the entry.
//!
//! ## Bound and fill
//!
//! The store holds at most [`CAPACITY`] entries (~2.2 MiB) and evicts
//! the least recently used first. Each admitted key owns a
//! `OnceLock` cell, so concurrent misses on one key run the provider
//! once while the others wait for the fill. The provider never runs
//! under the store's lock: a panicking provider leaves the lock
//! unpoisoned and its cell empty, and the next caller fills it.

use crate::context::{TraceKey, TraceStats};
use hpcarbon_grid::regions::OperatorId;
use hpcarbon_grid::trace::IntensityTrace;
use hpcarbon_timeseries::series::HourlySeries;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Most entries the store holds. At ~70 KB each, 32 entries are
/// ~2.2 MiB.
pub const CAPACITY: usize = 32;

/// First sights the admission FIFO remembers, 16 bytes each.
pub const SEEN: usize = 256;

/// One stored trace: the provider's values and their stats.
struct Entry {
    operator: OperatorId,
    series: HourlySeries,
    stats: TraceStats,
}

type Cell = Arc<OnceLock<Entry>>;

#[derive(Default)]
struct Slots {
    /// Keys missed once and not yet admitted, oldest first.
    seen: VecDeque<TraceKey>,
    /// Admitted keys, least recently used first.
    cells: VecDeque<(TraceKey, Cell)>,
}

/// What an estimator's trace store has done since it was built: the
/// counters behind the server's `trace_store_*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStoreStats {
    /// Traces answered from a filled entry.
    pub hits: u64,
    /// Traces the provider built through the store: first sights and
    /// fills.
    pub builds: u64,
    /// Filled entries held now.
    pub entries: usize,
}

/// The bounded region-year store an [`crate::Estimator`] owns.
#[derive(Default)]
pub(crate) struct TraceStore {
    slots: Mutex<Slots>,
    hits: AtomicU64,
    builds: AtomicU64,
}

impl TraceStore {
    /// The trace for `key`, with its stats when the store kept them.
    /// `build` is the provider call; it runs on a first sight, on the
    /// fill of an admitted key, and never under the store's lock.
    pub(crate) fn trace(
        &self,
        key: TraceKey,
        build: impl FnOnce() -> Arc<IntensityTrace>,
    ) -> (Arc<IntensityTrace>, Option<TraceStats>) {
        let Some(cell) = self.admit(key) else {
            let trace = build();
            self.builds.fetch_add(1, Ordering::Relaxed);
            return (trace, None);
        };
        let mut built = None;
        let entry = cell.get_or_init(|| {
            let trace = build();
            self.builds.fetch_add(1, Ordering::Relaxed);
            let entry = Entry {
                operator: trace.operator(),
                series: trace.series().clone(),
                stats: TraceStats::of(&trace),
            };
            built = Some(trace);
            entry
        });
        let trace = built.unwrap_or_else(|| {
            self.hits.fetch_add(1, Ordering::Relaxed);
            Arc::new(IntensityTrace::new(entry.operator, entry.series.clone()))
        });
        (trace, Some(entry.stats))
    }

    /// The cell of an admitted `key`, now most recently used. A key
    /// seen once before is admitted, evicting the least recently used
    /// entry when full. A first sight is remembered and gets `None`.
    fn admit(&self, key: TraceKey) -> Option<Cell> {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(i) = slots.cells.iter().position(|(k, _)| *k == key) {
            let (key, cell) = slots.cells.remove(i)?;
            slots.cells.push_back((key, Arc::clone(&cell)));
            return Some(cell);
        }
        if let Some(i) = slots.seen.iter().position(|k| *k == key) {
            slots.seen.remove(i);
            if slots.cells.len() == CAPACITY {
                slots.cells.pop_front();
            }
            let cell = Cell::default();
            slots.cells.push_back((key, Arc::clone(&cell)));
            return Some(cell);
        }
        if slots.seen.len() == SEEN {
            slots.seen.pop_front();
        }
        slots.seen.push_back(key);
        None
    }

    /// The counters so far and the filled entries held now.
    pub(crate) fn stats(&self) -> TraceStoreStats {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        TraceStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            entries: slots
                .cells
                .iter()
                .filter(|(_, c)| c.get().is_some())
                .count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TraceSource;
    use std::sync::atomic::AtomicUsize;

    fn key(seed: u64) -> TraceKey {
        (OperatorId::Eso, TraceSource::Paper, 2021, seed)
    }

    fn flat(seed: u64) -> Arc<IntensityTrace> {
        Arc::new(IntensityTrace::new(
            OperatorId::Eso,
            HourlySeries::constant(2021, seed as f64),
        ))
    }

    /// Looks `k` up through `store`, counting provider calls in `calls`.
    fn lookup(store: &TraceStore, calls: &AtomicUsize, k: TraceKey) -> Arc<IntensityTrace> {
        store
            .trace(k, || {
                calls.fetch_add(1, Ordering::Relaxed);
                flat(k.3)
            })
            .0
    }

    #[test]
    fn first_sight_builds_second_fills_third_hits() {
        let (store, calls) = (TraceStore::default(), AtomicUsize::new(0));
        for expected in [1, 2, 2, 2] {
            let t = lookup(&store, &calls, key(5));
            assert_eq!(t.series().values()[0], 5.0);
            assert_eq!(calls.load(Ordering::Relaxed), expected);
        }
        let stats = store.stats();
        assert_eq!((stats.hits, stats.builds, stats.entries), (2, 2, 1));
    }

    #[test]
    fn hits_return_the_stats_and_values_the_fill_computed() {
        let store = TraceStore::default();
        let provider = || {
            Arc::new(hpcarbon_grid::synth::synthesize_year(
                OperatorId::Ciso,
                2021,
                3,
            ))
        };
        let (_, none) = store.trace(key(3), provider);
        assert_eq!(none, None, "a first sight keeps nothing");
        let (filled, stats) = store.trace(key(3), provider);
        let (hit, hit_stats) = store.trace(key(3), || unreachable!("a hit builds nothing"));
        assert_eq!(stats, Some(TraceStats::of(&filled)));
        assert_eq!(hit_stats, stats);
        assert_eq!(hit.operator(), filled.operator());
        let bits = |t: &IntensityTrace| -> Vec<u64> {
            t.series().values().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&hit), bits(&filled));
        assert_eq!(hit.series().year(), filled.series().year());
        for (start, w) in [(0, 8760), (100, 24), (8750, 30)] {
            assert_eq!(
                hit.window_index().window_sum(start, w).to_bits(),
                filled.window_index().window_sum(start, w).to_bits()
            );
        }
    }

    #[test]
    fn novel_keys_admit_nothing() {
        let (store, calls) = (TraceStore::default(), AtomicUsize::new(0));
        for seed in 0..2_000 {
            lookup(&store, &calls, key(seed));
        }
        assert_eq!(calls.load(Ordering::Relaxed), 2_000);
        let stats = store.stats();
        assert_eq!((stats.entries, stats.hits), (0, 0));
        let slots = store.slots.lock().unwrap();
        assert!(slots.cells.is_empty());
        assert_eq!(slots.seen.len(), SEEN, "the FIFO stays bounded");
    }

    #[test]
    fn the_store_is_bounded_and_evicts_least_recently_used_first() {
        let (store, calls) = (TraceStore::default(), AtomicUsize::new(0));
        for seed in 0..64 {
            lookup(&store, &calls, key(seed));
            lookup(&store, &calls, key(seed));
        }
        assert_eq!(store.stats().entries, CAPACITY);
        // The last CAPACITY keys are held; the first ones were evicted.
        let before = calls.load(Ordering::Relaxed);
        lookup(&store, &calls, key(63));
        lookup(&store, &calls, key(32));
        assert_eq!(calls.load(Ordering::Relaxed), before, "held keys hit");

        // Key 33 is now the least recently used: one more admission
        // evicts it and keeps the just-touched 32 and 63.
        lookup(&store, &calls, key(1_000));
        lookup(&store, &calls, key(1_000));
        assert_eq!(store.stats().entries, CAPACITY);
        let before = calls.load(Ordering::Relaxed);
        for seed in [32, 63, 34, 1_000] {
            lookup(&store, &calls, key(seed));
        }
        assert_eq!(calls.load(Ordering::Relaxed), before);
        lookup(&store, &calls, key(33));
        assert_eq!(calls.load(Ordering::Relaxed), before + 1, "33 was evicted");
    }

    #[test]
    fn a_panicked_fill_leaves_the_cell_for_the_next_caller() {
        let (store, calls) = (TraceStore::default(), AtomicUsize::new(0));
        lookup(&store, &calls, key(9));
        let fill = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.trace(key(9), || panic!("provider failure"))
        }));
        assert!(fill.is_err());
        assert_eq!(store.stats().entries, 0, "the panicked fill left nothing");
        assert_eq!(store.stats().builds, 1, "a panicked build is not counted");
        assert!(
            !store.slots.is_poisoned(),
            "the provider ran outside the lock"
        );
        lookup(&store, &calls, key(9));
        assert_eq!(store.stats().entries, 1, "the next caller filled it");
        lookup(&store, &calls, key(9));
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(store.stats().hits, 1);
    }
}
