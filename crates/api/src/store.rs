//! Bounded stores of derived inputs that outlive requests.
//!
//! A footprint service answers many what-if requests against a handful
//! of region-years, and each miss of its response cache would otherwise
//! redo work an earlier miss just did: a dispatch simulation for the
//! grid year, a scheduling run, a seasonal-PUE year. Each
//! [`crate::Estimator`] therefore owns three stores, one per layer:
//!
//! - the **trace store** (layer 2): region-year traces by `TraceKey`;
//! - the **run store** (layer 3): what a scheduling run reports, by
//!   `RunKey`;
//! - the **seasonal store** (layer 4): a node's annual carbon under a
//!   seasonal PUE model, by `SeasonalKey`.
//!
//! A run or seasonal entry holds exactly what a context's run or
//! seasonal cell holds ([`crate::context`]), under the same key.
//!
//! ## Lookup order
//!
//! Evaluation looks each layer up in its context first, then in the
//! estimator's store, and computes it only when both miss: context trace
//! → trace store → intensity provider; run cell → run store → scheduling
//! run; seasonal cell → seasonal store → seasonal year. File-sourced
//! traces resolve from the registered trace files before any of this.
//! [`crate::Estimator::context_for`] neither reads nor fills a store, and
//! it gives a context every key of its requests, so batches and sweeps
//! never reach one. Only single evaluations, the server's miss path, do.
//!
//! ## What a trace entry holds
//!
//! A trace entry holds the operator, the hourly values and the
//! [`TraceStats`] of the trace the provider returned: ~70 KB. Layer 2
//! reads only the stats, so a trace-store hit rebuilds nothing at first.
//! The trace is rebuilt from the entry with [`IntensityTrace::new`] at
//! most once per evaluation, and only when a layer must actually run on
//! it: a run or seasonal-year miss, or a partner site. That is the only
//! way to build a trace, and the prefix-sum index it computes is a pure
//! function of the values, so the rebuilt trace equals the provider's bit
//! for bit. Keeping the index, or whole traces, would double each entry.
//!
//! ## Admission on second sight
//!
//! A key enters a store only on its second miss. A FIFO of the last
//! [`SEEN`] first sights remembers the rest. Traffic that never repeats a
//! key, every request under a fresh seed, therefore admits nothing. A
//! repeating key pays one extra build per store lifetime: its first
//! sight builds without storing, its second fills the entry.
//!
//! ## Memory bound
//!
//! The trace store holds at most [`TRACE_CAPACITY`] entries (~2.2 MiB).
//! The run and seasonal stores hold at most [`RUN_CAPACITY`] and
//! [`SEASONAL_CAPACITY`] entries of a few hundred bytes each, ~0.2 MiB
//! together. Each store evicts the least recently used entry first, and
//! each admission FIFO holds at most [`SEEN`] keys (~75 KB with its
//! index for the run store's, the largest keys).
//!
//! ## Fill
//!
//! Each admitted key owns a `OnceLock` cell, so concurrent misses on one
//! key build it once while the others wait for the fill. No build runs
//! under a store's lock: a panicking build leaves the lock unpoisoned and
//! its cell empty, and the next caller fills it.
//!
//! Fills cannot deadlock, because they nest in one direction only. A run
//! fill may look up its partner site's trace and so wait on a trace fill.
//! A trace fill calls only the intensity provider, and a seasonal fill
//! only rebuilds a trace from an entry its evaluation already holds, so
//! neither waits on anything. Run → trace never closes into a cycle, and
//! an evaluation has finished its primary trace lookup before any run
//! fill starts.

use crate::context::TraceStats;
use hpcarbon_grid::regions::OperatorId;
use hpcarbon_grid::trace::IntensityTrace;
use hpcarbon_sim::lru::Lru;
use hpcarbon_timeseries::series::HourlySeries;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Most entries the trace store holds. At ~70 KB each, 32 entries are
/// ~2.2 MiB.
pub const TRACE_CAPACITY: usize = 32;

/// Most entries the run store holds, a few hundred bytes each.
pub const RUN_CAPACITY: usize = 256;

/// Most entries the seasonal store holds, under a hundred bytes each.
pub const SEASONAL_CAPACITY: usize = 256;

/// First sights each store's admission FIFO remembers.
pub const SEEN: usize = 256;

/// One trace-store entry: what the provider's trace is rebuilt from, and
/// its stats.
pub(crate) struct StoredTrace {
    operator: OperatorId,
    series: HourlySeries,
    pub(crate) stats: TraceStats,
}

impl StoredTrace {
    /// The entry for `trace`: its operator, a copy of its values, and its
    /// stats.
    pub(crate) fn of(trace: &IntensityTrace) -> StoredTrace {
        StoredTrace {
            operator: trace.operator(),
            series: trace.series().clone(),
            stats: TraceStats::of(trace),
        }
    }

    /// The trace this entry was made from, bit for bit.
    pub(crate) fn rebuild(&self) -> Arc<IntensityTrace> {
        Arc::new(IntensityTrace::new(self.operator, self.series.clone()))
    }
}

type Cell<V> = Arc<OnceLock<V>>;

struct Slots<K, V> {
    /// Admitted keys and their cells.
    cells: Lru<K, Cell<V>>,
    /// Keys missed once and not yet admitted. Never promoted, so it
    /// evicts the oldest first sight: a FIFO.
    seen: Lru<K, ()>,
}

/// What one store has done since its estimator was built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Lookups answered from a filled entry.
    pub hits: u64,
    /// Values built through the store: first sights and fills.
    pub builds: u64,
    /// Filled entries held now.
    pub entries: usize,
}

/// The counters of an estimator's three stores: what the server's
/// `trace_store_*`, `run_store_*` and `seasonal_store_*` metrics read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// The region-year trace store (layer 2).
    pub traces: StoreCounters,
    /// The scheduling-run store (layer 3).
    pub runs: StoreCounters,
    /// The seasonal-PUE-year store (layer 4).
    pub seasonal: StoreCounters,
}

/// What a [`Store::get`] found.
pub(crate) enum Found<B, V> {
    /// A first sight: `build` ran and the store kept nothing.
    Unkept(B),
    /// The fill of an admitted key: `build` ran and the store keeps `V`.
    Filled(B, V),
    /// A hit: what an earlier fill kept.
    Stored(V),
}

impl<V> Found<V, V> {
    /// The value, however it was found.
    pub(crate) fn value(self) -> V {
        match self {
            Found::Unkept(v) | Found::Filled(v, _) | Found::Stored(v) => v,
        }
    }
}

/// A bounded store an [`crate::Estimator`] owns: second-sight admission,
/// least-recently-used eviction, one fill per admitted key.
pub(crate) struct Store<K, V> {
    slots: Mutex<Slots<K, V>>,
    hits: AtomicU64,
    builds: AtomicU64,
}

impl<K: Copy + Ord, V: Clone> Store<K, V> {
    /// An empty store of at most `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Store<K, V> {
        Store {
            slots: Mutex::new(Slots {
                cells: Lru::new(capacity),
                seen: Lru::new(SEEN),
            }),
            hits: AtomicU64::new(0),
            builds: AtomicU64::new(0),
        }
    }

    /// Looks `key` up. `build` runs on a first sight and on the fill of an
    /// admitted key, never under the store's lock; on a fill, `keep`
    /// derives the entry from what `build` returned.
    pub(crate) fn get<B>(
        &self,
        key: K,
        build: impl FnOnce() -> B,
        keep: impl FnOnce(&B) -> V,
    ) -> Found<B, V> {
        let Some(cell) = self.admit(key) else {
            let built = build();
            self.builds.fetch_add(1, Ordering::Relaxed);
            return Found::Unkept(built);
        };
        let mut built = None;
        let kept = cell
            .get_or_init(|| {
                let b = build();
                self.builds.fetch_add(1, Ordering::Relaxed);
                let kept = keep(&b);
                built = Some(b);
                kept
            })
            .clone();
        match built {
            Some(b) => Found::Filled(b, kept),
            None => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Found::Stored(kept)
            }
        }
    }

    /// The cell of an admitted `key`, now most recently used. A key
    /// seen once before is admitted, evicting the least recently used
    /// entry when full. A first sight is remembered and gets `None`.
    fn admit(&self, key: K) -> Option<Cell<V>> {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(cell) = slots.cells.get(&key) {
            return Some(Arc::clone(cell));
        }
        if slots.seen.remove(&key).is_some() {
            let cell = Cell::default();
            slots.cells.insert(key, Arc::clone(&cell));
            return Some(cell);
        }
        slots.seen.insert(key, ());
        None
    }

    /// The counters so far and the filled entries held now.
    pub(crate) fn counters(&self) -> StoreCounters {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            entries: slots.cells.values().filter(|c| c.get().is_some()).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TraceKey;
    use crate::types::TraceSource;
    use std::sync::atomic::AtomicUsize;

    type Traces = Store<TraceKey, Arc<StoredTrace>>;

    fn traces() -> Traces {
        Store::new(TRACE_CAPACITY)
    }

    fn key(seed: u64) -> TraceKey {
        (OperatorId::Eso, TraceSource::Paper, 2021, seed)
    }

    fn flat(seed: u64) -> Arc<IntensityTrace> {
        Arc::new(IntensityTrace::new(
            OperatorId::Eso,
            HourlySeries::new(2021, vec![seed as f64; 8760]),
        ))
    }

    /// Looks a trace up the way evaluation does, with `provider` behind
    /// the store.
    fn trace_of(
        store: &Traces,
        k: TraceKey,
        provider: impl FnOnce() -> Arc<IntensityTrace>,
    ) -> Found<Arc<IntensityTrace>, Arc<StoredTrace>> {
        store.get(k, provider, |t| Arc::new(StoredTrace::of(t)))
    }

    /// Looks `k` up through `store`, counting provider calls in `calls`.
    fn lookup(store: &Traces, calls: &AtomicUsize, k: TraceKey) -> Arc<IntensityTrace> {
        let found = trace_of(store, k, || {
            calls.fetch_add(1, Ordering::Relaxed);
            flat(k.3)
        });
        match found {
            Found::Unkept(t) | Found::Filled(t, _) => t,
            Found::Stored(entry) => entry.rebuild(),
        }
    }

    #[test]
    fn first_sight_builds_second_fills_third_hits() {
        let (store, calls) = (traces(), AtomicUsize::new(0));
        for expected in [1, 2, 2, 2] {
            let t = lookup(&store, &calls, key(5));
            assert_eq!(t.series().values()[0], 5.0);
            assert_eq!(calls.load(Ordering::Relaxed), expected);
        }
        let c = store.counters();
        assert_eq!((c.hits, c.builds, c.entries), (2, 2, 1));

        // A store of plain values behaves the same way.
        let (runs, calls) = (Store::<u64, u64>::new(RUN_CAPACITY), AtomicUsize::new(0));
        let run = || calls.fetch_add(1, Ordering::Relaxed) as u64 + 10;
        assert!(matches!(runs.get(3, run, u64::clone), Found::Unkept(10)));
        assert!(matches!(
            runs.get(3, run, u64::clone),
            Found::Filled(11, 11)
        ));
        assert!(matches!(runs.get(3, run, u64::clone), Found::Stored(11)));
        assert_eq!(runs.get(3, run, u64::clone).value(), 11);
        let c = runs.counters();
        assert_eq!((c.hits, c.builds, c.entries), (2, 2, 1));
    }

    #[test]
    fn hits_return_the_stats_and_values_the_fill_computed() {
        let store = traces();
        let provider = || {
            Arc::new(hpcarbon_grid::synth::synthesize_year(
                OperatorId::Ciso,
                2021,
                3,
            ))
        };
        assert!(
            matches!(trace_of(&store, key(3), provider), Found::Unkept(_)),
            "a first sight keeps nothing"
        );
        let Found::Filled(filled, entry) = trace_of(&store, key(3), provider) else {
            panic!("the second sight fills the entry");
        };
        let Found::Stored(hit) = trace_of(&store, key(3), || unreachable!("a hit builds nothing"))
        else {
            panic!("the third sight hits");
        };
        assert_eq!(entry.stats, TraceStats::of(&filled));
        assert_eq!(hit.stats, entry.stats);
        let hit = hit.rebuild();
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
        let (store, calls) = (traces(), AtomicUsize::new(0));
        for seed in 0..2_000 {
            lookup(&store, &calls, key(seed));
        }
        assert_eq!(calls.load(Ordering::Relaxed), 2_000);
        let c = store.counters();
        assert_eq!((c.entries, c.hits), (0, 0));
        let slots = store.slots.lock().unwrap();
        assert!(slots.cells.is_empty());
        assert_eq!(slots.seen.len(), SEEN, "the FIFO stays bounded");
    }

    #[test]
    fn the_store_is_bounded_and_evicts_least_recently_used_first() {
        let (store, calls) = (traces(), AtomicUsize::new(0));
        for seed in 0..64 {
            lookup(&store, &calls, key(seed));
            lookup(&store, &calls, key(seed));
        }
        assert_eq!(store.counters().entries, TRACE_CAPACITY);
        // The last TRACE_CAPACITY keys are held; the first ones were
        // evicted.
        let before = calls.load(Ordering::Relaxed);
        lookup(&store, &calls, key(63));
        lookup(&store, &calls, key(32));
        assert_eq!(calls.load(Ordering::Relaxed), before, "held keys hit");

        // Key 33 is now the least recently used: one more admission
        // evicts it and keeps the just-touched 32 and 63.
        lookup(&store, &calls, key(1_000));
        lookup(&store, &calls, key(1_000));
        assert_eq!(store.counters().entries, TRACE_CAPACITY);
        let before = calls.load(Ordering::Relaxed);
        for seed in [32, 63, 34, 1_000] {
            lookup(&store, &calls, key(seed));
        }
        assert_eq!(calls.load(Ordering::Relaxed), before);
        lookup(&store, &calls, key(33));
        assert_eq!(calls.load(Ordering::Relaxed), before + 1, "33 was evicted");

        // The run and seasonal capacities bound their stores the same
        // way.
        for capacity in [RUN_CAPACITY, SEASONAL_CAPACITY] {
            let store = Store::<u64, u64>::new(capacity);
            for k in 0..2 * capacity as u64 {
                store.get(k, || k, u64::clone);
                store.get(k, || k, u64::clone);
            }
            assert_eq!(store.counters().entries, capacity);
        }
    }

    /// The naive reference: the admission the store ran before it was
    /// built on [`Lru`], a FIFO of [`SEEN`] first sights and an LRU of
    /// filled cells, each a queue searched by a linear scan.
    struct ModelStore {
        capacity: usize,
        /// Keys missed once and not yet admitted, oldest first.
        seen: Vec<u64>,
        /// Admitted keys and their values, least recently used first.
        cells: Vec<(u64, u64)>,
        hits: u64,
        builds: u64,
    }

    impl ModelStore {
        fn new(capacity: usize) -> ModelStore {
            ModelStore {
                capacity,
                seen: Vec::new(),
                cells: Vec::new(),
                hits: 0,
                builds: 0,
            }
        }

        /// What [`Store::get`] finds for `key` when `built` is what its
        /// build would return, as (variant, value).
        fn get(&mut self, key: u64, built: u64) -> (&'static str, u64) {
            if let Some(i) = self.cells.iter().position(|&(k, _)| k == key) {
                let cell = self.cells.remove(i);
                self.cells.push(cell);
                self.hits += 1;
                return ("stored", cell.1);
            }
            self.builds += 1;
            if let Some(i) = self.seen.iter().position(|&k| k == key) {
                self.seen.remove(i);
                if self.cells.len() == self.capacity {
                    self.cells.remove(0);
                }
                self.cells.push((key, built));
                return ("filled", built);
            }
            if self.seen.len() == SEEN {
                self.seen.remove(0);
            }
            self.seen.push(key);
            ("unkept", built)
        }
    }

    mod model_props {
        use super::*;
        use proptest::collection;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            // A quarter of the lookups repeat a dozen hot keys, so
            // admissions fill and evict up to 8 cells; the rest spread
            // over a thousand keys, so first sights overflow the 256-key
            // FIFO and some keys come back just after falling out of it.
            // Every lookup builds a distinct value, so a hit names the
            // fill it returns.
            #[test]
            fn admission_matches_the_naive_model(
                capacity in 1usize..9,
                picks in collection::vec((0u8..4, 0u64..1_000), 300..1_500),
            ) {
                let store = Store::<u64, u64>::new(capacity);
                let mut model = ModelStore::new(capacity);
                for (step, &(pick, k)) in picks.iter().enumerate() {
                    let key = if pick == 0 { k % 12 } else { k };
                    let built = step as u64;
                    let found = match store.get(key, || built, u64::clone) {
                        Found::Unkept(b) => ("unkept", b),
                        Found::Filled(b, kept) => {
                            prop_assert_eq!(b, kept);
                            ("filled", b)
                        }
                        Found::Stored(v) => ("stored", v),
                    };
                    prop_assert_eq!((step, found), (step, model.get(key, built)));
                }
                let c = store.counters();
                prop_assert_eq!(
                    (c.hits, c.builds, c.entries),
                    (model.hits, model.builds, model.cells.len())
                );
            }
        }
    }

    #[test]
    fn a_panicked_fill_leaves_the_cell_for_the_next_caller() {
        let (store, calls) = (traces(), AtomicUsize::new(0));
        lookup(&store, &calls, key(9));
        let fill = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            trace_of(&store, key(9), || panic!("provider failure"))
        }));
        assert!(fill.is_err());
        assert_eq!(
            store.counters().entries,
            0,
            "the panicked fill left nothing"
        );
        assert_eq!(
            store.counters().builds,
            1,
            "a panicked build is not counted"
        );
        assert!(
            !store.slots.is_poisoned(),
            "the provider ran outside the lock"
        );
        lookup(&store, &calls, key(9));
        assert_eq!(store.counters().entries, 1, "the next caller filled it");
        lookup(&store, &calls, key(9));
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(store.counters().hits, 1);
    }
}
