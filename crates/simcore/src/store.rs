//! A bounded memo of derived values: second-sight admission,
//! least-recently-used eviction, one fill per admitted key.
//!
//! The workspace memoizes with this one type: the estimator's trace,
//! run and seasonal stores (`hpcarbon-api`) and the grid simulator's
//! clear-sky tables (`hpcarbon-grid`).
//!
//! ## Admission on second sight
//!
//! A key enters a store only on its second miss. A FIFO of the last
//! [`SEEN`] first sights remembers the rest. Traffic that never repeats a
//! key therefore admits nothing. A repeating key pays one extra build
//! per store lifetime: its first sight builds without storing, its
//! second fills the entry.
//!
//! ## Memory bound
//!
//! A store holds at most its capacity of entries and evicts the least
//! recently used entry first. Its admission FIFO holds at most [`SEEN`]
//! keys.
//!
//! ## Fill
//!
//! Each admitted key owns a `OnceLock` cell, so concurrent misses on one
//! key build it once while the others wait for the fill. No build runs
//! under a store's lock: a panicking build leaves the lock unpoisoned and
//! its cell empty, and the next caller fills it.

use crate::lru::Lru;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// First sights each store's admission FIFO remembers.
pub const SEEN: usize = 256;

type Cell<V> = Arc<OnceLock<V>>;

struct Slots<K, V> {
    /// Admitted keys and their cells.
    cells: Lru<K, Cell<V>>,
    /// Keys missed once and not yet admitted. Never promoted, so it
    /// evicts the oldest first sight: a FIFO.
    seen: Lru<K, ()>,
}

/// What one store has done since it was built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Lookups answered from a filled entry.
    pub hits: u64,
    /// Values built through the store: first sights and fills.
    pub builds: u64,
    /// Filled entries held now.
    pub entries: usize,
}

/// What a [`Store::get`] found.
pub enum Found<B, V> {
    /// A first sight: `build` ran and the store kept nothing.
    Unkept(B),
    /// The fill of an admitted key: `build` ran and the store keeps `V`.
    Filled(B, V),
    /// A hit: what an earlier fill kept.
    Stored(V),
}

impl<V> Found<V, V> {
    /// The value, however it was found.
    pub fn value(self) -> V {
        match self {
            Found::Unkept(v) | Found::Filled(v, _) | Found::Stored(v) => v,
        }
    }
}

/// A bounded store: second-sight admission, least-recently-used
/// eviction, one fill per admitted key.
pub struct Store<K, V> {
    slots: Mutex<Slots<K, V>>,
    hits: AtomicU64,
    builds: AtomicU64,
}

impl<K: Copy + Ord, V: Clone> Store<K, V> {
    /// An empty store of at most `capacity` entries. It reserves nothing
    /// until keys arrive, so it may be a `static`.
    pub const fn new(capacity: usize) -> Store<K, V> {
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
    pub fn get<B>(
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
    pub fn counters(&self) -> StoreCounters {
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
    use std::sync::atomic::AtomicUsize;

    /// Looks `k` up through `store`, counting builds in `calls`; the
    /// value is the key.
    fn lookup(store: &Store<u64, u64>, calls: &AtomicUsize, k: u64) -> u64 {
        let build = || {
            calls.fetch_add(1, Ordering::Relaxed);
            k
        };
        store.get(k, build, u64::clone).value()
    }

    #[test]
    fn novel_keys_admit_nothing() {
        let (store, calls) = (Store::new(32), AtomicUsize::new(0));
        for k in 0..2_000 {
            assert_eq!(lookup(&store, &calls, k), k);
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
        const CAPACITY: usize = 32;
        let (store, calls) = (Store::new(CAPACITY), AtomicUsize::new(0));
        for k in 0..64 {
            lookup(&store, &calls, k);
            lookup(&store, &calls, k);
        }
        assert_eq!(store.counters().entries, CAPACITY);
        // The last CAPACITY keys are held; the first ones were evicted.
        let before = calls.load(Ordering::Relaxed);
        lookup(&store, &calls, 63);
        lookup(&store, &calls, 32);
        assert_eq!(calls.load(Ordering::Relaxed), before, "held keys hit");

        // Key 33 is now the least recently used: one more admission
        // evicts it and keeps the just-touched 32 and 63.
        lookup(&store, &calls, 1_000);
        lookup(&store, &calls, 1_000);
        assert_eq!(store.counters().entries, CAPACITY);
        let before = calls.load(Ordering::Relaxed);
        for k in [32, 63, 34, 1_000] {
            lookup(&store, &calls, k);
        }
        assert_eq!(calls.load(Ordering::Relaxed), before);
        lookup(&store, &calls, 33);
        assert_eq!(calls.load(Ordering::Relaxed), before + 1, "33 was evicted");
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
        let (store, calls) = (Store::new(32), AtomicUsize::new(0));
        lookup(&store, &calls, 9);
        let fill = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.get(9, || panic!("build failure"), u64::clone)
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
        assert!(!store.slots.is_poisoned(), "the build ran outside the lock");
        lookup(&store, &calls, 9);
        assert_eq!(store.counters().entries, 1, "the next caller filled it");
        lookup(&store, &calls, 9);
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(store.counters().hits, 1);
    }
}
