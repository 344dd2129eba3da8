//! A sharded LRU cache with O(1) lookup, insert, and eviction.
//!
//! The serving hot path is "many worker threads asking for the same few
//! canonical requests", so the cache is split into [`SHARDS`] independent
//! shards, each behind its own [`Mutex`] — threads hitting different
//! shards never contend. Within a shard, recency is an intrusive doubly
//! linked list threaded through a slab of entries (`prev`/`next` are slab
//! indices, not pointers — no `unsafe`), and a `HashMap` maps keys to
//! slab slots:
//!
//! - `get` promotes the entry to the front and clones the value out;
//! - `insert` evicts the back entry once the shard is full;
//! - capacity 0 disables the cache entirely (every `get` misses, every
//!   `insert` is a no-op) — the knob the uncached benchmark arm and
//!   `--cache 0` use.
//!
//! Values are cloned out rather than borrowed so no lock is held while
//! the caller works with them; the service stores `Arc`ed reports, making
//! the clone a refcount bump.

use hpcarbon_sim::rng::fnv1a64;
use std::collections::HashMap;
use std::sync::Mutex;

/// Number of independent shards (a power of two; the key hash picks one).
pub const SHARDS: usize = 8;

const NIL: usize = usize::MAX;

struct Slot<V> {
    key: String,
    value: V,
    prev: usize,
    next: usize,
}

struct Shard<V> {
    map: HashMap<String, usize>,
    slots: Vec<Slot<V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<V: Clone> Shard<V> {
    /// An empty shard. Its table and slab grow as entries arrive: a
    /// large `--cache` reserves nothing at boot, and a shard holding a
    /// few entries touches a few pages, not one per reserved bucket.
    fn new(capacity: usize) -> Shard<V> {
        Shard {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    fn get(&mut self, key: &str) -> Option<V> {
        let &i = self.map.get(key)?;
        self.unlink(i);
        self.push_front(i);
        Some(self.slots[i].value.clone())
    }

    fn insert(&mut self, key: String, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            self.unlink(i);
            self.push_front(i);
            return;
        }
        if self.map.len() == self.capacity {
            let lru = self.tail;
            self.unlink(lru);
            self.map.remove(&self.slots[lru].key);
            self.free.push(lru);
        }
        let slot = Slot {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
    }
}

/// The sharded LRU cache. `V` is cloned out on hits; wrap large values in
/// an [`std::sync::Arc`].
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
}

impl<V: Clone> ShardedLru<V> {
    /// A cache holding up to `capacity` entries in total, split evenly
    /// across [`SHARDS`] shards (rounded up, so the effective total can
    /// slightly exceed `capacity`). Capacity 0 disables caching.
    pub fn new(capacity: usize) -> ShardedLru<V> {
        let per_shard = capacity.div_ceil(SHARDS);
        let shards = (0..SHARDS)
            .map(|_| Mutex::new(Shard::new(if capacity == 0 { 0 } else { per_shard })))
            .collect();
        ShardedLru { shards }
    }

    /// FNV-1a over the key bytes is stable across runs (no
    /// `RandomState`), so shard assignment — and therefore
    /// lock-contention behaviour — is reproducible.
    fn shard(&self, key: &str) -> &Mutex<Shard<V>> {
        &self.shards[(fnv1a64(key.as_bytes()) as usize) % SHARDS]
    }

    /// Looks a key up, promoting it to most-recently-used on a hit.
    pub fn get(&self, key: &str) -> Option<V> {
        self.shard(key)
            .lock()
            // lint: allow(panic-in-library) -- poison propagation is deliberate: a shard's intrusive LRU list may be half-relinked when a peer panics, so reuse would serve corrupt entries
            .expect("cache shard poisoned")
            .get(key)
    }

    /// Inserts (or refreshes) an entry, evicting the shard's
    /// least-recently-used entry when full. No-op at capacity 0.
    pub fn insert(&self, key: String, value: V) {
        self.shard(&key)
            .lock()
            // lint: allow(panic-in-library) -- poison propagation is deliberate, as in get(): a half-relinked LRU list must not be written into
            .expect("cache shard poisoned")
            .insert(key, value);
    }

    /// Current number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            // lint: allow(panic-in-library) -- poison propagation is deliberate, as in get()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single-shard view for deterministic LRU-order assertions.
    fn shard(capacity: usize) -> Shard<u32> {
        Shard::new(capacity)
    }

    #[test]
    fn get_returns_inserted_values() {
        let cache: ShardedLru<u32> = ShardedLru::new(16);
        assert_eq!(cache.get("a"), None);
        cache.insert("a".into(), 1);
        cache.insert("b".into(), 2);
        assert_eq!(cache.get("a"), Some(1));
        assert_eq!(cache.get("b"), Some(2));
        assert_eq!(cache.len(), 2);
        // Re-insert refreshes the value in place.
        cache.insert("a".into(), 9);
        assert_eq!(cache.get("a"), Some(9));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut s = shard(2);
        s.insert("a".into(), 1);
        s.insert("b".into(), 2);
        // Touch "a" so "b" becomes the LRU entry…
        assert_eq!(s.get("a"), Some(1));
        s.insert("c".into(), 3);
        // …and only "b" is gone.
        assert_eq!(s.get("b"), None);
        assert_eq!(s.get("a"), Some(1));
        assert_eq!(s.get("c"), Some(3));
        assert_eq!(s.map.len(), 2);
    }

    #[test]
    fn capacity_one_keeps_exactly_the_newest() {
        let mut s = shard(1);
        for (i, k) in ["a", "b", "c"].iter().enumerate() {
            s.insert((*k).into(), i as u32);
        }
        assert_eq!(s.get("a"), None);
        assert_eq!(s.get("b"), None);
        assert_eq!(s.get("c"), Some(2));
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let cache: ShardedLru<u32> = ShardedLru::new(0);
        cache.insert("a".into(), 1);
        assert_eq!(cache.get("a"), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn shards_reserve_nothing_at_boot() {
        let cache: ShardedLru<u32> = ShardedLru::new(16_384);
        for shard in &cache.shards {
            let s = shard.lock().unwrap();
            assert_eq!((s.map.capacity(), s.slots.capacity()), (0, 0));
        }
        cache.insert("a".into(), 1);
        assert_eq!(cache.get("a"), Some(1));
    }

    #[test]
    fn slots_are_reused_after_eviction() {
        let mut s = shard(2);
        for i in 0..100u32 {
            s.insert(format!("k{i}"), i);
        }
        // 100 inserts through a 2-entry shard must not grow the slab
        // beyond capacity (evicted slots are recycled).
        assert!(s.slots.len() <= 2, "slab grew to {}", s.slots.len());
        assert_eq!(s.get("k99"), Some(99));
        assert_eq!(s.get("k98"), Some(98));
        assert_eq!(s.get("k0"), None);
    }

    #[test]
    fn sharding_is_stable_and_spread() {
        // FNV-1a is fixed, so the same key always lands in the same
        // shard; distinct keys spread across more than one shard.
        let cache: ShardedLru<u32> = ShardedLru::new(SHARDS * 4);
        let mut hit_shards = std::collections::BTreeSet::new();
        for i in 0..64u32 {
            let key = format!("req-{i}");
            hit_shards.insert((fnv1a64(key.as_bytes()) as usize) % SHARDS);
            cache.insert(key, i);
        }
        assert!(hit_shards.len() > 1, "all keys landed in one shard");
        // Every shard caps at capacity/SHARDS, so the total is bounded
        // even under a skewed key distribution.
        assert!(cache.len() <= SHARDS * 4);
        assert!(cache.len() >= SHARDS, "implausibly skewed distribution");
    }

    /// The naive reference: a `Vec` ordered most-recently-used first.
    /// Every operation is O(n) and obviously correct — the property tests
    /// below hold the intrusive-list shard to this model's behaviour.
    struct ModelLru {
        cap: usize,
        /// Front = most recently used.
        entries: Vec<(String, u32)>,
    }

    impl ModelLru {
        fn new(cap: usize) -> ModelLru {
            ModelLru {
                cap,
                entries: Vec::new(),
            }
        }

        fn get(&mut self, key: &str) -> Option<u32> {
            let pos = self.entries.iter().position(|(k, _)| k == key)?;
            let entry = self.entries.remove(pos);
            let value = entry.1;
            self.entries.insert(0, entry);
            Some(value)
        }

        fn insert(&mut self, key: String, value: u32) {
            if self.cap == 0 {
                return;
            }
            if let Some(pos) = self.entries.iter().position(|(k, _)| k == &key) {
                self.entries.remove(pos);
            } else if self.entries.len() == self.cap {
                self.entries.pop();
            }
            self.entries.insert(0, (key, value));
        }
    }

    /// The shard's recency list, MRU first, read off the intrusive links.
    fn recency_order(s: &Shard<u32>) -> Vec<(String, u32)> {
        let mut out = Vec::new();
        let mut i = s.head;
        while i != NIL {
            out.push((s.slots[i].key.clone(), s.slots[i].value));
            i = s.slots[i].next;
        }
        out
    }

    mod model_props {
        use super::*;
        use proptest::collection;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(160))]

            // Random get/insert sequences over a small key space (so
            // hits, refreshes, and evictions all happen): after EVERY
            // operation the shard agrees with the naive model on hit/miss
            // verdicts, returned values, full recency order (which pins
            // the eviction order), and the capacity invariant.
            #[test]
            fn shard_matches_the_naive_lru_model(
                cap in 0usize..6,
                ops in collection::vec((0u8..2, 0usize..10, 0u32..1000), 1..120),
            ) {
                let mut real = Shard::new(cap);
                let mut model = ModelLru::new(cap);
                for (kind, k, v) in ops {
                    let key = format!("k{k}");
                    if kind == 0 {
                        prop_assert_eq!(real.get(&key), model.get(&key));
                    } else {
                        real.insert(key.clone(), v);
                        model.insert(key, v);
                    }
                    prop_assert!(real.map.len() <= cap, "over capacity");
                    prop_assert!(real.slots.len() <= cap, "slab grew past cap");
                    prop_assert_eq!(recency_order(&real), model.entries.clone());
                }
            }

            // The sharded front: routing by the stable key hash must make
            // the whole cache behave as SHARDS independent models.
            #[test]
            fn sharded_cache_matches_per_shard_models(
                cap in 0usize..20,
                ops in collection::vec((0u8..2, 0usize..24, 0u32..1000), 1..150),
            ) {
                let real: ShardedLru<u32> = ShardedLru::new(cap);
                let per = if cap == 0 { 0 } else { cap.div_ceil(SHARDS) };
                let mut models: Vec<ModelLru> =
                    (0..SHARDS).map(|_| ModelLru::new(per)).collect();
                for (kind, k, v) in ops {
                    let key = format!("k{k}");
                    let model = &mut models[(fnv1a64(key.as_bytes()) as usize) % SHARDS];
                    if kind == 0 {
                        prop_assert_eq!(real.get(&key), model.get(&key));
                    } else {
                        real.insert(key.clone(), v);
                        model.insert(key, v);
                    }
                }
                let model_len: usize = models.iter().map(|m| m.entries.len()).sum();
                prop_assert_eq!(real.len(), model_len);
            }
        }
    }

    #[test]
    fn concurrent_hammering_stays_consistent() {
        let cache = std::sync::Arc::new(ShardedLru::<u64>::new(64));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let cache = std::sync::Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let key = format!("k{}", i % 96);
                        cache.insert(key.clone(), t * 1000 + i);
                        let _ = cache.get(&key);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.len() <= 64 + SHARDS, "len {} over cap", cache.len());
    }
}
