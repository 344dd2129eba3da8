//! A bounded map that evicts its least recently used entry.
//!
//! The server's response cache and the estimator's stores share this
//! one type. Recency is an intrusive doubly linked list threaded
//! through a slab of entries (`prev`/`next` are slab indices, not
//! pointers), and a `BTreeMap` maps keys to slab slots, so the order
//! of nothing depends on a hasher:
//!
//! - [`Lru::get`] promotes the entry to most recently used;
//! - [`Lru::insert`] refreshes an entry, or evicts the least recently
//!   used one once full and reuses its slot;
//! - [`Lru::remove`] takes an entry out;
//! - capacity 0 holds nothing (every `get` misses, every `insert` is a
//!   no-op).
//!
//! The slab and the index start empty and grow as entries arrive, so a
//! large capacity reserves nothing until it is used.

use std::borrow::Borrow;
use std::collections::BTreeMap;

const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A map of at most `capacity` entries, evicting the least recently
/// used first.
pub struct Lru<K, V> {
    index: BTreeMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    /// Most recently used.
    head: usize,
    /// Least recently used: the next to be evicted.
    tail: usize,
    capacity: usize,
}

impl<K: Ord + Clone, V> Lru<K, V> {
    /// An empty map of at most `capacity` entries.
    pub fn new(capacity: usize) -> Lru<K, V> {
        Lru {
            index: BTreeMap::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// The entries held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Every value held, in no particular order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().map(|s| &s.value)
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        (self.head, self.tail) = (NIL, NIL);
    }

    /// The value under `key`, now most recently used.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let &i = self.index.get(key)?;
        self.unlink(i);
        self.push_front(i);
        Some(&self.slots[i].value)
    }

    /// Puts `value` under `key` as the most recently used entry. A held
    /// key has its value replaced; otherwise the least recently used
    /// entry is evicted when full. No-op at capacity 0.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.index.get(&key) {
            self.slots[i].value = value;
            self.unlink(i);
            self.push_front(i);
            return;
        }
        let slot = Slot {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let i = if self.slots.len() == self.capacity {
            let lru = self.tail;
            self.unlink(lru);
            let evicted = std::mem::replace(&mut self.slots[lru], slot);
            self.index.remove(&evicted.key);
            lru
        } else {
            self.slots.push(slot);
            self.slots.len() - 1
        };
        self.index.insert(key, i);
        self.push_front(i);
    }

    /// Takes the entry under `key` out, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let i = self.index.remove(key)?;
        self.unlink(i);
        // The last slot moves into the hole; its neighbours and its
        // index entry follow it.
        let last = self.slots.len() - 1;
        if i != last {
            let (prev, next) = (self.slots[last].prev, self.slots[last].next);
            match prev {
                NIL => self.head = i,
                p => self.slots[p].next = i,
            }
            match next {
                NIL => self.tail = i,
                n => self.slots[n].prev = i,
            }
            if let Some(moved) = self.index.get_mut::<K>(&self.slots[last].key) {
                *moved = i;
            }
        }
        Some(self.slots.swap_remove(i).value)
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_returns_inserted_values() {
        let mut lru: Lru<String, u32> = Lru::new(16);
        assert_eq!(lru.get("a"), None);
        lru.insert("a".into(), 1);
        lru.insert("b".into(), 2);
        assert_eq!(lru.get("a"), Some(&1));
        assert_eq!(lru.get("b"), Some(&2));
        assert_eq!(lru.len(), 2);
        // Re-insert refreshes the value in place.
        lru.insert("a".into(), 9);
        assert_eq!(lru.get("a"), Some(&9));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut lru: Lru<String, u32> = Lru::new(2);
        lru.insert("a".into(), 1);
        lru.insert("b".into(), 2);
        // Touch "a" so "b" becomes the LRU entry…
        assert_eq!(lru.get("a"), Some(&1));
        lru.insert("c".into(), 3);
        // …and only "b" is gone.
        assert_eq!(lru.get("b"), None);
        assert_eq!(lru.get("a"), Some(&1));
        assert_eq!(lru.get("c"), Some(&3));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn capacity_one_keeps_exactly_the_newest() {
        let mut lru: Lru<String, u32> = Lru::new(1);
        for (i, k) in ["a", "b", "c"].iter().enumerate() {
            lru.insert((*k).into(), i as u32);
        }
        assert_eq!(lru.get("a"), None);
        assert_eq!(lru.get("b"), None);
        assert_eq!(lru.get("c"), Some(&2));
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let mut lru: Lru<String, u32> = Lru::new(0);
        lru.insert("a".into(), 1);
        assert_eq!(lru.get("a"), None);
        assert!(lru.is_empty());
    }

    #[test]
    fn reserves_nothing_at_boot() {
        let mut lru: Lru<String, u32> = Lru::new(16_384);
        assert_eq!(lru.slots.capacity(), 0);
        lru.insert("a".into(), 1);
        assert_eq!(lru.get("a"), Some(&1));
    }

    #[test]
    fn slots_are_reused_after_eviction() {
        let mut lru: Lru<String, u32> = Lru::new(2);
        for i in 0..100u32 {
            lru.insert(format!("k{i}"), i);
        }
        // 100 inserts through a 2-entry map must not grow the slab
        // beyond capacity (evicted slots are recycled).
        assert!(lru.slots.len() <= 2, "slab grew to {}", lru.slots.len());
        assert_eq!(lru.get("k99"), Some(&99));
        assert_eq!(lru.get("k98"), Some(&98));
        assert_eq!(lru.get("k0"), None);
    }

    #[test]
    fn remove_takes_the_entry_out_and_keeps_the_order() {
        let mut lru: Lru<String, u32> = Lru::new(3);
        for (i, k) in ["a", "b", "c"].iter().enumerate() {
            lru.insert((*k).into(), i as u32);
        }
        assert_eq!(lru.remove("a"), Some(0));
        assert_eq!(lru.remove("a"), None);
        assert_eq!(lru.len(), 2);
        assert_eq!(recency_order(&lru), [("c".into(), 2), ("b".into(), 1)]);
        // The freed room takes a new entry without evicting.
        lru.insert("d".into(), 3);
        assert_eq!(lru.get("b"), Some(&1));
        assert_eq!(lru.get("c"), Some(&2));
        assert_eq!(lru.get("d"), Some(&3));
    }

    #[test]
    fn clear_drops_every_entry() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 1);
        lru.insert(2, 2);
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.get(&1), None);
        lru.insert(3, 3);
        assert_eq!(lru.get(&3), Some(&3));
    }

    #[test]
    fn values_are_every_held_value() {
        let mut lru: Lru<u32, u32> = Lru::new(3);
        for k in 0..5 {
            lru.insert(k, 10 * k);
        }
        let mut values: Vec<u32> = lru.values().copied().collect();
        values.sort_unstable();
        assert_eq!(values, [20, 30, 40]);
    }

    /// The naive reference: a `Vec` ordered most-recently-used first.
    /// Every operation is O(n) and obviously correct — the property test
    /// below holds the intrusive list to this model's behaviour.
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

        fn remove(&mut self, key: &str) -> Option<u32> {
            let pos = self.entries.iter().position(|(k, _)| k == key)?;
            Some(self.entries.remove(pos).1)
        }
    }

    /// The recency list, MRU first, read off the intrusive links.
    fn recency_order(lru: &Lru<String, u32>) -> Vec<(String, u32)> {
        let mut out = Vec::new();
        let mut i = lru.head;
        while i != NIL {
            out.push((lru.slots[i].key.clone(), lru.slots[i].value));
            i = lru.slots[i].next;
        }
        out
    }

    mod model_props {
        use super::*;
        use proptest::collection;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(160))]

            // Random get/insert/remove sequences over a small key space
            // (so hits, refreshes, evictions and removals all happen):
            // after EVERY operation the map agrees with the naive model
            // on hit/miss verdicts, returned values, full recency order
            // (which pins the eviction order), and the capacity
            // invariant.
            #[test]
            fn matches_the_naive_lru_model(
                cap in 0usize..6,
                ops in collection::vec((0u8..3, 0usize..10, 0u32..1000), 1..120),
            ) {
                let mut real = Lru::new(cap);
                let mut model = ModelLru::new(cap);
                for (kind, k, v) in ops {
                    let key = format!("k{k}");
                    match kind {
                        0 => prop_assert_eq!(real.get(key.as_str()).copied(), model.get(&key)),
                        1 => {
                            real.insert(key.clone(), v);
                            model.insert(key, v);
                        }
                        _ => prop_assert_eq!(real.remove(key.as_str()), model.remove(&key)),
                    }
                    prop_assert!(real.index.len() <= cap, "over capacity");
                    prop_assert_eq!(real.index.len(), real.slots.len());
                    prop_assert_eq!(recency_order(&real), model.entries.clone());
                }
            }
        }
    }

    #[test]
    fn concurrent_hammering_stays_consistent() {
        let lru = std::sync::Arc::new(std::sync::Mutex::new(Lru::<String, u64>::new(64)));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let lru = std::sync::Arc::clone(&lru);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let key = format!("k{}", i % 96);
                        lru.lock().unwrap().insert(key.clone(), t * 1000 + i);
                        let _ = lru.lock().unwrap().get(&key).copied();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let lru = lru.lock().unwrap();
        assert!(lru.len() <= 64, "len {} over cap", lru.len());
        assert_eq!(lru.index.len(), lru.len());
    }
}
