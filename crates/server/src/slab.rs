//! A minimal slot map for per-shard connection state.
//!
//! Every live connection on an event-loop shard occupies one slot; the
//! slot index doubles as the connection's epoll token, so readiness
//! events map back to state in O(1) with no hashing. Freed slots are
//! recycled LIFO (the hot path under connection churn), which is exactly
//! why tokens alone are not identity: a worker may still hold the token
//! of a connection that died and whose slot was reused. The event loop
//! pairs every token with a per-shard generation counter and discards
//! stale completions; the slab itself stays oblivious.

/// A vector-backed slot map with LIFO slot reuse.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<usize>,
    len: usize,
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Inserts a value, returning its slot index (stable until removal).
    pub fn insert(&mut self, value: T) -> usize {
        self.len += 1;
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(value);
                i
            }
            None => {
                self.slots.push(Some(value));
                self.slots.len() - 1
            }
        }
    }

    /// Borrows the value at `index`, if occupied.
    pub fn get(&self, index: usize) -> Option<&T> {
        self.slots.get(index).and_then(Option::as_ref)
    }

    /// Mutably borrows the value at `index`, if occupied.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        self.slots.get_mut(index).and_then(Option::as_mut)
    }

    /// Removes and returns the value at `index`; the slot becomes
    /// reusable. Removing a vacant slot is a no-op returning `None`.
    pub fn remove(&mut self, index: usize) -> Option<T> {
        let value = self.slots.get_mut(index)?.take()?;
        self.free.push(index);
        self.len -= 1;
        Some(value)
    }

    /// True when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Indices of every occupied slot, collected (for sweeps that need
    /// to remove entries while iterating).
    pub fn occupied(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
            .collect()
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Slab<T> {
        Slab::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_ne!(a, b);
        assert_eq!(slab.len, 2);
        assert_eq!(slab.get(a), Some(&"a"));
        *slab.get_mut(b).unwrap() = "B";
        assert_eq!(slab.remove(b), Some("B"));
        assert_eq!(slab.get(b), None);
        assert_eq!(slab.remove(b), None, "double remove is a no-op");
        assert_eq!(slab.len, 1);
    }

    #[test]
    fn freed_slots_are_reused_lifo() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        let b = slab.insert(2);
        slab.remove(a);
        slab.remove(b);
        // LIFO: the most recently freed slot comes back first, and the
        // backing vector does not grow.
        assert_eq!(slab.insert(3), b);
        assert_eq!(slab.insert(4), a);
        assert_eq!(slab.slots.len(), 2);
    }

    #[test]
    fn iteration_skips_vacant_slots() {
        let mut slab = Slab::new();
        let a = slab.insert(10);
        let b = slab.insert(20);
        let c = slab.insert(30);
        slab.remove(b);
        assert_eq!(slab.occupied(), vec![a, c]);
        assert!(!slab.is_empty());
    }
}
