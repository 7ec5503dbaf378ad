//! A slab-backed LRU cache for serving results.
//!
//! Entries live in a `Vec` slab threaded as a doubly-linked list
//! (most-recently-used at the head) with a `HashMap` from key to slot,
//! so `get`/`insert` are O(1) with no per-entry allocation after the
//! slab fills. The serving layer keys entries by `(user, city, k)` and
//! tags each with the model epoch that scored it: bumping the epoch on
//! hot-reload turns every entry from a hit into a stale answer at once —
//! invalidation is free — and the next miss replaces it in place.

use std::collections::HashMap;
use std::hash::Hash;

/// Sentinel for "no slot".
const NONE: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used map.
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    head: usize,
    tail: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries. Capacity 0 is
    /// a valid always-miss cache (caching disabled).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            slots: Vec::new(),
            head: NONE,
            tail: NONE,
        }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Unlinks `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev == NONE {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NONE {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    /// Links `slot` at the head (most recently used).
    fn link_front(&mut self, slot: usize) {
        self.slots[slot].prev = NONE;
        self.slots[slot].next = self.head;
        if self.head != NONE {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NONE {
            self.tail = slot;
        }
    }

    /// Looks up `key`, marking the entry most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let slot = *self.map.get(key)?;
        if slot != self.head {
            self.unlink(slot);
            self.link_front(slot);
        }
        Some(&self.slots[slot].value)
    }

    /// Inserts or replaces `key`, returning the evicted LRU entry when
    /// the cache was full (or the replaced value under the same key).
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return Some((key, value));
        }
        if let Some(&slot) = self.map.get(&key) {
            let old = std::mem::replace(&mut self.slots[slot].value, value);
            if slot != self.head {
                self.unlink(slot);
                self.link_front(slot);
            }
            return Some((key, old));
        }
        if self.map.len() == self.capacity {
            // Full: reuse the LRU slot in place.
            let lru = self.tail;
            self.unlink(lru);
            let old = std::mem::replace(
                &mut self.slots[lru],
                Slot {
                    key: key.clone(),
                    value,
                    prev: NONE,
                    next: NONE,
                },
            );
            self.map.remove(&old.key);
            self.map.insert(key, lru);
            self.link_front(lru);
            return Some((old.key, old.value));
        }
        self.slots.push(Slot {
            key: key.clone(),
            value,
            prev: NONE,
            next: NONE,
        });
        let slot = self.slots.len() - 1;
        self.map.insert(key, slot);
        self.link_front(slot);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses() {
        let mut c = LruCache::new(2);
        assert!(c.get(&1).is_none());
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.get(&2), Some(&"b"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.get(&1); // 2 is now LRU
        let evicted = c.insert(3, "c");
        assert_eq!(evicted, Some((2, "b")));
        assert!(c.get(&2).is_none());
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.get(&3), Some(&"c"));
    }

    #[test]
    fn reinsert_replaces_and_refreshes() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.insert(1, "a2"), Some((1, "a"))); // 1 refreshed, 2 is LRU
        c.insert(3, "c");
        assert!(c.get(&2).is_none());
        assert_eq!(c.get(&1), Some(&"a2"));
    }

    #[test]
    fn capacity_zero_never_stores() {
        let mut c = LruCache::new(0);
        assert!(c.insert(1, "a").is_some());
        assert!(c.get(&1).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn churn_keeps_len_bounded_and_consistent() {
        let mut c = LruCache::new(8);
        for i in 0..1000usize {
            c.insert(i % 13, i);
            assert!(c.len() <= 8);
            // The most recent insert must always be retrievable.
            assert_eq!(c.get(&(i % 13)), Some(&i));
        }
        assert_eq!(c.len(), 8);
    }
}

/// Differential proptests against a naive oracle, over epoch-keyed
/// entries with the epoch bumping as a hot-reload would. The slab +
/// linked-list implementation must be observably identical to a
/// `BTreeMap` plus an explicit recency list — including
/// which entry every insert evicts — and an entry written under an old
/// epoch must never come back from a current-epoch lookup.
#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Serving-style cache key: `(request id, model epoch)`.
    type Key = (u8, u64);

    /// The obviously-correct model: a `BTreeMap` for contents and a
    /// recency `Vec` (front = most recently used) for eviction order.
    struct Oracle {
        cap: usize,
        map: BTreeMap<Key, u64>,
        recency: Vec<Key>,
    }

    impl Oracle {
        fn new(cap: usize) -> Self {
            Self {
                cap,
                map: BTreeMap::new(),
                recency: Vec::new(),
            }
        }

        fn touch(&mut self, key: Key) {
            self.recency.retain(|&k| k != key);
            self.recency.insert(0, key);
        }

        fn get(&mut self, key: &Key) -> Option<u64> {
            let value = *self.map.get(key)?;
            self.touch(*key);
            Some(value)
        }

        /// Mirrors [`LruCache::insert`]'s return exactly: the bounced
        /// pair at capacity 0, the replaced value on a re-insert, or the
        /// evicted LRU entry when full.
        fn insert(&mut self, key: Key, value: u64) -> Option<(Key, u64)> {
            if self.cap == 0 {
                return Some((key, value));
            }
            if let Some(old) = self.map.insert(key, value) {
                self.touch(key);
                return Some((key, old));
            }
            self.touch(key);
            if self.map.len() > self.cap {
                let lru = self.recency.pop().expect("oracle recency tracked");
                let old = self.map.remove(&lru).expect("oracle map tracked");
                return Some((lru, old));
            }
            None
        }
    }

    /// Op stream: `(0, id)` = insert under the current epoch, `(1, id)` =
    /// get under the current epoch, `(2, _)` = epoch bump (hot-reload).
    /// Small id space and capacities force heavy collision and eviction.
    fn ops() -> impl Strategy<Value = (usize, Vec<(u8, u8)>)> {
        (
            0usize..6,
            proptest::collection::vec((0u8..3, 0u8..6), 1..250),
        )
    }

    proptest! {
        #[test]
        fn lru_is_observably_identical_to_the_oracle((cap, ops) in ops()) {
            let mut cache = LruCache::new(cap);
            let mut oracle = Oracle::new(cap);
            let mut epoch = 1u64;
            for (kind, id) in ops {
                match kind {
                    0 => {
                        // Stamp the value with the writing epoch so a
                        // stale hit is detectable from the value alone.
                        let evicted = cache.insert((id, epoch), epoch);
                        let expected = oracle.insert((id, epoch), epoch);
                        prop_assert_eq!(evicted, expected, "evictions diverged");
                    }
                    1 => {
                        let got = cache.get(&(id, epoch)).copied();
                        prop_assert_eq!(got, oracle.get(&(id, epoch)));
                        if let Some(stamp) = got {
                            prop_assert_eq!(stamp, epoch, "stale epoch served as fresh");
                        }
                    }
                    _ => epoch += 1, // hot-reload: old entries now stale
                }
                prop_assert!(cache.len() <= cap, "capacity exceeded: {} > {cap}", cache.len());
                prop_assert_eq!(cache.len(), oracle.map.len());
            }
        }

        #[test]
        fn entries_from_before_a_reload_never_hit_after_it(
            ids in proptest::collection::vec(0u8..8, 1..32),
            bumps in 1u64..4,
        ) {
            let mut cache = LruCache::new(64);
            for &id in &ids {
                cache.insert((id, 1u64), 1u64);
            }
            let epoch = 1 + bumps;
            for &id in &ids {
                // Fresh-epoch lookups miss everything written before the
                // reload; the stale keys are unreachable, not returned.
                prop_assert_eq!(cache.get(&(id, epoch)), None);
            }
            for &id in &ids {
                prop_assert_eq!(cache.get(&(id, 1u64)).copied(), Some(1u64));
            }
        }
    }
}
