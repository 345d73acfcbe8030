//! Per-node in-memory object store with LRU eviction.

use std::collections::HashMap;

/// A bounded in-memory store tracking object sizes with LRU eviction.
///
/// Paper §6 motivates the memory tier with the observation that main memory
/// is generally underutilized in data-centric clusters; it is nonetheless
/// finite, so the store evicts least-recently-used objects past capacity
/// (they remain available from the persistent replicas).
#[derive(Debug, Clone)]
pub struct InMemoryStore {
    capacity_bytes: u64,
    used_bytes: u64,
    /// object -> (size, last-use tick)
    objects: HashMap<u64, (u64, u64)>,
    clock: u64,
    evictions: u64,
}

impl InMemoryStore {
    /// Creates a store holding at most `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> Self {
        InMemoryStore {
            capacity_bytes,
            used_bytes: 0,
            objects: HashMap::new(),
            clock: 0,
            evictions: 0,
        }
    }

    /// Inserts `object` of `size` bytes, evicting LRU entries as needed.
    /// Returns the ids evicted to make room. Objects larger than the whole
    /// capacity are not admitted (and are reported as "evicted" instantly);
    /// a previous copy of `object` is dropped either way.
    pub fn put(&mut self, object: u64, size: u64) -> Vec<u64> {
        self.clock += 1;
        if let Some((old, _)) = self.objects.remove(&object) {
            self.used_bytes -= old;
        }
        let mut evicted = Vec::new();
        if size > self.capacity_bytes {
            // Too large for the memory tier altogether.
            self.evictions += 1;
            evicted.push(object);
            return evicted;
        }
        while self.used_bytes + size > self.capacity_bytes {
            let lru = self
                .objects
                .iter()
                .min_by_key(|(_, (_, tick))| *tick)
                .map(|(id, _)| *id)
                .expect("used_bytes > 0 implies an object exists");
            let (sz, _) = self.objects.remove(&lru).expect("lru id just found");
            self.used_bytes -= sz;
            self.evictions += 1;
            evicted.push(lru);
        }
        self.objects.insert(object, (size, self.clock));
        self.used_bytes += size;
        evicted
    }

    /// Looks up `object`, refreshing its recency; returns its size.
    pub fn get(&mut self, object: u64) -> Option<u64> {
        self.clock += 1;
        let clock = self.clock;
        self.objects.get_mut(&object).map(|(size, tick)| {
            *tick = clock;
            *size
        })
    }

    /// Whether `object` is resident, without refreshing its recency (used
    /// by the master rebuild to probe memory tiers read-only).
    pub fn contains(&self, object: u64) -> bool {
        self.objects.contains_key(&object)
    }

    /// Removes `object`, returning its size if present.
    pub fn remove(&mut self, object: u64) -> Option<u64> {
        let (size, _) = self.objects.remove(&object)?;
        self.used_bytes -= size;
        Some(size)
    }

    /// Drops everything (models a node crash wiping volatile memory).
    pub fn clear(&mut self) {
        self.objects.clear();
        self.used_bytes = 0;
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Total LRU evictions since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_remove_roundtrip() {
        let mut s = InMemoryStore::new(100);
        assert!(s.put(1, 40).is_empty());
        assert_eq!(s.get(1), Some(40));
        assert_eq!(s.used_bytes(), 40);
        assert_eq!(s.remove(1), Some(40));
        assert!(s.is_empty());
    }

    #[test]
    fn lru_eviction_order() {
        let mut s = InMemoryStore::new(100);
        s.put(1, 40);
        s.put(2, 40);
        s.get(1); // 1 is now more recent than 2
        let evicted = s.put(3, 40);
        assert_eq!(evicted, vec![2]);
        assert!(s.get(2).is_none());
        assert!(s.get(1).is_some());
        assert_eq!(s.evictions(), 1);
    }

    #[test]
    fn oversized_object_is_rejected() {
        let mut s = InMemoryStore::new(10);
        let evicted = s.put(1, 11);
        assert_eq!(evicted, vec![1]);
        assert!(s.get(1).is_none());
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn oversized_re_put_drops_the_old_copy() {
        let mut s = InMemoryStore::new(100);
        s.put(1, 40);
        assert_eq!(s.put(1, 400), vec![1]);
        assert!(s.get(1).is_none(), "the 40-byte copy is stale");
        assert_eq!(s.used_bytes(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn overwrite_replaces_size() {
        let mut s = InMemoryStore::new(100);
        s.put(1, 60);
        s.put(1, 20);
        assert_eq!(s.used_bytes(), 20);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn clear_models_crash() {
        let mut s = InMemoryStore::new(100);
        s.put(1, 10);
        s.put(2, 10);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.used_bytes(), 0);
    }
}
