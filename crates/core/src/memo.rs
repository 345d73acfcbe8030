//! Generational memoization cache for contraction-tree nodes.
//!
//! The strawman tree (§2.2) and the randomized folding tree (§3.2) both
//! identify sub-computations by a stable 64-bit identity derived from their
//! input lineage; results are cached so a re-encountered identity is reused
//! instead of recomputed. A two-generation sweep keeps the cache bounded:
//! entries not touched by the most recent run belong to sub-computations
//! that fell out of the window (or whose alignment changed) and are
//! collected — this mirrors Slider's garbage collector (§6), which frees
//! memoized items that fall outside the current window.

use std::collections::HashMap;
use std::sync::Arc;

/// A memo table mapping stable node identities to cached aggregates.
#[derive(Debug)]
pub struct MemoCache<V> {
    entries: HashMap<u64, Entry<V>>,
    generation: u64,
    hits: u64,
    misses: u64,
    /// Sum of the live entries' sizes, as given to [`MemoCache::put`].
    bytes: u64,
}

#[derive(Debug)]
struct Entry<V> {
    value: Arc<V>,
    last_used: u64,
    bytes: u64,
}

// Manual impls: every cached value sits behind an `Arc`, so a cache clone
// shares allocations and needs no `V: Clone` (which a derive would demand).
impl<V> Clone for MemoCache<V> {
    fn clone(&self) -> Self {
        MemoCache {
            entries: self.entries.clone(),
            generation: self.generation,
            hits: self.hits,
            misses: self.misses,
            bytes: self.bytes,
        }
    }
}

impl<V> Clone for Entry<V> {
    fn clone(&self) -> Self {
        Entry {
            value: Arc::clone(&self.value),
            last_used: self.last_used,
            bytes: self.bytes,
        }
    }
}

impl<V> Default for MemoCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> MemoCache<V> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        MemoCache {
            entries: HashMap::new(),
            generation: 0,
            hits: 0,
            misses: 0,
            bytes: 0,
        }
    }

    /// Looks up `id`, marking the entry as used in the current generation.
    pub fn get(&mut self, id: u64) -> Option<Arc<V>> {
        let generation = self.generation;
        match self.entries.get_mut(&id) {
            Some(entry) => {
                entry.last_used = generation;
                self.hits += 1;
                Some(Arc::clone(&entry.value))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) a computed aggregate under `id`; `bytes` is
    /// its modeled size, counted in [`MemoCache::bytes`] while it lives.
    pub fn put(&mut self, id: u64, value: Arc<V>, bytes: u64) {
        let generation = self.generation;
        self.bytes += bytes;
        let entry = Entry {
            value,
            last_used: generation,
            bytes,
        };
        if let Some(old) = self.entries.insert(id, entry) {
            self.bytes -= old.bytes;
        }
    }

    /// Starts a new generation, evicting every entry not used since the
    /// previous call. Returns the number of evicted entries.
    ///
    /// Call once per incremental run, after change propagation completes.
    pub fn sweep(&mut self) -> usize {
        let current = self.generation;
        let before = self.entries.len();
        let mut freed = 0;
        self.entries.retain(|_, e| {
            let keep = e.last_used == current;
            if !keep {
                freed += e.bytes;
            }
            keep
        });
        self.bytes -= freed;
        self.generation += 1;
        before - self.entries.len()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total cache hits since creation.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total cache misses since creation.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Memoization footprint: the sizes the live entries were put with.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Every cached value, in no particular order.
    #[cfg(feature = "oracle")]
    pub fn values(&self) -> impl Iterator<Item = &Arc<V>> {
        self.entries.values().map(|e| &e.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_roundtrip() {
        let mut cache = MemoCache::new();
        assert!(cache.get(1).is_none());
        cache.put(1, Arc::new(10u32), 4);
        assert_eq!(*cache.get(1).unwrap(), 10);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn sweep_evicts_untouched_entries() {
        let mut cache = MemoCache::new();
        cache.put(1, Arc::new(1u8), 1);
        cache.put(2, Arc::new(2u8), 1);
        cache.sweep(); // both were written this generation: both survive
        assert_eq!(cache.len(), 2);

        // Touch only id 1 in the new generation.
        cache.get(1);
        let evicted = cache.sweep();
        assert_eq!(evicted, 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none());
    }

    #[test]
    fn footprint_sums_value_sizes() {
        let mut cache = MemoCache::new();
        cache.put(1, Arc::new(vec![0u8; 3]), 3);
        cache.put(2, Arc::new(vec![0u8; 5]), 5);
        assert_eq!(cache.bytes(), 8);
    }

    #[test]
    fn bytes_follow_refresh_and_sweep() {
        let mut cache = MemoCache::new();
        cache.put(1, Arc::new(vec![0u8; 3]), 3);
        cache.put(2, Arc::new(vec![0u8; 5]), 5);
        // A refresh replaces the entry's size; a sweep frees what it evicts.
        cache.put(2, Arc::new(vec![0u8; 7]), 7);
        assert_eq!(cache.bytes(), 10);
        cache.sweep();
        cache.get(1);
        cache.sweep();
        assert_eq!(cache.bytes(), 3);
        cache.sweep();
        assert_eq!(cache.bytes(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn put_refreshes_generation() {
        let mut cache = MemoCache::new();
        cache.put(1, Arc::new(1u8), 1);
        cache.sweep();
        cache.put(1, Arc::new(2u8), 1); // refresh in the new generation
        cache.sweep();
        assert_eq!(*cache.get(1).unwrap(), 2);
    }
}
