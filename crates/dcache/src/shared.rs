//! Cloneable handle for a cache shared by many jobs.
//!
//! The paper's architecture has exactly one memoization layer per cluster;
//! every job memoizes into it and benefits from every other job's history.
//! [`SharedCache`] is that ownership model: a [`DistributedCache`] behind
//! an `Arc<Mutex<_>>` so concurrently registered jobs hold clones of one
//! handle. Combined with [`ObjectId::namespaced`](crate::ObjectId::namespaced)
//! ids, tenants share capacity and placement without colliding on keys.
//!
//! All engine cache traffic happens on the control thread of each job, so
//! the mutex is uncontended in the determinism-critical path — it exists
//! to make the sharing safe, not to schedule it.

use std::sync::{Arc, Mutex, PoisonError};

use slider_trace::TraceSink;

use crate::master::DistributedCache;
use crate::stats::{CacheStats, NamespaceStats};

/// A cloneable, mutex-guarded handle to one [`DistributedCache`].
#[derive(Debug, Clone)]
pub struct SharedCache {
    inner: Arc<Mutex<DistributedCache>>,
}

impl SharedCache {
    /// Wraps `cache` for sharing. All clones of the returned handle
    /// operate on this one cache.
    #[must_use]
    pub fn new(cache: DistributedCache) -> Self {
        SharedCache {
            inner: Arc::new(Mutex::new(cache)),
        }
    }

    /// Runs `f` with exclusive access to the underlying cache.
    ///
    /// A panic inside an earlier `f` poisons the mutex; the cache is then
    /// used as that call left it, so one failed caller does not take the
    /// cache away from every other holder of the handle. Cache methods
    /// reject bad input with an error before they mutate anything, so such
    /// a panic comes from the caller's code between two complete cache
    /// operations and leaves the cache consistent.
    pub fn with<R>(&self, f: impl FnOnce(&mut DistributedCache) -> R) -> R {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }

    /// Aggregate statistics of the underlying cache.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.with(|c| c.stats())
    }

    /// Per-namespace accounting (see
    /// [`DistributedCache::namespace_stats`]).
    #[must_use]
    pub fn namespace_stats(&self, namespace: u32) -> NamespaceStats {
        self.with(|c| c.namespace_stats(namespace))
    }

    /// Deep copy of the underlying cache: contents, placement, repair
    /// queue and statistics. The checkpoint primitive — pair with
    /// [`SharedCache::restore_cache`] on a fresh handle. The copy is
    /// detached from this cache's trace sink, so it holds no handle to
    /// the engine it came from; attach the target's sink before restoring.
    #[must_use]
    pub fn snapshot_cache(&self) -> DistributedCache {
        let mut image = self.with(|c| c.clone());
        image.attach_trace(TraceSink::disabled());
        image
    }

    /// Replaces the underlying cache wholesale with `cache` (typically a
    /// [`SharedCache::snapshot_cache`] image). Every existing clone of
    /// this handle observes the replacement.
    pub fn restore_cache(&self, cache: DistributedCache) {
        self.with(move |c| *c = cache);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::{CacheConfig, NodeId, ObjectId};

    #[test]
    fn clones_address_one_cache() {
        let shared = SharedCache::new(DistributedCache::new(CacheConfig::paper_defaults(3)));
        let other = shared.clone();
        shared.with(|c| c.put(ObjectId::namespaced(1, 7), 64, NodeId(0), 0));
        let read = other.with(|c| c.read(ObjectId::namespaced(1, 7), NodeId(0)));
        assert!(read.is_ok());
        assert_eq!(other.namespace_stats(1).puts, 1);
        assert_eq!(other.namespace_stats(2).puts, 0);
    }

    #[test]
    fn a_panic_inside_with_leaves_the_cache_usable() {
        let shared = SharedCache::new(DistributedCache::new(CacheConfig::paper_defaults(3)));
        let other = shared.clone();
        shared.with(|c| c.put(ObjectId::namespaced(1, 7), 64, NodeId(0), 0));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.with(|_| panic!("caller bug while holding the cache"));
        }));
        assert!(panicked.is_err());
        assert!(shared.inner.is_poisoned());
        let read = other.with(|c| c.read(ObjectId::namespaced(1, 7), NodeId(0)));
        assert!(read.is_ok());
        assert_eq!(other.namespace_stats(1).puts, 1);
    }
}
