//! Foreground cache metering: reads and puts ([`CacheStats`]) and
//! per-tenant accounting ([`NamespaceStats`]).
//!
//! [`CacheStats::trace_counters`] and
//! [`RepairStats::trace_counters`](crate::RepairStats::trace_counters)
//! are the only writers of the `dcache.*` trace counters.

use slider_trace::Tracer;

/// Aggregate statistics of the memoization layer (foreground reads and
/// puts only; background self-healing is metered in [`crate::RepairStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served by the local or remote memory tier.
    pub memory_hits: u64,
    /// Reads that fell back to a persistent replica.
    pub disk_reads: u64,
    /// Reads of objects missing from the index (never stored, collected,
    /// or lost); the caller must recompute from scratch.
    pub not_found_reads: u64,
    /// Reads of indexed objects whose every clean replica is on failed
    /// nodes; the object comes back once a replica's node recovers (or
    /// repair re-replicates it), so retrying can succeed.
    pub unavailable_reads: u64,
    /// Total simulated read time, nanoseconds.
    pub read_ns: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Objects collected by the garbage collector.
    pub collected: u64,
    /// Memory-tier evictions across all nodes.
    pub evictions: u64,
    /// Objects stored (including re-puts), summed over namespaces.
    pub puts: u64,
    /// Bytes stored, summed over namespaces.
    pub put_bytes: u64,
}

impl CacheStats {
    /// Failed reads of either kind (`not_found` + `unavailable`).
    pub fn failed_reads(&self) -> u64 {
        self.not_found_reads + self.unavailable_reads
    }

    /// Field-wise `self - before`, for per-run metering of the cumulative
    /// counters [`crate::DistributedCache::stats`] returns.
    pub fn delta_since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            memory_hits: self.memory_hits - before.memory_hits,
            disk_reads: self.disk_reads - before.disk_reads,
            not_found_reads: self.not_found_reads - before.not_found_reads,
            unavailable_reads: self.unavailable_reads - before.unavailable_reads,
            read_ns: self.read_ns - before.read_ns,
            bytes_read: self.bytes_read - before.bytes_read,
            collected: self.collected - before.collected,
            evictions: self.evictions - before.evictions,
            puts: self.puts - before.puts,
            put_bytes: self.put_bytes - before.put_bytes,
        }
    }

    /// Adds these stats to the `dcache.*` foreground counters of `t`.
    pub fn trace_counters(&self, t: &mut Tracer) {
        t.add("dcache.memory_hits", self.memory_hits);
        t.add("dcache.disk_reads", self.disk_reads);
        t.add("dcache.not_found_reads", self.not_found_reads);
        t.add("dcache.unavailable_reads", self.unavailable_reads);
        t.add("dcache.bytes_read", self.bytes_read);
        t.add("dcache.collected", self.collected);
        t.add("dcache.puts", self.puts);
        t.add("dcache.put_bytes", self.put_bytes);
    }
}

/// Per-namespace accounting: what one tenant's objects are doing to the
/// shared cache. Counter fields accumulate forever; the `live_*` fields
/// are a point-in-time census of the index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NamespaceStats {
    /// Objects stored into this namespace (including re-puts).
    pub puts: u64,
    /// Bytes stored into this namespace.
    pub put_bytes: u64,
    /// This namespace's objects pushed out of a memory tier by LRU
    /// pressure — from *any* tenant's puts, so a noisy neighbor shows up
    /// in its victims' numbers.
    pub evictions: u64,
    /// Objects of this namespace reclaimed by garbage collection.
    pub collected: u64,
    /// Objects currently indexed under this namespace.
    pub live_objects: u64,
    /// Bytes currently indexed under this namespace.
    pub live_bytes: u64,
}
