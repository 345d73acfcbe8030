//! Self-healing metering: background re-replication, scrub and master
//! rebuild statistics.
//!
//! All repair work is *background* work in the paper's split-processing
//! sense: it never contributes to a read's latency or to the foreground
//! [`crate::CacheStats`], so a fault-free run reports an all-zero
//! [`RepairStats`] and the foreground numbers (Table 2, Figure 11) are
//! bit-identical whether or not self-healing is enabled.

use slider_trace::Tracer;

/// Background self-healing work performed by the memoization layer, and
/// the node faults behind it, metered separately from foreground reads
/// (see [`crate::CacheStats`]).
///
/// Counters are cumulative since cache creation; use
/// [`RepairStats::delta_since`] for per-run deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Objects enqueued into the repair queue (under-replication detected
    /// after a node failure, a lost/corrupt copy, or a degraded put).
    pub enqueued: u64,
    /// Objects whose replication level the repair drain improved.
    pub repaired_objects: u64,
    /// Persistent copies restored onto live nodes by re-replication.
    pub copies_restored: u64,
    /// Bytes moved (source disk → network → target disk) by re-replication.
    pub repair_bytes: u64,
    /// Simulated nanoseconds of re-replication and master-rebuild I/O (off
    /// the critical path).
    pub repair_ns: u64,
    /// Completed scrub passes.
    pub scrub_passes: u64,
    /// Persistent copies whose checksum a scrub pass verified.
    pub scrubbed_copies: u64,
    /// Bytes read back by scrub verification.
    pub scrub_bytes: u64,
    /// Simulated nanoseconds of scrub I/O (off the critical path).
    pub scrub_ns: u64,
    /// Corrupt copies detected (by read-path verification, a scrub pass,
    /// or a master rebuild) and discarded before they could be served.
    pub corruptions_detected: u64,
    /// Stale persistent copies purged when a node rejoined (objects
    /// deleted or re-homed while the node was down).
    pub stale_copies_purged: u64,
    /// Master index rebuilds from surviving node inventories.
    pub master_rebuilds: u64,
    /// Objects re-indexed by master rebuilds.
    pub objects_reindexed: u64,
    /// Cache nodes crashed ([`crate::DistributedCache::fail_node`]).
    pub node_failures: u64,
    /// Cache nodes brought back
    /// ([`crate::DistributedCache::recover_node`]).
    pub node_recoveries: u64,
}

impl RepairStats {
    /// True when no self-healing work happened at all.
    pub fn is_zero(&self) -> bool {
        *self == RepairStats::default()
    }

    /// Field-wise `self - before`, for per-run metering of a cumulative
    /// counter set.
    pub fn delta_since(&self, before: &RepairStats) -> RepairStats {
        RepairStats {
            enqueued: self.enqueued - before.enqueued,
            repaired_objects: self.repaired_objects - before.repaired_objects,
            copies_restored: self.copies_restored - before.copies_restored,
            repair_bytes: self.repair_bytes - before.repair_bytes,
            repair_ns: self.repair_ns - before.repair_ns,
            scrub_passes: self.scrub_passes - before.scrub_passes,
            scrubbed_copies: self.scrubbed_copies - before.scrubbed_copies,
            scrub_bytes: self.scrub_bytes - before.scrub_bytes,
            scrub_ns: self.scrub_ns - before.scrub_ns,
            corruptions_detected: self.corruptions_detected - before.corruptions_detected,
            stale_copies_purged: self.stale_copies_purged - before.stale_copies_purged,
            master_rebuilds: self.master_rebuilds - before.master_rebuilds,
            objects_reindexed: self.objects_reindexed - before.objects_reindexed,
            node_failures: self.node_failures - before.node_failures,
            node_recoveries: self.node_recoveries - before.node_recoveries,
        }
    }

    /// Adds these stats to the `dcache.*` self-healing counters of `t`.
    pub fn trace_counters(&self, t: &mut Tracer) {
        t.add("dcache.repair.enqueued", self.enqueued);
        t.add("dcache.repair.repaired_objects", self.repaired_objects);
        t.add("dcache.repair.copies_restored", self.copies_restored);
        t.add("dcache.repair.bytes", self.repair_bytes);
        t.add("dcache.scrub.passes", self.scrub_passes);
        t.add("dcache.scrub.copies", self.scrubbed_copies);
        t.add("dcache.scrub.bytes", self.scrub_bytes);
        t.add("dcache.corruptions_detected", self.corruptions_detected);
        t.add("dcache.stale_copies_purged", self.stale_copies_purged);
        t.add("dcache.master.rebuilds", self.master_rebuilds);
        t.add("dcache.master.reindexed", self.objects_reindexed);
        t.add("dcache.node_failures", self.node_failures);
        t.add("dcache.node_recoveries", self.node_recoveries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_delta() {
        let mut a = RepairStats::default();
        assert!(a.is_zero());
        a.copies_restored = 3;
        a.repair_ns = 1_500;
        let mut b = a;
        b.copies_restored = 5;
        b.repair_ns = 2_000;
        let d = b.delta_since(&a);
        assert_eq!(d.copies_restored, 2);
        assert_eq!(d.repair_ns, 500);
        assert!(!d.is_zero());
    }
}
