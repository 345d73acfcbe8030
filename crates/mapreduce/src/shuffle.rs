//! Deterministic shuffle partitioning.

use std::hash::{Hash, Hasher};

use slider_core::StableHasher;

/// `std::hash::Hasher` adapter over the crate's stable 64-bit hasher, so
/// partition assignment is identical across runs and processes (Hadoop's
/// `HashPartitioner` analog).
///
/// It is `Copy`: the state after a shared prefix of words can be kept and
/// extended many times. [`stable_hash`] of a tuple equals a copy that
/// hashed the tuple's leading fields, extended by the rest:
///
/// ```
/// use std::hash::{Hash, Hasher};
/// use slider_mapreduce::{stable_hash, StableStdHasher};
/// let mut prefix = StableStdHasher::default();
/// "key".hash(&mut prefix);
/// let mut pair = prefix;
/// pair.write_u64(7);
/// assert_eq!(pair.finish(), stable_hash(&("key", 7u64)));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct StableStdHasher(StableHasher);

impl Hasher for StableStdHasher {
    fn finish(&self) -> u64 {
        self.0.finish()
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.write_bytes(bytes);
    }

    fn write_u64(&mut self, x: u64) {
        self.0.write_u64(x);
    }
}

/// Deterministic 64-bit hash of any `Hash` value (stable across runs and
/// processes, unlike `DefaultHasher`).
///
/// ```
/// let h = slider_mapreduce::stable_hash(&("a", 1));
/// assert_eq!(h, slider_mapreduce::stable_hash(&("a", 1)));
/// ```
pub fn stable_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut hasher = StableStdHasher(StableHasher::new());
    key.hash(&mut hasher);
    hasher.finish()
}

/// Returns the reduce partition (0-based) responsible for `key`.
///
/// ```
/// let p = slider_mapreduce::partition_of(&"hello", 8);
/// assert!(p < 8);
/// assert_eq!(p, slider_mapreduce::partition_of(&"hello", 8));
/// ```
///
/// # Panics
///
/// Panics if `partitions` is zero.
pub fn partition_of<K: Hash + ?Sized>(key: &K, partitions: usize) -> usize {
    assert!(partitions > 0, "at least one reduce partition is required");
    let mut hasher = StableStdHasher(StableHasher::new());
    key.hash(&mut hasher);
    usize::try_from(hasher.finish() % partitions as u64).expect("bounded by partition count")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_are_stable_and_in_range() {
        for i in 0..1000u64 {
            let p = partition_of(&i, 7);
            assert!(p < 7);
            assert_eq!(p, partition_of(&i, 7));
        }
    }

    #[test]
    fn partitions_are_reasonably_balanced() {
        let mut counts = [0usize; 8];
        for i in 0..8000u64 {
            counts[partition_of(&format!("key-{i}"), 8)] += 1;
        }
        for (p, &c) in counts.iter().enumerate() {
            assert!(
                (700..1300).contains(&c),
                "partition {p} holds {c} of 8000 keys — badly skewed"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_partitions_panics() {
        let _ = partition_of(&1u8, 0);
    }
}
