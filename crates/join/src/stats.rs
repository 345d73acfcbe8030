//! Join-layer statistics and the materialized per-key join view.
//!
//! Everything here is integer arithmetic folded in deterministic order,
//! so — like [`RunStats`](slider_mapreduce::RunStats) — every field is
//! bit-identical across thread counts and reruns, and reconciles exactly
//! with the counters/spans the operator emits on the `join` trace track.

use std::hash::{Hash, Hasher};

use slider_mapreduce::{stable_hash, StableStdHasher};
use slider_trace::Tracer;

/// Modeled-work and pair-flow counters for the join layer (the probes and
/// recomputes *above* the two side jobs; side-job work is metered by their
/// own [`RunStats`](slider_mapreduce::RunStats) and folded into
/// [`JoinStats::side_work`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Joint advances that did something (closed epochs, spliced,
    /// retracted, or probed).
    pub advances: u64,
    /// Feeder events (closes, splices, retractions) applied to the view.
    pub steps: u64,
    /// Delta records probed against the opposite side's index.
    pub probes: u64,
    /// Join pairs materialized (delta `+`).
    pub pairs_added: u64,
    /// Join pairs retracted (delta `-`).
    pub pairs_removed: u64,
    /// Modeled probe work: one unit per index lookup plus one per pair
    /// touched.
    pub probe_work: u64,
    /// Modeled cross-product work in recompute mode: one unit per indexed
    /// key plus one per pair enumerated.
    pub recompute_work: u64,
    /// Foreground work of the side-index runs this operator drove
    /// (sum of their `RunStats.work.foreground_total()`).
    pub side_work: u64,
}

impl JoinStats {
    /// Folds `other` into `self`.
    pub fn absorb(&mut self, other: &JoinStats) {
        self.advances += other.advances;
        self.steps += other.steps;
        self.probes += other.probes;
        self.pairs_added += other.pairs_added;
        self.pairs_removed += other.pairs_removed;
        self.probe_work += other.probe_work;
        self.recompute_work += other.recompute_work;
        self.side_work += other.side_work;
    }

    /// Total modeled work of the join layer plus its side runs.
    pub fn total_work(&self) -> u64 {
        self.probe_work + self.recompute_work + self.side_work
    }

    /// True when nothing has been recorded.
    pub fn is_zero(&self) -> bool {
        *self == JoinStats::default()
    }

    /// Adds these stats to the `join.*` counters of `t`. `side_work` has
    /// no counter: the side runs report their work as `engine.*` counters.
    pub fn trace_counters(&self, t: &mut Tracer) {
        t.add("join.advances", self.advances);
        t.add("join.steps", self.steps);
        t.add("join.probes", self.probes);
        t.add("join.pairs_added", self.pairs_added);
        t.add("join.pairs_removed", self.pairs_removed);
        t.add("join.probe_work", self.probe_work);
        t.add("join.recompute_work", self.recompute_work);
    }
}

/// The materialized join result for one key: how many (left, right) pairs
/// currently match, their summed [`pair_weight`](crate::JoinApp::pair_weight),
/// and an order-insensitive checksum over the pairs' identities. The
/// checksum makes view equality a strong statement: two views agree only
/// if they hold the *same multiset of pairs*, not merely the same counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinCell {
    /// Matched (left, right) pairs in the current windows.
    pub pairs: u64,
    /// Sum of pair weights.
    pub weight: u64,
    /// Wrapping sum of each pair's stable identity hash.
    pub check: u64,
}

impl JoinCell {
    /// Adds one pair.
    pub fn add(&mut self, weight: u64, hash: u64) {
        self.add_all(&JoinCell::one(weight, hash));
    }

    /// Retracts one pair.
    ///
    /// # Panics
    ///
    /// Panics if the cell holds no pairs — a retraction for a pair that
    /// was never added is an operator bug, not a data condition.
    pub fn remove(&mut self, weight: u64, hash: u64) {
        self.remove_all(&JoinCell::one(weight, hash));
    }

    /// Adds every pair summed in `pairs`.
    pub(crate) fn add_all(&mut self, pairs: &JoinCell) {
        self.pairs += pairs.pairs;
        self.weight += pairs.weight;
        self.check = self.check.wrapping_add(pairs.check);
    }

    /// Retracts every pair summed in `pairs`.
    ///
    /// # Panics
    ///
    /// Panics if the cell holds fewer pairs than `pairs` — like
    /// [`remove`](Self::remove), an operator bug.
    pub(crate) fn remove_all(&mut self, pairs: &JoinCell) {
        self.pairs = self
            .pairs
            .checked_sub(pairs.pairs)
            .expect("retracted a join pair that was never added");
        self.weight -= pairs.weight;
        self.check = self.check.wrapping_sub(pairs.check);
    }

    fn one(weight: u64, hash: u64) -> JoinCell {
        JoinCell {
            pairs: 1,
            weight,
            check: hash,
        }
    }
}

/// Stable identity hash of one join pair: the key plus both records'
/// `(time, seq)` stamps. Record *values* are deliberately excluded — the
/// stamp is the record's identity, and values may not be hashable.
pub fn pair_hash<K: Hash>(key: &K, left: (u64, u64), right: (u64, u64)) -> u64 {
    stable_hash(&(key, left.0, left.1, right.0, right.1))
}

/// One delta record's [`pair_hash`] state, kept across its pairs.
///
/// `pair_hash` writes the key, then the left stamp's two words, then the
/// right stamp's, into a [`StableStdHasher`]. Every pair of one delta
/// shares the key and the delta's own stamp, so the state after what they
/// share is built once per delta and a copy of it is extended per pair.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DeltaHash {
    /// A left delta: the key and the delta's stamp are written, and a pair
    /// writes the right stamp.
    Left(StableStdHasher),
    /// A right delta: the key is written, and a pair writes the left stamp,
    /// then the delta's own.
    Right(StableStdHasher, (u64, u64)),
}

impl DeltaHash {
    /// The kept state of a left delta stamped `stamp` under `key`.
    pub(crate) fn left<K: Hash>(key: &K, stamp: (u64, u64)) -> Self {
        DeltaHash::Left(write_stamp(key_state(key), stamp))
    }

    /// The kept state of a right delta stamped `stamp` under `key`.
    pub(crate) fn right<K: Hash>(key: &K, stamp: (u64, u64)) -> Self {
        DeltaHash::Right(key_state(key), stamp)
    }

    /// [`pair_hash`] of this delta paired with the opposite record stamped
    /// `other`.
    pub(crate) fn pair(self, other: (u64, u64)) -> u64 {
        match self {
            DeltaHash::Left(state) => write_stamp(state, other),
            DeltaHash::Right(state, own) => write_stamp(write_stamp(state, other), own),
        }
        .finish()
    }
}

fn key_state<K: Hash>(key: &K) -> StableStdHasher {
    let mut state = StableStdHasher::default();
    key.hash(&mut state);
    state
}

fn write_stamp(mut state: StableStdHasher, (time, seq): (u64, u64)) -> StableStdHasher {
    state.write_u64(time);
    state.write_u64(seq);
    state
}

/// One emitted join-result delta: `(left, right)` matched under `key` and
/// was either materialized (`added`) or retracted (`!added`) by a slide.
#[derive(Debug, Clone, PartialEq)]
pub struct PairDelta<K, L, R> {
    /// The join key.
    pub key: K,
    /// The left record (stamped).
    pub left: crate::IndexRecord<L>,
    /// The right record (stamped).
    pub right: crate::IndexRecord<R>,
    /// `true` = pair entered the join result, `false` = pair left it.
    pub added: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_add_remove_round_trips_to_zero() {
        let mut cell = JoinCell::default();
        let h1 = pair_hash(&7u32, (1, 0), (2, 0));
        let h2 = pair_hash(&7u32, (1, 0), (3, 1));
        assert_ne!(h1, h2);
        cell.add(2, h1);
        cell.add(5, h2);
        assert_eq!(cell.pairs, 2);
        assert_eq!(cell.weight, 7);
        cell.remove(2, h1);
        cell.remove(5, h2);
        assert_eq!(cell, JoinCell::default());
    }

    #[test]
    #[should_panic(expected = "never added")]
    fn removing_from_an_empty_cell_panics() {
        JoinCell::default().remove(1, 3);
    }

    #[test]
    fn stats_absorb_and_total() {
        let mut a = JoinStats {
            probes: 2,
            probe_work: 10,
            side_work: 5,
            ..JoinStats::default()
        };
        assert!(!a.is_zero());
        let b = JoinStats {
            recompute_work: 3,
            pairs_added: 1,
            ..JoinStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.total_work(), 18);
        assert_eq!(a.pairs_added, 1);
        assert!(JoinStats::default().is_zero());
    }

    /// Checks left and right deltas under `key`, with random stamps of
    /// their own, against `pair_hash` for random opposite stamps.
    fn check_kept_state<K: Hash + std::fmt::Debug>(key: &K, rng: &mut impl rand::Rng) {
        for _ in 0..8 {
            let own = (rng.gen::<u64>(), rng.gen::<u64>());
            let (left, right) = (DeltaHash::left(key, own), DeltaHash::right(key, own));
            for _ in 0..8 {
                let other = (rng.gen::<u64>(), rng.gen::<u64>());
                assert_eq!(left.pair(other), pair_hash(key, own, other), "{key:?}");
                assert_eq!(right.pair(other), pair_hash(key, other, own), "{key:?}");
            }
        }
    }

    #[test]
    fn kept_delta_state_extends_to_pair_hash() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5eed);
        for _ in 0..16 {
            check_kept_state(&rng.gen::<u32>(), &mut rng);
            check_kept_state(&rng.gen_range(0..=u8::MAX), &mut rng);
            check_kept_state(&(rng.gen::<u32>(), rng.gen::<u64>()), &mut rng);
        }
        // A `str` hashes as its length, its bytes in 8-byte words (three
        // here), then a terminator byte.
        check_kept_state(&String::from("a key of twenty bytes"), &mut rng);
        check_kept_state(&(7u16, String::from("tuple with a string")), &mut rng);
    }

    #[test]
    fn pair_hash_is_order_sensitive_on_sides() {
        // Swapping which stamp is "left" must change the identity.
        assert_ne!(
            pair_hash(&1u8, (5, 0), (9, 1)),
            pair_hash(&1u8, (9, 1), (5, 0))
        );
    }
}
