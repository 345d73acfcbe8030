//! The join application contract and the per-side index application.
//!
//! A [`JoinApp`] declares the two record types, the shared join key, and
//! (optionally) a weight per matched pair — nothing about windows, deltas
//! or indexes. The operator derives everything else: each side becomes an
//! [`IndexApp`], an ordinary [`MapReduceApp`] whose per-key output is the
//! side's in-window records as an [`IndexSeq`], in window order. That
//! index is therefore maintained by the engine's own incremental
//! machinery — contraction trees, memoization, fault recovery — with zero
//! join-specific code below the probe layer. A merge concatenates two
//! shared sequences, so it costs what it copies or links, not the key's
//! whole posting list.

use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use slider_mapreduce::MapReduceApp;

use crate::seq::IndexSeq;

/// A two-input equi-join, written with no incremental logic — the same
/// transparency contract as [`MapReduceApp`].
///
/// Records whose key extractor returns `None` are filtered out of the
/// join (they still flow through the side's window, they just index
/// under no key).
pub trait JoinApp: Send + Sync + 'static {
    /// The join key both sides map into.
    type Key: Clone + Ord + Eq + Hash + fmt::Debug + Send + Sync + 'static;
    /// Left-side record.
    type Left: Clone + PartialEq + fmt::Debug + Send + Sync + 'static;
    /// Right-side record.
    type Right: Clone + PartialEq + fmt::Debug + Send + Sync + 'static;

    /// Join key of a left record (`None` = not joinable).
    fn left_key(&self, left: &Self::Left) -> Option<Self::Key>;

    /// Join key of a right record (`None` = not joinable).
    fn right_key(&self, right: &Self::Right) -> Option<Self::Key>;

    /// Weight contributed by one matched pair to the per-key
    /// [`JoinCell`](crate::JoinCell) aggregate. Defaults to 1 (pair
    /// counting).
    fn pair_weight(&self, _key: &Self::Key, _left: &Self::Left, _right: &Self::Right) -> u64 {
        1
    }

    /// Modeled size of one left record in bytes (index memoization
    /// accounting).
    fn left_record_bytes(&self) -> u64 {
        24
    }

    /// Modeled size of one right record in bytes.
    fn right_record_bytes(&self) -> u64 {
        24
    }
}

/// One side record as stored in a window index, carrying its event-time
/// stamp: `(time, seq)` is the record's identity, so delta probes can add
/// and retract the exact pair a record participated in.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexRecord<V> {
    /// Event time.
    pub time: u64,
    /// Tiebreak between records with equal event times.
    pub seq: u64,
    /// The side's record.
    pub value: V,
}

impl<V> IndexRecord<V> {
    /// Builds a stamped index record.
    pub fn new(time: u64, seq: u64, value: V) -> Self {
        IndexRecord { time, seq, value }
    }
}

/// The per-side window index as a plain [`MapReduceApp`]: maps each
/// stamped record under its join key, combines by concatenation, and
/// outputs the key's in-window records in window order — epochs oldest
/// first; inside an epoch, the on-time records by `(time, seq)`, then each
/// late splice's records. Running it under a
/// [`WindowedJob`](slider_mapreduce::WindowedJob) gives the join a
/// key-sharded, contraction-tree-maintained, dcache-memoized,
/// fault-recoverable sliding index for free.
///
/// Concatenation is associative but not commutative; the side jobs run
/// folding trees, which combine a key's leaves in window order.
pub struct IndexApp<V, K> {
    key_fn: KeyFn<V, K>,
    record_bytes: u64,
}

/// Shared key-extractor closure of an [`IndexApp`].
type KeyFn<V, K> = Arc<dyn Fn(&V) -> Option<K> + Send + Sync>;

impl<V, K> IndexApp<V, K> {
    /// Builds an index app over `key_fn`, modeling `record_bytes` bytes
    /// per record.
    pub fn new(
        key_fn: impl Fn(&V) -> Option<K> + Send + Sync + 'static,
        record_bytes: u64,
    ) -> Self {
        IndexApp {
            key_fn: Arc::new(key_fn),
            record_bytes,
        }
    }
}

impl<V, K> MapReduceApp for IndexApp<V, K>
where
    V: Clone + PartialEq + Send + Sync + 'static,
    K: Clone + Ord + Hash + Send + Sync + 'static,
{
    type Input = IndexRecord<V>;
    type Key = K;
    type Value = IndexSeq<V>;
    type Output = IndexSeq<V>;

    fn map(&self, input: &IndexRecord<V>, emit: &mut dyn FnMut(K, IndexSeq<V>)) {
        if let Some(key) = (self.key_fn)(&input.value) {
            emit(key, IndexSeq::one(input.clone()));
        }
    }

    fn combine(&self, _key: &K, a: &IndexSeq<V>, b: &IndexSeq<V>) -> IndexSeq<V> {
        a.concat(b)
    }

    fn is_commutative(&self) -> bool {
        false
    }

    /// The parts in order; with one part, its root handle.
    fn reduce(&self, _key: &K, parts: &[&IndexSeq<V>]) -> IndexSeq<V> {
        parts
            .iter()
            .fold(IndexSeq::default(), |acc, part| acc.concat(part))
    }

    /// The records a merge copies, or 1 when it links two halves.
    fn combine_cost(&self, _key: &K, a: &IndexSeq<V>, b: &IndexSeq<V>) -> u64 {
        a.concat_cost(b)
    }

    /// The records the value stands for, shared or not, so shuffle and
    /// memo bytes do not depend on how much of it is shared.
    fn value_bytes(&self, _key: &K, v: &IndexSeq<V>) -> u64 {
        8 + v.len() as u64 * self.record_bytes
    }

    fn record_bytes(&self, _input: &IndexRecord<V>) -> u64 {
        self.record_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64, s: u64, v: u32) -> IndexRecord<u32> {
        IndexRecord::new(t, s, v)
    }

    /// `n` records of one key, combined one at a time as map-side combine
    /// does within a split.
    fn chain(app: &IndexApp<u32, u32>, n: u64) -> IndexSeq<u32> {
        (1..n).fold(IndexSeq::one(rec(0, 0, 0)), |acc, t| {
            app.combine(&0, &acc, &IndexSeq::one(rec(t, 0, 0)))
        })
    }

    #[test]
    fn combine_cost_charges_copies_and_links() {
        let app: IndexApp<u32, u32> = IndexApp::new(|v| Some(*v % 4), 24);
        let (a, b) = (IndexSeq::one(rec(1, 0, 8)), IndexSeq::one(rec(2, 0, 0)));
        assert_eq!(app.combine_cost(&0, &a, &b), 2, "two small runs copy");
        let long = chain(&app, 1000);
        assert_eq!(app.combine_cost(&0, &long, &a), 1, "a long sequence links");
        assert_eq!(app.combine_cost(&0, &a, &long), 1);
        assert!(!app.is_commutative());
    }

    #[test]
    fn map_filters_unkeyed_records() {
        let app: IndexApp<u32, u32> = IndexApp::new(|v| (*v > 10).then_some(*v), 24);
        let mut seen = Vec::new();
        app.map(&rec(1, 0, 5), &mut |k, _| seen.push(k));
        app.map(&rec(2, 0, 50), &mut |k, _| seen.push(k));
        assert_eq!(seen, [50]);
    }

    #[test]
    fn reduce_concatenates_parts_in_order() {
        let app: IndexApp<u32, u32> = IndexApp::new(|_| Some(0), 16);
        let p1 = IndexSeq::one(rec(3, 0, 1));
        let p2 = app.combine(
            &0,
            &IndexSeq::one(rec(1, 0, 2)),
            &IndexSeq::one(rec(9, 0, 3)),
        );
        let out = app.reduce(&0, &[&p1, &p2]);
        let times: Vec<u64> = out.iter().map(|r| r.time).collect();
        assert_eq!(times, [3, 1, 9], "window order, not time order");
        assert_eq!(app.reduce_cost(&0, &[&p1, &p2]), 2, "one unit per part");
        assert_eq!(app.reduce(&0, &[&p2]), p2);
    }

    #[test]
    fn value_bytes_charge_every_record_a_value_stands_for() {
        let app: IndexApp<u32, u32> = IndexApp::new(|_| Some(0), 16);
        let long = chain(&app, 100);
        let head = chain(&app, 50);
        let linked = app.combine(&0, &head, &head);
        // The byte model of the copying index this replaces: 8 + 16 per
        // record, however much of the value is shared.
        assert_eq!(app.value_bytes(&0, &long), 8 + 100 * 16);
        assert_eq!(app.value_bytes(&0, &linked), 8 + 100 * 16);
        assert_eq!(app.value_bytes(&0, &IndexSeq::one(rec(1, 0, 0))), 8 + 16);
    }

    #[test]
    fn a_million_record_chain_drops_on_a_small_stack() {
        let app: IndexApp<u32, u32> = IndexApp::new(|_| Some(0), 16);
        let long = chain(&app, 1_000_000);
        let (count, equal) = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                let copy = long.clone();
                let walked = (long.iter().count(), long == copy);
                drop(copy);
                drop(long);
                walked
            })
            .expect("thread spawns")
            .join()
            .expect("walks and drop never recurse");
        assert_eq!(count, 1_000_000);
        assert!(equal);
    }
}
