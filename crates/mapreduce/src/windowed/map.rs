//! Map tasks and the map output a window holds per split: each
//! partition's map-side-combined pairs as one key-sorted run, and the
//! merge a shard reads a run's removed and added runs through.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::app::MapReduceApp;
use crate::shuffle::partition_of;
use crate::split::{Split, SplitId};

/// One mapped split held in the window.
#[derive(Clone)]
pub(super) struct SplitEntry<K, V> {
    pub(super) id: SplitId,
    output: Arc<MapOutput<K, V>>,
    pub(super) map_work: u64,
    pub(super) input_bytes: u64,
}

/// A split's map output in one array: every partition's pairs, sorted by
/// partition and then by key, each key once per partition.
struct MapOutput<K, V> {
    pairs: Vec<(K, V)>,
    /// Per partition: where its run ends in `pairs` (it starts where the
    /// previous partition's ends) and its map-output bytes (shuffle
    /// accounting).
    parts: Vec<(usize, u64)>,
}

impl<K, V> SplitEntry<K, V> {
    /// Partition `p`'s key-sorted run.
    pub(super) fn run(&self, p: usize) -> &[(K, V)] {
        let parts = &self.output.parts;
        let start = if p == 0 { 0 } else { parts[p - 1].0 };
        &self.output.pairs[start..parts[p].0]
    }

    /// Partition `p`'s map-output bytes.
    pub(super) fn out_bytes(&self, p: usize) -> u64 {
        self.output.parts[p].1
    }

    /// Map-output bytes over every partition.
    pub(super) fn output_bytes(&self) -> u64 {
        self.output.parts.iter().map(|&(_, bytes)| bytes).sum()
    }

    /// `key`'s pair in partition `p`'s run, found by binary search.
    pub(super) fn find(&self, p: usize, key: &K) -> Option<&(K, V)>
    where
        K: Ord,
    {
        let run = self.run(p);
        run.binary_search_by(|(k, _)| k.cmp(key))
            .ok()
            .map(|i| &run[i])
    }
}

/// Runs one Map task: maps every record of `split`, combining map-side per
/// partition, and meters the work.
pub(super) fn map_one_split<A: MapReduceApp>(
    app: &A,
    parts: usize,
    split: &Split<A::Input>,
) -> SplitEntry<A::Key, A::Value> {
    let mut emitted: Vec<(usize, A::Key, A::Value)> = Vec::with_capacity(split.records().len());
    let mut map_work = 0u64;
    let mut input_bytes = 0u64;
    for record in split.records() {
        map_work += app.map_cost(record);
        input_bytes += app.record_bytes(record);
        app.map(record, &mut |key, value| {
            emitted.push((partition_of(&key, parts), key, value));
        });
    }
    // The sort is stable, so each key's values keep their emit order and
    // the map-side combine folds them left to right, as they came.
    emitted.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    // Map-side combine, charged to map work. `dedup_by` hands each pair
    // over with the kept pair before it.
    emitted.dedup_by(|next, kept| {
        if next.1 != kept.1 {
            return false;
        }
        map_work += app.combine_cost(&kept.1, &kept.2, &next.2);
        kept.2 = app.combine(&kept.1, &kept.2, &next.2);
        true
    });
    let mut pairs = Vec::with_capacity(emitted.len());
    let mut ends = Vec::with_capacity(parts);
    let mut bytes = 0u64;
    for (p, key, value) in emitted {
        while ends.len() < p {
            ends.push((pairs.len(), std::mem::take(&mut bytes)));
        }
        bytes += app.value_bytes(&key, &value);
        pairs.push((key, value));
    }
    while ends.len() < parts {
        ends.push((pairs.len(), std::mem::take(&mut bytes)));
    }
    SplitEntry {
        id: split.id(),
        output: Arc::new(MapOutput { pairs, parts: ends }),
        map_work,
        input_bytes,
    }
}

/// Partition `p`'s runs from some removed splits and some added ones,
/// merged: every key that any run holds comes out once, in key order, with
/// the number of removed runs that hold it and its values from the added
/// runs, cloned, in the order the added splits are given. A heap of run
/// heads keeps each pair at O(log runs), so a merge of a whole window (a
/// lost shard's rebuild) stays cheap.
pub(super) struct RunMerge<'a, K, V> {
    /// Runs below this index come from removed splits.
    removed: usize,
    heap: BinaryHeap<Head<'a, K, V>>,
}

/// The unread rest of one run (never empty) and the run's index.
struct Head<'a, K, V> {
    rest: &'a [(K, V)],
    run: usize,
}

impl<'a, K: Ord, V> RunMerge<'a, K, V> {
    /// Merges partition `p`'s runs of `removed`, then of `added`.
    pub(super) fn new(
        p: usize,
        removed: &'a [SplitEntry<K, V>],
        added: impl IntoIterator<Item = &'a SplitEntry<K, V>>,
    ) -> Self {
        let heads: Vec<Head<'a, K, V>> = removed
            .iter()
            .chain(added)
            .enumerate()
            .map(|(run, entry)| Head {
                rest: entry.run(p),
                run,
            })
            .filter(|head| !head.rest.is_empty())
            .collect();
        RunMerge {
            removed: removed.len(),
            heap: BinaryHeap::from(heads),
        }
    }
}

impl<'a, K: Ord, V: Clone> Iterator for RunMerge<'a, K, V> {
    type Item = (&'a K, usize, Vec<Option<V>>);

    fn next(&mut self) -> Option<Self::Item> {
        let mut head = self.heap.peek_mut()?;
        let key = &head.rest[0].0;
        let mut removed = 0;
        let mut added = Vec::new();
        loop {
            let rest = head.rest;
            if head.run < self.removed {
                removed += 1;
            } else {
                added.push(Some(rest[0].1.clone()));
            }
            if rest.len() > 1 {
                // Dropping the `PeekMut` sifts the advanced head down.
                head.rest = &rest[1..];
                drop(head);
            } else {
                PeekMut::pop(head);
            }
            match self.heap.peek_mut() {
                Some(next) if next.rest[0].0 == *key => head = next,
                _ => break,
            }
        }
        Some((key, removed, added))
    }
}

// `BinaryHeap` pops its greatest element, so heads order in reverse: the
// smallest key first, and among equal keys the lowest run first.
impl<K: Ord, V> Ord for Head<'_, K, V> {
    fn cmp(&self, other: &Self) -> Ordering {
        (&other.rest[0].0, other.run).cmp(&(&self.rest[0].0, self.run))
    }
}

impl<K: Ord, V> PartialOrd for Head<'_, K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, V> PartialEq for Head<'_, K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<K: Ord, V> Eq for Head<'_, K, V> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Emits `key=value` tokens as they come; the combine concatenates, so
    /// its output shows the order it folded in.
    struct Concat;
    impl MapReduceApp for Concat {
        type Input = String;
        type Key = String;
        type Value = String;
        type Output = String;
        fn map(&self, line: &String, emit: &mut dyn FnMut(String, String)) {
            for token in line.split_whitespace() {
                let (key, value) = token.split_once('=').expect("key=value");
                emit(key.to_string(), value.to_string());
            }
        }
        fn combine(&self, _k: &String, a: &String, b: &String) -> String {
            format!("{a}{b}")
        }
        fn is_commutative(&self) -> bool {
            false
        }
        fn reduce(&self, _k: &String, parts: &[&String]) -> String {
            parts.iter().map(|s| s.as_str()).collect()
        }
        fn combine_cost(&self, _k: &String, a: &String, b: &String) -> u64 {
            (a.len() + b.len()) as u64
        }
        fn value_bytes(&self, k: &String, v: &String) -> u64 {
            (k.len() + v.len()) as u64
        }
    }

    fn split(id: u64, lines: &[&str]) -> Split<String> {
        Split::from_records(id, lines.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn map_output_is_key_sorted_per_partition_and_combined_in_emit_order() {
        let parts = 3;
        let entry = map_one_split(&Concat, parts, &split(7, &["b=1 a=2 b=3", "c=4 b=5 a=6"]));
        assert_eq!(entry.id, SplitId(7));
        let mut seen = Vec::new();
        let mut bytes = 0;
        for p in 0..parts {
            let run = entry.run(p);
            assert!(run.windows(2).all(|w| w[0].0 < w[1].0), "{run:?}");
            for (k, v) in run {
                assert_eq!(partition_of(k, parts), p);
                seen.push((k.clone(), v.clone()));
            }
            let run_bytes: u64 = run.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum();
            assert_eq!(entry.out_bytes(p), run_bytes);
            bytes += run_bytes;
        }
        seen.sort();
        let want = [("a", "26"), ("b", "135"), ("c", "4")];
        let want: Vec<_> = want
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        assert_eq!(seen, want);
        assert_eq!(entry.output_bytes(), bytes);
        // Two records at the default cost of 1, and three combines: "2"+"6"
        // and then "1"+"3" and "13"+"5".
        assert_eq!(entry.map_work, 2 + 2 + 2 + 3);
        assert_eq!(
            entry
                .find(partition_of(&"b".to_string(), parts), &"b".into())
                .map(|(_, v)| v.as_str()),
            Some("135")
        );
        assert_eq!(entry.find(0, &"zz".into()), None);
    }

    #[test]
    fn the_merge_yields_each_key_once_with_its_removed_runs_and_added_values_in_order() {
        let parts = 1;
        let map = |id, line: &str| map_one_split(&Concat, parts, &split(id, &[line]));
        let removed = [map(0, "a=r b=r"), map(1, "b=r c=r")];
        let added = [map(2, "c=x d=x"), map(3, "a=y c=y"), map(4, "c=z")];
        let merged: Vec<_> = RunMerge::new(0, &removed, &added)
            .map(|(k, removed, values)| {
                let values: Vec<String> = values.into_iter().flatten().collect();
                (k.as_str(), removed, values.join(","))
            })
            .collect();
        assert_eq!(
            merged,
            [
                ("a", 1, "y".to_string()),
                ("b", 2, String::new()),
                ("c", 1, "x,y,z".to_string()),
                ("d", 0, "x".to_string()),
            ]
        );
    }

    #[test]
    fn a_merge_of_many_runs_keeps_window_order() {
        let parts = 2;
        let window: Vec<_> = (0..40u64)
            .map(|i| {
                let line = format!("k{}={i} k{}={i} all={i}", i % 7, i % 3);
                map_one_split(&Concat, parts, &split(i, &[&line]))
            })
            .collect();
        for p in 0..parts {
            let mut want: std::collections::BTreeMap<&String, Vec<String>> = Default::default();
            for entry in &window {
                for (k, v) in entry.run(p) {
                    want.entry(k).or_default().push(v.clone());
                }
            }
            let got: Vec<_> = RunMerge::new(p, &[], &window)
                .map(|(k, removed, values)| {
                    assert_eq!(removed, 0);
                    (k, values.into_iter().flatten().collect::<Vec<_>>())
                })
                .collect();
            assert_eq!(got, want.into_iter().collect::<Vec<_>>());
        }
    }
}
