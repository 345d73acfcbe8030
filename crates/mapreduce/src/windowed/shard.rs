//! One reduce partition's share of a run: the edit of its per-key trees
//! (a slide, an interior splice or a fixed-width rotation), the reduce of
//! its dirty keys into output deltas, and split-mode preprocessing.
//!
//! A shard reads the run through the key-sorted map runs of its partition
//! (see [`RunMerge`]): every dirty key is found once, in key order, borrowed
//! from the runs, and cloned only when the key's tree is created.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

use slider_core::{build_tree, Phase, TreeCx, TreeKind, UpdateStats, WindowAggregator};

use super::map::{RunMerge, SplitEntry};
use super::{ExecMode, JobConfig};
use crate::app::{AppCombiner, MapReduceApp};
use crate::error::JobError;

/// Per-reduce-partition incremental state, self-contained so the shared
/// [`Runtime`](crate::Runtime) can hand every shard to a different worker:
/// the trees of this shard's keys (keys are hash-partitioned in
/// [`crate::shuffle`], so shard key sets are disjoint), their memo
/// footprint as of the last run, and nothing borrowed from the job.
/// Outputs live only in the job's merged view; shards report theirs as
/// deltas.
pub(super) struct PartitionShard<K, V> {
    pub(super) trees: HashMap<K, Box<dyn WindowAggregator<K, V>>>,
    pub(super) memo_footprint: u64,
}

impl<K, V> Default for PartitionShard<K, V> {
    fn default() -> Self {
        PartitionShard {
            trees: HashMap::new(),
            memo_footprint: 0,
        }
    }
}

// Deep copy for checkpoints. Rebuilding a tree from the retained window
// would reproduce the *answers* but not the memoization statistics
// (merges, nodes_reused, memo footprint) of later runs, so checkpoints
// clone the aggregator state exactly via `WindowAggregator::boxed_clone`.
impl<K: Clone + Eq + Hash, V> Clone for PartitionShard<K, V> {
    fn clone(&self) -> Self {
        PartitionShard {
            trees: self
                .trees
                .iter()
                .map(|(k, tree)| (k.clone(), tree.boxed_clone()))
                .collect(),
            memo_footprint: self.memo_footprint,
        }
    }
}

/// Per-partition work of one run, used for precise task construction in the
/// cluster simulation.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct PartitionWork {
    pub(super) fg_work: u64,
    pub(super) bg_work: u64,
    pub(super) reduce_work: u64,
    pub(super) memo_read_bytes: u64,
    pub(super) shuffle_bytes: u64,
}

/// What one shard reports back from a contraction+reduce run. Workers never
/// touch shared job state: the outcome owns its counts and outputs, and
/// borrows its keys from the run's map output (`'a`). The job folds these
/// in shard-index order, which keeps all metering deterministic.
pub(super) struct ShardOutcome<'a, A: MapReduceApp> {
    pub(super) tree_stats: UpdateStats,
    pub(super) work: PartitionWork,
    pub(super) keys_reduced: usize,
    pub(super) keys_reused: usize,
    /// Output changes (`Some` = upsert, `None` = delete), in key order,
    /// applied to the merged read view in shard order. Shard key sets are
    /// disjoint, so the application order across shards cannot change the
    /// result — only the iteration order, which is fixed.
    pub(super) deltas: Vec<(&'a A::Key, Option<A::Output>)>,
}

impl<A: MapReduceApp> Default for ShardOutcome<'_, A> {
    fn default() -> Self {
        ShardOutcome {
            tree_stats: UpdateStats::default(),
            work: PartitionWork::default(),
            keys_reduced: 0,
            keys_reused: 0,
            deltas: Vec::new(),
        }
    }
}

/// Shared read-only inputs of one run's window edit, borrowed by every
/// shard worker: the window *after* the edit, and the entries that left
/// and entered it.
pub(super) struct EditCx<'a, A: MapReduceApp> {
    pub(super) app: &'a A,
    pub(super) combiner: &'a AppCombiner<A>,
    pub(super) config: &'a JobConfig,
    pub(super) window: &'a VecDeque<SplitEntry<A::Key, A::Value>>,
    pub(super) removed: &'a [SplitEntry<A::Key, A::Value>],
    pub(super) added: &'a [SplitEntry<A::Key, A::Value>],
    /// Window position of an interior splice (0 = oldest split; the
    /// removed entries were drained from `at`, the added ones sit at
    /// `window[at..]`). `None` for a slide, which edits the window's ends.
    pub(super) splice_at: Option<usize>,
    /// Whether a fixed-width window held all its buckets before the slide.
    pub(super) was_full_buckets: bool,
    pub(super) kind: TreeKind,
    /// Run split-mode background pre-processing after the foreground edit.
    pub(super) split_processing: bool,
}

impl<K, V> PartitionShard<K, V>
where
    K: Clone + Ord + Hash + Send + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Recomputes this shard from scratch over the whole window: incremental
    /// state is discarded and every key re-reduces over all its per-split
    /// values.
    pub(super) fn run_recompute<'a, A: MapReduceApp<Key = K, Value = V>>(
        &mut self,
        p: usize,
        app: &A,
        window: &'a VecDeque<SplitEntry<K, V>>,
    ) -> ShardOutcome<'a, A> {
        self.trees.clear();
        self.memo_footprint = 0;
        let mut outcome = ShardOutcome::default();
        // Every key's values over the whole window, window-ordered.
        for (key, _, values) in RunMerge::new(p, &[], window) {
            let refs: Vec<&A::Value> = values.iter().flatten().collect();
            outcome.work.reduce_work += app.reduce_cost(key, &refs);
            outcome.keys_reduced += 1;
            let out = app.reduce(key, &refs);
            outcome.deltas.push((key, Some(out)));
        }
        outcome.work.shuffle_bytes = window.iter().map(|e| e.out_bytes(p)).sum();
        outcome
    }

    /// One shard's share of a run: the window edit of its trees, a
    /// dirty-key reduce into output deltas, and split-mode background
    /// pre-processing.
    pub(super) fn run_edit<'a, A: MapReduceApp<Key = K, Value = V>>(
        &mut self,
        p: usize,
        cx: &EditCx<'a, A>,
    ) -> Result<ShardOutcome<'a, A>, JobError> {
        let live_before = self.trees.len();
        let mut outcome = ShardOutcome::default();
        let mut tree_stats = UpdateStats::default();
        let dirty = self.edit(p, cx, &mut tree_stats)?;
        // The edit only adds trees, one for each key it creates, and every
        // key it creates is dirty.
        let created = self.trees.len() - live_before;
        let reduce_work = self.reduce_dirty(cx.app, &dirty, &mut outcome);

        // Split mode: background pre-processing for the next run.
        if cx.split_processing {
            self.preprocess(p, cx, &dirty, &mut tree_stats);
        }

        outcome.keys_reused = live_before - (dirty.len() - created);
        outcome.work.fg_work = tree_stats.foreground.work;
        outcome.work.bg_work = tree_stats.background.work;
        outcome.work.reduce_work = reduce_work;
        outcome.work.memo_read_bytes = tree_stats.bytes_read;
        outcome.work.shuffle_bytes = cx.added.iter().map(|e| e.out_bytes(p)).sum();
        outcome.tree_stats = tree_stats;
        Ok(outcome)
    }

    /// Reduces the dirty keys into output deltas; keys whose window
    /// emptied are dropped. Every other output is reused untouched in the
    /// job's view. Returns the metered reduce work.
    fn reduce_dirty<'a, A: MapReduceApp<Key = K, Value = V>>(
        &mut self,
        app: &A,
        dirty: &[&'a K],
        outcome: &mut ShardOutcome<'a, A>,
    ) -> u64 {
        let mut reduce_work = 0u64;
        for &key in dirty {
            let Some(tree) = self.trees.get_mut(key) else {
                continue;
            };
            if tree.is_empty() {
                self.trees.remove(key);
                outcome.deltas.push((key, None));
                continue;
            }
            let parts = tree.reduce_parts();
            reduce_work += app.reduce_cost(key, &parts);
            outcome.keys_reduced += 1;
            let out = app.reduce(key, &parts);
            outcome.deltas.push((key, Some(out)));
        }
        reduce_work
    }

    /// Applies the run's window edit to this shard's trees and returns the
    /// dirty keys, sorted, borrowed from the run's map output. Fixed-width
    /// jobs rotate whole buckets. Every other kind edits the tree of each
    /// key that lost or gained leaves, found by one merge of the removed
    /// and added runs: a slide advances it; an interior splice evicts or
    /// inserts at the key's leaf-space splice point, or, when its kind has
    /// no native splice ([`TreeKind::supports_splice`]), rebuilds the key
    /// from the post-splice window. The rebuild work flows through the same
    /// [`TreeCx`], so it lands in this run's foreground breakdown rather
    /// than vanishing from the work model.
    pub(super) fn edit<'a, A: MapReduceApp<Key = K, Value = V>>(
        &mut self,
        p: usize,
        cx: &EditCx<'a, A>,
        stats: &mut UpdateStats,
    ) -> Result<Vec<&'a K>, JobError> {
        if cx.kind == TreeKind::Rotating {
            return self.rotate(p, cx, stats);
        }
        let mut dirty = Vec::new();
        // A splice passes removed runs or added ones, never both.
        for (key, removed, added) in RunMerge::new(p, cx.removed, cx.added) {
            dirty.push(key);
            let tree = match self.trees.get_mut(key) {
                Some(tree) => tree,
                None => self
                    .trees
                    .entry(key.clone())
                    .or_insert_with(|| Self::fresh_tree(cx.kind, cx.config.mode)),
            };
            let mut tree_cx = TreeCx::new(cx.combiner, key, stats);
            match cx.splice_at {
                // A splice that only adds to a brand-new key is an append
                // into an empty window, which the slide arm below builds.
                Some(at) if removed > 0 || !tree.is_empty() => {
                    if cx.kind.supports_splice() {
                        let at = splice_point(cx, p, key, at, tree.len() - removed);
                        if removed > 0 {
                            tree.evict_range(&mut tree_cx, at, removed)?;
                        } else {
                            tree.insert_at(
                                &mut tree_cx,
                                at,
                                added.into_iter().flatten().collect(),
                            )?;
                        }
                    } else {
                        // Evicted leaves leave the window for good; the
                        // rebuild re-notes every surviving leaf it re-adds.
                        tree_cx.note_removed(removed as u64);
                        let leaves = cx
                            .window
                            .iter()
                            .filter_map(|e| e.find(p, key))
                            .map(|(_, v)| Some(v.clone()))
                            .collect();
                        tree.rebuild(&mut tree_cx, leaves);
                    }
                }
                _ => tree.advance(&mut tree_cx, removed, added)?,
            }
        }

        // The strawman's change propagation has no window-aware structure:
        // it visits *every* memoized sub-computation to decide whether it
        // can be reused (paper §2/§9 — "they require visiting all tasks in
        // a computation even if the task is not affected by the modified
        // data"), splices included. A clean key's visit re-cuts nothing
        // and merges nothing; it is charged from the tree's memo-cache
        // totals as a read of every memoized node, without walking them.
        if cx.kind == TreeKind::Strawman {
            for (key, tree) in &mut self.trees {
                if dirty.binary_search_by(|d| (*d).cmp(key)).is_err() {
                    let mut tree_cx = TreeCx::new(cx.combiner, key, stats);
                    tree.advance(&mut tree_cx, 0, Vec::new())?;
                }
            }
        }
        Ok(dirty)
    }

    /// Builds a fresh per-key tree honouring the split-processing flag.
    fn fresh_tree(kind: TreeKind, mode: ExecMode) -> Box<dyn WindowAggregator<K, V>> {
        if kind == TreeKind::Coalescing && mode.split_processing() {
            Box::new(slider_core::CoalescingTree::with_split_processing())
        } else {
            build_tree::<K, V>(kind, 0)
        }
    }

    /// Fixed-width bucket rotation of this shard. Each bucket step merges
    /// the leaving and arriving bucket's runs once, like a slide's edit.
    /// Returns the dirty keys, sorted, borrowed from the run's map output.
    fn rotate<'a, A: MapReduceApp<Key = K, Value = V>>(
        &mut self,
        p: usize,
        cx: &EditCx<'a, A>,
        stats: &mut UpdateStats,
    ) -> Result<Vec<&'a K>, JobError> {
        let w = cx.config.bucket_width;
        let n = cx.config.window_buckets;
        let was_full = cx.was_full_buckets;
        let mut out_buckets = cx.removed.chunks(w);
        let mut in_buckets = cx.added.chunks(w);
        let steps = cx.removed.len().max(cx.added.len()).div_ceil(w);
        // Buckets present before this advance (the window deque was already
        // updated by the caller).
        let mut buckets_now = (cx.window.len() + cx.removed.len() - cx.added.len()) / w;

        let mut dirty = Vec::new();
        for _ in 0..steps {
            let leaving = out_buckets.next().filter(|_| was_full).unwrap_or_default();
            let arriving = in_buckets.next().unwrap_or_default();
            // Every key that leaves or arrives in this step, in key order,
            // with its arriving values folded into the leaf it adds.
            let mut step: Vec<(&'a K, Option<V>)> = RunMerge::new(p, leaving, arriving)
                .map(|(key, _, values)| {
                    let mut tree_cx = TreeCx::new(cx.combiner, key, stats);
                    (
                        key,
                        tree_cx.fold(Phase::Foreground, values.into_iter().flatten()),
                    )
                })
                .collect();
            if !was_full {
                buckets_now += 1;
            }

            for (key, tree) in &mut self.trees {
                let mut tree_cx = TreeCx::new(cx.combiner, key, stats);
                match step.binary_search_by(|(k, _)| (*k).cmp(key)) {
                    // A live key takes its leaf, so the leaves left over
                    // below belong to brand-new keys.
                    Ok(i) => {
                        dirty.push(step[i].0);
                        let leaf = step[i].1.take();
                        tree.advance(&mut tree_cx, usize::from(was_full), vec![leaf])?;
                    }
                    Err(_) => tree.advance_absent(&mut tree_cx)?,
                }
            }
            // Brand-new keys in this bucket.
            for (key, leaf) in step {
                let Some(leaf) = leaf else { continue };
                dirty.push(key);
                let mut tree = build_tree::<A::Key, A::Value>(TreeKind::Rotating, n);
                let mut tree_cx = TreeCx::new(cx.combiner, key, stats);
                let occupied = if was_full { n } else { buckets_now };
                let mut leaves: Vec<Option<A::Value>> = vec![None; occupied - 1];
                leaves.push(Some(leaf));
                tree.rebuild(&mut tree_cx, leaves);
                self.trees.insert(key.clone(), tree);
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        Ok(dirty)
    }

    /// Background pre-processing after the foreground result was produced.
    fn preprocess<A: MapReduceApp<Key = K, Value = V>>(
        &mut self,
        p: usize,
        cx: &EditCx<'_, A>,
        dirty: &[&K],
        stats: &mut UpdateStats,
    ) {
        match cx.kind {
            TreeKind::Coalescing => {
                // Coalesce the pending delta of every key touched this run.
                for &key in dirty {
                    if let Some(tree) = self.trees.get_mut(key) {
                        let mut tree_cx = TreeCx::new(cx.combiner, key, stats);
                        tree.preprocess(&mut tree_cx);
                    }
                }
            }
            TreeKind::Rotating => {
                // Prepare off-path aggregates for keys in the bucket that
                // rotates out next (the oldest in the new window), and
                // finish deferred insertions for keys touched this run.
                let w = cx.config.bucket_width;
                let mut keys = dirty.to_vec();
                for entry in cx.window.iter().take(w) {
                    keys.extend(entry.run(p).iter().map(|(key, _)| key));
                }
                keys.sort_unstable();
                keys.dedup();
                for key in keys {
                    if let Some(tree) = self.trees.get_mut(key) {
                        let mut tree_cx = TreeCx::new(cx.combiner, key, stats);
                        tree.preprocess(&mut tree_cx);
                    }
                }
            }
            _ => {}
        }
    }

    /// Sums the live trees' maintained footprints.
    pub(super) fn refresh_footprint(&mut self) {
        self.memo_footprint = self.trees.values().map(|tree| tree.memo_bytes()).sum();
    }
}

/// The leaf-space point of an interior splice at window position `at` for
/// `key`: its leaves in the unchanged window prefix `window[..at]`, the same
/// before and after the splice. It is counted on the shorter side of the
/// splice, with a binary search per split. Past the spliced splits, the
/// prefix is the key's `kept` leaves (those of the window before the
/// splice, less the ones it evicts) less its leaves in the suffix. Late
/// records land near the newest end, so a splice usually counts the suffix.
fn splice_point<A: MapReduceApp>(
    cx: &EditCx<'_, A>,
    p: usize,
    key: &A::Key,
    at: usize,
    kept: usize,
) -> usize {
    let suffix = at + cx.added.len();
    let holds = |e: &&SplitEntry<A::Key, A::Value>| e.find(p, key).is_some();
    if at <= cx.window.len() - suffix {
        cx.window.range(..at).filter(holds).count()
    } else {
        kept - cx.window.range(suffix..).filter(holds).count()
    }
}
