//! The memoized re-pairing tree behind the strawman (§2.2) and randomized
//! folding (§3.2) trees, and its generational memoization cache.
//!
//! Both trees are one mechanism. Every run re-contracts the whole leaf
//! sequence level by level, cutting each level into groups; a group of two
//! or more members becomes a parent node whose stable 64-bit identity is
//! derived from its members' identities. A parent whose identity was
//! memoized by an earlier run is reused instead of recomputed. The two
//! kinds differ only in their [`Grouping`]: how a level is cut into groups,
//! how a group's identity is salted, and the salt of fresh leaf ids.
//! [`MemoTree`] holds everything else once, and [`memo_tree!`] wraps it
//! into each public tree type, as `daba.rs` does for the twin stacks.
//!
//! A two-generation sweep keeps the [`MemoCache`] bounded: entries not
//! touched by the most recent run belong to sub-computations that fell out
//! of the window (or whose alignment changed) and are collected. This
//! mirrors Slider's garbage collector (§6), which frees memoized items that
//! fall outside the current window.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use crate::error::TreeError;
use crate::hash::hash_one;
use crate::stats::Phase;
#[cfg(feature = "oracle")]
use crate::tree::MemoLayout;
use crate::tree::TreeCx;

/// A memo table mapping stable node identities to cached aggregates.
#[derive(Debug)]
pub(crate) struct MemoCache<V> {
    entries: HashMap<u64, Entry<V>>,
    generation: u64,
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

impl<V> MemoCache<V> {
    /// Creates an empty cache.
    pub(crate) fn new() -> Self {
        MemoCache {
            entries: HashMap::new(),
            generation: 0,
            bytes: 0,
        }
    }

    /// Looks up `id`, marking the entry as used in the current generation.
    pub(crate) fn get(&mut self, id: u64) -> Option<Arc<V>> {
        let generation = self.generation;
        self.entries.get_mut(&id).map(|entry| {
            entry.last_used = generation;
            Arc::clone(&entry.value)
        })
    }

    /// Inserts (or refreshes) a computed aggregate under `id`; `bytes` is
    /// its modeled size, counted in [`MemoCache::bytes`] while it lives.
    pub(crate) fn put(&mut self, id: u64, value: Arc<V>, bytes: u64) {
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
    pub(crate) fn sweep(&mut self) -> usize {
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
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Memoization footprint: the sizes the live entries were put with.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Every cached value, in no particular order.
    #[cfg(feature = "oracle")]
    pub(crate) fn values(&self) -> impl Iterator<Item = &Arc<V>> {
        self.entries.values().map(|e| &e.value)
    }
}

/// The per-kind rule of a [`MemoTree`]: where a level's groups close and
/// what identity a closed group gets.
pub(crate) trait Grouping: Copy {
    /// Mixed into the counter that numbers fresh leaves.
    fn leaf_salt(self) -> u64;

    /// Whether node `id` closes its group on level `level` (0 = leaves),
    /// being the group's `members`-th node.
    fn closes(self, id: u64, level: u64, members: usize) -> bool;

    /// Identity of `group` (two or more nodes), the `position`-th group of
    /// its level.
    fn group_id<V>(self, position: u64, group: &[(u64, Arc<V>)]) -> u64;
}

/// A memoized re-pairing tree: the window leaves with their stable
/// identities, the memo cache, and the last run's root. See the module
/// docs.
pub(crate) struct MemoTree<V, G> {
    /// Window leaves, oldest first, each with a stable identity.
    leaves: VecDeque<(u64, Arc<V>)>,
    /// Memoized internal nodes keyed by lineage identity.
    cache: MemoCache<V>,
    root: Option<Arc<V>>,
    next_id: u64,
    height: usize,
    /// Modeled bytes of the window leaves (the cache counts its own).
    leaf_bytes: u64,
    grouping: G,
}

// Manual: leaves and cache entries share their `Arc`ed values, so no
// `V: Clone` is needed.
impl<V, G: Grouping> Clone for MemoTree<V, G> {
    fn clone(&self) -> Self {
        MemoTree {
            leaves: self.leaves.clone(),
            cache: self.cache.clone(),
            root: self.root.clone(),
            next_id: self.next_id,
            height: self.height,
            leaf_bytes: self.leaf_bytes,
            grouping: self.grouping,
        }
    }
}

impl<V, G: Grouping> MemoTree<V, G> {
    pub(crate) fn new(grouping: G) -> Self {
        MemoTree {
            leaves: VecDeque::new(),
            cache: MemoCache::new(),
            root: None,
            next_id: 0,
            height: 0,
            leaf_bytes: 0,
            grouping,
        }
    }

    pub(crate) fn root(&self) -> Option<Arc<V>> {
        self.root.clone()
    }

    pub(crate) fn len(&self) -> usize {
        self.leaves.len()
    }

    pub(crate) fn height(&self) -> usize {
        self.height
    }

    pub(crate) fn memo_bytes(&self) -> u64 {
        self.cache.bytes() + self.leaf_bytes
    }

    #[cfg(feature = "oracle")]
    pub(crate) fn memo_layout(&self) -> MemoLayout<V> {
        let leaves = self.leaves.iter().map(|(_, v)| v);
        MemoLayout::Each(leaves.chain(self.cache.values()).cloned().collect())
    }

    pub(crate) fn debug(&self, name: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(name)
            .field("leaves", &self.leaves.len())
            .field("height", &self.height)
            .field("cached_nodes", &self.cache.len())
            .finish()
    }

    /// An added leaf with a fresh identity; its bytes join the footprint.
    fn fresh_leaf<K>(&mut self, cx: &mut TreeCx<'_, K, V>, value: Arc<V>) -> (u64, Arc<V>) {
        let id = hash_one(self.next_id ^ self.grouping.leaf_salt());
        self.next_id += 1;
        self.leaf_bytes += cx.value_bytes(&value);
        cx.note_added(1);
        (id, value)
    }

    /// Discards all state and builds over the present `leaves`.
    pub(crate) fn rebuild<K>(&mut self, cx: &mut TreeCx<'_, K, V>, leaves: Vec<Option<Arc<V>>>) {
        self.leaves.clear();
        self.cache = MemoCache::new();
        self.leaf_bytes = 0;
        for value in leaves.into_iter().flatten() {
            let leaf = self.fresh_leaf(cx, value);
            self.leaves.push_back(leaf);
        }
        self.recombine(cx);
    }

    /// Drops `remove` leaves from the front and appends the present `added`.
    pub(crate) fn advance<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        remove: usize,
        added: Vec<Option<Arc<V>>>,
    ) -> Result<(), TreeError> {
        if remove > self.leaves.len() {
            return Err(TreeError::RemoveExceedsWindow {
                requested: remove,
                window: self.leaves.len(),
            });
        }
        for (_, value) in self.leaves.drain(..remove) {
            self.leaf_bytes -= cx.value_bytes(&value);
            cx.note_removed(1);
        }
        for value in added.into_iter().flatten() {
            let leaf = self.fresh_leaf(cx, value);
            self.leaves.push_back(leaf);
        }
        self.recombine(cx);
        Ok(())
    }

    /// Splices `values` in so the first becomes leaf `at`. Groups whose
    /// members keep their identities (and, for the strawman, their
    /// positions) are reused from the cache.
    pub(crate) fn insert_at<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        at: usize,
        values: Vec<Arc<V>>,
    ) -> Result<(), TreeError> {
        if at > self.leaves.len() {
            return Err(TreeError::SpliceOutOfRange {
                at,
                count: values.len(),
                window: self.leaves.len(),
            });
        }
        if values.is_empty() {
            return Ok(());
        }
        for (j, value) in values.into_iter().enumerate() {
            let leaf = self.fresh_leaf(cx, value);
            self.leaves.insert(at + j, leaf);
        }
        self.recombine(cx);
        Ok(())
    }

    /// Evicts leaves `[at, at + count)`.
    pub(crate) fn evict_range<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        at: usize,
        count: usize,
    ) -> Result<(), TreeError> {
        if at
            .checked_add(count)
            .is_none_or(|end| end > self.leaves.len())
        {
            return Err(TreeError::SpliceOutOfRange {
                at,
                count,
                window: self.leaves.len(),
            });
        }
        if count == 0 {
            return Ok(());
        }
        cx.note_removed(count as u64);
        for (_, value) in self.leaves.drain(at..at + count) {
            self.leaf_bytes -= cx.value_bytes(&value);
        }
        self.recombine(cx);
        Ok(())
    }

    /// Replaces the leaf sequence with caller-identified leaves.
    pub(crate) fn set_leaves<K>(&mut self, cx: &mut TreeCx<'_, K, V>, leaves: Vec<(u64, Arc<V>)>) {
        let before = self.leaves.len();
        let after = leaves.len();
        if after > before {
            cx.note_added((after - before) as u64);
        } else {
            cx.note_removed((before - after) as u64);
        }
        self.leaf_bytes = leaves.iter().map(|(_, v)| cx.value_bytes(v)).sum();
        self.leaves = leaves.into();
        self.recombine(cx);
    }

    /// Re-contracts the whole leaf sequence bottom-up, reusing memoized
    /// groups, then sweeps the groups this run did not touch.
    fn recombine<K>(&mut self, cx: &mut TreeCx<'_, K, V>) {
        let mut level: Vec<(u64, Arc<V>)> = self
            .leaves
            .iter()
            .map(|(id, v)| (*id, Arc::clone(v)))
            .collect();
        let grouping = self.grouping;
        let mut height = usize::from(!level.is_empty());
        let mut level_no = 0u64;
        while level.len() > 1 {
            let mut next = self.contract(cx, &level, |id, members| {
                grouping.closes(id, level_no, members)
            });
            if next.len() == level.len() {
                // Safety valve: every node closed its own group, so the
                // level did not shrink; pair by position to make progress.
                next = self.contract(cx, &level, |_, members| members == 2);
            }
            level = next;
            level_no += 1;
            height += 1;
        }
        self.root = level.pop().map(|(_, v)| v);
        self.height = height;
        self.cache.sweep();
    }

    /// Cuts one level into the groups `closes` delimits (the last group
    /// closes at the level's end) and returns their parents.
    fn contract<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        level: &[(u64, Arc<V>)],
        closes: impl Fn(u64, usize) -> bool,
    ) -> Vec<(u64, Arc<V>)> {
        let mut next = Vec::with_capacity(level.len() / 2 + 1);
        let mut start = 0;
        for (i, (id, _)) in level.iter().enumerate() {
            if closes(*id, i + 1 - start) || i + 1 == level.len() {
                let position = next.len() as u64;
                next.push(self.parent(cx, position, &level[start..=i]));
                start = i + 1;
            }
        }
        next
    }

    /// The parent of a group, via the memo cache. A singleton promotes
    /// unchanged, identity included, so upper levels keep their memoized
    /// structure.
    fn parent<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        position: u64,
        group: &[(u64, Arc<V>)],
    ) -> (u64, Arc<V>) {
        if let [(id, value)] = group {
            return (*id, Arc::clone(value));
        }
        let id = self.grouping.group_id(position, group);
        if let Some(v) = self.cache.get(id) {
            cx.reuse(&v);
            return (id, v);
        }
        let mut acc = Arc::clone(&group[0].1);
        for (_, v) in &group[1..] {
            acc = cx.merge(Phase::Foreground, &acc, v);
        }
        self.cache.put(id, Arc::clone(&acc), cx.value_bytes(&acc));
        (id, acc)
    }
}

/// Declares a public tree type over a private [`MemoTree`] with the given
/// [`Grouping`], and its [`crate::WindowAggregator`] and
/// [`crate::ContractionTree`] impls. The type's constructors (`new`, which
/// `Default` calls) are written beside each invocation.
macro_rules! memo_tree {
    ($name:ident, $grouping:ty, $kind:expr, $doc:expr) => {
        #[doc = $doc]
        pub struct $name<V> {
            core: $crate::memo::MemoTree<V, $grouping>,
        }

        impl<V> Default for $name<V> {
            fn default() -> Self {
                Self::new()
            }
        }

        impl<V> std::fmt::Debug for $name<V> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.core.debug(stringify!($name), f)
            }
        }

        impl<V> Clone for $name<V> {
            fn clone(&self) -> Self {
                $name {
                    core: self.core.clone(),
                }
            }
        }

        impl<K, V> $crate::tree::WindowAggregator<K, V> for $name<V>
        where
            K: Send + 'static,
            V: Send + Sync + 'static,
        {
            fn boxed_clone(&self) -> Box<dyn $crate::tree::WindowAggregator<K, V>> {
                Box::new(self.clone())
            }

            fn rebuild(
                &mut self,
                cx: &mut $crate::tree::TreeCx<'_, K, V>,
                leaves: Vec<Option<std::sync::Arc<V>>>,
            ) {
                self.core.rebuild(cx, leaves);
            }

            fn advance(
                &mut self,
                cx: &mut $crate::tree::TreeCx<'_, K, V>,
                remove: usize,
                added: Vec<Option<std::sync::Arc<V>>>,
            ) -> Result<(), $crate::error::TreeError> {
                self.core.advance(cx, remove, added)
            }

            fn insert_at(
                &mut self,
                cx: &mut $crate::tree::TreeCx<'_, K, V>,
                at: usize,
                values: Vec<std::sync::Arc<V>>,
            ) -> Result<(), $crate::error::TreeError> {
                self.core.insert_at(cx, at, values)
            }

            fn evict_range(
                &mut self,
                cx: &mut $crate::tree::TreeCx<'_, K, V>,
                at: usize,
                count: usize,
            ) -> Result<(), $crate::error::TreeError> {
                self.core.evict_range(cx, at, count)
            }

            fn root(&self) -> Option<std::sync::Arc<V>> {
                self.core.root()
            }

            fn len(&self) -> usize {
                self.core.len()
            }

            fn memo_bytes(&self) -> u64 {
                self.core.memo_bytes()
            }

            #[cfg(feature = "oracle")]
            fn memo_layout(&self) -> $crate::tree::MemoLayout<V> {
                self.core.memo_layout()
            }

            fn kind(&self) -> $crate::tree::TreeKind {
                $kind
            }
        }

        impl<K, V> $crate::tree::ContractionTree<K, V> for $name<V>
        where
            K: Send + 'static,
            V: Send + Sync + 'static,
        {
            fn height(&self) -> usize {
                self.core.height()
            }
        }
    };
}
pub(crate) use memo_tree;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_roundtrip() {
        let mut cache = MemoCache::new();
        assert!(cache.get(1).is_none());
        cache.put(1, Arc::new(10u32), 4);
        assert_eq!(*cache.get(1).unwrap(), 10);
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
        assert_eq!(cache.len(), 0);
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
