//! The memoized re-pairing tree behind the strawman (§2.2) and randomized
//! folding (§3.2) trees, and its memoization cache.
//!
//! Both trees are one mechanism. The leaf sequence is contracted level by
//! level, each level cut into groups; a group of two or more members
//! becomes a parent node whose stable 64-bit identity is derived from its
//! members' identities, and a singleton is promoted unchanged. The two
//! kinds differ only in their [`Grouping`]: how a level is cut into groups,
//! how a group's identity is salted, and the salt of fresh leaf ids.
//! [`MemoTree`] holds everything else once, and [`memo_tree!`] wraps it
//! into each public tree type, as `daba.rs` does for the twin stacks.
//!
//! The tree keeps every level between edits. An edit re-cuts a level only
//! from the start of the old group that holds its first changed node up to
//! the first group end after the change where the old groups resume
//! unchanged; the parents it replaces are the next level's change. A
//! coin-flip boundary depends only on (seed, identity, level), so a slide
//! re-cuts O(1) expected groups per level. The strawman's identities
//! include the group's position, so a change that shifts positions re-cuts
//! the rest of the level — its §2.1 limitation. A re-cut group whose
//! identity an earlier edit memoized is reused instead of recomputed.
//!
//! The [`MemoCache`] holds exactly the current tree's groups: an edit
//! removes the groups it replaced and did not re-create. This mirrors
//! Slider's garbage collector (§6), which frees memoized items that fall
//! outside the current window. Because of that, a group an edit left alone
//! is metered as reused from the cache's maintained totals, without being
//! visited.

use std::collections::{hash_map, HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::error::TreeError;
use crate::hash::hash_one;
use crate::stats::Phase;
#[cfg(feature = "oracle")]
use crate::tree::MemoLayout;
use crate::tree::TreeCx;

#[cfg(feature = "oracle")]
pub(crate) mod reference;

/// A memo table mapping stable node identities to cached aggregates, each
/// counted by the tree nodes that hold it.
#[derive(Debug)]
pub(crate) struct MemoCache<V> {
    entries: HashMap<u64, Entry<V>, BuildHasherDefault<IdentityHasher>>,
    /// Sum of the live entries' sizes, as given to [`MemoCache::put`].
    bytes: u64,
}

/// Hashes a node identity to itself: identities are already well-mixed
/// 64-bit hashes.
#[derive(Default)]
struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id;
    }
}

#[derive(Debug)]
struct Entry<V> {
    value: Arc<V>,
    bytes: u64,
    holders: u32,
}

// Manual impls: every cached value sits behind an `Arc`, so a cache clone
// shares allocations and needs no `V: Clone` (which a derive would demand).
impl<V> Clone for MemoCache<V> {
    fn clone(&self) -> Self {
        MemoCache {
            entries: self.entries.clone(),
            bytes: self.bytes,
        }
    }
}

impl<V> Clone for Entry<V> {
    fn clone(&self) -> Self {
        Entry {
            value: Arc::clone(&self.value),
            bytes: self.bytes,
            holders: self.holders,
        }
    }
}

impl<V> MemoCache<V> {
    /// Creates an empty cache.
    pub(crate) fn new() -> Self {
        MemoCache {
            entries: HashMap::default(),
            bytes: 0,
        }
    }

    /// Looks up `id`; a hit gains one holder.
    pub(crate) fn acquire(&mut self, id: u64) -> Option<Arc<V>> {
        self.entries.get_mut(&id).map(|entry| {
            entry.holders += 1;
            Arc::clone(&entry.value)
        })
    }

    /// Inserts a computed aggregate under `id` with one holder; `bytes` is
    /// its modeled size, counted in [`MemoCache::bytes`] while it lives.
    pub(crate) fn put(&mut self, id: u64, value: Arc<V>, bytes: u64) {
        let entry = Entry {
            value,
            bytes,
            holders: 1,
        };
        self.bytes += bytes;
        if let Some(old) = self.entries.insert(id, entry) {
            self.bytes -= old.bytes;
        }
    }

    /// Drops one holder of `id`; the last one removes the entry.
    pub(crate) fn release(&mut self, id: u64) {
        if let hash_map::Entry::Occupied(mut entry) = self.entries.entry(id) {
            entry.get_mut().holders -= 1;
            if entry.get().holders == 0 {
                self.bytes -= entry.remove().bytes;
            }
        }
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

    /// Whether every level is cut into pairs by position, and a pair's
    /// identity includes its position, so that shifting a pair renames it.
    /// Otherwise [`Grouping::closes`] places the cuts.
    fn by_position(self) -> bool;

    /// Whether node `id` closes its group on level `level` (0 = leaves).
    /// Only consulted when the grouping does not pair by position.
    fn closes(self, _id: u64, _level: u64) -> bool {
        false
    }

    /// Identity of a group of two or more nodes with the identities `ids`,
    /// the `position`-th group of its level.
    fn group_id(self, position: u64, ids: impl Iterator<Item = u64>) -> u64;
}

/// A node of one level: a window leaf, the parent of a memoized group, or
/// a singleton promoted unchanged.
struct Node<V> {
    id: u64,
    value: Arc<V>,
    /// Members on the level below: 0 for a leaf, 1 for a promoted
    /// singleton, 2 or more for a group held in the cache.
    span: u32,
    /// Whether the node closes a group on its own on its level.
    lone: bool,
}

impl<V> Node<V> {
    /// A node entering level `level`.
    fn new<G: Grouping>(grouping: G, level: usize, id: u64, value: Arc<V>, span: u32) -> Self {
        let lone = !grouping.by_position() && grouping.closes(id, level as u64);
        Node {
            id,
            value,
            span,
            lone,
        }
    }

    fn span(&self) -> usize {
        self.span as usize
    }
}

impl<V> Clone for Node<V> {
    fn clone(&self) -> Self {
        Node {
            id: self.id,
            value: Arc::clone(&self.value),
            span: self.span,
            lone: self.lone,
        }
    }
}

/// One level of a [`MemoTree`], with what its next cut needs to know.
struct Level<V> {
    nodes: VecDeque<Node<V>>,
    /// Nodes that do not close a group on their own. When at most the last
    /// node is one, a cut by [`Grouping::closes`] would not shrink the
    /// level.
    holdouts: usize,
    /// Whether the level above was cut into pairs by position although the
    /// grouping does not pair: the valve for a level its cut would not
    /// shrink.
    paired: bool,
}

impl<V> Level<V> {
    fn new() -> Self {
        Level {
            nodes: VecDeque::new(),
            holdouts: 0,
            paired: false,
        }
    }
}

impl<V> Clone for Level<V> {
    fn clone(&self) -> Self {
        Level {
            nodes: self.nodes.clone(),
            holdouts: self.holdouts,
            paired: self.paired,
        }
    }
}

/// `removed` nodes of a level at `at`, counted before the edit, replaced
/// by `added` nodes, which the level's [`Change`] holds.
#[derive(Clone, Copy)]
struct Splice {
    at: usize,
    removed: usize,
    added: usize,
}

impl Splice {
    fn new(at: usize, removed: usize, added: usize) -> Self {
        Splice { at, removed, added }
    }
}

/// A level's splices and, in splice order, the nodes they add.
struct Change<V> {
    splices: Vec<Splice>,
    nodes: Vec<Node<V>>,
}

/// What one edit did to the cache: the identities of the groups it
/// replaced, and the groups it merged afresh.
#[derive(Default)]
struct Pass {
    replaced: Vec<u64>,
    fresh: u64,
    fresh_bytes: u64,
}

/// A memoized re-pairing tree: its levels, leaves first, and the memo
/// cache of their groups. See the module docs.
pub(crate) struct MemoTree<V, G> {
    /// Never empty. The last level holds the root alone, unless the window
    /// is empty.
    levels: Vec<Level<V>>,
    /// The groups of `levels`, keyed by lineage identity.
    cache: MemoCache<V>,
    next_id: u64,
    /// Modeled bytes of the window leaves (the cache counts its own).
    leaf_bytes: u64,
    grouping: G,
}

// Manual: nodes and cache entries share their `Arc`ed values, so no
// `V: Clone` is needed.
impl<V, G: Grouping> Clone for MemoTree<V, G> {
    fn clone(&self) -> Self {
        MemoTree {
            levels: self.levels.clone(),
            cache: self.cache.clone(),
            next_id: self.next_id,
            leaf_bytes: self.leaf_bytes,
            grouping: self.grouping,
        }
    }
}

impl<V, G: Grouping> MemoTree<V, G> {
    pub(crate) fn new(grouping: G) -> Self {
        MemoTree {
            levels: vec![Level::new()],
            cache: MemoCache::new(),
            next_id: 0,
            leaf_bytes: 0,
            grouping,
        }
    }

    fn leaves(&self) -> &VecDeque<Node<V>> {
        &self.levels[0].nodes
    }

    pub(crate) fn root(&self) -> Option<Arc<V>> {
        let top = self.levels.last()?;
        top.nodes.front().map(|node| Arc::clone(&node.value))
    }

    pub(crate) fn len(&self) -> usize {
        self.leaves().len()
    }

    pub(crate) fn height(&self) -> usize {
        if self.leaves().is_empty() {
            0
        } else {
            self.levels.len()
        }
    }

    pub(crate) fn memo_bytes(&self) -> u64 {
        self.cache.bytes() + self.leaf_bytes
    }

    #[cfg(feature = "oracle")]
    pub(crate) fn memo_layout(&self) -> MemoLayout<V> {
        let leaves = self.leaves().iter().map(|node| &node.value);
        MemoLayout::Each(leaves.chain(self.cache.values()).cloned().collect())
    }

    pub(crate) fn debug(&self, name: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(name)
            .field("leaves", &self.len())
            .field("height", &self.height())
            .field("cached_nodes", &self.cache.len())
            .finish()
    }

    /// Added leaves with fresh identities; their bytes join the footprint.
    fn fresh_leaves<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        values: impl IntoIterator<Item = Arc<V>>,
    ) -> Vec<Node<V>> {
        let mut leaves = Vec::new();
        for value in values {
            let id = hash_one(self.next_id ^ self.grouping.leaf_salt());
            self.next_id += 1;
            self.leaf_bytes += cx.value_bytes(&value);
            cx.note_added(1);
            leaves.push(Node::new(self.grouping, 0, id, value, 0));
        }
        leaves
    }

    /// Leaves `[at, at + count)` leave the window; their bytes leave the
    /// footprint.
    fn drop_leaves<K>(&mut self, cx: &mut TreeCx<'_, K, V>, at: usize, count: usize) {
        for node in self.levels[0].nodes.range(at..at + count) {
            self.leaf_bytes -= cx.value_bytes(&node.value);
        }
        cx.note_removed(count as u64);
    }

    /// Discards all state and builds over the present `leaves`.
    pub(crate) fn rebuild<K>(&mut self, cx: &mut TreeCx<'_, K, V>, leaves: Vec<Option<Arc<V>>>) {
        self.levels = vec![Level::new()];
        self.cache = MemoCache::new();
        self.leaf_bytes = 0;
        let added = self.fresh_leaves(cx, leaves.into_iter().flatten());
        self.edit(cx, &[Splice::new(0, 0, added.len())], added);
    }

    /// Drops `remove` leaves from the front and appends the present `added`.
    pub(crate) fn advance<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        remove: usize,
        added: Vec<Option<Arc<V>>>,
    ) -> Result<(), TreeError> {
        let len = self.len();
        if remove > len {
            return Err(TreeError::RemoveExceedsWindow {
                requested: remove,
                window: len,
            });
        }
        self.drop_leaves(cx, 0, remove);
        let added = self.fresh_leaves(cx, added.into_iter().flatten());
        let splices = [Splice::new(0, remove, 0), Splice::new(len, 0, added.len())];
        self.edit(cx, &splices, added);
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
        if at > self.len() {
            return Err(TreeError::SpliceOutOfRange {
                at,
                count: values.len(),
                window: self.len(),
            });
        }
        if values.is_empty() {
            return Ok(());
        }
        let added = self.fresh_leaves(cx, values);
        self.edit(cx, &[Splice::new(at, 0, added.len())], added);
        Ok(())
    }

    /// Evicts leaves `[at, at + count)`.
    pub(crate) fn evict_range<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        at: usize,
        count: usize,
    ) -> Result<(), TreeError> {
        if at.checked_add(count).is_none_or(|end| end > self.len()) {
            return Err(TreeError::SpliceOutOfRange {
                at,
                count,
                window: self.len(),
            });
        }
        if count == 0 {
            return Ok(());
        }
        self.drop_leaves(cx, at, count);
        self.edit(cx, &[Splice::new(at, count, 0)], Vec::new());
        Ok(())
    }

    /// Replaces the leaf sequence with caller-identified leaves.
    pub(crate) fn set_leaves<K>(&mut self, cx: &mut TreeCx<'_, K, V>, leaves: Vec<(u64, Arc<V>)>) {
        let before = self.len();
        let after = leaves.len();
        if after > before {
            cx.note_added((after - before) as u64);
        } else {
            cx.note_removed((before - after) as u64);
        }
        self.leaf_bytes = leaves.iter().map(|(_, v)| cx.value_bytes(v)).sum();
        let grouping = self.grouping;
        let added: Vec<Node<V>> = leaves
            .into_iter()
            .map(|(id, value)| Node::new(grouping, 0, id, value, 0))
            .collect();
        self.edit(cx, &[Splice::new(0, before, added.len())], added);
    }

    /// Applies `splices` (sorted, disjoint, counted before the edit) to
    /// the leaves, taking their added leaves from `leaves` in order, and
    /// carries the change up level by level: each level re-cuts only around
    /// its splices, and the parents it replaces are the next level's
    /// splices. Then frees the replaced groups that were not re-created and
    /// meters every group the edit did not merge as reused, from the
    /// cache's totals.
    fn edit<K>(&mut self, cx: &mut TreeCx<'_, K, V>, splices: &[Splice], leaves: Vec<Node<V>>) {
        let mut change = Change {
            splices: splices
                .iter()
                .filter(|s| s.removed + s.added > 0)
                .copied()
                .collect(),
            nodes: leaves,
        };
        let mut next = Change {
            splices: Vec::new(),
            nodes: Vec::new(),
        };
        let mut pass = Pass::default();
        let mut h = 0;
        while !change.splices.is_empty() {
            let old_len = self.levels[h].nodes.len();
            self.apply(h, &mut change, &mut pass.replaced);
            let level = &self.levels[h];
            let new_len = level.nodes.len();
            if new_len <= 1 {
                for above in self.levels.drain(h + 1..) {
                    let groups = above.nodes.into_iter().filter(|node| node.span > 1);
                    pass.replaced.extend(groups.map(|node| node.id));
                }
                break;
            }
            // The valve: if every node but the last closes a group on its
            // own, the cut would not shrink the level, so it is paired by
            // position instead.
            let last_lone = level.nodes[new_len - 1].lone;
            let paired = level.holdouts == usize::from(!last_lone);
            if h + 1 == self.levels.len() || paired != level.paired {
                change.splices.clear();
                change.splices.push(Splice::new(0, old_len, new_len));
            }
            if h + 1 == self.levels.len() {
                self.levels.push(Level::new());
            }
            self.levels[h].paired = paired;
            self.recut(cx, h, &change.splices, old_len, &mut next, &mut pass);
            std::mem::swap(&mut change, &mut next);
            next.splices.clear();
            h += 1;
        }
        for id in pass.replaced {
            self.cache.release(id);
        }
        cx.reuse_many(
            self.cache.len() as u64 - pass.fresh,
            self.cache.bytes() - pass.fresh_bytes,
        );
    }

    /// Applies `change` to level `h`, its last splice first so that every
    /// `at` still counts the level before the edit, taking each splice's
    /// nodes from the end of `change.nodes`. Removed groups join
    /// `replaced`.
    fn apply(&mut self, h: usize, change: &mut Change<V>, replaced: &mut Vec<u64>) {
        let level = &mut self.levels[h];
        let added = &mut change.nodes;
        for splice in change.splices.iter().rev() {
            for node in level.nodes.drain(splice.at..splice.at + splice.removed) {
                level.holdouts -= usize::from(!node.lone);
                if node.span > 1 {
                    replaced.push(node.id);
                }
            }
            let tail = added.len() - splice.added;
            level.holdouts += added[tail..].iter().filter(|node| !node.lone).count();
            if splice.at == level.nodes.len() {
                level.nodes.extend(added.drain(tail..));
            } else {
                for (j, node) in added.drain(tail..).enumerate() {
                    level.nodes.insert(splice.at + j, node);
                }
            }
        }
    }

    /// Re-cuts the edited level `h` around its `splices` (counted before
    /// the edit, when the level held `old_len` nodes) into `out`, the
    /// change of the level above.
    ///
    /// A region starts at the old group holding a splice's first node (the
    /// last group for an append, whose end the level's end may have
    /// forced). It ends at the first group end past its splices that was an
    /// old group end too, from where the old groups resume — for a grouping
    /// by position only once the groups above are back in place — or at the
    /// level's end. A later splice that the region reaches joins it.
    fn recut<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        h: usize,
        splices: &[Splice],
        old_len: usize,
        out: &mut Change<V>,
        pass: &mut Pass,
    ) {
        let grouping = self.grouping;
        let level = &self.levels[h];
        let nodes = &level.nodes;
        let groups = &self.levels[h + 1].nodes;
        let cache = &mut self.cache;
        let pairs = level.paired || grouping.by_position();
        let added = &mut out.nodes;
        let new_len = nodes.len();
        // New index minus old index past the splices taken so far, and the
        // same for the level above.
        let mut shift = 0isize;
        let mut parent_shift = 0isize;
        // The first old group past the last region, and its first node.
        let (mut cursor, mut cursor_at) = (0, 0);
        let mut next = 0;
        let take = |next: &mut usize, shift: &mut isize, need: &mut usize| {
            let splice = splices[*next];
            *need = offset(splice.at, *shift) + splice.added;
            *shift += splice.added as isize - splice.removed as isize;
            *next += 1;
        };
        while next < splices.len() {
            let (g0, start) = if groups.is_empty() {
                (0, 0)
            } else {
                let target = splices[next].at.min(old_len - 1);
                locate(groups, old_len, cursor, cursor_at, target)
            };
            let mut k = offset(start, shift);
            let mut need = 0;
            let emitted = added.len();
            // Old groups `[g0, g)` end at old node `old_end`.
            let (mut g, mut old_end) = (g0, start);
            let mut group_start = k;
            let mut members = 0;
            take(&mut next, &mut shift, &mut need);
            let end = loop {
                if members == 0 {
                    while next < splices.len() && offset(splices[next].at, shift) <= k {
                        take(&mut next, &mut shift, &mut need);
                    }
                    if k == new_len {
                        g = groups.len();
                        break old_len;
                    }
                    if k >= need {
                        let e_old = offset(k, -shift);
                        while old_end < e_old {
                            old_end += groups[g].span();
                            g += 1;
                        }
                        let made = (added.len() - emitted) as isize;
                        let settled = made - (g - g0) as isize + parent_shift == 0;
                        if old_end == e_old && (settled || !grouping.by_position()) {
                            break e_old;
                        }
                    }
                }
                members += 1;
                k += 1;
                let closes = if pairs {
                    members == 2
                } else {
                    nodes[k - 1].lone
                };
                if k == new_len || closes {
                    let position = offset(g0, parent_shift) + added.len() - emitted;
                    let group = nodes.range(group_start..k);
                    added.push(parent(cx, cache, grouping, h + 1, position, group, pass));
                    group_start = k;
                    members = 0;
                }
            };
            let made = added.len() - emitted;
            parent_shift += made as isize - (g - g0) as isize;
            out.splices.push(Splice {
                at: g0,
                removed: g - g0,
                added: made,
            });
            (cursor, cursor_at) = (g, end);
        }
    }
}

/// `index + shift`, for a shift that keeps it in range.
fn offset(index: usize, shift: isize) -> usize {
    index
        .checked_add_signed(shift)
        .expect("a level index stays in range")
}

/// The old group holding old node `target`, as (index, first node), walked
/// from the cursor group `g` (first node `at`, not past `target`) or from
/// the level's end, whichever is nearer. The groups' spans sum to `len`.
fn locate<V>(
    groups: &VecDeque<Node<V>>,
    len: usize,
    mut g: usize,
    mut at: usize,
    target: usize,
) -> (usize, usize) {
    if target - at <= len - target {
        while at + groups[g].span() <= target {
            at += groups[g].span();
            g += 1;
        }
        (g, at)
    } else {
        let (mut g, mut end) = (groups.len() - 1, len);
        while end - groups[g].span() > target {
            end -= groups[g].span();
            g -= 1;
        }
        (g, end - groups[g].span())
    }
}

/// The parent of a group, the `position`-th of its level `level`, via the
/// memo cache. A singleton promotes unchanged, identity included, so upper
/// levels keep their memoized structure.
fn parent<K, V, G: Grouping>(
    cx: &mut TreeCx<'_, K, V>,
    cache: &mut MemoCache<V>,
    grouping: G,
    level: usize,
    position: usize,
    mut group: std::collections::vec_deque::Iter<'_, Node<V>>,
    pass: &mut Pass,
) -> Node<V> {
    let span = u32::try_from(group.len()).expect("a group fits its level");
    if span == 1 {
        let node = group.next().expect("a group has a member");
        return Node::new(grouping, level, node.id, Arc::clone(&node.value), 1);
    }
    let id = grouping.group_id(position as u64, group.clone().map(|node| node.id));
    if let Some(value) = cache.acquire(id) {
        return Node::new(grouping, level, id, value, span);
    }
    let first = group.next().expect("a group has a member");
    let mut acc = Arc::clone(&first.value);
    for node in group {
        acc = cx.merge(Phase::Foreground, &acc, &node.value);
    }
    let bytes = cx.value_bytes(&acc);
    cache.put(id, Arc::clone(&acc), bytes);
    pass.fresh += 1;
    pass.fresh_bytes += bytes;
    Node::new(grouping, level, id, acc, span)
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
        assert!(cache.acquire(1).is_none());
        cache.put(1, Arc::new(10u32), 4);
        assert_eq!(*cache.acquire(1).unwrap(), 10);
    }

    #[test]
    fn release_removes_an_entry_with_no_holder_left() {
        let mut cache = MemoCache::new();
        cache.put(1, Arc::new(1u8), 1);
        cache.put(2, Arc::new(2u8), 1);
        cache.release(2);
        assert_eq!(cache.len(), 1);
        assert!(cache.acquire(1).is_some());
        assert!(cache.acquire(2).is_none());
        // Releasing an absent identity changes nothing.
        cache.release(2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn footprint_sums_value_sizes() {
        let mut cache = MemoCache::new();
        cache.put(1, Arc::new(vec![0u8; 3]), 3);
        cache.put(2, Arc::new(vec![0u8; 5]), 5);
        assert_eq!(cache.bytes(), 8);
    }

    #[test]
    fn bytes_follow_put_and_release() {
        let mut cache = MemoCache::new();
        cache.put(1, Arc::new(vec![0u8; 3]), 3);
        cache.put(2, Arc::new(vec![0u8; 5]), 5);
        cache.release(2);
        assert_eq!(cache.bytes(), 3);
        cache.release(1);
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn a_reacquired_entry_survives_its_release() {
        // An edit that re-creates a group it replaced acquires the entry
        // before it releases the replaced one: the entry stays.
        let mut cache = MemoCache::new();
        cache.put(1, Arc::new(7u8), 1);
        assert_eq!(cache.acquire(1).map(|v| *v), Some(7));
        cache.release(1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), 1);
        cache.release(1);
        assert_eq!(cache.len(), 0);
    }
}
