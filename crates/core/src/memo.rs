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
//!
//! Every value the tree holds, each leaf and each cached group, lives in
//! one slab (see the `slab` module). Nodes hold handles, a promoted
//! singleton shares its member's, and the cache maps an identity to its
//! group's handle. The slab's total is the memoization footprint.

use std::collections::{hash_map, HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::error::TreeError;
use crate::hash::hash_one;
use crate::slab::{Handle, Slab};
use crate::stats::Phase;
#[cfg(feature = "oracle")]
use crate::tree::MemoLayout;
use crate::tree::TreeCx;

#[cfg(feature = "oracle")]
pub(crate) mod reference;

/// A memo table mapping stable node identities to the slab handles of the
/// cached aggregates. An entry is one holder of its value; it leaves the
/// cache once it is the only holder left.
#[derive(Debug, Clone)]
pub(crate) struct MemoCache {
    entries: HashMap<u64, Handle, BuildHasherDefault<IdentityHasher>>,
    /// Sum of the live entries' sizes, as the slab stores them.
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

impl MemoCache {
    /// Creates an empty cache.
    pub(crate) fn new() -> Self {
        MemoCache {
            entries: HashMap::default(),
            bytes: 0,
        }
    }

    /// Empties the cache, whose values the caller frees with their slab.
    fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }

    /// The value cached under `id`, with one more holder for the caller.
    /// On a miss, `make` stores a fresh value in `slab`, held by the
    /// caller, and the cache becomes its second holder. Also says whether
    /// it was a miss.
    pub(crate) fn acquire_or_put<V>(
        &mut self,
        slab: &mut Slab<V>,
        id: u64,
        make: impl FnOnce(&mut Slab<V>) -> Handle,
    ) -> (Handle, bool) {
        match self.entries.entry(id) {
            hash_map::Entry::Occupied(entry) => (slab.share(*entry.get()), false),
            hash_map::Entry::Vacant(entry) => {
                let value = make(slab);
                self.bytes += slab.bytes_of(value);
                entry.insert(slab.share(value));
                (value, true)
            }
        }
    }

    /// Removes `id` once its entry is the only holder of its value left.
    pub(crate) fn release<V>(&mut self, slab: &mut Slab<V>, id: u64) {
        if let hash_map::Entry::Occupied(entry) = self.entries.entry(id) {
            let value = *entry.get();
            if slab.holders(value) == 1 {
                entry.remove();
                self.bytes -= slab.bytes_of(value);
                slab.release(value);
            }
        }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Memoization footprint: the sizes of the live entries' values.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Every cached value, in no particular order.
    #[cfg(feature = "oracle")]
    fn values(&self) -> impl Iterator<Item = Handle> + '_ {
        self.entries.values().copied()
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
/// a singleton promoted unchanged (which shares its member's value).
#[derive(Clone, Copy)]
struct Node {
    id: u64,
    value: Handle,
    /// Members on the level below: 0 for a leaf, 1 for a promoted
    /// singleton, 2 or more for a group held in the cache.
    span: u32,
    /// Whether the node closes a group on its own on its level.
    lone: bool,
}

impl Node {
    /// A node entering level `level`, holding `value`.
    fn new<G: Grouping>(grouping: G, level: usize, id: u64, value: Handle, span: u32) -> Self {
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

/// One level of a [`MemoTree`], with what its next cut needs to know.
#[derive(Clone)]
struct Level {
    nodes: VecDeque<Node>,
    /// Nodes that do not close a group on their own. When at most the last
    /// node is one, a cut by [`Grouping::closes`] would not shrink the
    /// level.
    holdouts: usize,
    /// Whether the level above was cut into pairs by position although the
    /// grouping does not pair: the valve for a level its cut would not
    /// shrink.
    paired: bool,
}

impl Level {
    fn new() -> Self {
        Level {
            nodes: VecDeque::new(),
            holdouts: 0,
            paired: false,
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
#[derive(Clone, Default)]
struct Change {
    splices: Vec<Splice>,
    nodes: Vec<Node>,
}

/// What one edit did to the cache: the identities of the groups it
/// replaced, and the groups it merged afresh.
#[derive(Clone, Default)]
struct Pass {
    replaced: Vec<u64>,
    fresh: u64,
    fresh_bytes: u64,
}

/// The buffers of one edit, empty between edits and kept for their
/// capacity: the change of the level being cut, the change it makes to
/// the level above, and the edit's [`Pass`].
#[derive(Clone, Default)]
struct Scratch {
    change: Change,
    next: Change,
    pass: Pass,
}

/// A memoized re-pairing tree: its levels, leaves first, the memo cache of
/// their groups, and the slab that holds the values of both. See the
/// module docs.
#[derive(Clone)]
pub(crate) struct MemoTree<V, G> {
    /// Never empty. The last level holds the root alone, unless the window
    /// is empty.
    levels: Vec<Level>,
    /// The groups of `levels`, keyed by lineage identity.
    cache: MemoCache,
    /// The leaves' and the cached groups' values: its bytes are the
    /// memoization footprint.
    slab: Slab<V>,
    next_id: u64,
    grouping: G,
    scratch: Scratch,
}

impl<V, G: Grouping> MemoTree<V, G> {
    pub(crate) fn new(grouping: G) -> Self {
        MemoTree {
            levels: vec![Level::new()],
            cache: MemoCache::new(),
            slab: Slab::new(),
            next_id: 0,
            grouping,
            scratch: Scratch::default(),
        }
    }

    fn leaves(&self) -> &VecDeque<Node> {
        &self.levels[0].nodes
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

    pub(crate) fn debug(&self, name: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(name)
            .field("leaves", &self.len())
            .field("height", &self.height())
            .field("cached_nodes", &self.cache.len())
            .finish()
    }
}

impl<V: Clone, G: Grouping> MemoTree<V, G> {
    pub(crate) fn root(&self) -> Option<&V> {
        let top = self.levels.last()?;
        top.nodes.front().map(|node| self.slab.get(node.value))
    }

    pub(crate) fn memo_bytes(&self) -> u64 {
        self.slab.bytes()
    }

    #[cfg(feature = "oracle")]
    pub(crate) fn memo_layout(&self) -> MemoLayout<'_, V> {
        let leaves = self.leaves().iter().map(|node| node.value);
        let held = leaves.chain(self.cache.values());
        MemoLayout::Each(held.map(|value| self.slab.get(value)).collect())
    }

    /// Moves `leaves` into the slab as the next edit's added leaves, each
    /// with its identity; their bytes join the footprint. Returns how many
    /// were added.
    fn add_leaves<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        leaves: impl IntoIterator<Item = (u64, V)>,
    ) -> usize {
        let added = &mut self.scratch.change.nodes;
        let before = added.len();
        for (id, value) in leaves {
            let bytes = cx.value_bytes(&value);
            let value = self.slab.insert(value, bytes);
            added.push(Node::new(self.grouping, 0, id, value, 0));
        }
        added.len() - before
    }

    /// Added leaves with fresh identities.
    fn fresh_leaves<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        values: impl IntoIterator<Item = V>,
    ) -> usize {
        let salt = self.grouping.leaf_salt();
        let numbered = values.into_iter().zip(self.next_id..);
        let added = self.add_leaves(cx, numbered.map(|(value, n)| (hash_one(n ^ salt), value)));
        self.next_id += added as u64;
        cx.note_added(added as u64);
        added
    }

    /// Discards all state and builds over the present `leaves`.
    pub(crate) fn rebuild<K>(&mut self, cx: &mut TreeCx<'_, K, V>, leaves: Vec<Option<V>>) {
        self.levels.clear();
        self.levels.push(Level::new());
        self.cache.clear();
        self.slab.clear();
        let added = self.fresh_leaves(cx, leaves.into_iter().flatten());
        self.edit(cx, &[Splice::new(0, 0, added)]);
    }

    /// Drops `remove` leaves from the front and appends the present `added`.
    pub(crate) fn advance<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        remove: usize,
        added: Vec<Option<V>>,
    ) -> Result<(), TreeError> {
        let len = self.len();
        if remove > len {
            return Err(TreeError::RemoveExceedsWindow {
                requested: remove,
                window: len,
            });
        }
        cx.note_removed(remove as u64);
        let added = self.fresh_leaves(cx, added.into_iter().flatten());
        self.edit(cx, &[Splice::new(0, remove, 0), Splice::new(len, 0, added)]);
        Ok(())
    }

    /// Splices `values` in so the first becomes leaf `at`. Groups whose
    /// members keep their identities (and, for the strawman, their
    /// positions) are reused from the cache.
    pub(crate) fn insert_at<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        at: usize,
        values: Vec<V>,
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
        self.edit(cx, &[Splice::new(at, 0, added)]);
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
        cx.note_removed(count as u64);
        self.edit(cx, &[Splice::new(at, count, 0)]);
        Ok(())
    }

    /// Replaces the leaf sequence with caller-identified leaves.
    pub(crate) fn set_leaves<K>(&mut self, cx: &mut TreeCx<'_, K, V>, leaves: Vec<(u64, V)>) {
        let before = self.len();
        let after = leaves.len();
        if after > before {
            cx.note_added((after - before) as u64);
        } else {
            cx.note_removed((before - after) as u64);
        }
        self.add_leaves(cx, leaves);
        self.edit(cx, &[Splice::new(0, before, after)]);
    }

    /// Applies `splices` (sorted, disjoint, counted before the edit) to
    /// the leaves, taking their added leaves in order from the scratch
    /// change, and carries the change up level by level: each level re-cuts
    /// only around its splices, and the parents it replaces are the next
    /// level's splices. Then frees the replaced groups that were not
    /// re-created and meters every group the edit did not merge as reused,
    /// from the cache's totals.
    fn edit<K>(&mut self, cx: &mut TreeCx<'_, K, V>, splices: &[Splice]) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let Scratch { change, next, pass } = &mut scratch;
        let touched = splices.iter().filter(|s| s.removed + s.added > 0);
        change.splices.extend(touched);
        let mut h = 0;
        while !change.splices.is_empty() {
            let old_len = self.levels[h].nodes.len();
            self.apply(h, change, &mut pass.replaced);
            let level = &self.levels[h];
            let new_len = level.nodes.len();
            if new_len <= 1 {
                for above in self.levels.drain(h + 1..) {
                    for node in above.nodes {
                        self.slab.release(node.value);
                        if node.span > 1 {
                            pass.replaced.push(node.id);
                        }
                    }
                }
                change.splices.clear();
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
            self.recut(cx, h, &change.splices, old_len, next, pass);
            std::mem::swap(change, next);
            next.splices.clear();
            h += 1;
        }
        for id in pass.replaced.drain(..) {
            self.cache.release(&mut self.slab, id);
        }
        cx.reuse_many(
            self.cache.len() as u64 - pass.fresh,
            self.cache.bytes() - pass.fresh_bytes,
        );
        (pass.fresh, pass.fresh_bytes) = (0, 0);
        self.scratch = scratch;
    }

    /// Applies `change` to level `h`, its last splice first so that every
    /// `at` still counts the level before the edit, taking each splice's
    /// nodes from the end of `change.nodes`. Removed nodes release their
    /// values; removed groups join `replaced`.
    fn apply(&mut self, h: usize, change: &mut Change, replaced: &mut Vec<u64>) {
        let level = &mut self.levels[h];
        let added = &mut change.nodes;
        for splice in change.splices.iter().rev() {
            for node in level.nodes.drain(splice.at..splice.at + splice.removed) {
                level.holdouts -= usize::from(!node.lone);
                self.slab.release(node.value);
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
        out: &mut Change,
        pass: &mut Pass,
    ) {
        let grouping = self.grouping;
        let level = &self.levels[h];
        let nodes = &level.nodes;
        let groups = &self.levels[h + 1].nodes;
        let (cache, slab) = (&mut self.cache, &mut self.slab);
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
                    let (id, value) = parent(cx, cache, slab, grouping, position, group, pass);
                    let span = u32::try_from(members).expect("a group fits its level");
                    added.push(Node::new(grouping, h + 1, id, value, span));
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
fn locate(
    groups: &VecDeque<Node>,
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

/// The identity and value of a group, the `position`-th of its level, via
/// the memo cache; the caller holds the value. A singleton promotes
/// unchanged, identity and value shared, so upper levels keep their
/// memoized structure.
fn parent<K, V, G: Grouping>(
    cx: &mut TreeCx<'_, K, V>,
    cache: &mut MemoCache,
    slab: &mut Slab<V>,
    grouping: G,
    position: usize,
    mut group: std::collections::vec_deque::Iter<'_, Node>,
    pass: &mut Pass,
) -> (u64, Handle) {
    if group.len() == 1 {
        let node = group.next().expect("a group has a member");
        return (node.id, slab.share(node.value));
    }
    let id = grouping.group_id(position as u64, group.clone().map(|node| node.id));
    let (value, fresh) = cache.acquire_or_put(slab, id, |slab| {
        let first = group.next().expect("a group has two members").value;
        let second = group.next().expect("a group has two members").value;
        let (mut acc, mut bytes) = cx.merge(Phase::Foreground, slab.get(first), slab.get(second));
        for node in group {
            (acc, bytes) = cx.merge(Phase::Foreground, &acc, slab.get(node.value));
        }
        slab.insert(acc, bytes)
    });
    if fresh {
        pass.fresh += 1;
        pass.fresh_bytes += slab.bytes_of(value);
    }
    (id, value)
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

        impl<V: Clone> Clone for $name<V> {
            fn clone(&self) -> Self {
                $name {
                    core: self.core.clone(),
                }
            }
        }

        impl<K, V> $crate::tree::WindowAggregator<K, V> for $name<V>
        where
            K: Send + 'static,
            V: Clone + Send + Sync + 'static,
        {
            fn boxed_clone(&self) -> Box<dyn $crate::tree::WindowAggregator<K, V>> {
                Box::new(self.clone())
            }

            fn rebuild(&mut self, cx: &mut $crate::tree::TreeCx<'_, K, V>, leaves: Vec<Option<V>>) {
                self.core.rebuild(cx, leaves);
            }

            fn advance(
                &mut self,
                cx: &mut $crate::tree::TreeCx<'_, K, V>,
                remove: usize,
                added: Vec<Option<V>>,
            ) -> Result<(), $crate::error::TreeError> {
                self.core.advance(cx, remove, added)
            }

            fn insert_at(
                &mut self,
                cx: &mut $crate::tree::TreeCx<'_, K, V>,
                at: usize,
                values: Vec<V>,
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

            fn root(&self) -> Option<&V> {
                self.core.root()
            }

            fn len(&self) -> usize {
                self.core.len()
            }

            fn memo_bytes(&self) -> u64 {
                self.core.memo_bytes()
            }

            #[cfg(feature = "oracle")]
            fn memo_layout(&self) -> $crate::tree::MemoLayout<'_, V> {
                self.core.memo_layout()
            }

            fn kind(&self) -> $crate::tree::TreeKind {
                $kind
            }
        }

        impl<K, V> $crate::tree::ContractionTree<K, V> for $name<V>
        where
            K: Send + 'static,
            V: Clone + Send + Sync + 'static,
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

    /// Caches `value` under `id` as a fresh group would be: held by its
    /// node and by the cache.
    fn put(cache: &mut MemoCache, slab: &mut Slab<u64>, id: u64, value: u64, bytes: u64) -> Handle {
        let (handle, fresh) = cache.acquire_or_put(slab, id, |slab| slab.insert(value, bytes));
        assert!(fresh, "{id} was not cached yet");
        handle
    }

    /// The value cached under `id`, as one more holder of it, if any.
    fn acquire(cache: &MemoCache, slab: &mut Slab<u64>, id: u64) -> Option<Handle> {
        cache.entries.get(&id).map(|&value| slab.share(value))
    }

    #[test]
    fn get_put_roundtrip() {
        let (mut cache, mut slab) = (MemoCache::new(), Slab::new());
        assert!(acquire(&cache, &mut slab, 1).is_none());
        assert_eq!(cache.len(), 0);
        put(&mut cache, &mut slab, 1, 10, 4);
        let hit = acquire(&cache, &mut slab, 1).unwrap();
        assert_eq!(*slab.get(hit), 10);
    }

    #[test]
    fn release_removes_an_entry_with_no_holder_left() {
        let (mut cache, mut slab) = (MemoCache::new(), Slab::new());
        let one = put(&mut cache, &mut slab, 1, 1, 1);
        let two = put(&mut cache, &mut slab, 2, 2, 1);
        // While a node still holds the value, the entry stays.
        cache.release(&mut slab, 2);
        assert_eq!(cache.len(), 2);
        slab.release(two);
        cache.release(&mut slab, 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(acquire(&cache, &mut slab, 1), Some(one));
        assert!(acquire(&cache, &mut slab, 2).is_none());
        // Releasing an absent identity changes nothing.
        cache.release(&mut slab, 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn footprint_sums_value_sizes() {
        let (mut cache, mut slab) = (MemoCache::new(), Slab::new());
        put(&mut cache, &mut slab, 1, 0, 3);
        put(&mut cache, &mut slab, 2, 0, 5);
        assert_eq!(cache.bytes(), 8);
    }

    #[test]
    fn bytes_follow_put_and_release() {
        let (mut cache, mut slab) = (MemoCache::new(), Slab::new());
        let one = put(&mut cache, &mut slab, 1, 0, 3);
        let two = put(&mut cache, &mut slab, 2, 0, 5);
        slab.release(two);
        cache.release(&mut slab, 2);
        assert_eq!(cache.bytes(), 3);
        slab.release(one);
        cache.release(&mut slab, 1);
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.len(), 0);
        assert_eq!(slab.bytes(), 0, "the last holder frees the value");
    }

    #[test]
    fn a_reacquired_entry_survives_its_release() {
        // An edit that re-creates a group it replaced acquires the entry
        // before it releases the replaced one: the entry stays.
        let (mut cache, mut slab) = (MemoCache::new(), Slab::new());
        let first = put(&mut cache, &mut slab, 1, 7, 1);
        slab.release(first);
        let again = acquire(&cache, &mut slab, 1).unwrap();
        assert_eq!(*slab.get(again), 7);
        cache.release(&mut slab, 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), 1);
        slab.release(again);
        cache.release(&mut slab, 1);
        assert_eq!(cache.len(), 0);
    }
}
