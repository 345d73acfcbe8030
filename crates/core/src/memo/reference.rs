//! The from-scratch re-contraction that the incremental [`MemoTree`] keeps
//! bit-identical to, as a test oracle: every edit re-contracts the whole
//! leaf sequence, probes the memo cache once per group, and keeps exactly
//! the groups this edit touched.
//!
//! [`MemoTree`]: super::MemoTree

use std::collections::{HashMap, VecDeque};

use super::Grouping;
use crate::error::TreeError;
use crate::hash::hash_one;
use crate::randomized::CoinFlip;
use crate::stats::Phase;
use crate::strawman::ByPosition;
use crate::tree::TreeCx;

#[derive(Clone, Copy)]
enum Rule {
    ByPosition(ByPosition),
    CoinFlip(CoinFlip),
}

impl Grouping for Rule {
    fn leaf_salt(self) -> u64 {
        match self {
            Rule::ByPosition(g) => g.leaf_salt(),
            Rule::CoinFlip(g) => g.leaf_salt(),
        }
    }

    fn by_position(self) -> bool {
        match self {
            Rule::ByPosition(g) => g.by_position(),
            Rule::CoinFlip(g) => g.by_position(),
        }
    }

    fn closes(self, id: u64, level: u64) -> bool {
        match self {
            Rule::ByPosition(g) => g.closes(id, level),
            Rule::CoinFlip(g) => g.closes(id, level),
        }
    }

    fn group_id(self, position: u64, ids: impl Iterator<Item = u64>) -> u64 {
        match self {
            Rule::ByPosition(g) => g.group_id(position, ids),
            Rule::CoinFlip(g) => g.group_id(position, ids),
        }
    }
}

/// A memo tree that re-contracts its whole window on every edit: the
/// oracle for [`crate::StrawmanTree`] and [`crate::RandomizedFoldingTree`].
/// Built with the same grouping and driven through the same history, it
/// must give the same roots, heights, [`crate::UpdateStats`], footprints
/// and cache sizes.
pub struct RecontractingTree<V> {
    leaves: VecDeque<(u64, V)>,
    /// Each group of the last edit: its aggregate and modeled bytes.
    cache: HashMap<u64, (V, u64)>,
    root: Option<V>,
    next_id: u64,
    height: usize,
    leaf_bytes: u64,
    rule: Rule,
}

impl<V: Clone> RecontractingTree<V> {
    fn with_rule(rule: Rule) -> Self {
        RecontractingTree {
            leaves: VecDeque::new(),
            cache: HashMap::new(),
            root: None,
            next_id: 0,
            height: 0,
            leaf_bytes: 0,
            rule,
        }
    }

    /// The oracle of [`crate::StrawmanTree::new`].
    pub fn strawman() -> Self {
        Self::with_rule(Rule::ByPosition(ByPosition))
    }

    /// The oracle of [`crate::RandomizedFoldingTree::with_seed`].
    pub fn randomized(seed: u64) -> Self {
        Self::with_rule(Rule::CoinFlip(CoinFlip { seed }))
    }

    /// The aggregate of the whole window.
    pub fn root(&self) -> Option<&V> {
        self.root.as_ref()
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Levels, leaves included; 0 when empty.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Modeled bytes of the leaves and the cached groups.
    pub fn memo_bytes(&self) -> u64 {
        self.cache.values().map(|(_, bytes)| bytes).sum::<u64>() + self.leaf_bytes
    }

    /// Number of cached groups.
    pub fn cached_groups(&self) -> usize {
        self.cache.len()
    }

    fn fresh_leaf<K>(&mut self, cx: &mut TreeCx<'_, K, V>, value: V) -> (u64, V) {
        let id = hash_one(self.next_id ^ self.rule.leaf_salt());
        self.next_id += 1;
        self.leaf_bytes += cx.value_bytes(&value);
        cx.note_added(1);
        (id, value)
    }

    /// Discards all state and builds over the present `leaves`.
    pub fn rebuild<K>(&mut self, cx: &mut TreeCx<'_, K, V>, leaves: Vec<Option<V>>) {
        self.leaves.clear();
        self.cache.clear();
        self.leaf_bytes = 0;
        for value in leaves.into_iter().flatten() {
            let leaf = self.fresh_leaf(cx, value);
            self.leaves.push_back(leaf);
        }
        self.recombine(cx);
    }

    /// Drops `remove` leaves from the front and appends the present `added`.
    ///
    /// # Errors
    ///
    /// [`TreeError::RemoveExceedsWindow`] if `remove > len()`.
    pub fn advance<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        remove: usize,
        added: Vec<Option<V>>,
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

    /// Splices `values` in so the first becomes leaf `at`.
    ///
    /// # Errors
    ///
    /// [`TreeError::SpliceOutOfRange`] if `at > len()`.
    pub fn insert_at<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        at: usize,
        values: Vec<V>,
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
    ///
    /// # Errors
    ///
    /// [`TreeError::SpliceOutOfRange`] if `at + count > len()`.
    pub fn evict_range<K>(
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
    pub fn set_leaves<K>(&mut self, cx: &mut TreeCx<'_, K, V>, leaves: Vec<(u64, V)>) {
        let before = self.leaves.len();
        let after = leaves.len();
        if after > before {
            cx.note_added((after - before) as u64);
        } else {
            cx.note_removed((before - after) as u64);
        }
        self.leaf_bytes = leaves.iter().map(|(_, v)| cx.value_bytes(v)).sum();
        self.leaves = leaves.into_iter().collect();
        self.recombine(cx);
    }

    /// Re-contracts the whole leaf sequence bottom-up, reusing memoized
    /// groups; the groups this edit did not touch leave the cache.
    fn recombine<K>(&mut self, cx: &mut TreeCx<'_, K, V>) {
        let mut touched = HashMap::new();
        let mut level: Vec<(u64, V)> = self.leaves.iter().cloned().collect();
        let rule = self.rule;
        let mut height = usize::from(!level.is_empty());
        let mut level_no = 0u64;
        while level.len() > 1 {
            let mut next = self.contract(cx, &mut touched, &level, |id, members| {
                if rule.by_position() {
                    members == 2
                } else {
                    rule.closes(id, level_no)
                }
            });
            if next.len() == level.len() {
                // Every node closed its own group, so the level did not
                // shrink; pair by position to make progress.
                next = self.contract(cx, &mut touched, &level, |_, members| members == 2);
            }
            level = next;
            level_no += 1;
            height += 1;
        }
        self.root = level.pop().map(|(_, v)| v);
        self.height = height;
        self.cache = touched;
    }

    /// Cuts one level into the groups `closes` delimits (the last group
    /// closes at the level's end) and returns their parents.
    fn contract<K>(
        &self,
        cx: &mut TreeCx<'_, K, V>,
        touched: &mut HashMap<u64, (V, u64)>,
        level: &[(u64, V)],
        closes: impl Fn(u64, usize) -> bool,
    ) -> Vec<(u64, V)> {
        let mut next = Vec::with_capacity(level.len() / 2 + 1);
        let mut start = 0;
        for (i, (id, _)) in level.iter().enumerate() {
            if closes(*id, i + 1 - start) || i + 1 == level.len() {
                let position = next.len() as u64;
                next.push(self.parent(cx, touched, position, &level[start..=i]));
                start = i + 1;
            }
        }
        next
    }

    /// The parent of a group via the cache; a singleton promotes unchanged.
    fn parent<K>(
        &self,
        cx: &mut TreeCx<'_, K, V>,
        touched: &mut HashMap<u64, (V, u64)>,
        position: u64,
        group: &[(u64, V)],
    ) -> (u64, V) {
        if let [(id, value)] = group {
            return (*id, value.clone());
        }
        let id = self
            .rule
            .group_id(position, group.iter().map(|(id, _)| *id));
        let hit = touched.get(&id).or_else(|| self.cache.get(&id));
        if let Some((value, bytes)) = hit.cloned() {
            touched.insert(id, (value.clone(), bytes));
            cx.reuse(&value);
            return (id, value);
        }
        let mut acc = group[0].1.clone();
        for (_, v) in &group[1..] {
            acc = cx.merge(Phase::Foreground, &acc, v).0;
        }
        touched.insert(id, (acc.clone(), cx.value_bytes(&acc)));
        (id, acc)
    }
}
