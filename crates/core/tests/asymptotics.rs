//! Empirical checks of the asymptotic claims in the paper (§3–§4 and the
//! companion analysis): per-slide combiner work must grow logarithmically
//! — not linearly — with the window for the self-adjusting trees, and
//! linearly for the strawman under alignment-shifting slides.

#![deny(clippy::cast_possible_truncation)]

use std::sync::atomic::{AtomicU64, Ordering};

use slider_core::{build_tree, Combiner, FnCombiner, TreeCx, TreeKind, UpdateStats};

fn leaves(range: std::ops::Range<u64>) -> Vec<Option<u64>> {
    range.map(Some).collect()
}

/// Average merges per single-leaf slide at window size `n`.
fn merges_per_slide(kind: TreeKind, n: u64) -> f64 {
    let combiner = FnCombiner::new(|_: &u8, a: &u64, b: &u64| a.wrapping_add(*b));
    let key = 0u8;
    let mut tree = build_tree::<u8, u64>(kind, usize::try_from(n).unwrap());
    let mut stats = UpdateStats::default();
    let mut cx = TreeCx::new(&combiner, &key, &mut stats);
    tree.rebuild(&mut cx, leaves(0..n));

    let rounds = 32u64;
    let mut total = 0u64;
    for i in 0..rounds {
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.advance(&mut cx, 1, leaves(n + i..n + i + 1)).unwrap();
        total += stats.foreground.merges;
    }
    total as f64 / rounds as f64
}

#[test]
fn folding_tree_slides_scale_logarithmically() {
    let small = merges_per_slide(TreeKind::Folding, 256);
    let large = merges_per_slide(TreeKind::Folding, 4096);
    // 16x the window must cost roughly +log2(16) = +4 levels, nowhere near
    // 16x the merges.
    assert!(
        large < small + 12.0,
        "folding: {small} merges at 256 leaves vs {large} at 4096 — not logarithmic"
    );
    assert!(large < 4.0 * small, "folding grew superlogarithmically");
}

#[test]
fn rotating_tree_slides_scale_logarithmically() {
    let small = merges_per_slide(TreeKind::Rotating, 256);
    let large = merges_per_slide(TreeKind::Rotating, 4096);
    assert!(
        large <= small + 5.0,
        "rotating: {small} at 256 vs {large} at 4096 — path must be log(buckets)"
    );
}

#[test]
fn randomized_tree_slides_scale_logarithmically() {
    let small = merges_per_slide(TreeKind::RandomizedFolding, 256);
    let large = merges_per_slide(TreeKind::RandomizedFolding, 4096);
    assert!(
        large < 3.0 * small,
        "randomized: {small} at 256 vs {large} at 4096 — expected O(log) growth"
    );
}

/// A sum that counts how often a tree asks it for a cost or a size.
#[derive(Default)]
struct CountingSum {
    calls: AtomicU64,
}

impl Combiner<u8, u64> for CountingSum {
    fn combine(&self, _key: &u8, a: &u64, b: &u64) -> u64 {
        a.wrapping_add(*b)
    }

    fn cost(&self, _key: &u8, _a: &u64, _b: &u64) -> u64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        1
    }

    fn value_bytes(&self, _key: &u8, _v: &u64) -> u64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        16
    }
}

/// Average `cost` and `value_bytes` calls per single-leaf slide of the
/// randomized tree at window size `n`.
fn randomized_combiner_calls_per_slide(n: u64) -> f64 {
    let combiner = CountingSum::default();
    let key = 0u8;
    let mut tree = build_tree::<u8, u64>(TreeKind::RandomizedFolding, 0);
    let mut stats = UpdateStats::default();
    let mut cx = TreeCx::new(&combiner, &key, &mut stats);
    tree.rebuild(&mut cx, leaves(0..n));

    let rounds = 32u64;
    let before = combiner.calls.load(Ordering::Relaxed);
    for i in 0..rounds {
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.advance(&mut cx, 1, leaves(n + i..n + i + 1)).unwrap();
    }
    (combiner.calls.load(Ordering::Relaxed) - before) as f64 / rounds as f64
}

#[test]
fn randomized_tree_slides_touch_logarithmically_many_nodes() {
    // Merge counts cannot see a slide that visits every memoized group
    // without merging it; the combiner calls a visit makes can. Reuse of
    // untouched groups must be metered from totals, not per group.
    let small = randomized_combiner_calls_per_slide(256);
    let large = randomized_combiner_calls_per_slide(4096);
    assert!(
        large < 3.0 * small,
        "randomized: {small} combiner calls per slide at 256 vs {large} at 4096 — \
         expected O(log) growth"
    );
}

#[test]
fn constant_time_aggregators_stay_flat_while_trees_grow() {
    // The O(1)-vs-O(log n) crossover the companion analysis predicts: the
    // twin-stack aggregators must show *flat* per-slide work across a 16x
    // window growth while the folding tree pays for its deeper root path.
    for kind in [TreeKind::Daba, TreeKind::TwoStack] {
        let small = merges_per_slide(kind, 256);
        let large = merges_per_slide(kind, 4096);
        assert!(
            (large - small).abs() <= 1.0,
            "{kind}: {small} merges at 256 leaves vs {large} at 4096 — not constant"
        );
    }
    let folding_small = merges_per_slide(TreeKind::Folding, 256);
    let daba_large = merges_per_slide(TreeKind::Daba, 4096);
    assert!(
        daba_large < folding_small,
        "daba at 4096 leaves ({daba_large}) should undercut folding at 256 ({folding_small})"
    );
}

#[test]
fn coalescing_appends_are_constant() {
    let combiner = FnCombiner::new(|_: &u8, a: &u64, b: &u64| a.wrapping_add(*b));
    let key = 0u8;
    for n in [256u64, 4096] {
        let mut tree = build_tree::<u8, u64>(TreeKind::Coalescing, 0);
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.rebuild(&mut cx, leaves(0..n));
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.advance(&mut cx, 0, leaves(n..n + 1)).unwrap();
        assert!(
            stats.foreground.merges <= 2,
            "append into {n}-leaf window cost {} merges",
            stats.foreground.merges
        );
    }
}

#[test]
fn strawman_slides_scale_linearly() {
    let small = merges_per_slide(TreeKind::Strawman, 256);
    let large = merges_per_slide(TreeKind::Strawman, 4096);
    // Front-removal shifts every position: the strawman recomputes ~n
    // merges per slide, so 16x the window is ~16x the merges.
    assert!(
        large > 8.0 * small,
        "strawman: {small} at 256 vs {large} at 4096 — expected linear growth"
    );
    assert!(
        large > 2048.0,
        "strawman should redo most of the 4096-leaf window"
    );
}

#[test]
fn initial_run_is_always_linear_with_n_minus_1_merges() {
    // Every tree performs exactly n-1 merges to aggregate n fresh leaves.
    let combiner = FnCombiner::new(|_: &u8, a: &u64, b: &u64| a.wrapping_add(*b));
    let key = 0u8;
    for kind in TreeKind::ALL {
        let mut tree = build_tree::<u8, u64>(kind, 777);
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.rebuild(&mut cx, leaves(0..777));
        assert_eq!(
            stats.foreground.merges, 776,
            "{kind}: initial run must do exactly n-1 merges"
        );
        assert_eq!(*tree.root().unwrap(), (0..777).sum::<u64>());
    }
}

#[test]
fn memo_footprint_is_linear_in_the_window() {
    // The number of memoized nodes (hence bytes) must be O(window), not
    // O(window log window): each tree stores ≤ 2n aggregates.
    let combiner = FnCombiner::new(|_: &u8, a: &u64, b: &u64| a.wrapping_add(*b));
    let key = 0u8;
    for kind in [
        TreeKind::Folding,
        TreeKind::Rotating,
        TreeKind::RandomizedFolding,
    ] {
        let n = 2048u64;
        let mut tree = build_tree::<u8, u64>(kind, usize::try_from(n).unwrap());
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.rebuild(&mut cx, leaves(0..n));
        let bytes = tree.memo_bytes();
        let per_value = 16;
        assert!(
            bytes <= 2 * n * per_value + per_value,
            "{kind}: footprint {bytes} exceeds 2n aggregates"
        );
        assert!(
            bytes >= n * per_value,
            "{kind}: footprint below the leaf count?"
        );
    }
}
