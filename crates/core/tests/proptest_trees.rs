//! Property-based tests: every contraction tree must agree with a naive
//! reference fold over arbitrary slide histories, and structural invariants
//! (height bounds, window length) must hold throughout.

#![deny(clippy::cast_possible_truncation)]

use std::collections::VecDeque;

use proptest::prelude::*;
use slider_core::{
    build_tree, CoalescingTree, Combiner, ContractionTree, FnCombiner, FoldingTree, MemoLayout,
    TreeCx, TreeError, TreeKind, UpdateStats, WindowAggregator,
};

/// One window slide: drop `remove` leading leaves (capped to the window),
/// append `add` values.
#[derive(Debug, Clone)]
struct Slide {
    remove: usize,
    add: Vec<u64>,
    preprocess: bool,
}

fn slide_strategy(max_remove: usize, max_add: usize) -> impl Strategy<Value = Slide> {
    (
        0..=max_remove,
        proptest::collection::vec(1u64..1_000, 0..=max_add),
        proptest::bool::ANY,
    )
        .prop_map(|(remove, add, preprocess)| Slide {
            remove,
            add,
            preprocess,
        })
}

fn sum_combiner() -> impl Combiner<u8, u64> {
    FnCombiner::new(|_: &u8, a: &u64, b: &u64| a.wrapping_add(*b))
}

fn leaves(values: &[u64]) -> Vec<Option<u64>> {
    values.iter().copied().map(Some).collect()
}

/// Applies a slide history to `kind` and checks the aggregate against a
/// reference `VecDeque` after every step.
fn check_variable_width(kind: TreeKind, initial: Vec<u64>, slides: Vec<Slide>) {
    let combiner = sum_combiner();
    let key = 0u8;
    let mut tree = build_tree::<u8, u64>(kind, 0);
    let mut reference: VecDeque<u64> = initial.iter().copied().collect();

    let mut stats = UpdateStats::default();
    let mut cx = TreeCx::new(&combiner, &key, &mut stats);
    tree.rebuild(&mut cx, leaves(&initial));

    for slide in slides {
        let remove = slide.remove.min(reference.len());
        for _ in 0..remove {
            reference.pop_front();
        }
        reference.extend(slide.add.iter().copied());

        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.advance(&mut cx, remove, leaves(&slide.add)).unwrap();
        if slide.preprocess {
            tree.preprocess(&mut cx);
        }

        let expected: u64 = reference.iter().fold(0, |a, b| a.wrapping_add(*b));
        let parts = tree.reduce_parts();
        let got: u64 = parts.iter().map(|v| **v).fold(0, |a, b| a.wrapping_add(b));
        if reference.is_empty() {
            assert!(parts.is_empty(), "{kind}: parts for an empty window");
        } else {
            assert_eq!(got, expected, "{kind}: aggregate mismatch");
        }
        assert_eq!(
            tree.len(),
            reference.len(),
            "{kind}: window length mismatch"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn folding_matches_reference(
        initial in proptest::collection::vec(1u64..1_000, 0..24),
        slides in proptest::collection::vec(slide_strategy(30, 8), 0..24),
    ) {
        check_variable_width(TreeKind::Folding, initial, slides);
    }

    #[test]
    fn randomized_matches_reference(
        initial in proptest::collection::vec(1u64..1_000, 0..24),
        slides in proptest::collection::vec(slide_strategy(30, 8), 0..24),
    ) {
        check_variable_width(TreeKind::RandomizedFolding, initial, slides);
    }

    #[test]
    fn strawman_matches_reference(
        initial in proptest::collection::vec(1u64..1_000, 0..24),
        slides in proptest::collection::vec(slide_strategy(30, 8), 0..24),
    ) {
        check_variable_width(TreeKind::Strawman, initial, slides);
    }

    #[test]
    fn twostack_matches_reference(
        initial in proptest::collection::vec(1u64..1_000, 0..24),
        slides in proptest::collection::vec(slide_strategy(30, 8), 0..24),
    ) {
        check_variable_width(TreeKind::TwoStack, initial, slides);
    }

    #[test]
    fn daba_matches_reference(
        initial in proptest::collection::vec(1u64..1_000, 0..24),
        slides in proptest::collection::vec(slide_strategy(30, 8), 0..24),
    ) {
        check_variable_width(TreeKind::Daba, initial, slides);
    }

    /// DABA and the two-stack aggregator must agree with the folding
    /// tree's window result on arbitrary in-order workloads — the
    /// constant-time layer is a drop-in replacement, not an approximation.
    #[test]
    fn constant_time_aggregators_equal_folding_tree(
        initial in proptest::collection::vec(1u64..1_000, 0..24),
        slides in proptest::collection::vec(slide_strategy(30, 8), 0..24),
    ) {
        let combiner = sum_combiner();
        let key = 0u8;
        let kinds = [
            TreeKind::Folding,
            TreeKind::Daba,
            TreeKind::TwoStack,
        ];
        let mut trees: Vec<_> = kinds
            .iter()
            .map(|&kind| build_tree::<u8, u64>(kind, 0))
            .collect();
        let mut window = initial.len();
        for tree in &mut trees {
            let mut stats = UpdateStats::default();
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            tree.rebuild(&mut cx, leaves(&initial));
        }
        for slide in &slides {
            let remove = slide.remove.min(window);
            window = window - remove + slide.add.len();
            let mut roots = Vec::new();
            for tree in &mut trees {
                let mut stats = UpdateStats::default();
                let mut cx = TreeCx::new(&combiner, &key, &mut stats);
                tree.advance(&mut cx, remove, leaves(&slide.add)).unwrap();
                roots.push(tree.root().copied());
            }
            for (kind, root) in kinds.iter().zip(&roots) {
                prop_assert_eq!(
                    root, &roots[0],
                    "{} disagrees with folding at window {}", kind, window
                );
            }
        }
    }

    /// Every kind that advertises native splices must agree with a naive
    /// reference deque over arbitrary interleavings of edge slides and
    /// interior splices — the disordered-stream analogue of the in-order
    /// reference checks above.
    #[test]
    fn splice_kinds_match_reference_under_mixed_ops(
        initial in proptest::collection::vec(1u64..1_000, 0..24),
        ops in proptest::collection::vec(
            (0usize..3, 0usize..24, proptest::collection::vec(1u64..1_000, 0..6)), 0..32),
    ) {
        for kind in TreeKind::ALL {
            if !kind.supports_splice() {
                continue;
            }
            let combiner = sum_combiner();
            let key = 0u8;
            let mut tree = build_tree::<u8, u64>(kind, 0);
            let mut reference: VecDeque<u64> = initial.iter().copied().collect();

            let mut stats = UpdateStats::default();
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            tree.rebuild(&mut cx, leaves(&initial));

            for (op, pos, values) in &ops {
                let mut stats = UpdateStats::default();
                let mut cx = TreeCx::new(&combiner, &key, &mut stats);
                match op {
                    0 => {
                        let remove = (*pos).min(reference.len());
                        for _ in 0..remove {
                            reference.pop_front();
                        }
                        reference.extend(values.iter().copied());
                        tree.advance(&mut cx, remove, leaves(values)).unwrap();
                    }
                    1 => {
                        let at = (*pos).min(reference.len());
                        for (j, v) in values.iter().enumerate() {
                            reference.insert(at + j, *v);
                        }
                        tree.insert_at(&mut cx, at, values.clone()).unwrap();
                    }
                    _ => {
                        let at = (*pos).min(reference.len());
                        let count = values.len().min(reference.len() - at);
                        reference.drain(at..at + count);
                        tree.evict_range(&mut cx, at, count).unwrap();
                    }
                }
                let expected: u64 = reference.iter().fold(0, |a, b| a.wrapping_add(*b));
                match tree.root() {
                    Some(root) => prop_assert_eq!(*root, expected, "{} root", kind),
                    None => prop_assert_eq!(expected, 0, "{} empty root", kind),
                }
                prop_assert_eq!(tree.len(), reference.len(), "{} len", kind);
            }
        }
    }

    #[test]
    fn coalescing_matches_reference(
        initial in proptest::collection::vec(1u64..1_000, 0..16),
        slides in proptest::collection::vec(slide_strategy(0, 6), 0..16),
    ) {
        // remove is always 0 for append-only windows.
        check_variable_width(TreeKind::Coalescing, initial, slides);
    }

    #[test]
    fn rotating_matches_reference(
        capacity in 1usize..12,
        fills in proptest::collection::vec(proptest::option::of(1u64..1_000), 0..12),
        rotations in proptest::collection::vec(
            (proptest::option::of(1u64..1_000), proptest::bool::ANY), 0..40),
    ) {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut tree = build_tree::<u8, u64>(TreeKind::Rotating, capacity);
        // Reference: a slot array of the most recent `capacity` buckets.
        let mut slots: VecDeque<Option<u64>> = VecDeque::new();

        let fills: Vec<Option<u64>> = fills.into_iter().take(capacity).collect();
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.rebuild(&mut cx, fills.clone());
        slots.extend(fills.iter().copied());

        for (value, preprocess) in rotations {
            let mut stats = UpdateStats::default();
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            if preprocess {
                tree.preprocess(&mut cx);
            }
            if slots.len() == capacity {
                slots.pop_front();
                tree.advance(&mut cx, 1, vec![value]).unwrap();
            } else {
                tree.advance(&mut cx, 0, vec![value]).unwrap();
            }
            slots.push_back(value);

            let expected: Option<u64> = slots.iter().flatten().copied()
                .reduce(|a, b| a.wrapping_add(b));
            let got = tree.root().copied();
            prop_assert_eq!(got, expected);
            prop_assert_eq!(tree.len(), slots.iter().flatten().count());
        }
    }

    #[test]
    fn folding_height_is_logarithmic_in_capacity(
        initial in proptest::collection::vec(1u64..100, 1..200),
        slides in proptest::collection::vec(slide_strategy(16, 16), 0..16),
    ) {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut tree = slider_core::FoldingTree::new();
        let mut live = initial.len();

        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        WindowAggregator::<u8, u64>::rebuild(&mut tree, &mut cx, leaves(&initial));
        let mut max_ever = live;
        for slide in slides {
            let remove = slide.remove.min(live);
            live = live - remove + slide.add.len();
            max_ever = max_ever.max(live);
            let mut stats = UpdateStats::default();
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            tree.advance(&mut cx, remove, leaves(&slide.add)).unwrap();
        }
        if live > 0 {
            let height = ContractionTree::<u8, u64>::height(&tree);
            // The capacity never exceeds 2 × the largest window ever held
            // (each unfold doubles only when the previous capacity is full),
            // so height ≤ log2(2 · next_pow2(max_ever)) + 1.
            let bound = (2 * max_ever.next_power_of_two()).trailing_zeros() as usize + 2;
            prop_assert!(
                height <= bound,
                "height {} exceeds bound {} (max window {})", height, bound, max_ever
            );
        }
    }

    #[test]
    fn randomized_work_is_sublinear_on_small_slides(
        seed in 0u64..1_000,
    ) {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut tree = slider_core::RandomizedFoldingTree::with_seed(seed);
        let window: Vec<u64> = (0..512).collect();
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        WindowAggregator::<u8, u64>::rebuild(&mut tree, &mut cx, leaves(&window));

        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.advance(&mut cx, 1, leaves(&[7_777])).unwrap();
        // A single-leaf slide must not redo anywhere near the whole window.
        prop_assert!(
            stats.foreground.merges < 150,
            "seed {}: {} merges for a 1-leaf slide over 512 leaves",
            seed,
            stats.foreground.merges
        );
    }
}

/// Associativity sanity for a non-trivial combiner: the trees must produce
/// identical results no matter how they internally parenthesize.
#[test]
fn all_trees_agree_with_each_other() {
    let combiner = FnCombiner::new(|_: &u8, a: &Vec<u64>, b: &Vec<u64>| {
        // Sorted-merge combiner (associative AND commutative).
        let mut out = a.clone();
        out.extend(b.iter().copied());
        out.sort_unstable();
        out
    });
    let key = 0u8;
    let window: Vec<Vec<u64>> = (0..33).map(|i| vec![i * 3, i * 3 + 1]).collect();

    let mut roots = Vec::new();
    for kind in [
        TreeKind::Strawman,
        TreeKind::Folding,
        TreeKind::RandomizedFolding,
    ] {
        let mut tree = build_tree::<u8, Vec<u64>>(kind, 0);
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.rebuild(&mut cx, window.iter().cloned().map(Some).collect());
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.advance(&mut cx, 5, vec![Some(vec![1000, 1001])])
            .unwrap();
        roots.push((kind, tree.root().cloned()));
    }
    let first = roots[0].1.clone();
    for (kind, root) in &roots {
        assert_eq!(root, &first, "{kind} disagrees");
    }
}

// ---------------------------------------------------------------------------
// Footprint oracle: the maintained `memo_bytes` against a from-scratch count
// ---------------------------------------------------------------------------

/// A posting-list-like value: its modeled size grows with its length, so
/// counting the wrong one of two held values changes the total.
type List = Vec<u64>;

/// Sorted merge of two lists (associative and commutative, so the rotating
/// tree accepts it), sized like the join's posting lists.
struct ListCombiner;

impl Combiner<u8, List> for ListCombiner {
    fn combine(&self, _key: &u8, a: &List, b: &List) -> List {
        let mut out = a.clone();
        out.extend(b);
        out.sort_unstable();
        out
    }

    fn value_bytes(&self, _key: &u8, v: &List) -> u64 {
        8 + 8 * u64::try_from(v.len()).expect("list length fits u64")
    }
}

fn list_bytes(v: &List) -> u64 {
    ListCombiner.value_bytes(&0, v)
}

/// Recounts a footprint from every memoized value, per the layout's
/// sharing rules.
fn recount(layout: MemoLayout<List>) -> u64 {
    match layout {
        MemoLayout::Each(held) => held.iter().map(|v| list_bytes(v)).sum(),
        MemoLayout::Levels { levels, prepared } => {
            let mut bytes = prepared.map_or(0, list_bytes);
            for (h, level) in levels.iter().enumerate() {
                for (i, node) in level.iter().enumerate() {
                    let Some((slot, v)) = node else { continue };
                    // A pass-through names its child's slab slot.
                    let shared = h > 0
                        && [2 * i, 2 * i + 1].into_iter().any(|c| {
                            matches!(levels[h - 1].get(c), Some(Some((child, _))) if child == slot)
                        });
                    if !shared {
                        bytes += list_bytes(v);
                    }
                }
            }
            bytes
        }
    }
}

/// One step of a history driven through the footprint oracle. Lengths are
/// list lengths; `None` is a slot in which the key is absent.
#[derive(Debug, Clone)]
enum Step {
    Advance {
        remove: usize,
        add: Vec<Option<usize>>,
    },
    AdvanceAbsent,
    InsertAt {
        at: usize,
        add: Vec<usize>,
    },
    EvictRange {
        at: usize,
        count: usize,
    },
    Rebuild {
        leaves: Vec<Option<usize>>,
    },
    Preprocess,
    Clone,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let advance = || {
        (
            0usize..6,
            proptest::collection::vec(proptest::option::of(0usize..5), 0..5),
        )
            .prop_map(|(remove, add)| Step::Advance { remove, add })
    };
    prop_oneof![
        advance(),
        advance(),
        advance(),
        Just(Step::AdvanceAbsent),
        (0usize..24, proptest::collection::vec(0usize..5, 0..4))
            .prop_map(|(at, add)| Step::InsertAt { at, add }),
        (0usize..24, 0usize..5).prop_map(|(at, count)| Step::EvictRange { at, count }),
        proptest::collection::vec(proptest::option::of(0usize..5), 0..12)
            .prop_map(|leaves| Step::Rebuild { leaves }),
        Just(Step::Preprocess),
        Just(Step::Clone),
    ]
}

/// Drives `tree` through `steps`, keeping each step inside the structure's
/// window discipline, and checks after every step that the maintained
/// footprint equals the from-scratch recount.
fn check_footprint_history(
    name: &str,
    mut tree: Box<dyn WindowAggregator<u8, List>>,
    mut capacity: usize,
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let combiner = ListCombiner;
    let key = 0u8;
    let kind = tree.kind();
    let mut next = 0u64;
    let mut leaf = |len: usize| {
        next += 1;
        vec![next; len]
    };
    // Rotating only: slots filled since the last rebuild.
    let mut filled = 0usize;
    for (i, step) in steps.iter().enumerate() {
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        match step {
            Step::Advance { remove, add } => {
                let mut added: Vec<Option<List>> =
                    add.iter().map(|len| len.map(&mut leaf)).collect();
                let remove = match kind {
                    TreeKind::Rotating if filled < capacity => {
                        added.truncate(capacity - filled);
                        filled += added.len();
                        0
                    }
                    TreeKind::Rotating => added.len(),
                    TreeKind::Coalescing => 0,
                    _ => (*remove).min(tree.len()),
                };
                prop_assert_eq!(tree.advance(&mut cx, remove, added), Ok(()), "{}", name);
            }
            Step::AdvanceAbsent => {
                // Full rotating trees refuse when the victim slot is present.
                if tree.advance_absent(&mut cx).is_ok() && kind == TreeKind::Rotating {
                    filled = (filled + 1).min(capacity);
                }
            }
            Step::InsertAt { at, add } => {
                let at = (*at).min(tree.len());
                let values = add.iter().map(|&len| leaf(len)).collect();
                let spliced = tree.insert_at(&mut cx, at, values);
                prop_assert!(
                    spliced.is_ok() == kind.supports_splice(),
                    "{}: insert_at gave {:?}",
                    name,
                    spliced
                );
            }
            Step::EvictRange { at, count } => {
                let at = (*at).min(tree.len());
                let count = (*count).min(tree.len() - at);
                let spliced = tree.evict_range(&mut cx, at, count);
                match spliced {
                    Ok(()) => prop_assert!(kind.supports_splice(), "{}", name),
                    Err(e) => prop_assert_eq!(
                        e,
                        TreeError::SpliceUnsupported { kind: kind.name() },
                        "{}",
                        name
                    ),
                }
            }
            Step::Rebuild { leaves } => {
                let leaves: Vec<Option<List>> =
                    leaves.iter().map(|len| len.map(&mut leaf)).collect();
                capacity = capacity.max(leaves.len());
                filled = leaves.len();
                tree.rebuild(&mut cx, leaves);
            }
            Step::Preprocess => tree.preprocess(&mut cx),
            Step::Clone => {
                let copy = tree.boxed_clone();
                prop_assert_eq!(copy.memo_bytes(), tree.memo_bytes(), "{}: clone", name);
                tree = copy;
            }
        }
        prop_assert_eq!(
            tree.memo_bytes(),
            recount(tree.memo_layout()),
            "{}: footprint after step {} ({:?})",
            name,
            i,
            step
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every kind keeps `memo_bytes` equal to a from-scratch recount of its
    /// memoized allocations after every operation, including declined
    /// splices, background pre-processing, rebuilds and clones that carry
    /// the history on. The folding tree also runs with a rebuild factor and
    /// the coalescing tree in split mode.
    #[test]
    fn maintained_footprint_matches_recount(
        capacity in 1usize..8,
        factor in 2u32..6,
        initial in proptest::collection::vec(proptest::option::of(0usize..5), 0..10),
        steps in proptest::collection::vec(step_strategy(), 0..48),
    ) {
        let mut trees: Vec<(String, Box<dyn WindowAggregator<u8, List>>)> = TreeKind::ALL
            .iter()
            .map(|&kind| (kind.name().to_string(), build_tree::<u8, List>(kind, capacity)))
            .collect();
        trees.push((
            format!("folding (rebuild factor {factor})"),
            Box::new(FoldingTree::with_rebuild_factor(factor)),
        ));
        trees.push(("coalescing (split)".into(), Box::new(CoalescingTree::with_split_processing())));
        for (name, tree) in trees {
            let steps: Vec<Step> = std::iter::once(Step::Rebuild { leaves: initial.clone() })
                .chain(steps.iter().cloned())
                .collect();
            check_footprint_history(&name, tree, capacity, &steps)?;
        }
    }

    /// The strawman's pipeline entry point (`set_leaves`) keeps the
    /// footprint exact too.
    #[test]
    fn strawman_pipeline_updates_keep_footprint(
        initial in proptest::collection::vec(0usize..5, 1..12),
        edits in proptest::collection::vec(proptest::collection::vec(0usize..5, 0..12), 0..24),
    ) {
        let combiner = ListCombiner;
        let key = 0u8;
        let mut next = 0u64;
        let mut leaf = |len: usize| {
            next += 1;
            vec![next; len]
        };
        let mut tree = slider_core::StrawmanTree::new();
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let leaves = initial.iter().map(|&len| (0, leaf(len))).collect();
        tree.set_leaves(&mut cx, leaves);
        for lens in edits {
            let mut stats = UpdateStats::default();
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            // Keep some identities so part of the memo cache survives.
            let leaves = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| (i as u64 % 3, leaf(len)))
                .collect();
            tree.set_leaves(&mut cx, leaves);
            let tree: &dyn WindowAggregator<u8, List> = &tree;
            prop_assert_eq!(tree.memo_bytes(), recount(tree.memo_layout()));
        }
    }
}

/// The twin stacks hold every value once, and their footprint moves in four
/// places where a value changes role: a segment's newest leaf becomes its
/// own suffix aggregate, a one-leaf back gains a running total on its
/// second leaf, freezing hands the back's total over as the mid's, and a
/// flip drops the frozen total. Balanced slides over small windows pass
/// through all of them (one-leaf windows freeze one-leaf backs on every
/// slide), and insert floods followed by bulk evictions force whole flips.
#[test]
fn twin_stack_footprints_count_each_held_value_once() {
    for kind in [TreeKind::TwoStack, TreeKind::Daba] {
        for width in 1..=5usize {
            let mut steps = vec![Step::Rebuild {
                leaves: (0..width).map(|i| Some(i % 4 + 1)).collect(),
            }];
            for i in 0..4 * width {
                steps.push(Step::Advance {
                    remove: 1,
                    add: vec![Some(i % 3 + 1)],
                });
            }
            steps.push(Step::Advance {
                remove: 0,
                add: vec![Some(2), Some(4), Some(1)],
            });
            steps.push(Step::Advance {
                remove: width + 1,
                add: vec![Some(3)],
            });
            steps.push(Step::Clone);
            steps.push(Step::Advance {
                remove: usize::MAX,
                add: Vec::new(),
            });
            let tree = build_tree::<u8, List>(kind, 0);
            check_footprint_history(&format!("{kind} width {width}"), tree, 0, &steps)
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Differential: the memo trees against their from-scratch re-contraction
// ---------------------------------------------------------------------------

/// A sum whose cost and modeled size vary with the operands, so that a
/// metered count or byte taken from the wrong node shows.
struct SizedSum;

impl Combiner<u8, u64> for SizedSum {
    fn combine(&self, _key: &u8, a: &u64, b: &u64) -> u64 {
        a.wrapping_add(*b)
    }

    fn cost(&self, _key: &u8, a: &u64, b: &u64) -> u64 {
        1 + (a ^ b) % 3
    }

    fn value_bytes(&self, _key: &u8, v: &u64) -> u64 {
        8 + v % 17
    }
}

/// One edit of a differential history. Positions and counts are clamped
/// to the window when applied.
#[derive(Debug, Clone)]
enum MemoOp {
    Advance {
        remove: usize,
        add: usize,
    },
    /// Slides down to `to` leaves, so the upper levels thin out and the
    /// position-pairing valve turns on and off.
    ShrinkTo {
        to: usize,
    },
    InsertAt {
        at: usize,
        add: usize,
    },
    EvictRange {
        at: usize,
        count: usize,
    },
    Rebuild {
        len: usize,
    },
    /// Strawman only: `len` caller-identified leaves whose identities are
    /// their positions plus `offset`, except leaf `renamed`, which gets a
    /// fresh identity.
    SetLeaves {
        len: usize,
        offset: u64,
        renamed: usize,
    },
}

fn memo_op_strategy() -> impl Strategy<Value = MemoOp> {
    prop_oneof![
        (0usize..6, 0usize..6).prop_map(|(remove, add)| MemoOp::Advance { remove, add }),
        (0usize..6, 0usize..6).prop_map(|(remove, add)| MemoOp::Advance { remove, add }),
        (0usize..300, 0usize..80).prop_map(|(remove, add)| MemoOp::Advance { remove, add }),
        (1usize..=8).prop_map(|to| MemoOp::ShrinkTo { to }),
        (0usize..300, 1usize..6).prop_map(|(at, add)| MemoOp::InsertAt { at, add }),
        (0usize..300, 0usize..12).prop_map(|(at, count)| MemoOp::EvictRange { at, count }),
        (0usize..300).prop_map(|len| MemoOp::Rebuild { len }),
        (0usize..300, 0u64..4, 0usize..300).prop_map(|(len, offset, renamed)| {
            MemoOp::SetLeaves {
                len,
                offset,
                renamed,
            }
        }),
    ]
}

/// The tree under test: one of the two memo tree kinds.
enum MemoUnderTest {
    Strawman(slider_core::StrawmanTree<u64>),
    Randomized(slider_core::RandomizedFoldingTree<u64>),
}

impl MemoUnderTest {
    fn tree(&mut self) -> &mut dyn ContractionTree<u8, u64> {
        match self {
            MemoUnderTest::Strawman(tree) => tree,
            MemoUnderTest::Randomized(tree) => tree,
        }
    }

    /// Cached groups: every memoized allocation but the leaves.
    fn cached_groups(&mut self) -> usize {
        let tree = self.tree();
        let MemoLayout::Each(held) = tree.memo_layout() else {
            unreachable!("memo trees list each allocation");
        };
        held.len() - tree.len()
    }
}

/// Drives `tree` and its re-contracting `oracle` through `ops` and checks
/// after every op that the two agree on the outcome, root, height, every
/// `UpdateStats` field, footprint and cache size.
fn check_against_recontraction(
    mut tree: MemoUnderTest,
    mut oracle: slider_core::RecontractingTree<u64>,
    initial: usize,
    ops: &[MemoOp],
) -> Result<(), TestCaseError> {
    let combiner = SizedSum;
    let key = 0u8;
    let mut next = 0u64;
    let mut values = |n: usize| -> Vec<u64> {
        (0..n)
            .map(|_| {
                next += 1;
                next.wrapping_mul(0x9e37_79b9)
            })
            .collect()
    };
    let mut renames = 1u64 << 40;
    let ops = std::iter::once(MemoOp::Rebuild { len: initial }).chain(ops.iter().cloned());
    for (i, op) in ops.enumerate() {
        let len = oracle.len();
        let (mut got, mut want) = (UpdateStats::default(), UpdateStats::default());
        let mut cx = TreeCx::new(&combiner, &key, &mut got);
        let mut ox = TreeCx::new(&combiner, &key, &mut want);
        let (a, b) = match &op {
            MemoOp::Advance { remove, add } => {
                let added = leaves(&values(*add));
                let remove = if *remove > 250 {
                    *remove
                } else {
                    (*remove).min(len)
                };
                (
                    tree.tree().advance(&mut cx, remove, added.clone()),
                    oracle.advance(&mut ox, remove, added),
                )
            }
            MemoOp::ShrinkTo { to } => {
                let remove = len.saturating_sub(*to);
                (
                    tree.tree().advance(&mut cx, remove, Vec::new()),
                    oracle.advance(&mut ox, remove, Vec::new()),
                )
            }
            MemoOp::InsertAt { at, add } => {
                let at = (*at).min(len);
                let added = values(*add);
                (
                    tree.tree().insert_at(&mut cx, at, added.clone()),
                    oracle.insert_at(&mut ox, at, added),
                )
            }
            MemoOp::EvictRange { at, count } => {
                let at = (*at).min(len);
                let count = (*count).min(len - at);
                (
                    tree.tree().evict_range(&mut cx, at, count),
                    oracle.evict_range(&mut ox, at, count),
                )
            }
            MemoOp::Rebuild { len } => {
                let added = leaves(&values(*len));
                tree.tree().rebuild(&mut cx, added.clone());
                oracle.rebuild(&mut ox, added);
                (Ok(()), Ok(()))
            }
            MemoOp::SetLeaves {
                len,
                offset,
                renamed,
            } => {
                let MemoUnderTest::Strawman(straw) = &mut tree else {
                    continue;
                };
                renames += 1;
                let leaves: Vec<(u64, u64)> = values(*len)
                    .into_iter()
                    .enumerate()
                    .map(|(j, v)| {
                        let id = if j == *renamed {
                            renames
                        } else {
                            j as u64 + offset
                        };
                        (id, v)
                    })
                    .collect();
                straw.set_leaves(&mut cx, leaves.clone());
                oracle.set_leaves(&mut ox, leaves);
                (Ok(()), Ok(()))
            }
        };
        let at = format!("op {i} ({op:?})");
        prop_assert_eq!(a, b, "outcome after {}", at);
        prop_assert_eq!(tree.tree().root(), oracle.root(), "root after {}", at);
        prop_assert_eq!(tree.tree().height(), oracle.height(), "height after {}", at);
        prop_assert_eq!(got, want, "stats after {}", at);
        prop_assert_eq!(tree.tree().len(), oracle.len(), "len after {}", at);
        prop_assert_eq!(
            tree.tree().memo_bytes(),
            oracle.memo_bytes(),
            "footprint after {}",
            at
        );
        prop_assert_eq!(
            tree.cached_groups(),
            oracle.cached_groups(),
            "cache after {}",
            at
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The strawman and the randomized tree, which keep their levels
    /// between edits and re-cut only around each change, meter exactly what
    /// re-contracting the whole window on every edit meters.
    #[test]
    fn memo_trees_match_their_recontraction(
        seed in prop_oneof![Just(0x0ddb_a11d_5eed_u64), 0u64..6],
        initial in 0usize..300,
        ops in proptest::collection::vec(memo_op_strategy(), 0..24),
    ) {
        check_against_recontraction(
            MemoUnderTest::Strawman(slider_core::StrawmanTree::new()),
            slider_core::RecontractingTree::strawman(),
            initial,
            &ops,
        )?;
        check_against_recontraction(
            MemoUnderTest::Randomized(slider_core::RandomizedFoldingTree::with_seed(seed)),
            slider_core::RecontractingTree::randomized(seed),
            initial,
            &ops,
        )?;
    }
}
