//! Allocation guard for the structures that own their values: once warm, a
//! single-leaf slide of the folding, strawman, randomized and rotating trees
//! and of the two twin stacks makes a bounded number of heap allocations,
//! whatever the window and however many merges the slide takes. A merge
//! stores its result in the tree's slab or in a twin stack's buffers, so it
//! allocates nothing. The rotating tree's slide is a one-bucket rotation.
//!
//! This file is a test binary of its own so that its counting global
//! allocator sees no other test. Each thread counts its own allocations,
//! so the harness's threads do not disturb the count either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use slider_core::{build_tree, FnCombiner, TreeCx, TreeKind, UpdateStats};

/// Heap allocations one warm single-leaf slide may make: occasional
/// growth of a level, of the memo cache's table, of the slab or of a twin
/// stack's buffer.
const BOUND: u64 = 4;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting allocations per thread.
struct Counting;

fn count_one() {
    // Never fails: the counter has a const initializer and no destructor.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The most allocations any of `measured` single-leaf slides made, after
/// `warm_up` unmeasured ones, over a window of `window` leaves; and the
/// most merges one of them took. The slide's own leaf and vector are built
/// outside the count.
fn worst_slide(kind: TreeKind, window: u64, warm_up: u64, measured: u64) -> (u64, u64) {
    let combiner = FnCombiner::new(|_: &u8, a: &u64, b: &u64| a.wrapping_add(*b));
    let key = 0u8;
    let mut tree = build_tree::<u8, u64>(kind, 0);
    let mut stats = UpdateStats::default();
    let mut cx = TreeCx::new(&combiner, &key, &mut stats);
    tree.rebuild(&mut cx, (0..window).map(Some).collect());
    let (mut most, mut merges) = (0, 0);
    for i in 0..warm_up + measured {
        let added = vec![Some(window + i)];
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let before = allocations();
        tree.advance(&mut cx, 1, added).unwrap();
        let made = allocations() - before;
        if i >= warm_up {
            most = most.max(made);
            merges = merges.max(stats.total_merges());
        }
    }
    let slid = warm_up + measured;
    let expected: u64 = (slid..slid + window).sum();
    assert_eq!(tree.root().copied(), Some(expected), "{kind} root");
    (most, merges)
}

#[test]
fn warm_single_leaf_slides_allocate_a_bounded_amount() {
    for kind in [
        TreeKind::Folding,
        TreeKind::Strawman,
        TreeKind::RandomizedFolding,
        TreeKind::Rotating,
        TreeKind::TwoStack,
        TreeKind::Daba,
    ] {
        for window in [64, 1024, 4096] {
            // The folding tree unfolds and folds once per `window` slides,
            // and a twin stack flips once per `window` slides; two cycles
            // grow every level or buffer to its steady capacity.
            let warm_up = match kind {
                TreeKind::Folding | TreeKind::TwoStack | TreeKind::Daba => 2 * window,
                _ => 32,
            };
            let (most, merges) = worst_slide(kind, window, warm_up, 64);
            assert!(
                most <= BOUND,
                "{kind} at {window} leaves: {most} allocations in one slide \
                 ({merges} merges at most)"
            );
        }
    }
}
