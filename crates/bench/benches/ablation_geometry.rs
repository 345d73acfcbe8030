//! Ablation study (beyond the paper's figures): how Slider's design knobs
//! affect incremental update cost.
//!
//! 1. **Bucket width** (`w` in §4.1): a fixed 200-split window divided into
//!    windows/w buckets. Narrow buckets mean more rotations per slide;
//!    wide buckets mean a shallower tree but more bucket-formation merges.
//! 2. **Folding rebuild factor** (§3.2's simple rebalancing strategy):
//!    after a drastic shrink, how aggressively should the folding tree be
//!    rebuilt from scratch?

use slider_bench::{banner, hct_spec, run_slide_with, Table, WindowKind};
use slider_core::{
    ContractionTree, FnCombiner, FoldingTree, TreeCx, UpdateStats, WindowAggregator,
};
use slider_mapreduce::ExecMode;

fn main() {
    banner("Ablation 1: rotating-tree bucket width (200-split window, 10% slide)");
    let spec = hct_spec();
    let mut table = Table::new(&[
        "bucket width (splits)",
        "buckets",
        "update work",
        "contraction merges",
    ]);
    for width in [1usize, 2, 5, 10, 20] {
        let n = spec.initial.len();
        let m = run_slide_with(
            &spec,
            ExecMode::slider_rotating(false),
            WindowKind::Fixed,
            10,
            |c| {
                // Override the driver's default geometry.
                c.with_buckets(n / width, width)
            },
        );
        table.row(vec![
            width.to_string(),
            (n / width).to_string(),
            m.work.to_string(),
            m.stats.work.contraction_fg.merges.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "expected: very narrow buckets pay log-depth path updates per split;\n\
         very wide buckets pay large bucket-formation folds; the sweet spot\n\
         sits in between (the paper slides by whole buckets, w = slide size)."
    );

    banner("Ablation 2: folding-tree rebuild factor under a drastic shrink");
    let combiner = FnCombiner::new(|_: &u8, a: &u64, b: &u64| a.wrapping_add(*b));
    let key = 0u8;
    let mut table = Table::new(&[
        "rebuild factor",
        "height after shrink",
        "shrink-run merges",
        "10 follow-up merges",
    ]);
    for factor in [None, Some(16u32), Some(8), Some(4)] {
        let mut tree = match factor {
            None => FoldingTree::new(),
            Some(f) => FoldingTree::with_rebuild_factor(f),
        };
        let n = 4096u64;
        let mk = |r: std::ops::Range<u64>| -> Vec<Option<u64>> { r.map(Some).collect() };
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        WindowAggregator::<u8, u64>::rebuild(&mut tree, &mut cx, mk(0..n));
        let mut next = n;
        // Steady slide, then shrink to 2% of the window.
        tree.advance(&mut cx, (n / 10) as usize, mk(next..next + n / 10))
            .unwrap();
        next += n / 10;
        let mut shrink_stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut shrink_stats);
        let live = WindowAggregator::<u8, u64>::len(&tree);
        tree.advance(&mut cx, live - 80, mk(next..next + 2))
            .unwrap();
        next += 2;

        let mut follow = 0u64;
        for _ in 0..10 {
            let mut stats = UpdateStats::default();
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            tree.advance(&mut cx, 2, mk(next..next + 2)).unwrap();
            next += 2;
            follow += stats.foreground.merges;
        }
        table.row(vec![
            factor.map_or("none".to_string(), |f| f.to_string()),
            ContractionTree::<u8, u64>::height(&tree).to_string(),
            shrink_stats.foreground.merges.to_string(),
            follow.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "expected: without a rebuild factor the tree stays tall after the\n\
         shrink and follow-up updates pay for it; aggressive factors pay a\n\
         one-time rebuild (shrink-run merges ≈ live window) to restore the\n\
         optimal height — §3.2's trade-off."
    );

    banner("Ablation 3: strawman memo-cache hit behaviour by slide parity");
    // Slides of even length preserve pairing parity only under
    // content-keyed memoization; Slider's task-granularity strawman misses
    // either way. This quantifies the §2.1 claim directly.
    let mut table = Table::new(&["slide", "fresh merges", "reused nodes"]);
    for remove in [1usize, 2, 3] {
        let mut tree = slider_core::StrawmanTree::new();
        let mk = |r: std::ops::Range<u64>| -> Vec<Option<u64>> { r.map(Some).collect() };
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        WindowAggregator::<u8, u64>::rebuild(&mut tree, &mut cx, mk(0..512));
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.advance(&mut cx, remove, mk(1000..1000 + remove as u64))
            .unwrap();
        table.row(vec![
            format!("-{remove}/+{remove}"),
            stats.foreground.merges.to_string(),
            stats.reused.to_string(),
        ]);
    }
    print!("{}", table.render());
}
