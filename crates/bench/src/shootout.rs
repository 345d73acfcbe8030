//! Per-operation aggregation-structure shootout.
//!
//! Drives every window-capable [`TreeKind`] through the *same* slide
//! schedule at the core [`slider_core::WindowAggregator`] layer — no cluster, no
//! shuffle, just the aggregation structure — and reports modeled work,
//! merges and simulated seconds *per leaf replaced*, over a grid of
//! window sizes × slide fractions. This is the head-to-head the companion
//! analyses predict (cf. arXiv 1604.00794 §6, arXiv 2009.13768 §7): the
//! O(log n) contraction trees' per-update cost grows with the window
//! while the twin-stack family stays flat, with the strawman's linear
//! rescan as the ceiling.
//!
//! The measurement is pure integer work accounting ([`UpdateStats`]), so
//! the numbers are bit-identical across reruns, machines and thread
//! counts; `BENCH_shootout.json` can therefore be diffed byte-for-byte
//! and a checked-in baseline gates regressions in CI.

#![deny(clippy::cast_possible_truncation)]

use std::sync::Arc;

use slider_core::{build_tree, FnCombiner, TreeCx, TreeKind, UpdateStats};

use crate::report::{fmt_f64, BenchJson, Table};

/// Structures raced by the shootout: every [`TreeKind`] that supports a
/// genuine sliding window (front eviction + back insertion). The
/// append-only coalescing tree is excluded — it rejects evictions by
/// design, so it has no point on these curves.
pub const SHOOTOUT_KINDS: [TreeKind; 7] = [
    TreeKind::Strawman,
    TreeKind::Folding,
    TreeKind::RandomizedFolding,
    TreeKind::Rotating,
    TreeKind::TwoStack,
    TreeKind::Daba,
    TreeKind::DabaLite,
];

/// Window sizes (leaves) swept by the shootout.
pub const WINDOWS: [u64; 4] = [64, 256, 1024, 4096];

/// Slide sizes as a percentage of the window (≥ 1 leaf per slide).
/// `0` denotes a single-leaf slide — the pure per-update asymptotic,
/// where the O(1)-vs-O(log n) separation shows undiluted (batch slides
/// amortize a tree's root path over the whole batch).
pub const SLIDE_PCTS: [u64; 3] = [0, 1, 10];

/// Work units per simulated second — the same constant the cluster
/// simulation uses to turn modeled work into modeled time.
pub const WORK_UNITS_PER_SECOND: f64 = 1e6;

/// Slides measured per grid point (after the untimed initial fill).
const ROUNDS: u64 = 24;

/// One structure's cost at one (window, slide) grid point. All `per_leaf`
/// figures are normalized by the number of leaves replaced, so points
/// with different slide sizes are directly comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShootoutPoint {
    /// The structure measured.
    pub kind: TreeKind,
    /// Window size in leaves.
    pub window: u64,
    /// Slide size as a percentage of the window.
    pub slide_pct: u64,
    /// Leaves evicted+appended per slide (`max(1, window·pct/100)`).
    pub slide_leaves: u64,
    /// Combiner invocations per leaf replaced.
    pub merges_per_leaf: f64,
    /// Modeled work units per leaf replaced.
    pub work_per_leaf: f64,
    /// Simulated seconds per leaf replaced (`work / 1e6`).
    pub seconds_per_leaf: f64,
}

/// Measures one structure at one grid point: fills a `window`-leaf
/// window, then drives `ROUNDS` (24) steady slides of `max(1, window·pct/100)`
/// leaves, metering foreground work only (the initial fill is untimed —
/// every structure pays the same n−1 merges there).
pub fn measure(kind: TreeKind, window: u64, slide_pct: u64) -> ShootoutPoint {
    let combiner = FnCombiner::new(|_: &u8, a: &u64, b: &u64| a.wrapping_add(*b));
    let key = 0u8;
    let leaves = |r: std::ops::Range<u64>| -> Vec<Option<Arc<u64>>> {
        r.map(|v| Some(Arc::new(v))).collect()
    };
    let slide_leaves = (window * slide_pct / 100).max(1);

    let mut tree = build_tree::<u8, u64>(kind, usize::try_from(window).unwrap());
    let mut fill = UpdateStats::default();
    let mut cx = TreeCx::new(&combiner, &key, &mut fill);
    tree.rebuild(&mut cx, leaves(0..window));

    let mut total = UpdateStats::default();
    let mut next = window;
    for _ in 0..ROUNDS {
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.advance(
            &mut cx,
            usize::try_from(slide_leaves).unwrap(),
            leaves(next..next + slide_leaves),
        )
        .expect("steady slide stays within the window");
        next += slide_leaves;
        total.merge_from(&stats);
    }

    let denom = (ROUNDS * slide_leaves) as f64;
    let work_per_leaf = total.foreground.work as f64 / denom;
    ShootoutPoint {
        kind,
        window,
        slide_pct,
        slide_leaves,
        merges_per_leaf: total.foreground.merges as f64 / denom,
        work_per_leaf,
        seconds_per_leaf: work_per_leaf / WORK_UNITS_PER_SECOND,
    }
}

/// Runs the full grid: every kind × window × slide fraction, in a fixed
/// deterministic order (kind-major, then window, then slide).
pub fn run_shootout() -> Vec<ShootoutPoint> {
    let mut points = Vec::new();
    for kind in SHOOTOUT_KINDS {
        for window in WINDOWS {
            for pct in SLIDE_PCTS {
                points.push(measure(kind, window, pct));
            }
        }
    }
    points
}

/// The flat metric key prefix for one grid point, e.g. `daba.w4096.p10`.
pub fn point_key(kind: TreeKind, window: u64, slide_pct: u64) -> String {
    format!("{kind}.w{window}.p{slide_pct}")
}

/// Builds the `BENCH_shootout.json` report: three metrics per grid point
/// (`<key>.merges_per_leaf`, `<key>.work_per_leaf`, `<key>.seconds_per_leaf`)
/// in deterministic grid order.
pub fn shootout_report(points: &[ShootoutPoint]) -> BenchJson {
    let mut report = BenchJson::new("shootout");
    for p in points {
        let key = point_key(p.kind, p.window, p.slide_pct);
        report.metric(format!("{key}.merges_per_leaf"), p.merges_per_leaf);
        report.metric(format!("{key}.work_per_leaf"), p.work_per_leaf);
        report.metric(format!("{key}.seconds_per_leaf"), p.seconds_per_leaf);
    }
    report
}

/// Renders the per-structure cost table the bench target and the
/// `shootout_viewer` example print.
pub fn shootout_table(points: &[ShootoutPoint]) -> Table {
    let mut table = Table::new(&[
        "structure",
        "window",
        "slide%",
        "leaves/slide",
        "merges/leaf",
        "work/leaf",
        "sim s/leaf",
    ]);
    for p in points {
        table.row(vec![
            p.kind.to_string(),
            p.window.to_string(),
            p.slide_pct.to_string(),
            p.slide_leaves.to_string(),
            fmt_f64(p.merges_per_leaf),
            fmt_f64(p.work_per_leaf),
            format!("{:.3e}", p.seconds_per_leaf),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_complete_and_ordered() {
        let points = run_shootout();
        assert_eq!(
            points.len(),
            SHOOTOUT_KINDS.len() * WINDOWS.len() * SLIDE_PCTS.len()
        );
        // Deterministic: a second sweep reproduces every number exactly.
        assert_eq!(points, run_shootout());
    }

    #[test]
    fn crossover_shows_in_the_grid() {
        // The headline claim: DABA's per-leaf cost is flat across a 64x
        // window growth while the folding tree's grows, and at the largest
        // window the constant-time structures undercut every O(log n) tree.
        let at = |kind, window| measure(kind, window, 0).merges_per_leaf;
        let daba_small = at(TreeKind::Daba, WINDOWS[0]);
        let daba_large = at(TreeKind::Daba, WINDOWS[3]);
        assert!(
            (daba_large - daba_small).abs() <= 1.0,
            "daba must stay flat: {daba_small} vs {daba_large}"
        );
        let folding_small = at(TreeKind::Folding, WINDOWS[0]);
        let folding_large = at(TreeKind::Folding, WINDOWS[3]);
        assert!(
            folding_large > folding_small,
            "folding's root path must deepen with the window"
        );
        assert!(
            daba_large < folding_large,
            "daba ({daba_large}) must undercut folding ({folding_large}) at w=4096"
        );
        let strawman_large = at(TreeKind::Strawman, WINDOWS[3]);
        assert!(
            folding_large < strawman_large / 8.0,
            "folding must sit far below the strawman's linear rescan"
        );
    }

    #[test]
    fn report_and_table_cover_every_point() {
        let points: Vec<ShootoutPoint> =
            SHOOTOUT_KINDS.iter().map(|&k| measure(k, 64, 10)).collect();
        let rendered = shootout_report(&points).render();
        for p in &points {
            assert!(rendered.contains(&point_key(p.kind, p.window, p.slide_pct)));
        }
        assert_eq!(
            shootout_table(&points).render().lines().count(),
            points.len() + 2
        );
    }
}
