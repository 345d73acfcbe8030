//! Criterion micro-benchmarks of the window aggregators: the cost of a
//! single-leaf slide at various window sizes, per kind; a slide shaped like
//! the `serve_tenants` workload's (many short keyed windows, small slides
//! at both ends, a key-sized `value_bytes`); and the initial-construction
//! cost.
//!
//! Before each slide benchmark, a line `merges <label> <n> per slide`
//! gives the merges per slide of a fixed, untimed run of the same slides,
//! so that ns per slide divides into ns per merge.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slider_core::{
    build_tree, Combiner, FnCombiner, TreeCx, TreeKind, UpdateStats, WindowAggregator,
};

fn leaves(n: u64) -> Vec<Option<u64>> {
    (0..n).map(Some).collect()
}

/// Slides run untimed to count merges per slide.
const COUNTED_SLIDES: u64 = 4096;

fn bench_slides(c: &mut Criterion) {
    let combiner = FnCombiner::new(|_: &u8, a: &u64, b: &u64| a.wrapping_add(*b));
    let key = 0u8;
    let mut group = c.benchmark_group("single_leaf_slide");
    for &n in &[256u64, 1024, 4096] {
        for kind in [
            TreeKind::Strawman,
            TreeKind::Folding,
            TreeKind::RandomizedFolding,
            TreeKind::Rotating,
            TreeKind::TwoStack,
            TreeKind::Daba,
        ] {
            let fresh = || {
                let mut tree = build_tree::<u8, u64>(kind, n as usize);
                let mut stats = UpdateStats::default();
                let mut cx = TreeCx::new(&combiner, &key, &mut stats);
                tree.rebuild(&mut cx, leaves(n));
                tree
            };
            let slide = |tree: &mut Box<dyn WindowAggregator<u8, u64>>, next: u64| {
                let mut stats = UpdateStats::default();
                let mut cx = TreeCx::new(&combiner, &key, &mut stats);
                tree.advance(&mut cx, 1, vec![Some(next)]).unwrap();
                stats.total_merges()
            };
            let mut tree = fresh();
            let merges: u64 = (n..n + COUNTED_SLIDES)
                .map(|next| slide(&mut tree, next))
                .sum();
            println!(
                "merges single_leaf_slide/{}/{n} {:.2} per slide",
                kind.name(),
                merges as f64 / COUNTED_SLIDES as f64
            );
            group.bench_with_input(BenchmarkId::new(kind.name(), n), &n, |b, &n| {
                let mut tree = fresh();
                let mut next = n;
                b.iter(|| {
                    next += 1;
                    slide(&mut tree, next)
                });
            });
        }
        // Coalescing appends only.
        group.bench_with_input(BenchmarkId::new("coalescing-append", n), &n, |b, &n| {
            let mut tree = build_tree::<u8, u64>(TreeKind::Coalescing, 0);
            let mut stats = UpdateStats::default();
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            tree.rebuild(&mut cx, leaves(n));
            let mut next = n;
            b.iter(|| {
                let mut stats = UpdateStats::default();
                let mut cx = TreeCx::new(&combiner, &key, &mut stats);
                next += 1;
                tree.advance(&mut cx, 0, vec![Some(next)]).unwrap();
            });
        });
    }
    group.finish();
}

/// Word-count sums whose modeled size is the key's length plus 8 bytes,
/// like the HCT application's.
struct KeySized;

impl Combiner<String, u64> for KeySized {
    fn combine(&self, _key: &String, a: &u64, b: &u64) -> u64 {
        a.wrapping_add(*b)
    }

    fn value_bytes(&self, key: &String, _v: &u64) -> u64 {
        key.len() as u64 + 8
    }
}

/// Keys of the `serve_shaped_slide` group, and leaves per key at the start.
const SERVE_KEYS: usize = 64;
const SERVE_LEAVES: u64 = 50;

/// Many short keyed windows, as a `serve_tenants` tenant holds them: one
/// tree per key, each slid in turn by 0–2 leaves at each end. The nine
/// (remove, add) pairs cycle, offset per key, so every window stays within
/// a few leaves of its starting length.
struct ServeShaped {
    keys: Vec<String>,
    trees: Vec<Box<dyn WindowAggregator<String, u64>>>,
    step: usize,
    next: u64,
}

impl ServeShaped {
    fn new(kind: TreeKind) -> Self {
        let keys: Vec<String> = (0..SERVE_KEYS).map(|i| format!("term-{i:02}")).collect();
        let trees = keys
            .iter()
            .map(|key| {
                let mut tree = build_tree::<String, u64>(kind, 0);
                let mut stats = UpdateStats::default();
                let mut cx = TreeCx::new(&KeySized, key, &mut stats);
                tree.rebuild(&mut cx, leaves(SERVE_LEAVES));
                tree
            })
            .collect();
        ServeShaped {
            keys,
            trees,
            step: 0,
            next: SERVE_LEAVES,
        }
    }

    /// Slides the next key in turn; returns the merges it took.
    fn slide(&mut self) -> u64 {
        let k = self.step % SERVE_KEYS;
        let phase = self.step / SERVE_KEYS + k;
        self.step += 1;
        let (remove, add) = (phase % 3, phase / 3 % 3);
        let tree = &mut self.trees[k];
        let remove = remove.min(tree.len());
        let added = (0..add)
            .map(|_| {
                self.next += 1;
                Some(self.next)
            })
            .collect();
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&KeySized, &self.keys[k], &mut stats);
        tree.advance(&mut cx, remove, added).unwrap();
        stats.total_merges()
    }
}

fn bench_serve_shaped(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_shaped_slide");
    for kind in [
        TreeKind::Strawman,
        TreeKind::Folding,
        TreeKind::RandomizedFolding,
        TreeKind::Daba,
    ] {
        let mut counted = ServeShaped::new(kind);
        let merges: u64 = (0..COUNTED_SLIDES).map(|_| counted.slide()).sum();
        println!(
            "merges serve_shaped_slide/{} {:.2} per slide",
            kind.name(),
            merges as f64 / COUNTED_SLIDES as f64
        );
        group.bench_function(kind.name(), |b| {
            let mut shaped = ServeShaped::new(kind);
            b.iter(|| shaped.slide());
        });
    }
    group.finish();
}

fn bench_initial_construction(c: &mut Criterion) {
    let combiner = FnCombiner::new(|_: &u8, a: &u64, b: &u64| a.wrapping_add(*b));
    let key = 0u8;
    let mut group = c.benchmark_group("initial_construction_4096");
    for kind in TreeKind::ALL {
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                let mut tree = build_tree::<u8, u64>(kind, 4096);
                let mut stats = UpdateStats::default();
                let mut cx = TreeCx::new(&combiner, &key, &mut stats);
                tree.rebuild(&mut cx, leaves(4096));
                stats.foreground.merges
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_slides, bench_serve_shaped, bench_initial_construction
}
criterion_main!(benches);
