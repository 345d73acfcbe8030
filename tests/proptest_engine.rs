//! Property test across the whole stack: for arbitrary slide histories,
//! every incremental execution mode must agree with a plain in-memory
//! reference model of windowed word count. Interior splices are checked
//! with an order-sensitive app, whose outputs show a leaf spliced at the
//! wrong window position.

use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;
use slider_mapreduce::{ExecMode, JobConfig, MapReduceApp, Split, WindowedJob};

#[derive(Clone)]
struct WordCount;
impl MapReduceApp for WordCount {
    type Input = String;
    type Key = String;
    type Value = u64;
    type Output = u64;
    fn map(&self, line: &String, emit: &mut dyn FnMut(String, u64)) {
        for word in line.split_whitespace() {
            emit(word.to_string(), 1);
        }
    }
    fn combine(&self, _k: &String, a: &u64, b: &u64) -> u64 {
        a + b
    }
    fn reduce(&self, _k: &String, parts: &[&u64]) -> u64 {
        parts.iter().copied().sum()
    }
}

fn reference(window: &VecDeque<Vec<String>>) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for split in window {
        for line in split {
            for word in line.split_whitespace() {
                *out.entry(word.to_string()).or_insert(0) += 1;
            }
        }
    }
    out
}

/// A split is 1–3 lines of 0–4 words over a 6-word vocabulary.
fn split_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        proptest::collection::vec(0u8..6, 0..4).prop_map(|ws| {
            ws.iter()
                .map(|w| format!("w{w}"))
                .collect::<Vec<_>>()
                .join(" ")
        }),
        1..3,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_modes_agree_with_reference(
        initial in proptest::collection::vec(split_strategy(), 1..6),
        slides in proptest::collection::vec(
            (0usize..4, proptest::collection::vec(split_strategy(), 0..3)), 0..6),
    ) {
        for mode in [
            ExecMode::Recompute,
            ExecMode::Strawman,
            ExecMode::slider_folding(),
            ExecMode::slider_randomized(),
        ] {
            let mut job = WindowedJob::new(
                WordCount,
                JobConfig::new(mode).with_partitions(2),
            ).unwrap();
            let mut window: VecDeque<Vec<String>> = initial.iter().cloned().collect();
            let mut next_id = 0u64;
            let mut mk = |splits: &[Vec<String>]| {
                let out: Vec<_> = splits
                    .iter()
                    .enumerate()
                    .map(|(i, lines)| {
                        slider_mapreduce::Split::from_records(next_id + i as u64, lines.clone())
                    })
                    .collect();
                next_id += splits.len() as u64;
                out
            };

            job.initial_run(mk(&initial)).unwrap();
            prop_assert_eq!(job.output(), &reference(&window), "{}: initial", mode);

            for (remove, added) in &slides {
                let remove = (*remove).min(window.len());
                for _ in 0..remove {
                    window.pop_front();
                }
                window.extend(added.iter().cloned());
                job.advance(remove, mk(added)).unwrap();
                prop_assert_eq!(job.output(), &reference(&window), "{}: slide", mode);
            }
        }
    }

    #[test]
    fn append_only_agrees_with_reference(
        initial in proptest::collection::vec(split_strategy(), 0..5),
        appends in proptest::collection::vec(
            proptest::collection::vec(split_strategy(), 0..3), 0..5),
        split in proptest::bool::ANY,
    ) {
        let mut job = WindowedJob::new(
            WordCount,
            JobConfig::new(ExecMode::slider_coalescing(split)).with_partitions(2),
        ).unwrap();
        let mut window: VecDeque<Vec<String>> = initial.iter().cloned().collect();
        let mut next_id = 0u64;
        let mut mk = |splits: &[Vec<String>]| {
            let out: Vec<_> = splits
                .iter()
                .enumerate()
                .map(|(i, lines)| {
                    slider_mapreduce::Split::from_records(next_id + i as u64, lines.clone())
                })
                .collect();
            next_id += splits.len() as u64;
            out
        };
        job.initial_run(mk(&initial)).unwrap();
        for added in &appends {
            window.extend(added.iter().cloned());
            job.advance(0, mk(added)).unwrap();
            prop_assert_eq!(job.output(), &reference(&window));
        }
    }

    #[test]
    fn fixed_width_rotation_agrees_with_reference(
        buckets in 2usize..5,
        fills in proptest::collection::vec(split_strategy(), 0..4),
        rotations in proptest::collection::vec(split_strategy(), 0..8),
    ) {
        let mut job = WindowedJob::new(
            WordCount,
            JobConfig::new(ExecMode::slider_rotating(true))
                .with_partitions(2)
                .with_buckets(buckets, 1),
        ).unwrap();
        let fills: Vec<_> = fills.into_iter().take(buckets).collect();
        let mut window: VecDeque<Vec<String>> = fills.iter().cloned().collect();
        let mut next_id = 0u64;
        let mut mk = |splits: &[Vec<String>]| {
            let out: Vec<_> = splits
                .iter()
                .enumerate()
                .map(|(i, lines)| {
                    slider_mapreduce::Split::from_records(next_id + i as u64, lines.clone())
                })
                .collect();
            next_id += splits.len() as u64;
            out
        };
        job.initial_run(mk(&fills)).unwrap();
        for split in &rotations {
            let added = mk(std::slice::from_ref(split));
            if window.len() == buckets {
                window.pop_front();
                job.advance(1, added).unwrap();
            } else {
                job.advance(0, added).unwrap();
            }
            window.push_back(split.clone());
            prop_assert_eq!(job.output(), &reference(&window));
        }
    }
}

/// Lists, per word, the tags of the records it appeared in. The combine
/// concatenates, so an output lists its key's occurrences in window order.
struct Occurrences;
impl MapReduceApp for Occurrences {
    type Input = Record;
    type Key = String;
    type Value = Vec<u32>;
    type Output = Vec<u32>;
    fn map(&self, (tag, line): &Record, emit: &mut dyn FnMut(String, Vec<u32>)) {
        for word in line.split_whitespace() {
            emit(word.to_string(), vec![*tag]);
        }
    }
    fn combine(&self, _k: &String, a: &Vec<u32>, b: &Vec<u32>) -> Vec<u32> {
        a.iter().chain(b).copied().collect()
    }
    fn is_commutative(&self) -> bool {
        false
    }
    fn reduce(&self, _k: &String, parts: &[&Vec<u32>]) -> Vec<u32> {
        parts.iter().flat_map(|part| part.iter().copied()).collect()
    }
}

/// One edit of the window. Splices sit `offset` splits from the front or
/// from the back of the window, so that both ends are near some splice.
#[derive(Debug, Clone)]
enum Op {
    /// Drops the oldest `remove` splits (at most the window) and appends.
    Slide(usize, Vec<Vec<String>>),
    Insert {
        from_back: bool,
        offset: usize,
        added: Vec<Vec<String>>,
    },
    Evict {
        from_back: bool,
        offset: usize,
        count: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..3, proptest::collection::vec(split_strategy(), 0..3))
            .prop_map(|(remove, added)| Op::Slide(remove, added)),
        (
            proptest::bool::ANY,
            0usize..3,
            proptest::collection::vec(split_strategy(), 1..3)
        )
            .prop_map(|(from_back, offset, added)| Op::Insert {
                from_back,
                offset,
                added
            }),
        (proptest::bool::ANY, 0usize..3, 1usize..3).prop_map(|(from_back, offset, count)| {
            Op::Evict {
                from_back,
                offset,
                count,
            }
        }),
    ]
}

/// A record and its tag.
type Record = (u32, String);

/// The window as the reference sees it: tagged records, split by split.
#[derive(Default)]
struct TaggedWindow {
    splits: VecDeque<Vec<Record>>,
    next_tag: u32,
    next_id: u64,
}

impl TaggedWindow {
    /// Tags `lines` with fresh record tags and split ids.
    fn make(&mut self, lines: &[Vec<String>]) -> Vec<Split<Record>> {
        lines
            .iter()
            .map(|split| {
                let tagged = split
                    .iter()
                    .map(|line| {
                        self.next_tag += 1;
                        (self.next_tag, line.clone())
                    })
                    .collect();
                self.next_id += 1;
                Split::from_records(self.next_id - 1, tagged)
            })
            .collect()
    }

    fn reference(&self) -> BTreeMap<String, Vec<u32>> {
        let mut out: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        for (tag, line) in self.splits.iter().flatten() {
            for word in line.split_whitespace() {
                out.entry(word.to_string()).or_default().push(*tag);
            }
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn splices_keep_window_order_in_every_mode(
        initial in proptest::collection::vec(split_strategy(), 4..12),
        ops in proptest::collection::vec(op_strategy(), 1..8),
    ) {
        let append_only = [ExecMode::slider_coalescing(false), ExecMode::slider_coalescing(true)];
        for mode in [
            ExecMode::Recompute,
            ExecMode::Strawman,
            ExecMode::slider_folding(),
            ExecMode::slider_randomized(),
            ExecMode::slider_two_stack(),
            ExecMode::slider_daba(),
        ]
        .into_iter()
        .chain(append_only)
        {
            let evicts = !append_only.contains(&mode);
            let mut job = WindowedJob::new(
                Occurrences,
                JobConfig::new(mode).with_partitions(2),
            ).unwrap();
            let mut window = TaggedWindow::default();
            let splits = window.make(&initial);
            window.splits.extend(splits.iter().map(|split| split.records().to_vec()));
            job.initial_run(splits).unwrap();
            prop_assert_eq!(job.output(), &window.reference(), "{}: initial", mode);

            for op in &ops {
                let len = window.splits.len();
                match op {
                    Op::Slide(remove, added) => {
                        let remove = if evicts { (*remove).min(len) } else { 0 };
                        let splits = window.make(added);
                        window.splits.drain(..remove);
                        window.splits.extend(splits.iter().map(|split| split.records().to_vec()));
                        job.advance(remove, splits).unwrap();
                    }
                    Op::Insert { from_back, offset, added } => {
                        let at = if *from_back { len - (*offset).min(len) } else { (*offset).min(len) };
                        let splits = window.make(added);
                        for (i, split) in splits.iter().enumerate() {
                            window.splits.insert(at + i, split.records().to_vec());
                        }
                        job.insert_splits_at(at, splits).unwrap();
                    }
                    Op::Evict { from_back, offset, count } => {
                        if !evicts || len == 0 {
                            continue;
                        }
                        let count = (*count).min(len);
                        let offset = (*offset).min(len - count);
                        let at = if *from_back { len - count - offset } else { offset };
                        window.splits.drain(at..at + count);
                        job.evict_splits_range(at, count).unwrap();
                    }
                }
                prop_assert_eq!(job.output(), &window.reference(), "{}: {:?}", mode, op);
            }
        }
    }
}
