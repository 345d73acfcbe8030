//! Property test for the recovery invariant: for ANY workload and ANY
//! fault plan, a windowed job's outputs are bit-identical to its
//! fault-free twin after every slide — faults may only cost extra
//! work/time, never correctness.

use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;
use slider_dcache::CacheConfig;
use slider_mapreduce::{ExecMode, JobConfig, JobFaultPlan, MapReduceApp, Split, WindowedJob};

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

/// Every mode with memoized state to lose, plus the vanilla baseline.
fn all_modes() -> Vec<ExecMode> {
    vec![
        ExecMode::Recompute,
        ExecMode::Strawman,
        ExecMode::slider_folding(),
        ExecMode::slider_randomized(),
        ExecMode::slider_rotating(false),
        ExecMode::slider_rotating(true),
    ]
}

const WINDOW: usize = 6;
const PARTITIONS: usize = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fixed-width discipline (so rotating trees join in): the window
    /// always holds `WINDOW` splits, every slide replaces `k` of them.
    /// A seeded random fault plan plus explicitly scripted memo losses
    /// run against a fault-free twin in lockstep.
    #[test]
    fn any_fault_plan_preserves_outputs(
        initial in proptest::collection::vec(split_strategy(), WINDOW..=WINDOW),
        slides in proptest::collection::vec(
            (1usize..=2, split_strategy(), split_strategy()), 1..5),
        seed in 0u64..1u64 << 48,
        extra_loss_run in 1u64..5,
        extra_loss_part in 0usize..PARTITIONS,
    ) {
        let runs = slides.len() as u64 + 1;
        let plan = JobFaultPlan::seeded(seed, runs, 8, PARTITIONS, PARTITIONS)
            .lose_memo(extra_loss_run, vec![extra_loss_part]);
        for mode in all_modes() {
            let base = || {
                JobConfig::new(mode)
                    .with_partitions(PARTITIONS)
                    .with_buckets(WINDOW, 1)
                    .with_cache(CacheConfig::paper_defaults(PARTITIONS))
            };
            let mut faulty = WindowedJob::new(WordCount, base().with_faults(plan.clone()))
                .unwrap();
            let mut twin = WindowedJob::new(WordCount, base()).unwrap();

            let mut window: VecDeque<Vec<String>> = initial.iter().cloned().collect();
            let mut next_id = 0u64;
            let mut mk = |splits: &[Vec<String>]| {
                let out: Vec<_> = splits
                    .iter()
                    .enumerate()
                    .map(|(i, lines)| Split::from_records(next_id + i as u64, lines.clone()))
                    .collect();
                next_id += splits.len() as u64;
                out
            };

            faulty.initial_run(mk(&initial)).unwrap();
            twin.initial_run(mk(&initial)).unwrap();
            prop_assert_eq!(faulty.output(), twin.output(), "{}: initial", mode);
            prop_assert_eq!(faulty.output(), &reference(&window), "{}: initial ref", mode);

            for (k, a, b) in &slides {
                let added: Vec<Vec<String>> =
                    [a.clone(), b.clone()][..*k].to_vec();
                for _ in 0..*k {
                    window.pop_front();
                }
                window.extend(added.iter().cloned());
                let stats = faulty.advance(*k, mk(&added)).unwrap();
                twin.advance(*k, mk(&added)).unwrap();
                prop_assert_eq!(
                    faulty.output(), twin.output(),
                    "{}: outputs diverged under plan {:?}", mode, plan
                );
                prop_assert_eq!(faulty.output(), &reference(&window), "{}: ref", mode);
                if mode.tree_kind().is_none() {
                    prop_assert!(
                        stats.recovery.is_zero(),
                        "{}: vanilla has no state, got {:?} under plan {:?}",
                        mode, stats.recovery, plan
                    );
                }
            }
        }
    }
}
