//! Property tests: on arbitrary two-sided streams — arbitrary gaps, keys,
//! values, window widths, slide cadences, partition counts, and
//! stragglers past the lateness bound — the incrementally maintained join
//! view equals the brute-force cross product after every poll, each
//! side's index lists every key's window records in window order, and the
//! recompute twin lands on the same final view.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;

use slider_join::{IndexRecord, IndexSeq, JoinApp, JoinConfig, JoinMode, JoinedJob};
use slider_mapreduce::{EngineShared, EventTimeConfig, Stamped};

/// Left records are `(key, payload)`, right records are bare u32s keyed
/// by modulus; a sentinel payload on either side is unjoinable, so `None`
/// keys are exercised too.
#[derive(Debug, Clone, Copy, Default)]
struct PropJoin {
    keys: u32,
}

const UNJOINABLE: u32 = u32::MAX;

impl JoinApp for PropJoin {
    type Key = u32;
    type Left = (u32, u32);
    type Right = u32;

    fn left_key(&self, left: &Self::Left) -> Option<u32> {
        (left.1 != UNJOINABLE).then_some(left.0 % self.keys)
    }

    fn right_key(&self, right: &Self::Right) -> Option<u32> {
        (*right != UNJOINABLE).then_some(*right % self.keys)
    }

    fn pair_weight(&self, key: &u32, left: &Self::Left, right: &Self::Right) -> u64 {
        u64::from(key + left.1 % 7 + right % 5 + 1)
    }
}

#[derive(Debug, Clone)]
struct Plan {
    keys: u32,
    epoch_len: u64,
    window_epochs: usize,
    lateness: u64,
    partitions: usize,
    poll_every: usize,
    /// (time-gap, key-ish, payload, lag) per record; payload 3 ⇒
    /// unjoinable, lag below [`LATE_LAGS`] ⇒ a straggler (see [`arrivals`]).
    left: Vec<(u64, u32, u8, u64)>,
    right: Vec<(u64, u32, u8, u64)>,
}

/// Lags `0..LATE_LAGS` of the `0..12` drawn make a quarter of the records
/// stragglers.
const LATE_LAGS: u64 = 3;

fn plan() -> impl Strategy<Value = Plan> {
    (
        1u32..5,
        1u64..8,
        1usize..5,
        0u64..6,
        1usize..5,
        1usize..6,
        vec((0u64..4, 0u32..40, 0u8..8, 0u64..12), 0..60),
        vec((0u64..4, 0u32..40, 0u8..8, 0u64..12), 0..60),
    )
        .prop_map(
            |(keys, epoch_len, window_epochs, lateness, partitions, poll_every, left, right)| {
                Plan {
                    keys,
                    epoch_len,
                    window_epochs,
                    lateness,
                    partitions,
                    poll_every,
                    left,
                    right,
                }
            },
        )
}

/// Stamps records with event times that never decrease, then orders them
/// by arrival. A straggler arrives `1 + lag % window_epochs` epochs past
/// the lateness bound — at most a window — so once its epoch has closed it
/// splices into the window's interior, behind on-time records of its
/// epoch that it may precede in `(time, seq)`.
fn arrivals<R>(
    plan: &Plan,
    records: &[(u64, u32, u8, u64)],
    make: impl Fn(u32, u8) -> R,
) -> Vec<Stamped<R>> {
    let window_epochs = plan.window_epochs as u64;
    let mut time = 0u64;
    let mut stamped: Vec<(u64, Stamped<R>)> = records
        .iter()
        .enumerate()
        .map(|(i, &(gap, k, p, lag))| {
            time += gap;
            let delay = if lag < LATE_LAGS {
                plan.lateness + plan.epoch_len * (1 + lag % window_epochs)
            } else {
                0
            };
            (time + delay, Stamped::new(time, i as u64, make(k, p)))
        })
        .collect();
    stamped.sort_by_key(|(arrival, s)| (*arrival, s.seq));
    stamped.into_iter().map(|(_, s)| s).collect()
}

fn run(plan: &Plan, mode: JoinMode) -> (String, String) {
    let app = PropJoin { keys: plan.keys };
    let event = EventTimeConfig {
        epoch_len: plan.epoch_len,
        records_per_split: 4,
        window_epochs: Some(plan.window_epochs),
        lateness: plan.lateness,
    };
    let shared = EngineShared::builder().threads(2).build();
    let config = JoinConfig::new(event)
        .with_partitions(plan.partitions)
        .with_mode(mode);
    let mut job = JoinedJob::new(app, config, &shared).expect("job builds");

    let left = arrivals(plan, &plan.left, |k, p| {
        (k, if p == 3 { UNJOINABLE } else { u32::from(p) })
    });
    let right = arrivals(
        plan,
        &plan.right,
        |k, p| if p == 3 { UNJOINABLE } else { k },
    );

    let (mut li, mut ri) = (0usize, 0usize);
    while li < left.len() || ri < right.len() {
        let lend = (li + plan.poll_every).min(left.len());
        job.ingest_left(left[li..lend].iter().cloned());
        li = lend;
        let rend = (ri + plan.poll_every).min(right.len());
        job.ingest_right(right[ri..rend].iter().cloned());
        ri = rend;
        job.poll().expect("poll");
        prop_assert_eq_views(&job);
        assert_indexes_in_window_order(&app, &job);
    }
    job.close_all().expect("close_all");
    prop_assert_eq_views(&job);
    assert_indexes_in_window_order(&app, &job);
    (format!("{:?}", job.view()), format!("{:?}", job.stats()))
}

/// Plain assert so failures shrink through proptest's panic hook.
fn prop_assert_eq_views(job: &JoinedJob<PropJoin>) {
    assert_eq!(
        job.view(),
        &job.reference_view(),
        "incremental view diverged from the brute-force cross product"
    );
}

/// Each key's records of `window`, in window order.
fn window_by_key<V: Clone>(
    window: Vec<IndexRecord<V>>,
    key: impl Fn(&V) -> Option<u32>,
) -> BTreeMap<u32, Vec<IndexRecord<V>>> {
    let mut by_key: BTreeMap<u32, Vec<IndexRecord<V>>> = BTreeMap::new();
    for record in window {
        if let Some(k) = key(&record.value) {
            by_key.entry(k).or_default().push(record);
        }
    }
    by_key
}

fn index_by_key<V: Clone>(
    index: &BTreeMap<u32, IndexSeq<V>>,
) -> BTreeMap<u32, Vec<IndexRecord<V>>> {
    index
        .iter()
        .map(|(k, seq)| (*k, seq.iter().cloned().collect()))
        .collect()
}

/// Each side's index holds exactly each key's window records, in window
/// order: the order the probes pair them in.
fn assert_indexes_in_window_order(app: &PropJoin, job: &JoinedJob<PropJoin>) {
    assert_eq!(
        index_by_key(job.left_index()),
        window_by_key(job.left_window(), |v| app.left_key(v)),
        "left index out of window order"
    );
    assert_eq!(
        index_by_key(job.right_index()),
        window_by_key(job.right_window(), |v| app.right_key(v)),
        "right index out of window order"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_join_equals_brute_force(plan in plan()) {
        let (inc_view, _) = run(&plan, JoinMode::Incremental);
        let (rec_view, _) = run(&plan, JoinMode::Recompute);
        prop_assert_eq!(inc_view, rec_view, "recompute twin disagreed");
    }

    #[test]
    fn join_runs_are_deterministic(plan in plan()) {
        let a = run(&plan, JoinMode::Incremental);
        let b = run(&plan, JoinMode::Incremental);
        prop_assert_eq!(a, b, "identical drives must be bit-identical");
    }
}
