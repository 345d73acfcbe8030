//! slider-join integration: the incremental windowed join must be
//! indistinguishable — in outputs AND stats — from brute force, from its
//! recompute twin, across thread counts, under disorder within the
//! lateness bound, and under seeded index-shard faults.

use slider_apps::FollowPostJoin;
use slider_join::{JoinConfig, JoinMode, JoinStats, JoinedJob};
use slider_mapreduce::{
    stable_hash, EngineShared, EventTimeConfig, JobFaultPlan, SpanKind, Stamped, TraceSink,
};
use slider_workloads::twitter::{follow_stream, generate, FollowEvent, Tweet, TwitterConfig};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const LATENESS: u64 = 12;
/// Chunk size chosen to not divide the stream evenly, so poll boundaries
/// land at awkward places.
const CHUNK: usize = 17;

fn event_config() -> EventTimeConfig {
    EventTimeConfig {
        epoch_len: 16,
        records_per_split: 8,
        window_epochs: Some(5),
        lateness: LATENESS,
    }
}

fn streams(total_time: u64) -> (Vec<Stamped<FollowEvent>>, Vec<Stamped<Tweet>>) {
    let config = TwitterConfig {
        users: 48,
        avg_follows: 5,
        urls: 24,
        repost_probability: 0.3,
    };
    let dataset = generate(0x901d, &config, usize::try_from(total_time).unwrap());
    let follows = follow_stream(0xf011, &dataset.graph, dataset.tweets.len(), total_time);
    let left = follows
        .into_iter()
        .enumerate()
        .map(|(i, ev)| Stamped::new(ev.time, u64::try_from(i).unwrap(), ev))
        .collect();
    let right = dataset
        .tweets
        .iter()
        .enumerate()
        .map(|(i, tw)| Stamped::new(tw.time, u64::try_from(i).unwrap(), tw.clone()))
        .collect();
    (left, right)
}

/// Shuffles a stamped stream so no record is displaced past the lateness
/// bound: deterministic bounded disorder, same multiset.
fn jumble<R: Clone>(stream: &[Stamped<R>], seed: u64) -> Vec<Stamped<R>> {
    let mut out = stream.to_vec();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in 0..out.len() {
        let j = i + rng.gen_range(0..4usize.min(out.len() - i));
        if out[j].time.abs_diff(out[i].time) <= LATENESS / 2 {
            out.swap(i, j);
        }
    }
    out
}

fn build(shared: &EngineShared, config: JoinConfig) -> JoinedJob<FollowPostJoin> {
    JoinedJob::new(FollowPostJoin, config, shared).expect("join job builds")
}

/// Drives both streams through the job in awkward interleaved chunks,
/// checking the view against brute force after every poll. Returns the
/// run fingerprint: every delta's Debug rendering in emission order
/// (poll boundaries marked, so grouping is part of the fingerprint), the
/// final view, and the cumulative join stats.
fn drive(
    job: &mut JoinedJob<FollowPostJoin>,
    left: &[Stamped<FollowEvent>],
    right: &[Stamped<Tweet>],
) -> (Vec<String>, String, JoinStats) {
    let mut deltas = Vec::new();
    let mut record = |run: &slider_join::JoinRunOf<FollowPostJoin>| {
        deltas.extend(run.deltas.iter().map(|d| format!("{d:?}")));
        if !run.deltas.is_empty() {
            deltas.push("|".into());
        }
    };
    let (mut li, mut ri) = (0usize, 0usize);
    while li < left.len() || ri < right.len() {
        let lend = (li + CHUNK).min(left.len());
        job.ingest_left(left[li..lend].iter().cloned());
        li = lend;
        let rend = (ri + CHUNK).min(right.len());
        job.ingest_right(right[ri..rend].iter().cloned());
        ri = rend;
        let run = job.poll().expect("poll");
        record(&run);
        assert_eq!(
            job.view(),
            &job.reference_view(),
            "view drifted from brute force"
        );
    }
    let run = job.close_all().expect("close_all");
    record(&run);
    assert_eq!(job.view(), &job.reference_view());
    (deltas, format!("{:?}", job.view()), job.stats())
}

#[test]
fn incremental_view_equals_brute_force_and_recompute_twin() {
    let (left, right) = streams(400);
    let shared = EngineShared::builder().threads(2).build();
    let mut inc = build(&shared, JoinConfig::new(event_config()));
    let mut rec = build(
        &shared,
        JoinConfig::new(event_config()).with_mode(JoinMode::Recompute),
    );
    let (_, inc_view, inc_stats) = drive(&mut inc, &left, &right);
    let (_, rec_view, rec_stats) = drive(&mut rec, &left, &right);
    assert_eq!(inc_view, rec_view, "maintenance strategy must be invisible");
    assert!(inc_stats.pairs_added > 0);
    assert!(
        inc_stats.pairs_removed > 0,
        "window evictions retracted pairs"
    );
    assert_eq!(rec_stats.probe_work, 0);
    assert_eq!(inc_stats.recompute_work, 0);
}

#[test]
fn join_is_bit_identical_across_thread_counts() {
    let (left, right) = streams(300);
    let mut fingerprints = Vec::new();
    for threads in [1usize, 2, 4] {
        let shared = EngineShared::builder().threads(threads).build();
        let mut job = build(&shared, JoinConfig::new(event_config()));
        fingerprints.push(drive(&mut job, &left, &right));
    }
    assert_eq!(fingerprints[0], fingerprints[1], "1 vs 2 threads");
    assert_eq!(fingerprints[1], fingerprints[2], "2 vs 4 threads");
}

/// Delays every 10th follow edge until the stream has reached two epochs
/// past its time plus the lateness bound: too late for the reorder buffer,
/// still inside the window, so the feeder splices it into the interior.
fn splice_every_tenth(stream: &[Stamped<FollowEvent>]) -> Vec<Stamped<FollowEvent>> {
    let delay = LATENESS + 2 * event_config().epoch_len;
    let mut arrivals: Vec<(u64, Stamped<FollowEvent>)> = stream
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let late = if i % 10 == 9 { delay } else { 0 };
            (s.time + late, s.clone())
        })
        .collect();
    arrivals.sort_by_key(|(arrival, _)| *arrival);
    arrivals.into_iter().map(|(_, s)| s).collect()
}

/// Drives a traced job at `threads` threads, then retracts left epoch
/// `retract` if given, and returns the `stable_hash` of the delta
/// fingerprint, the final view, the stats and the Chrome trace, each
/// rendered with `Debug` where it is not a string.
///
/// The tests below compare these with constants recorded from an earlier
/// version of the operator, so they pin the order of `JoinRun::deltas`,
/// the view, `JoinStats` and the join-track spans against history, not
/// only across thread counts. A change to how probes run or how the view
/// folds must leave them unchanged.
fn pinned_hashes(
    left: &[Stamped<FollowEvent>],
    right: &[Stamped<Tweet>],
    threads: usize,
    retract: Option<u64>,
) -> [u64; 4] {
    let trace = TraceSink::enabled();
    let shared = EngineShared::builder()
        .threads(threads)
        .trace(trace.clone())
        .build();
    let mut job = build(&shared, JoinConfig::new(event_config()));
    let (mut deltas, mut view, mut stats) = drive(&mut job, left, right);
    if let Some(epoch) = retract {
        let run = job.retract_left(epoch).expect("retract");
        assert!(run.stats.pairs_removed > 0, "the retraction removes pairs");
        deltas.extend(run.deltas.iter().map(|d| format!("{d:?}")));
        assert_eq!(job.view(), &job.reference_view());
        view = format!("{:?}", job.view());
        stats = job.stats();
    }
    let chrome = trace.snapshot().expect("trace enabled").chrome_trace();
    [
        stable_hash(&format!("{deltas:?}")),
        stable_hash(&view),
        stable_hash(&format!("{stats:?}")),
        stable_hash(&chrome),
    ]
}

#[test]
fn sorted_pair_delta_stream_matches_its_pinned_hashes() {
    let (left, right) = streams(300);
    for threads in [1usize, 4] {
        assert_eq!(
            pinned_hashes(&left, &right, threads, None),
            [
                0x90dd_0369_8ceb_cbbf,
                0xfc3b_e1d4_b58d_7f8c,
                0x9080_f58f_f77f_ed88,
                0x996e_7ce0_6a2e_4ed2,
            ],
            "deltas, view, stats, trace at {threads} threads"
        );
    }
}

#[test]
fn spliced_and_retracted_pair_delta_stream_matches_its_pinned_hashes() {
    let (left, right) = streams(300);
    let late = splice_every_tenth(&left);
    let shared = EngineShared::builder().build();
    let mut probe = build(&shared, JoinConfig::new(event_config()));
    drive(&mut probe, &late, &right);
    assert!(
        probe.left_event_stats().splice_runs > 0,
        "late follow edges splice"
    );
    for threads in [1usize, 4] {
        assert_eq!(
            pinned_hashes(&late, &right, threads, Some(16)),
            [
                0xf222_a69c_eea0_9392,
                0x4fb9_ed3f_8c9a_4e27,
                0x0521_9c3d_6873_8387,
                0xdca8_e974_b349_2a30,
            ],
            "deltas, view, stats, trace at {threads} threads"
        );
    }
}

#[test]
fn disorder_within_lateness_is_invisible() {
    let (left, right) = streams(300);
    let shared = EngineShared::builder().threads(2).build();
    let mut sorted = build(&shared, JoinConfig::new(event_config()));
    let reference = drive(&mut sorted, &left, &right);
    // Both sides late within the bound, jumbled differently. Jumbling can
    // nudge a chunk-boundary watermark across an epoch edge, regrouping
    // epoch closes across polls — which may create *transient* pairs (an
    // insertion seeing a record the sorted schedule evicted one poll
    // earlier, retracted again within the same poll). The invariants are
    // the NET signed delta multiset, the view (checked against brute
    // force after every poll inside `drive`), and the per-record
    // counters; transient pair churn is schedule-dependent by design.
    let jl = jumble(&left, 0xa);
    let jr = jumble(&right, 0xb);
    assert!(
        jl != left || jr != right,
        "streams must actually be disordered"
    );
    assert!(
        max_time_displacement(&jl) <= LATENESS,
        "left jumble out of bound"
    );
    assert!(
        max_time_displacement(&jr) <= LATENESS,
        "right jumble out of bound"
    );
    let mut jumbled = build(&shared, JoinConfig::new(event_config()));
    let got = drive(&mut jumbled, &jl, &jr);
    assert_eq!(
        net_deltas(&got.0),
        net_deltas(&reference.0),
        "net delta multiset"
    );
    assert_eq!(got.1, reference.1, "views must match the sorted twin");
    let (a, b) = (got.2, reference.2);
    assert_eq!(a.steps, b.steps, "same feeder events either way");
    assert_eq!(a.probes, b.probes, "same delta records probed");
    assert_eq!(
        a.pairs_added - a.pairs_removed,
        b.pairs_added - b.pairs_removed,
        "net pair flow must match the sorted twin"
    );
}

/// Largest gap by which a record trails an earlier-arriving, later-stamped
/// record — the quantity the lateness bound is stated over.
fn max_time_displacement<R>(stream: &[Stamped<R>]) -> u64 {
    let mut max_seen = 0u64;
    let mut worst = 0u64;
    for s in stream {
        worst = worst.max(max_seen.saturating_sub(s.time));
        max_seen = max_seen.max(s.time);
    }
    worst
}

/// Collapses a delta sequence to its net effect: +1 for an add, -1 for a
/// retract of the same (key, left, right) pair, zero entries dropped.
fn net_deltas(deltas: &[String]) -> std::collections::BTreeMap<String, i64> {
    let mut net = std::collections::BTreeMap::new();
    for d in deltas.iter().filter(|s| *s != "|") {
        let (pair, sign) = if d.contains("added: true") {
            (d.replace("added: true", "added: _"), 1)
        } else {
            (d.replace("added: false", "added: _"), -1)
        };
        *net.entry(pair).or_insert(0) += sign;
    }
    net.retain(|_, v| *v != 0);
    net
}

#[test]
fn seeded_index_faults_are_invisible_to_the_join() {
    let (left, right) = streams(300);
    let shared = EngineShared::builder().threads(2).build();
    let mut clean = build(&shared, JoinConfig::new(event_config()));
    let reference = drive(&mut clean, &left, &right);
    // Lose memoized index shards on both sides at several runs: recovery
    // must rebuild them with no effect on join outputs or join-layer
    // stats (rebuilds are metered as recovery, so side work may only
    // grow, never change the probe layer).
    let left_plan = JobFaultPlan::none()
        .lose_memo(2, vec![0, 2])
        .lose_memo(7, vec![1, 3]);
    let right_plan = JobFaultPlan::none()
        .lose_memo(3, vec![1])
        .lose_memo(6, vec![0, 3]);
    let mut faulty = build(
        &shared,
        JoinConfig::new(event_config())
            .with_left_faults(left_plan)
            .with_right_faults(right_plan),
    );
    let got = drive(&mut faulty, &left, &right);
    assert_eq!(got.0, reference.0, "deltas must survive index-shard loss");
    assert_eq!(got.1, reference.1, "view must survive index-shard loss");
    let (a, b) = (got.2, reference.2);
    assert_eq!(
        (
            a.advances,
            a.steps,
            a.probes,
            a.pairs_added,
            a.pairs_removed,
            a.probe_work
        ),
        (
            b.advances,
            b.steps,
            b.probes,
            b.pairs_added,
            b.pairs_removed,
            b.probe_work
        ),
        "probe-layer stats must be untouched by recovery"
    );
    assert!(
        a.side_work >= b.side_work,
        "recovery cannot reduce side work"
    );
}

#[test]
fn one_idle_side_holds_the_joint_watermark() {
    let (left, right) = streams(200);
    let shared = EngineShared::builder().build();
    let mut job = build(&shared, JoinConfig::new(event_config()));
    job.ingest_left(left.iter().cloned());
    let run = job.poll().expect("poll");
    assert!(
        run.is_empty(),
        "nothing may close while the right side is idle"
    );
    assert_eq!(job.joint_watermark(), None);
    assert!(job.view().is_empty());
    job.ingest_right(right.iter().cloned());
    job.poll().expect("poll");
    assert!(job.joint_watermark().is_some());
    assert_eq!(job.view(), &job.reference_view());
    assert!(
        !job.view().is_empty(),
        "streams share users, so pairs exist"
    );
}

#[test]
fn retracting_an_epoch_matches_a_twin_that_never_saw_it() {
    let (left, right) = streams(64);
    let shared = EngineShared::builder().build();
    // Window of 5 epochs x 16 ticks over 64 ticks: nothing evicts, so a
    // twin that never ingests epoch 1 of a side holds exactly the records
    // the retracting job holds after retracting it.
    let epoch_1 = 16..32;
    let mut job = build(&shared, JoinConfig::new(event_config()));
    job.ingest_left(left.iter().cloned());
    job.ingest_right(right.iter().cloned());
    job.close_all().expect("close_all");
    let run = job.retract_left(1).expect("retract epoch 1");
    assert!(run.stats.pairs_removed > 0, "epoch 1's pairs must retract");
    assert_eq!(job.view(), &job.reference_view());

    let mut twin = build(&shared, JoinConfig::new(event_config()));
    twin.ingest_left(left.iter().filter(|s| !epoch_1.contains(&s.time)).cloned());
    twin.ingest_right(right.iter().cloned());
    twin.close_all().expect("close_all");
    assert_eq!(
        job.view(),
        twin.view(),
        "retraction must equal the never-saw-it twin"
    );

    // The right side's retraction path: right epoch 1 goes too.
    let run = job.retract_right(1).expect("retract right epoch 1");
    assert!(
        run.stats.pairs_removed > 0,
        "right epoch 1's pairs must retract"
    );
    assert_eq!(job.view(), &job.reference_view());

    let mut twin = build(&shared, JoinConfig::new(event_config()));
    twin.ingest_left(left.iter().filter(|s| !epoch_1.contains(&s.time)).cloned());
    twin.ingest_right(right.iter().filter(|s| !epoch_1.contains(&s.time)).cloned());
    twin.close_all().expect("close_all");
    assert_eq!(
        job.view(),
        twin.view(),
        "retracting both sides must equal the twin that saw neither epoch"
    );
}

#[test]
fn join_trace_reconciles_with_stats_end_to_end() {
    let (left, right) = streams(300);
    let trace = TraceSink::enabled();
    let shared = EngineShared::builder()
        .threads(2)
        .trace(trace.clone())
        .build();
    let mut job = build(&shared, JoinConfig::new(event_config()));
    let (_, _, stats) = drive(&mut job, &left, &right);
    let snap = trace.snapshot().expect("trace enabled");
    assert_eq!(snap.counter("join.probe_work"), stats.probe_work);
    assert_eq!(snap.counter("join.pairs_added"), stats.pairs_added);
    assert_eq!(snap.counter("join.pairs_removed"), stats.pairs_removed);
    assert_eq!(snap.counter("join.steps"), stats.steps);
    assert_eq!(snap.counter("join.probes"), stats.probes);
    assert_eq!(snap.counter("join.advances"), stats.advances);
    assert_eq!(
        snap.work_total("join", SpanKind::Join, None),
        stats.probe_work,
        "join-track span leaves must sum to the modeled probe work"
    );
}

#[test]
fn sides_share_the_engine_but_not_a_cache_namespace() {
    let shared = EngineShared::builder()
        .cache(slider_dcache::CacheConfig::paper_defaults(4))
        .build();
    let a = build(&shared, JoinConfig::new(event_config()));
    let b = build(&shared, JoinConfig::new(event_config()));
    let namespaces = [
        a.left_job().cache_namespace(),
        a.right_job().cache_namespace(),
        b.left_job().cache_namespace(),
        b.right_job().cache_namespace(),
    ];
    for (i, x) in namespaces.iter().enumerate() {
        for y in &namespaces[i + 1..] {
            assert_ne!(x, y, "every side of every join owns its own namespace");
        }
    }
}
