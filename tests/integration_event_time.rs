//! Event-time integration: disordered streams must be invisible.
//!
//! The in-order assumption is gone: a stream shuffled within the lateness
//! bound — including bursty time gaps that age out whole windows, and with
//! a seeded fault plan running underneath — must produce outputs AND
//! RunStats bit-identical to its sorted twin at every thread count, for
//! every execution mode. Stragglers beyond the bound take the late-splice
//! path and must still converge to the sorted stream's output when their
//! epoch is reachable.

use slider_apps::Hct;
use slider_dcache::CacheConfig;
use slider_mapreduce::{
    EventFeeder, EventTimeConfig, EventTimeStats, ExecMode, JobConfig, JobFaultPlan,
    SimulationConfig, WindowedJob,
};
use slider_workloads::disorder::{
    bursty_stream, max_displacement, sorted_twin, straggler_stream, DisorderConfig, TimedLine,
};

const PARTITIONS: usize = 4;
/// Ingest chunk size: chosen to not divide the stream evenly, so flush
/// boundaries land at awkward places (the run sequence must not care).
const CHUNK: usize = 17;

fn disorder_config() -> DisorderConfig {
    DisorderConfig {
        records: 192,
        mean_step: 2,
        lateness: 16,
        vocabulary: 40,
    }
}

fn event_config(window_epochs: Option<usize>) -> EventTimeConfig {
    EventTimeConfig {
        epoch_len: 32,
        records_per_split: 4,
        window_epochs,
        lateness: 16,
    }
}

/// Every execution mode under its supported event-time window discipline
/// (fixed-width rotating needs uniform epochs — covered separately).
fn variable_width_modes() -> Vec<(ExecMode, Option<usize>)> {
    vec![
        (ExecMode::Recompute, Some(3)),
        (ExecMode::Strawman, Some(3)),
        (ExecMode::slider_folding(), Some(3)),
        (ExecMode::slider_randomized(), Some(3)),
        (ExecMode::slider_two_stack(), Some(3)),
        (ExecMode::slider_daba(), Some(3)),
        (ExecMode::slider_coalescing(false), None),
        (ExecMode::slider_coalescing(true), None),
    ]
}

/// Feeds `stream` through an event-time window in awkward chunks and
/// returns the full fingerprint: final output, the Debug rendering of
/// every run's stats (flattened across flushes), and the feeder counters.
fn run_stream(
    mode: ExecMode,
    stream: &[TimedLine],
    event: EventTimeConfig,
    threads: usize,
    faults: Option<u64>,
    buckets: Option<(usize, usize)>,
) -> (String, String, EventTimeStats) {
    let mut config = JobConfig::new(mode)
        .with_partitions(PARTITIONS)
        .with_threads(threads);
    if let Some((n, w)) = buckets {
        config = config.with_buckets(n, w);
    }
    if let Some(seed) = faults {
        config = config
            .with_simulation(SimulationConfig::paper_defaults())
            .with_cache(CacheConfig::paper_defaults(PARTITIONS))
            .with_faults(JobFaultPlan::seeded(seed, 24, 24, PARTITIONS, PARTITIONS));
    }
    let job = WindowedJob::new(Hct::new(), config).expect("valid config");
    let mut feeder = EventFeeder::new(job, event).expect("valid event config");
    let mut runs = Vec::new();
    for chunk in stream.chunks(CHUNK) {
        feeder.ingest(
            chunk
                .iter()
                .map(|(t, s, line)| slider_mapreduce::Stamped::new(*t, *s, line.clone())),
        );
        runs.extend(feeder.flush().expect("flush"));
    }
    runs.extend(feeder.close_all().expect("close_all"));
    (
        format!("{:?}", feeder.output()),
        format!("{runs:?}"),
        feeder.stats(),
    )
}

/// The tentpole guarantee: a bursty, disordered stream is indistinguishable
/// from its sorted twin — outputs and the complete metered run history are
/// bit-identical for every mode, at 1/2/4 threads, with and without a
/// seeded fault plan.
#[test]
fn disordered_stream_is_bit_identical_to_its_sorted_twin() {
    let cfg = disorder_config();
    let stream = bursty_stream(0xd150, &cfg, 48, 1_000);
    let twin = sorted_twin(&stream);
    assert_ne!(stream, twin, "the stream must actually be disordered");
    assert!(max_displacement(&stream) <= cfg.lateness);

    for (mode, window) in variable_width_modes() {
        for faults in [None, Some(0x5eed)] {
            let event = event_config(window);
            let reference = run_stream(mode, &twin, event, 1, faults, None);
            for threads in [1, 2, 4] {
                let got = run_stream(mode, &stream, event, threads, faults, None);
                assert_eq!(
                    got.0, reference.0,
                    "{mode:?} outputs diverged (threads={threads}, faults={faults:?})"
                );
                assert_eq!(
                    got.1, reference.1,
                    "{mode:?} RunStats diverged (threads={threads}, faults={faults:?})"
                );
                assert_eq!(got.2, reference.2, "{mode:?} feeder counters diverged");
                assert_eq!(
                    got.2.late_admitted, 0,
                    "in-bound disorder must never take the late path"
                );
            }
        }
    }
}

/// The same guarantee for fixed-width rotating windows, which additionally
/// require uniform epochs: every epoch carries exactly one bucket of
/// splits. In-bound disorder never splices (rotating forbids it), so the
/// reorder buffer alone must absorb the shuffle.
#[test]
fn rotating_windows_absorb_in_bound_disorder() {
    let event = EventTimeConfig {
        epoch_len: 100,
        records_per_split: 4,
        window_epochs: Some(3),
        lateness: 20,
    };
    let bucket_width = 3; // splits per epoch => 12 records per epoch
    let records_per_epoch = bucket_width * event.records_per_split;

    // Uniform epochs with an in-epoch spread, then a bounded arrival
    // shuffle (sort by time + deterministic jitter <= lateness).
    let mut stream: Vec<TimedLine> = (0..8 * records_per_epoch as u64)
        .map(|seq| {
            let epoch = seq / records_per_epoch as u64;
            let slot = seq % records_per_epoch as u64;
            let time = epoch * event.epoch_len + slot * 8;
            (time, seq, format!("w{} w{}", seq % 7, seq % 11))
        })
        .collect();
    let twin = stream.clone();
    stream.sort_by_key(|&(t, s, _)| (t + (s.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 21, s));
    assert_ne!(stream, twin);
    assert!(max_displacement(&stream) <= event.lateness);

    for cheap in [false, true] {
        let mode = ExecMode::slider_rotating(cheap);
        let buckets = Some((3, bucket_width));
        let reference = run_stream(mode, &twin, event, 1, None, buckets);
        for threads in [1, 2, 4] {
            let got = run_stream(mode, &stream, event, threads, None, buckets);
            assert_eq!(got.0, reference.0, "{mode:?} outputs diverged");
            assert_eq!(got.1, reference.1, "{mode:?} RunStats diverged");
        }
        assert_eq!(reference.2.late_admitted, 0);
        assert_eq!(
            reference.2.epochs_evicted, 5,
            "8 epochs through a window of 3"
        );
    }
}

/// Stragglers beyond the lateness bound take the interior-splice path.
/// With a window wide enough that their epochs are still live, the final
/// output must still equal the sorted stream's — and the whole run history
/// must stay thread-count invariant.
#[test]
fn stragglers_splice_back_in_and_converge_to_the_sorted_output() {
    let cfg = disorder_config();
    let stragglers = 5;
    let stream = straggler_stream(0x57a9, &cfg, stragglers);
    assert!(max_displacement(&stream) > cfg.lateness);

    for (mode, _) in variable_width_modes() {
        // A window no epoch ever leaves: every straggler's epoch is live.
        let event = event_config(None);
        let reference = run_stream(mode, &sorted_twin(&stream), event, 1, None, None);
        let sequential = run_stream(mode, &stream, event, 1, None, None);
        assert_eq!(
            sequential.0, reference.0,
            "{mode:?}: late splices must converge to the sorted output"
        );
        assert!(
            sequential.2.late_admitted > 0,
            "{mode:?}: stragglers must have taken the late path"
        );
        assert_eq!(sequential.2.late_dropped, 0);
        assert!(sequential.2.splice_runs > 0);
        for threads in [2, 4] {
            let parallel = run_stream(mode, &stream, event, threads, None, None);
            assert_eq!(parallel.0, sequential.0, "{mode:?} outputs at {threads}t");
            assert_eq!(parallel.1, sequential.1, "{mode:?} stats at {threads}t");
            assert_eq!(parallel.2, sequential.2);
        }
    }
}

/// With a bounded window, a straggler whose epoch already slid out is
/// dropped and counted — never spliced into the wrong position.
#[test]
fn stragglers_past_the_window_are_dropped_and_counted() {
    let cfg = disorder_config();
    let stream = straggler_stream(0x0dd, &cfg, 4);
    let event = event_config(Some(2)); // tight window: early epochs die fast
    let (_, _, stats) = run_stream(ExecMode::slider_folding(), &stream, event, 1, None, None);
    assert!(
        stats.late_dropped > 0,
        "a 2-epoch window must have outlived the stragglers' epochs: {stats:?}"
    );
    assert_eq!(
        stats.ingested, cfg.records as u64,
        "every record is accounted for"
    );
}

/// Bursty gaps age out whole windows between bursts; the feeder's counters
/// must reconcile exactly with what the stream contains.
#[test]
fn bursty_gaps_evict_whole_windows() {
    let cfg = disorder_config();
    let stream = bursty_stream(0xb57, &cfg, 48, 10_000);
    let event = event_config(Some(3));
    let (output, _, stats) = run_stream(ExecMode::slider_folding(), &stream, event, 1, None, None);
    assert!(stats.epochs_evicted >= 3, "gaps must evict: {stats:?}");
    assert!(
        stats.epochs_closed > 100,
        "gap epochs close in bulk (fast-forwarded): {stats:?}"
    );
    assert_eq!(stats.ingested, cfg.records as u64);
    assert_eq!(stats.late_dropped + stats.late_admitted, 0);
    // The final window holds only the last burst's tail.
    assert!(!output.is_empty());
}

/// Fixed-width rotating windows refuse interior splices (they are
/// positional); the feeder surfaces that as a mode violation rather than
/// corrupting the bucket grid.
#[test]
fn rotating_retraction_is_a_mode_violation() {
    let event = EventTimeConfig {
        epoch_len: 100,
        records_per_split: 4,
        window_epochs: Some(3),
        lateness: 0,
    };
    // Two uniform epochs of 12 records = 3 splits (one bucket) each.
    let stream: Vec<TimedLine> = (0..24u64)
        .map(|seq| {
            (
                (seq / 12) * 100 + (seq % 12) * 8,
                seq,
                format!("w{}", seq % 5),
            )
        })
        .collect();
    let config = JobConfig::new(ExecMode::slider_rotating(false))
        .with_partitions(PARTITIONS)
        .with_buckets(3, 3);
    let job = WindowedJob::new(Hct::new(), config).unwrap();
    let mut feeder = EventFeeder::new(job, event).unwrap();
    feeder.ingest(
        stream
            .iter()
            .map(|(t, s, line)| slider_mapreduce::Stamped::new(*t, *s, line.clone())),
    );
    feeder.close_all().unwrap();
    let err = feeder.retract_epoch(0).unwrap_err();
    assert!(matches!(err, slider_mapreduce::JobError::ModeViolation(_)));
    // Variable-width windows retract fine.
    let job = WindowedJob::new(
        Hct::new(),
        JobConfig::new(ExecMode::slider_folding()).with_partitions(PARTITIONS),
    )
    .unwrap();
    let mut feeder = EventFeeder::new(job, event).unwrap();
    feeder.ingest(
        stream
            .iter()
            .map(|(t, s, line)| slider_mapreduce::Stamped::new(*t, *s, line.clone())),
    );
    feeder.close_all().unwrap();
    assert!(feeder.retract_epoch(0).unwrap().is_some());
}
