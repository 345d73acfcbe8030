//! `join_stragglers`: follow edges ⋈ URL posts over a 4096-tick window
//! sliding by 64 ticks. Every 20th follow edge arrives ten slides late,
//! past the lateness bound but inside the window, so the event feeder
//! splices it into the window's interior instead of evicting at the front.

use std::collections::VecDeque;

use slider_apps::FollowPostJoin;
use slider_join::{JoinConfig, JoinStats, JoinedJob};
use slider_mapreduce::{EngineShared, EventTimeConfig, Stamped, TraceSink};
use slider_workloads::twitter::{follow_stream, generate, FollowEvent, Tweet, TwitterConfig};

use crate::measure::{percentile, secs, Spans};
use crate::tally::{
    counter_delta, event_counts, event_delta, event_sum, fill_common, ratio, trace_counters,
    RunTally,
};
use crate::{Options, Probe, Report};

const PARTITIONS: usize = 64;
const SLIDE: u64 = 64;
const WINDOW_EPOCHS: usize = 128;
const EVENT: EventTimeConfig = EventTimeConfig {
    epoch_len: SLIDE,
    records_per_split: 64,
    window_epochs: Some(WINDOW_EPOCHS),
    lateness: SLIDE,
};
/// Every `DELAY_EVERY`-th follow edge arrives `DELAY_SLIDES` slides after
/// its event time: later than the lateness bound, inside the window.
const DELAY_EVERY: usize = 20;
const DELAY_SLIDES: u64 = 10;
/// Polls until the window is full: the window's epochs, one epoch of
/// lateness, and one to close the last epoch.
const FILL_POLLS: usize = WINDOW_EPOCHS + 2;
/// Measured polls per nominal second.
const POLLS_PER_SECOND: u64 = 400;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Polls between two host-speed samples.
const CALIBRATE_EVERY: usize = 16;
const TWITTER: TwitterConfig = TwitterConfig {
    users: 256,
    avg_follows: 6,
    urls: 64,
    repost_probability: 0.3,
};

/// One slide's input: the follow edges and posts the client sends before
/// its poll.
type Batch = (Vec<Stamped<FollowEvent>>, Vec<Stamped<Tweet>>);

/// Splits the streams into per-poll batches by arrival tick.
fn batches(seed: u64, polls: usize) -> Vec<Batch> {
    let span = polls as u64 * SLIDE;
    let ticks = usize::try_from(span).expect("tick count fits");
    let data = generate(seed, &TWITTER, ticks);
    let follows = follow_stream(seed, &data.graph, ticks, span);
    let mut out: Vec<Batch> = (0..polls).map(|_| (Vec::new(), Vec::new())).collect();
    for (i, f) in follows.into_iter().enumerate() {
        let delay = if i % DELAY_EVERY == DELAY_EVERY - 1 {
            DELAY_SLIDES * SLIDE
        } else {
            0
        };
        let slot = usize::try_from((f.time + delay) / SLIDE).expect("fits");
        if let Some(batch) = out.get_mut(slot) {
            batch.0.push(Stamped::new(f.time, i as u64, f));
        }
    }
    for (i, t) in data.tweets.into_iter().enumerate() {
        let slot = usize::try_from(t.time / SLIDE).expect("fits");
        if let Some(batch) = out.get_mut(slot) {
            batch.1.push(Stamped::new(t.time, i as u64, t));
        }
    }
    out
}

/// On-time records still in the feeders' reorder buffers. An epoch `e`
/// closes once the joint watermark `w` reaches `(e + 1) * SLIDE`, so the
/// buffers hold the on-time records of epochs at or above `w / SLIDE`.
#[derive(Default)]
struct Buffered(VecDeque<(u64, u64)>);

impl Buffered {
    fn ingest(&mut self, times: impl Iterator<Item = u64>, open_from: u64) {
        for time in times {
            let epoch = time / SLIDE;
            if epoch < open_from {
                continue;
            }
            match self.0.iter_mut().find(|(e, _)| *e == epoch) {
                Some((_, n)) => *n += 1,
                None => self.0.push_back((epoch, 1)),
            }
        }
    }

    fn close_below(&mut self, horizon: u64) -> u64 {
        self.0.retain(|(e, _)| *e >= horizon);
        self.0.iter().map(|(_, n)| n).sum()
    }
}

fn setup(
    opts: &Options,
    fill: &[Batch],
    spans: &mut Spans,
) -> Result<(JoinedJob<FollowPostJoin>, TraceSink), String> {
    let trace = if opts.traced {
        TraceSink::enabled()
    } else {
        TraceSink::disabled()
    };
    let shared = EngineShared::builder()
        .threads(1)
        .trace(trace.clone())
        .build();
    let config = JoinConfig::new(EVENT).with_partitions(PARTITIONS);
    let mut job =
        JoinedJob::new(FollowPostJoin, config, &shared).map_err(|e| format!("join: {e}"))?;
    for (op, (left, right)) in fill.iter().cloned().enumerate() {
        let op = op as u64;
        spans.time("ingest_left", op, None, || job.ingest_left(left));
        spans.time("ingest_right", op, None, || job.ingest_right(right));
        spans
            .time("poll", op, None, || job.poll())
            .map_err(|e| format!("fill poll: {e}"))?;
    }
    Ok((job, trace))
}

pub(crate) fn run(opts: &Options, probe: &mut Probe) -> Result<Report, String> {
    let measured = usize::try_from(opts.seconds * POLLS_PER_SECOND)
        .expect("fits")
        .max(8);
    let mut all = batches(opts.seed, FILL_POLLS + measured);
    let incoming = all.split_off(FILL_POLLS);

    let mut report = Report::default();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        probe.calibrate()?;
        let t = std::time::Instant::now();
        built = Some(setup(opts, &all, &mut probe.spans)?);
        report.setups.push((probe.chunk(), secs(t)));
    }
    let (mut job, trace) = built.expect("at least one set-up");

    let mut tally = RunTally::default();
    let mut buffered = Buffered::default();
    let mut buffered_samples = Vec::new();
    let stats_before: JoinStats = job.stats();
    let event_before = event_sum(job.left_event_stats(), job.right_event_stats());
    let before = trace_counters(&trace);
    let mut open_from = job.joint_watermark().unwrap_or(0) / SLIDE;
    probe.start()?;
    for (i, (left, right)) in incoming.into_iter().enumerate() {
        if i > 0 && i % CALIBRATE_EVERY == 0 {
            probe.calibrate()?;
        }
        let op = (FILL_POLLS + i) as u64;
        if probe.traced {
            let times = left
                .iter()
                .map(|s| s.time)
                .chain(right.iter().map(|s| s.time));
            buffered.ingest(times, open_from);
        }
        report.records += (left.len() + right.len()) as u64;
        let client = probe.spans.begin("client", op, None);
        let t = std::time::Instant::now();
        probe
            .spans
            .time("ingest_left", op, Some(client), || job.ingest_left(left));
        probe
            .spans
            .time("ingest_right", op, Some(client), || job.ingest_right(right));
        let result = probe.spans.time("poll", op, Some(client), || job.poll());
        report.updates.push((probe.chunk(), secs(t)));
        probe.spans.end(client);
        report.attempted += 1;
        match result {
            Ok(run) => {
                for side in &run.side_runs {
                    tally.absorb(side);
                }
            }
            Err(_) => report.failed += 1,
        }
        if probe.traced {
            open_from = job.joint_watermark().unwrap_or(0) / SLIDE;
            buffered_samples.push(buffered.close_below(open_from) as f64);
        }
    }
    probe.stop(&mut report)?;
    let during = counter_delta(&trace_counters(&trace), &before);

    // Output check, outside the timed phase: the incremental view against
    // the brute-force cross product of the current windows.
    report.check(job.view() == &job.reference_view());

    let stats = job.stats();
    let polls = report.updates.len() as f64;
    let event = event_delta(
        event_sum(job.left_event_stats(), job.right_event_stats()),
        event_before,
    );
    event_counts("event.", &event, &mut report.counts);
    for (name, value) in [
        ("join.advances", stats.advances - stats_before.advances),
        ("join.probes", stats.probes - stats_before.probes),
        (
            "join.pairs_added",
            stats.pairs_added - stats_before.pairs_added,
        ),
        (
            "join.pairs_removed",
            stats.pairs_removed - stats_before.pairs_removed,
        ),
        (
            "join.probe_work",
            stats.probe_work - stats_before.probe_work,
        ),
        ("join.side_work", stats.side_work - stats_before.side_work),
    ] {
        report.counts.insert(name.into(), value);
    }
    if !opts.traced {
        tally.counts("tally.", &mut report.counts);
        return Ok(report);
    }
    fill_common(&mut report, &tally, &during);
    let records = report.records as f64;
    let counts = report.counts.clone();
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let footprint = job.left_job().memo_footprint_bytes() + job.right_job().memo_footprint_bytes();
    for (name, value) in [
        (
            "windowed.memo_footprint_mb",
            footprint as f64 / (1024.0 * 1024.0),
        ),
        (
            "event.late_admitted_ratio",
            ratio(event.late_admitted as f64, event.ingested as f64),
        ),
        ("event.late_dropped", event.late_dropped as f64),
        (
            "event.splice_runs_per_poll",
            ratio(event.splice_runs as f64, polls),
        ),
        (
            "event.buffered_records_p50",
            percentile(&buffered_samples, 0.5),
        ),
        (
            "join.probes_per_record",
            ratio(count("join.probes"), records),
        ),
        (
            "join.probe_work_per_record",
            ratio(count("join.probe_work"), records),
        ),
        (
            "join.side_work_per_record",
            ratio(count("join.side_work"), records),
        ),
        (
            "join.pairs_changed_per_poll",
            ratio(
                count("join.pairs_added") + count("join.pairs_removed"),
                polls,
            ),
        ),
    ] {
        report.layer.insert(name.into(), value);
    }
    Ok(report)
}
