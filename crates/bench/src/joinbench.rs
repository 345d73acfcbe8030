//! Incremental-vs-recompute sweep for the windowed join (slider-join).
//!
//! Drives the §8.1 companion join — follow edges ⋈ URL posts
//! ([`FollowPostJoin`]) — through the *same* synthetic Twitter streams in
//! both [`JoinMode::Incremental`] and [`JoinMode::Recompute`], over a
//! grid of window sizes × slide fractions, and reports modeled work per
//! grid point. The incremental operator probes only the records that
//! entered or left a window each slide; the recompute strawman re-crosses
//! both indexes. The sweep shows the slider claim in join form: the
//! smaller the slide fraction, the wider the gap.
//!
//! All numbers are integer work accounting folded deterministically, so
//! `BENCH_join.json` is byte-identical across reruns and thread counts
//! and a checked-in baseline gates regressions in CI
//! (`join_viewer --check`).

use slider_apps::FollowPostJoin;
use slider_join::{JoinConfig, JoinMode, JoinedJob};
use slider_mapreduce::{EngineShared, EventTimeConfig, Stamped};
use slider_workloads::twitter::{follow_stream, generate, TwitterConfig};

use crate::report::{BenchJson, Table};

/// Window sizes swept, in records per side (1 record ≈ 1 time unit).
pub const JOIN_WINDOWS: [u64; 3] = [256, 1024, 4096];

/// Slide sizes as a percentage of the window.
pub const JOIN_SLIDE_PCTS: [u64; 3] = [1, 10, 25];

/// Slides measured per grid point, after the untimed window fill.
pub const JOIN_MEASURED_SLIDES: u64 = 8;

/// One grid point: modeled join-layer work for both maintenance modes
/// over [`JOIN_MEASURED_SLIDES`] slides, plus the shared side-index work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinPoint {
    /// Window size in records per side.
    pub window: u64,
    /// Slide size as a percentage of the window.
    pub slide_pct: u64,
    /// Incremental-mode work: delta probes plus side-index maintenance.
    pub inc_work: u64,
    /// Recompute-mode work: cross products plus side-index maintenance.
    pub rec_work: u64,
    /// Join pairs added across the measured slides (incremental mode).
    pub pairs_added: u64,
    /// Join pairs retracted across the measured slides.
    pub pairs_removed: u64,
}

/// Measures one (window, slide%) grid point. Both modes consume identical
/// streams and follow identical slide schedules; only view maintenance
/// differs.
pub fn measure_join(window: u64, slide_pct: u64) -> JoinPoint {
    let slide = (window * slide_pct / 100).max(1);
    let window_epochs = usize::try_from((window / slide).max(1)).expect("epoch count fits");
    let total_time = window + JOIN_MEASURED_SLIDES * slide;
    let event = EventTimeConfig {
        epoch_len: slide,
        records_per_split: 64,
        window_epochs: Some(window_epochs),
        lateness: 0,
    };
    // Dense key overlap: few users, so most followees also post in-window.
    let config = TwitterConfig {
        users: 64,
        avg_follows: 6,
        urls: 32,
        repost_probability: 0.3,
    };
    let dataset = generate(0x1011, &config, usize::try_from(total_time).expect("fits"));
    let follows = follow_stream(0xfeed, &dataset.graph, dataset.tweets.len(), total_time);

    let shared = EngineShared::builder().build();
    let mut jobs = [JoinMode::Incremental, JoinMode::Recompute].map(|mode| {
        JoinedJob::new(
            FollowPostJoin,
            JoinConfig::new(event).with_mode(mode),
            &shared,
        )
        .expect("join job builds")
    });

    let mut fill_marks = [None, None];
    let mut next_poll = slide;
    // Ingest in slide-sized batches, polling after each; snapshot stats
    // when the fill phase (first `window` time units) completes.
    let mut fi = 0usize;
    let mut ti = 0usize;
    while next_poll <= total_time {
        for (j, job) in jobs.iter_mut().enumerate() {
            let mut f = fi;
            while f < follows.len() && follows[f].time < next_poll {
                let ev = follows[f].clone();
                job.ingest_left([Stamped::new(ev.time, u64::try_from(f).expect("fits"), ev)]);
                f += 1;
            }
            let mut t = ti;
            while t < dataset.tweets.len() && dataset.tweets[t].time < next_poll {
                let tw = dataset.tweets[t].clone();
                job.ingest_right([Stamped::new(tw.time, u64::try_from(t).expect("fits"), tw)]);
                t += 1;
            }
            job.poll().expect("poll");
            if next_poll >= window && fill_marks[j].is_none() {
                fill_marks[j] = Some(job.stats());
            }
        }
        fi = follows.partition_point(|e| e.time < next_poll);
        ti = dataset.tweets.partition_point(|t| t.time < next_poll);
        next_poll += slide;
    }

    let [inc, rec] = jobs;
    let [inc_mark, rec_mark] = fill_marks.map(|m| m.expect("fill completed"));
    let inc_stats = inc.stats();
    let rec_stats = rec.stats();
    JoinPoint {
        window,
        slide_pct,
        inc_work: inc_stats.total_work() - inc_mark.total_work(),
        rec_work: rec_stats.total_work() - rec_mark.total_work(),
        pairs_added: inc_stats.pairs_added - inc_mark.pairs_added,
        pairs_removed: inc_stats.pairs_removed - inc_mark.pairs_removed,
    }
}

/// Runs the full window × slide grid.
pub fn run_join_bench() -> Vec<JoinPoint> {
    let mut points = Vec::new();
    for &window in &JOIN_WINDOWS {
        for &pct in &JOIN_SLIDE_PCTS {
            points.push(measure_join(window, pct));
        }
    }
    points
}

/// Flat metric key for one grid point, e.g. `join.w1024.p10.inc_work`.
#[must_use]
pub fn join_point_key(window: u64, slide_pct: u64, metric: &str) -> String {
    format!("join.w{window}.p{slide_pct}.{metric}")
}

/// Builds the `BENCH_join.json` report from the grid.
pub fn join_report(points: &[JoinPoint]) -> BenchJson {
    let mut report = BenchJson::new("join");
    for p in points {
        report.metric(
            join_point_key(p.window, p.slide_pct, "inc_work"),
            to_f64(p.inc_work),
        );
        report.metric(
            join_point_key(p.window, p.slide_pct, "rec_work"),
            to_f64(p.rec_work),
        );
        report.metric(
            join_point_key(p.window, p.slide_pct, "pairs_touched"),
            to_f64(p.pairs_added + p.pairs_removed),
        );
    }
    report
}

/// Renders the join grid as a text table.
#[must_use]
pub fn join_table(points: &[JoinPoint]) -> Table {
    let mut table = Table::new(&[
        "window",
        "slide%",
        "inc work",
        "rec work",
        "speedup",
        "pairs +/-",
    ]);
    for p in points {
        let speedup = if p.inc_work > 0 {
            to_f64(p.rec_work) / to_f64(p.inc_work)
        } else {
            f64::INFINITY
        };
        table.row(vec![
            p.window.to_string(),
            p.slide_pct.to_string(),
            p.inc_work.to_string(),
            p.rec_work.to_string(),
            format!("{speedup:.2}x"),
            format!("{}/{}", p.pairs_added, p.pairs_removed),
        ]);
    }
    table
}

/// Exact `u64 → f64` for bench-scale values.
fn to_f64(x: u64) -> f64 {
    assert!(x < (1u64 << 53), "work counts stay far below 2^53");
    let lo = u32::try_from(x & 0xffff_ffff).expect("masked");
    let hi = u32::try_from(x >> 32).expect("shifted");
    f64::from(hi) * 4_294_967_296.0 + f64::from(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_beats_recompute_at_small_slides() {
        // The acceptance claim: for slide <= 10% at windows >= 1024 the
        // incremental join does strictly less modeled work.
        for &window in &[1024u64, 4096] {
            for &pct in &[1u64, 10] {
                let p = measure_join(window, pct);
                assert!(
                    p.inc_work < p.rec_work,
                    "w{window} p{pct}: inc {} !< rec {}",
                    p.inc_work,
                    p.rec_work
                );
                assert!(p.pairs_added > 0, "w{window} p{pct}: join produced pairs");
            }
        }
    }

    #[test]
    fn grid_points_are_deterministic() {
        assert_eq!(measure_join(256, 10), measure_join(256, 10));
    }

    #[test]
    fn report_renders_all_grid_metrics() {
        let points = vec![JoinPoint {
            window: 256,
            slide_pct: 10,
            inc_work: 100,
            rec_work: 400,
            pairs_added: 7,
            pairs_removed: 3,
        }];
        let rendered = join_report(&points).render();
        assert!(rendered.contains("\"join.w256.p10.inc_work\": 100"));
        assert!(rendered.contains("\"join.w256.p10.rec_work\": 400"));
        assert!(rendered.contains("pairs_touched\": 10"));
    }
}
