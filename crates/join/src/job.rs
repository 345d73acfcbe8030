//! The incremental windowed join operator.
//!
//! [`JoinedJob`] owns two [`EventFeeder`]-backed sides. Each side's
//! sliding window is indexed by join key through an [`IndexApp`] run as an
//! ordinary [`WindowedJob`] on the shared engine, so index maintenance
//! inherits contraction trees, dcache memoization (each side under its own
//! namespace), and fault recovery unchanged. Above the two indexes the
//! operator keeps a materialized per-key view of the join result and
//! updates it with *deltas only*: every joint advance probes the records
//! that entered or left one side against the opposite side's index,
//! instead of recomputing the cross product.
//!
//! # Why the delta schedule is exact
//!
//! A joint advance applies the left side's feeder events first, probing
//! them against the right index **before** the right side flushes (so the
//! right index is still `R_old`), then flushes the right side and probes
//! its events against the now-current left index (`L_new`). That is
//! textbook incremental view maintenance:
//!
//! ```text
//! L_new ⋈ R_new = L_old ⋈ R_old  +  ΔL ⋈ R_old  +  L_new ⋈ ΔR
//! ```
//!
//! Within one side's event list the deltas only ever pair with the
//! *opposite* side, so applying them in feeder order (evictions before
//! same-epoch insertions, splices and retractions in occurrence order)
//! keeps every intermediate count consistent and the final view equal to
//! the brute-force [`reference_view`](crate::reference_view).
//!
//! # Determinism
//!
//! Probes are sharded by `partition_of(key)` preserving delta order within
//! each shard, executed via [`Runtime::map`] (results in input order), and
//! folded in shard order on the control thread. The emitted
//! [`PairDelta`] list, the view, and every [`JoinStats`] field are
//! bit-identical at any thread count.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use slider_mapreduce::{
    partition_of, EngineShared, EventFeeder, EventTimeConfig, EventTimeStats, ExecMode, FeedEvent,
    JobConfig, JobError, JobFaultPlan, RunStats, Runtime, Stamped, WindowedJob,
};
use slider_trace::{SpanKind, TraceSink};

use crate::app::{IndexApp, IndexRecord, JoinApp};
use crate::reference::reference_view;
use crate::stats::{pair_hash, JoinCell, JoinStats, PairDelta};

/// How the operator maintains its view on each joint advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinMode {
    /// Probe only the records that entered or left a window (the slider
    /// way). Emits per-pair deltas.
    Incremental,
    /// Rebuild the view from both indexes with a full cross product on
    /// every advance that changed anything. Emits no deltas — this is the
    /// metered strawman the benchmarks compare against.
    Recompute,
}

/// Configuration for a [`JoinedJob`]. Both sides share the event-time
/// semantics (`event`) and the probe shard count (`partitions`), and both
/// side indexes run folding contraction trees; fault plans are per side.
#[derive(Debug, Clone)]
pub struct JoinConfig {
    /// Event-time windowing config applied to both sides.
    pub event: EventTimeConfig,
    /// Probe/index shard count.
    pub partitions: usize,
    /// View maintenance strategy.
    pub mode: JoinMode,
    /// Optional fault plan injected into the left index job.
    pub left_faults: Option<JobFaultPlan>,
    /// Optional fault plan injected into the right index job.
    pub right_faults: Option<JobFaultPlan>,
}

impl JoinConfig {
    /// Builds a config with the given event-time windowing, 4 partitions,
    /// folding contraction trees, and incremental maintenance.
    pub fn new(event: EventTimeConfig) -> Self {
        JoinConfig {
            event,
            partitions: 4,
            mode: JoinMode::Incremental,
            left_faults: None,
            right_faults: None,
        }
    }

    /// Sets the probe/index shard count.
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// Sets the view maintenance strategy.
    pub fn with_mode(mut self, mode: JoinMode) -> Self {
        self.mode = mode;
        self
    }

    /// Injects a fault plan into the left index job.
    pub fn with_left_faults(mut self, plan: JobFaultPlan) -> Self {
        self.left_faults = Some(plan);
        self
    }

    /// Injects a fault plan into the right index job.
    pub fn with_right_faults(mut self, plan: JobFaultPlan) -> Self {
        self.right_faults = Some(plan);
        self
    }

    fn validate(&self) -> Result<(), JoinError> {
        if self.partitions == 0 {
            return Err(JoinError::BadConfig("partitions must be >= 1".into()));
        }
        Ok(())
    }
}

/// Errors from building or driving a [`JoinedJob`].
#[derive(Debug)]
pub enum JoinError {
    /// An underlying side-index job failed.
    Job(JobError),
    /// The join configuration is invalid.
    BadConfig(String),
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinError::Job(e) => write!(f, "side-index job error: {e}"),
            JoinError::BadConfig(msg) => write!(f, "bad join config: {msg}"),
        }
    }
}

impl std::error::Error for JoinError {}

impl From<JobError> for JoinError {
    fn from(e: JobError) -> Self {
        JoinError::Job(e)
    }
}

/// The result of one joint advance ([`JoinedJob::poll`] and friends).
#[derive(Debug, Clone)]
pub struct JoinRun<K, L, R> {
    /// Pair-level join-result deltas, in deterministic application order.
    /// Empty in [`JoinMode::Recompute`].
    pub deltas: Vec<PairDelta<K, L, R>>,
    /// Stats of the side-index runs this advance drove (left side's runs
    /// first, then right side's).
    pub side_runs: Vec<RunStats>,
    /// Join-layer stats for this advance only (already folded into
    /// [`JoinedJob::stats`]).
    pub stats: JoinStats,
}

impl<K, L, R> JoinRun<K, L, R> {
    fn empty() -> Self {
        JoinRun {
            deltas: Vec::new(),
            side_runs: Vec::new(),
            stats: JoinStats::default(),
        }
    }

    /// True when this advance closed nothing, spliced nothing, and probed
    /// nothing.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty() && self.side_runs.is_empty() && self.stats.is_zero()
    }
}

/// Alias pinning a [`JoinRun`]'s type parameters to a [`JoinApp`].
pub type JoinRunOf<J> = JoinRun<<J as JoinApp>::Key, <J as JoinApp>::Left, <J as JoinApp>::Right>;

/// One in-flight delta: key, the stamped record that moved, and whether it
/// entered (`true`) or left (`false`) its window.
type Delta<K, V> = (K, IndexRecord<V>, bool);

/// A probe match: key, the delta record, the opposite-side record it
/// paired with, and the delta's direction.
type Match<K, VD, VO> = (K, IndexRecord<VD>, IndexRecord<VO>, bool);

/// Per-shard probe output, in shard order: `(matches, modeled work)`.
type ShardMatches<K, VD, VO> = Vec<(Vec<Match<K, VD, VO>>, u64)>;

/// A two-input incremental windowed equi-join over the shared engine.
///
/// See the [crate docs](crate) for the maintenance schedule. It is exact
/// because `L_new ⋈ R_new = L_old ⋈ R_old + ΔL ⋈ R_old + L_new ⋈ ΔR`: the
/// left side's deltas probe the right index before the right side
/// flushes. Ingest stamped records with
/// [`ingest_left`](Self::ingest_left) / [`ingest_right`](Self::ingest_right),
/// then [`poll`](Self::poll) to advance both sides up to the **joint
/// watermark** — the minimum of the two sides' event-time watermarks, so
/// neither window ever runs ahead of data the other side may still
/// deliver.
pub struct JoinedJob<J: JoinApp> {
    app: Arc<J>,
    config: JoinConfig,
    left: EventFeeder<IndexApp<J::Left, J::Key>>,
    right: EventFeeder<IndexApp<J::Right, J::Key>>,
    view: BTreeMap<J::Key, JoinCell>,
    runtime: Runtime,
    trace: TraceSink,
    stats: JoinStats,
    advance_seq: u64,
}

impl<J: JoinApp> JoinedJob<J> {
    /// Builds the operator on the shared engine. Each side gets its own
    /// [`WindowedJob`] (and therefore its own dcache namespace) wrapped in
    /// an [`EventFeeder`] with journaling enabled.
    pub fn new(app: J, config: JoinConfig, shared: &EngineShared) -> Result<Self, JoinError> {
        config.validate()?;
        let app = Arc::new(app);
        let left_app = {
            let a = Arc::clone(&app);
            IndexApp::new(move |v: &J::Left| a.left_key(v), app.left_record_bytes())
        };
        let right_app = {
            let a = Arc::clone(&app);
            IndexApp::new(move |v: &J::Right| a.right_key(v), app.right_record_bytes())
        };
        let side_config = |faults: &Option<JobFaultPlan>| {
            let job_config =
                JobConfig::new(ExecMode::slider_folding()).with_partitions(config.partitions);
            match faults {
                Some(plan) => job_config.with_faults(plan.clone()),
                None => job_config,
            }
        };
        let left_job =
            WindowedJob::with_shared(left_app, side_config(&config.left_faults), shared)?;
        let right_job =
            WindowedJob::with_shared(right_app, side_config(&config.right_faults), shared)?;
        let mut left = EventFeeder::new(left_job, config.event)?;
        let mut right = EventFeeder::new(right_job, config.event)?;
        left.enable_journal();
        right.enable_journal();
        Ok(JoinedJob {
            app,
            config,
            left,
            right,
            view: BTreeMap::new(),
            runtime: shared.runtime().clone(),
            trace: shared.trace().clone(),
            stats: JoinStats::default(),
            advance_seq: 0,
        })
    }

    /// Buffers left-side records. `Stamped.time`/`seq` become the record's
    /// join identity.
    pub fn ingest_left(&mut self, records: impl IntoIterator<Item = Stamped<J::Left>>) {
        self.left.ingest(records.into_iter().map(|s| {
            let rec = IndexRecord::new(s.time, s.seq, s.record);
            Stamped::new(rec.time, rec.seq, rec)
        }));
    }

    /// Buffers right-side records.
    pub fn ingest_right(&mut self, records: impl IntoIterator<Item = Stamped<J::Right>>) {
        self.right.ingest(records.into_iter().map(|s| {
            let rec = IndexRecord::new(s.time, s.seq, s.record);
            Stamped::new(rec.time, rec.seq, rec)
        }));
    }

    /// Advances both sides up to the joint watermark and applies the
    /// resulting window deltas to the view.
    ///
    /// If either side has seen no records yet its watermark is undefined
    /// and the joint watermark is held at 0 — no epochs close anywhere
    /// until both sides report progress, exactly like a stalled upstream
    /// in an event-time pipeline. Late splices still apply immediately.
    pub fn poll(&mut self) -> Result<JoinRunOf<J>, JoinError> {
        let cap = self.joint_watermark().unwrap_or(0);
        let mut run = JoinRunOf::<J>::empty();
        let left_runs = self.left.flush_bounded(cap)?;
        let events = self.left.take_events();
        self.apply_left_events(events, &mut run);
        let right_runs = self.right.flush_bounded(cap)?;
        let events = self.right.take_events();
        self.apply_right_events(events, &mut run);
        self.finish_run(left_runs, right_runs, run)
    }

    /// Drains all buffered records and closes every remaining epoch on
    /// both sides, ignoring the joint watermark (end-of-stream).
    pub fn close_all(&mut self) -> Result<JoinRunOf<J>, JoinError> {
        let mut run = JoinRunOf::<J>::empty();
        let left_runs = self.left.close_all()?;
        let events = self.left.take_events();
        self.apply_left_events(events, &mut run);
        let right_runs = self.right.close_all()?;
        let events = self.right.take_events();
        self.apply_right_events(events, &mut run);
        self.finish_run(left_runs, right_runs, run)
    }

    /// Retracts a closed epoch from the left window (upstream correction),
    /// removing its records' pairs from the view.
    pub fn retract_left(&mut self, epoch: u64) -> Result<JoinRunOf<J>, JoinError> {
        let side = self.left.retract_epoch(epoch)?;
        let events = self.left.take_events();
        let mut run = JoinRunOf::<J>::empty();
        self.apply_left_events(events, &mut run);
        self.finish_run(side.into_iter().collect(), Vec::new(), run)
    }

    /// Retracts a closed epoch from the right window.
    pub fn retract_right(&mut self, epoch: u64) -> Result<JoinRunOf<J>, JoinError> {
        let side = self.right.retract_epoch(epoch)?;
        let events = self.right.take_events();
        let mut run = JoinRunOf::<J>::empty();
        self.apply_right_events(events, &mut run);
        self.finish_run(Vec::new(), side.into_iter().collect(), run)
    }

    /// The joint watermark: `min` of the two sides' watermarks, `None`
    /// until both sides have one.
    pub fn joint_watermark(&self) -> Option<u64> {
        Some(self.left.watermark()?.min(self.right.watermark()?))
    }

    /// The materialized join view: per-key pair counts, weights, and
    /// checksums.
    pub fn view(&self) -> &BTreeMap<J::Key, JoinCell> {
        &self.view
    }

    /// Cumulative join-layer stats.
    pub fn stats(&self) -> JoinStats {
        self.stats
    }

    /// The left side's key → sorted in-window record list index.
    pub fn left_index(&self) -> &BTreeMap<J::Key, Vec<IndexRecord<J::Left>>> {
        self.left.output()
    }

    /// The right side's index.
    pub fn right_index(&self) -> &BTreeMap<J::Key, Vec<IndexRecord<J::Right>>> {
        self.right.output()
    }

    /// Event-time stats of the left feeder.
    pub fn left_event_stats(&self) -> EventTimeStats {
        self.left.stats()
    }

    /// Event-time stats of the right feeder.
    pub fn right_event_stats(&self) -> EventTimeStats {
        self.right.stats()
    }

    /// The left side's underlying windowed job (cache/fault inspection).
    pub fn left_job(&self) -> &WindowedJob<IndexApp<J::Left, J::Key>> {
        self.left.job()
    }

    /// The right side's underlying windowed job.
    pub fn right_job(&self) -> &WindowedJob<IndexApp<J::Right, J::Key>> {
        self.right.job()
    }

    /// All left records currently in-window, oldest first (from the
    /// feeder's journal retention).
    pub fn left_window(&self) -> Vec<IndexRecord<J::Left>> {
        self.left
            .retained_records()
            .map(|rs| rs.into_iter().map(|s| s.record.clone()).collect())
            .unwrap_or_default()
    }

    /// All right records currently in-window, oldest first.
    pub fn right_window(&self) -> Vec<IndexRecord<J::Right>> {
        self.right
            .retained_records()
            .map(|rs| rs.into_iter().map(|s| s.record.clone()).collect())
            .unwrap_or_default()
    }

    /// Computes the brute-force cross-product view of the *current*
    /// windows — the ground truth the incremental view must equal.
    pub fn reference_view(&self) -> BTreeMap<J::Key, JoinCell> {
        reference_view(&*self.app, &self.left_window(), &self.right_window())
    }

    // ---- internals ------------------------------------------------------

    fn apply_left_events(
        &mut self,
        events: Vec<FeedEvent<IndexRecord<J::Left>>>,
        run: &mut JoinRunOf<J>,
    ) {
        if events.is_empty() {
            return;
        }
        let app = Arc::clone(&self.app);
        let deltas = collect_deltas(events, |v| app.left_key(v), &mut run.stats);
        if deltas.is_empty() || self.config.mode == JoinMode::Recompute {
            return;
        }
        let shard_results = probe_deltas(
            &self.runtime,
            self.config.partitions,
            &deltas,
            self.right.output(),
        );
        self.apply_matches(shard_results, "left", run, |m| PairDelta {
            key: m.0,
            left: m.1,
            right: m.2,
            added: m.3,
        });
        run.stats.probes += deltas.len() as u64;
    }

    fn apply_right_events(
        &mut self,
        events: Vec<FeedEvent<IndexRecord<J::Right>>>,
        run: &mut JoinRunOf<J>,
    ) {
        if events.is_empty() {
            return;
        }
        let app = Arc::clone(&self.app);
        let deltas = collect_deltas(events, |v| app.right_key(v), &mut run.stats);
        if deltas.is_empty() || self.config.mode == JoinMode::Recompute {
            return;
        }
        let shard_results = probe_deltas(
            &self.runtime,
            self.config.partitions,
            &deltas,
            self.left.output(),
        );
        self.apply_matches(shard_results, "right", run, |m| PairDelta {
            key: m.0,
            left: m.2,
            right: m.1,
            added: m.3,
        });
        run.stats.probes += deltas.len() as u64;
    }

    /// Folds shard probe results into the view in shard order, emitting
    /// pair deltas and trace spans. `orient` maps a match back to
    /// (left, right) orientation.
    fn apply_matches<VD, VO>(
        &mut self,
        shard_results: ShardMatches<J::Key, VD, VO>,
        side: &str,
        run: &mut JoinRunOf<J>,
        orient: impl Fn(Match<J::Key, VD, VO>) -> PairDelta<J::Key, J::Left, J::Right>,
    ) {
        let mut shard_works = Vec::with_capacity(shard_results.len());
        let mut batch_work = 0u64;
        let (mut added_n, mut removed_n) = (0u64, 0u64);
        for (matches, work) in shard_results {
            shard_works.push(work);
            batch_work += work;
            for m in matches {
                let delta = orient(m);
                let weight =
                    self.app
                        .pair_weight(&delta.key, &delta.left.value, &delta.right.value);
                let hash = pair_hash(
                    &delta.key,
                    (delta.left.time, delta.left.seq),
                    (delta.right.time, delta.right.seq),
                );
                let mut emptied = false;
                {
                    let cell = self.view.entry(delta.key.clone()).or_default();
                    if delta.added {
                        cell.add(weight, hash);
                        added_n += 1;
                    } else {
                        cell.remove(weight, hash);
                        removed_n += 1;
                        emptied = cell.pairs == 0;
                    }
                }
                if emptied {
                    self.view.remove(&delta.key);
                }
                run.deltas.push(delta);
            }
        }
        run.stats.probe_work += batch_work;
        run.stats.pairs_added += added_n;
        run.stats.pairs_removed += removed_n;
        let advance = self.advance_seq;
        self.trace.with(|t| {
            let tr = t.track("join");
            let span = t.begin(tr, SpanKind::Join, format!("probe {side} #{advance}"));
            for (p, w) in shard_works.iter().enumerate() {
                if *w > 0 {
                    t.leaf(tr, SpanKind::Join, format!("probe shard {p}"), *w);
                }
            }
            t.arg(span, "work", batch_work);
            t.arg(span, "pairs_added", added_n);
            t.arg(span, "pairs_removed", removed_n);
            t.end(span);
            t.add("join.probe_work", batch_work);
            t.add("join.pairs_added", added_n);
            t.add("join.pairs_removed", removed_n);
        });
    }

    /// Recompute-mode view rebuild: shard the left index's keys, cross
    /// each key's record lists, and meter one work unit per indexed key
    /// plus one per pair enumerated.
    fn recompute_view(&mut self, run: &mut JoinRunOf<J>) {
        let (view, shard_works, total_work) = {
            let left_idx = self.left.output();
            let right_idx = self.right.output();
            let app = Arc::clone(&self.app);
            type KeyShard<'a, K, V> = Vec<(&'a K, &'a Vec<IndexRecord<V>>)>;
            let mut shards: Vec<KeyShard<'_, J::Key, J::Left>> =
                (0..self.config.partitions).map(|_| Vec::new()).collect();
            for (key, recs) in left_idx {
                shards[partition_of(key, self.config.partitions)].push((key, recs));
            }
            let results = self.runtime.map(&shards, |_, shard| {
                let mut cells = Vec::new();
                let mut work = 0u64;
                for &(key, lrecs) in shard {
                    work += 1;
                    let Some(rrecs) = right_idx.get(key) else {
                        continue;
                    };
                    let mut cell = JoinCell::default();
                    for l in lrecs.iter() {
                        for r in rrecs {
                            work += 1;
                            cell.add(
                                app.pair_weight(key, &l.value, &r.value),
                                pair_hash(key, (l.time, l.seq), (r.time, r.seq)),
                            );
                        }
                    }
                    if cell.pairs > 0 {
                        cells.push((key.clone(), cell));
                    }
                }
                (cells, work)
            });
            // One scan unit per right-side key (the recompute strawman
            // still has to look at every indexed key).
            let mut total = right_idx.len() as u64;
            let mut shard_works = Vec::with_capacity(results.len());
            let mut view = BTreeMap::new();
            for (cells, work) in results {
                shard_works.push(work);
                total += work;
                for (k, c) in cells {
                    view.insert(k, c);
                }
            }
            (view, shard_works, total)
        };
        self.view = view;
        run.stats.recompute_work += total_work;
        let advance = self.advance_seq;
        self.trace.with(|t| {
            let tr = t.track("join");
            let span = t.begin(tr, SpanKind::Join, format!("recompute #{advance}"));
            for (p, w) in shard_works.iter().enumerate() {
                if *w > 0 {
                    t.leaf(tr, SpanKind::Join, format!("recompute shard {p}"), *w);
                }
            }
            t.arg(span, "work", total_work);
            t.end(span);
            t.add("join.recompute_work", total_work);
        });
    }

    fn finish_run(
        &mut self,
        left_runs: Vec<RunStats>,
        right_runs: Vec<RunStats>,
        mut run: JoinRunOf<J>,
    ) -> Result<JoinRunOf<J>, JoinError> {
        run.side_runs = left_runs;
        run.side_runs.extend(right_runs);
        if self.config.mode == JoinMode::Recompute
            && (run.stats.steps > 0 || !run.side_runs.is_empty())
        {
            self.recompute_view(&mut run);
        }
        run.stats.side_work = run
            .side_runs
            .iter()
            .map(|r| r.work.foreground_total())
            .sum();
        let did_something = run.stats.steps > 0 || !run.side_runs.is_empty();
        if did_something {
            run.stats.advances = 1;
            self.advance_seq += 1;
            let (steps, probes) = (run.stats.steps, run.stats.probes);
            self.trace.with(|t| {
                t.add("join.advances", 1);
                t.add("join.steps", steps);
                t.add("join.probes", probes);
            });
        }
        self.stats.absorb(&run.stats);
        Ok(run)
    }
}

/// Turns feeder events into window deltas, preserving event order (and,
/// within an [`FeedEvent::EpochClosed`], evictions before insertions so a
/// record never double-counts against a pair that is leaving). Records
/// whose key extractor returns `None` are dropped here.
fn collect_deltas<K, V>(
    events: Vec<FeedEvent<IndexRecord<V>>>,
    key_of: impl Fn(&V) -> Option<K>,
    stats: &mut JoinStats,
) -> Vec<Delta<K, V>> {
    let mut deltas = Vec::new();
    let push = |deltas: &mut Vec<Delta<K, V>>, records: Vec<Stamped<IndexRecord<V>>>, added| {
        for s in records {
            if let Some(key) = key_of(&s.record.value) {
                deltas.push((key, s.record, added));
            }
        }
    };
    for event in events {
        stats.steps += 1;
        match event {
            FeedEvent::LateSplice { records, .. } => push(&mut deltas, records, true),
            FeedEvent::EpochClosed {
                inserted, evicted, ..
            } => {
                push(&mut deltas, evicted, false);
                push(&mut deltas, inserted, true);
            }
            FeedEvent::Retracted { records, .. } => push(&mut deltas, records, false),
        }
    }
    deltas
}

/// Probes `deltas` against the opposite side's index, sharded by
/// `partition_of(key)`. Each probe costs one index lookup plus one unit
/// per pair touched. Returns per-shard `(matches, work)` in shard order;
/// matches preserve delta order within a shard.
fn probe_deltas<K, VD, VO>(
    runtime: &Runtime,
    partitions: usize,
    deltas: &[Delta<K, VD>],
    opposite: &BTreeMap<K, Vec<IndexRecord<VO>>>,
) -> ShardMatches<K, VD, VO>
where
    K: Clone + Ord + Hash + Send + Sync,
    VD: Clone + Send + Sync,
    VO: Clone + Send + Sync,
{
    let mut shards: Vec<Vec<&Delta<K, VD>>> = (0..partitions).map(|_| Vec::new()).collect();
    for delta in deltas {
        shards[partition_of(&delta.0, partitions)].push(delta);
    }
    runtime.map(&shards, |_, shard| {
        let mut matches = Vec::new();
        let mut work = 0u64;
        for delta in shard {
            let (key, rec, added) = (&delta.0, &delta.1, delta.2);
            let entry = opposite.get(key).map(Vec::as_slice).unwrap_or(&[]);
            work += 1 + entry.len() as u64;
            for other in entry {
                matches.push((key.clone(), rec.clone(), other.clone(), added));
            }
        }
        (matches, work)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slider_mapreduce::TraceSnapshot;

    /// u32 ⋈ u32 on key = value % 4, weight = left + right.
    struct ModJoin;
    impl JoinApp for ModJoin {
        type Key = u32;
        type Left = u32;
        type Right = u32;
        fn left_key(&self, l: &u32) -> Option<u32> {
            Some(*l % 4)
        }
        fn right_key(&self, r: &u32) -> Option<u32> {
            Some(*r % 4)
        }
        fn pair_weight(&self, _key: &u32, l: &u32, r: &u32) -> u64 {
            u64::from(*l) + u64::from(*r)
        }
    }

    fn config() -> JoinConfig {
        JoinConfig::new(EventTimeConfig {
            epoch_len: 10,
            records_per_split: 4,
            window_epochs: Some(3),
            lateness: 5,
        })
        .with_partitions(3)
    }

    fn job(shared: &EngineShared) -> JoinedJob<ModJoin> {
        JoinedJob::new(ModJoin, config(), shared).expect("join builds")
    }

    fn feed(job: &mut JoinedJob<ModJoin>, upto: u64) -> Vec<JoinRunOf<ModJoin>> {
        // Left stream: value = time; right stream: value = 2 * time.
        let mut runs = Vec::new();
        for t in 0..upto {
            job.ingest_left([Stamped::new(t, t, u32::try_from(t).unwrap())]);
            job.ingest_right([Stamped::new(t, t, u32::try_from(2 * t).unwrap())]);
            if t % 7 == 0 {
                runs.push(job.poll().expect("poll"));
                // Every slide the incremental view must equal brute force.
                assert_eq!(job.view(), &job.reference_view());
            }
        }
        runs.push(job.poll().expect("poll"));
        assert_eq!(job.view(), &job.reference_view());
        runs
    }

    #[test]
    fn incremental_view_tracks_the_reference_on_every_slide() {
        let shared = EngineShared::builder().threads(2).build();
        let mut job = job(&shared);
        let runs = feed(&mut job, 70);
        assert!(!job.view().is_empty());
        let stats = job.stats();
        assert!(stats.pairs_added > 0, "pairs were added");
        assert!(stats.pairs_removed > 0, "evictions retracted pairs");
        assert!(stats.probe_work > 0);
        assert_eq!(stats.recompute_work, 0);
        assert!(stats.side_work > 0, "side index jobs did work");
        let delta_count: usize = runs.iter().map(|r| r.deltas.len()).sum();
        assert_eq!(
            delta_count as u64,
            stats.pairs_added + stats.pairs_removed,
            "every pair mutation was emitted as a delta"
        );
    }

    #[test]
    fn recompute_mode_reaches_the_same_view_with_more_work() {
        // Small slide fraction (1 epoch of a 10-epoch window): the regime
        // where delta probing must beat cross-product recomputation.
        let small_slide = JoinConfig::new(EventTimeConfig {
            epoch_len: 4,
            records_per_split: 4,
            window_epochs: Some(10),
            lateness: 2,
        })
        .with_partitions(3);
        let shared = EngineShared::builder().threads(2).build();
        let mut inc = JoinedJob::new(ModJoin, small_slide.clone(), &shared).expect("join builds");
        let mut rec = JoinedJob::new(ModJoin, small_slide.with_mode(JoinMode::Recompute), &shared)
            .expect("join builds");
        let mut rec_runs = Vec::new();
        for t in 0..200u64 {
            for job in [&mut inc, &mut rec] {
                job.ingest_left([Stamped::new(t, t, u32::try_from(t).unwrap())]);
                job.ingest_right([Stamped::new(t, t, u32::try_from(2 * t).unwrap())]);
            }
            if t % 4 == 3 {
                inc.poll().expect("poll");
                rec_runs.push(rec.poll().expect("poll"));
                assert_eq!(inc.view(), &inc.reference_view());
                assert_eq!(inc.view(), rec.view());
            }
        }
        assert!(rec_runs.iter().all(|r| r.deltas.is_empty()));
        assert!(rec.stats().recompute_work > inc.stats().probe_work);
        assert_eq!(rec.stats().probe_work, 0);
        assert_eq!(inc.stats().recompute_work, 0);
    }

    #[test]
    fn outputs_and_stats_are_bit_identical_across_thread_counts() {
        let mut snapshots = Vec::new();
        for threads in [1, 2, 4] {
            let shared = EngineShared::builder().threads(threads).build();
            let mut job = job(&shared);
            let runs = feed(&mut job, 50);
            let deltas: Vec<_> = runs.into_iter().flat_map(|r| r.deltas).collect();
            snapshots.push((
                format!("{:?}", job.view()),
                format!("{deltas:?}"),
                job.stats(),
            ));
        }
        assert_eq!(snapshots[0], snapshots[1]);
        assert_eq!(snapshots[1], snapshots[2]);
    }

    #[test]
    fn an_idle_side_holds_the_joint_watermark_back() {
        let shared = EngineShared::builder().build();
        let mut job = job(&shared);
        job.ingest_left((0..40).map(|t| Stamped::new(t, t, u32::try_from(t).unwrap())));
        assert_eq!(job.joint_watermark(), None);
        let run = job.poll().expect("poll");
        assert!(run.is_empty(), "no epochs close while one side is idle");
        assert!(job.view().is_empty());
        // The idle side wakes up: both sides now advance together.
        job.ingest_right((0..40).map(|t| Stamped::new(t, t, u32::try_from(t).unwrap())));
        assert_eq!(job.joint_watermark(), Some(34));
        let run = job.poll().expect("poll");
        assert!(!run.is_empty());
        assert_eq!(job.view(), &job.reference_view());
    }

    #[test]
    fn close_all_drains_both_sides() {
        let shared = EngineShared::builder().build();
        let mut job = job(&shared);
        job.ingest_left([Stamped::new(3, 0, 5u32)]);
        job.ingest_right([Stamped::new(4, 0, 9u32)]);
        let run = job.close_all().expect("close_all");
        assert_eq!(run.stats.pairs_added, 1, "5 % 4 == 9 % 4 == 1 matches");
        assert_eq!(job.view()[&1].pairs, 1);
        assert_eq!(job.view()[&1].weight, 14);
        assert_eq!(job.view(), &job.reference_view());
    }

    #[test]
    fn retraction_removes_an_epochs_pairs() {
        let shared = EngineShared::builder().build();
        let mut job = job(&shared);
        job.ingest_left([Stamped::new(1, 0, 1u32), Stamped::new(11, 1, 5u32)]);
        job.ingest_right([Stamped::new(2, 0, 9u32), Stamped::new(12, 1, 13u32)]);
        job.close_all().expect("close_all");
        assert_eq!(job.view()[&1].pairs, 4);
        let run = job.retract_left(1).expect("retract");
        assert_eq!(
            run.stats.pairs_removed, 2,
            "epoch 1's left record left 2 pairs"
        );
        assert_eq!(job.view()[&1].pairs, 2);
        assert_eq!(job.view(), &job.reference_view());
    }

    #[test]
    fn join_trace_reconciles_with_join_stats() {
        let trace = TraceSink::enabled();
        let shared = EngineShared::builder()
            .threads(2)
            .trace(trace.clone())
            .build();
        let mut job = job(&shared);
        feed(&mut job, 60);
        let stats = job.stats();
        let snap: TraceSnapshot = trace.snapshot().expect("trace enabled");
        assert_eq!(
            snap.counter("join.probe_work"),
            stats.probe_work,
            "probe_work counter reconciles"
        );
        assert_eq!(snap.counter("join.pairs_added"), stats.pairs_added);
        assert_eq!(snap.counter("join.pairs_removed"), stats.pairs_removed);
        assert_eq!(snap.counter("join.advances"), stats.advances);
        assert_eq!(snap.counter("join.steps"), stats.steps);
        assert_eq!(snap.counter("join.probes"), stats.probes);
        assert_eq!(
            snap.work_total("join", SpanKind::Join, None),
            stats.probe_work,
            "span leaves reconcile with modeled probe work"
        );
    }

    #[test]
    fn sides_get_distinct_cache_namespaces() {
        let shared = EngineShared::builder()
            .cache(slider_dcache::CacheConfig::paper_defaults(2))
            .build();
        let job = job(&shared);
        assert_ne!(
            job.left_job().cache_namespace(),
            job.right_job().cache_namespace()
        );
    }

    #[test]
    fn zero_partitions_is_rejected() {
        let shared = EngineShared::builder().build();
        let bad = config().with_partitions(0);
        let err = JoinedJob::new(ModJoin, bad, &shared)
            .err()
            .expect("rejected");
        assert!(matches!(err, JoinError::BadConfig(_)));
        assert!(err.to_string().contains("partitions"));
    }
}
