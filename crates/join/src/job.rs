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
//! each shard and executed via [`Runtime::map`] (results in input order).
//! A shard copies no pair: for each delta whose key the opposite index
//! holds, it returns the delta's position and a borrowed handle to that
//! key's [`IndexSeq`]. The control thread folds the shards in shard order.
//! It walks each handle in window order, writing one [`PairDelta`] per
//! pair and summing the pairs' weights and checksums, then updates the
//! delta's view cell once. A pair's [`pair_hash`](crate::pair_hash)
//! extends a hash state kept per delta (the key and, for a left delta, its
//! own stamp) instead of starting over. The emitted [`PairDelta`] list,
//! the view, and every [`JoinStats`] field are bit-identical at any thread
//! count.

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
use crate::seq::IndexSeq;
use crate::stats::{DeltaHash, JoinCell, JoinStats, PairDelta};

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
}

/// Errors from building or driving a [`JoinedJob`].
#[derive(Debug)]
pub enum JoinError {
    /// An underlying side-index job failed, or rejected the join's
    /// configuration when it was built.
    Job(JobError),
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinError::Job(e) => write!(f, "side-index job error: {e}"),
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
    /// Pair-level join-result deltas, in deterministic application order:
    /// the left side's probes, then the right side's; within a side, probe
    /// shards in shard order, a shard's delta records in feeder order, and
    /// one delta record's pairs in the opposite index's window order (see
    /// [`JoinedJob::left_index`]). Empty in [`JoinMode::Recompute`].
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

/// One probe shard's output: `(handles, modeled work)`. A handle is a delta
/// that found a non-empty opposite sequence under its key, as the delta's
/// position in the delta list and that sequence; handles keep delta order.
type ShardProbe<'a, V> = (Vec<(usize, &'a IndexSeq<V>)>, u64);

/// One side's probe, folded: per-shard work in shard order, and the pairs
/// it added and removed.
struct ProbeFold {
    shard_works: Vec<u64>,
    added: u64,
    removed: u64,
}

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
    ///
    /// # Errors
    ///
    /// [`JoinError::Job`] when a side's [`WindowedJob::with_shared`]
    /// would reject its configuration (zero partitions, or a fault plan
    /// naming a cache node or partition the side does not have) or when
    /// [`EventFeeder::new`] would reject the event-time config. Both sides
    /// and the event-time config are checked before either side is built,
    /// so a rejected join allocates no cache namespace.
    pub fn new(app: J, config: JoinConfig, shared: &EngineShared) -> Result<Self, JoinError> {
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
        let left_config = side_config(&config.left_faults);
        let right_config = side_config(&config.right_faults);
        left_config.validate_shared(&left_app, shared)?;
        right_config.validate_shared(&right_app, shared)?;
        config.event.validate()?;
        let left_job = WindowedJob::with_shared(left_app, left_config, shared)?;
        let right_job = WindowedJob::with_shared(right_app, right_config, shared)?;
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

    /// The left side's index: each key's in-window records in window
    /// order — epochs oldest first; inside an epoch, the on-time records
    /// by `(time, seq)`, then each late splice's records. A key's records
    /// are those of [`left_window`](Self::left_window) under that key, in
    /// the same order.
    pub fn left_index(&self) -> &BTreeMap<J::Key, IndexSeq<J::Left>> {
        self.left.output()
    }

    /// The right side's index, ordered like [`left_index`](Self::left_index).
    pub fn right_index(&self) -> &BTreeMap<J::Key, IndexSeq<J::Right>> {
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

    /// All left records currently in-window, in window order (from the
    /// feeder's journal retention): epochs oldest first; inside an epoch,
    /// the on-time records by `(time, seq)`, then each late splice's
    /// records.
    pub fn left_window(&self) -> Vec<IndexRecord<J::Left>> {
        self.left
            .retained_records()
            .map(|rs| rs.into_iter().map(|s| s.record.clone()).collect())
            .unwrap_or_default()
    }

    /// All right records currently in-window, in window order.
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
        let probes = probe_deltas(
            &self.runtime,
            self.config.partitions,
            &deltas,
            self.right.output(),
        );
        let fold = fold_probes(
            &*self.app,
            &mut self.view,
            &deltas,
            probes,
            DeltaHash::left,
            |key, left, right, added| PairDelta {
                key,
                left,
                right,
                added,
            },
            &mut run.deltas,
        );
        self.record_probe("left", &fold, run);
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
        let probes = probe_deltas(
            &self.runtime,
            self.config.partitions,
            &deltas,
            self.left.output(),
        );
        let fold = fold_probes(
            &*self.app,
            &mut self.view,
            &deltas,
            probes,
            DeltaHash::right,
            |key, right, left, added| PairDelta {
                key,
                left,
                right,
                added,
            },
            &mut run.deltas,
        );
        self.record_probe("right", &fold, run);
        run.stats.probes += deltas.len() as u64;
    }

    /// Adds one side's folded probe to the run's stats and emits its trace
    /// span, with one work leaf per shard that did work.
    fn record_probe(&self, side: &str, fold: &ProbeFold, run: &mut JoinRunOf<J>) {
        let work: u64 = fold.shard_works.iter().sum();
        run.stats.probe_work += work;
        run.stats.pairs_added += fold.added;
        run.stats.pairs_removed += fold.removed;
        let advance = self.advance_seq;
        self.trace.with(|t| {
            let tr = t.track("join");
            let span = t.begin(tr, SpanKind::Join, format!("probe {side} #{advance}"));
            for (p, w) in fold.shard_works.iter().enumerate() {
                if *w > 0 {
                    t.leaf(tr, SpanKind::Join, format!("probe shard {p}"), *w);
                }
            }
            t.arg(span, "work", work);
            t.arg(span, "pairs_added", fold.added);
            t.arg(span, "pairs_removed", fold.removed);
            t.end(span);
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
            type KeyShard<'a, K, V> = Vec<(&'a K, &'a IndexSeq<V>)>;
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
                        let kept = DeltaHash::left(key, (l.time, l.seq));
                        for r in rrecs.iter() {
                            work += 1;
                            cell.add(
                                app.pair_weight(key, &l.value, &r.value),
                                kept.pair((r.time, r.seq)),
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
        }
        self.stats.absorb(&run.stats);
        self.trace.with(|t| run.stats.trace_counters(t));
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
/// per pair it finds. Returns each shard's handles and work, in shard
/// order; copying the pairs out is left to [`fold_probes`].
fn probe_deltas<'a, K, VD, VO>(
    runtime: &Runtime,
    partitions: usize,
    deltas: &[Delta<K, VD>],
    opposite: &'a BTreeMap<K, IndexSeq<VO>>,
) -> Vec<ShardProbe<'a, VO>>
where
    K: Ord + Hash + Sync,
    VD: Sync,
    VO: Send + Sync,
{
    let mut shards: Vec<Vec<usize>> = (0..partitions).map(|_| Vec::new()).collect();
    for (i, delta) in deltas.iter().enumerate() {
        shards[partition_of(&delta.0, partitions)].push(i);
    }
    runtime.map(&shards, |_, shard| {
        let mut handles = Vec::with_capacity(shard.len());
        let mut work = 0u64;
        for &i in shard {
            work += 1;
            let Some(seq) = opposite.get(&deltas[i].0) else {
                continue;
            };
            work += seq.len() as u64;
            if !seq.is_empty() {
                handles.push((i, seq));
            }
        }
        (handles, work)
    })
}

/// Folds one side's probe into the view, walking the shards in order.
///
/// Each handle's pairs are written to `out` in the opposite sequence's
/// window order, oriented by `orient(key, delta record, opposite record,
/// added)`; their weights and [`pair_hash`](crate::pair_hash)es, from the
/// delta's `kept` hash state, sum in a local [`JoinCell`] that updates the
/// delta's view cell once. A removal that empties the cell deletes it.
fn fold_probes<J: JoinApp, VD: Clone, VO: Clone>(
    app: &J,
    view: &mut BTreeMap<J::Key, JoinCell>,
    deltas: &[Delta<J::Key, VD>],
    probes: Vec<ShardProbe<'_, VO>>,
    kept: impl Fn(&J::Key, (u64, u64)) -> DeltaHash,
    orient: impl Fn(
        J::Key,
        IndexRecord<VD>,
        IndexRecord<VO>,
        bool,
    ) -> PairDelta<J::Key, J::Left, J::Right>,
    out: &mut Vec<PairDelta<J::Key, J::Left, J::Right>>,
) -> ProbeFold {
    let pairs = probes
        .iter()
        .flat_map(|(handles, _)| handles)
        .map(|(_, seq)| seq.len())
        .sum();
    out.reserve(pairs);
    let mut fold = ProbeFold {
        shard_works: Vec::with_capacity(probes.len()),
        added: 0,
        removed: 0,
    };
    // One walk stack serves every probed sequence.
    let mut stack = Vec::new();
    for (handles, work) in probes {
        fold.shard_works.push(work);
        for (i, seq) in handles {
            let (key, rec, added) = &deltas[i];
            let hash = kept(key, (rec.time, rec.seq));
            let mut sum = JoinCell::default();
            let mut runs = seq.runs_with(stack);
            for run in &mut runs {
                for other in run {
                    let pair = orient(key.clone(), rec.clone(), other.clone(), *added);
                    sum.add(
                        app.pair_weight(&pair.key, &pair.left.value, &pair.right.value),
                        hash.pair((other.time, other.seq)),
                    );
                    out.push(pair);
                }
            }
            stack = runs.into_stack();
            let cell = view.entry(key.clone()).or_default();
            if *added {
                cell.add_all(&sum);
                fold.added += sum.pairs;
            } else {
                cell.remove_all(&sum);
                fold.removed += sum.pairs;
                if cell.pairs == 0 {
                    view.remove(key);
                }
            }
        }
    }
    fold
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
    fn join_counters_equal_join_stats_after_a_failed_right_run() {
        // The plan fails the right side's run #3 after the same poll has
        // already probed the left side's events.
        let trace = TraceSink::enabled();
        let shared = EngineShared::builder()
            .cache(slider_dcache::CacheConfig::paper_defaults(2))
            .trace(trace.clone())
            .build();
        let plan = JobFaultPlan::none().fail_run(3);
        let mut job = JoinedJob::new(ModJoin, config().with_right_faults(plan), &shared)
            .expect("join builds");
        let mut failed = false;
        for t in 0..200u64 {
            job.ingest_left([Stamped::new(t, t, u32::try_from(t).unwrap())]);
            job.ingest_right([Stamped::new(t, t, u32::try_from(2 * t).unwrap())]);
            if t % 7 == 0 && job.poll().is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "the right side's run #3 must fail");
        let stats = job.stats();
        assert!(stats.probe_work > 0, "earlier polls probed");
        let snap = trace.snapshot().expect("trace enabled");
        for (name, value) in [
            ("join.advances", stats.advances),
            ("join.steps", stats.steps),
            ("join.probes", stats.probes),
            ("join.pairs_added", stats.pairs_added),
            ("join.pairs_removed", stats.pairs_removed),
            ("join.probe_work", stats.probe_work),
            ("join.recompute_work", stats.recompute_work),
        ] {
            assert_eq!(snap.counter(name), value, "counter {name}");
        }
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
        let shared = EngineShared::builder()
            .cache(slider_dcache::CacheConfig::paper_defaults(2))
            .build();
        let bad = config().with_partitions(0);
        let err = JoinedJob::new(ModJoin, bad, &shared)
            .err()
            .expect("rejected");
        assert!(matches!(err, JoinError::Job(JobError::BadConfig(_))));
        assert!(err.to_string().contains("partitions"));
        // The rejected join used up no cache namespace.
        let job = job(&shared);
        assert_eq!(job.left_job().cache_namespace(), 1);
        assert_eq!(job.right_job().cache_namespace(), 2);
    }

    #[test]
    fn a_join_rejected_for_its_right_side_uses_no_namespace() {
        let shared = EngineShared::builder()
            .cache(slider_dcache::CacheConfig::paper_defaults(2))
            .build();
        let bad = config().with_right_faults(JobFaultPlan::none().fail_cache_node(1, 99));
        let err = JoinedJob::new(ModJoin, bad, &shared)
            .err()
            .expect("rejected");
        assert!(
            matches!(err, JoinError::Job(JobError::BadConfig(_))),
            "{err}"
        );
        assert_eq!(shared.namespace_watermark(), 1);
    }

    #[test]
    fn a_join_rejected_for_its_event_time_config_uses_no_namespace() {
        let shared = EngineShared::builder()
            .cache(slider_dcache::CacheConfig::paper_defaults(2))
            .build();
        let mut bad = config();
        bad.event.epoch_len = 0;
        let err = JoinedJob::new(ModJoin, bad, &shared)
            .err()
            .expect("rejected");
        assert!(
            matches!(err, JoinError::Job(JobError::BadConfig(_))),
            "{err}"
        );
        assert_eq!(shared.namespace_watermark(), 1);
    }
}
