//! `EventFeeder`: event-time window management — watermarks, a bounded
//! reorder buffer, and late-record routing on top of [`WindowedJob`]'s
//! interior splice operations.
//!
//! Streams deliver records out of window order. This feeder stamps every
//! record with an *event time* ([`Stamped`]), buffers open epochs in a
//! reorder buffer, and only closes an epoch — one bulk
//! [`WindowedJob::advance`] — once the **watermark** (the highest event
//! time seen, minus the configured lateness bound) has passed it. Records
//! disordered within the lateness bound are therefore absorbed entirely by
//! the buffer: the resulting runs are *bit-identical* to the runs an
//! in-order stream would produce, for any thread count. Closed batches of
//! varying size (a week of uploads, §8.3) are the in-order case: one epoch
//! per batch, lateness 0, and [`EventFeeder::close_all`] after each batch.
//!
//! Records that arrive *below* the watermark are late. If their epoch is
//! still inside the window they are admitted through
//! [`WindowedJob::insert_splits_at`], which splices them into the interior
//! of the window at their epoch's position; if the epoch has already been
//! evicted they are dropped and counted ([`EventTimeStats::late_dropped`]).
//! Whole in-window epochs can likewise be retracted with
//! [`EventFeeder::retract_epoch`], a bulk interior eviction via
//! [`WindowedJob::evict_splits_range`].

use std::collections::{BTreeMap, VecDeque};

use crate::app::MapReduceApp;
use crate::error::JobError;
use crate::shared::EngineShared;
use crate::split::make_splits;
use crate::stats::RunStats;
use crate::windowed::{JobCheckpoint, WindowedJob};

/// A stream record stamped with its event time and a sequence number.
///
/// `time` places the record in an epoch (`time / epoch_len`); `(time, seq)`
/// orders records *within* an epoch when it closes, so the splits an epoch
/// produces depend only on which records were ingested — never on their
/// arrival order. Callers should keep `(time, seq)` unique per record
/// (a generator-assigned sequence number does it); ties are broken
/// arbitrarily.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamped<R> {
    /// Event time, in the stream's logical time unit.
    pub time: u64,
    /// Tiebreak between records with equal event times.
    pub seq: u64,
    /// The record handed to the Map phase.
    pub record: R,
}

impl<R> Stamped<R> {
    /// Stamps `record` with `time` and `seq`.
    pub fn new(time: u64, seq: u64, record: R) -> Self {
        Stamped { time, seq, record }
    }

    /// The epoch this record belongs to under `epoch_len`.
    fn epoch(&self, epoch_len: u64) -> u64 {
        self.time / epoch_len
    }
}

/// Event-time configuration for an [`EventFeeder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventTimeConfig {
    /// Width of one epoch in event-time units. An epoch `e` covers times
    /// `[e * epoch_len, (e + 1) * epoch_len)` and closes as one window
    /// advance.
    pub epoch_len: u64,
    /// Records per split when an epoch closes (the last split of an epoch
    /// may be shorter).
    pub records_per_split: usize,
    /// Window size in epochs; `None` = append-only (epochs never leave).
    pub window_epochs: Option<usize>,
    /// Allowed lateness, in event-time units: the watermark trails the
    /// highest event time seen by this much. Records disordered by at most
    /// this bound are reordered transparently; anything later takes the
    /// late path (interior splice or drop).
    pub lateness: u64,
}

impl EventTimeConfig {
    /// Checks the configuration as [`EventFeeder::new`] does, for callers
    /// that must reject it before they build the job it would wrap.
    ///
    /// # Errors
    ///
    /// [`JobError::BadConfig`] for a zero `epoch_len` or
    /// `records_per_split`, or a window of zero epochs.
    pub fn validate(&self) -> Result<(), JobError> {
        if self.epoch_len == 0 {
            return Err(JobError::BadConfig("epoch_len must be positive".into()));
        }
        if self.records_per_split == 0 {
            return Err(JobError::BadConfig(
                "records_per_split must be positive".into(),
            ));
        }
        if self.window_epochs == Some(0) {
            return Err(JobError::BadConfig(
                "a window must hold at least one epoch".into(),
            ));
        }
        Ok(())
    }
}

/// One structural change an [`EventFeeder`] applied to its wrapped job,
/// reported through the optional journal
/// ([`EventFeeder::enable_journal`]). Two-input operators (slider-join's
/// `JoinedJob`) consume these to learn exactly which records entered and
/// left the window — the deltas they probe the opposite side's index with
/// — without re-deriving the feeder's close/evict/splice decisions.
///
/// Events are appended in application order; that order is a valid
/// sequential maintenance schedule (each event saw every earlier event
/// applied), which is what makes delta joins exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedEvent<R> {
    /// Late records spliced into the interior of still-in-window `epoch`,
    /// sorted by `(time, seq)`.
    LateSplice {
        /// The epoch the records joined.
        epoch: u64,
        /// The admitted records.
        records: Vec<Stamped<R>>,
    },
    /// `epoch` closed as one bulk advance, possibly evicting the oldest
    /// window epoch.
    EpochClosed {
        /// The closed epoch.
        epoch: u64,
        /// Records the close appended, sorted by `(time, seq)`.
        inserted: Vec<Stamped<R>>,
        /// Epoch evicted from the window front, if the window was full.
        evicted_epoch: Option<u64>,
        /// Every record the evicted epoch held (close-time records plus
        /// any late splices it absorbed).
        evicted: Vec<Stamped<R>>,
    },
    /// A still-in-window epoch was retracted ([`EventFeeder::retract_epoch`]).
    Retracted {
        /// The retracted epoch.
        epoch: u64,
        /// Every record it held.
        records: Vec<Stamped<R>>,
    },
}

/// Journal state: the pending event log plus a per-epoch copy of every
/// record still inside the window (the source of `evicted` / `records`
/// payloads above). Memory is bounded by the window size.
#[derive(Debug, Clone)]
struct Journal<R> {
    events: Vec<FeedEvent<R>>,
    retained: BTreeMap<u64, Vec<Stamped<R>>>,
}

impl<R> Journal<R> {
    fn new() -> Self {
        Journal {
            events: Vec::new(),
            retained: BTreeMap::new(),
        }
    }
}

/// Counters describing an [`EventFeeder`]'s late-data handling. All fields
/// are determined by the ingested records' stamps and the flush chunking —
/// never by thread count or wall-clock timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventTimeStats {
    /// Records accepted into the reorder buffer or the late path.
    pub ingested: u64,
    /// Late records admitted into a still-in-window epoch via an interior
    /// splice.
    pub late_admitted: u64,
    /// Late records dropped because their epoch already left the window.
    pub late_dropped: u64,
    /// Epochs closed (empty gap epochs included).
    pub epochs_closed: u64,
    /// Epochs evicted from the front of a full window.
    pub epochs_evicted: u64,
    /// Interior splice runs executed (late insertions and retractions).
    pub splice_runs: u64,
}

/// One closed epoch still inside the window.
#[derive(Debug, Clone, Copy)]
struct WindowEpoch {
    epoch: u64,
    splits: usize,
}

/// A feeder's event-time bookkeeping: everything it changes apart from
/// the wrapped job. No field holds an engine handle, so a clone is a
/// self-contained checkpoint.
#[derive(Debug, Clone)]
struct FeederState<R> {
    config: EventTimeConfig,
    /// Reorder buffer: records of still-open epochs, keyed by epoch.
    pending: BTreeMap<u64, Vec<Stamped<R>>>,
    /// Late records awaiting their interior splice, keyed by (in-window)
    /// epoch.
    late: BTreeMap<u64, Vec<Stamped<R>>>,
    /// Closed epochs currently in the window, oldest first.
    window: VecDeque<WindowEpoch>,
    /// All epochs below this index are closed.
    next_open_epoch: u64,
    /// Highest event time ingested, if any.
    max_time: Option<u64>,
    next_split_id: u64,
    stats: EventTimeStats,
    /// Optional structural-change journal (see
    /// [`EventFeeder::enable_journal`]). `None` = disabled, zero cost.
    journal: Option<Journal<R>>,
}

impl<R> FeederState<R> {
    /// The state of a feeder that has seen no record yet.
    fn new(config: EventTimeConfig) -> Self {
        FeederState {
            config,
            pending: BTreeMap::new(),
            late: BTreeMap::new(),
            window: VecDeque::new(),
            next_open_epoch: 0,
            max_time: None,
            next_split_id: 0,
            stats: EventTimeStats::default(),
            journal: None,
        }
    }

    /// Records buffered in still-open epochs.
    fn buffered_records(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }
}

/// Deep checkpoint of an [`EventFeeder`]: the wrapped job's
/// [`JobCheckpoint`] plus a clone of all event-time bookkeeping — the
/// reorder buffer, queued late records, closed-epoch window map, watermark
/// inputs, split-id counter and stats. Like a job checkpoint it is a value:
/// restoring borrows it, so one capture can seed any number of resumed
/// twins.
pub struct FeederCheckpoint<A: MapReduceApp> {
    job: JobCheckpoint<A>,
    state: FeederState<A::Input>,
}

impl<A: MapReduceApp> FeederCheckpoint<A> {
    /// The wrapped job's checkpoint.
    #[must_use]
    pub fn job(&self) -> &JobCheckpoint<A> {
        &self.job
    }

    /// Records captured in still-open epochs (the reorder buffer).
    #[must_use]
    pub fn buffered_records(&self) -> usize {
        self.state.buffered_records()
    }

    /// The captured late-data counters.
    #[must_use]
    pub fn stats(&self) -> EventTimeStats {
        self.state.stats
    }
}

impl<A: MapReduceApp> Clone for FeederCheckpoint<A> {
    fn clone(&self) -> Self {
        FeederCheckpoint {
            job: self.job.clone(),
            state: self.state.clone(),
        }
    }
}

/// Feeds an event-time stream into a windowed job: reorder buffering up to
/// the watermark, bulk epoch closes, and late-record splices. See the
/// module docs for the semantics.
#[derive(Debug)]
pub struct EventFeeder<A: MapReduceApp> {
    job: WindowedJob<A>,
    /// Everything the feeder changes besides the job. A checkpoint is a
    /// clone of it.
    state: FeederState<A::Input>,
}

impl<A: MapReduceApp> EventFeeder<A> {
    /// Wraps `job` with event-time ingestion under `config`.
    ///
    /// # Errors
    ///
    /// [`JobError::BadConfig`] for a zero epoch length, zero split size, or
    /// a zero-epoch window.
    pub fn new(job: WindowedJob<A>, config: EventTimeConfig) -> Result<Self, JobError> {
        Self::attach(job, FeederState::new(config))
    }

    /// Wraps `job` around `state`: the step fresh construction
    /// ([`EventFeeder::new`]) and restore
    /// ([`EventFeeder::restore_with_shared`]) share.
    fn attach(job: WindowedJob<A>, state: FeederState<A::Input>) -> Result<Self, JobError> {
        state.config.validate()?;
        Ok(EventFeeder { job, state })
    }

    /// Turns on the structural-change journal: from now on every epoch
    /// close, late splice and retraction appends a [`FeedEvent`] (drained
    /// with [`EventFeeder::take_events`]), and the feeder retains a copy of
    /// every in-window record so eviction events can report exactly which
    /// records left. Enable *before* the first flush — epochs closed
    /// earlier were not retained and would report empty evictions.
    pub fn enable_journal(&mut self) {
        if self.state.journal.is_none() {
            self.state.journal = Some(Journal::new());
        }
    }

    /// Whether the journal is recording.
    pub fn journal_enabled(&self) -> bool {
        self.state.journal.is_some()
    }

    /// Drains the journal's pending events (empty when disabled).
    pub fn take_events(&mut self) -> Vec<FeedEvent<A::Input>> {
        self.state
            .journal
            .as_mut()
            .map(|j| std::mem::take(&mut j.events))
            .unwrap_or_default()
    }

    /// Every record currently inside the window, in window order: epochs
    /// oldest first; inside an epoch, the records it closed with, sorted
    /// by `(time, seq)`, then each late splice's records in splice order.
    /// A late record thus follows its epoch's on-time records even when
    /// its stamp precedes theirs. `None` when the journal is disabled.
    pub fn retained_records(&self) -> Option<Vec<&Stamped<A::Input>>> {
        self.state
            .journal
            .as_ref()
            .map(|j| j.retained.values().flatten().collect())
    }

    /// Buffers `records` without running the job: on-time records join
    /// their epoch in the reorder buffer; records below the watermark whose
    /// epoch is still in the window queue for a late splice; anything older
    /// is dropped and counted. Call [`EventFeeder::flush`] to apply.
    pub fn ingest(&mut self, records: impl IntoIterator<Item = Stamped<A::Input>>) {
        for record in records {
            self.state.stats.ingested += 1;
            self.state.max_time = self.state.max_time.max(Some(record.time));
            let epoch = record.epoch(self.state.config.epoch_len);
            if epoch >= self.state.next_open_epoch {
                self.state.pending.entry(epoch).or_default().push(record);
            } else if self.state.window.iter().any(|w| w.epoch == epoch) {
                self.state.stats.late_admitted += 1;
                self.state.late.entry(epoch).or_default().push(record);
            } else {
                self.state.stats.late_dropped += 1;
            }
        }
    }

    /// Applies everything the stream has made ready: queued late records
    /// are spliced into their epochs' interior positions, then every epoch
    /// the watermark has passed closes as one bulk advance (evicting the
    /// oldest epoch once the window is full). Returns the stats of every
    /// run executed, in order.
    ///
    /// # Errors
    ///
    /// Propagates the first [`JobError`]; runs already executed remain
    /// applied (a flush is not atomic), and their bookkeeping is intact. A
    /// run the job's mode rejects is refused before its records leave the
    /// buffer, so they stay queued and no counter moves.
    pub fn flush(&mut self) -> Result<Vec<RunStats>, JobError> {
        self.flush_bounded(u64::MAX)
    }

    /// Like [`EventFeeder::flush`], but closes only epochs that *both* this
    /// feeder's own watermark and `watermark_cap` have passed. Queued late
    /// records still splice unconditionally (their epochs already closed).
    ///
    /// This is the joint-watermark primitive: a two-input operator calls it
    /// with the minimum of its sides' watermarks, so neither side's window
    /// advances past what the slower stream has confirmed.
    ///
    /// # Errors
    ///
    /// Propagates the first [`JobError`] (see [`EventFeeder::flush`]).
    pub fn flush_bounded(&mut self, watermark_cap: u64) -> Result<Vec<RunStats>, JobError> {
        let mut runs = Vec::new();
        self.apply_late(&mut runs)?;
        let Some(watermark) = self.watermark().map(|w| w.min(watermark_cap)) else {
            return Ok(runs);
        };
        // First epoch the watermark has NOT fully passed: `e` is ripe
        // exactly when `(e + 1) * epoch_len <= watermark`.
        let horizon = watermark / self.state.config.epoch_len;
        while self.state.next_open_epoch < horizon {
            let epoch = self.state.next_open_epoch;
            if !self.state.pending.contains_key(&epoch) && self.state.window.is_empty() {
                // Dead region: nothing to add and nothing a close could
                // evict. Fast-forward to the next epoch with records (or
                // the horizon) instead of burning one iteration per epoch
                // of a large time gap.
                let jump = self
                    .state
                    .pending
                    .keys()
                    .next()
                    .map_or(horizon, |&next| next.min(horizon));
                self.state.stats.epochs_closed += jump - epoch;
                self.state.next_open_epoch = jump;
                continue;
            }
            self.close_epoch(epoch, &mut runs)?;
        }
        Ok(runs)
    }

    /// Force-closes every buffered epoch regardless of the watermark (end
    /// of stream), after applying queued late records.
    ///
    /// # Errors
    ///
    /// Propagates the first [`JobError`] (see [`EventFeeder::flush`]).
    pub fn close_all(&mut self) -> Result<Vec<RunStats>, JobError> {
        let mut runs = Vec::new();
        self.apply_late(&mut runs)?;
        while let Some((&epoch, _)) = self.state.pending.iter().next() {
            // Empty gap epochs between closed data need no runs here: with
            // no further stream there is nothing left to age out.
            self.state.stats.epochs_closed += epoch.saturating_sub(self.state.next_open_epoch);
            self.state.next_open_epoch = self.state.next_open_epoch.max(epoch);
            self.close_epoch(epoch, &mut runs)?;
        }
        Ok(runs)
    }

    /// Retracts a closed, still-in-window epoch: its splits leave the
    /// window's interior in one bulk splice
    /// ([`WindowedJob::evict_splits_range`]). Returns `Ok(None)` if the
    /// epoch is not in the window (nothing to retract), or if it
    /// contributed no splits.
    ///
    /// # Errors
    ///
    /// Propagates [`JobError`] from the underlying job (e.g. a mode with no
    /// interior evictions).
    pub fn retract_epoch(&mut self, epoch: u64) -> Result<Option<RunStats>, JobError> {
        let Some(index) = self.state.window.iter().position(|w| w.epoch == epoch) else {
            return Ok(None);
        };
        let at: usize = self.state.window.iter().take(index).map(|w| w.splits).sum();
        let count = self.state.window[index].splits;
        let stats = if count > 0 {
            let stats = self.job.evict_splits_range(at, count)?;
            self.state.stats.splice_runs += 1;
            Some(stats)
        } else {
            None
        };
        self.state.window.remove(index);
        // Anything queued as late for the retracted epoch is now homeless.
        if let Some(dropped) = self.state.late.remove(&epoch) {
            self.state.stats.late_admitted -= dropped.len() as u64;
            self.state.stats.late_dropped += dropped.len() as u64;
        }
        if let Some(journal) = self.state.journal.as_mut() {
            let records = journal.retained.remove(&epoch).unwrap_or_default();
            journal.events.push(FeedEvent::Retracted { epoch, records });
        }
        Ok(stats)
    }

    /// The current watermark (highest event time seen minus the lateness
    /// bound), or `None` before the first record.
    pub fn watermark(&self) -> Option<u64> {
        self.state
            .max_time
            .map(|t| t.saturating_sub(self.state.config.lateness))
    }

    /// The job's current output.
    pub fn output(&self) -> &BTreeMap<A::Key, A::Output> {
        self.job.output()
    }

    /// This feeder's late-data counters.
    pub fn stats(&self) -> EventTimeStats {
        self.state.stats
    }

    /// Closed epochs currently in the window, oldest first.
    pub fn window_epochs(&self) -> Vec<u64> {
        self.state.window.iter().map(|w| w.epoch).collect()
    }

    /// Records buffered in still-open epochs.
    pub fn buffered_records(&self) -> usize {
        self.state.buffered_records()
    }

    /// Captures a deep checkpoint of the feeder and its wrapped job: see
    /// [`FeederCheckpoint`] and [`WindowedJob::checkpoint`].
    #[must_use]
    pub fn checkpoint(&self) -> FeederCheckpoint<A> {
        FeederCheckpoint {
            job: self.job.checkpoint(),
            state: self.state.clone(),
        }
    }

    /// Reconstructs a feeder from `checkpoint`, attaching its job to
    /// `shared` infrastructure — see [`WindowedJob::restore_with_shared`]
    /// for what the host must restore (cache contents, namespace
    /// watermark).
    ///
    /// # Errors
    ///
    /// Propagates [`JobError::BadConfig`] from the job restore, or from
    /// a captured event-time config that fails validation.
    pub fn restore_with_shared(
        checkpoint: &FeederCheckpoint<A>,
        shared: &EngineShared,
    ) -> Result<Self, JobError> {
        let job = WindowedJob::restore_with_shared(&checkpoint.job, shared)?;
        Self::attach(job, checkpoint.state.clone())
    }

    /// Borrows the underlying job.
    pub fn job(&self) -> &WindowedJob<A> {
        &self.job
    }

    /// Splices every queued late record into its epoch's interior
    /// position, in epoch order. The records land at the *end* of their
    /// epoch's split range, sorted by `(time, seq)` — for commutative
    /// combiners (every contraction-tree mode but the strawman's
    /// non-commutative uses) this reproduces the output of the stream that
    /// never lost them. A non-commutative combiner, such as slider-join's
    /// side index, sees them after the epoch's on-time records: window
    /// order, as [`EventFeeder::retained_records`] lists them.
    fn apply_late(&mut self, runs: &mut Vec<RunStats>) -> Result<(), JobError> {
        // Ask first, so late records the job's mode cannot splice stay
        // queued.
        if !self.state.late.is_empty() {
            self.job.check_splice_mode(false)?;
        }
        while let Some((epoch, mut records)) = self.state.late.pop_first() {
            records.sort_by_key(|r| (r.time, r.seq));
            let journal_copy = self.state.journal.is_some().then(|| records.clone());
            let inputs: Vec<A::Input> = records.into_iter().map(|r| r.record).collect();
            let splits = make_splits(
                self.state.next_split_id,
                inputs,
                self.state.config.records_per_split,
            );
            let added = splits.len();
            // The splice point: right after the epoch's existing splits.
            let at: usize = self
                .state
                .window
                .iter()
                .take_while(|w| w.epoch <= epoch)
                .map(|w| w.splits)
                .sum();
            runs.push(self.job.insert_splits_at(at, splits)?);
            self.state.next_split_id += added as u64;
            self.state.stats.splice_runs += 1;
            if let Some(w) = self.state.window.iter_mut().find(|w| w.epoch == epoch) {
                w.splits += added;
            }
            if let (Some(journal), Some(records)) = (self.state.journal.as_mut(), journal_copy) {
                journal
                    .retained
                    .entry(epoch)
                    .or_default()
                    .extend(records.iter().cloned());
                journal
                    .events
                    .push(FeedEvent::LateSplice { epoch, records });
            }
        }
        Ok(())
    }

    /// Closes `epoch` as one bulk advance: its records (sorted by
    /// `(time, seq)`) become splits, and the oldest epoch leaves a full
    /// window. Runs with nothing to add *and* nothing to evict are elided.
    fn close_epoch(&mut self, epoch: u64, runs: &mut Vec<RunStats>) -> Result<(), JobError> {
        let evicting = match self.state.config.window_epochs {
            Some(n) if self.state.window.len() >= n => {
                Some(*self.state.window.front().ok_or(JobError::EmptyWindow)?)
            }
            _ => None,
        };
        let remove = evicting.map_or(0, |w| w.splits);
        let held = self.state.pending.get(&epoch).map_or(0, Vec::len);
        let added = held.div_ceil(self.state.config.records_per_split);
        let run = remove > 0 || added > 0;
        // Ask the job before taking the records out of the buffer, so a
        // slide its mode cannot take leaves them buffered.
        if run {
            self.job.check_slide_mode(remove, added)?;
        }
        let mut records = self.state.pending.remove(&epoch).unwrap_or_default();
        records.sort_by_key(|r| (r.time, r.seq));
        let journal_copy = self.state.journal.is_some().then(|| records.clone());
        let inputs: Vec<A::Input> = records.into_iter().map(|r| r.record).collect();
        let splits = make_splits(
            self.state.next_split_id,
            inputs,
            self.state.config.records_per_split,
        );
        if run {
            runs.push(self.job.advance(remove, splits)?);
        }
        // Mutate bookkeeping only after the job accepted the slide.
        let evicted_epoch = evicting.map(|w| w.epoch);
        if evicted_epoch.is_some() {
            self.state.window.pop_front();
            self.state.stats.epochs_evicted += 1;
        }
        if let (Some(journal), Some(inserted)) = (self.state.journal.as_mut(), journal_copy) {
            let evicted = evicted_epoch
                .map(|e| journal.retained.remove(&e).unwrap_or_default())
                .unwrap_or_default();
            journal.retained.insert(epoch, inserted.clone());
            journal.events.push(FeedEvent::EpochClosed {
                epoch,
                inserted,
                evicted_epoch,
                evicted,
            });
        }
        self.state.window.push_back(WindowEpoch {
            epoch,
            splits: added,
        });
        self.state.next_split_id += added as u64;
        self.state.next_open_epoch = epoch + 1;
        self.state.stats.epochs_closed += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::windowed::{ExecMode, JobConfig};

    struct WordCount;
    impl MapReduceApp for WordCount {
        type Input = String;
        type Key = String;
        type Value = u64;
        type Output = u64;
        fn map(&self, line: &String, emit: &mut dyn FnMut(String, u64)) {
            for w in line.split_whitespace() {
                emit(w.to_string(), 1);
            }
        }
        fn combine(&self, _k: &String, a: &u64, b: &u64) -> u64 {
            a + b
        }
        fn reduce(&self, _k: &String, parts: &[&u64]) -> u64 {
            parts.iter().copied().sum()
        }
    }

    fn feeder(mode: ExecMode, config: EventTimeConfig) -> EventFeeder<WordCount> {
        let job = WindowedJob::new(WordCount, JobConfig::new(mode).with_partitions(2)).unwrap();
        EventFeeder::new(job, config).unwrap()
    }

    fn config() -> EventTimeConfig {
        EventTimeConfig {
            epoch_len: 10,
            records_per_split: 2,
            window_epochs: Some(3),
            lateness: 5,
        }
    }

    fn stamped(time: u64, seq: u64, word: &str) -> Stamped<String> {
        Stamped::new(time, seq, word.to_string())
    }

    #[test]
    fn bad_configs_are_rejected() {
        let job =
            || WindowedJob::new(WordCount, JobConfig::new(ExecMode::slider_folding())).unwrap();
        for bad in [
            EventTimeConfig {
                epoch_len: 0,
                ..config()
            },
            EventTimeConfig {
                records_per_split: 0,
                ..config()
            },
            EventTimeConfig {
                window_epochs: Some(0),
                ..config()
            },
        ] {
            assert!(matches!(
                EventFeeder::new(job(), bad),
                Err(JobError::BadConfig(_))
            ));
        }
    }

    #[test]
    fn disorder_within_the_bound_matches_the_sorted_twin_exactly() {
        // Two chunks whose records are shuffled within the lateness bound.
        let disordered = [
            vec![
                stamped(3, 0, "a"),
                stamped(1, 1, "b"),
                stamped(12, 2, "c"),
                stamped(9, 3, "a"),
            ],
            vec![
                stamped(17, 4, "d"),
                stamped(14, 5, "b"),
                stamped(23, 6, "e"),
                stamped(21, 7, "a"),
            ],
        ];
        let mut sorted = disordered.clone();
        for chunk in &mut sorted {
            chunk.sort_by_key(|x| (x.time, x.seq));
        }

        let run = |chunks: &[Vec<Stamped<String>>]| {
            let mut f = feeder(ExecMode::slider_folding(), config());
            let mut all_runs = Vec::new();
            for chunk in chunks {
                f.ingest(chunk.iter().cloned());
                all_runs.extend(f.flush().unwrap());
            }
            all_runs.extend(f.close_all().unwrap());
            (f.output().clone(), format!("{all_runs:?}"), f.stats())
        };
        let (out_d, runs_d, stats_d) = run(&disordered);
        let (out_s, runs_s, stats_s) = run(&sorted);
        assert_eq!(out_d, out_s);
        assert_eq!(runs_d, runs_s, "run stats must be bit-identical");
        assert_eq!(stats_d, stats_s);
        assert_eq!(stats_d.late_admitted, 0, "in-bound disorder is never late");
        assert_eq!(stats_d.late_dropped, 0);
    }

    #[test]
    fn watermark_holds_epochs_open_until_the_bound_passes() {
        let mut f = feeder(ExecMode::slider_folding(), config());
        // Epoch 0 complete, but the watermark (14 - 5 = 9) has not passed
        // its end (10): nothing closes.
        f.ingest([stamped(2, 0, "a"), stamped(14, 1, "b")]);
        assert!(f.flush().unwrap().is_empty());
        assert_eq!(f.buffered_records(), 2);
        assert!(f.output().is_empty());

        // One more record pushes the watermark to 16: epoch 0 closes,
        // epoch 1 stays open.
        f.ingest([stamped(21, 2, "c")]);
        let runs = f.flush().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(f.output().get("a"), Some(&1));
        assert_eq!(f.output().get("b"), None, "epoch 1 is still open");
        assert_eq!(f.window_epochs(), vec![0]);
    }

    #[test]
    fn late_records_splice_into_their_epoch() {
        let mut f = feeder(ExecMode::slider_folding(), config());
        f.ingest([
            stamped(2, 0, "a"),
            stamped(12, 1, "b"),
            stamped(22, 2, "c"),
            stamped(35, 3, "d"),
        ]);
        f.flush().unwrap();
        assert_eq!(f.window_epochs(), vec![0, 1, 2]);

        // Time 4 is far below the watermark (30) but epoch 0 is still in
        // the window: the record is admitted through an interior splice.
        f.ingest([stamped(4, 4, "z")]);
        let runs = f.flush().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(f.output().get("z"), Some(&1));
        assert_eq!(f.stats().late_admitted, 1);
        assert_eq!(f.stats().splice_runs, 1);

        // The admitted record ages out with its epoch, not later: closing
        // epoch 3 (window of 3) evicts epoch 0 and "z" with it.
        f.ingest([stamped(47, 5, "e")]);
        f.flush().unwrap();
        assert_eq!(f.window_epochs(), vec![1, 2, 3]);
        assert_eq!(f.output().get("z"), None);
        assert_eq!(f.stats().epochs_evicted, 1);
    }

    #[test]
    fn too_late_records_are_dropped_and_counted() {
        let mut f = feeder(ExecMode::slider_folding(), config());
        for (t, s, w) in [(5, 0, "a"), (15, 1, "b"), (25, 2, "c"), (35, 3, "d")] {
            f.ingest([stamped(t, s, w)]);
        }
        f.ingest([stamped(49, 4, "e")]);
        f.flush().unwrap();
        // Window holds epochs [1, 2, 3]; epoch 0 is gone.
        assert_eq!(f.window_epochs(), vec![1, 2, 3]);
        f.ingest([stamped(3, 5, "x")]);
        f.flush().unwrap();
        assert_eq!(f.output().get("x"), None);
        assert_eq!(f.stats().late_dropped, 1);
    }

    #[test]
    fn bursty_gaps_fast_forward_without_runs() {
        let mut f = feeder(ExecMode::slider_folding(), config());
        f.ingest([stamped(2, 0, "a"), stamped(12, 1, "b"), stamped(22, 2, "c")]);
        // Watermark 17: only epoch 0 closes here; 1 and 2 stay buffered.
        assert_eq!(f.flush().unwrap().len(), 1);
        // A huge time jump: epochs 1 and 2 close (two runs), then the gap's
        // first three empty epochs age the window out (three eviction runs),
        // and the remaining dead region fast-forwards with no further runs.
        f.ingest([stamped(1_000_015, 3, "z")]);
        let runs = f.flush().unwrap();
        assert_eq!(runs.len(), 5, "2 data closes + 3 evictions, then no runs");
        assert!(f.output().is_empty());
        assert_eq!(f.buffered_records(), 1, "z's epoch is still open");
        let closed = f.stats().epochs_closed;
        assert!(closed >= 100_000, "gap epochs counted closed: {closed}");
    }

    #[test]
    fn retract_epoch_evicts_its_interior_range() {
        let mut f = feeder(ExecMode::slider_folding(), config());
        f.ingest([
            stamped(2, 0, "a"),
            stamped(12, 1, "b"),
            stamped(22, 2, "c"),
            stamped(35, 3, "d"),
        ]);
        f.flush().unwrap();
        assert_eq!(f.window_epochs(), vec![0, 1, 2]);

        // Retract the middle epoch: "b" vanishes, neighbours survive.
        let stats = f.retract_epoch(1).unwrap();
        assert!(stats.is_some());
        assert_eq!(f.window_epochs(), vec![0, 2]);
        assert_eq!(f.output().get("b"), None);
        assert_eq!(f.output().get("a"), Some(&1));
        assert_eq!(f.output().get("c"), Some(&1));
        assert_eq!(f.stats().splice_runs, 1);

        // Unknown epochs are a quiet no-op.
        assert!(f.retract_epoch(99).unwrap().is_none());
    }

    #[test]
    fn zero_lateness_drops_every_straggler_and_counts_reconcile() {
        // Strict watermark: with `lateness = 0` the watermark IS the
        // highest event time seen, so an epoch closes the instant the
        // stream touches the next one, and a one-epoch window means every
        // record arriving behind the watermark's epoch finds its epoch
        // already evicted — all stragglers drop, none splice.
        let cfg = EventTimeConfig {
            epoch_len: 10,
            records_per_split: 2,
            window_epochs: Some(1),
            lateness: 0,
        };
        let mut f = feeder(ExecMode::slider_folding(), cfg);
        f.ingest([
            stamped(5, 0, "a"),
            stamped(15, 1, "b"),
            stamped(25, 2, "c a"),
        ]);
        f.flush().unwrap();
        assert_eq!(f.watermark(), Some(25));
        assert_eq!(f.window_epochs(), vec![1], "epoch 0 closed and evicted");

        // Stragglers into closed epochs: both drop (epoch 0 evicted,
        // epoch 1 evicted by the close of epoch 2 below — here epoch 1 is
        // still windowed, so target epoch 0 twice to stay strict).
        f.ingest([stamped(3, 3, "x"), stamped(8, 4, "x")]);
        // In-epoch disorder is NOT lateness: 31 then 38 arrive out of
        // order inside the still-open epoch 3 and are buffered, sorted at
        // close.
        f.ingest([stamped(38, 5, "d"), stamped(31, 6, "a")]);
        f.flush().unwrap();

        let stats = f.stats();
        assert_eq!(stats.ingested, 7);
        assert_eq!(stats.late_admitted, 0, "nothing splices at lateness 0");
        assert_eq!(stats.late_dropped, 2);
        assert_eq!(stats.splice_runs, 0);
        // Every ingested record is accounted for: dropped, still buffered
        // in the open epoch, or inside a closed epoch's splits.
        let closed_records = 3; // epochs 0..=2, one record each
        assert_eq!(
            stats.ingested,
            stats.late_dropped + f.buffered_records() as u64 + closed_records
        );
        assert_eq!(f.output().get("x"), None, "dropped records never surface");

        // The sorted twin of the *surviving* records is bit-identical.
        let mut twin = feeder(ExecMode::slider_folding(), cfg);
        twin.ingest([
            stamped(5, 0, "a"),
            stamped(15, 1, "b"),
            stamped(25, 2, "c a"),
            stamped(31, 6, "a"),
            stamped(38, 5, "d"),
        ]);
        twin.flush().unwrap();
        f.close_all().unwrap();
        twin.close_all().unwrap();
        assert_eq!(f.output(), twin.output());
        assert_eq!(f.window_epochs(), twin.window_epochs());
        assert_eq!(f.stats().epochs_closed, twin.stats().epochs_closed);
        assert_eq!(f.stats().epochs_evicted, twin.stats().epochs_evicted);
    }

    #[test]
    fn checkpoint_restore_twin_is_bit_identical_mid_stream() {
        // Drive a feeder halfway, checkpoint, then continue both the
        // original and a restored twin through the same suffix: outputs,
        // run stats and event-time stats must be bit-identical — including
        // a late record spliced *after* the checkpoint into an epoch closed
        // *before* it, which only works if the window map survived.
        let shared = EngineShared::builder().build();
        let job = WindowedJob::with_shared(
            WordCount,
            JobConfig::new(ExecMode::slider_folding()).with_partitions(2),
            &shared,
        )
        .unwrap();
        let mut f = EventFeeder::new(job, config()).unwrap();
        f.ingest([
            stamped(2, 0, "a"),
            stamped(12, 1, "b"),
            stamped(22, 2, "c"),
            stamped(35, 3, "d"),
        ]);
        f.flush().unwrap();

        let cp = f.checkpoint();
        assert_eq!(cp.job().window_splits(), f.job().window_splits());
        let mut twin = EventFeeder::restore_with_shared(&cp, &shared).unwrap();
        // The checkpoint is a value: a second restore must also succeed.
        assert!(EventFeeder::restore_with_shared(&cp, &shared).is_ok());

        let suffix: Vec<Stamped<String>> = vec![
            stamped(4, 4, "z"), // late splice into epoch 0
            stamped(47, 5, "e"),
            stamped(58, 6, "f"),
        ];
        let drive = |f: &mut EventFeeder<WordCount>| {
            let mut runs = Vec::new();
            for r in &suffix {
                f.ingest([r.clone()]);
                runs.extend(f.flush().unwrap());
            }
            runs.extend(f.close_all().unwrap());
            (f.output().clone(), format!("{runs:?}"), f.stats())
        };
        let (out_a, runs_a, stats_a) = drive(&mut f);
        let (out_b, runs_b, stats_b) = drive(&mut twin);
        assert_eq!(out_a, out_b);
        assert_eq!(runs_a, runs_b, "restored twin must meter identically");
        assert_eq!(stats_a, stats_b);
    }

    #[test]
    fn flush_bounded_holds_epochs_back_until_the_cap_passes() {
        let mut f = feeder(ExecMode::slider_folding(), config());
        f.ingest([
            stamped(2, 0, "a"),
            stamped(12, 1, "b"),
            stamped(25, 2, "c"),
            stamped(38, 3, "d"),
        ]);
        // Own watermark is 33, but a cap of 9 keeps every epoch open.
        assert!(f.flush_bounded(9).unwrap().is_empty());
        assert!(f.output().is_empty());
        // Cap 20 releases epochs 0 and 1 only.
        assert_eq!(f.flush_bounded(20).unwrap().len(), 2);
        assert_eq!(f.window_epochs(), vec![0, 1]);
        // Uncapped flush catches up to the own watermark.
        assert_eq!(f.flush().unwrap().len(), 1);
        assert_eq!(f.window_epochs(), vec![0, 1, 2]);
    }

    #[test]
    fn journal_reports_closes_evictions_splices_and_retractions() {
        let mut f = feeder(ExecMode::slider_folding(), config());
        f.enable_journal();
        assert!(f.journal_enabled());
        f.ingest([
            stamped(2, 0, "a"),
            stamped(12, 1, "b"),
            stamped(22, 2, "c"),
            stamped(35, 3, "d"),
        ]);
        f.flush().unwrap();
        let events = f.take_events();
        assert_eq!(events.len(), 3, "three epoch closes");
        assert!(matches!(
            &events[0],
            FeedEvent::EpochClosed { epoch: 0, inserted, evicted_epoch: None, .. }
                if inserted.len() == 1 && inserted[0].record == "a"
        ));
        assert!(f.take_events().is_empty(), "events drain once");
        let retained: Vec<String> = f
            .retained_records()
            .unwrap()
            .iter()
            .map(|s| s.record.clone())
            .collect();
        assert_eq!(retained, ["a", "b", "c"]);

        // A late splice lands in epoch 0's retained set and is reported.
        f.ingest([stamped(4, 4, "z")]);
        f.flush().unwrap();
        let events = f.take_events();
        assert!(matches!(
            &events[..],
            [FeedEvent::LateSplice { epoch: 0, records }] if records[0].record == "z"
        ));

        // A second straggler, stamped before epoch 0's on-time "a", joins
        // the epoch behind both earlier records: window order, not stamp
        // order.
        f.ingest([stamped(1, 6, "y")]);
        f.flush().unwrap();
        assert!(matches!(
            &f.take_events()[..],
            [FeedEvent::LateSplice { epoch: 0, records }] if records[0].record == "y"
        ));
        let retained: Vec<String> = f
            .retained_records()
            .unwrap()
            .iter()
            .map(|s| s.record.clone())
            .collect();
        assert_eq!(retained, ["a", "z", "y", "b", "c"]);

        // Closing epoch 3 evicts epoch 0 — including the spliced records.
        f.ingest([stamped(47, 5, "e")]);
        f.flush().unwrap();
        let events = f.take_events();
        match &events[..] {
            [FeedEvent::EpochClosed {
                epoch: 3,
                evicted_epoch: Some(0),
                evicted,
                ..
            }] => {
                let got: Vec<&str> = evicted.iter().map(|s| s.record.as_str()).collect();
                assert_eq!(
                    got,
                    ["a", "z", "y"],
                    "late splices age out with their epoch"
                );
            }
            other => panic!("unexpected events: {other:?}"),
        }

        // Retraction reports the epoch's records and drops them from the
        // retained set.
        f.retract_epoch(2).unwrap();
        let events = f.take_events();
        assert!(matches!(
            &events[..],
            [FeedEvent::Retracted { epoch: 2, records }] if records[0].record == "c"
        ));
        let retained: Vec<String> = f
            .retained_records()
            .unwrap()
            .iter()
            .map(|s| s.record.clone())
            .collect();
        assert_eq!(retained, ["b", "d"]);
    }

    #[test]
    fn journal_survives_checkpoint_restore() {
        let shared = EngineShared::builder().build();
        let job = WindowedJob::with_shared(
            WordCount,
            JobConfig::new(ExecMode::slider_folding()).with_partitions(2),
            &shared,
        )
        .unwrap();
        let mut f = EventFeeder::new(job, config()).unwrap();
        f.enable_journal();
        f.ingest([stamped(2, 0, "a"), stamped(12, 1, "b"), stamped(35, 2, "c")]);
        f.flush().unwrap();
        f.take_events();

        let cp = f.checkpoint();
        let mut twin = EventFeeder::restore_with_shared(&cp, &shared).unwrap();
        assert!(twin.journal_enabled());
        // Both continue; eviction payloads must match, which requires the
        // retained map to have survived the restore.
        for g in [&mut f, &mut twin] {
            g.ingest([stamped(47, 3, "d")]);
            g.flush().unwrap();
        }
        assert_eq!(f.take_events(), twin.take_events());
    }

    #[test]
    fn append_only_event_windows_admit_all_late_records() {
        let cfg = EventTimeConfig {
            window_epochs: None,
            ..config()
        };
        let mut f = feeder(ExecMode::slider_coalescing(false), cfg);
        f.ingest([stamped(5, 0, "a"), stamped(15, 1, "b"), stamped(45, 2, "c")]);
        f.flush().unwrap();
        // Epochs never leave an append-only window, so even a very late
        // record finds its epoch.
        f.ingest([stamped(1, 3, "z")]);
        f.flush().unwrap();
        assert_eq!(f.output().get("z"), Some(&1));
        assert_eq!(f.stats().late_dropped, 0);
        f.close_all().unwrap();
        assert_eq!(f.output().get("c"), Some(&1));
    }

    #[test]
    fn variable_batch_sizes_drop_the_right_split_counts() {
        // Batches fed in order, one epoch each: epoch 0's five records make
        // 3 splits of <= 2, epoch 1's one record makes 1.
        let cfg = EventTimeConfig {
            window_epochs: Some(2),
            lateness: 0,
            ..config()
        };
        let mut f = feeder(ExecMode::slider_folding(), cfg);
        f.ingest((0..5).map(|i| stamped(i, i, "x")));
        f.close_all().unwrap();
        f.ingest([stamped(10, 5, "y")]);
        f.close_all().unwrap();
        assert_eq!(f.job().window_splits(), 4);
        // Closing epoch 2 evicts epoch 0, which must remove exactly its 3
        // splits.
        f.ingest([stamped(20, 6, "z")]);
        f.close_all().unwrap();
        assert_eq!(f.job().window_splits(), 2);
        assert_eq!(f.output().get("x"), None);
        assert_eq!(f.output().get("y"), Some(&1));
    }

    #[test]
    fn eviction_from_empty_window_is_a_typed_error() {
        // Validation forbids `Some(0)` windows, so an eviction can never be
        // due while the window is empty. Forge that state (the test module
        // sees private fields) to pin the behaviour: a typed error, not a
        // panic, and the feeder is untouched.
        let mut f = feeder(ExecMode::slider_folding(), config());
        f.state.config.window_epochs = Some(0);
        f.ingest([stamped(2, 0, "a")]);
        let err = f.close_all().unwrap_err();
        assert!(matches!(err, JobError::EmptyWindow));
        assert!(err.to_string().contains("empty window"));
        assert_eq!(f.buffered_records(), 1);
        assert!(f.window_epochs().is_empty());
        assert_eq!(f.stats().epochs_closed, 0);
        assert_eq!(f.job().window_splits(), 0);
        // Restoring the window lets the feeder resume normally.
        f.state.config.window_epochs = Some(2);
        f.close_all().unwrap();
        assert_eq!(f.output().get("a"), Some(&1));
    }

    #[test]
    fn failed_slides_leave_bookkeeping_intact() {
        // An append-only job rejects removals: a bounded window will
        // eventually ask for one.
        let cfg = EventTimeConfig {
            window_epochs: Some(1),
            lateness: 0,
            ..config()
        };
        let mut f = feeder(ExecMode::slider_coalescing(false), cfg);
        f.ingest([stamped(5, 0, "a"), stamped(15, 1, "b")]);
        f.flush().unwrap();
        assert_eq!(f.window_epochs(), vec![0]);
        let before = f.stats();
        // Closing epoch 1 must evict epoch 0.
        let err = f.close_all().unwrap_err();
        assert!(matches!(err, JobError::ModeViolation(_)));
        // The refused close keeps epoch 1's record buffered and moves no
        // counter, so the same close fails the same way again.
        assert_eq!(f.buffered_records(), 1);
        assert_eq!(f.window_epochs(), vec![0]);
        assert_eq!(f.stats(), before);
        assert_eq!(f.output().get("a"), Some(&1));
        assert!(matches!(f.close_all(), Err(JobError::ModeViolation(_))));
        assert_eq!(f.buffered_records(), 1);
    }

    #[test]
    fn failed_late_splices_leave_bookkeeping_intact() {
        // A fixed-width job has no interior splices: an in-window late
        // record is admitted by the feeder and then refused by the job.
        let mut f = feeder(ExecMode::slider_rotating(false), config());
        f.ingest([
            stamped(2, 0, "a"),
            stamped(12, 1, "b"),
            stamped(22, 2, "c"),
            stamped(35, 3, "d"),
        ]);
        f.flush().unwrap();
        assert_eq!(f.window_epochs(), vec![0, 1, 2]);
        f.ingest([stamped(4, 4, "z")]);
        let before = f.stats();
        assert_eq!(before.late_admitted, 1);
        let err = f.flush().unwrap_err();
        assert!(matches!(err, JobError::ModeViolation(_)));
        // The record stays queued for its splice and no counter moves, so
        // the next flush is refused again instead of silently succeeding.
        assert_eq!(f.state.late.values().map(Vec::len).sum::<usize>(), 1);
        assert_eq!(f.stats(), before);
        assert_eq!(f.output().get("z"), None);
        assert!(matches!(f.flush(), Err(JobError::ModeViolation(_))));
    }
}
