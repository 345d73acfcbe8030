//! The job's run path: a slide or an interior splice, its scripted
//! faults, the map phase, every shard's edit and reduce on the runtime, and
//! the run's statistics and trace.

use std::collections::{BTreeMap, HashSet};

use slider_core::UpdateStats;
use slider_dcache::{NodeId, ObjectId, RepairStats};
use slider_trace::SpanKind;

use super::map::{map_one_split, SplitEntry};
use super::shard::{EditCx, PartitionWork, ShardOutcome};
use super::{ExecMode, WindowedJob};
use crate::app::MapReduceApp;
use crate::error::JobError;
use crate::split::Split;
use crate::stats::{RecoveryStats, RunStats};

/// Aggregate outcome of the contraction+reduce phase.
#[derive(Default)]
pub(super) struct PhaseOutcome {
    pub(super) tree_stats: UpdateStats,
    pub(super) reduce_work: u64,
    pub(super) keys_reduced: usize,
    pub(super) keys_reused: usize,
    pub(super) per_partition: Vec<PartitionWork>,
}

/// Bytes of data movement (shuffle plus memoization reads and writes)
/// charged as one work unit, rounded down: data-intensive applications pay
/// for I/O even when compute is memoized.
const BYTES_PER_MOVEMENT_WORK: u64 = 1024;

impl<A: MapReduceApp> WindowedJob<A> {
    /// Runs the initial computation over `splits` (the whole first window).
    ///
    /// # Errors
    ///
    /// Fails if the job already ran, a split id repeats, or the splits
    /// violate the window geometry.
    pub fn initial_run(&mut self, splits: Vec<Split<A::Input>>) -> Result<RunStats, JobError> {
        if self.state.run_index != 0 || !self.state.window.is_empty() {
            return Err(JobError::ModeViolation(
                "initial_run may only run once".into(),
            ));
        }
        self.advance(0, splits)
    }

    /// Slides the window: drops the oldest `remove_splits` splits, appends
    /// `added`, and updates the output incrementally (or from scratch in
    /// [`ExecMode::Recompute`]).
    ///
    /// # Errors
    ///
    /// Fails on window-discipline violations (see [`JobError`]); the job
    /// state is unchanged on error.
    pub fn advance(
        &mut self,
        remove_splits: usize,
        added: Vec<Split<A::Input>>,
    ) -> Result<RunStats, JobError> {
        self.validate_slide(remove_splits, &added)?;
        self.run_edit(None, remove_splits, Some(added))
    }

    /// Splices late splits into the *interior* of the window so that the
    /// first inserted split lands at window position `at` (0 = oldest;
    /// `at == window_splits()` appends), updating the output incrementally.
    ///
    /// This is the event-time late-data path: a record admitted after its
    /// epoch already closed belongs between splits that are both still in
    /// the window, where [`WindowedJob::advance`] cannot put it. Trees with
    /// native interior splices ([`TreeKind::supports_splice`](slider_core::TreeKind::supports_splice)) absorb the
    /// insertion in one bulk splice; every other aggregator rebuilds the
    /// affected keys from the post-splice window, with the rebuild work
    /// charged to this run's foreground contraction breakdown — outputs are
    /// identical either way, only the metered work differs.
    ///
    /// # Errors
    ///
    /// [`JobError::SpliceOutOfRange`] if `at` exceeds the window;
    /// [`JobError::ModeViolation`] for fixed-width (rotating) jobs, whose
    /// positional bucket geometry admits no interior splices;
    /// [`JobError::DuplicateSplit`] for reused split ids. The job state is
    /// unchanged on error.
    pub fn insert_splits_at(
        &mut self,
        at: usize,
        added: Vec<Split<A::Input>>,
    ) -> Result<RunStats, JobError> {
        self.check_splice_mode(false)?;
        if at > self.state.window.len() {
            return Err(JobError::SpliceOutOfRange {
                at,
                count: added.len(),
                window: self.state.window.len(),
            });
        }
        self.check_fresh_ids(&added)?;
        self.run_edit(Some(at), 0, Some(added))
    }

    /// Evicts the contiguous split range `[at, at + count)` from the
    /// *interior* of the window in one bulk splice (0 = oldest), updating
    /// the output incrementally.
    ///
    /// Bursty event-time streams close several epochs at once; the stale
    /// region they displace need not start at the window's front, which is
    /// all [`WindowedJob::advance`] can drop. Trees with native interior
    /// splices ([`TreeKind::supports_splice`](slider_core::TreeKind::supports_splice)) excise the range in one bulk
    /// splice; every other aggregator rebuilds the affected keys from the
    /// post-splice window (work charged to this run's foreground
    /// contraction breakdown).
    ///
    /// # Errors
    ///
    /// [`JobError::SpliceOutOfRange`] if the range exceeds the window;
    /// [`JobError::ModeViolation`] for fixed-width (rotating) jobs and for
    /// append-only (coalescing) jobs, which never evict. The job state is
    /// unchanged on error.
    pub fn evict_splits_range(&mut self, at: usize, count: usize) -> Result<RunStats, JobError> {
        self.check_splice_mode(true)?;
        if at
            .checked_add(count)
            .is_none_or(|end| end > self.state.window.len())
        {
            return Err(JobError::SpliceOutOfRange {
                at,
                count,
                window: self.state.window.len(),
            });
        }
        self.run_edit(Some(at), count, None)
    }

    // ------------------------------------------------------------------
    // The run body shared by slides and splices
    // ------------------------------------------------------------------

    /// One run inside its `Run` span. The span closes on every exit, so a
    /// failed run cannot become the parent of later spans on the shared
    /// `engine` track.
    fn run_edit(
        &mut self,
        splice_at: Option<usize>,
        evict: usize,
        added: Option<Vec<Split<A::Input>>>,
    ) -> Result<RunStats, JobError> {
        let run_span = self.trace.with(|t| {
            t.set_run(self.state.run_index);
            let tr = t.track("engine");
            t.begin(tr, SpanKind::Run, format!("run #{}", self.state.run_index))
        });
        let result = self.edit_window(splice_at, evict, added);
        if let Some(span) = run_span {
            self.trace.with(|t| t.end(span));
        }
        result
    }

    /// The body of one run: apply its scripted faults, map `added`, edit
    /// the window, meter the map phase, recompute or update every shard,
    /// and finish the run.
    ///
    /// The edit drains `evict` splits and inserts the mapped `added` at
    /// the window's ends (from the front, onto the back) when `splice_at`
    /// is `None`, or at interior position `splice_at`. `added` is `None`
    /// for an interior eviction, which has no map phase at all.
    fn edit_window(
        &mut self,
        splice_at: Option<usize>,
        evict: usize,
        added: Option<Vec<Split<A::Input>>>,
    ) -> Result<RunStats, JobError> {
        // Recovery is metered apart from the regular work breakdown; the
        // repair baseline makes the end-of-run delta include fault
        // handling.
        let repair_before = self.repair_stats();
        let mut recovery = RecoveryStats::default();
        self.apply_planned_faults(&mut recovery)?;
        let was_full_buckets = self.state.config.mode.is_fixed_width()
            && self.state.window.len()
                == self.state.config.window_buckets * self.state.config.bucket_width;

        // ---- Map phase: run Map tasks for the new splits. ---------------
        let new_entries = match &added {
            Some(splits) => self.map_splits(splits),
            None => Vec::new(),
        };
        let at = splice_at.unwrap_or(0);
        let removed: Vec<_> = self.state.window.drain(at..at + evict).collect();
        let insert_at = splice_at.unwrap_or(self.state.window.len());
        for (offset, entry) in new_entries.iter().enumerate() {
            self.state.window.insert(insert_at + offset, entry.clone());
        }
        for split in added.iter().flatten() {
            self.state.used_split_ids.insert(split.id().0);
        }

        let stats = self.map_phase_stats(&new_entries);
        self.trace_map_phase(&stats, &new_entries);

        // ---- Contraction + Reduce phase. ---------------------------------
        let outcome = match self.state.config.mode.tree_kind() {
            None => self.run_recompute(),
            Some(kind) => {
                let cx = EditCx {
                    app: &*self.app,
                    combiner: &self.combiner,
                    config: &self.state.config,
                    window: &self.state.window,
                    removed: &removed,
                    added: &new_entries,
                    splice_at,
                    was_full_buckets,
                    kind,
                    // Splices run entirely in the foreground: background
                    // pre-processing follows the bucket-cadenced slides.
                    split_processing: splice_at.is_none()
                        && self.state.config.mode.split_processing(),
                };
                // Every shard edits its trees, reduces its dirty keys and
                // pre-processes on the shared runtime; outcomes fold in
                // shard-index order, so all metering is identical for any
                // thread count.
                let results = self
                    .runtime
                    .map_mut(&mut self.state.shards, |p, shard| shard.run_edit(p, &cx));
                let mut outcome = PhaseOutcome::default();
                for result in results {
                    Self::fold_shard_outcome(&mut self.state.output, &mut outcome, result?);
                }
                outcome
            }
        };
        Ok(self.finish_run(stats, outcome, &new_entries, recovery, repair_before))
    }

    /// The cache's cumulative repair stats (zero without a cache).
    fn repair_stats(&self) -> RepairStats {
        self.cache
            .as_ref()
            .map(|cache| cache.with(|c| c.repair_stats()))
            .unwrap_or_default()
    }

    /// Map-phase statistics shared by slides and splices: `new_entries`
    /// were mapped this run, everything else in the (already updated)
    /// window is reused — except under [`ExecMode::Recompute`], which
    /// re-maps and re-shuffles the whole window every run.
    fn map_phase_stats(&self, new_entries: &[SplitEntry<A::Key, A::Value>]) -> RunStats {
        let mut stats = RunStats {
            run: self.state.run_index,
            ..Default::default()
        };
        stats.map_tasks = new_entries.len();
        stats.work.map = new_entries.iter().map(|e| e.map_work).sum();
        stats.shuffle_bytes = new_entries.iter().map(|e| e.output_bytes()).sum();
        if self.state.config.mode == ExecMode::Recompute {
            stats.map_tasks = self.state.window.len();
            stats.work.map = self.state.window.iter().map(|e| e.map_work).sum();
            stats.shuffle_bytes = self.state.window.iter().map(|e| e.output_bytes()).sum();
        } else {
            stats.map_reused = self.state.window.len() - new_entries.len();
        }
        stats
    }

    /// Emits the map-phase spans: one Map leaf per executed map task, in
    /// deterministic task order; leaf works sum exactly to
    /// `stats.work.map`, the shuffle leaf carries `stats.shuffle_bytes`.
    fn trace_map_phase(&self, stats: &RunStats, new_entries: &[SplitEntry<A::Key, A::Value>]) {
        self.trace.with(|t| {
            let tr = t.track("engine");
            let map_span = t.begin(tr, SpanKind::Map, "map");
            let mapped: Vec<(u64, u64, u64)> = if self.state.config.mode == ExecMode::Recompute {
                self.state
                    .window
                    .iter()
                    .map(|e| (e.id.0, e.map_work, e.input_bytes))
                    .collect()
            } else {
                new_entries
                    .iter()
                    .map(|e| (e.id.0, e.map_work, e.input_bytes))
                    .collect()
            };
            for (id, map_work, input_bytes) in mapped {
                let leaf = t.leaf(tr, SpanKind::Map, format!("split {id}"), map_work);
                t.arg(leaf, "input_bytes", input_bytes);
            }
            t.end(map_span);
            let shuffle = t.leaf(tr, SpanKind::Shuffle, "shuffle", 0);
            t.arg(shuffle, "bytes", stats.shuffle_bytes);
        });
    }

    /// Shared tail of every run (slide or splice): folds the contraction
    /// outcome into `stats`, emits the contraction/reduce/background
    /// spans, refreshes footprints, charges data movement, runs the
    /// cluster simulation and cache model, meters recovery and repair,
    /// adds the run to the trace counters and bumps the run index.
    fn finish_run(
        &mut self,
        mut stats: RunStats,
        outcome: PhaseOutcome,
        new_entries: &[SplitEntry<A::Key, A::Value>],
        mut recovery: RecoveryStats,
        repair_before: RepairStats,
    ) -> RunStats {
        let trace = self.trace.clone();
        stats.work.contraction_fg = outcome.tree_stats.foreground;
        stats.work.contraction_bg = outcome.tree_stats.background;
        stats.nodes_reused = outcome.tree_stats.reused;
        stats.work.reduce = outcome.reduce_work;
        stats.keys_reduced = outcome.keys_reduced;
        stats.keys_reused = outcome.keys_reused;
        stats.memo_read_bytes = outcome.tree_stats.bytes_read;
        stats.memo_written_bytes = outcome.tree_stats.bytes_written;

        // Per-partition contraction and reduce leaves (shard-fold order).
        // Foreground leaf works sum to `stats.work.contraction_fg.work`,
        // reduce leaves to `stats.work.reduce`, background leaves (their
        // own track: off the critical path) to `contraction_bg.work`.
        trace.with(|t| {
            let tr = t.track("engine");
            let fg = t.begin(tr, SpanKind::ContractionFg, "contraction-fg");
            for (p, pw) in outcome.per_partition.iter().enumerate() {
                if pw.fg_work > 0 {
                    t.leaf(
                        tr,
                        SpanKind::ContractionFg,
                        format!("partition {p}"),
                        pw.fg_work,
                    );
                }
            }
            t.end(fg);
            let reduce = t.begin(tr, SpanKind::Reduce, "reduce");
            for (p, pw) in outcome.per_partition.iter().enumerate() {
                if pw.reduce_work > 0 {
                    t.leaf(
                        tr,
                        SpanKind::Reduce,
                        format!("partition {p}"),
                        pw.reduce_work,
                    );
                }
            }
            t.end(reduce);
            if outcome.per_partition.iter().any(|pw| pw.bg_work > 0) {
                let bg_track = t.track("background");
                let bg = t.begin(bg_track, SpanKind::ContractionBg, "contraction-bg");
                for (p, pw) in outcome.per_partition.iter().enumerate() {
                    if pw.bg_work > 0 {
                        t.leaf(
                            bg_track,
                            SpanKind::ContractionBg,
                            format!("partition {p}"),
                            pw.bg_work,
                        );
                    }
                }
                t.end(bg);
            }
        });

        // Refresh shard footprints: every tree keeps its own current, so
        // this is a sum of O(1) reads.
        for shard in &mut self.state.shards {
            shard.refresh_footprint();
        }
        stats.memo_footprint_bytes = self.memo_footprint_bytes();
        stats.window_input_bytes = self.state.window.iter().map(|e| e.input_bytes).sum();

        // Data movement charged as work.
        let moved_bytes = stats.shuffle_bytes + stats.memo_read_bytes + stats.memo_written_bytes;
        stats.work.movement = moved_bytes / BYTES_PER_MOVEMENT_WORK;
        trace.with(|t| {
            let tr = t.track("engine");
            let movement = t.leaf(tr, SpanKind::Movement, "movement", stats.work.movement);
            t.arg(movement, "moved_bytes", moved_bytes);
            t.gauge(
                "engine.memo_footprint_bytes",
                stats.memo_footprint_bytes as f64,
            );
            t.gauge("engine.window_splits", self.state.window.len() as f64);
        });

        // ---- Cluster simulation (time metric). ---------------------------
        if let Some(sim) = self.state.config.simulation.clone() {
            let (fg, bg) = self.build_sim(&sim, new_entries, &outcome);
            stats.sim = Some(fg);
            stats.sim_background = bg;
        }

        // ---- Memoization-cache model. -------------------------------------
        if self.cache.is_some() {
            stats.cache = Some(self.play_cache_traffic(&mut recovery));
            self.run_cache_maintenance();
        }
        stats.recovery = recovery;
        if self.cache.is_some() {
            stats.repair = self.repair_stats().delta_since(&repair_before);
            // Repair traffic rides the same network as the job; account it
            // in the simulated schedule as off-critical-path background
            // bytes and time so makespans stay comparable.
            if let Some(sim) = &mut stats.sim {
                sim.attach_repair_traffic(
                    stats.repair.repair_bytes,
                    stats.repair.repair_ns + stats.repair.scrub_ns,
                );
            }
        }
        trace.with(|t| stats.trace_counters(t));

        // A shared simulator clock accrues each run's foreground makespan:
        // the cluster was busy for that long in virtual time.
        if let (Some(clock), Some(sim)) = (&self.clock, &stats.sim) {
            clock.advance(sim.makespan_ns);
        }

        self.state.run_index += 1;
        stats
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Applies this run's scripted faults before the slide: cache-node
    /// recoveries, then failures, corruptions, master loss and forced memo
    /// loss; a run the plan fails stops first, with
    /// [`JobError::Injected`]. Every id was checked when the job was
    /// built. Lost partitions
    /// rebuild their contraction state immediately by replaying the
    /// current (pre-slide) window through the initial-run path, so the
    /// slide that follows proceeds exactly as in a fault-free job — the
    /// combiner's associativity makes the rebuilt trees answer-equivalent
    /// even where their internal shape differs. All rebuild work lands in
    /// [`RecoveryStats`], never in the regular work breakdown.
    fn apply_planned_faults(&mut self, recovery: &mut RecoveryStats) -> Result<(), JobError> {
        let run = self.state.run_index;
        let Some(planned) = self
            .state
            .config
            .faults
            .as_ref()
            .and_then(|f| f.runs.get(&run))
            .cloned()
        else {
            return Ok(());
        };
        if planned.fails {
            return Err(JobError::Injected(format!("run {run} fails by plan")));
        }
        for &node in &planned.cache_recoveries {
            self.recover_cache_node(node)?;
        }
        for &node in &planned.cache_failures {
            self.fail_cache_node(node)?;
        }
        if let Some(cache) = &self.cache {
            for &(partition, node) in &planned.corruptions {
                let object = self.object_id(partition);
                cache.with(|c| c.corrupt_object(object, NodeId(node)));
            }
            if planned.loses_master {
                // The master crashes and restarts: the index is gone and is
                // rebuilt synchronously from the live nodes' inventories
                // before the run proceeds. Objects with no surviving copy
                // read NotFound below and recompute in the foreground.
                cache.with(|c| {
                    c.lose_master();
                    c.rebuild_master();
                });
            }
        }
        if planned.lost_partitions.is_empty() || self.state.config.mode.tree_kind().is_none() {
            // Nothing scripted, or vanilla recompute holds no memoized
            // state a loss could destroy.
            return Ok(());
        }
        self.rebuild_lost_shards(&planned.lost_partitions, recovery)
    }

    /// Drops and rebuilds the memoized state of `lost` partitions from the
    /// pre-slide window. The job's output view is left untouched: it was
    /// correct before the loss and the rebuild reproduces equivalent
    /// trees, so recomputing the outputs could only confirm the same values.
    fn rebuild_lost_shards(
        &mut self,
        lost: &[usize],
        recovery: &mut RecoveryStats,
    ) -> Result<(), JobError> {
        let kind = self
            .state
            .config
            .mode
            .tree_kind()
            .expect("caller checked incremental mode");
        let window_entries: Vec<_> = self.state.window.iter().cloned().collect();
        // Replaying the whole window as a slide with nothing removed
        // re-enters the initial-fill path of every tree family (`rotate`
        // sees zero pre-existing buckets, the others only additions).
        let cx = EditCx {
            app: &*self.app,
            combiner: &self.combiner,
            config: &self.state.config,
            window: &self.state.window,
            removed: &[],
            added: &window_entries,
            splice_at: None,
            was_full_buckets: false,
            kind,
            split_processing: false,
        };
        for &p in lost {
            let shard = &mut self.state.shards[p];
            if shard.trees.is_empty() {
                // Nothing memoized yet (e.g. a loss scripted before the
                // initial run): nothing to recover.
                continue;
            }
            shard.trees.clear();
            shard.memo_footprint = 0;
            if let Some(cache) = &self.cache {
                // The replicated object is gone too; the next cache read
                // fails over and ultimately misses, metered below.
                let object = ObjectId::namespaced(self.state.cache_ns, p as u64);
                cache.with(|c| c.lose_object(object));
            }
            let mut stats = UpdateStats::default();
            let recomputed = shard.edit(p, &cx, &mut stats)?;
            recovery.lost_partitions += 1;
            recovery.keys_recomputed += recomputed.len();
            let rebuild_work = stats.foreground.work + stats.background.work;
            let rebuild_merges = stats.foreground.merges + stats.background.merges;
            recovery.rebuild_work += rebuild_work;
            recovery.rebuild_merges += rebuild_merges;
            // Rebuild leaves carry the same work operand accumulated into
            // `RecoveryStats::rebuild_work`, so the recovery track
            // reconciles exactly.
            self.trace.with(|t| {
                let tr = t.track("recovery");
                let leaf = t.leaf(
                    tr,
                    SpanKind::Recovery,
                    format!("rebuild partition {p}"),
                    rebuild_work,
                );
                t.arg(leaf, "keys", recomputed.len() as u64);
                t.arg(leaf, "merges", rebuild_merges);
            });
        }
        Ok(())
    }

    fn validate_slide(
        &self,
        remove_splits: usize,
        added: &[Split<A::Input>],
    ) -> Result<(), JobError> {
        if remove_splits > self.state.window.len() {
            return Err(JobError::RemoveExceedsWindow {
                requested: remove_splits,
                window: self.state.window.len(),
            });
        }
        self.check_fresh_ids(added)?;
        self.check_slide_mode(remove_splits, added.len())
    }

    /// Window discipline of a slide that drops `remove_splits` splits and
    /// appends `added`: append-only (coalescing) jobs never remove, and
    /// fixed-width (rotating) jobs move in whole buckets within capacity.
    pub(crate) fn check_slide_mode(
        &self,
        remove_splits: usize,
        added: usize,
    ) -> Result<(), JobError> {
        let mode = self.state.config.mode;
        if mode.is_append_only() && remove_splits != 0 {
            return Err(JobError::ModeViolation(
                "append-only (coalescing) jobs cannot remove splits".into(),
            ));
        }
        if mode.is_fixed_width() {
            let w = self.state.config.bucket_width;
            if !remove_splits.is_multiple_of(w) || !added.is_multiple_of(w) {
                return Err(JobError::ModeViolation(format!(
                    "fixed-width slides must be whole buckets of {w} splits"
                )));
            }
            let capacity = self.state.config.window_buckets * w;
            let full = self.state.window.len() == capacity;
            if full && remove_splits != added {
                return Err(JobError::ModeViolation(
                    "a full fixed-width window must remove as many buckets as it adds".into(),
                ));
            }
            if !full {
                if remove_splits != 0 {
                    return Err(JobError::ModeViolation(
                        "fixed-width windows cannot shrink while filling".into(),
                    ));
                }
                if self.state.window.len() + added > capacity {
                    return Err(JobError::ModeViolation(format!(
                        "fixed-width window capacity is {capacity} splits"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Rejects split ids already used within this job's lifetime (or
    /// repeated within `added` itself).
    fn check_fresh_ids(&self, added: &[Split<A::Input>]) -> Result<(), JobError> {
        let mut fresh = HashSet::new();
        for split in added {
            if self.state.used_split_ids.contains(&split.id().0) || !fresh.insert(split.id().0) {
                return Err(JobError::DuplicateSplit(split.id().0));
            }
        }
        Ok(())
    }

    /// Window discipline shared by both interior-splice entry points:
    /// fixed-width (rotating) windows are positional bucket grids with no
    /// notion of an interior split range, and append-only (coalescing)
    /// jobs never evict.
    pub(crate) fn check_splice_mode(&self, evicting: bool) -> Result<(), JobError> {
        let mode = self.state.config.mode;
        if mode.is_fixed_width() {
            return Err(JobError::ModeViolation(
                "fixed-width (rotating) windows are positional: interior splices \
                 are not defined; use whole-bucket advances"
                    .into(),
            ));
        }
        if evicting && mode.is_append_only() {
            return Err(JobError::ModeViolation(
                "append-only (coalescing) jobs cannot evict splits".into(),
            ));
        }
        Ok(())
    }

    /// Folds one shard's outcome into `outcome` and applies its output
    /// deltas to the merged read view, `output`: a key's entry is updated
    /// in place, and the key is cloned only when its entry is created.
    fn fold_shard_outcome(
        output: &mut BTreeMap<A::Key, A::Output>,
        outcome: &mut PhaseOutcome,
        shard_out: ShardOutcome<'_, A>,
    ) {
        outcome.keys_reduced += shard_out.keys_reduced;
        outcome.keys_reused += shard_out.keys_reused;
        outcome.reduce_work += shard_out.work.reduce_work;
        outcome.tree_stats.merge_from(&shard_out.tree_stats);
        outcome.per_partition.push(shard_out.work);
        for (key, value) in shard_out.deltas {
            match value {
                Some(out) => match output.get_mut(key) {
                    Some(entry) => *entry = out,
                    None => {
                        output.insert(key.clone(), out);
                    }
                },
                None => {
                    output.remove(key);
                }
            }
        }
    }

    /// Executes Map tasks for `splits` on the runtime's worker pool, with
    /// deterministic (input-order) assembly of the pre-partitioned,
    /// map-side-combined outputs.
    fn map_splits(&self, splits: &[Split<A::Input>]) -> Vec<SplitEntry<A::Key, A::Value>> {
        let app = &*self.app;
        let parts = self.state.config.partitions;
        self.runtime
            .map(splits, |_, split| map_one_split(app, parts, split))
    }

    /// Vanilla recomputation: every shard discards its incremental state
    /// and re-reduces every key over all per-split values, one runtime
    /// worker per shard. Each shard returns every output it computed as a
    /// delta, so the view starts empty and keys that left the window drop.
    fn run_recompute(&mut self) -> PhaseOutcome {
        let app = &*self.app;
        let window = &self.state.window;
        let results = self.runtime.map_mut(&mut self.state.shards, |p, shard| {
            shard.run_recompute(p, app, window)
        });
        self.state.output.clear();
        let mut outcome = PhaseOutcome::default();
        for shard_out in results {
            Self::fold_shard_outcome(&mut self.state.output, &mut outcome, shard_out);
        }
        outcome
    }
}
