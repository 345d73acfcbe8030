//! Multi-job pipelines with per-stage incremental processing (paper §5).
//!
//! Declarative queries compile into a pipeline of MapReduce jobs. Only the
//! first job consumes the sliding window directly, so only it can use the
//! window-specific self-adjusting tree; from the second stage onwards,
//! input changes appear at *arbitrary positions*. Slider handles those
//! stages with the strawman contraction tree: each stage's input is hashed
//! into a fixed number of buckets, changed buckets dirty the keys they
//! contain, and per-key strawman trees re-pair with memoization so fresh
//! combiner work stays proportional to the changed buckets.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use slider_cluster::{simulate, SimReport, Task};
use slider_core::{hash_pair, StrawmanTree, TreeCx, UpdateStats};

use crate::app::{AppCombiner, MapReduceApp};
use crate::error::JobError;
use crate::runtime::Runtime;
use crate::shuffle::partition_of;
use crate::split::Split;
use crate::stats::RunStats;
use crate::windowed::{JobConfig, SimulationConfig, WindowedJob};

/// A pipeline stage: a plain MapReduce application plus a rendering of its
/// reduced output back into rows for the next stage.
pub trait StageApp: MapReduceApp {
    /// Row type flowing *out* of this stage (and into the next).
    type Row: Clone + Eq + Hash + Send + Sync;

    /// Renders one reduced key into output rows.
    fn render(&self, key: &Self::Key, output: &Self::Output) -> Vec<Self::Row>;
}

/// Work metered for one inner stage's run.
#[derive(Debug, Clone, Default)]
pub struct InnerStageStats {
    /// Map work over changed buckets.
    pub map_work: u64,
    /// Contraction work (strawman re-pairing).
    pub tree: UpdateStats,
    /// Reduce work over dirty keys.
    pub reduce_work: u64,
    /// Buckets whose content changed this run.
    pub buckets_changed: usize,
    /// Buckets total.
    pub buckets_total: usize,
    /// Keys re-reduced.
    pub keys_reduced: usize,
    /// Simulated schedule of this stage's job (when the pipeline's first
    /// job has simulation configured).
    pub sim: Option<SimReport>,
}

impl InnerStageStats {
    /// Total work units this stage spent.
    pub fn total_work(&self) -> u64 {
        self.map_work + self.tree.foreground.work + self.reduce_work
    }
}

/// Result of one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineRunResult {
    /// Stats of the window-facing first stage.
    pub first: RunStats,
    /// Stats of each inner stage, in pipeline order.
    pub inner: Vec<InnerStageStats>,
}

impl PipelineRunResult {
    /// Total foreground work across all stages.
    pub fn total_work(&self) -> u64 {
        self.first.work.foreground_total()
            + self
                .inner
                .iter()
                .map(InnerStageStats::total_work)
                .sum::<u64>()
    }

    /// End-to-end simulated runtime in nanoseconds: the first job's
    /// makespan plus every inner job's simulated makespan (jobs are
    /// pipelined sequentially). `None` when the pipeline runs without
    /// simulation.
    pub fn total_ns(&self) -> Option<u64> {
        let mut t = self.first.sim.as_ref()?.makespan_ns;
        for stage in &self.inner {
            t += stage.sim.as_ref()?.makespan_ns;
        }
        Some(t)
    }

    /// Recovery work of this run. Fault plans attach to the window-facing
    /// first stage (inner stages hold only state derivable from its rows),
    /// so this is the first job's [`RecoveryStats`](crate::RecoveryStats).
    pub fn recovery(&self) -> &crate::stats::RecoveryStats {
        &self.first.recovery
    }

    /// Background self-healing work of this run. Like fault plans, the
    /// memoization cache attaches to the window-facing first stage, so
    /// this is the first job's [`slider_dcache::RepairStats`].
    pub fn repair(&self) -> &slider_dcache::RepairStats {
        &self.first.repair
    }
}

/// Object-safe view of an inner stage for heterogeneous pipelines.
trait DynInnerStage<R>: Send {
    fn run(
        &mut self,
        rows: &[R],
        sim: Option<&SimulationConfig>,
        runtime: &Runtime,
    ) -> InnerStageStats;
    fn output_rows(&self) -> Vec<R>;
    fn name(&self) -> &str;
}

/// One change-detection bucket of an inner stage, self-contained so the
/// shared [`Runtime`] can re-map changed buckets in parallel.
struct BucketState<K, V> {
    /// Content hash from the previous run.
    hash: u64,
    /// Per-key combined value and its version counter.
    values: BTreeMap<K, (V, u64)>,
}

/// What one bucket reports back from a (possible) re-map.
struct BucketOutcome<K> {
    changed: bool,
    map_work: u64,
    dirty: Vec<K>,
}

/// What one dirty key's strawman re-pair + reduce reports back.
struct KeyOutcome<A: MapReduceApp> {
    tree_stats: UpdateStats,
    reduce_work: u64,
    /// `None` when the key's leaf set emptied and the key disappears.
    output: Option<A::Output>,
}

/// An inner pipeline stage: bucket-diffed strawman-tree incremental
/// MapReduce over the previous stage's output rows.
struct InnerStage<A: StageApp<Input = R>, R> {
    name: String,
    app: Arc<A>,
    combiner: AppCombiner<A>,
    buckets: usize,
    /// When false (vanilla baseline), all state is discarded every run and every
    /// bucket recomputes from scratch.
    incremental: bool,
    /// Per-bucket change-detection state.
    buckets_state: Vec<BucketState<A::Key, A::Value>>,
    /// Per-key strawman trees over (bucket, version)-identified leaves.
    trees: HashMap<A::Key, StrawmanTree<A::Value>>,
    output: BTreeMap<A::Key, A::Output>,
}

impl<A: StageApp<Input = R>, R: Clone + Eq + Hash + Send + Sync> InnerStage<A, R> {
    fn new(name: String, app: A, buckets: usize, incremental: bool) -> Self {
        let app = Arc::new(app);
        InnerStage {
            name,
            combiner: AppCombiner::new(Arc::clone(&app)),
            app,
            buckets,
            incremental,
            buckets_state: (0..buckets)
                .map(|_| BucketState {
                    hash: 0,
                    values: BTreeMap::new(),
                })
                .collect(),
            trees: HashMap::new(),
            output: BTreeMap::new(),
        }
    }

    /// Order-insensitive content hash of a bucket's rows.
    fn content_hash(rows: &[&R]) -> u64 {
        rows.iter()
            .map(|r| hash_pair(crate::shuffle::stable_hash(*r), 0x5740_6e00))
            .fold(0u64, u64::wrapping_add)
    }

    /// Re-maps one bucket if its content changed: map + map-side combine,
    /// then a diff against the bucket's previous per-key values. Runs on a
    /// runtime worker; everything it touches is owned by the bucket.
    fn run_bucket(
        app: &A,
        state: &mut BucketState<A::Key, A::Value>,
        rows: &[&R],
    ) -> BucketOutcome<A::Key> {
        let hash = Self::content_hash(rows);
        if hash == state.hash {
            return BucketOutcome {
                changed: false,
                map_work: 0,
                dirty: Vec::new(),
            };
        }
        state.hash = hash;
        let mut map_work = 0u64;

        // Re-map the changed bucket (charged to map work).
        let mut fresh: BTreeMap<A::Key, A::Value> = BTreeMap::new();
        for row in rows {
            map_work += app.map_cost(row);
            let work = &mut map_work;
            let mut emit = |key: A::Key, value: A::Value| match fresh.entry(key) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(value);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let key = e.key().clone();
                    *work += app.combine_cost(&key, e.get(), &value);
                    let merged = app.combine(&key, e.get(), &value);
                    *e.get_mut() = merged;
                }
            };
            app.map(row, &mut emit);
        }

        // Diff against the bucket's previous per-key values.
        let mut dirty = Vec::new();
        let old = std::mem::take(&mut state.values);
        let mut next: BTreeMap<A::Key, (A::Value, u64)> = BTreeMap::new();
        for (key, (value, version)) in old {
            match fresh.remove(&key) {
                Some(new_value) => {
                    // Key stays in the bucket: bump the version so its
                    // leaf identity (and root path) refreshes.
                    dirty.push(key.clone());
                    next.insert(key, (new_value, version + 1));
                }
                None => {
                    // Key left the bucket.
                    dirty.push(key);
                    let _ = (value, version);
                }
            }
        }
        for (key, value) in fresh {
            dirty.push(key.clone());
            next.insert(key, (value, 0));
        }
        state.values = next;
        BucketOutcome {
            changed: true,
            map_work,
            dirty,
        }
    }

    /// Re-pairs one dirty key's strawman tree over its current leaves and
    /// reduces the root. Runs on a runtime worker; the tree is owned, the
    /// bucket states are shared read-only.
    fn run_key(
        app: &A,
        combiner: &AppCombiner<A>,
        buckets_state: &[BucketState<A::Key, A::Value>],
        key: &A::Key,
        tree: &mut StrawmanTree<A::Value>,
    ) -> KeyOutcome<A> {
        let leaves: Vec<(u64, A::Value)> = buckets_state
            .iter()
            .enumerate()
            .filter_map(|(b, state)| {
                state
                    .values
                    .get(key)
                    .map(|(value, version)| (hash_pair(b as u64, *version), value.clone()))
            })
            .collect();
        if leaves.is_empty() {
            return KeyOutcome {
                tree_stats: UpdateStats::default(),
                reduce_work: 0,
                output: None,
            };
        }
        let mut tree_stats = UpdateStats::default();
        let mut cx = TreeCx::new(combiner, key, &mut tree_stats);
        tree.set_leaves(&mut cx, leaves);
        let root = slider_core::WindowAggregator::<A::Key, A::Value>::root(tree)
            .expect("non-empty leaf set has a root");
        let refs = [root];
        let reduce_work = app.reduce_cost(key, &refs);
        let output = app.reduce(key, &refs);
        KeyOutcome {
            tree_stats,
            reduce_work,
            output: Some(output),
        }
    }
}

impl<A, R> DynInnerStage<R> for InnerStage<A, R>
where
    A: StageApp<Input = R, Row = R>,
    R: Clone + Eq + Hash + Send + Sync + 'static,
{
    fn run(
        &mut self,
        rows: &[R],
        sim: Option<&SimulationConfig>,
        runtime: &Runtime,
    ) -> InnerStageStats {
        let mut stats = InnerStageStats {
            buckets_total: self.buckets,
            ..Default::default()
        };

        if !self.incremental {
            // Vanilla baseline: forget everything so every bucket re-maps
            // and every key re-reduces from scratch.
            for state in &mut self.buckets_state {
                state.hash = u64::MAX;
                state.values.clear();
            }
            self.trees.clear();
            self.output.clear();
        }

        // 1. Assign rows to buckets.
        let mut by_bucket: Vec<Vec<&R>> = (0..self.buckets).map(|_| Vec::new()).collect();
        for row in rows {
            by_bucket[partition_of(row, self.buckets)].push(row);
        }

        // 2. Hash, re-map, and diff every bucket, in parallel across bucket
        //    shards. Outcomes come back in bucket order, so the stat fold
        //    below is identical for any worker count.
        let app = &*self.app;
        type BucketTask<'t, K, V, R> = (&'t mut BucketState<K, V>, Vec<&'t R>);
        let mut bucket_tasks: Vec<BucketTask<'_, A::Key, A::Value, R>> =
            self.buckets_state.iter_mut().zip(by_bucket).collect();
        let bucket_outcomes = runtime.map_mut(&mut bucket_tasks, |_, (state, rows)| {
            Self::run_bucket(app, state, rows)
        });
        drop(bucket_tasks);
        let mut dirty_keys: std::collections::BTreeSet<A::Key> = std::collections::BTreeSet::new();
        for outcome in bucket_outcomes {
            stats.buckets_changed += usize::from(outcome.changed);
            stats.map_work += outcome.map_work;
            dirty_keys.extend(outcome.dirty);
        }

        // 3. Re-pair the strawman tree of every dirty key, in parallel. Each
        //    worker owns the key's tree (detached from the map) and reads the
        //    bucket states; outcomes fold in sorted key order.
        let mut key_tasks: Vec<(A::Key, StrawmanTree<A::Value>)> = dirty_keys
            .into_iter()
            .map(|key| {
                let tree = self.trees.remove(&key).unwrap_or_default();
                (key, tree)
            })
            .collect();
        let combiner = &self.combiner;
        let buckets_state = &self.buckets_state;
        let key_outcomes = runtime.map_mut(&mut key_tasks, |_, (key, tree)| {
            Self::run_key(app, combiner, buckets_state, key, tree)
        });
        stats.tree = UpdateStats::merged(key_outcomes.iter().map(|o| &o.tree_stats));
        for ((key, tree), outcome) in key_tasks.into_iter().zip(key_outcomes) {
            stats.reduce_work += outcome.reduce_work;
            match outcome.output {
                Some(out) => {
                    stats.keys_reduced += 1;
                    self.trees.insert(key.clone(), tree);
                    self.output.insert(key, out);
                }
                None => {
                    // Leaf set emptied: the key's tree stays detached
                    // (dropped) and its output disappears.
                    self.output.remove(&key);
                }
            }
        }

        // Simulate this job's schedule: one map task per re-mapped bucket,
        // the tree+reduce work spread over the stage's reduce-side
        // parallelism.
        if let Some(sim) = sim {
            let machines = sim.cluster.len().max(1);
            let mut tasks_map = Vec::new();
            if stats.buckets_changed > 0 {
                let per = stats.map_work / stats.buckets_changed as u64;
                for b in 0..stats.buckets_changed {
                    tasks_map.push(
                        Task::map(b as u64, per).prefer(slider_cluster::MachineId(b % machines)),
                    );
                }
            }
            let reduce_work = stats.tree.foreground.work + stats.reduce_work;
            let reducers = self.buckets.clamp(1, 8);
            let tasks_reduce: Vec<Task> = (0..reducers)
                .map(|r| {
                    Task::reduce(1_000 + r as u64, reduce_work / reducers as u64)
                        .prefer(slider_cluster::MachineId(r % machines))
                })
                .collect();
            stats.sim = Some(simulate(
                &sim.cluster,
                sim.policy,
                &[tasks_map, tasks_reduce],
            ));
        }
        stats
    }

    fn output_rows(&self) -> Vec<R> {
        self.output
            .iter()
            .flat_map(|(key, out)| self.app.render(key, out))
            .collect()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A multi-job incremental pipeline: a window-facing [`WindowedJob`]
/// followed by strawman-tree inner stages (§5).
pub struct Pipeline<F>
where
    F: StageApp,
{
    first: WindowedJob<F>,
    first_app: Arc<F>,
    inner: Vec<Box<dyn DynInnerStage<F::Row>>>,
}

impl<F: StageApp> fmt::Debug for Pipeline<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("first", &self.first)
            .field("inner_stages", &self.inner.len())
            .finish()
    }
}

impl<F> Pipeline<F>
where
    F: StageApp + Clone,
    F::Row: 'static,
{
    /// Creates a pipeline whose first stage runs `app` under `config`.
    ///
    /// # Errors
    ///
    /// Propagates [`JobError::BadConfig`] from the first-stage job.
    pub fn new(app: F, config: JobConfig) -> Result<Self, JobError> {
        let first_app = Arc::new(app.clone());
        let first = WindowedJob::new(app, config)?;
        Ok(Pipeline {
            first,
            first_app,
            inner: Vec::new(),
        })
    }

    /// Appends an inner stage consuming the previous stage's rows, with its
    /// input hashed into `buckets` buckets for change detection.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn add_stage<A>(mut self, name: impl Into<String>, app: A, buckets: usize) -> Self
    where
        A: StageApp<Input = F::Row, Row = F::Row> + 'static,
    {
        assert!(buckets > 0, "an inner stage needs at least one bucket");
        // A vanilla (recompute) first stage makes the whole pipeline the
        // non-incremental baseline: inner stages recompute too.
        let incremental = self.first.config().mode != crate::windowed::ExecMode::Recompute;
        self.inner.push(Box::new(InnerStage::new(
            name.into(),
            app,
            buckets,
            incremental,
        )));
        self
    }

    /// Number of stages (first + inner).
    pub fn stages(&self) -> usize {
        1 + self.inner.len()
    }

    /// Names of the inner stages, in order.
    pub fn stage_names(&self) -> Vec<&str> {
        self.inner.iter().map(|s| s.name()).collect()
    }

    /// Runs the initial window through every stage.
    ///
    /// # Errors
    ///
    /// Propagates first-stage errors; inner stages are infallible.
    pub fn initial_run(
        &mut self,
        splits: Vec<Split<F::Input>>,
    ) -> Result<PipelineRunResult, JobError> {
        let first = self.first.initial_run(splits)?;
        Ok(self.run_inner(first))
    }

    /// Slides the window and propagates the change through every stage.
    ///
    /// # Errors
    ///
    /// Propagates first-stage errors; inner stages are infallible.
    pub fn advance(
        &mut self,
        remove_splits: usize,
        added: Vec<Split<F::Input>>,
    ) -> Result<PipelineRunResult, JobError> {
        let first = self.first.advance(remove_splits, added)?;
        Ok(self.run_inner(first))
    }

    /// Rows produced by the final stage.
    pub fn final_rows(&self) -> Vec<F::Row> {
        match self.inner.last() {
            Some(stage) => stage.output_rows(),
            None => self.first_stage_rows(),
        }
    }

    /// The shared execution runtime every stage of this pipeline runs on.
    pub fn runtime(&self) -> &Runtime {
        self.first.runtime()
    }

    /// The trace sink every stage of this pipeline emits to (owned by the
    /// window-facing first job; see [`WindowedJob::trace`]).
    pub fn trace(&self) -> &slider_trace::TraceSink {
        self.first.trace()
    }

    fn first_stage_rows(&self) -> Vec<F::Row> {
        self.first
            .output()
            .iter()
            .flat_map(|(key, out)| self.first_app.render(key, out))
            .collect()
    }

    fn run_inner(&mut self, first: RunStats) -> PipelineRunResult {
        let sim = self.first.config().simulation.clone();
        let runtime = self.first.runtime().clone();
        let trace = self.first.trace().clone();
        let mut result = PipelineRunResult {
            first,
            inner: Vec::new(),
        };
        let mut rows = self.first_stage_rows();
        for stage in &mut self.inner {
            let stats = stage.run(&rows, sim.as_ref(), &runtime);
            rows = stage.output_rows();
            // One Stage span per inner stage, with phase leaves carrying
            // the exact work operands stored in `InnerStageStats` — the
            // pipeline track reconciles per kind against the stats fold.
            trace.with(|t| {
                use slider_trace::SpanKind;
                let tr = t.track("pipeline");
                let span = t.begin(tr, SpanKind::Stage, format!("stage {}", stage.name()));
                if stats.map_work > 0 {
                    let leaf = t.leaf(tr, SpanKind::Map, "map", stats.map_work);
                    t.arg(leaf, "buckets_changed", stats.buckets_changed as u64);
                }
                if stats.tree.foreground.work > 0 {
                    t.leaf(
                        tr,
                        SpanKind::ContractionFg,
                        "contraction-fg",
                        stats.tree.foreground.work,
                    );
                }
                if stats.reduce_work > 0 {
                    t.leaf(tr, SpanKind::Reduce, "reduce", stats.reduce_work);
                }
                t.end(span);
                t.add("pipeline.buckets_changed", stats.buckets_changed as u64);
                t.add("pipeline.keys_reduced", stats.keys_reduced as u64);
            });
            result.inner.push(stats);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::make_splits;
    use crate::windowed::ExecMode;

    /// Stage 1: word count over text lines, rendering "word count" rows.
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
    impl StageApp for WordCount {
        type Row = (String, u64);
        fn render(&self, key: &String, output: &u64) -> Vec<(String, u64)> {
            vec![(key.clone(), *output)]
        }
    }

    /// Stage 2: histogram of counts — how many words occur `n` times.
    struct CountHistogram;
    impl MapReduceApp for CountHistogram {
        type Input = (String, u64);
        type Key = u64;
        type Value = u64;
        type Output = u64;
        fn map(&self, row: &(String, u64), emit: &mut dyn FnMut(u64, u64)) {
            emit(row.1, 1);
        }
        fn combine(&self, _k: &u64, a: &u64, b: &u64) -> u64 {
            a + b
        }
        fn reduce(&self, _k: &u64, parts: &[&u64]) -> u64 {
            parts.iter().copied().sum()
        }
    }
    impl StageApp for CountHistogram {
        type Row = (String, u64);
        fn render(&self, key: &u64, output: &u64) -> Vec<(String, u64)> {
            vec![(format!("count:{key}"), *output)]
        }
    }

    fn reference_histogram(window: &[&str]) -> BTreeMap<String, u64> {
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        for line in window {
            for word in line.split_whitespace() {
                *counts.entry(word.to_string()).or_insert(0) += 1;
            }
        }
        let mut hist: BTreeMap<String, u64> = BTreeMap::new();
        for count in counts.values() {
            *hist.entry(format!("count:{count}")).or_insert(0) += 1;
        }
        hist
    }

    fn build() -> Pipeline<WordCount> {
        Pipeline::new(
            WordCount,
            JobConfig::new(ExecMode::slider_folding()).with_partitions(2),
        )
        .unwrap()
        .add_stage("histogram", CountHistogram, 4)
    }

    #[test]
    fn two_stage_pipeline_matches_reference() {
        let corpus = ["a b c", "b c d", "c d e", "a a", "e e e e"];
        let mut pipeline = build();
        pipeline
            .initial_run(make_splits(
                0,
                corpus[0..3].iter().map(|s| s.to_string()).collect(),
                1,
            ))
            .unwrap();
        let got: BTreeMap<String, u64> = pipeline.final_rows().into_iter().collect();
        assert_eq!(got, reference_histogram(&corpus[0..3]));

        // Slide: drop one split, add two.
        pipeline
            .advance(
                1,
                make_splits(10, corpus[3..5].iter().map(|s| s.to_string()).collect(), 1),
            )
            .unwrap();
        let got: BTreeMap<String, u64> = pipeline.final_rows().into_iter().collect();
        assert_eq!(got, reference_histogram(&corpus[1..5]));
    }

    #[test]
    fn inner_stage_work_scales_with_changed_buckets() {
        // Large stable vocabulary; a slide touching few words should leave
        // most inner-stage buckets untouched.
        let lines: Vec<String> = (0..128).map(|i| format!("w{i}")).collect();
        let mut pipeline = Pipeline::new(
            WordCount,
            JobConfig::new(ExecMode::slider_folding()).with_partitions(2),
        )
        .unwrap()
        .add_stage("histogram", CountHistogram, 16);
        let initial = pipeline.initial_run(make_splits(0, lines, 4)).unwrap();
        assert_eq!(
            initial.inner[0].buckets_changed, 16,
            "initial run touches all"
        );

        let update = pipeline
            .advance(1, make_splits(100, vec!["w0 w1 w2 w3".to_string()], 4))
            .unwrap();
        let inner = &update.inner[0];
        assert!(
            inner.buckets_changed < inner.buckets_total,
            "only buckets containing changed counts should re-map ({}/{})",
            inner.buckets_changed,
            inner.buckets_total
        );
        assert!(update.total_work() < initial.total_work());
    }

    #[test]
    fn memo_loss_in_the_first_stage_leaves_pipeline_rows_identical() {
        let corpus = ["a b c", "b c d", "c d e", "a a", "e e e e", "b d"];
        let plan = crate::fault::JobFaultPlan::none().lose_memo(1, vec![0, 1]);
        let run = |faults: Option<crate::fault::JobFaultPlan>| {
            let mut config = JobConfig::new(ExecMode::slider_folding()).with_partitions(2);
            if let Some(f) = faults {
                config = config.with_faults(f);
            }
            let mut pipeline =
                Pipeline::new(WordCount, config)
                    .unwrap()
                    .add_stage("histogram", CountHistogram, 4);
            pipeline
                .initial_run(make_splits(
                    0,
                    corpus[0..3].iter().map(|s| s.to_string()).collect(),
                    1,
                ))
                .unwrap();
            let stats = pipeline
                .advance(
                    1,
                    make_splits(10, corpus[3..6].iter().map(|s| s.to_string()).collect(), 1),
                )
                .unwrap();
            let mut rows = pipeline.final_rows();
            rows.sort();
            (rows, stats)
        };
        let (faulty_rows, faulty_stats) = run(Some(plan));
        let (twin_rows, twin_stats) = run(None);
        assert_eq!(faulty_rows, twin_rows, "loss must not change pipeline rows");
        assert_eq!(faulty_stats.recovery().lost_partitions, 2);
        assert!(faulty_stats.recovery().rebuild_work > 0);
        assert!(twin_stats.recovery().is_zero());
    }

    #[test]
    fn single_stage_pipeline_renders_first_stage() {
        let mut pipeline = Pipeline::new(
            WordCount,
            JobConfig::new(ExecMode::slider_folding()).with_partitions(2),
        )
        .unwrap();
        pipeline
            .initial_run(make_splits(0, vec!["x y x".to_string()], 1))
            .unwrap();
        let mut rows = pipeline.final_rows();
        rows.sort();
        assert_eq!(rows, vec![("x".to_string(), 2), ("y".to_string(), 1)]);
        assert_eq!(pipeline.stages(), 1);
    }

    #[test]
    fn inner_stage_results_do_not_depend_on_thread_count() {
        let corpus: Vec<String> = (0..96)
            .map(|i| format!("w{} w{} shared", i % 31, i % 7))
            .collect();
        let mut runs = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut pipeline = Pipeline::new(
                WordCount,
                JobConfig::new(ExecMode::slider_folding())
                    .with_partitions(3)
                    .with_threads(threads),
            )
            .unwrap()
            .add_stage("histogram", CountHistogram, 8);
            let initial = pipeline
                .initial_run(make_splits(0, corpus.clone(), 4))
                .unwrap();
            let update = pipeline
                .advance(2, make_splits(500, vec!["w0 w1 fresh".to_string()], 1))
                .unwrap();
            let rows: BTreeMap<String, u64> = pipeline.final_rows().into_iter().collect();
            runs.push((rows, format!("{initial:?} {update:?}")));
        }
        assert_eq!(runs[0], runs[1], "1 vs 2 threads");
        assert_eq!(runs[0], runs[2], "1 vs 4 threads");
    }

    #[test]
    fn stage_names_are_tracked() {
        let pipeline = build();
        assert_eq!(pipeline.stage_names(), vec!["histogram"]);
        assert_eq!(pipeline.stages(), 2);
    }
}
