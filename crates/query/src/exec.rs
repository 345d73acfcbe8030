//! Query compilation and incremental execution.

use std::error::Error;
use std::fmt;

use slider_mapreduce::{JobConfig, JobError, Pipeline, PipelineRunResult, Split, TraceSink};

use crate::plan::{Query, QueryOp, Row};
use crate::stage::RowStage;

/// Errors from query compilation or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QueryError {
    /// The underlying MapReduce job rejected the operation.
    Job(JobError),
    /// The plan cannot be compiled (detailed in the message).
    BadPlan(String),
    /// A non-blocking operator appeared where a job must end; only
    /// group-by, distinct, top-k, or a trailing collect may close a stage.
    TrailingOperator {
        /// Debug rendering of the offending operator.
        op: String,
    },
    /// Two partial aggregates of different shapes were merged.
    MismatchedAggregates {
        /// Debug rendering of the left partial.
        left: String,
        /// Debug rendering of the right partial.
        right: String,
    },
    /// A stage received a partial value its blocking operator cannot
    /// process (e.g. a top-k buffer outside a top-k stage).
    IncompatibleValue {
        /// Debug rendering of the stage's blocking operator.
        stage: String,
        /// Debug rendering of the offending value.
        value: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Job(e) => write!(f, "job error: {e}"),
            QueryError::BadPlan(msg) => write!(f, "bad query plan: {msg}"),
            QueryError::TrailingOperator { op } => {
                write!(f, "operator {op} does not end a job")
            }
            QueryError::MismatchedAggregates { left, right } => {
                write!(f, "mismatched partial aggregates: {left} vs {right}")
            }
            QueryError::IncompatibleValue { stage, value } => {
                write!(f, "stage {stage} received incompatible value {value}")
            }
        }
    }
}

impl Error for QueryError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            QueryError::Job(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JobError> for QueryError {
    fn from(e: JobError) -> Self {
        QueryError::Job(e)
    }
}

/// Statistics of one query run: the underlying pipeline's result.
pub type QueryRunStats = PipelineRunResult;

/// A compiled, incrementally executable query.
///
/// Obtained from [`Query::compile`]; drive it with
/// [`QueryExecutor::initial_run`] / [`QueryExecutor::advance`] and read
/// [`QueryExecutor::rows`].
///
/// Execution runs on the pipeline's shared partition-sharded runtime
/// ([`slider_mapreduce::Runtime`]): the window-facing first job
/// parallelizes across its reduce partitions and every inner job across
/// its change-detection buckets and dirty keys. The worker count comes
/// from [`JobConfig::with_threads`] (or the `SLIDER_THREADS` environment
/// variable) and never affects query answers or metered work.
#[derive(Debug)]
pub struct QueryExecutor {
    pipeline: Pipeline<RowStage>,
    jobs: usize,
}

impl Query {
    /// Compiles the query into a pipeline: the window-facing first job runs
    /// under `config` (whose [`slider_mapreduce::ExecMode`] selects the
    /// §3–§4 tree), and every later job uses strawman trees over
    /// `inner_buckets` change-detection buckets (§5).
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::BadPlan`] for unusable plans and propagates
    /// job-configuration errors.
    pub fn compile(
        &self,
        config: JobConfig,
        inner_buckets: usize,
    ) -> Result<QueryExecutor, QueryError> {
        if inner_buckets == 0 {
            return Err(QueryError::BadPlan("inner_buckets must be positive".into()));
        }
        // Split the operator list into jobs at blocking operators.
        let mut jobs: Vec<(Vec<QueryOp>, Option<QueryOp>)> = Vec::new();
        let mut fused: Vec<QueryOp> = Vec::new();
        for op in self.ops() {
            if op.is_blocking() {
                jobs.push((std::mem::take(&mut fused), Some(op.clone())));
            } else {
                fused.push(op.clone());
            }
        }
        if !fused.is_empty() || jobs.is_empty() {
            jobs.push((fused, None));
        }

        let mut iter = jobs.into_iter();
        let (first_mappers, first_blocking) = iter.next().expect("at least one job");
        let mut pipeline = Pipeline::new(RowStage::new(first_mappers, first_blocking)?, config)?;
        for (i, (mappers, blocking)) in iter.enumerate() {
            pipeline = pipeline.add_stage(
                format!("stage-{}", i + 2),
                RowStage::new(mappers, blocking)?,
                inner_buckets,
            );
        }
        let jobs = pipeline.stages();
        Ok(QueryExecutor { pipeline, jobs })
    }
}

impl QueryExecutor {
    /// Number of MapReduce jobs in the compiled pipeline.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs the initial window through the pipeline.
    ///
    /// # Errors
    ///
    /// Propagates window-discipline violations from the first job.
    pub fn initial_run(&mut self, splits: Vec<Split<Row>>) -> Result<QueryRunStats, QueryError> {
        let stats = self.pipeline.initial_run(splits)?;
        self.trace_run();
        Ok(stats)
    }

    /// Slides the window and updates the query answer incrementally.
    ///
    /// # Errors
    ///
    /// Propagates window-discipline violations from the first job.
    pub fn advance(
        &mut self,
        remove_splits: usize,
        added: Vec<Split<Row>>,
    ) -> Result<QueryRunStats, QueryError> {
        let stats = self.pipeline.advance(remove_splits, added)?;
        self.trace_run();
        Ok(stats)
    }

    /// The current query answer.
    pub fn rows(&self) -> Vec<Row> {
        self.pipeline.final_rows()
    }

    /// Worker threads the underlying runtime uses for this query.
    pub fn runtime_threads(&self) -> usize {
        self.pipeline.runtime().threads()
    }

    /// The trace sink the compiled pipeline emits to (see
    /// [`slider_mapreduce::JobConfig::with_trace`]).
    pub fn trace(&self) -> &TraceSink {
        self.pipeline.trace()
    }

    /// Counts one query run. Its work is traced once, by the jobs: the
    /// first job's on the `engine` track, the inner jobs' on the
    /// `pipeline` track.
    fn trace_run(&self) {
        self.pipeline.trace().with(|t| t.add("query.runs", 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AggFn, CmpOp, Expr, Field, Predicate};
    use slider_mapreduce::{make_splits, ExecMode};

    fn views(n: i64) -> Vec<Row> {
        // [user, page, revenue]
        (0..n)
            .map(|i| {
                vec![
                    Field::Int(i % 5),
                    Field::Int(i % 3),
                    Field::Int(10 * (i % 7)),
                ]
            })
            .collect()
    }

    fn reference_group_sum(rows: &[Row]) -> std::collections::BTreeMap<i64, i64> {
        let mut out = std::collections::BTreeMap::new();
        for r in rows {
            *out.entry(r[1].as_int().unwrap()).or_insert(0) += r[2].as_int().unwrap();
        }
        out
    }

    #[test]
    fn single_job_group_by_matches_reference() {
        let query = Query::load().group_by(vec![1], vec![AggFn::Sum(2)]);
        let mut exec = query
            .compile(
                JobConfig::new(ExecMode::slider_folding()).with_partitions(2),
                4,
            )
            .unwrap();
        assert_eq!(exec.jobs(), 1);

        let data = views(30);
        exec.initial_run(make_splits(0, data[0..20].to_vec(), 5))
            .unwrap();
        let expected = reference_group_sum(&data[0..20]);
        let got: std::collections::BTreeMap<i64, i64> = exec
            .rows()
            .into_iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(got, expected);

        // Slide.
        exec.advance(1, make_splits(100, data[20..30].to_vec(), 5))
            .unwrap();
        let expected = reference_group_sum(&data[5..30]);
        let got: std::collections::BTreeMap<i64, i64> = exec
            .rows()
            .into_iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn multi_job_pipeline_with_filter_and_topk() {
        // Pages with total revenue, filtered to busy users, top-2 pages.
        let query = Query::load()
            .filter(Predicate::Cmp {
                left: Expr::Col(0),
                op: CmpOp::Ge,
                right: Expr::Lit(Field::Int(1)),
            })
            .group_by(vec![1], vec![AggFn::Sum(2)])
            .top_k(1, 2, true);
        let mut exec = query
            .compile(
                JobConfig::new(ExecMode::slider_folding()).with_partitions(2),
                4,
            )
            .unwrap();
        assert_eq!(exec.jobs(), 2);

        let data = views(40);
        exec.initial_run(make_splits(0, data.clone(), 8)).unwrap();

        // Reference: same computation in plain Rust.
        let filtered: Vec<Row> = data
            .iter()
            .filter(|r| r[0].as_int().unwrap() >= 1)
            .cloned()
            .collect();
        let sums = reference_group_sum(&filtered);
        let mut ranked: Vec<(i64, i64)> = sums.into_iter().map(|(p, s)| (s, p)).collect();
        ranked.sort_by(|a, b| b.cmp(a));
        let expected: Vec<i64> = ranked.iter().take(2).map(|(s, _)| *s).collect();

        let got: Vec<i64> = exec.rows().iter().map(|r| r[1].as_int().unwrap()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn incremental_pipeline_matches_vanilla_pipeline() {
        let query = Query::load()
            .group_by(vec![0], vec![AggFn::Count])
            .group_by(vec![1], vec![AggFn::Count]); // histogram of user activity
        let run = |mode| {
            let mut exec = query
                .compile(JobConfig::new(mode).with_partitions(2), 4)
                .unwrap();
            let data = views(60);
            exec.initial_run(make_splits(0, data[0..40].to_vec(), 10))
                .unwrap();
            exec.advance(1, make_splits(100, data[40..50].to_vec(), 10))
                .unwrap();
            let mut rows = exec.rows();
            rows.sort();
            rows
        };
        assert_eq!(run(ExecMode::Recompute), run(ExecMode::slider_folding()));
        assert_eq!(run(ExecMode::Recompute), run(ExecMode::Strawman));
        // The constant-time aggregators are drop-in replacements for the
        // query pipeline's first stage too.
        assert_eq!(run(ExecMode::Recompute), run(ExecMode::slider_daba()));
        assert_eq!(run(ExecMode::Recompute), run(ExecMode::slider_two_stack()));
    }

    #[test]
    fn query_answers_do_not_depend_on_thread_count() {
        let query = Query::load()
            .group_by(vec![0], vec![AggFn::Sum(2)])
            .top_k(1, 3, true);
        let mut runs = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut exec = query
                .compile(
                    JobConfig::new(ExecMode::slider_folding())
                        .with_partitions(3)
                        .with_threads(threads),
                    4,
                )
                .unwrap();
            assert_eq!(exec.runtime_threads(), threads);
            let data = views(60);
            let initial = exec
                .initial_run(make_splits(0, data[0..40].to_vec(), 10))
                .unwrap();
            let update = exec
                .advance(1, make_splits(100, data[40..60].to_vec(), 10))
                .unwrap();
            runs.push((exec.rows(), format!("{initial:?} {update:?}")));
        }
        assert_eq!(runs[0], runs[1], "1 vs 2 threads");
        assert_eq!(runs[0], runs[2], "1 vs 4 threads");
    }

    #[test]
    fn bad_plan_is_rejected() {
        let query = Query::load();
        assert!(matches!(
            query.compile(JobConfig::new(ExecMode::slider_folding()), 0),
            Err(QueryError::BadPlan(_))
        ));
    }

    #[test]
    fn distinct_deduplicates_across_slides() {
        let query = Query::load().distinct(vec![0]);
        let mut exec = query
            .compile(
                JobConfig::new(ExecMode::slider_folding()).with_partitions(2),
                4,
            )
            .unwrap();
        let rows: Vec<Row> = vec![
            vec![Field::Int(1)],
            vec![Field::Int(1)],
            vec![Field::Int(2)],
            vec![Field::Int(3)],
        ];
        exec.initial_run(make_splits(0, rows, 2)).unwrap();
        let mut got = exec.rows();
        got.sort();
        assert_eq!(
            got,
            vec![
                vec![Field::Int(1)],
                vec![Field::Int(2)],
                vec![Field::Int(3)]
            ]
        );

        // Remove the split containing both 1s: key 1 disappears.
        exec.advance(1, vec![]).unwrap();
        let mut got = exec.rows();
        got.sort();
        assert_eq!(got, vec![vec![Field::Int(2)], vec![Field::Int(3)]]);
    }
}
