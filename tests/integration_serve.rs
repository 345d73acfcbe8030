//! Service-layer integration: many tenants, one engine, zero surprises.
//!
//! A [`ServiceRuntime`] multiplexing three tenants with different
//! execution modes over one shared runtime, memoization cache and
//! simulated clock must be a *perfect multiplexer*: per-tenant outputs
//! and run histories bit-identical at every worker-thread count, each
//! tenant indistinguishable from a standalone single-job run over its
//! own records, admission rejections deterministic, and a tenant
//! deregistering mid-stream (with a seeded fault plan running
//! underneath) invisible to everyone else.

use std::collections::BTreeMap;

use slider_apps::Hct;
use slider_dcache::CacheConfig;
use slider_mapreduce::{
    EngineShared, EventFeeder, EventTimeConfig, ExecMode, JobConfig, JobFaultPlan,
    SimulationConfig, Stamped, WindowedJob,
};
use slider_serve::{Decision, RateLimit, ServeStats, ServiceRuntime, TenantId, TenantSpec};
use slider_workloads::disorder::DisorderConfig;
use slider_workloads::multitenant::{
    multitenant_stream, tenant_records, MultiTenantConfig, TenantRequest,
};

const PARTITIONS: usize = 4;
const TENANTS: usize = 3;
const SEED: u64 = 0x5e21;

fn traffic_config() -> MultiTenantConfig {
    MultiTenantConfig {
        tenants: TENANTS,
        requests_per_tenant: 10,
        records_per_request: 6,
        stream: DisorderConfig {
            records: 0, // per-tenant sizes decide
            mean_step: 2,
            lateness: 12,
            vocabulary: 30,
        },
        hot_tenant: Some(1),
        hot_factor: 2,
        mean_arrival_gap: 4,
    }
}

fn traffic() -> Vec<TenantRequest> {
    multitenant_stream(SEED, &traffic_config())
}

fn event() -> EventTimeConfig {
    EventTimeConfig {
        epoch_len: 24,
        records_per_split: 4,
        window_epochs: Some(3),
        lateness: 12,
    }
}

/// One mode per tenant — a genuinely mixed service.
fn mode_of(tenant: usize) -> ExecMode {
    [
        ExecMode::slider_folding(),
        ExecMode::slider_daba(),
        ExecMode::Recompute,
    ][tenant]
}

fn name_of(tenant: usize) -> String {
    format!("tenant{tenant}")
}

fn spec_of(tenant: usize, simulate: bool) -> TenantSpec {
    let mut spec =
        TenantSpec::new(name_of(tenant), mode_of(tenant), event()).with_partitions(PARTITIONS);
    if simulate {
        spec = spec.with_simulation(SimulationConfig::paper_defaults());
    }
    spec
}

fn engine(threads: usize, faults: Option<u64>) -> EngineShared {
    let mut builder = EngineShared::builder()
        .threads(threads)
        .cache(CacheConfig::paper_defaults(PARTITIONS))
        .clock();
    if let Some(seed) = faults {
        builder = builder.faults(JobFaultPlan::seeded(seed, 24, 24, PARTITIONS, PARTITIONS));
    }
    builder.build()
}

fn stamp(records: &[(u64, u64, String)]) -> Vec<Stamped<String>> {
    records
        .iter()
        .map(|(t, s, line)| Stamped::new(*t, *s, line.clone()))
        .collect()
}

/// The full per-tenant fingerprint of one service run plus the service
/// surfaces, everything a determinism assertion could want.
struct ServiceOutcome {
    /// Per tenant: every run's Debug rendering, in dispatch order
    /// (including the drain at deregistration).
    run_logs: BTreeMap<usize, String>,
    /// Per tenant: point-in-time query fingerprints taken mid-stream.
    query_logs: BTreeMap<usize, String>,
    /// Per tenant: final output + event counters + folded stats.
    finals: BTreeMap<usize, String>,
    /// The metrics endpoint, rendered while all surviving tenants were
    /// still registered.
    metrics: String,
    /// The metrics endpoint again, after every tenant drained.
    final_metrics: String,
    /// Service-wide roll-up after every tenant drained.
    serve_stats: ServeStats,
}

/// Drives the full traffic mix through a fresh service. When
/// `deregister_mid` names a tenant, that tenant is deregistered after
/// half its requests and the rest of its traffic is dropped on the
/// floor.
fn run_service(
    threads: usize,
    faults: Option<u64>,
    deregister_mid: Option<usize>,
) -> ServiceOutcome {
    let traffic = traffic();
    let mut service: ServiceRuntime<Hct> = ServiceRuntime::new(engine(threads, faults));
    let ids: Vec<TenantId> = (0..TENANTS)
        .map(|i| {
            service
                .register(Hct::new(), spec_of(i, faults.is_some()))
                .expect("register")
        })
        .collect();

    let totals: Vec<usize> = (0..TENANTS)
        .map(|t| traffic.iter().filter(|r| r.tenant == t).count())
        .collect();
    let mut seen = [0usize; TENANTS];
    let mut run_logs: BTreeMap<usize, String> = (0..TENANTS).map(|t| (t, String::new())).collect();
    let mut query_logs: BTreeMap<usize, String> =
        (0..TENANTS).map(|t| (t, String::new())).collect();
    let mut finals: BTreeMap<usize, String> = BTreeMap::new();

    for request in &traffic {
        let tenant = request.tenant;
        seen[tenant] += 1;
        if deregister_mid == Some(tenant) && seen[tenant] * 2 > totals[tenant] {
            if service.tenant_id(&name_of(tenant)).is_some() {
                let report = service.deregister(ids[tenant]).expect("deregister");
                run_logs
                    .get_mut(&tenant)
                    .unwrap()
                    .push_str(&format!("drain:{:?};", report.final_runs));
                finals.insert(
                    tenant,
                    format!("{:?}|{:?}|{:?}", report.output, report.event, report.stats),
                );
            }
            continue; // the rest of this tenant's traffic is dropped
        }
        let outcome = service
            .ingest(ids[tenant], request.arrival, stamp(&request.records))
            .expect("ingest");
        assert!(outcome.decision.is_admitted(), "no limits configured");
        run_logs
            .get_mut(&tenant)
            .unwrap()
            .push_str(&format!("{:?};", outcome.runs));
        // Point-in-time query while every other tenant's stream is
        // mid-flight: must never disturb anything, must be consistent.
        let view = service.query(ids[tenant]).expect("query");
        query_logs.get_mut(&tenant).unwrap().push_str(&format!(
            "w={:?},keys={},buf={};",
            view.watermark,
            view.output.len(),
            view.buffered_records
        ));
    }

    let metrics = service.metrics();
    for (tenant, id) in ids.iter().enumerate() {
        if service.tenant_id(&name_of(tenant)).is_none() {
            continue;
        }
        let report = service.deregister(*id).expect("final deregister");
        run_logs
            .get_mut(&tenant)
            .unwrap()
            .push_str(&format!("drain:{:?};", report.final_runs));
        finals.insert(
            tenant,
            format!("{:?}|{:?}|{:?}", report.output, report.event, report.stats),
        );
    }
    ServiceOutcome {
        run_logs,
        query_logs,
        finals,
        metrics,
        final_metrics: service.metrics(),
        serve_stats: *service.serve_stats(),
    }
}

/// The tentpole: the whole multi-tenant service — outputs, run
/// histories, mid-stream queries, the metrics endpoint and the
/// service-wide roll-up — is bit-identical at 1, 2 and 4 worker
/// threads.
#[test]
fn service_is_bit_identical_across_thread_counts() {
    let reference = run_service(1, None, None);
    for threads in [2, 4] {
        let got = run_service(threads, None, None);
        assert_eq!(got.run_logs, reference.run_logs, "threads={threads}");
        assert_eq!(got.query_logs, reference.query_logs, "threads={threads}");
        assert_eq!(got.finals, reference.finals, "threads={threads}");
        assert_eq!(got.metrics, reference.metrics, "threads={threads}");
        assert_eq!(
            got.final_metrics, reference.final_metrics,
            "threads={threads}"
        );
        assert_eq!(got.serve_stats, reference.serve_stats, "threads={threads}");
    }
    assert_eq!(
        reference.serve_stats.admitted,
        reference.serve_stats.requests
    );
    assert!(reference.serve_stats.runs > 0);
}

/// Each tenant behaves exactly like a standalone single-job run fed the
/// same records in the same request chunks: same run-by-run stats, same
/// final output. Sharing the engine is observationally free.
#[test]
fn tenants_match_their_standalone_twins() {
    let multi = run_service(1, None, None);
    let traffic = traffic();

    for tenant in 0..TENANTS {
        let config = JobConfig::new(mode_of(tenant))
            .with_partitions(PARTITIONS)
            .with_cache(CacheConfig::paper_defaults(PARTITIONS))
            .with_threads(1);
        let job = WindowedJob::new(Hct::new(), config).expect("twin job");
        let mut feeder = EventFeeder::new(job, event()).expect("twin feeder");
        let mut log = String::new();
        for request in traffic.iter().filter(|r| r.tenant == tenant) {
            feeder.ingest(stamp(&request.records));
            log.push_str(&format!("{:?};", feeder.flush().expect("twin flush")));
        }
        log.push_str(&format!(
            "drain:{:?};",
            feeder.close_all().expect("twin drain")
        ));

        assert_eq!(
            log, multi.run_logs[&tenant],
            "tenant {tenant}: served run history must equal the standalone twin's"
        );
        let twin_final = format!("{:?}", feeder.output());
        assert!(
            multi.finals[&tenant].starts_with(&twin_final),
            "tenant {tenant}: served output must equal the standalone twin's"
        );
        // Sanity: the twin really ingested the same records the traffic
        // generator promises for this tenant.
        let records = tenant_records(&traffic, tenant);
        assert_eq!(
            records.len() as u64,
            feeder.stats().ingested,
            "tenant {tenant}: twin saw all its records"
        );
    }
}

/// The service-wide roll-up is the exact fold of every run the engine
/// reported — re-derived here from the run logs' counted runs.
#[test]
fn serve_stats_reconcile_with_the_run_history() {
    let outcome = run_service(1, None, None);
    let runs_in_logs: u64 = outcome
        .run_logs
        .values()
        .map(|log| log.matches("RunStats").count() as u64)
        .sum();
    assert_eq!(outcome.serve_stats.runs, runs_in_logs);
    assert!(outcome.final_metrics.contains(&format!(
        "engine runs={} work_fg={} work_grand={}",
        outcome.serve_stats.runs,
        outcome.serve_stats.work_foreground,
        outcome.serve_stats.work_grand
    )));
}

/// Admission is deterministic: the same request sequence produces the
/// identical decision sequence — including DGIM rate-limit bounces,
/// quota exhaustion and per-request caps — on every run.
#[test]
fn rejections_are_deterministic() {
    let run = || {
        let mut service: ServiceRuntime<Hct> = ServiceRuntime::new(engine(1, None));
        let id = service
            .register(
                Hct::new(),
                spec_of(0, false)
                    .with_rate_limit(RateLimit::new(3, 8))
                    .with_record_quota(24)
                    .with_max_request_records(5),
            )
            .expect("register");
        let mut decisions = Vec::new();
        for i in 0u64..20 {
            // Two requests per tick burst past the rate limit; request 7
            // is oversized; the quota runs dry toward the end.
            let arrival = i / 2 * 3;
            let count = if i == 7 { 6 } else { 3 };
            let records: Vec<Stamped<String>> = (0..count)
                .map(|j| Stamped::new(i * 10 + j, i * 10 + j, format!("w{} w{}", j, (i + j) % 5)))
                .collect();
            decisions.push(
                service
                    .ingest(id, arrival, records)
                    .expect("ingest")
                    .decision,
            );
        }
        (decisions, *service.serve_stats())
    };
    let (decisions, stats) = run();
    let (again, stats_again) = run();
    assert_eq!(decisions, again, "decision sequence must be reproducible");
    assert_eq!(stats, stats_again);
    assert!(decisions
        .iter()
        .any(|d| matches!(d, Decision::RateLimited { .. })));
    assert!(decisions
        .iter()
        .any(|d| matches!(d, Decision::OverQuota { .. })));
    assert!(decisions
        .iter()
        .any(|d| matches!(d, Decision::TooLarge { .. })));
    assert_eq!(
        stats.requests,
        stats.admitted + stats.rate_limited + stats.over_quota + stats.too_large
    );
    assert_eq!(
        stats.records_admitted,
        stats.admitted * 3,
        "only 3-record requests pass"
    );
    assert!(stats.records_admitted <= 24, "quota is a hard budget");
}

/// With a seeded fault plan running underneath, the service is still
/// thread-invariant — and one tenant deregistering mid-stream leaves
/// every other tenant's runs, outputs and queries bit-identical to the
/// run where it stayed.
#[test]
fn faults_and_mid_stream_deregistration_leave_others_unchanged() {
    const FAULT_SEED: u64 = 0xfa17;
    let stayed = run_service(1, Some(FAULT_SEED), None);
    for threads in [2, 4] {
        let got = run_service(threads, Some(FAULT_SEED), None);
        assert_eq!(got.run_logs, stayed.run_logs, "faulty, threads={threads}");
        assert_eq!(got.finals, stayed.finals, "faulty, threads={threads}");
        assert_eq!(got.metrics, stayed.metrics, "faulty, threads={threads}");
    }

    let departed = run_service(1, Some(FAULT_SEED), Some(1));
    for tenant in [0, 2] {
        assert_eq!(
            departed.run_logs[&tenant], stayed.run_logs[&tenant],
            "tenant {tenant}'s run history must not see tenant 1 leave"
        );
        assert_eq!(
            departed.query_logs[&tenant], stayed.query_logs[&tenant],
            "tenant {tenant}'s queries must not see tenant 1 leave"
        );
        assert_eq!(
            departed.finals[&tenant], stayed.finals[&tenant],
            "tenant {tenant}'s final state must not see tenant 1 leave"
        );
    }
    // Tenant 1 really did leave early and dropped traffic on the floor.
    assert!(departed.serve_stats.requests < stayed.serve_stats.requests);
    assert_eq!(departed.serve_stats.tenants_deregistered, 3);
}
