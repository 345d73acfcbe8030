//! `serve_tenants`: one `ServiceRuntime<Hct>` with four tenants, one per
//! tree kind, over a shared dcache, a shared clock and per-tenant cluster
//! simulation. Slides are small, so the per-run fixed costs (admission,
//! reorder buffering, footprint refresh, simulation, dcache replay)
//! dominate; periodic queries put reads beside the writes.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use slider_apps::Hct;
use slider_dcache::CacheConfig;
use slider_mapreduce::{
    EngineShared, EventFeeder, EventTimeConfig, EventTimeStats, ExecMode, JobConfig,
    SimulationConfig, Stamped, TraceSink, WindowedJob,
};
use slider_serve::{ServiceRuntime, TenantId, TenantSpec};
use slider_workloads::disorder::{DisorderConfig, TimedLine};
use slider_workloads::multitenant::{
    multitenant_stream, tenant_records, MultiTenantConfig, TenantRequest,
};

use crate::measure::{percentile, secs, Spans};
use crate::tally::{
    counter_delta, event_counts, event_delta, event_sum, fill_common, ratio, trace_counters,
    RunTally, KINDS,
};
use crate::{Options, Probe, Report, Twin};

const PARTITIONS: usize = 64;
const EVENT: EventTimeConfig = EventTimeConfig {
    epoch_len: 64,
    records_per_split: 16,
    window_epochs: Some(64),
    lateness: 32,
};
/// Mean records per request, and the mean event-time step between a
/// tenant's records (so an epoch holds about 32 records).
const RECORDS_PER_REQUEST: usize = 16;
const MEAN_STEP: u64 = 2;
const VOCABULARY: usize = 64;
/// The client queries the tenant it just wrote to after every 16th
/// request and reads its top 10 keys.
const QUERY_EVERY: usize = 16;
const TOP_K: usize = 10;
/// Requests each ordinary tenant sends before the measured phase (enough
/// to fill every window), and measured requests per nominal second.
const WARMUP_REQUESTS_PER_TENANT: usize = 160;
const REQUESTS_PER_SECOND: u64 = 3000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Requests between two host-speed samples.
const CALIBRATE_EVERY: usize = 128;

fn modes() -> [ExecMode; 4] {
    [
        ExecMode::slider_folding(),
        ExecMode::slider_daba(),
        ExecMode::Strawman,
        ExecMode::slider_randomized(),
    ]
}

/// The request stream, tenant 0 sending twice as much: the generator gives
/// it twice the requests, and halving its arrival ticks makes it send them
/// at twice the rate over the same span. Each tenant's own request order,
/// and hence its records, are unchanged.
fn traffic(seed: u64, requests_per_tenant: usize) -> Vec<TenantRequest> {
    let config = MultiTenantConfig {
        tenants: KINDS.len(),
        requests_per_tenant,
        records_per_request: RECORDS_PER_REQUEST,
        stream: DisorderConfig {
            records: 0,
            mean_step: MEAN_STEP,
            lateness: EVENT.lateness,
            vocabulary: VOCABULARY,
        },
        hot_tenant: Some(0),
        hot_factor: 2,
        mean_arrival_gap: 4,
    };
    let mut requests = multitenant_stream(seed, &config);
    for r in &mut requests {
        if r.tenant == 0 {
            r.arrival /= 2;
        }
    }
    requests.sort_by_key(|r| (r.arrival, r.tenant, r.index));
    requests
}

fn stamped(records: Vec<TimedLine>) -> Vec<Stamped<String>> {
    records
        .into_iter()
        .map(|(time, seq, line)| Stamped::new(time, seq, line))
        .collect()
}

/// The records of one tenant that can reach its final window. The feeder
/// closes epoch `e` once `(e + 1) * epoch_len` is at most the watermark
/// (the highest time minus the lateness) and keeps the newest
/// `window_epochs` closed epochs, so older epochs cannot matter. Feeding
/// the twin only these keeps the check cheap; a wrong cut would make the
/// check fail, never pass.
fn final_window_records(records: Vec<TimedLine>) -> Vec<Stamped<String>> {
    let max_time = records.iter().map(|r| r.0).max().unwrap_or(0);
    let horizon = max_time.saturating_sub(EVENT.lateness) / EVENT.epoch_len;
    let window = EVENT.window_epochs.expect("windowed") as u64;
    let first = horizon.saturating_sub(window + 1);
    stamped(
        records
            .into_iter()
            .filter(|r| r.0 / EVENT.epoch_len >= first)
            .collect(),
    )
}

/// One request as the client sends it: tenant index, arrival, records.
type Request = (usize, u64, Vec<Stamped<String>>);

struct Service {
    service: ServiceRuntime<Hct>,
    ids: Vec<TenantId>,
    trace: TraceSink,
}

/// Builds the service and sends warm-up requests until every tenant's
/// window is full; returns the service and the number of requests sent.
fn setup(
    opts: &Options,
    requests: &[Request],
    spans: &mut Spans,
) -> Result<(Service, usize), String> {
    let trace = if opts.traced {
        TraceSink::enabled()
    } else {
        TraceSink::disabled()
    };
    let mut shared = EngineShared::builder()
        .threads(1)
        .clock()
        .trace(trace.clone());
    if opts.twin != Twin::NoCache {
        shared = shared.cache(CacheConfig::paper_defaults(4));
    }
    let mut service = ServiceRuntime::new(shared.build());
    let mut ids = Vec::new();
    for (kind, mode) in KINDS.iter().zip(modes()) {
        let mut spec = TenantSpec::new(*kind, mode, EVENT).with_partitions(PARTITIONS);
        if opts.twin != Twin::NoSim {
            spec = spec.with_simulation(SimulationConfig::paper_defaults());
        }
        ids.push(
            service
                .register(Hct, spec)
                .map_err(|e| format!("register {kind}: {e}"))?,
        );
    }
    let full = EVENT.window_epochs.expect("windowed");
    let mut filled = [false; 4];
    let mut sent = 0;
    for (op, (tenant, arrival, records)) in requests.iter().cloned().enumerate() {
        if filled.iter().all(|f| *f) {
            break;
        }
        spans
            .time("ingest", op as u64, None, || {
                service.ingest(ids[tenant], arrival, records)
            })
            .map_err(|e| format!("warm-up ingest: {e}"))?;
        let view = service.query(ids[tenant]).map_err(|e| e.to_string())?;
        filled[tenant] = view.window_epochs.len() == full;
        sent += 1;
    }
    if !filled.iter().all(|f| *f) {
        return Err("warm-up traffic did not fill every window".into());
    }
    Ok((
        Service {
            service,
            ids,
            trace,
        },
        sent,
    ))
}

/// Each tenant's event-time counters so far, in tenant order.
fn event_stats(svc: &Service) -> Result<Vec<EventTimeStats>, String> {
    svc.ids
        .iter()
        .map(|&id| {
            svc.service
                .query(id)
                .map(|view| view.event)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// The `k` largest counts of `output`, ties broken by key.
fn top_keys(output: &BTreeMap<String, u64>, k: usize) -> Vec<(&String, u64)> {
    let mut entries: Vec<(&String, u64)> = output.iter().map(|(key, &n)| (key, n)).collect();
    entries.sort_by_key(|&(key, n)| (Reverse(n), key));
    entries.truncate(k);
    entries
}

pub(crate) fn run(opts: &Options, probe: &mut Probe) -> Result<Report, String> {
    let measured = usize::try_from(opts.seconds * REQUESTS_PER_SECOND).expect("fits");
    // Tenant 0 sends two of every five requests.
    let per_tenant = WARMUP_REQUESTS_PER_TENANT + (measured / 5).max(4);
    let stream = traffic(opts.seed, per_tenant);
    let twin_inputs: Vec<Vec<Stamped<String>>> = (0..KINDS.len())
        .map(|tenant| final_window_records(tenant_records(&stream, tenant)))
        .collect();
    let mut requests: Vec<Request> = stream
        .into_iter()
        .map(|r| (r.tenant, r.arrival, stamped(r.records)))
        .collect();

    let mut report = Report::default();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        probe.calibrate()?;
        let t = std::time::Instant::now();
        built = Some(setup(opts, &requests, &mut probe.spans)?);
        report.setups.push((probe.chunk(), secs(t)));
    }
    let (mut svc, warm) = built.expect("at least one set-up");
    let incoming = requests.split_off(warm);
    drop(requests);

    let mut tallies: Vec<RunTally> = vec![RunTally::default(); KINDS.len()];
    let mut update_s = [0.0f64; 4];
    let mut buffer_us = Vec::new();
    let mut query_us = Vec::new();
    let mut buffered = Vec::new();
    // Serve and event counters are cumulative from registration; the
    // per-layer figures are deltas over the measured phase.
    let stats_before = *svc.service.serve_stats();
    let events_before = event_stats(&svc)?;
    let before = trace_counters(&svc.trace);
    probe.start()?;
    for (i, (tenant, arrival, records)) in incoming.into_iter().enumerate() {
        if i > 0 && i % CALIBRATE_EVERY == 0 {
            probe.calibrate()?;
        }
        let op = i as u64;
        let id = svc.ids[tenant];
        let client = probe.spans.begin("client", op, None);
        let count = records.len() as u64;
        let t = std::time::Instant::now();
        let outcome = probe.spans.time("ingest", op, Some(client), || {
            svc.service.ingest(id, arrival, records)
        });
        let took = secs(t);
        report.records += count;
        report.attempted += 1;
        match outcome {
            Ok(outcome) => {
                if !outcome.decision.is_admitted() {
                    report.failed += 1;
                }
                if outcome.runs.is_empty() {
                    buffer_us.push(took * 1e6);
                } else {
                    report.updates.push((probe.chunk(), took));
                    update_s[tenant] += took;
                }
                for run in &outcome.runs {
                    tallies[tenant].absorb(run);
                }
            }
            Err(_) => report.failed += 1,
        }
        if (i + 1) % QUERY_EVERY == 0 {
            let t = std::time::Instant::now();
            let read = probe.spans.time("query", op, Some(client), || {
                svc.service
                    .query(id)
                    .map(|view| (top_keys(view.output, TOP_K).len(), view.buffered_records))
            });
            query_us.push(secs(t) * 1e6);
            report.attempted += 1;
            match read {
                Ok((keys, pending)) => {
                    std::hint::black_box(keys);
                    buffered.push(pending as f64);
                }
                Err(_) => report.failed += 1,
            }
        }
        probe.spans.end(client);
    }
    probe.stop(&mut report)?;
    let during = counter_delta(&trace_counters(&svc.trace), &before);
    let stats = *svc.service.serve_stats();
    let events: Vec<EventTimeStats> = event_stats(&svc)?
        .into_iter()
        .zip(events_before)
        .map(|(after, before)| event_delta(after, before))
        .collect();

    // Output check, outside the timed phase: each tenant against a
    // recompute-mode feeder twin fed the same records.
    for (&id, input) in svc.ids.iter().zip(twin_inputs) {
        let job = WindowedJob::new(
            Hct,
            JobConfig::new(ExecMode::Recompute)
                .with_partitions(PARTITIONS)
                .with_threads(1),
        )
        .map_err(|e| format!("twin job: {e}"))?;
        let mut twin = EventFeeder::new(job, EVENT).map_err(|e| format!("twin feeder: {e}"))?;
        twin.ingest(input);
        let view = svc.service.query(id).map_err(|e| e.to_string())?;
        report.check(twin.flush().is_ok() && twin.output() == view.output);
    }

    let mut all = RunTally::default();
    for (kind, tally) in KINDS.iter().zip(&tallies) {
        all.extend(tally);
        tally.counts(&format!("{kind}."), &mut report.counts);
    }
    let mut event = EventTimeStats::default();
    for (kind, e) in KINDS.iter().zip(&events) {
        event_counts(&format!("{kind}.event."), e, &mut report.counts);
        event = event_sum(event, *e);
    }
    let requests = stats.requests - stats_before.requests;
    let admitted = stats.admitted - stats_before.admitted;
    for (name, value) in [
        ("serve.requests", requests),
        ("serve.admitted", admitted),
        (
            "serve.records_admitted",
            stats.records_admitted - stats_before.records_admitted,
        ),
    ] {
        report.counts.insert(name.into(), value);
    }
    if !opts.traced {
        all.counts("tally.", &mut report.counts);
        return Ok(report);
    }
    fill_common(&mut report, &all, &during);
    let footprint: u64 = svc
        .ids
        .iter()
        .map(|&id| {
            svc.service
                .tenant_stats(id)
                .map_or(0, |s| s.memo_footprint_bytes)
        })
        .sum();
    let layer = &mut report.layer;
    let mut set = |name: String, value: f64| {
        layer.insert(name, value);
    };
    set(
        "windowed.memo_footprint_mb".into(),
        footprint as f64 / (1024.0 * 1024.0),
    );
    set(
        "serve.buffer_ingest_p50_us".into(),
        percentile(&buffer_us, 0.5),
    );
    set("serve.query_p50_us".into(), percentile(&query_us, 0.5));
    set(
        "serve.admitted_ratio".into(),
        ratio(admitted as f64, requests as f64),
    );
    set(
        "serve.runs_per_request".into(),
        ratio(all.runs as f64, requests as f64),
    );
    set(
        "event.late_admitted_ratio".into(),
        ratio(event.late_admitted as f64, event.ingested as f64),
    );
    set("event.late_dropped".into(), event.late_dropped as f64);
    set(
        "event.splice_runs_per_poll".into(),
        ratio(event.splice_runs as f64, requests as f64),
    );
    set(
        "event.buffered_records_p50".into(),
        percentile(&buffered, 0.5),
    );
    for ((kind, tally), wall) in KINDS.iter().zip(&tallies).zip(update_s) {
        set(
            format!("core.merges_per_slide_p50.{kind}"),
            tally.merges_at(0.5),
        );
        set(
            format!("core.merges_per_slide_p99.{kind}"),
            tally.merges_at(0.99),
        );
        set(
            format!("core.merges_per_slide_max.{kind}"),
            tally.merges_at(1.0),
        );
        set(
            format!("core.wall_us_per_merge.{kind}"),
            ratio(wall * 1e6, tally.merges_total() as f64),
        );
    }
    Ok(report)
}
