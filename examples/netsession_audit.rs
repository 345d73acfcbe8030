//! Case study §8.3: client accountability in a hybrid CDN over a
//! variable-width window (one month of weekly uploads, with week sizes
//! varying by client availability), using folding contraction trees.
//!
//! Demonstrates batch feeding through [`slider_mapreduce::EventFeeder`]
//! — one epoch per week, closed as soon as the week is in — and the
//! fault-tolerant memoization layer: a cache node crashes mid-stream and
//! reads transparently fall back to the persistent replicas.
//!
//! Run with:
//! ```text
//! cargo run --release -p slider-apps --example netsession_audit
//! ```

use slider_apps::{AuditVerdict, NetSessionAudit};
use slider_dcache::CacheConfig;
use slider_mapreduce::{
    EventFeeder, EventTimeConfig, ExecMode, JobConfig, JobFaultPlan, Stamped, WindowedJob,
};
use slider_workloads::netsession::{generate_week, NetSessionConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = NetSessionConfig {
        clients: 3_000,
        mean_entries: 25,
        tamper_rate: 0.02,
    };
    // Cache node 2 crashes before run 5, the slide that adds week 5.
    let job = WindowedJob::new(
        NetSessionAudit::new(),
        JobConfig::new(ExecMode::slider_folding())
            .with_partitions(4)
            .with_cache(CacheConfig::paper_defaults(8))
            .with_faults(JobFaultPlan::none().fail_cache_node(5, 2)),
    )?;
    // One epoch per week, and the 4 most recent weeks in the window, 150
    // logs per split — week sizes vary, which is the variable-width case
    // the folding tree exists for.
    let mut feeder = EventFeeder::new(
        job,
        EventTimeConfig {
            epoch_len: 1,
            records_per_split: 150,
            window_epochs: Some(4),
            lateness: 0,
        },
    )?;

    // Weekly upload fractions: how many clients were online to upload.
    let fractions = [1.0, 0.92, 0.85, 0.97, 0.75, 0.9, 1.0];
    for (week, &fraction) in fractions.iter().enumerate() {
        if week == 5 {
            println!("  !! cache node 2 crashes — memoized state falls back to replicas");
        }
        let logs = generate_week(11, &config, week as u32, fraction);
        let uploaded = logs.len();
        let week = week as u64;
        feeder.ingest(
            logs.into_iter()
                .zip(0..)
                .map(|(log, i)| Stamped::new(week, i, log)),
        );
        // The week is complete: close it as one slide.
        for stats in feeder.close_all()? {
            if let Some(cache) = &stats.cache {
                println!(
                    "week {week}: {uploaded} uploads ({:.0}% online) | window {} splits | work {} | cache {} mem hits / {} disk fallbacks",
                    fraction * 100.0,
                    feeder.job().window_splits(),
                    stats.work.foreground_total(),
                    cache.memory_hits,
                    cache.disk_reads,
                );
            }
        }
        report(feeder.output());
    }
    Ok(())
}

fn report(output: &std::collections::BTreeMap<u32, AuditVerdict>) {
    let flagged: Vec<u32> = output
        .iter()
        .filter_map(|(client, verdict)| match verdict {
            AuditVerdict::Flagged { .. } => Some(*client),
            AuditVerdict::Clean { .. } => None,
        })
        .collect();
    println!(
        "  audited {} clients, {} flagged for tampered logs (e.g. {:?})",
        output.len(),
        flagged.len(),
        &flagged[..flagged.len().min(5)]
    );
}
