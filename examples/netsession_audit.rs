//! Case study §8.3: client accountability in a hybrid CDN over a
//! variable-width window (one month of weekly uploads, with week sizes
//! varying by client availability), using folding contraction trees.
//!
//! Demonstrates [`slider_mapreduce::WindowFeeder`] — batch-oriented window
//! management — and the fault-tolerant memoization layer: a cache node
//! crashes mid-stream and reads transparently fall back to the persistent
//! replicas.
//!
//! Run with:
//! ```text
//! cargo run --release -p slider-apps --example netsession_audit
//! ```

use slider_apps::{AuditVerdict, NetSessionAudit};
use slider_dcache::CacheConfig;
use slider_mapreduce::{ExecMode, JobConfig, WindowFeeder, WindowedJob};
use slider_workloads::netsession::{generate_week, NetSessionConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = NetSessionConfig {
        clients: 3_000,
        mean_entries: 25,
        tamper_rate: 0.02,
    };
    let job = WindowedJob::new(
        NetSessionAudit::new(),
        JobConfig::new(ExecMode::slider_folding())
            .with_partitions(4)
            .with_cache(CacheConfig::paper_defaults(8)),
    )?;
    // The feeder keeps the most recent 4 weekly batches in the window,
    // 150 logs per split — batch sizes vary, which is the variable-width
    // case the folding tree exists for.
    let mut feeder = WindowFeeder::new(job, 150, Some(4));

    // Weekly upload fractions: how many clients were online to upload.
    let fractions = [1.0, 0.92, 0.85, 0.97, 0.75, 0.9, 1.0];
    for (week, &fraction) in fractions.iter().enumerate() {
        if week == 5 {
            println!("  !! cache node 2 crashes — memoized state falls back to replicas");
            feeder.job_mut().fail_cache_node(2)?;
        }
        let logs = generate_week(11, &config, week as u32, fraction);
        let uploaded = logs.len();
        let stats = feeder.push_batch(logs)?;
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
