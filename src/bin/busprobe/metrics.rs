//! `busprobe metrics`: re-ingest the stored corpus and dump the
//! pipeline's telemetry.

use crate::args::{check_flags, flag_value, path_flag};
use crate::ingest::{check_conservation, open};
use crate::world::{Corpus, World};
use busprobe::core::{DropReason, IngestReport};

pub fn cmd_metrics(args: &[String]) -> Result<(), String> {
    check_flags(args, "--dir --format --state --shards")?;
    let dir = path_flag(args, "--dir")?;
    let format = flag_value(args, "--format").unwrap_or("text");
    let world = World::load(&dir)?;
    let corpus = Corpus::load(&dir)?;
    corpus.announce(&dir);

    // Telemetry is in-process: re-run the ingest pipeline over the stored
    // uploads so the snapshot describes exactly this data set. With
    // --state, the run is durable (recover + append + checkpoint, same as
    // `ingest --state`), so the store's WAL/snapshot/replay instruments
    // populate and appear in every output format.
    let backend = open(&world.network, &world.db, args, Some((0, 1)))?;
    let received = corpus.received_prefix(corpus.trips.len());
    let reports = backend
        .monitor
        .ingest_batch_received_parallel(&corpus.trips, received, 0);
    for shard in backend.monitor.shards() {
        shard.refresh_database();
    }
    if backend.state.is_some() {
        backend
            .monitor
            .checkpoint_all()
            .map_err(|e| format!("checkpoint: {e}"))?;
    }
    let snapshot = busprobe::telemetry::snapshot();

    match format {
        "json" => println!("{}", snapshot.to_json()),
        "prometheus" | "prom" => print!("{}", snapshot.to_prometheus()),
        "text" => print_metrics_text(&snapshot, &reports),
        other => return Err(format!("unknown --format `{other}` (text|json|prometheus)")),
    }
    // The per-shard counters ride along in the snapshot; the
    // conservation check gates the run in every format.
    let show = format == "text" && backend.shards() > 1;
    if show {
        println!();
    }
    check_conservation(&backend.monitor.accounting(), show)
}

/// Human-readable telemetry report: counters, stage timings, histograms,
/// drop attribution and recent events.
fn print_metrics_text(snapshot: &busprobe::telemetry::Snapshot, reports: &[IngestReport]) {
    println!("== counters ==");
    for (name, value) in &snapshot.counters {
        println!("{name:<52} {value:>12}");
    }

    println!();
    println!("== stages ==");
    println!(
        "{:<42} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "stage", "calls", "total ms", "mean ms", "p50 ms", "p99 ms", "max ms"
    );
    for stage in &snapshot.stages {
        println!(
            "{:<42} {:>8} {:>12.3} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            stage.name,
            stage.calls,
            stage.total_seconds() * 1e3,
            stage.mean_seconds() * 1e3,
            stage.p50_ns() as f64 / 1e6,
            stage.p99_ns() as f64 / 1e6,
            stage.max_ns as f64 / 1e6
        );
    }

    if !snapshot.histograms.is_empty() {
        println!();
        println!("== histograms ==");
        for h in &snapshot.histograms {
            println!("{} (count {}, sum {:.1})", h.name, h.count, h.sum);
            for (i, bucket) in h.buckets.iter().enumerate() {
                let label = h
                    .bounds
                    .get(i)
                    .map_or_else(|| "+Inf".to_string(), |b| format!("{b}"));
                println!("    le={label:<8} {bucket}");
            }
        }
    }

    println!();
    println!("== drop attribution ==");
    let dropped = reports.iter().filter(|r| r.drop_reason().is_some()).count();
    let productive = reports.len() - dropped;
    println!("uploads ingested      {:>8}", reports.len());
    println!("produced observations {productive:>8}");
    println!("dropped               {dropped:>8}");
    for reason in DropReason::ALL {
        let n = reports
            .iter()
            .filter(|r| r.drop_reason() == Some(reason))
            .count();
        println!("  {:<20} {n:>8}", reason.trace_label());
    }

    if !snapshot.events.is_empty() {
        println!();
        println!("== recent events ({} dropped) ==", snapshot.events_dropped);
        for event in snapshot.events.iter().rev().take(10).rev() {
            println!("[{:>5}] {}: {}", event.level, event.target, event.message);
        }
    }
}
