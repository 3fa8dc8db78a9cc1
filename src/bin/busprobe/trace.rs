//! `explain` and `trace`: replay the stored corpus with per-upload
//! decision tracing on.

use crate::args::{check_flags, flag_value, parse_flag, path_flag, positional};
use crate::ingest::open;
use crate::world::{Corpus, World};
use busprobe::trace::{TracePolicy, Tracer};
use std::sync::Arc;

/// Parses a TRIP-ID: a decimal commit sequence number or a
/// `0x`-prefixed upload content digest.
fn parse_trace_id(s: &str) -> Result<u64, String> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map_err(|_| format!("invalid hex trace id `{s}`"))
    } else {
        s.parse()
            .map_err(|_| format!("invalid trace id `{s}` (decimal seq or 0x-hex digest)"))
    }
}

/// Replays the stored corpus with a trace sink attached; returns the
/// tracer holding every exported trace.
fn traced_replay(args: &[String], policy: TracePolicy) -> Result<Arc<Tracer>, String> {
    let dir = path_flag(args, "--dir")?;
    let world = World::load(&dir)?;
    let corpus = Corpus::load(&dir)?;
    let jobs: usize = parse_flag(args, "--jobs", 0)?;
    corpus.announce(&dir);
    // A fresh one-shard monitor whatever the flags: a replay explains
    // the corpus, not a state directory.
    let monitor = open(&world.network, &world.db, &[], None)?.monitor;
    let tracer = Arc::new(Tracer::new(policy));
    monitor.shards()[0].set_trace_sink(Some(Arc::clone(&tracer)));
    let received = corpus.received_prefix(corpus.trips.len());
    let _ = monitor.ingest_batch_received_parallel(&corpus.trips, received, jobs);
    Ok(tracer)
}

/// `busprobe explain`: replay the corpus traced and narrate one
/// upload's decision chain — or list every upload's outcome when no
/// TRIP-ID is given.
pub fn cmd_explain(args: &[String]) -> Result<(), String> {
    check_flags(args, "--dir --jobs")?;
    let tracer = traced_replay(args, TracePolicy::export_all())?;
    let records = tracer.exported();
    match positional(args) {
        Some(raw) => {
            let id = parse_trace_id(raw)?;
            let record = tracer.find(id).ok_or_else(|| {
                format!(
                    "no trace for `{raw}` among {} uploads; run `busprobe explain --dir DIR` \
                     with no TRIP-ID to list ids",
                    records.len()
                )
            })?;
            println!("{}", record.trace.narrative());
            if let Some(worker) = record.worker {
                println!("  staged by worker {worker}");
            }
        }
        None => {
            println!(
                "{:>6}  {:<18}  {:>7}  outcome",
                "seq", "trace id", "samples"
            );
            for record in &records {
                let t = &record.trace;
                println!(
                    "{:>6}  {:<18}  {:>7}  {}",
                    t.seq,
                    format!("{:#018x}", t.trace_id),
                    t.samples,
                    busprobe::trace::outcome_label(&t.outcome)
                );
            }
            let drops = records.iter().filter(|r| r.trace.outcome.is_drop()).count();
            println!(
                "{} uploads: {} committed, {drops} dropped — \
                 `busprobe explain --dir DIR SEQ` narrates one",
                records.len(),
                records.len() - drops
            );
        }
    }
    Ok(())
}

/// `busprobe trace`: replay the corpus traced and export the traces as
/// Chrome trace-event JSON and/or JSONL.
pub fn cmd_trace(args: &[String]) -> Result<(), String> {
    check_flags(args, "--dir --out --jsonl --sample-every --jobs")?;
    let sample_every: u64 = parse_flag(args, "--sample-every", 1)?;
    let policy = TracePolicy {
        sample_every,
        ..TracePolicy::default()
    };
    let out = flag_value(args, "--out");
    let jsonl = flag_value(args, "--jsonl");
    if out.is_none() && jsonl.is_none() {
        return Err("nothing to write: pass --out FILE and/or --jsonl FILE".into());
    }
    let tracer = traced_replay(args, policy)?;
    let records = tracer.exported();
    let drops = records.iter().filter(|r| r.trace.outcome.is_drop()).count();
    if let Some(path) = out {
        std::fs::write(path, tracer.chrome_trace()).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote Chrome trace-event JSON to {path} (open in chrome://tracing)");
    }
    if let Some(path) = jsonl {
        std::fs::write(path, tracer.jsonl()).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote JSONL traces to {path}");
    }
    println!(
        "exported {} traces ({} drops, sample-every {sample_every}); \
         flight recorder holds the last {}",
        records.len(),
        drops,
        tracer.flight().len()
    );
    Ok(())
}
