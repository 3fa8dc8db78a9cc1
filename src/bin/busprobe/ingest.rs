//! `ingest` and `recover`, and [`open`] — the one place a monitor is
//! built. A monitor is always a [`ShardedMonitor`]: the paper's district
//! is a city of one shard, stored at the root of its state directory.

use crate::args::{check_flags, flag_present, flag_value, parse_flag, parse_opt_flag, path_flag};
use crate::world::{export_geojson, read_json, snapshot_time, Corpus, World};
use busprobe::core::{
    infer_regional, InferenceConfig, IngestReport, MonitorConfig, StopFingerprintDb, TrafficMap,
};
use busprobe::mobile::Trip;
use busprobe::network::TransitNetwork;
use busprobe::serve::signal;
use busprobe::shard::{city_layout, OverflowPolicy, ShardAccounting, ShardedMonitor};
use busprobe::trace::RecoveryTrace;
use std::path::{Path, PathBuf};

/// A monitor plus what [`open`] learned building it.
pub struct Backend {
    pub monitor: ShardedMonitor,
    /// `--state`, when given.
    pub state: Option<PathBuf>,
    /// One summary per shard when the monitor was recovered from
    /// `state`; empty for a cold start.
    pub recovered: Vec<RecoveryTrace>,
}

impl Backend {
    pub fn shards(&self) -> usize {
        self.monitor.shards().len()
    }
}

/// Builds the monitor every stateful command runs on, from `--state`
/// and `--shards`: recovered from the state directory when that holds a
/// city (its shard count is the directory's; a `--shards` that
/// disagrees is refused), else cold with `--shards` (default 1)
/// regions. `attach` = `(snapshot_every, group_every)` opens
/// the directory's stores for appending; `None` leaves it untouched.
pub fn open(
    network: &TransitNetwork,
    db: &StopFingerprintDb,
    args: &[String],
    attach: Option<(u64, u64)>,
) -> Result<Backend, String> {
    let state = flag_value(args, "--state").map(PathBuf::from);
    let shards: Option<usize> = parse_opt_flag(args, "--shards")?;
    if shards == Some(0) {
        return Err("--shards must be at least 1".into());
    }
    let config = MonitorConfig::default();
    let stored = match &state {
        Some(state) => city_layout(state, shards).map_err(|e| e.to_string())?,
        None => None,
    };
    let (monitor, recovered) = match (&state, stored) {
        (Some(state), Some(_)) => ShardedMonitor::recover(network.clone(), db, config, state)
            .map_err(|e| format!("recover from {state:?}: {e}"))?,
        _ => (
            ShardedMonitor::new(
                network.clone(),
                db,
                config,
                shards.unwrap_or(1),
                OverflowPolicy::Score,
            ),
            Vec::new(),
        ),
    };
    if let Some(state) = &state {
        print_recovery(state, &recovered);
        if let Some((snapshot_every, group_every)) = attach {
            monitor
                .attach_stores(state, snapshot_every, group_every)
                .map_err(|e| format!("open stores under {state:?}: {e}"))?;
        }
    }
    if monitor.shards().len() > 1 {
        let sizes = monitor.plan().shard_sizes();
        eprintln!(
            "city plan: {} shards over {} stop sites ({}..{} sites/shard), overflow policy `{}`",
            sizes.len(),
            sizes.iter().sum::<usize>(),
            sizes.iter().min().copied().unwrap_or(0),
            sizes.iter().max().copied().unwrap_or(0),
            monitor.policy().label()
        );
    }
    Ok(Backend {
        monitor,
        state,
        recovered,
    })
}

fn damage(summary: &RecoveryTrace) -> u64 {
    summary.skipped_records + summary.corrupt_tails + summary.snapshots_skipped
}

/// What a recovery brought back: one line for one shard, a per-shard
/// table for more, nothing for a cold start.
fn print_recovery(state: &Path, summaries: &[RecoveryTrace]) {
    match summaries {
        [] => {}
        [summary] => {
            let snapshot = match summary.snapshot_seq {
                Some(seq) => format!("snapshot covering {seq} records"),
                None => "no snapshot".to_string(),
            };
            print!(
                "resumed server state from {state:?}: {snapshot} + {} replayed commits",
                summary.replayed_commits
            );
            if summary.replayed_refreshes > 0 {
                print!(" + {} db refreshes", summary.replayed_refreshes);
            }
            if damage(summary) > 0 {
                print!(
                    " ({} corrupt records skipped, {} torn segment tails, {} corrupt snapshots \
                     passed over)",
                    summary.skipped_records, summary.corrupt_tails, summary.snapshots_skipped
                );
            }
            println!(" in {:.3}s", summary.duration_s);
        }
        _ => {
            println!(
                "recovered sharded state from {state:?} ({} shards):",
                summaries.len()
            );
            println!(
                "{:>6} {:>9} {:>10} {:>9} {:>10} {:>8} {:>6} {:>9}",
                "shard", "segments", "snapshot", "commits", "replayed", "skipped", "torn", "time"
            );
            for (s, summary) in summaries.iter().enumerate() {
                println!(
                    "{:>6} {:>9} {:>10} {:>9} {:>10} {:>8} {:>6} {:>8.3}s",
                    format!("{s:04}"),
                    summary.wal_segments,
                    summary
                        .snapshot_seq
                        .map_or_else(|| "-".to_string(), |seq| seq.to_string()),
                    summary.commits,
                    summary.replayed_commits + summary.replayed_refreshes,
                    summary.skipped_records,
                    summary.corrupt_tails,
                    summary.duration_s
                );
            }
        }
    }
}

/// Checks that every routed upload is accounted for by exactly one
/// shard, printing (when `show`) the verdict and — for two or more
/// shards — the per-shard ingest/drop table.
pub fn check_conservation(acc: &ShardAccounting, show: bool) -> Result<(), String> {
    let handled: u64 = acc.per_shard.iter().map(|(i, d)| i + d).sum();
    if show {
        if acc.per_shard.len() > 1 {
            println!("== shard accounting ==");
            println!("{:>6} {:>10} {:>9}", "shard", "ingested", "dropped");
            for (s, (ingested, dropped)) in acc.per_shard.iter().enumerate() {
                println!("{:>6} {ingested:>10} {dropped:>9}", format!("{s:04}"));
            }
        }
        println!(
            "routed {} uploads ({} via the overflow policy); shards handled {handled} — \
             conservation {}",
            acc.routed,
            acc.overflow,
            if acc.conserved() { "holds" } else { "VIOLATED" }
        );
    }
    if acc.conserved() {
        Ok(())
    } else {
        Err(format!(
            "shard conservation violated: {} routed but {handled} accounted for",
            acc.routed
        ))
    }
}

/// Prints `map` and exports it to `--geojson`, regionally completed
/// first under `--regional`.
fn render(args: &[String], map: &TrafficMap, network: &TransitNetwork) -> Result<(), String> {
    println!();
    print!("{}", map.render_text(network));
    let regional = flag_present(args, "--regional").then(|| {
        let regional = infer_regional(map, network, InferenceConfig::default());
        println!();
        println!(
            "regional inference: {} measured + {} inferred segments ({:.0}% coverage)",
            regional.measured_count(),
            regional.inferred_count(),
            100.0 * regional.coverage(network)
        );
        regional
    });
    export_geojson(args, map, regional.as_ref(), network)
}

/// Uploads per chunk when a durable ingest polls the SIGINT latch
/// between chunks — small enough that interrupt latency stays low,
/// large enough that the stage pool is not starved.
const SIGINT_CHUNK: usize = 32;

pub fn cmd_ingest(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        "--dir --jobs --snapshot --regional --geojson --state --snapshot-every --group-every \
         --limit --shards",
    )?;
    let dir = path_flag(args, "--dir")?;
    let world = World::load(&dir)?;
    let corpus = Corpus::load(&dir)?;
    let snapshot_t = snapshot_time(args, Some(&corpus.trips))?;
    // Worker count for the batch engine: 0 (the default) means all
    // cores. The result is bit-identical for every value.
    let jobs: usize = parse_flag(args, "--jobs", 0)?;
    let snapshot_every: u64 = parse_flag(args, "--snapshot-every", 0)?;
    // WAL group-commit window (1 = one frame per commit, the pre-group
    // byte format). Parallel ingest flushes the window at every
    // reorder-buffer flush regardless, so recovery replays identically.
    let group_every: u64 = parse_flag(args, "--group-every", 1)?;
    let limit = parse_opt_flag::<usize>(args, "--limit")?.unwrap_or(usize::MAX);
    corpus.announce(&dir);
    let trips = &corpus.trips[..limit.min(corpus.trips.len())];
    let received = corpus.received_prefix(trips.len());

    // With --state, every commit is persisted (WAL + periodic snapshots)
    // and an existing directory is resumed, so repeated — or crashed and
    // recovered — ingests accumulate instead of starting over.
    let backend = open(
        &world.network,
        &world.db,
        args,
        Some((snapshot_every, group_every)),
    )?;
    // A durable run traps SIGINT and ingests in chunks: on interrupt it
    // finishes the in-flight chunk, checkpoints, and exits cleanly, so
    // the state directory resumes exactly where the signal landed.
    // Chunking is invisible otherwise — the stage/commit pipeline is
    // deterministic in upload order, so chunked and one-shot batches
    // produce identical reports and state.
    let durable = backend.state.is_some();
    let step = if durable {
        signal::trap_termination();
        SIGINT_CHUNK
    } else {
        trips.len().max(1)
    };
    let mut reports: Vec<IngestReport> = Vec::with_capacity(trips.len());
    for chunk in trips.chunks(step) {
        let recv = received
            .get(reports.len()..reports.len() + chunk.len())
            .unwrap_or(&[]);
        reports.extend(
            backend
                .monitor
                .ingest_batch_received_parallel(chunk, recv, jobs),
        );
        if durable && signal::termination_requested() {
            println!(
                "interrupted: finished the in-flight chunk after {} of {} uploads; \
                 checkpointing before exit",
                reports.len(),
                trips.len()
            );
            break;
        }
    }
    let sum = |f: fn(&IngestReport) -> usize| reports.iter().map(f).sum::<usize>();
    println!(
        "ingested {} of {} uploads: {} samples matched, {} speed observations, \
         {} samples quarantined",
        reports.len(),
        corpus.trips.len(),
        sum(|r| r.matched),
        sum(|r| r.observations),
        sum(|r| r.quarantined)
    );

    let map = backend
        .monitor
        .city_map_with_max_age(snapshot_t.seconds(), f64::INFINITY);
    render(args, &map, &world.network)?;
    if let Some(state) = &backend.state {
        let coverage = backend
            .monitor
            .checkpoint_all()
            .map_err(|e| format!("checkpoint to {state:?}: {e}"))?;
        let covered: u64 = coverage.iter().map(|c| c.unwrap_or(0)).sum();
        match coverage.len() {
            1 => println!("saved server state to {state:?} (snapshot covers {covered} records)"),
            n => println!(
                "saved server state to {state:?} ({n} shard dirs; snapshots cover \
                 {covered} records)"
            ),
        }
    }
    if backend.shards() > 1 {
        println!();
    }
    check_conservation(&backend.monitor.accounting(), backend.shards() > 1)
}

/// `busprobe recover`: rebuild the monitor from a durable state directory
/// — newest valid snapshot plus WAL-tail replay, per shard — and print
/// what survived, without ingesting anything. The read-only half of the
/// crash-recovery loop; `ingest --state` does the same recovery before
/// appending new commits.
pub fn cmd_recover(args: &[String]) -> Result<(), String> {
    check_flags(args, "--dir --state --snapshot --geojson")?;
    let dir = path_flag(args, "--dir")?;
    let state = path_flag(args, "--state")?;
    let world = World::load(&dir)?;
    let backend = open(&world.network, &world.db, args, None)?;
    if backend.recovered.is_empty() {
        return Err(format!(
            "{state:?} holds no WAL segments or snapshots; run `busprobe ingest --state` first"
        ));
    }
    // The full narrative of the one shard, or of each that took damage.
    let sharded = backend.shards() > 1;
    for (s, summary) in backend.recovered.iter().enumerate() {
        if sharded && damage(summary) == 0 {
            continue;
        }
        if sharded {
            println!();
            println!("shard {s:04} took damage:");
        }
        println!("{}", summary.narrative());
    }
    if sharded && backend.recovered.iter().all(|s| damage(s) == 0) {
        println!("all shards replayed clean");
    }

    // The map horizon matches `ingest`'s default when the corpus is
    // still there, so the two maps are comparable.
    let trips_path = dir.join("trips.json");
    let trips: Option<Vec<Trip>> = trips_path
        .exists()
        .then(|| read_json(&trips_path))
        .transpose()?;
    let snapshot_t = snapshot_time(args, trips.as_deref())?;
    let map = backend
        .monitor
        .city_map_with_max_age(snapshot_t.seconds(), f64::INFINITY);
    render(args, &map, &world.network)
}
