//! `busprobe serve`: the resident streaming frontend.

use crate::args::{check_flags, flag_present, flag_value, parse_flag, parse_opt_flag, path_flag};
use crate::ingest::{open, Backend};
use crate::world::{geojson, World};
use busprobe::core::HORIZON_GRACE_S;
use busprobe::serve::{signal, ServeConfig, ServeEngine, ServeSummary};
use busprobe::shard::ShardFront;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// Loads the world, optionally recovers durable state, and serves the
/// line-delimited JSON protocol over a unix socket or stdin until
/// drained (SIGTERM, SIGINT, EOF or a `shutdown` command), a watchdog
/// stall, or a store fail-stop. One [`ServeEngine`] — admission queue,
/// commit thread, WAL and checkpoint cadence — per shard behind one
/// [`ShardFront`]; acknowledgement semantics are the engine's, per
/// shard. With `--publish`, the federated map and the telemetry are
/// republished every `--publish-interval-s` from a thread of their own,
/// and once more after drain.
pub fn cmd_serve(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        "--dir --socket --stdin --state --snapshot-every --queue --on-full --latency-budget-ms \
         --jobs --sync-every --publish --publish-interval-s --watchdog-s --commit-throttle-ms \
         --shards",
    )?;
    let dir = path_flag(args, "--dir")?;
    let world = World::load(&dir)?;
    let socket = flag_value(args, "--socket").map(PathBuf::from);
    match (&socket, flag_present(args, "--stdin")) {
        (None, false) => return Err("serve needs --socket PATH or --stdin".into()),
        (Some(_), true) => return Err("--socket and --stdin are mutually exclusive".into()),
        _ => {}
    }
    let publish_dir = flag_value(args, "--publish").map(PathBuf::from);
    let publish_interval = Duration::from_secs_f64(parse_flag(args, "--publish-interval-s", 2.0)?);

    let snapshot_every: u64 = parse_flag(args, "--snapshot-every", 0)?;
    let seconds = |s: f64| (s > 0.0).then(|| Duration::from_secs_f64(s));
    let config = ServeConfig {
        queue_capacity: parse_flag(args, "--queue", 256)?,
        full_policy: parse_flag(args, "--on-full", Default::default())?,
        latency_budget: parse_opt_flag::<u64>(args, "--latency-budget-ms")?
            .map(Duration::from_millis),
        workers: parse_flag(args, "--jobs", 1)?,
        sync_every: parse_flag(args, "--sync-every", 32)?,
        // 0 disables the watchdog; the default (30 s) is far above any
        // healthy commit-loop iteration.
        watchdog_stall: seconds(parse_flag(args, "--watchdog-s", 30.0)?),
        // Fault injection for drills: artificially slow each batch so a
        // stall (and the watchdog's reaction) can be provoked on demand.
        commit_throttle: parse_opt_flag::<u64>(args, "--commit-throttle-ms")?
            .map(Duration::from_millis),
        ..ServeConfig::default()
    };

    // Group commit: the window is `--sync-every` wide and closes when
    // the batch that opened it returns, so each commit batch appends
    // one WAL frame. Acks release after one fsync per ack group, which
    // may span batches but holds at most `--sync-every` commits.
    let backend = open(
        &world.network,
        &world.db,
        args,
        Some((snapshot_every, config.sync_every)),
    )?;
    let monitors = backend.monitor.shards().to_vec();
    signal::trap_termination();
    let engines: Vec<ServeEngine> = monitors
        .iter()
        .map(|m| {
            ServeEngine::start_with(
                Arc::clone(m),
                config.clone(),
                Some(Box::new(|diag: &str| {
                    eprintln!("fatal: {diag}");
                    std::process::exit(2);
                })),
            )
        })
        .collect();
    let handles = engines.iter().map(ServeEngine::handle).collect();
    let front = ShardFront::new(handles, monitors, backend.monitor.policy());
    eprintln!(
        "serve: {} shard(s), queue capacity {} each (on-full: {}), durable: {}",
        engines.len(),
        config.queue_capacity,
        config.full_policy.as_str(),
        backend.state.is_some(),
    );
    std::thread::scope(|scope| {
        // Dropped when serving ends, which stops the publisher.
        let (_serving, stopped) = mpsc::channel::<()>();
        if let Some(pubdir) = &publish_dir {
            let (backend, world, front) = (&backend, &world, &front);
            scope.spawn(move || {
                let mut published_commits = None;
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(publish_interval) {
                    let commits = backend.monitor.commit_counts().iter().sum::<u64>();
                    if published_commits == Some(commits) {
                        continue;
                    }
                    if let Err(e) = publish(pubdir, backend, world, front) {
                        eprintln!("warning: {e}");
                    }
                    published_commits = Some(commits);
                }
            });
        }
        match &socket {
            Some(path) => {
                eprintln!("listening on {}", path.display());
                let drain = front.clone();
                busprobe::serve::serve_unix(&front, path, move || {
                    if signal::termination_requested() {
                        drain.begin_drain();
                    }
                })
                .map_err(|e| format!("serve on {path:?}: {e}"))
            }
            None => {
                busprobe::serve::serve_stdio(&front);
                Ok(())
            }
        }
    })?;

    // Socket loop exited (drain began or an engine died) or stdin hit
    // EOF: stop admission either way and let the commit loops finish.
    front.begin_drain();
    let summaries: Vec<ServeSummary> = engines.into_iter().map(ServeEngine::join).collect();
    let total = |f: fn(&ServeSummary) -> u64| -> u64 { summaries.iter().map(f).sum() };
    println!(
        "drained: {} received, {} admitted, {} committed, {} acked",
        total(|s| s.received),
        total(|s| s.admitted),
        total(|s| s.committed),
        total(|s| s.acked)
    );
    if total(ServeSummary::dropped) > 0 || total(|s| s.refused_draining) > 0 {
        println!(
            "drops (all attributed): {} shed-queue-full, {} shed-deadline, {} oversized, \
             {} unparseable; {} refused while draining",
            total(|s| s.shed_queue_full),
            total(|s| s.shed_deadline),
            total(|s| s.oversized),
            total(|s| s.unparseable),
            total(|s| s.refused_draining)
        );
    }
    let sharded = summaries.len() > 1;
    for (s, summary) in summaries.iter().enumerate() {
        if sharded {
            print!("shard {s:04}: {} committed, ", summary.committed);
        }
        println!(
            "queue high water {} of {}; {} checkpoint(s)",
            summary.queue_high_water, config.queue_capacity, summary.checkpoints
        );
        if let Some(seq) = summary.final_checkpoint_seq {
            println!("final checkpoint covers {seq} records");
        }
    }
    if let Some(diag) = summaries.into_iter().find_map(|s| s.fatal) {
        return Err(format!("serve ended fatally: {diag}"));
    }
    if let Some(pubdir) = &publish_dir {
        publish(pubdir, &backend, &world, &front)?;
        println!("published map.geojson and metrics.prom to {pubdir:?}");
    }
    Ok(())
}

/// Publishes the federated map as of the front's horizon — the map
/// `ingest --geojson` writes for the same uploads — with the telemetry.
fn publish(dir: &Path, backend: &Backend, world: &World, front: &ShardFront) -> Result<(), String> {
    let map = backend
        .monitor
        .city_map_with_max_age(front.horizon() + HORIZON_GRACE_S, f64::INFINITY);
    busprobe::serve::publish(dir, &geojson(&map, None, &world.network))
        .map_err(|e| format!("publish to {dir:?}: {e}"))
}
