//! `demo` and `city`: the whole flow in one command, on a small region
//! or on a synthetic metropolis.

use crate::args::{check_flags, parse_flag};
use crate::ingest::{check_conservation, cmd_ingest, open};
use crate::world::{cmd_init, cmd_simulate, export_geojson};
use busprobe::core::{latest_upload_s, HORIZON_GRACE_S};
use busprobe_bench::World;
use std::time::Instant;

pub fn cmd_demo(args: &[String]) -> Result<(), String> {
    check_flags(args, "--seed")?;
    let seed: u64 = parse_flag(args, "--seed", 7)?;
    let dir = std::env::temp_dir().join(format!("busprobe-demo-{seed}-{}", std::process::id()));
    let dir_arg = dir.to_string_lossy().to_string();
    println!("== init ==");
    cmd_init(&[
        "--dir".into(),
        dir_arg.clone(),
        "--seed".into(),
        seed.to_string(),
        "--small".into(),
    ])?;
    println!();
    println!("== simulate ==");
    cmd_simulate(&["--dir".into(), dir_arg.clone()])?;
    println!();
    println!("== ingest ==");
    cmd_ingest(&["--dir".into(), dir_arg.clone(), "--regional".into()])?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// `busprobe city`: the synthetic-metropolis smoke — tile the
/// calibrated district into a city, fabricate a rider corpus, ingest it
/// through a sharded monitor, and report throughput plus federated
/// accounting. `--geojson` exports the aggregated map, which is
/// byte-identical at every `--shards` count (ci.sh compares 1 vs 4).
pub fn cmd_city(args: &[String]) -> Result<(), String> {
    check_flags(args, "--seed --stops --trips --shards --jobs --geojson")?;
    let seed: u64 = parse_flag(args, "--seed", 7)?;
    let stops: usize = parse_flag(args, "--stops", 5_000)?;
    let trips: usize = parse_flag(args, "--trips", 20_000)?;
    let jobs: usize = parse_flag(args, "--jobs", 0)?;

    let t0 = Instant::now();
    let m = World::metropolis(stops, trips, seed);
    let (tiles_x, tiles_y) = m.tiles();
    println!(
        "metropolis: {} stop sites, {} routes ({tiles_x}x{tiles_y} tiles) in {:.1}s",
        m.network.sites().len(),
        m.network.routes().len(),
        t0.elapsed().as_secs_f64()
    );
    let t0 = Instant::now();
    let monitor = open(&m.network, &m.db, args, None)?.monitor;
    let sizes = monitor.plan().shard_sizes();
    println!(
        "built {} shard indexes in {:.1}s ({}..{} sites/shard)",
        sizes.len(),
        t0.elapsed().as_secs_f64(),
        sizes.iter().min().copied().unwrap_or(0),
        sizes.iter().max().copied().unwrap_or(0)
    );

    // Fabricate and ingest in bounded chunks so a million-trip city
    // never holds the whole corpus in memory.
    const CITY_CHUNK: usize = 10_000;
    let mut horizon = 0.0f64;
    let mut fabricate_s = 0.0f64;
    let mut ingest_s = 0.0f64;
    let mut done = 0usize;
    while done < trips {
        let t = Instant::now();
        let chunk = m.trips_chunk(done, CITY_CHUNK.min(trips - done));
        fabricate_s += t.elapsed().as_secs_f64();
        if chunk.is_empty() {
            break;
        }
        horizon = latest_upload_s(&chunk, horizon);
        let t = Instant::now();
        let _ = monitor.ingest_batch_received_parallel(&chunk, &[], jobs);
        ingest_s += t.elapsed().as_secs_f64();
        done += chunk.len();
    }
    println!(
        "ingested {done} trips at {:.0} trips/s ({:.1}s ingest + {:.1}s fabrication)",
        done as f64 / ingest_s.max(f64::MIN_POSITIVE),
        ingest_s,
        fabricate_s
    );

    let map = monitor.city_map_with_max_age(horizon + HORIZON_GRACE_S, f64::INFINITY);
    println!("federated map covers {} segments", map.segments.len());
    export_geojson(args, &map, None, &m.network)?;
    println!();
    check_conservation(&monitor.accounting(), true)
}
