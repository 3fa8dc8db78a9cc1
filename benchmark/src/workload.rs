//! The five workloads and the metric tables. This file is the source of
//! `BENCHMARK.json` (`--manifest` prints it; a test keeps them equal).

use crate::sut::Mix;
use serde_json::{json, Value};

/// Seconds one run measures for (the driver passes it as `--seconds`).
pub const RUN_SECONDS: u64 = 18;

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README says more.
    pub why: &'static str,
    pub mix: Mix,
    /// Rides synthesized (district mixes) or fabricated per hour (city).
    pub base: usize,
    /// Hours of service the rides are replicated over.
    pub hours: usize,
    /// Uploads per second the open loop offers: well inside what the
    /// socket path sustains, so `ack_p50_ms` is a wait, not a backlog.
    pub rate: f64,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "district_batch",
        why: "paper-scale clean district (~190 stop sites, 20 h of rides): Smith-Waterman matching dominates per-trip time, so a matcher change must show here",
        mix: Mix::District,
        base: 1500,
        hours: 20,
        rate: 2000.0,
    },
    Workload {
        name: "city_batch",
        why: "26k-site tiled metropolis behind 4 regional shards: same DP work per trip but index, network lookups and routing at city scale; a matcher change should barely move it",
        mix: Mix::City,
        base: 600,
        hours: 20,
        rate: 800.0,
    },
    Workload {
        name: "retry_storm",
        why: "district under extreme faults, 50% exact and 30% jittered duplicates, every hour re-sent: most uploads end at the digest, sanitize and near-duplicate fast paths and skip matching",
        mix: Mix::RetryStorm,
        base: 1000,
        hours: 20,
        rate: 2000.0,
    },
    Workload {
        name: "durable_stream",
        why: "live partial-trip flushes (2-3 stops, arrival-stamped, ~3x smaller frames): per-upload fixed costs - wire parse, queue, group commit, fsync share, ack - outweigh per-scan work",
        mix: Mix::ShortHops,
        base: 3000,
        hours: 20,
        rate: 2000.0,
    },
    Workload {
        name: "crash_restart",
        why: "district with a 40 h history: a large duplicate set and fusion series, so WAL replay, checkpoint, snapshot size and restart dominate; a faster append that slows replay shows here",
        mix: Mix::District,
        base: 1000,
        hours: 40,
        rate: 2000.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// Wall-time metrics carry the contract's widest bound: on the 2-core
/// shared VM this was sized on, ten runs of one build spread by 4–15 % in
/// an ordinary hour even with the box's own speed taken out (see README,
/// "Box speed" and "Noise").
const TIMED: f64 = 0.25;
/// Exact counts repeat bit for bit at one seed; across seeds the rides
/// differ, which is all this bound has to absorb.
const COUNTED: f64 = 0.03;

pub const END_TO_END: [Metric; 11] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("trips_per_s", "1/s", true, TIMED),
    e2e("trips_per_s_parallel", "1/s", true, TIMED),
    e2e("stream_trips_per_s", "1/s", true, TIMED),
    e2e("ack_p50_ms", "ms", false, TIMED),
    e2e("recover_records_per_s", "1/s", true, TIMED),
    e2e("durable_trips_per_s", "1/s", true, TIMED),
    e2e("restart_ms", "ms", false, TIMED),
    e2e("wal_bytes_per_trip", "B", false, COUNTED),
    e2e("snapshot_bytes_per_trip", "B", false, COUNTED),
    e2e("state_mb", "MB", false, COUNTED),
];

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: 0.0,
    }
}

/// Per-layer metrics, layer = busprobe module name. Each pipeline stage
/// reports self time per upload and its share of the stage total.
pub const PER_LAYER: [Metric; 73] = [
    layer("digest.ns_per_trip", "ns", false),
    layer("digest.share", "ratio", false),
    layer("sanitize.ns_per_trip", "ns", false),
    layer("sanitize.share", "ratio", false),
    layer("sanitize.near_digest_ns_per_trip", "ns", false),
    layer("sanitize.kept_fraction", "ratio", true),
    layer("fingerprint.ns_per_trip", "ns", false),
    layer("fingerprint.share", "ratio", false),
    layer("matching.ns_per_trip", "ns", false),
    layer("matching.share", "ratio", false),
    layer("matching.ns_per_scan", "ns", false),
    layer("matching.p99_ns", "ns", false),
    layer("matching.candidates_per_scan", "count", false),
    layer("matching.matched_fraction", "ratio", true),
    layer("clustering.ns_per_trip", "ns", false),
    layer("clustering.share", "ratio", false),
    layer("clustering.clusters_per_trip", "count", false),
    layer("mapping.ns_per_trip", "ns", false),
    layer("mapping.share", "ratio", false),
    layer("mapping.mapped_fraction", "ratio", true),
    layer("mapping.salvaged_fraction", "ratio", false),
    layer("estimation.ns_per_trip", "ns", false),
    layer("estimation.share", "ratio", false),
    layer("estimation.observations_per_trip", "count", true),
    layer("fusion.ns_per_trip", "ns", false),
    layer("fusion.share", "ratio", false),
    layer("fusion.ns_per_observation", "ns", false),
    layer("fusion.segments", "count", false),
    layer("map.snapshot_ms", "ms", false),
    layer("geojson.render_ms", "ms", false),
    layer("server.residual_ns_per_trip", "ns", false),
    layer("server.residual_fraction", "ratio", false),
    layer("index.build_s", "s", false),
    layer("index.interned_cells", "count", false),
    layer("shard.partition.build_s", "s", false),
    layer("shard.partition.skew", "ratio", false),
    layer("shard.router.ns_per_trip", "ns", false),
    layer("shard.router.overflow_fraction", "ratio", false),
    layer("shard.router.trip_skew", "ratio", false),
    layer("shard.monitor.fanout_residual_ns_per_trip", "ns", false),
    layer("shard.aggregate.merge_ms", "ms", false),
    layer("parallel.speedup", "ratio", true),
    layer("parallel.cpu_ratio", "ratio", false),
    layer("alloc.calls_per_trip", "count", false),
    layer("alloc.bytes_per_trip", "B", false),
    layer("durability.encode_ns_per_trip", "ns", false),
    layer("durability.bytes_per_record", "B", false),
    layer("durability.decode_ns_per_record", "ns", false),
    layer("store.append_ns_per_record", "ns", false),
    layer("store.write_amplification", "ratio", false),
    layer("store.replay_ns_per_record", "ns", false),
    layer("store.snapshot_write_ms", "ms", false),
    layer("store.snapshot_load_ms", "ms", false),
    layer("store.fsync_ms", "ms", false),
    layer("store.fsyncs", "count", false),
    layer("recovery.apply_ns_per_record", "ns", false),
    layer("serve.protocol.parse_ns_per_line", "ns", false),
    layer("serve.protocol.encode_ns_per_line", "ns", false),
    layer("serve.protocol.bytes_per_line", "B", false),
    layer("serve.engine.inproc_trips_per_s", "1/s", true),
    layer("serve.net.socket_overhead_fraction", "ratio", false),
    layer("serve.queue.high_water", "count", false),
    layer("serve.group_fill", "count", true),
    layer("serve.ack_p99_ms", "ms", false),
    layer("serve.ack_p999_ms", "ms", false),
    layer("serve.ack_p50_ms.x2", "ms", false),
    layer("serve.ack_p50_ms.x3", "ms", false),
    layer("serve.sustainable_rate", "1/s", true),
    layer("loadgen.late_p99_ms", "ms", false),
    layer("loadgen.late_max_ms", "ms", false),
    layer("trace.overhead_fraction", "ratio", false),
    layer("store.checkpoint_ms", "ms", false),
    layer("box.speed", "ratio", true),
];

fn better(m: &Metric) -> &'static str {
    if m.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| json!({ "name": w.name, "why": w.why }))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": better(m), "bound": m.bound }))
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": better(m) }))
        .collect();
    json!({
        "command": ["bash", "benchmark/run.sh"],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_is_the_manifest() {
        let committed: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `benchmark/run.sh --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} {}", m.name, m.unit);
            assert!(names.insert(m.name), "{} is used twice", m.name);
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && names.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
