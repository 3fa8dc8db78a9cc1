//! The traced run: per-layer numbers for one workload.
//!
//! End-to-end metrics are measured with tracing off (`run.rs`). This run
//! pays for spans and single-layer probes instead: the pipeline rebuilt
//! from the layers' public functions with a span around every call, the
//! durability codec, store and wire protocol timed on their own, and the
//! socket path at multiples of the workload's offered rate. The stage
//! self times plus `server.residual_ns_per_trip` sum to the untraced
//! per-trip time by construction; the residual is what the real monitor
//! spends outside the layers (locks, counters, stage spans, reports).

use crate::boxspeed::Speedometer;
use crate::loadgen;
use crate::run::{
    book_reports, book_stream, parallel_workers, start_server, BatchResult, Outcome, Scratch,
    CLOSED_WINDOW,
};
use crate::span::{self, Span};
use crate::sut::{self, Backend, Corpus, Inputs, Report, Site, TracedPipeline};
use crate::workload::Workload;
use crate::{alloc, stats};
use std::io;
use std::time::{Duration, Instant};

/// Every this-many-th upload's spans go to `out/<workload>.trace.json`.
const TRACE_SAMPLE: u32 = 64;
/// `observations_for` is compared on every this-many-th upload.
const SPOT_CHECK: usize = 50;
/// Uploads each ledger participant ingests per turn.
const LEDGER_CHUNK: usize = 500;
/// Frames pre-encoded for the stream steps (each up to a second long).
const STREAM_FRAMES: usize = 16_000;
/// Multiples of the workload's rate the open loop is offered at.
const RATE_STEPS: [f64; 4] = [1.0, 2.0, 3.0, 4.0];
/// A rate is sustained when the median wait stays under this …
const ACK_LIMIT_MS: f64 = 100.0;
/// … and no more than this many group windows per engine are still
/// unanswered when the last upload leaves.
const BACKLOG_WINDOWS: usize = 2;

/// Process CPU seconds (user + system, all threads) from
/// `/proc/self/stat`, in 10 ms ticks.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_name = stat.rsplit(')').next().unwrap_or("");
    let ticks: f64 = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// The pipeline stages in call order, as the spans name them.
const STAGES: [&str; 8] = [
    "digest",
    "sanitize",
    "fingerprint",
    "matching",
    "clustering",
    "mapping",
    "estimation",
    "fusion",
];

/// Books the stage ledger from the spans and the reports of one traced
/// ingest of `uploads` uploads; returns Σ stage self time per upload, ns.
fn book_stages(out: &mut Outcome, spans: &[Span], reports: &[Report]) -> f64 {
    let uploads = reports.len().max(1) as f64;
    let layers = span::aggregate(spans);
    let self_ns = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ns as f64);
    let near = self_ns("sanitize.near_digest");
    let router = self_ns("shard.router");
    let total: f64 = STAGES.iter().map(|s| self_ns(s)).sum::<f64>() + near + router;
    let names: [(&str, &'static str, &'static str); 8] = [
        ("digest", "digest.ns_per_trip", "digest.share"),
        ("sanitize", "sanitize.ns_per_trip", "sanitize.share"),
        (
            "fingerprint",
            "fingerprint.ns_per_trip",
            "fingerprint.share",
        ),
        ("matching", "matching.ns_per_trip", "matching.share"),
        ("clustering", "clustering.ns_per_trip", "clustering.share"),
        ("mapping", "mapping.ns_per_trip", "mapping.share"),
        ("estimation", "estimation.ns_per_trip", "estimation.share"),
        ("fusion", "fusion.ns_per_trip", "fusion.share"),
    ];
    for (stage, per_trip, share) in names {
        // The sanitize layer owns the near-duplicate digests too.
        let ns = self_ns(stage) + if stage == "sanitize" { near } else { 0.0 };
        out.sample(per_trip, ns / uploads);
        out.sample(share, ns / total.max(1.0));
    }
    out.sample("sanitize.near_digest_ns_per_trip", near / uploads);
    out.sample("shard.router.ns_per_trip", router / uploads);

    let sum = |f: fn(&Report) -> usize| reports.iter().map(f).sum::<usize>() as f64;
    let count = |f: fn(&Report) -> bool| reports.iter().filter(|r| f(r)).count() as f64;
    // Scans that reached the matcher: kept samples of uploads that were
    // not cut short as duplicates.
    let scans = reports
        .iter()
        .filter(|r| !r.duplicate && !r.near_duplicate)
        .map(|r| r.kept)
        .sum::<usize>() as f64;
    let sanitized = reports
        .iter()
        .filter(|r| !r.duplicate)
        .map(|r| r.samples)
        .sum::<usize>() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.sample("sanitize.kept_fraction", ratio(sum(|r| r.kept), sanitized));
    out.sample("matching.ns_per_scan", ratio(self_ns("matching"), scans));
    out.sample(
        "matching.matched_fraction",
        ratio(sum(|r| r.matched), scans),
    );
    let matching: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "matching")
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    out.sample("matching.p99_ns", stats::percentile(&matching, 0.99));
    out.sample(
        "clustering.clusters_per_trip",
        ratio(sum(|r| r.clusters), count(|r| r.matched > 0)),
    );
    out.sample(
        "mapping.mapped_fraction",
        ratio(count(|r| r.visits > 0), count(|r| r.clusters > 0)),
    );
    out.sample(
        "mapping.salvaged_fraction",
        ratio(count(|r| r.salvage_dropped > 0), count(|r| r.visits > 0)),
    );
    out.sample(
        "estimation.observations_per_trip",
        sum(|r| r.observations) / uploads,
    );
    out.sample(
        "fusion.ns_per_observation",
        ratio(self_ns("fusion"), sum(|r| r.observations)),
    );
    total / uploads
}

/// Whole-corpus reps of the real monitor, untraced, with CPU and
/// allocator accounting: parallel first (it also warms the heap), then
/// serial. Returns the serial reports.
fn untraced(out: &mut Outcome, site: &Site, corpus: &Corpus) -> Vec<Report> {
    let uploads = corpus.len() as f64;
    let rep = |workers: usize| {
        let backend = Backend::start(site);
        let (heap, cpu, t) = (alloc::read(), cpu_seconds(), Instant::now());
        let reports = backend.ingest(corpus.all(), workers);
        let wall_s = t.elapsed().as_secs_f64();
        (reports, wall_s, cpu_seconds() - cpu, alloc::read(), heap)
    };
    let (parallel_reports, parallel_s, parallel_cpu_s, ..) = rep(parallel_workers());
    let (reports, serial_s, serial_cpu_s, after, before) = rep(1);
    out.sample(
        "alloc.calls_per_trip",
        after.calls_since(&before) as f64 / uploads,
    );
    out.sample(
        "alloc.bytes_per_trip",
        after.bytes_since(&before) as f64 / uploads,
    );
    out.sample("parallel.speedup", serial_s / parallel_s);
    out.sample(
        "parallel.cpu_ratio",
        parallel_cpu_s / serial_cpu_s.max(0.01),
    );
    book_reports(out, corpus.len(), &reports);
    book_reports(out, corpus.len(), &parallel_reports);
    out.check(parallel_reports == reports, || {
        "parallel reports differ from serial".into()
    });
    reports
}

/// What one offered rate did.
struct RateStep {
    rate: f64,
    p50_ms: f64,
    sustained: bool,
}

pub fn traced(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    scratch: &Scratch,
) -> io::Result<Outcome> {
    let started = Instant::now();
    let Inputs { site, corpus, .. } =
        sut::generate(workload.mix, workload.base, workload.hours, seed);
    let uploads = corpus.len();
    let horizon = corpus.horizon();
    let mut out = Outcome::new(corpus.digest(), started);
    out.phase("inputs generated");

    // Whole-corpus reps of the real monitor: parallel scaling, CPU and
    // allocator accounting.
    let whole = untraced(&mut out, &site, &corpus);

    out.phase("whole-corpus reps");

    // The ledger, in lock step: the real monitor, the rebuilt pipeline
    // with spans on and the same pipeline with spans off each ingest the
    // same short run of uploads in turn. This box's memory speed drifts
    // by ~10 % over seconds; taking turns every few milliseconds puts
    // all three under the same weather, so their differences mean
    // something.
    let backend = Backend::start(&site);
    let fanout = Backend::start(&site);
    let mut pipeline = TracedPipeline::new(&site, &backend, true);
    let mut quiet = TracedPipeline::new(&site, &backend, false);
    let (mut real_s, mut traced_s, mut quiet_s) = (0.0, 0.0, 0.0);
    let (mut route_s, mut shards_s) = (0.0, 0.0);
    let mut reports = Vec::with_capacity(uploads);
    let mut traced_reports = Vec::with_capacity(uploads);
    let mut quiet_reports = Vec::with_capacity(uploads);
    let mut meter = Speedometer::new();
    for chunk in corpus.chunks(LEDGER_CHUNK) {
        meter.tick();
        let t = Instant::now();
        reports.extend(backend.ingest(chunk, 1));
        real_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        traced_reports.extend(pipeline.ingest(chunk));
        traced_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        quiet_reports.extend(quiet.ingest(chunk));
        quiet_s += t.elapsed().as_secs_f64();
        if let Some((route, shards)) = fanout.fanout_breakdown(chunk) {
            route_s += route;
            shards_s += shards;
        }
    }
    out.phase("ledger");
    // Per-layer numbers are as the clock read them; this says what box
    // they were read on.
    out.sample("box.speed", meter.speed());
    book_reports(&mut out, uploads, &reports);
    let real = BatchResult::of(&backend, &reports, horizon);
    out.outcome_digest = real.digest();
    out.check(reports == whole, || {
        "chunked ingest reports differ from whole-corpus ingest".into()
    });
    out.check(
        traced_reports == reports && quiet_reports == reports,
        || "rebuilt pipeline reports differ from the monitor's".into(),
    );
    out.check(
        pipeline.map_digest(horizon) == real.map_digest
            && quiet.map_digest(horizon) == real.map_digest,
        || "rebuilt pipeline map differs from the monitor's".into(),
    );
    let (compared, mismatches) = pipeline.spot_check(corpus.all(), SPOT_CHECK);
    out.check(compared > 0 && mismatches == 0, || {
        format!("observations_for disagrees on {mismatches} of {compared} uploads")
    });
    let (conserved, overflow, _) = backend.shard_accounting();
    out.check(conserved, || "shard accounting does not conserve".into());
    out.sample("shard.router.overflow_fraction", overflow);

    let per_trip = 1e9 / uploads as f64;
    let stage_ns_per_trip = book_stages(&mut out, pipeline.recorder.spans(), &reports);
    let residual = real_s * per_trip - stage_ns_per_trip;
    out.sample("server.residual_ns_per_trip", residual);
    out.sample("server.residual_fraction", residual / (real_s * per_trip));
    out.sample("trace.overhead_fraction", 1.0 - quiet_s / traced_s);
    // What a sharded ingest takes beyond routing and the shards' own
    // ingest: bucketing, cloning, report scatter. Zero without shards.
    let fanout_s = if site.shards > 1 {
        real_s - route_s - shards_s
    } else {
        0.0
    };
    out.sample(
        "shard.monitor.fanout_residual_ns_per_trip",
        fanout_s * per_trip,
    );
    std::fs::write(
        format!("benchmark/out/{}.trace.json", workload.name),
        span::sample_json(pipeline.recorder.spans(), TRACE_SAMPLE),
    )?;
    let totals = pipeline.totals(corpus.all());
    out.sample("index.build_s", pipeline.index_build_s);
    out.sample("index.interned_cells", totals.interned_cells as f64);
    out.sample("shard.partition.build_s", pipeline.plan_build_s);
    out.sample("shard.partition.skew", totals.partition_skew);
    out.sample("shard.router.trip_skew", totals.trip_skew);
    out.sample(
        "matching.candidates_per_scan",
        totals.candidates_probed as f64 / totals.scans_probed.max(1) as f64,
    );
    drop((
        pipeline,
        quiet,
        fanout,
        traced_reports,
        quiet_reports,
        whole,
    ));

    out.sample("fusion.segments", backend.segments(horizon) as f64);
    for _ in 0..3 {
        let (_, [snapshot_s, merge_s, render_s]) = backend.publish(horizon);
        out.sample("map.snapshot_ms", snapshot_s * 1e3);
        out.sample("shard.aggregate.merge_ms", merge_s * 1e3);
        out.sample("geojson.render_ms", render_s * 1e3);
    }
    drop((backend, reports));

    out.phase("ledger checks, map layers");
    durability(&mut out, &site, &corpus, &real, scratch)?;
    out.phase("durability layers");
    serve(&mut out, workload, &site, &corpus, seconds, scratch)?;
    out.phase("serve layers");
    Ok(out)
}

/// Durable ingest, then each durability layer on its own.
fn durability(
    out: &mut Outcome,
    site: &Site,
    corpus: &Corpus,
    real: &BatchResult,
    scratch: &Scratch,
) -> io::Result<()> {
    let uploads = corpus.len();
    let horizon = corpus.horizon();
    let state = scratch.dir("durable")?;
    let durable = Backend::start(site);
    durable.attach_store(&state, 64)?;
    let reports = durable.ingest(corpus.all(), 1);
    durable.sync()?;
    book_reports(out, uploads, &reports);
    out.check(
        BatchResult::of(&durable, &reports, horizon) == *real,
        || "durable ingest changed the outcome".into(),
    );
    drop(reports);

    let probe = durable.probe_dir(&state);
    let layers = sut::durability_layers(&probe, &scratch.dir("probe")?)?;
    out.sample("durability.encode_ns_per_trip", layers.encode_ns_per_record);
    out.sample(
        "durability.decode_ns_per_record",
        layers.decode_ns_per_record,
    );
    out.sample("durability.bytes_per_record", layers.bytes_per_record);
    out.sample("store.append_ns_per_record", layers.append_ns_per_record);
    out.sample("store.write_amplification", layers.write_amplification);
    out.sample("store.replay_ns_per_record", layers.replay_ns_per_record);
    out.sample("store.fsync_ms", stats::median(&layers.fsync_ms));

    // Whole recovery minus replay and decode is what applying costs.
    let t = Instant::now();
    let (recovered, recovery) = Backend::recover(site, &state)?;
    let recover_ns = t.elapsed().as_secs_f64() * 1e9 / recovery.records.max(1) as f64;
    out.check(
        recovery.damage == 0 && recovered.map_digest(horizon) == real.map_digest,
        || "WAL recovery diverged from the live state".into(),
    );
    out.sample(
        "recovery.apply_ns_per_record",
        recover_ns - layers.replay_ns_per_record - layers.decode_ns_per_record,
    );
    drop(recovered);

    for _ in 0..3 {
        let t = Instant::now();
        durable.checkpoint()?;
        out.sample("store.checkpoint_ms", t.elapsed().as_secs_f64() * 1e3);
    }
    let (write_ms, load_ms) = sut::snapshot_layers(&probe, &scratch.dir("probe")?)?;
    out.sample("store.snapshot_write_ms", write_ms);
    out.sample("store.snapshot_load_ms", load_ms);
    Ok(())
}

/// The serve path layer by layer: codec, engine in-process, socket
/// without a store, durable socket, then the rate steps.
fn serve(
    out: &mut Outcome,
    workload: &Workload,
    site: &Site,
    corpus: &Corpus,
    seconds: f64,
    scratch: &Scratch,
) -> io::Result<()> {
    let frames = corpus.frames(STREAM_FRAMES);
    let step_s = seconds / 15.0;
    let send_for = Duration::from_secs_f64(step_s);
    let codec = sut::serve_layers(corpus.slice(0..frames.len().min(4_000)))?;
    out.sample(
        "serve.protocol.encode_ns_per_line",
        codec.encode_ns_per_line,
    );
    out.sample("serve.protocol.parse_ns_per_line", codec.parse_ns_per_line);
    out.sample("serve.protocol.bytes_per_line", codec.bytes_per_line);

    // Engine with no socket and no store: `handle_line` called directly.
    let lines: Vec<&str> = frames
        .iter()
        .map(|f| std::str::from_utf8(f).expect("frames are JSON").trim_end())
        .collect();
    let frontend = Backend::start(site).frontend();
    let t = Instant::now();
    let mut offered = 0u64;
    for line in &lines {
        if t.elapsed() >= send_for {
            break;
        }
        frontend.handle_line(line);
        offered += 1;
    }
    let (_, totals) = frontend.stop();
    let inproc = totals.committed as f64 / t.elapsed().as_secs_f64();
    out.attempted += offered;
    out.failed += offered.saturating_sub(totals.committed);
    out.sample("serve.engine.inproc_trips_per_s", inproc);

    // Socket, still no store: what the wire adds to the engine.
    let socket = scratch.dir("sock")?.join("s");
    let (server, stream, _) = start_server(site, None, &socket)?;
    let run = loadgen::closed_loop(stream, &frames, CLOSED_WINDOW, send_for)?;
    let (_, totals) = server.stop()?;
    book_stream(out, "socket, no store", &run.ledger, &totals, run.sent);
    let socket_tps = run.ledger.acked as f64 / run.elapsed_s;
    out.sample(
        "serve.net.socket_overhead_fraction",
        1.0 - socket_tps / inproc,
    );

    // Durable socket, closed loop: group commit at work.
    sut::reset_telemetry();
    let (server, stream, _) = start_server(site, Some(&scratch.dir("stream")?), &socket)?;
    let run = loadgen::closed_loop(stream, &frames, CLOSED_WINDOW, send_for)?;
    let (_, totals) = server.stop()?;
    book_stream(out, "durable socket", &run.ledger, &totals, run.sent);
    let fsyncs = sut::telemetry_counter("busprobe_store_wal_fsyncs_total");
    out.sample("store.fsyncs", fsyncs as f64);
    out.sample(
        "serve.group_fill",
        totals.committed as f64 / fsyncs.max(1) as f64,
    );
    out.sample("serve.queue.high_water", totals.queue_high_water as f64);

    // Open loop at multiples of the workload's rate.
    let mut steps = Vec::new();
    for multiple in RATE_STEPS {
        let rate = workload.rate * multiple;
        let count = ((rate * step_s) as usize).min(frames.len());
        let (server, stream, _) = start_server(site, Some(&scratch.dir("stream")?), &socket)?;
        let run = loadgen::open_loop(stream, &frames[..count], rate)?;
        let (_, totals) = server.stop()?;
        let p50_ms = stats::median(&run.latency_ms);
        let backlog_limit = BACKLOG_WINDOWS * crate::run::SERVE_GROUP as usize * site.shards;
        let sustained = run.ledger.acked == count
            && p50_ms <= ACK_LIMIT_MS
            && run.backlog_at_end <= backlog_limit;
        if multiple == 1.0 {
            // The end-to-end rate must hold up: everything answered.
            book_stream(out, "open loop", &run.ledger, &totals, count);
            out.sample("serve.ack_p99_ms", stats::percentile(&run.latency_ms, 0.99));
            out.sample(
                "serve.ack_p999_ms",
                stats::percentile(&run.latency_ms, 0.999),
            );
            out.sample("loadgen.late_p99_ms", stats::percentile(&run.late_ms, 0.99));
            out.sample("loadgen.late_max_ms", stats::percentile(&run.late_ms, 1.0));
        } else {
            // Beyond it the server may fall behind, but never lose one.
            out.check(
                run.ledger.unanswered(count) == 0 && totals.shed == 0,
                || format!("{rate}/s: uploads lost: {:?}", run.ledger),
            );
        }
        steps.push(RateStep {
            rate,
            p50_ms,
            sustained,
        });
    }
    out.sample("serve.ack_p50_ms.x2", steps[1].p50_ms);
    out.sample("serve.ack_p50_ms.x3", steps[2].p50_ms);
    // The highest rate sustained with every lower one sustained too.
    let sustainable = steps
        .iter()
        .take_while(|s| s.sustained)
        .last()
        .map_or(0.0, |s| s.rate);
    out.sample("serve.sustainable_rate", sustainable);
    Ok(())
}
