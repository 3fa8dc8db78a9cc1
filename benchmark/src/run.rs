//! One run of one workload: generate the inputs from the seed, drive the
//! system through its life cycle, check its outputs, report the metrics.
//!
//! Every workload goes through the same cycle — cold start, a batch
//! backlog with one stage worker and with several, a durable ingest,
//! crash recovery from the WAL, a checkpoint, a restart from the
//! snapshot, and a live stream over the socket, closed loop and open
//! loop — so every end-to-end metric exists on every workload. What
//! differs is the region and the upload mix. The cycle repeats in rounds
//! until `--seconds` are used, its parts interleaved in slices of tens of
//! milliseconds; a metric is a median over the slices or reps it was
//! sampled in.

use crate::boxspeed::Speedometer;
use crate::loadgen::{self, Ledger};
use crate::sut::{self, Backend, Inputs, Report, Server, Site};
use crate::workload::{Metric, Workload, END_TO_END};
use crate::{alloc, stats};
use std::collections::BTreeMap;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Uploads the one-by-one reference ingests.
const REFERENCE_UPLOADS: usize = 2_000;
/// Group-commit window of the durable batch ingest.
const BATCH_GROUP: u64 = 64;
/// Group-commit window under the serve engine (its `sync_every`).
pub const SERVE_GROUP: u64 = 32;
/// Uploads in flight in the closed loop (the admission queue's depth).
pub const CLOSED_WINDOW: usize = 256;
/// Frames pre-encoded for the stream reps (a closed-loop rep sends as
/// many of them as fit in `CLOSED_SECONDS`; encoding costs ~70 µs a frame).
const REP_FRAMES: usize = 6_000;
/// Seconds one closed-loop rep keeps sending for.
const CLOSED_SECONDS: f64 = 0.3;
/// Seconds one open-loop rep offers for.
const OPEN_SECONDS: f64 = 0.35;
/// Slices a pass over the corpus is timed in.
const SLICES: usize = 20;
/// A recovery of each kind follows every this-many-th slice …
const RECOVER_EVERY: usize = 4;
/// … and a stream rep every this-many-th.
const STREAM_EVERY: usize = 5;
/// Fewest rounds a run makes, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;

/// Stage workers of the parallel reps.
pub fn parallel_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// What a run found out.
pub struct Outcome {
    /// Per-rep samples; a metric's value is their median …
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// … unless the run computed it another way and set it here.
    values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that did not hold; empty means correct.
    pub violations: Vec<String>,
    pub input_digest: u64,
    pub outcome_digest: u64,
    /// The box's speed during the run (1.0 = the reference box), when
    /// the run's wall-time metrics are reported at reference speed.
    pub box_speed: Option<f64>,
    phase_started: Instant,
}

impl Outcome {
    /// `started` is when the run began generating its inputs.
    pub fn new(input_digest: u64, started: Instant) -> Self {
        Outcome {
            samples: BTreeMap::new(),
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            input_digest,
            outcome_digest: 0,
            box_speed: None,
            phase_started: started,
        }
    }

    /// Notes on stderr how long the phase that just ended took — the
    /// numbers `run_seconds` and the rep sizes were tuned from.
    pub fn phase(&mut self, name: &str) {
        eprintln!(
            "#   {name}: {:.2} s",
            self.phase_started.elapsed().as_secs_f64()
        );
        self.phase_started = Instant::now();
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Fixes a metric's reported value (its samples stay for the record).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a violation unless `holds`.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }

    /// The reported value of a metric: as set, else the median over its
    /// rep samples.
    pub fn value(&self, metric: &Metric) -> Option<f64> {
        let median = || self.samples.get(metric.name).map(|v| stats::median(v));
        self.values.get(metric.name).copied().or_else(median)
    }
}

/// A scratch directory inside the checkout, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// `benchmark/out/run-<pid>`, relative to the current directory: the
    /// Unix socket path has to stay under ~100 bytes wherever the
    /// checkout lives.
    pub fn new() -> io::Result<Self> {
        let dir = PathBuf::from(format!("benchmark/out/run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// A fresh, empty subdirectory.
    pub fn dir(&self, name: &str) -> io::Result<PathBuf> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Per-reason counts and the final map: what a batch ingest amounts to.
#[derive(PartialEq, Eq, Debug, Clone)]
pub struct BatchResult {
    pub counts: BTreeMap<&'static str, u64>,
    pub map_digest: u64,
}

impl BatchResult {
    /// What `backend` made of the uploads `reports` are the fates of.
    pub fn of(backend: &Backend, reports: &[Report], horizon: f64) -> Self {
        BatchResult {
            counts: sut::outcome_counts(reports),
            map_digest: backend.map_digest(horizon),
        }
    }

    pub fn digest(&self) -> u64 {
        let mut h = sut::Fnv::default();
        for (reason, count) in &self.counts {
            h.write_bytes(reason.as_bytes());
            h.write(*count);
        }
        h.write(self.map_digest);
        h.0
    }
}

/// Books a batch's reports: failures are internal errors and uploads
/// that came back without a report.
pub fn book_reports(out: &mut Outcome, offered: usize, reports: &[Report]) {
    out.attempted += offered as u64;
    let internal = reports.iter().filter(|r| sut::is_failure(r)).count();
    out.failed += (internal + offered.saturating_sub(reports.len())) as u64;
}

/// A cold durable server: backend start to ready, store open, engines,
/// socket bound, first ping answered. Returns the seconds that took.
pub fn start_server(
    site: &Site,
    state: Option<&Path>,
    socket: &Path,
) -> io::Result<(Server, UnixStream, f64)> {
    let t = Instant::now();
    let backend = Backend::start(site);
    if let Some(state) = state {
        backend.attach_store(state, SERVE_GROUP)?;
    }
    let server = backend.frontend().listen(socket);
    let stream = loadgen::connect_ready(socket)?;
    Ok((server, stream, t.elapsed().as_secs_f64()))
}

/// Books one streamed rep: every id answered exactly once, nothing shed
/// or refused, the engines' ledgers conserve, no fatal.
pub fn book_stream(
    out: &mut Outcome,
    what: &str,
    ledger: &Ledger,
    totals: &sut::ServeTotals,
    sent: usize,
) {
    out.attempted += sent as u64;
    out.failed += (ledger.unanswered(sent) + ledger.dropped) as u64 + totals.shed;
    out.check(ledger.acked == sent && ledger.stray == 0, || {
        format!(
            "{what}: {sent} sent, {} acked, {} dropped, {} stray answers",
            ledger.acked, ledger.dropped, ledger.stray
        )
    });
    // One ping per connection rides along with the uploads.
    out.check(
        totals.conserved(1) && totals.fatal.is_none() && totals.acked == ledger.acked as u64,
        || format!("{what}: engine ledger does not conserve: {totals:?}"),
    );
}

/// One way of ingesting the corpus as a batch; the three lanes take
/// turns slice by slice, each on a backend of its own.
struct Lane {
    metric: &'static str,
    workers: usize,
    durable: bool,
    /// Seconds per slice; one row per round.
    rounds: Vec<Vec<f64>>,
}

/// What a run accumulates over its rounds.
struct Tally {
    lanes: [Lane; 3],
    stream_reps: usize,
    /// Ticked after every timed piece, so every ~50 ms of the run.
    meter: Speedometer,
}

/// What every round of a run works from.
struct Cycle<'a> {
    workload: &'a Workload,
    inputs: &'a Inputs,
    scratch: &'a Scratch,
    /// What one durable ingest of the corpus amounted to; every later
    /// pass must reproduce it.
    reference: BatchResult,
    /// What `kill -9` leaves of that ingest: a synced WAL, nothing else.
    wal_image: PathBuf,
    /// The same directory after a checkpoint: a snapshot covering every
    /// commit, the WAL compacted away.
    snapshot_image: PathBuf,
    /// Wire frames of the first `REP_FRAMES` uploads.
    frames: Vec<Vec<u8>>,
    socket: PathBuf,
}

pub fn end_to_end(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    scratch: &Scratch,
) -> io::Result<Outcome> {
    let started = Instant::now();
    let inputs = sut::generate(workload.mix, workload.base, workload.hours, seed);
    let Inputs { site, corpus, .. } = &inputs;
    let (uploads, horizon) = (corpus.len(), corpus.horizon());
    let mut out = Outcome::new(corpus.digest(), started);
    out.phase("inputs generated");

    // The batch (and, for a city, the sharded) path against a plain
    // monitor fed one upload at a time. Doubles as the warm-up: no timed
    // slice is the process's first ingest.
    let head = corpus.slice(0..REFERENCE_UPLOADS);
    let plain = Backend::start_unsharded(site);
    let expected = plain.ingest_one_by_one(head);
    let batch = Backend::start(site);
    let got = batch.ingest(head, 1);
    out.check(got == expected, || {
        "batch reports differ from one-by-one ingest".into()
    });
    out.check(
        batch.map_digest(horizon) == plain.map_digest(horizon),
        || "batch map differs from one-by-one ingest on a plain monitor".into(),
    );
    drop((plain, batch, expected, got));
    out.phase("reference check");

    let cycle = Cycle::prepare(&mut out, workload, &inputs, scratch)?;
    out.phase("crash images, frames");

    // Rounds. Within a round the three batch lanes take turns slice by
    // slice, and the recoveries and stream reps are spread between the
    // slices, so every metric is sampled across the whole run. Machine
    // speed on a shared box moves in phases of seconds: a metric measured
    // in one window of its own inherits whatever phase that window fell
    // into (spreads between runs were twice as wide that way).
    let lanes = [
        ("trips_per_s", 1, false),
        ("trips_per_s_parallel", parallel_workers(), false),
        ("durable_trips_per_s", 1, true),
    ]
    .map(|(metric, workers, durable)| Lane {
        metric,
        workers,
        durable,
        rounds: Vec::new(),
    });
    let mut tally = Tally {
        lanes,
        stream_reps: 0,
        meter: Speedometer::new(),
    };
    let measuring = Instant::now();
    loop {
        let t = Instant::now();
        cycle.round(&mut out, &mut tally)?;
        // Another round only if most of it fits into `seconds`.
        let spent = measuring.elapsed().as_secs_f64();
        let rounds = tally.lanes[0].rounds.len();
        if rounds >= MIN_ROUNDS && spent + 0.5 * t.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    let lanes = &tally.lanes;

    // Samples stay as the clock read them; the values of the metrics
    // that are the box's own work are put at reference speed (see
    // `boxspeed`). `setup_s` and `ack_p50_ms` are mostly fixed waits — an
    // accept poll, a commit group filling — and stay as measured.
    let speed = tally.meter.speed();
    out.box_speed = Some(speed);
    for lane in lanes {
        // Each slice's time is its median over the rounds: a stall costs
        // the slice it hit, not the pass.
        let seconds = stats::sum_of_medians(&lane.rounds);
        out.set(lane.metric, uploads as f64 / seconds / speed);
        for round in &lane.rounds {
            out.sample(lane.metric, uploads as f64 / round.iter().sum::<f64>());
        }
    }
    for rate in ["stream_trips_per_s", "recover_records_per_s"] {
        out.set(rate, stats::median(&out.samples[rate]) / speed);
    }
    out.set(
        "restart_ms",
        stats::median(&out.samples["restart_ms"]) * speed,
    );
    // The disk stalls in bursts, and a stall only ever adds to a wait:
    // the reps' medians pile up at a floor with a tail above it. Their
    // first quartile repeats from run to run twice as well as their
    // median, and a slower commit path moves it as far.
    if let Some((calm, _)) = stats::quartiles(&out.samples["ack_p50_ms"]) {
        out.set("ack_p50_ms", calm);
    }
    out.outcome_digest = cycle.reference.digest();
    let duplicates = cycle.reference.counts.get("duplicate").copied();
    out.check(
        duplicates.unwrap_or(0) >= inputs.injected.exact_copies as u64,
        || {
            format!(
                "{duplicates:?} exact duplicates rejected, {} injected",
                inputs.injected.exact_copies
            )
        },
    );
    out.phase(&format!("{} rounds", lanes[0].rounds.len()));

    for metric in &END_TO_END {
        let value = out.value(metric);
        out.check(value.is_some_and(|v| v.is_finite() && v > 0.0), || {
            format!("{} came out as {value:?}", metric.name)
        });
    }
    Ok(out)
}

/// Copies the files under `from` into the existing directory `to`.
fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            std::fs::create_dir_all(&target)?;
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

impl<'a> Cycle<'a> {
    /// One durable ingest of the whole corpus (the reference), the two
    /// states a crash can find it in on disk — the exact byte counts are
    /// read off them — and the wire frames.
    fn prepare(
        out: &mut Outcome,
        workload: &'a Workload,
        inputs: &'a Inputs,
        scratch: &'a Scratch,
    ) -> io::Result<Self> {
        let Inputs { site, corpus, .. } = inputs;
        let uploads = corpus.len();
        let wal_image = scratch.dir("wal-image")?;
        let snapshot_image = scratch.dir("snapshot-image")?;
        let durable = Backend::start(site);
        durable.attach_store(&snapshot_image, BATCH_GROUP)?;
        let reports = durable.ingest(corpus.all(), 1);
        durable.sync()?;
        book_reports(out, uploads, &reports);
        let reference = BatchResult::of(&durable, &reports, corpus.horizon());
        let bytes = sut::bytes_on_disk(&snapshot_image, "wal");
        out.sample("wal_bytes_per_trip", bytes as f64 / uploads as f64);
        copy_dir(&snapshot_image, &wal_image)?;
        durable.checkpoint()?;
        let bytes = sut::bytes_on_disk(&snapshot_image, "snap");
        out.sample("snapshot_bytes_per_trip", bytes as f64 / uploads as f64);
        Ok(Cycle {
            workload,
            inputs,
            scratch,
            reference,
            wal_image,
            snapshot_image,
            frames: corpus.frames(REP_FRAMES),
            socket: scratch.dir("sock")?.join("s"),
        })
    }

    /// One round: the corpus through every lane, `SLICES` slices each,
    /// with recoveries after every `RECOVER_EVERY`-th slice and a stream
    /// rep after every `STREAM_EVERY`-th.
    fn round(&self, out: &mut Outcome, tally: &mut Tally) -> io::Result<()> {
        let Tally {
            lanes,
            stream_reps,
            meter,
        } = tally;
        let Inputs { site, corpus, .. } = self.inputs;
        let (uploads, horizon) = (corpus.len(), corpus.horizon());
        // Telemetry is a process global with a bounded event ring;
        // emptied here, every round starts from the same heap.
        sut::reset_telemetry();
        let mut backends = Vec::with_capacity(lanes.len());
        for lane in lanes.iter_mut() {
            let backend = Backend::start(site);
            if lane.durable {
                backend.attach_store(&self.scratch.dir("durable")?, BATCH_GROUP)?;
            }
            backends.push((backend, BTreeMap::new()));
            lane.rounds.push(Vec::with_capacity(SLICES));
        }

        let size = uploads.div_ceil(SLICES);
        let slices = uploads.div_ceil(size);
        for (i, slice) in corpus.chunks(size).enumerate() {
            for (lane, (backend, counts)) in lanes.iter_mut().zip(&mut backends) {
                let t = Instant::now();
                let reports = backend.ingest(slice, lane.workers);
                if lane.durable && i + 1 == slices {
                    backend.sync()?;
                }
                let elapsed = t.elapsed().as_secs_f64();
                lane.rounds.last_mut().expect("pushed above").push(elapsed);
                book_reports(out, slice.len(), &reports);
                for (reason, count) in sut::outcome_counts(&reports) {
                    *counts.entry(reason).or_insert(0) += count;
                }
                meter.tick();
            }
            if (i + 1) % RECOVER_EVERY == 0 {
                let (records, elapsed) = self.recover(out, false)?;
                out.sample("recover_records_per_s", records as f64 / elapsed);
                meter.tick();
                let (_, elapsed) = self.recover(out, true)?;
                out.sample("restart_ms", elapsed * 1e3);
                meter.tick();
            }
            if (i + 1) % STREAM_EVERY == 0 {
                *stream_reps += 1;
                self.stream_rep(out, *stream_reps)?;
                meter.tick();
            }
        }

        for (lane, (backend, counts)) in lanes.iter().zip(backends) {
            let result = BatchResult {
                counts,
                map_digest: backend.map_digest(horizon),
            };
            out.check(result == self.reference, || {
                format!("{} diverged: {result:?}", lane.metric)
            });
            let (conserved, _, _) = backend.shard_accounting();
            out.check(conserved, || "shard accounting does not conserve".into());
            // What the in-memory server holds is what dropping it frees.
            // Taken once: it repeats bit for bit.
            if lane.workers == 1 && !lane.durable && !out.samples.contains_key("state_mb") {
                let held = alloc::read();
                drop(backend);
                let freed = held.live_since(&alloc::read());
                out.sample("state_mb", freed as f64 / 1e6);
            }
        }
        Ok(())
    }

    /// One recovery from a crash image, checked against the live state;
    /// from the snapshot it runs until the server is ready again.
    /// Returns the records replayed and the seconds taken.
    fn recover(&self, out: &mut Outcome, snapshot: bool) -> io::Result<(u64, f64)> {
        let Inputs { site, corpus, .. } = self.inputs;
        let image = if snapshot {
            &self.snapshot_image
        } else {
            &self.wal_image
        };
        let t = Instant::now();
        let (recovered, recovery) = Backend::recover(site, image)?;
        if snapshot {
            recovered.ready(&site.probe);
        }
        let elapsed = t.elapsed().as_secs_f64();
        out.check(
            recovery.damage == 0
                && recovery.from_snapshot == snapshot
                && recovered.commit_count() == corpus.len() as u64
                && recovered.map_digest(corpus.horizon()) == self.reference.map_digest,
            || format!("recovery (snapshot: {snapshot}) diverged from the live state"),
        );
        Ok((recovery.records, elapsed))
    }

    /// The run's `rep`-th rep (from 1) of the live stream on a fresh
    /// durable server: closed loop (capacity) and open loop (what a
    /// producer waits at the workload's rate) in turn.
    fn stream_rep(&self, out: &mut Outcome, rep: usize) -> io::Result<()> {
        let site = &self.inputs.site;
        let state = self.scratch.dir("stream")?;
        let (server, stream, setup_s) = start_server(site, Some(&state), &self.socket)?;
        out.sample("setup_s", setup_s);
        if rep % 2 == 1 {
            let send_for = Duration::from_secs_f64(CLOSED_SECONDS);
            let run = loadgen::closed_loop(stream, &self.frames, CLOSED_WINDOW, send_for)?;
            let (_, totals) = server.stop()?;
            out.sample(
                "stream_trips_per_s",
                run.ledger.acked as f64 / run.elapsed_s,
            );
            book_stream(out, "closed loop", &run.ledger, &totals, run.sent);
            if rep == 1 {
                let (recovered, _) = Backend::recover(site, &state)?;
                out.check(recovered.commit_count() == run.ledger.acked as u64, || {
                    format!(
                        "state dir recovers {} commits, {} were acked",
                        recovered.commit_count(),
                        run.ledger.acked
                    )
                });
            }
        } else {
            let rate = self.workload.rate;
            let offered = ((rate * OPEN_SECONDS) as usize).min(self.frames.len());
            let run = loadgen::open_loop(stream, &self.frames[..offered], rate)?;
            let (_, totals) = server.stop()?;
            out.sample("ack_p50_ms", stats::median(&run.latency_ms));
            book_stream(out, "open loop", &run.ledger, &totals, offered);
        }
        Ok(())
    }
}
