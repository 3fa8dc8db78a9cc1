//! The crash contract of the resident server, proven on real
//! processes: `kill -9` mid-stream loses nothing that was acked
//! (ack-after-fsync), a producer that re-sends the full corpus
//! restores byte-identity with an uninterrupted batch ingest, SIGTERM
//! drains to exit 0 with a final checkpoint, and SIGINT interrupts a
//! durable batch ingest cleanly at a chunk boundary.
//!
//! The matrix crosses worker counts × full-queue policies; every cell
//! ends bit-compared against a batch reference monitor.

use busprobe::core::{MonitorConfig, StopFingerprintDb, TrafficMonitor};
use busprobe::mobile::Trip;
use busprobe::network::TransitNetwork;
use busprobe::serve::{protocol, signal, StreamClient};
use serde_json::Value;
use std::collections::BTreeSet;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const WORKER_COUNTS: [usize; 2] = [1, 4];
const POLICIES: [&str; 2] = ["block", "shed-oldest"];
const SEND_WINDOW: usize = 32;

fn busprobe(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_busprobe"))
        .args(args)
        .output()
        .expect("run busprobe")
}

fn spawn_busprobe(args: &[&str], stdout: Stdio) -> Child {
    Command::new(env!("CARGO_BIN_EXE_busprobe"))
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn busprobe")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("busprobe-servecr-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read_json<T: serde::de::DeserializeOwned>(path: &Path) -> T {
    serde_json::from_slice(&std::fs::read(path).expect("read json file")).expect("decode json")
}

/// Everything a cell needs: a simulated faulted corpus on disk (for
/// the serve process) and in memory (for the in-process reference).
struct Fixture {
    dir: PathBuf,
    network: TransitNetwork,
    db: StopFingerprintDb,
    trips: Vec<Trip>,
    received: Vec<f64>,
    end_s: f64,
}

impl Fixture {
    fn build(tag: &str, seed: &str) -> Self {
        let dir = scratch_dir(tag);
        let dir_s = dir.to_string_lossy().to_string();
        assert!(
            busprobe(&["init", "--dir", &dir_s, "--seed", seed, "--small"])
                .status
                .success(),
            "init failed"
        );
        assert!(
            busprobe(&[
                "simulate",
                "--dir",
                &dir_s,
                "--start",
                "08:00",
                "--end",
                "08:40",
                "--faults",
                "calibrated",
            ])
            .status
            .success(),
            "simulate failed"
        );
        let network: TransitNetwork = read_json(&dir.join("network.json"));
        let db: StopFingerprintDb = read_json(&dir.join("db.json"));
        let trips: Vec<Trip> = read_json(&dir.join("trips.json"));
        let received: Vec<f64> = read_json(&dir.join("received.json"));
        assert!(trips.len() >= 30, "corpus too small to crash mid-stream");
        // Faulted uploads may be empty or carry non-finite timestamps;
        // compute the horizon defensively, mirroring `busprobe ingest`.
        let end_s = trips
            .iter()
            .flat_map(|t| t.samples.last())
            .map(|s| s.time_s)
            .filter(|t| t.is_finite())
            .fold(0.0f64, f64::max)
            + 60.0;
        Fixture {
            dir,
            network,
            db,
            trips,
            received,
            end_s,
        }
    }

    /// The uninterrupted batch ingest every cell must end identical to.
    fn batch_reference(&self) -> Captured {
        let monitor = TrafficMonitor::new(
            self.network.clone(),
            self.db.clone(),
            MonitorConfig::default(),
        );
        let _ = monitor.ingest_batch_received_parallel(&self.trips, &self.received, 0);
        capture(&monitor, self.end_s)
    }

    fn recovered(&self, state: &Path) -> TrafficMonitor {
        let (monitor, _) = TrafficMonitor::recover(
            self.network.clone(),
            self.db.clone(),
            MonitorConfig::default(),
            state,
        )
        .expect("recover state dir");
        monitor
    }
}

/// The full observable state of a monitor, serialized for bit-compare
/// (same shape as `crash_recovery.rs`).
#[derive(Debug, PartialEq)]
struct Captured {
    map_json: String,
    fusion_json: String,
    db_json: String,
    seen: Vec<u64>,
}

fn capture(monitor: &TrafficMonitor, end_s: f64) -> Captured {
    let map = monitor.snapshot_with_max_age(end_s, f64::INFINITY);
    let state = monitor.export_state();
    let mut seen = state.seen.clone();
    seen.sort_unstable();
    Captured {
        map_json: serde_json::to_string(&map).unwrap(),
        fusion_json: serde_json::to_string(&state.fusion).unwrap(),
        db_json: serde_json::to_string(&state.database).unwrap(),
        seen,
    }
}

/// Sender-side ledger over one connection.
#[derive(Default)]
struct Ledger {
    outstanding: BTreeSet<u64>,
    acked: BTreeSet<u64>,
    dropped: BTreeSet<u64>,
}

impl Ledger {
    /// Drains whatever responses are buffered. `false` = server gone.
    fn pump(&mut self, client: &mut StreamClient) -> bool {
        loop {
            match client.read_response() {
                Ok(Some(line)) => {
                    let Ok(value) = serde_json::from_str::<Value>(&line) else {
                        continue;
                    };
                    if let Some(id) = value.get("ack").and_then(Value::as_u64) {
                        self.outstanding.remove(&id);
                        self.acked.insert(id);
                    } else if let Some(id) = value.get("drop").and_then(Value::as_u64) {
                        self.outstanding.remove(&id);
                        self.dropped.insert(id);
                    }
                }
                Ok(None) => return false,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return true
                }
                Err(_) => return false,
            }
        }
    }
}

fn connect_when_up(path: &Path) -> StreamClient {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(client) = StreamClient::connect(path) {
            client
                .set_timeout(Some(Duration::from_millis(50)))
                .expect("set socket timeout");
            return client;
        }
        assert!(
            Instant::now() < deadline,
            "server never opened {}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Streams uploads `ids` down one connection, windowed so responses are
/// consumed (a producer that never reads would deadlock real
/// backpressure — that is the point of the block policy).
fn send_windowed(client: &mut StreamClient, fixture: &Fixture, ids: &[usize], ledger: &mut Ledger) {
    for &i in ids {
        while ledger.outstanding.len() >= SEND_WINDOW {
            if !ledger.pump(client) {
                panic!("server closed the connection mid-send");
            }
        }
        let frame = protocol::upload_line(&fixture.trips[i], i as u64, Some(fixture.received[i]));
        client.send_line(&frame).expect("send upload");
        ledger.outstanding.insert(i as u64);
        ledger.pump(client);
    }
}

/// One matrix cell: crash a serve process with `kill -9` mid-stream,
/// prove the acked prefix survived, then re-send the full corpus at a
/// restarted server and prove byte-identity with the batch reference.
fn run_cell(fixture: &Fixture, reference: &Captured, workers: usize, policy: &str) {
    let label = format!("workers={workers}, on-full={policy}");
    let state = scratch_dir(&format!("state-w{workers}-{policy}"));
    let socket = state.with_extension("sock");
    let _ = std::fs::remove_file(&socket);
    let dir_s = fixture.dir.to_string_lossy().to_string();
    let state_s = state.to_string_lossy().to_string();
    let socket_s = socket.to_string_lossy().to_string();
    let jobs = workers.to_string();

    // Phase 1: serve under the cell's policy, stream two thirds of the
    // corpus, then kill -9 with uploads still in flight.
    let mut child = spawn_busprobe(
        &[
            "serve",
            "--dir",
            &dir_s,
            "--socket",
            &socket_s,
            "--state",
            &state_s,
            "--queue",
            "32",
            "--sync-every",
            "4",
            "--jobs",
            &jobs,
            "--on-full",
            policy,
        ],
        Stdio::null(),
    );
    let mut client = connect_when_up(&socket);
    let mut ledger = Ledger::default();
    let prefix: Vec<usize> = (0..fixture.trips.len() * 2 / 3).collect();
    send_windowed(&mut client, fixture, &prefix, &mut ledger);
    // Make sure the fsync floor is non-trivial before pulling the plug,
    // but do NOT drain: unacked uploads must still be in flight.
    let deadline = Instant::now() + Duration::from_secs(30);
    while ledger.acked.is_empty() && Instant::now() < deadline {
        ledger.pump(&mut client);
    }
    assert!(!ledger.acked.is_empty(), "{label}: no acks before the kill");
    assert!(
        signal::send(child.id(), signal::SIGKILL),
        "{label}: kill -9"
    );
    child.wait().expect("reap killed server");
    drop(client);

    // Ack-after-fsync: every acknowledged upload is in the recovered
    // state. Extras are allowed — a WAL flush may persist commits whose
    // acks never made it out — but an acked upload missing after
    // recovery would be a durability lie.
    let recovered = fixture.recovered(&state);
    let seen: BTreeSet<u64> = recovered.export_state().seen.iter().copied().collect();
    for &id in &ledger.acked {
        let digest = TrafficMonitor::upload_digest(&fixture.trips[id as usize]);
        assert!(
            seen.contains(&digest),
            "{label}: upload {id} was acked before kill -9 but is missing after recovery"
        );
    }
    drop(recovered);

    // Phase 2: restart on the same state and replay the FULL corpus —
    // the producer's recovery protocol is "re-send everything not
    // acked", and re-sending already-committed uploads must be safe
    // (the duplicate guard absorbs them). Block policy here: recovery
    // wants backpressure, not shedding.
    let _ = std::fs::remove_file(&socket);
    let child = spawn_busprobe(
        &[
            "serve",
            "--dir",
            &dir_s,
            "--socket",
            &socket_s,
            "--state",
            &state_s,
            "--queue",
            "32",
            "--sync-every",
            "4",
            "--jobs",
            &jobs,
            "--on-full",
            "block",
        ],
        Stdio::piped(),
    );
    let mut client = connect_when_up(&socket);
    let mut ledger = Ledger::default();
    let all: Vec<usize> = (0..fixture.trips.len()).collect();
    send_windowed(&mut client, fixture, &all, &mut ledger);
    let deadline = Instant::now() + Duration::from_secs(120);
    while !ledger.outstanding.is_empty() && Instant::now() < deadline {
        if !ledger.pump(&mut client) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        ledger.outstanding.is_empty(),
        "{label}: {} uploads never resolved on re-send",
        ledger.outstanding.len()
    );
    assert!(
        ledger.dropped.is_empty(),
        "{label}: block policy dropped {} uploads on re-send",
        ledger.dropped.len()
    );
    drop(client);

    // Graceful SIGTERM: drain, final checkpoint, exit 0.
    assert!(
        signal::send(child.id(), signal::SIGTERM),
        "{label}: SIGTERM"
    );
    let out = child.wait_with_output().expect("reap drained server");
    assert!(
        out.status.success(),
        "{label}: drain exited {:?}",
        out.status.code()
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("drained:"),
        "{label}: no drain summary:\n{stdout}"
    );
    assert!(
        stdout.contains("final checkpoint covers"),
        "{label}: no final checkpoint:\n{stdout}"
    );

    // The recovered state is the batch reference, bit for bit.
    let recovered = fixture.recovered(&state);
    assert_eq!(
        &capture(&recovered, fixture.end_s),
        reference,
        "{label}: crash + re-send diverged from the uninterrupted batch"
    );
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);
}

#[test]
fn kill_nine_matrix_loses_nothing_acked_and_resend_restores_batch_identity() {
    let fixture = Fixture::build("matrix", "13");
    let reference = fixture.batch_reference();
    for workers in WORKER_COUNTS {
        for policy in POLICIES {
            run_cell(&fixture, &reference, workers, policy);
        }
    }
    let _ = std::fs::remove_dir_all(&fixture.dir);
}

/// A city server publishes while it serves: `serve --shards 4 --publish`
/// writes `map.geojson` and `metrics.prom` before it is told to stop,
/// and after drain the map is byte-identical to `ingest --geojson` over
/// the same corpus.
#[test]
fn a_sharded_server_publishes_a_live_map_identical_to_batch_ingest() {
    let fixture = Fixture::build("publish", "19");
    let dir_s = fixture.dir.to_string_lossy().to_string();
    let batch = fixture.dir.join("batch.geojson");
    assert!(busprobe(&[
        "ingest",
        "--dir",
        &dir_s,
        "--geojson",
        &batch.to_string_lossy()
    ])
    .status
    .success());
    let publish = fixture.dir.join("publish");
    let socket = fixture.dir.join("serve.sock");
    let child = spawn_busprobe(
        &[
            "serve",
            "--dir",
            &dir_s,
            "--socket",
            &socket.to_string_lossy(),
            "--shards",
            "4",
            "--publish",
            &publish.to_string_lossy(),
            "--publish-interval-s",
            "0.05",
        ],
        Stdio::piped(),
    );
    let mut client = connect_when_up(&socket);
    let mut ledger = Ledger::default();
    let all: Vec<usize> = (0..fixture.trips.len()).collect();
    send_windowed(&mut client, &fixture, &all, &mut ledger);
    // Nothing below panics before the server is stopped, so a failure
    // leaves no process behind.
    let deadline = Instant::now() + Duration::from_secs(60);
    while !ledger.outstanding.is_empty() && Instant::now() < deadline && ledger.pump(&mut client) {}
    let live = [publish.join("map.geojson"), publish.join("metrics.prom")];
    while !live.iter().all(|p| p.is_file()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let published_live = live.iter().all(|p| p.is_file());
    drop(client);
    assert!(signal::send(child.id(), signal::SIGTERM), "SIGTERM");
    let out = child.wait_with_output().expect("reap drained server");

    assert!(ledger.outstanding.is_empty(), "uploads never resolved");
    assert!(published_live, "nothing published while serving");
    assert!(out.status.success(), "drain exited {:?}", out.status.code());
    assert_eq!(
        std::fs::read(publish.join("map.geojson")).unwrap(),
        std::fs::read(&batch).unwrap(),
        "the drained city's map differs from batch ingest"
    );
    let _ = std::fs::remove_dir_all(&fixture.dir);
}

/// SIGINT during a durable batch ingest: the process finishes its
/// in-flight chunk, checkpoints, and exits 0; a rerun completes the
/// corpus and the final state equals the uninterrupted batch. The
/// signal races the (fast, debug-build) ingest — both outcomes must
/// hold, interrupted or not.
#[test]
fn sigint_interrupts_durable_ingest_cleanly_and_rerun_completes() {
    let fixture = Fixture::build("sigint", "17");
    let reference = fixture.batch_reference();
    let state = scratch_dir("sigint-state");
    let dir_s = fixture.dir.to_string_lossy().to_string();
    let state_s = state.to_string_lossy().to_string();

    let child = spawn_busprobe(
        &["ingest", "--dir", &dir_s, "--state", &state_s],
        Stdio::piped(),
    );
    // The handler is installed right after the state dir is created;
    // signal only once the store exists so SIGINT cannot land on the
    // default (killing) disposition during startup.
    let deadline = Instant::now() + Duration::from_secs(60);
    while !state.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(200));
    assert!(signal::send(child.id(), signal::SIGINT), "send SIGINT");
    let out = child.wait_with_output().expect("reap ingest");
    assert!(
        out.status.success(),
        "interrupted ingest exited {:?}:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout)
    );

    // Rerun to completion: resumes from the checkpoint, duplicates are
    // absorbed, and the state converges on the batch result.
    let rerun = busprobe(&["ingest", "--dir", &dir_s, "--state", &state_s]);
    assert!(rerun.status.success(), "rerun failed");
    let recovered = fixture.recovered(&state);
    assert_eq!(
        capture(&recovered, fixture.end_s),
        reference,
        "SIGINT + rerun diverged from the uninterrupted batch"
    );
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir_all(&fixture.dir);
}
