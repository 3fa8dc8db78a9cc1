//! Black-box tests of the `busprobe` CLI: the init → simulate → ingest
//! file workflow, flag validation, and artifact integrity.

use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

fn busprobe(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_busprobe"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// A spawned `busprobe` that is SIGKILLed and reaped when dropped, so a
/// failing assertion never leaves a server running.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("busprobe-clitest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn help_is_printed_without_args() {
    let out = busprobe(&[]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("busprobe init"));
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = busprobe(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

/// A misspelt or retired flag is refused by name before anything runs,
/// instead of running without what it asked for.
#[test]
fn unknown_flags_are_refused_by_name() {
    let dir = temp_dir("unknownflag");
    let dir_s = dir.to_string_lossy().to_string();
    let state_s = dir.join("state").to_string_lossy().to_string();
    for (args, flag) in [
        (
            vec![
                "ingest",
                "--dir",
                &dir_s,
                "--state",
                &state_s,
                "--snapshot-evry",
                "5",
            ],
            "--snapshot-evry",
        ),
        (
            vec![
                "serve",
                "--dir",
                &dir_s,
                "--stdin",
                "--checkpoint-every",
                "5",
            ],
            "--checkpoint-every",
        ),
    ] {
        let out = busprobe(&args);
        assert!(!out.status.success(), "{args:?} ran");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {err}"
        );
    }
    assert!(!dir.exists(), "a refused command touched {dir:?}");
}

/// `serve --stdin` reads stdin as it reads a socket connection: a line
/// that is not UTF-8 is refused as unparseable and the session goes on
/// to answer the lines after it, up to `shutdown`.
#[test]
fn serve_stdin_survives_a_line_that_is_not_utf8() {
    use std::io::Write;

    let dir = temp_dir("stdin-bytes");
    let dir_s = dir.to_string_lossy().to_string();
    assert!(
        busprobe(&["init", "--dir", &dir_s, "--seed", "3", "--small"])
            .status
            .success()
    );
    let mut serve = Command::new(env!("CARGO_BIN_EXE_busprobe"))
        .args(["serve", "--dir", &dir_s, "--stdin"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    serve
        .stdin
        .take()
        .unwrap()
        .write_all(b"\xff\n{\"cmd\":\"ping\"}\n{\"cmd\":\"shutdown\"}\n")
        .unwrap();
    let out = serve.wait_with_output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{text}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line_of = |needle: &str| {
        text.lines()
            .position(|line| line.contains(needle))
            .unwrap_or_else(|| panic!("no {needle} in {text}"))
    };
    assert!(line_of("\"reason\":\"unparseable\"") < line_of("\"ok\":\"pong\""));
    assert!(line_of("\"ok\":\"pong\"") < line_of("\"ok\":\"draining\""));
    assert!(text.contains("drained: 3 received"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_workflow_produces_a_map() {
    let dir = temp_dir("flow");
    let dir_s = dir.to_string_lossy().to_string();

    let init = busprobe(&["init", "--dir", &dir_s, "--seed", "5", "--small"]);
    assert!(
        init.status.success(),
        "{}",
        String::from_utf8_lossy(&init.stderr)
    );
    for artifact in ["world.json", "network.json", "towers.json", "db.json"] {
        assert!(dir.join(artifact).exists(), "{artifact} missing");
    }

    let sim = busprobe(&[
        "simulate",
        "--dir",
        &dir_s,
        "--start",
        "08:00",
        "--end",
        "08:45",
        "--participation",
        "0.8",
    ]);
    assert!(
        sim.status.success(),
        "{}",
        String::from_utf8_lossy(&sim.stderr)
    );
    assert!(dir.join("trips.json").exists());

    let ingest = busprobe(&["ingest", "--dir", &dir_s, "--regional"]);
    assert!(
        ingest.status.success(),
        "{}",
        String::from_utf8_lossy(&ingest.stderr)
    );
    let text = String::from_utf8_lossy(&ingest.stdout);
    assert!(text.contains("traffic map"), "map printed: {text}");
    assert!(text.contains("regional inference"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simulate_requires_init() {
    let dir = temp_dir("noinit");
    std::fs::create_dir_all(&dir).unwrap();
    let out = busprobe(&["simulate", "--dir", &dir.to_string_lossy()]);
    assert!(!out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_without_trips_fails_cleanly() {
    let dir = temp_dir("notrips");
    let dir_s = dir.to_string_lossy().to_string();
    assert!(
        busprobe(&["init", "--dir", &dir_s, "--seed", "6", "--small"])
            .status
            .success()
    );
    let out = busprobe(&["ingest", "--dir", &dir_s]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("trips.json"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_time_flag_is_rejected() {
    let dir = temp_dir("badtime");
    let dir_s = dir.to_string_lossy().to_string();
    assert!(
        busprobe(&["init", "--dir", &dir_s, "--seed", "7", "--small"])
            .status
            .success()
    );
    let out = busprobe(&["simulate", "--dir", &dir_s, "--start", "25:99"]);
    assert!(!out.status.success());
    let out = busprobe(&["simulate", "--dir", &dir_s, "--start", "0900"]);
    assert!(!out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn state_dir_accumulates_and_rejects_replays() {
    let dir = temp_dir("state");
    let dir_s = dir.to_string_lossy().to_string();
    assert!(
        busprobe(&["init", "--dir", &dir_s, "--seed", "9", "--small"])
            .status
            .success()
    );
    assert!(
        busprobe(&["simulate", "--dir", &dir_s, "--start", "08:00", "--end", "08:30"])
            .status
            .success()
    );
    let state = dir.join("state");
    let state_s = state.to_string_lossy().to_string();

    let first = busprobe(&["ingest", "--dir", &dir_s, "--state", &state_s]);
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let text1 = String::from_utf8_lossy(&first.stdout).to_string();
    assert!(!text1.contains("resumed"));
    assert!(text1.contains("saved server state"), "{text1}");
    // The store directory holds at least one WAL segment and snapshot.
    let names: Vec<String> = std::fs::read_dir(&state)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(names.iter().any(|n| n.ends_with(".wal")), "{names:?}");
    assert!(names.iter().any(|n| n.ends_with(".snap")), "{names:?}");

    // Re-ingesting the same trips against the recovered state: everything
    // is a duplicate, so zero new samples match.
    let second = busprobe(&["ingest", "--dir", &dir_s, "--state", &state_s]);
    assert!(second.status.success());
    let text2 = String::from_utf8_lossy(&second.stdout).to_string();
    assert!(text2.contains("resumed server state"));
    assert!(text2.contains("0 samples matched"), "{text2}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that closes the pipe early (`busprobe recover ... | head -1`)
/// ends the command quietly: no panic, no backtrace, exit 0.
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let dir = temp_dir("closedpipe");
    let dir_s = dir.to_string_lossy().to_string();
    let state_s = dir.join("state").to_string_lossy().to_string();
    for args in [
        vec!["init", "--dir", &dir_s, "--seed", "9", "--small"],
        vec![
            "simulate", "--dir", &dir_s, "--start", "08:00", "--end", "08:30",
        ],
        vec!["ingest", "--dir", &dir_s, "--state", &state_s],
    ] {
        let out = busprobe(&args);
        assert!(out.status.success(), "{args:?}: {out:?}");
    }
    let mut child = Command::new(env!("CARGO_BIN_EXE_busprobe"))
        .args(["recover", "--dir", &dir_s, "--state", &state_s])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // Closed before the command prints anything: every write meets a
    // pipe with no reader.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("recover ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file under `dir` with its length, name-sorted — equal listings
/// before and after a refused command mean it touched nothing.
fn listing(dir: &std::path::Path) -> Vec<(PathBuf, u64)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let entry = entry.unwrap();
            if entry.file_type().unwrap().is_dir() {
                stack.push(entry.path());
            } else {
                out.push((entry.path(), entry.metadata().unwrap().len()));
            }
        }
    }
    out.sort();
    out
}

fn root_store_files(state: &std::path::Path) -> Vec<String> {
    std::fs::read_dir(state)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".wal") || n.ends_with(".snap"))
        .collect()
}

/// A state dir is a city: every stateful command reads the shard count
/// from it, so a flagless `ingest`/`serve` on a 4-shard directory
/// resumes the four shards instead of starting a second, flat store at
/// its root; a `--shards` that contradicts the directory, and a
/// directory holding both layouts, are refused untouched.
#[test]
fn stateful_commands_read_the_layout_from_the_state_dir() {
    let dir = temp_dir("layout");
    let dir_s = dir.to_string_lossy().to_string();
    assert!(
        busprobe(&["init", "--dir", &dir_s, "--seed", "14", "--small"])
            .status
            .success()
    );
    assert!(
        busprobe(&["simulate", "--dir", &dir_s, "--start", "08:00", "--end", "08:30"])
            .status
            .success()
    );
    let city = dir.join("city-state");
    let city_s = city.to_string_lossy().to_string();
    let flat = dir.join("flat-state");
    let flat_s = flat.to_string_lossy().to_string();
    let ingest = |extra: &[&str]| {
        let mut args = vec!["ingest", "--dir", &dir_s];
        args.extend_from_slice(extra);
        busprobe(&args)
    };
    assert!(ingest(&["--state", &city_s, "--shards", "4"])
        .status
        .success());
    assert!(ingest(&["--state", &flat_s]).status.success());
    assert!(city.join("city.json").exists() && city.join("shard-0003").is_dir());
    assert!(!flat.join("city.json").exists());

    // Flagless ingest on the 4-shard dir: resumed, so every upload is a
    // replay, and nothing lands at the root.
    let again = ingest(&["--state", &city_s]);
    let text = String::from_utf8_lossy(&again.stdout).to_string();
    assert!(
        again.status.success(),
        "{}",
        String::from_utf8_lossy(&again.stderr)
    );
    assert!(text.contains("recovered sharded state"), "{text}");
    assert!(text.contains("(4 shards)"), "{text}");
    assert!(text.contains("0 samples matched"), "{text}");
    assert_eq!(root_store_files(&city), Vec::<String>::new());

    // Flagless serve likewise (stdin is closed: it drains at once).
    let serve = busprobe(&["serve", "--dir", &dir_s, "--state", &city_s, "--stdin"]);
    let text = String::from_utf8_lossy(&serve.stdout).to_string();
    assert!(
        serve.status.success(),
        "{}",
        String::from_utf8_lossy(&serve.stderr)
    );
    assert!(text.contains("(4 shards)"), "{text}");
    assert!(text.contains("drained:"), "{text}");
    assert_eq!(root_store_files(&city), Vec::<String>::new());

    // A shard count that contradicts the directory is refused untouched.
    for (state, state_s, shards, wrote) in [(&flat, &flat_s, "4", "1"), (&city, &city_s, "2", "4")]
    {
        let before = listing(state);
        let out = ingest(&["--state", state_s, "--shards", shards]);
        assert!(!out.status.success(), "--shards {shards} on {state:?}");
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(
            err.contains(&format!("was written with --shards {wrote}")),
            "{err}"
        );
        assert_eq!(listing(state), before, "refusal touched {state:?}");
    }

    // Both layouts in one directory (what a flagless ingest used to
    // leave in a sharded one): refused, with the reason.
    let wal = root_store_files(&flat)
        .into_iter()
        .find(|n| n.ends_with(".wal"))
        .expect("the flat store has a WAL segment");
    std::fs::copy(flat.join(&wal), city.join(&wal)).unwrap();
    let before = listing(&city);
    for cmd in ["ingest", "recover"] {
        let out = busprobe(&[cmd, "--dir", &dir_s, "--state", &city_s]);
        assert!(!out.status.success(), "{cmd} accepted a mixed directory");
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(err.contains("both a city manifest and"), "{cmd}: {err}");
    }
    assert_eq!(listing(&city), before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_recovery_resume_matches_uninterrupted_ingest() {
    let dir = temp_dir("crash");
    let dir_s = dir.to_string_lossy().to_string();
    assert!(
        busprobe(&["init", "--dir", &dir_s, "--seed", "11", "--small"])
            .status
            .success()
    );
    assert!(busprobe(&[
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
    .success());

    // Reference: one uninterrupted ingest.
    let ref_geojson = dir.join("ref.geojson");
    assert!(busprobe(&[
        "ingest",
        "--dir",
        &dir_s,
        "--geojson",
        &ref_geojson.to_string_lossy(),
    ])
    .status
    .success());

    // Crashed run: a durable server with one fsync per commit and a
    // snapshot every 5 records takes 12 uploads, all acked, and is
    // killed; then the WAL tail is torn (mid-record truncation models a
    // crash mid-append). The last snapshot covers 10 records, so the
    // torn record is one no snapshot covers.
    let state = dir.join("state");
    let state_s = state.to_string_lossy().to_string();
    let socket = dir.join("serve.sock");
    let socket_s = socket.to_string_lossy().to_string();
    let serve = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_busprobe"))
            .args([
                "serve",
                "--dir",
                &dir_s,
                "--socket",
                &socket_s,
                "--state",
                &state_s,
                "--snapshot-every",
                "5",
                "--sync-every",
                "1",
            ])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("binary runs"),
    );
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !socket.exists() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let send = busprobe(&[
        "send", "--dir", &dir_s, "--socket", &socket_s, "--limit", "12",
    ]);
    let sent = String::from_utf8_lossy(&send.stdout).to_string();
    assert!(sent.contains("12 acked, 0 dropped"), "{sent}");
    drop(serve); // kill -9
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&state)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "wal"))
        .collect();
    segments.sort();
    let tail = segments.last().expect("a WAL segment exists");
    let bytes = std::fs::read(tail).unwrap();
    std::fs::write(tail, &bytes[..bytes.len().saturating_sub(9)]).unwrap();

    // Recover (read-only) attributes the torn tail and still prints a map.
    let recover = busprobe(&["recover", "--dir", &dir_s, "--state", &state_s]);
    assert!(
        recover.status.success(),
        "{}",
        String::from_utf8_lossy(&recover.stderr)
    );
    let text = String::from_utf8_lossy(&recover.stdout).to_string();
    assert!(
        text.contains("snapshot covering 10 records + 1 replayed commits"),
        "{text}"
    );
    assert!(text.contains("1 torn segment tails"), "{text}");
    assert!(text.contains("traffic map"), "{text}");

    // Resume with the full corpus: duplicates are rejected, the torn
    // upload is re-ingested, and the final map is byte-identical to the
    // uninterrupted run.
    let crash_geojson = dir.join("crash.geojson");
    assert!(busprobe(&[
        "ingest",
        "--dir",
        &dir_s,
        "--state",
        &state_s,
        "--geojson",
        &crash_geojson.to_string_lossy(),
    ])
    .status
    .success());
    assert_eq!(
        std::fs::read(&ref_geojson).unwrap(),
        std::fs::read(&crash_geojson).unwrap(),
        "crashed-and-resumed GeoJSON differs from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corpus_selection_is_announced_on_stderr() {
    let dir = temp_dir("corpus");
    let dir_s = dir.to_string_lossy().to_string();
    assert!(
        busprobe(&["init", "--dir", &dir_s, "--seed", "12", "--small"])
            .status
            .success()
    );
    // Clean simulation: no received.json, and both ingest and metrics say
    // so instead of silently changing semantics.
    assert!(
        busprobe(&["simulate", "--dir", &dir_s, "--start", "08:00", "--end", "08:30"])
            .status
            .success()
    );
    let ingest = busprobe(&["ingest", "--dir", &dir_s]);
    assert!(ingest.status.success());
    let err = String::from_utf8_lossy(&ingest.stderr).to_string();
    assert!(err.contains("corpus:"), "{err}");
    assert!(err.contains("trips.json"), "{err}");
    assert!(err.contains("no received.json"), "{err}");

    // Faulted simulation: received.json appears, and the announcement
    // names it and why it matters.
    assert!(busprobe(&[
        "simulate",
        "--dir",
        &dir_s,
        "--start",
        "08:00",
        "--end",
        "08:30",
        "--faults",
        "calibrated",
    ])
    .status
    .success());
    for cmd in ["ingest", "metrics"] {
        let out = busprobe(&[cmd, "--dir", &dir_s]);
        assert!(out.status.success());
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(err.contains("received.json"), "{cmd}: {err}");
        assert!(err.contains("arrival times"), "{cmd}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_surface_store_instruments_in_every_format() {
    let dir = temp_dir("storemetrics");
    let dir_s = dir.to_string_lossy().to_string();
    assert!(
        busprobe(&["init", "--dir", &dir_s, "--seed", "13", "--small"])
            .status
            .success()
    );
    assert!(
        busprobe(&["simulate", "--dir", &dir_s, "--start", "08:00", "--end", "08:30"])
            .status
            .success()
    );
    let state = dir.join("state");
    let state_s = state.to_string_lossy().to_string();
    // Seed the store so the metrics run recovers (populating the replay
    // instruments) before appending.
    assert!(busprobe(&["ingest", "--dir", &dir_s, "--state", &state_s])
        .status
        .success());

    let names = [
        "busprobe_store_wal_appends_total",
        "busprobe_store_wal_bytes_total",
        "busprobe_store_snapshot_bytes",
        "busprobe_store_replay_records_total",
        "busprobe_store_replay_skipped_total",
        "busprobe_store_replay_seconds",
    ];
    for format in ["text", "json", "prometheus"] {
        let out = busprobe(&[
            "metrics", "--dir", &dir_s, "--state", &state_s, "--format", format,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        for name in names {
            assert!(text.contains(name), "{format} output lacks {name}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn end_before_start_is_rejected() {
    let dir = temp_dir("endstart");
    let dir_s = dir.to_string_lossy().to_string();
    assert!(
        busprobe(&["init", "--dir", &dir_s, "--seed", "8", "--small"])
            .status
            .success()
    );
    let out = busprobe(&[
        "simulate", "--dir", &dir_s, "--start", "09:00", "--end", "08:00",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--end must be after"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_refuses_an_unknown_overload_policy() {
    let dir = temp_dir("onfull");
    let dir_s = dir.to_string_lossy().to_string();
    assert!(
        busprobe(&["init", "--dir", &dir_s, "--seed", "7", "--small"])
            .status
            .success()
    );
    let out = busprobe(&["serve", "--dir", &dir_s, "--stdin", "--on-full", "reject"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown full-queue policy \"reject\" (expected block or shed-oldest)"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
