//! `busprobe send`: the producer half of the serve protocol.

use crate::args::{check_flags, parse_flag, parse_opt_flag, path_flag};
use crate::world::Corpus;
use busprobe::faults::{StreamAction, StreamFaultPlan};
use busprobe::serve::{protocol, StreamClient};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::ErrorKind;
use std::time::{Duration, Instant};

/// Folds one server response line into the send-side ledgers.
fn record_response(
    line: &str,
    outstanding: &mut BTreeSet<u64>,
    acked: &mut usize,
    dropped: &mut BTreeMap<String, usize>,
) {
    let Ok(value) = serde_json::from_str::<Value>(line) else {
        return;
    };
    if let Some(id) = value.get("ack").and_then(Value::as_u64) {
        if outstanding.remove(&id) {
            *acked += 1;
        }
    } else if let Some(id) = value.get("drop").and_then(Value::as_u64) {
        if outstanding.remove(&id) {
            let reason = value
                .get("reason")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string();
            *dropped.entry(reason).or_insert(0) += 1;
        }
    }
    // `ok` and `err` lines carry no upload id; nothing to resolve.
}

/// Reads responses until the socket has nothing buffered (a read
/// timeout). `Ok(false)` means the server closed the connection.
fn pump_responses(
    client: &mut StreamClient,
    outstanding: &mut BTreeSet<u64>,
    acked: &mut usize,
    dropped: &mut BTreeMap<String, usize>,
) -> Result<bool, String> {
    loop {
        match client.read_response() {
            Ok(Some(line)) => record_response(&line, outstanding, acked, dropped),
            Ok(None) => return Ok(false),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(true)
            }
            Err(e) => return Err(format!("read from server: {e}")),
        }
    }
}

/// Most uploads in flight (sent, not yet acked or dropped) before the
/// sender stops to collect responses.
const SEND_WINDOW: usize = 128;

/// `busprobe send`: stream the stored corpus at a serve socket and wait
/// until every upload is acknowledged or attributed to a drop. The
/// producer half of the crash-recovery contract: anything never acked
/// is re-sent (`--from`, or automatically after a `--stream-faults`
/// disconnect), and the server's duplicate guard absorbs the overlap.
pub fn cmd_send(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        "--dir --socket --stream-faults --limit --from --timeout-s",
    )?;
    let dir = path_flag(args, "--dir")?;
    let socket = path_flag(args, "--socket")?;
    let Corpus { trips, received } = Corpus::load(&dir)?;
    let from: usize = parse_flag(args, "--from", 0)?;
    let limit: Option<usize> = parse_opt_flag(args, "--limit")?;
    let end = limit.map_or(trips.len(), |n| n.min(trips.len()));
    if from > end {
        return Err(format!("--from {from} is past the corpus end ({end})"));
    }
    let plan: StreamFaultPlan = parse_flag(args, "--stream-faults", Default::default())?;
    let timeout_s: f64 = parse_flag(args, "--timeout-s", 60.0)?;

    let connect = || -> Result<StreamClient, String> {
        let client =
            StreamClient::connect(&socket).map_err(|e| format!("connect {socket:?}: {e}"))?;
        client
            .set_timeout(Some(Duration::from_millis(100)))
            .map_err(|e| format!("set timeout: {e}"))?;
        Ok(client)
    };
    let mut client = connect()?;

    let mut outstanding: BTreeSet<u64> = BTreeSet::new();
    let mut acked = 0usize;
    let mut dropped: BTreeMap<String, usize> = BTreeMap::new();
    let mut sent = 0usize;
    let mut resent = 0usize;
    let mut disconnects = 0usize;

    // The worklist is corpus indices; a disconnect pushes every
    // still-unresolved id back to the front, so the send order after a
    // re-dial is exactly "unacked tail first" — the recovery protocol.
    let mut worklist: VecDeque<usize> = (from..end).collect();
    while let Some(i) = worklist.pop_front() {
        for action in plan.actions_before(sent) {
            match action {
                StreamAction::Pause(d) => std::thread::sleep(d),
                StreamAction::Disconnect => {
                    disconnects += 1;
                    // Collect whatever responses already arrived — acks
                    // in flight on a dead socket are lost with it.
                    let _ =
                        pump_responses(&mut client, &mut outstanding, &mut acked, &mut dropped)?;
                    drop(client);
                    client = connect()?;
                    resent += outstanding.len();
                    for id in outstanding.iter().rev() {
                        worklist.push_front(*id as usize);
                    }
                    outstanding.clear();
                }
            }
        }
        let recv = received.as_ref().map(|r| r[i]);
        let line = protocol::upload_line(&trips[i], i as u64, recv);
        client
            .send_line(&line)
            .map_err(|e| format!("send upload {i}: {e}"))?;
        outstanding.insert(i as u64);
        sent += 1;
        // Windowed flow control: bound the number of unresolved uploads
        // so the response stream is consumed under backpressure too.
        while outstanding.len() >= SEND_WINDOW {
            if !pump_responses(&mut client, &mut outstanding, &mut acked, &mut dropped)? {
                return Err(format!(
                    "server closed the connection with {} uploads unresolved",
                    outstanding.len()
                ));
            }
        }
    }

    // Everything is sent; wait until each upload is acked or dropped.
    let deadline = Instant::now() + Duration::from_secs_f64(timeout_s);
    while !outstanding.is_empty() {
        if Instant::now() >= deadline {
            return Err(format!(
                "{} uploads neither acked nor dropped within {timeout_s}s",
                outstanding.len()
            ));
        }
        if !pump_responses(&mut client, &mut outstanding, &mut acked, &mut dropped)? {
            return Err(format!(
                "server closed the connection with {} uploads unresolved",
                outstanding.len()
            ));
        }
    }

    let dropped_total: usize = dropped.values().sum();
    println!(
        "sent {sent} uploads ({resent} re-sent across {disconnects} disconnect(s)): \
         {acked} acked, {dropped_total} dropped — all uploads accounted for"
    );
    for (reason, count) in &dropped {
        println!("  dropped {count} as {reason}");
    }
    Ok(())
}
