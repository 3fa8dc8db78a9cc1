//! The line-delimited JSON wire protocol between producers and the
//! streaming frontend.
//!
//! One JSON object per line in each direction. Client → server:
//!
//! ```json
//! {"upload": {"samples": [...]}, "id": 7, "received_s": 123.4}
//! {"cmd": "ping" | "stats" | "checkpoint" | "shutdown"}
//! ```
//!
//! `id` is an opaque producer-chosen token echoed back in the ack or
//! drop for that upload; `received_s` is the optional server-side
//! arrival time fed to the sanitizer's clock normalization. Server →
//! client:
//!
//! ```json
//! {"ack": 7, "seq": 41}          // durably committed (post-fsync)
//! {"drop": 7, "reason": "shed-queue-full"}
//! {"err": "...", "reason": "unparseable"}
//! {"ok": "pong" | "draining" | "checkpoint-scheduled"}
//! ```
//!
//! Acks are withheld until the commit's WAL record is fsynced, so a
//! producer that re-sends everything it never saw acked loses nothing
//! across a server crash (the duplicate guard absorbs overlap).
//!
//! Requests are parsed through [`serde_json::Value`] rather than a
//! derived struct so a malformed frame yields a precise, attributable
//! error instead of tearing down the connection. [`decode`] is the one
//! place a wire line is turned into a [`Frame`]; everything behind it
//! takes frames, never lines.

use busprobe_core::DropReason;
use busprobe_mobile::Trip;
use serde_json::Value;
use std::hash::{Hash, Hasher};

/// One parsed client request.
#[derive(Debug)]
pub enum Request {
    /// An upload to admit into the pipeline.
    Upload {
        /// Producer-chosen token echoed in the ack/drop.
        id: Option<u64>,
        /// The trip payload.
        trip: Trip,
        /// Server-side arrival time, seconds on the corpus clock.
        received_s: Option<f64>,
    },
    /// Liveness probe.
    Ping,
    /// Counter snapshot request.
    Stats,
    /// Schedule a checkpoint at the next commit boundary.
    Checkpoint,
    /// Begin graceful drain.
    Shutdown,
}

/// A line that yields no [`Request`]: too long, or unparseable.
#[derive(Debug)]
pub struct Refusal {
    /// [`DropReason::Oversized`] or [`DropReason::Unparseable`].
    pub reason: DropReason,
    /// What was wrong, for the producer's `err` line.
    pub detail: String,
    /// Hash of the raw bytes — the only identity such a line has (its
    /// trace id).
    pub digest: u64,
}

/// One decoded wire line: the request it carries, or why it carries
/// none.
pub type Frame = Result<Request, Refusal>;

/// Decodes one wire line: refuses it as oversized past `max_line_bytes`
/// or as unparseable, else parses it into its [`Request`].
pub fn decode(line: &str, max_line_bytes: usize) -> Frame {
    let refuse = |reason, detail| {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        line.hash(&mut h);
        Refusal {
            reason,
            detail,
            digest: h.finish(),
        }
    };
    if line.len() > max_line_bytes {
        return Err(refuse(
            DropReason::Oversized,
            format!(
                "frame of {} bytes exceeds the {max_line_bytes}-byte limit",
                line.len()
            ),
        ));
    }
    parse_line(line).map_err(|e| refuse(DropReason::Unparseable, e.0))
}

/// Why a frame could not be turned into a [`Request`] — always
/// attributed as `unparseable`.
#[derive(Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Parses one wire line into a [`Request`].
pub fn parse_line(line: &str) -> Result<Request, ParseError> {
    let value: Value = serde_json::from_str(line.trim())
        .map_err(|e| ParseError(format!("not a JSON object: {e}")))?;
    if !matches!(value, Value::Object(_)) {
        return Err(ParseError(format!(
            "expected a JSON object, got {}",
            value.kind()
        )));
    }
    if let Some(cmd) = value.get("cmd") {
        let Some(name) = cmd.as_str() else {
            return Err(ParseError(format!(
                "cmd must be a string, got {}",
                cmd.kind()
            )));
        };
        return match name {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "checkpoint" => Ok(Request::Checkpoint),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ParseError(format!("unknown cmd {other:?}"))),
        };
    }
    let Some(upload) = value.get("upload") else {
        return Err(ParseError("missing `upload` or `cmd` field".into()));
    };
    let trip: Trip = serde_json::from_value(upload)
        .map_err(|e| ParseError(format!("undecodable upload: {e}")))?;
    let id = value.get("id").and_then(Value::as_u64);
    let received_s = value.get("received_s").and_then(Value::as_f64);
    Ok(Request::Upload {
        id,
        trip,
        received_s,
    })
}

/// Formats one upload as a wire line (without the trailing newline) —
/// the encoder the `send` CLI and the tests share.
#[must_use]
pub fn upload_line(trip: &Trip, id: u64, received_s: Option<f64>) -> String {
    let trip_json = serde_json::to_string(trip).expect("trips serialize");
    match received_s {
        Some(r) => format!("{{\"upload\":{trip_json},\"id\":{id},\"received_s\":{r}}}"),
        None => format!("{{\"upload\":{trip_json},\"id\":{id}}}"),
    }
}

fn id_json(id: Option<u64>) -> String {
    id.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// `{"ack":ID,"seq":N}` — the upload is durably committed.
#[must_use]
pub fn ack_line(id: Option<u64>, seq: u64) -> String {
    format!("{{\"ack\":{},\"seq\":{seq}}}", id_json(id))
}

/// `{"drop":ID,"reason":"..."}` — the upload was refused or shed.
#[must_use]
pub fn drop_line(id: Option<u64>, reason: &str) -> String {
    format!("{{\"drop\":{},\"reason\":\"{reason}\"}}", id_json(id))
}

/// `{"err":"...","reason":"..."}` — a frame-level failure with no
/// recoverable upload id. `message` is JSON-escaped.
#[must_use]
pub fn err_line(message: &str, reason: &str) -> String {
    let escaped = serde_json::to_string(message).expect("strings serialize");
    format!("{{\"err\":{escaped},\"reason\":\"{reason}\"}}")
}

/// `{"ok":"..."}` — a command acknowledgement.
#[must_use]
pub fn ok_line(what: &str) -> String {
    format!("{{\"ok\":\"{what}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use busprobe_cellular::CellScan;
    use busprobe_mobile::CellularSample;

    fn trip() -> Trip {
        Trip {
            samples: vec![CellularSample {
                time_s: 12.5,
                scan: CellScan::new(vec![]),
            }],
        }
    }

    #[test]
    fn upload_lines_round_trip() {
        let t = trip();
        let line = upload_line(&t, 9, Some(44.0));
        match parse_line(&line).unwrap() {
            Request::Upload {
                id,
                trip,
                received_s,
            } => {
                assert_eq!(id, Some(9));
                assert_eq!(trip, t);
                assert_eq!(received_s, Some(44.0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn commands_parse() {
        assert!(matches!(
            parse_line("{\"cmd\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        ));
        assert!(matches!(
            parse_line(" {\"cmd\":\"ping\"} ").unwrap(),
            Request::Ping
        ));
    }

    #[test]
    fn garbage_is_rejected_with_a_message() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line("[1,2,3]").is_err());
        assert!(parse_line("{\"cmd\":\"explode\"}").is_err());
        assert!(parse_line("{\"upload\":\"nope\"}").is_err());
        assert!(parse_line("{\"hello\":1}").is_err());
    }

    #[test]
    fn decode_checks_the_size_before_parsing() {
        let ping = "{\"cmd\":\"ping\"}";
        assert!(matches!(decode(ping, ping.len()), Ok(Request::Ping)));
        let long = decode(ping, ping.len() - 1).unwrap_err();
        assert_eq!(long.reason, DropReason::Oversized);
        let garbage = decode("not json", 1 << 20).unwrap_err();
        assert_eq!(garbage.reason, DropReason::Unparseable);
        // The digest is the raw bytes' identity, whatever the verdict.
        assert_eq!(decode("not json", 1).unwrap_err().digest, garbage.digest);
        assert_ne!(long.digest, garbage.digest);
    }

    #[test]
    fn response_lines_are_valid_json() {
        for line in [
            ack_line(Some(3), 7),
            ack_line(None, 0),
            drop_line(Some(1), "shed-queue-full"),
            err_line("bad \"quote\"", "unparseable"),
            ok_line("pong"),
        ] {
            let value: Value = serde_json::from_str(&line).unwrap();
            assert!(matches!(value, Value::Object(_)), "{line}");
        }
    }
}
