//! Equivalence fuzzing of the wire codec. [`protocol::parse_line`] is a
//! one-pass byte scanner; the `serde_json::Value`-tree reader it
//! replaced is kept below, verbatim, as its oracle — and the tree-based
//! `upload_line` as the oracle of the direct writer.
//!
//! Inputs: random trips written by `upload_line`; the same uploads
//! rewritten with shuffled, unknown, duplicated and escaped keys, other
//! spellings of the same numbers and extra whitespace; the four
//! commands; and byte-mutated hostile lines. Properties:
//! - scanner and oracle accept and refuse the same lines;
//! - what both accept is equal to the bit (`to_bits` on every float);
//! - `decode` refuses with the same reason and the same digest;
//! - the writer's lines are byte-identical to the tree writer's.

use busprobe::cellular::{CellObservation, CellScan, CellTowerId};
use busprobe::core::DropReason;
use busprobe::mobile::{CellularSample, Trip};
use busprobe::serve::protocol::{self, Frame, ParseError, Refusal, Request};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

// ---------------------------------------------------------------------------
// The oracle: the tree-based reader and writer, verbatim
// ---------------------------------------------------------------------------

/// Parses one wire line into a [`Request`].
fn oracle_parse_line(line: &str) -> Result<Request, ParseError> {
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
fn oracle_upload_line(trip: &Trip, id: u64, received_s: Option<f64>) -> String {
    let trip_json = serde_json::to_string(trip).expect("trips serialize");
    match received_s {
        Some(r) => format!("{{\"upload\":{trip_json},\"id\":{id},\"received_s\":{r}}}"),
        None => format!("{{\"upload\":{trip_json},\"id\":{id}}}"),
    }
}

/// `protocol::decode`, verbatim but for the parser it calls (and its
/// line limit, a parameter then, the protocol's constant now).
fn oracle_decode(line: &str, max_line_bytes: usize) -> Frame {
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
    oracle_parse_line(line).map_err(|e| refuse(DropReason::Unparseable, e.0))
}

// ---------------------------------------------------------------------------
// The properties
// ---------------------------------------------------------------------------

/// Everything a request carries, every float as its bits.
#[derive(Debug, PartialEq)]
enum Bits {
    Upload {
        id: Option<u64>,
        received_s: Option<u64>,
        samples: Vec<(u64, Vec<(u32, u64)>)>,
    },
    Ping,
    Stats,
    Checkpoint,
    Shutdown,
}

fn bits(request: &Request) -> Bits {
    match request {
        Request::Upload {
            id,
            trip,
            received_s,
        } => Bits::Upload {
            id: *id,
            received_s: received_s.map(f64::to_bits),
            samples: trip
                .samples
                .iter()
                .map(|s| {
                    let scan = s.scan.observations();
                    let scan = scan.iter().map(|o| (o.tower.0, o.rss_dbm.to_bits()));
                    (s.time_s.to_bits(), scan.collect())
                })
                .collect(),
        },
        Request::Ping => Bits::Ping,
        Request::Stats => Bits::Stats,
        Request::Checkpoint => Bits::Checkpoint,
        Request::Shutdown => Bits::Shutdown,
    }
}

/// Scanner and oracle agree on `line`; returns whether they accept it.
fn agree(line: &str) -> Result<bool, TestCaseError> {
    let got = protocol::parse_line(line);
    let want = oracle_parse_line(line);
    match (&got, &want) {
        (Ok(g), Ok(w)) => prop_assert_eq!(bits(g), bits(w), "on {:?}", line),
        (Err(_), Err(_)) => {}
        _ => prop_assert!(
            false,
            "verdicts differ on {line:?}: scanner {got:?}, oracle {want:?}"
        ),
    }
    decode_agrees(line)?;
    Ok(got.is_ok())
}

/// `protocol::decode` and the oracle's agree on `line`: same verdict,
/// same request to the bit, or the same refusal reason and digest.
fn decode_agrees(line: &str) -> Result<(), TestCaseError> {
    let got = protocol::decode(line);
    let want = oracle_decode(line, protocol::MAX_LINE_BYTES);
    match (&got, &want) {
        (Ok(g), Ok(w)) => prop_assert_eq!(bits(g), bits(w), "decode on {:?}", line),
        (Err(g), Err(w)) => {
            prop_assert_eq!(g.reason, w.reason, "decode reason on {:?}", line);
            prop_assert_eq!(g.digest, w.digest, "decode digest on {:?}", line);
        }
        _ => prop_assert!(false, "decode verdicts differ on {line:?}"),
    }
    Ok(())
}

/// At the frame limit: a line of exactly `MAX_LINE_BYTES` is parsed, one
/// byte more is refused as oversized — by both decoders alike.
#[test]
fn decode_agrees_at_the_line_limit() {
    for len in [protocol::MAX_LINE_BYTES, protocol::MAX_LINE_BYTES + 1] {
        let ping = "{\"cmd\":\"ping\"}";
        let line = ping.to_string() + &" ".repeat(len - ping.len());
        decode_agrees(&line).unwrap();
        assert_eq!(
            protocol::decode(&line).is_ok(),
            len == protocol::MAX_LINE_BYTES
        );
    }
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// A float from the hazard list now and then, else `typical`.
fn float(rng: &mut StdRng, typical: f64) -> f64 {
    match rng.gen_range(0..24) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        5 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
        6 => 1e300,
        7 => -1e300,
        8 => f64::MAX,
        9 => f64::MIN_POSITIVE,
        10 => f64::from_bits(rng.gen::<u64>()),
        11 => typical.round(),
        12 => 1e16 + typical.round(),
        _ => typical,
    }
}

fn tower(rng: &mut StdRng) -> CellTowerId {
    CellTowerId(match rng.gen_range(0..8) {
        0 => 0,
        1 => u32::MAX,
        2 => rng.gen::<u32>(),
        _ => rng.gen_range(1000..99_999),
    })
}

/// A random trip: up to `max_samples` samples of up to seven towers, in
/// no particular order.
fn random_trip(rng: &mut StdRng, max_samples: usize) -> Trip {
    let start = rng.gen_range(0.0..86_400.0);
    let samples = (0..rng.gen_range(0..=max_samples))
        .map(|k| {
            let observations = (0..rng.gen_range(0..8))
                .map(|_| {
                    let typical = rng.gen_range(-120.0..-40.0);
                    CellObservation {
                        tower: tower(rng),
                        rss_dbm: float(rng, typical),
                    }
                })
                .collect();
            CellularSample {
                time_s: float(rng, start + 37.5 * k as f64),
                scan: CellScan::unsorted(observations),
            }
        })
        .collect();
    Trip { samples }
}

fn random_received(rng: &mut StdRng) -> Option<f64> {
    match rng.gen_range(0..4) {
        0 => None,
        1 => Some(float(rng, 0.0)),
        _ => Some(rng.gen_range(0.0..90_000.0)),
    }
}

/// Writes an upload the way a producer other than `upload_line` might:
/// members in any order, unknown and repeated members, escaped keys,
/// other spellings of the same numbers, whitespace between tokens, now
/// and then a `cmd`.
struct Restyler {
    rng: StdRng,
}

impl Restyler {
    fn ws(&mut self) -> String {
        let mut out = String::new();
        if self.rng.gen_bool(0.15) {
            for _ in 0..self.rng.gen_range(1..4) {
                out.push([' ', '\t', '\n', '\r'][self.rng.gen_range(0..4usize)]);
            }
        }
        out
    }

    fn key(&mut self, name: &str) -> String {
        let mut out = String::from("\"");
        for c in name.chars() {
            match self.rng.gen_range(0..24) {
                0 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                1 => {
                    let _ = write!(out, "\\u{:04X}", c as u32);
                }
                _ => out.push(c),
            }
        }
        out.push('"');
        out
    }

    fn float(&mut self, x: f64) -> String {
        if !x.is_finite() {
            return "null".into();
        }
        match self.rng.gen_range(0..6) {
            0 => format!("{x:e}"),
            1 => format!("{x:E}"),
            2 if x == x.trunc() && x.abs() < 1e18 => format!("{}", x as i64),
            _ => format!("{x:?}"),
        }
    }

    /// Any JSON value, nested up to `depth`.
    fn junk(&mut self, depth: u32) -> String {
        let kinds = if depth == 0 { 7 } else { 9 };
        match self.rng.gen_range(0..kinds) {
            0 => "null".into(),
            1 => "true".into(),
            2 => "false".into(),
            3 => format!("{}", self.rng.gen::<i64>() >> self.rng.gen_range(0u32..64)),
            4 => format!("{}", self.rng.gen::<u64>()),
            5 => {
                let x = float(&mut self.rng, -87.25);
                self.float(x)
            }
            6 => {
                let pieces = [
                    "a",
                    "\\\"",
                    "\\\\",
                    "\\/",
                    "\\b",
                    "\\f",
                    "\\n",
                    "\\r",
                    "\\t",
                    "\\u00e9",
                    "\\ud83d\\ude8c",
                    "é",
                    "🚌",
                    " ",
                ];
                let mut s = String::from("\"");
                for _ in 0..self.rng.gen_range(0..6) {
                    s.push_str(pieces[self.rng.gen_range(0..pieces.len())]);
                }
                s.push('"');
                s
            }
            7 => {
                let items: Vec<String> = (0..self.rng.gen_range(0..4))
                    .map(|_| self.junk(depth - 1))
                    .collect();
                format!("[{}]", items.join(","))
            }
            _ => {
                let members = (0..self.rng.gen_range(0..4))
                    .map(|k| (format!("k{k}"), self.junk(depth - 1)))
                    .collect();
                self.object(members)
            }
        }
    }

    /// An object of `members`, shuffled, with unknown members and late
    /// (ignored) or early (overriding) repeats mixed in.
    fn object(&mut self, mut members: Vec<(String, String)>) -> String {
        for i in (1..members.len()).rev() {
            members.swap(i, self.rng.gen_range(0..=i));
        }
        for _ in 0..members.len() {
            if self.rng.gen_bool(0.1) {
                let i = self.rng.gen_range(0..members.len());
                let repeat = (members[i].0.clone(), self.junk(1));
                let at = if self.rng.gen_bool(0.8) {
                    self.rng.gen_range(i + 1..=members.len())
                } else {
                    self.rng.gen_range(0..=i)
                };
                members.insert(at, repeat);
            }
        }
        while self.rng.gen_bool(0.15) {
            let at = self.rng.gen_range(0..=members.len());
            let name = ["x", "samples ", "Tower", "time", "scan_", "upload2"]
                [self.rng.gen_range(0..6usize)];
            let value = self.junk(2);
            members.insert(at, (name.to_string(), value));
        }
        let body: Vec<String> = members
            .into_iter()
            .map(|(name, value)| {
                let (a, b, c, d) = (self.ws(), self.key(&name), self.ws(), self.ws());
                format!("{a}{b}{c}:{d}{value}{}", self.ws())
            })
            .collect();
        format!("{{{}{}}}", body.join(","), self.ws())
    }

    fn array(&mut self, items: Vec<String>) -> String {
        let body: Vec<String> = items
            .into_iter()
            .map(|item| format!("{}{item}{}", self.ws(), self.ws()))
            .collect();
        format!("[{}{}]", body.join(","), self.ws())
    }

    fn upload(&mut self, trip: &Trip, id: u64, received_s: Option<f64>) -> String {
        let samples = trip
            .samples
            .iter()
            .map(|s| {
                let observations = s
                    .scan
                    .observations()
                    .iter()
                    .map(|o| {
                        let rss = self.float(o.rss_dbm);
                        self.object(vec![
                            ("tower".into(), o.tower.0.to_string()),
                            ("rss_dbm".into(), rss),
                        ])
                    })
                    .collect();
                let observations = self.array(observations);
                let scan = self.object(vec![("observations".into(), observations)]);
                let time_s = self.float(s.time_s);
                self.object(vec![("time_s".into(), time_s), ("scan".into(), scan)])
            })
            .collect();
        let samples = self.array(samples);
        let mut members = vec![
            (
                "upload".into(),
                self.object(vec![("samples".into(), samples)]),
            ),
            ("id".into(), id.to_string()),
        ];
        if let Some(r) = received_s {
            members.push(("received_s".into(), self.float(r)));
        }
        if self.rng.gen_bool(0.05) {
            let cmd = [
                "\"ping\"",
                "\"stats\"",
                "\"checkpoint\"",
                "\"shutdown\"",
                "\"nope\"",
                "1",
            ];
            members.push(("cmd".into(), cmd[self.rng.gen_range(0..cmd.len())].into()));
        }
        let line = self.object(members);
        format!("{}{line}{}", self.ws(), self.ws())
    }
}

/// Characters a mutation writes: JSON's structure, number and literal
/// characters, escapes, and some that are not JSON at all.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '.', '-', '+', 'e', 'E', '0', '1', '5', '9', ' ', '\t',
    '\n', '\\', 'u', '/', 'n', 'l', 't', 'f', 'a', 's', 'x', 'é', '\u{2003}', '\u{0}',
];

/// `line` with one to three random edits: a character replaced,
/// deleted or inserted, a span repeated, or the tail cut off.
fn mutate(rng: &mut StdRng, line: &str) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    for _ in 0..rng.gen_range(1..4) {
        let n = chars.len();
        let pick = ALPHABET[rng.gen_range(0..ALPHABET.len())];
        match rng.gen_range(0..9) {
            0..=2 if n > 0 => chars[rng.gen_range(0..n)] = pick,
            3 | 4 if n > 0 => {
                chars.remove(rng.gen_range(0..n));
            }
            5 | 6 => chars.insert(rng.gen_range(0..=n), pick),
            7 if n > 0 => {
                let i = rng.gen_range(0..n);
                let span: Vec<char> = chars[i..(i + rng.gen_range(1..12usize)).min(n)].to_vec();
                let at = rng.gen_range(0..=n);
                chars.splice(at..at, span);
            }
            _ if n > 0 => chars.truncate(rng.gen_range(0..n)),
            _ => {}
        }
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `upload_line` writes what the tree writer wrote, byte for byte,
    /// for any finite arrival time; a non-finite one is `null`, and both
    /// readers read every line back the same way.
    #[test]
    fn upload_lines_are_the_tree_writers_and_read_back_identically(
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trip = random_trip(&mut rng, 16);
        let id = if rng.gen_bool(0.2) { u64::MAX } else { rng.gen::<u64>() >> 40 };
        let received_s = random_received(&mut rng);
        let line = protocol::upload_line(&trip, id, received_s);
        match received_s {
            Some(r) if !r.is_finite() => {
                prop_assert!(line.ends_with(",\"received_s\":null}"), "{line}");
                let finite = oracle_upload_line(&trip, id, None);
                prop_assert_eq!(
                    &line[..finite.len() - 1],
                    &finite[..finite.len() - 1]
                );
            }
            _ => prop_assert_eq!(&line, &oracle_upload_line(&trip, id, received_s)),
        }
        prop_assert!(agree(&line)?, "a written line is refused: {line}");
    }

    /// The same uploads in other spellings: shuffled, unknown, repeated
    /// and escaped keys, other number forms, extra whitespace.
    #[test]
    fn restyled_uploads_read_identically(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trip = random_trip(&mut rng, 8);
        let received_s = random_received(&mut rng);
        let mut restyler = Restyler { rng };
        for _ in 0..4 {
            let line = restyler.upload(&trip, 7, received_s);
            agree(&line)?;
        }
    }

    /// Hostile lines: written or restyled uploads with random edits.
    #[test]
    fn mutated_lines_are_refused_and_accepted_alike(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trip = random_trip(&mut rng, 3);
        let received_s = random_received(&mut rng);
        let plain = protocol::upload_line(&trip, 11, received_s);
        let mut restyler = Restyler { rng: StdRng::seed_from_u64(!seed) };
        let styled = restyler.upload(&trip, 11, received_s);
        for _ in 0..24 {
            let base = if rng.gen_bool(0.5) { &plain } else { &styled };
            agree(&mutate(&mut rng, base))?;
        }
    }
}

#[test]
fn the_four_commands_and_their_look_alikes_agree() {
    let mut accepted = 0;
    for name in ["ping", "stats", "checkpoint", "shutdown"] {
        let escaped: String = name
            .chars()
            .map(|c| format!("\\u{:04x}", c as u32))
            .collect();
        for line in [
            format!("{{\"cmd\":\"{name}\"}}"),
            format!(" \t{{ \"cmd\" : \"{name}\" }}\r\n"),
            format!("{{\"cmd\":\"{escaped}\"}}"),
            format!("{{\"\\u0063md\":\"{name}\",\"upload\":{{\"samples\":7}}}}"),
            format!("{{\"x\":[{{}}],\"cmd\":\"{name}\",\"cmd\":\"nope\"}}"),
            format!("{{\"cmd\":\"{name}\",\"cmd\":\"nope\"}} x"),
            format!("{{\"cmd\":\"{name} \"}}"),
            format!("{{\"cmd\":[\"{name}\"]}}"),
            format!("{{\"Cmd\":\"{name}\"}}"),
            format!("{{\"cmd\":\"{name}\"}},"),
        ] {
            accepted += usize::from(agree(&line).unwrap());
        }
    }
    // Five spellings of each command are commands.
    assert_eq!(accepted, 4 * 5);
}

#[test]
fn hand_picked_hostile_lines_agree() {
    let mut rng = StdRng::seed_from_u64(3);
    let trip = random_trip(&mut rng, 2);
    let good = protocol::upload_line(&trip, 1, Some(5.0));
    let deep = format!("{}{}", "[".repeat(200), "]".repeat(200));
    let lines = [
        String::new(),
        " ".into(),
        "null".into(),
        "{}".into(),
        "{".into(),
        "}".into(),
        "[]".into(),
        "\"upload\"".into(),
        "{\"upload\"}".into(),
        "{\"upload\":}".into(),
        "{\"upload\":null}".into(),
        "{\"upload\":{}}".into(),
        "{\"upload\":{\"samples\":[]}}".into(),
        "{\"upload\":{\"samples\":[]},}".into(),
        "{\"upload\":{\"samples\":[{}]}}".into(),
        "{\"upload\":{\"samples\":[]},\"id\":18446744073709551616}".into(),
        "{\"upload\":{\"samples\":[]},\"id\":-0,\"received_s\":-9223372036854775809}".into(),
        "{\"upload\":{\"samples\":[]},\"received_s\":1e999}".into(),
        "{\"upload\":{\"samples\":[]},\"received_s\":+1}".into(),
        "{\"upload\":{\"samples\":[]},\"x\":\"\\u+04a\"}".into(),
        "{\"upload\":{\"samples\":[]},\"x\":\"\\u-04a\"}".into(),
        "{\"upload\":{\"samples\":[]},\"x\":\"\\ud83d\\ude8c\"}".into(),
        "{\"upload\":{\"samples\":[]},\"x\":\"\\ud83d\"}".into(),
        "{\"upload\":{\"samples\":[]},\"x\":\"\\ude8c\"}".into(),
        "{\"upload\":{\"samples\":[]},\"x\":\"\\u00\"}".into(),
        "{\"upload\":{\"samples\":[]},\"x\":\"\u{1}raw\ncontrol\"}".into(),
        "{\"upload\":{\"samples\":[]},\"x\":nul}".into(),
        "{\"upload\":{\"samples\":[]},\"x\":nullnull}".into(),
        format!("{{\"x\":{deep},\"cmd\":\"ping\"}}"),
        format!("{good}\n{good}"),
        good.replace("\"samples\"", "\"samples\" "),
        good.replace(":", " : "),
        good.replace("-", "- "),
        good.replace("\"tower\":", "\"tower\":-"),
        good.replace("\"time_s\":", "\"time_s\":0"),
        good.replace(",\"id\":1", ",\"id\":1.0"),
        good.clone(),
    ];
    for line in &lines {
        agree(line).unwrap();
    }
    // The oracle combines a surrogate pair without range-checking the
    // low half: its arithmetic overflows, which panics in a debug build
    // and wraps in a release build. The scanner follows the release
    // build, so compare there.
    if !cfg!(debug_assertions) {
        for pair in ["\\ud800\\u0041", "\\udbff\\uffff", "\\udbff\\u0000"] {
            agree(&format!("{{\"x\":\"{pair}\",\"cmd\":\"ping\"}}")).unwrap();
        }
    }
}
