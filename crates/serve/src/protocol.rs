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
//! Requests are read by a hand-written scanner ([`parse_line`]) that
//! walks a line's bytes once and builds the [`Request`] directly: no
//! intermediate JSON tree, no second walk, no owned member names. It
//! accepts exactly the JSON the generic `serde_json` reader accepts and
//! yields the same values, bit for bit (`tests/fuzz_protocol.rs` keeps
//! the tree-based reader it replaced as its oracle). A malformed frame
//! yields a precise, attributable error naming a byte offset or a field
//! instead of tearing down the connection. [`decode`] is the one place
//! a wire line is turned into a [`Frame`]; everything behind it takes
//! frames, never lines. [`upload_line`] writes a line the same way,
//! straight into one `String`.

use busprobe_core::digest::Digest;
use busprobe_core::DropReason;
use busprobe_mobile::{CellObservation, CellScan, CellTowerId, CellularSample, Trip};
use serde_json::Number;
use std::fmt::Write as _;

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

/// The longest wire line the server accepts, in bytes (1 MiB); a longer
/// one is refused as `oversized`.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Decodes one wire line: refuses it as oversized past
/// [`MAX_LINE_BYTES`] or as unparseable, else parses it into its
/// [`Request`].
pub fn decode(line: &str) -> Frame {
    let refuse = |reason, detail| {
        let mut h = Digest::new();
        h.put_str(line);
        Refusal {
            reason,
            detail,
            digest: h.finish(),
        }
    };
    if line.len() > MAX_LINE_BYTES {
        return Err(refuse(
            DropReason::Oversized,
            format!(
                "frame of {} bytes exceeds the {MAX_LINE_BYTES}-byte limit",
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
///
/// The line is trimmed, then scanned once. It reads exactly as a
/// generic JSON parse followed by a typed read of the tree would:
/// - a JSON syntax error anywhere, or anything after the object,
///   refuses the line;
/// - of a repeated member the first counts; the others, like unknown
///   members, are only checked for syntax;
/// - a `cmd` member anywhere wins over `upload`, whatever shape the
///   upload has;
/// - an integer-shaped number is an integer (`-0` is `0`), so a tower
///   must be one in `u32` range, and `1e5` or `3.0` is not one;
/// - `null` is NaN in `time_s` and `rss_dbm`; an `id` or `received_s`
///   that is not a number is absent;
/// - a scan keeps the order it was sent in.
pub fn parse_line(line: &str) -> Result<Request, ParseError> {
    Scanner {
        text: line.trim(),
        pos: 0,
    }
    .request()
}

/// Formats one upload as a wire line (without the trailing newline) —
/// the encoder the `send` CLI and the tests share.
///
/// A finite float is written shortest-round-trip (`{:?}`) inside the
/// trip and with `Display` as `received_s`; a non-finite one as `null`,
/// which reads back as NaN in the trip and as no arrival time.
#[must_use]
pub fn upload_line(trip: &Trip, id: u64, received_s: Option<f64>) -> String {
    let observations: usize = trip.samples.iter().map(|s| s.scan.len()).sum();
    let mut line = String::with_capacity(64 + 48 * trip.samples.len() + 40 * observations);
    line.push_str("{\"upload\":{\"samples\":[");
    for (i, sample) in trip.samples.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str("{\"time_s\":");
        push_float(&mut line, sample.time_s);
        line.push_str(",\"scan\":{\"observations\":[");
        for (k, o) in sample.scan.observations().iter().enumerate() {
            if k > 0 {
                line.push(',');
            }
            let _ = write!(line, "{{\"tower\":{},\"rss_dbm\":", o.tower.0);
            push_float(&mut line, o.rss_dbm);
            line.push('}');
        }
        line.push_str("]}}");
    }
    let _ = write!(line, "]}},\"id\":{id}");
    if let Some(r) = received_s {
        line.push_str(",\"received_s\":");
        if r.is_finite() {
            let _ = write!(line, "{r}");
        } else {
            line.push_str("null");
        }
    }
    line.push('}');
    line
}

/// Writes a trip float as JSON: shortest round-trip when finite, `null`
/// otherwise (JSON has no NaN or infinity).
fn push_float(line: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(line, "{x:?}");
    } else {
        line.push_str("null");
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

type Scan<T> = Result<T, ParseError>;

/// A scanned string: its text between the quotes, and what it decodes
/// to when that text holds an escape.
struct Str<'a> {
    raw: &'a str,
    unescaped: Option<Unescaped>,
}

impl Str<'_> {
    /// Whether the string decodes to `name`.
    fn is(&self, name: &str) -> bool {
        let bytes = match &self.unescaped {
            None => Some(self.raw.as_bytes()),
            Some(u) => u.as_bytes(),
        };
        bytes == Some(name.as_bytes())
    }
}

/// The decoded bytes of an escaped string, kept only up to the length
/// of the longest name a string is compared with.
#[derive(Default)]
struct Unescaped {
    buf: [u8; 16],
    /// Bytes decoded so far; past `buf.len()` the string matches no name.
    len: usize,
}

impl Unescaped {
    fn push(&mut self, bytes: &[u8]) {
        if let Some(dst) = self.buf.get_mut(self.len..self.len + bytes.len()) {
            dst.copy_from_slice(bytes);
        }
        self.len += bytes.len();
    }

    fn as_bytes(&self) -> Option<&[u8]> {
        self.buf.get(..self.len)
    }
}

/// A one-pass reader over a trimmed wire line. The grammar is the
/// generic JSON reader's, down to its quirks (raw control characters in
/// strings, `+` as a `\u` escape's first digit, numbers as greedy runs
/// of `0-9 . e E + -` handed to `str::parse`).
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn error(&self, what: impl std::fmt::Display) -> ParseError {
        ParseError(format!("{what} at byte {}", self.pos))
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.byte() {
            self.pos += 1;
        }
    }

    /// The next byte that is not JSON whitespace, not consumed.
    fn peek(&mut self) -> Scan<u8> {
        self.skip_whitespace();
        self.byte()
            .ok_or_else(|| self.error("unexpected end of line"))
    }

    fn expect(&mut self, b: u8) -> Scan<()> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format_args!("expected `{}`", char::from(b))))
        }
    }

    fn literal(&mut self, word: &str) -> Scan<()> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error("invalid literal"))
        }
    }

    /// The whole line: one object, then nothing.
    fn request(mut self) -> Scan<Request> {
        let (mut cmd, mut upload, mut id, mut received_s) = (None, None, None, None);
        self.object(|s, name| {
            if name.is("cmd") && cmd.is_none() {
                cmd = Some(s.command()?);
            } else if name.is("upload") && upload.is_none() {
                upload = Some(s.upload()?);
            } else if name.is("id") && id.is_none() {
                id = Some(s.number_or_skip()?.and_then(|n| n.as_u64()));
            } else if name.is("received_s") && received_s.is_none() {
                received_s = Some(s.number_or_skip()?.map(|n| n.as_f64()));
            } else {
                s.skip_value()?;
            }
            Ok(())
        })?;
        self.skip_whitespace();
        if self.byte().is_some() {
            return Err(self.error("trailing characters"));
        }
        if let Some(cmd) = cmd {
            return cmd;
        }
        let Some(trip) = upload else {
            return Err(ParseError("missing `upload` or `cmd` field".into()));
        };
        Ok(Request::Upload {
            id: id.flatten(),
            trip: trip?,
            received_s: received_s.flatten(),
        })
    }

    /// A `cmd` member's value: the command, or why it names none — which
    /// refuses the line only if the rest of it scans cleanly.
    fn command(&mut self) -> Scan<Scan<Request>> {
        if self.peek()? != b'"' {
            let err = self.error("`cmd` must be a string");
            self.skip_value()?;
            return Ok(Err(err));
        }
        let name = self.string()?;
        Ok(if name.is("ping") {
            Ok(Request::Ping)
        } else if name.is("stats") {
            Ok(Request::Stats)
        } else if name.is("checkpoint") {
            Ok(Request::Checkpoint)
        } else if name.is("shutdown") {
            Ok(Request::Shutdown)
        } else {
            Err(ParseError(format!("unknown cmd \"{}\"", name.raw)))
        })
    }

    /// An `upload` member's value: the trip, or — when the value is
    /// well-formed JSON of another shape — why it is none. Malformed JSON
    /// refuses the line.
    fn upload(&mut self) -> Scan<Scan<Trip>> {
        let start = self.pos;
        match self.trip() {
            Ok(trip) => Ok(Ok(trip)),
            Err(e) => {
                // The typed read stops at its first surprise, shape or
                // syntax alike; a syntax check from the value's start
                // tells the two apart.
                self.pos = start;
                self.skip_value()?;
                Ok(Err(ParseError(format!("undecodable upload: {e}"))))
            }
        }
    }

    fn trip(&mut self) -> Scan<Trip> {
        let mut samples = None;
        self.object(|s, name| {
            if name.is("samples") && samples.is_none() {
                samples = Some(s.array(Self::sample)?);
                Ok(())
            } else {
                s.skip_value()
            }
        })?;
        Ok(Trip {
            samples: self.required(samples, "samples")?,
        })
    }

    fn sample(&mut self) -> Scan<CellularSample> {
        let (mut time_s, mut scan) = (None, None);
        self.object(|s, name| {
            if name.is("time_s") && time_s.is_none() {
                time_s = Some(s.float("time_s")?);
            } else if name.is("scan") && scan.is_none() {
                scan = Some(s.scan()?);
            } else {
                s.skip_value()?;
            }
            Ok(())
        })?;
        Ok(CellularSample {
            time_s: self.required(time_s, "time_s")?,
            scan: self.required(scan, "scan")?,
        })
    }

    fn scan(&mut self) -> Scan<CellScan> {
        let mut observations = None;
        self.object(|s, name| {
            if name.is("observations") && observations.is_none() {
                observations = Some(s.array(Self::observation)?);
                Ok(())
            } else {
                s.skip_value()
            }
        })?;
        let observations = self.required(observations, "observations")?;
        Ok(CellScan::unsorted(observations))
    }

    fn observation(&mut self) -> Scan<CellObservation> {
        let (mut tower, mut rss_dbm) = (None, None);
        self.object(|s, name| {
            if name.is("tower") && tower.is_none() {
                tower = Some(s.tower()?);
            } else if name.is("rss_dbm") && rss_dbm.is_none() {
                rss_dbm = Some(s.float("rss_dbm")?);
            } else {
                s.skip_value()?;
            }
            Ok(())
        })?;
        Ok(CellObservation {
            tower: self.required(tower, "tower")?,
            rss_dbm: self.required(rss_dbm, "rss_dbm")?,
        })
    }

    fn required<T>(&self, field: Option<T>, name: &str) -> Scan<T> {
        field.ok_or_else(|| self.error(format_args!("missing field `{name}`")))
    }

    fn tower(&mut self) -> Scan<CellTowerId> {
        let number = match self.peek()? {
            b'-' | b'0'..=b'9' => Some(self.number()?),
            _ => None,
        };
        number
            .and_then(|n| n.as_u64())
            .and_then(|n| u32::try_from(n).ok())
            .map(CellTowerId)
            .ok_or_else(|| self.error("`tower` must be an integer in u32 range"))
    }

    /// An `f64` field: a number, or `null` for NaN.
    fn float(&mut self, field: &str) -> Scan<f64> {
        match self.peek()? {
            b'-' | b'0'..=b'9' => self.number().map(|n| n.as_f64()),
            b'n' => self.literal("null").map(|()| f64::NAN),
            _ => Err(self.error(format_args!("`{field}` must be a number or null"))),
        }
    }

    /// A number, or `None` after checking a value of any other kind.
    fn number_or_skip(&mut self) -> Scan<Option<Number>> {
        if let b'-' | b'0'..=b'9' = self.peek()? {
            self.number().map(Some)
        } else {
            self.skip_value().map(|()| None)
        }
    }

    /// One number token: an optional `-`, then every byte of
    /// `0-9 . e E + -` that follows. A token of digits alone is an
    /// integer when it fits `u64` (`i64` when negative); any other token
    /// is an `f64`.
    fn number(&mut self) -> Scan<Number> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let negative = bytes[start] == b'-';
        let digits = start + usize::from(negative);
        let mut end = digits;
        let mut magnitude = Some(0u64);
        while let Some(&d @ b'0'..=b'9') = bytes.get(end) {
            magnitude = magnitude
                .and_then(|m| m.checked_mul(10))
                .and_then(|m| m.checked_add(u64::from(d - b'0')));
            end += 1;
        }
        let mut integer = end > digits;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(end) {
            integer = false;
            end += 1;
        }
        self.pos = end;
        match (integer, negative, magnitude) {
            (true, false, Some(m)) => return Ok(Number::PosInt(m)),
            (true, true, Some(m)) if m <= 1 << 63 => {
                return Ok(Number::NegInt(0i64.wrapping_sub_unsigned(m)))
            }
            // Out of integer range, or not integer-shaped: a float.
            _ => {}
        }
        let token = &self.text[start..end];
        token
            .parse()
            .map(Number::Float)
            .map_err(|_| ParseError(format!("invalid number `{token}` at byte {start}")))
    }

    /// One string. Most hold no escape and are taken as they stand; one
    /// that does is decoded, but only as far as a name comparison needs.
    fn string(&mut self) -> Scan<Str<'a>> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let end = bytes[start..].iter().position(|&b| b == b'"' || b == b'\\');
        if let Some(len) = end.filter(|&len| bytes[start + len] == b'"') {
            self.pos = start + len + 1;
            return Ok(Str {
                raw: &self.text[start..start + len],
                unescaped: None,
            });
        }
        let mut out = Unescaped::default();
        loop {
            let Some(b) = self.byte() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => {
                    let raw = &self.text[start..self.pos - 1];
                    return Ok(Str {
                        raw,
                        unescaped: Some(out),
                    });
                }
                b'\\' => {
                    let c = self.escape()?;
                    out.push(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                _ => out.push(&[b]),
            }
        }
    }

    /// The character an escape stands for, after its `\`.
    fn escape(&mut self) -> Scan<char> {
        let Some(b) = self.byte() else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => return self.unicode_escape(),
            _ => return Err(self.error("invalid escape")),
        })
    }

    /// A `\u` escape, after its `u`. A high surrogate takes the next
    /// `\u` escape as its low half without range-checking it, combined
    /// with wrapping arithmetic as the generic reader's release build
    /// does; only a result that is no `char` is refused.
    fn unicode_escape(&mut self) -> Scan<char> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                return Err(self.error("unpaired surrogate"));
            }
            self.pos += 2;
            let low = self.hex4()?;
            code = (0x1_0000 + ((code - 0xD800) << 10)).wrapping_add(low.wrapping_sub(0xDC00));
        }
        char::from_u32(code).ok_or_else(|| self.error("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Scan<u32> {
        let Some(digits) = self.text.as_bytes().get(self.pos..self.pos + 4) else {
            return Err(self.error("truncated \\u escape"));
        };
        self.pos += 4;
        std::str::from_utf8(digits)
            .ok()
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("bad \\u escape"))
    }

    /// An object, handing each member's name to `member`, which must
    /// read the member's value.
    fn object(&mut self, mut member: impl FnMut(&mut Self, Str<'a>) -> Scan<()>) -> Scan<()> {
        self.expect(b'{')?;
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let name = self.member_name()?;
            member(self, name)?;
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    /// An array, reading each element with `item`.
    fn array<T>(&mut self, mut item: impl FnMut(&mut Self) -> Scan<T>) -> Scan<Vec<T>> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(items);
        }
        // A modem reports up to seven towers, and trips carry more samples
        // than that: room for eight saves the regrowth from `Vec`'s first
        // four.
        items.reserve(8);
        loop {
            items.push(item(self)?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn member_name(&mut self) -> Scan<Str<'a>> {
        let name = self.string()?;
        self.expect(b':')?;
        Ok(name)
    }

    /// Checks one value of any shape and steps over it. Iterative, so no
    /// depth of nesting can overflow the stack.
    fn skip_value(&mut self) -> Scan<()> {
        // The closing byte of each container still open.
        let mut open = Vec::new();
        loop {
            // A scalar, or an empty container, or the start of one and
            // of its first member.
            match self.peek()? {
                start @ (b'[' | b'{') => {
                    let close = if start == b'[' { b']' } else { b'}' };
                    self.pos += 1;
                    if self.peek()? == close {
                        self.pos += 1;
                    } else {
                        if close == b'}' {
                            self.member_name()?;
                        }
                        open.push(close);
                        continue;
                    }
                }
                _ => self.scalar()?,
            }
            // A value is complete: close the containers it completes, or
            // step to the next member or element.
            loop {
                let Some(&close) = open.last() else {
                    return Ok(());
                };
                match self.peek()? {
                    b',' => {
                        self.pos += 1;
                        if close == b'}' {
                            self.member_name()?;
                        }
                        break;
                    }
                    b if b == close => {
                        self.pos += 1;
                        open.pop();
                    }
                    _ => {
                        let close = char::from(close);
                        return Err(self.error(format_args!("expected `,` or `{close}`")));
                    }
                }
            }
        }
    }

    fn scalar(&mut self) -> Scan<()> {
        match self.peek()? {
            b'"' => self.string().map(|_| ()),
            b'-' | b'0'..=b'9' => self.number().map(|_| ()),
            b'n' => self.literal("null"),
            b't' => self.literal("true"),
            b'f' => self.literal("false"),
            _ => Err(self.error("expected a value")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn trip() -> Trip {
        Trip {
            samples: vec![CellularSample {
                time_s: 12.5,
                scan: CellScan::new(vec![]),
            }],
        }
    }

    /// The upload a line carries, or a panic naming what it carried.
    fn upload(line: &str) -> (Option<u64>, Trip, Option<f64>) {
        match parse_line(line) {
            Ok(Request::Upload {
                id,
                trip,
                received_s,
            }) => (id, trip, received_s),
            other => panic!("{line}: {other:?}"),
        }
    }

    /// A one-observation upload with `tower` and `rss` spliced in as
    /// raw JSON.
    fn observation_line(time: &str, tower: &str, rss: &str) -> String {
        format!(
            "{{\"upload\":{{\"samples\":[{{\"time_s\":{time},\"scan\":{{\"observations\":\
             [{{\"tower\":{tower},\"rss_dbm\":{rss}}}]}}}}]}}}}"
        )
    }

    /// `line` with `members` spliced in before its closing brace.
    fn with_members(line: &str, members: &str) -> String {
        format!("{}{members}}}", line.strip_suffix('}').unwrap())
    }

    #[test]
    fn upload_lines_round_trip() {
        let t = trip();
        let line = upload_line(&t, 9, Some(44.0));
        let (id, trip, received_s) = upload(&line);
        assert_eq!(id, Some(9));
        assert_eq!(trip, t);
        assert_eq!(received_s, Some(44.0));
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
        assert!(matches!(
            parse_line("{\"cmd\":\"stats\"}").unwrap(),
            Request::Stats
        ));
        assert!(matches!(
            parse_line("{\"cmd\":\"checkpoint\"}").unwrap(),
            Request::Checkpoint
        ));
    }

    #[test]
    fn garbage_is_rejected_with_a_message() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line("[1,2,3]").is_err());
        assert!(parse_line("{\"cmd\":\"explode\"}").is_err());
        assert!(parse_line("{\"upload\":\"nope\"}").is_err());
        assert!(parse_line("{\"hello\":1}").is_err());
        assert!(parse_line("").is_err());
    }

    #[test]
    fn errors_name_a_byte_offset_or_a_field() {
        let err = parse_line("{\"cmd\":\"ping\",}").unwrap_err();
        assert_eq!(err.0, "expected `\"` at byte 14");
        let err = parse_line(&observation_line("1.0", "1e5", "-70")).unwrap_err();
        assert!(err.0.contains("`tower`"), "{err}");
        let err = parse_line("{\"upload\":{\"samples\":[{\"time_s\":1}]}}").unwrap_err();
        assert!(err.0.contains("missing field `scan`"), "{err}");
    }

    #[test]
    fn minus_zero_is_positive_zero_and_tower_zero() {
        let (_, trip, received_s) = upload(&with_members(
            &observation_line("-0", "-0", "-0"),
            ",\"received_s\":-0",
        ));
        let sample = &trip.samples[0];
        let observation = sample.scan.observations()[0];
        assert_eq!(sample.time_s.to_bits(), 0.0f64.to_bits());
        assert_eq!(observation.rss_dbm.to_bits(), 0.0f64.to_bits());
        assert_eq!(observation.tower, CellTowerId(0));
        assert_eq!(received_s.map(f64::to_bits), Some(0.0f64.to_bits()));
        // A float-shaped minus zero keeps its sign.
        let (_, trip, _) = upload(&observation_line("-0.0", "1", "-0e0"));
        assert_eq!(trip.samples[0].time_s.to_bits(), (-0.0f64).to_bits());
        let rss = trip.samples[0].scan.observations()[0].rss_dbm;
        assert_eq!(rss.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn exponents_fractions_and_negatives_are_not_towers() {
        for tower in ["1e5", "3.0", "-1", "4294967296", "18446744073709551616"] {
            assert!(
                parse_line(&observation_line("1", tower, "-70")).is_err(),
                "{tower}"
            );
        }
        let (_, trip, _) = upload(&observation_line("1", "4294967295", "-70"));
        assert_eq!(trip.samples[0].scan.observations()[0].tower.0, u32::MAX);
        // Leading zeros are digits like any other.
        let (_, trip, _) = upload(&observation_line("1", "007", "-70"));
        assert_eq!(trip.samples[0].scan.observations()[0].tower.0, 7);
    }

    #[test]
    fn a_number_starts_only_at_a_minus_or_a_digit() {
        for bad in [
            "+5", ".5", "-", "1.2.3", "1e", "--1", "Infinity", "NaN", "1-2",
        ] {
            assert!(
                parse_line(&observation_line(bad, "1", "-70")).is_err(),
                "{bad}"
            );
        }
        // What `str::parse::<f64>` takes after a leading digit or `-`.
        let (_, trip, _) = upload(&observation_line("-.5", "1", "1."));
        assert_eq!(trip.samples[0].time_s, -0.5);
        assert_eq!(trip.samples[0].scan.observations()[0].rss_dbm, 1.0);
    }

    #[test]
    fn null_is_nan_in_floats_but_no_arrival_time() {
        let line = with_members(
            &observation_line("null", "1", "null"),
            ",\"received_s\":null",
        );
        let (_, trip, received_s) = upload(&line);
        assert!(trip.samples[0].time_s.is_nan());
        assert!(trip.samples[0].scan.observations()[0].rss_dbm.is_nan());
        assert_eq!(received_s, None);
    }

    #[test]
    fn an_id_or_arrival_that_is_not_a_number_is_absent() {
        let t = upload_line(&trip(), 0, None);
        let body = t.split(",\"id\"").next().unwrap();
        for (id, received) in [
            ("\"7\"", "\"1.5\""),
            ("-7", "[1]"),
            ("7.0", "{\"s\":1}"),
            ("true", "false"),
            ("1e3", "\"\""),
        ] {
            let (got_id, _, got_received) =
                upload(&format!("{body},\"id\":{id},\"received_s\":{received}}}"));
            assert_eq!(got_id, None, "{id}");
            assert_eq!(got_received, None, "{received}");
        }
        // Integer arrival times are arrival times.
        let (id, _, received) = upload(&format!("{body},\"id\":-0,\"received_s\":12}}"));
        assert_eq!((id, received), (Some(0), Some(12.0)));
    }

    #[test]
    fn the_first_of_repeated_keys_wins_and_the_rest_are_checked() {
        let body = upload_line(&trip(), 0, None);
        let body = body.split(",\"id\"").next().unwrap();
        let (id, _, _) = upload(&format!("{body},\"id\":1,\"id\":\"x\",\"id\":2}}"));
        assert_eq!(id, Some(1));
        // A later `upload` of the wrong shape is ignored ...
        let (_, t, _) = upload(&format!("{body},\"upload\":[]}}"));
        assert_eq!(t, trip());
        // ... but not if it is malformed.
        assert!(parse_line(&format!("{body},\"upload\":[1,]}}")).is_err());
        // Inside the trip too: the first `time_s` counts.
        let line = "{\"upload\":{\"samples\":[{\"time_s\":3,\"time_s\":\"x\",\
                    \"scan\":{\"observations\":[]},\"scan\":7}]}}";
        assert_eq!(upload(line).1.samples[0].time_s, 3.0);
        let bad = "{\"upload\":{\"samples\":[{\"time_s\":\"x\",\"time_s\":3,\
                   \"scan\":{\"observations\":[]}}]}}";
        assert!(parse_line(bad).is_err());
    }

    #[test]
    fn escaped_keys_are_the_keys_they_spell() {
        let line = upload_line(&trip(), 5, None)
            .replace("\"upload\"", "\"upl\\u006fad\"")
            .replace("\"time_s\"", "\"time\\u005fs\"")
            .replace("\"id\"", "\"\\u0069d\"");
        let (id, t, _) = upload(&line);
        assert_eq!((id, t), (Some(5), trip()));
        assert!(matches!(
            parse_line("{\"\\u0063md\":\"\\u0070ing\"}").unwrap(),
            Request::Ping
        ));
        // An escape that spells something longer is a different key.
        let line = upload_line(&trip(), 5, None).replace("\"id\"", "\"id\\u0000\"");
        assert_eq!(upload(&line).0, None);
    }

    #[test]
    fn string_escapes_follow_the_tree_reader() {
        let ping = |x: &str| parse_line(&format!("{{\"x\":\"{x}\",\"cmd\":\"ping\"}}"));
        for good in [
            "\\ud83d\\ude8c",
            "\\udbff\\udfff",
            // `from_str_radix` takes a sign, and the low half of a pair
            // is not range-checked.
            "\\u+04a",
            "\\ud800\\u0041",
            "\\\"\\\\\\/\\b\\f\\n\\r\\t",
            "raw\u{1}control\ncharacters",
        ] {
            assert!(matches!(ping(good), Ok(Request::Ping)), "{good}");
        }
        for bad in [
            "\\u-04a",
            "\\u00",
            "\\ud83d",
            "\\ud83dx",
            "\\ude8c",
            "\\udbff\\uffff",
            "\\x",
        ] {
            assert!(ping(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn unknown_keys_are_skipped_but_checked() {
        let line = upload_line(&trip(), 5, Some(1.0));
        let extra = "\"x\":{\"a\":[1,2.5,-3e2,true,false,null,\"s\\\"\\n\",{},[]]}";
        let with = line.replacen('{', &format!("{{{extra},"), 1);
        let (id, t, received) = upload(&with);
        assert_eq!((id, t, received), (Some(5), trip(), Some(1.0)));
        let scan_with = line.replace("\"scan\":{", &format!("\"scan\":{{{extra},"));
        assert_eq!(upload(&scan_with).1, trip());
        for broken in [
            "\"x\":[1,]",
            "\"x\":{\"a\"}",
            "\"x\":tru",
            "\"x\":\"\\q\"",
            "\"x\":01.2.3",
        ] {
            let with = line.replacen('{', &format!("{{{broken},"), 1);
            assert!(parse_line(&with).is_err(), "{broken}");
        }
        // Deep nesting in an unknown member is fine.
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        let with = line.replacen('{', &format!("{{\"x\":{deep},"), 1);
        assert_eq!(upload(&with).1, trip());
    }

    #[test]
    fn cmd_wins_over_any_upload_but_not_over_syntax() {
        let upload = upload_line(&trip(), 1, None);
        for line in [
            with_members(&upload, ",\"cmd\":\"stats\""),
            "{\"upload\":[1,2],\"cmd\":\"stats\"}".to_string(),
            "{\"upload\":{\"samples\":{}},\"cmd\":\"stats\"}".to_string(),
            "{\"cmd\":\"stats\",\"cmd\":\"ping\",\"upload\":7}".to_string(),
        ] {
            assert!(matches!(parse_line(&line), Ok(Request::Stats)), "{line}");
        }
        for line in [
            with_members(&upload, ",\"cmd\":\"stats\"") + " x",
            "{\"upload\":[1,],\"cmd\":\"stats\"}".to_string(),
            "{\"cmd\":\"stats\"}{}".to_string(),
            with_members(&upload, ",\"cmd\":null"),
            with_members(&upload, ",\"cmd\":\"STATS\""),
        ] {
            assert!(parse_line(&line).is_err(), "{line}");
        }
        // Unicode whitespace around the line is trimmed first.
        assert!(matches!(
            parse_line("\u{2003}\u{a0}{\"cmd\":\"ping\"}\u{3000}\n"),
            Ok(Request::Ping)
        ));
    }

    #[test]
    fn scans_keep_wire_order() {
        let line = "{\"upload\":{\"samples\":[{\"time_s\":1,\"scan\":{\"observations\":\
                    [{\"tower\":1,\"rss_dbm\":-90},{\"tower\":2,\"rss_dbm\":-50}]}}]}}";
        let towers: Vec<u32> = upload(line).1.samples[0]
            .scan
            .observations()
            .iter()
            .map(|o| o.tower.0)
            .collect();
        assert_eq!(towers, [1, 2]);
    }

    #[test]
    fn non_finite_arrivals_are_written_as_null() {
        let t = trip();
        for r in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let line = upload_line(&t, 3, Some(r));
            assert!(line.ends_with(",\"received_s\":null}"), "{line}");
            let (id, trip, received_s) = upload(&line);
            assert_eq!((id, trip, received_s), (Some(3), t.clone(), None));
        }
        // Finite arrivals keep their `Display` form.
        let line = upload_line(&t, 3, Some(44.0));
        assert!(line.ends_with(",\"received_s\":44}"), "{line}");
    }

    #[test]
    fn decode_checks_the_size_before_parsing() {
        // A ping padded with spaces to `len` bytes.
        let ping = |len: usize| "{\"cmd\":\"ping\"}".to_string() + &" ".repeat(len - 14);
        assert!(matches!(decode(&ping(MAX_LINE_BYTES)), Ok(Request::Ping)));
        let long_line = ping(MAX_LINE_BYTES + 1);
        let long = decode(&long_line).unwrap_err();
        assert_eq!(long.reason, DropReason::Oversized);
        let garbage = decode("not json").unwrap_err();
        assert_eq!(garbage.reason, DropReason::Unparseable);
        // The digest is the raw bytes' identity, whatever the verdict.
        let mut h = Digest::new();
        h.put_str(&long_line);
        assert_eq!(long.digest, h.finish());
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
