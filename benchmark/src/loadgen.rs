//! The load generator: one producer connection over a Unix socket.
//!
//! Separate from the system under test and written against `std` only.
//! Two disciplines:
//!
//! - **closed loop** — a fixed window of uploads in flight; the next is
//!   sent when an answer frees a slot, so a slow server receives less
//!   load. Measures capacity (`stream_trips_per_s`).
//! - **open loop** — upload *i* is due at *i / rate* whatever the server
//!   does, and its latency runs from that **due** time to its answer, so
//!   a stall is charged to every upload it delays (no coordinated
//!   omission). How late the generator itself ran is reported beside it.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long a producer waits for an answer before calling the upload lost.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(20);

/// One server response line, as far as the generator cares.
#[derive(Debug, PartialEq, Eq)]
pub enum Reply {
    /// `{"ack":<id>,"seq":<n>}` — committed and durable.
    Ack(u64),
    /// `{"drop":<id>,"reason":"..."}` — refused with attribution.
    Drop(u64),
    /// Anything else (`ok`, `err`, an answer without an id).
    Other,
}

/// Parses one response line. Only the leading key and its integer are
/// read; the server writes these lines itself, in this exact shape.
pub fn parse_reply(line: &str) -> Reply {
    let id_after = |prefix: &str| -> Option<u64> {
        let rest = line.trim().strip_prefix(prefix)?;
        let digits = rest.split(|c: char| !c.is_ascii_digit()).next()?;
        digits.parse().ok()
    };
    if let Some(id) = id_after("{\"ack\":") {
        Reply::Ack(id)
    } else if let Some(id) = id_after("{\"drop\":") {
        Reply::Drop(id)
    } else {
        Reply::Other
    }
}

/// Time as the pacer sees it, so tests can substitute a fake.
pub trait Clock {
    /// Time since the run started.
    fn now(&self) -> Duration;
    /// Returns once `now() >= due` (at once if it already is).
    fn wait_until(&self, due: Duration);
}

/// The real clock: sleeps most of a gap and spins the tail, because
/// sleep granularity is coarser than sub-millisecond send intervals.
pub struct Wall(pub Instant);

impl Clock for Wall {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn wait_until(&self, due: Duration) {
        loop {
            let now = self.now();
            if now >= due {
                return;
            }
            let gap = due - now;
            if gap > Duration::from_micros(200) {
                std::thread::sleep(gap - Duration::from_micros(100));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// When one upload was due and when it actually left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Offered {
    pub due: Duration,
    pub sent: Duration,
}

impl Offered {
    /// How late the generator was with this upload.
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Offers `count` uploads on the fixed schedule `due(i) = i × interval`.
/// A send that stalls never shifts later due times: the uploads behind
/// it go out back to back, each stamped with how late it left.
pub fn offer<C: Clock>(
    clock: &C,
    count: usize,
    interval: Duration,
    mut send: impl FnMut(usize) -> io::Result<()>,
) -> io::Result<Vec<Offered>> {
    let mut offered = Vec::with_capacity(count);
    for i in 0..count {
        let due = interval.mul_f64(i as f64);
        clock.wait_until(due);
        let sent = clock.now();
        send(i)?;
        offered.push(Offered { due, sent });
    }
    Ok(offered)
}

/// Per-id answer ledger: every id must be answered exactly once.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Ledger {
    pub acked: usize,
    pub dropped: usize,
    /// Answers for an id already answered, or for an id never sent.
    pub stray: usize,
    answered: Vec<bool>,
}

impl Ledger {
    pub fn new(count: usize) -> Self {
        Ledger {
            answered: vec![false; count],
            ..Ledger::default()
        }
    }

    /// Books one reply; returns the id when it is a first answer.
    pub fn book(&mut self, reply: &Reply) -> Option<usize> {
        let (id, acked) = match *reply {
            Reply::Ack(id) => (id as usize, true),
            Reply::Drop(id) => (id as usize, false),
            Reply::Other => {
                self.stray += 1;
                return None;
            }
        };
        match self.answered.get_mut(id) {
            Some(slot) if !*slot => {
                *slot = true;
                if acked {
                    self.acked += 1;
                } else {
                    self.dropped += 1;
                }
                Some(id)
            }
            _ => {
                self.stray += 1;
                None
            }
        }
    }

    pub fn answered(&self) -> usize {
        self.acked + self.dropped
    }

    /// How many of `sent` uploads never got an answer.
    pub fn unanswered(&self, sent: usize) -> usize {
        sent - self.answered()
    }
}

/// Connects (retrying until the listener exists) and waits for a pong:
/// the moment a producer could have its first upload accepted.
pub fn connect_ready(socket: &Path) -> io::Result<UnixStream> {
    let deadline = Instant::now() + ANSWER_TIMEOUT;
    let mut stream = loop {
        match UnixStream::connect(socket) {
            Ok(s) => break s,
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_micros(200)),
        }
    };
    stream.set_read_timeout(Some(ANSWER_TIMEOUT))?;
    stream.write_all(b"{\"cmd\":\"ping\"}\n")?;
    let mut line = String::new();
    BufReader::new(stream.try_clone()?).read_line(&mut line)?;
    if !line.contains("pong") {
        return Err(io::Error::other(format!("no pong, got {line:?}")));
    }
    Ok(stream)
}

/// Result of one closed-loop run.
#[derive(Debug)]
pub struct ClosedLoop {
    pub sent: usize,
    /// First send to last answer.
    pub elapsed_s: f64,
    pub ledger: Ledger,
}

/// Sends frames (frame *i* carries id *i*) keeping at most `window`
/// unanswered, until all are sent or `send_for` has passed; returns when
/// everything sent is answered or an answer times out.
pub fn closed_loop(
    mut stream: UnixStream,
    frames: &[Vec<u8>],
    window: usize,
    send_for: Duration,
) -> io::Result<ClosedLoop> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut ledger = Ledger::new(frames.len());
    let mut line = String::new();
    let mut next = 0;
    let mut limit = frames.len();
    let start = Instant::now();
    while ledger.answered() < limit {
        while next < limit && next - ledger.answered() < window {
            if start.elapsed() >= send_for {
                limit = next;
                break;
            }
            stream.write_all(&frames[next])?;
            next += 1;
        }
        if ledger.answered() >= limit {
            break;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                ledger.book(&parse_reply(&line));
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                break
            }
            Err(e) => return Err(e),
        }
    }
    Ok(ClosedLoop {
        sent: next,
        elapsed_s: start.elapsed().as_secs_f64(),
        ledger,
    })
}

/// Result of one open-loop run.
#[derive(Debug)]
pub struct OpenLoop {
    /// Due time → answer, milliseconds, for every answered upload.
    pub latency_ms: Vec<f64>,
    /// Due time → actual send, milliseconds, for every upload.
    pub late_ms: Vec<f64>,
    /// Uploads sent but not yet answered when the last one left.
    pub backlog_at_end: usize,
    pub ledger: Ledger,
}

/// Offers every frame at `rate` uploads per second on one thread while a
/// second thread stamps answers as they arrive.
pub fn open_loop(mut stream: UnixStream, frames: &[Vec<u8>], rate: f64) -> io::Result<OpenLoop> {
    let count = frames.len();
    let reader = BufReader::new(stream.try_clone()?);
    let start = Instant::now();
    let answered_so_far = AtomicUsize::new(0);
    let (offered, backlog_at_end, answers) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut reader = reader;
            let mut ledger = Ledger::new(count);
            let mut answered_at: Vec<Option<Duration>> = vec![None; count];
            let mut line = String::new();
            while ledger.answered() < count {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        let at = start.elapsed();
                        if let Some(id) = ledger.book(&parse_reply(&line)) {
                            answered_at[id] = Some(at);
                            answered_so_far.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            (ledger, answered_at)
        });
        let offered = offer(
            &Wall(start),
            count,
            Duration::from_secs_f64(1.0 / rate),
            |i| stream.write_all(&frames[i]),
        );
        let backlog = count.saturating_sub(answered_so_far.load(Ordering::Relaxed));
        let answers = receiver.join().expect("receiver thread panicked");
        (offered, backlog, answers)
    });
    let offered = offered?;
    let (ledger, answered_at) = answers;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    Ok(OpenLoop {
        latency_ms: offered
            .iter()
            .zip(&answered_at)
            .filter_map(|(o, at)| at.map(|at| ms(at.saturating_sub(o.due))))
            .collect(),
        late_ms: offered.iter().map(|o| ms(o.late())).collect(),
        backlog_at_end,
        ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to: waiting jumps to the due
    /// time, and the test's `send` advances it by the cost of a send.
    struct Fake(Cell<Duration>);

    impl Clock for Fake {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn wait_until(&self, due: Duration) {
            if self.0.get() < due {
                self.0.set(due);
            }
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn on_time_uploads_are_stamped_with_their_due_time() {
        let clock = Fake(Cell::new(Duration::ZERO));
        let offered = offer(&clock, 4, 10 * MS, |_| Ok(())).unwrap();
        for (i, o) in offered.iter().enumerate() {
            assert_eq!(o.due, 10 * MS * i as u32);
            assert_eq!(o.late(), Duration::ZERO);
        }
    }

    #[test]
    fn a_stalled_send_does_not_shift_later_due_times() {
        let clock = Fake(Cell::new(Duration::ZERO));
        // Upload 1 blocks for 35 ms (a full socket buffer, say).
        let offered = offer(&clock, 6, 10 * MS, |i| {
            if i == 1 {
                clock.0.set(clock.0.get() + 35 * MS);
            }
            Ok(())
        })
        .unwrap();
        let due: Vec<_> = offered.iter().map(|o| o.due).collect();
        assert_eq!(due, (0..6).map(|i| 10 * MS * i).collect::<Vec<_>>());
        // Uploads 2..4 were due during the stall and leave late, back to
        // back at t = 45 ms; upload 5 (due at 50 ms) is on time again.
        let late: Vec<_> = offered.iter().map(|o| o.late()).collect();
        assert_eq!(
            late,
            vec![
                Duration::ZERO,
                Duration::ZERO,
                25 * MS,
                15 * MS,
                5 * MS,
                Duration::ZERO
            ]
        );
    }

    #[test]
    fn a_failed_send_aborts_the_offering() {
        let clock = Fake(Cell::new(Duration::ZERO));
        let result = offer(&clock, 3, MS, |i| {
            if i == 1 {
                Err(io::Error::other("peer hung up"))
            } else {
                Ok(())
            }
        });
        assert!(result.is_err());
    }

    #[test]
    fn reply_lines_parse() {
        assert_eq!(parse_reply("{\"ack\":17,\"seq\":4}"), Reply::Ack(17));
        assert_eq!(parse_reply(" {\"ack\":0,\"seq\":0}\n"), Reply::Ack(0));
        assert_eq!(
            parse_reply("{\"drop\":9,\"reason\":\"shed-queue-full\"}"),
            Reply::Drop(9)
        );
        assert_eq!(parse_reply("{\"ack\":null,\"seq\":3}"), Reply::Other);
        assert_eq!(parse_reply("{\"ok\":\"pong\"}"), Reply::Other);
        assert_eq!(
            parse_reply("{\"err\":\"not a JSON object\",\"reason\":\"unparseable\"}"),
            Reply::Other
        );
        assert_eq!(parse_reply(""), Reply::Other);
    }

    #[test]
    fn ledger_books_each_id_once() {
        let mut ledger = Ledger::new(3);
        assert_eq!(ledger.book(&Reply::Ack(0)), Some(0));
        assert_eq!(ledger.book(&Reply::Drop(2)), Some(2));
        assert_eq!(ledger.book(&Reply::Ack(0)), None); // answered twice
        assert_eq!(ledger.book(&Reply::Ack(7)), None); // never sent
        assert_eq!(ledger.book(&Reply::Other), None);
        assert_eq!((ledger.acked, ledger.dropped, ledger.stray), (1, 1, 3));
        assert_eq!(ledger.unanswered(3), 1);
    }
}
