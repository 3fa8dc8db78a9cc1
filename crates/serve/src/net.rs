//! Socket and stdio front ends for the engine.
//!
//! Both speak the same [`protocol`]: one JSON object per line in,
//! responses per line out. Both read through one function: a socket
//! connection's thread and `busprobe serve --stdin` run the same reader
//! over any [`Read`]. It reads up to 64 KiB at a time, keeps a partial
//! line across reads, decodes bytes as lossy UTF-8 (a stray byte spoils
//! its line, not the session), and caps the reassembly buffer at the
//! frame limit plus one read, so a producer that never sends a newline
//! is refused instead of growing it. The complete lines of one read go
//! to the engine as one burst ([`LineHandler::handle_burst`]), so the
//! commit loop is woken per read, not per line; the reader stops once
//! the handler is draining.
//!
//! glibc's `signal()` installs `SA_RESTART` semantics, so a thread
//! parked in `accept(2)` or `read(2)` never notices a trapped SIGTERM —
//! the serving loop therefore never parks in a syscall itself: an
//! acceptor thread blocks in `accept` and hands streams over a channel,
//! and the loop waits on that channel with a timeout, so a connection is
//! picked up the moment it arrives while `tick` (the signal latch) still
//! runs every 25 ms. Connection reads block with no timeout: at drain
//! the loop wakes what is parked — the acceptor with one connect to its
//! own socket, each connection reader by shutting its read half.

use crate::engine::ReplySink;
use crate::protocol;
use busprobe_telemetry::Level;
use std::io::{ErrorKind, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Most bytes one connection `read` takes. What a read returns is
/// handed to the engine as one burst, so under load this is also how
/// much a connection thread parses per wake-up of the commit loop.
const READ_CHUNK: usize = 64 * 1024;
/// How often the serving loop runs `tick` and re-checks drain state
/// while no connection arrives.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// What a front end needs from whatever sits behind it: a bare
/// [`EngineHandle`](crate::EngineHandle), or a city front that decodes each line once and
/// routes it to one of several engines. The socket/stdio loops below
/// serve either without knowing which.
pub trait LineHandler: Clone + Send + 'static {
    /// Processes one complete wire line; replies (if any) go to `reply`.
    fn handle_line(&self, line: &str, reply: Option<&ReplySink>);
    /// Processes the complete lines one `read` returned, in order. A
    /// handler that can hand them over more cheaply together than one
    /// by one overrides this.
    fn handle_burst<'a>(&self, lines: impl Iterator<Item = &'a str>, reply: Option<&ReplySink>) {
        for line in lines {
            self.handle_line(line, reply);
        }
    }
    /// True once a drain began — front ends stop admitting input.
    fn is_draining(&self) -> bool;
    /// True once the backing engine(s) exited.
    fn finished(&self) -> bool;
}

/// Binds `socket_path` and serves connections until
/// [`LineHandler::is_draining`] turns true (or the engine dies).
/// `tick` runs every loop iteration — on every connection and at least
/// every 25 ms; the resident CLI uses it to poll the signal
/// latch and trigger the drain.
///
/// Returns once every connection thread has exited; admitted-but-
/// unacknowledged uploads are still acked afterwards, because each
/// queued upload's reply sink keeps its socket's write half alive
/// through the commit loop's drain flush (the drain shuts only the
/// read half).
pub fn serve_unix<H: LineHandler>(
    handle: &H,
    socket_path: &Path,
    mut tick: impl FnMut(),
) -> std::io::Result<()> {
    let _ = std::fs::remove_file(socket_path);
    let listener = UnixListener::bind(socket_path)?;
    let (accepted_tx, accepted) = mpsc::channel();
    let acceptor = std::thread::Builder::new()
        .name("serve-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                match stream {
                    Ok(stream) => {
                        if accepted_tx.send(stream).is_err() {
                            // The serving loop is gone: this was its
                            // wake-up call.
                            return;
                        }
                    }
                    Err(e) => {
                        busprobe_telemetry::event(
                            Level::Warn,
                            "serve::net",
                            format!("accept failed: {e}"),
                        );
                        std::thread::sleep(ACCEPT_POLL);
                    }
                }
            }
        })?;
    // Each connection's thread, and a second handle on its socket to
    // end its read with at drain.
    let mut connections: Vec<(JoinHandle<()>, UnixStream)> = Vec::new();
    while !handle.is_draining() && !handle.finished() {
        tick();
        // Let go of connections that hung up, so their sockets close
        // and the list tracks live connections, not every one ever made.
        connections.retain(|(thread, _)| !thread.is_finished());
        let stream = match accepted.recv_timeout(ACCEPT_POLL) {
            Ok(stream) => stream,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        // Reads block with no timeout, so a reader the drain cannot
        // wake would hold the drain up for good: a connection whose
        // socket cannot be cloned is closed unserved.
        let (Ok(waker), Ok(write_half)) = (stream.try_clone(), stream.try_clone()) else {
            busprobe_telemetry::event(
                Level::Warn,
                "serve::net",
                "could not clone a connection's socket; closed it",
            );
            continue;
        };
        let handle = handle.clone();
        let thread = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || serve_connection(&handle, stream, &ReplySink::new(write_half)))
            .expect("spawn connection thread");
        connections.push((thread, waker));
    }
    drop(accepted);
    // The acceptor is parked in `accept`: one connection to our own
    // socket makes its `send` fail. If the path is gone (unlinked under
    // us) it cannot be woken; it holds only the listener, so leave it.
    if UnixStream::connect(socket_path).is_ok() {
        let _ = acceptor.join();
    }
    // Readers parked in `read` return now. Bytes already received are
    // still read and answered, and the write half stays open for the
    // acks of queued uploads.
    for (_, waker) in &connections {
        let _ = waker.shutdown(Shutdown::Read);
    }
    for (thread, _) in connections {
        let _ = thread.join();
    }
    let _ = std::fs::remove_file(socket_path);
    Ok(())
}

/// Reads newline-delimited frames off one connection — a socket or
/// stdin — until end of input, a read error, a frame with no newline
/// past the line limit, or drain, and feeds the complete lines of each
/// read to `handle` as one burst, replies to `reply`.
fn serve_connection<H: LineHandler>(handle: &H, mut input: impl Read, reply: &ReplySink) {
    // A frame may arrive fragmented; cap the reassembly buffer at the
    // frame limit plus one read so a newline-less producer cannot
    // balloon memory.
    let overflow_at = protocol::MAX_LINE_BYTES + READ_CHUNK;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    while !handle.is_draining() && !handle.finished() {
        let n = match input.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        buf.extend_from_slice(&chunk[..n]);
        // Up to the last newline the buffer is complete lines.
        if let Some(end) = buf.iter().rposition(|&b| b == b'\n') {
            {
                let text = String::from_utf8_lossy(&buf[..end]);
                let lines = text.lines().map(str::trim);
                handle.handle_burst(lines.filter(|line| !line.is_empty()), Some(reply));
            }
            buf.drain(..=end);
        }
        if buf.len() > overflow_at {
            reply.send_raw(&protocol::err_line(
                "frame exceeds the line limit with no newline; closing connection",
                "oversized",
            ));
            break;
        }
    }
}

/// Serves the stream protocol over stdin/stdout until EOF or drain —
/// the no-socket mode (`busprobe serve --stdin`), and handy for piping
/// a corpus straight in. Stdin is read as a socket connection is.
pub fn serve_stdio<H: LineHandler>(handle: &H) {
    serve_connection(
        handle,
        std::io::stdin().lock(),
        &ReplySink::new(std::io::stdout()),
    );
}

/// A blocking line-protocol client for one unix socket — the `send`
/// CLI and the crash tests share it.
pub struct StreamClient {
    stream: UnixStream,
    buf: Vec<u8>,
}

impl StreamClient {
    /// Connects to the serve socket at `path`.
    pub fn connect(path: &Path) -> std::io::Result<Self> {
        let stream = UnixStream::connect(path)?;
        Ok(StreamClient {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sets how long [`read_response`](Self::read_response) waits.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one wire line (newline appended).
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()
    }

    /// Reads the next response line, blocking up to the configured
    /// timeout. `Ok(None)` means the server closed the connection.
    pub fn read_response(&mut self) -> std::io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let frame: Vec<u8> = self.buf.drain(..=pos).collect();
                let line = String::from_utf8_lossy(&frame[..frame.len() - 1])
                    .trim()
                    .to_string();
                if line.is_empty() {
                    continue;
                }
                return Ok(Some(line));
            }
            let mut chunk = [0u8; 8192];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(None),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    /// Answers `ping`; any other line is an upload that stays queued —
    /// its reply sink is parked, as the admission queue would hold it —
    /// until the test releases its ack.
    #[derive(Clone, Default)]
    struct Parked {
        draining: Arc<AtomicBool>,
        queued: Arc<Mutex<Vec<ReplySink>>>,
    }

    impl LineHandler for Parked {
        fn handle_line(&self, line: &str, reply: Option<&ReplySink>) {
            let reply = reply.expect("socket lines carry a reply sink");
            if line.contains("ping") {
                reply.send_raw(&protocol::ok_line("pong"));
            } else {
                self.queued.lock().push(reply.clone());
            }
        }
        fn is_draining(&self) -> bool {
            self.draining.load(Ordering::SeqCst)
        }
        fn finished(&self) -> bool {
            false
        }
    }

    fn socket_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("busprobe-net-{tag}-{}.sock", std::process::id()))
    }

    /// Connects as soon as the listener exists.
    fn connect(path: &Path) -> StreamClient {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match StreamClient::connect(path) {
                Ok(client) => {
                    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
                    return client;
                }
                Err(e) => assert!(Instant::now() < deadline, "no listener at {path:?}: {e}"),
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A connection is served when it arrives, not at the next poll:
    /// sequential connect → ping → pong round trips, each of which used
    /// to land just after the accept loop went back to sleep.
    #[test]
    fn a_connection_is_picked_up_when_it_arrives() {
        let path = socket_path("accept");
        let handler = Parked::default();
        let server = {
            let (handler, path) = (handler.clone(), path.clone());
            std::thread::spawn(move || serve_unix(&handler, &path, || {}))
        };
        drop(connect(&path));
        let mut round_trips: Vec<Duration> = (0..20)
            .map(|_| {
                let t = Instant::now();
                let mut client = StreamClient::connect(&path).unwrap();
                client.send_line("{\"cmd\":\"ping\"}").unwrap();
                let answer = client.read_response().unwrap();
                assert_eq!(answer.as_deref(), Some("{\"ok\":\"pong\"}"));
                t.elapsed()
            })
            .collect();
        round_trips.sort();
        let median = round_trips[round_trips.len() / 2];
        assert!(
            median < Duration::from_millis(5),
            "median connect → pong {median:?}: {round_trips:?}"
        );
        handler.draining.store(true, Ordering::SeqCst);
        server.join().unwrap().unwrap();
        assert!(!path.exists(), "socket path unlinked on exit");
    }

    /// Drain wakes readers parked in a blocking read — connected at
    /// different times before it — and shuts only the read half: an
    /// upload still queued is acked afterwards.
    #[test]
    fn drain_wakes_idle_readers_and_keeps_the_write_half_open() {
        let path = socket_path("drain");
        let handler = Parked::default();
        let server = {
            let (handler, path) = (handler.clone(), path.clone());
            std::thread::spawn(move || serve_unix(&handler, &path, || {}))
        };
        // Three clients, connected 66 / 33 / 0 ms before the drain.
        let mut clients = Vec::new();
        for _ in 0..3 {
            let mut client = connect(&path);
            client.send_line("{\"cmd\":\"ping\"}").unwrap();
            assert!(
                client.read_response().unwrap().is_some(),
                "connection is up"
            );
            clients.push(client);
            if clients.len() < 3 {
                std::thread::sleep(Duration::from_millis(33));
            }
        }
        clients[0].send_line("an upload").unwrap();
        while handler.queued.lock().is_empty() {
            std::thread::yield_now();
        }

        let t = Instant::now();
        handler.draining.store(true, Ordering::SeqCst);
        server.join().unwrap().unwrap();
        let drained_in = t.elapsed();
        assert!(
            drained_in < Duration::from_millis(40),
            "serve_unix took {drained_in:?} to notice the drain and wake three idle readers"
        );

        // The commit loop's drain flush, after the front end is gone.
        handler.queued.lock()[0].send_raw(&protocol::ack_line(Some(0), 0));
        assert_eq!(
            clients[0].read_response().unwrap().as_deref(),
            Some("{\"ack\":0,\"seq\":0}")
        );
        // Dropping the last sink closes the socket: the client sees EOF.
        handler.queued.lock().clear();
        assert_eq!(clients[0].read_response().unwrap(), None);
    }

    /// A producer that never sends a newline is refused once its partial
    /// line passes the frame limit, and nothing it sent reaches the
    /// handler as a line.
    #[test]
    fn a_line_with_no_newline_is_refused_at_the_limit() {
        let handler = Parked::default();
        let (reply, replies) = ReplySink::buffered();
        serve_connection(&handler, std::io::repeat(b'x').take(2 << 20), &reply);
        let replies = String::from_utf8(replies.lock().clone()).unwrap();
        assert!(replies.contains("exceeds the line limit"), "{replies}");
        assert!(
            handler.queued.lock().is_empty(),
            "a line reached the handler"
        );
    }
}
