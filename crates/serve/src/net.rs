//! Socket and stdio front ends for the engine.
//!
//! Both speak the same [`protocol`]: one JSON object
//! per line in, responses per line out. The unix-socket listener is
//! fully non-blocking-with-timeouts — glibc's `signal()` installs
//! `SA_RESTART` semantics, so a resident loop parked in `accept(2)`
//! would never notice a trapped SIGTERM; polling with short timeouts
//! keeps drain latency bounded instead.

use crate::engine::{EngineHandle, ReplySink};
use crate::protocol;
use busprobe_telemetry::Level;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::time::Duration;

/// How long a connection read waits before re-checking drain state.
const READ_TIMEOUT: Duration = Duration::from_millis(100);
/// Accept-loop poll interval.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// What a front end needs from whatever sits behind it. A single
/// [`EngineHandle`] is the original implementor; a sharded router that
/// fans lines out to several engines implements the same contract, so
/// the socket/stdio loops below serve either without knowing which.
pub trait LineHandler: Clone + Send + 'static {
    /// Processes one complete wire line; replies (if any) go to `reply`.
    fn handle_line(&self, line: &str, reply: Option<&ReplySink>);
    /// True once a drain began — front ends stop admitting input.
    fn is_draining(&self) -> bool;
    /// True once the backing engine(s) exited.
    fn finished(&self) -> bool;
    /// The per-line frame limit, for reassembly-buffer sizing.
    fn max_line_bytes(&self) -> usize;
}

impl LineHandler for EngineHandle {
    fn handle_line(&self, line: &str, reply: Option<&ReplySink>) {
        EngineHandle::handle_line(self, line, reply);
    }
    fn is_draining(&self) -> bool {
        EngineHandle::is_draining(self)
    }
    fn finished(&self) -> bool {
        EngineHandle::finished(self)
    }
    fn max_line_bytes(&self) -> usize {
        EngineHandle::max_line_bytes(self)
    }
}

/// Binds `socket_path` and serves connections until
/// [`EngineHandle::is_draining`] turns true (or the engine dies).
/// `tick` runs every accept-loop iteration — the resident CLI uses it
/// to poll the signal latch and trigger the drain.
///
/// Returns once every connection thread has exited; admitted-but-
/// unacknowledged uploads are still acked afterwards, because each
/// queued upload's reply sink keeps its socket's write half alive
/// through the commit loop's drain flush.
pub fn serve_unix<H: LineHandler>(
    handle: &H,
    socket_path: &Path,
    mut tick: impl FnMut(),
) -> std::io::Result<()> {
    let _ = std::fs::remove_file(socket_path);
    let listener = UnixListener::bind(socket_path)?;
    listener.set_nonblocking(true)?;
    let mut connections = Vec::new();
    while !handle.is_draining() && !handle.finished() {
        tick();
        match listener.accept() {
            Ok((stream, _)) => {
                let handle = handle.clone();
                let thread = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || serve_connection(&handle, stream))
                    .expect("spawn connection thread");
                connections.push(thread);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(e) => {
                busprobe_telemetry::event(Level::Warn, "serve::net", format!("accept failed: {e}"));
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
    for thread in connections {
        let _ = thread.join();
    }
    let _ = std::fs::remove_file(socket_path);
    Ok(())
}

/// Reads newline-delimited frames off one connection, preserving
/// partial lines across read timeouts (a `BufReader::read_line` would
/// discard them), and feeds each complete line to the engine.
fn serve_connection<H: LineHandler>(handle: &H, stream: UnixStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let reply = match stream.try_clone() {
        Ok(write_half) => ReplySink::new(write_half),
        Err(_) => return,
    };
    let mut stream = stream;
    // A frame may arrive fragmented; cap the reassembly buffer at the
    // frame limit plus slack so a newline-less producer cannot balloon
    // memory.
    let overflow_at = handle.max_line_bytes().saturating_add(64 * 1024);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let frame: Vec<u8> = buf.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&frame[..frame.len() - 1]);
                    let line = line.trim();
                    if !line.is_empty() {
                        handle.handle_line(line, Some(&reply));
                    }
                }
                if buf.len() > overflow_at {
                    reply.send_raw(&protocol::err_line(
                        "frame exceeds the line limit with no newline; closing connection",
                        "oversized",
                    ));
                    break;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Idle: leave once no more input can be admitted anyway.
                if handle.is_draining() || handle.finished() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Serves the stream protocol over stdin/stdout until EOF or drain —
/// the no-socket mode (`busprobe serve --stdin`), and handy for piping
/// a corpus straight in.
pub fn serve_stdio<H: LineHandler>(handle: &H) {
    let reply = ReplySink::new(std::io::stdout());
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {
                let trimmed = line.trim();
                if !trimmed.is_empty() {
                    handle.handle_line(trimmed, Some(&reply));
                }
                if handle.is_draining() {
                    break;
                }
            }
        }
    }
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
