//! Minimal POSIX signal plumbing, dependency-free.
//!
//! The resident server needs exactly three things from the platform:
//! notice SIGTERM/SIGINT (to drain gracefully), send a signal to a
//! child (for the crash-test matrix), and nothing else — so rather
//! than pull in a bindings crate, this module declares the two libc
//! entry points it uses. The handler itself only flips an
//! [`AtomicBool`], the one action that is unconditionally
//! async-signal-safe.
//!
//! glibc's `signal()` installs BSD semantics (`SA_RESTART`), so a
//! blocked `accept(2)` or `read(2)` is *not* interrupted by a trapped
//! signal — the loop that polls the flag must wait with a timeout
//! (`net::serve_unix` waits on a channel fed by an acceptor thread)
//! rather than park forever in a syscall itself.

use std::sync::atomic::{AtomicBool, Ordering};

/// `SIGINT` — interactive interrupt (Ctrl-C).
pub const SIGINT: i32 = 2;
/// `SIGKILL` — uncatchable kill, the crash-matrix hammer.
pub const SIGKILL: i32 = 9;
/// `SIGTERM` — polite termination request.
pub const SIGTERM: i32 = 15;

static TERMINATION_REQUESTED: AtomicBool = AtomicBool::new(false);

// The return type is `usize`, not a function pointer: the previous
// handler may be SIG_DFL (0) or SIG_ERR (-1), neither of which is a
// valid Rust `fn` value.
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn kill(pid: i32, sig: i32) -> i32;
}

extern "C" fn note_termination(_signum: i32) {
    // Only an atomic store: the sole unconditionally async-signal-safe
    // thing a Rust handler can do.
    TERMINATION_REQUESTED.store(true, Ordering::SeqCst);
}

/// Routes SIGTERM and SIGINT to a latch readable via
/// [`termination_requested`]. Idempotent; call once at startup.
pub fn trap_termination() {
    unsafe {
        signal(SIGTERM, note_termination);
        signal(SIGINT, note_termination);
    }
}

/// Whether a trapped termination signal has arrived since the last
/// [`reset`].
pub fn termination_requested() -> bool {
    TERMINATION_REQUESTED.load(Ordering::SeqCst)
}

/// Clears the termination latch (tests; process-global state).
pub fn reset() {
    TERMINATION_REQUESTED.store(false, Ordering::SeqCst);
}

/// Sends `sig` to `pid` — `kill(2)`. Returns false on failure.
pub fn send(pid: u32, sig: i32) -> bool {
    let pid = i32::try_from(pid).unwrap_or(i32::MAX);
    unsafe { kill(pid, sig) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trapped_signal_latches_and_resets() {
        trap_termination();
        reset();
        assert!(!termination_requested());
        // Deliver a real SIGTERM to ourselves; the handler must latch
        // rather than kill the test process.
        assert!(send(std::process::id(), SIGTERM));
        for _ in 0..100 {
            if termination_requested() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(termination_requested(), "handler observed the signal");
        reset();
    }
}
