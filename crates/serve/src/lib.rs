//! The resident streaming frontend for the traffic monitor.
//!
//! The paper's system is continuously operating — phones upload trips
//! whenever rides end — while the rest of this workspace is batch:
//! load a corpus, ingest, exit. This crate closes that gap with
//! `busprobe serve`: a resident process speaking a line-delimited JSON
//! protocol over a unix socket (or stdio) that feeds a **bounded
//! admission queue** in front of the existing stage/commit pipeline
//! and stays correct under overload, faults, and crashes:
//!
//! * **Backpressure / load shedding** — a full queue either blocks the
//!   producer, bounces the newcomer, or evicts the oldest entry
//!   ([`FullPolicy`]); a latency budget sheds entries that waited too
//!   long. Every shed, oversized or unparseable upload is attributed
//!   through the pipeline's `DropReason` counters and trace layer —
//!   under any overload, drops are counted, never silent.
//! * **Crash safety** — acknowledgements are withheld until the
//!   upload's WAL record is fsynced, so a producer that re-sends its
//!   unacked tail after a `kill -9` loses nothing, and the duplicate
//!   guard absorbs the overlap.
//! * **Graceful drain** — SIGTERM (or the `shutdown` command) stops
//!   admission, flushes the queue, releases the final acks, writes a
//!   last checkpoint and exits cleanly.
//! * **Watchdog** — a stalled commit loop is detected by a frozen
//!   heartbeat and fails fast with diagnostics instead of queueing
//!   forever.
//!
//! [`engine`] holds the admission queue, the commit loop and
//! [`dispatch`], the one door every decoded frame goes through;
//! [`protocol`] the wire format and its frame limit; [`net`] the one
//! connection reader, shared by the socket and stdio front ends, and a
//! client;
//! [`publish()`] the live map and metrics writer; [`signal`] the
//! dependency-free SIGTERM/SIGINT plumbing (the one module with FFI).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod net;
pub mod protocol;
mod publish;
pub mod queue;
#[allow(unsafe_code)]
pub mod signal;

pub use engine::{
    dispatch, Burst, EngineHandle, FatalHook, FullPolicy, ReplySink, ServeConfig, ServeEngine,
    ServeSummary, MAX_SAMPLES,
};
pub use net::{serve_stdio, serve_unix, LineHandler, StreamClient};
pub use protocol::{parse_line, Frame, Request};
pub use publish::publish;
pub use queue::{BoundedQueue, Depth, Popped};
