//! Structured event logging into a bounded in-memory ring.

use crate::ring::Ring;
use std::fmt;
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity, ordered from chattiest to most urgent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Development tracing.
    Debug,
    /// Routine operational signals.
    Info,
    /// Degraded but recoverable conditions.
    Warn,
    /// Failures.
    Error,
}

impl Level {
    /// Lower-case label used by exporters.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Monotonic sequence number within the registry (never reused,
    /// so ring eviction is observable).
    pub seq: u64,
    /// Milliseconds since the Unix epoch at record time.
    pub epoch_ms: u64,
    /// Severity.
    pub level: Level,
    /// Component that emitted the event (e.g. `core::ingest`).
    pub target: String,
    /// Human-readable message.
    pub message: String,
}

/// Fixed-capacity ring of recent events; old entries are evicted.
/// Built on the shared [`Ring`], adding sequence-number assignment.
#[derive(Debug)]
pub(crate) struct EventRing {
    ring: Ring<Event>,
    next_seq: u64,
}

impl EventRing {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            ring: Ring::new(capacity),
            next_seq: 0,
        }
    }

    pub(crate) fn push(&mut self, level: Level, target: &str, message: String) {
        let epoch_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        self.ring.push(Event {
            seq: self.next_seq,
            epoch_ms,
            level,
            target: target.to_string(),
            message,
        });
        self.next_seq += 1;
    }

    pub(crate) fn snapshot(&self) -> Vec<Event> {
        self.ring.snapshot()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.ring.evicted()
    }

    pub(crate) fn clear(&mut self) {
        self.ring.clear();
        self.next_seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_keeps_sequence() {
        let mut ring = EventRing::new(3);
        for i in 0..5 {
            ring.push(Level::Info, "test", format!("event {i}"));
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 2);
        assert_eq!(events[2].seq, 4);
        assert_eq!(events[2].message, "event 4");
        assert_eq!(ring.dropped(), 2);
    }

    #[test]
    fn levels_order_by_severity() {
        assert!(Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn);
        assert!(Level::Warn < Level::Error);
        assert_eq!(Level::Warn.to_string(), "warn");
    }
}
