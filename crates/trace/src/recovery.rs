//! The recovery trace: what crash recovery scanned, used and skipped.

use serde::Serialize;
use std::fmt::Write as _;

/// Provenance of one `Store::recover` pass — which snapshot seeded the
/// state, how much WAL was replayed, and what was skipped with
/// attribution. Rendered by `busprobe recover` and exportable next to
/// the per-trip traces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RecoveryTrace {
    /// WAL segment files read.
    pub wal_segments: u64,
    /// WAL segment files left unopened: the snapshot used covers every
    /// record in them.
    pub wal_segments_unread: u64,
    /// Coverage sequence of the snapshot used, if any survived.
    pub snapshot_seq: Option<u64>,
    /// Newer snapshots that failed validation and were passed over.
    pub snapshots_skipped: u64,
    /// With no snapshot to seed from, the first record the WAL still
    /// holds: every record before it was compacted away, and the state
    /// does not reflect them. 0 when a snapshot was used or nothing was
    /// lost.
    pub history_lost: u64,
    /// Commit records replayed from the WAL tail.
    pub replayed_commits: u64,
    /// Database-refresh markers replayed.
    pub replayed_refreshes: u64,
    /// Records skipped (CRC or decode failures), with attribution.
    pub skipped_records: u64,
    /// Torn segment tails truncated by an interrupted append.
    pub corrupt_tails: u64,
    /// Total commits the recovered monitor accounts for.
    pub commits: u64,
    /// Wall time of the recovery pass, seconds.
    pub duration_s: f64,
}

impl RecoveryTrace {
    /// A multi-line narrative of the recovery decision chain.
    #[must_use]
    pub fn narrative(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "recovery: scanned {} WAL segments in {:.3}s",
            self.wal_segments, self.duration_s
        );
        if self.wal_segments_unread > 0 {
            let _ = writeln!(
                out,
                "  left {} covered WAL segments unread",
                self.wal_segments_unread
            );
        }
        match self.snapshot_seq {
            Some(seq) => {
                let _ = writeln!(out, "  seeded from snapshot covering {seq} commits");
            }
            None if self.history_lost > 0 => {
                let lost = self.history_lost;
                let _ = writeln!(
                    out,
                    "  no usable snapshot; records before seq {lost} were compacted away"
                );
            }
            None => {
                let _ = writeln!(out, "  no usable snapshot; cold start + full WAL replay");
            }
        }
        if self.snapshots_skipped > 0 {
            let _ = writeln!(
                out,
                "  passed over {} corrupt newer snapshot(s)",
                self.snapshots_skipped
            );
        }
        let _ = writeln!(
            out,
            "  replayed {} commits and {} refreshes from the WAL tail",
            self.replayed_commits, self.replayed_refreshes
        );
        if self.skipped_records > 0 || self.corrupt_tails > 0 {
            let _ = writeln!(
                out,
                "  skipped {} damaged record(s), truncated {} torn segment tail(s)",
                self.skipped_records, self.corrupt_tails
            );
        }
        let _ = write!(out, "  state accounts for {} commits", self.commits);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrative_covers_the_damage_path() {
        let trace = RecoveryTrace {
            wal_segments: 3,
            wal_segments_unread: 2,
            snapshot_seq: Some(10),
            snapshots_skipped: 1,
            history_lost: 0,
            replayed_commits: 5,
            replayed_refreshes: 1,
            skipped_records: 2,
            corrupt_tails: 1,
            commits: 15,
            duration_s: 0.01,
        };
        let story = trace.narrative();
        assert!(story.contains("scanned 3 WAL segments"), "{story}");
        assert!(
            story.contains("left 2 covered WAL segments unread"),
            "{story}"
        );
        assert!(story.contains("snapshot covering 10"), "{story}");
        assert!(story.contains("passed over 1"), "{story}");
        assert!(story.contains("skipped 2 damaged"), "{story}");
        assert!(story.contains("accounts for 15 commits"), "{story}");
    }
}
