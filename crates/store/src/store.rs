//! The [`Store`]: one state directory holding WAL segments and
//! snapshots, with append / checkpoint / compact / recover operations.
//! Appends go one way, [`Store::append_group`]: one payload is a plain
//! record frame, more share a group frame.

use crate::wal::{self, ReplayReport, WalWriter};
use crate::{snapshot, StoreMetrics};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Tuning for one store directory. Appends are buffered in-process and
/// reach the OS at segment rotation, [`Store::sync`] (checkpoints sync
/// first) and drop — so a clean exit or an unwinding panic loses
/// nothing, while a SIGKILL mid-batch may lose the buffered tail, which
/// recovery reports as a missing suffix and a resumed ingest re-commits.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Rotate to a fresh WAL segment once the active one reaches this
    /// size.
    pub max_segment_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            max_segment_bytes: 4 << 20,
        }
    }
}

/// Everything [`Store::recover`] read back from a state directory.
#[derive(Debug)]
pub struct Recovered {
    /// Coverage point and payload of the newest valid snapshot.
    pub snapshot: Option<(u64, Vec<u8>)>,
    /// WAL records past the snapshot's coverage point, in sequence
    /// order: `(seq, payload)`.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Full replay accounting, including skipped/torn spans.
    pub report: ReplayReport,
    /// Newer-but-corrupt snapshots that were skipped.
    pub snapshots_skipped: u64,
    /// Wall-clock seconds spent reading and validating.
    pub duration_s: f64,
}

/// A writable state directory: WAL appends, snapshot checkpoints and
/// compaction.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    wal: WalWriter,
    metrics: StoreMetrics,
    /// Fault injection (tests only): the next this-many appends fail.
    fault_appends: u32,
    /// Fault injection (tests only): the next this-many syncs fail.
    fault_syncs: u32,
}

impl Store {
    /// Opens (or creates) the store at `dir` with default tuning.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with(dir, StoreConfig::default())
    }

    /// Opens (or creates) the store at `dir`.
    ///
    /// Positions the appender after the last valid WAL record (repairing
    /// a torn tail by truncation) and floors the sequence counter at the
    /// newest snapshot's coverage point, so compacted history can never
    /// cause a sequence number to be reused.
    pub fn open_with(dir: impl AsRef<Path>, config: StoreConfig) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let floor = snapshot::latest_seq(&dir)?.unwrap_or(0);
        let wal = WalWriter::open(&dir, config, floor)?;
        Ok(Store {
            dir,
            wal,
            metrics: StoreMetrics::new(),
            fault_appends: 0,
            fault_syncs: 0,
        })
    }

    /// Fault injection for robustness tests: the next `appends` calls to
    /// [`append_group`](Self::append_group) and the next `syncs` calls to
    /// [`sync`](Self::sync) fail with a transient-looking
    /// [`io::ErrorKind::Interrupted`] error before touching the WAL,
    /// then the store behaves normally again. Models an I/O layer that
    /// hiccups and heals — the shape the commit path's bounded retry is
    /// built for.
    pub fn inject_io_faults(&mut self, appends: u32, syncs: u32) {
        self.fault_appends = appends;
        self.fault_syncs = syncs;
    }

    /// The state directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number the next append will receive — equivalently,
    /// the number of commits this directory has ever recorded.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// Every record below this sequence number was covered by a
    /// completed [`sync`](Self::sync) or checkpoint.
    #[must_use]
    pub fn synced_seq(&self) -> u64 {
        self.wal.synced_seq()
    }

    /// Appends `payloads` as one group frame (one buffer write, one
    /// frame on disk) occupying consecutive sequence numbers; returns
    /// the first. A single payload is written as a plain record frame,
    /// so logs from a group size of one are byte-identical to ungrouped
    /// logs. Fault injection charges a group as one append — it models
    /// one I/O operation.
    pub fn append_group(&mut self, payloads: &[Vec<u8>]) -> io::Result<u64> {
        if self.fault_appends > 0 {
            self.fault_appends -= 1;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected transient append fault",
            ));
        }
        self.wal.append_group(payloads)
    }

    /// Flushes and fsyncs the WAL.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.fault_syncs > 0 {
            self.fault_syncs -= 1;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected transient sync fault",
            ));
        }
        self.wal.sync()
    }

    /// Writes `payload` as a snapshot covering everything appended so
    /// far, then compacts. The WAL is fsynced first so the snapshot
    /// never claims coverage of records that could still be lost.
    /// Returns the snapshot's coverage sequence number.
    pub fn checkpoint(&mut self, payload: &[u8]) -> io::Result<u64> {
        self.wal.sync()?;
        let seq = self.wal.next_seq();
        snapshot::write(&self.dir, seq, payload)?;
        self.metrics.snapshots_written.inc();
        self.metrics.snapshot_bytes.record(payload.len() as f64);
        self.compact(seq)?;
        Ok(seq)
    }

    /// Deletes WAL segments fully covered by the snapshot at `covered`,
    /// which the caller has just written and fsynced, and snapshots
    /// older than it. A segment is covered when the *next* segment
    /// starts at or before the snapshot's coverage point (its own
    /// records then all have `seq < covered`); the active segment is
    /// never deleted.
    fn compact(&mut self, covered: u64) -> io::Result<()> {
        for (seq, path) in snapshot::list_snapshots(&self.dir)? {
            if seq < covered {
                fs::remove_file(path)?;
            }
        }
        let segments = wal::list_segments(&self.dir)?;
        let mut removed = 0u64;
        for window in segments.windows(2) {
            let (first, path) = &window[0];
            let (next_first, _) = &window[1];
            if *next_first <= covered && *first != self.wal.active_segment() {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        self.metrics.segments_compacted.add(removed);
        Ok(())
    }

    /// Read-only recovery: loads the newest valid snapshot and the WAL
    /// tail past its coverage point. Damaged records are skipped and
    /// attributed in the report — this never fails on corrupt *content*,
    /// only on I/O errors.
    pub fn recover(dir: impl AsRef<Path>) -> io::Result<Recovered> {
        Self::recover_with(dir, |_, _| true)
    }

    /// [`recover`](Self::recover) for a caller that can judge snapshot
    /// *content*: `accept(seq, payload)` is asked about each intact
    /// snapshot, newest first, and one it refuses is skipped and counted
    /// under [`Recovered::snapshots_skipped`] like a corrupt one, falling
    /// back to the next-newest and finally to a full WAL replay.
    pub fn recover_with(
        dir: impl AsRef<Path>,
        mut accept: impl FnMut(u64, &[u8]) -> bool,
    ) -> io::Result<Recovered> {
        let dir = dir.as_ref();
        let metrics = StoreMetrics::new();
        let start = Instant::now();
        let (snapshot, snapshots_skipped) = snapshot::load_latest_if(dir, &mut accept)?;
        let covered = snapshot.as_ref().map_or(0, |(seq, _)| *seq);
        let mut records: Vec<(u64, Vec<u8>)> = Vec::new();
        let report = wal::replay_into(dir, &mut |seq, payload| {
            if seq >= covered {
                records.push((seq, payload.to_vec()));
            }
        })?;
        let duration_s = start.elapsed().as_secs_f64();
        metrics.replay_records.add(records.len() as u64);
        metrics.replay_skipped.add(report.skipped_records());
        metrics.replay_corrupt_tails.add(report.corrupt_tails());
        metrics.snapshots_corrupt.add(snapshots_skipped);
        metrics.replay_seconds.record(duration_s);
        metrics.recovery_duration.record(duration_s);
        Ok(Recovered {
            snapshot,
            records,
            report,
            snapshots_skipped,
            duration_s,
        })
    }

    /// Whether `dir` already holds store artifacts (any WAL segment or
    /// snapshot file).
    pub fn exists(dir: impl AsRef<Path>) -> io::Result<bool> {
        let dir = dir.as_ref();
        if !dir.exists() {
            return Ok(false);
        }
        Ok(!wal::list_segments(dir)?.is_empty() || !snapshot::list_snapshots(dir)?.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("busprobe-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_compacts_covered_segments_and_recovery_uses_the_tail() {
        let dir = tmp_dir("checkpoint");
        let config = StoreConfig {
            max_segment_bytes: 64,
        };
        let mut store = Store::open_with(&dir, config).unwrap();
        for i in 0u64..12 {
            store
                .append_group(&[format!("record-{i:02}").into_bytes()])
                .unwrap();
        }
        let covered = store.checkpoint(b"state-after-12").unwrap();
        assert_eq!(covered, 12);
        // Everything before the checkpoint lives in rotated segments; all
        // but the active one are gone.
        let segments = wal::list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1, "compaction kept only the active segment");
        for i in 12u64..15 {
            store
                .append_group(&[format!("record-{i:02}").into_bytes()])
                .unwrap();
        }
        drop(store);

        let recovered = Store::recover(&dir).unwrap();
        assert_eq!(recovered.snapshot, Some((12, b"state-after-12".to_vec())));
        assert_eq!(
            recovered
                .records
                .iter()
                .map(|(s, _)| *s)
                .collect::<Vec<_>>(),
            vec![12, 13, 14],
            "only the tail past the snapshot replays"
        );
        assert!(recovered.report.anomalies.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_after_full_compaction_keeps_sequence_monotone() {
        let dir = tmp_dir("monotone");
        let mut store = Store::open(&dir).unwrap();
        for _ in 0..5 {
            store.append_group(&[b"r".to_vec()]).unwrap();
        }
        store.checkpoint(b"covered").unwrap();
        drop(store);
        // The active segment still holds seqs 0..5; delete it to model a
        // directory where compaction removed every covered segment.
        for (_, path) in wal::list_segments(&dir).unwrap() {
            fs::remove_file(path).unwrap();
        }
        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.next_seq(), 5, "snapshot floors the sequence");
        assert_eq!(store.append_group(&[b"next".to_vec()]).unwrap(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_on_missing_or_empty_dir_is_cold_start() {
        let dir = tmp_dir("cold");
        let recovered = Store::recover(&dir).unwrap();
        assert!(recovered.snapshot.is_none());
        assert!(recovered.records.is_empty());
        assert!(!Store::exists(&dir).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_open_resumes_counts() {
        let dir = tmp_dir("resume");
        {
            let mut store = Store::open(&dir).unwrap();
            store.append_group(&[b"a".to_vec()]).unwrap();
            store.append_group(&[b"b".to_vec()]).unwrap();
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.next_seq(), 2);
        assert!(Store::exists(&dir).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }
}
