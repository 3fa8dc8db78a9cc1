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
    /// The kind of the first WAL write or fsync that failed, on any
    /// path: append, rotation, sync or a checkpoint's WAL fsync. Once
    /// set, every append, sync and checkpoint returns it; see
    /// [`failed`](Self::failed).
    failed: Option<io::ErrorKind>,
    /// Fault injection (tests only): the next append fails.
    fail_next_append: bool,
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
    /// newest snapshot's file name, so compacted history can never cause
    /// a sequence number to be reused. The name is enough: a snapshot is
    /// only written once the WAL reached its coverage point, and whether
    /// its payload is intact is [`recover`](Self::recover)'s question,
    /// not this one's.
    pub fn open_with(dir: impl AsRef<Path>, config: StoreConfig) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let floor = snapshot::list_snapshots(&dir)?
            .last()
            .map_or(0, |(seq, _)| *seq);
        let wal = WalWriter::open(&dir, config, floor)?;
        Ok(Store {
            dir,
            wal,
            metrics: StoreMetrics::new(),
            failed: None,
            fail_next_append: false,
        })
    }

    /// Fault injection for robustness tests: with `append`, the next
    /// [`append_group`](Self::append_group) fails before it touches the
    /// WAL; with `fsync`, the next WAL fsync fails after its buffer
    /// flush, whichever path runs it first — [`sync`](Self::sync), a
    /// [`checkpoint`](Self::checkpoint) or a segment rotation inside an
    /// append. Either failure latches the store like a real one, so one
    /// fault is all a test needs.
    pub fn inject_io_faults(&mut self, append: bool, fsync: bool) {
        self.fail_next_append = append;
        self.wal.fail_next_fsync = fsync;
    }

    /// The kind of the WAL write or fsync that failed, once one has.
    ///
    /// The first such failure is final. A failed fsync may already have
    /// dropped the dirty pages it was asked to write, and the kernel
    /// reports that only once, so a retried fsync that returns `Ok`
    /// proves nothing about the records before it. From then on every
    /// [`append_group`](Self::append_group), [`sync`](Self::sync) and
    /// [`checkpoint`](Self::checkpoint) returns an error of this kind
    /// without touching the WAL. A failed snapshot write or compaction
    /// does not latch: the WAL still holds every record it covers.
    #[must_use]
    pub fn failed(&self) -> Option<io::ErrorKind> {
        self.failed
    }

    /// The latched failure as an error, or `Ok` while the WAL is sound.
    fn check(&self) -> io::Result<()> {
        match self.failed {
            None => Ok(()),
            Some(kind) => Err(io::Error::new(
                kind,
                format!("durable store fail-stopped ({kind}); nothing since is durable"),
            )),
        }
    }

    /// Latches `result`'s error, if any, as the store's failure.
    fn latch<T>(&mut self, result: io::Result<T>) -> io::Result<T> {
        if let Err(e) = &result {
            self.failed = Some(e.kind());
        }
        result
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
    /// logs. A failure, the rotation's fsync included, latches the
    /// store (see [`failed`](Self::failed)).
    pub fn append_group(&mut self, payloads: &[Vec<u8>]) -> io::Result<u64> {
        self.check()?;
        let result = if std::mem::take(&mut self.fail_next_append) {
            Err(io::Error::other("injected WAL append fault"))
        } else {
            self.wal.append_group(payloads)
        };
        self.latch(result)
    }

    /// Flushes and fsyncs the WAL. A failure latches the store (see
    /// [`failed`](Self::failed)).
    pub fn sync(&mut self) -> io::Result<()> {
        self.check()?;
        let result = self.wal.sync();
        self.latch(result)
    }

    /// Writes `payload` as a snapshot covering everything appended so
    /// far, then compacts. The WAL is fsynced first, by [`sync`](Self::sync)
    /// and under its latch, so the snapshot never claims coverage of
    /// records that could still be lost, and nothing is compacted unless
    /// the snapshot's directory fsync succeeded. Returns the snapshot's
    /// coverage sequence number.
    pub fn checkpoint(&mut self, payload: &[u8]) -> io::Result<u64> {
        self.sync()?;
        let seq = self.wal.next_seq();
        snapshot::write(&self.dir, seq, payload)?;
        self.metrics.snapshots_written.inc();
        self.metrics.snapshot_bytes.record(payload.len() as f64);
        self.compact(seq)?;
        Ok(seq)
    }

    /// Deletes WAL segments fully covered by the snapshot at `covered`,
    /// which the caller has just written and fsynced, and snapshots
    /// older than it, and the temp files of snapshot writes that never
    /// reached their rename. A segment is covered when the *next*
    /// segment starts at or before the snapshot's coverage point (its
    /// own records then all have `seq < covered`); the active segment
    /// is never deleted.
    fn compact(&mut self, covered: u64) -> io::Result<()> {
        snapshot::remove_temp_files(&self.dir)?;
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
    fn open_floors_at_the_newest_snapshot_name_even_when_it_is_corrupt() {
        let dir = tmp_dir("corrupt-floor");
        let mut store = Store::open(&dir).unwrap();
        for _ in 0..5 {
            store.append_group(&[b"r".to_vec()]).unwrap();
        }
        store.checkpoint(b"covered").unwrap();
        drop(store);
        for (_, path) in wal::list_segments(&dir).unwrap() {
            fs::remove_file(path).unwrap();
        }
        let newest = dir.join(snapshot::snapshot_file_name(5));
        let mut buf = fs::read(&newest).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        fs::write(&newest, &buf).unwrap();
        assert_eq!(Store::recover(&dir).unwrap().snapshots_skipped, 1);

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.next_seq(), 5, "the name floors the sequence");
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

    /// Segment names in `dir`, oldest first.
    fn segment_seqs(dir: &Path) -> Vec<u64> {
        wal::list_segments(dir)
            .unwrap()
            .into_iter()
            .map(|(seq, _)| seq)
            .collect()
    }

    /// Recovered record sequence numbers.
    fn recovered_seqs(dir: &Path) -> Vec<u64> {
        let recovered = Store::recover(dir).unwrap();
        recovered.records.iter().map(|(seq, _)| *seq).collect()
    }

    #[test]
    fn a_failed_checkpoint_fsync_latches_the_store() {
        let dir = tmp_dir("checkpoint-fsync");
        let mut store = Store::open(&dir).unwrap();
        for _ in 0..3 {
            store.append_group(&[b"r".to_vec()]).unwrap();
        }
        store.inject_io_faults(false, true);
        let err = store
            .checkpoint(b"state")
            .expect_err("the WAL fsync failed");
        let kind = err.kind();
        assert_eq!(store.failed(), Some(kind));
        for _ in 0..3 {
            let later = store.sync().expect_err("a later sync reports the latch");
            assert_eq!(later.kind(), kind, "{later}");
        }
        assert_eq!(store.checkpoint(b"state").unwrap_err().kind(), kind);
        assert_eq!(
            store.append_group(&[b"late".to_vec()]).unwrap_err().kind(),
            kind
        );
        assert_eq!(store.next_seq(), 3, "nothing more was appended");
        drop(store);
        assert!(snapshot::list_snapshots(&dir).unwrap().is_empty());
        assert_eq!(recovered_seqs(&dir), vec![0, 1, 2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_rotation_fsync_latches_the_store() {
        let dir = tmp_dir("rotation-fsync");
        let config = StoreConfig {
            max_segment_bytes: 1,
        };
        let mut store = Store::open_with(&dir, config).unwrap();
        store.append_group(&[b"first".to_vec()]).unwrap();
        store.inject_io_faults(false, true);
        let err = store
            .append_group(&[b"second".to_vec()])
            .expect_err("the full segment's fsync failed");
        assert_eq!(store.failed(), Some(err.kind()));
        assert_eq!(store.sync().unwrap_err().kind(), err.kind());
        assert_eq!(store.next_seq(), 1);
        drop(store);
        assert_eq!(segment_seqs(&dir), vec![0], "no segment was started");
        assert_eq!(recovered_seqs(&dir), vec![0]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_checkpoint_removes_a_stray_snapshot_temp_file() {
        let dir = tmp_dir("stray-tmp");
        let mut store = Store::open(&dir).unwrap();
        store.append_group(&[b"r".to_vec()]).unwrap();
        // What a crash between a snapshot's write and its rename leaves.
        let stray = dir.join(format!("{}.tmp", snapshot::snapshot_file_name(1)));
        fs::write(&stray, b"half a snapshot").unwrap();
        store.append_group(&[b"r".to_vec()]).unwrap();
        assert_eq!(store.checkpoint(b"state").unwrap(), 2);
        assert!(
            !stray.exists(),
            "the stray temp file outlived the checkpoint"
        );
        fs::remove_dir_all(&dir).unwrap();
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
