//! The write-ahead log: size-rotated segment files of CRC32-framed
//! records, an appender that survives process restarts, and a replay
//! reader that self-synchronizes past damage instead of panicking.
//!
//! Segment files are named `<first-seq, 16 hex digits>.wal`, so a
//! lexicographic directory listing is also the sequence order and
//! compaction can drop a segment by comparing its *successor's* first
//! sequence number against the snapshot coverage point.

use crate::frame::{self, GROUP_MAGIC, HEADER_LEN, RECORD_MAGIC};
use crate::{StoreConfig, StoreMetrics};
use busprobe_telemetry::Counter;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// One anomaly encountered while replaying a damaged log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// Bytes mid-segment failed the frame checks but a later valid frame
    /// was found by scanning for the next magic; the damaged span was
    /// skipped and replay continued.
    SkippedRecord {
        /// First sequence number of the segment containing the damage.
        segment: u64,
        /// Byte offset of the damaged span within the segment.
        offset: u64,
        /// Bytes skipped to reach the next valid frame.
        bytes_skipped: u64,
    },
    /// The end of a segment was torn or truncated (no valid frame
    /// follows the damage); the tail was dropped.
    CorruptTail {
        /// First sequence number of the segment containing the damage.
        segment: u64,
        /// Byte offset where the valid prefix ends.
        offset: u64,
        /// Bytes dropped from the tail.
        bytes_dropped: u64,
    },
}

/// What a full replay of the log saw: volume, sequence range and every
/// anomaly, attributed to its segment and offset.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Valid records decoded.
    pub records: u64,
    /// Payload + header bytes of valid records.
    pub bytes: u64,
    /// Segments visited.
    pub segments: u64,
    /// Lowest sequence number seen, if any record decoded.
    pub first_seq: Option<u64>,
    /// Highest sequence number seen, if any record decoded.
    pub last_seq: Option<u64>,
    /// Every damaged span, in replay order.
    pub anomalies: Vec<ReplayOutcome>,
}

impl ReplayReport {
    /// Damaged spans that were skipped mid-segment.
    #[must_use]
    pub fn skipped_records(&self) -> u64 {
        self.anomalies
            .iter()
            .filter(|a| matches!(a, ReplayOutcome::SkippedRecord { .. }))
            .count() as u64
    }

    /// Torn or truncated segment tails.
    #[must_use]
    pub fn corrupt_tails(&self) -> u64 {
        self.anomalies
            .iter()
            .filter(|a| matches!(a, ReplayOutcome::CorruptTail { .. }))
            .count() as u64
    }
}

/// Formats the segment file name for a first sequence number.
#[must_use]
pub fn segment_file_name(first_seq: u64) -> String {
    format!("{first_seq:016x}.wal")
}

/// Parses `<16 hex>.wal` back into a first sequence number.
fn parse_segment_name(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(".wal")?;
    if stem.len() != 16 {
        return None;
    }
    u64::from_str_radix(stem, 16).ok()
}

/// All segment files under `dir`, sorted by first sequence number.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(seq) = name.to_str().and_then(parse_segment_name) {
            segments.push((seq, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(segments)
}

/// Fsyncs the directory `dir`, so the entries created or renamed in it
/// survive a power cut, and counts it in `fsyncs`
/// (`busprobe_store_dir_fsyncs_total`). WAL segments and snapshots
/// share this rule: a failure is returned, never ignored.
pub(crate) fn sync_dir(dir: &Path, fsyncs: &Counter) -> io::Result<()> {
    File::open(dir)?.sync_all()?;
    fsyncs.inc();
    Ok(())
}

/// Scans one segment buffer, calling `sink` for every valid frame and
/// recording anomalies against `segment` (its first sequence number).
///
/// After any frame error the scanner searches forward for the next
/// occurrence of the record magic that heads a fully valid frame; if one
/// exists the damage is a [`ReplayOutcome::SkippedRecord`], otherwise
/// the rest of the buffer is a [`ReplayOutcome::CorruptTail`]. Returns
/// the offset one past the last valid frame (the repair-truncation
/// point for a writer reopening this segment).
fn scan_segment(
    segment: u64,
    buf: &[u8],
    report: &mut ReplayReport,
    sink: &mut dyn FnMut(u64, &[u8]),
) -> usize {
    let mut offset = 0usize;
    let mut valid_end = 0usize;
    while offset < buf.len() {
        match decode_any(&buf[offset..]) {
            Ok(AnyFrame::Record(f)) => {
                report.records += 1;
                report.bytes += f.consumed as u64;
                report.first_seq = Some(report.first_seq.map_or(f.seq, |s| s.min(f.seq)));
                report.last_seq = Some(report.last_seq.map_or(f.seq, |s| s.max(f.seq)));
                sink(f.seq, f.payload);
                offset += f.consumed;
                valid_end = offset;
            }
            Ok(AnyFrame::Group(f)) => match frame::decode_group_payload(f.payload) {
                Some(members) => {
                    report.records += members.len() as u64;
                    report.bytes += f.consumed as u64;
                    if !members.is_empty() {
                        let last = f.seq + members.len() as u64 - 1;
                        report.first_seq = Some(report.first_seq.map_or(f.seq, |s| s.min(f.seq)));
                        report.last_seq = Some(report.last_seq.map_or(last, |s| s.max(last)));
                    }
                    for (i, member) in members.iter().enumerate() {
                        sink(f.seq + i as u64, member);
                    }
                    offset += f.consumed;
                    valid_end = offset;
                }
                None => {
                    // The CRC validated but the group structure didn't —
                    // a frame from an incompatible format version. Skip
                    // it whole, attributed like any other damaged span,
                    // and keep the bytes in place as evidence.
                    report.anomalies.push(ReplayOutcome::SkippedRecord {
                        segment,
                        offset: offset as u64,
                        bytes_skipped: f.consumed as u64,
                    });
                    offset += f.consumed;
                }
            },
            Err(_) => match next_valid_frame(&buf[offset + 1..]) {
                Some(delta) => {
                    let skip = delta + 1;
                    report.anomalies.push(ReplayOutcome::SkippedRecord {
                        segment,
                        offset: offset as u64,
                        bytes_skipped: skip as u64,
                    });
                    offset += skip;
                }
                None => {
                    report.anomalies.push(ReplayOutcome::CorruptTail {
                        segment,
                        offset: offset as u64,
                        bytes_dropped: (buf.len() - offset) as u64,
                    });
                    break;
                }
            },
        }
    }
    valid_end
}

/// A decoded frame of either record flavor.
enum AnyFrame<'a> {
    /// A plain single-payload record (`BPW1`).
    Record(frame::Frame<'a>),
    /// A group frame (`BPG1`) whose payload packs several records.
    Group(frame::Frame<'a>),
}

/// Decodes the frame at `buf[0]` as a record or a group frame. A torn
/// header that matches either magic prefix reports `Truncated` so the
/// tail-repair path still engages.
fn decode_any(buf: &[u8]) -> Result<AnyFrame<'_>, frame::FrameError> {
    match frame::decode(RECORD_MAGIC, buf) {
        Err(frame::FrameError::BadMagic) => frame::decode(GROUP_MAGIC, buf).map(AnyFrame::Group),
        other => other.map(AnyFrame::Record),
    }
}

/// Distance to the next offset in `buf` that decodes as a valid frame
/// of either flavor.
fn next_valid_frame(buf: &[u8]) -> Option<usize> {
    if buf.len() < HEADER_LEN {
        return None;
    }
    let mut from = 0usize;
    while let Some(pos) = find_magic(&buf[from..]) {
        let at = from + pos;
        if decode_any(&buf[at..]).is_ok() {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// First offset of either record magic in `buf`, if any.
fn find_magic(buf: &[u8]) -> Option<usize> {
    buf.windows(RECORD_MAGIC.len())
        .position(|w| w == RECORD_MAGIC || w == GROUP_MAGIC)
}

/// Replays every segment under `dir` in order, feeding valid records to
/// `sink` and accounting anomalies. `dir` may not exist yet (an empty
/// report is returned).
pub fn replay_into(dir: &Path, sink: &mut dyn FnMut(u64, &[u8])) -> io::Result<ReplayReport> {
    let mut report = ReplayReport::default();
    if !dir.exists() {
        return Ok(report);
    }
    for (first_seq, path) in list_segments(dir)? {
        let buf = fs::read(&path)?;
        report.segments += 1;
        scan_segment(first_seq, &buf, &mut report, sink);
    }
    Ok(report)
}

/// The appender: owns the active segment, assigns sequence numbers and
/// rotates segments at the size threshold.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    config: StoreConfig,
    file: BufWriter<File>,
    segment_first: u64,
    segment_bytes: u64,
    next_seq: u64,
    /// `next_seq` as of the last [`sync`](Self::sync) (or open).
    synced_seq: u64,
    /// A segment was created or opened since the last directory fsync,
    /// so its directory entry may not survive a power loss yet.
    dir_dirty: bool,
    scratch: Vec<u8>,
    metrics: StoreMetrics,
    /// Fault injection (tests only): the next fsync of the active
    /// segment fails; see [`Store::inject_io_faults`](crate::Store::inject_io_faults).
    pub(crate) fail_next_fsync: bool,
}

impl WalWriter {
    /// Opens (or creates) the log under `dir` and positions the writer
    /// after the last valid record.
    ///
    /// A torn tail on the newest segment is truncated away (replay
    /// already reported it); damage *between* valid records is left in
    /// place for replay to skip, so appending after recovery never
    /// overwrites evidence or valid data. `min_next_seq` floors the next
    /// sequence number — pass the newest snapshot's coverage point so
    /// sequence numbers stay monotone even when every covered segment
    /// has been compacted away.
    pub fn open(dir: &Path, config: StoreConfig, min_next_seq: u64) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let metrics = StoreMetrics::new();
        let segments = list_segments(dir)?;
        let mut next_seq = min_next_seq;
        let mut active: Option<(u64, PathBuf)> = None;
        if let Some((first_seq, path)) = segments.last() {
            let buf = fs::read(path)?;
            let mut report = ReplayReport::default();
            let valid_end = scan_segment(*first_seq, &buf, &mut report, &mut |_, _| {});
            if let Some(last) = report.last_seq {
                next_seq = next_seq.max(last + 1);
            }
            if valid_end < buf.len() {
                // Only trailing garbage is dropped; scan_segment keeps
                // everything up to the last frame that decodes.
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(valid_end as u64)?;
                file.sync_all()?;
            }
            active = Some((*first_seq, path.clone()));
        }
        // Also respect older segments' sequence numbers if the newest
        // segment was entirely unreadable.
        for (first_seq, _) in &segments {
            next_seq = next_seq.max(*first_seq);
        }
        let (segment_first, file, segment_bytes) = match active {
            Some((first_seq, path)) => {
                let file = OpenOptions::new().append(true).open(&path)?;
                let len = file.metadata()?.len();
                (first_seq, file, len)
            }
            None => {
                let path = dir.join(segment_file_name(next_seq));
                (next_seq, File::create(&path)?, 0)
            }
        };
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            config,
            file: BufWriter::new(file),
            segment_first,
            segment_bytes,
            next_seq,
            synced_seq: next_seq,
            dir_dirty: true,
            scratch: Vec::new(),
            metrics,
            fail_next_fsync: false,
        })
    }

    /// The sequence number the next append will receive.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Every record below this sequence number was covered by a
    /// completed [`sync`](Self::sync) — what an acknowledgement gated
    /// on durability may cover, and no more.
    #[must_use]
    pub fn synced_seq(&self) -> u64 {
        self.synced_seq
    }

    /// First sequence number of the active segment.
    #[must_use]
    pub fn active_segment(&self) -> u64 {
        self.segment_first
    }

    /// Appends `payloads` as the next records, at consecutive sequence
    /// numbers, and returns the first. One payload is written as a plain
    /// record frame, so logs from a group size of one are byte-identical
    /// to ungrouped logs; more share one group frame — one buffer write
    /// per group instead of one per record. An empty group writes
    /// nothing. The frame is buffered, rotating first when it would
    /// overflow the active segment; see [`StoreConfig`] for when it
    /// reaches the OS and disk.
    pub fn append_group(&mut self, payloads: &[Vec<u8>]) -> io::Result<u64> {
        let first = self.next_seq;
        self.scratch.clear();
        match payloads {
            [] => return Ok(first),
            [payload] => frame::encode(RECORD_MAGIC, first, payload, &mut self.scratch),
            _ => frame::encode_group(first, payloads, &mut self.scratch),
        }
        let len = self.scratch.len() as u64;
        if self.segment_bytes > 0 && self.segment_bytes + len > self.config.max_segment_bytes {
            self.rotate(first)?;
        }
        self.file.write_all(&self.scratch)?;
        self.segment_bytes += len;
        self.next_seq = first + payloads.len() as u64;
        self.metrics.wal_appends.add(payloads.len() as u64);
        self.metrics.wal_bytes.add(len);
        Ok(first)
    }

    /// Flushes and fsyncs the active segment, and the directory once
    /// after a segment was created or opened: `sync_data` on a new file
    /// does not make its directory entry durable.
    pub fn sync(&mut self) -> io::Result<()> {
        self.sync_segment()?;
        if self.dir_dirty {
            sync_dir(&self.dir, &self.metrics.dir_fsyncs)?;
            self.dir_dirty = false;
        }
        self.synced_seq = self.next_seq;
        Ok(())
    }

    /// Flushes the buffer and fsyncs the active segment's data: the one
    /// segment fsync, for [`sync`](Self::sync) and rotation alike.
    fn sync_segment(&mut self) -> io::Result<()> {
        self.file.flush()?;
        if std::mem::take(&mut self.fail_next_fsync) {
            return Err(io::Error::other("injected WAL fsync fault"));
        }
        self.file.get_ref().sync_data()?;
        self.metrics.wal_fsyncs.inc();
        Ok(())
    }

    /// Closes the active segment durably and starts a fresh one whose
    /// name is the sequence number of the record about to be written.
    fn rotate(&mut self, first_seq: u64) -> io::Result<()> {
        self.sync_segment()?;
        let path = self.dir.join(segment_file_name(first_seq));
        self.file = BufWriter::new(File::create(&path)?);
        self.dir_dirty = true;
        self.segment_first = first_seq;
        self.segment_bytes = 0;
        self.metrics.segments_rotated.inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("busprobe-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn collect(dir: &Path) -> (Vec<(u64, Vec<u8>)>, ReplayReport) {
        let mut records = Vec::new();
        let report = replay_into(dir, &mut |seq, payload| {
            records.push((seq, payload.to_vec()));
        })
        .unwrap();
        (records, report)
    }

    #[test]
    fn append_then_replay_round_trips() {
        let dir = tmp_dir("roundtrip");
        let mut wal = WalWriter::open(&dir, StoreConfig::default(), 0).unwrap();
        for i in 0u64..20 {
            let seq = wal
                .append_group(&[format!("payload-{i}").into_bytes()])
                .unwrap();
            assert_eq!(seq, i);
        }
        assert_eq!(wal.synced_seq(), 0, "appended, not yet synced");
        wal.sync().unwrap();
        assert_eq!(wal.synced_seq(), 20);
        let (records, report) = collect(&dir);
        assert_eq!(records.len(), 20);
        assert_eq!(records[7].0, 7);
        assert_eq!(records[7].1, b"payload-7");
        assert!(report.anomalies.is_empty());
        assert_eq!(report.last_seq, Some(19));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_continues_the_sequence() {
        let dir = tmp_dir("reopen");
        {
            let mut wal = WalWriter::open(&dir, StoreConfig::default(), 0).unwrap();
            wal.append_group(&[b"a".to_vec()]).unwrap();
            wal.append_group(&[b"b".to_vec()]).unwrap();
        }
        let mut wal = WalWriter::open(&dir, StoreConfig::default(), 0).unwrap();
        assert_eq!(wal.next_seq(), 2);
        wal.append_group(&[b"c".to_vec()]).unwrap();
        wal.sync().unwrap();
        let (records, _) = collect(&dir);
        assert_eq!(
            records.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_splits_segments_and_replay_spans_them() {
        let dir = tmp_dir("rotate");
        let config = StoreConfig {
            max_segment_bytes: 64,
        };
        let mut wal = WalWriter::open(&dir, config, 0).unwrap();
        for _ in 0..10 {
            wal.append_group(&[vec![0xAB; 30]]).unwrap();
        }
        wal.sync().unwrap();
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 1, "expected rotation: {segments:?}");
        let (records, report) = collect(&dir);
        assert_eq!(records.len(), 10);
        assert_eq!(report.segments, segments.len() as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_reported_and_truncated_on_reopen() {
        let dir = tmp_dir("torn");
        {
            let mut wal = WalWriter::open(&dir, StoreConfig::default(), 0).unwrap();
            for i in 0u64..5 {
                wal.append_group(&[format!("record-{i}").into_bytes()])
                    .unwrap();
            }
        }
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();

        let (records, report) = collect(&dir);
        assert_eq!(records.len(), 4, "torn record dropped");
        assert_eq!(report.corrupt_tails(), 1);
        assert_eq!(report.skipped_records(), 0);

        // Reopening repairs the tail and reuses the torn sequence number.
        let mut wal = WalWriter::open(&dir, StoreConfig::default(), 0).unwrap();
        assert_eq!(wal.next_seq(), 4);
        wal.append_group(&[b"replacement".to_vec()]).unwrap();
        wal.sync().unwrap();
        let (records, report) = collect(&dir);
        assert_eq!(records.len(), 5);
        assert!(report.anomalies.is_empty(), "tail repaired: {report:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_skipped_with_attribution() {
        let dir = tmp_dir("flip");
        {
            let mut wal = WalWriter::open(&dir, StoreConfig::default(), 0).unwrap();
            for i in 0u64..6 {
                wal.append_group(&[format!("record-{i}").into_bytes()])
                    .unwrap();
            }
        }
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut buf = fs::read(&path).unwrap();
        // Flip one payload byte of the second record (frames are
        // 20 + 8 = 28 bytes here).
        buf[28 + 22] ^= 0x40;
        fs::write(&path, &buf).unwrap();

        let (records, report) = collect(&dir);
        assert_eq!(records.len(), 5, "one record lost to the flip");
        assert_eq!(report.skipped_records(), 1);
        assert_eq!(report.corrupt_tails(), 0);
        assert_eq!(
            records.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![0, 2, 3, 4, 5],
            "replay resynchronized on the record after the flip"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_append_replays_as_consecutive_records() {
        let dir = tmp_dir("group");
        {
            let mut wal = WalWriter::open(&dir, StoreConfig::default(), 0).unwrap();
            wal.append_group(&[b"solo-0".to_vec()]).unwrap();
            let first = wal
                .append_group(&[b"g-1".to_vec(), b"g-2".to_vec(), b"g-3".to_vec()])
                .unwrap();
            assert_eq!(first, 1);
            assert_eq!(wal.next_seq(), 4);
            // A one-record group is a plain record frame on disk.
            assert_eq!(wal.append_group(&[b"solo-4".to_vec()]).unwrap(), 4);
            assert_eq!(wal.append_group(&[]).unwrap(), 5, "empty group is a no-op");
            assert_eq!(wal.next_seq(), 5);
        }
        let (records, report) = collect(&dir);
        assert_eq!(
            records,
            vec![
                (0, b"solo-0".to_vec()),
                (1, b"g-1".to_vec()),
                (2, b"g-2".to_vec()),
                (3, b"g-3".to_vec()),
                (4, b"solo-4".to_vec()),
            ]
        );
        assert_eq!(report.records, 5);
        assert_eq!(report.last_seq, Some(4));
        assert!(report.anomalies.is_empty());

        // Reopen resumes the sequence after the group.
        let wal = WalWriter::open(&dir, StoreConfig::default(), 0).unwrap();
        assert_eq!(wal.next_seq(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_group_frame_drops_the_whole_group() {
        let dir = tmp_dir("group-torn");
        {
            let mut wal = WalWriter::open(&dir, StoreConfig::default(), 0).unwrap();
            wal.append_group(&[b"keep".to_vec()]).unwrap();
            wal.append_group(&[b"lost-1".to_vec(), b"lost-2".to_vec()])
                .unwrap();
        }
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();

        let (records, report) = collect(&dir);
        assert_eq!(records, vec![(0, b"keep".to_vec())], "whole group dropped");
        assert_eq!(report.corrupt_tails(), 1);

        // Reopen repairs the tail; the group's sequence numbers are
        // reissued to the re-committed records.
        let mut wal = WalWriter::open(&dir, StoreConfig::default(), 0).unwrap();
        assert_eq!(wal.next_seq(), 1);
        wal.append_group(&[b"redo-1".to_vec(), b"redo-2".to_vec()])
            .unwrap();
        wal.sync().unwrap();
        let (records, report) = collect(&dir);
        assert_eq!(records.len(), 3);
        assert!(report.anomalies.is_empty(), "tail repaired: {report:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_resynchronizes_onto_a_group_frame() {
        let dir = tmp_dir("group-resync");
        {
            let mut wal = WalWriter::open(&dir, StoreConfig::default(), 0).unwrap();
            wal.append_group(&[b"victim".to_vec()]).unwrap();
            wal.append_group(&[b"after-1".to_vec(), b"after-2".to_vec()])
                .unwrap();
        }
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut buf = fs::read(&path).unwrap();
        buf[HEADER_LEN] ^= 0x10; // corrupt the first record's payload
        fs::write(&path, &buf).unwrap();

        let (records, report) = collect(&dir);
        assert_eq!(
            records,
            vec![(1, b"after-1".to_vec()), (2, b"after-2".to_vec())],
            "resync landed on the group frame"
        );
        assert_eq!(report.skipped_records(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_frames_rotate_segments_like_records() {
        let dir = tmp_dir("group-rotate");
        let config = StoreConfig {
            max_segment_bytes: 64,
        };
        let mut wal = WalWriter::open(&dir, config, 0).unwrap();
        for _ in 0..6 {
            wal.append_group(&[vec![0xCD; 20], vec![0xCE; 20]]).unwrap();
        }
        wal.sync().unwrap();
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 1, "expected rotation: {segments:?}");
        let (records, report) = collect(&dir);
        assert_eq!(records.len(), 12);
        assert_eq!(report.last_seq, Some(11));
        assert!(report.anomalies.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn min_next_seq_floors_an_empty_log() {
        let dir = tmp_dir("floor");
        let mut wal = WalWriter::open(&dir, StoreConfig::default(), 41).unwrap();
        assert_eq!(wal.next_seq(), 41);
        assert_eq!(wal.append_group(&[b"x".to_vec()]).unwrap(), 41);
        fs::remove_dir_all(&dir).unwrap();
    }
}
