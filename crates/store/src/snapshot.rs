//! Full-state snapshots: one framed payload per file, written
//! atomically (temp file + fsync + rename) and named
//! `<coverage-seq, 16 hex digits>.snap`.
//!
//! A snapshot at sequence number `S` captures the state after applying
//! WAL records `0..S`; recovery loads the newest snapshot that passes
//! its CRC and replays only records with `seq >= S`. A corrupt snapshot
//! is never fatal — the loader falls back to the next-newest one (and
//! ultimately to cold-start + full replay), counting what it skipped.
//! Compaction keeps two generations, so the next-newest is there to
//! fall back to, with every WAL segment after it.

use crate::frame::{self, HEADER_LEN, SNAPSHOT_MAGIC};
use crate::wal;
use std::fs::{self, File};
use std::io::{self, Write};
use std::ops::Deref;
use std::path::{Path, PathBuf};

/// Formats the snapshot file name for a coverage sequence number.
#[must_use]
pub fn snapshot_file_name(seq: u64) -> String {
    format!("{seq:016x}.snap")
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(".snap")?;
    if stem.len() != 16 {
        return None;
    }
    u64::from_str_radix(stem, 16).ok()
}

/// All snapshot files under `dir`, sorted by coverage sequence number.
pub fn list_snapshots(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut snaps = Vec::new();
    if !dir.exists() {
        return Ok(snaps);
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(seq) = name.to_str().and_then(parse_snapshot_name) {
            snaps.push((seq, entry.path()));
        }
    }
    snaps.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(snaps)
}

/// Writes `payload` as the snapshot covering `seq`, atomically: the
/// frame goes to a temp file, is fsynced, then renamed into place, so a
/// crash mid-write leaves either the old snapshot set or the new one —
/// never a half-written file under the snapshot name. The directory is
/// fsynced last, and its failure is returned: until then the rename
/// may not survive a power cut, so nothing may be compacted on it.
pub fn write(dir: &Path, seq: u64, payload: &[u8]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut buf = Vec::with_capacity(frame::HEADER_LEN + payload.len());
    frame::encode(SNAPSHOT_MAGIC, seq, payload, &mut buf);
    let final_path = dir.join(snapshot_file_name(seq));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_file_name(seq)));
    {
        let mut file = File::create(&tmp_path)?;
        file.write_all(&buf)?;
        file.sync_all()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    let fsyncs = busprobe_telemetry::counter("busprobe_store_dir_fsyncs_total");
    wal::sync_dir(dir, &fsyncs)
}

/// Deletes every `*.snap.tmp` under `dir`: what a [`write`] that
/// crashed or failed before its rename left behind. No listing reads
/// them, so nothing else would ever remove them.
pub(crate) fn remove_temp_files(dir: &Path) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|name| name.to_str());
        if name.is_some_and(|name| name.ends_with(".snap.tmp")) {
            fs::remove_file(&path)?;
        }
    }
    Ok(())
}

/// A loaded snapshot's payload, left in the buffer its file was read
/// into: the frame header stays in front of it, so a load copies
/// nothing. Dereferences to the payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotPayload {
    /// The whole file: one validated frame.
    frame: Vec<u8>,
}

impl Deref for SnapshotPayload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.frame[HEADER_LEN..]
    }
}

/// The newest valid snapshot as `(covered_seq, payload)`, if any.
pub type LoadedSnapshot = Option<(u64, SnapshotPayload)>;

/// Loads the newest snapshot that passes validation, returning its
/// coverage sequence number, its payload and how many newer snapshots
/// were skipped on the way. The payload's owner has a say: a snapshot
/// whose frame is intact but whose `(seq, payload)` the caller does not
/// `accept` — it does not decode, or decodes to something inconsistent
/// — is skipped and counted exactly like one that failed its CRC.
pub fn load_latest_if(
    dir: &Path,
    accept: &mut dyn FnMut(u64, &[u8]) -> bool,
) -> io::Result<(LoadedSnapshot, u64)> {
    let mut skipped = 0u64;
    for (seq, path) in list_snapshots(dir)?.into_iter().rev() {
        let buf = fs::read(&path)?;
        // A valid frame followed by trailing bytes is still corrupt: the
        // file must be exactly one frame, so its payload starts at
        // `HEADER_LEN` and runs to the end.
        let valid = frame::decode(SNAPSHOT_MAGIC, &buf)
            .is_ok_and(|f| f.consumed == buf.len() && f.seq == seq && accept(seq, f.payload));
        if valid {
            return Ok((Some((seq, SnapshotPayload { frame: buf })), skipped));
        }
        skipped += 1;
    }
    Ok((None, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("busprobe-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_then_load_round_trips_and_prefers_newest() {
        let dir = tmp_dir("roundtrip");
        write(&dir, 3, b"old state").unwrap();
        write(&dir, 9, b"new state").unwrap();
        let (loaded, skipped) = load_latest_if(&dir, &mut |_, _| true).unwrap();
        let (seq, payload) = loaded.unwrap();
        assert_eq!((seq, &payload[..]), (9, &b"new state"[..]));
        assert_eq!(skipped, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_falls_back_to_older() {
        let dir = tmp_dir("fallback");
        write(&dir, 3, b"good").unwrap();
        write(&dir, 9, b"doomed").unwrap();
        let newest = dir.join(snapshot_file_name(9));
        let mut buf = fs::read(&newest).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        fs::write(&newest, &buf).unwrap();

        let (loaded, skipped) = load_latest_if(&dir, &mut |_, _| true).unwrap();
        let (seq, payload) = loaded.unwrap();
        assert_eq!((seq, &payload[..]), (3, &b"good"[..]));
        assert_eq!(skipped, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_loads_nothing() {
        let dir = tmp_dir("empty");
        assert_eq!(load_latest_if(&dir, &mut |_, _| true).unwrap(), (None, 0));
        fs::remove_dir_all(&dir).unwrap();
    }
}
