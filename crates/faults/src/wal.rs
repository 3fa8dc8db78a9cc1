//! Seeded storage-level fault injection for durable state directories.
//!
//! The upload faults in [`crate::FaultInjector`] model hostile *input*;
//! this module models hostile *disks*: what a crash, a torn write or a
//! decaying sector leaves behind in a `busprobe-store` state directory.
//! Damage is applied directly to the files — WAL segments (`*.wal`) and
//! snapshots (`*.snap`) — so recovery code can be exercised against
//! exactly the byte patterns real failures produce:
//!
//! * **truncated tail** — the last bytes of the newest segment vanish
//!   (power loss before the page made it out),
//! * **torn append** — a record header with no body (crash mid-append),
//! * **bit flips** — random single-bit damage anywhere in a segment
//!   (sector decay, transfer corruption),
//! * **snapshot flips** — the same, inside the newest snapshot, which
//!   recovery must detect and fall back from.
//!
//! Everything is seeded and deterministic: the same plan + seed +
//! directory contents produce the same damage, so crash-recovery tests
//! reproduce bit-for-bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// How much storage damage to inject into one state directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalFaultPlan {
    /// Cut this many bytes off the end of the newest WAL segment that
    /// holds any — the one the last record went to, which is not the
    /// newest when a checkpoint has since rolled the log to an empty
    /// segment (clamped to the segment length; 0 disables).
    pub truncate_tail_bytes: u64,
    /// Append a torn record — a valid-looking frame header whose body
    /// never made it to disk — of this many bytes to the newest segment
    /// (0 disables).
    pub torn_append_bytes: u64,
    /// Flip this many randomly-placed bits across the WAL segments.
    pub bit_flips: u32,
    /// Flip this many randomly-placed bits in the newest snapshot.
    pub snapshot_bit_flips: u32,
}

impl WalFaultPlan {
    /// No damage at all.
    #[must_use]
    pub fn clean() -> Self {
        WalFaultPlan {
            truncate_tail_bytes: 0,
            torn_append_bytes: 0,
            bit_flips: 0,
            snapshot_bit_flips: 0,
        }
    }

    /// A torn tail only: the canonical crash-mid-append shape.
    #[must_use]
    pub fn torn_tail(bytes: u64) -> Self {
        WalFaultPlan {
            truncate_tail_bytes: bytes,
            ..Self::clean()
        }
    }
}

impl Default for WalFaultPlan {
    fn default() -> Self {
        Self::clean()
    }
}

/// Exactly what one damage pass did (all counts are post-clamping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalFaultReport {
    /// WAL segments present in the directory.
    pub segments_seen: usize,
    /// Snapshot files present in the directory.
    pub snapshots_seen: usize,
    /// Bytes actually removed from the newest non-empty segment's tail.
    pub tail_bytes_truncated: u64,
    /// Bytes of torn (headless) record appended to the newest segment.
    pub torn_bytes_appended: u64,
    /// Bits flipped across WAL segments.
    pub wal_bits_flipped: u32,
    /// Bits flipped in the newest snapshot.
    pub snapshot_bits_flipped: u32,
}

/// The frame magic `busprobe-store` records begin with; a torn append
/// starts like a real record so recovery sees a genuine half-write, not
/// arbitrary garbage.
const RECORD_MAGIC: [u8; 4] = *b"BPW1";

/// Files in `dir` with extension `ext`, sorted by name (which for store
/// artifacts is sequence order).
fn files_with_ext(dir: &Path, ext: &str) -> io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    files.sort();
    Ok(files)
}

/// Flips one seeded-random bit in `path`; returns `false` when the file
/// is empty (nothing to flip).
fn flip_bit(path: &Path, rng: &mut StdRng) -> io::Result<bool> {
    let mut bytes = fs::read(path)?;
    if bytes.is_empty() {
        return Ok(false);
    }
    let at = rng.gen_range(0..bytes.len());
    let bit = rng.gen_range(0..8u32);
    bytes[at] ^= 1 << bit;
    fs::write(path, bytes)?;
    Ok(true)
}

/// Applies `plan` to the store directory `dir`, deterministically under
/// `seed`. Missing directories and empty plans are no-ops; the report
/// says exactly what was damaged.
pub fn damage_store_dir(
    dir: impl AsRef<Path>,
    plan: &WalFaultPlan,
    seed: u64,
) -> io::Result<WalFaultReport> {
    let dir = dir.as_ref();
    let mut report = WalFaultReport::default();
    if !dir.exists() {
        return Ok(report);
    }
    let segments = files_with_ext(dir, "wal")?;
    let snapshots = files_with_ext(dir, "snap")?;
    report.segments_seen = segments.len();
    report.snapshots_seen = snapshots.len();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57A1_F00D);

    if plan.truncate_tail_bytes > 0 {
        for path in segments.iter().rev() {
            let len = fs::metadata(path)?.len();
            if len > 0 {
                let cut = plan.truncate_tail_bytes.min(len);
                let file = fs::OpenOptions::new().write(true).open(path)?;
                file.set_len(len - cut)?;
                file.sync_all()?;
                report.tail_bytes_truncated = cut;
                break;
            }
        }
    }
    if let Some(newest) = segments.last() {
        if plan.torn_append_bytes > 0 {
            let mut torn = RECORD_MAGIC.to_vec();
            while (torn.len() as u64) < plan.torn_append_bytes {
                torn.push(rng.gen::<u8>());
            }
            torn.truncate(plan.torn_append_bytes.max(1) as usize);
            let mut bytes = fs::read(newest)?;
            bytes.extend_from_slice(&torn);
            fs::write(newest, bytes)?;
            report.torn_bytes_appended = torn.len() as u64;
        }
    }
    for _ in 0..plan.bit_flips {
        if segments.is_empty() {
            break;
        }
        let target = &segments[rng.gen_range(0..segments.len())];
        if flip_bit(target, &mut rng)? {
            report.wal_bits_flipped += 1;
        }
    }
    if let Some(newest) = snapshots.last() {
        for _ in 0..plan.snapshot_bit_flips {
            if flip_bit(newest, &mut rng)? {
                report.snapshot_bits_flipped += 1;
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("busprobe-walfault-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn seed_store(dir: &Path) {
        fs::write(dir.join("0000000000000000.wal"), vec![0xAB; 256]).unwrap();
        fs::write(dir.join("0000000000000008.wal"), vec![0xCD; 128]).unwrap();
        fs::write(dir.join("0000000000000008.snap"), vec![0xEF; 64]).unwrap();
    }

    #[test]
    fn damage_is_deterministic_for_a_seed() {
        let a = tmp_dir("det-a");
        let b = tmp_dir("det-b");
        seed_store(&a);
        seed_store(&b);
        let plan = WalFaultPlan {
            truncate_tail_bytes: 9,
            torn_append_bytes: 13,
            bit_flips: 4,
            snapshot_bit_flips: 2,
        };
        let ra = damage_store_dir(&a, &plan, 42).unwrap();
        let rb = damage_store_dir(&b, &plan, 42).unwrap();
        assert_eq!(ra, rb);
        for name in [
            "0000000000000000.wal",
            "0000000000000008.wal",
            "0000000000000008.snap",
        ] {
            assert_eq!(
                fs::read(a.join(name)).unwrap(),
                fs::read(b.join(name)).unwrap(),
                "{name} diverged"
            );
        }
        fs::remove_dir_all(&a).unwrap();
        fs::remove_dir_all(&b).unwrap();
    }

    #[test]
    fn truncation_hits_the_newest_segment_and_clamps() {
        let dir = tmp_dir("trunc");
        seed_store(&dir);
        let report = damage_store_dir(&dir, &WalFaultPlan::torn_tail(1_000_000), 7).unwrap();
        assert_eq!(report.tail_bytes_truncated, 128, "clamped to segment size");
        assert_eq!(
            fs::metadata(dir.join("0000000000000008.wal"))
                .unwrap()
                .len(),
            0
        );
        assert_eq!(
            fs::metadata(dir.join("0000000000000000.wal"))
                .unwrap()
                .len(),
            256,
            "older segments untouched"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_append_starts_with_the_record_magic() {
        let dir = tmp_dir("torn");
        seed_store(&dir);
        let plan = WalFaultPlan {
            torn_append_bytes: 11,
            ..WalFaultPlan::clean()
        };
        let report = damage_store_dir(&dir, &plan, 3).unwrap();
        assert_eq!(report.torn_bytes_appended, 11);
        let bytes = fs::read(dir.join("0000000000000008.wal")).unwrap();
        assert_eq!(bytes.len(), 128 + 11);
        assert_eq!(&bytes[128..132], b"BPW1");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// After a checkpoint's roll the newest segment is empty; the tear
    /// lands on the last record written, in the segment before it.
    #[test]
    fn a_torn_tail_skips_an_empty_newest_segment() {
        let dir = tmp_dir("rolled");
        seed_store(&dir);
        fs::write(dir.join("0000000000000010.wal"), b"").unwrap();
        let report = damage_store_dir(&dir, &WalFaultPlan::torn_tail(9), 3).unwrap();
        assert_eq!(report.tail_bytes_truncated, 9);
        let bytes = fs::read(dir.join("0000000000000008.wal")).unwrap();
        assert_eq!(bytes.len(), 128 - 9);
        assert!(fs::read(dir.join("0000000000000010.wal"))
            .unwrap()
            .is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_or_empty_dirs_are_noops() {
        let missing = std::env::temp_dir().join("busprobe-walfault-nonexistent");
        let report = damage_store_dir(
            &missing,
            &WalFaultPlan {
                truncate_tail_bytes: 5,
                torn_append_bytes: 5,
                bit_flips: 5,
                snapshot_bit_flips: 5,
            },
            1,
        )
        .unwrap();
        assert_eq!(report, WalFaultReport::default());

        let empty = tmp_dir("empty");
        let report = damage_store_dir(&empty, &WalFaultPlan::torn_tail(5), 1).unwrap();
        assert_eq!(report.segments_seen, 0);
        assert_eq!(report.tail_bytes_truncated, 0);
        fs::remove_dir_all(&empty).unwrap();
    }
}
