//! Property tests for the WAL framing: arbitrary payloads round-trip
//! bit-exactly, and arbitrary single-byte corruption or truncation of a
//! record stream is always detected, attributed and survived — replay
//! never panics and never mistakes damage for data.

use busprobe_store::frame;
use busprobe_store::wal::{self, ReplayReport};
use proptest::collection;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory per case (proptest cases run in one
/// process; the counter keeps them from clobbering each other).
fn case_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("busprobe-frameprop-{}-{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Concatenates `payloads` into one framed segment, returning the bytes
/// and each frame's end offset.
fn build_stream(payloads: &[Vec<u8>]) -> (Vec<u8>, Vec<usize>) {
    let mut buf = Vec::new();
    let mut boundaries = Vec::new();
    for (seq, payload) in payloads.iter().enumerate() {
        frame::encode(frame::RECORD_MAGIC, seq as u64, payload, &mut buf);
        boundaries.push(buf.len());
    }
    (buf, boundaries)
}

/// Writes `stream` as segment 0 and replays it.
fn replay(stream: &[u8]) -> (Vec<(u64, Vec<u8>)>, ReplayReport) {
    let dir = case_dir();
    std::fs::write(dir.join(wal::segment_file_name(0)), stream).unwrap();
    let mut records = Vec::new();
    let report = wal::replay_into(&dir, 0, &mut |seq, payload| {
        records.push((seq, payload.to_vec()));
    })
    .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    (records, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Encode → decode is the identity for any payload and sequence
    /// number, and the frame is fully consumed.
    #[test]
    fn frames_round_trip(
        payload in collection::vec(0u8..=255, 0..512),
        seq in 0u64..u64::MAX,
    ) {
        let mut buf = Vec::new();
        frame::encode(frame::RECORD_MAGIC, seq, &payload, &mut buf);
        let f = frame::decode(frame::RECORD_MAGIC, &buf).unwrap();
        prop_assert_eq!(f.seq, seq);
        prop_assert_eq!(f.payload, payload.as_slice());
        prop_assert_eq!(f.consumed, buf.len());
    }

    /// Any single flipped bit anywhere in a multi-record stream damages
    /// exactly one record: replay yields the other `n - 1` intact and
    /// reports exactly one anomaly — a skip when a later record follows,
    /// a corrupt tail when the last record was hit.
    #[test]
    fn single_bit_flip_loses_exactly_one_record(
        payloads in collection::vec(collection::vec(0u8..=255, 0..48), 1..10),
        flip_at in 0usize..1 << 16,
        flip_bit in 0u8..8,
    ) {
        let (clean, boundaries) = build_stream(&payloads);
        let mut buf = clean.clone();
        let at = flip_at % buf.len();
        buf[at] ^= 1 << flip_bit;
        let hit = boundaries.iter().position(|&end| at < end).unwrap();

        let (records, report) = replay(&buf);
        prop_assert_eq!(records.len(), payloads.len() - 1);
        prop_assert_eq!(report.anomalies.len(), 1, "{:?}", report.anomalies);
        if hit + 1 == payloads.len() {
            prop_assert_eq!(report.corrupt_tails(), 1);
        } else {
            prop_assert_eq!(report.skipped_records(), 1);
        }
        // The surviving records are bit-identical and in order.
        for (seq, payload) in &records {
            prop_assert_ne!(*seq as usize, hit);
            prop_assert_eq!(payload.as_slice(), payloads[*seq as usize].as_slice());
        }
    }

    /// Truncating the stream at any byte keeps every complete frame and
    /// reports the partial one as a corrupt tail — never a panic, never
    /// a phantom record.
    #[test]
    fn truncation_keeps_the_valid_prefix(
        payloads in collection::vec(collection::vec(0u8..=255, 0..48), 1..10),
        cut_at in 0usize..1 << 16,
    ) {
        let (clean, boundaries) = build_stream(&payloads);
        let cut = cut_at % (clean.len() + 1);
        let complete = boundaries.iter().filter(|&&end| end <= cut).count();

        let (records, report) = replay(&clean[..cut]);
        prop_assert_eq!(records.len(), complete);
        prop_assert_eq!(report.skipped_records(), 0);
        let torn = cut != 0 && !boundaries.contains(&cut);
        prop_assert_eq!(report.corrupt_tails(), u64::from(torn), "cut={cut}");
        for (seq, payload) in &records {
            prop_assert_eq!(payload.as_slice(), payloads[*seq as usize].as_slice());
        }
    }
}
