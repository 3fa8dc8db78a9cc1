//! Hostile bytes against the binary snapshot decoder and the snapshot
//! frame. The payload under attack is a real one: what `checkpoint`
//! writes after a durable ingest with online database updates, so every
//! section — config, fusion series, database, seen set, pending harvest
//! — is populated. Properties:
//! - every proper prefix of the payload is refused;
//! - a count field blown up to `u32::MAX` is refused before anything is
//!   allocated for it;
//! - seeded random byte flips never panic, and a mutant that decodes is
//!   a valid state: it re-encodes to bytes that decode to themselves;
//! - random mutations of the whole framed `.snap` file never panic
//!   `frame::decode`;
//! - a refused snapshot in a state dir is counted under
//!   `snapshots_skipped`, and recovery replays the WAL to the exact live
//!   state.

mod common;

use busprobe::core::{DbUpdater, MonitorConfig, PersistedState, TrafficMonitor, SNAPSHOT_FORMAT};
use busprobe::store::frame::{self, SNAPSHOT_MAGIC};
use busprobe::store::{snapshot, Store};
use busprobe_bench::World;
use common::TestWorld;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

const SEED: u64 = 29;

fn config() -> MonitorConfig {
    MonitorConfig {
        online_db_update: true,
        ..MonitorConfig::default()
    }
}

/// A checkpointed state dir after a durable ingest, with a database
/// refresh between two batches; the live monitor's exported state and
/// the snapshot payload it wrote.
struct Fixture {
    world: TestWorld,
    dir: PathBuf,
    seq: u64,
    payload: Vec<u8>,
    live: PersistedState,
}

impl Fixture {
    fn build(tag: &str) -> Self {
        let world = TestWorld::new(SEED, 4);
        let trips = World::small(SEED).ride_corpus(16, SEED);
        let dir = std::env::temp_dir().join(format!(
            "busprobe-fuzz-snapshot-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let monitor = world.monitor_with(config());
        monitor.attach_store_grouped(Store::open(&dir).unwrap(), 0, 1);
        let (first, second) = trips.split_at(trips.len() / 2);
        let _ = monitor.ingest_batch_parallel(first, 1);
        monitor.refresh_database();
        let _ = monitor.ingest_batch_parallel(second, 1);
        let seq = monitor.checkpoint().unwrap().expect("a store is attached");
        let file = std::fs::read(dir.join(snapshot::snapshot_file_name(seq))).unwrap();
        let payload = frame::decode(SNAPSHOT_MAGIC, &file)
            .unwrap()
            .payload
            .to_vec();
        let live = monitor.export_state();
        assert!(
            !live.seen.is_empty()
                && live.fusion.len() > 1
                && !live.database.is_empty()
                && live.updater != DbUpdater::new(config().updater),
            "every section is populated"
        );
        assert_eq!(payload[0], SNAPSHOT_FORMAT);
        assert_eq!(PersistedState::decode(&payload).as_ref(), Ok(&live));
        Fixture {
            world,
            dir,
            seq,
            payload,
            live,
        }
    }
}

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

/// The offset of every count field in a binary snapshot payload, found
/// by walking the layout `PersistedState::encode` documents. Ends with
/// the walk landing exactly on the last byte, which pins the layout.
fn count_offsets(p: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut count = |at: &mut usize| {
        offsets.push(*at);
        let n = u32_at(p, *at);
        *at += 4;
        n
    };
    // Format byte, commits, then the config text.
    let mut at = 1 + 8;
    let config_len = count(&mut at);
    at += config_len;
    // Period and inflation, then per segment: key, belief, last update
    // and the window series.
    at += 16;
    for _ in 0..count(&mut at) {
        at += 8 + 16 + 8;
        let windows = count(&mut at);
        at += 20 * windows;
    }
    // Database: site and cells.
    for _ in 0..count(&mut at) {
        at += 4;
        let cells = count(&mut at);
        at += 4 * cells;
    }
    let seen = count(&mut at);
    at += 8 * seen;
    // Updater config, then per site its pending fingerprints.
    at += 24;
    for _ in 0..count(&mut at) {
        at += 4;
        for _ in 0..count(&mut at) {
            let cells = count(&mut at);
            at += 4 * cells;
        }
    }
    assert_eq!(at, p.len(), "the walk covers the payload exactly");
    offsets
}

/// What a decoder may do with hostile bytes: refuse them, or return a
/// state that passed every check — one whose encoding decodes back to
/// the same bytes.
fn assert_refused_or_valid(bytes: &[u8], context: &str) {
    if let Ok(state) = PersistedState::decode(bytes) {
        let canonical = state.encode();
        let again = PersistedState::decode(&canonical).unwrap_or_else(|e| {
            panic!("{context}: a decoded state re-encodes to a refused one: {e:?}")
        });
        assert_eq!(again.encode(), canonical, "{context}: not a fixpoint");
    }
}

#[test]
fn every_truncation_is_refused() {
    let fx = Fixture::build("truncate");
    for cut in 0..fx.payload.len() {
        assert!(
            PersistedState::decode(&fx.payload[..cut]).is_err(),
            "a prefix of {cut} of {} bytes decoded",
            fx.payload.len()
        );
    }
    let _ = std::fs::remove_dir_all(&fx.dir);
}

#[test]
fn blown_up_counts_are_refused() {
    let fx = Fixture::build("counts");
    let offsets = count_offsets(&fx.payload);
    assert!(offsets.len() > 6, "{offsets:?}");
    for &at in &offsets {
        let mut bytes = fx.payload.clone();
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(
            PersistedState::decode(&bytes).is_err(),
            "count at {at} blown up to u32::MAX decoded"
        );
        // One more or one fewer element shifts every later field.
        for delta in [1usize, usize::MAX] {
            let n = u32_at(&fx.payload, at).wrapping_add(delta) as u32;
            bytes[at..at + 4].copy_from_slice(&n.to_le_bytes());
            assert_refused_or_valid(&bytes, &format!("count at {at} set to {n}"));
        }
    }
    let _ = std::fs::remove_dir_all(&fx.dir);
}

#[test]
fn random_byte_flips_never_panic() {
    let fx = Fixture::build("flips");
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut refused = 0;
    let rounds = 3_000;
    for round in 0..rounds {
        let mut bytes = fx.payload.clone();
        for _ in 0..rng.gen_range(1..=4) {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= rng.gen_range(1..=255u8);
        }
        refused += usize::from(PersistedState::decode(&bytes).is_err());
        assert_refused_or_valid(&bytes, &format!("round {round}"));
    }
    // Most bytes are float bits, which any pattern is a valid value of;
    // flips that land in counts, keys, cells or the config are refused.
    assert!(refused > 0 && refused < rounds, "{refused} of {rounds}");
    let _ = std::fs::remove_dir_all(&fx.dir);
}

#[test]
fn mutated_snapshot_frames_never_panic() {
    let fx = Fixture::build("frames");
    let mut file = Vec::new();
    frame::encode(SNAPSHOT_MAGIC, fx.seq, &fx.payload, &mut file);
    let mut rng = StdRng::seed_from_u64(SEED + 1);
    for _ in 0..2_000 {
        let mut bytes = file.clone();
        match rng.gen_range(0..3) {
            0 => {
                for _ in 0..rng.gen_range(1..=4) {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] ^= rng.gen_range(1..=255u8);
                }
            }
            1 => bytes.truncate(rng.gen_range(0..bytes.len())),
            _ => {
                // Overwrite a header field: magic, seq, length or CRC.
                let at = rng.gen_range(0..frame::HEADER_LEN - 3);
                let v: u32 = rng.gen();
                bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
            }
        }
        if let Ok(f) = frame::decode(SNAPSHOT_MAGIC, &bytes) {
            // A frame that still validates carries a payload the
            // decoder must survive too.
            assert_refused_or_valid(f.payload, "framed mutant");
        }
    }
    let _ = std::fs::remove_dir_all(&fx.dir);
}

/// A snapshot whose frame is intact but whose payload the decoder
/// refuses — a foreign format byte, a cut-short body — is skipped and
/// counted like a corrupt one, and the WAL rebuilds the exact state.
#[test]
fn refused_snapshots_fall_back_to_wal_replay() {
    let fx = Fixture::build("fallback");
    let mut foreign = fx.payload.clone();
    foreign[0] = SNAPSHOT_FORMAT + 1;
    let cut = fx.payload[..fx.payload.len() - 1].to_vec();
    for payload in [foreign, cut] {
        snapshot::write(&fx.dir, fx.seq, &payload).unwrap();
        let (monitor, summary) = TrafficMonitor::recover(
            fx.world.network.clone(),
            fx.world.db.clone(),
            config(),
            &fx.dir,
        )
        .unwrap();
        assert_eq!(summary.snapshots_skipped, 1, "{summary:?}");
        assert_eq!(summary.snapshot_seq, None, "{summary:?}");
        assert_eq!(summary.skipped_records, 0, "{summary:?}");
        assert_eq!(summary.replayed_commits, 16, "{summary:?}");
        assert_eq!(monitor.export_state(), fx.live);
    }
    let _ = std::fs::remove_dir_all(&fx.dir);
}
