//! Durable commit records and full-state snapshots for the monitor.
//!
//! The stage/commit split leaves the monitor with exactly one mutation
//! point — the commit phase of [`TrafficMonitor`](crate::TrafficMonitor)
//! — applied in upload sequence order under one commit lock, which also
//! covers the WAL append. Durability
//! therefore reduces to a ledger of what each commit *does*: a
//! [`CommitRecord`] captures the upload digest, the near-duplicate
//! digests it registers, the harvest it feeds the updater and the
//! observations it folds into fusion. The live commit builds the record
//! and applies it; replay applies the same records in sequence order
//! through the same function, which reconstructs the state bit for bit
//! — the identical argument that makes parallel ingest equal serial
//! ingest makes recovery equal the never-crashed run.
//!
//! Records and snapshots ([`PersistedState`]) are encoded with one
//! hand-rolled little-endian binary codec (floats as IEEE-754 bit
//! patterns, so `NaN`s and signed zeros survive exactly, and every count
//! checked against the bytes left before anything is allocated); the
//! framing, CRC and fault tolerance live one layer down in
//! `busprobe-store`. A snapshot payload opens with
//! [`SNAPSHOT_FORMAT`]; payloads that open with `{` are the JSON
//! snapshots older state directories hold, still read on recovery.

use crate::database::StopFingerprintDb;
use crate::estimation::SpeedObservation;
use crate::fusion::{BayesianSpeed, SegmentFusion, SegmentState};
use crate::server::{IngestReport, MonitorConfig};
use crate::updater::{DbUpdater, UpdaterConfig};
use busprobe_cellular::{CellTowerId, Fingerprint};
use busprobe_network::{SegmentKey, StopSiteId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One harvested fingerprint: a sample taken during a
/// confidently-identified stop visit, destined for the online updater.
#[derive(Debug, Clone, PartialEq)]
pub struct HarvestEntry {
    /// The identified stop.
    pub site: StopSiteId,
    /// The sample's cell fingerprint.
    pub fingerprint: Fingerprint,
    /// The visit's Eq. (2) confidence.
    pub confidence: f64,
}

/// Everything one commit changed, exactly as it was applied.
///
/// The invariant that makes replay exact: each field holds what the
/// commit *actually did*, not what the staged upload proposed. A
/// rejected duplicate therefore carries no observations or harvest (its
/// only mutation was the digest insert), and a near-duplicate rejection
/// carries its digests but nothing downstream.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitRecord {
    /// Byte digest of the raw upload (always inserted into the seen set).
    pub digest: u64,
    /// Fuzzy near-duplicate digests registered by this commit, if the
    /// commit got far enough to register them.
    pub near_digests: Option<[u64; 2]>,
    /// Speed observations folded into fusion, in fold order.
    pub observations: Vec<SpeedObservation>,
    /// Updater harvest applied, in application order.
    pub harvest: Vec<HarvestEntry>,
    /// The report returned to the uploader (ledger only; replay does not
    /// re-deliver it).
    pub report: IngestReport,
}

/// One WAL record: a committed upload or a database refresh.
///
/// Refreshes mutate the updater (consuming pending harvests) and the
/// matcher database, so they are sequenced in the log like any other
/// mutation — replay re-runs the same deterministic election.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// One committed upload.
    Commit(CommitRecord),
    /// One [`TrafficMonitor::refresh_database`](crate::TrafficMonitor::refresh_database) call.
    Refresh,
}

/// Why a WAL or snapshot payload failed to decode (the framing CRC
/// already passed, so this indicates a version mismatch or a state that
/// contradicts itself, not disk damage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended mid-field.
    Truncated,
    /// Unknown record tag or snapshot format byte.
    BadTag,
    /// A field held an impossible value (length overrun, duplicate cells
    /// in a fingerprint, keys out of order, trailing bytes).
    Invalid,
}

const TAG_COMMIT: u8 = 1;
const TAG_REFRESH: u8 = 2;

const FLAG_NEAR_DIGESTS: u8 = 1;
const FLAG_DUPLICATE: u8 = 1;
const FLAG_NEAR_DUPLICATE: u8 = 2;
const FLAG_INTERNAL_ERROR: u8 = 4;

impl WalRecord {
    /// Encodes this record as a self-contained payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            WalRecord::Commit(c) => {
                out.push(TAG_COMMIT);
                c.encode_into(&mut out);
            }
            WalRecord::Refresh => out.push(TAG_REFRESH),
        }
        out
    }

    /// Decodes a payload produced by [`encode`](Self::encode). The whole
    /// payload must be consumed — trailing bytes are an error, so a
    /// record can never silently swallow a follow-on record.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let record = match r.u8()? {
            TAG_COMMIT => WalRecord::Commit(CommitRecord::decode_from(&mut r)?),
            TAG_REFRESH => WalRecord::Refresh,
            _ => return Err(CodecError::BadTag),
        };
        if r.remaining() != 0 {
            return Err(CodecError::Invalid);
        }
        Ok(record)
    }
}

impl CommitRecord {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_u64(self.digest);
        match &self.near_digests {
            Some(digests) => {
                out.push(FLAG_NEAR_DIGESTS);
                for &d in digests {
                    out.put_u64(d);
                }
            }
            None => out.push(0),
        }
        out.put_count(self.observations.len());
        for obs in &self.observations {
            out.put_key(obs.key);
            out.put_f64(obs.speed_mps);
            out.put_f64(obs.variance);
            out.put_f64(obs.time_s);
        }
        out.put_count(self.harvest.len());
        for entry in &self.harvest {
            out.put_u32(entry.site.0);
            out.put_f64(entry.confidence);
            out.put_fingerprint(&entry.fingerprint);
        }
        encode_report(&self.report, out);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let digest = r.u64()?;
        let near_digests = match r.u8()? {
            0 => None,
            FLAG_NEAR_DIGESTS => Some([r.u64()?, r.u64()?]),
            _ => return Err(CodecError::Invalid),
        };
        // Element sizes bound `with_capacity`, so a corrupt count cannot
        // request more memory than the payload could possibly hold.
        let observations = r.list(32, |r| {
            Ok(SpeedObservation {
                key: r.key()?,
                speed_mps: r.f64()?,
                variance: r.f64()?,
                time_s: r.f64()?,
            })
        })?;
        let harvest = r.list(16, |r| {
            Ok(HarvestEntry {
                site: StopSiteId(r.u32()?),
                confidence: r.f64()?,
                fingerprint: r.fingerprint()?,
            })
        })?;
        let report = decode_report(r)?;
        Ok(CommitRecord {
            digest,
            near_digests,
            observations,
            harvest,
            report,
        })
    }
}

fn encode_report(report: &IngestReport, out: &mut Vec<u8>) {
    let mut flags = 0u8;
    if report.duplicate {
        flags |= FLAG_DUPLICATE;
    }
    if report.near_duplicate {
        flags |= FLAG_NEAR_DUPLICATE;
    }
    if report.internal_error {
        flags |= FLAG_INTERNAL_ERROR;
    }
    out.push(flags);
    for n in [
        report.samples,
        report.kept,
        report.quarantined,
        report.scrubbed,
        report.matched,
        report.clusters,
        report.visits,
        report.salvage_dropped,
        report.observations,
    ] {
        out.put_u64(n as u64);
    }
    out.put_f64(report.clock_skew_s);
}

fn decode_report(r: &mut Reader<'_>) -> Result<IngestReport, CodecError> {
    let flags = r.u8()?;
    if flags & !(FLAG_DUPLICATE | FLAG_NEAR_DUPLICATE | FLAG_INTERNAL_ERROR) != 0 {
        return Err(CodecError::Invalid);
    }
    let mut fields = [0usize; 9];
    for field in &mut fields {
        *field = r.usize()?;
    }
    let clock_skew_s = r.f64()?;
    let [samples, kept, quarantined, scrubbed, matched, clusters, visits, salvage_dropped, observations] =
        fields;
    Ok(IngestReport {
        duplicate: flags & FLAG_DUPLICATE != 0,
        near_duplicate: flags & FLAG_NEAR_DUPLICATE != 0,
        internal_error: flags & FLAG_INTERNAL_ERROR != 0,
        samples,
        kept,
        quarantined,
        scrubbed,
        clock_skew_s,
        matched,
        clusters,
        visits,
        salvage_dropped,
        observations,
    })
}

/// Little-endian writes, floats as IEEE-754 bit patterns: the
/// counterpart of [`Reader`].
trait Put {
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
    fn put_f64(&mut self, v: f64);
    /// An element count, as the u32 [`Reader::count`] reads.
    fn put_count(&mut self, n: usize);
    fn put_key(&mut self, key: SegmentKey);
    fn put_speed(&mut self, speed: BayesianSpeed);
    fn put_fingerprint(&mut self, fingerprint: &Fingerprint);
}

impl Put for Vec<u8> {
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    fn put_count(&mut self, n: usize) {
        self.put_u32(u32::try_from(n).expect("no list in the state holds 2^32 items"));
    }

    fn put_key(&mut self, key: SegmentKey) {
        self.put_u32(key.from.0);
        self.put_u32(key.to.0);
    }

    fn put_speed(&mut self, speed: BayesianSpeed) {
        self.put_f64(speed.mean_mps);
        self.put_f64(speed.variance);
    }

    fn put_fingerprint(&mut self, fingerprint: &Fingerprint) {
        let cells = fingerprint.cells();
        self.put_count(cells.len());
        for cell in cells {
            self.put_u32(cell.0);
        }
    }
}

/// Bounds-checked little-endian reader over a WAL or snapshot payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Invalid)
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A u32 element count, validated against the bytes actually left
    /// (`min_element_bytes` each), so corrupt counts fail cleanly.
    fn count(&mut self, min_element_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_element_bytes) > self.remaining() {
            return Err(CodecError::Invalid);
        }
        Ok(n)
    }

    fn key(&mut self) -> Result<SegmentKey, CodecError> {
        Ok(SegmentKey {
            from: StopSiteId(self.u32()?),
            to: StopSiteId(self.u32()?),
        })
    }

    fn speed(&mut self) -> Result<BayesianSpeed, CodecError> {
        Ok(BayesianSpeed {
            mean_mps: self.f64()?,
            variance: self.f64()?,
        })
    }

    /// A fingerprint; one naming a cell twice is invalid.
    fn fingerprint(&mut self) -> Result<Fingerprint, CodecError> {
        let cells = self.list(4, |r| r.u32().map(CellTowerId))?;
        Fingerprint::new(cells).map_err(|_| CodecError::Invalid)
    }

    /// A count-prefixed list of `item`s, `min_item_bytes` each at least.
    fn list<T>(
        &mut self,
        min_item_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.count(min_item_bytes)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// A [`list`](Self::list) of `(key, value)` entries whose keys must
    /// strictly ascend — how every map in a snapshot is stored, so a
    /// duplicated or reordered key is refused, never merged.
    fn ascending<K: Ord, V>(
        &mut self,
        min_entry_bytes: usize,
        entry: impl FnMut(&mut Self) -> Result<(K, V), CodecError>,
    ) -> Result<Vec<(K, V)>, CodecError> {
        let entries = self.list(min_entry_bytes, entry)?;
        if entries.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
            return Err(CodecError::Invalid);
        }
        Ok(entries)
    }
}

/// The leading byte of a binary snapshot payload. It is never `{`,
/// which opens the legacy JSON payloads older state directories hold.
pub const SNAPSHOT_FORMAT: u8 = 1;

/// The complete durable state of a monitor, as written into snapshots.
///
/// Besides the traffic beliefs, database and seen set it carries the
/// updater's pending harvest (so a refresh after recovery elects from
/// the same candidates) and the WAL coverage point.
///
/// A snapshot payload is [`encode`](Self::encode)'s binary layout: the
/// [`SNAPSHOT_FORMAT`] byte, then, little-endian with counts as u32 and
/// floats as their bits,
/// - `commits` (u64);
/// - the config as length-prefixed JSON text (read once, compared only
///   to warn, and its fields change whenever a knob is added);
/// - fusion: period, inflation, then per segment in key order its key,
///   belief, last update and `(window, belief)` series;
/// - the database: per site in order, the site and its cells;
/// - `seen`, sorted, 8 bytes each;
/// - the updater: its config, then per site in order its pending
///   fingerprints.
///
/// Every map is stored in ascending key order and `seen` sorted, so the
/// bytes are a function of the state. The `Serialize` / `Deserialize`
/// form is the legacy JSON payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PersistedState {
    /// WAL sequence number this snapshot covers (records `0..commits`
    /// are folded in).
    pub commits: u64,
    /// The configuration the state was produced under. Recovery warns
    /// when it differs from the active one: replay under different
    /// parameters is well-defined but no longer bit-identical.
    pub config: MonitorConfig,
    /// Accumulated traffic beliefs and time series.
    pub fusion: SegmentFusion,
    /// The (possibly online-updated) fingerprint database.
    pub database: StopFingerprintDb,
    /// Digests of ingested uploads, sorted.
    pub seen: Vec<u64>,
    /// The online updater, including its pending harvest.
    pub updater: DbUpdater,
}

impl PersistedState {
    /// The state of a monitor that has ingested nothing: `db` as
    /// surveyed, no beliefs, nothing seen, an idle updater.
    pub(crate) fn fresh(database: StopFingerprintDb, config: MonitorConfig) -> Self {
        PersistedState {
            commits: 0,
            config,
            fusion: SegmentFusion::paper_default(),
            database,
            seen: Vec::new(),
            updater: DbUpdater::new(config.updater),
        }
    }

    /// Encodes this state as a binary snapshot payload (layout above).
    /// `seen` must be sorted, as [`export_state`] leaves it.
    ///
    /// [`export_state`]: crate::TrafficMonitor::export_state
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let config = serde_json::to_vec(&self.config).expect("the JSON writer is infallible");
        let fusion = self.fusion.segments();
        let windows: usize = fusion.values().map(|s| s.windows.len()).sum();
        let mut out = Vec::with_capacity(
            64 + config.len() + 36 * fusion.len() + 20 * windows + 8 * self.seen.len(),
        );
        out.push(SNAPSHOT_FORMAT);
        out.put_u64(self.commits);
        out.put_count(config.len());
        out.extend_from_slice(&config);

        out.put_f64(self.fusion.period_s());
        out.put_f64(self.fusion.inflation_per_period());
        out.put_count(fusion.len());
        for (&key, segment) in fusion {
            out.put_key(key);
            out.put_speed(segment.belief);
            out.put_f64(segment.last_s);
            out.put_count(segment.windows.len());
            for &(window, speed) in &segment.windows {
                out.put_u32(window);
                out.put_speed(speed);
            }
        }

        out.put_count(self.database.len());
        for (site, fingerprint) in self.database.iter() {
            out.put_u32(site.0);
            out.put_fingerprint(fingerprint);
        }

        out.put_count(self.seen.len());
        for &digest in &self.seen {
            out.put_u64(digest);
        }

        let updater = self.updater.config();
        out.put_f64(updater.min_confidence);
        out.put_u64(updater.min_samples as u64);
        out.put_u64(updater.max_samples as u64);
        let pending = self.updater.pending();
        out.put_count(pending.len());
        for (site, fingerprints) in pending {
            out.put_u32(site.0);
            out.put_count(fingerprints.len());
            for fingerprint in fingerprints {
                out.put_fingerprint(fingerprint);
            }
        }
        out
    }

    /// Decodes a binary snapshot payload produced by
    /// [`encode`](Self::encode). A payload that opens with any byte but
    /// [`SNAPSHOT_FORMAT`] is [`CodecError::BadTag`]; keys that do not
    /// strictly ascend, an unsorted or repeated `seen`, a fusion state
    /// [`SegmentFusion`] refuses and trailing bytes are
    /// [`CodecError::Invalid`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        if r.u8()? != SNAPSHOT_FORMAT {
            return Err(CodecError::BadTag);
        }
        let commits = r.u64()?;
        let config_len = r.count(1)?;
        let config =
            serde_json::from_slice(r.take(config_len)?).map_err(|_| CodecError::Invalid)?;

        let period_s = r.f64()?;
        let inflation_per_period = r.f64()?;
        let segments = r.ascending(36, |r| {
            let key = r.key()?;
            let belief = r.speed()?;
            let last_s = r.f64()?;
            let windows = r.list(20, |r| Ok((r.u32()?, r.speed()?)))?;
            Ok((
                key,
                SegmentState {
                    belief,
                    last_s,
                    windows,
                },
            ))
        })?;
        let fusion = SegmentFusion::from_segments(period_s, inflation_per_period, segments)
            .map_err(|_| CodecError::Invalid)?;

        let database = r
            .ascending(8, |r| Ok((StopSiteId(r.u32()?), r.fingerprint()?)))?
            .into_iter()
            .collect();

        let seen = r.list(8, Reader::u64)?;
        if seen.windows(2).any(|pair| pair[0] >= pair[1]) {
            return Err(CodecError::Invalid);
        }

        let updater_config = UpdaterConfig {
            min_confidence: r.f64()?,
            min_samples: r.usize()?,
            max_samples: r.usize()?,
        };
        let pending: BTreeMap<_, _> = r
            .ascending(8, |r| {
                Ok((StopSiteId(r.u32()?), r.list(4, Reader::fingerprint)?))
            })?
            .into_iter()
            .collect();

        if r.remaining() != 0 {
            return Err(CodecError::Invalid);
        }
        Ok(PersistedState {
            commits,
            config,
            fusion,
            database,
            seen,
            updater: DbUpdater::with_pending(updater_config, pending),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> CommitRecord {
        CommitRecord {
            digest: 0xDEAD_BEEF_0123_4567,
            near_digests: Some([1, u64::MAX]),
            observations: vec![
                SpeedObservation {
                    key: SegmentKey {
                        from: StopSiteId(3),
                        to: StopSiteId(4),
                    },
                    speed_mps: 7.25,
                    variance: 0.5,
                    time_s: 1234.75,
                },
                SpeedObservation {
                    key: SegmentKey {
                        from: StopSiteId(4),
                        to: StopSiteId(9),
                    },
                    speed_mps: f64::NAN,
                    variance: -0.0,
                    time_s: f64::INFINITY,
                },
            ],
            harvest: vec![HarvestEntry {
                site: StopSiteId(11),
                fingerprint: Fingerprint::new(vec![
                    CellTowerId(5),
                    CellTowerId(2),
                    CellTowerId(19),
                ])
                .unwrap(),
                confidence: 6.5,
            }],
            report: IngestReport {
                samples: 40,
                kept: 38,
                quarantined: 2,
                scrubbed: 1,
                clock_skew_s: -3.5,
                matched: 30,
                clusters: 5,
                visits: 4,
                salvage_dropped: 1,
                observations: 2,
                ..IngestReport::default()
            },
        }
    }

    /// Bit-exact equality that treats NaN payloads as bytes, matching
    /// what replay actually folds into fusion.
    fn assert_bits_equal(a: &CommitRecord, b: &CommitRecord) {
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.near_digests, b.near_digests);
        assert_eq!(a.harvest, b.harvest);
        assert_eq!(a.observations.len(), b.observations.len());
        for (x, y) in a.observations.iter().zip(&b.observations) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.speed_mps.to_bits(), y.speed_mps.to_bits());
            assert_eq!(x.variance.to_bits(), y.variance.to_bits());
            assert_eq!(x.time_s.to_bits(), y.time_s.to_bits());
        }
        assert_eq!(
            a.report.clock_skew_s.to_bits(),
            b.report.clock_skew_s.to_bits()
        );
    }

    #[test]
    fn commit_record_round_trips_including_nan_bits() {
        let record = WalRecord::Commit(sample_record());
        let decoded = WalRecord::decode(&record.encode()).unwrap();
        let (WalRecord::Commit(want), WalRecord::Commit(got)) = (&record, &decoded) else {
            panic!("tag changed");
        };
        assert_bits_equal(want, got);
    }

    #[test]
    fn refresh_round_trips() {
        assert_eq!(
            WalRecord::decode(&WalRecord::Refresh.encode()),
            Ok(WalRecord::Refresh)
        );
    }

    #[test]
    fn truncation_and_trailing_bytes_are_errors_not_panics() {
        let bytes = WalRecord::Commit(sample_record()).encode();
        for cut in 0..bytes.len() {
            assert!(
                WalRecord::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(WalRecord::decode(&padded), Err(CodecError::Invalid));
        assert_eq!(WalRecord::decode(&[9]), Err(CodecError::BadTag));
        assert_eq!(WalRecord::decode(&[]), Err(CodecError::Truncated));
    }

    #[test]
    fn corrupt_counts_fail_cleanly() {
        let mut bytes = WalRecord::Commit(sample_record()).encode();
        // The observation count sits after tag(1) + digest(8) + flag(1) +
        // near(16); blow it up.
        bytes[26..30].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(WalRecord::decode(&bytes).is_err());
    }

    fn sample_state() -> PersistedState {
        let mut state = PersistedState::fresh(StopFingerprintDb::new(), MonitorConfig::default());
        let fp = |cells: &[u32]| Fingerprint::new(cells.iter().map(|&c| CellTowerId(c)).collect());
        let key = |from, to| SegmentKey::new(StopSiteId(from), StopSiteId(to));
        state.commits = 41;
        state.fusion.observe(key(2, 3), 10.0, 6.0, 1.0);
        state.fusion.observe(key(2, 3), 650.0, 7.5, 0.5);
        state.fusion.observe(key(1, 9), -20.0, f64::NAN, 2.0);
        state
            .database
            .insert(StopSiteId(7), fp(&[4, 1, 8]).unwrap());
        state.database.insert(StopSiteId(2), fp(&[]).unwrap());
        state.seen = vec![0, 5, u64::MAX];
        state
            .updater
            .record(StopSiteId(7), fp(&[1, 4]).unwrap(), 9.0);
        state.updater.record(StopSiteId(7), fp(&[8]).unwrap(), 5.0);
        state.updater.record(StopSiteId(3), fp(&[2]).unwrap(), 6.0);
        state
    }

    #[test]
    fn snapshot_round_trips_to_the_same_bytes() {
        let state = sample_state();
        let bytes = state.encode();
        assert_eq!(bytes[0], SNAPSHOT_FORMAT);
        assert_eq!(bytes, sample_state().encode(), "encoding is deterministic");
        let decoded = PersistedState::decode(&bytes).unwrap();
        // NaN != NaN, so compare through the bit-exact encoding, and the
        // NaN-free fields directly.
        assert_eq!(decoded.encode(), bytes);
        assert_eq!(
            (&decoded.database, &decoded.seen, &decoded.updater),
            (&state.database, &state.seen, &state.updater)
        );
        assert_eq!(decoded.config, state.config);
        let empty = PersistedState::fresh(StopFingerprintDb::new(), MonitorConfig::default());
        assert_eq!(PersistedState::decode(&empty.encode()), Ok(empty));
    }

    #[test]
    fn snapshot_truncation_trailing_bytes_and_foreign_formats_are_refused() {
        let bytes = sample_state().encode();
        for cut in 0..bytes.len() {
            assert!(PersistedState::decode(&bytes[..cut]).is_err(), "{cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(PersistedState::decode(&padded), Err(CodecError::Invalid));
        assert_eq!(PersistedState::decode(b"{}"), Err(CodecError::BadTag));
    }

    #[test]
    fn unsorted_or_repeated_seen_digests_are_invalid() {
        for seen in [vec![5, 0], vec![5, 5]] {
            let mut state = sample_state();
            state.seen = seen;
            assert_eq!(
                PersistedState::decode(&state.encode()),
                Err(CodecError::Invalid)
            );
        }
    }

    #[test]
    fn segments_out_of_key_order_are_invalid() {
        let state = sample_state();
        let mut bytes = state.encode();
        let config = serde_json::to_vec(&state.config).unwrap().len();
        // Segment (1,9) holds one window, (2,3) two: swap the blocks so
        // each is intact but the keys descend.
        let at = 1 + 8 + 4 + config + 8 + 8 + 4;
        let (first, second) = (36 + 20, 36 + 2 * 20);
        bytes[at..at + first + second].rotate_left(first);
        assert_eq!(PersistedState::decode(&bytes), Err(CodecError::Invalid));
        bytes[at..at + first + second].rotate_right(first);
        assert!(
            PersistedState::decode(&bytes).is_ok(),
            "the splice is exact"
        );
    }

    #[test]
    fn duplicate_cells_in_a_harvest_fingerprint_are_invalid() {
        let mut record = sample_record();
        record.harvest.clear();
        record.observations.clear();
        let mut bytes = WalRecord::Commit(record).encode();
        // Splice a harvest entry with duplicate cells: rewrite the
        // harvest count (after tag+digest+flag+near+obs count) and insert
        // an entry by hand.
        let harvest_count_at = 1 + 8 + 1 + 16 + 4;
        bytes[harvest_count_at..harvest_count_at + 4].copy_from_slice(&1u32.to_le_bytes());
        let mut entry = Vec::new();
        entry.extend_from_slice(&7u32.to_le_bytes()); // site
        entry.extend_from_slice(&9.0f64.to_bits().to_le_bytes()); // confidence
        entry.extend_from_slice(&2u32.to_le_bytes()); // two cells...
        entry.extend_from_slice(&3u32.to_le_bytes());
        entry.extend_from_slice(&3u32.to_le_bytes()); // ...the same cell
        let at = harvest_count_at + 4;
        bytes.splice(at..at, entry);
        assert_eq!(WalRecord::decode(&bytes), Err(CodecError::Invalid));
    }
}
