//! Durable commit records and full-state snapshots for the monitor.
//!
//! The stage/commit split leaves the monitor with exactly one mutation
//! point — the commit phase of [`TrafficMonitor`](crate::TrafficMonitor)
//! — applied in upload sequence order by a single thread. Durability
//! therefore reduces to a ledger of what each commit *does*: a
//! [`CommitRecord`] captures the upload digest, the near-duplicate
//! digests it registers, the harvest it feeds the updater and the
//! observations it folds into fusion. The live commit builds the record
//! and applies it; replay applies the same records in sequence order
//! through the same function, which reconstructs the state bit for bit
//! — the identical argument that makes parallel ingest equal serial
//! ingest makes recovery equal the never-crashed run.
//!
//! Records are encoded with a hand-rolled little-endian binary codec
//! (floats as IEEE-754 bit patterns, so `NaN`s and signed zeros survive
//! exactly); the framing, CRC and fault tolerance live one layer down in
//! `busprobe-store`. Snapshots are JSON ([`PersistedState`]): they are
//! rare and human-inspectable.

use crate::database::StopFingerprintDb;
use crate::estimation::SpeedObservation;
use crate::fusion::SegmentFusion;
use crate::server::{IngestReport, MonitorConfig};
use crate::updater::DbUpdater;
use busprobe_cellular::{CellTowerId, Fingerprint};
use busprobe_network::{SegmentKey, StopSiteId};
use serde::{Deserialize, Serialize};

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

/// Why a WAL payload failed to decode (the framing CRC already passed,
/// so this indicates a version mismatch, not disk damage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended mid-field.
    Truncated,
    /// Unknown record tag.
    BadTag,
    /// A field held an impossible value (length overrun, duplicate cells
    /// in a fingerprint, trailing bytes).
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
        out.extend_from_slice(&self.digest.to_le_bytes());
        match &self.near_digests {
            Some(digests) => {
                out.push(FLAG_NEAR_DIGESTS);
                for d in digests {
                    out.extend_from_slice(&d.to_le_bytes());
                }
            }
            None => out.push(0),
        }
        out.extend_from_slice(&(self.observations.len() as u32).to_le_bytes());
        for obs in &self.observations {
            out.extend_from_slice(&obs.key.from.0.to_le_bytes());
            out.extend_from_slice(&obs.key.to.0.to_le_bytes());
            out.extend_from_slice(&obs.speed_mps.to_bits().to_le_bytes());
            out.extend_from_slice(&obs.variance.to_bits().to_le_bytes());
            out.extend_from_slice(&obs.time_s.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&(self.harvest.len() as u32).to_le_bytes());
        for entry in &self.harvest {
            out.extend_from_slice(&entry.site.0.to_le_bytes());
            out.extend_from_slice(&entry.confidence.to_bits().to_le_bytes());
            let cells = entry.fingerprint.cells();
            out.extend_from_slice(&(cells.len() as u32).to_le_bytes());
            for cell in cells {
                out.extend_from_slice(&cell.0.to_le_bytes());
            }
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
        let n_obs = r.count(32)?;
        let mut observations = Vec::with_capacity(n_obs);
        for _ in 0..n_obs {
            let key = SegmentKey {
                from: StopSiteId(r.u32()?),
                to: StopSiteId(r.u32()?),
            };
            observations.push(SpeedObservation {
                key,
                speed_mps: r.f64()?,
                variance: r.f64()?,
                time_s: r.f64()?,
            });
        }
        let n_harvest = r.count(16)?;
        let mut harvest = Vec::with_capacity(n_harvest);
        for _ in 0..n_harvest {
            let site = StopSiteId(r.u32()?);
            let confidence = r.f64()?;
            let n_cells = r.count(4)?;
            let mut cells = Vec::with_capacity(n_cells);
            for _ in 0..n_cells {
                cells.push(CellTowerId(r.u32()?));
            }
            let fingerprint = Fingerprint::new(cells).map_err(|_| CodecError::Invalid)?;
            harvest.push(HarvestEntry {
                site,
                fingerprint,
                confidence,
            });
        }
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
        out.extend_from_slice(&(n as u64).to_le_bytes());
    }
    out.extend_from_slice(&report.clock_skew_s.to_bits().to_le_bytes());
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

/// Bounds-checked little-endian reader over a WAL payload.
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
}

/// The complete durable state of a monitor, as written into snapshots.
///
/// Besides the traffic beliefs, database and seen set it carries the
/// updater's pending harvest (so a refresh after recovery elects from
/// the same candidates) and the WAL coverage point; `seen` is stored
/// sorted so snapshot bytes are deterministic.
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
