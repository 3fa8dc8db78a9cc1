//! Upload sanitization: validation, clock normalization, reordering and
//! duplicate suppression ahead of matching.
//!
//! The pipeline stages (§III-C) assume time-ordered samples with finite
//! timestamps and well-formed scans. Real crowdsourced uploads guarantee
//! none of that: phone clocks skew and drift, samples arrive out of order,
//! retries duplicate beeps and the occasional field is garbage. This module
//! repairs what it can and quarantines what it cannot, attributing every
//! rejected sample to a reason so nothing is dropped silently.
//!
//! Stages, in order:
//!
//! 1. **Validation** — samples with non-finite or absurd timestamps are
//!    quarantined; scans are repaired (non-finite RSS entries and duplicate
//!    tower reports removed, overlong scans truncated).
//! 2. **Clock normalization** — the server-side arrival time bounds the
//!    phone clock: a trip cannot end after its upload arrived, nor
//!    implausibly long before. When the reported end disagrees with the
//!    arrival time by more than a tolerance, all timestamps are shifted so
//!    the trip ends just before the upload (constant skew is removed;
//!    drift within a trip is below the clustering resolution).
//! 3. **Bounded reordering** — a sliding min-window restores time order
//!    for samples up to `reorder_window` positions late; samples later
//!    than that are quarantined rather than buffered without bound.
//! 4. **Duplicate suppression** — consecutive same-scan samples closer
//!    than `duplicate_window_s` (false double-beeps, retry glue) collapse
//!    to one.

use crate::digest::Digest;
use busprobe_mobile::CellularSample;
use serde::{Deserialize, Serialize};

/// Limits and tolerances of the sanitizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SanitizeConfig {
    /// Maximum towers kept per scan; real modems report 4–7, anything far
    /// beyond is hostile or corrupt.
    pub max_scan_towers: usize,
    /// Maximum samples kept per upload (a trip beeps once per boarding
    /// rider action, so thousands of samples is not a bus trip).
    pub max_samples: usize,
    /// Absolute timestamp bound, seconds; beyond ±this is quarantined.
    pub max_abs_time_s: f64,
    /// How many positions late a sample may arrive and still be reordered
    /// into place; later ones are quarantined.
    pub reorder_window: usize,
    /// Tolerated disagreement between the reported trip end and the
    /// server-side arrival time before clock normalization kicks in,
    /// seconds. Covers honest upload latency plus a small clock error.
    pub skew_tolerance_s: f64,
    /// Upload transfer delay assumed when re-anchoring a skewed trip to
    /// its arrival time, seconds.
    pub upload_delay_s: f64,
    /// Consecutive samples with identical scans closer than this collapse
    /// into one, seconds.
    pub duplicate_window_s: f64,
    /// Width of the start-time window used by the near-duplicate digest,
    /// seconds: re-uploads whose start times differ by less than half the
    /// window and whose content digests agree are rejected.
    pub near_dup_window_s: f64,
    /// Quantization of relative sample times inside the near-duplicate
    /// digest, seconds (jitter below this cannot defeat the digest).
    pub near_dup_bucket_s: f64,
}

impl Default for SanitizeConfig {
    fn default() -> Self {
        SanitizeConfig {
            max_scan_towers: 16,
            max_samples: 2048,
            max_abs_time_s: 1.0e9,
            reorder_window: 16,
            skew_tolerance_s: 45.0,
            upload_delay_s: 5.0,
            duplicate_window_s: 0.5,
            near_dup_window_s: 240.0,
            near_dup_bucket_s: 15.0,
        }
    }
}

/// Per-upload accounting of what the sanitizer changed or rejected.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SanitizeReport {
    /// Samples in the raw upload.
    pub samples_in: usize,
    /// Samples surviving all stages.
    pub samples_kept: usize,
    /// Samples quarantined: non-finite timestamp.
    pub quarantined_non_finite_time: usize,
    /// Samples quarantined: timestamp outside `±max_abs_time_s`.
    pub quarantined_out_of_range: usize,
    /// Samples quarantined: arrived too late to reorder.
    pub quarantined_unorderable: usize,
    /// Samples quarantined: upload exceeded `max_samples`.
    pub quarantined_overflow: usize,
    /// Consecutive duplicate samples collapsed.
    pub duplicates_suppressed: usize,
    /// Tower observations removed while repairing scans (non-finite RSS,
    /// duplicate tower reports, overlong scans).
    pub observations_scrubbed: usize,
    /// Samples that arrived out of order and were reordered into place.
    pub reordered: usize,
    /// Clock correction applied to every timestamp, seconds (0 when the
    /// clock agreed with the arrival time).
    pub clock_skew_s: f64,
}

impl SanitizeReport {
    /// Total samples quarantined (rejected with attribution).
    #[must_use]
    pub fn quarantined(&self) -> usize {
        self.quarantined_non_finite_time
            + self.quarantined_out_of_range
            + self.quarantined_unorderable
            + self.quarantined_overflow
    }
}

/// Runs the full sanitization pass over one upload's samples.
///
/// `received_s` is the trustworthy server-side arrival time of the upload,
/// when known; without it, clock normalization is skipped (the simulator's
/// direct path and unit tests hand clean clocks anyway).
#[must_use]
pub fn sanitize(
    samples: &[CellularSample],
    received_s: Option<f64>,
    cfg: &SanitizeConfig,
) -> (Vec<CellularSample>, SanitizeReport) {
    let mut report = SanitizeReport {
        samples_in: samples.len(),
        ..SanitizeReport::default()
    };

    // Stage 1: validation and scan repair.
    let mut kept: Vec<CellularSample> = Vec::with_capacity(samples.len().min(cfg.max_samples));
    for s in samples {
        if !s.time_s.is_finite() {
            report.quarantined_non_finite_time += 1;
            continue;
        }
        if s.time_s.abs() > cfg.max_abs_time_s {
            report.quarantined_out_of_range += 1;
            continue;
        }
        if kept.len() == cfg.max_samples {
            report.quarantined_overflow += 1;
            continue;
        }
        kept.push(CellularSample {
            time_s: s.time_s,
            scan: repair_scan(&s.scan, cfg, &mut report),
        });
    }

    // Stage 2: clock normalization against the server-side arrival time.
    if let Some(received_s) = received_s {
        if received_s.is_finite() {
            if let Some(end) = kept.iter().map(|s| s.time_s).reduce(f64::max) {
                let skew = end - (received_s - cfg.upload_delay_s);
                if skew.abs() > cfg.skew_tolerance_s {
                    for s in &mut kept {
                        s.time_s -= skew;
                    }
                    report.clock_skew_s = skew;
                }
            }
        }
    }

    // Stage 3: bounded reordering. A sorted sliding window of
    // `reorder_window + 1` samples restores order for anything up to
    // `reorder_window` positions late; a sample older than everything the
    // window already emitted is quarantined instead of buffered forever.
    // Already-ordered uploads (the overwhelmingly common case) skip the
    // window entirely: with no inversions the buffer would emit the input
    // verbatim and quarantine nothing.
    report.reordered = kept
        .windows(2)
        .filter(|w| w[1].time_s < w[0].time_s)
        .count();
    let ordered: Vec<CellularSample> = if report.reordered == 0 {
        kept
    } else {
        let window = cfg.reorder_window.max(1);
        let mut buffer: Vec<CellularSample> = Vec::with_capacity(window + 1);
        let mut ordered: Vec<CellularSample> = Vec::with_capacity(kept.len());
        let emit =
            |s: CellularSample, ordered: &mut Vec<CellularSample>, report: &mut SanitizeReport| {
                if ordered.last().is_some_and(|last| s.time_s < last.time_s) {
                    report.quarantined_unorderable += 1;
                } else {
                    ordered.push(s);
                }
            };
        for s in kept {
            let at = buffer.partition_point(|b| b.time_s <= s.time_s);
            buffer.insert(at, s);
            if buffer.len() > window {
                let head = buffer.remove(0);
                emit(head, &mut ordered, &mut report);
            }
        }
        for s in buffer {
            emit(s, &mut ordered, &mut report);
        }
        ordered
    };

    // Stage 4: consecutive-duplicate suppression.
    let mut out: Vec<CellularSample> = Vec::with_capacity(ordered.len());
    for s in ordered {
        if out.last().is_some_and(|last| {
            (s.time_s - last.time_s).abs() <= cfg.duplicate_window_s && s.scan == last.scan
        }) {
            report.duplicates_suppressed += 1;
            continue;
        }
        out.push(s);
    }

    report.samples_kept = out.len();
    (out, report)
}

/// Repairs one scan: drops non-finite RSS entries and duplicate tower
/// reports, truncates to `max_scan_towers`. Returns the scan unchanged
/// (cheaply cloned) when nothing needs repair.
fn repair_scan(
    scan: &busprobe_cellular::CellScan,
    cfg: &SanitizeConfig,
    report: &mut SanitizeReport,
) -> busprobe_cellular::CellScan {
    let obs = scan.observations();
    let needs_repair = obs.len() > cfg.max_scan_towers
        || obs.iter().any(|o| !o.rss_dbm.is_finite())
        || has_duplicate_tower(obs);
    if !needs_repair {
        return scan.clone();
    }
    let mut seen = std::collections::HashSet::with_capacity(obs.len());
    let repaired: Vec<_> = obs
        .iter()
        .filter(|o| o.rss_dbm.is_finite() && seen.insert(o.tower))
        .take(cfg.max_scan_towers)
        .copied()
        .collect();
    report.observations_scrubbed += obs.len() - repaired.len();
    busprobe_cellular::CellScan::new(repaired)
}

fn has_duplicate_tower(obs: &[busprobe_cellular::CellObservation]) -> bool {
    // Real scans hold a handful of towers: a quadratic probe of a short
    // slice beats allocating a hash set on every clean scan. Oversized
    // (hostile) scans fall back to the set to stay O(n).
    if obs.len() <= 32 {
        obs.iter()
            .enumerate()
            .any(|(k, o)| obs[..k].iter().any(|p| p.tower == o.tower))
    } else {
        let mut seen = std::collections::HashSet::with_capacity(obs.len());
        obs.iter().any(|o| !seen.insert(o.tower))
    }
}

/// Near-duplicate digests of a sanitized upload: a content hash over
/// quantized relative times and tower sequences, combined with two
/// half-offset absolute start-time windows. Two uploads of the same trip
/// whose timestamps were jittered (or re-skewed) land in the same content
/// bucket, and their start times — less than half a window apart — share
/// at least one of the two window indices.
///
/// Returns `None` for empty uploads (nothing to deduplicate).
#[must_use]
pub fn near_duplicate_digests(
    samples: &[CellularSample],
    cfg: &SanitizeConfig,
) -> Option<[u64; 2]> {
    let start = samples.first()?.time_s;
    let bucket = cfg.near_dup_bucket_s.max(1e-9);

    let mut content = Digest::new();
    for s in samples {
        content.put_i64(((s.time_s - start) / bucket).round() as i64);
        for o in s.scan.observations() {
            content.put_u32(o.tower.0);
        }
    }
    let content = content.finish();

    let window = cfg.near_dup_window_s.max(1e-9);
    let digest = |window_index: i64| {
        let mut h = Digest::new();
        h.put_u64(content);
        h.put_i64(window_index);
        h.finish()
    };
    let base = (start / window).floor() as i64;
    let offset = (start / window + 0.5).floor() as i64;
    // Tag the two digests so window n of scheme A cannot collide with
    // window n of scheme B for the same content.
    Some([digest(2 * base), digest(2 * offset + 1)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use busprobe_cellular::{CellObservation, CellScan, CellTowerId};

    fn obs(tower: u32, rss: f64) -> CellObservation {
        CellObservation {
            tower: CellTowerId(tower),
            rss_dbm: rss,
        }
    }

    fn sample(t: f64, towers: &[u32]) -> CellularSample {
        CellularSample {
            time_s: t,
            scan: CellScan::new(
                towers
                    .iter()
                    .enumerate()
                    .map(|(k, &id)| obs(id, -60.0 - k as f64))
                    .collect(),
            ),
        }
    }

    fn cfg() -> SanitizeConfig {
        SanitizeConfig::default()
    }

    #[test]
    fn clean_input_passes_untouched() {
        let samples = vec![
            sample(0.0, &[1, 2]),
            sample(10.0, &[2, 3]),
            sample(20.0, &[3]),
        ];
        let (out, report) = sanitize(&samples, None, &cfg());
        assert_eq!(out, samples);
        assert_eq!(report.samples_in, 3);
        assert_eq!(report.samples_kept, 3);
        assert_eq!(report.quarantined(), 0);
        assert_eq!(report.clock_skew_s, 0.0);
    }

    #[test]
    fn non_finite_and_absurd_times_are_quarantined() {
        let mut samples = vec![sample(0.0, &[1]), sample(10.0, &[2])];
        samples.push(CellularSample {
            time_s: f64::NAN,
            ..sample(0.0, &[3])
        });
        samples.push(CellularSample {
            time_s: f64::INFINITY,
            ..sample(0.0, &[4])
        });
        samples.push(sample(-1.0e12, &[5]));
        let (out, report) = sanitize(&samples, None, &cfg());
        assert_eq!(out.len(), 2);
        assert_eq!(report.quarantined_non_finite_time, 2);
        assert_eq!(report.quarantined_out_of_range, 1);
        assert_eq!(report.samples_kept, 2);
    }

    #[test]
    fn scans_are_repaired_not_rejected() {
        let dirty = CellularSample {
            time_s: 5.0,
            scan: CellScan::new(vec![
                obs(1, -60.0),
                obs(1, -61.0), // duplicate tower
                obs(2, f64::NAN),
                obs(3, -70.0),
            ]),
        };
        let (out, report) = sanitize(&[dirty], None, &cfg());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].scan.len(), 2, "towers 1 and 3 survive");
        assert_eq!(report.observations_scrubbed, 2);
        assert!(!has_duplicate_tower(out[0].scan.observations()));
    }

    #[test]
    fn overlong_scans_are_truncated() {
        let towers: Vec<u32> = (0..40).collect();
        let (out, report) = sanitize(&[sample(0.0, &towers)], None, &cfg());
        assert_eq!(out[0].scan.len(), cfg().max_scan_towers);
        assert_eq!(report.observations_scrubbed, 40 - cfg().max_scan_towers);
    }

    #[test]
    fn oversized_uploads_are_capped() {
        let samples: Vec<CellularSample> = (0..3000).map(|k| sample(k as f64, &[1])).collect();
        let (out, report) = sanitize(&samples, None, &cfg());
        assert_eq!(out.len(), cfg().max_samples);
        assert_eq!(report.quarantined_overflow, 3000 - cfg().max_samples);
    }

    #[test]
    fn skewed_clock_is_normalized_to_arrival_time() {
        // Phone clock 600 s in the future; upload arrives at t = 1030.
        let samples = vec![sample(1600.0, &[1]), sample(1620.0, &[2])];
        let (out, report) = sanitize(&samples, Some(1030.0), &cfg());
        let c = cfg();
        assert!((report.clock_skew_s - (1620.0 - (1030.0 - c.upload_delay_s))).abs() < 1e-9);
        // After normalization, the trip ends upload_delay_s before arrival.
        assert!((out[1].time_s - (1030.0 - c.upload_delay_s)).abs() < 1e-9);
        // Relative spacing is preserved.
        assert!((out[1].time_s - out[0].time_s - 20.0).abs() < 1e-9);
    }

    #[test]
    fn honest_clock_is_left_alone() {
        let samples = vec![sample(100.0, &[1]), sample(130.0, &[2])];
        let (out, report) = sanitize(&samples, Some(140.0), &cfg());
        assert_eq!(report.clock_skew_s, 0.0);
        assert_eq!(out[0].time_s, 100.0);
    }

    #[test]
    fn mild_reordering_is_repaired() {
        let samples = vec![
            sample(0.0, &[1]),
            sample(20.0, &[2]), // swapped pair
            sample(10.0, &[3]),
            sample(30.0, &[4]),
        ];
        let (out, report) = sanitize(&samples, None, &cfg());
        let times: Vec<f64> = out.iter().map(|s| s.time_s).collect();
        assert_eq!(times, vec![0.0, 10.0, 20.0, 30.0]);
        assert_eq!(report.reordered, 1);
        assert_eq!(report.quarantined_unorderable, 0);
    }

    #[test]
    fn hopelessly_late_samples_are_quarantined() {
        // One sample arrives far later than the window can hold.
        let mut samples: Vec<CellularSample> = (0..40)
            .map(|k| sample(100.0 + k as f64 * 10.0, &[1]))
            .collect();
        samples.push(sample(0.0, &[2])); // 40 positions late, window is 16
        let (out, report) = sanitize(&samples, None, &cfg());
        assert_eq!(report.quarantined_unorderable, 1);
        assert_eq!(out.len(), 40);
        assert!(out.windows(2).all(|w| w[0].time_s <= w[1].time_s));
    }

    #[test]
    fn double_beeps_collapse() {
        let s = sample(10.0, &[1, 2]);
        let mut dup = s.clone();
        dup.time_s = 10.3;
        let samples = vec![sample(0.0, &[3]), s, dup, sample(20.0, &[4])];
        let (out, report) = sanitize(&samples, None, &cfg());
        assert_eq!(out.len(), 3);
        assert_eq!(report.duplicates_suppressed, 1);
    }

    #[test]
    fn output_is_always_sorted() {
        // Adversarial mix: reversed order beyond the window.
        let samples: Vec<CellularSample> = (0..50)
            .rev()
            .map(|k| sample(k as f64 * 5.0, &[1]))
            .collect();
        let (out, report) = sanitize(&samples, None, &cfg());
        assert!(out.windows(2).all(|w| w[0].time_s <= w[1].time_s));
        assert_eq!(out.len() + report.quarantined(), 50);
    }

    #[test]
    fn near_duplicate_digests_catch_jitter() {
        let c = cfg();
        let a: Vec<CellularSample> = (0..6)
            .map(|k| sample(1000.0 + k as f64 * 30.0, &[k as u32, 9]))
            .collect();
        // Same trip re-uploaded with sub-bucket jitter on every sample.
        let b: Vec<CellularSample> = a
            .iter()
            .map(|s| CellularSample {
                time_s: s.time_s + 1.3,
                scan: s.scan.clone(),
            })
            .collect();
        let da = near_duplicate_digests(&a, &c).unwrap();
        let db = near_duplicate_digests(&b, &c).unwrap();
        assert!(
            da.iter().any(|d| db.contains(d)),
            "jittered re-upload must share a digest: {da:?} vs {db:?}"
        );
    }

    #[test]
    fn near_duplicate_digests_separate_distinct_trips() {
        let c = cfg();
        let a: Vec<CellularSample> = (0..6)
            .map(|k| sample(1000.0 + k as f64 * 30.0, &[k as u32]))
            .collect();
        let b: Vec<CellularSample> = (0..6)
            .map(|k| sample(1000.0 + k as f64 * 30.0, &[50 + k as u32]))
            .collect();
        let da = near_duplicate_digests(&a, &c).unwrap();
        let db = near_duplicate_digests(&b, &c).unwrap();
        assert!(da.iter().all(|d| !db.contains(d)));
        // Same content far apart in time is also distinct.
        let later: Vec<CellularSample> = a
            .iter()
            .map(|s| CellularSample {
                time_s: s.time_s + 10_000.0,
                scan: s.scan.clone(),
            })
            .collect();
        let dl = near_duplicate_digests(&later, &c).unwrap();
        assert!(da.iter().all(|d| !dl.contains(d)));
        assert!(near_duplicate_digests(&[], &c).is_none());
    }
}
