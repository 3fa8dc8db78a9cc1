//! The durable half of the monitor: the attached WAL store with its
//! group-commit window, retry and fail-stop policy, checkpoints, and
//! recovery — snapshot load plus WAL replay through `apply_commit`.
//!
//! A group window closes when the ingest or refresh call that opened it
//! returns, so between calls every commit is in the WAL. A fail-stop is
//! latched in the attached store: nothing is appended after it, and
//! every later sync and checkpoint returns it.

use super::TrafficMonitor;
use crate::database::StopFingerprintDb;
use crate::durability::{PersistedState, WalRecord};
use crate::MonitorConfig;
use busprobe_network::TransitNetwork;
use busprobe_store::Store;
use busprobe_telemetry::Level;
use busprobe_trace::RecoveryTrace;
use parking_lot::MutexGuard;
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Transient store I/O on the commit path (WAL append / fsync) is
/// retried this many times after the first failure before the monitor
/// degrades to an attributed durability fail-stop.
const STORE_IO_RETRIES: u32 = 4;

/// First retry delay; doubles per attempt up to
/// [`STORE_IO_BACKOFF_CAP_MS`].
const STORE_IO_BACKOFF_BASE_MS: u64 = 2;

/// Ceiling on the per-retry backoff delay.
const STORE_IO_BACKOFF_CAP_MS: u64 = 50;

/// A durable store attached to the monitor, plus its checkpoint cadence
/// and its fail-stop latch.
#[derive(Debug)]
pub(super) struct AttachedStore {
    store: Store,
    /// Write a full-state snapshot every this many WAL records
    /// (0 = only on explicit [`TrafficMonitor::checkpoint`] calls).
    snapshot_every: u64,
    /// Group-commit window: buffer this many commit payloads and append
    /// them as one WAL group frame (1 = append each commit immediately,
    /// producing a log byte-identical to ungrouped operation).
    group_every: u64,
    /// Commit payloads buffered for the current group window, in commit
    /// order. Flushed as one frame when the window fills and when the
    /// call that opened the window returns, so it is empty between
    /// calls.
    pending: Vec<Vec<u8>>,
    /// The kind of store I/O error that fail-stopped durability, once
    /// one has. Nothing is appended after it, and every sync and
    /// checkpoint returns it.
    failed: Option<io::ErrorKind>,
}

impl AttachedStore {
    /// The WAL sequence number the next commit will carry once its
    /// group flushes: the store's next sequence plus the records queued
    /// ahead of it in the window. Deterministic even while buffered,
    /// because appends happen in commit order.
    fn next_seq(&self) -> u64 {
        self.store.next_seq() + self.pending.len() as u64
    }

    /// The latched fail-stop as an error, or `Ok` while durable.
    fn check(&self) -> io::Result<()> {
        match self.failed {
            None => Ok(()),
            Some(kind) => Err(io::Error::new(
                kind,
                format!("durable store fail-stopped ({kind}); nothing since is durable"),
            )),
        }
    }
}

/// A snapshot payload as [`PersistedState`]: binary from
/// [`PersistedState::decode`], or — when it opens with `{` — the JSON
/// that older state directories hold. Either reader refuses a state
/// that contradicts itself.
fn decode_snapshot(payload: &[u8]) -> Result<PersistedState, String> {
    if payload.first() == Some(&b'{') {
        serde_json::from_slice(payload).map_err(|e| e.to_string())
    } else {
        PersistedState::decode(payload).map_err(|e| format!("{e:?}"))
    }
}

impl TrafficMonitor {
    /// Runs one store I/O operation with bounded retries and capped
    /// exponential backoff, counting every retry. Transient failures
    /// (EINTR, a hiccuping filesystem) heal invisibly; a persistent one
    /// surfaces as the final error for the caller to fail-stop on.
    fn retry_store_io<T>(
        &self,
        what: &str,
        mut op: impl FnMut() -> io::Result<T>,
    ) -> io::Result<T> {
        let mut attempt = 0u32;
        let mut delay = Duration::from_millis(STORE_IO_BACKOFF_BASE_MS);
        loop {
            match op() {
                Ok(value) => return Ok(value),
                Err(e) if attempt < STORE_IO_RETRIES => {
                    attempt += 1;
                    self.metrics.store_io_retries.inc();
                    busprobe_telemetry::event(
                        Level::Warn,
                        "core::store",
                        format!(
                            "{what} failed (attempt {attempt}/{STORE_IO_RETRIES}), \
                             retrying in {delay:?}: {e}"
                        ),
                    );
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(Duration::from_millis(STORE_IO_BACKOFF_CAP_MS));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Degrades durability to an attributed fail-stop after store I/O
    /// exhausted its retries: the error's kind is latched in the
    /// attached store, which stays attached but takes no further
    /// appends, and the failure is counted and logged in full at error
    /// level. Ingestion itself continues — availability over
    /// durability, and never a panic.
    fn fail_stop_store(&self, attached: &mut AttachedStore, what: &str, e: &io::Error) {
        self.metrics.store_failstop.inc();
        attached.failed = Some(e.kind());
        busprobe_telemetry::event(
            Level::Error,
            "core::store",
            format!(
                "{what} still failing after {STORE_IO_RETRIES} retries; \
                 durability fail-stop, no further appends: {e}"
            ),
        );
    }

    /// Whether store I/O fail-stopped: commits since the latch are not
    /// durable, and resident frontends should drain and exit with
    /// diagnostics instead of silently serving non-durable acks.
    #[must_use]
    pub fn store_failed(&self) -> bool {
        self.store
            .lock()
            .as_ref()
            .is_some_and(|a| a.failed.is_some())
    }

    /// Queues one WAL record — a commit or a refresh — for the attached
    /// store (a no-op without one), appending the buffered group as one
    /// WAL frame when the group window fills, and auto-checkpoints on
    /// the configured cadence. Returns the record's WAL sequence number,
    /// or `None` when no store is attached, it has fail-stopped or the
    /// append failed.
    ///
    /// An append failure is retried with backoff; exhausting the retries
    /// degrades durability, never availability: the failure is counted,
    /// logged, latched (see [`store_failed`](Self::store_failed)), and
    /// ingestion continues.
    pub(super) fn log(&self, record: &WalRecord) -> Option<u64> {
        let mut guard = self.store.lock();
        let attached = guard.as_mut().filter(|a| a.failed.is_none())?;
        let wal_seq = attached.next_seq();
        attached.pending.push(record.encode());
        let full = attached.pending.len() as u64 >= attached.group_every;
        (!full || self.flush_group(guard)).then_some(wal_seq)
    }

    /// Appends the buffered commit group (if any) to the WAL as one
    /// frame, releases the store lock, and checkpoints when the flushed
    /// sequence range `[first, end)` crossed the snapshot cadence — the
    /// grouped generalization of "every `snapshot_every`-th record
    /// snapshots", to which it degenerates exactly at a group window of
    /// one. Returns false when the append exhausted its retries and
    /// fail-stopped the store.
    fn flush_group(&self, mut guard: MutexGuard<'_, Option<AttachedStore>>) -> bool {
        let Some(attached) = guard.as_mut().filter(|a| !a.pending.is_empty()) else {
            return true;
        };
        let pending = std::mem::take(&mut attached.pending);
        let every = attached.snapshot_every;
        let first = match self
            .retry_store_io("WAL group append", || attached.store.append_group(&pending))
        {
            Ok(first) => first,
            Err(e) => {
                self.metrics.store_append_errors.inc();
                self.fail_stop_store(attached, "WAL group append", &e);
                return false;
            }
        };
        drop(guard);
        if every != 0 && (first + pending.len() as u64) / every != first / every {
            if let Err(e) = self.checkpoint() {
                busprobe_telemetry::event(
                    Level::Warn,
                    "core::store",
                    format!("periodic checkpoint failed: {e}"),
                );
            }
        }
        true
    }

    /// Closes the open group window, if any: appends the buffered group
    /// to the WAL, honoring the snapshot cadence for the flushed range.
    /// Every call that commits — an upload, a batch, a refresh — ends
    /// here, so no window outlives the call that opened it. A flush
    /// failure has already fail-stopped the store and is not
    /// propagated: ingest degrades durability rather than availability.
    pub(crate) fn flush_wal_group(&self) {
        self.flush_group(self.store.lock());
    }

    /// Attaches a durable store: every subsequent commit appends one WAL
    /// record, and (when `snapshot_every > 0`) every `snapshot_every`-th
    /// record also triggers a full-state snapshot plus log compaction.
    /// Appends happen inside the ordered commit phase, so the log is a
    /// faithful serialization of the monitor's one mutation stream —
    /// parallel ingest produces the same log as serial ingest.
    ///
    /// `group_every` is the group-commit window: commits buffer
    /// in-process and append as one WAL group frame per `group_every`
    /// commits, and the partial window left when an ingest or refresh
    /// call returns appends as a smaller one, so a batch pays one frame
    /// — and, for callers gating acknowledgements on
    /// [`sync_store`](Self::sync_store), one fsync — per window instead
    /// of per trip. Recovery replays group members to the exact
    /// per-record state; a window of 1 writes every commit as a plain
    /// record frame, the pre-group log format byte for byte. A SIGKILL
    /// can lose at most the window of the call in flight — never an
    /// upload acknowledged after a sync.
    pub fn attach_store_grouped(&self, store: Store, snapshot_every: u64, group_every: u64) {
        *self.store.lock() = Some(AttachedStore {
            store,
            snapshot_every,
            group_every: group_every.max(1),
            pending: Vec::new(),
            failed: None,
        });
    }

    /// Fsyncs the attached store's WAL, making every commit appended so
    /// far durable against a crash. No-op when no store is attached.
    /// Appends are otherwise buffered and reach the OS at rotation,
    /// checkpoints and drop.
    ///
    /// A failing fsync is retried with backoff; exhaustion fail-stops
    /// durability and returns the error. Once the store fail-stopped —
    /// on an append or an fsync — every call returns the latched error,
    /// so callers gating acknowledgements on durability never release
    /// them.
    pub fn sync_store(&self) -> io::Result<()> {
        let mut guard = self.store.lock();
        let Some(attached) = guard.as_mut() else {
            return Ok(());
        };
        attached.check()?;
        self.retry_store_io("WAL fsync", || attached.store.sync())
            .inspect_err(|e| self.fail_stop_store(attached, "WAL fsync", e))
    }

    /// The WAL sequence number below which every record is known
    /// fsynced (`None` without a store) — lets a test hold an
    /// acknowledgement to the [`sync_store`](Self::sync_store) that
    /// covers it.
    #[must_use]
    pub fn synced_seq(&self) -> Option<u64> {
        self.store.lock().as_ref().map(|a| a.store.synced_seq())
    }

    /// Writes a full-state snapshot covering every record appended so
    /// far, then compacts covered WAL segments. Returns the snapshot's
    /// coverage sequence number, or `None` when no store is attached,
    /// and the latched error once the store fail-stopped.
    ///
    /// Call between batches (not concurrently with an in-flight ingest),
    /// so the snapshot observes a commit boundary.
    pub fn checkpoint(&self) -> io::Result<Option<u64>> {
        let mut guard = self.store.lock();
        let Some(attached) = guard.as_mut() else {
            return Ok(None);
        };
        attached.check()?;
        let payload = self.state_at(attached.next_seq()).encode();
        attached.store.checkpoint(&payload).map(Some)
    }

    /// The complete durable state — what [`checkpoint`](Self::checkpoint)
    /// encodes — as of the WAL records written so far (the commit
    /// count when no store is attached, or once it fail-stopped).
    #[must_use]
    pub fn export_state(&self) -> PersistedState {
        let logged = self
            .store
            .lock()
            .as_ref()
            .filter(|a| a.failed.is_none())
            .map(AttachedStore::next_seq);
        self.state_at(logged.unwrap_or_else(|| self.commit_count()))
    }

    /// The durable state, stamped as covering `commits` WAL records.
    fn state_at(&self, commits: u64) -> PersistedState {
        let mut seen: Vec<u64> = self.seen.lock().iter().copied().collect();
        seen.sort_unstable();
        PersistedState {
            commits,
            config: self.config,
            fusion: self.fusion.lock().clone(),
            database: self.database(),
            seen,
            updater: self.updater.lock().clone(),
        }
    }

    /// Rebuilds a monitor from the store directory `dir`: loads the
    /// newest valid snapshot (falling back to a cold start from
    /// `initial_db` when none survives) and replays the WAL tail in
    /// sequence order through `apply_commit` — the function every live
    /// commit applied its record with. Because every record was written
    /// at its commit, the recovered state is bit-identical to a monitor
    /// that never crashed.
    ///
    /// Disk damage is survived, counted and attributed, never fatal: torn
    /// tails and corrupt records are skipped, costing at most those
    /// uploads (which simply become re-ingestable). A snapshot whose
    /// framing validates but whose content does not decode — or decodes
    /// to a state that contradicts itself — is one more corrupt
    /// snapshot: skipped with a warning, counted under
    /// `snapshots_skipped`, and recovery falls back to the next-newest
    /// snapshot or a full WAL replay. The only hard error is I/O.
    ///
    /// The returned monitor has *no* store attached; to resume appending,
    /// open a [`Store`] on the same directory and call
    /// [`attach_store_grouped`](Self::attach_store_grouped).
    pub fn recover(
        network: impl Into<Arc<TransitNetwork>>,
        initial_db: StopFingerprintDb,
        config: MonitorConfig,
        dir: impl AsRef<Path>,
    ) -> io::Result<(Self, RecoveryTrace)> {
        Self::recover_dir(network.into(), initial_db, config, dir.as_ref())
    }

    /// The body of [`recover`](Self::recover), compiled once here rather
    /// than in every crate that calls it.
    fn recover_dir(
        network: Arc<TransitNetwork>,
        initial_db: StopFingerprintDb,
        config: MonitorConfig,
        dir: &Path,
    ) -> io::Result<(Self, RecoveryTrace)> {
        let mut snapshot: Option<PersistedState> = None;
        let recovered = Store::recover_with(dir, |seq, payload| match decode_snapshot(payload) {
            Ok(mut state) => {
                state.commits = state.commits.max(seq);
                snapshot = Some(state);
                true
            }
            Err(e) => {
                busprobe_telemetry::event(
                    Level::Warn,
                    "core::store",
                    format!("snapshot {seq} is framed correctly but not decodable ({e}); skipped"),
                );
                false
            }
        })?;
        let snapshot_seq = recovered.snapshot.as_ref().map(|(seq, _)| *seq);
        let state = match snapshot {
            Some(state) => {
                if state.config != config {
                    busprobe_telemetry::event(
                        Level::Warn,
                        "core::store",
                        "recovered snapshot was written under a different configuration; \
                         replay is well-defined but no longer matches the original run",
                    );
                }
                state
            }
            None => PersistedState::fresh(initial_db, config),
        };
        // Trace sequence numbers continue from the recovered commit
        // count, as they would on a monitor that never crashed.
        let monitor = Self::from_state(network, config, state);

        let mut replayed_commits = 0u64;
        let mut replayed_refreshes = 0u64;
        let mut undecodable = 0u64;
        for (seq, payload) in &recovered.records {
            match WalRecord::decode(payload) {
                Ok(WalRecord::Commit(record)) => {
                    monitor.apply_commit(&record, None);
                    replayed_commits += 1;
                }
                Ok(WalRecord::Refresh) => {
                    monitor.refresh_database();
                    replayed_refreshes += 1;
                }
                Err(e) => {
                    // The frame CRC passed but the payload didn't parse:
                    // count it with the store's skip attribution.
                    undecodable += 1;
                    busprobe_telemetry::global()
                        .counter("busprobe_store_replay_skipped_total")
                        .inc();
                    busprobe_telemetry::event(
                        Level::Warn,
                        "core::store",
                        format!("WAL record {seq} undecodable ({e:?}); skipped"),
                    );
                    continue;
                }
            }
            monitor.committed.fetch_max(seq + 1, Ordering::Relaxed);
        }
        let summary = RecoveryTrace {
            wal_segments: recovered.report.segments,
            snapshot_seq,
            commits: monitor.commit_count(),
            replayed_commits,
            replayed_refreshes,
            skipped_records: recovered.report.skipped_records() + undecodable,
            corrupt_tails: recovered.report.corrupt_tails(),
            snapshots_skipped: recovered.snapshots_skipped,
            duration_s: recovered.duration_s,
        };
        busprobe_telemetry::event(
            Level::Info,
            "core::store",
            format!(
                "recovered {} commits ({} replayed, {} skipped) in {:.3}s",
                summary.commits,
                summary.replayed_commits + summary.replayed_refreshes,
                summary.skipped_records,
                summary.duration_s
            ),
        );
        Ok((monitor, summary))
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{ride, setup};
    use super::*;

    fn store_scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("busprobe-core-retry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// One persisted state, not two: what `checkpoint` writes into the
    /// newest `.snap` is `export_state()`, field for field — pending
    /// updater harvest, refreshed database, sorted seen set and WAL
    /// coverage (commits plus the refresh record) included.
    #[test]
    fn newest_snapshot_is_the_exported_state() {
        let (plain, scanner) = setup(53);
        let config = MonitorConfig {
            online_db_update: true,
            ..MonitorConfig::default()
        };
        let monitor = TrafficMonitor::new(Arc::clone(&plain.network), plain.database(), config);
        let dir = store_scratch("snapshot");
        monitor.attach_store_grouped(Store::open(&dir).unwrap(), 4, 3);

        let trips: Vec<_> = (0..6)
            .map(|k| ride(&monitor, &scanner, 6, 4, 80.0, 300 + k))
            .collect();
        let reports = monitor.ingest_batch_parallel(&trips, 2);
        assert!(reports.iter().all(|r| r.observations > 0), "{reports:?}");
        // A duplicate storm: every trip again, twice.
        for trip in trips.iter().chain(&trips) {
            assert!(monitor.ingest_upload(trip, None).duplicate);
        }
        monitor.refresh_database();
        let late = ride(&monitor, &scanner, 6, 4, 85.0, 399);
        assert!(monitor.ingest_upload(&late, None).observations > 0);
        let covered = monitor.checkpoint().unwrap();
        assert_eq!(
            covered,
            Some(6 + 12 + 1 + 1),
            "trips, duplicates, refresh, trip"
        );

        let recovered = Store::recover(&dir).unwrap();
        let (seq, payload) = recovered.snapshot.expect("checkpoint wrote a snapshot");
        assert_eq!(Some(seq), covered);
        assert_eq!(
            payload[0],
            crate::durability::SNAPSHOT_FORMAT,
            "binary, not JSON"
        );
        let on_disk = PersistedState::decode(&payload).unwrap();
        let exported = monitor.export_state();
        assert!(!exported.seen.is_empty() && exported.seen.is_sorted());
        assert_eq!(exported.commits, 20);
        assert_ne!(
            exported.updater,
            crate::DbUpdater::new(config.updater),
            "the pending harvest is part of the state"
        );
        assert_eq!(on_disk, exported);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A refresh between grouped batches is sequenced in the WAL between
    /// their group frames, and replay reproduces the live state: the
    /// refresh drains the harvest at the same point, not after the
    /// commits that follow it.
    #[test]
    fn a_refresh_between_group_windows_replays_to_the_live_state() {
        let (plain, scanner) = setup(54);
        let config = MonitorConfig {
            online_db_update: true,
            ..MonitorConfig::default()
        };
        let monitor = TrafficMonitor::new(Arc::clone(&plain.network), plain.database(), config);
        let dir = store_scratch("refresh-in-group");
        monitor.attach_store_grouped(Store::open(&dir).unwrap(), 0, 8);
        let trips: Vec<_> = (0..5)
            .map(|k| ride(&monitor, &scanner, 6, 4, 80.0, 500 + k))
            .collect();
        let reports = monitor.ingest_batch_parallel(&trips[..3], 1);
        assert!(reports.iter().all(|r| r.observations > 0), "{reports:?}");
        // The batch of three closed its window of eight on return.
        monitor.refresh_database();
        let reports = monitor.ingest_batch_parallel(&trips[3..], 1);
        assert!(reports.iter().all(|r| r.observations > 0), "{reports:?}");
        monitor.sync_store().unwrap();
        assert_ne!(
            monitor.export_state().updater,
            crate::DbUpdater::new(config.updater),
            "the commits after the refresh left a harvest for replay to match"
        );

        let (recovered, trace) =
            TrafficMonitor::recover(Arc::clone(&plain.network), plain.database(), config, &dir)
                .unwrap();
        assert_eq!((trace.replayed_commits, trace.replayed_refreshes), (5, 1));
        assert_eq!(recovered.export_state(), monitor.export_state());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_store_faults_heal_with_retries() {
        let (monitor, scanner) = setup(50);
        let dir = store_scratch("heal");
        let mut store = Store::open(&dir).unwrap();
        // Two hiccups: well inside the retry budget, so the append must
        // eventually land and durability must survive untouched.
        store.inject_io_faults(2, 0);
        monitor.attach_store_grouped(store, 0, 1);
        let before = monitor.metrics.store_io_retries.get();
        let trip = ride(&monitor, &scanner, 5, 3, 80.0, 1);
        let report = monitor.ingest_upload(&trip, None);
        assert!(report.observations > 0, "{report:?}");
        assert_eq!(
            monitor.metrics.store_io_retries.get() - before,
            2,
            "each injected fault costs exactly one retry"
        );
        assert!(!monitor.store_failed(), "store healed, no fail-stop");
        monitor.sync_store().unwrap();
        assert_eq!(
            monitor.export_state().commits,
            1,
            "the commit reached the WAL"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exhausted_store_retries_fail_stop_without_panicking() {
        let (monitor, scanner) = setup(51);
        let dir = store_scratch("failstop");
        let mut store = Store::open(&dir).unwrap();
        // More consecutive faults than the retry budget: the append can
        // never land, so durability must degrade to an attributed
        // fail-stop while ingestion keeps going.
        store.inject_io_faults(STORE_IO_RETRIES + 2, 0);
        monitor.attach_store_grouped(store, 0, 1);
        let trip = ride(&monitor, &scanner, 5, 3, 80.0, 1);
        let report = monitor.ingest_upload(&trip, None);
        assert!(report.observations > 0, "the commit itself still lands");
        assert!(monitor.store_failed(), "fail-stop latched");
        assert!(
            monitor.metrics.store_failstop.get() >= 1,
            "fail-stop attributed in telemetry"
        );
        // Availability over durability: later uploads still ingest.
        let trip2 = ride(&monitor, &scanner, 5, 3, 85.0, 2);
        let report2 = monitor.ingest_upload(&trip2, None);
        assert!(report2.observations > 0, "{report2:?}");
        // The latch stays: the store is not mistaken for "no store".
        assert!(monitor.store_failed());
        assert!(monitor.checkpoint().is_err(), "checkpoint reports it");
        for _ in 0..3 {
            let err = monitor.sync_store().expect_err("every sync reports it");
            assert_eq!(err.kind(), io::ErrorKind::Interrupted, "{err}");
        }
        assert_eq!(monitor.export_state().commits, monitor.commit_count());
        assert_eq!(
            Store::recover(&dir).unwrap().records.len(),
            0,
            "nothing was appended after the latch"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_sync_returns_err_after_fail_stop() {
        let (monitor, scanner) = setup(52);
        let dir = store_scratch("syncfail");
        let mut store = Store::open(&dir).unwrap();
        store.inject_io_faults(0, STORE_IO_RETRIES + 2);
        monitor.attach_store_grouped(store, 0, 1);
        let trip = ride(&monitor, &scanner, 5, 3, 80.0, 1);
        monitor.ingest_upload(&trip, None);
        // An ack-gating caller must see the failure, not a silent Ok.
        assert!(monitor.sync_store().is_err(), "exhausted sync surfaces");
        assert!(monitor.store_failed());
        // The latch holds: a later sync fails too, although the injected
        // faults are spent and an fsync would now succeed.
        assert!(monitor.sync_store().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
