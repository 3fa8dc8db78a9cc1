//! Single-layer probes for the traced run: the durability codec, the
//! store, and the wire protocol, each timed on its own public functions
//! over the records and frames the workload itself produced.

use super::Uploads;
use busprobe::core::WalRecord;
use busprobe::serve::protocol;
use busprobe::store::Store;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Group window the append probe writes with (the batch paths' window).
const APPEND_GROUP: usize = 64;
/// Group window the fsync probe syncs after (the serve default).
const FSYNC_GROUP: usize = 32;
/// Fsyncs the probe samples.
const FSYNC_SAMPLES: usize = 48;

pub struct DurabilityLayers {
    pub replay_ns_per_record: f64,
    pub decode_ns_per_record: f64,
    pub encode_ns_per_record: f64,
    pub bytes_per_record: f64,
    pub append_ns_per_record: f64,
    /// WAL bytes on disk over payload bytes handed to the store.
    pub write_amplification: f64,
    /// One sample per group of `FSYNC_GROUP` appended records.
    pub fsync_ms: Vec<f64>,
}

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Times replay, decode, encode, append and fsync over the records of
/// the WAL in `wal_dir` (one store directory, no snapshot yet), writing
/// probe stores under `scratch`.
pub fn durability_layers(wal_dir: &Path, scratch: &Path) -> io::Result<DurabilityLayers> {
    let t = Instant::now();
    let recovered = Store::recover(wal_dir)?;
    let replay_s = t.elapsed().as_secs_f64();
    let n = recovered.records.len().max(1) as f64;

    let t = Instant::now();
    let records: Vec<WalRecord> = recovered
        .records
        .iter()
        .map(|(seq, payload)| {
            WalRecord::decode(payload).map_err(|e| invalid(format!("record {seq}: {e:?}")))
        })
        .collect::<io::Result<_>>()?;
    let decode_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let payloads: Vec<Vec<u8>> = records.iter().map(WalRecord::encode).collect();
    let encode_s = t.elapsed().as_secs_f64();
    let payload_bytes: usize = payloads.iter().map(Vec::len).sum();

    let mut store = Store::open(scratch.join("append"))?;
    let t = Instant::now();
    for group in payloads.chunks(APPEND_GROUP) {
        store.append_group(group)?;
    }
    let append_s = t.elapsed().as_secs_f64();
    store.sync()?;
    drop(store);

    let mut store = Store::open(scratch.join("fsync"))?;
    let mut fsync_ms = Vec::with_capacity(FSYNC_SAMPLES);
    for group in payloads.chunks(FSYNC_GROUP).take(FSYNC_SAMPLES) {
        store.append_group(group)?;
        let t = Instant::now();
        store.sync()?;
        fsync_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    Ok(DurabilityLayers {
        replay_ns_per_record: replay_s * 1e9 / n,
        decode_ns_per_record: decode_s * 1e9 / n,
        encode_ns_per_record: encode_s * 1e9 / n,
        bytes_per_record: payload_bytes as f64 / n,
        append_ns_per_record: append_s * 1e9 / n,
        write_amplification: super::bytes_on_disk(wal_dir, "wal") as f64
            / payload_bytes.max(1) as f64,
        fsync_ms,
    })
}

/// Times loading the snapshot in `snapshot_dir` (one store directory,
/// checkpointed) and writing the same payload to a fresh store under
/// `scratch`. Returns `(write_ms, load_ms)`.
pub fn snapshot_layers(snapshot_dir: &Path, scratch: &Path) -> io::Result<(f64, f64)> {
    let t = Instant::now();
    let recovered = Store::recover(snapshot_dir)?;
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let (_, payload) = recovered
        .snapshot
        .ok_or_else(|| invalid(format!("no snapshot in {snapshot_dir:?}")))?;
    let mut store = Store::open(scratch.join("snapshot"))?;
    let t = Instant::now();
    store.checkpoint(&payload)?;
    Ok((t.elapsed().as_secs_f64() * 1e3, load_ms))
}

pub struct ServeLayers {
    pub encode_ns_per_line: f64,
    pub parse_ns_per_line: f64,
    pub bytes_per_line: f64,
}

/// Times the wire codec over `uploads`: the producer's `upload_line`
/// and the server's `parse_line`.
pub fn serve_layers(uploads: Uploads<'_>) -> io::Result<ServeLayers> {
    let count = uploads.len();
    let n = count.max(1) as f64;
    let t = Instant::now();
    let lines: Vec<String> = (0..count)
        .map(|i| protocol::upload_line(&uploads.trips[i], i as u64, uploads.received_of(i)))
        .collect();
    let encode_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for line in &lines {
        let parsed = protocol::parse_line(line).map_err(|e| invalid(e.to_string()))?;
        std::hint::black_box(parsed);
    }
    let parse_s = t.elapsed().as_secs_f64();
    Ok(ServeLayers {
        encode_ns_per_line: encode_s * 1e9 / n,
        parse_ns_per_line: parse_s * 1e9 / n,
        bytes_per_line: lines.iter().map(String::len).sum::<usize>() as f64 / n,
    })
}
