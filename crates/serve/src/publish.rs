use serde_json::Value;
use std::io;
use std::path::Path;

/// Publishes a resident server's live state for a dashboard or scraper:
/// `geojson` (the caller's rendering of the map, the bytes `busprobe
/// ingest --geojson` writes for it) to `dir/map.geojson` and a telemetry
/// snapshot to `dir/metrics.prom`, creating `dir` if needed. Each file
/// is replaced by an atomic rename, so a reader never sees half of one.
/// Nothing here runs on a commit thread; the caller picks the schedule.
pub fn publish(dir: &Path, geojson: &Value) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let map = serde_json::to_vec(geojson).map_err(io::Error::other)?;
    let prom = busprobe_telemetry::snapshot().to_prometheus();
    for (name, bytes) in [("map.geojson", &map[..]), ("metrics.prom", prom.as_bytes())] {
        let tmp = dir.join(name).with_extension("tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, dir.join(name))?;
    }
    busprobe_telemetry::counter("busprobe_serve_publishes_total").inc();
    Ok(())
}
