//! The artifacts a DIR holds — region, fingerprint database, upload
//! corpus — with `init` and `simulate`, the commands that write them.

use crate::args::{
    check_flags, flag_present, flag_value, parse_flag, parse_hhmm, parse_opt_flag, path_flag,
};
use busprobe::cellular::{PropagationModel, Scanner, TowerDeployment};
use busprobe::core::geojson::{map_to_geojson, regional_to_geojson};
use busprobe::core::{
    latest_upload_s, RegionalMap, StopFingerprintDb, TrafficMap, HORIZON_GRACE_S,
};
use busprobe::faults::{FaultInjector, FaultPlan};
use busprobe::geo::LocalProjection;
use busprobe::mobile::Trip;
use busprobe::network::TransitNetwork;
use busprobe::sim::SimTime;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::path::Path;

/// Metadata tying the artifacts of one study region together.
#[derive(Debug, Serialize, Deserialize)]
struct WorldMeta {
    seed: u64,
    small: bool,
}

pub fn write_json<T: Serialize>(path: &Path, value: &T) -> Result<(), String> {
    let data = serde_json::to_vec(value).map_err(|e| format!("serialize {path:?}: {e}"))?;
    std::fs::write(path, data).map_err(|e| format!("write {path:?}: {e}"))
}

pub fn read_json<T: for<'de> Deserialize<'de>>(path: &Path) -> Result<T, String> {
    let data = std::fs::read(path).map_err(|e| format!("read {path:?}: {e}"))?;
    serde_json::from_slice(&data).map_err(|e| format!("parse {path:?}: {e}"))
}

/// What the server side of a region needs: its road network and the
/// war-collected stop fingerprints.
pub struct World {
    pub network: TransitNetwork,
    pub db: StopFingerprintDb,
}

impl World {
    pub fn load(dir: &Path) -> Result<Self, String> {
        Ok(World {
            network: read_json(&dir.join("network.json"))?,
            db: read_json(&dir.join("db.json"))?,
        })
    }
}

/// The stored uploads of a DIR, with the per-upload server-side arrival
/// times a faulted simulation writes next to them.
pub struct Corpus {
    pub trips: Vec<Trip>,
    pub received: Option<Vec<f64>>,
}

impl Corpus {
    /// Loads `trips.json` (which must hold uploads) and, when present
    /// and consistent with it, `received.json`.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let trips: Vec<Trip> = read_json(&dir.join("trips.json"))?;
        if trips.is_empty() {
            return Err("trips.json contains no uploads; run `busprobe simulate` first".into());
        }
        let path = dir.join("received.json");
        let received: Option<Vec<f64>> = path.exists().then(|| read_json(&path)).transpose()?;
        if let Some(r) = received.as_ref().filter(|r| r.len() != trips.len()) {
            return Err(format!(
                "received.json has {} entries for {} uploads; re-run `busprobe simulate`",
                r.len(),
                trips.len()
            ));
        }
        Ok(Corpus { trips, received })
    }

    /// Says on stderr which corpus files drive this run. A directory
    /// holding both `trips.json` and `received.json` silently changes
    /// ingest semantics (arrival times anchor clock normalization), so
    /// the selection — and why — is stated instead of inferred.
    pub fn announce(&self, dir: &Path) {
        let trips = self.trips.len();
        match &self.received {
            Some(r) => eprintln!(
                "corpus: {:?} ({trips} uploads) with {:?} ({} server-side arrival times \
                 from a faulted simulation; phone clock skew will be bounded)",
                dir.join("trips.json"),
                dir.join("received.json"),
                r.len()
            ),
            None => eprintln!(
                "corpus: {:?} ({trips} uploads); no received.json, so clock \
                 normalization is skipped",
                dir.join("trips.json")
            ),
        }
    }

    /// The arrival times of the first `n` uploads — empty when the
    /// corpus has none, which is how the batch ingest API spells that.
    pub fn received_prefix(&self, n: usize) -> &[f64] {
        self.received.as_deref().map_or(&[], |r| &r[..n])
    }
}

/// When to render the map: `--snapshot HH:MM`, else just after the last
/// of `trips` — or, with no corpus to date the state by, at t = 0
/// (callers pass an unbounded staleness horizon).
pub fn snapshot_time(args: &[String], trips: Option<&[Trip]>) -> Result<SimTime, String> {
    match (flag_value(args, "--snapshot"), trips) {
        (Some(v), _) => parse_hhmm(v),
        (None, Some(trips)) => Ok(SimTime::from_seconds(
            latest_upload_s(trips, 0.0) + HORIZON_GRACE_S,
        )),
        (None, None) => Ok(SimTime::from_seconds(0.0)),
    }
}

/// `map` — or, when given, its regional completion — as GeoJSON, the
/// synthetic frame anchored at Jurong West for visualization.
pub fn geojson(
    map: &TrafficMap,
    regional: Option<&RegionalMap>,
    network: &TransitNetwork,
) -> Value {
    let projection = LocalProjection::new(1.34, 103.70);
    match regional {
        Some(r) => regional_to_geojson(r, network, &projection),
        None => map_to_geojson(map, network, &projection),
    }
}

/// [`geojson`] to `--geojson FILE`, when the flag is given.
pub fn export_geojson(
    args: &[String],
    map: &TrafficMap,
    regional: Option<&RegionalMap>,
    network: &TransitNetwork,
) -> Result<(), String> {
    if let Some(path) = flag_value(args, "--geojson") {
        write_json(Path::new(path), &geojson(map, regional, network))?;
        println!("wrote GeoJSON to {path}");
    }
    Ok(())
}

pub fn cmd_init(args: &[String]) -> Result<(), String> {
    check_flags(args, "--dir --seed --small")?;
    let dir = path_flag(args, "--dir")?;
    let seed: u64 = parse_flag(args, "--seed", 7)?;
    let small = flag_present(args, "--small");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;

    // The bench crate's world is the one builder: region, towers and
    // the war-collected database (five scan rounds per stop).
    let world = if small {
        busprobe_bench::World::small(seed)
    } else {
        busprobe_bench::World::paper(seed)
    };
    let towers = world.scanner.deployment();
    let db = world.build_db(5);

    write_json(&dir.join("world.json"), &WorldMeta { seed, small })?;
    write_json(&dir.join("network.json"), &world.network)?;
    write_json(&dir.join("towers.json"), towers)?;
    write_json(&dir.join("db.json"), &db)?;
    println!(
        "initialized {dir:?}: {} routes, {} stop sites, {} towers, {} fingerprints",
        world.network.routes().len(),
        world.network.sites().len(),
        towers.len(),
        db.len()
    );
    Ok(())
}

pub fn cmd_simulate(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        "--dir --start --end --participation --seed --faults --fault-seed",
    )?;
    let dir = path_flag(args, "--dir")?;
    let meta: WorldMeta = read_json(&dir.join("world.json"))?;
    let network: TransitNetwork = read_json(&dir.join("network.json"))?;
    let towers: TowerDeployment = read_json(&dir.join("towers.json"))?;
    let start = parse_hhmm(flag_value(args, "--start").unwrap_or("08:00"))?;
    let end = parse_hhmm(flag_value(args, "--end").unwrap_or("09:30"))?;
    if end <= start {
        return Err("--end must be after --start".into());
    }
    let participation: f64 = parse_flag(args, "--participation", 1.0)?;
    let sim_seed: u64 = parse_flag(args, "--seed", meta.seed)?;
    let fault_plan: Option<FaultPlan> = parse_opt_flag(args, "--faults")?;
    let fault_seed: u64 = parse_flag(args, "--fault-seed", sim_seed)?;

    // The region's radio keeps its `init` seed; the riders and their
    // phones follow `--seed`.
    let world = busprobe_bench::World {
        network,
        scanner: Scanner::new(towers, PropagationModel::default(), meta.seed),
        seed: sim_seed,
    };
    let output = world.simulate(start, end);
    let trips = world.uploads(&output, participation, sim_seed ^ 0x5151);
    let clean_count = trips.len();
    let received_path = dir.join("received.json");
    match fault_plan {
        Some(plan) if !plan.is_clean() => {
            let mut injector = FaultInjector::new(plan, fault_seed);
            let injection = injector.apply(&trips);
            let (faulted, received): (Vec<Trip>, Vec<f64>) = injection
                .uploads
                .into_iter()
                .map(|u| (u.trip, u.received_s))
                .unzip();
            write_json(&dir.join("trips.json"), &faulted)?;
            write_json(&received_path, &received)?;
            let r = injection.report;
            println!(
                "simulated {start}-{end}: {} stop visits, {} taps, {clean_count} clean uploads",
                output.stop_visits.len(),
                output.beeps.len(),
            );
            println!(
                "faults (seed {fault_seed}): {} uploads written \
                 ({} beeps dropped, {} false beeps, {} trips skewed, {} scans truncated, \
                 {} reorders, {} dups, {} exact dups, {} interleaved, {} corrupted fields, \
                 {} emptied)",
                r.uploads_out,
                r.beeps_dropped,
                r.false_beeps,
                r.trips_skewed,
                r.scans_truncated,
                r.samples_reordered,
                r.duplicates_injected,
                r.exact_duplicates_injected,
                r.trips_interleaved,
                r.fields_corrupted,
                r.trips_emptied
            );
        }
        _ => {
            write_json(&dir.join("trips.json"), &trips)?;
            // A stale received.json from an earlier faulted run would
            // mis-anchor these clean uploads.
            let _ = std::fs::remove_file(&received_path);
            println!(
                "simulated {start}-{end}: {} stop visits, {} taps, wrote {} uploads to trips.json",
                output.stop_visits.len(),
                output.beeps.len(),
                trips.len()
            );
        }
    }
    Ok(())
}
