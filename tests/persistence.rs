//! Persistence: every exchange artifact (network description, fingerprint
//! database, trip uploads, published maps) must survive a JSON round trip —
//! this is the client↔server wire format and the operator's backup format.

use busprobe::cellular::{DeploymentSpec, PropagationModel, Scanner, TowerDeployment};
use busprobe::core::{MatchConfig, MonitorConfig, StopFingerprintDb, TrafficMonitor};
use busprobe::mobile::{CellularSample, Trip};
use busprobe::network::{NetworkGenerator, TransitNetwork};
use busprobe::sim::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn network() -> TransitNetwork {
    NetworkGenerator::small(40).generate()
}

#[test]
fn network_round_trips_with_queries_intact() {
    let n = network();
    let json = serde_json::to_string(&n).unwrap();
    let back: TransitNetwork = serde_json::from_str(&json).unwrap();
    assert_eq!(n.sites().len(), back.sites().len());
    assert_eq!(n.segment_count(), back.segment_count());
    // The derived order relation survives.
    let route = &n.routes()[0];
    let (a, b) = (route.stops()[0].site, route.stops()[2].site);
    assert_eq!(n.follows(a, b), back.follows(a, b));
    // Coverage statistics survive.
    assert_eq!(n.coverage().covered_1, back.coverage().covered_1);
}

/// Reading `network.json` assembles the network, so a file whose site
/// lies on a road the grid lacks is refused with an error, not a panic.
#[test]
fn network_with_a_site_off_the_grid_is_refused() {
    let json = serde_json::to_string(&network()).unwrap();
    let site = r#""sites":[{"id":0,"#;
    let at = json.find(site).expect("site 0 opens the site list") + site.len();
    let road = at + json[at..].find(r#""road":"#).unwrap() + r#""road":"#.len();
    let digits = json[road..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let bad = format!("{}{}{}", &json[..road], u32::MAX, &json[road + digits..]);
    let err = serde_json::from_str::<TransitNetwork>(&bad).unwrap_err();
    assert!(
        err.to_string()
            .contains("site-0 lies on a road not in the grid"),
        "{err}"
    );
}

#[test]
fn fingerprint_db_round_trips_and_matches_identically() {
    let n = network();
    let region = n.grid().spec().region();
    let deployment = TowerDeployment::generate(region, DeploymentSpec::default(), 40);
    let scanner = Scanner::new(deployment, PropagationModel::default(), 40);
    let mut rng = StdRng::seed_from_u64(1);
    let db: StopFingerprintDb = n
        .sites()
        .iter()
        .map(|s| (s.id, scanner.scan(s.position, &mut rng).fingerprint()))
        .collect();

    let back: StopFingerprintDb =
        serde_json::from_str(&serde_json::to_string(&db).unwrap()).unwrap();
    assert_eq!(db, back);

    // A matcher over the reloaded database gives identical verdicts.
    let m1 = busprobe::core::Matcher::new(db, MatchConfig::default());
    let m2 = busprobe::core::Matcher::new(back, MatchConfig::default());
    for site in n.sites().iter().take(10) {
        let probe = scanner.scan(site.position, &mut rng).fingerprint();
        assert_eq!(m1.best_match(&probe), m2.best_match(&probe));
    }
}

#[test]
fn trip_uploads_round_trip_through_the_wire_format() {
    let n = network();
    let region = n.grid().spec().region();
    let deployment = TowerDeployment::generate(region, DeploymentSpec::default(), 41);
    let scanner = Scanner::new(deployment, PropagationModel::default(), 41);
    let mut rng = StdRng::seed_from_u64(2);
    let trip = Trip {
        samples: (0..8)
            .map(|k| CellularSample {
                time_s: 100.0 + k as f64 * 45.0,
                scan: scanner.scan(n.sites()[k].position, &mut rng),
            })
            .collect(),
    };
    let wire = serde_json::to_vec(&trip).unwrap();
    let back: Trip = serde_json::from_slice(&wire).unwrap();
    assert_eq!(trip, back);

    // Both copies produce identical ingest outcomes.
    let db: StopFingerprintDb = n
        .sites()
        .iter()
        .map(|s| (s.id, scanner.expected_scan(s.position).fingerprint()))
        .collect();
    let monitor_a = TrafficMonitor::new(n.clone(), db.clone(), MonitorConfig::default());
    let monitor_b = TrafficMonitor::new(n.clone(), db, MonitorConfig::default());
    assert_eq!(
        monitor_a.ingest_upload(&trip, None),
        monitor_b.ingest_upload(&back, None)
    );
}

#[test]
fn published_map_round_trips() {
    let n = network();
    let region = n.grid().spec().region();
    let deployment = TowerDeployment::generate(region, DeploymentSpec::default(), 42);
    let scanner = Scanner::new(deployment, PropagationModel::default(), 42);
    let mut rng = StdRng::seed_from_u64(3);
    let db: StopFingerprintDb = n
        .sites()
        .iter()
        .map(|s| (s.id, scanner.expected_scan(s.position).fingerprint()))
        .collect();
    let monitor = TrafficMonitor::new(n.clone(), db, MonitorConfig::default());

    // One synthetic ride along route 0.
    let route = &n.routes()[0];
    let trip = Trip {
        samples: route
            .stops()
            .iter()
            .take(5)
            .enumerate()
            .map(|(k, rs)| CellularSample {
                time_s: k as f64 * 80.0,
                scan: scanner.scan(n.site(rs.site).position, &mut rng),
            })
            .collect(),
    };
    monitor.ingest_upload(&trip, None);
    let map = monitor.snapshot(SimTime::from_hms(0, 10, 0).seconds());
    assert!(!map.is_empty());
    let back: busprobe::core::TrafficMap =
        serde_json::from_str(&serde_json::to_string(&map).unwrap()).unwrap();
    assert_eq!(map, back);
}

#[test]
fn monitor_config_round_trips() {
    let config = MonitorConfig::default();
    let back: MonitorConfig =
        serde_json::from_str(&serde_json::to_string(&config).unwrap()).unwrap();
    assert_eq!(config, back);
}
