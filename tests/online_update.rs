//! Online database maintenance under radio-environment drift: the operator
//! re-farms a third of the cells (new cell IDs at the same masts), the
//! war-collected fingerprint database goes stale, and the monitor's online
//! update path must recover identification accuracy from ordinary trip
//! uploads alone.

use busprobe::cellular::{
    CellTower, CellTowerId, DeploymentSpec, PropagationModel, Scanner, TowerDeployment,
};
use busprobe::core::{
    MatchConfig, Matcher, MonitorConfig, StopFingerprintDb, TrafficMonitor, UpdaterConfig,
};
use busprobe::mobile::{CellularSample, Trip};
use busprobe::network::{NetworkGenerator, TransitNetwork};
use busprobe::sensors::trip_observations;
use busprobe::sim::{Scenario, SimTime, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Re-farm every third tower: same mast, new broadcast cell id.
fn refarm(deployment: &TowerDeployment) -> TowerDeployment {
    let towers: Vec<CellTower> = deployment
        .towers()
        .iter()
        .enumerate()
        .map(|(k, t)| {
            if k % 3 == 0 {
                CellTower {
                    id: CellTowerId(t.id.0 + 50_000),
                    ..*t
                }
            } else {
                *t
            }
        })
        .collect();
    TowerDeployment::from_towers(deployment.region(), towers)
}

fn identification_accuracy(
    matcher: &Matcher,
    network: &TransitNetwork,
    scanner: &Scanner,
    rng: &mut StdRng,
) -> f64 {
    let mut total = 0;
    let mut correct = 0;
    for _round in 0..3 {
        for site in network.sites() {
            let fp = scanner.scan(site.position, rng).fingerprint();
            total += 1;
            if matcher
                .best_match(&fp)
                .is_some_and(|hit| hit.site == site.id)
            {
                correct += 1;
            }
        }
    }
    f64::from(correct) / f64::from(total)
}

#[test]
fn online_updates_recover_from_cell_refarming() {
    let seed = 55u64;
    let network = NetworkGenerator::small(seed).generate();
    let region = network.grid().spec().region();
    let deployment = TowerDeployment::generate(region, DeploymentSpec::default(), seed);
    let old_scanner = Scanner::new(deployment.clone(), PropagationModel::default(), seed);
    let new_scanner = Scanner::new(refarm(&deployment), PropagationModel::default(), seed);
    let mut rng = StdRng::seed_from_u64(1);

    // War-collected database from the OLD environment.
    let mut samples = BTreeMap::new();
    for site in network.sites() {
        let fps = (0..5)
            .map(|_| old_scanner.scan(site.position, &mut rng).fingerprint())
            .collect();
        samples.insert(site.id, fps);
    }
    let stale_db = StopFingerprintDb::build_from_samples(&samples, &MatchConfig::default());

    // Accuracy: before drift high, after drift degraded.
    let stale_matcher = Matcher::new(stale_db.clone(), MatchConfig::default());
    let acc_before = identification_accuracy(&stale_matcher, &network, &old_scanner, &mut rng);
    let acc_stale = identification_accuracy(&stale_matcher, &network, &new_scanner, &mut rng);
    assert!(acc_before > 0.9, "pre-drift accuracy {acc_before:.3}");
    assert!(
        acc_stale < acc_before - 0.03,
        "re-farming must hurt the stale DB: {acc_stale:.3} vs {acc_before:.3}"
    );

    // Monitor with online updates, living in the NEW environment. The
    // harvest threshold sits just above the match-acceptance floor: stops
    // whose fingerprints drifted most produce only low-score (yet
    // route-consistent) visits, and those are exactly the stops that need
    // fresh samples.
    let config = MonitorConfig {
        online_db_update: true,
        updater: UpdaterConfig {
            min_confidence: 2.4,
            min_samples: 4,
            max_samples: 32,
        },
        ..MonitorConfig::default()
    };
    let monitor = TrafficMonitor::new(network.clone(), stale_db, config);

    // Several days of ordinary uploads, refreshing after each batch.
    for day in 0..4u64 {
        let scenario = Scenario::new(network.clone(), seed + day)
            .with_span(SimTime::from_hms(8, 0, 0), SimTime::from_hms(9, 30, 0));
        let output = Simulation::new(scenario).run();
        let mut urng = StdRng::seed_from_u64(100 + day);
        let trips: Vec<Trip> = output
            .rider_trips
            .iter()
            .filter_map(|rider| {
                let obs = trip_observations(rider, &output, &new_scanner, &mut urng);
                (obs.len() >= 2).then(|| Trip {
                    samples: obs
                        .into_iter()
                        .map(|o| CellularSample {
                            time_s: o.time.seconds(),
                            scan: o.scan,
                        })
                        .collect(),
                })
            })
            .collect();
        for trip in &trips {
            monitor.ingest_upload(trip, None);
        }
        monitor.refresh_database();
    }

    // The refreshed database must beat the stale one on the new world.
    let refreshed = Matcher::new(monitor.database(), MatchConfig::default());
    let acc_refreshed = identification_accuracy(&refreshed, &network, &new_scanner, &mut rng);
    assert!(
        acc_refreshed > acc_stale + 0.02,
        "online updates must recover accuracy: stale {acc_stale:.3} vs refreshed {acc_refreshed:.3}"
    );
}

#[test]
fn refresh_without_harvest_changes_nothing() {
    let network = NetworkGenerator::small(56).generate();
    let monitor = TrafficMonitor::new(network, StopFingerprintDb::new(), MonitorConfig::default());
    assert_eq!(monitor.refresh_database(), 0);
    assert!(monitor.database().is_empty());
}
