//! Deterministic region partitioning.
//!
//! A shard plan must satisfy two pulls at once: shards should be
//! *geographic* (so a shard is a contiguous slice of the city and its
//! matcher index stays small) and *closed under confusion* (an upload
//! must never have plausible stop candidates in two shards, or routing
//! becomes a correctness question instead of a dispatch question).
//!
//! The partitioner gets both by building **atomic site groups** first:
//! the connected components of the relation "shares a bus route" ∪
//! "shares a fingerprint cell". A route's stops always land in one
//! component, so route affinity is absolute, and any cell scan whose
//! towers all appear in one component's fingerprints can only produce
//! matcher candidates inside that component — the routing-bound
//! argument in DESIGN.md leans on exactly this closure. Components are
//! then ordered geographically (centroid cell in a √N grid over the
//! stop bounding box, row-major, ties by smallest member site id) and
//! assigned to shards by a balanced linear cut of the cumulative site
//! count.
//!
//! Everything is a pure function of (network, fingerprint DB, shard
//! count): rebuilt plans are identical across processes, insertion
//! orders and replays, which is what lets `recover` reconstruct the
//! plan from the manifest instead of persisting the assignment.

use busprobe_core::StopFingerprintDb;
use busprobe_network::{StopSiteId, TransitNetwork};
use serde::{Deserialize, Serialize};

/// A deterministic assignment of every stop site to exactly one shard.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CityPlan {
    shards: usize,
    /// Site index → shard index, dense over the network's sites.
    assignment: Vec<u32>,
}

/// Union-find over dense site indexes.
struct DisjointSets {
    parent: Vec<u32>,
}

impl DisjointSets {
    fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Smaller root wins: keeps the representative stable under
            // any union order, so components are order-independent.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

impl CityPlan {
    /// Builds the plan for `shards` shards over `network`'s sites and
    /// the fingerprints in `db`. Pure and deterministic in its inputs.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or the network has no sites.
    #[must_use]
    pub fn build(network: &TransitNetwork, db: &StopFingerprintDb, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let sites = network.sites();
        assert!(!sites.is_empty(), "cannot partition an empty network");
        let n = sites.len();

        // 1. Atomic groups: route-sharing ∪ cell-sharing components.
        //    The smaller root wins every union, so a component's root
        //    is its smallest site whatever order the unions come in.
        let mut sets = DisjointSets::new(n);
        for route in network.routes() {
            let stops = route.stops();
            for pair in stops.windows(2) {
                sets.union(pair[0].site.0, pair[1].site.0);
            }
        }
        // `cell << 32 | site`, sorted: the sites holding one cell are
        // neighbours, and uniting each with the next unites them all.
        let mut cell_sites: Vec<u64> = db
            .iter()
            .filter(|(site, _)| site.index() < n)
            .flat_map(|(site, fp)| {
                fp.cells()
                    .iter()
                    .map(move |cell| u64::from(cell.0) << 32 | u64::from(site.0))
            })
            .collect();
        cell_sites.sort_unstable();
        for pair in cell_sites.windows(2) {
            if pair[0] >> 32 == pair[1] >> 32 {
                sets.union(pair[0] as u32, pair[1] as u32);
            }
        }

        // 2. Component summaries, indexed by root.
        let mut count = vec![0usize; n];
        let mut sum_x = vec![0.0f64; n];
        let mut sum_y = vec![0.0f64; n];
        let roots: Vec<u32> = sites
            .iter()
            .map(|site| {
                let root = sets.find(site.id.0);
                let r = root as usize;
                count[r] += 1;
                sum_x[r] += site.position.x;
                sum_y[r] += site.position.y;
                root
            })
            .collect();

        // 3. Geographic order: centroid cell in a ~√N grid over the
        //    stop bounding box, row-major, ties by smallest site id.
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for site in sites {
            min_x = min_x.min(site.position.x);
            max_x = max_x.max(site.position.x);
            min_y = min_y.min(site.position.y);
            max_y = max_y.max(site.position.y);
        }
        let gx = (shards as f64).sqrt().ceil() as usize;
        let gy = shards.div_ceil(gx);
        let span_x = (max_x - min_x).max(1e-9);
        let span_y = (max_y - min_y).max(1e-9);
        let cell_of = |x: f64, y: f64| -> usize {
            let cx = (((x - min_x) / span_x * gx as f64) as usize).min(gx - 1);
            let cy = (((y - min_y) / span_y * gy as f64) as usize).min(gy - 1);
            cy * gx + cx
        };
        // Roots are the smallest member sites, so sorting by `(cell,
        // root)` breaks ties by smallest site id.
        let mut ordered: Vec<(usize, u32, usize)> = (0..n)
            .filter(|&r| count[r] > 0)
            .map(|r| {
                let cell = cell_of(sum_x[r] / count[r] as f64, sum_y[r] / count[r] as f64);
                (cell, r as u32, count[r])
            })
            .collect();
        ordered.sort_unstable();

        // 4. Balanced linear cut of the cumulative site count.
        let mut shard_of_root = vec![0u32; n];
        let mut before = 0usize;
        for (_, root, size) in ordered {
            let shard = (before * shards / n).min(shards - 1);
            shard_of_root[root as usize] = shard as u32;
            before += size;
        }
        let assignment = roots
            .iter()
            .map(|&root| shard_of_root[root as usize])
            .collect();
        CityPlan { shards, assignment }
    }

    /// Number of shards in the plan.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `site`.
    ///
    /// # Panics
    ///
    /// Panics if `site` is outside the planned network.
    #[must_use]
    pub fn shard_of(&self, site: StopSiteId) -> usize {
        self.assignment[site.index()] as usize
    }

    /// The slice of `db` owned by `shard` (sites outside the plan are
    /// dropped).
    #[must_use]
    pub fn sub_db(&self, db: &StopFingerprintDb, shard: usize) -> StopFingerprintDb {
        db.iter()
            .filter(|(site, _)| {
                site.index() < self.assignment.len() && self.shard_of(*site) == shard
            })
            .map(|(site, fp)| (site, fp.clone()))
            .collect()
    }

    /// Sites per shard.
    #[must_use]
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.shards];
        for &s in &self.assignment {
            sizes[s as usize] += 1;
        }
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busprobe_network::NetworkGenerator;

    fn world() -> (TransitNetwork, StopFingerprintDb) {
        let network = NetworkGenerator::paper_region(11).generate();
        // Disjoint synthetic fingerprints: cells never shared across
        // sites, so components here are exactly the route groups.
        let db: StopFingerprintDb = network
            .sites()
            .iter()
            .map(|s| {
                let cells = (0..4)
                    .map(|k| busprobe_cellular::CellTowerId(s.id.0 * 10 + k))
                    .collect();
                (s.id, busprobe_cellular::Fingerprint::new(cells).unwrap())
            })
            .collect();
        (network, db)
    }

    #[test]
    fn every_site_has_exactly_one_shard() {
        let (network, db) = world();
        for shards in [1, 2, 4, 16] {
            let plan = CityPlan::build(&network, &db, shards);
            assert_eq!(
                plan.shard_sizes().iter().sum::<usize>(),
                network.sites().len()
            );
            for site in network.sites() {
                assert!(plan.shard_of(site.id) < shards);
            }
        }
    }

    #[test]
    fn route_sites_never_split() {
        let (network, db) = world();
        let plan = CityPlan::build(&network, &db, 4);
        for route in network.routes() {
            let shard = plan.shard_of(route.stops()[0].site);
            for rs in route.stops() {
                assert_eq!(plan.shard_of(rs.site), shard, "route {} split", route.name);
            }
        }
    }

    #[test]
    fn shared_cells_force_one_shard() {
        let (network, mut db) = world();
        // Give two sites on (likely) different routes a common tower.
        let a = network.sites()[0].id;
        let b = network.sites()[network.sites().len() - 1].id;
        let shared = busprobe_cellular::CellTowerId(999_999);
        for site in [a, b] {
            let mut cells: Vec<_> = db.get(site).unwrap().cells().to_vec();
            cells.push(shared);
            db.insert(site, busprobe_cellular::Fingerprint::new(cells).unwrap());
        }
        let plan = CityPlan::build(&network, &db, 8);
        assert_eq!(plan.shard_of(a), plan.shard_of(b));
    }

    #[test]
    fn plan_is_deterministic() {
        let (network, db) = world();
        let a = CityPlan::build(&network, &db, 4);
        let b = CityPlan::build(&network, &db, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn single_shard_plan_owns_everything() {
        let (network, db) = world();
        let plan = CityPlan::build(&network, &db, 1);
        assert_eq!(plan.shard_sizes(), vec![network.sites().len()]);
        let sub = plan.sub_db(&db, 0);
        assert_eq!(sub.len(), db.len());
    }
}
