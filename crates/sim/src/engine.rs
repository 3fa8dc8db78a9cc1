use crate::demand::DemandModel;
use crate::output::{
    BeepEvent, BusId, BusTrace, RiderId, RiderTrip, SimOutput, StopVisit, TracePoint,
};
use crate::profile::{BusSpeedModel, TrafficProfile};
use crate::telemetry::metrics;
use crate::time::SimTime;
use busprobe_network::{BusRoute, SegmentKey, TransitNetwork};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seconds between successive IC-card taps while passengers file past the
/// reader.
const TAP_INTERVAL_S: f64 = 1.6;
/// Door open/close overhead when a bus serves a stop, seconds.
const DOOR_OVERHEAD_S: f64 = 6.0;
/// Maximum dwell at one stop, seconds.
const MAX_DWELL_S: f64 = 60.0;
/// Integration step for segment travel, seconds.
const TRAVEL_DT_S: f64 = 5.0;
/// Symmetric acceleration/deceleration magnitude of a bus, m/s².
const BUS_ACCEL_MPS2: f64 = 2.0;

/// A complete simulation configuration.
///
/// # Examples
///
/// ```
/// use busprobe_network::NetworkGenerator;
/// use busprobe_sim::{Scenario, SimTime};
///
/// let network = NetworkGenerator::small(1).generate();
/// let scenario = Scenario::new(network, 1)
///     .with_headway(600.0)
///     .with_span(SimTime::from_hms(7, 0, 0), SimTime::from_hms(8, 0, 0));
/// assert_eq!(scenario.headway_s, 600.0);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The study region.
    pub network: TransitNetwork,
    /// Automobile traffic conditions.
    pub profile: TrafficProfile,
    /// Rider demand.
    pub demand: DemandModel,
    /// Bus running-speed model.
    pub bus_model: BusSpeedModel,
    /// Dispatch interval per route, seconds.
    pub headway_s: f64,
    /// First dispatch time.
    pub start: SimTime,
    /// No dispatches at/after this time (buses finish their runs).
    pub end: SimTime,
    /// Master seed.
    pub seed: u64,
    /// Record kinematic traces for the first `n` buses of each route.
    pub traces_per_route: usize,
}

impl Scenario {
    /// Creates a scenario with defaults matching the paper's deployment:
    /// ~7-minute headways, a service day from 06:30 to 22:00, central
    /// morning hotspots.
    #[must_use]
    pub fn new(network: TransitNetwork, seed: u64) -> Self {
        let profile = TrafficProfile::new(seed).with_central_hotspots(&network, 1500.0);
        Scenario {
            network,
            profile,
            demand: DemandModel::new(seed),
            bus_model: BusSpeedModel::default(),
            headway_s: 420.0,
            start: SimTime::from_hms(6, 30, 0),
            end: SimTime::from_hms(22, 0, 0),
            seed,
            traces_per_route: 0,
        }
    }

    /// Overrides the simulated span.
    #[must_use]
    pub fn with_span(mut self, start: SimTime, end: SimTime) -> Self {
        self.start = start;
        self.end = end;
        self
    }

    /// Overrides the dispatch headway.
    ///
    /// # Panics
    ///
    /// Panics if `headway_s` is not strictly positive.
    #[must_use]
    pub fn with_headway(mut self, headway_s: f64) -> Self {
        assert!(headway_s > 0.0, "headway must be positive");
        self.headway_s = headway_s;
        self
    }

    /// Overrides the traffic profile.
    #[must_use]
    pub fn with_profile(mut self, profile: TrafficProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Overrides the demand model.
    #[must_use]
    pub fn with_demand(mut self, demand: DemandModel) -> Self {
        self.demand = demand;
        self
    }

    /// Records kinematic traces for the first `n` dispatches of each route.
    #[must_use]
    pub fn with_traces(mut self, n: usize) -> Self {
        self.traces_per_route = n;
        self
    }
}

/// Runs a [`Scenario`] and produces a [`SimOutput`].
///
/// Buses do not interact with each other (no bunching model): each run is
/// simulated independently against the shared traffic profile, which keeps
/// the simulation deterministic, parallel-friendly and — for the backend
/// under test — indistinguishable from coupled traffic.
#[derive(Debug)]
pub struct Simulation {
    scenario: Scenario,
}

/// A rider currently on a bus.
struct Onboard {
    rider: RiderId,
    board_index: usize,
    board_time: SimTime,
    alight_index: usize,
}

impl Simulation {
    /// Creates a simulation for `scenario`.
    #[must_use]
    pub fn new(scenario: Scenario) -> Self {
        Simulation { scenario }
    }

    /// The configured scenario.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Runs every dispatch of every route to completion.
    #[must_use]
    pub fn run(&self) -> SimOutput {
        let start_ns = busprobe_telemetry::clock_ns();
        let mut output = SimOutput::default();
        let mut bus_counter = 0u32;
        let mut rider_counter = 0u64;
        for route in self.scenario.network.routes() {
            let mut dispatch_idx = 0u64;
            let mut t = self.scenario.start;
            while t < self.scenario.end {
                let bus = BusId(bus_counter);
                bus_counter += 1;
                let seed = self
                    .scenario
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(u64::from(route.id.0) << 32)
                    .wrapping_add(dispatch_idx);
                let mut rng = StdRng::seed_from_u64(seed);
                let trace = dispatch_idx < self.scenario.traces_per_route as u64;
                self.run_bus(
                    bus,
                    route,
                    t,
                    &mut rng,
                    &mut rider_counter,
                    trace,
                    &mut output,
                );
                dispatch_idx += 1;
                t = t + self.scenario.headway_s;
            }
        }
        metrics()
            .stage_run
            .record_ns(busprobe_telemetry::clock_ns() - start_ns);
        output
    }

    /// Simulates one bus run from dispatch to the final stop.
    #[allow(clippy::too_many_arguments)]
    fn run_bus(
        &self,
        bus: BusId,
        route: &BusRoute,
        dispatch: SimTime,
        rng: &mut StdRng,
        rider_counter: &mut u64,
        record_trace: bool,
        output: &mut SimOutput,
    ) {
        metrics().bus_runs.inc();
        let s = &self.scenario;
        let stops = route.stops();
        let mut t = dispatch;
        let mut offset = 0.0;
        let mut onboard: Vec<Onboard> = Vec::new();
        let mut trace_points: Vec<TracePoint> = Vec::new();
        let mut prev_served = false;

        for (k, rs) in stops.iter().enumerate() {
            // Segment whose congestion governs the approach to stop k.
            let seg_key = if k > 0 {
                SegmentKey::new(stops[k - 1].site, rs.site)
            } else {
                SegmentKey::new(stops[0].site, stops[1].site)
            };
            let arrival = self.travel(
                route,
                seg_key,
                &mut offset,
                rs.offset,
                t,
                prev_served,
                record_trace.then_some(&mut trace_points),
            );
            // Who gets off here? (Everyone, at the last stop.)
            let last = k + 1 == stops.len();
            let alighting: Vec<Onboard> = if last {
                std::mem::take(&mut onboard)
            } else {
                let (off, stay): (Vec<_>, Vec<_>) =
                    onboard.drain(..).partition(|o| o.alight_index <= k);
                onboard = stay;
                off
            };

            // Who gets on? (No boarding at the final stop.)
            let boarded = if last {
                0
            } else {
                s.demand
                    .sample_boardings(rs.site, arrival, s.headway_s, rng)
            };

            let alighted = alighting.len() as u32;
            let served = boarded + alighted > 0;
            let stop_pos = s.network.stop(rs.stop).position;

            // Taps: alighting passengers first, then boarding.
            let mut tap_time = arrival + 1.0;
            for o in alighting {
                output.beeps.push(BeepEvent {
                    bus,
                    site: rs.site,
                    position: stop_pos,
                    time: tap_time,
                });
                output.rider_trips.push(RiderTrip {
                    rider: o.rider,
                    bus,
                    route: route.id,
                    board_index: o.board_index,
                    alight_index: k,
                    board_time: o.board_time,
                    alight_time: tap_time,
                });
                tap_time = tap_time + TAP_INTERVAL_S;
            }
            metrics().riders.add(u64::from(boarded));
            for _ in 0..boarded {
                let rider = RiderId(*rider_counter);
                *rider_counter += 1;
                output.beeps.push(BeepEvent {
                    bus,
                    site: rs.site,
                    position: stop_pos,
                    time: tap_time,
                });
                let ride = s.demand.sample_ride_stops(rng) as usize;
                onboard.push(Onboard {
                    rider,
                    board_index: k,
                    board_time: tap_time,
                    alight_index: (k + ride).min(stops.len() - 1),
                });
                tap_time = tap_time + TAP_INTERVAL_S;
            }

            let departure = if served {
                let dwell = (DOOR_OVERHEAD_S + TAP_INTERVAL_S * f64::from(boarded + alighted))
                    .min(MAX_DWELL_S);
                arrival + dwell
            } else {
                arrival
            };
            metrics().stop_visits.inc();
            metrics().beeps.add(u64::from(boarded + alighted));
            output.stop_visits.push(StopVisit {
                bus,
                route: route.id,
                stop_index: k,
                stop: rs.stop,
                site: rs.site,
                arrival,
                departure,
                boarded,
                alighted,
                served,
            });
            if record_trace && served {
                let pos = route.path.point_at(rs.offset);
                trace_points.push(TracePoint {
                    time: arrival,
                    position: pos,
                    speed_mps: 0.0,
                    accel_mps2: 0.0,
                });
                trace_points.push(TracePoint {
                    time: departure,
                    position: pos,
                    speed_mps: 0.0,
                    accel_mps2: 0.0,
                });
            }
            t = departure;
            prev_served = served;
        }

        if record_trace {
            output.traces.push(BusTrace {
                bus,
                points: trace_points,
            });
        }
    }

    /// Advances the bus from `*offset` to `target_offset` starting at time
    /// `t`; returns the arrival time. Adds an acceleration penalty when the
    /// bus pulls out of a served stop and a braking penalty on arrival.
    #[allow(clippy::too_many_arguments)]
    fn travel(
        &self,
        route: &BusRoute,
        seg_key: SegmentKey,
        offset: &mut f64,
        target_offset: f64,
        t: SimTime,
        accelerate_from_rest: bool,
        mut trace: Option<&mut Vec<TracePoint>>,
    ) -> SimTime {
        let s = &self.scenario;
        let mut now = t;
        let mut remaining = target_offset - *offset;
        debug_assert!(remaining >= -1e-9, "route offsets move forward");
        let mut prev_speed = 0.0;
        while remaining > 1e-9 {
            metrics().travel_steps.inc();
            let seg = s.network.segment(seg_key);
            let (car, free) = match seg {
                Some(seg) => (s.profile.car_speed_mps(seg, now), seg.free_speed_mps),
                // Route lead-in before the first modelled segment: use the
                // slower road class as a conservative default.
                None => {
                    let free = s.network.grid().spec().minor_speed_mps;
                    (free * 0.7, free)
                }
            };
            let v = s.bus_model.bus_speed_mps(car, free);
            let step_dist = (v * TRAVEL_DT_S).min(remaining);
            let dt = step_dist / v;
            if let Some(points) = trace.as_deref_mut() {
                points.push(TracePoint {
                    time: now,
                    position: route.path.point_at(*offset),
                    speed_mps: v,
                    accel_mps2: (v - prev_speed) / TRAVEL_DT_S,
                });
            }
            prev_speed = v;
            *offset += step_dist;
            remaining -= step_dist;
            now = now + dt;
        }
        // Kinematic penalty: time lost to accelerating from rest at the
        // previous served stop and braking to rest at this one, relative to
        // cruising the whole way. Each ramp costs ~v/(2a).
        let seg = s.network.segment(seg_key);
        let (car, free) = seg.map_or_else(
            || {
                let free = s.network.grid().spec().minor_speed_mps;
                (free * 0.7, free)
            },
            |seg| (s.profile.car_speed_mps(seg, now), seg.free_speed_mps),
        );
        let v = s.bus_model.bus_speed_mps(car, free);
        let mut penalty = v / (2.0 * BUS_ACCEL_MPS2); // braking at this stop
        if accelerate_from_rest {
            penalty += v / (2.0 * BUS_ACCEL_MPS2);
        }
        now + penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busprobe_network::NetworkGenerator;

    fn small_output(seed: u64) -> (Scenario, SimOutput) {
        let network = NetworkGenerator::small(seed).generate();
        let scenario = Scenario::new(network, seed)
            .with_span(SimTime::from_hms(8, 0, 0), SimTime::from_hms(9, 0, 0))
            .with_headway(600.0)
            .with_traces(1);
        let out = Simulation::new(scenario.clone()).run();
        (scenario, out)
    }

    #[test]
    fn run_is_deterministic() {
        let (_, a) = small_output(4);
        let (_, b) = small_output(4);
        assert_eq!(a, b);
    }

    #[test]
    fn every_dispatch_visits_every_stop() {
        let (scenario, out) = small_output(4);
        let dispatches_per_route = 6; // 1 h span, 600 s headway
        let expected: usize = scenario
            .network
            .routes()
            .iter()
            .map(|r| r.stop_count() * dispatches_per_route)
            .sum();
        assert_eq!(out.stop_visits.len(), expected);
    }

    #[test]
    fn visits_are_time_ordered_per_bus() {
        let (_, out) = small_output(5);
        let buses: std::collections::BTreeSet<BusId> =
            out.stop_visits.iter().map(|v| v.bus).collect();
        for bus in buses {
            let visits: Vec<&StopVisit> = out.visits_of(bus).collect();
            for w in visits.windows(2) {
                assert!(w[0].departure <= w[1].arrival, "bus moves forward in time");
                assert!(w[0].stop_index + 1 == w[1].stop_index);
            }
        }
    }

    #[test]
    fn served_stops_have_dwell_and_beeps() {
        let (_, out) = small_output(6);
        for v in &out.stop_visits {
            if v.served {
                assert!(v.dwell_s() >= DOOR_OVERHEAD_S - 1e-9);
                assert!(v.dwell_s() <= MAX_DWELL_S + 1e-9);
            } else {
                assert_eq!(v.dwell_s(), 0.0);
                assert_eq!(v.boarded + v.alighted, 0);
            }
        }
        // Beep count matches total boardings + alightings.
        let taps: u32 = out.stop_visits.iter().map(|v| v.boarded + v.alighted).sum();
        assert_eq!(out.beeps.len() as u32, taps);
    }

    #[test]
    fn some_stops_are_skipped() {
        let (_, out) = small_output(7);
        let skipped = out.stop_visits.iter().filter(|v| !v.served).count();
        assert!(skipped > 0, "with modest demand, some stops see no riders");
        let served = out.stop_visits.iter().filter(|v| v.served).count();
        assert!(served > skipped, "most stops should still be served");
    }

    #[test]
    fn rider_trips_are_consistent() {
        let (_, out) = small_output(8);
        assert!(!out.rider_trips.is_empty());
        for trip in &out.rider_trips {
            assert!(trip.board_index <= trip.alight_index);
            assert!(trip.board_time < trip.alight_time);
        }
        // Every rider appears exactly once.
        let mut ids: Vec<RiderId> = out.rider_trips.iter().map(|t| t.rider).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn beeps_happen_at_stop_positions() {
        let (scenario, out) = small_output(9);
        for beep in out.beeps.iter().take(50) {
            let site = scenario.network.site(beep.site);
            assert!(
                beep.position.distance(site.position) < 20.0,
                "beep should be at the stop kerb"
            );
        }
    }

    #[test]
    fn morning_runs_are_slower_than_night_runs() {
        let network = NetworkGenerator::small(10).generate();
        let route_len = network.routes()[0].length();
        let run_time = |start: SimTime| {
            let scenario = Scenario::new(network.clone(), 10)
                .with_span(start, start + 1.0)
                .with_headway(600.0);
            let out = Simulation::new(scenario).run();
            let visits: Vec<&StopVisit> = out.visits_of(BusId(0)).collect();
            visits.last().unwrap().arrival - visits.first().unwrap().departure
        };
        let morning = run_time(SimTime::from_hms(8, 30, 0));
        let night = run_time(SimTime::from_hms(22, 30, 0));
        assert!(
            morning > night * 1.2,
            "rush hour {morning:.0}s vs night {night:.0}s over {route_len:.0}m"
        );
    }

    #[test]
    fn traces_recorded_for_first_dispatch_only() {
        let (scenario, out) = small_output(11);
        assert_eq!(out.traces.len(), scenario.network.routes().len());
        for trace in &out.traces {
            assert!(!trace.points.is_empty());
            for w in trace.points.windows(2) {
                assert!(w[0].time <= w[1].time);
            }
        }
    }

    #[test]
    fn no_dispatch_after_span_end() {
        let (scenario, out) = small_output(12);
        for v in &out.stop_visits {
            if v.stop_index == 0 {
                // Dispatch time is before the first stop's arrival.
                assert!(v.arrival >= scenario.start);
            }
        }
        let buses: std::collections::BTreeSet<BusId> =
            out.stop_visits.iter().map(|v| v.bus).collect();
        assert_eq!(buses.len(), scenario.network.routes().len() * 6);
    }
}
