//! Million-tenant serving fleet: the `fleet-arrival` experiment.
//!
//! The tailscale experiments serve three tenants; an NVMe-oF target in
//! production serves orders of magnitude more, and what breaks first
//! at that scale is not the data path but the *bookkeeping*: per-tenant
//! latency histograms (~50 KiB each), per-request allocations, and one
//! timer event per pending arrival. This experiment scales the serving
//! layer across a tenant ladder (10³ → 10⁶) at a **fixed aggregate
//! arrival rate** and measures what the scale costs:
//!
//! * per-tenant tail accounting runs on [`SloTracker::sketched`] —
//!   the fixed-size streaming quantile sketch (<1 KiB/tenant) — and
//!   the artifact records the sketch's p99/p99.9 against an exact
//!   all-tenant histogram kept alongside,
//! * open requests park on the [`RequestBook`]'s free-listed slab;
//!   peak live slots and resident bytes stand in for peak RSS,
//! * pending arrivals batch in an [`ArrivalWheel`]: the DES heap holds
//!   one tick event plus in-flight sub-I/Os, never the tenant count.
//!
//! Tenant arrival streams are *stateless*: the `k`-th gap of tenant
//! `t` is a pure function of `(seed, t, k)` (a single splitmix64
//! round feeding an exponential), so a million tenants cost no
//! per-tenant generator state, and arrivals at or past the deadline
//! are simply never inserted — the wheel holds
//! `O(aggregate rate × horizon)` entries regardless of the rung.
//!
//! Wall-clock throughput (events/sec) is table-only, like every other
//! wall-derived figure; the JSON artifact stays a pure function of
//! `(experiment, scale)`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::convert::Infallible;
use std::time::{Duration, Instant};

use afa_frontend::{ArrivalEntry, ArrivalWheel, RequestBook, SloTarget, SloTracker, SubCompletion};
use afa_sim::metrics::{self, FrontendCounters};
use afa_sim::{ShardCtx, ShardWorld, ShardedSim, SimDuration, SimRng, SimTime};
use afa_stats::{Json, LatencyHistogram, LatencyProfile};
use afa_volume::SubIo;

use crate::experiment::registry::ExperimentResult;
use crate::experiment::ExperimentScale;

/// Aggregate request rate across the whole tenant population,
/// requests/sec. Fixed across the ladder: each rung divides the same
/// offered load among more tenants, so events/sec should stay flat —
/// any droop is bookkeeping overhead, which is what the experiment
/// exists to measure.
const AGG_RATE: f64 = 24_000.0;
/// Arrival-wheel slot width and rotation size: 100 µs × 256 slots
/// covers one ~25.6 ms rotation; farther arrivals park in per-rotation
/// overflow buckets.
const SLOT_NS: u64 = 100_000;
const WHEEL_SLOTS: usize = 256;
/// Global admission cap on open requests (the slab's working set).
const MAX_INFLIGHT: usize = 4_096;
/// Per-sub-I/O service model: a floor plus an exponential tail. The
/// fleet experiment is about the serving layer's bookkeeping, not the
/// device model, so service times are drawn directly.
const SUB_FLOOR: SimDuration = SimDuration::micros(80);
const SUB_TAIL_MEAN_NS: f64 = 40_000.0;

/// RNG stream salts (one-shot streams, keyed by tenant and arrival
/// index so the generators carry no per-tenant state).
const ARRIVAL_SALT: u64 = 0xF1EE_7A00_0000_0000;
const SERVICE_SALT: u64 = 0xF1EE_5E00_0000_0000;

/// The tenant ladder a scale affords. Short runs (the golden/test
/// regime, under 0.5 s) stop at 10⁴ so the committed fixture pins the
/// 10k rung; anything longer climbs to the full million.
fn tenant_ladder(scale: ExperimentScale) -> Vec<u64> {
    let cap = if scale.runtime < SimDuration::millis(500) {
        10_000
    } else {
        1_000_000
    };
    [1_000u64, 10_000, 100_000, 1_000_000]
        .into_iter()
        .filter(|&t| t <= cap)
        .collect()
}

/// The 53-bit mantissa behind tenant `t`'s `k`-th uniform draw: one
/// splitmix64 round over the salted key. A full one-shot [`SimRng`]
/// costs five mixing rounds per draw, which the seeding scan pays once
/// per tenant of the rung — at the million-tenant rung that alone
/// rivals the whole simulation, so arrivals ride the single-round mix
/// instead. The `+ 1` shifts the mantissa to `[1, 2⁵³]` so the
/// derived uniform sits in `(0, 1]` and its `ln` stays finite without
/// a rejection loop.
fn arrival_bits(seed: u64, tenant: u32, k: u32) -> u64 {
    let mut key = seed ^ ARRIVAL_SALT ^ ((tenant as u64) << 27) ^ k as u64;
    (afa_sim::rng::splitmix64(&mut key) >> 11) + 1
}

/// [`arrival_bits`] mapped to a float in `(0, 1]`.
fn arrival_u(seed: u64, tenant: u32, k: u32) -> f64 {
    arrival_bits(seed, tenant, k) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The `k`-th inter-arrival gap of tenant `t`: exponential with the
/// per-tenant mean, stateless in `(seed, tenant, k)`.
fn arrival_gap(seed: u64, tenant: u32, k: u32, mean_ns: f64) -> SimDuration {
    SimDuration::nanos((-mean_ns * arrival_u(seed, tenant, k).ln()) as u64)
}

/// One rung of the ladder.
#[derive(Clone, Debug)]
pub struct FleetCell {
    /// Tenant population of the rung.
    pub tenants: u64,
    /// Arrivals drained from the wheel (admitted + shed).
    pub arrivals: u64,
    /// Requests admitted past the in-flight cap.
    pub admitted: u64,
    /// Requests shed at the cap.
    pub shed: u64,
    /// Requests that completed before the drain ended.
    pub finished: u64,
    /// Tenants that finished at least one request (the only ones that
    /// ever allocate a tracker — the ladder's memory is bounded by the
    /// *active* population, not the rung).
    pub active_tenants: u64,
    /// Request-book slab occupancy high-water mark.
    pub slab_peak_live: u64,
    /// Slab slots allocated (never exceeds the peak by design).
    pub slab_slots: u64,
    /// Resident bytes of the slab at the end of the run — the
    /// peak-RSS proxy the ladder pin test watches.
    pub slab_footprint_bytes: u64,
    /// Most entries the wheel ever held at a tick boundary.
    pub wheel_peak_entries: u64,
    /// Resident bytes of the wheel at the end of the run.
    pub wheel_footprint_bytes: u64,
    /// Per-tenant sketches folded into the cross-tenant rollup.
    pub sketch_merges: u64,
    /// Largest per-tenant tracker footprint, bytes.
    pub sketch_bytes_max: u64,
    /// All-tenant request-latency profile (from the exact histogram).
    pub client: LatencyProfile,
    /// Exact vs sketch-rollup tail estimates, nanoseconds.
    pub p99_exact_ns: u64,
    /// Sketch-rollup p99.
    pub p99_sketch_ns: u64,
    /// Exact p99.9.
    pub p999_exact_ns: u64,
    /// Sketch-rollup p99.9.
    pub p999_sketch_ns: u64,
    /// Simulation events the rung processed (deterministic).
    pub sim_events: u64,
    /// Host wall-clock of the rung. Table-only.
    pub wall: Duration,
}

impl FleetCell {
    /// Relative sketch error at p99 (deterministic — both estimates
    /// are pure functions of the seed).
    pub fn p99_err(&self) -> f64 {
        rel_err(self.p99_sketch_ns, self.p99_exact_ns)
    }

    /// Relative sketch error at p99.9.
    pub fn p999_err(&self) -> f64 {
        rel_err(self.p999_sketch_ns, self.p999_exact_ns)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("tenants", Json::u64(self.tenants)),
            ("arrivals", Json::u64(self.arrivals)),
            ("admitted", Json::u64(self.admitted)),
            ("shed", Json::u64(self.shed)),
            ("finished", Json::u64(self.finished)),
            ("active_tenants", Json::u64(self.active_tenants)),
            ("slab_peak_live", Json::u64(self.slab_peak_live)),
            ("slab_slots", Json::u64(self.slab_slots)),
            ("slab_footprint_bytes", Json::u64(self.slab_footprint_bytes)),
            ("wheel_peak_entries", Json::u64(self.wheel_peak_entries)),
            (
                "wheel_footprint_bytes",
                Json::u64(self.wheel_footprint_bytes),
            ),
            ("sketch_merges", Json::u64(self.sketch_merges)),
            ("sketch_bytes_max", Json::u64(self.sketch_bytes_max)),
            ("p99_exact_ns", Json::u64(self.p99_exact_ns)),
            ("p99_sketch_ns", Json::u64(self.p99_sketch_ns)),
            ("p99_err", Json::f64(self.p99_err())),
            ("p999_exact_ns", Json::u64(self.p999_exact_ns)),
            ("p999_sketch_ns", Json::u64(self.p999_sketch_ns)),
            ("p999_err", Json::f64(self.p999_err())),
            ("sim_events", Json::u64(self.sim_events)),
            ("client", self.client.to_json()),
        ])
    }
}

fn rel_err(approx: u64, exact: u64) -> f64 {
    if exact == 0 {
        return 0.0;
    }
    (approx as f64 - exact as f64).abs() / exact as f64
}

/// Result of the `fleet-arrival` ladder.
#[derive(Clone, Debug)]
pub struct FleetArrivalResult {
    /// Table heading.
    pub title: &'static str,
    /// One cell per rung, smallest population first.
    pub cells: Vec<FleetCell>,
}

impl FleetArrivalResult {
    /// The cell for a tenant population, if that rung ran.
    pub fn cell(&self, tenants: u64) -> Option<&FleetCell> {
        self.cells.iter().find(|c| c.tenants == tenants)
    }
}

impl ExperimentResult for FleetArrivalResult {
    fn to_table(&self) -> String {
        let mut out = format!("{}\n", self.title);
        out.push_str(&format!(
            "{:<9} {:>8} {:>6} {:>8} {:>7} {:>9} {:>10} {:>9} {:>8} {:>9} {:>9} {:>11}\n",
            "tenants",
            "arrivals",
            "shed",
            "finished",
            "active",
            "peak-live",
            "slab(KiB)",
            "per-t(B)",
            "p99err%",
            "p999err%",
            "events",
            "events/sec"
        ));
        for c in &self.cells {
            let secs = c.wall.as_secs_f64().max(1e-9);
            out.push_str(&format!(
                "{:<9} {:>8} {:>6} {:>8} {:>7} {:>9} {:>10.1} {:>9} {:>8.2} {:>9.2} {:>9} {:>11.0}\n",
                c.tenants,
                c.arrivals,
                c.shed,
                c.finished,
                c.active_tenants,
                c.slab_peak_live,
                c.slab_footprint_bytes as f64 / 1024.0,
                c.sketch_bytes_max,
                c.p99_err() * 100.0,
                c.p999_err() * 100.0,
                c.sim_events,
                c.sim_events as f64 / secs,
            ));
        }
        out
    }

    fn to_csv(&self) -> String {
        let mut out = String::from(
            "tenants,arrivals,admitted,shed,finished,active_tenants,slab_peak_live,\
             slab_footprint_bytes,wheel_peak_entries,sketch_merges,sketch_bytes_max,\
             p99_exact_ns,p99_sketch_ns,p999_exact_ns,p999_sketch_ns,sim_events\n",
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                c.tenants,
                c.arrivals,
                c.admitted,
                c.shed,
                c.finished,
                c.active_tenants,
                c.slab_peak_live,
                c.slab_footprint_bytes,
                c.wheel_peak_entries,
                c.sketch_merges,
                c.sketch_bytes_max,
                c.p99_exact_ns,
                c.p99_sketch_ns,
                c.p999_exact_ns,
                c.p999_sketch_ns,
                c.sim_events,
            ));
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::obj([(
            "cells",
            Json::arr(self.cells.iter().map(FleetCell::to_json)),
        )])
    }

    fn samples(&self) -> u64 {
        self.cells.iter().map(|c| c.finished).sum()
    }
}

/// `fleet-arrival`: the serving layer across the tenant ladder at a
/// fixed aggregate rate.
pub fn fleet_arrival(scale: ExperimentScale) -> FleetArrivalResult {
    // Rungs run sequentially: per-rung wall clocks feed the table's
    // events/sec column, which overlapped runs would skew.
    let cells = tenant_ladder(scale)
        .into_iter()
        .map(|tenants| run_rung(scale, tenants))
        .collect();
    FleetArrivalResult {
        title: "Fleet arrivals — tenant ladder at fixed aggregate rate, sketched tails",
        cells,
    }
}

fn run_rung(scale: ExperimentScale, tenants: u64) -> FleetCell {
    let t0 = Instant::now();
    let mean_gap_ns = tenants as f64 / AGG_RATE * 1e9;
    let deadline = SimTime::ZERO + scale.runtime;
    let width = scale.ssds.clamp(1, 8);

    let mut wheel = ArrivalWheel::new(SLOT_NS, WHEEL_SLOTS);
    // Stateless seeding: only tenants whose first arrival lands before
    // the deadline ever enter the wheel, so its population is bounded
    // by the offered load, not the rung. The certain-skip threshold on
    // the raw uniform (0.1% margin past the deadline, far beyond any
    // float rounding) lets the scan drop the `ln` for the vast
    // majority of a million-tenant rung that cannot arrive inside the
    // horizon; survivors still take the exact gap-vs-deadline test, so
    // the seeded set is identical to the unfiltered loop.
    let deadline_ns = scale.runtime.as_nanos() as f64;
    let skip_below = (-(deadline_ns * 1.001) / mean_gap_ns).exp();
    // Integer form of the threshold: the draw's mantissa `m` maps to
    // `u = m × 2⁻⁵³` exactly, so `m < floor(skip_below × 2⁵³)` implies
    // `u < skip_below` — truncation only makes the skip more
    // conservative, never less.
    let skip_bits = (skip_below * (1u64 << 53) as f64) as u64;
    for t in 0..tenants as u32 {
        let m = arrival_bits(scale.seed, t, 0);
        if m < skip_bits {
            continue;
        }
        let u = m as f64 * (1.0 / (1u64 << 53) as f64);
        let first = SimTime::ZERO + SimDuration::nanos((-mean_gap_ns * u.ln()) as u64);
        if first < deadline {
            wheel.push(first, t, 0);
        }
    }

    // The active population is bounded by min(tenants, arrivals); size
    // the tracker table once so the hot path never rehashes or
    // reallocates mid-run. Pure capacity — invisible in the artifact.
    let active_cap = tenants.min((AGG_RATE * (deadline_ns / 1e9) * 1.25) as u64 + 64) as usize;

    let world = FleetWorld {
        seed: scale.seed,
        mean_gap_ns,
        width,
        deadline,
        wheel,
        book: RequestBook::new(),
        trackers: Vec::with_capacity(active_cap),
        index: HashMap::with_capacity(active_cap),
        exact: LatencyHistogram::new(),
        batch: Vec::new(),
        subs: Vec::new(),
        admitted: 0,
        shed: 0,
        arrivals: 0,
        wheel_peak: 0,
    };
    let mut sim = ShardedSim::new(world, vec![super::ONE_LP_LOOKAHEAD]);
    sim.schedule(0, SimTime::ZERO, FleetEvent::Tick);
    sim.run();
    let sim_events = sim.events_processed();
    let world = sim.into_world();

    // Cross-tenant rollup: O(1)-per-tenant sketch merges, in tracker
    // insertion order (deterministic — first-completion order).
    let mut rollup = SloTracker::sketched(SloTarget::default_read());
    for (_, tail) in &world.trackers {
        match tail {
            TenantTail::One(lat) => rollup.record(*lat),
            TenantTail::Many(tracker) => rollup.absorb(tracker),
        }
    }
    let sketch_merges = world.trackers.len() as u64;
    let sketch_bytes_max = world
        .trackers
        .iter()
        .map(|(_, tail)| tail.size_bytes() as u64)
        .max()
        .unwrap_or(0);
    let report = rollup.report();

    metrics::flush(metrics::Counters {
        frontend: FrontendCounters {
            requests_admitted: world.admitted,
            requests_shed: world.shed,
            slab_peak_live: world.book.peak_in_flight() as u64,
            sketch_merges,
            ..FrontendCounters::default()
        },
        ..Default::default()
    });

    FleetCell {
        tenants,
        arrivals: world.arrivals,
        admitted: world.admitted,
        shed: world.shed,
        finished: world.exact.count(),
        active_tenants: world.trackers.len() as u64,
        slab_peak_live: world.book.peak_in_flight() as u64,
        slab_slots: world.book.slots() as u64,
        slab_footprint_bytes: world.book.footprint_bytes() as u64,
        wheel_peak_entries: world.wheel_peak,
        wheel_footprint_bytes: world.wheel.footprint_bytes() as u64,
        sketch_merges,
        sketch_bytes_max,
        client: world.exact.profile(),
        p99_exact_ns: world.exact.value_at_percentile(99.0),
        p99_sketch_ns: report.achieved_ns[1],
        p999_exact_ns: world.exact.value_at_percentile(99.9),
        p999_sketch_ns: report.achieved_ns[2],
        sim_events,
        wall: t0.elapsed(),
    }
}

#[derive(Debug)]
enum FleetEvent {
    /// The wheel's next slot boundary passed: drain due arrivals.
    Tick,
    /// One sub-I/O of an open request finished service.
    SubDone { request: u64, sub: usize },
}

type Ctx<'a> = ShardCtx<'a, FleetEvent, Infallible>;

/// Per-tenant tail state. At the million rung the vast majority of
/// active tenants finish exactly one request inside the horizon, so
/// the sketch only materializes on the *second* completion; a lone
/// sample stays inline. Rolling a one-sample tracker into the
/// cross-tenant sketch is state-identical to recording the raw value
/// (same bucket add, same min/max/sum/count), so the artifact cannot
/// tell the difference — only the allocator can.
enum TenantTail {
    One(SimDuration),
    Many(SloTracker),
}

impl TenantTail {
    /// Resident footprint, the per-tenant number the ladder budgets.
    fn size_bytes(&self) -> usize {
        match self {
            TenantTail::One(_) => std::mem::size_of::<Self>(),
            TenantTail::Many(tracker) => tracker.size_bytes(),
        }
    }
}

struct FleetWorld {
    seed: u64,
    mean_gap_ns: f64,
    width: usize,
    deadline: SimTime,
    wheel: ArrivalWheel,
    book: RequestBook,
    /// Lazily-allocated per-tenant trackers, in first-completion
    /// order; only active tenants pay for any state at all, and only
    /// repeat finishers pay for a sketch.
    trackers: Vec<(u32, TenantTail)>,
    index: HashMap<u32, u32>,
    /// Exact all-tenant histogram the sketch rollup is judged against.
    exact: LatencyHistogram,
    batch: Vec<ArrivalEntry>,
    subs: Vec<SubIo>,
    admitted: u64,
    shed: u64,
    arrivals: u64,
    wheel_peak: u64,
}

impl FleetWorld {
    fn on_arrival(&mut self, entry: ArrivalEntry, ctx: &mut Ctx<'_>) {
        self.arrivals += 1;
        // Chain the tenant's next arrival before serving this one;
        // gaps are stateless one-shot draws, and at-or-past-deadline
        // arrivals are never inserted.
        let next = entry.at + arrival_gap(self.seed, entry.tenant, entry.k + 1, self.mean_gap_ns);
        if next < self.deadline {
            self.wheel.push(next, entry.tenant, entry.k + 1);
        }
        if self.book.in_flight() >= MAX_INFLIGHT {
            self.shed += 1;
            return;
        }
        self.admitted += 1;
        self.subs.clear();
        self.subs.extend((0..self.width).map(|m| SubIo {
            member: m,
            lba: ((entry.tenant as u64) << 24) | entry.k as u64,
            bytes: 4096,
        }));
        let request = self
            .book
            .begin(entry.tenant as usize, entry.at, entry.at, &self.subs);
        // Per-sub service: floor + exponential tail from a one-shot
        // stream keyed by the request, never scheduled into the past
        // (the batch drain can run a slot width behind the arrival).
        let now = ctx.now();
        let stream = SERVICE_SALT ^ ((entry.tenant as u64) << 27) ^ entry.k as u64;
        let mut rng = SimRng::from_seed_and_stream(self.seed, stream);
        for sub in 0..self.width {
            let service = SUB_FLOOR + SimDuration::nanos(rng.exponential(SUB_TAIL_MEAN_NS) as u64);
            ctx.at(
                (entry.at + service).max(now),
                FleetEvent::SubDone { request, sub },
            );
        }
    }
}

impl ShardWorld for FleetWorld {
    type Local = FleetEvent;
    type Cross = Infallible;

    fn handle_local(&mut self, event: FleetEvent, ctx: &mut Ctx<'_>) {
        match event {
            FleetEvent::Tick => {
                let now = ctx.now();
                let mut batch = std::mem::take(&mut self.batch);
                // Chained pushes can land at or before `now`; loop
                // until the wheel has nothing due.
                loop {
                    batch.clear();
                    if self.wheel.drain_due(now, &mut batch) == 0 {
                        break;
                    }
                    for &entry in &batch {
                        self.on_arrival(entry, ctx);
                    }
                }
                self.batch = batch;
                self.wheel_peak = self.wheel_peak.max(self.wheel.len() as u64);
                if let Some(due) = self.wheel.next_due() {
                    ctx.at(due, FleetEvent::Tick);
                }
            }
            FleetEvent::SubDone { request, sub } => {
                let now = ctx.now();
                if let SubCompletion::Finished(fin) =
                    self.book.complete_sub(request, sub, now, false)
                {
                    let latency = fin.latency();
                    self.exact.record(latency.as_nanos());
                    let tenant = fin.tenant as u32;
                    match self.index.entry(tenant) {
                        Entry::Vacant(v) => {
                            v.insert(self.trackers.len() as u32);
                            self.trackers.push((tenant, TenantTail::One(latency)));
                        }
                        Entry::Occupied(slot) => {
                            let tail = &mut self.trackers[*slot.get() as usize].1;
                            match tail {
                                TenantTail::One(prev) => {
                                    let mut tracker =
                                        SloTracker::sketched(SloTarget::default_read());
                                    tracker.record(*prev);
                                    tracker.record(latency);
                                    *tail = TenantTail::Many(tracker);
                                }
                                TenantTail::Many(tracker) => tracker.record(latency),
                            }
                        }
                    }
                }
            }
        }
    }

    fn handle_cross(&mut self, _src: usize, event: Infallible, _ctx: &mut Ctx<'_>) {
        match event {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale_quick() -> ExperimentScale {
        ExperimentScale::new(SimDuration::millis(250), 8, 42)
    }

    #[test]
    fn short_runs_stop_at_ten_thousand_tenants() {
        assert_eq!(tenant_ladder(scale_quick()), vec![1_000, 10_000]);
        let full = ExperimentScale::new(SimDuration::secs(1), 8, 42);
        assert_eq!(tenant_ladder(full), vec![1_000, 10_000, 100_000, 1_000_000]);
    }

    #[test]
    fn ladder_holds_rate_and_bounds_memory() {
        let result = fleet_arrival(scale_quick());
        assert_eq!(result.cells.len(), 2);
        let small = result.cell(1_000).expect("1k rung");
        let big = result.cell(10_000).expect("10k rung");
        // Fixed aggregate rate: the offered load (and the work) must
        // not scale with the population.
        let ratio = big.arrivals as f64 / small.arrivals.max(1) as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "arrivals must stay flat across rungs: {} vs {}",
            small.arrivals,
            big.arrivals
        );
        for c in &result.cells {
            assert!(
                c.finished > 1_000,
                "{} rung finished {}",
                c.tenants,
                c.finished
            );
            assert!(c.shed == 0, "cap must not shed at this load");
            // The slab never grows past the in-flight peak, and the
            // wheel never holds anywhere near the population.
            assert!(c.slab_slots <= c.slab_peak_live);
            assert!(c.wheel_peak_entries < c.tenants.max(2_000));
            // Per-tenant accounting stays under the 1 KiB sketch
            // budget.
            assert!(
                c.sketch_bytes_max < 1_024,
                "per-tenant tracker grew to {} bytes",
                c.sketch_bytes_max
            );
            assert_eq!(c.sketch_merges, c.active_tenants);
            // The sketch rollup tracks the exact tail within its
            // configured relative-error bound (plus bucketing slack).
            assert!(c.p99_err() < 0.10, "p99 err {}", c.p99_err());
            assert!(c.p999_err() < 0.10, "p99.9 err {}", c.p999_err());
        }
    }

    /// The full ladder's work at 1 s × 8 SSDs, seed 42, pinned
    /// exactly per rung: events popped and the slab's resident bytes
    /// (the serving path's peak-RSS proxy). Flat-memory serving keeps
    /// both flat across three orders of magnitude of tenants.
    #[test]
    fn full_ladder_work_and_slab_bytes_are_pinned() {
        let cells = fleet_arrival(ExperimentScale::new(SimDuration::secs(1), 8, 42)).cells;
        let rungs: Vec<(u64, u64, u64)> = cells
            .iter()
            .map(|c| (c.tenants, c.sim_events, c.slab_footprint_bytes))
            .collect();
        assert_eq!(
            rungs,
            [
                (1_000, 199_735, 6_848),
                (10_000, 200_108, 5_120),
                (100_000, 201_180, 4_864),
                (1_000_000, 200_066, 4_864),
            ],
            "(tenants, events, slab bytes) per rung"
        );
    }

    /// The million-tenant rung serves at the 10k rung's per-event
    /// cost: its events/sec stays within [0.8, 1.2] of the 10k rung's,
    /// each the best of three ladder passes (scheduler noise is
    /// one-sided). Both rates come from one process, so the band needs
    /// no per-host baseline, but a rung takes only ~30 ms and a busy
    /// host can still push the ratio out. Run it in an optimized build:
    /// `cargo test --release -p afa-core --lib -- --ignored million_tenant`
    #[test]
    #[ignore = "wall-clock rate band; run it in a release build"]
    fn million_tenant_rung_serves_at_the_ten_thousand_rungs_rate() {
        let rate = |c: &FleetCell| c.sim_events as f64 / c.wall.as_secs_f64().max(1e-9);
        let (mut best_1m, mut best_10k) = (0.0f64, 0.0f64);
        for _ in 0..3 {
            let result = fleet_arrival(ExperimentScale::new(SimDuration::secs(1), 8, 42));
            best_1m = best_1m.max(rate(result.cell(1_000_000).expect("1M rung")));
            best_10k = best_10k.max(rate(result.cell(10_000).expect("10k rung")));
        }
        let ratio = best_1m / best_10k;
        assert!(
            (0.8..=1.2).contains(&ratio),
            "1M/10k rate ratio {ratio:.3} is outside [0.8, 1.2] \
             ({best_1m:.0} vs {best_10k:.0} events/sec, best of 3 passes)"
        );
    }

    #[test]
    fn artifacts_are_deterministic_and_wall_free() {
        let scale = ExperimentScale::new(SimDuration::millis(60), 4, 9);
        let a = fleet_arrival(scale).to_json().to_string();
        let b = fleet_arrival(scale).to_json().to_string();
        assert_eq!(a, b, "same seed must serialize byte-identically");
        assert!(!a.contains("wall"), "wall-clock leaked into the artifact");
        assert!(!a.contains("events_per_sec"));
    }

    #[test]
    fn fleet_flushes_slab_and_sketch_counters() {
        let (result, counts) = metrics::capture(|| {
            fleet_arrival(ExperimentScale::new(SimDuration::millis(60), 4, 11))
        });
        let sum = |field: fn(&FleetCell) -> u64| result.cells.iter().map(field).sum::<u64>();
        assert_eq!(
            counts.frontend,
            FrontendCounters {
                requests_admitted: sum(|c| c.admitted),
                requests_shed: sum(|c| c.shed),
                slab_peak_live: sum(|c| c.slab_peak_live),
                sketch_merges: sum(|c| c.sketch_merges),
                ..FrontendCounters::default()
            }
        );
        assert!(counts.frontend.slab_peak_live > 0, "slab peak must flush");
        assert!(
            counts.frontend.sketch_merges > 0,
            "sketch merges must flush"
        );
    }
}
