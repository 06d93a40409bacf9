//! Fleet-level failover and replication: N arrays behind a network
//! hop, one DES clock.
//!
//! The `afa-fleet` crate supplies the substrate — [`NetHop`] paired
//! network legs, rendezvous [`place_among`] placement,
//! [`ArrayInstance`] serving stacks and the retry/heal machinery —
//! and this module composes them into a single [`FleetWorld`] driving
//! two registry experiments:
//!
//! * `fleet-failover` — 3–8 arrays at R=2, one array killed at
//!   t=50 %: p99/p99.9 before/during/after the failover window and the
//!   time-to-tail-recovery, per tuning stage. Open requests on the
//!   dead array back off and retry on the surviving replica;
//!   background re-replication restores R while competing with
//!   foreground I/O.
//! * `fleet-replication` — R ∈ {1,2,3} × read policy ∈ {primary,
//!   hedged-secondary, read-any} under a 80/20 read/write mix: the
//!   replication tax on the median (writes wait for the slowest of R
//!   replicas) against the hedge win on the deep read tail.
//!
//! Every finished request is attributed through a [`RequestLedger`]
//! including the new [`Cause::Network`], and the attribution is exact:
//! client CPU + (backoff/hedge wait) + network out + array CPU +
//! fabric + device + IRQ + scheduler + array reap + network back +
//! client reap tile the measured latency to the nanosecond
//! ([`FailoverCell::ledger_mismatches`] is always zero). Each cell
//! flushes the sum of its ledgers ([`FailoverCell::causes`]) as its
//! budget share.

use std::convert::Infallible;

use afa_fleet::{
    heal_jobs, place_among, ArrayInstance, ArrayPath, HealJob, HopSpec, NetHop, ReadPolicy,
    RetryPolicy,
};
use afa_frontend::{HedgePolicy, RequestBook, RequestLedger, SubCompletion};
use afa_host::{CpuId, SchedPolicy};
use afa_sim::metrics::{self, CompletionCounters, FleetCounters, FrontendCounters};
use afa_sim::trace::{Cause, CauseAccumulator};
use afa_sim::{ShardCtx, ShardWorld, ShardedSim, SimDuration, SimRng, SimTime};
use afa_ssd::NvmeCommand;
use afa_stats::{Json, LatencyHistogram, LatencyProfile, NinesPoint, SketchRollup};
use afa_volume::SubIo;

use crate::experiment::registry::ExperimentResult;
use crate::experiment::{pool, ExperimentScale};
use crate::geometry::CpuSsdGeometry;
use crate::tuning::{Tuning, TuningStage};

/// Client-side submit cost per request (frontend CPU).
const CLIENT_SUBMIT: SimDuration = SimDuration::nanos(1_500);
/// Client-side completion processing per request.
const CLIENT_REAP: SimDuration = SimDuration::nanos(1_000);
/// Array-side submission-path CPU cost per sub-I/O.
const ARRAY_SUBMIT: SimDuration = SimDuration::nanos(1_500);
/// Array-side completion-reap CPU cost per sub-I/O.
const ARRAY_REAP: SimDuration = SimDuration::nanos(1_300);
/// RPC envelope bytes (header + NVMe command capsule).
const RPC_ENVELOPE: u64 = 256;
/// Payload of one fleet read/write.
const DATA_BYTES: u32 = 4096;
/// Aggregate open-loop Poisson arrival rate across the fleet.
const ARRIVAL_RATE: f64 = 12_000.0;
/// Frontend volumes placed across the fleet.
const VOLUMES: u64 = 128;
/// LBA pages addressable per volume draw.
const LBA_SPACE: u64 = 2_000_000;
/// One re-replication copy unit (read source + write target).
const HEAL_BYTES: u32 = 65_536;
/// Sub-settle percentile a warm cross-array hedge duplicates after.
const HEDGE_PERCENTILE: f64 = 95.0;
/// How long the frontend keeps routing by the stale (pre-kill)
/// placement map after an array dies: requests dispatched to the dead
/// primary inside this window burn an RPC timeout and fail over.
const ROUTING_STALE: SimDuration = SimDuration::millis(2);

/// Arrays a scale affords: half the device budget, one array per two
/// SSDs, within the issue's 3–8 band.
fn fleet_arrays(scale: ExperimentScale) -> usize {
    (scale.ssds / 2).clamp(3, 8)
}

/// Devices per array once the fleet size is fixed.
fn devices_per_array(scale: ExperimentScale) -> usize {
    (scale.ssds / fleet_arrays(scale)).max(1)
}

/// One cell's configuration.
#[derive(Clone, Copy, Debug)]
struct FleetConfig {
    stage: TuningStage,
    r: usize,
    policy: ReadPolicy,
    /// Percentage of arrivals that are replicated writes (0–100).
    write_percent: u64,
    /// Kill one array at this fraction of the runtime.
    kill_frac: Option<f64>,
}

/// One `(stage)` cell of the `fleet-failover` sweep.
#[derive(Clone, Debug)]
pub struct FailoverCell {
    /// Tuning stage of the run.
    pub stage: TuningStage,
    /// Fleet size (arrays).
    pub arrays: usize,
    /// Replication factor.
    pub r: usize,
    /// Request-latency profile before the kill.
    pub before: LatencyProfile,
    /// Profile between the kill and the end of re-replication.
    pub during: LatencyProfile,
    /// Profile after the fleet healed.
    pub after: LatencyProfile,
    /// Kill-to-healed duration, when the kill happened.
    pub time_to_recovery: Option<SimDuration>,
    /// Whether re-replication drained before the run ended.
    pub recovered_within_run: bool,
    /// Per-array `(completions, p99.9 µs)` rollup — completions count
    /// every reap on the array, secondaries included.
    pub per_array: Vec<(u64, f64)>,
    /// Fleet fault counters for this cell.
    pub fleet: FleetCounters,
    /// Requests admitted / shed (no surviving replica).
    pub admitted: u64,
    /// Requests settled as shed.
    pub shed: u64,
    /// Stale completions fenced by the attempt guard.
    pub stale_drops: u64,
    /// Cross-request cause totals from the per-request ledgers.
    pub causes: Vec<(Cause, SimDuration)>,
    /// Requests whose ledger did not tile measured latency exactly.
    /// Always zero — non-zero is a model bug.
    pub ledger_mismatches: u64,
}

impl FailoverCell {
    fn to_json(&self) -> Json {
        Json::obj([
            ("stage", Json::str(self.stage.label())),
            ("arrays", Json::u64(self.arrays as u64)),
            ("r", Json::u64(self.r as u64)),
            ("before", self.before.to_json()),
            ("during", self.during.to_json()),
            ("after", self.after.to_json()),
            (
                "time_to_recovery_us",
                self.time_to_recovery
                    .map_or(Json::Null, |d| Json::f64(d.as_micros_f64())),
            ),
            (
                "recovered_within_run",
                Json::Bool(self.recovered_within_run),
            ),
            (
                "per_array",
                Json::arr(self.per_array.iter().enumerate().map(
                    |(array, &(completions, p999_us))| {
                        Json::obj([
                            ("array", Json::u64(array as u64)),
                            ("completions", Json::u64(completions)),
                            ("p999_us", Json::f64(p999_us)),
                        ])
                    },
                )),
            ),
            (
                "counters",
                Json::obj([
                    ("arrays_failed", Json::u64(self.fleet.arrays_failed)),
                    ("failovers", Json::u64(self.fleet.failovers)),
                    ("retries", Json::u64(self.fleet.retries)),
                    ("rereplication_ios", Json::u64(self.fleet.rereplication_ios)),
                    ("admitted", Json::u64(self.admitted)),
                    ("shed", Json::u64(self.shed)),
                    ("stale_drops", Json::u64(self.stale_drops)),
                ]),
            ),
            (
                "causes",
                Json::Obj(
                    self.causes
                        .iter()
                        .map(|&(c, d)| (c.label().to_owned(), Json::u64(d.as_nanos())))
                        .collect(),
                ),
            ),
            ("ledger_mismatches", Json::u64(self.ledger_mismatches)),
        ])
    }
}

/// Result of the `fleet-failover` sweep.
#[derive(Clone, Debug)]
pub struct FleetFailoverResult {
    /// One cell per tuning stage.
    pub cells: Vec<FailoverCell>,
}

impl FleetFailoverResult {
    /// The cell for `stage`.
    pub fn cell(&self, stage: TuningStage) -> Option<&FailoverCell> {
        self.cells.iter().find(|c| c.stage == stage)
    }
}

impl ExperimentResult for FleetFailoverResult {
    fn to_table(&self) -> String {
        let mut out = String::from(
            "Fleet failover — kill one array at t=50%, replicas absorb, re-replication heals\n",
        );
        out.push_str(&format!(
            "{:<12} {:>10} {:>12} {:>12} {:>12} {:>10} {:>9} {:>8} {:>7}\n",
            "stage",
            "pre99(us)",
            "pre999(us)",
            "dur999(us)",
            "post999(us)",
            "ttr(ms)",
            "failover",
            "retries",
            "rerepl"
        ));
        for cell in &self.cells {
            out.push_str(&format!(
                "{:<12} {:>10.1} {:>12.1} {:>12.1} {:>12.1} {:>10.2} {:>9} {:>8} {:>7}\n",
                cell.stage.label(),
                cell.before.get_micros(NinesPoint::Nines2),
                cell.before.get_micros(NinesPoint::Nines3),
                cell.during.get_micros(NinesPoint::Nines3),
                cell.after.get_micros(NinesPoint::Nines3),
                cell.time_to_recovery
                    .map_or(f64::NAN, |d| d.as_micros_f64() / 1_000.0),
                cell.fleet.failovers,
                cell.fleet.retries,
                cell.fleet.rereplication_ios,
            ));
        }
        out
    }

    fn to_csv(&self) -> String {
        let mut out = String::from(
            "stage,arrays,r,pre_p99_us,pre_p999_us,during_p999_us,post_p999_us,ttr_us,\
             failovers,retries,rereplication_ios,admitted,shed\n",
        );
        for cell in &self.cells {
            out.push_str(&format!(
                "{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{},{},{},{},{}\n",
                cell.stage.label(),
                cell.arrays,
                cell.r,
                cell.before.get_micros(NinesPoint::Nines2),
                cell.before.get_micros(NinesPoint::Nines3),
                cell.during.get_micros(NinesPoint::Nines3),
                cell.after.get_micros(NinesPoint::Nines3),
                cell.time_to_recovery
                    .map_or(f64::NAN, |d| d.as_micros_f64()),
                cell.fleet.failovers,
                cell.fleet.retries,
                cell.fleet.rereplication_ios,
                cell.admitted,
                cell.shed,
            ));
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::obj([(
            "cells",
            Json::arr(self.cells.iter().map(FailoverCell::to_json)),
        )])
    }

    fn samples(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.before.samples() + c.during.samples() + c.after.samples())
            .sum()
    }

    fn headline_max_us(&self) -> Option<f64> {
        self.cells
            .iter()
            .flat_map(|c| [&c.before, &c.during, &c.after])
            .map(|p| p.get_micros(NinesPoint::Max))
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

/// One `(r, policy)` cell of the `fleet-replication` grid.
#[derive(Clone, Debug)]
pub struct ReplicationCell {
    /// Replication factor.
    pub r: usize,
    /// Read policy for the replica set.
    pub policy: ReadPolicy,
    /// Median request latency in µs across the whole mix.
    pub median_us: f64,
    /// Median *write* latency in µs — the replication tax metric: a
    /// write settles at the slowest of its R replicas.
    pub write_median_us: f64,
    /// Full request-latency profile.
    pub client: LatencyProfile,
    /// Requests admitted.
    pub admitted: u64,
    /// Cross-array hedges fired / won.
    pub hedges_fired: u64,
    /// Hedges whose secondary-array duplicate won.
    pub hedges_won: u64,
    /// Cross-request cause totals.
    pub causes: Vec<(Cause, SimDuration)>,
    /// Requests whose ledger did not tile latency. Always zero.
    pub ledger_mismatches: u64,
}

impl ReplicationCell {
    fn to_json(&self) -> Json {
        Json::obj([
            ("r", Json::u64(self.r as u64)),
            ("policy", Json::str(self.policy.label())),
            ("median_us", Json::f64(self.median_us)),
            ("write_median_us", Json::f64(self.write_median_us)),
            ("client", self.client.to_json()),
            ("admitted", Json::u64(self.admitted)),
            ("hedges_fired", Json::u64(self.hedges_fired)),
            ("hedges_won", Json::u64(self.hedges_won)),
            (
                "causes",
                Json::Obj(
                    self.causes
                        .iter()
                        .map(|&(c, d)| (c.label().to_owned(), Json::u64(d.as_nanos())))
                        .collect(),
                ),
            ),
            ("ledger_mismatches", Json::u64(self.ledger_mismatches)),
        ])
    }
}

/// Result of the `fleet-replication` grid.
#[derive(Clone, Debug)]
pub struct FleetReplicationResult {
    /// One cell per `(r, policy)`.
    pub cells: Vec<ReplicationCell>,
}

impl FleetReplicationResult {
    /// The cell for `(r, policy)`.
    pub fn cell(&self, r: usize, policy: ReadPolicy) -> Option<&ReplicationCell> {
        self.cells.iter().find(|c| c.r == r && c.policy == policy)
    }
}

impl ExperimentResult for FleetReplicationResult {
    fn to_table(&self) -> String {
        let mut out = String::from(
            "Fleet replication — the R-way tax on the median vs. the hedge win on the tail\n",
        );
        out.push_str(&format!(
            "{:<3} {:<17} {:>11} {:>9} {:>9} {:>11} {:>9} {:>9} {:>7} {:>7}\n",
            "r",
            "policy",
            "median(us)",
            "wmed(us)",
            "p99(us)",
            "p99.9(us)",
            "max(us)",
            "admitted",
            "hedges",
            "won"
        ));
        for cell in &self.cells {
            out.push_str(&format!(
                "{:<3} {:<17} {:>11.1} {:>9.1} {:>9.1} {:>11.1} {:>9.1} {:>9} {:>7} {:>7}\n",
                cell.r,
                cell.policy.label(),
                cell.median_us,
                cell.write_median_us,
                cell.client.get_micros(NinesPoint::Nines2),
                cell.client.get_micros(NinesPoint::Nines3),
                cell.client.get_micros(NinesPoint::Max),
                cell.admitted,
                cell.hedges_fired,
                cell.hedges_won,
            ));
        }
        out
    }

    fn to_csv(&self) -> String {
        let mut out =
            String::from(
                "r,policy,median_us,write_median_us,p99_us,p999_us,max_us,admitted,hedges_fired,hedges_won\n",
            );
        for cell in &self.cells {
            out.push_str(&format!(
                "{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{},{},{}\n",
                cell.r,
                cell.policy.label(),
                cell.median_us,
                cell.write_median_us,
                cell.client.get_micros(NinesPoint::Nines2),
                cell.client.get_micros(NinesPoint::Nines3),
                cell.client.get_micros(NinesPoint::Max),
                cell.admitted,
                cell.hedges_fired,
                cell.hedges_won,
            ));
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::obj([(
            "cells",
            Json::arr(self.cells.iter().map(ReplicationCell::to_json)),
        )])
    }

    fn samples(&self) -> u64 {
        self.cells.iter().map(|c| c.client.samples()).sum()
    }

    fn headline_max_us(&self) -> Option<f64> {
        self.cells
            .iter()
            .map(|c| c.client.get_micros(NinesPoint::Max))
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

/// `fleet-failover`: one cell per tuning stage, R=2, primary reads,
/// one array killed at t=50 %.
pub fn fleet_failover(scale: ExperimentScale) -> FleetFailoverResult {
    let cells = pool::map_bounded(TuningStage::ALL.to_vec(), |stage| {
        let (cell, _) = run_cell(
            FleetConfig {
                stage,
                r: 2,
                policy: ReadPolicy::Primary,
                write_percent: 0,
                kill_frac: Some(0.5),
            },
            scale,
        );
        cell
    });
    FleetFailoverResult { cells }
}

/// `fleet-replication`: R × read-policy grid on the tuned kernel,
/// 80/20 read/write mix, no faults.
pub fn fleet_replication(scale: ExperimentScale) -> FleetReplicationResult {
    let mut jobs = Vec::new();
    for r in [1usize, 2, 3] {
        for policy in [
            ReadPolicy::Primary,
            ReadPolicy::HedgedSecondary,
            ReadPolicy::ReadAny,
        ] {
            jobs.push((r, policy));
        }
    }
    let cells = pool::map_bounded(jobs, |(r, policy)| {
        let (cell, extras) = run_cell(
            FleetConfig {
                stage: TuningStage::IrqAffinity,
                r,
                policy,
                write_percent: 20,
                kill_frac: None,
            },
            scale,
        );
        ReplicationCell {
            r,
            policy,
            median_us: extras.median_us,
            write_median_us: extras.write_median_us,
            client: extras.client,
            admitted: cell.admitted,
            hedges_fired: extras.hedges_fired,
            hedges_won: extras.hedges_won,
            causes: cell.causes,
            ledger_mismatches: cell.ledger_mismatches,
        }
    });
    FleetReplicationResult { cells }
}

/// Exactly-once accounting of one probe run, for the property suite.
#[derive(Clone, Copy, Debug)]
pub struct FleetProbeOutcome {
    /// Requests admitted into the book.
    pub admitted: u64,
    /// Requests settled with a served completion.
    pub settled: u64,
    /// Requests settled as shed (no surviving replica).
    pub shed: u64,
    /// Stale completions fenced by the attempt guard.
    pub stale_drops: u64,
    /// Requests whose ledger did not tile measured latency.
    pub ledger_mismatches: u64,
    /// Requests still open after the event queue drained. Always zero.
    pub in_flight_at_end: u64,
}

/// Runs a small fleet (R=2, primary reads) killing one array at
/// `kill_frac` of the runtime, and returns the exactly-once
/// accounting. The property suite sweeps `kill_frac` and seeds; a
/// double settle panics inside the book, an unsettled request shows up
/// in `in_flight_at_end`, and a mis-tiled ledger increments
/// `ledger_mismatches`.
pub fn fleet_failover_probe(seed: u64, kill_frac: f64) -> FleetProbeOutcome {
    let scale = ExperimentScale::new(SimDuration::millis(40), 6, seed);
    let (cell, extras) = run_cell(
        FleetConfig {
            stage: TuningStage::IrqAffinity,
            r: 2,
            policy: ReadPolicy::Primary,
            write_percent: 0,
            kill_frac: Some(kill_frac.clamp(0.05, 0.95)),
        },
        scale,
    );
    FleetProbeOutcome {
        admitted: cell.admitted,
        settled: extras.settled,
        shed: cell.shed,
        stale_drops: cell.stale_drops,
        ledger_mismatches: cell.ledger_mismatches,
        in_flight_at_end: extras.in_flight_at_end,
    }
}

/// Extra outcome figures surfaced by [`run_cell`] alongside the cell.
struct RunExtras {
    median_us: f64,
    write_median_us: f64,
    client: LatencyProfile,
    hedges_fired: u64,
    hedges_won: u64,
    settled: u64,
    in_flight_at_end: u64,
}

fn run_cell(cfg: FleetConfig, scale: ExperimentScale) -> (FailoverCell, RunExtras) {
    let arrays_n = fleet_arrays(scale);
    let devices_per = devices_per_array(scale);
    let tuning = Tuning::new(cfg.stage);
    let geometry = CpuSsdGeometry::paper(devices_per);

    let arrays: Vec<ArrayInstance> = (0..arrays_n)
        .map(|a| {
            let array_seed = scale
                .seed
                .wrapping_add((a as u64 + 1).wrapping_mul(0xA11A_D00D_9E37_79B9));
            super::paper_array(&tuning, &geometry, devices_per, array_seed, array_seed)
        })
        .collect();
    let hops = (0..arrays_n)
        .map(|a| NetHop::new(HopSpec::datacenter(), scale.seed ^ 0x0F1E_E700, a as u64))
        .collect();

    let kill_at = cfg.kill_frac.map(|frac| {
        SimTime::ZERO + SimDuration::nanos((scale.runtime.as_nanos() as f64 * frac) as u64)
    });
    let deadline = SimTime::ZERO + scale.runtime;
    let world = FleetWorld {
        arrays,
        hops,
        cpus: (0..devices_per).map(|d| geometry.cpu_of_ssd(d)).collect(),
        devices_per,
        r: cfg.r,
        policy: cfg.policy,
        write_percent: cfg.write_percent,
        book: RequestBook::new(),
        routes: Vec::new(),
        retry: RetryPolicy::fleet_default(),
        heal_plan: Vec::new(),
        rng_arrival: SimRng::from_seed_and_stream(scale.seed, 0xF1EE_7A00),
        rng_volume: SimRng::from_seed_and_stream(scale.seed, 0xF1EE_7A01),
        rng_lba: SimRng::from_seed_and_stream(scale.seed, 0xF1EE_7A02),
        rng_write: SimRng::from_seed_and_stream(scale.seed, 0xF1EE_7A03),
        hedge: (cfg.policy == ReadPolicy::HedgedSecondary && cfg.r > 1)
            .then(|| HedgePolicy::at_percentile(HEDGE_PERCENTILE)),
        sched_policy: tuning.fio_policy(),
        rotate: 0,
        kill_array: 0,
        dead: None,
        routing_stale_until: None,
        heal_outstanding: 0,
        recovered_at: None,
        hist: LatencyHistogram::new(),
        write_hist: LatencyHistogram::new(),
        before: LatencyHistogram::new(),
        during: LatencyHistogram::new(),
        after: LatencyHistogram::new(),
        rollup: SketchRollup::new(arrays_n),
        causes: CauseAccumulator::new(),
        ledger_mismatches: 0,
        admitted: 0,
        settled: 0,
        shed: 0,
        stale_drops: 0,
        arrays_failed: 0,
        failovers: 0,
        retries: 0,
        rereplication_ios: 0,
        hedges_fired: 0,
        hedges_won: 0,
        deadline,
        horizon: deadline + SimDuration::millis(50),
    };
    let mut sim = ShardedSim::new(world, vec![super::ONE_LP_LOOKAHEAD]);
    sim.schedule(0, SimTime::ZERO, FlEvent::Arrival);
    for array in 0..arrays_n {
        sim.schedule(0, SimTime::ZERO, FlEvent::BgArrival { array });
    }
    if let Some(at) = kill_at {
        sim.schedule(0, at, FlEvent::Kill);
    }
    sim.run();
    let world = sim.into_world();

    let (_merged, sketch_merges) = world.rollup.merged();
    let fleet = FleetCounters {
        arrays_failed: world.arrays_failed,
        failovers: world.failovers,
        retries: world.retries,
        rereplication_ios: world.rereplication_ios,
    };
    metrics::flush(metrics::Counters {
        fleet,
        frontend: FrontendCounters {
            requests_admitted: world.admitted,
            requests_shed: world.shed,
            hedges_fired: world.hedges_fired,
            hedges_won: world.hedges_won,
            slab_peak_live: world.book.peak_in_flight() as u64,
            sketch_merges,
        },
        // Secondary arrays' reaps are interrupt completions too: sum
        // every array instance so the manifest sees the whole fleet.
        completion: CompletionCounters {
            interrupts: world.arrays.iter().map(ArrayInstance::interrupts).sum(),
            ..CompletionCounters::default()
        },
        causes: world.causes,
        ..Default::default()
    });
    let cell = FailoverCell {
        stage: cfg.stage,
        arrays: arrays_n,
        r: cfg.r,
        before: world.before.profile(),
        during: world.during.profile(),
        after: world.after.profile(),
        time_to_recovery: match (kill_at, world.recovered_at) {
            (Some(kill), Some(healed)) => Some(healed.saturating_since(kill)),
            _ => None,
        },
        recovered_within_run: world
            .recovered_at
            .is_some_and(|healed| healed <= world.deadline + SimDuration::millis(50)),
        per_array: (0..arrays_n)
            .map(|a| {
                (
                    world.arrays[a].interrupts(),
                    world.rollup.array(a).value_at_percentile(99.9) as f64 / 1_000.0,
                )
            })
            .collect(),
        fleet,
        admitted: world.admitted,
        shed: world.shed,
        stale_drops: world.stale_drops,
        causes: world.causes.iter().map(|(c, d, _)| (c, d)).collect(),
        ledger_mismatches: world.ledger_mismatches,
    };
    let extras = RunExtras {
        median_us: world.hist.value_at_percentile(50.0) as f64 / 1_000.0,
        write_median_us: world.write_hist.value_at_percentile(50.0) as f64 / 1_000.0,
        client: world.hist.profile(),
        hedges_fired: world.hedges_fired,
        hedges_won: world.hedges_won,
        settled: world.settled,
        in_flight_at_end: world.book.in_flight() as u64,
    };
    (cell, extras)
}

/// Per-sub routing state for one open request.
#[derive(Clone, Copy, Debug)]
struct SubRoute {
    /// Array currently serving this sub's live attempt.
    array: usize,
    /// Attempt fence: only events carrying the current attempt may
    /// touch the sub, so a retry can never double-settle.
    attempt: u32,
    lba: u64,
    done: bool,
}

/// One sub-I/O attempt's trip, client clock to client clock: the
/// fleet-side stamps around the array's [`ArrayPath`]. The winning
/// (latest-settling) sub's timeline is what the request ledger tiles.
#[derive(Clone, Copy, Debug)]
struct FleetTimeline {
    array: usize,
    sent_at: SimTime,
    at_array: SimTime,
    /// When the array CPU finished the submission path.
    submit_end: SimTime,
    path: ArrayPath,
    /// When the completion RPC landed back at the client.
    client_rx: SimTime,
}

/// One open request's fleet-side state, shadow-indexed by the book's
/// dense slot index.
#[derive(Clone, Debug)]
struct RouteState {
    /// Full generation-checked id — a recycled slot with a different
    /// id means this route is stale.
    id: u64,
    volume: u64,
    write: bool,
    arrived_at: SimTime,
    submit_end: SimTime,
    /// Marked when failover ran out of replicas; the request still
    /// settles (exactly once) but is excluded from latency stats.
    shed: bool,
    subs: Vec<SubRoute>,
    best: Option<FleetTimeline>,
}

#[derive(Debug)]
enum FlEvent {
    /// One open-loop fleet request arrives.
    Arrival,
    /// A sub-I/O's RPC landed at its array.
    NetArrive {
        request: u64,
        sub: usize,
        attempt: u32,
        array: usize,
        from_hedge: bool,
        sent_at: SimTime,
    },
    /// The device finished; the completion crosses the array's PCIe
    /// fabric next.
    DevDone {
        request: u64,
        sub: usize,
        attempt: u32,
        device: usize,
        from_hedge: bool,
        timeline: FleetTimeline,
    },
    /// The completion reached the array host: IRQ, wake, reap, then
    /// the network leg home.
    ArrayReap {
        request: u64,
        sub: usize,
        attempt: u32,
        device: usize,
        from_hedge: bool,
        timeline: FleetTimeline,
    },
    /// The completion RPC landed back at the frontend.
    NetReturn {
        request: u64,
        sub: usize,
        attempt: u32,
        from_hedge: bool,
        timeline: FleetTimeline,
    },
    /// The cross-array hedge timer for a read fired.
    HedgeFire { request: u64 },
    /// A failed-over sub-I/O's backoff expired; re-issue it.
    Retry {
        request: u64,
        sub: usize,
        attempt: u32,
    },
    /// The fault plan kills an array now.
    Kill,
    /// One paced re-replication copy starts.
    Rerepl { job: usize },
    /// One re-replication copy's target write finished.
    RereplDone,
    /// Background host noise on one array.
    BgArrival { array: usize },
}

type Ctx<'a> = ShardCtx<'a, FlEvent, Infallible>;

struct FleetWorld {
    arrays: Vec<ArrayInstance>,
    hops: Vec<NetHop>,
    /// The designated CPU per device slot (the same on every array):
    /// it submits to and reaps its device.
    cpus: Vec<CpuId>,
    devices_per: usize,
    r: usize,
    policy: ReadPolicy,
    write_percent: u64,
    book: RequestBook,
    /// Open-route state, shadow-indexed by the request handle's dense
    /// slot index (slots recycle with the book's slab).
    routes: Vec<Option<RouteState>>,
    retry: RetryPolicy,
    heal_plan: Vec<HealJob>,
    rng_arrival: SimRng,
    rng_volume: SimRng,
    rng_lba: SimRng,
    rng_write: SimRng,
    hedge: Option<HedgePolicy>,
    sched_policy: SchedPolicy,
    /// Read-any round-robin cursor.
    rotate: u64,
    kill_array: usize,
    dead: Option<usize>,
    /// Until when the frontend still routes by the pre-kill placement
    /// map (dispatches to the dead primary fail over via RPC timeout).
    routing_stale_until: Option<SimTime>,
    heal_outstanding: u64,
    recovered_at: Option<SimTime>,
    hist: LatencyHistogram,
    /// Writes only: the replication-tax view (slowest-of-R settles).
    write_hist: LatencyHistogram,
    before: LatencyHistogram,
    during: LatencyHistogram,
    after: LatencyHistogram,
    rollup: SketchRollup,
    /// Run-wide cause table: each finished request adds one event to
    /// every cause its ledger charged.
    causes: CauseAccumulator,
    ledger_mismatches: u64,
    admitted: u64,
    settled: u64,
    shed: u64,
    stale_drops: u64,
    arrays_failed: u64,
    failovers: u64,
    retries: u64,
    rereplication_ios: u64,
    hedges_fired: u64,
    hedges_won: u64,
    deadline: SimTime,
    horizon: SimTime,
}

impl FleetWorld {
    fn alive_ids(&self) -> Vec<usize> {
        (0..self.arrays.len())
            .filter(|&a| self.arrays[a].is_alive())
            .collect()
    }

    fn device_of(&self, volume: u64) -> usize {
        (volume % self.devices_per as u64) as usize
    }

    fn route(&self, request: u64) -> Option<&RouteState> {
        let slot = (request & 0xffff_ffff) as usize;
        self.routes
            .get(slot)?
            .as_ref()
            .filter(|route| route.id == request)
    }

    fn route_mut(&mut self, request: u64) -> Option<&mut RouteState> {
        let slot = (request & 0xffff_ffff) as usize;
        self.routes
            .get_mut(slot)?
            .as_mut()
            .filter(|route| route.id == request)
    }

    /// Sends one sub-I/O attempt across the network to its array.
    #[allow(clippy::too_many_arguments)]
    fn send_sub(
        &mut self,
        request: u64,
        sub: usize,
        attempt: u32,
        array: usize,
        write: bool,
        from_hedge: bool,
        sent_at: SimTime,
        ctx: &mut Ctx<'_>,
    ) {
        let req_bytes = RPC_ENVELOPE + if write { DATA_BYTES as u64 } else { 0 };
        let at_array = self.hops[array].request.reserve(sent_at, req_bytes);
        ctx.at(
            at_array,
            FlEvent::NetArrive {
                request,
                sub,
                attempt,
                array,
                from_hedge,
                sent_at,
            },
        );
    }

    /// Whether an event's `(request, sub, attempt)` still addresses
    /// the live attempt of an open route.
    fn attempt_live(&self, request: u64, sub: usize, attempt: u32) -> bool {
        self.route(request)
            .and_then(|route| route.subs.get(sub))
            .is_some_and(|s| s.attempt == attempt && !s.done)
    }

    /// Settles a sub completion into the book and, on finish, tiles
    /// the request's latency through the cause ledger.
    fn settle(
        &mut self,
        request: u64,
        sub: usize,
        from_hedge: bool,
        timeline: Option<FleetTimeline>,
        settle_end: SimTime,
    ) {
        if let Some(policy) = self.hedge.as_mut() {
            if let Some(dispatched) = self.book.dispatched_at(request) {
                policy.observe(settle_end.saturating_since(dispatched));
            }
        }
        match self.book.complete_sub(request, sub, settle_end, from_hedge) {
            SubCompletion::Duplicate => {}
            SubCompletion::Pending => {
                let route = self.route_mut(request).expect("book says request is live");
                route.subs[sub].done = true;
                if let Some(t) = timeline {
                    match &mut route.best {
                        Some(best) if best.client_rx >= t.client_rx => {}
                        slot => *slot = Some(t),
                    }
                }
            }
            SubCompletion::Finished(fin) => {
                let slot = (request & 0xffff_ffff) as usize;
                let mut route = self.routes[slot]
                    .take()
                    .expect("route for finished request");
                debug_assert_eq!(route.id, request);
                route.subs[sub].done = true;
                if let Some(t) = timeline {
                    match &mut route.best {
                        Some(best) if best.client_rx >= t.client_rx => {}
                        slot => *slot = Some(t),
                    }
                }
                if fin.hedge_won {
                    self.hedges_won += 1;
                }
                if route.shed {
                    self.shed += 1;
                    return;
                }
                self.settled += 1;
                let best = route.best.expect("finished request has a timeline");
                let latency = fin.latency();
                self.hist.record(latency.as_nanos());
                if route.write {
                    self.write_hist.record(latency.as_nanos());
                }
                self.rollup.record(best.array, latency.as_nanos());
                let phase = match self.dead {
                    None => &mut self.before,
                    Some(_) if self.heal_outstanding > 0 || self.recovered_at.is_none() => {
                        &mut self.during
                    }
                    Some(_) => &mut self.after,
                };
                phase.record(latency.as_nanos());
                // Exact attribution: every segment between adjacent
                // timestamps of the winning sub's timeline, client
                // clock to client clock. Telescopes to `latency`.
                let [to_device, service, to_host, irq, wake, reap] = best.path.stamps();
                let ledger = RequestLedger::tile(
                    route.arrived_at,
                    &[
                        (Cause::CpuWork, route.submit_end),
                        // Backoff / hedge wait between client submit
                        // and the winning attempt's network send.
                        (Cause::Other, best.sent_at),
                        (Cause::Network, best.at_array),
                        (Cause::CpuWork, best.submit_end),
                        to_device,
                        service,
                        to_host,
                        irq,
                        wake,
                        reap,
                        (Cause::Network, best.client_rx),
                        (Cause::CpuWork, best.client_rx + CLIENT_REAP),
                    ],
                );
                if ledger.total() != latency {
                    self.ledger_mismatches += 1;
                }
                for (cause, d) in ledger.iter() {
                    self.causes.add(cause, d, 1);
                }
            }
        }
    }

    /// Settles a sub as shed: the request still completes exactly
    /// once, but the latency is excluded from the serving stats.
    fn shed_sub(&mut self, request: u64, sub: usize, now: SimTime) {
        if let Some(route) = self.route_mut(request) {
            route.shed = true;
        }
        self.settle(request, sub, false, None, now);
    }
}

impl ShardWorld for FleetWorld {
    type Local = FlEvent;
    type Cross = Infallible;

    fn handle_local(&mut self, event: FlEvent, ctx: &mut Ctx<'_>) {
        match event {
            FlEvent::Arrival => {
                let now = ctx.now();
                let gap = self.rng_arrival.exponential(1.0 / ARRIVAL_RATE);
                let next = now + SimDuration::from_secs_f64(gap);
                if next < self.deadline {
                    ctx.at(next, FlEvent::Arrival);
                }
                let volume = self.rng_volume.below(VOLUMES);
                let write =
                    self.write_percent > 0 && self.rng_write.below(100) < self.write_percent;
                let lba = self.rng_lba.below(LBA_SPACE);
                let alive = self.alive_ids();
                let placement = place_among(volume, &alive, self.r);
                // While the routing map is stale (just after a kill),
                // reads still dispatch by the pre-kill placement; one
                // aimed at the dead primary burns the RPC timeout and
                // fails over through the retry path.
                let mut dead_dispatch = false;
                let targets: Vec<usize> = if write {
                    placement
                } else {
                    let stale = match (self.dead, self.routing_stale_until) {
                        (Some(dead), Some(until)) if now < until => {
                            let all: Vec<usize> = (0..self.arrays.len()).collect();
                            let pre = place_among(volume, &all, self.r);
                            let target = match self.policy {
                                ReadPolicy::Primary | ReadPolicy::HedgedSecondary => pre[0],
                                ReadPolicy::ReadAny => {
                                    self.rotate += 1;
                                    pre[(self.rotate % pre.len() as u64) as usize]
                                }
                            };
                            dead_dispatch = target == dead;
                            Some(target)
                        }
                        _ => None,
                    };
                    let target = stale.unwrap_or_else(|| match self.policy {
                        ReadPolicy::Primary | ReadPolicy::HedgedSecondary => placement[0],
                        ReadPolicy::ReadAny => {
                            self.rotate += 1;
                            placement[(self.rotate % placement.len() as u64) as usize]
                        }
                    });
                    vec![target]
                };
                let subs: Vec<SubIo> = targets
                    .iter()
                    .map(|&array| SubIo {
                        member: array,
                        lba,
                        bytes: DATA_BYTES,
                    })
                    .collect();
                let submit_end = now + CLIENT_SUBMIT;
                let id = self.book.begin(0, now, now, &subs);
                self.admitted += 1;
                let slot = (id & 0xffff_ffff) as usize;
                if slot >= self.routes.len() {
                    self.routes.resize_with(slot + 1, || None);
                }
                let attempt = if dead_dispatch { 2 } else { 1 };
                self.routes[slot] = Some(RouteState {
                    id,
                    volume,
                    write,
                    arrived_at: now,
                    submit_end,
                    shed: false,
                    subs: targets
                        .iter()
                        .map(|&array| SubRoute {
                            array,
                            attempt,
                            lba,
                            done: false,
                        })
                        .collect(),
                    best: None,
                });
                if dead_dispatch {
                    // The dispatch went to a corpse: nothing was sent,
                    // the client waits out the RPC timeout and retries
                    // on a surviving replica.
                    self.failovers += 1;
                    let backoff = self.retry.delay(2).expect("first retry is in budget");
                    ctx.at(
                        submit_end + backoff,
                        FlEvent::Retry {
                            request: id,
                            sub: 0,
                            attempt: 2,
                        },
                    );
                } else {
                    for (i, &array) in targets.iter().enumerate() {
                        self.send_sub(id, i, 1, array, write, false, submit_end, ctx);
                    }
                }
                if !write && self.policy == ReadPolicy::HedgedSecondary {
                    if let Some(delay) = self.hedge.as_ref().and_then(HedgePolicy::delay) {
                        ctx.at(submit_end + delay, FlEvent::HedgeFire { request: id });
                    }
                }
            }
            FlEvent::NetArrive {
                request,
                sub,
                attempt,
                array,
                from_hedge,
                sent_at,
            } => {
                if !self.attempt_live(request, sub, attempt) {
                    self.stale_drops += 1;
                    return;
                }
                let now = ctx.now();
                let route = self.route(request).expect("attempt_live checked");
                let (write, lba, volume) = (route.write, route.subs[sub].lba, route.volume);
                let device = self.device_of(volume);
                let cmd = if write {
                    NvmeCommand::write(lba, DATA_BYTES)
                } else {
                    NvmeCommand::read(lba, DATA_BYTES)
                };
                let target = &mut self.arrays[array];
                let submit_end = target.charge(self.cpus[device], now, ARRAY_SUBMIT);
                let path = target.issue(device, submit_end, cmd);
                ctx.at(
                    path.dev_done,
                    FlEvent::DevDone {
                        request,
                        sub,
                        attempt,
                        device,
                        from_hedge,
                        timeline: FleetTimeline {
                            array,
                            sent_at,
                            at_array: now,
                            submit_end,
                            path,
                            client_rx: SimTime::ZERO,
                        },
                    },
                );
            }
            FlEvent::DevDone {
                request,
                sub,
                attempt,
                device,
                from_hedge,
                mut timeline,
            } => {
                if !self.attempt_live(request, sub, attempt) {
                    self.stale_drops += 1;
                    return;
                }
                let write = self.route(request).expect("attempt_live checked").write;
                let payload = if write { 64 } else { DATA_BYTES as u64 };
                self.arrays[timeline.array].to_host(device, payload, &mut timeline.path);
                ctx.at(
                    timeline.path.at_host,
                    FlEvent::ArrayReap {
                        request,
                        sub,
                        attempt,
                        device,
                        from_hedge,
                        timeline,
                    },
                );
            }
            FlEvent::ArrayReap {
                request,
                sub,
                attempt,
                device,
                from_hedge,
                mut timeline,
            } => {
                if !self.attempt_live(request, sub, attempt) {
                    self.stale_drops += 1;
                    return;
                }
                let array = &mut self.arrays[timeline.array];
                array.interrupt(device, &mut timeline.path);
                let cpu = self.cpus[device];
                array.reap(cpu, self.sched_policy, ARRAY_REAP, &mut timeline.path);
                let write = self.route(request).expect("attempt_live checked").write;
                let ret_bytes = RPC_ENVELOPE + if write { 0 } else { DATA_BYTES as u64 };
                timeline.client_rx = self.hops[timeline.array]
                    .completion
                    .reserve(timeline.path.reap_end, ret_bytes);
                ctx.at(
                    timeline.client_rx,
                    FlEvent::NetReturn {
                        request,
                        sub,
                        attempt,
                        from_hedge,
                        timeline,
                    },
                );
            }
            FlEvent::NetReturn {
                request,
                sub,
                attempt,
                from_hedge,
                timeline,
            } => {
                let settle_end = ctx.now() + CLIENT_REAP;
                if !self.attempt_live(request, sub, attempt) {
                    // In a hedged cell a completion addressed to a
                    // finished request (or to a done sub of a live
                    // one) is the hedge race's loser, and the book is
                    // owed its cancellation. Hedged cells never
                    // inject faults, so nothing else can land here.
                    // In a faulted cell the only late completions are
                    // pre-failover attempts fenced by the attempt
                    // guard: drop them, the retry owns the sub.
                    let loser = self.hedge.is_some()
                        && (self.route(request).is_none()
                            || self
                                .route(request)
                                .and_then(|route| route.subs.get(sub))
                                .is_some_and(|s| s.attempt == attempt && s.done));
                    if loser {
                        self.settle(request, sub, from_hedge, None, settle_end);
                    } else {
                        self.stale_drops += 1;
                    }
                    return;
                }
                self.settle(request, sub, from_hedge, Some(timeline), settle_end);
            }
            FlEvent::HedgeFire { request } => {
                let now = ctx.now();
                let Some((sub, _io)) = self.book.hedge_straggler(request) else {
                    return;
                };
                let route = self.route(request).expect("book says request is live");
                let (volume, attempt, primary, write) = (
                    route.volume,
                    route.subs[sub].attempt,
                    route.subs[sub].array,
                    route.write,
                );
                let alive = self.alive_ids();
                let placement = place_among(volume, &alive, self.r);
                let Some(&secondary) = placement.iter().find(|&&a| a != primary) else {
                    return;
                };
                self.hedges_fired += 1;
                self.send_sub(request, sub, attempt, secondary, write, true, now, ctx);
            }
            FlEvent::Retry {
                request,
                sub,
                attempt,
            } => {
                if !self.attempt_live(request, sub, attempt) {
                    return;
                }
                let now = ctx.now();
                if self.book.retry_sub(request, sub).is_none() {
                    return;
                }
                let route = self.route(request).expect("attempt_live checked");
                let (volume, write) = (route.volume, route.write);
                let alive = self.alive_ids();
                if alive.is_empty() {
                    self.shed_sub(request, sub, now);
                    return;
                }
                let placement = place_among(volume, &alive, self.r);
                let target = placement[0];
                self.retries += 1;
                let route = self.route_mut(request).expect("attempt_live checked");
                route.subs[sub].array = target;
                self.send_sub(request, sub, attempt, target, write, false, now, ctx);
            }
            FlEvent::Kill => {
                let now = ctx.now();
                let dead = self.kill_array;
                self.arrays[dead].kill();
                self.arrays_failed += 1;
                self.dead = Some(dead);
                self.routing_stale_until = Some(now + ROUTING_STALE);
                // Fail open attempts over: bump the attempt fence and
                // schedule backed-off retries on the survivors.
                let mut sweeps = Vec::new();
                for route in self.routes.iter_mut().flatten() {
                    for (i, s) in route.subs.iter_mut().enumerate() {
                        if !s.done && s.array == dead {
                            s.attempt += 1;
                            sweeps.push((route.id, i, s.attempt));
                        }
                    }
                }
                for (request, sub, attempt) in sweeps {
                    self.failovers += 1;
                    match self.retry.delay(attempt) {
                        Some(backoff) => ctx.at(
                            now + backoff,
                            FlEvent::Retry {
                                request,
                                sub,
                                attempt,
                            },
                        ),
                        None => self.shed_sub(request, sub, now),
                    }
                }
                // Plan re-replication, paced to drain over half the
                // remaining runtime so it competes with (instead of
                // swamping) foreground I/O.
                let all: Vec<usize> = (0..self.arrays.len()).collect();
                self.heal_plan = heal_jobs(VOLUMES, &all, dead, self.r);
                self.heal_outstanding = self.heal_plan.len() as u64;
                if self.heal_plan.is_empty() {
                    self.recovered_at = Some(now);
                    return;
                }
                let window_ns = self.deadline.saturating_since(now).as_nanos() / 2;
                let gap_ns = (window_ns / self.heal_plan.len() as u64).max(1);
                for job in 0..self.heal_plan.len() {
                    ctx.at(
                        now + SimDuration::nanos(gap_ns * (job as u64 + 1)),
                        FlEvent::Rerepl { job },
                    );
                }
            }
            FlEvent::Rerepl { job } => {
                let now = ctx.now();
                let HealJob {
                    volume,
                    source,
                    target,
                } = self.heal_plan[job];
                if !self.arrays[source].is_alive() || !self.arrays[target].is_alive() {
                    self.heal_outstanding -= 1;
                    if self.heal_outstanding == 0 {
                        self.recovered_at = Some(now);
                    }
                    return;
                }
                let device = self.device_of(volume);
                let cpu = self.cpus[device];
                let lba = (volume * 16) % (LBA_SPACE - 16);
                let from = &mut self.arrays[source];
                let read_at = from.charge(cpu, now, ARRAY_SUBMIT);
                let read = from.issue(device, read_at, NvmeCommand::read(lba, HEAL_BYTES));
                // Ship the copy source→frontend→target on the same
                // paired legs foreground traffic uses: the heal
                // genuinely competes for network and device time.
                let relay = self.hops[source]
                    .completion
                    .reserve(read.dev_done, HEAL_BYTES as u64);
                let at_target = self.hops[target].request.reserve(relay, HEAL_BYTES as u64);
                let to = &mut self.arrays[target];
                let write_at = to.charge(cpu, at_target, ARRAY_SUBMIT);
                let write = to.issue(device, write_at, NvmeCommand::write(lba, HEAL_BYTES));
                self.rereplication_ios += 2;
                ctx.at(write.dev_done, FlEvent::RereplDone);
            }
            FlEvent::RereplDone => {
                self.heal_outstanding -= 1;
                if self.heal_outstanding == 0 {
                    self.recovered_at = Some(ctx.now());
                }
            }
            FlEvent::BgArrival { array } => {
                let next = self.arrays[array].background(ctx.now());
                if next < self.horizon {
                    ctx.at(next, FlEvent::BgArrival { array });
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

    #[test]
    fn failover_spikes_the_tail_then_recovers() {
        let scale = ExperimentScale::new(SimDuration::millis(400), 8, 42);
        let result = fleet_failover(scale);
        assert_eq!(result.cells.len(), TuningStage::ALL.len());
        for cell in &result.cells {
            assert_eq!(
                cell.ledger_mismatches, 0,
                "{:?} ledger must tile",
                cell.stage
            );
            assert_eq!(cell.fleet.arrays_failed, 1);
            assert!(
                cell.fleet.failovers > 0,
                "{:?}: open requests failed over",
                cell.stage
            );
            assert!(
                cell.fleet.retries > 0,
                "{:?}: retries re-issued",
                cell.stage
            );
            assert!(cell.fleet.rereplication_ios > 0);
            assert!(
                cell.recovered_within_run,
                "{:?}: heal must drain",
                cell.stage
            );
            let ttr = cell.time_to_recovery.expect("kill happened");
            assert!(ttr > SimDuration::ZERO);
            let pre999 = cell.before.get_micros(NinesPoint::Nines3);
            let dur999 = cell.during.get_micros(NinesPoint::Nines3);
            assert!(
                dur999 > pre999,
                "{:?}: failover window p99.9 ({dur999:.1}us) must exceed steady state ({pre999:.1}us)",
                cell.stage
            );
            assert!(
                cell.before.samples() > 200,
                "{:?}: thin pre-kill phase",
                cell.stage
            );
            assert!(cell.during.samples() > 0);
            assert_eq!(
                cell.shed, 0,
                "{:?}: R=2 with one kill never sheds",
                cell.stage
            );
            // Secondary arrays reap their share: every array completes
            // something, dead array included (it served before t=50%).
            for (array, &(completions, _)) in cell.per_array.iter().enumerate() {
                assert!(
                    completions > 0,
                    "{:?}: array {array} reaped nothing",
                    cell.stage
                );
            }
            assert!(
                cell.causes.iter().any(|&(c, _)| c == Cause::Network),
                "{:?}: the network hop must appear in the cause totals",
                cell.stage
            );
        }
    }

    #[test]
    fn replication_taxes_the_median_and_hedging_trims_the_tail() {
        let scale = ExperimentScale::new(SimDuration::millis(400), 8, 42);
        let result = fleet_replication(scale);
        assert_eq!(result.cells.len(), 9);
        for cell in &result.cells {
            assert_eq!(cell.ledger_mismatches, 0);
            assert!(cell.admitted > 0);
        }
        let wmed = |r, policy| {
            result
                .cell(r, policy)
                .unwrap_or_else(|| panic!("missing cell r={r}"))
                .write_median_us
        };
        // A write settles at the slowest of its R replicas: the
        // write median must rise with R under the primary policy.
        assert!(
            wmed(3, ReadPolicy::Primary) > wmed(1, ReadPolicy::Primary),
            "R=3 write median {:.1}us !> R=1 write median {:.1}us",
            wmed(3, ReadPolicy::Primary),
            wmed(1, ReadPolicy::Primary)
        );
        let hedged = result
            .cell(2, ReadPolicy::HedgedSecondary)
            .expect("hedged cell");
        assert!(hedged.hedges_fired > 0, "warm policy must hedge");
        assert!(hedged.hedges_won <= hedged.hedges_fired);
        // At R=1 there is no secondary to hedge onto.
        let solo = result.cell(1, ReadPolicy::HedgedSecondary).expect("r=1");
        assert_eq!(solo.hedges_fired, 0);
    }

    #[test]
    fn probe_settles_every_admitted_request_exactly_once() {
        for (seed, frac) in [(1u64, 0.3), (2, 0.5), (3, 0.8)] {
            let out = fleet_failover_probe(seed, frac);
            assert!(out.admitted > 0);
            assert_eq!(
                out.admitted,
                out.settled + out.shed,
                "seed {seed}: every admitted request settles exactly once"
            );
            assert_eq!(out.in_flight_at_end, 0, "seed {seed}: book drained");
            assert_eq!(out.ledger_mismatches, 0, "seed {seed}: ledgers tile");
        }
    }

    #[test]
    fn artifacts_are_deterministic() {
        let scale = ExperimentScale::new(SimDuration::millis(60), 8, 9);
        let a = fleet_failover(scale).to_json().to_string();
        let b = fleet_failover(scale).to_json().to_string();
        assert_eq!(a, b, "same seed must serialize byte-identically");
        let c = fleet_replication(scale).to_json().to_string();
        let d = fleet_replication(scale).to_json().to_string();
        assert_eq!(c, d);
    }
}
