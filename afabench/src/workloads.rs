//! The five pinned workloads: how each is configured, run, checked and
//! digested.
//!
//! A workload is a fixed configuration of the simulator plus a seed.
//! Array workloads are closed loops (each fio job issues its next I/O
//! when the previous one completes) and count device I/Os; serving
//! workloads are open loops at fixed simulated rates and count client
//! requests. Everything the benchmark reads comes from public outputs:
//! `RunResult` fields, the experiment result objects, and deltas of the
//! process-wide `afa_sim::metrics` totals — the child process runs
//! nothing else, so the deltas belong to the workload alone.

use afa_core::experiment::{self, ExperimentResult, ExperimentScale};
use afa_core::{AfaConfig, AfaSystem, RunResult, TuningStage};
use afa_sim::metrics;
use afa_sim::trace::Cause;
use afa_sim::SimDuration;
use afa_ssd::DeviceProfile;
use afa_workload::{IoEngine, RwPattern};

/// How a workload drives the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `AfaSystem::run` on an [`AfaConfig`]; units are device I/Os.
    Array,
    /// The `tailscale-hedge` serving experiment; units are requests.
    ServeHedge,
    /// The `fleet-failover` experiment; units are requests.
    FleetFailover,
}

/// One pinned workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used on the command line and in every output.
    pub name: &'static str,
    /// What one unit of `host_ns_per_io` is.
    pub unit: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    /// Which simulator entry point it drives.
    pub kind: Kind,
    /// Simulated run time of one full-scale run (`afabench run`).
    pub full_secs: f64,
    /// Simulated run time of one repetition of a timed run
    /// (`afabench measure`): an eighth of the full scale, about one
    /// wall second, so a timed run holds many repetitions and its
    /// fastest one is likely to fall between a shared host's stalls.
    pub rep_secs: f64,
    /// SSDs in the array (the stripe width for serving workloads).
    pub ssds: usize,
    /// Tuning stage of the modelled stack.
    pub stage: TuningStage,
    /// Device class.
    pub profile: DeviceProfile,
    /// Completion model of the fio jobs.
    pub engine: IoEngine,
    /// I/O mix of the fio jobs.
    pub rw: RwPattern,
    /// Queue depth of each fio job.
    pub iodepth: u32,
}

/// The benchmark's workloads, in the order every report lists them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paper-64",
        unit: "io",
        why: "The paper's Fig. 6 setup (64 SSDs, QD1 4 KiB randread, default kernel): 8 jobs per worker LP, so fusion never engages",
        kind: Kind::Array,
        full_secs: 8.0,
        rep_secs: 1.0,
        ssds: 64,
        stage: TuningStage::Default,
        profile: DeviceProfile::Table1,
        engine: IoEngine::Libaio,
        rw: RwPattern::RandRead,
        iodepth: 1,
    },
    Workload {
        name: "ull-poll-8",
        unit: "io",
        why: "8 ULL SSDs busy-polled: one job per LP, so chains fuse and the IRQ/wake path is skipped",
        kind: Kind::Array,
        full_secs: 30.0,
        rep_secs: 3.75,
        ssds: 8,
        stage: TuningStage::IrqAffinity,
        profile: DeviceProfile::UltraLowLatency,
        engine: IoEngine::Polling,
        rw: RwPattern::RandRead,
        iodepth: 1,
    },
    Workload {
        name: "mixed-qd8-16",
        unit: "io",
        why: "16 SSDs, 70/30 random read/write at QD8: writes, device queueing, write payloads and FTL map growth",
        kind: Kind::Array,
        full_secs: 10.0,
        rep_secs: 1.25,
        ssds: 16,
        stage: TuningStage::IrqAffinity,
        profile: DeviceProfile::Table1,
        engine: IoEngine::Libaio,
        rw: RwPattern::RandRw { read_pct: 70 },
        iodepth: 8,
    },
    Workload {
        name: "serve-hedge-16",
        unit: "request",
        why: "Open-loop tenants over a 16-wide striped volume with hedged reads and background writes (afa-frontend, afa-volume)",
        kind: Kind::ServeHedge,
        full_secs: 60.0,
        rep_secs: 7.5,
        ssds: 16,
        stage: TuningStage::IrqAffinity,
        profile: DeviceProfile::Table1,
        engine: IoEngine::Libaio,
        rw: RwPattern::RandRead,
        iodepth: 1,
    },
    Workload {
        name: "fleet-failover-8",
        unit: "request",
        why: "Replicated fleet with an array killed mid-run: network hops, failover and re-replication (afa-fleet)",
        kind: Kind::FleetFailover,
        full_secs: 80.0,
        rep_secs: 10.0,
        ssds: 8,
        stage: TuningStage::Default,
        profile: DeviceProfile::Table1,
        engine: IoEngine::Libaio,
        rw: RwPattern::RandRead,
        iodepth: 1,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The array configuration this workload runs (array workloads), or
    /// the equivalent single-array stack its serving path is built from
    /// (serving workloads — used only to build per-layer replay state).
    pub fn array_config(&self, seed: u64, runtime: SimDuration) -> AfaConfig {
        let mut config = AfaConfig::paper(self.stage)
            .with_ssds(self.ssds)
            .with_runtime(runtime)
            .with_seed(seed)
            .with_device_profile(self.profile)
            .with_engine(self.engine)
            .with_rw(self.rw);
        config.iodepth = self.iodepth;
        config
    }

    /// Runs the workload once for `runtime` simulated time. `traced`
    /// adds cause attribution and a ledger log on array workloads; the
    /// simulated outputs (and hence the digest) do not change.
    pub fn execute(&self, seed: u64, runtime: SimDuration, traced: bool) -> Raw {
        let before = Totals::now();
        let result = match self.kind {
            Kind::Array => {
                let mut config = self.array_config(seed, runtime);
                if traced {
                    config = config
                        .with_cause_attribution(true)
                        .with_ledger_log(LEDGER_LOG);
                }
                RawResult::Array(Box::new(AfaSystem::run(&config)))
            }
            Kind::ServeHedge => RawResult::Hedge(experiment::tailscale_hedge(
                ExperimentScale::new(runtime, self.ssds, seed),
            )),
            Kind::FleetFailover => RawResult::Fleet(experiment::fleet_failover(
                ExperimentScale::new(runtime, self.ssds, seed),
            )),
        };
        Raw {
            result,
            delta: Totals::now().since(&before),
            runtime,
        }
    }
}

/// Settled ledgers a traced array run captures (the ledger-replay
/// input and the tiling check's sample).
pub const LEDGER_LOG: usize = 65_536;

/// The un-harvested output of one run.
pub struct Raw {
    result: RawResult,
    delta: Totals,
    runtime: SimDuration,
}

enum RawResult {
    Array(Box<RunResult>),
    Hedge(experiment::FrontendServeResult),
    Fleet(experiment::FleetFailoverResult),
}

/// Snapshot of the process-wide counters a run flushes.
#[derive(Clone, Copy, Debug, Default)]
struct Totals {
    events: u64,
    clamped: u64,
    fusion: metrics::FusionCounters,
    completion: metrics::CompletionCounters,
}

impl Totals {
    fn now() -> Self {
        Totals {
            events: metrics::events_processed_total(),
            clamped: metrics::clamped_past_total(),
            fusion: metrics::fusion_totals(),
            completion: metrics::completion_totals(),
        }
    }

    fn since(&self, earlier: &Totals) -> Totals {
        Totals {
            events: self.events - earlier.events,
            clamped: self.clamped - earlier.clamped,
            fusion: self.fusion.since(&earlier.fusion),
            completion: self.completion.since(&earlier.completion),
        }
    }
}

/// Exact per-run counts the per-layer metrics are built from. Counts a
/// workload's outputs do not expose stay zero.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    /// Simulation events popped.
    pub events: u64,
    /// Macro-event chains fused / de-fused.
    pub fused: u64,
    pub defused: u64,
    /// Completions reaped by polling.
    pub polls: u64,
    /// afa-host counters.
    pub irqs: u64,
    pub remote_irqs: u64,
    pub wakes: u64,
    pub wakes_preempting_bg: u64,
    /// `HostModel::charge_cpu` calls.
    pub charges: u64,
    /// afa-pcie counters.
    pub commands: u64,
    pub msi: u64,
    pub uplink_bytes: u64,
    /// afa-ssd counters.
    pub reads: u64,
    pub writes: u64,
    pub housekeeping_hits: u64,
    pub media_retries: u64,
    pub gc_cycles: u64,
    /// afa-stats records per run.
    pub histogram_records: u64,
    pub sketch_records: u64,
    /// Per-I/O ledgers settled (`IoLedger` on arrays, `RequestLedger`
    /// on serving workloads).
    pub ledgers: u64,
    /// Serving-layer counters.
    pub subs: u64,
    pub admitted: u64,
    pub shed: u64,
    pub hedges_fired: u64,
    pub hedges_won: u64,
    pub failovers: u64,
    pub fleet_retries: u64,
    pub rereplication_ios: u64,
    pub stale_drops: u64,
}

/// The harvested, checked outcome of one run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Completed units (I/Os or requests).
    pub units: u64,
    /// Invariant violations; each counts as one failed unit.
    pub failed: u64,
    /// FNV-1a 64 over the deterministic outputs (event counts excluded).
    pub digest: u64,
    /// Simulated time the run covered, nanoseconds.
    pub sim_ns: u64,
    /// Per-layer counts.
    pub counts: Counts,
    /// Per-cause latency totals in nanoseconds (zero on untraced array
    /// runs, which attribute nothing).
    pub causes: [u64; Cause::COUNT],
    /// Settled ledgers of a traced array run, as `(cause, amount_ns)`
    /// rows, for the ledger replay.
    pub ledger_rows: Vec<Vec<(Cause, u64)>>,
    /// Latency samples (ns) for the statistics replays.
    pub latencies: Vec<u64>,
}

impl Raw {
    /// Checks and digests the run's outputs.
    pub fn harvest(self) -> Outcome {
        match self.result {
            RawResult::Array(run) => harvest_array(&run, &self.delta),
            RawResult::Hedge(result) => harvest_hedge(&result, &self.delta, self.runtime),
            RawResult::Fleet(result) => harvest_fleet(&result, &self.delta, self.runtime),
        }
    }
}

/// FNV-1a 64.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a number into the hash (little-endian bytes).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

fn harvest_array(run: &RunResult, delta: &Totals) -> Outcome {
    let mut fnv = Fnv::default();
    fnv.u64(run.elapsed.as_nanos());
    let mut units = 0;
    let mut latencies = Vec::new();
    for report in &run.reports {
        units += report.completed();
        fnv.u64(report.completed());
        fnv.u64(report.bytes_transferred());
        for (value, count) in report.histogram().iter_buckets() {
            fnv.u64(value);
            fnv.u64(count);
            if latencies.len() < LATENCY_SAMPLES {
                latencies.push(value);
            }
        }
    }
    let mut counts = Counts {
        events: delta.events,
        fused: delta.fusion.fused_chains,
        defused: delta.fusion.defused_chains,
        polls: run.completions.polls,
        histogram_records: units,
        ledgers: units,
        ..Counts::default()
    };
    for (dev, ftl) in &run.device_stats {
        for v in [
            dev.reads,
            dev.writes,
            dev.admin,
            dev.retries,
            dev.housekeeping_hits,
        ] {
            fnv.u64(v);
        }
        for v in [
            ftl.host_slots_written,
            ftl.gc_slots_copied,
            ftl.blocks_erased,
            ftl.gc_cycles,
            ftl.wl_swaps,
            ftl.wl_slots_copied,
        ] {
            fnv.u64(v);
        }
        counts.reads += dev.reads;
        counts.writes += dev.writes;
        counts.housekeeping_hits += dev.housekeeping_hits;
        counts.media_retries += dev.retries;
        counts.gc_cycles += ftl.gc_cycles;
    }
    let fabric = run.fabric_stats;
    for v in [
        fabric.uplink_bytes,
        fabric.device_bytes,
        fabric.interrupts,
        fabric.commands,
    ] {
        fnv.u64(v);
    }
    counts.commands = fabric.commands;
    counts.msi = fabric.interrupts;
    counts.uplink_bytes = fabric.uplink_bytes;
    let host = run.host.stats();
    for v in [
        host.bg_bursts,
        host.wakes_preempting_bg,
        host.wakes,
        host.remote_irqs,
        host.irqs,
        host.io_cpu_busy_ns,
        host.rcu_softirq_hits,
    ] {
        fnv.u64(v);
    }
    host.bg_per_cpu.iter().for_each(|&v| fnv.u64(v));
    host.bg_per_class.iter().for_each(|&v| fnv.u64(v));
    counts.irqs = host.irqs;
    counts.remote_irqs = host.remote_irqs;
    counts.wakes = host.wakes;
    counts.wakes_preempting_bg = host.wakes_preempting_bg;
    // io_path charges the CPU once at submit and once at reap, plus
    // once more for the spin window of every polled reap.
    counts.charges = 2 * units + run.completions.polls;
    for v in [
        run.completions.interrupts,
        run.completions.polls,
        run.completions.hybrid_sleeps,
    ] {
        fnv.u64(v);
    }

    // Output checks: every violated invariant is one failed unit.
    let device_ios = counts.reads + counts.writes;
    let mut failed = units.abs_diff(device_ios);
    failed += run.clamped_past_schedules;
    failed += host.irqs.abs_diff(run.completions.interrupts);
    let mut causes = [0u64; Cause::COUNT];
    if let Some(acc) = &run.causes {
        for (i, &cause) in Cause::ALL.iter().enumerate() {
            causes[i] = acc.total(cause).as_nanos();
        }
    }
    let mut ledger_rows = Vec::new();
    if let Some(log) = &run.ledgers {
        for io in log.entries() {
            let accounted = io.ledger.total().as_nanos() - io.ledger.pre_issue().as_nanos();
            if accounted != io.latency().as_nanos() {
                failed += 1;
            }
            ledger_rows.push(
                io.ledger
                    .rows()
                    .map(|(cause, amount, _)| (cause, amount.as_nanos()))
                    .collect(),
            );
        }
    }
    Outcome {
        units,
        failed,
        digest: fnv.finish(),
        sim_ns: run.elapsed.as_nanos(),
        counts,
        causes,
        ledger_rows,
        latencies,
    }
}

/// Latency samples kept for the statistics replays.
const LATENCY_SAMPLES: usize = 4_096;

/// Digest of a serving artifact: its JSON bytes, which carry no event
/// counts and no wall-clock.
fn artifact_digest(result: &dyn ExperimentResult) -> u64 {
    let mut fnv = Fnv::default();
    fnv.bytes(result.to_json().to_string().as_bytes());
    fnv.finish()
}

fn add_causes(totals: &mut [u64; Cause::COUNT], causes: &[(Cause, SimDuration)]) {
    for &(cause, d) in causes {
        totals[cause.index()] += d.as_nanos();
    }
}

fn profile_latencies(profile: &afa_stats::LatencyProfile, out: &mut Vec<u64>) {
    use afa_stats::NinesPoint;
    for point in [
        NinesPoint::Average,
        NinesPoint::Nines2,
        NinesPoint::Nines3,
        NinesPoint::Max,
    ] {
        out.push((profile.get_micros(point) * 1_000.0) as u64);
    }
}

fn harvest_hedge(
    result: &experiment::FrontendServeResult,
    delta: &Totals,
    runtime: SimDuration,
) -> Outcome {
    let units = result.samples();
    let mut counts = Counts {
        events: delta.events,
        ..Counts::default()
    };
    let mut causes = [0u64; Cause::COUNT];
    let mut failed = delta.clamped;
    let mut latencies = Vec::new();
    for cell in &result.cells {
        let requests = cell.client.samples();
        failed += cell.ledger_mismatches;
        add_causes(&mut causes, &cell.causes);
        profile_latencies(&cell.client, &mut latencies);
        counts.admitted += cell.counters.requests_admitted;
        counts.shed += cell.counters.requests_shed;
        counts.hedges_fired += cell.counters.hedges_fired;
        counts.hedges_won += cell.counters.hedges_won;
        // Each request reads one stripe unit from every member; a
        // hedge adds one duplicate sub-I/O.
        counts.subs += cell.width as u64 * requests + cell.counters.hedges_fired;
    }
    // Per sub-I/O the serving path makes one fabric submit and
    // completion, one device read, one IRQ, one wake and one reap
    // charge; per request one submit charge, one ledger, and two
    // exact-histogram records (the client profile and the tenant SLO).
    // The background write stream is not in the artifact and is left
    // out of these counts.
    counts.commands = counts.subs;
    counts.msi = counts.subs;
    counts.reads = counts.subs;
    counts.irqs = counts.subs;
    counts.wakes = counts.subs;
    counts.charges = counts.subs + units;
    counts.ledgers = units;
    counts.histogram_records = 2 * units;
    Outcome {
        units,
        failed,
        digest: artifact_digest(result),
        sim_ns: runtime.as_nanos(),
        counts,
        causes,
        ledger_rows: Vec::new(),
        latencies,
    }
}

fn harvest_fleet(
    result: &experiment::FleetFailoverResult,
    delta: &Totals,
    runtime: SimDuration,
) -> Outcome {
    let units = result.samples();
    let mut counts = Counts {
        events: delta.events,
        ..Counts::default()
    };
    let mut causes = [0u64; Cause::COUNT];
    let mut failed = delta.clamped;
    let mut latencies = Vec::new();
    for cell in &result.cells {
        failed += cell.ledger_mismatches;
        add_causes(&mut causes, &cell.causes);
        for profile in [&cell.before, &cell.during, &cell.after] {
            profile_latencies(profile, &mut latencies);
        }
        counts.admitted += cell.admitted;
        counts.shed += cell.shed;
        counts.stale_drops += cell.stale_drops;
        counts.failovers += cell.fleet.failovers;
        counts.fleet_retries += cell.fleet.retries;
        counts.rereplication_ios += cell.fleet.rereplication_ios;
    }
    // Every array reap is an interrupt completion of one device I/O
    // (requests, retries and re-replication alike): one fabric round
    // trip, one device command, one IRQ, one wake, and a submit plus a
    // reap charge. Per request: one sub-I/O plus its retries, one
    // ledger, two exact-histogram records (fleet and phase profiles)
    // and one per-array sketch record.
    let reaps = delta.completion.interrupts;
    counts.commands = reaps;
    counts.msi = reaps;
    counts.reads = reaps;
    counts.irqs = reaps;
    counts.wakes = reaps;
    counts.charges = 2 * reaps;
    counts.subs = units + counts.fleet_retries;
    counts.ledgers = units;
    counts.histogram_records = 2 * units;
    counts.sketch_records = units;
    Outcome {
        units,
        failed,
        digest: artifact_digest(result),
        sim_ns: runtime.as_nanos(),
        counts,
        causes,
        ledger_rows: Vec::new(),
        latencies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A simulated run short enough for a test, long enough that every
    /// workload completes units (the fleet kills an array at 50 %).
    fn tiny(w: &Workload) -> SimDuration {
        SimDuration::from_secs_f64(match w.kind {
            Kind::Array => 0.02,
            Kind::ServeHedge => 0.1,
            Kind::FleetFailover => 0.2,
        })
    }

    #[test]
    fn every_workload_passes_its_output_checks_at_tiny_scale() {
        for w in &WORKLOADS {
            let o = w.execute(7, tiny(w), false).harvest();
            assert!(o.units > 0, "{} completed nothing", w.name);
            assert_eq!(o.failed, 0, "{} violated an output check", w.name);
        }
    }

    #[test]
    fn two_in_process_runs_give_the_same_digest() {
        for w in &WORKLOADS {
            let a = w.execute(11, tiny(w), false).harvest();
            let b = w.execute(11, tiny(w), false).harvest();
            assert_eq!(a.digest, b.digest, "{}", w.name);
            assert_eq!(a.units, b.units, "{}", w.name);
            let other = w.execute(12, tiny(w), false).harvest();
            assert_ne!(a.digest, other.digest, "{}: the seed must matter", w.name);
        }
    }

    #[test]
    fn traced_array_runs_tile_every_ledger_and_keep_the_digest() {
        for w in WORKLOADS.iter().filter(|w| w.kind == Kind::Array) {
            let plain = w.execute(5, tiny(w), false).harvest();
            let traced = w.execute(5, tiny(w), true).harvest();
            assert_eq!(traced.failed, 0, "{}", w.name);
            assert!(
                !traced.ledger_rows.is_empty(),
                "{} captured no ledgers",
                w.name
            );
            assert!(traced.causes.iter().any(|&ns| ns > 0), "{}", w.name);
            assert_eq!(
                plain.digest, traced.digest,
                "{}: tracing moved an output",
                w.name
            );
        }
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let hash = |s: &str| {
            let mut f = Fnv::default();
            f.bytes(s.as_bytes());
            f.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }
}
