//! System assembly: builds the host, fabric, devices and jobs from an
//! [`AfaConfig`] and drives the staged I/O path
//! ([`crate::io_path`]) to completion on the LP event engine
//! ([`afa_sim::shard`]).
//!
//! The lifecycle of one I/O — submit syscall, fabric legs, device
//! service, interrupt, scheduler wake-up, reap — lives in the
//! [`crate::io_path`] stage modules; this module only resolves the
//! geometry, runs the simulation and harvests the world into one
//! result.

use std::sync::atomic::{AtomicUsize, Ordering};

use afa_host::{CpuTopology, HostModel};
use afa_pcie::{FabricStats, PcieFabric};
use afa_sim::metrics::CompletionCounters;
use afa_sim::{ShardedSim, SimDuration, SimRng, SimTime};
use afa_ssd::{DeviceStats, FtlStats, SsdDevice};
use afa_workload::{JobReport, JobSpec, JobState};

use crate::config::AfaConfig;
use crate::geometry::CpuSsdGeometry;
use crate::io_path::{lp_of_cpu, IoPathWorld, LedgerLog, Local, HUB_LP, LP_COUNT};

/// Encoded fusion override: 0 = none (`AFA_NO_FUSION` decides),
/// 1 = force on, 2 = force off.
static FUSION_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// RAII scope pinning the macro-event fusion fast path on or off,
/// taking precedence over `AFA_NO_FUSION`. Because results are
/// byte-identical with fusion on or off, overlapping overrides from
/// concurrent tests cannot change any outcome — only how many events
/// the engine pops.
pub struct FusionOverride {
    prev: usize,
}

impl FusionOverride {
    /// Pins fusion on (`true`) or off (`false`) until the guard drops.
    pub fn set(enabled: bool) -> Self {
        let prev = FUSION_OVERRIDE.swap(if enabled { 1 } else { 2 }, Ordering::Relaxed);
        FusionOverride { prev }
    }
}

impl Drop for FusionOverride {
    fn drop(&mut self) {
        FUSION_OVERRIDE.store(self.prev, Ordering::Relaxed);
    }
}

/// Resolves whether a run fuses stage chains: a [`FusionOverride`]
/// wins, then `AFA_NO_FUSION` (any non-empty value other than `0`
/// disables), then the default (on).
fn fusion_enabled() -> bool {
    match FUSION_OVERRIDE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => !std::env::var("AFA_NO_FUSION")
            .map(|v| {
                let v = v.trim();
                !v.is_empty() && v != "0"
            })
            .unwrap_or(false),
    }
}

/// SSDs the paper's host enumerates.
const MAX_SSDS: usize = 64;

/// Checks an explicit job list (e.g. a parsed fio jobfile) against the
/// simulated host: at least one job, every device among the host's 64
/// SSDs, every pinned CPU on the host, and at most one job per device.
/// The error names the offending job as `job<index>`, the label
/// [`JobReport::to_fio_style`] output uses. [`AfaSystem::run`] panics
/// on any of these, so callers holding untrusted input check first.
pub fn check_jobs(specs: &[JobSpec]) -> Result<(), String> {
    if specs.is_empty() {
        return Err("no jobs to run".to_owned());
    }
    let cpus = CpuTopology::xeon_e5_2690_v2_dual().logical_cpus();
    let mut owner: Vec<Option<usize>> = vec![None; MAX_SSDS];
    for (j, spec) in specs.iter().enumerate() {
        let device = spec.device();
        if device >= MAX_SSDS {
            return Err(format!(
                "job{j}: /dev/nvme{device} is beyond the host's {MAX_SSDS} SSDs"
            ));
        }
        if let Some(cpu) = spec.pinned_cpu() {
            if cpu.0 >= cpus {
                return Err(format!(
                    "job{j}: cpus_allowed={} is beyond the host's {cpus} CPUs",
                    cpu.0
                ));
            }
        }
        if let Some(first) = owner[device].replace(j) {
            return Err(format!(
                "job{j}: /dev/nvme{device} is already driven by job{first}"
            ));
        }
    }
    Ok(())
}

/// The outcome of one run.
#[derive(Debug)]
pub struct RunResult {
    /// Per-device job reports, indexed like the geometry.
    pub reports: Vec<JobReport>,
    /// Per-cause latency attribution, when
    /// [`AfaConfig::attribute_causes`] was set.
    pub causes: Option<afa_sim::trace::CauseAccumulator>,
    /// blktrace-style stage traces, when [`AfaConfig::trace_ios`] was
    /// non-zero.
    pub traces: Option<crate::blktrace::TraceRecorder>,
    /// Settled per-I/O ledgers, when [`AfaConfig::ledger_log`] was
    /// non-zero.
    pub ledgers: Option<LedgerLog>,
    /// Simulated time at which the last completion landed.
    pub elapsed: SimTime,
    /// Simulation events processed by the run: about 7 per I/O on the
    /// paper's 64-SSD setup, and about 3 when macro-event fusion
    /// engages (8 busy-polled ULL SSDs).
    pub events_processed: u64,
    /// Events that were scheduled into the past and clamped (0 for a
    /// healthy model; see [`afa_sim::Simulation::clamped_past_schedules`]).
    pub clamped_past_schedules: u64,
    /// The final host model (scheduler/IRQ counters via
    /// [`HostModel::stats`]).
    pub host: HostModel,
    /// Fabric counters.
    pub fabric_stats: FabricStats,
    /// Per-device counters.
    pub device_stats: Vec<(DeviceStats, FtlStats)>,
    /// How completions were reaped (interrupt / poll / hybrid
    /// oversleep); also flushed to [`afa_sim::metrics`] so harnesses
    /// can delta the process-wide totals around an experiment.
    pub completions: CompletionCounters,
}

impl RunResult {
    /// Aggregate IOPS across all devices.
    pub fn aggregate_iops(&self, runtime: SimDuration) -> f64 {
        let secs = runtime.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.reports.iter().map(|r| r.completed()).sum::<u64>() as f64 / secs
    }

    /// Aggregate read throughput in GB/s across all devices.
    pub fn aggregate_gbps(&self, runtime: SimDuration) -> f64 {
        let secs = runtime.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.reports
            .iter()
            .map(|r| r.bytes_transferred())
            .sum::<u64>() as f64
            / secs
            / 1e9
    }
}

/// The AFA system simulator.
pub struct AfaSystem;

impl AfaSystem {
    /// Runs one experiment to completion and returns the results.
    pub fn run(config: &AfaConfig) -> RunResult {
        // Resolve the geometry: explicit jobs derive it from their
        // pinning; otherwise the config's geometry stands.
        let geometry = match &config.jobs_override {
            None => config.geometry.clone(),
            Some(specs) => {
                assert!(!specs.is_empty(), "job list must not be empty");
                let n = 1 + specs.iter().map(|s| s.device()).max().expect("non-empty");
                assert!(n <= MAX_SSDS, "jobfile addresses a device beyond 64");
                let mut seen = vec![false; n];
                for spec in specs {
                    assert!(
                        !seen[spec.device()],
                        "two jobs target device {}",
                        spec.device()
                    );
                    seen[spec.device()] = true;
                }
                let paper = CpuSsdGeometry::paper(n);
                let mut assignment = paper.assignment().to_vec();
                for spec in specs {
                    if let Some(cpu) = spec.pinned_cpu() {
                        assignment[spec.device()] = cpu;
                    }
                }
                CpuSsdGeometry::with_assignment(assignment)
            }
        };
        let n = geometry.ssds();
        assert!(n > 0, "need at least one SSD");

        let topo = CpuTopology::xeon_e5_2690_v2_dual();
        let io_set = geometry.io_cpu_set();
        let mut kernel = config
            .kernel_override
            .unwrap_or_else(|| config.tuning.kernel_config(io_set));
        if let Some(hz) = config.tick_override {
            kernel.tick_hz = hz;
        }
        if let Some(idle) = config.idle_override {
            kernel.idle = idle;
        }
        if let Some(rcu) = config.rcu_override {
            kernel.rcu_nocbs = rcu;
        }
        let mut host = HostModel::new(topo, kernel, config.background, config.seed);
        host.init_vectors(geometry.assignment().to_vec(), config.seed);

        let fabric = PcieFabric::paper_single_host(n);
        let firmware = config
            .firmware_override
            .clone()
            .unwrap_or_else(|| config.tuning.firmware());
        let devices: Vec<SsdDevice> = (0..n)
            .map(|d| {
                SsdDevice::new(
                    config.device_profile.spec(),
                    firmware.clone(),
                    config.seed ^ (d as u64).wrapping_mul(0x9E37_79B9),
                )
            })
            .collect();

        let policy = config.tuning.fio_policy();
        let specs: Vec<JobSpec> = match &config.jobs_override {
            Some(specs) => specs.clone(),
            None => (0..n)
                .map(|d| {
                    let mut spec = JobSpec::paper_default(d)
                        .rw(config.rw)
                        .block_size_bytes(config.block_size)
                        .iodepth_n(config.iodepth)
                        .runtime(config.runtime)
                        .cpus_allowed(geometry.cpu_of_ssd(d))
                        .sched(policy)
                        .ioengine(config.engine)
                        .log_latency(config.log_latency);
                    if let Some(iops) = config.rate_iops {
                        spec = spec.rate_iops_cap(iops);
                    }
                    spec
                })
                .collect(),
        };
        let jobs: Vec<JobState> = specs
            .into_iter()
            .enumerate()
            .map(|(j, spec)| {
                JobState::new(
                    spec,
                    SimTime::ZERO,
                    SimRng::from_seed_and_stream(config.seed, 0x10_000 + j as u64),
                )
            })
            .collect();

        let horizon = jobs
            .iter()
            .map(JobState::deadline)
            .fold(SimTime::ZERO, SimTime::max)
            + SimDuration::millis(50);
        let job_lps: Vec<usize> = jobs
            .iter()
            .map(|j| lp_of_cpu(geometry.cpu_of_ssd(j.spec().device())))
            .collect();
        let mut world = IoPathWorld::new(
            host,
            fabric,
            devices,
            jobs,
            geometry,
            horizon,
            config.afa_socket,
            config
                .attribute_causes
                .then(afa_sim::trace::CauseAccumulator::new),
            (config.trace_ios > 0).then(|| crate::blktrace::TraceRecorder::new(config.trace_ios)),
            (config.ledger_log > 0).then(|| LedgerLog::new(config.ledger_log)),
            config.irq_coalescing,
            config.hybrid_sleep(),
            config.device_profile.per_cpu_queue_pairs(),
        );
        // Macro-event fusion: on unless `AFA_NO_FUSION` / a
        // `FusionOverride` says otherwise. The fast path additionally
        // gates itself per submit (QD1, uncontended resources — see
        // `IoPathWorld::fusion_candidate`), and is byte-exact, so the
        // knob only exists for A/B verification.
        world.set_fusion(fusion_enabled());

        // Each LP's sends are held to its own latency floor.
        let mut lookaheads = vec![world.worker_lookahead(); LP_COUNT];
        lookaheads[HUB_LP] = world.hub_lookahead();
        let mut sim = ShardedSim::new(world, lookaheads);

        // fio staggers thread start-up by a few µs per thread; the
        // stagger also prevents an artificial phase-lock between
        // perfectly symmetric QD1 loops.
        for (job, &lp) in job_lps.iter().enumerate() {
            sim.schedule(
                lp,
                SimTime::ZERO + SimDuration::micros(job as u64 * 13 % 97),
                Local::Issue { job },
            );
        }
        sim.schedule(HUB_LP, SimTime::ZERO, Local::BgArrival);
        sim.run();

        let elapsed = sim.now();
        let events_processed = sim.events_processed();
        let clamped_past_schedules = sim.clamped_past_schedules();
        let world = sim.into_world();

        let device_stats: Vec<(DeviceStats, FtlStats)> = world
            .devices
            .iter()
            .map(|d| (d.stats(), d.ftl_stats()))
            .collect();
        let mut completions = CompletionCounters::default();
        for tally in &world.completions {
            completions.absorb(tally);
        }
        afa_sim::metrics::add_completion(completions);
        // The elided events keep the *logical* event total comparable
        // across fusion settings: popped events + elided = the
        // un-fused count.
        let fusion = world.fusion_tally();
        afa_sim::metrics::add_fusion(afa_sim::metrics::FusionCounters {
            fused_chains: fusion.fused,
            defused_chains: fusion.defused,
            elided_events: fusion.elided,
        });
        // Capture windows are per worker LP (see `IoPathWorld`); merge
        // them into one run-wide window.
        RunResult {
            reports: world.jobs.into_iter().map(JobState::into_report).collect(),
            causes: world.causes,
            traces: world
                .tracers
                .map(|parts| crate::blktrace::TraceRecorder::merged(config.trace_ios, parts)),
            ledgers: world
                .ledger_logs
                .map(|parts| LedgerLog::merged(config.ledger_log, parts)),
            elapsed,
            events_processed,
            clamped_past_schedules,
            host: world.host,
            fabric_stats: world.fabric.stats(),
            device_stats,
            completions,
        }
    }
}
