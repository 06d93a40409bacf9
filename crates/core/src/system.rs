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

use std::cell::Cell;
use std::marker::PhantomData;

use afa_host::{CpuTopology, HostModel};
use afa_pcie::{FabricStats, PcieFabric};
use afa_sim::metrics::{self, CompletionCounters};
use afa_sim::{ShardedSim, SimDuration, SimRng, SimTime};
use afa_ssd::{DeviceProfile, DeviceStats, FtlStats, SsdDevice};
use afa_stats::NinesPoint;
use afa_workload::{JobReport, JobSpec, JobState};

use crate::config::AfaConfig;
use crate::geometry::CpuSsdGeometry;
use crate::io_path::{lp_of_cpu, IoPathWorld, LedgerLog, Local, HUB_LP, LP_COUNT};

thread_local! {
    /// This thread's pinned fusion setting; `None` defers to
    /// `AFA_NO_FUSION`.
    static FUSION_OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };
}

/// RAII scope pinning fusion (private QD1 chains run their device legs
/// inline) on or off for runs on the current thread, taking precedence
/// over `AFA_NO_FUSION`. The experiment pool forwards the pin to its
/// workers, so a sweep runs as its caller set it; runs on other
/// threads are unaffected.
/// Results are byte-identical with fusion on or off — the pin changes
/// only how many events the engine pops.
pub struct FusionOverride {
    prev: Option<bool>,
    /// The guard restores its own thread's setting, so it must drop
    /// there.
    _thread: PhantomData<*const ()>,
}

impl FusionOverride {
    /// Pins fusion on (`true`) or off (`false`) on this thread until
    /// the guard drops.
    pub fn set(enabled: bool) -> Self {
        Self::pin(Some(enabled))
    }

    /// Pins `setting` on this thread until the guard drops; `None`
    /// defers to `AFA_NO_FUSION` again.
    pub(crate) fn pin(setting: Option<bool>) -> Self {
        FusionOverride {
            prev: FUSION_OVERRIDE.replace(setting),
            _thread: PhantomData,
        }
    }

    /// This thread's pinned setting, if any.
    pub(crate) fn current() -> Option<bool> {
        FUSION_OVERRIDE.get()
    }
}

impl Drop for FusionOverride {
    fn drop(&mut self) {
        FUSION_OVERRIDE.set(self.prev);
    }
}

/// Resolves whether a run's private chains run their device legs
/// inline: this thread's [`FusionOverride`] wins, then `AFA_NO_FUSION`
/// (any non-empty value other than `0` disables), then the default
/// (on).
fn fusion_enabled() -> bool {
    FusionOverride::current().unwrap_or_else(|| {
        !std::env::var("AFA_NO_FUSION")
            .map(|v| {
                let v = v.trim();
                !v.is_empty() && v != "0"
            })
            .unwrap_or(false)
    })
}

/// SSDs the paper's host enumerates.
const MAX_SSDS: usize = 64;

/// Checks an explicit job list (e.g. a parsed fio jobfile) against the
/// simulated host: at least one job, every device among the host's 64
/// SSDs, every pinned CPU on the host and off its reserved system CPUs,
/// every region within the Table-I device's logical capacity, and at
/// most one job per device. The
/// error names the offending job as `job<index>`, the label
/// [`JobReport::to_fio_style`] output uses. [`AfaSystem::run`] panics
/// on any of these, so callers holding untrusted input check first.
pub fn check_jobs(specs: &[JobSpec]) -> Result<(), String> {
    if specs.is_empty() {
        return Err("no jobs to run".to_owned());
    }
    let cpus = CpuTopology::xeon_e5_2690_v2_dual().logical_cpus();
    let geometry = CpuSsdGeometry::paper(0);
    let capacity_pages = DeviceProfile::Table1.spec().logical_pages();
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
            if geometry.reserved_cpus().contains(&cpu) {
                return Err(format!(
                    "job{j}: cpus_allowed={} is reserved for system tasks",
                    cpu.0
                ));
            }
        }
        if spec.region_pages() > capacity_pages {
            return Err(format!(
                "job{j}: size of {} 4k pages is beyond the device's {capacity_pages} logical pages",
                spec.region_pages()
            ));
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
    /// The run's cause table, when [`AfaConfig::attribute_causes`] was
    /// set (every run [`flush`](afa_sim::metrics::flush)es it).
    pub causes: Option<afa_sim::trace::CauseAccumulator>,
    /// The settled ledgers of the run's first [`AfaConfig::ledger_log`]
    /// reaps, in reap order, when that was non-zero. Each entry also
    /// renders the I/O's blktrace-style stage trace
    /// ([`CompletedIo::trace`](crate::io_path::CompletedIo::trace)).
    pub ledgers: Option<LedgerLog>,
    /// Simulated time at which the last completion landed.
    pub elapsed: SimTime,
    /// Simulation events processed by the run: 6.00 per I/O on the
    /// paper's 64-SSD setup, and 3.00 on 8 busy-polled ULL SSDs, whose
    /// private QD1 chains run their device legs inline (fusion).
    pub events_processed: u64,
    /// Events that were scheduled into the past and clamped (0 for a
    /// healthy model; see [`afa_sim::ShardedSim::clamped_past_schedules`]).
    pub clamped_past_schedules: u64,
    /// The final host model (scheduler/IRQ counters via
    /// [`HostModel::stats`]).
    pub host: HostModel,
    /// Fabric counters.
    pub fabric_stats: FabricStats,
    /// Per-device counters.
    pub device_stats: Vec<(DeviceStats, FtlStats)>,
    /// How completions were reaped (interrupt / poll / hybrid
    /// oversleep); also [`flush`](afa_sim::metrics::flush)ed, so an
    /// experiment's manifest counts them.
    pub completions: CompletionCounters,
}

impl RunResult {
    /// I/Os completed across all devices (one settled ledger each).
    pub fn completed(&self) -> u64 {
        self.reports.iter().map(JobReport::completed).sum()
    }

    /// Mean of `point` across devices, µs: the per-device values
    /// summed from 0.0 in device order, over the device count.
    pub fn mean_us(&self, point: NinesPoint) -> f64 {
        let sum = self
            .reports
            .iter()
            .fold(0.0, |sum, r| sum + r.profile().get_micros(point));
        sum / self.reports.len() as f64
    }

    /// Worst `point` across devices, µs (0.0 without devices).
    pub fn worst_us(&self, point: NinesPoint) -> f64 {
        self.reports.iter().fold(0.0, |worst: f64, r| {
            worst.max(r.profile().get_micros(point))
        })
    }

    /// Aggregate IOPS across all devices.
    pub fn aggregate_iops(&self, runtime: SimDuration) -> f64 {
        let secs = runtime.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed() as f64 / secs
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
        let kernel = config
            .kernel_override
            .unwrap_or_else(|| config.tuning.kernel_config(io_set));
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
                    JobSpec::paper_default(d)
                        .rw(config.rw)
                        .block_size_bytes(config.block_size)
                        .iodepth_n(config.iodepth)
                        .runtime(config.runtime)
                        .cpus_allowed(geometry.cpu_of_ssd(d))
                        .sched(policy)
                        .ioengine(config.engine)
                        .log_latency(config.log_latency)
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
        let world = IoPathWorld::new(
            host,
            fabric,
            devices,
            jobs,
            geometry,
            horizon,
            (config.ledger_log > 0).then(|| LedgerLog::new(config.ledger_log)),
            config.irq_coalescing,
            config.hybrid_sleep(),
            config.device_profile.per_cpu_queue_pairs(),
            // Fusion is byte-exact (a QD1 job alone on its worker LP
            // runs its device legs inline; one job per device is
            // asserted above), so the knob only exists to check the two
            // paths against each other.
            fusion_enabled(),
        );

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
        // The elided fusion events keep the per-stage event total
        // comparable across fusion settings: popped events + elided =
        // the count with fusion off.
        metrics::flush(metrics::Counters {
            completion: world.completions,
            fusion: world.fusion,
            causes: world.causes,
            ..Default::default()
        });
        RunResult {
            reports: world.jobs.into_iter().map(JobState::into_report).collect(),
            causes: config.attribute_causes.then_some(world.causes),
            ledgers: world.ledger_log,
            elapsed,
            events_processed,
            clamped_past_schedules,
            host: world.host,
            fabric_stats: world.fabric.stats(),
            device_stats,
            completions: world.completions,
        }
    }
}
