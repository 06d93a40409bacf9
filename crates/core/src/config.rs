//! Run configuration: everything needed to run one experiment.

use afa_host::BackgroundConfig;
use afa_sim::SimDuration;
use afa_ssd::DeviceProfile;
use afa_workload::{IoEngine, JobSpec, RwPattern};

use crate::geometry::CpuSsdGeometry;
use crate::tuning::TuningStage;

/// NVMe interrupt-coalescing parameters (the standard mitigation for
/// the §I "interrupt storm" concern): the device holds completions
/// until `max_batch` have accumulated or `timeout` has passed since
/// the first, then raises a single MSI for the batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IrqCoalescing {
    /// Fire as soon as this many completions are pending.
    pub max_batch: u32,
    /// Fire this long after the first pending completion.
    pub timeout: SimDuration,
}

/// Everything needed to run one experiment.
#[derive(Clone, Debug)]
pub struct AfaConfig {
    /// CPU↔SSD mapping.
    pub geometry: CpuSsdGeometry,
    /// Tuning stage (kernel config + fio class + firmware).
    pub tuning: TuningStage,
    /// Background daemon workload.
    pub background: BackgroundConfig,
    /// Per-job run time.
    pub runtime: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Enable per-sample latency logs on every job (Fig. 10).
    pub log_latency: bool,
    /// Completion model.
    pub engine: IoEngine,
    /// I/O mix (the paper uses 4 KiB random reads).
    pub rw: RwPattern,
    /// Block size in bytes (the paper uses 4 KiB).
    pub block_size: u32,
    /// Queue depth per job (the paper uses 1).
    pub iodepth: u32,
    /// Firmware override (the housekeeping-protocol ablation sweeps
    /// custom SMART policies); `None` uses the tuning stage's
    /// firmware.
    pub firmware_override: Option<afa_ssd::FirmwareProfile>,
    /// Kernel-config replacement for the tuning stage's (the tick,
    /// C-state and RCU ablations, future-work prototypes).
    pub kernel_override: Option<afa_host::KernelConfig>,
    /// NVMe interrupt coalescing; `None` = one MSI per completion
    /// (the paper's devices).
    pub irq_coalescing: Option<IrqCoalescing>,
    /// Explicit job list (e.g. from [`afa_workload::parse_jobfile`]);
    /// replaces the per-device jobs the config would otherwise build.
    /// Each spec must target a distinct device; unpinned jobs get the
    /// paper's Fig. 5 CPU for their device.
    pub jobs_override: Option<Vec<JobSpec>>,
    /// Hand the run's cause table (the simulated LTTng analysis of
    /// §IV-B/§IV-D, which every run flushes) back in
    /// [`RunResult::causes`](crate::RunResult::causes) too.
    pub attribute_causes: bool,
    /// Capture the settled [`IoLedger`](crate::io_path::IoLedger) of
    /// the run's first N reaps (0 = off), the run's one per-I/O
    /// record: results, blktrace stamps included, land in
    /// [`RunResult::ledgers`](crate::RunResult::ledgers).
    pub ledger_log: usize,
    /// Device class for every SSD in the array (Table-I 25 µs default,
    /// or the ULL ~9 µs class). Also selects the queue-pair topology:
    /// the ULL class models per-CPU NVMe SQ/CQ pairs.
    pub device_profile: DeviceProfile,
}

/// Hybrid-poll sleep fraction: percent of the device profile's nominal
/// read latency the thread sleeps before it starts spinning (io_uring's
/// `hybrid_poll` knob). Integer percent keeps the derived sleep
/// deterministic across platforms.
const HYBRID_SLEEP_PERCENT: u64 = 50;

impl AfaConfig {
    /// The paper's §III setup at a given tuning stage: 64 SSDs, the
    /// Fig. 5 geometry, CentOS-7-like background noise, 120 s runs.
    pub fn paper(stage: TuningStage) -> Self {
        AfaConfig {
            geometry: CpuSsdGeometry::paper(64),
            tuning: stage,
            background: BackgroundConfig::centos7_desktop(),
            runtime: SimDuration::secs(120),
            seed: 42,
            log_latency: false,
            engine: IoEngine::Libaio,
            rw: RwPattern::RandRead,
            block_size: 4096,
            iodepth: 1,
            firmware_override: None,
            kernel_override: None,
            irq_coalescing: None,
            jobs_override: None,
            attribute_causes: false,
            ledger_log: 0,
            device_profile: DeviceProfile::Table1,
        }
    }

    /// The hybrid-poll sleep this config implies: the sleep fraction
    /// applied to the device profile's nominal read latency.
    pub fn hybrid_sleep(&self) -> SimDuration {
        let nominal = self.device_profile.nominal_read_latency();
        SimDuration::nanos(nominal.as_nanos() * HYBRID_SLEEP_PERCENT / 100)
    }

    /// Captures the settled per-I/O ledgers of the run's first `n`
    /// reaps.
    pub fn with_ledger_log(mut self, n: usize) -> Self {
        self.ledger_log = n;
        self
    }

    /// Enables NVMe interrupt coalescing on every device.
    pub fn with_irq_coalescing(mut self, coalescing: IrqCoalescing) -> Self {
        self.irq_coalescing = Some(coalescing);
        self
    }

    /// Runs an explicit job list (e.g. a parsed fio jobfile) instead
    /// of the config-generated per-device jobs. The geometry is
    /// derived from the jobs' `cpus_allowed` pinning.
    ///
    /// # Panics
    ///
    /// [`AfaSystem::run`](crate::AfaSystem::run) panics if two jobs
    /// target the same device or a job addresses a device beyond 64.
    pub fn with_jobs(mut self, jobs: Vec<JobSpec>) -> Self {
        self.jobs_override = Some(jobs);
        self
    }

    /// Returns the run's cause table in
    /// [`RunResult::causes`](crate::RunResult::causes).
    pub fn with_cause_attribution(mut self, enable: bool) -> Self {
        self.attribute_causes = enable;
        self
    }

    /// Replaces the geometry with the paper mapping over `n` SSDs.
    pub fn with_ssds(mut self, n: usize) -> Self {
        self.geometry = CpuSsdGeometry::paper(n);
        self
    }

    /// Sets the per-job run time.
    pub fn with_runtime(mut self, runtime: SimDuration) -> Self {
        self.runtime = runtime;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets an explicit geometry (Table II rows).
    pub fn with_geometry(mut self, geometry: CpuSsdGeometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Enables per-sample latency logging.
    pub fn with_logging(mut self, log: bool) -> Self {
        self.log_latency = log;
        self
    }

    /// Sets the completion model.
    pub fn with_engine(mut self, engine: IoEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Installs custom firmware on every device (housekeeping
    /// ablations).
    pub fn with_firmware(mut self, firmware: afa_ssd::FirmwareProfile) -> Self {
        self.firmware_override = Some(firmware);
        self
    }

    /// Sets the I/O mix.
    pub fn with_rw(mut self, rw: RwPattern) -> Self {
        self.rw = rw;
        self
    }

    /// Selects the device class for every SSD in the array.
    pub fn with_device_profile(mut self, profile: DeviceProfile) -> Self {
        self.device_profile = profile;
        self
    }
}
