//! One array's serving stack, composable N-up under a single clock.
//!
//! An [`ArrayInstance`] owns the single-array substrate — a
//! [`HostModel`], a [`PcieFabric`] and a row of [`SsdDevice`]s — and
//! exposes the I/O path as *stage methods* invoked at event times, so
//! a serving world can interleave the path's stages with its own
//! events, and a fleet world N arrays' stages, on one DES clock. A
//! stage that runs on a CPU takes the CPU doing the work; the stages a
//! command crosses fill in its [`ArrayPath`], the record a request
//! ledger tiles.

use afa_host::{CpuId, HostModel, SchedPolicy};
use afa_pcie::PcieFabric;
use afa_sim::trace::Cause;
use afa_sim::{SimDuration, SimTime};
use afa_ssd::{NvmeCommand, SsdDevice};

use crate::failover::ArrayHealth;

/// When each stage of one command's trip through the array ended, as
/// [`ArrayInstance`]'s stage methods fill it in. Fields the trip has
/// not reached yet stay [`SimTime::ZERO`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArrayPath {
    /// The command reached the device through the PCIe fabric.
    pub at_device: SimTime,
    /// The device completed the command.
    pub dev_done: SimTime,
    /// The completion (payload, CQE, MSI-X) reached the host.
    pub at_host: SimTime,
    /// The IRQ handler finished and the reaping task could be woken.
    pub wake_ready: SimTime,
    /// The reaping task got on CPU.
    pub run_start: SimTime,
    /// The completion path finished executing.
    pub reap_end: SimTime,
}

impl ArrayPath {
    /// The stamps in path order, each with the cause the gap before it
    /// is charged to: the array half of a request ledger's tiling.
    pub fn stamps(&self) -> [(Cause, SimTime); 6] {
        [
            (Cause::Fabric, self.at_device),
            (Cause::DeviceService, self.dev_done),
            (Cause::Fabric, self.at_host),
            (Cause::IrqHandling, self.wake_ready),
            (Cause::SchedulerDelay, self.run_start),
            (Cause::CpuWork, self.reap_end),
        ]
    }
}

/// One array: host + fabric + SSDs + liveness, driven by stage calls.
/// The stage methods are `#[inline]` so a caller in another crate
/// compiles them to the host, fabric and device calls they wrap.
#[derive(Debug)]
pub struct ArrayInstance {
    host: HostModel,
    fabric: PcieFabric,
    devices: Vec<SsdDevice>,
    health: ArrayHealth,
    interrupts: u64,
}

impl ArrayInstance {
    /// Assembles an array from its substrate parts; device `d` sits
    /// behind fabric slot `d` and MSI-X vector `d`.
    pub fn new(host: HostModel, fabric: PcieFabric, devices: Vec<SsdDevice>) -> Self {
        ArrayInstance {
            host,
            fabric,
            devices,
            health: ArrayHealth::Healthy,
            interrupts: 0,
        }
    }

    /// Current liveness.
    pub fn health(&self) -> ArrayHealth {
        self.health
    }

    /// Whether the array accepts new I/O.
    #[inline]
    pub fn is_alive(&self) -> bool {
        self.health == ArrayHealth::Healthy
    }

    /// Kills the array: no new commands, in-flight I/O is lost (the
    /// fleet's failover sweep re-issues it elsewhere).
    pub fn kill(&mut self) {
        self.health = ArrayHealth::Failed;
    }

    /// Runs `work` on `cpu` from `at` (a submission batch, say);
    /// returns when it finishes.
    #[inline]
    pub fn charge(&mut self, cpu: CpuId, at: SimTime, work: SimDuration) -> SimTime {
        self.host.charge_cpu(cpu, at, work)
    }

    /// Sends `cmd` to `device` through the PCIe fabric at `at`; returns
    /// the path with `at_device` and `dev_done` set.
    ///
    /// # Panics
    ///
    /// Panics if the array is dead — the fleet must route around a
    /// [`ArrayHealth::Failed`] array, so a command reaching one is a
    /// routing bug, not a runtime condition.
    #[inline]
    pub fn issue(&mut self, device: usize, at: SimTime, cmd: NvmeCommand) -> ArrayPath {
        assert!(self.is_alive(), "issue on a failed array");
        let at_device = self.fabric.submit_command(device, at);
        ArrayPath {
            at_device,
            dev_done: self.devices[device].submit(at_device, cmd).completes_at,
            ..ArrayPath::default()
        }
    }

    /// Carries `device`'s completion of `bytes` from `path.dev_done`
    /// back through the fabric; sets `path.at_host`.
    #[inline]
    pub fn to_host(&mut self, device: usize, bytes: u64, path: &mut ArrayPath) {
        path.at_host = self.fabric.deliver_completion(device, path.dev_done, bytes);
    }

    /// Delivers `device`'s completion interrupt at `path.at_host`; sets
    /// `path.wake_ready` and counts one interrupt.
    #[inline]
    pub fn interrupt(&mut self, device: usize, path: &mut ArrayPath) {
        path.wake_ready = self.host.deliver_irq(device, path.at_host).wake_ready;
        self.interrupts += 1;
    }

    /// Wakes the reaping task on `cpu` at `path.wake_ready` under
    /// `policy` and runs `work` there; sets `path.run_start` and
    /// `path.reap_end`.
    #[inline]
    pub fn reap(
        &mut self,
        cpu: CpuId,
        policy: SchedPolicy,
        work: SimDuration,
        path: &mut ArrayPath,
    ) {
        path.run_start = self.host.wake_io_task(cpu, path.wake_ready, policy).0;
        path.reap_end = self.host.charge_cpu(cpu, path.run_start, work);
    }

    /// Completion interrupts delivered on this array — every reap on a
    /// fleet array, secondaries included, so the stitched manifest
    /// sees the whole fleet's work.
    pub fn interrupts(&self) -> u64 {
        self.interrupts
    }

    /// Spawns one background burst on the array host at `now`; returns
    /// when the next one arrives.
    #[inline]
    pub fn background(&mut self, now: SimTime) -> SimTime {
        self.host.spawn_background(now);
        self.host.next_background_arrival(now)
    }
}

#[cfg(test)]
mod tests {
    use afa_host::{BackgroundConfig, CpuTopology, KernelConfig};
    use afa_ssd::{FirmwareProfile, SsdSpec};

    use super::*;

    fn tiny_array(seed: u64) -> ArrayInstance {
        let topo = CpuTopology::xeon_e5_2690_v2_dual();
        let mut host = HostModel::new(
            topo,
            KernelConfig::stock(),
            BackgroundConfig::centos7_desktop(),
            seed,
        );
        host.init_vectors(vec![CpuId(0), CpuId(1)], seed);
        let devices = (0..2)
            .map(|d| SsdDevice::new(SsdSpec::table1(), FirmwareProfile::production(), seed ^ d))
            .collect();
        ArrayInstance::new(host, PcieFabric::paper_single_host(2), devices)
    }

    #[test]
    fn io_path_timestamps_are_monotone() {
        let mut array = tiny_array(11);
        let t0 = SimTime::from_nanos(1_000);
        let submit_end = array.charge(CpuId(0), t0, SimDuration::nanos(1_500));
        assert!(submit_end > t0);
        let mut path = array.issue(0, submit_end, NvmeCommand::read(64, 4096));
        assert!(path.at_device > submit_end);
        assert!(path.dev_done > path.at_device);
        array.to_host(0, 4096, &mut path);
        assert!(path.at_host > path.dev_done);
        array.interrupt(0, &mut path);
        assert!(path.wake_ready >= path.at_host);
        array.reap(
            CpuId(0),
            SchedPolicy::default_fair(),
            SimDuration::nanos(1_300),
            &mut path,
        );
        assert!(path.run_start >= path.wake_ready);
        assert!(path.reap_end > path.run_start);
        assert_eq!(array.interrupts(), 1);
        let stamps = path.stamps();
        assert!(stamps.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(stamps[5], (Cause::CpuWork, path.reap_end));
    }

    #[test]
    #[should_panic(expected = "issue on a failed array")]
    fn dead_arrays_refuse_ingest() {
        let mut array = tiny_array(7);
        array.kill();
        assert!(!array.is_alive());
        assert_eq!(array.health(), ArrayHealth::Failed);
        array.issue(0, SimTime::ZERO, NvmeCommand::read(0, 4096));
    }

    #[test]
    fn background_arrivals_advance() {
        let mut array = tiny_array(3);
        let t0 = SimTime::from_nanos(10_000);
        assert!(array.background(t0) > t0);
    }
}
