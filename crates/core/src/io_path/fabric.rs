//! Stage 2/4 — fabric: the PCIe switch-tree legs of the I/O.
//!
//! Downstream (stage 2): the NVMe command crosses the fabric to the
//! device after the doorbell ring. Upstream (stage 4): the 4 KiB data,
//! CQE and MSI cross back once the device posts the completion — split
//! at the LP boundary into the device-owned up-leg (reserved by the
//! device's worker) and the shared leaf/uplink legs (reserved by the
//! hub, which owns them). Each leg accrues to [`Cause::Fabric`] on the
//! I/O's ledger where it is reserved — open legs that settle into the
//! single fabric attribution the I/O ends up with.

use afa_pcie::PcieFabric;
use afa_sim::trace::Cause;
use afa_sim::{SimDuration, SimTime};

use crate::blktrace::IoStage;

use super::model::CompletionModel;
use super::IoLedger;

/// Extra completion-path latency when the fio thread's socket differs
/// from the socket owning the AFA's PCIe uplink (remote-node DMA +
/// cross-interconnect MSI).
pub(crate) const NUMA_CROSS_SOCKET: SimDuration = SimDuration::nanos(900);

/// Reserves the shared host→leaf down-legs for a command that left
/// the host at `start`; returns when it reaches the leaf egress. Runs
/// on the hub (the shared down-links are FIFO resources, so they must
/// be reserved in global submit order — the 64 B commands barely load
/// them, but the FIFO ordering phase-couples the submitting threads,
/// which is what sustains completion convoys on the upstream legs).
pub(crate) fn downstream_shared(fabric: &mut PcieFabric, device: usize, start: SimTime) -> SimTime {
    fabric.submit_command_shared_legs(device, start)
}

/// Reserves the device's private down-link from the leaf-egress
/// timestamp, accrues the whole downstream crossing and returns when
/// the command is visible to the device. Runs on the device's worker
/// (the per-device link is its resource), or on the hub for an inline
/// chain.
pub(crate) fn downstream_device_leg(
    fabric: &mut PcieFabric,
    device: usize,
    submit_end: SimTime,
    at_entry: SimTime,
    ledger: &mut IoLedger,
) -> SimTime {
    let at_device = fabric.submit_command_device_leg(device, at_entry);
    ledger.accrue(Cause::Fabric, at_device.saturating_since(submit_end));
    ledger.stamp(IoStage::Dispatch, at_device);
    at_device
}

/// Reserves the device-owned up-leg at the instant the device posts
/// the completion; returns when the payload reaches the leaf switch.
/// Runs on the device's worker (the per-device link is its resource),
/// or on the hub for an inline chain.
/// The completion model decides the payload: only
/// [`CompletionModel::pays_msi`] completions carry the 4-byte MSI-X
/// message — a polled CQ is discovered by reading it.
pub(crate) fn device_leg(
    fabric: &mut PcieFabric,
    device: usize,
    now: SimTime,
    bytes: u64,
    model: CompletionModel,
    ledger: &mut IoLedger,
) -> SimTime {
    let t_leaf = if model.pays_msi() {
        fabric.deliver_completion_device_leg(device, now, bytes)
    } else {
        fabric.poll_completion_device_leg(device, now, bytes)
    };
    ledger.accrue(Cause::Fabric, t_leaf.saturating_since(now));
    t_leaf
}

/// Reserves the shared leaf + uplink legs from the leaf-arrival
/// instant and accrues them; returns when the interrupt reaches the
/// host. Runs on the hub (shared links are FIFO resources, so this
/// must run in global leaf-arrival order). `cross_socket` adds the
/// NUMA penalty for fio threads living on the socket the AFA's uplink
/// does not attach to. [`CompletionModel::pays_msi`] completions end
/// with the MSI-X vector delivery (and its latency + interrupt count);
/// polled completions end when the CQE DMA write lands.
pub(crate) fn shared_legs(
    fabric: &mut PcieFabric,
    device: usize,
    t_leaf: SimTime,
    bytes: u64,
    cross_socket: bool,
    model: CompletionModel,
    ledger: &mut IoLedger,
) -> SimTime {
    let mut at_host = if model.pays_msi() {
        fabric.deliver_completion_shared_legs(device, t_leaf, bytes)
    } else {
        fabric.poll_completion_shared_legs(device, t_leaf, bytes)
    };
    if cross_socket {
        at_host += NUMA_CROSS_SOCKET;
    }
    ledger.accrue(Cause::Fabric, at_host.saturating_since(t_leaf));
    at_host
}
