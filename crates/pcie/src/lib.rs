//! PCIe Gen3 switch-fabric model for the AFA reproduction.
//!
//! Models the paper's §III-A fabric: an OCP 2OU enclosure with seven
//! 96-lane/24-port PCIe Gen3 switches in a two-level tree, 61 device
//! slots (M.2 carrier cards, four NVMe SSDs each) and three Gen3 x16
//! uplinks, each statically assigned a partition of the slots and
//! capable of 16 GB/s to one host (Fig. 1, Fig. 2, Fig. 4).
//!
//! Every link is a "next-free-time" resource: a transfer reserves the
//! link for its serialization time and arrives after propagation and
//! per-switch hop latency. The ~5 µs fabric delta the paper quotes
//! (25 µs standalone read → 30 µs through the switches, §IV-A) emerges
//! from hop latencies plus 4 KiB serialization on the x4 device link.
//!
//! # Example
//!
//! ```
//! use afa_pcie::PcieFabric;
//! use afa_sim::SimTime;
//!
//! let mut fabric = PcieFabric::paper_single_host(64);
//! // Round-trip command + 4 KiB completion costs ~4-6 µs unloaded.
//! let at_dev = fabric.submit_command(0, SimTime::ZERO);
//! let at_host = fabric.deliver_completion(0, at_dev, 4096);
//! let us = at_host.as_micros_f64();
//! assert!(us > 3.0 && us < 7.0, "fabric round trip {us} us");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod link;
mod topology;

pub use budget::{FabricBudget, SwitchBudget, SwitchUtilization};
pub use link::{Link, LinkSpec, PcieGeneration};
pub use topology::{FabricStats, PcieFabric, SlotAssignment};
