//! Replicated multi-array fleet layer for the AFA reproduction.
//!
//! The source paper stops at one 64-SSD array; its opening argument —
//! stripe a request across devices and the tail becomes a max-of-width
//! over per-device noise — replays one level up when an enterprise
//! deployment replicates volumes across *arrays* behind a network hop.
//! This crate models that level:
//!
//! * [`NetHop`] / [`NetLink`] — a network/RPC hop as paired directed
//!   legs (request out, completion back), each a next-free-time line
//!   with serialization cost, propagation, bounded jitter, and a
//!   bounded in-flight window — the inter-array analogue of
//!   [`afa_pcie::Link`], so the per-request ledger gains a `network`
//!   cause and still tiles latency exactly,
//! * [`place_among`] — deterministic rendezvous-hash placement of
//!   volumes onto R-way replicated array sets, with the minimal-motion
//!   property (removing one of N arrays moves only the placements that
//!   lived there), and [`ReadPolicy`] for how reads use the replicas,
//! * [`ArrayInstance`] — one array's full serving stack (host model,
//!   PCIe fabric, SSDs) exposed as stage methods that take the CPU
//!   doing the work and fill in each command's [`ArrayPath`], so N
//!   arrays compose under one DES clock. All three serving worlds
//!   cross their array through it: the fleet's, the request-level
//!   tail-at-scale frontend and the closed-loop striped volume,
//! * [`ArrayHealth`] / [`RetryPolicy`] / [`heal_jobs`] — the fault
//!   side: kill an array mid-run, back off and retry open requests
//!   onto surviving replicas, and derive the re-replication work that
//!   restores R while competing with foreground I/O.
//!
//! # Example
//!
//! ```
//! use afa_fleet::{place_among, NetHop, HopSpec};
//! use afa_sim::SimTime;
//!
//! // Volume 7 lives on 2 of 4 arrays, deterministically.
//! let placement = place_among(7, &[0, 1, 2, 3], 2);
//! assert_eq!(placement.len(), 2);
//! assert_eq!(placement, place_among(7, &[0, 1, 2, 3], 2));
//!
//! // A 4 KiB read crosses the request leg in ~propagation + ser.
//! let mut hop = NetHop::new(HopSpec::datacenter(), 42, 0);
//! let at_array = hop.request.reserve(SimTime::ZERO, 4096);
//! assert!(at_array.as_micros_f64() > 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod failover;
mod hop;
mod placement;

pub use array::{ArrayInstance, ArrayPath};
pub use failover::{heal_jobs, ArrayHealth, HealJob, RetryPolicy};
pub use hop::{HopSpec, NetHop, NetLink};
pub use placement::{place_among, rendezvous_score, ReadPolicy};
