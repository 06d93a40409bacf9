//! Striped-volume (RAID-0) layer over the SSD array.
//!
//! §I of the paper motivates the whole study with exactly this layer:
//! "one request from a client is divided into multiple I/Os, which are
//! then distributed to many SSDs in parallel as in RAID. In such a
//! setting, long tail latency of the slowest SSD would decide system's
//! overall responsiveness" — the *tail at scale* effect. This crate
//! provides the address mapping: [`StripedVolume`] splits a request
//! into per-member [`SubIo`]s. Requests in flight are settled on
//! `afa_frontend::RequestBook` (first completion wins, the slowest
//! sub decides), and the whole-system tail-at-scale experiments live
//! in `afa-core::experiment`.
//!
//! # Example
//!
//! ```
//! use afa_volume::{StripeConfig, StripedVolume};
//!
//! // 8 members, 64 KiB stripe unit.
//! let vol = StripedVolume::new((0..8).collect(), StripeConfig::new(65_536));
//! // A 256 KiB read spans 4 members.
//! let sub = vol.map_read(0, 262_144);
//! assert_eq!(sub.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod stripe;

pub use stripe::{StripeConfig, StripedVolume, SubIo};
