//! Discrete-event simulation (DES) substrate for the AFA reproduction.
//!
//! This crate provides the building blocks shared by every simulated
//! subsystem in the workspace:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution simulated
//!   clock with ergonomic constructors ([`SimDuration::micros`], …),
//! * [`EventQueue`] — a hierarchical timing wheel of timestamped
//!   events with *stable* FIFO ordering among events scheduled for the
//!   same instant (amortized O(1) push/pop),
//! * [`rng`] — deterministic, splittable random-number streams
//!   (splitmix64 seeding + xoshiro256\*\* generation) so that every
//!   experiment is exactly reproducible from a single master seed,
//! * [`ShardedSim`] — the event engine every simulation runs on: it
//!   pops events and dispatches them to a user-provided [`ShardWorld`]
//!   partitioned into logical processes (see [`shard`]),
//! * [`trace`] — lightweight cause-attribution hooks used to root-cause
//!   tail-latency samples (the simulated analogue of the paper's LTTng
//!   analysis),
//! * [`check`] — a stdlib-only property-testing harness (deterministic
//!   generators + case driver) used by every crate's property suite.
//!
//! # Example
//!
//! ```
//! use afa_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue: EventQueue<&'static str> = EventQueue::new();
//! queue.push(SimTime::ZERO + SimDuration::micros(5), "second");
//! queue.push(SimTime::ZERO + SimDuration::micros(1), "first");
//! let (t, event) = queue.pop().expect("event");
//! assert_eq!(event, "first");
//! assert_eq!(t.as_nanos(), 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod metrics;
mod queue;
pub mod rng;
pub mod shard;
mod time;
pub mod trace;

pub use queue::{EventQueue, MergeKey};
pub use rng::SimRng;
pub use shard::{ShardCtx, ShardWorld, ShardedSim};
pub use time::{SimDuration, SimTime};
