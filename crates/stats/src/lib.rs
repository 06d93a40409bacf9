//! Latency statistics substrate for the AFA reproduction.
//!
//! The paper's evaluation metric is the distribution of 4 KiB
//! random-read completion latency out to the 99.9999th ("6-nines")
//! percentile plus the maximum, and cross-device aggregates (mean and
//! standard deviation of each percentile across 64 SSDs; Fig. 12 and
//! Fig. 14). This crate provides:
//!
//! * [`LatencyHistogram`] — an HDR-style log-linear histogram with
//!   bounded relative error, exact min/max/mean/std tracking and merge,
//! * [`NinesPoint`] / [`LatencyProfile`] — the paper's fixed metric set
//!   (average, 2-nines … 6-nines, max) extracted from a histogram,
//! * [`QuantileSketch`] / [`TailStats`] — a fixed-size mergeable
//!   streaming quantile sketch (DDSketch-style log buckets, bounded
//!   relative error, <1 KiB) for fleet-scale per-tenant stats, with an
//!   exact-histogram fallback,
//! * [`OnlineStats`] — Welford streaming mean/variance,
//! * [`ProfileSummary`] — mean ± std of each metric across devices,
//! * [`series`] — per-sample latency logs for the Fig. 10 scatter plot,
//! * [`json`] — a minimal hand-rolled JSON document model so experiment
//!   artifacts are machine-readable without external dependencies.
//!
//! # Example
//!
//! ```
//! use afa_stats::{LatencyHistogram, NinesPoint};
//!
//! let mut h = LatencyHistogram::new();
//! for us in 1..=1000u64 {
//!     h.record(us * 1_000); // nanoseconds
//! }
//! let p99 = h.value_at_percentile(99.0);
//! assert!(p99 >= 985_000 && p99 <= 1_010_000, "p99 = {p99}");
//! let profile = h.profile();
//! assert_eq!(profile.get(NinesPoint::Max), 1_000_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
pub mod json;
mod online;
mod percentile;
mod rollup;
pub mod series;
mod sketch;
mod summary;

pub use histogram::LatencyHistogram;
pub use json::Json;
pub use online::OnlineStats;
pub use percentile::{LatencyProfile, NinesPoint};
pub use rollup::SketchRollup;
pub use sketch::{QuantileSketch, TailStats, DEFAULT_SKETCH_ERROR};
pub use summary::{MetricSummary, ProfileSummary};
