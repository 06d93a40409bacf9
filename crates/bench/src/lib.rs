//! Micro-benchmarks and DES throughput gates for the AFA reproduction.
//!
//! * **Micro-benchmarks** — `cargo bench -p afa-bench --bench micro`
//!   (stdlib [`micro`] harness) measures the substrate hot paths the
//!   whole-array simulation leans on.
//! * **`desperf`** — pinned-scale events/sec runs checked against the
//!   floors in `BENCH_desperf.json` (`desperf --check`).
//! * **`calibrate`** — a stable numeric fingerprint of the calibrated
//!   model (`calibrate <secs> <ssds>`).
//!
//! Figures and tables regenerate through `afactl exp <name>` (see
//! `afactl list`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod micro;
