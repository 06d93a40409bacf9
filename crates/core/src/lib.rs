//! System assembly and experiments for the AFA reproduction.
//!
//! This crate is the paper's contribution as a library. It wires the
//! substrates together — [`afa_ssd`] devices behind an [`afa_pcie`]
//! fabric, driven by [`afa_workload`] jobs scheduled on an
//! [`afa_host`] host — and exposes:
//!
//! * [`CpuSsdGeometry`] — the Fig. 5 CPU↔SSD mapping (64 SSDs on 32
//!   logical CPUs, two fio threads per logical core) and the Table II
//!   run matrix,
//! * [`TuningStage`] — the paper's cumulative tuning ladder: default →
//!   `chrt` → `isolcpus` → IRQ pinning → experimental firmware, and
//!   what each stage configures,
//! * [`AfaSystem`] — the whole-array discrete-event simulation,
//! * [`experiment`] — one runner per table and figure of the paper's
//!   evaluation (Fig. 6–14, Table I, Table II) plus the ablations
//!   listed in `DESIGN.md`,
//! * [`profiler`] — the §V/§VI parallel SSD-profiling framework
//!   ("x10 or even x100 faster" device characterization).
//!
//! # Example
//!
//! ```no_run
//! use afa_core::{AfaConfig, AfaSystem, TuningStage};
//! use afa_sim::SimDuration;
//!
//! let config = AfaConfig::paper(TuningStage::IrqAffinity)
//!     .with_ssds(8)
//!     .with_runtime(SimDuration::secs(1));
//! let result = AfaSystem::run(&config);
//! for (device, report) in result.reports.iter().enumerate() {
//!     println!("{}", report.to_fio_style(&format!("nvme{device}")));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blktrace;
pub mod calibration;
mod config;
pub mod experiment;
mod geometry;
pub mod io_path;
pub mod profiler;
mod system;
mod tuning;

pub use config::{AfaConfig, IrqCoalescing};
pub use geometry::{CpuSsdGeometry, Table2Row};
pub use system::{check_jobs, AfaSystem, FusionOverride, RunResult};
pub use tuning::TuningStage;
