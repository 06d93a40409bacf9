//! The ULL crossover study: device class × tuning ladder × completion
//! model.
//!
//! The paper's whole tuning ladder (§IV) exists because on a ~25 µs
//! Table-I device, host-side noise — CFS wake-ups, C-state exits,
//! mis-routed interrupts — is a visible fraction of the I/O. This
//! experiment asks what survives a device-class change: on an
//! ultra-low-latency (~9 µs Z-NAND class) device with per-CPU queue
//! pairs, the interrupt path itself becomes the dominant host cost,
//! kernel-side polling overtakes the *fully tuned* interrupt
//! configuration, and parts of the ladder stop mattering entirely
//! (with no interrupt to route, the IRQ-affinity stage is a literal
//! no-op). Hybrid polling sits between: on Table-I devices it keeps
//! interrupt-class tails at a fraction of polling's CPU burn.

use afa_sim::metrics::CompletionCounters;
use afa_ssd::DeviceProfile;
use afa_stats::{Json, NinesPoint};
use afa_workload::IoEngine;

use crate::config::AfaConfig;
use crate::experiment::registry::ExperimentResult;
use crate::experiment::{run_parallel, ExperimentScale};
use crate::tuning::TuningStage;

/// The completion models the grid sweeps, with their row labels.
const MODELS: [(&str, IoEngine); 3] = [
    ("interrupt", IoEngine::Libaio),
    ("polling", IoEngine::Polling),
    ("hybrid", IoEngine::HybridPoll),
];

/// The device classes the grid sweeps.
const PROFILES: [DeviceProfile; 2] = [DeviceProfile::Table1, DeviceProfile::UltraLowLatency];

/// One cell of the grid: a (device profile, tuning stage, completion
/// model) run.
#[derive(Clone, Debug)]
pub struct UllCrossoverCell {
    /// Device-class label (`table1` / `ull`).
    pub profile: &'static str,
    /// Tuning stage of the run.
    pub stage: TuningStage,
    /// Completion-model label (`interrupt` / `polling` / `hybrid`).
    pub model: &'static str,
    /// Mean latency across devices, µs.
    pub mean_us: f64,
    /// Worst per-device p99, µs.
    pub p99_us: f64,
    /// Worst per-device p99.999, µs.
    pub p99999_us: f64,
    /// Worst observed sample, µs.
    pub max_us: f64,
    /// Mean CPU time charged per I/O, µs (polling pays the spin here).
    pub cpu_us_per_io: f64,
    /// Completed I/Os behind the cell.
    pub completed: u64,
    /// How the cell's completions were reaped.
    pub reaps: CompletionCounters,
}

/// The full grid, in `PROFILES × TuningStage::ALL × MODELS` order.
#[derive(Clone, Debug)]
pub struct UllCrossoverResult {
    /// All grid cells.
    pub cells: Vec<UllCrossoverCell>,
}

impl UllCrossoverResult {
    /// The cell for a grid coordinate.
    pub fn cell(
        &self,
        profile: DeviceProfile,
        stage: TuningStage,
        model: &str,
    ) -> &UllCrossoverCell {
        self.cells
            .iter()
            .find(|c| c.profile == profile.label() && c.stage == stage && c.model == model)
            .expect("full grid")
    }
}

impl ExperimentResult for UllCrossoverResult {
    /// Renders the grid, one block per device class.
    fn to_table(&self) -> String {
        let mut out =
            String::from("ULL crossover — completion model x tuning ladder per device class\n");
        for profile in PROFILES {
            out.push_str(&format!("\ndevice class: {}\n", profile.label()));
            out.push_str(&format!(
                "{:<14} {:<10} {:>10} {:>10} {:>12} {:>10} {:>10}\n",
                "stage", "model", "mean(us)", "p99(us)", "p99.999(us)", "max(us)", "cpu/io(us)"
            ));
            for cell in self.cells.iter().filter(|c| c.profile == profile.label()) {
                out.push_str(&format!(
                    "{:<14} {:<10} {:>10.1} {:>10.1} {:>12.1} {:>10.1} {:>10.1}\n",
                    cell.stage.label(),
                    cell.model,
                    cell.mean_us,
                    cell.p99_us,
                    cell.p99999_us,
                    cell.max_us,
                    cell.cpu_us_per_io
                ));
            }
        }
        out
    }

    /// One CSV row per cell.
    fn to_csv(&self) -> String {
        let mut out = String::from(
            "profile,stage,model,mean_us,p99_us,p99999_us,max_us,cpu_us_per_io,completed,polls,hybrid_sleeps\n",
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{},{},{}\n",
                c.profile,
                c.stage.label(),
                c.model,
                c.mean_us,
                c.p99_us,
                c.p99999_us,
                c.max_us,
                c.cpu_us_per_io,
                c.completed,
                c.reaps.polls,
                c.reaps.hybrid_sleeps
            ));
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::obj([
            (
                "title",
                Json::str("ULL crossover — completion model x tuning ladder per device class"),
            ),
            (
                "rows",
                Json::arr(self.cells.iter().map(|c| {
                    Json::obj([
                        ("profile", Json::str(c.profile)),
                        ("stage", Json::str(c.stage.label())),
                        ("model", Json::str(c.model)),
                        ("mean_us", Json::f64(c.mean_us)),
                        ("p99_us", Json::f64(c.p99_us)),
                        ("p99999_us", Json::f64(c.p99999_us)),
                        ("max_us", Json::f64(c.max_us)),
                        ("cpu_us_per_io", Json::f64(c.cpu_us_per_io)),
                        ("completed", Json::u64(c.completed)),
                        ("interrupts", Json::u64(c.reaps.interrupts)),
                        ("polls", Json::u64(c.reaps.polls)),
                        ("hybrid_sleeps", Json::u64(c.reaps.hybrid_sleeps)),
                    ])
                })),
            ),
        ])
    }

    fn samples(&self) -> u64 {
        self.cells.iter().map(|c| c.completed).sum()
    }

    fn headline_max_us(&self) -> Option<f64> {
        self.cells
            .iter()
            .map(|c| c.max_us)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

/// Runs the 2 × 5 × 3 grid: both device classes, the whole tuning
/// ladder, all three completion models, at the same scale and seed.
pub fn ull_crossover(scale: ExperimentScale) -> UllCrossoverResult {
    let mut coords = Vec::with_capacity(PROFILES.len() * TuningStage::ALL.len() * MODELS.len());
    let mut configs = Vec::with_capacity(coords.capacity());
    for profile in PROFILES {
        for stage in TuningStage::ALL {
            for (label, engine) in MODELS {
                coords.push((profile, stage, label));
                configs.push(
                    AfaConfig::paper(stage)
                        .with_ssds(scale.ssds)
                        .with_runtime(scale.runtime)
                        .with_seed(scale.seed)
                        .with_device_profile(profile)
                        .with_engine(engine),
                );
            }
        }
    }
    let results = run_parallel(configs);
    let cells = coords
        .into_iter()
        .zip(results.iter())
        .map(|((profile, stage, model), result)| {
            let mut mean = 0.0f64;
            let mut p99 = 0.0f64;
            let mut p99999 = 0.0f64;
            let mut max = 0.0f64;
            for report in &result.reports {
                let prof = report.profile();
                mean += prof.get_micros(NinesPoint::Average);
                p99 = p99.max(prof.get_micros(NinesPoint::Nines2));
                p99999 = p99999.max(prof.get_micros(NinesPoint::Nines5));
                max = max.max(prof.get_micros(NinesPoint::Max));
            }
            let completed: u64 = result.reports.iter().map(|r| r.completed()).sum();
            UllCrossoverCell {
                profile: profile.label(),
                stage,
                model,
                mean_us: mean / result.reports.len() as f64,
                p99_us: p99,
                p99999_us: p99999,
                max_us: max,
                cpu_us_per_io: result.host.stats().io_cpu_busy_ns as f64
                    / 1e3
                    / completed.max(1) as f64,
                completed,
                reaps: result.completions,
            }
        })
        .collect();
    UllCrossoverResult { cells }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afa_sim::SimDuration;

    fn grid() -> UllCrossoverResult {
        ull_crossover(ExperimentScale::new(SimDuration::millis(120), 2, 42))
    }

    #[test]
    fn grid_is_complete_and_counted() {
        let r = grid();
        assert_eq!(r.cells.len(), 30);
        for cell in &r.cells {
            assert!(cell.completed > 0, "{:?} completed nothing", cell);
            match cell.model {
                "interrupt" => {
                    assert!(
                        cell.reaps.interrupts > 0 && cell.reaps.polls == 0,
                        "{cell:?}"
                    )
                }
                "polling" => {
                    assert!(
                        cell.reaps.polls > 0
                            && cell.reaps.interrupts == 0
                            && cell.reaps.hybrid_sleeps == 0,
                        "{cell:?}"
                    )
                }
                "hybrid" => assert!(
                    cell.reaps.polls > 0 && cell.reaps.interrupts == 0,
                    "{cell:?}"
                ),
                other => panic!("unknown model {other}"),
            }
        }
    }

    #[test]
    fn crossover_flips_with_the_device_class() {
        let r = grid();
        // Table-I: the tuning ladder dominates — the untuned kernel's
        // worst-case is far above the tuned one's.
        let t1_default = r.cell(DeviceProfile::Table1, TuningStage::Default, "interrupt");
        let t1_tuned = r.cell(DeviceProfile::Table1, TuningStage::IrqAffinity, "interrupt");
        assert!(
            t1_default.max_us > 1.5 * t1_tuned.max_us,
            "tuning ladder lost its Table-I win: {} vs {}",
            t1_default.max_us,
            t1_tuned.max_us
        );
        // Table-I: hybrid polling holds interrupt-class p99 (within
        // 15%) while classic polling burns far more CPU than either.
        let t1_hybrid = r.cell(DeviceProfile::Table1, TuningStage::IrqAffinity, "hybrid");
        let t1_poll = r.cell(DeviceProfile::Table1, TuningStage::IrqAffinity, "polling");
        assert!(
            (t1_hybrid.p99_us - t1_tuned.p99_us).abs() / t1_tuned.p99_us < 0.15,
            "hybrid p99 {} strayed from interrupt p99 {}",
            t1_hybrid.p99_us,
            t1_tuned.p99_us
        );
        // The hybrid sleep is 50% of the ~25 µs nominal latency, so
        // hybrid should reclaim roughly that much CPU per I/O.
        assert!(
            t1_poll.cpu_us_per_io > t1_hybrid.cpu_us_per_io + 10.0,
            "polling should out-burn hybrid by ~the sleep: {} vs {}",
            t1_poll.cpu_us_per_io,
            t1_hybrid.cpu_us_per_io
        );
        // ULL: polling beats even the fully tuned interrupt path at
        // p99 — the crossover the device class flips.
        let ull_tuned = r.cell(
            DeviceProfile::UltraLowLatency,
            TuningStage::IrqAffinity,
            "interrupt",
        );
        let ull_poll = r.cell(
            DeviceProfile::UltraLowLatency,
            TuningStage::IrqAffinity,
            "polling",
        );
        assert!(
            ull_poll.p99_us < ull_tuned.p99_us,
            "ULL polling p99 {} should beat tuned interrupt p99 {}",
            ull_poll.p99_us,
            ull_tuned.p99_us
        );
    }

    #[test]
    fn irq_affinity_stage_is_a_noop_under_ull_polling() {
        let r = grid();
        // With no interrupt to route, pinning the vectors changes
        // nothing: the isolcpus and irq-affinity rows are numerically
        // identical under polling (the balanced router's RNG is only
        // consumed when an MSI is actually routed).
        let iso = r.cell(
            DeviceProfile::UltraLowLatency,
            TuningStage::Isolcpus,
            "polling",
        );
        let irq = r.cell(
            DeviceProfile::UltraLowLatency,
            TuningStage::IrqAffinity,
            "polling",
        );
        assert_eq!(iso.mean_us.to_bits(), irq.mean_us.to_bits());
        assert_eq!(iso.p99_us.to_bits(), irq.p99_us.to_bits());
        assert_eq!(iso.max_us.to_bits(), irq.max_us.to_bits());
        assert_eq!(iso.completed, irq.completed);
    }
}
