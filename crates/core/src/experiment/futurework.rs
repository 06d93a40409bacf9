//! The §VI future-work prototypes, evaluated.
//!
//! The paper closes with: "Our future work includes prototyping new
//! CPU schedulers and I/O load balancers." [`afa_host`] implements
//! both prototypes — [`afa_host::SchedProfile::IoAggressive`] (waking
//! I/O tasks preempt immediately, background placement avoids
//! I/O-active CPUs) and [`afa_host::IrqMode::AffinityAware`] (vectors
//! follow the submitting worker automatically). This experiment asks
//! the natural question: *how close does the automatic kernel get to
//! the paper's manual tuning?*

use afa_host::KernelConfig;
use afa_stats::{Json, NinesPoint};

use crate::experiment::registry::ExperimentResult;
use crate::experiment::{run_parallel, ExperimentScale};
use crate::tuning::TuningStage;
use crate::RunResult;

/// One compared kernel.
#[derive(Clone, Debug)]
pub struct FutureWorkRow {
    /// Display name.
    pub name: String,
    /// Mean of the per-device average latency, µs.
    pub avg_us: f64,
    /// Worst per-device p99.9, µs.
    pub p999_us: f64,
    /// Worst per-device maximum, µs.
    pub max_us: f64,
}

/// The comparison result.
#[derive(Clone, Debug)]
pub struct FutureWorkResult {
    /// Stock / manual / prototype rows.
    pub rows: Vec<FutureWorkRow>,
    /// I/Os the three runs completed.
    pub samples: u64,
}

impl FutureWorkResult {
    /// Fraction of the manual tuning's worst-case win the prototype
    /// achieves (1.0 = as good as manual).
    pub fn prototype_win_fraction(&self) -> f64 {
        let stock = self.rows[0].max_us;
        let manual = self.rows[1].max_us;
        let proto = self.rows[2].max_us;
        if stock <= manual {
            return 1.0;
        }
        ((stock - proto) / (stock - manual)).clamp(0.0, 1.5)
    }
}

impl ExperimentResult for FutureWorkResult {
    /// Renders the comparison.
    fn to_table(&self) -> String {
        let mut out =
            String::from("§VI future work — automatic kernel prototypes vs. manual tuning\n");
        out.push_str(&format!(
            "{:<34} {:>10} {:>12} {:>10}\n",
            "kernel", "avg(us)", "p99.9(us)", "max(us)"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<34} {:>10.1} {:>12.1} {:>10.1}\n",
                row.name, row.avg_us, row.p999_us, row.max_us
            ));
        }
        out.push_str(&format!(
            "prototype captures {:.0}% of the manual worst-case win, \
             with zero boot options or chrt\n",
            self.prototype_win_fraction() * 100.0
        ));
        out
    }

    fn to_csv(&self) -> String {
        let mut out = String::from("kernel,avg_us,p999_us,max_us\n");
        for row in &self.rows {
            out.push_str(&format!(
                "{},{:.3},{:.3},{:.3}\n",
                row.name.replace(',', ";"),
                row.avg_us,
                row.p999_us,
                row.max_us
            ));
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::obj([
            (
                "rows",
                Json::arr(self.rows.iter().map(|row| {
                    Json::obj([
                        ("kernel", Json::str(&row.name)),
                        ("avg_us", Json::f64(row.avg_us)),
                        ("p999_us", Json::f64(row.p999_us)),
                        ("max_us", Json::f64(row.max_us)),
                    ])
                })),
            ),
            (
                "prototype_win_fraction",
                Json::f64(self.prototype_win_fraction()),
            ),
        ])
    }

    fn samples(&self) -> u64 {
        self.samples
    }
}

/// Runs stock default, the paper's manual tuning, and the automatic
/// prototype side by side.
pub fn future_schedulers(scale: ExperimentScale) -> FutureWorkResult {
    let stock = scale.config(TuningStage::Default);
    let manual = scale.config(TuningStage::IrqAffinity);
    // The prototype: stock userspace (CFS fio, no isolation, default
    // C-states) on the future-work kernel.
    let mut prototype = scale.config(TuningStage::Default);
    prototype.kernel_override = Some(KernelConfig::prototype());

    let names = [
        "stock (default)",
        "manual (chrt+isolcpus+irq pin)",
        "prototype (auto, no tuning)",
    ];
    let results = run_parallel(vec![stock, manual, prototype]);
    let rows = names
        .iter()
        .zip(results.iter())
        .map(|(&name, result)| FutureWorkRow {
            name: name.to_owned(),
            avg_us: result.mean_us(NinesPoint::Average),
            p999_us: result.worst_us(NinesPoint::Nines3),
            max_us: result.worst_us(NinesPoint::Max),
        })
        .collect();
    FutureWorkResult {
        rows,
        samples: results.iter().map(RunResult::completed).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afa_sim::SimDuration;

    #[test]
    fn prototype_recovers_most_of_the_manual_win() {
        let scale = ExperimentScale::new(SimDuration::millis(300), 24, 42);
        let result = future_schedulers(scale);
        assert_eq!(result.rows.len(), 3);
        let stock = &result.rows[0];
        let manual = &result.rows[1];
        let proto = &result.rows[2];
        assert!(
            stock.max_us > manual.max_us,
            "manual tuning must beat stock"
        );
        assert!(
            proto.max_us < stock.max_us / 2.0,
            "prototype must collapse the stock tail: {} vs {}",
            proto.max_us,
            stock.max_us
        );
        assert!(
            result.prototype_win_fraction() > 0.5,
            "prototype win fraction {:.2}",
            result.prototype_win_fraction()
        );
        assert!(result.to_table().contains("prototype"));
    }
}
