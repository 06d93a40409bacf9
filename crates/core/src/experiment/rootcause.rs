//! Root-cause analysis: the simulated LTTng pass of §IV-B/§IV-D.
//!
//! The paper finds its tail causes by tracing kernel events with LTTng
//! and attributing delays to interfering processes, IRQ misrouting and
//! firmware housekeeping. The simulator can attribute *every*
//! nanosecond on the completion path directly; this experiment runs a
//! configuration with attribution enabled and reports the per-cause
//! latency budget.

use afa_sim::trace::Cause;
use afa_stats::Json;

use crate::experiment::registry::{cause_rows_json, ExperimentResult};
use crate::experiment::{pool, ExperimentScale};
use crate::system::AfaSystem;
use crate::tuning::TuningStage;

/// Per-cause latency budget of one configuration.
#[derive(Clone, Debug)]
pub struct RootCauseReport {
    /// The analyzed tuning stage.
    pub stage: TuningStage,
    /// `(cause, total µs, events, µs per completed I/O)` rows, sorted
    /// by total descending.
    pub rows: Vec<(Cause, f64, u64, f64)>,
    /// Completed I/Os across the array.
    pub completed: u64,
}

impl RootCauseReport {
    /// The dominant cause (largest total).
    pub fn dominant(&self) -> Option<Cause> {
        self.rows.first().map(|&(c, _, _, _)| c)
    }

    /// Total attributed per I/O for `cause`, µs.
    pub fn per_io_us(&self, cause: Cause) -> f64 {
        self.rows
            .iter()
            .find(|&&(c, _, _, _)| c == cause)
            .map(|&(_, _, _, per_io)| per_io)
            .unwrap_or(0.0)
    }
}

impl ExperimentResult for RootCauseReport {
    /// Renders the budget table.
    fn to_table(&self) -> String {
        let mut out = format!(
            "Root cause analysis — '{}' configuration, {} I/Os\n",
            self.stage.label(),
            self.completed
        );
        out.push_str(&format!(
            "{:<20} {:>14} {:>12} {:>12}\n",
            "cause", "total(ms)", "events", "us/io"
        ));
        for (cause, total_us, events, per_io) in &self.rows {
            out.push_str(&format!(
                "{:<20} {:>14.1} {:>12} {:>12.3}\n",
                cause.label(),
                total_us / 1_000.0,
                events,
                per_io
            ));
        }
        out
    }

    /// One CSV row per cause.
    fn to_csv(&self) -> String {
        let mut out = String::from("stage,cause,total_us,events,us_per_io\n");
        for (cause, total_us, events, per_io) in &self.rows {
            out.push_str(&format!(
                "{},{},{total_us:.3},{events},{per_io:.4}\n",
                self.stage.label(),
                cause.label()
            ));
        }
        out
    }

    /// Serializes the budget.
    fn to_json(&self) -> Json {
        Json::obj([
            ("stage", Json::str(self.stage.label())),
            ("completed", Json::u64(self.completed)),
            ("causes", cause_rows_json(&self.rows)),
        ])
    }

    fn samples(&self) -> u64 {
        self.completed
    }
}

/// Per-cause budgets across the whole tuning ladder — the registry's
/// `rootcause` experiment.
#[derive(Clone, Debug)]
pub struct RootCauseLadder {
    /// One report per [`TuningStage::ALL`] entry, in ladder order.
    pub reports: Vec<RootCauseReport>,
}

impl ExperimentResult for RootCauseLadder {
    fn to_table(&self) -> String {
        let mut out = String::new();
        for report in &self.reports {
            out.push_str(&report.to_table());
            out.push('\n');
        }
        out
    }

    fn to_csv(&self) -> String {
        let mut out = String::from("stage,cause,total_us,events,us_per_io\n");
        for report in &self.reports {
            for line in report.to_csv().lines().skip(1) {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::arr(self.reports.iter().map(RootCauseReport::to_json))
    }

    fn samples(&self) -> u64 {
        self.reports.iter().map(|r| r.completed).sum()
    }
}

/// Runs [`root_cause`] for every stage of the ladder (on the bounded
/// pool), in ladder order.
pub fn root_cause_ladder(scale: ExperimentScale) -> RootCauseLadder {
    let reports = pool::map_bounded(TuningStage::ALL.to_vec(), |stage| root_cause(stage, scale));
    RootCauseLadder { reports }
}

/// Runs `stage` with cause attribution on and reports the budget.
pub fn root_cause(stage: TuningStage, scale: ExperimentScale) -> RootCauseReport {
    let config = scale.config(stage).with_cause_attribution(true);
    let result = AfaSystem::run(&config);
    let completed: u64 = result.reports.iter().map(|r| r.completed()).sum();
    let causes = result.causes.expect("attribution enabled");
    let mut rows: Vec<(Cause, f64, u64, f64)> = causes
        .iter()
        .map(|(cause, total, count)| {
            let total_us = total.as_micros_f64();
            (cause, total_us, count, total_us / completed.max(1) as f64)
        })
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    RootCauseReport {
        stage,
        rows,
        completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afa_sim::SimDuration;

    fn scale() -> ExperimentScale {
        ExperimentScale::new(SimDuration::millis(150), 6, 42)
    }

    #[test]
    fn device_service_dominates_when_tuned() {
        let report = root_cause(TuningStage::ExperimentalFirmware, scale());
        assert_eq!(report.dominant(), Some(Cause::DeviceService));
        assert!(report.per_io_us(Cause::DeviceService) > 15.0);
        assert_eq!(report.per_io_us(Cause::Housekeeping), 0.0);
        assert!(report.to_table().contains("device_service"));
    }

    #[test]
    fn scheduler_delay_appears_under_default() {
        // The paper's interference needs the paper's geometry: with
        // most CPUs hosting fio threads, stock placement has nowhere
        // clean to put the daemons (§IV-C). Few-device runs leave too
        // many genuinely idle CPUs for the effect to show.
        let scale = ExperimentScale::new(SimDuration::millis(150), 48, 42);
        let report = root_cause(TuningStage::Default, scale);
        // Interference must be visible in the budget even if it does
        // not dominate the (much larger) base service time.
        assert!(
            report.per_io_us(Cause::SchedulerDelay) > 0.5,
            "sched delay {} us/io",
            report.per_io_us(Cause::SchedulerDelay)
        );
        let tuned = root_cause(TuningStage::IrqAffinity, scale);
        assert!(
            tuned.per_io_us(Cause::SchedulerDelay) < report.per_io_us(Cause::SchedulerDelay) / 2.0,
            "tuning must collapse scheduler delay"
        );
    }

    #[test]
    fn remote_completion_vanishes_with_pinning() {
        let balanced = root_cause(TuningStage::Isolcpus, scale());
        let pinned = root_cause(TuningStage::IrqAffinity, scale());
        assert!(balanced.per_io_us(Cause::RemoteCompletion) > 1.0);
        assert_eq!(pinned.per_io_us(Cause::RemoteCompletion), 0.0);
    }
}
