//! The blktrace experiment: per-I/O stage timestamps for the first
//! I/Os a run reaps under the fully tuned kernel, read off the run's
//! ledger log and rendered blkparse-style.

use afa_stats::Json;

use crate::blktrace::IoTrace;
use crate::experiment::registry::ExperimentResult;
use crate::experiment::ExperimentScale;
use crate::io_path::CompletedIo;
use crate::system::AfaSystem;
use crate::tuning::TuningStage;

/// How many I/Os the ledger log keeps.
const TRACE_WINDOW: usize = 200_000;

/// Result of the blktrace experiment.
#[derive(Clone, Debug)]
pub struct IoTraceResult {
    /// Every captured I/O with its stage timestamps.
    pub traces: Vec<IoTrace>,
    /// Stage the run used.
    pub stage: TuningStage,
}

impl IoTraceResult {
    /// The slowest captured I/O.
    pub fn slowest(&self) -> Option<&IoTrace> {
        self.traces.iter().max_by_key(|t| t.total())
    }

    fn delta_ns(trace: &IoTrace, from: usize, to: usize) -> u64 {
        trace.stamps[to]
            .saturating_since(trace.stamps[from])
            .as_nanos()
    }
}

impl ExperimentResult for IoTraceResult {
    fn to_table(&self) -> String {
        let mut out = format!(
            "blktrace window — {} I/Os captured, '{}' configuration\n",
            self.traces.len(),
            self.stage.label()
        );
        match self.slowest() {
            None => out.push_str("no I/Os captured\n"),
            Some(t) => {
                out.push_str(&format!(
                    "slowest: nvme{} lba {} — {:.1} us total\n",
                    t.device,
                    t.lba,
                    t.total().as_micros_f64()
                ));
                out.push_str(&t.to_text(0));
            }
        }
        out
    }

    /// One row per captured I/O: stage-to-stage deltas in ns.
    fn to_csv(&self) -> String {
        let mut out =
            String::from("device,lba,submit_to_device_ns,device_ns,device_to_reap_ns,total_ns\n");
        for t in &self.traces {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                t.device,
                t.lba,
                Self::delta_ns(t, 0, 1),
                Self::delta_ns(t, 1, 2),
                Self::delta_ns(t, 2, 4),
                t.total().as_nanos()
            ));
        }
        out
    }

    fn to_json(&self) -> Json {
        let slowest = match self.slowest() {
            None => Json::Null,
            Some(t) => Json::obj([
                ("device", Json::u64(t.device as u64)),
                ("lba", Json::u64(t.lba)),
                ("total_ns", Json::u64(t.total().as_nanos())),
                ("submit_to_device_ns", Json::u64(Self::delta_ns(t, 0, 1))),
                ("device_ns", Json::u64(Self::delta_ns(t, 1, 2))),
                ("device_to_reap_ns", Json::u64(Self::delta_ns(t, 2, 4))),
            ]),
        };
        Json::obj([
            ("stage", Json::str(self.stage.label())),
            ("traced", Json::u64(self.traces.len() as u64)),
            ("slowest", slowest),
        ])
    }

    fn samples(&self) -> u64 {
        self.traces.len() as u64
    }
}

/// Runs the tuned configuration with a ledger log and renders each
/// logged I/O's stage trace.
pub fn io_trace(scale: ExperimentScale) -> IoTraceResult {
    let config = scale
        .config(TuningStage::IrqAffinity)
        .with_ledger_log(TRACE_WINDOW);
    let log = AfaSystem::run(&config).ledgers.expect("ledger log enabled");
    IoTraceResult {
        traces: log.entries().iter().map(CompletedIo::trace).collect(),
        stage: TuningStage::IrqAffinity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afa_sim::SimDuration;

    #[test]
    fn trace_captures_and_summarizes() {
        let result = io_trace(ExperimentScale::new(SimDuration::millis(30), 2, 42));
        assert!(
            result.traces.len() > 100,
            "only {} traces",
            result.traces.len()
        );
        let longest = result.traces.iter().map(IoTrace::total).max();
        assert_eq!(result.slowest().map(IoTrace::total), longest);
        assert!(result.to_table().contains("slowest: nvme"));
        let csv = result.to_csv();
        assert_eq!(csv.lines().count(), result.traces.len() + 1);
        let json = result.to_json().to_string();
        assert!(json.contains("\"traced\""));
        assert!(json.contains("\"slowest\""));
        assert_eq!(result.samples(), result.traces.len() as u64);
    }
}
