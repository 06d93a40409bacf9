//! Uplink-saturation check (§III-B's preliminary evaluation).
//!
//! "In our preliminary evaluation, we observed the throughput of
//! sequential reads was high enough all the time to fully saturate
//! available PCIe bandwidths." This experiment reproduces that
//! observation: many-deep sequential reads from all devices must pin
//! the Gen3 x16 uplink (~15.75 GB/s usable), while 4 KiB QD1 random
//! reads stay well below it (§IV-G's 8.3 GB/s argument).

use afa_sim::SimDuration;
use afa_stats::Json;
use afa_workload::RwPattern;

use crate::experiment::registry::ExperimentResult;
use crate::experiment::ExperimentScale;
use crate::system::AfaSystem;
use crate::tuning::TuningStage;

/// Result of the saturation check.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SaturationResult {
    /// Aggregate sequential-read throughput, GB/s.
    pub seq_read_gbps: f64,
    /// Usable uplink bandwidth, GB/s.
    pub uplink_gbps: f64,
    /// Aggregate 4 KiB QD1 random-read throughput, GB/s (the §IV-G
    /// 8.3 GB/s figure).
    pub qd1_rand_gbps: f64,
    /// I/Os the two runs completed.
    pub samples: u64,
}

impl SaturationResult {
    /// Sequential utilization of the uplink (1.0 = saturated).
    pub fn seq_utilization(&self) -> f64 {
        self.seq_read_gbps / self.uplink_gbps
    }
}

impl ExperimentResult for SaturationResult {
    /// Renders the check.
    fn to_table(&self) -> String {
        format!(
            "Uplink saturation (§III-B preliminary / §IV-G):\n\
             sequential reads : {:.2} GB/s ({:.0}% of the {:.2} GB/s uplink)\n\
             QD1 random reads : {:.2} GB/s (paper: 8.3 GB/s, comfortably below)\n",
            self.seq_read_gbps,
            self.seq_utilization() * 100.0,
            self.uplink_gbps,
            self.qd1_rand_gbps
        )
    }

    fn to_csv(&self) -> String {
        format!(
            "metric,gbps\nseq_read,{:.3}\nuplink,{:.3}\nqd1_rand,{:.3}\n",
            self.seq_read_gbps, self.uplink_gbps, self.qd1_rand_gbps
        )
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("seq_read_gbps", Json::f64(self.seq_read_gbps)),
            ("uplink_gbps", Json::f64(self.uplink_gbps)),
            ("qd1_rand_gbps", Json::f64(self.qd1_rand_gbps)),
            ("seq_utilization", Json::f64(self.seq_utilization())),
        ])
    }

    fn samples(&self) -> u64 {
        self.samples
    }
}

/// Runs both workloads at the given scale.
pub fn uplink_saturation(scale: ExperimentScale) -> SaturationResult {
    // Sequential: big blocks, deep queues — the paper's "preliminary"
    // test. 128 KiB at QD8 per device; 16 devices already out-supply
    // the uplink several times over.
    let runtime = scale.runtime.min(SimDuration::secs(2));
    let seq_config = {
        let mut config = scale
            .config(TuningStage::IrqAffinity)
            .with_runtime(runtime)
            .with_rw(RwPattern::SeqRead);
        config.block_size = 131_072;
        config.iodepth = 8;
        config
    };
    let seq = AfaSystem::run(&seq_config);

    let rand_config = scale.config(TuningStage::IrqAffinity).with_runtime(runtime);
    let rand = AfaSystem::run(&rand_config);

    SaturationResult {
        seq_read_gbps: seq.aggregate_gbps(runtime),
        uplink_gbps: 15.75,
        qd1_rand_gbps: rand.aggregate_gbps(runtime),
        samples: seq.completed() + rand.completed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_saturates_and_qd1_does_not() {
        let scale = ExperimentScale::new(SimDuration::millis(150), 32, 42);
        let result = uplink_saturation(scale);
        assert!(
            result.seq_utilization() > 0.85,
            "sequential reads must pin the uplink: {:.2} GB/s",
            result.seq_read_gbps
        );
        assert!(
            result.seq_utilization() <= 1.02,
            "cannot exceed the physical link: {:.2} GB/s",
            result.seq_read_gbps
        );
        // Half the array at QD1 → roughly half of 8.3 GB/s.
        assert!(
            result.qd1_rand_gbps < result.seq_read_gbps / 2.0,
            "QD1 random must sit far below saturation"
        );
        assert!(result.to_table().contains("saturation"));
    }
}
