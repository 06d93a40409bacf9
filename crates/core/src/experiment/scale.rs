//! Experiment scaling.

use afa_sim::SimDuration;

use crate::config::AfaConfig;
use crate::tuning::TuningStage;

/// How big to run the experiments.
///
/// The paper runs 120 s per configuration; a full-fidelity
/// reproduction (`afactl exp <name> --seconds 120 --ssds 64`) does the
/// same, while shorter runs keep turnaround reasonable. 6-nines
/// percentiles need ≥10⁶ samples (~33 s at QD1); shorter runs report
/// them from fewer samples, and the run manifest prints the sample
/// count so the reader can judge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Per-job run time.
    pub runtime: SimDuration,
    /// Devices in the array (the paper uses 64).
    pub ssds: usize,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// A small scale for unit/integration tests.
    pub fn quick() -> Self {
        ExperimentScale {
            runtime: SimDuration::millis(200),
            ssds: 8,
            seed: 42,
        }
    }

    /// A custom scale.
    pub fn new(runtime: SimDuration, ssds: usize, seed: u64) -> Self {
        ExperimentScale {
            runtime,
            ssds,
            seed,
        }
    }

    /// The paper's setup at `stage` ([`AfaConfig::paper`]) over this
    /// scale's SSDs, run time and seed.
    pub fn config(&self, stage: TuningStage) -> AfaConfig {
        AfaConfig::paper(stage)
            .with_ssds(self.ssds)
            .with_runtime(self.runtime)
            .with_seed(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_small() {
        let s = ExperimentScale::quick();
        assert!(s.runtime <= SimDuration::secs(1));
        assert!(s.ssds <= 16);
    }

    #[test]
    fn custom_scale_roundtrips() {
        let s = ExperimentScale::new(SimDuration::secs(3), 16, 7);
        assert_eq!(s.runtime, SimDuration::secs(3));
        assert_eq!(s.ssds, 16);
        assert_eq!(s.seed, 7);
    }
}
