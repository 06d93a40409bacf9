//! The parallel SSD-profiling framework of §V / §VI.
//!
//! The paper argues its measurement environment doubles as a tool:
//! profiling tens of SSDs in parallel on one host finishes "the same
//! task x10 or even x100 faster" than serial characterization, and
//! makes it "cost-effective to detect and root cause latency outliers
//! from daily SSD firmware builds". [`ParallelProfiler`] packages
//! exactly that workflow: run the tuned-kernel workload over N
//! devices at once, return per-device profiles, and flag outliers.

use afa_sim::SimDuration;
use afa_stats::{LatencyProfile, NinesPoint};

use crate::experiment::ExperimentScale;
use crate::system::AfaSystem;
use crate::tuning::TuningStage;

/// One device's profiling verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceVerdict {
    /// Device index.
    pub device: usize,
    /// The measured profile.
    pub profile: LatencyProfile,
    /// Which metrics deviated more than the threshold above the fleet
    /// median (empty = healthy).
    pub outlier_metrics: Vec<NinesPoint>,
}

impl DeviceVerdict {
    /// Whether the device passed (no outlier metrics).
    pub fn is_healthy(&self) -> bool {
        self.outlier_metrics.is_empty()
    }
}

/// Result of one profiling batch.
#[derive(Clone, Debug)]
pub struct ProfileBatch {
    /// Per-device verdicts.
    pub verdicts: Vec<DeviceVerdict>,
    /// The speed-up over profiling the same devices one at a time
    /// (= device count at low CPU utilization; §IV-G validates this).
    pub speedup: f64,
}

impl ProfileBatch {
    /// Devices flagged as outliers.
    pub fn outliers(&self) -> Vec<usize> {
        self.verdicts
            .iter()
            .filter(|v| !v.is_healthy())
            .map(|v| v.device)
            .collect()
    }

    /// Renders the batch report.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "Parallel profiling batch — {} devices, x{:.0} faster than serial\n",
            self.verdicts.len(),
            self.speedup
        );
        out.push_str(&format!(
            "{:<8} {:>10} {:>10} {:>10} {:>8}\n",
            "device", "avg(us)", "p99999(us)", "max(us)", "healthy"
        ));
        for v in &self.verdicts {
            out.push_str(&format!(
                "{:<8} {:>10.1} {:>10.1} {:>10.1} {:>8}\n",
                v.device,
                v.profile.get_micros(NinesPoint::Average),
                v.profile.get_micros(NinesPoint::Nines5),
                v.profile.get_micros(NinesPoint::Max),
                if v.is_healthy() { "yes" } else { "NO" }
            ));
        }
        out
    }
}

/// Configuration for a profiling batch.
#[derive(Clone, Debug)]
pub struct ParallelProfiler {
    scale: ExperimentScale,
    /// A metric is an outlier if it exceeds
    /// `fleet median + threshold_sigmas × robust σ`, where robust σ is
    /// 1.4826 × the fleet's median absolute deviation, and is also
    /// more than 20 % above the median (so a zero-spread fleet flags
    /// nothing).
    threshold_sigmas: f64,
}

impl ParallelProfiler {
    /// Profiles `devices` SSDs for `runtime` each.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is 0 or > 64.
    pub fn new(devices: usize, runtime: SimDuration, seed: u64) -> Self {
        assert!((1..=64).contains(&devices), "1..=64 devices");
        ParallelProfiler {
            scale: ExperimentScale::new(runtime, devices, seed),
            threshold_sigmas: 3.0,
        }
    }

    /// Adjusts the outlier threshold (robust standard deviations above
    /// the fleet median).
    pub fn threshold_sigmas(mut self, sigmas: f64) -> Self {
        self.threshold_sigmas = sigmas;
        self
    }

    /// Runs the batch under the fully tuned kernel (the configuration
    /// the paper validates for parallel profiling in §IV-G).
    pub fn run(&self) -> ProfileBatch {
        let result = AfaSystem::run(&self.scale.config(TuningStage::IrqAffinity));
        let profiles: Vec<LatencyProfile> = result.reports.iter().map(|r| r.profile()).collect();
        self.judge(profiles)
    }

    /// Applies outlier detection to a set of measured profiles
    /// (exposed so firmware-regression tests can feed stored data).
    ///
    /// Detection is robust (median + MAD rather than mean + σ): a
    /// single extreme lemon inflates the fleet's standard deviation
    /// enough to hide itself from a mean-based test, but cannot move
    /// the median.
    pub fn judge(&self, profiles: Vec<LatencyProfile>) -> ProfileBatch {
        let mut fleet: Vec<(NinesPoint, f64, f64)> = Vec::new();
        for point in NinesPoint::ALL {
            let mut values: Vec<f64> = profiles.iter().map(|p| p.get(point) as f64).collect();
            values.sort_by(|a, b| a.total_cmp(b));
            let median = values[values.len() / 2];
            let mut deviations: Vec<f64> = values.iter().map(|v| (v - median).abs()).collect();
            deviations.sort_by(|a, b| a.total_cmp(b));
            // 1.4826 × MAD estimates σ for normal data.
            let robust_sigma = 1.4826 * deviations[deviations.len() / 2];
            fleet.push((point, median, robust_sigma));
        }
        let verdicts = profiles
            .into_iter()
            .enumerate()
            .map(|(device, profile)| {
                let outlier_metrics = fleet
                    .iter()
                    .filter(|&&(point, median, sigma)| {
                        let v = profile.get(point) as f64;
                        // Guard against zero-spread fleets: require a
                        // 20 % relative excess as well.
                        v > median + self.threshold_sigmas * sigma && v > median * 1.2
                    })
                    .map(|&(point, _, _)| point)
                    .collect();
                DeviceVerdict {
                    device,
                    profile,
                    outlier_metrics,
                }
            })
            .collect();
        ProfileBatch {
            verdicts,
            speedup: self.scale.ssds as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afa_stats::LatencyProfile;

    fn profile(base: u64) -> LatencyProfile {
        LatencyProfile::from_values([base; 7], 100_000)
    }

    #[test]
    fn healthy_fleet_has_no_outliers() {
        let profiler = ParallelProfiler::new(8, SimDuration::millis(100), 42);
        let batch = profiler.judge((0..8).map(|i| profile(30_000 + i * 100)).collect());
        assert!(batch.outliers().is_empty(), "{:?}", batch.outliers());
        assert_eq!(batch.speedup, 8.0);
    }

    #[test]
    fn bad_device_is_flagged() {
        let profiler = ParallelProfiler::new(8, SimDuration::millis(100), 42).threshold_sigmas(2.0);
        let mut profiles: Vec<LatencyProfile> = (0..7).map(|i| profile(30_000 + i * 50)).collect();
        profiles.push(profile(300_000)); // a lemon
        let batch = profiler.judge(profiles);
        assert_eq!(batch.outliers(), vec![7]);
        assert!(!batch.verdicts[7].is_healthy());
        assert!(batch.to_table().contains("NO"));
    }

    #[test]
    fn live_batch_profiles_devices() {
        let batch = ParallelProfiler::new(4, SimDuration::millis(60), 42).run();
        assert_eq!(batch.verdicts.len(), 4);
        for v in &batch.verdicts {
            assert!(v.profile.samples() > 500);
        }
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn zero_devices_panics() {
        let _ = ParallelProfiler::new(0, SimDuration::millis(1), 1);
    }
}
