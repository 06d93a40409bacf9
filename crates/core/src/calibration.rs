//! Calibration constants and the paper's reported values.
//!
//! The simulator cannot (and does not try to) match the paper's
//! absolute numbers — its substrate is a model, not the authors'
//! testbed. What must match is the *shape*: the ordering of the
//! configurations, the approximate improvement factors, and where the
//! tail comes from. This module records the paper's reported values so
//! the experiment harness can print paper-vs-measured side by side,
//! plus sanity expectations ("bands"). Nothing outside this file reads
//! the bands yet: ROADMAP item 5 turns them into machine-checked claims
//! over the registry's artifacts.

/// Values the paper states explicitly, used as reference columns in
/// the harness output and `EXPERIMENTS.md`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperReference {
    /// §IV-A: a standalone NVMe read is designed to take ~25 µs.
    pub standalone_read_us: f64,
    /// §IV-A: through the PCIe switches it becomes ~30 µs (+5 µs).
    pub clustered_read_us: f64,
    /// §IV-A / Fig. 6: worst-case latency under the default config.
    pub default_max_us: f64,
    /// §IV-B / Fig. 7: worst-case after `chrt`.
    pub chrt_max_us: f64,
    /// §IV-E / Fig. 11: worst-case with experimental firmware.
    pub exp_firmware_max_us: f64,
    /// §IV-F / Fig. 12: std of the per-SSD max, default config.
    pub default_max_std: f64,
    /// §IV-F / Fig. 12: std of the per-SSD max, fully tuned kernel.
    pub tuned_max_std: f64,
    /// Abstract: mean of max improves by this factor with tuning.
    pub mean_max_improvement: f64,
    /// Abstract: std of max improves by this factor with tuning.
    pub std_max_improvement: f64,
    /// §IV-G: aggregate throughput of 64 QD1 fio threads (GB/s).
    pub aggregate_qd1_gbps: f64,
    /// §III-A: uplink raw bandwidth (GB/s).
    pub uplink_gbps: f64,
    /// §III-A: aggregate device sequential-read bandwidth (GB/s).
    pub devices_gbps: f64,
}

/// The paper's reference values.
pub const PAPER: PaperReference = PaperReference {
    standalone_read_us: 25.0,
    clustered_read_us: 30.0,
    default_max_us: 5_000.0,
    chrt_max_us: 600.0,
    exp_firmware_max_us: 90.0,
    default_max_std: 1_644.0,
    tuned_max_std: 4.0,
    mean_max_improvement: 8.0,
    std_max_improvement: 400.0,
    aggregate_qd1_gbps: 8.3,
    uplink_gbps: 16.0,
    devices_gbps: 108.8,
};

/// Shape expectations an acceptable reproduction satisfies (checked
/// only by this module's own tests so far). Bands are intentionally
/// wide — they assert the phenomenon, not the third digit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShapeBand {
    /// Minimum acceptable value.
    pub min: f64,
    /// Maximum acceptable value.
    pub max: f64,
}

impl ShapeBand {
    /// Whether `x` lies in the band.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.min && x <= self.max
    }
}

/// Mean tuned (irq-stage) latency, µs.
pub const BAND_TUNED_MEAN_US: ShapeBand = ShapeBand {
    min: 27.0,
    max: 40.0,
};
/// Worst-case latency under the default config, µs (paper: ~5 000).
pub const BAND_DEFAULT_MAX_US: ShapeBand = ShapeBand {
    min: 1_000.0,
    max: 12_000.0,
};
/// Worst-case latency after `chrt`, µs (paper: ~600).
pub const BAND_CHRT_MAX_US: ShapeBand = ShapeBand {
    min: 200.0,
    max: 1_500.0,
};
/// Worst-case latency with experimental firmware, µs (paper: ~90).
pub const BAND_EXP_FW_MAX_US: ShapeBand = ShapeBand {
    min: 40.0,
    max: 150.0,
};
/// Improvement factor of mean(max) from default → irq (paper: ×8).
pub const BAND_MEAN_MAX_IMPROVEMENT: ShapeBand = ShapeBand {
    min: 2.5,
    max: 40.0,
};
/// Improvement factor of std(max) from default → irq (paper: ×400).
pub const BAND_STD_MAX_IMPROVEMENT: ShapeBand = ShapeBand {
    min: 20.0,
    max: 100_000.0,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // deliberately guards the const table
    fn paper_reference_is_self_consistent() {
        assert!(PAPER.standalone_read_us < PAPER.clustered_read_us);
        assert!(PAPER.chrt_max_us < PAPER.default_max_us);
        assert!(PAPER.exp_firmware_max_us < PAPER.chrt_max_us);
        assert!(PAPER.aggregate_qd1_gbps < PAPER.uplink_gbps);
        assert!(PAPER.uplink_gbps < PAPER.devices_gbps);
        let claimed_std_ratio = PAPER.default_max_std / PAPER.tuned_max_std;
        assert!(
            (claimed_std_ratio - PAPER.std_max_improvement).abs() < 15.0,
            "1644/4 ≈ 411 ≈ the claimed x400"
        );
    }

    #[test]
    fn bands_contain_paper_values() {
        assert!(BAND_DEFAULT_MAX_US.contains(PAPER.default_max_us));
        assert!(BAND_CHRT_MAX_US.contains(PAPER.chrt_max_us));
        assert!(BAND_EXP_FW_MAX_US.contains(PAPER.exp_firmware_max_us));
        assert!(BAND_MEAN_MAX_IMPROVEMENT.contains(PAPER.mean_max_improvement));
        assert!(BAND_STD_MAX_IMPROVEMENT.contains(PAPER.std_max_improvement));
        assert!(BAND_TUNED_MEAN_US.contains(PAPER.clustered_read_us));
    }

    #[test]
    fn band_membership() {
        let b = ShapeBand { min: 1.0, max: 2.0 };
        assert!(b.contains(1.0));
        assert!(b.contains(2.0));
        assert!(!b.contains(0.99));
        assert!(!b.contains(2.01));
    }
}
