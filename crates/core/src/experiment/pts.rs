//! SNIA PTS-E style measurement procedure.
//!
//! §III-B of the paper follows "chapter 9 of SNIA PTS-E guidelines to
//! minimize the systems overhead on I/O latency": purge the device to
//! FOB, precondition, then measure in rounds until the metric reaches
//! *steady state* (per PTS: a five-round window whose excursion stays
//! within ±20 % of the window average and whose best-fit slope stays
//! within ±10 %). This module implements the detector and a
//! device-level runner.

use afa_sim::{SimDuration, SimTime};
use afa_ssd::{FirmwareProfile, NvmeCommand, SsdDevice, SsdSpec};
use afa_stats::Json;

use crate::experiment::registry::ExperimentResult;

/// The PTS steady-state criterion over a sliding window.
#[derive(Clone, Debug)]
pub struct SteadyStateDetector {
    window: usize,
    max_excursion: f64,
    max_slope: f64,
    rounds: Vec<f64>,
}

impl SteadyStateDetector {
    /// The PTS-E defaults: 5-round window, ±20 % excursion, ±10 %
    /// slope.
    pub fn pts_default() -> Self {
        SteadyStateDetector {
            window: 5,
            max_excursion: 0.20,
            max_slope: 0.10,
            rounds: Vec::new(),
        }
    }

    /// A custom criterion.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2`.
    pub fn new(window: usize, max_excursion: f64, max_slope: f64) -> Self {
        assert!(window >= 2, "window must span at least two rounds");
        SteadyStateDetector {
            window,
            max_excursion,
            max_slope,
            rounds: Vec::new(),
        }
    }

    /// Records one round's metric; returns `true` once the trailing
    /// window satisfies the criterion.
    pub fn push(&mut self, value: f64) -> bool {
        self.rounds.push(value);
        self.is_steady()
    }

    /// Whether the trailing window currently satisfies the criterion.
    pub fn is_steady(&self) -> bool {
        if self.rounds.len() < self.window {
            return false;
        }
        let tail = &self.rounds[self.rounds.len() - self.window..];
        let avg = tail.iter().sum::<f64>() / tail.len() as f64;
        if avg <= 0.0 {
            return false;
        }
        let min = tail.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = tail.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if (max - avg).max(avg - min) > self.max_excursion * avg {
            return false;
        }
        // Least-squares slope over the window, normalized to the
        // average: total drift across the window ≤ max_slope × avg.
        let n = tail.len() as f64;
        let mean_x = (n - 1.0) / 2.0;
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, &y) in tail.iter().enumerate() {
            let dx = i as f64 - mean_x;
            num += dx * (y - avg);
            den += dx * dx;
        }
        let slope = num / den;
        (slope * (n - 1.0)).abs() <= self.max_slope * avg
    }

    /// Rounds recorded so far.
    pub fn rounds(&self) -> &[f64] {
        &self.rounds
    }
}

/// Result of a PTS-style device measurement.
#[derive(Clone, Debug)]
pub struct PtsRun {
    /// Metric per round (4 KiB random-write IOPS).
    pub rounds: Vec<f64>,
    /// Round index at which steady state was declared, if reached.
    pub steady_at: Option<usize>,
    /// Write amplification at the end of the run.
    pub final_write_amplification: f64,
}

impl ExperimentResult for PtsRun {
    /// Renders the round log.
    fn to_table(&self) -> String {
        let mut out = String::from("SNIA PTS-E style run — 4 KiB random write rounds\n");
        out.push_str(&format!("{:<8} {:>12} {:>8}\n", "round", "IOPS", "steady"));
        for (i, iops) in self.rounds.iter().enumerate() {
            let mark = match self.steady_at {
                Some(s) if i >= s => "yes",
                _ => "",
            };
            out.push_str(&format!("{i:<8} {iops:>12.0} {mark:>8}\n"));
        }
        out.push_str(&format!(
            "write amplification at end: {:.2}\n",
            self.final_write_amplification
        ));
        out
    }

    fn to_csv(&self) -> String {
        let mut out = String::from("round,iops,steady\n");
        for (i, iops) in self.rounds.iter().enumerate() {
            let steady = matches!(self.steady_at, Some(s) if i >= s);
            out.push_str(&format!("{i},{iops:.1},{}\n", u8::from(steady)));
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::obj([
            (
                "rounds_iops",
                Json::arr(self.rounds.iter().map(|&v| Json::f64(v))),
            ),
            (
                "steady_at",
                self.steady_at.map_or(Json::Null, |s| Json::u64(s as u64)),
            ),
            (
                "final_write_amplification",
                Json::f64(self.final_write_amplification),
            ),
        ])
    }

    fn samples(&self) -> u64 {
        self.rounds.len() as u64
    }
}

/// Runs the PTS workflow on a scaled-down device: purge (Format to
/// FOB), precondition with two sequential passes over the logical
/// space, then 4 KiB random-write rounds until steady state (or
/// `max_rounds`).
pub fn pts_random_write(seed: u64, max_rounds: usize) -> PtsRun {
    let spec = SsdSpec::scaled_down(256);
    let logical = spec.logical_pages();
    let mut dev = SsdDevice::new(spec, FirmwareProfile::experimental(), seed);

    // Purge.
    let fmt = dev.submit(SimTime::ZERO, NvmeCommand::format());
    let mut now = fmt.completes_at;

    // Precondition: 2× capacity of sequential writes (PTS-E WIPC).
    let last_start = logical - 8;
    for _ in 0..2u64 {
        for lba in (0..=last_start).step_by(8) {
            let info = dev.submit(now, NvmeCommand::write(lba, 32_768));
            now = now.max(info.completes_at.min(now + SimDuration::micros(2)));
        }
    }

    // Measurement rounds: fixed I/O count per round, QD1 random write.
    let mut detector = SteadyStateDetector::pts_default();
    let mut steady_at = None;
    let round_ios = 3_000u64;
    let mut x = seed | 1;
    for round in 0..max_rounds {
        let start = now;
        for _ in 0..round_ios {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let info = dev.submit(now, NvmeCommand::write(x % logical, 4096));
            now = info.completes_at;
        }
        let iops = round_ios as f64 / now.saturating_since(start).as_secs_f64();
        if detector.push(iops) && steady_at.is_none() {
            steady_at = Some(round);
            break;
        }
    }
    PtsRun {
        rounds: detector.rounds().to_vec(),
        steady_at,
        final_write_amplification: dev.ftl_stats().write_amplification(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_series_is_steady_after_window() {
        let mut d = SteadyStateDetector::pts_default();
        for i in 0..4 {
            assert!(!d.push(100.0), "too early at round {i}");
        }
        assert!(d.push(100.0), "flat series must be steady at window");
    }

    #[test]
    fn declining_series_not_steady_until_flattening() {
        let mut d = SteadyStateDetector::pts_default();
        // Steep decline: never steady.
        for v in [1000.0, 800.0, 640.0, 512.0, 410.0] {
            assert!(!d.push(v));
        }
        // Flattens out: steady once the window is flat enough.
        let mut steady = false;
        for v in [400.0, 398.0, 402.0, 399.0, 401.0] {
            steady = d.push(v);
        }
        assert!(steady, "flattened series must converge");
    }

    #[test]
    fn noisy_but_bounded_series_is_steady() {
        let mut d = SteadyStateDetector::pts_default();
        let mut steady = false;
        for i in 0..10 {
            let v = 100.0 + if i % 2 == 0 { 5.0 } else { -5.0 };
            steady = d.push(v);
        }
        assert!(steady, "±5 % oscillation is within the 20 % excursion");
    }

    #[test]
    fn excursion_violation_blocks_steadiness() {
        let mut d = SteadyStateDetector::pts_default();
        for _ in 0..4 {
            d.push(100.0);
        }
        assert!(!d.push(140.0), "40 % excursion must fail");
    }

    #[test]
    #[should_panic(expected = "window")]
    fn tiny_window_panics() {
        let _ = SteadyStateDetector::new(1, 0.2, 0.1);
    }

    #[test]
    fn device_run_reaches_steady_state() {
        let run = pts_random_write(42, 30);
        assert!(
            run.steady_at.is_some(),
            "device never reached steady state: {:?}",
            run.rounds
        );
        assert!(run.final_write_amplification >= 1.0);
        assert!(run.to_table().contains("IOPS"));
        // Sustained random write should sit in the rated ballpark.
        let last = *run.rounds.last().unwrap();
        assert!((20_000.0..40_000.0).contains(&last), "steady IOPS {last}");
    }
}
