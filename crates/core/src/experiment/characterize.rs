//! Device characterization: the latency-vs-throughput knee curve.
//!
//! The paper fixes queue depth 1 ("to focus on analyzing latency
//! distributions between CPUs and SSDs", §IV-G); this companion sweep
//! shows what that choice buys — the full knee curve of the Table I
//! device, from the 25 µs QD1 floor to the 160 K IOPS saturation wall.

use afa_sim::{SimDuration, SimTime};
use afa_ssd::NvmeCommand;
use afa_stats::{Json, LatencyHistogram};

use super::tables::{closed_loop, fresh_device};
use crate::experiment::registry::ExperimentResult;

/// One queue-depth point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QdPoint {
    /// Queue depth.
    pub depth: u32,
    /// Achieved 4 KiB random-read IOPS.
    pub iops: f64,
    /// Mean completion latency, µs.
    pub mean_us: f64,
    /// p99 completion latency, µs.
    pub p99_us: f64,
}

/// The sweep result.
#[derive(Clone, Debug)]
pub struct QdSweepResult {
    /// Points in increasing depth order.
    pub points: Vec<QdPoint>,
}

impl QdSweepResult {
    /// Depth at which IOPS first exceeds 90 % of the deepest point's
    /// IOPS — the knee.
    pub fn knee_depth(&self) -> u32 {
        let peak = self.points.last().map(|p| p.iops).unwrap_or(0.0);
        self.points
            .iter()
            .find(|p| p.iops >= 0.9 * peak)
            .map(|p| p.depth)
            .unwrap_or(1)
    }
}

impl ExperimentResult for QdSweepResult {
    /// Renders the curve.
    fn to_table(&self) -> String {
        let mut out = String::from("Queue-depth sweep — 4 KiB random read, single device\n");
        out.push_str(&format!(
            "{:<6} {:>12} {:>10} {:>10}\n",
            "QD", "IOPS", "mean(us)", "p99(us)"
        ));
        for p in &self.points {
            out.push_str(&format!(
                "{:<6} {:>12.0} {:>10.1} {:>10.1}\n",
                p.depth, p.iops, p.mean_us, p.p99_us
            ));
        }
        out.push_str(&format!(
            "knee at QD{} (90% of saturation)\n",
            self.knee_depth()
        ));
        out
    }

    fn to_csv(&self) -> String {
        let mut out = String::from("qd,iops,mean_us,p99_us\n");
        for p in &self.points {
            out.push_str(&format!(
                "{},{:.1},{:.3},{:.3}\n",
                p.depth, p.iops, p.mean_us, p.p99_us
            ));
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::obj([
            (
                "points",
                Json::arr(self.points.iter().map(|p| {
                    Json::obj([
                        ("depth", Json::u64(p.depth as u64)),
                        ("iops", Json::f64(p.iops)),
                        ("mean_us", Json::f64(p.mean_us)),
                        ("p99_us", Json::f64(p.p99_us)),
                    ])
                })),
            ),
            ("knee_depth", Json::u64(self.knee_depth() as u64)),
        ])
    }
}

/// Sweeps queue depths 1, 2, 4, …, 64 on a single device.
pub fn qd_sweep(seed: u64) -> QdSweepResult {
    let horizon = SimTime::ZERO + SimDuration::millis(200);
    let points = [1u32, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .map(|depth| {
            let mut hist = LatencyHistogram::new();
            closed_loop(
                &mut fresh_device(seed),
                depth as usize,
                horizon,
                |n| NvmeCommand::read((n + 1) * 7_919 % 10_000_000, 4096),
                |latency| hist.record(latency.as_nanos()),
            );
            QdPoint {
                depth,
                iops: hist.count() as f64 / 0.2,
                mean_us: hist.mean() / 1e3,
                p99_us: hist.value_at_percentile(99.0) as f64 / 1e3,
            }
        })
        .collect();
    QdSweepResult { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_has_the_classic_knee_shape() {
        let sweep = qd_sweep(42);
        assert_eq!(sweep.points.len(), 7);
        // IOPS monotone non-decreasing (within 2 % noise).
        for w in sweep.points.windows(2) {
            assert!(
                w[1].iops >= w[0].iops * 0.98,
                "IOPS fell from QD{} to QD{}: {} -> {}",
                w[0].depth,
                w[1].depth,
                w[0].iops,
                w[1].iops
            );
        }
        // Latency grows past the knee.
        let first = sweep.points.first().unwrap();
        let last = sweep.points.last().unwrap();
        assert!((23.0..28.0).contains(&first.mean_us), "{}", first.mean_us);
        assert!(last.mean_us > 3.0 * first.mean_us, "{}", last.mean_us);
        // Saturation near the rated 160 K.
        assert!((140_000.0..175_000.0).contains(&last.iops), "{}", last.iops);
        // The knee sits at a plausible depth.
        let knee = sweep.knee_depth();
        assert!((2..=32).contains(&knee), "knee at QD{knee}");
        assert!(sweep.to_table().contains("knee"));
    }
}
