//! Runners for Fig. 6 – Fig. 14.

use afa_sim::SimDuration;
use afa_stats::series::{median_spike_gap, LogPoint};
use afa_stats::{Json, LatencyProfile, NinesPoint, OnlineStats, ProfileSummary};

use crate::config::AfaConfig;
use crate::experiment::registry::ExperimentResult;
use crate::experiment::{run_parallel, ExperimentScale};
use crate::geometry::Table2Row;
use crate::system::{AfaSystem, RunResult};
use crate::tuning::TuningStage;

/// Per-device latency distributions for one configuration — the data
/// behind one of the paper's distribution figures (Fig. 6–9, 11, 13).
#[derive(Clone, Debug)]
pub struct FigureDistributions {
    /// Figure label.
    pub label: String,
    /// One latency profile per SSD.
    pub profiles: Vec<LatencyProfile>,
    /// Cross-device mean ± std per metric.
    pub summary: ProfileSummary,
}

impl FigureDistributions {
    fn from_profiles(label: impl Into<String>, profiles: Vec<LatencyProfile>) -> Self {
        let summary = ProfileSummary::from_profiles(&profiles);
        FigureDistributions {
            label: label.into(),
            profiles,
            summary,
        }
    }

    /// Largest per-device maximum, µs.
    pub fn worst_max_us(&self) -> f64 {
        self.profiles
            .iter()
            .map(|p| p.get_micros(NinesPoint::Max))
            .fold(0.0, f64::max)
    }

    /// Total samples behind the figure.
    pub fn total_samples(&self) -> u64 {
        self.profiles.iter().map(LatencyProfile::samples).sum()
    }
}

impl ExperimentResult for FigureDistributions {
    /// Renders the distribution envelope: per metric, the min / mean /
    /// max across devices (the visual spread of the figure's 64
    /// lines).
    fn to_table(&self) -> String {
        let mut out = format!(
            "{} — {} devices, {} samples/device\n",
            self.label,
            self.profiles.len(),
            self.profiles.first().map_or(0, LatencyProfile::samples)
        );
        out.push_str(&format!(
            "{:<10} {:>12} {:>12} {:>12} {:>12}\n",
            "metric", "lo(us)", "mean(us)", "hi(us)", "std(us)"
        ));
        for (point, m) in self.summary.iter() {
            out.push_str(&format!(
                "{:<10} {:>12.1} {:>12.1} {:>12.1} {:>12.1}\n",
                point.label(),
                m.min_us,
                m.mean_us,
                m.max_us,
                m.std_us
            ));
        }
        out
    }

    /// Renders one CSV row per device (columns: the seven metrics in
    /// µs), like the 64 lines of the paper's plots.
    fn to_csv(&self) -> String {
        let mut out = String::from("device,avg,p99,p999,p9999,p99999,p999999,max\n");
        for (d, p) in self.profiles.iter().enumerate() {
            out.push_str(&format!("{d},{}\n", p.to_csv_row()));
        }
        out
    }

    /// Serializes the figure: label, summary, per-device profiles.
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::str(&self.label)),
            ("devices", Json::u64(self.profiles.len() as u64)),
            ("summary", self.summary.to_json()),
            (
                "profiles",
                Json::arr(self.profiles.iter().map(LatencyProfile::to_json)),
            ),
        ])
    }

    fn samples(&self) -> u64 {
        self.total_samples()
    }

    fn headline_max_us(&self) -> Option<f64> {
        Some(self.worst_max_us())
    }
}

/// Runs one tuning stage at the given scale and returns its
/// distribution figure.
pub fn run_stage(stage: TuningStage, scale: ExperimentScale) -> FigureDistributions {
    let config = AfaConfig::paper(stage)
        .with_ssds(scale.ssds)
        .with_runtime(scale.runtime)
        .with_seed(scale.seed);
    let result = AfaSystem::run(&config);
    figure_from_result(format!("{stage}"), &result)
}

fn figure_from_result(label: String, result: &RunResult) -> FigureDistributions {
    let profiles = result.reports.iter().map(|r| r.profile()).collect();
    FigureDistributions::from_profiles(label, profiles)
}

/// Fig. 6: latency distributions of 64 SSDs, default configuration.
pub fn fig6(scale: ExperimentScale) -> FigureDistributions {
    run_stage(TuningStage::Default, scale)
}

/// Fig. 7: + fio at SCHED_FIFO 99 (`chrt`).
pub fn fig7(scale: ExperimentScale) -> FigureDistributions {
    run_stage(TuningStage::Chrt, scale)
}

/// Fig. 8: + CPU isolation boot options.
pub fn fig8(scale: ExperimentScale) -> FigureDistributions {
    run_stage(TuningStage::Isolcpus, scale)
}

/// Fig. 9: + IRQ affinity pinned for all 2,560 vectors.
pub fn fig9(scale: ExperimentScale) -> FigureDistributions {
    run_stage(TuningStage::IrqAffinity, scale)
}

/// Fig. 11: + experimental firmware (SMART disabled).
pub fn fig11(scale: ExperimentScale) -> FigureDistributions {
    run_stage(TuningStage::ExperimentalFirmware, scale)
}

/// The Fig. 10 scatter data: per-sample latency logs from 32 SSDs
/// under the Fig. 9 configuration, showing periodic SMART spikes.
#[derive(Clone, Debug)]
pub struct Fig10Scatter {
    /// Retained `(sample index, latency)` points per device.
    pub points_per_device: Vec<Vec<LogPoint>>,
    /// Spikes (> 200 µs) per device.
    pub spikes_per_device: Vec<usize>,
    /// Median gap between consecutive spikes, in samples, per device
    /// (where ≥ 2 spikes were seen).
    pub spike_gaps: Vec<u64>,
    /// Mean completion latency, ns (to convert gaps to seconds).
    pub mean_latency_ns: f64,
}

impl Fig10Scatter {
    /// Estimated housekeeping period in seconds from the spike gaps.
    pub fn estimated_period_secs(&self) -> Option<f64> {
        if self.spike_gaps.is_empty() {
            return None;
        }
        let mut gaps = self.spike_gaps.clone();
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2];
        Some(median as f64 * self.mean_latency_ns / 1e9)
    }
}

impl ExperimentResult for Fig10Scatter {
    /// Renders a summary table.
    fn to_table(&self) -> String {
        let total_points: usize = self.points_per_device.iter().map(Vec::len).sum();
        let total_spikes: usize = self.spikes_per_device.iter().sum();
        let mut out = String::from("Fig. 10 — latency scatter, 32 SSDs, production firmware\n");
        out.push_str(&format!("retained points : {total_points}\n"));
        out.push_str(&format!("spikes > 200 us : {total_spikes}\n"));
        match self.estimated_period_secs() {
            Some(p) => out.push_str(&format!(
                "spike period    : ~{p:.1} s (SMART housekeeping)\n"
            )),
            None => out.push_str("spike period    : run too short to estimate\n"),
        }
        out
    }

    /// CSV of all retained points (`device,index,latency_us`).
    fn to_csv(&self) -> String {
        let mut out = String::from("device,index,latency_us\n");
        for (d, points) in self.points_per_device.iter().enumerate() {
            for p in points {
                out.push_str(&format!(
                    "{d},{},{:.1}\n",
                    p.index,
                    p.latency_ns as f64 / 1e3
                ));
            }
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("devices", Json::u64(self.points_per_device.len() as u64)),
            (
                "retained_points",
                Json::u64(self.points_per_device.iter().map(Vec::len).sum::<usize>() as u64),
            ),
            (
                "spikes_per_device",
                Json::arr(self.spikes_per_device.iter().map(|&n| Json::u64(n as u64))),
            ),
            (
                "spike_gaps",
                Json::arr(self.spike_gaps.iter().map(|&g| Json::u64(g))),
            ),
            ("mean_latency_ns", Json::f64(self.mean_latency_ns)),
            (
                "estimated_period_secs",
                self.estimated_period_secs().map_or(Json::Null, Json::f64),
            ),
        ])
    }

    fn samples(&self) -> u64 {
        self.points_per_device.iter().map(Vec::len).sum::<usize>() as u64
    }
}

/// Fig. 10: run 32 SSDs (the paper halves the count because latency
/// logging itself perturbs a 64-SSD run) with per-sample logging under
/// the Fig. 9 kernel and production firmware.
pub fn fig10(scale: ExperimentScale) -> Fig10Scatter {
    let ssds = scale.ssds.min(32);
    let config = AfaConfig::paper(TuningStage::IrqAffinity)
        .with_ssds(ssds)
        .with_runtime(scale.runtime)
        .with_seed(scale.seed)
        .with_logging(true);
    let result = AfaSystem::run(&config);

    let mut points_per_device = Vec::with_capacity(ssds);
    let mut spikes_per_device = Vec::with_capacity(ssds);
    let mut spike_gaps = Vec::new();
    let mut mean = OnlineStats::new();
    for report in &result.reports {
        mean.push(report.histogram().mean());
        let log = report.latency_log().expect("logging enabled");
        let spikes = log.spike_indices(200_000);
        spikes_per_device.push(spikes.len());
        if let Some(gap) = median_spike_gap(&spikes) {
            spike_gaps.push(gap);
        }
        points_per_device.push(log.points().to_vec());
    }
    Fig10Scatter {
        points_per_device,
        spikes_per_device,
        spike_gaps,
        mean_latency_ns: mean.mean(),
    }
}

/// Fig. 12: the four kernel configurations side by side — mean and
/// std of each latency metric across the array, plus the headline
/// improvement factors.
#[derive(Clone, Debug)]
pub struct Fig12Comparison {
    /// `(stage, summary)` per kernel configuration, in ladder order.
    pub stages: Vec<(TuningStage, ProfileSummary)>,
}

impl Fig12Comparison {
    /// Mean of the per-device max for `stage`, µs.
    pub fn mean_max_us(&self, stage: TuningStage) -> f64 {
        self.stages
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, sum)| sum.get(NinesPoint::Max).mean_us)
            .unwrap_or(0.0)
    }

    /// Std of the per-device max for `stage`, µs.
    pub fn std_max_us(&self, stage: TuningStage) -> f64 {
        self.stages
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, sum)| sum.get(NinesPoint::Max).std_us)
            .unwrap_or(0.0)
    }

    /// The abstract's headline: improvement of mean(max) from default
    /// to the fully tuned kernel (paper: ×8).
    pub fn mean_max_improvement(&self) -> f64 {
        let base = self.mean_max_us(TuningStage::Default);
        let tuned = self.mean_max_us(TuningStage::IrqAffinity);
        if tuned <= 0.0 {
            0.0
        } else {
            base / tuned
        }
    }

    /// The abstract's headline: improvement of std(max) (paper: ×400,
    /// 1 644 → 4).
    pub fn std_max_improvement(&self) -> f64 {
        let base = self.std_max_us(TuningStage::Default);
        let tuned = self.std_max_us(TuningStage::IrqAffinity);
        if tuned <= 0.0 {
            0.0
        } else {
            base / tuned
        }
    }
}

impl ExperimentResult for Fig12Comparison {
    /// Renders the two Fig. 12 charts (average and standard deviation
    /// per metric, one column per configuration) as tables.
    fn to_table(&self) -> String {
        let mut out = String::from("Fig. 12 — comparison of four system configurations\n\n");
        for (title, pick) in [
            ("average (us)", 0usize),
            ("standard deviation (us)", 1usize),
        ] {
            out.push_str(&format!("{title}:\n{:<10}", "metric"));
            for (stage, _) in &self.stages {
                out.push_str(&format!(" {:>12}", stage.label()));
            }
            out.push('\n');
            for point in NinesPoint::ALL {
                out.push_str(&format!("{:<10}", point.label()));
                for (_, summary) in &self.stages {
                    let m = summary.get(point);
                    let v = if pick == 0 { m.mean_us } else { m.std_us };
                    out.push_str(&format!(" {v:>12.1}"));
                }
                out.push('\n');
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "mean(max) improvement default→irq : x{:.1} (paper: x8)\n",
            self.mean_max_improvement()
        ));
        out.push_str(&format!(
            "std(max)  improvement default→irq : x{:.0} (paper: x400, 1644→4)\n",
            self.std_max_improvement()
        ));
        out
    }

    /// One CSV row per `(stage, metric)`: cross-device mean and std.
    fn to_csv(&self) -> String {
        let mut out = String::from("stage,metric,mean_us,std_us\n");
        for (stage, summary) in &self.stages {
            for point in NinesPoint::ALL {
                let m = summary.get(point);
                out.push_str(&format!(
                    "{},{},{:.3},{:.3}\n",
                    stage.label(),
                    point.key(),
                    m.mean_us,
                    m.std_us
                ));
            }
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::obj([
            (
                "stages",
                Json::arr(self.stages.iter().map(|(stage, summary)| {
                    Json::obj([
                        ("stage", Json::str(stage.label())),
                        ("summary", summary.to_json()),
                    ])
                })),
            ),
            (
                "mean_max_improvement",
                Json::f64(self.mean_max_improvement()),
            ),
            ("std_max_improvement", Json::f64(self.std_max_improvement())),
        ])
    }

    fn headline_max_us(&self) -> Option<f64> {
        Some(self.mean_max_us(TuningStage::Default))
    }
}

/// Fig. 12: runs the four kernel-configuration stages (in parallel)
/// and aggregates.
pub fn fig12(scale: ExperimentScale) -> Fig12Comparison {
    let configs: Vec<AfaConfig> = TuningStage::KERNEL_LADDER
        .iter()
        .map(|&stage| {
            AfaConfig::paper(stage)
                .with_ssds(scale.ssds)
                .with_runtime(scale.runtime)
                .with_seed(scale.seed)
        })
        .collect();
    let results = run_parallel(configs);
    let stages = TuningStage::KERNEL_LADDER
        .iter()
        .zip(results.iter())
        .map(|(&stage, result)| {
            let profiles: Vec<LatencyProfile> =
                result.reports.iter().map(|r| r.profile()).collect();
            (stage, ProfileSummary::from_profiles(&profiles))
        })
        .collect();
    Fig12Comparison { stages }
}

/// Results of the Fig. 13 sweep (and the data Fig. 14 aggregates).
#[derive(Clone, Debug)]
pub struct Fig13Results {
    /// Per Table II row: merged distributions over all 64 SSDs.
    pub rows: Vec<(Table2Row, FigureDistributions)>,
    /// Aggregate QD1 throughput of the row-(a) run, GB/s (§IV-G's
    /// 8.3 GB/s < 16 GB/s uplink argument).
    pub row_a_aggregate_gbps: f64,
}

impl Fig13Results {
    /// Fig. 14's view: `(row, summary)` per configuration.
    pub fn summaries(&self) -> Vec<(Table2Row, ProfileSummary)> {
        self.rows
            .iter()
            .map(|(row, fig)| (*row, fig.summary.clone()))
            .collect()
    }
}

impl ExperimentResult for Fig13Results {
    /// Renders all four rows.
    fn to_table(&self) -> String {
        let mut out = String::from("Fig. 13 — latency vs. SSDs per physical CPU core\n\n");
        for (row, fig) in &self.rows {
            out.push_str(&format!(
                "{} — {} SSDs/core, {} threads/run, {} run(s):\n",
                row.label(),
                row.ssds_per_core(),
                row.threads_per_run(),
                row.runs()
            ));
            out.push_str(&fig.to_table());
            out.push('\n');
        }
        out.push_str(&format!(
            "row (a) aggregate: {:.1} GB/s issued by 64 QD1 threads (paper: 8.3 GB/s; \
             uplink 16 GB/s, devices 108 GB/s)\n",
            self.row_a_aggregate_gbps
        ));
        out
    }

    /// One CSV row per `(Table II row, device)`.
    fn to_csv(&self) -> String {
        let mut out = String::from("row,device,avg,p99,p999,p9999,p99999,p999999,max\n");
        for (row, fig) in &self.rows {
            for (d, p) in fig.profiles.iter().enumerate() {
                out.push_str(&format!("{},{d},{}\n", row.label(), p.to_csv_row()));
            }
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::obj([
            (
                "rows",
                Json::arr(self.rows.iter().map(|(row, fig)| {
                    Json::obj([
                        ("row", Json::str(row.label())),
                        ("distributions", fig.to_json()),
                    ])
                })),
            ),
            ("row_a_aggregate_gbps", Json::f64(self.row_a_aggregate_gbps)),
        ])
    }

    fn samples(&self) -> u64 {
        self.rows.iter().map(|(_, fig)| fig.total_samples()).sum()
    }

    fn headline_max_us(&self) -> Option<f64> {
        self.rows
            .iter()
            .map(|(_, fig)| fig.worst_max_us())
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

/// The Fig. 14 aggregation as a first-class result (the Fig. 13 runs'
/// mean/std summaries per Table II row).
#[derive(Clone, Debug)]
pub struct Fig14Result {
    /// `(row, summary)` per configuration.
    pub summaries: Vec<(Table2Row, ProfileSummary)>,
}

impl ExperimentResult for Fig14Result {
    fn to_table(&self) -> String {
        render_fig14(&self.summaries)
    }

    fn to_csv(&self) -> String {
        let mut out = String::from("row,metric,mean_us,std_us\n");
        for (row, summary) in &self.summaries {
            for point in NinesPoint::ALL {
                let m = summary.get(point);
                out.push_str(&format!(
                    "{},{},{:.3},{:.3}\n",
                    row.label(),
                    point.key(),
                    m.mean_us,
                    m.std_us
                ));
            }
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::arr(self.summaries.iter().map(|(row, summary)| {
            Json::obj([
                ("row", Json::str(row.label())),
                ("summary", summary.to_json()),
            ])
        }))
    }
}

/// Fig. 13: the Table II sweep under the fully tuned kernel. Each row
/// runs its disjoint SSD sets (in parallel) and merges the per-device
/// profiles of all 64 SSDs.
pub fn fig13(scale: ExperimentScale) -> Fig13Results {
    let mut rows = Vec::new();
    let mut row_a_gbps = 0.0;
    for row in Table2Row::ALL {
        let geometries = row.run_geometries();
        let configs: Vec<AfaConfig> = geometries
            .iter()
            .enumerate()
            .map(|(i, (_, geometry))| {
                AfaConfig::paper(TuningStage::IrqAffinity)
                    .with_geometry(geometry.clone())
                    .with_runtime(scale.runtime)
                    .with_seed(scale.seed.wrapping_add(i as u64 * 7_919))
            })
            .collect();
        let results = run_parallel(configs);
        if row == Table2Row::A {
            row_a_gbps = results[0].aggregate_gbps(scale.runtime);
        }
        let mut profiles = vec![None; 64];
        for ((ssds, _), result) in geometries.iter().zip(results.iter()) {
            for (slot, &global) in ssds.iter().enumerate() {
                profiles[global] = Some(result.reports[slot].profile());
            }
        }
        let profiles: Vec<LatencyProfile> = profiles.into_iter().flatten().collect();
        rows.push((
            row,
            FigureDistributions::from_profiles(row.label().to_owned(), profiles),
        ));
    }
    Fig13Results {
        rows,
        row_a_aggregate_gbps: row_a_gbps,
    }
}

/// Fig. 13 and Fig. 14 share the same runs; this returns both views.
pub fn fig13_and_14(scale: ExperimentScale) -> (Fig13Results, Vec<(Table2Row, ProfileSummary)>) {
    let results = fig13(scale);
    let summaries = results.summaries();
    (results, summaries)
}

/// Fig. 14: mean and std of each metric for the Fig. 13 setups.
pub fn fig14(scale: ExperimentScale) -> Vec<(Table2Row, ProfileSummary)> {
    fig13(scale).summaries()
}

/// Renders the Fig. 14 charts as a table.
pub fn render_fig14(summaries: &[(Table2Row, ProfileSummary)]) -> String {
    let mut out = String::from("Fig. 14 — comparison of SSDs-per-core setups\n\n");
    for (title, pick) in [("average (us)", 0usize), ("standard deviation (us)", 1)] {
        out.push_str(&format!("{title}:\n{:<10}", "metric"));
        for (row, _) in summaries {
            out.push_str(&format!(" {:>12}", row.label()));
        }
        out.push('\n');
        for point in NinesPoint::ALL {
            out.push_str(&format!("{:<10}", point.label()));
            for (_, summary) in summaries {
                let m = summary.get(point);
                let v = if pick == 0 { m.mean_us } else { m.std_us };
                out.push_str(&format!(" {v:>12.1}"));
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

// Keep the scale-dependent runtime accessible for fig13's fraction of
// a second logic if needed later.
#[allow(dead_code)]
fn min_runtime() -> SimDuration {
    SimDuration::millis(10)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentScale {
        ExperimentScale::quick()
    }

    #[test]
    fn fig6_produces_profiles_for_all_devices() {
        let fig = fig6(quick());
        assert_eq!(fig.profiles.len(), quick().ssds);
        assert!(fig.worst_max_us() > 30.0);
        assert!(fig.to_table().contains("default"));
        assert!(fig.to_csv().lines().count() == quick().ssds + 1);
    }

    #[test]
    fn fig12_has_four_stages_in_order() {
        let cmp = fig12(quick());
        let stages: Vec<TuningStage> = cmp.stages.iter().map(|(s, _)| *s).collect();
        assert_eq!(stages, TuningStage::KERNEL_LADDER.to_vec());
        let table = cmp.to_table();
        assert!(table.contains("default"));
        assert!(table.contains("irq"));
        assert!(table.contains("improvement"));
    }

    #[test]
    fn fig10_collects_scatter_points() {
        let scatter = fig10(ExperimentScale::new(SimDuration::millis(100), 4, 42));
        assert_eq!(scatter.points_per_device.len(), 4);
        for points in &scatter.points_per_device {
            assert!(!points.is_empty());
        }
        assert!(scatter.to_csv().starts_with("device,index,latency_us"));
    }
}
