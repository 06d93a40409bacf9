//! Smoke tests for every experiment runner: each regenerates its
//! artifact at test scale without panicking and with sane structure.

use afa::core::experiment::{
    ablate_gc, ablate_poll, fig10, fig12, fig6, table1, table2, ExperimentResult, ExperimentScale,
};
use afa::core::profiler::ParallelProfiler;
use afa::core::Table2Row;
use afa::sim::SimDuration;
use afa::stats::NinesPoint;

#[test]
fn table1_ratios_within_tolerance() {
    let t = table1(42);
    for (metric, rated, measured) in &t.rows {
        let ratio = measured / rated;
        assert!(
            (0.75..1.30).contains(&ratio),
            "{metric}: rated {rated} vs measured {measured}"
        );
    }
}

#[test]
fn table2_lists_all_rows() {
    let text = table2();
    for row in Table2Row::ALL {
        assert!(text.contains(row.label()), "missing {row:?}");
    }
}

#[test]
fn fig6_runner_produces_consistent_artifacts() {
    let scale = ExperimentScale::quick();
    let fig = fig6(scale);
    assert_eq!(fig.profiles.len(), scale.ssds);
    let csv = fig.to_csv();
    assert_eq!(csv.lines().count(), scale.ssds + 1);
    // The summary's max row must bound every device.
    let hi = fig.summary.get(NinesPoint::Max).max_us;
    for p in &fig.profiles {
        assert!(p.get_micros(NinesPoint::Max) <= hi + 1e-9);
    }
}

#[test]
fn fig10_runner_logs_samples() {
    let scatter = fig10(ExperimentScale::new(SimDuration::millis(80), 4, 42));
    assert_eq!(scatter.points_per_device.len(), 4);
    assert!(scatter.mean_latency_ns > 20_000.0);
    assert!(scatter.to_table().contains("Fig. 10"));
}

#[test]
fn fig12_improvements_are_positive() {
    let cmp = fig12(ExperimentScale::new(SimDuration::millis(250), 8, 42));
    assert!(cmp.mean_max_improvement() > 1.0);
    assert!(cmp.std_max_improvement() >= 0.0);
    let default_max = cmp.mean_max_us(afa::core::TuningStage::Default);
    let tuned_max = cmp.mean_max_us(afa::core::TuningStage::IrqAffinity);
    assert!(default_max > tuned_max);
}

#[test]
fn gc_ablation_shows_aging() {
    let r = ablate_gc(7);
    assert!(r.gc_cycles > 0);
    assert!(r.aged_write_amplification > 1.0);
}

#[test]
fn poll_ablation_reports_two_engines() {
    let r = ablate_poll(ExperimentScale::new(SimDuration::millis(100), 2, 42));
    assert_eq!(r.rows.len(), 2);
    assert!(r.to_table().contains("polling"));
}

#[test]
fn profiler_flags_injected_lemon() {
    let profiler = ParallelProfiler::new(6, SimDuration::millis(100), 42).threshold_sigmas(2.5);
    let batch = profiler.run();
    assert_eq!(batch.verdicts.len(), 6);
    let mut profiles: Vec<_> = batch.verdicts.iter().map(|v| v.profile.clone()).collect();
    profiles.push(afa::stats::LatencyProfile::from_values(
        [5_000_000; 7],
        100_000,
    ));
    let judged = profiler.judge(profiles);
    assert!(judged.outliers().contains(&6));
}
