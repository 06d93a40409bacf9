//! Shape assertions: the paper's qualitative results must hold at
//! test scale. (The full quantitative comparison lives in the bench
//! harness and `EXPERIMENTS.md`; these tests pin the *ordering* and
//! rough magnitudes so a regression cannot slip in silently.)

use afa::core::{AfaConfig, AfaSystem, TuningStage};
use afa::sim::SimDuration;
use afa::ssd::{FirmwareProfile, SmartPolicy};
use afa::stats::NinesPoint;

fn run(stage: TuningStage, ms: u64) -> afa::core::RunResult {
    AfaSystem::run(
        &AfaConfig::paper(stage)
            .with_ssds(12)
            .with_runtime(SimDuration::millis(ms))
            .with_seed(42),
    )
}

/// A fast-housekeeping firmware so short test runs reliably cross
/// SMART windows (production firmware's 25 s period would need the
/// full 120 s runs).
fn fast_smart() -> FirmwareProfile {
    FirmwareProfile::with_smart_policy(
        "TEST-FAST-SMART",
        SmartPolicy::Periodic {
            mean_period: SimDuration::millis(60),
            period_jitter: SimDuration::millis(10),
            min_duration: SimDuration::micros(580),
            max_duration: SimDuration::micros(620),
        },
    )
}

#[test]
fn default_tail_is_milliseconds_and_tuning_collapses_it() {
    let default = run(TuningStage::Default, 400);
    let chrt = run(TuningStage::Chrt, 400);
    let tuned = run(TuningStage::ExperimentalFirmware, 400);

    let max_default = default.worst_us(NinesPoint::Max);
    let max_chrt = chrt.worst_us(NinesPoint::Max);
    let max_tuned = tuned.worst_us(NinesPoint::Max);

    // Paper: ~5000 µs → ~600 µs → ~90 µs.
    assert!(max_default > 800.0, "default max only {max_default} us");
    assert!(
        max_chrt < max_default,
        "chrt ({max_chrt}) must beat default ({max_default})"
    );
    assert!(max_tuned < 150.0, "fully tuned max {max_tuned} us");
    assert!(
        max_default / max_tuned > 5.0,
        "end-to-end improvement too small: {max_default} / {max_tuned}"
    );
}

fn run_wide(stage: TuningStage, ms: u64) -> afa::core::RunResult {
    // The paper's interference effects need the paper's geometry: most
    // CPUs hosting fio threads, so daemons have nowhere clean to land.
    AfaSystem::run(
        &AfaConfig::paper(stage)
            .with_ssds(48)
            .with_runtime(SimDuration::millis(ms))
            .with_seed(42),
    )
}

#[test]
fn chrt_gives_the_biggest_average_win() {
    // Fig. 12: "adjustment of the FIO process priority yields the most
    // impact on the average latency."
    let default = run_wide(TuningStage::Default, 250).mean_us(NinesPoint::Average);
    let chrt = run_wide(TuningStage::Chrt, 250).mean_us(NinesPoint::Average);
    let isol = run_wide(TuningStage::Isolcpus, 250).mean_us(NinesPoint::Average);
    let irq = run_wide(TuningStage::IrqAffinity, 250).mean_us(NinesPoint::Average);

    let steps = [default - chrt, chrt - isol, isol - irq];
    assert!(
        steps[0] >= steps[1] && steps[0] >= steps[2],
        "chrt step must dominate: {steps:?} (default {default}, chrt {chrt})"
    );
    assert!(irq < default, "tuning must reduce the average");
}

#[test]
fn smart_housekeeping_sets_the_tuned_tail() {
    // With production-style housekeeping (sped up for test scale) the
    // tuned kernel's max sits at the window length (~600 µs); the
    // experimental firmware removes it (Fig. 9 vs Fig. 11).
    let with_smart = AfaSystem::run(
        &AfaConfig::paper(TuningStage::IrqAffinity)
            .with_ssds(8)
            .with_runtime(SimDuration::millis(250))
            .with_seed(3)
            .with_firmware(fast_smart()),
    );
    let without = AfaSystem::run(
        &AfaConfig::paper(TuningStage::ExperimentalFirmware)
            .with_ssds(8)
            .with_runtime(SimDuration::millis(250))
            .with_seed(3),
    );
    let max_smart = with_smart.worst_us(NinesPoint::Max);
    let max_clean = without.worst_us(NinesPoint::Max);
    assert!(
        (450.0..900.0).contains(&max_smart),
        "SMART-dominated max should be ~600 us, got {max_smart}"
    );
    assert!(max_clean < 150.0, "SMART-free max {max_clean} us");
}

#[test]
fn smart_spikes_are_periodic_in_the_latency_log() {
    // Fig. 10: periodic spikes in the per-sample scatter.
    let result = AfaSystem::run(
        &AfaConfig::paper(TuningStage::IrqAffinity)
            .with_ssds(4)
            .with_runtime(SimDuration::millis(400))
            .with_seed(9)
            .with_firmware(fast_smart())
            .with_logging(true),
    );
    let mut total_spikes = 0;
    for report in &result.reports {
        let log = report.latency_log().expect("logging on");
        let spikes = log.spike_indices(200_000);
        total_spikes += spikes.len();
        if spikes.len() >= 2 {
            let gap = afa::stats::series::median_spike_gap(&spikes).unwrap();
            // ~60 ms period at ~30 µs per sample ≈ 1500–2500 samples.
            assert!(
                (800..4_000).contains(&gap),
                "spike gap {gap} samples not periodic"
            );
        }
    }
    assert!(
        total_spikes >= 4,
        "expected periodic spikes, saw {total_spikes}"
    );
}

#[test]
fn per_device_distributions_converge_with_irq_pinning() {
    // Fig. 12's std chart: pinning collapses the cross-device spread
    // of the upper percentiles.
    let balanced = run(TuningStage::Isolcpus, 300);
    let pinned = run(TuningStage::IrqAffinity, 300);
    let spread = |r: &afa::core::RunResult, p: NinesPoint| {
        let values: Vec<f64> = r
            .reports
            .iter()
            .map(|rep| rep.profile().get_micros(p))
            .collect();
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(0.0, f64::max);
        hi - lo
    };
    let spread_balanced = spread(&balanced, NinesPoint::Nines3);
    let spread_pinned = spread(&pinned, NinesPoint::Nines3);
    assert!(
        spread_pinned <= spread_balanced + 0.5,
        "pinning must not widen the spread: {spread_balanced} -> {spread_pinned}"
    );
}

#[test]
fn aggregate_throughput_stays_under_the_uplink() {
    // §IV-G: 64 QD1 threads issue ≈8.3 GB/s, below the 16 GB/s uplink.
    let result = AfaSystem::run(
        &AfaConfig::paper(TuningStage::IrqAffinity)
            .with_ssds(32)
            .with_runtime(SimDuration::millis(200))
            .with_seed(4),
    );
    let gbps = result.aggregate_gbps(SimDuration::millis(200));
    // Half the array → roughly half of 8.3 GB/s.
    assert!((2.0..8.0).contains(&gbps), "aggregate {gbps} GB/s");
}
