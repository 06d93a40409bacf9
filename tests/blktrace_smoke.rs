//! End-to-end smoke test of the blktrace-style stage traces, read off
//! the run's ledger log.

use afa::core::blktrace::{IoStage, IoTrace};
use afa::core::io_path::CompletedIo;
use afa::core::{AfaConfig, AfaSystem, TuningStage};
use afa::sim::{SimDuration, SimTime};

/// The stage traces of the run's logged I/Os, in reap order.
fn traces(config: &AfaConfig) -> Vec<IoTrace> {
    let log = AfaSystem::run(config).ledgers.expect("ledger log enabled");
    log.entries().iter().map(CompletedIo::trace).collect()
}

#[test]
fn traces_cover_the_full_path_in_order() {
    let traces = traces(
        &AfaConfig::paper(TuningStage::IrqAffinity)
            .with_ssds(4)
            .with_runtime(SimDuration::millis(30))
            .with_seed(5)
            .with_ledger_log(100),
    );
    assert_eq!(traces.len(), 100);
    let mut text = String::new();
    for (seq, trace) in traces.iter().enumerate() {
        // Q ≤ D ≤ C ≤ I ≤ R, all reached under libaio.
        for w in trace.stamps.windows(2) {
            assert!(w[0] <= w[1], "stages out of order: {trace:?}");
        }
        assert!(trace.stamps[4] > SimTime::ZERO, "reap missing");
        let total_us = trace.total().as_micros_f64();
        assert!((25.0..5_000.0).contains(&total_us), "total {total_us}");
        text.push_str(&trace.to_text(seq));
    }
    assert!(text.contains(" Q "));
    assert!(text.contains(" R "));
}

#[test]
fn polling_traces_skip_the_irq_stage() {
    let traces = traces(
        &AfaConfig::paper(TuningStage::ExperimentalFirmware)
            .with_ssds(1)
            .with_runtime(SimDuration::millis(10))
            .with_seed(6)
            .with_engine(afa::workload::IoEngine::Polling)
            .with_ledger_log(20),
    );
    assert!(!traces.is_empty());
    for trace in &traces {
        assert_eq!(trace.stamps[3], SimTime::ZERO, "polling must not IRQ");
        assert!(trace.stamps[4] > SimTime::ZERO);
    }
}

#[test]
fn slowest_trace_explains_a_tail_sample() {
    let traces = traces(
        &AfaConfig::paper(TuningStage::Default)
            .with_ssds(8)
            .with_runtime(SimDuration::millis(100))
            .with_seed(7)
            .with_ledger_log(50_000),
    );
    let slowest = traces.iter().max_by_key(|t| t.total()).expect("non-empty");
    // The trace must let us decompose the slowest I/O: the dominant
    // gap sits between device-complete and reap (host-side) or inside
    // the device, never in the untraced void.
    let d = slowest.stamps;
    let device_time = d[2].saturating_since(d[1]);
    let host_time = d[4].saturating_since(d[2]);
    let total = slowest.total();
    assert!(
        device_time + host_time <= total,
        "stage gaps exceed the total"
    );
    let _ = IoStage::Queue; // exercise the re-export
}
