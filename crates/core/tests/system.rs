//! Whole-array system tests over the public `AfaSystem` API (moved
//! out of `system.rs` when the I/O lifecycle split into the staged
//! `io_path` modules).

use afa_core::{AfaConfig, AfaSystem, IrqCoalescing, RunResult, TuningStage};
use afa_sim::SimDuration;
use afa_stats::NinesPoint;
use afa_workload::IoEngine;

fn quick(stage: TuningStage, ssds: usize, ms: u64) -> RunResult {
    let config = AfaConfig::paper(stage)
        .with_ssds(ssds)
        .with_runtime(SimDuration::millis(ms))
        .with_seed(7);
    AfaSystem::run(&config)
}

#[test]
fn every_device_completes_io() {
    let r = quick(TuningStage::IrqAffinity, 8, 50);
    assert_eq!(r.reports.len(), 8);
    for report in &r.reports {
        assert!(report.completed() > 500, "only {} I/Os", report.completed());
    }
}

#[test]
fn tuned_mean_latency_is_about_30us() {
    let r = quick(TuningStage::ExperimentalFirmware, 4, 100);
    for report in &r.reports {
        let mean = report.histogram().mean() / 1_000.0;
        assert!((28.0..40.0).contains(&mean), "mean {mean} us");
    }
}

#[test]
fn qd1_iops_matches_latency() {
    let r = quick(TuningStage::ExperimentalFirmware, 2, 100);
    for report in &r.reports {
        let iops = report.completed() as f64 / 0.1;
        // ~1 / 33 µs ≈ 30 K IOPS.
        assert!((22_000.0..36_000.0).contains(&iops), "IOPS {iops}");
    }
}

#[test]
fn default_config_has_fatter_tail_than_tuned() {
    let default = quick(TuningStage::Default, 8, 400);
    let tuned = quick(TuningStage::IrqAffinity, 8, 400);
    let max_default: u64 = default
        .reports
        .iter()
        .map(|r| r.profile().get(NinesPoint::Max))
        .max()
        .unwrap();
    let max_tuned: u64 = tuned
        .reports
        .iter()
        .map(|r| r.profile().get(NinesPoint::Max))
        .max()
        .unwrap();
    assert!(
        max_default > max_tuned,
        "default max {max_default} <= tuned max {max_tuned}"
    );
}

#[test]
fn polling_engine_completes_without_interrupts() {
    let config = AfaConfig::paper(TuningStage::IrqAffinity)
        .with_ssds(2)
        .with_runtime(SimDuration::millis(50))
        .with_engine(IoEngine::Polling);
    let r = AfaSystem::run(&config);
    assert_eq!(r.host.stats().irqs, 0, "polling must not interrupt");
    for report in &r.reports {
        assert!(report.completed() > 500);
        // Polling shaves the interrupt + wake-up off the latency.
        let mean = report.histogram().mean() / 1_000.0;
        assert!(mean < 34.0, "polling mean {mean} us");
    }
}

#[test]
fn deterministic_given_seed() {
    let a = quick(TuningStage::Chrt, 4, 50);
    let b = quick(TuningStage::Chrt, 4, 50);
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.completed(), rb.completed());
        assert_eq!(ra.histogram().max(), rb.histogram().max());
        assert_eq!(ra.histogram().mean(), rb.histogram().mean());
    }
}

#[test]
fn logging_enables_latency_logs() {
    let config = AfaConfig::paper(TuningStage::IrqAffinity)
        .with_ssds(2)
        .with_runtime(SimDuration::millis(20))
        .with_logging(true);
    let r = AfaSystem::run(&config);
    for report in &r.reports {
        let log = report.latency_log().expect("log enabled");
        assert!(log.samples_seen() > 100);
    }
}

#[test]
fn coalescing_reduces_interrupt_rate_at_depth() {
    let mut deep = AfaConfig::paper(TuningStage::ExperimentalFirmware)
        .with_ssds(2)
        .with_runtime(SimDuration::millis(80))
        .with_seed(21);
    deep.iodepth = 4;
    let uncoalesced = AfaSystem::run(&deep);
    let mut coalesced_cfg = deep.clone();
    coalesced_cfg.irq_coalescing = Some(IrqCoalescing {
        max_batch: 4,
        timeout: SimDuration::micros(100),
    });
    let coalesced = AfaSystem::run(&coalesced_cfg);

    let ios = |r: &RunResult| r.reports.iter().map(|rep| rep.completed()).sum::<u64>();
    let rate = |r: &RunResult| r.host.stats().irqs as f64 / ios(r).max(1) as f64;
    assert!(
        (rate(&uncoalesced) - 1.0).abs() < 0.01,
        "{}",
        rate(&uncoalesced)
    );
    assert!(
        rate(&coalesced) < 0.6,
        "coalescing should batch MSIs: {:.2} irq/io",
        rate(&coalesced)
    );
    assert!(ios(&coalesced) > 1_000, "batched path must still flow");
}

#[test]
fn coalescing_timeout_adds_qd1_latency() {
    let base = AfaConfig::paper(TuningStage::ExperimentalFirmware)
        .with_ssds(1)
        .with_runtime(SimDuration::millis(60))
        .with_seed(22);
    let plain = AfaSystem::run(&base);
    let coalesced = AfaSystem::run(&base.clone().with_irq_coalescing(IrqCoalescing {
        max_batch: 4,
        timeout: SimDuration::micros(100),
    }));
    let mean = |r: &RunResult| r.reports[0].histogram().mean() / 1e3;
    // At QD1 a batch never fills, so every I/O eats the timeout.
    assert!(
        mean(&coalesced) > mean(&plain) + 80.0,
        "QD1 coalescing penalty missing: {:.1} vs {:.1}",
        mean(&coalesced),
        mean(&plain)
    );
}

#[test]
fn rate_cap_paces_issues() {
    let config = AfaConfig::paper(TuningStage::ExperimentalFirmware)
        .with_ssds(2)
        .with_runtime(SimDuration::millis(100))
        .with_rate_iops(5_000);
    let r = AfaSystem::run(&config);
    for report in &r.reports {
        let iops = report.completed() as f64 / 0.1;
        assert!(
            (4_000.0..5_400.0).contains(&iops),
            "rate-capped IOPS {iops}"
        );
    }
}

#[test]
fn events_are_counted_and_never_clamped() {
    let r = quick(TuningStage::IrqAffinity, 2, 50);
    let ios: u64 = r.reports.iter().map(|rep| rep.completed()).sum();
    // 7 events per I/O on the per-stage interrupt path (submit down,
    // command at device, device done, fabric up, IRQ delivery,
    // wake-reap, CPU-busy note) plus background arrivals; interrupt
    // chains never fuse.
    assert!(
        r.events_processed > 2 * ios,
        "{} events for {} I/Os",
        r.events_processed,
        ios
    );
    assert_eq!(r.clamped_past_schedules, 0, "model scheduled into the past");
}

#[test]
fn fabric_accounting_is_consistent() {
    let r = quick(TuningStage::IrqAffinity, 4, 50);
    let total_ios: u64 = r.reports.iter().map(|rep| rep.completed()).sum();
    assert!(r.fabric_stats.interrupts >= total_ios);
    assert_eq!(r.fabric_stats.device_bytes, r.fabric_stats.uplink_bytes);
}

#[test]
fn ledger_log_captures_settled_ledgers() {
    use afa_sim::trace::Cause;
    let config = AfaConfig::paper(TuningStage::IrqAffinity)
        .with_ssds(2)
        .with_runtime(SimDuration::millis(20))
        .with_ledger_log(64);
    let r = AfaSystem::run(&config);
    let log = r.ledgers.expect("ledger log enabled");
    assert_eq!(log.entries().len(), 64);
    for io in log.entries() {
        // Every interrupt-driven I/O has device service and CPU work.
        assert!(!io.ledger.amount(Cause::DeviceService).is_zero());
        assert!(!io.ledger.amount(Cause::CpuWork).is_zero());
        // The ledger accounts the whole latency window exactly.
        assert_eq!(
            io.ledger.total() - io.ledger.pre_issue(),
            io.latency(),
            "ledger does not sum to the measured latency"
        );
    }
}
