//! Cross-crate invariants of the whole-array simulation.

use afa::core::{AfaConfig, AfaSystem, TuningStage};
use afa::host::CpuId;
use afa::sim::SimDuration;
use afa::ssd::DeviceProfile;
use afa::workload::IoEngine;

fn quick(stage: TuningStage, ssds: usize, ms: u64, seed: u64) -> afa::core::RunResult {
    AfaSystem::run(
        &AfaConfig::paper(stage)
            .with_ssds(ssds)
            .with_runtime(SimDuration::millis(ms))
            .with_seed(seed),
    )
}

#[test]
fn whole_stack_is_deterministic() {
    let a = quick(TuningStage::Default, 6, 80, 99);
    let b = quick(TuningStage::Default, 6, 80, 99);
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.completed(), rb.completed());
        assert_eq!(ra.histogram().max(), rb.histogram().max());
        assert_eq!(ra.histogram().mean(), rb.histogram().mean());
    }
    assert_eq!(a.host.stats(), b.host.stats());
    assert_eq!(a.fabric_stats, b.fabric_stats);
}

#[test]
fn different_seeds_differ() {
    let a = quick(TuningStage::Default, 4, 80, 1);
    let b = quick(TuningStage::Default, 4, 80, 2);
    let max_a: Vec<u64> = a.reports.iter().map(|r| r.histogram().max()).collect();
    let max_b: Vec<u64> = b.reports.iter().map(|r| r.histogram().max()).collect();
    assert_ne!(max_a, max_b);
}

#[test]
fn interrupts_match_completions_under_libaio() {
    let r = quick(TuningStage::IrqAffinity, 6, 80, 5);
    let completed: u64 = r.reports.iter().map(|rep| rep.completed()).sum();
    assert_eq!(r.host.stats().irqs, completed);
    assert_eq!(r.fabric_stats.interrupts, completed);
    assert_eq!(r.fabric_stats.commands, completed);
}

#[test]
fn fabric_conserves_bytes() {
    let r = quick(TuningStage::Chrt, 6, 80, 6);
    assert_eq!(r.fabric_stats.device_bytes, r.fabric_stats.uplink_bytes);
    let completed: u64 = r.reports.iter().map(|rep| rep.completed()).sum();
    // Every completion carries 4 KiB + CQE + MSI.
    assert!(r.fabric_stats.uplink_bytes >= completed * 4096);
    assert!(r.fabric_stats.uplink_bytes <= completed * (4096 + 64));
}

#[test]
fn isolation_keeps_background_off_io_cpus() {
    let r = quick(TuningStage::Isolcpus, 16, 150, 7);
    let stats = r.host.stats();
    assert!(stats.bg_bursts > 0, "background workload never arrived");
    for cpu in (4..20).chain(24..40) {
        assert_eq!(
            stats.bg_per_cpu[cpu], 0,
            "background burst on isolated cpu({cpu})"
        );
    }
}

#[test]
fn default_config_lets_background_onto_io_cpus() {
    let r = quick(TuningStage::Default, 16, 150, 8);
    let stats = r.host.stats();
    let on_io: u64 = (4..20).chain(24..40).map(|c| stats.bg_per_cpu[c]).sum();
    assert!(on_io > 0, "stock placement should pollute fio CPUs");
}

#[test]
fn pinned_vectors_are_never_remote() {
    let r = quick(TuningStage::IrqAffinity, 8, 80, 9);
    assert_eq!(r.host.stats().remote_irqs, 0);
}

#[test]
fn balanced_vectors_are_mostly_remote() {
    let r = quick(TuningStage::Isolcpus, 8, 80, 10);
    let stats = r.host.stats();
    assert!(
        stats.remote_irqs as f64 > stats.irqs as f64 * 0.5,
        "{}/{} remote",
        stats.remote_irqs,
        stats.irqs
    );
}

#[test]
fn polling_uses_no_interrupts_and_cuts_latency() {
    let libaio = quick(TuningStage::ExperimentalFirmware, 2, 80, 11);
    let polling = AfaSystem::run(
        &AfaConfig::paper(TuningStage::ExperimentalFirmware)
            .with_ssds(2)
            .with_runtime(SimDuration::millis(80))
            .with_seed(11)
            .with_engine(IoEngine::Polling),
    );
    assert_eq!(polling.host.stats().irqs, 0);
    let mean_libaio = libaio.reports[0].histogram().mean();
    let mean_polling = polling.reports[0].histogram().mean();
    assert!(
        mean_polling < mean_libaio,
        "polling {mean_polling} !< libaio {mean_libaio}"
    );
}

#[test]
fn geometry_pins_jobs_to_paper_cpus() {
    let config = AfaConfig::paper(TuningStage::Default).with_ssds(64);
    assert_eq!(config.geometry.cpu_of_ssd(0), CpuId(4));
    assert_eq!(config.geometry.cpu_of_ssd(32), CpuId(4));
    assert_eq!(config.geometry.cpu_of_ssd(63), CpuId(39));
}

#[test]
fn every_job_respects_its_deadline_and_depth() {
    let r = quick(TuningStage::Chrt, 4, 60, 12);
    for report in &r.reports {
        // 60 ms at ~33 µs per I/O leaves no room for more than ~2000.
        assert!(report.completed() < 2_200);
        assert!(report.completed() > 1_000);
    }
    // Simulation drains completely: elapsed stays near the deadline.
    assert!(r.elapsed.as_secs_f64() < 0.2);
}

/// Everything a run reports that fusion must not move.
fn run_fingerprint(r: &afa::core::RunResult) -> impl PartialEq + std::fmt::Debug {
    let reports: Vec<(String, u64, u64)> = r
        .reports
        .iter()
        .map(|rep| {
            (
                rep.to_fio_style("job"),
                rep.histogram().mean().to_bits(),
                rep.bytes_transferred(),
            )
        })
        .collect();
    (
        reports,
        r.elapsed,
        r.host.stats().clone(),
        r.fabric_stats,
        r.completions,
    )
}

/// The engine's event budget per completed I/O, with fusion forced on
/// and off. Busy-polled QD1 chains on private worker LPs fuse into one
/// settlement event (2 events per I/O instead of 5); interrupt chains
/// never fuse, so a libaio run pops the same events either way. Both
/// cases live in this one test because [`FusionOverride`] is
/// process-wide; the counts come from each run's own
/// [`RunResult::events_processed`], so sibling tests cannot skew them.
///
/// [`FusionOverride`]: afa::core::FusionOverride
/// [`RunResult::events_processed`]: afa::core::RunResult::events_processed
#[test]
fn polled_chains_fuse_and_interrupt_chains_do_not() {
    let run = |config: &AfaConfig, fuse: bool| {
        let _fusion = afa::core::FusionOverride::set(fuse);
        AfaSystem::run(config)
    };
    let per_io = |r: &afa::core::RunResult| {
        let ios: u64 = r.reports.iter().map(|rep| rep.completed()).sum();
        assert!(ios > 1_000, "only {ios} I/Os");
        r.events_processed as f64 / ios as f64
    };

    // The `ull-poll-8` benchmark configuration at 50 ms.
    let ull_poll = AfaConfig::paper(TuningStage::IrqAffinity)
        .with_ssds(8)
        .with_runtime(SimDuration::millis(50))
        .with_seed(42)
        .with_device_profile(DeviceProfile::UltraLowLatency)
        .with_engine(IoEngine::Polling);
    let fused = run(&ull_poll, true);
    let unfused = run(&ull_poll, false);
    assert!(
        per_io(&fused) <= 3.0,
        "fused polled run popped {:.2} events per I/O (budget 3.0)",
        per_io(&fused)
    );
    assert!(
        (4.9..5.1).contains(&per_io(&unfused)),
        "unfused polled run popped {:.2} events per I/O, expected 5",
        per_io(&unfused)
    );
    assert_eq!(run_fingerprint(&fused), run_fingerprint(&unfused));

    // libaio at 8 SSDs: one job per worker LP, so every other gate
    // passes and only the completion model keeps the chains unfused.
    let libaio = AfaConfig::paper(TuningStage::IrqAffinity)
        .with_ssds(8)
        .with_runtime(SimDuration::millis(50))
        .with_seed(42);
    let on = run(&libaio, true);
    let off = run(&libaio, false);
    assert_eq!(
        on.events_processed, off.events_processed,
        "interrupt chains fused"
    );
    assert_eq!(run_fingerprint(&on), run_fingerprint(&off));
}
