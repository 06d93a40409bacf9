//! Cross-crate invariants of the whole-array simulation.

use afa::core::experiment::{self, ExperimentResult, ExperimentScale};
use afa::core::{AfaConfig, AfaSystem, TuningStage};
use afa::host::CpuId;
use afa::sim::{metrics, SimDuration};
use afa::ssd::DeviceProfile;
use afa::workload::{IoEngine, RwPattern};

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

/// The run's cause table is the fold of every ledger it settled, cause
/// by cause, in time and in events (the ledger log holds every I/O).
#[test]
fn cause_table_is_the_fold_of_every_settled_ledger() {
    let config = AfaConfig::paper(TuningStage::Default)
        .with_ssds(2)
        .with_runtime(SimDuration::millis(20))
        .with_seed(42)
        .with_ledger_log(1 << 16);
    let (result, counts) = metrics::capture(|| AfaSystem::run(&config));
    let log = result.ledgers.expect("ledger log enabled");
    let completed: u64 = result.reports.iter().map(|rep| rep.completed()).sum();
    assert_eq!(log.entries().len() as u64, completed, "log missed an I/O");
    let mut folded = afa::sim::trace::CauseAccumulator::new();
    for (cause, total, events) in log.entries().iter().flat_map(|io| io.ledger.rows()) {
        folded.add(cause, total, events);
    }
    assert_eq!(counts.causes, folded);
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

/// An afabench array workload's base configuration at seed 42 and 50 ms.
fn bench_array(stage: TuningStage, ssds: usize) -> AfaConfig {
    AfaConfig::paper(stage)
        .with_ssds(ssds)
        .with_runtime(SimDuration::millis(50))
        .with_seed(42)
}

/// The `ull-poll-8` benchmark configuration at 50 ms.
fn ull_poll_8() -> AfaConfig {
    bench_array(TuningStage::IrqAffinity, 8)
        .with_device_profile(DeviceProfile::UltraLowLatency)
        .with_engine(IoEngine::Polling)
}

/// Named work counts of one run.
type Work = Vec<(&'static str, u64)>;

fn array_work(config: AfaConfig) -> Work {
    let r = AfaSystem::run(&config);
    let host = r.host.stats();
    vec![
        ("ios", r.reports.iter().map(|rep| rep.completed()).sum()),
        ("events", r.events_processed),
        ("commands", r.fabric_stats.commands),
        ("irqs", host.irqs),
        ("wakes", host.wakes),
    ]
}

/// A serving experiment's requests, events and interrupt reaps.
fn serving_work<R: ExperimentResult>(run: impl FnOnce(ExperimentScale) -> R, ssds: usize) -> Work {
    let scale = ExperimentScale::new(SimDuration::millis(250), ssds, 42);
    let (result, counts) = metrics::capture(|| run(scale));
    vec![
        ("requests", result.samples()),
        ("events", counts.events),
        ("interrupt_reaps", counts.completion.interrupts),
    ]
}

/// Exact work counts of afabench's five workloads at seed 42, scaled
/// down: the array rows use `Workload::array_config`'s settings at
/// 50 ms, the serving rows run at 0.25 s. The counts are deterministic,
/// so an engine that pops more events for the same I/Os fails this on
/// any host. The goldens leave event counts out (fusion moves them), so
/// a change that moves a count updates its pin here and says why.
/// `ull-poll-8`'s event totals are pinned by
/// [`polled_chains_fuse_and_interrupt_chains_do_not`].
#[test]
fn benchmark_workloads_do_pinned_work() {
    let mut mixed =
        bench_array(TuningStage::IrqAffinity, 16).with_rw(RwPattern::RandRw { read_pct: 70 });
    mixed.iodepth = 8;
    #[rustfmt::skip]
    let rows = [
        ("paper-64", array_work(bench_array(TuningStage::Default, 64)),
            "ios=52389 events=314426 commands=52389 irqs=52389 wakes=52389"),
        ("mixed-qd8-16", array_work(mixed),
            "ios=32337 events=194066 commands=32337 irqs=32337 wakes=32337"),
        ("ull-poll-8", array_work(ull_poll_8()),
            "ios=22444 commands=22444 irqs=0 wakes=0"),
        ("tailscale-hedge", serving_work(experiment::tailscale_hedge, 16),
            "requests=3008 events=110019 interrupt_reaps=48429"),
        ("fleet-failover", serving_work(experiment::fleet_failover, 8),
            "requests=15480 events=79145 interrupt_reaps=15480"),
    ];
    for (name, work, pinned) in rows {
        let counted: Vec<String> = pinned
            .split(' ')
            .map(|pin| {
                let key = &pin[..pin.find('=').expect("key=count")];
                format!("{key}={}", work.iter().find(|w| w.0 == key).expect(key).1)
            })
            .collect();
        assert_eq!(counted.join(" "), pinned, "{name}: work counts moved");
    }
}

/// The engine's event budget per completed I/O, with fusion forced on
/// and off. Busy-polled QD1 chains on private worker LPs fuse into one
/// settlement event (2 events per I/O instead of 5); interrupt chains
/// never fuse, so a libaio run pops the same events either way.
/// [`FusionOverride`] pins only this test's thread, and the counts
/// come from each run's own [`RunResult::events_processed`], so
/// sibling tests can neither flip fusion mid-run nor skew the counts.
///
/// [`FusionOverride`]: afa::core::FusionOverride
/// [`RunResult::events_processed`]: afa::core::RunResult::events_processed
#[test]
fn polled_chains_fuse_and_interrupt_chains_do_not() {
    let run = |config: &AfaConfig, fuse: bool| {
        let _fusion = afa::core::FusionOverride::set(fuse);
        AfaSystem::run(config)
    };

    let (fused, unfused) = (run(&ull_poll_8(), true), run(&ull_poll_8(), false));
    let ios: u64 = fused.reports.iter().map(|rep| rep.completed()).sum();
    assert_eq!(ios, 22_444);
    assert_eq!(
        (fused.events_processed, unfused.events_processed),
        (49_956, 112_256),
        "polled events (fused, unfused) for 22,444 I/Os"
    );
    assert_eq!(run_fingerprint(&fused), run_fingerprint(&unfused));

    // libaio at 8 SSDs: one job per worker LP, so every other gate
    // passes and only the completion model keeps the chains unfused.
    let libaio = bench_array(TuningStage::IrqAffinity, 8);
    let (on, off) = (run(&libaio, true), run(&libaio, false));
    assert_eq!(
        (on.events_processed, off.events_processed),
        (65_328, 65_328),
        "interrupt events (fusion on, off)"
    );
    assert_eq!(run_fingerprint(&on), run_fingerprint(&off));
}
