//! Cross-crate invariants of the whole-array simulation.

use afa::core::blktrace::IoStage;
use afa::core::experiment::{self, ExperimentResult, ExperimentScale};
use afa::core::{AfaConfig, AfaSystem, IrqCoalescing, TuningStage};
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

/// The ledger log is one window per run: a short log holds exactly the
/// first entries of a log long enough for every reap, in reap order,
/// and logging moves nothing the run reports (a logged polled run
/// does not fuse, an unlogged one does). The twin of afabench's
/// traced-run check, on one interrupt stage and one polled engine.
#[test]
fn ledger_log_is_the_runs_first_reaps_and_moves_nothing() {
    let entry = |io: &afa::core::io_path::CompletedIo| {
        let rows: Vec<_> = io.ledger.rows().collect();
        (io.job, io.issued_at, io.reaped_at, io.trace(), rows)
    };
    for config in [bench_array(TuningStage::Default, 16), ull_poll_8()] {
        let plain = AfaSystem::run(&config);
        let short = AfaSystem::run(&config.clone().with_ledger_log(1_000));
        let long = AfaSystem::run(&config.clone().with_ledger_log(1 << 16));
        let short_log = short.ledgers.as_ref().expect("ledger log enabled");
        let long_log = long.ledgers.as_ref().expect("ledger log enabled");
        assert_eq!(short_log.entries().len(), 1_000);
        assert_eq!(long_log.entries().len() as u64, plain.completed());
        for (a, b) in short_log.entries().iter().zip(long_log.entries()) {
            assert_eq!(entry(a), entry(b), "the short log is not a prefix");
        }
        for logged in [&short, &long] {
            assert_eq!(run_fingerprint(logged), run_fingerprint(&plain));
            assert_eq!(logged.device_stats, plain.device_stats);
        }
    }
}

/// Little's law per closed-loop job: a job keeps `iodepth` I/Os in
/// flight, so the residences of its I/Os (`Reaped` minus `Queue`
/// stamp) sum to the slot time it held over its span (first queue to
/// last reap). At QD1 each I/O is queued the instant the previous one
/// is reaped, so the sum is the span exactly. At QD8 the slots fill
/// one submit at a time and drain after the deadline, so the sum may
/// fall short of `iodepth × span` by at most `iodepth` times the job's
/// longest residence. The ledger log holds every I/O of the run.
#[test]
fn littles_law_holds_per_closed_loop_job() {
    let mut mixed =
        bench_array(TuningStage::IrqAffinity, 16).with_rw(RwPattern::RandRw { read_pct: 70 });
    mixed.iodepth = 8;
    for (name, config) in [
        ("libaio-default-8", bench_array(TuningStage::Default, 8)),
        ("ull-poll-8", ull_poll_8()),
        ("mixed-qd8-16", mixed),
    ] {
        let depth = u64::from(config.iodepth);
        let r = AfaSystem::run(&config.with_ledger_log(1 << 16));
        let log = r.ledgers.as_ref().expect("ledger log enabled");
        assert_eq!(
            log.entries().len() as u64,
            r.completed(),
            "{name}: log missed an I/O"
        );
        for job in 0..r.reports.len() {
            let (mut held, mut longest) = (0, 0);
            let (mut first_queue, mut last_reap) = (u64::MAX, 0);
            for io in log.entries().iter().filter(|io| io.job == job) {
                let queued = io.ledger.stamp_at(IoStage::Queue).as_nanos();
                let reaped = io.ledger.stamp_at(IoStage::Reaped).as_nanos();
                held += reaped - queued;
                longest = longest.max(reaped - queued);
                first_queue = first_queue.min(queued);
                last_reap = last_reap.max(reaped);
            }
            let slots = depth * (last_reap - first_queue);
            if depth == 1 {
                assert_eq!(
                    held, slots,
                    "{name} job {job}: QD1 residences must tile the span"
                );
            } else {
                assert!(
                    held <= slots && held + depth * longest >= slots,
                    "{name} job {job}: {held} ns held of {slots} ns of slots \
                     (longest residence {longest} ns)"
                );
            }
        }
    }
}

/// A coalesced interrupt that serves fewer than `max_batch`
/// completions fired on its batch's timeout, so it is handled no
/// earlier than the batch's first device completion plus the timeout.
/// At QD6 over batches of 4 most batches fire full, and each leaves a
/// timer behind that must not fire the device's next batch. The
/// ledger log holds every I/O; an interrupt's batch is the I/Os of one
/// job sharing its handler instant.
#[test]
fn coalescing_timers_fire_only_their_own_batch() {
    let coalescing = IrqCoalescing {
        max_batch: 4,
        timeout: SimDuration::micros(100),
    };
    let mut config = AfaConfig::paper(TuningStage::ExperimentalFirmware)
        .with_ssds(2)
        .with_runtime(SimDuration::millis(20))
        .with_seed(42)
        .with_irq_coalescing(coalescing)
        .with_ledger_log(1 << 16);
    config.iodepth = 6;
    let r = AfaSystem::run(&config);
    let log = r.ledgers.as_ref().expect("ledger log enabled");
    assert_eq!(
        log.entries().len() as u64,
        r.completed(),
        "log missed an I/O"
    );
    let mut batches = std::collections::BTreeMap::new();
    for io in log.entries() {
        let handled = io.ledger.stamp_at(IoStage::IrqHandled);
        let done = io.ledger.stamp_at(IoStage::DeviceComplete);
        let (size, first) = batches.entry((io.job, handled)).or_insert((0u32, done));
        *size += 1;
        *first = (*first).min(done);
    }
    let timed: Vec<_> = batches
        .iter()
        .filter(|(_, &(size, _))| size < coalescing.max_batch)
        .collect();
    assert!(!timed.is_empty(), "no batch fired on its timeout");
    for (&(job, handled), &(size, first)) in timed {
        assert!(
            handled >= first + coalescing.timeout,
            "job {job}: a batch of {size} was handled at {handled:?}, \
             before its first completion at {first:?} plus the timeout"
        );
    }
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
/// [`private_chains_run_device_legs_inline`].
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

/// The one fusion rule, with fusion forced on and off: a QD1 job alone
/// on its device and on its worker LP runs its device legs inline at
/// `SubmitDown`, under every completion model. Each such chain pops two
/// events fewer (`CommandAtDevice` and `DeviceDone`): 3 instead of 5
/// per busy-polled I/O, 4 instead of 6 per interrupt I/O. The rule is
/// exact, so the reports match either way. [`FusionOverride`] pins
/// only this test's thread, and the counts come from each run's own
/// [`metrics::capture`], so sibling tests can neither flip fusion
/// mid-run nor skew the counts.
///
/// [`FusionOverride`]: afa::core::FusionOverride
#[test]
fn private_chains_run_device_legs_inline() {
    let run = |config: &AfaConfig, fuse: bool| {
        let _fusion = afa::core::FusionOverride::set(fuse);
        metrics::capture(|| AfaSystem::run(config))
    };
    let libaio_8 = bench_array(TuningStage::IrqAffinity, 8);
    for (name, config, ios, events) in [
        ("ull-poll-8", ull_poll_8(), 22_444, (67_368, 112_256)),
        ("libaio-8", libaio_8, 10_882, (43_564, 65_328)),
    ] {
        let ((on, on_counts), (off, off_counts)) = (run(&config, true), run(&config, false));
        assert_eq!(on.completed(), ios, "{name}: completed I/Os");
        assert_eq!(
            (on.events_processed, off.events_processed),
            events,
            "{name}: events (fusion on, off)"
        );
        assert_eq!(
            on_counts.events + on_counts.fusion.elided_events,
            off_counts.events,
            "{name}: popped + elided events must be the per-stage count"
        );
        assert_eq!(
            on_counts.fusion.fused_chains, ios,
            "{name}: every chain runs its device legs inline"
        );
        assert_eq!(
            off_counts.fusion,
            metrics::FusionCounters::default(),
            "{name}: FusionOverride(false) still ran legs inline"
        );
        assert_eq!(run_fingerprint(&on), run_fingerprint(&off), "{name}");
    }
}
