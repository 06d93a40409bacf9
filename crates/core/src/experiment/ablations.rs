//! Ablation experiments beyond the paper's figures.
//!
//! These probe the design-space questions §V leaves open: how much the
//! timer-tick rate, the C-state depth, the housekeeping protocol and
//! interrupt-vs-polling each contribute, and what happens on aged
//! (non-FOB) devices — the paper's stated future work.

use afa_host::IdlePolicy;
use afa_sim::{SimDuration, SimTime};
use afa_ssd::{FirmwareProfile, NvmeCommand, SmartPolicy, SsdDevice, SsdSpec};
use afa_stats::{Json, LatencyHistogram, NinesPoint};
use afa_workload::IoEngine;

use crate::config::AfaConfig;
use crate::experiment::registry::ExperimentResult;
use crate::experiment::{run_parallel, ExperimentScale};
use crate::tuning::TuningStage;

/// One ablation's sweep: `(setting, mean µs, p99999 µs, max µs)` rows.
#[derive(Clone, Debug)]
pub struct AblationResult {
    /// Ablation title.
    pub title: String,
    /// Sweep rows.
    pub rows: Vec<(String, f64, f64, f64)>,
}

impl ExperimentResult for AblationResult {
    /// Renders the sweep.
    fn to_table(&self) -> String {
        let mut out = format!("{}\n", self.title);
        out.push_str(&format!(
            "{:<26} {:>10} {:>12} {:>10}\n",
            "setting", "mean(us)", "p99.999(us)", "max(us)"
        ));
        for (setting, mean, p5, max) in &self.rows {
            out.push_str(&format!(
                "{setting:<26} {mean:>10.1} {p5:>12.1} {max:>10.1}\n"
            ));
        }
        out
    }

    /// One CSV row per sweep setting.
    fn to_csv(&self) -> String {
        let mut out = String::from("setting,mean_us,p99999_us,max_us\n");
        for (setting, mean, p5, max) in &self.rows {
            out.push_str(&format!(
                "{},{mean:.3},{p5:.3},{max:.3}\n",
                setting.replace(',', ";")
            ));
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("title", Json::str(&self.title)),
            (
                "rows",
                Json::arr(self.rows.iter().map(|(setting, mean, p5, max)| {
                    Json::obj([
                        ("setting", Json::str(setting)),
                        ("mean_us", Json::f64(*mean)),
                        ("p99999_us", Json::f64(*p5)),
                        ("max_us", Json::f64(*max)),
                    ])
                })),
            ),
        ])
    }

    fn headline_max_us(&self) -> Option<f64> {
        self.rows
            .iter()
            .map(|&(_, _, _, max)| max)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

fn worst_metrics(result: &crate::RunResult) -> (f64, f64, f64) {
    let mut mean = 0.0f64;
    let mut p5 = 0.0f64;
    let mut max = 0.0f64;
    for report in &result.reports {
        let profile = report.profile();
        mean += profile.get_micros(NinesPoint::Average);
        p5 = p5.max(profile.get_micros(NinesPoint::Nines5));
        max = max.max(profile.get_micros(NinesPoint::Max));
    }
    (mean / result.reports.len() as f64, p5, max)
}

/// Tick-rate ablation: under the *default* configuration, CFS wake-up
/// preemption happens at tick granularity, so the tick rate bounds the
/// interference tail.
pub fn ablate_tick(scale: ExperimentScale) -> AblationResult {
    let rates = [100u32, 250, 1_000, 4_000];
    let configs: Vec<AfaConfig> = rates
        .iter()
        .map(|&hz| {
            let mut config = AfaConfig::paper(TuningStage::Default)
                .with_ssds(scale.ssds)
                .with_runtime(scale.runtime)
                .with_seed(scale.seed);
            // Patch the stage kernel's tick rate.
            let mut kernel = config.tuning.kernel_config(config.geometry.io_cpu_set());
            kernel.tick_hz = hz;
            config.kernel_override = Some(kernel);
            config
        })
        .collect();
    let results = run_parallel(configs);
    let rows = rates
        .iter()
        .zip(results.iter())
        .map(|(&hz, result)| {
            let (mean, p5, max) = worst_metrics(result);
            (format!("CONFIG_HZ={hz}"), mean, p5, max)
        })
        .collect();
    AblationResult {
        title: "Ablation — timer tick rate vs. CFS wake-up tail (default config)".to_owned(),
        rows,
    }
}

/// C-state ablation: the `chrt` stage with different idle policies —
/// quantifies how much of the isolcpus stage's win comes from
/// `idle=poll` / `max_cstate`.
pub fn ablate_cstate(scale: ExperimentScale) -> AblationResult {
    let policies = [
        (
            "cstates<=C6 (default)",
            IdlePolicy::CStates { max_cstate: 6 },
        ),
        ("cstates<=C3", IdlePolicy::CStates { max_cstate: 3 }),
        ("max_cstate=1", IdlePolicy::CStates { max_cstate: 1 }),
        ("idle=poll", IdlePolicy::Poll),
    ];
    let configs: Vec<AfaConfig> = policies
        .iter()
        .map(|&(_, idle)| {
            let mut config = AfaConfig::paper(TuningStage::Chrt)
                .with_ssds(scale.ssds)
                .with_runtime(scale.runtime)
                .with_seed(scale.seed);
            let mut kernel = config.tuning.kernel_config(config.geometry.io_cpu_set());
            kernel.idle = idle;
            config.kernel_override = Some(kernel);
            config
        })
        .collect();
    let results = run_parallel(configs);
    let rows = policies
        .iter()
        .zip(results.iter())
        .map(|(&(name, _), result)| {
            let (mean, p5, max) = worst_metrics(result);
            (name.to_owned(), mean, p5, max)
        })
        .collect();
    AblationResult {
        title: "Ablation — idle C-state policy vs. latency (chrt config)".to_owned(),
        rows,
    }
}

/// Housekeeping-protocol ablation (§V's "better housekeeping
/// protocols"): sweep the SMART window duration and period on the
/// fully tuned kernel.
pub fn ablate_smart_period(scale: ExperimentScale) -> AblationResult {
    let policies: Vec<(String, FirmwareProfile)> = vec![
        ("SMART off".to_owned(), FirmwareProfile::experimental()),
        (
            "600us every 25s (prod)".to_owned(),
            FirmwareProfile::production(),
        ),
        (
            "600us every 5s".to_owned(),
            FirmwareProfile::with_smart_policy(
                "ABL-5S",
                SmartPolicy::Periodic {
                    mean_period: SimDuration::secs(5),
                    period_jitter: SimDuration::secs(1),
                    min_duration: SimDuration::micros(300),
                    max_duration: SimDuration::micros(600),
                },
            ),
        ),
        (
            "60us every 2.5s (split)".to_owned(),
            FirmwareProfile::with_smart_policy(
                "ABL-SPLIT",
                SmartPolicy::Periodic {
                    mean_period: SimDuration::millis(2_500),
                    period_jitter: SimDuration::millis(500),
                    min_duration: SimDuration::micros(30),
                    max_duration: SimDuration::micros(60),
                },
            ),
        ),
    ];
    let configs: Vec<AfaConfig> = policies
        .iter()
        .map(|(_, fw)| {
            AfaConfig::paper(TuningStage::IrqAffinity)
                .with_ssds(scale.ssds)
                .with_runtime(scale.runtime)
                .with_seed(scale.seed)
                .with_firmware(fw.clone())
        })
        .collect();
    let results = run_parallel(configs);
    let rows = policies
        .iter()
        .zip(results.iter())
        .map(|((name, _), result)| {
            let (mean, p5, max) = worst_metrics(result);
            (name.clone(), mean, p5, max)
        })
        .collect();
    AblationResult {
        title: "Ablation — SMART housekeeping protocol (irq config)".to_owned(),
        rows,
    }
}

/// Interrupt-vs-polling ablation (§V's open question): polling trades
/// CPU for latency. Rows report latency; the CPU column is the mean
/// CPU time consumed per I/O.
pub fn ablate_poll(scale: ExperimentScale) -> AblationResult {
    let engines = [
        ("libaio (interrupt)", IoEngine::Libaio),
        ("polling", IoEngine::Polling),
    ];
    let configs: Vec<AfaConfig> = engines
        .iter()
        .map(|&(_, engine)| {
            AfaConfig::paper(TuningStage::IrqAffinity)
                .with_ssds(scale.ssds)
                .with_runtime(scale.runtime)
                .with_seed(scale.seed)
                .with_engine(engine)
        })
        .collect();
    let results = run_parallel(configs);
    let rows = engines
        .iter()
        .zip(results.iter())
        .map(|(&(name, _), result)| {
            let (mean, p5, max) = worst_metrics(result);
            // Measured CPU cost per I/O from the host's charge
            // accounting: polling burns the whole latency spinning.
            let completed: u64 = result.reports.iter().map(|r| r.completed()).sum();
            let cpu_us_per_io =
                result.host.stats().io_cpu_busy_ns as f64 / 1e3 / completed.max(1) as f64;
            (
                format!("{name} ({cpu_us_per_io:.1}us CPU/io)"),
                mean,
                p5,
                max,
            )
        })
        .collect();
    AblationResult {
        title: "Ablation — interrupt vs. polling completions (irq config)".to_owned(),
        rows,
    }
}

/// Interrupt-coalescing ablation (the §I "interrupt storm" concern):
/// batching MSIs cuts the interrupt rate but delays completions. Run
/// at QD4 on the tuned kernel with experimental firmware so the
/// coalescer is the only moving part; rows show latency plus measured
/// interrupts per I/O.
pub fn ablate_coalescing(scale: ExperimentScale) -> AblationResult {
    use crate::config::IrqCoalescing;
    let settings: Vec<(String, Option<IrqCoalescing>)> = vec![
        ("off (1 MSI / completion)".to_owned(), None),
        (
            "batch 4 / 20us".to_owned(),
            Some(IrqCoalescing {
                max_batch: 4,
                timeout: SimDuration::micros(20),
            }),
        ),
        (
            "batch 4 / 100us".to_owned(),
            Some(IrqCoalescing {
                max_batch: 4,
                timeout: SimDuration::micros(100),
            }),
        ),
        (
            "batch 16 / 250us".to_owned(),
            Some(IrqCoalescing {
                max_batch: 16,
                timeout: SimDuration::micros(250),
            }),
        ),
    ];
    let configs: Vec<AfaConfig> = settings
        .iter()
        .map(|(_, coalescing)| {
            let mut config = AfaConfig::paper(TuningStage::ExperimentalFirmware)
                .with_ssds(scale.ssds)
                .with_runtime(scale.runtime)
                .with_seed(scale.seed);
            config.iodepth = 4;
            config.irq_coalescing = *coalescing;
            config
        })
        .collect();
    let results = run_parallel(configs);
    let rows = settings
        .iter()
        .zip(results.iter())
        .map(|((name, _), result)| {
            let (mean, p5, max) = worst_metrics(result);
            let completed: u64 = result.reports.iter().map(|r| r.completed()).sum();
            let irq_per_io = result.host.stats().irqs as f64 / completed.max(1) as f64;
            (format!("{name} ({irq_per_io:.2} irq/io)"), mean, p5, max)
        })
        .collect();
    AblationResult {
        title: "Ablation — NVMe interrupt coalescing at QD4 (exp firmware)".to_owned(),
        rows,
    }
}

/// RCU-offload ablation: the §IV-C boot line sets `rcu_nocbs` along
/// with `isolcpus`; this isolates its contribution by running the
/// isolated kernel with and without callback offloading on the fio
/// CPUs.
pub fn ablate_rcu(scale: ExperimentScale) -> AblationResult {
    use afa_host::CpuSet;
    let variants = [("rcu_nocbs set (paper)", true), ("rcu_nocbs unset", false)];
    let configs: Vec<AfaConfig> = variants
        .iter()
        .map(|&(_, offload)| {
            let mut config = AfaConfig::paper(TuningStage::IrqAffinity)
                .with_ssds(scale.ssds)
                .with_runtime(scale.runtime)
                .with_seed(scale.seed);
            if !offload {
                // Leave isolcpus/nohz/idle as tuned, but keep RCU
                // callbacks on the fio CPUs.
                let mut kernel = config.tuning.kernel_config(config.geometry.io_cpu_set());
                kernel.rcu_nocbs = CpuSet::EMPTY;
                config.kernel_override = Some(kernel);
            }
            config
        })
        .collect();
    let results = run_parallel(configs);
    let rows = variants
        .iter()
        .zip(results.iter())
        .map(|(&(name, _), result)| {
            let (mean, p5, max) = worst_metrics(result);
            let hits = result.host.stats().rcu_softirq_hits;
            (format!("{name} ({hits} softirq hits)"), mean, p5, max)
        })
        .collect();
    AblationResult {
        title: "Ablation — rcu_nocbs callback offloading (irq config)".to_owned(),
        rows,
    }
}

/// NUMA ablation (the paper's §VI future work: "exploring all-flash
/// array performance implications in NUMA architecture"). The AFA's
/// uplink hangs off socket 1 (CPU2, §III-A); pin all fio threads to
/// socket 1 (local) vs. socket 0 (every completion crosses the
/// interconnect).
pub fn ablate_numa(scale: ExperimentScale) -> AblationResult {
    use afa_host::CpuId;
    let local: Vec<CpuId> = (10..16).chain(30..36).map(CpuId).collect();
    let remote: Vec<CpuId> = (4..10).chain(24..30).map(CpuId).collect();
    let placements = [
        ("socket 1 (AFA-local)", local),
        ("socket 0 (cross-socket)", remote),
    ];
    let ssds = scale.ssds.min(12);
    let configs: Vec<AfaConfig> = placements
        .iter()
        .map(|(_, cpus)| {
            let assignment: Vec<CpuId> = (0..ssds).map(|n| cpus[n % cpus.len()]).collect();
            AfaConfig::paper(TuningStage::IrqAffinity)
                .with_geometry(crate::CpuSsdGeometry::with_assignment(assignment))
                .with_runtime(scale.runtime)
                .with_seed(scale.seed)
        })
        .collect();
    let results = run_parallel(configs);
    let rows = placements
        .iter()
        .zip(results.iter())
        .map(|((name, _), result)| {
            let (mean, p5, max) = worst_metrics(result);
            (name.to_string(), mean, p5, max)
        })
        .collect();
    AblationResult {
        title: "Ablation — NUMA placement of fio threads (irq config)".to_owned(),
        rows,
    }
}

/// Results of the GC (non-FOB) ablation.
#[derive(Clone, Debug)]
pub struct GcAblationResult {
    /// Read-latency histogram on a FOB device under mixed load.
    pub fob: LatencyHistogram,
    /// Read-latency histogram on an aged device (GC active).
    pub aged: LatencyHistogram,
    /// Write amplification measured on the aged device.
    pub aged_write_amplification: f64,
    /// GC cycles the aged device ran during measurement.
    pub gc_cycles: u64,
}

fn histogram_json(h: &LatencyHistogram) -> Json {
    Json::obj([
        ("count", Json::u64(h.count())),
        ("mean_us", Json::f64(h.mean() / 1e3)),
        (
            "p99_us",
            Json::f64(h.value_at_percentile(99.0) as f64 / 1e3),
        ),
        (
            "p9999_us",
            Json::f64(h.value_at_percentile(99.99) as f64 / 1e3),
        ),
        ("max_us", Json::f64(h.max() as f64 / 1e3)),
    ])
}

impl ExperimentResult for GcAblationResult {
    /// Renders the comparison.
    fn to_table(&self) -> String {
        let mut out =
            String::from("Ablation — FOB vs. aged (non-FOB) device, 70/30 mixed 4 KiB load\n");
        out.push_str(&format!(
            "{:<10} {:>10} {:>12} {:>12} {:>10}\n",
            "state", "mean(us)", "p99(us)", "p99.99(us)", "max(us)"
        ));
        for (name, h) in [("FOB", &self.fob), ("aged", &self.aged)] {
            out.push_str(&format!(
                "{:<10} {:>10.1} {:>12.1} {:>12.1} {:>10.1}\n",
                name,
                h.mean() / 1e3,
                h.value_at_percentile(99.0) as f64 / 1e3,
                h.value_at_percentile(99.99) as f64 / 1e3,
                h.max() as f64 / 1e3
            ));
        }
        out.push_str(&format!(
            "aged write amplification: {:.2}, GC cycles: {}\n",
            self.aged_write_amplification, self.gc_cycles
        ));
        out
    }

    fn to_csv(&self) -> String {
        let mut out = String::from("state,mean_us,p99_us,p9999_us,max_us\n");
        for (name, h) in [("FOB", &self.fob), ("aged", &self.aged)] {
            out.push_str(&format!(
                "{name},{:.3},{:.3},{:.3},{:.3}\n",
                h.mean() / 1e3,
                h.value_at_percentile(99.0) as f64 / 1e3,
                h.value_at_percentile(99.99) as f64 / 1e3,
                h.max() as f64 / 1e3
            ));
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("fob", histogram_json(&self.fob)),
            ("aged", histogram_json(&self.aged)),
            (
                "aged_write_amplification",
                Json::f64(self.aged_write_amplification),
            ),
            ("gc_cycles", Json::u64(self.gc_cycles)),
        ])
    }

    fn samples(&self) -> u64 {
        self.fob.count() + self.aged.count()
    }

    fn headline_max_us(&self) -> Option<f64> {
        Some(self.aged.max() as f64 / 1e3)
    }
}

/// GC ablation (the paper's §VI future work): read tail on a FOB
/// device vs. an aged device where garbage collection interleaves
/// with reads. Device-level (no host), scaled-down capacity so aging
/// is fast.
pub fn ablate_gc(seed: u64) -> GcAblationResult {
    let spec = SsdSpec::scaled_down(512);
    let logical = spec.logical_pages();

    let mixed_load = |dev: &mut SsdDevice, hist: &mut LatencyHistogram, ios: u64, seed: u64| {
        let mut now = SimTime::ZERO + SimDuration::millis(1);
        let mut x = seed | 1;
        for i in 0..ios {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let lba = x % logical;
            if i % 10 < 3 {
                let info = dev.submit(now, NvmeCommand::write(lba, 4096));
                now = now.max(info.completes_at.min(now + SimDuration::micros(40)));
            } else {
                let info = dev.submit(now, NvmeCommand::read(lba, 4096));
                hist.record(info.latency_since(now).as_nanos());
                now = info.completes_at;
            }
            now += SimDuration::micros(3);
        }
    };

    // FOB device: measure immediately after format.
    let mut fob_dev = SsdDevice::new(spec.clone(), FirmwareProfile::experimental(), seed);
    let mut fob = LatencyHistogram::new();
    mixed_load(&mut fob_dev, &mut fob, 60_000, seed);

    // Aged device: overwrite the whole logical space twice first.
    let mut aged_dev = SsdDevice::new(spec, FirmwareProfile::experimental(), seed + 1);
    let mut now = SimTime::ZERO;
    for pass in 0..2u64 {
        for lba in 0..logical {
            let info = aged_dev.submit(now, NvmeCommand::write((lba + pass) % logical, 4096));
            // Open loop: don't wait for the buffer, just pace lightly.
            now = now.max(info.completes_at.min(now + SimDuration::micros(2)));
        }
    }
    let mut aged = LatencyHistogram::new();
    mixed_load(&mut aged_dev, &mut aged, 60_000, seed + 2);

    GcAblationResult {
        fob,
        aged,
        aged_write_amplification: aged_dev.ftl_stats().write_amplification(),
        gc_cycles: aged_dev.ftl_stats().gc_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gc_ablation_ages_the_device() {
        let r = ablate_gc(3);
        assert!(r.gc_cycles > 0, "aged device never collected");
        assert!(r.aged_write_amplification > 1.0);
        assert!(
            r.aged.value_at_percentile(99.99) >= r.fob.value_at_percentile(99.99),
            "aged tail should not be better than FOB"
        );
        assert!(r.to_table().contains("write amplification"));
    }

    #[test]
    fn poll_ablation_shows_latency_win() {
        let scale = ExperimentScale::new(SimDuration::millis(150), 2, 42);
        let r = ablate_poll(scale);
        assert_eq!(r.rows.len(), 2);
        let libaio_mean = r.rows[0].1;
        let poll_mean = r.rows[1].1;
        assert!(
            poll_mean < libaio_mean,
            "polling ({poll_mean}) should beat interrupts ({libaio_mean})"
        );
    }
}
