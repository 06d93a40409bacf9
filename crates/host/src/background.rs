//! Background (CPU-bound) workload: the daemons that interfere.
//!
//! §IV-B of the paper finds with LTTng that "relatively lightweight
//! background threads/processes" — llvmpipe (GNOME), lttng-consumerd,
//! IRQ threads, SSH daemons, kworkers — interfere with fio even though
//! only 64 fio threads were started. We model them as a Poisson
//! arrival process of CPU bursts with:
//!
//! * heavy-tailed burst lengths (a short-burst population plus a
//!   long-burst population up to tens of milliseconds),
//! * *non-preemptible sections* inside each burst
//!   (`preempt_disable()` regions under a voluntary-preemption
//!   kernel): these bound the wake-up latency of even SCHED_FIFO
//!   tasks — the residue visible in the paper's Fig. 7 (~600 µs),
//! * *irq-off subsections* at the head of each non-preemptible
//!   section: these delay hardware interrupt delivery.

use afa_sim::{SimDuration, SimRng, SimTime};

/// How one daemon class draws its burst lengths.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BurstProfile {
    /// Uniform in `[min, max]`.
    Uniform {
        /// Shortest burst.
        min: SimDuration,
        /// Longest burst.
        max: SimDuration,
    },
    /// Log-normal around `mean`, hard-capped at `cap`.
    LogNormal {
        /// Location of the distribution (mean of the underlying
        /// normal's exponential).
        mean: SimDuration,
        /// Hard cap.
        cap: SimDuration,
    },
}

impl BurstProfile {
    /// Samples one burst length.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            BurstProfile::Uniform { min, max } => {
                SimDuration::nanos(rng.range_inclusive(min.as_nanos(), max.as_nanos()))
            }
            BurstProfile::LogNormal { mean, cap } => {
                let us = rng
                    .log_normal(mean.as_micros_f64().ln(), 0.8)
                    .min(cap.as_micros_f64());
                SimDuration::from_micros_f64(us)
            }
        }
    }
}

/// One class of interfering daemon, as the paper's LTTng analysis
/// names them (§IV-B: llvmpipe, lttng-consumerd, SSH daemons,
/// kworkers, ...).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DaemonClass {
    /// Process name for reports.
    pub name: &'static str,
    /// Relative arrival weight within the mixture.
    pub weight: f64,
    /// Burst-length distribution.
    pub burst: BurstProfile,
}

/// Number of daemon classes in a [`BackgroundConfig`].
pub const DAEMON_CLASSES: usize = 4;

/// Parameters of the background workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BackgroundConfig {
    /// Mean inter-arrival time of bursts, system-wide (Poisson).
    pub mean_interarrival: SimDuration,
    /// The daemon mixture.
    pub classes: [DaemonClass; DAEMON_CLASSES],
    /// Mean preemptible gap between non-preemptible sections.
    pub np_gap_mean: SimDuration,
    /// Pareto scale of non-preemptible section lengths.
    pub np_scale: SimDuration,
    /// Pareto shape of non-preemptible section lengths.
    pub np_shape: f64,
    /// Hard cap on non-preemptible sections (a healthy kernel's
    /// worst `preempt_disable` residence).
    pub np_cap: SimDuration,
    /// Fraction of each non-preemptible section (from its start) that
    /// also runs with interrupts disabled.
    pub irqoff_fraction: f64,
    /// Hard cap on the irq-off prefix.
    pub irqoff_cap: SimDuration,
}

impl BackgroundConfig {
    /// The calibrated default: enough daemon activity that roughly
    /// half a percent of QD1 I/Os on a busy 32-CPU fio set collide
    /// with a burst — reproducing the paper's Fig. 6/7 tail mass.
    pub fn centos7_desktop() -> Self {
        BackgroundConfig {
            mean_interarrival: SimDuration::micros(5_500),
            classes: [
                DaemonClass {
                    name: "kworker",
                    weight: 0.45,
                    burst: BurstProfile::Uniform {
                        min: SimDuration::micros(50),
                        max: SimDuration::micros(300),
                    },
                },
                DaemonClass {
                    name: "sshd/systemd",
                    weight: 0.20,
                    burst: BurstProfile::Uniform {
                        min: SimDuration::micros(100),
                        max: SimDuration::micros(600),
                    },
                },
                DaemonClass {
                    name: "lttng-consumerd",
                    weight: 0.15,
                    burst: BurstProfile::Uniform {
                        min: SimDuration::micros(300),
                        max: SimDuration::millis(3),
                    },
                },
                DaemonClass {
                    name: "llvmpipe",
                    weight: 0.20,
                    burst: BurstProfile::LogNormal {
                        mean: SimDuration::millis(6),
                        cap: SimDuration::millis(24),
                    },
                },
            ],
            np_gap_mean: SimDuration::micros(400),
            np_scale: SimDuration::micros(15),
            np_shape: 1.15,
            np_cap: SimDuration::micros(500),
            irqoff_fraction: 0.3,
            irqoff_cap: SimDuration::micros(90),
        }
    }

    /// A quiet system (used by unit tests to disable interference).
    pub fn silent() -> Self {
        BackgroundConfig {
            mean_interarrival: SimDuration::secs(1_000_000),
            ..Self::centos7_desktop()
        }
    }

    /// Samples the next inter-arrival gap.
    pub fn sample_interarrival(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_micros_f64(rng.exponential(self.mean_interarrival.as_micros_f64()))
    }

    /// Samples a daemon class index by weight, then its burst length.
    pub fn sample_burst(&self, rng: &mut SimRng) -> (usize, SimDuration) {
        let total: f64 = self.classes.iter().map(|c| c.weight).sum();
        let mut r = rng.uniform_f64(0.0, total);
        let mut idx = self.classes.len() - 1;
        for (i, class) in self.classes.iter().enumerate() {
            r -= class.weight;
            if r <= 0.0 {
                idx = i;
                break;
            }
        }
        (idx, self.classes[idx].burst.sample(rng))
    }
}

/// One background burst occupying a CPU, with its precomputed
/// non-preemptible and irq-off sections.
#[derive(Clone, Debug)]
pub struct BgBurst {
    start: SimTime,
    end: SimTime,
    /// Non-preemptible sections as absolute `(start, end)` intervals,
    /// sorted, non-overlapping. Shifted when the burst is pushed back.
    np_sections: Vec<(SimTime, SimTime)>,
    /// irq-off prefix length of each section (parallel to
    /// `np_sections`).
    irqoff_len: Vec<SimDuration>,
}

impl BgBurst {
    /// Generates a burst starting at `start` with the given length.
    pub fn generate(
        config: &BackgroundConfig,
        start: SimTime,
        len: SimDuration,
        rng: &mut SimRng,
    ) -> Self {
        let end = start + len;
        let mut np_sections = Vec::new();
        let mut irqoff_len = Vec::new();
        let mut cursor = start;
        loop {
            let gap =
                SimDuration::from_micros_f64(rng.exponential(config.np_gap_mean.as_micros_f64()));
            cursor += gap;
            if cursor >= end {
                break;
            }
            let np = SimDuration::from_micros_f64(
                rng.pareto(config.np_scale.as_micros_f64(), config.np_shape),
            )
            .min(config.np_cap);
            let sec_end = (cursor + np).min(end);
            let sec_len = sec_end - cursor;
            let irqoff =
                SimDuration::from_micros_f64(sec_len.as_micros_f64() * config.irqoff_fraction)
                    .min(config.irqoff_cap);
            np_sections.push((cursor, sec_end));
            irqoff_len.push(irqoff);
            cursor = sec_end;
        }
        BgBurst {
            start,
            end,
            np_sections,
            irqoff_len,
        }
    }

    /// Burst start.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Current burst end (grows when the burst is displaced).
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Whether the burst occupies the CPU at `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }

    /// Extends the burst by `d` (the CPU time stolen by a preempting
    /// I/O task must still be executed).
    pub fn push_back(&mut self, d: SimDuration) {
        self.end += d;
    }

    /// Extends the burst by stacking another arrival's length onto it
    /// (runqueue backlog on this CPU).
    pub fn stack(&mut self, len: SimDuration) {
        self.end += len;
    }

    /// If `t` falls inside a non-preemptible section, returns the
    /// section's end; otherwise `t`.
    pub fn preemptible_at(&self, t: SimTime) -> SimTime {
        match self.np_sections.binary_search_by(|&(s, _)| s.cmp(&t)) {
            Ok(i) => self.np_sections[i].1,
            Err(0) => t,
            Err(i) => {
                let (s, e) = self.np_sections[i - 1];
                if t >= s && t < e {
                    e
                } else {
                    t
                }
            }
        }
    }

    /// If `t` falls inside an irq-off prefix, returns the instant
    /// interrupts are re-enabled; otherwise `t`.
    pub fn irqs_enabled_at(&self, t: SimTime) -> SimTime {
        let idx = match self.np_sections.binary_search_by(|&(s, _)| s.cmp(&t)) {
            Ok(i) => Some(i),
            Err(0) => None,
            Err(i) => Some(i - 1),
        };
        if let Some(i) = idx {
            let (s, _) = self.np_sections[i];
            let off_end = s + self.irqoff_len[i];
            if t >= s && t < off_end {
                return off_end;
            }
        }
        t
    }

    /// Number of non-preemptible sections (for tests).
    pub fn np_section_count(&self) -> usize {
        self.np_sections.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t_us(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::micros(n)
    }

    #[test]
    fn burst_spans_its_length() {
        let cfg = BackgroundConfig::centos7_desktop();
        let mut rng = SimRng::from_seed(1);
        let b = BgBurst::generate(&cfg, t_us(100), SimDuration::millis(5), &mut rng);
        assert_eq!(b.start(), t_us(100));
        assert_eq!(b.end(), t_us(5_100));
        assert!(b.active_at(t_us(100)));
        assert!(b.active_at(t_us(5_099)));
        assert!(!b.active_at(t_us(5_100)));
        assert!(!b.active_at(t_us(99)));
    }

    #[test]
    fn long_bursts_contain_np_sections() {
        let cfg = BackgroundConfig::centos7_desktop();
        let mut rng = SimRng::from_seed(2);
        let b = BgBurst::generate(&cfg, SimTime::ZERO, SimDuration::millis(20), &mut rng);
        assert!(
            b.np_section_count() > 5,
            "{} sections",
            b.np_section_count()
        );
    }

    #[test]
    fn np_sections_respect_cap() {
        let cfg = BackgroundConfig::centos7_desktop();
        let mut rng = SimRng::from_seed(3);
        for seed in 0..50u64 {
            let mut r = SimRng::from_seed(seed);
            let b = BgBurst::generate(&cfg, SimTime::ZERO, SimDuration::millis(20), &mut r);
            for i in 0..b.np_section_count() {
                let (s, e) = b.np_sections[i];
                assert!(e - s <= cfg.np_cap, "np section too long");
                assert!(b.irqoff_len[i] <= cfg.irqoff_cap);
                assert!(b.irqoff_len[i] <= e - s);
            }
        }
        let _ = rng.next_u64();
    }

    #[test]
    fn preemptible_at_inside_and_outside() {
        let cfg = BackgroundConfig::centos7_desktop();
        let mut rng = SimRng::from_seed(4);
        let b = BgBurst::generate(&cfg, SimTime::ZERO, SimDuration::millis(20), &mut rng);
        assert!(b.np_section_count() > 0);
        let (s, e) = b.np_sections[0];
        let mid = s + (e - s) / 2;
        assert_eq!(b.preemptible_at(mid), e);
        assert_eq!(b.preemptible_at(s), e);
        // Just before the section: preemptible immediately.
        if s > SimTime::ZERO {
            let before = s - SimDuration::nanos(1);
            assert_eq!(b.preemptible_at(before), before);
        }
    }

    #[test]
    fn irqoff_prefix_blocks_then_enables() {
        let cfg = BackgroundConfig::centos7_desktop();
        for seed in 0..100u64 {
            let mut rng = SimRng::from_seed(seed);
            let b = BgBurst::generate(&cfg, SimTime::ZERO, SimDuration::millis(20), &mut rng);
            let Some(i) = (0..b.np_section_count()).find(|&i| !b.irqoff_len[i].is_zero()) else {
                continue;
            };
            let (s, _) = b.np_sections[i];
            let off_end = s + b.irqoff_len[i];
            assert_eq!(b.irqs_enabled_at(s), off_end);
            assert_eq!(b.irqs_enabled_at(off_end), off_end);
            return;
        }
        panic!("no burst with an irq-off prefix found");
    }

    #[test]
    fn push_back_extends_end() {
        let cfg = BackgroundConfig::centos7_desktop();
        let mut rng = SimRng::from_seed(5);
        let mut b = BgBurst::generate(&cfg, SimTime::ZERO, SimDuration::millis(1), &mut rng);
        let end = b.end();
        b.push_back(SimDuration::micros(7));
        assert_eq!(b.end(), end + SimDuration::micros(7));
        b.stack(SimDuration::millis(2));
        assert_eq!(
            b.end(),
            end + SimDuration::micros(7) + SimDuration::millis(2)
        );
    }

    #[test]
    fn sampled_lengths_respect_caps() {
        let cfg = BackgroundConfig::centos7_desktop();
        let mut rng = SimRng::from_seed(6);
        for _ in 0..10_000 {
            let (class, len) = cfg.sample_burst(&mut rng);
            assert!(class < DAEMON_CLASSES);
            assert!(len <= SimDuration::millis(24));
            assert!(len >= SimDuration::micros(1));
        }
    }

    #[test]
    fn class_mixture_matches_weights() {
        let cfg = BackgroundConfig::centos7_desktop();
        let mut rng = SimRng::from_seed(8);
        let mut counts = [0u32; DAEMON_CLASSES];
        let n = 100_000;
        for _ in 0..n {
            counts[cfg.sample_burst(&mut rng).0] += 1;
        }
        let total: f64 = cfg.classes.iter().map(|c| c.weight).sum();
        for (i, class) in cfg.classes.iter().enumerate() {
            let expected = class.weight / total;
            let got = counts[i] as f64 / n as f64;
            assert!(
                (got - expected).abs() < 0.01,
                "{}: {got:.3} vs {expected:.3}",
                class.name
            );
        }
    }

    #[test]
    fn silent_config_rarely_arrives() {
        let cfg = BackgroundConfig::silent();
        let mut rng = SimRng::from_seed(7);
        let gap = cfg.sample_interarrival(&mut rng);
        assert!(gap > SimDuration::secs(1_000));
    }
}
