//! The host model: per-CPU scheduling, IRQ handling, idle states.
//!
//! [`HostModel`] answers the three questions the I/O path asks:
//!
//! 1. *An interrupt for device D fires at time t — when has its
//!    handler finished, and on which CPU?* ([`HostModel::deliver_irq`])
//! 2. *Task on CPU c becomes runnable at time t — when does it
//!    actually run?* ([`HostModel::wake_io_task`])
//! 3. *The task executes for w of CPU time — when is it done?*
//!    ([`HostModel::charge_cpu`])
//!
//! plus the background-workload generator that keeps CPUs realistically
//! dirty. All CPU state is interval-based and synchronized lazily, so
//! the host contributes no events of its own beyond background
//! arrivals.

use std::collections::VecDeque;

use afa_sim::{SimDuration, SimRng, SimTime};

use crate::background::{BackgroundConfig, BgBurst};
use crate::config::{IdlePolicy, KernelConfig, SchedProfile, CSTATE_TABLE};
use crate::cpu::{CpuId, CpuTopology};
use crate::irq::{IrqDelivery, VectorTable};
use crate::task::SchedPolicy;

/// Fixed cost constants of the scheduler/interrupt paths.
///
/// Exposed so ablation experiments can display them; values are
/// calibrated in `DESIGN.md` §4.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SchedCosts {
    /// Full context switch (preempting a running task).
    pub ctx_switch: SimDuration,
    /// Picking up the CPU right after another I/O task yields.
    pub local_queue_ctx: SimDuration,
    /// Scheduler wake-up path (enqueue, select, dispatch).
    pub wake_path: SimDuration,
    /// Hardirq entry (vector dispatch, register save).
    pub irq_entry: SimDuration,
    /// NVMe completion handler body.
    pub irq_handler: SimDuration,
    /// Timer-tick interruption of a running task.
    pub tick_cost: SimDuration,
    /// Reschedule IPI to a CPU on the same socket.
    pub ipi_same_socket: SimDuration,
    /// Reschedule IPI across sockets.
    pub ipi_cross_socket: SimDuration,
    /// Extra wake-up cost when the waker ran on a remote CPU.
    pub remote_wake: SimDuration,
    /// Throughput factor when both hyper-threads of a core are busy.
    pub ht_slowdown: f64,
    /// Extra handler cost range when the vector is cache-cold
    /// (balanced IRQ placement), min.
    pub pollution_min: SimDuration,
    /// See [`SchedCosts::pollution_min`]; max.
    pub pollution_max: SimDuration,
}

impl Default for SchedCosts {
    fn default() -> Self {
        SchedCosts {
            ctx_switch: SimDuration::nanos(2_000),
            local_queue_ctx: SimDuration::nanos(700),
            wake_path: SimDuration::nanos(800),
            irq_entry: SimDuration::nanos(600),
            irq_handler: SimDuration::nanos(1_100),
            tick_cost: SimDuration::nanos(1_200),
            ipi_same_socket: SimDuration::nanos(1_200),
            ipi_cross_socket: SimDuration::nanos(2_200),
            remote_wake: SimDuration::nanos(1_000),
            ht_slowdown: 1.45,
            pollution_min: SimDuration::nanos(300),
            pollution_max: SimDuration::nanos(2_500),
        }
    }
}

/// Where a wake-up's latency went (cause attribution for the
/// LTTng-style analysis).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WakeBreakdown {
    /// Waiting for a CFS preemption opportunity (tick granularity +
    /// wake-up-granularity heuristics).
    pub cfs_preempt_wait: SimDuration,
    /// Waiting for a non-preemptible kernel section to end.
    pub np_wait: SimDuration,
    /// Waiting behind another I/O task on the same logical CPU.
    pub local_queue_wait: SimDuration,
    /// C-state exit latency.
    pub cstate_exit: SimDuration,
    /// Waiting for RCU-callback softirq work (absent with
    /// `rcu_nocbs`).
    pub softirq_wait: SimDuration,
    /// Fixed context-switch / wake-path costs.
    pub fixed_costs: SimDuration,
}

impl WakeBreakdown {
    /// Total wake-to-run delay.
    pub fn total(&self) -> SimDuration {
        self.cfs_preempt_wait
            + self.np_wait
            + self.local_queue_wait
            + self.cstate_exit
            + self.softirq_wait
            + self.fixed_costs
    }
}

/// Result of delivering one completion interrupt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IrqOutcome {
    /// Routing decision (vector CPU, remote?, polluted?).
    pub delivery: IrqDelivery,
    /// When the handler finished executing.
    pub handler_done: SimTime,
    /// When the woken task's own CPU learns about the wake (includes
    /// the IPI for remote completions).
    pub wake_ready: SimTime,
    /// Time the interrupt waited for an irq-off section.
    pub irqoff_wait: SimDuration,
}

/// Host-wide counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Background bursts spawned.
    pub bg_bursts: u64,
    /// Background bursts per CPU.
    pub bg_per_cpu: Vec<u64>,
    /// Background bursts per daemon class (see
    /// [`BackgroundConfig::classes`]).
    pub bg_per_class: Vec<u64>,
    /// Wake-ups that found a background task on the CPU.
    pub wakes_preempting_bg: u64,
    /// Total wake-ups of I/O tasks.
    pub wakes: u64,
    /// Interrupts delivered to a CPU other than the designated one.
    pub remote_irqs: u64,
    /// Interrupts delivered in total.
    pub irqs: u64,
    /// Total CPU time charged to I/O tasks, nanoseconds (polling vs.
    /// interrupt CPU-cost accounting).
    pub io_cpu_busy_ns: u64,
    /// Wake-ups delayed by RCU softirq work.
    pub rcu_softirq_hits: u64,
}

/// Per-CPU lazy state.
#[derive(Clone, Debug)]
struct CpuState {
    bg: Option<BgBurst>,
    io_busy_until: SimTime,
    /// Hardirq handlers on one CPU serialize (hardirqs don't nest).
    irq_busy_until: SimTime,
    last_busy_end: SimTime,
    /// EMA of recent idle durations (µs) for the idle governor.
    ema_idle_us: f64,
    /// Per-CPU scheduler-noise stream (splitmix64 state). Keeping the
    /// draws CPU-local — instead of one shared stream — makes each
    /// CPU's draws depend only on how often *that CPU* was touched,
    /// not on how other CPUs' events interleave with it.
    draw_state: u64,
}

impl CpuState {
    fn new(seed: u64, cpu: usize) -> Self {
        let mut s = seed ^ 0x5C00_0000_0000_0000 ^ (cpu as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        afa_sim::rng::splitmix64(&mut s);
        CpuState {
            bg: None,
            io_busy_until: SimTime::ZERO,
            irq_busy_until: SimTime::ZERO,
            last_busy_end: SimTime::ZERO,
            ema_idle_us: 1_000.0,
            draw_state: s,
        }
    }
}

/// The hub's placement view of one CPU: the slice of per-CPU state
/// the background-placement logic is allowed to read. Deliberately
/// *not* the live [`CpuState`] — the hub learns about I/O business
/// only through [`HostModel::note_io_busy`] reports (one worker
/// lookahead stale) and about bursts through its own
/// [`HostModel::mirror_background`] installs, so placement decisions
/// never read state owned by the CPUs' logical processes.
#[derive(Clone, Debug, Default)]
struct BgView {
    bg: Option<BgBurst>,
    io_busy_until: SimTime,
}

/// One [`HostModel::note_io_busy`] report on its way to the placement
/// view: `cpu` runs I/O work through `until`, and the view may see it
/// from `visible_at` on.
#[derive(Clone, Copy, Debug)]
struct BusyReport {
    visible_at: SimTime,
    cpu: CpuId,
    until: SimTime,
}

/// A hub-side background-placement decision, handed to the CPU-owning
/// logical process for installation (see [`HostModel::decide_background`]).
#[derive(Clone, Debug)]
pub struct BgPlacement {
    /// The CPU the burst lands on.
    pub cpu: CpuId,
    /// Daemon class index (stats bucket).
    pub class: usize,
    /// Burst length (used when stacking onto an active burst).
    pub len: SimDuration,
    /// The pre-generated burst (used when the CPU is free of one).
    pub burst: BgBurst,
}

/// The complete host: topology + kernel config + scheduler state +
/// IRQ vectors + background workload.
#[derive(Clone)]
pub struct HostModel {
    topo: CpuTopology,
    config: KernelConfig,
    bg_config: BackgroundConfig,
    costs: SchedCosts,
    cpus: Vec<CpuState>,
    /// Hub-owned placement view, one slot per CPU (see [`BgView`]).
    bg_view: Vec<BgView>,
    /// Busy reports not yet visible to the view, in `visible_at`
    /// order.
    busy_reports: VecDeque<BusyReport>,
    /// `config.tick_period(nohz)` for `nohz` = false, true: computed
    /// once, since the charge and wake paths read it on every call.
    tick_periods: [SimDuration; 2],
    /// Relative likelihood of each CPU attracting background work.
    /// A random ~20 % of CPUs are "hot" (persistent daemons such as
    /// llvmpipe park threads there), which is what spreads the
    /// per-device worst case under the default configuration.
    bg_weight: Vec<f64>,
    vectors: Option<VectorTable>,
    bg_rng: SimRng,
    stats: HostStats,
}

impl HostModel {
    /// Creates a host with the given topology, kernel configuration
    /// and background workload; `seed` derives all random streams.
    pub fn new(
        topo: CpuTopology,
        config: KernelConfig,
        bg_config: BackgroundConfig,
        seed: u64,
    ) -> Self {
        let n = topo.logical_cpus() as usize;
        let mut bg_rng = SimRng::from_seed_and_stream(seed, 0xB6);
        let bg_weight = (0..n)
            .map(|_| if bg_rng.chance(0.2) { 4.0 } else { 1.0 })
            .collect();
        let tick_periods = [config.tick_period(false), config.tick_period(true)];
        HostModel {
            topo,
            config,
            bg_config,
            costs: SchedCosts::default(),
            cpus: (0..n).map(|c| CpuState::new(seed, c)).collect(),
            bg_view: vec![BgView::default(); n],
            busy_reports: VecDeque::new(),
            tick_periods,
            bg_weight,
            vectors: None,
            bg_rng,
            stats: HostStats {
                bg_per_cpu: vec![0; n],
                bg_per_class: vec![0; crate::background::DAEMON_CLASSES],
                ..HostStats::default()
            },
        }
    }

    /// Installs the MSI-X vector table: `designated[d]` is the CPU
    /// running device *d*'s I/O worker.
    pub fn init_vectors(&mut self, designated: Vec<CpuId>, seed: u64) {
        let all: Vec<CpuId> = self.topo.all_cpus().iter().collect();
        self.vectors = Some(VectorTable::new(
            self.config.irq_mode,
            designated,
            all,
            SimRng::from_seed_and_stream(seed, 0x19),
        ));
    }

    /// The CPU topology.
    pub fn topology(&self) -> &CpuTopology {
        &self.topo
    }

    /// The kernel configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// The cost constants.
    pub fn costs(&self) -> &SchedCosts {
        &self.costs
    }

    /// Host-wide counters.
    pub fn stats(&self) -> &HostStats {
        &self.stats
    }

    /// The vector table, if installed.
    pub fn vectors(&self) -> Option<&VectorTable> {
        self.vectors.as_ref()
    }

    // ------------------------------------------------------------------
    // Background workload
    // ------------------------------------------------------------------

    /// Samples the next background arrival after `now`.
    pub fn next_background_arrival(&mut self, now: SimTime) -> SimTime {
        now + self.bg_config.sample_interarrival(&mut self.bg_rng)
    }

    /// Spawns one background burst at `now`: decides placement and
    /// installs the burst in one step. Equivalent to
    /// [`decide_background`](Self::decide_background) followed by
    /// [`install_background`](Self::install_background) — the I/O
    /// path splits the two across the hub and the CPU-owning LP.
    pub fn spawn_background(&mut self, now: SimTime) {
        if let Some(placement) = self.decide_background(now) {
            self.install_background(placement, now);
        }
    }

    /// Picks where the next background burst lands and pre-generates
    /// it, using Linux-like placement: pick an idle CPU if one exists
    /// — and a CPU whose I/O task is sleeping *looks* idle, which is
    /// exactly the paper's §IV-C complaint — otherwise any allowed
    /// CPU. `isolcpus` CPUs are never candidates; the IoAggressive
    /// prototype also treats any CPU with recent I/O activity as off
    /// limits — automatic isolation without the boot option (falling
    /// back to all allowed CPUs if that empties the set).
    ///
    /// Reads the *live* per-CPU state, so it is only for drivers
    /// without a hub/worker split (see
    /// [`decide_background_remote`](Self::decide_background_remote)
    /// for the I/O path's hub). Returns `None` when no CPU is allowed.
    pub fn decide_background(&mut self, start: SimTime) -> Option<BgPlacement> {
        self.decide_background_with(start, false)
    }

    /// The hub variant of
    /// [`decide_background`](Self::decide_background), deciding at
    /// `now` for a burst starting at `start`: the idle test reads only
    /// the hub-owned placement view — installs mirrored via
    /// [`mirror_background`](Self::mirror_background), I/O charges
    /// reported via [`note_io_busy`](Self::note_io_busy) and visible
    /// by `now` — so the decision never touches state owned by other
    /// logical processes. The view lags true CPU state by at most the
    /// worker lookahead.
    pub fn decide_background_remote(
        &mut self,
        now: SimTime,
        start: SimTime,
    ) -> Option<BgPlacement> {
        self.fold_busy_reports(now);
        self.decide_background_with(start, true)
    }

    fn decide_background_with(&mut self, start: SimTime, remote: bool) -> Option<BgPlacement> {
        let allowed: Vec<CpuId> = self
            .topo
            .all_cpus()
            .iter()
            .filter(|c| !self.config.isolcpus.contains(*c))
            .collect();
        if allowed.is_empty() {
            return None;
        }
        for &c in &allowed {
            if remote {
                self.sync_view(c, start);
            } else {
                self.sync(c, start);
            }
        }
        // (has a burst?, busy with I/O until) as the placement logic
        // is allowed to see it: live state locally, the view remotely.
        let seen = |this: &HostModel, c: CpuId| -> (bool, SimTime) {
            if remote {
                let v = &this.bg_view[c.0 as usize];
                (v.bg.is_some(), v.io_busy_until)
            } else {
                let s = &this.cpus[c.0 as usize];
                (s.bg.is_some(), s.io_busy_until)
            }
        };
        let allowed: Vec<CpuId> = if self.config.sched_profile == SchedProfile::IoAggressive {
            let quiet: Vec<CpuId> = allowed
                .iter()
                .copied()
                .filter(|&c| seen(self, c).1 + SimDuration::millis(5) <= start)
                .collect();
            if quiet.is_empty() {
                allowed
            } else {
                quiet
            }
        } else {
            allowed
        };
        let idle: Vec<CpuId> = allowed
            .iter()
            .copied()
            .filter(|&c| {
                let (has_bg, busy_until) = seen(self, c);
                !has_bg && busy_until <= start
            })
            .collect();
        let candidates = if idle.is_empty() { &allowed } else { &idle };
        let cpu = self.weighted_pick(candidates);
        let (class, len) = self.bg_config.sample_burst(&mut self.bg_rng);
        let burst = BgBurst::generate(&self.bg_config, start, len, &mut self.bg_rng);
        self.stats.bg_bursts += 1;
        self.stats.bg_per_cpu[cpu.0 as usize] += 1;
        self.stats.bg_per_class[class] += 1;
        Some(BgPlacement {
            cpu,
            class,
            len,
            burst,
        })
    }

    /// Installs a hub-side placement decision on the chosen CPU: if a
    /// burst is already active there, the new arrival stacks onto the
    /// runqueue backlog; otherwise the pre-generated burst takes the
    /// CPU. Runs on the LP that owns `placement.cpu`.
    pub fn install_background(&mut self, placement: BgPlacement, now: SimTime) {
        self.sync(placement.cpu, now);
        let state = &mut self.cpus[placement.cpu.0 as usize];
        match &mut state.bg {
            Some(burst) if burst.active_at(now) => burst.stack(placement.len),
            _ => state.bg = Some(placement.burst),
        }
    }

    /// Mirrors a placement decision into the hub-owned view so the
    /// next [`decide_background_remote`](Self::decide_background_remote)
    /// sees the burst; the CPU's owner performs the authoritative
    /// [`install_background`](Self::install_background) separately.
    pub fn mirror_background(&mut self, placement: &BgPlacement, now: SimTime) {
        self.sync_view(placement.cpu, now);
        let view = &mut self.bg_view[placement.cpu.0 as usize];
        match &mut view.bg {
            Some(burst) if burst.active_at(now) => burst.stack(placement.len),
            _ => view.bg = Some(placement.burst.clone()),
        }
    }

    /// Reports, at `now`, that `cpu` runs I/O work through `until`;
    /// the hub-owned placement view sees the report from `visible_at`
    /// on. Worker LPs report their charges so the view keeps seeing
    /// I/O CPUs as busy while they run; with `visible_at` one worker
    /// lookahead after `now`, the view is never more than that much
    /// stale. Touches only the view — never the live `CpuState` —
    /// so the report cannot perturb the owner's scheduler.
    ///
    /// Reports must arrive in `visible_at` order. Each call first
    /// folds the reports already visible at `now`: no decision can
    /// precede `now` any more, so this bounds the pending log without
    /// changing what any decision sees.
    pub fn note_io_busy(&mut self, cpu: CpuId, until: SimTime, now: SimTime, visible_at: SimTime) {
        debug_assert!(
            self.busy_reports
                .back()
                .is_none_or(|r| r.visible_at <= visible_at),
            "busy reports out of visibility order"
        );
        self.fold_busy_reports(now);
        self.busy_reports.push_back(BusyReport {
            visible_at,
            cpu,
            until,
        });
    }

    /// Applies every busy report visible at `now` to the placement
    /// view. Each is a max, so the fold order does not matter.
    fn fold_busy_reports(&mut self, now: SimTime) {
        while let Some(r) = self.busy_reports.front().copied() {
            if r.visible_at > now {
                break;
            }
            self.busy_reports.pop_front();
            let view = &mut self.bg_view[r.cpu.0 as usize];
            view.io_busy_until = view.io_busy_until.max(r.until);
        }
    }

    /// Weighted random choice among candidate CPUs (hot CPUs attract
    /// proportionally more daemon activity).
    fn weighted_pick(&mut self, candidates: &[CpuId]) -> CpuId {
        debug_assert!(!candidates.is_empty());
        let total: f64 = candidates
            .iter()
            .map(|c| self.bg_weight[c.0 as usize])
            .sum();
        let mut r = self.bg_rng.uniform_f64(0.0, total);
        for &c in candidates {
            r -= self.bg_weight[c.0 as usize];
            if r <= 0.0 {
                return c;
            }
        }
        *candidates.last().expect("non-empty")
    }

    /// Retires a finished burst from the hub-owned placement view.
    fn sync_view(&mut self, cpu: CpuId, now: SimTime) {
        let view = &mut self.bg_view[cpu.0 as usize];
        if let Some(bg) = &view.bg {
            if bg.end() <= now {
                view.bg = None;
            }
        }
    }

    /// Lazily retires finished background bursts and updates idle
    /// bookkeeping.
    fn sync(&mut self, cpu: CpuId, now: SimTime) {
        let state = &mut self.cpus[cpu.0 as usize];
        if let Some(bg) = &state.bg {
            if bg.end() <= now {
                state.last_busy_end = state.last_busy_end.max(bg.end());
                state.bg = None;
            }
        }
    }

    // ------------------------------------------------------------------
    // Interrupt delivery
    // ------------------------------------------------------------------

    /// Delivers device `device`'s completion interrupt raised at
    /// `now`.
    ///
    /// Equivalent to [`route_irq`](Self::route_irq) followed by
    /// [`deliver_irq_routed`](Self::deliver_irq_routed) — the I/O path
    /// splits the two across the hub (which owns the vector table) and
    /// the LP owning the vector CPU.
    ///
    /// # Panics
    ///
    /// Panics if [`HostModel::init_vectors`] was not called.
    pub fn deliver_irq(&mut self, device: usize, now: SimTime) -> IrqOutcome {
        let (delivery, designated) = self.route_irq(device, now);
        self.deliver_irq_routed(delivery, designated, now)
    }

    /// Routes one completion interrupt through the vector table
    /// (including any pending balancer reshuffle), returning the
    /// delivery decision and the device's designated CPU. Mutates only
    /// the vector table and the IRQ counters.
    ///
    /// # Panics
    ///
    /// Panics if [`HostModel::init_vectors`] was not called.
    pub fn route_irq(&mut self, device: usize, now: SimTime) -> (IrqDelivery, CpuId) {
        let vectors = self.vectors.as_mut().expect("init_vectors not called");
        let delivery = vectors.route(device, now);
        let designated = vectors.designated(device);
        self.stats.irqs += 1;
        if delivery.remote {
            self.stats.remote_irqs += 1;
        }
        (delivery, designated)
    }

    /// Executes a routed interrupt's handler on the vector CPU,
    /// touching only that CPU's state (no vector-table access).
    pub fn deliver_irq_routed(
        &mut self,
        delivery: IrqDelivery,
        designated: CpuId,
        now: SimTime,
    ) -> IrqOutcome {
        let vcpu = delivery.vector_cpu;
        self.sync(vcpu, now);

        // Hardirqs preempt tasks but wait for irq-off sections, and
        // handlers on the same CPU serialize (hardirqs don't nest) —
        // under balanced placement several devices' vectors can pile
        // onto one CPU, which is part of each device's placement-
        // dependent penalty.
        let enabled_at = match &self.cpus[vcpu.0 as usize].bg {
            Some(bg) if bg.active_at(now) => bg.irqs_enabled_at(now),
            _ => now,
        };
        let enabled_at = enabled_at.max(self.cpus[vcpu.0 as usize].irq_busy_until);
        let irqoff_wait = enabled_at.saturating_since(now);

        let mut handler_cost = self.costs.irq_handler;
        if self.sibling_busy(vcpu, enabled_at) {
            handler_cost = scale(handler_cost, self.costs.ht_slowdown);
        }
        if delivery.polluted || delivery.remote {
            // Cold instruction/data cache on a foreign CPU. The
            // penalty depends on where the vector landed relative to
            // the submitter (cache topology, uncore distance), so each
            // (vector, designated) pair has its own characteristic
            // cost — this is what makes the per-SSD distributions
            // diverge under balanced placement (§IV-D).
            let min = self.costs.pollution_min.as_nanos();
            let max = self.costs.pollution_max.as_nanos();
            let extra = min + self.cpu_draw(vcpu) % (max - min + 1);
            let mut pair = (vcpu.0 as u64) << 16 | designated.0 as u64;
            let pair_factor = 0.5 + 2.0 * (crate::pair_hash(&mut pair) % 1_000) as f64 / 1_000.0;
            handler_cost += scale(SimDuration::nanos(extra), pair_factor);
        }
        let handler_done = enabled_at + self.costs.irq_entry + handler_cost;
        self.cpus[vcpu.0 as usize].irq_busy_until = handler_done;

        // Remote completion: the designated CPU learns via an IPI.
        let wake_ready = if delivery.remote {
            let ipi = if self.topo.same_socket(vcpu, designated) {
                self.costs.ipi_same_socket
            } else {
                self.costs.ipi_cross_socket
            };
            handler_done + ipi + self.costs.remote_wake
        } else {
            handler_done
        };

        IrqOutcome {
            delivery,
            handler_done,
            wake_ready,
            irqoff_wait,
        }
    }

    // ------------------------------------------------------------------
    // Task wake-up and execution
    // ------------------------------------------------------------------

    /// Draws the next value of `cpu`'s private noise stream.
    fn cpu_draw(&mut self, cpu: CpuId) -> u64 {
        afa_sim::rng::splitmix64(&mut self.cpus[cpu.0 as usize].draw_state)
    }

    /// Draws a uniform value in `[0, 1)` from `cpu`'s noise stream.
    fn cpu_draw_f64(&mut self, cpu: CpuId) -> f64 {
        (self.cpu_draw(cpu) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn sibling_busy(&self, cpu: CpuId, t: SimTime) -> bool {
        let sib = self.topo.sibling_of(cpu);
        let s = &self.cpus[sib.0 as usize];
        s.io_busy_until > t || s.bg.as_ref().is_some_and(|b| b.active_at(t))
    }

    /// The timer-tick period of `cpu` (`nohz_full` CPUs tick at 1 Hz).
    fn tick_period(&self, cpu: CpuId) -> SimDuration {
        self.tick_periods[self.config.nohz_full.contains(cpu) as usize]
    }

    /// Next timer tick on `cpu` strictly after `t`.
    fn next_tick(&self, cpu: CpuId, t: SimTime) -> SimTime {
        let period = self.tick_period(cpu).as_nanos();
        // Per-CPU phase: ticks are skewed across CPUs.
        let phase = (cpu.0 as u64 * 137_000) % period;
        let tn = t.as_nanos();
        let k = if tn < phase {
            0
        } else {
            (tn - phase) / period + 1
        };
        SimTime::from_nanos(phase + k * period)
    }

    /// Number of tick boundaries on `cpu` in `[start, end)`.
    fn ticks_in(&self, cpu: CpuId, start: SimTime, end: SimTime) -> u64 {
        if end <= start {
            return 0;
        }
        let period = self.tick_period(cpu).as_nanos();
        let phase = (cpu.0 as u64 * 137_000) % period;
        let count = |t: u64| -> u64 {
            if t < phase {
                0
            } else {
                (t - phase) / period + 1
            }
        };
        count(end.as_nanos().saturating_sub(1)) - count(start.as_nanos().saturating_sub(1))
    }

    /// RCU-callback softirq occupancy: on CPUs whose RCU callbacks are
    /// *not* offloaded (`rcu_nocbs`), the rcu softirq runs a short
    /// window every few milliseconds; a wake-up landing inside one
    /// waits it out. Windows are derived arithmetically from the CPU
    /// id (deterministic, no events).
    fn rcu_window_end(&self, cpu: CpuId, t: SimTime) -> Option<SimTime> {
        if self.config.rcu_nocbs.contains(cpu) {
            return None;
        }
        const PERIOD_NS: u64 = 4_096_000; // ~4 ms
        let phase = (cpu.0 as u64).wrapping_mul(311_017) % PERIOD_NS;
        let tn = t.as_nanos();
        let slot = tn.saturating_sub(phase) / PERIOD_NS;
        let start = phase + slot * PERIOD_NS;
        // Window length varies deterministically per (cpu, slot):
        // 8–28 µs of callback processing.
        let mut h = (cpu.0 as u64) << 32 | (slot & 0xFFFF_FFFF);
        let dur = 8_000 + afa_sim::rng::splitmix64(&mut h) % 20_000;
        let end = start + dur;
        (tn >= start && tn < end).then(|| SimTime::from_nanos(end))
    }

    /// C-state exit latency for a wake-up on `cpu` at `t`, per the
    /// idle policy and the governor's idle-duration prediction.
    fn cstate_exit(&mut self, cpu: CpuId, t: SimTime) -> SimDuration {
        match self.config.idle {
            IdlePolicy::Poll => SimDuration::ZERO,
            IdlePolicy::CStates { max_cstate } => {
                let state = &mut self.cpus[cpu.0 as usize];
                let idle_us = t.saturating_since(state.last_busy_end).as_micros_f64();
                // Menu-like: predict from the EMA of past idles, then
                // fold in this observation.
                let predicted = state.ema_idle_us;
                state.ema_idle_us = 0.7 * state.ema_idle_us + 0.3 * idle_us;
                let deepest_allowed = match max_cstate {
                    0 => return SimDuration::ZERO,
                    1 => 1,
                    2..=3 => 2,
                    _ => 3,
                };
                let mut exit = SimDuration::ZERO;
                for (i, spec) in CSTATE_TABLE.iter().enumerate() {
                    if i + 1 > deepest_allowed {
                        break;
                    }
                    if predicted >= spec.target_residency.as_micros_f64() {
                        exit = spec.exit_latency;
                    }
                }
                exit
            }
        }
    }

    /// An I/O task pinned to `cpu` becomes runnable at `ready`;
    /// returns when it starts executing, with the delay breakdown.
    pub fn wake_io_task(
        &mut self,
        cpu: CpuId,
        ready: SimTime,
        policy: SchedPolicy,
    ) -> (SimTime, WakeBreakdown) {
        self.sync(cpu, ready);
        self.stats.wakes += 1;
        let mut breakdown = WakeBreakdown::default();

        // RCU softirq work on this CPU runs ahead of the wake-up.
        let ready = match self.rcu_window_end(cpu, ready) {
            Some(end) => {
                breakdown.softirq_wait = end.saturating_since(ready);
                self.stats.rcu_softirq_hits += 1;
                end
            }
            None => ready,
        };
        let state = &self.cpus[cpu.0 as usize];

        let bg_active = state.bg.as_ref().is_some_and(|b| b.active_at(ready));
        let run_start = if bg_active {
            self.stats.wakes_preempting_bg += 1;
            // Drawn up front (for either policy) so the CPU's noise
            // stream advances identically regardless of the RT
            // override below.
            let cfs_draw = self.cpu_draw_f64(cpu);
            let bg = self.cpus[cpu.0 as usize].bg.as_ref().expect("bg checked");
            let bg_end = bg.end();
            let preemptible = bg.preemptible_at(ready);
            // The IoAggressive prototype gives waking I/O tasks
            // RT-like preemption without chrt (§V "more aggressive
            // policy").
            let policy = if self.config.sched_profile == SchedProfile::IoAggressive {
                SchedPolicy::Fifo { priority: 98 }
            } else {
                policy
            };
            match policy {
                SchedPolicy::Fifo { .. } => {
                    // RT preempts as soon as preemption is re-enabled.
                    let at = preemptible.min(bg_end).max(ready);
                    breakdown.np_wait = at.saturating_since(ready);
                    breakdown.fixed_costs = self.costs.ctx_switch;
                    at + self.costs.ctx_switch
                }
                SchedPolicy::Fair { .. } => {
                    // CFS: preemption happens at a timer tick, and the
                    // wake-up-granularity heuristics can let the
                    // current task hold on for a few more ticks.
                    let first_tick = self.next_tick(cpu, ready);
                    let extra_ticks = {
                        let r = cfs_draw;
                        if r < 0.55 {
                            0
                        } else if r < 0.80 {
                            1
                        } else if r < 0.92 {
                            2
                        } else {
                            3
                        }
                    };
                    let tick_preempt = first_tick + self.tick_period(cpu) * extra_ticks;
                    // The burst may simply finish first; and a
                    // non-preemptible section can push past the tick.
                    let candidate = tick_preempt.min(bg_end).max(ready);
                    let at = bg.preemptible_at(candidate).min(bg_end).max(candidate);
                    breakdown.np_wait = at.saturating_since(candidate);
                    breakdown.cfs_preempt_wait = candidate.saturating_since(ready);
                    breakdown.fixed_costs = self.costs.ctx_switch;
                    at + self.costs.ctx_switch
                }
            }
        } else if state.io_busy_until > ready {
            // Another I/O task (the second fio thread of this logical
            // CPU in the paper's geometry) is mid-burst.
            let at = state.io_busy_until;
            breakdown.local_queue_wait = at.saturating_since(ready);
            breakdown.fixed_costs = self.costs.local_queue_ctx;
            at + self.costs.local_queue_ctx
        } else {
            // CPU idle: pay the C-state exit plus the wake path.
            let exit = self.cstate_exit(cpu, ready);
            breakdown.cstate_exit = exit;
            breakdown.fixed_costs = self.costs.wake_path;
            ready + exit + self.costs.wake_path
        };

        (run_start, breakdown)
    }

    /// Charges `work` of CPU time on `cpu` starting at `start`
    /// (returned by [`HostModel::wake_io_task`]); returns when the
    /// work completes, after hyper-thread and tick inflation.
    pub fn charge_cpu(&mut self, cpu: CpuId, start: SimTime, work: SimDuration) -> SimTime {
        let mut effective = work;
        if self.sibling_busy(cpu, start) {
            effective = scale(effective, self.costs.ht_slowdown);
        }
        let ticks = self.ticks_in(cpu, start, start + effective);
        effective += self.costs.tick_cost * ticks;
        let end = start + effective;
        self.stats.io_cpu_busy_ns += effective.as_nanos();

        let state = &mut self.cpus[cpu.0 as usize];
        state.io_busy_until = state.io_busy_until.max(end);
        state.last_busy_end = state.last_busy_end.max(end);
        if let Some(bg) = &mut state.bg {
            if bg.active_at(start) || bg.active_at(end) {
                bg.push_back(effective);
            }
        }
        end
    }

    /// Whether a background burst currently occupies `cpu` (test and
    /// experiment introspection).
    pub fn bg_active(&mut self, cpu: CpuId, now: SimTime) -> bool {
        self.sync(cpu, now);
        self.cpus[cpu.0 as usize]
            .bg
            .as_ref()
            .is_some_and(|b| b.active_at(now))
    }
}

impl std::fmt::Debug for HostModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostModel")
            .field("cpus", &self.cpus.len())
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}

fn scale(d: SimDuration, factor: f64) -> SimDuration {
    SimDuration::from_micros_f64(d.as_micros_f64() * factor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuSet;

    fn t_us(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::micros(n)
    }

    fn quiet_host(config: KernelConfig) -> HostModel {
        let mut h = HostModel::new(
            CpuTopology::xeon_e5_2690_v2_dual(),
            config,
            BackgroundConfig::silent(),
            7,
        );
        let designated: Vec<CpuId> = (0..64u16).map(|d| CpuId(4 + d % 32)).collect();
        h.init_vectors(designated, 7);
        h
    }

    #[test]
    fn idle_wake_costs_cstate_plus_wake_path() {
        let mut h = quiet_host(KernelConfig::stock());
        // Long idle → deep C-state expected after EMA settles.
        let mut t = t_us(0);
        for _ in 0..20 {
            let (start, _) = h.wake_io_task(CpuId(4), t, SchedPolicy::default_fair());
            h.charge_cpu(CpuId(4), start, SimDuration::micros(2));
            t += SimDuration::millis(10);
        }
        let (start, bd) = h.wake_io_task(CpuId(4), t, SchedPolicy::default_fair());
        assert!(bd.cstate_exit >= SimDuration::micros(30), "{bd:?}");
        assert!(start > t);
    }

    #[test]
    fn poll_idle_wakes_instantly() {
        let io = CpuSet::from_range(4, 19).union(CpuSet::from_range(24, 39));
        let mut h = quiet_host(KernelConfig::isolated(io));
        let (start, bd) = h.wake_io_task(CpuId(4), t_us(100), SchedPolicy::chrt_fifo_99());
        assert_eq!(bd.cstate_exit, SimDuration::ZERO);
        assert_eq!(start, t_us(100) + h.costs().wake_path);
    }

    #[test]
    fn short_idle_uses_shallow_cstate() {
        let mut h = quiet_host(KernelConfig::stock());
        let cpu = CpuId(5);
        // Train the EMA with ~25 µs idles (the QD1 cycle).
        let mut t = SimTime::ZERO;
        for _ in 0..50 {
            let (start, _) = h.wake_io_task(cpu, t, SchedPolicy::default_fair());
            let end = h.charge_cpu(cpu, start, SimDuration::micros(2));
            t = end + SimDuration::micros(25);
        }
        let (_, bd) = h.wake_io_task(cpu, t, SchedPolicy::default_fair());
        assert!(
            bd.cstate_exit <= SimDuration::micros(2),
            "expected C1-class exit, got {:?}",
            bd.cstate_exit
        );
    }

    #[test]
    fn max_cstate_1_caps_exit_latency() {
        let cfg = KernelConfig {
            idle: IdlePolicy::CStates { max_cstate: 1 },
            ..KernelConfig::stock()
        };
        let mut h = quiet_host(cfg);
        let (_, bd) = h.wake_io_task(CpuId(4), t_us(100_000), SchedPolicy::default_fair());
        assert!(bd.cstate_exit <= SimDuration::micros(2), "{bd:?}");
    }

    #[test]
    fn local_queueing_behind_other_io_task() {
        let mut h = quiet_host(KernelConfig::stock());
        let cpu = CpuId(4);
        let (s1, _) = h.wake_io_task(cpu, t_us(10), SchedPolicy::default_fair());
        let end1 = h.charge_cpu(cpu, s1, SimDuration::micros(5));
        // Second task wakes while the first still runs.
        let (s2, bd) = h.wake_io_task(cpu, s1, SchedPolicy::default_fair());
        assert!(s2 >= end1);
        assert!(bd.local_queue_wait > SimDuration::ZERO);
    }

    #[test]
    fn rt_preempts_background_fast() {
        let mut h = HostModel::new(
            CpuTopology::xeon_e5_2690_v2_dual(),
            KernelConfig::stock(),
            BackgroundConfig::centos7_desktop(),
            11,
        );
        h.init_vectors(vec![CpuId(4)], 11);
        // Force a burst onto cpu(4): spawn until it lands there.
        let mut spawned_on_4 = false;
        let mut t = SimTime::ZERO;
        for _ in 0..5_000 {
            h.spawn_background(t);
            if h.bg_active(CpuId(4), t) {
                spawned_on_4 = true;
                break;
            }
            t += SimDuration::micros(50);
        }
        assert!(spawned_on_4, "no burst landed on cpu(4)");
        let (start, bd) = h.wake_io_task(CpuId(4), t, SchedPolicy::chrt_fifo_99());
        let delay = start.saturating_since(t);
        // RT delay is bounded by the np cap + context switch.
        assert!(
            delay <= SimDuration::micros(503),
            "RT wake delayed {delay} ({bd:?})"
        );
    }

    #[test]
    fn cfs_waits_for_tick_granularity() {
        let mut h = HostModel::new(
            CpuTopology::xeon_e5_2690_v2_dual(),
            KernelConfig::stock(),
            BackgroundConfig::centos7_desktop(),
            13,
        );
        h.init_vectors(vec![CpuId(4)], 13);
        // Find a long burst on cpu(4).
        let mut t = SimTime::ZERO;
        let mut max_delay = SimDuration::ZERO;
        let mut hits = 0;
        for _ in 0..20_000 {
            h.spawn_background(t);
            if h.bg_active(CpuId(4), t) {
                let (start, _) = h.wake_io_task(CpuId(4), t, SchedPolicy::default_fair());
                max_delay = max_delay.max(start.saturating_since(t));
                hits += 1;
            }
            t += SimDuration::micros(200);
        }
        assert!(hits > 5, "no busy wake-ups sampled");
        assert!(
            max_delay >= SimDuration::micros(300),
            "CFS delays too small: {max_delay}"
        );
        assert!(
            max_delay <= SimDuration::millis(6),
            "CFS delays unbounded: {max_delay}"
        );
    }

    #[test]
    fn isolcpus_excludes_io_cpus_from_placement() {
        let io = CpuSet::from_range(4, 19).union(CpuSet::from_range(24, 39));
        let mut h = HostModel::new(
            CpuTopology::xeon_e5_2690_v2_dual(),
            KernelConfig::isolated(io),
            BackgroundConfig::centos7_desktop(),
            17,
        );
        h.init_vectors(vec![CpuId(4)], 17);
        let mut t = SimTime::ZERO;
        for _ in 0..10_000 {
            h.spawn_background(t);
            t += SimDuration::micros(100);
        }
        for cpu in io.iter() {
            assert_eq!(
                h.stats().bg_per_cpu[cpu.0 as usize],
                0,
                "background landed on isolated {cpu}"
            );
        }
        assert!(h.stats().bg_bursts > 1_000);
    }

    #[test]
    fn default_placement_lands_on_io_cpus() {
        let mut h = HostModel::new(
            CpuTopology::xeon_e5_2690_v2_dual(),
            KernelConfig::stock(),
            BackgroundConfig::centos7_desktop(),
            19,
        );
        h.init_vectors(vec![CpuId(4)], 19);
        let mut t = SimTime::ZERO;
        for _ in 0..5_000 {
            h.spawn_background(t);
            t += SimDuration::micros(500);
        }
        let on_io: u64 = (4..20).chain(24..40).map(|c| h.stats().bg_per_cpu[c]).sum();
        let total = h.stats().bg_bursts;
        assert!(
            on_io as f64 > total as f64 * 0.5,
            "only {on_io}/{total} bursts on the fio CPUs"
        );
    }

    #[test]
    fn pinned_irqs_are_never_remote() {
        let io = CpuSet::from_range(4, 19).union(CpuSet::from_range(24, 39));
        let mut h = HostModel::new(
            CpuTopology::xeon_e5_2690_v2_dual(),
            KernelConfig::isolated_pinned_irq(io),
            BackgroundConfig::silent(),
            23,
        );
        let designated: Vec<CpuId> = (0..64u16).map(|d| CpuId(4 + d % 32)).collect();
        h.init_vectors(designated.clone(), 23);
        for (d, &cpu) in designated.iter().enumerate() {
            let out = h.deliver_irq(d, t_us(d as u64 * 10));
            assert_eq!(out.delivery.vector_cpu, cpu);
            assert!(!out.delivery.remote);
            assert_eq!(out.wake_ready, out.handler_done);
        }
        assert_eq!(h.stats().remote_irqs, 0);
    }

    #[test]
    fn balanced_irqs_pay_remote_costs() {
        let mut h = quiet_host(KernelConfig::stock());
        let mut local_done = Vec::new();
        let mut remote_gap = Vec::new();
        for d in 0..64 {
            let now = t_us(d as u64 * 100);
            let out = h.deliver_irq(d, now);
            if out.delivery.remote {
                remote_gap.push(out.wake_ready.saturating_since(out.handler_done));
            } else {
                local_done.push(out);
            }
        }
        assert!(!remote_gap.is_empty());
        for gap in remote_gap {
            assert!(gap >= SimDuration::micros(2), "IPI too cheap: {gap}");
        }
    }

    #[test]
    fn ht_contention_inflates_work() {
        let mut h = quiet_host(KernelConfig::stock());
        let cpu = CpuId(4);
        let sib = CpuId(24);
        // Keep the sibling busy.
        let (s, _) = h.wake_io_task(sib, t_us(10), SchedPolicy::default_fair());
        h.charge_cpu(sib, s, SimDuration::micros(100));
        let (s2, _) = h.wake_io_task(cpu, t_us(20), SchedPolicy::default_fair());
        let end = h.charge_cpu(cpu, s2, SimDuration::micros(10));
        let effective = end.saturating_since(s2);
        assert!(
            effective >= SimDuration::from_micros_f64(14.0),
            "HT slowdown missing: {effective}"
        );
    }

    #[test]
    fn tick_interruptions_add_cost() {
        let mut h = quiet_host(KernelConfig::stock());
        let cpu = CpuId(4);
        // A 3 ms run on a 1 kHz CPU crosses ~3 ticks.
        let (s, _) = h.wake_io_task(cpu, t_us(10), SchedPolicy::default_fair());
        let end = h.charge_cpu(cpu, s, SimDuration::millis(3));
        let inflated = end.saturating_since(s) - SimDuration::millis(3);
        assert!(
            inflated >= SimDuration::micros(3),
            "expected ≥3 tick costs, got {inflated}"
        );
    }

    #[test]
    fn nohz_full_removes_tick_noise() {
        let io = CpuSet::from_range(4, 19).union(CpuSet::from_range(24, 39));
        let mut h = quiet_host(KernelConfig::isolated(io));
        let cpu = CpuId(4);
        let (s, _) = h.wake_io_task(cpu, t_us(10), SchedPolicy::chrt_fifo_99());
        let end = h.charge_cpu(cpu, s, SimDuration::millis(3));
        let inflated = end.saturating_since(s) - SimDuration::millis(3);
        assert!(
            inflated <= SimDuration::micros(2),
            "nohz CPU still ticking: {inflated}"
        );
    }

    #[test]
    fn rcu_windows_absent_with_nocbs_present_without() {
        let io = CpuSet::from_range(4, 19).union(CpuSet::from_range(24, 39));
        let mut offloaded = quiet_host(KernelConfig::isolated(io));
        let cfg_no_offload = KernelConfig {
            rcu_nocbs: CpuSet::EMPTY,
            ..KernelConfig::isolated(io)
        };
        let mut plain = quiet_host(cfg_no_offload);
        // Scan a window of wake-ups; only the non-offloaded host may
        // record softirq hits.
        for us in 0..20_000u64 {
            let t = t_us(us);
            let _ = offloaded.wake_io_task(CpuId(4), t, SchedPolicy::chrt_fifo_99());
            let _ = plain.wake_io_task(CpuId(4), t, SchedPolicy::chrt_fifo_99());
        }
        assert_eq!(offloaded.stats().rcu_softirq_hits, 0);
        assert!(
            plain.stats().rcu_softirq_hits > 0,
            "expected softirq hits without rcu_nocbs"
        );
    }

    /// A busy report reaches the hub's placement view exactly at its
    /// `visible_at`: one nanosecond earlier the decision still sees the
    /// CPU as it was. Only CPUs 4 and 5 are placeable, and the
    /// IoAggressive profile prefers CPUs free of I/O for 5 ms. CPU 5
    /// ran I/O until just before, so it is idle but never quiet; CPU 4
    /// is quiet until its report lands and busy after. Either way a
    /// decision sees the report, it has exactly one candidate.
    #[test]
    fn busy_reports_become_visible_at_their_arrival() {
        let config = KernelConfig {
            isolcpus: CpuSet::from_range(0, 3).union(CpuSet::from_range(6, 39)),
            sched_profile: SchedProfile::IoAggressive,
            ..KernelConfig::stock()
        };
        let mut h = quiet_host(config);
        let visible_at = t_us(10_000);
        let recent = visible_at - SimDuration::micros(1);
        h.note_io_busy(CpuId(5), recent, SimTime::ZERO, SimTime::ZERO);
        h.note_io_busy(CpuId(4), t_us(1_000_000), recent, visible_at);
        let before = visible_at - SimDuration::nanos(1);
        let early = h
            .decide_background_remote(before, before)
            .expect("allowed CPUs");
        assert_eq!(early.cpu, CpuId(4), "report seen before it arrived");
        let on_time = h
            .decide_background_remote(visible_at, visible_at)
            .expect("allowed CPUs");
        assert_eq!(on_time.cpu, CpuId(5), "report not seen when it arrived");
    }

    #[test]
    fn cpu_busy_accounting_accumulates() {
        let mut h = quiet_host(KernelConfig::stock());
        let before = h.stats().io_cpu_busy_ns;
        let (s, _) = h.wake_io_task(CpuId(4), t_us(10), SchedPolicy::default_fair());
        h.charge_cpu(CpuId(4), s, SimDuration::micros(5));
        assert!(h.stats().io_cpu_busy_ns >= before + 5_000);
    }

    #[test]
    fn wake_breakdown_sums_to_total() {
        let mut h = HostModel::new(
            CpuTopology::xeon_e5_2690_v2_dual(),
            KernelConfig::stock(),
            BackgroundConfig::centos7_desktop(),
            29,
        );
        h.init_vectors(vec![CpuId(4)], 29);
        let mut t = SimTime::ZERO;
        for i in 0..2_000u64 {
            h.spawn_background(t);
            let cpu = CpuId(4 + (i % 32) as u16);
            let (start, bd) = h.wake_io_task(cpu, t, SchedPolicy::default_fair());
            let total = start.saturating_since(t);
            let sum = bd.total();
            assert!(
                total <= sum + SimDuration::nanos(1) && sum <= total + SimDuration::nanos(1),
                "breakdown {sum} vs actual {total}"
            );
            h.charge_cpu(cpu, start, SimDuration::micros(2));
            t += SimDuration::micros(137);
        }
    }
}
