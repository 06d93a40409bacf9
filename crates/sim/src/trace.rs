//! Cause attribution.
//!
//! The paper root-causes tail-latency samples with LTTng. In the
//! simulation every slice of an I/O's latency is tagged with a
//! [`Cause`] in that I/O's ledger, and the ledgers a run settles fold
//! into one [`CauseAccumulator`]: the run's per-cause latency budget.

use crate::time::SimDuration;

/// Why a slice of latency was incurred on an I/O's critical path.
///
/// The variants mirror the interference sources the paper identifies in
/// §IV: scheduler displacement, C-state exits, IRQ misrouting, fabric
/// transfer time, device service time, and firmware housekeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cause {
    /// Time spent executing on a CPU (submit/complete syscall paths).
    CpuWork,
    /// Waiting for the scheduler to run a runnable task (preemption
    /// delay from CPU-bound interference; §IV-B/§IV-C).
    SchedulerDelay,
    /// Waiting for a CPU to exit an idle C-state.
    CStateExit,
    /// Context-switch cost.
    ContextSwitch,
    /// Hardware interrupt dispatch and handler execution.
    IrqHandling,
    /// Extra cost because the completion interrupt fired on a CPU other
    /// than the submitter's (IPI + remote wake-up; §IV-D).
    RemoteCompletion,
    /// Cold-cache penalty after a migration or pollution event.
    CachePollution,
    /// Time on PCIe links and switches.
    Fabric,
    /// Time on the fleet network: RPC serialization, propagation and
    /// in-flight-window queueing between the frontend and an array
    /// (the inter-array analogue of [`Cause::Fabric`]).
    Network,
    /// Normal device service time (controller + flash).
    DeviceService,
    /// Device queueing behind other commands.
    DeviceQueueing,
    /// Stall behind a firmware housekeeping window (SMART; §IV-E).
    Housekeeping,
    /// Stall behind garbage collection (non-FOB extension).
    GarbageCollection,
    /// Waiting in the frontend serving layer (admission queue + QoS
    /// dequeue) before the request's sub-I/Os were dispatched.
    FrontendQueue,
    /// Hybrid-poll oversleep: the completion landed while the thread
    /// was still inside its timed sleep, so the residual sleep — not
    /// any hardware stage — is what the I/O waited on. This is the
    /// latency the hybrid model trades for giving the CPU back.
    PollSleep,
    /// Other / unattributed.
    Other,
}

impl Cause {
    /// Number of cause variants; sizes fixed per-cause tables such as
    /// the I/O ledger's `[SimDuration; Cause::COUNT]`.
    pub const COUNT: usize = Self::ALL.len();

    /// All cause variants, in display order.
    pub const ALL: [Cause; 16] = [
        Cause::CpuWork,
        Cause::SchedulerDelay,
        Cause::CStateExit,
        Cause::ContextSwitch,
        Cause::IrqHandling,
        Cause::RemoteCompletion,
        Cause::CachePollution,
        Cause::Fabric,
        Cause::Network,
        Cause::DeviceService,
        Cause::DeviceQueueing,
        Cause::Housekeeping,
        Cause::GarbageCollection,
        Cause::FrontendQueue,
        Cause::PollSleep,
        Cause::Other,
    ];

    /// The variant's position in [`Cause::ALL`] (declaration order) —
    /// the index used by fixed per-cause tables.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// A short, stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Cause::CpuWork => "cpu_work",
            Cause::SchedulerDelay => "sched_delay",
            Cause::CStateExit => "cstate_exit",
            Cause::ContextSwitch => "ctx_switch",
            Cause::IrqHandling => "irq",
            Cause::RemoteCompletion => "remote_completion",
            Cause::CachePollution => "cache_pollution",
            Cause::Fabric => "fabric",
            Cause::Network => "network",
            Cause::DeviceService => "device_service",
            Cause::DeviceQueueing => "device_queueing",
            Cause::Housekeeping => "housekeeping",
            Cause::GarbageCollection => "gc",
            Cause::FrontendQueue => "frontend_queue",
            Cause::PollSleep => "poll_sleep",
            Cause::Other => "other",
        }
    }
}

impl std::fmt::Display for Cause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Total latency and attribution events per cause: the run's cause
/// table, the simulated analogue of an LTTng post-processing pass.
///
/// A fixed, `Copy` table indexed by [`Cause::index`], so folding a
/// settled ledger is one add per cell and runs merge element-wise;
/// [`Counters::causes`](crate::metrics::Counters::causes) carries one
/// per run.
///
/// # Example
///
/// ```
/// use afa_sim::trace::{Cause, CauseAccumulator};
/// use afa_sim::SimDuration;
///
/// let mut acc = CauseAccumulator::new();
/// acc.add(Cause::DeviceService, SimDuration::micros(20), 1);
/// acc.add(Cause::SchedulerDelay, SimDuration::micros(900), 1);
/// assert_eq!(acc.dominant(), Some(Cause::SchedulerDelay));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CauseAccumulator {
    totals: [SimDuration; Cause::COUNT],
    counts: [u64; Cause::COUNT],
}

impl CauseAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total latency attributed to `cause` so far.
    pub fn total(&self, cause: Cause) -> SimDuration {
        self.totals[cause.index()]
    }

    /// Number of attribution events recorded for `cause`.
    pub fn count(&self, cause: Cause) -> u64 {
        self.counts[cause.index()]
    }

    /// The cause with the largest accumulated latency, if any (the
    /// last in cause order on a tie).
    pub fn dominant(&self) -> Option<Cause> {
        self.iter().max_by_key(|&(_, d, _)| d).map(|(c, _, _)| c)
    }

    /// Iterates over `(cause, total, count)` triples in cause order,
    /// skipping causes nothing was attributed to.
    pub fn iter(&self) -> impl Iterator<Item = (Cause, SimDuration, u64)> + '_ {
        Cause::ALL.iter().filter_map(move |&c| {
            let (d, n) = (self.total(c), self.count(c));
            (n > 0 || !d.is_zero()).then_some((c, d, n))
        })
    }

    /// Adds `total` latency over `events` attribution events to
    /// `cause`. Adding zero to both changes nothing, so a settled
    /// ledger folds in with one unconditional add per cause.
    #[inline]
    pub fn add(&mut self, cause: Cause, total: SimDuration, events: u64) {
        self.totals[cause.index()] += total;
        self.counts[cause.index()] += events;
    }

    /// Folds another accumulator's attributions into this one (used to
    /// sum the cause tables of several runs).
    pub fn merge(&mut self, other: &CauseAccumulator) {
        for cause in Cause::ALL {
            self.add(cause, other.total(cause), other.count(cause));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_sums_and_counts() {
        let mut acc = CauseAccumulator::new();
        acc.add(Cause::Fabric, SimDuration::micros(2), 1);
        acc.add(Cause::Fabric, SimDuration::micros(3), 1);
        acc.add(Cause::Housekeeping, SimDuration::micros(500), 1);
        assert_eq!(acc.total(Cause::Fabric), SimDuration::micros(5));
        assert_eq!(acc.count(Cause::Fabric), 2);
        assert_eq!(acc.total(Cause::CpuWork), SimDuration::ZERO);
        assert_eq!(acc.dominant(), Some(Cause::Housekeeping));
    }

    #[test]
    fn empty_accumulator_has_no_dominant() {
        assert_eq!(CauseAccumulator::new().dominant(), None);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = Cause::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Cause::ALL.len());
    }

    #[test]
    fn iter_lists_only_attributed_causes() {
        let mut acc = CauseAccumulator::new();
        acc.add(Cause::CpuWork, SimDuration::micros(1), 1);
        // Zero time over zero events attributes nothing.
        acc.add(Cause::Fabric, SimDuration::ZERO, 0);
        // Zero time over one event still counts the event.
        acc.add(Cause::Other, SimDuration::ZERO, 1);
        let items: Vec<_> = acc.iter().collect();
        assert_eq!(
            items,
            vec![
                (Cause::CpuWork, SimDuration::micros(1), 1),
                (Cause::Other, SimDuration::ZERO, 1)
            ]
        );
    }

    #[test]
    fn indices_match_declaration_order() {
        assert_eq!(Cause::COUNT, Cause::ALL.len());
        for (i, cause) in Cause::ALL.iter().enumerate() {
            assert_eq!(cause.index(), i, "{cause} out of order");
        }
    }

    #[test]
    fn merge_sums_totals_and_counts() {
        let mut a = CauseAccumulator::new();
        let mut b = CauseAccumulator::new();
        a.add(Cause::Fabric, SimDuration::micros(2), 1);
        b.add(Cause::Fabric, SimDuration::micros(3), 1);
        b.add(Cause::CpuWork, SimDuration::micros(1), 1);
        a.merge(&b);
        assert_eq!(a.total(Cause::Fabric), SimDuration::micros(5));
        assert_eq!(a.count(Cause::Fabric), 2);
        assert_eq!(a.count(Cause::CpuWork), 1);
    }
}
