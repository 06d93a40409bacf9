//! Cause-attribution trace hooks.
//!
//! The paper root-causes tail-latency samples with LTTng. The simulated
//! analogue is a [`TraceSink`] that components notify whenever a latency
//! contribution is incurred, tagged with a [`Cause`]. Experiments can
//! install a [`CauseAccumulator`] to obtain a per-cause latency budget,
//! or [`NullSink`] (the default) to pay nothing.

use std::collections::BTreeMap;

use crate::time::{SimDuration, SimTime};

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

/// Receives latency attributions as the simulation runs.
pub trait TraceSink {
    /// Records that `amount` of latency attributed to `cause` was
    /// incurred at `time` (e.g. by I/O tracked under `tag`).
    fn record(&mut self, time: SimTime, tag: u64, cause: Cause, amount: SimDuration);
}

/// A sink that discards everything; the zero-overhead default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _time: SimTime, _tag: u64, _cause: Cause, _amount: SimDuration) {}
}

/// Accumulates total latency per cause — the simulated analogue of an
/// LTTng post-processing pass.
///
/// # Example
///
/// ```
/// use afa_sim::trace::{Cause, CauseAccumulator, TraceSink};
/// use afa_sim::{SimDuration, SimTime};
///
/// let mut acc = CauseAccumulator::new();
/// acc.record(SimTime::ZERO, 0, Cause::DeviceService, SimDuration::micros(20));
/// acc.record(SimTime::ZERO, 0, Cause::SchedulerDelay, SimDuration::micros(900));
/// assert_eq!(acc.dominant(), Some(Cause::SchedulerDelay));
/// ```
#[derive(Clone, Debug, Default)]
pub struct CauseAccumulator {
    totals: BTreeMap<Cause, SimDuration>,
    counts: BTreeMap<Cause, u64>,
}

impl CauseAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total latency attributed to `cause` so far.
    pub fn total(&self, cause: Cause) -> SimDuration {
        self.totals
            .get(&cause)
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Number of attributions recorded for `cause`.
    pub fn count(&self, cause: Cause) -> u64 {
        self.counts.get(&cause).copied().unwrap_or(0)
    }

    /// The cause with the largest accumulated latency, if any.
    pub fn dominant(&self) -> Option<Cause> {
        self.totals.iter().max_by_key(|&(_, d)| *d).map(|(&c, _)| c)
    }

    /// Iterates over `(cause, total, count)` triples in cause order.
    pub fn iter(&self) -> impl Iterator<Item = (Cause, SimDuration, u64)> + '_ {
        self.totals
            .iter()
            .map(move |(&c, &d)| (c, d, self.count(c)))
    }

    /// Adds a pre-aggregated contribution: `total` latency over
    /// `events` attribution events. This is how settled per-I/O
    /// ledgers fold into the run-wide budget — equivalent to `events`
    /// individual [`TraceSink::record`] calls summing to `total`.
    pub fn add(&mut self, cause: Cause, total: SimDuration, events: u64) {
        if events == 0 && total.is_zero() {
            return;
        }
        *self.totals.entry(cause).or_insert(SimDuration::ZERO) += total;
        *self.counts.entry(cause).or_insert(0) += events;
    }

    /// Folds another accumulator's attributions into this one (used to
    /// aggregate budgets across parallel runs).
    pub fn merge(&mut self, other: &CauseAccumulator) {
        for (cause, total, count) in other.iter() {
            *self.totals.entry(cause).or_insert(SimDuration::ZERO) += total;
            *self.counts.entry(cause).or_insert(0) += count;
        }
    }

    /// A frozen snapshot of the per-cause budget, for run manifests.
    pub fn budget(&self) -> CauseBudget {
        CauseBudget {
            rows: self.iter().collect(),
        }
    }
}

/// An immutable per-cause latency budget captured from one run — the
/// manifest-friendly snapshot of a [`CauseAccumulator`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CauseBudget {
    rows: Vec<(Cause, SimDuration, u64)>,
}

impl CauseBudget {
    /// `(cause, total, events)` rows in cause order.
    pub fn rows(&self) -> &[(Cause, SimDuration, u64)] {
        &self.rows
    }

    /// Total attributed latency across all causes.
    pub fn total(&self) -> SimDuration {
        self.rows
            .iter()
            .fold(SimDuration::ZERO, |acc, &(_, d, _)| acc + d)
    }

    /// Whether any attribution was captured.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl TraceSink for CauseAccumulator {
    fn record(&mut self, _time: SimTime, _tag: u64, cause: Cause, amount: SimDuration) {
        *self.totals.entry(cause).or_insert(SimDuration::ZERO) += amount;
        *self.counts.entry(cause).or_insert(0) += 1;
    }
}

/// Lifecycle phase of a *client request* in the frontend serving
/// layer — the request-level analogue of the per-I/O `IoStage` path.
///
/// A request is born at `Arrive`, passes admission (`Admit`) or is
/// dropped (`Shed`), waits in its tenant queue until `Dispatch` fans
/// it out into sub-I/Os, may spawn a duplicate straggler sub-I/O
/// (`HedgeFire`), and settles at `Complete`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RequestPhase {
    /// Open-loop arrival hit the frontend.
    Arrive,
    /// Passed the token bucket and entered the tenant queue.
    Admit,
    /// Rejected (rate-limited or queue overflow).
    Shed,
    /// Dequeued by the QoS scheduler and fanned out into sub-I/Os.
    Dispatch,
    /// A hedged duplicate of the straggler sub-I/O was issued.
    HedgeFire,
    /// The last sub-I/O settled and the client was woken.
    Complete,
}

impl RequestPhase {
    /// A short, stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            RequestPhase::Arrive => "arrive",
            RequestPhase::Admit => "admit",
            RequestPhase::Shed => "shed",
            RequestPhase::Dispatch => "dispatch",
            RequestPhase::HedgeFire => "hedge_fire",
            RequestPhase::Complete => "complete",
        }
    }
}

/// One per-request trace event: `(time, request id, tenant, phase)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestEvent {
    /// Simulation time of the transition.
    pub at: SimTime,
    /// Frontend-assigned request id.
    pub request: u64,
    /// Tenant the request belongs to.
    pub tenant: u16,
    /// The lifecycle transition.
    pub phase: RequestPhase,
}

/// Bounded in-order capture of [`RequestEvent`]s (the request-level
/// sibling of the blktrace-style per-I/O stage records).
#[derive(Clone, Debug, Default)]
pub struct RequestLog {
    events: Vec<RequestEvent>,
    capacity: usize,
}

impl RequestLog {
    /// Creates a log keeping at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RequestLog {
            events: Vec::with_capacity(capacity.min(1 << 16)),
            capacity,
        }
    }

    /// Records one event; silently dropped once the window is full.
    pub fn push(&mut self, event: RequestEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        }
    }

    /// The captured events, in record order.
    pub fn events(&self) -> &[RequestEvent] {
        &self.events
    }

    /// Events for one request, in record order.
    pub fn for_request(&self, request: u64) -> impl Iterator<Item = &RequestEvent> + '_ {
        self.events.iter().filter(move |e| e.request == request)
    }
}

/// A past-time schedule observed by a driver: the clock stood at
/// `now` when an event was requested for `requested` (< `now`). The
/// event is clamped to `now` and counted; a healthy model never
/// produces these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PastSchedule {
    /// The simulation clock when the offending schedule happened.
    pub now: SimTime,
    /// The (past) instant the event asked for.
    pub requested: SimTime,
}

type PastScheduleHook = Box<dyn Fn(PastSchedule) + Send + Sync>;

static PAST_SCHEDULE_HOOK: std::sync::Mutex<Option<PastScheduleHook>> = std::sync::Mutex::new(None);

/// Installs (or, with `None`, removes) the process-wide hook invoked on
/// every clamped past-time schedule. With no hook installed the event
/// is counted silently — drivers never write to stderr themselves, so
/// concurrent runs cannot interleave garbage. Returns the previous
/// hook.
pub fn set_past_schedule_hook(hook: Option<PastScheduleHook>) -> Option<PastScheduleHook> {
    let mut slot = PAST_SCHEDULE_HOOK.lock().expect("hook lock");
    std::mem::replace(&mut *slot, hook)
}

/// Reports one clamped past-time schedule to the installed hook, if
/// any. Called by the drivers; the hot path never takes the lock
/// because schedules into the past do not happen in a healthy model.
pub fn note_past_schedule(now: SimTime, requested: SimTime) {
    if let Ok(slot) = PAST_SCHEDULE_HOOK.lock() {
        if let Some(hook) = slot.as_ref() {
            hook(PastSchedule { now, requested });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_sums_and_counts() {
        let mut acc = CauseAccumulator::new();
        acc.record(SimTime::ZERO, 1, Cause::Fabric, SimDuration::micros(2));
        acc.record(SimTime::ZERO, 2, Cause::Fabric, SimDuration::micros(3));
        acc.record(
            SimTime::ZERO,
            3,
            Cause::Housekeeping,
            SimDuration::micros(500),
        );
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
    fn null_sink_is_noop() {
        let mut sink = NullSink;
        sink.record(SimTime::ZERO, 0, Cause::Other, SimDuration::micros(1));
    }

    #[test]
    fn iter_lists_recorded_causes() {
        let mut acc = CauseAccumulator::new();
        acc.record(SimTime::ZERO, 0, Cause::CpuWork, SimDuration::micros(1));
        let items: Vec<_> = acc.iter().collect();
        assert_eq!(items, vec![(Cause::CpuWork, SimDuration::micros(1), 1)]);
    }

    #[test]
    fn indices_match_declaration_order() {
        assert_eq!(Cause::COUNT, Cause::ALL.len());
        for (i, cause) in Cause::ALL.iter().enumerate() {
            assert_eq!(cause.index(), i, "{cause} out of order");
        }
    }

    #[test]
    fn add_is_equivalent_to_individual_records() {
        let mut by_record = CauseAccumulator::new();
        by_record.record(SimTime::ZERO, 0, Cause::Fabric, SimDuration::micros(2));
        by_record.record(SimTime::ZERO, 1, Cause::Fabric, SimDuration::micros(3));
        let mut by_add = CauseAccumulator::new();
        by_add.add(Cause::Fabric, SimDuration::micros(5), 2);
        by_add.add(Cause::CpuWork, SimDuration::ZERO, 0); // no-op
        assert_eq!(
            by_record.iter().collect::<Vec<_>>(),
            by_add.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn merge_sums_totals_and_counts() {
        let mut a = CauseAccumulator::new();
        let mut b = CauseAccumulator::new();
        a.record(SimTime::ZERO, 0, Cause::Fabric, SimDuration::micros(2));
        b.record(SimTime::ZERO, 1, Cause::Fabric, SimDuration::micros(3));
        b.record(SimTime::ZERO, 2, Cause::CpuWork, SimDuration::micros(1));
        a.merge(&b);
        assert_eq!(a.total(Cause::Fabric), SimDuration::micros(5));
        assert_eq!(a.count(Cause::Fabric), 2);
        assert_eq!(a.count(Cause::CpuWork), 1);
    }

    #[test]
    fn request_log_caps_and_filters() {
        let mut log = RequestLog::new(3);
        for (i, phase) in [
            RequestPhase::Arrive,
            RequestPhase::Admit,
            RequestPhase::Dispatch,
            RequestPhase::Complete,
        ]
        .into_iter()
        .enumerate()
        {
            log.push(RequestEvent {
                at: SimTime::from_nanos(i as u64 * 10),
                request: (i % 2) as u64,
                tenant: 0,
                phase,
            });
        }
        assert_eq!(log.events().len(), 3, "capacity bounds the window");
        assert_eq!(log.for_request(0).count(), 2);
        assert_eq!(log.events()[2].phase, RequestPhase::Dispatch);
        assert_eq!(RequestPhase::HedgeFire.label(), "hedge_fire");
    }

    #[test]
    fn budget_snapshot_matches_accumulator() {
        let mut acc = CauseAccumulator::new();
        acc.record(SimTime::ZERO, 0, Cause::Fabric, SimDuration::micros(2));
        acc.record(
            SimTime::ZERO,
            1,
            Cause::Housekeeping,
            SimDuration::micros(7),
        );
        let budget = acc.budget();
        assert_eq!(budget.rows().len(), 2);
        assert_eq!(budget.total(), SimDuration::micros(9));
        assert!(!budget.is_empty());
        assert!(CauseBudget::default().is_empty());
    }
}
