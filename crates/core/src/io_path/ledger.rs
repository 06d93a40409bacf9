//! The per-I/O ledger: one fixed-size account of where an I/O's time
//! went.
//!
//! Every stage of the I/O path writes its timing contribution into the
//! [`IoLedger`] it is handed — the ledger is the *only* instrumentation
//! channel. At completion every settled ledger folds into the run's
//! cause table (a [`CauseAccumulator`], flushed with the run's
//! counters as its manifest budget), and blktrace-style stage traces
//! ([`TraceRecorder`]) are flushed from it inside their capture
//! window; nothing on the hot path touches either directly.
//!
//! The ledger is `Copy`, heap-free and slab-allocated (see the world's
//! meta slab), so threading it through the path costs a fixed-size
//! write per stage and no allocation per I/O.

use afa_sim::trace::{Cause, CauseAccumulator};
use afa_sim::{SimDuration, SimTime};

use crate::blktrace::{IoStage, TraceRecorder};

/// Sentinel for "not inside the blktrace window".
const NO_TRACE: u32 = u32::MAX;

/// Slot of a stage in the stamps array ([`IoStage`] path order).
const fn stage_slot(stage: IoStage) -> usize {
    match stage {
        IoStage::Queue => 0,
        IoStage::Dispatch => 1,
        IoStage::DeviceComplete => 2,
        IoStage::IrqHandled => 3,
        IoStage::Reaped => 4,
    }
}

/// Per-I/O timing account: a fixed per-[`Cause`] table plus the five
/// [`IoStage`] timestamps.
///
/// Stages report contributions through two verbs:
///
/// * [`IoLedger::credit`] — a *closed* contribution: the stage knows
///   the final amount (e.g. the wake-up breakdown). Each non-zero
///   credit counts as one attribution event.
/// * [`IoLedger::accrue`] — an *open* contribution that later legs of
///   the same cause may extend (e.g. the fabric down-leg accrued at
///   submit, extended by the up-leg at device completion).
///
/// [`IoLedger::settle`] closes all open accruals (each becomes one
/// attribution event); a settled ledger flushes into the derived views.
#[derive(Clone, Copy, Debug)]
pub struct IoLedger {
    causes: [SimDuration; Cause::COUNT],
    /// Attribution-event counts per cause (how many closed
    /// contributions the cause received).
    credits: [u8; Cause::COUNT],
    stamps: [SimTime; 5],
    /// Portion of [`Cause::CpuWork`] spent before the I/O's latency
    /// clock started (the submit syscall runs before the doorbell
    /// ring that `issued_at` marks).
    pre_issue: SimDuration,
    trace_id: u32,
}

impl IoLedger {
    /// Opens a ledger for an I/O queued at `queued_at`.
    pub fn begin(queued_at: SimTime) -> Self {
        let mut stamps = [SimTime::ZERO; 5];
        stamps[stage_slot(IoStage::Queue)] = queued_at;
        IoLedger {
            causes: [SimDuration::ZERO; Cause::COUNT],
            credits: [0; Cause::COUNT],
            stamps,
            pre_issue: SimDuration::ZERO,
            trace_id: NO_TRACE,
        }
    }

    /// Links this I/O to a [`TraceRecorder`] slot (when inside the
    /// blktrace window).
    pub(crate) fn set_trace(&mut self, id: Option<usize>) {
        self.trace_id = id.map_or(NO_TRACE, |id| id as u32);
    }

    /// The linked trace slot, if any.
    pub(crate) fn trace_id(&self) -> Option<usize> {
        (self.trace_id != NO_TRACE).then_some(self.trace_id as usize)
    }

    /// Adds a closed contribution: one attribution event when
    /// non-zero.
    pub fn credit(&mut self, cause: Cause, amount: SimDuration) {
        if amount.is_zero() {
            return;
        }
        self.causes[cause.index()] += amount;
        self.credits[cause.index()] = self.credits[cause.index()].saturating_add(1);
    }

    /// Adds an open contribution that [`IoLedger::settle`] will close.
    pub fn accrue(&mut self, cause: Cause, amount: SimDuration) {
        self.causes[cause.index()] += amount;
    }

    /// Marks `amount` of the CPU work as spent before the latency
    /// clock started (see [`IoLedger::pre_issue`]).
    pub(crate) fn note_pre_issue(&mut self, amount: SimDuration) {
        self.pre_issue += amount;
    }

    /// Closes all open accruals: any cause with time but no
    /// attribution events becomes a single event.
    pub fn settle(&mut self) {
        for i in 0..Cause::COUNT {
            if self.credits[i] == 0 && !self.causes[i].is_zero() {
                self.credits[i] = 1;
            }
        }
    }

    /// Time attributed to `cause` so far.
    pub fn amount(&self, cause: Cause) -> SimDuration {
        self.causes[cause.index()]
    }

    /// Sum over all causes.
    pub fn total(&self) -> SimDuration {
        self.causes
            .iter()
            .fold(SimDuration::ZERO, |acc, &d| acc + d)
    }

    /// CPU work spent before the latency clock started (the submit
    /// syscall). `total() - pre_issue()` is the ledger's account of
    /// the measured completion latency.
    pub fn pre_issue(&self) -> SimDuration {
        self.pre_issue
    }

    /// Records a stage timestamp.
    pub fn stamp(&mut self, stage: IoStage, at: SimTime) {
        self.stamps[stage_slot(stage)] = at;
    }

    /// The recorded timestamp for `stage` (zero when not reached).
    pub fn stamp_at(&self, stage: IoStage) -> SimTime {
        self.stamps[stage_slot(stage)]
    }

    /// `(cause, total, events)` rows of the settled ledger, in cause
    /// order; causes with no contribution are skipped.
    pub fn rows(&self) -> impl Iterator<Item = (Cause, SimDuration, u64)> + '_ {
        Cause::ALL.iter().filter_map(move |&cause| {
            let i = cause.index();
            (self.credits[i] > 0 || !self.causes[i].is_zero()).then_some((
                cause,
                self.causes[i],
                u64::from(self.credits[i]),
            ))
        })
    }

    /// Folds the settled ledger into the run's cause table. After
    /// [`IoLedger::settle`] every cause with time has a credit, so the
    /// fold is an element-wise add: a cause the I/O never touched adds
    /// zero to both columns.
    pub(crate) fn flush_causes(&self, acc: &mut CauseAccumulator) {
        for cause in Cause::ALL {
            let i = cause.index();
            acc.add(cause, self.causes[i], u64::from(self.credits[i]));
        }
    }

    /// Writes the recorded stage timestamps to the I/O's trace slot
    /// (no-op outside the blktrace window). The Queue stamp was
    /// recorded by [`TraceRecorder::begin`]; skipped stages (zero
    /// stamps, e.g. the IRQ stage under polling) stay unset.
    pub(crate) fn flush_trace(&self, recorder: &mut TraceRecorder) {
        let Some(id) = self.trace_id() else {
            return;
        };
        for stage in [
            IoStage::Dispatch,
            IoStage::DeviceComplete,
            IoStage::IrqHandled,
            IoStage::Reaped,
        ] {
            let at = self.stamp_at(stage);
            if at != SimTime::ZERO {
                recorder.stamp(id, stage, at);
            }
        }
    }
}

/// One completed I/O captured by a [`LedgerLog`].
#[derive(Clone, Copy, Debug)]
pub struct CompletedIo {
    /// Job (and device) index the I/O belonged to.
    pub job: usize,
    /// Device the I/O targeted.
    pub device: usize,
    /// When the latency clock started (doorbell ring).
    pub issued_at: SimTime,
    /// When the thread reaped the completion.
    pub reaped_at: SimTime,
    /// The settled per-cause account.
    pub ledger: IoLedger,
}

impl CompletedIo {
    /// The measured completion latency (`reaped_at - issued_at`),
    /// exactly what the job's histogram recorded.
    pub fn latency(&self) -> SimDuration {
        self.reaped_at.saturating_since(self.issued_at)
    }
}

/// Captures the settled ledgers of the first `capacity` completed
/// I/Os of a run (enabled via `AfaConfig::with_ledger_log`).
#[derive(Clone, Debug)]
pub struct LedgerLog {
    entries: Vec<CompletedIo>,
    capacity: usize,
}

impl LedgerLog {
    /// Creates a log that keeps at most `capacity` I/Os.
    pub(crate) fn new(capacity: usize) -> Self {
        LedgerLog {
            entries: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
        }
    }

    /// Records a completed I/O; drops it once the window is full.
    pub(crate) fn push(&mut self, entry: CompletedIo) {
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
        }
    }

    /// The captured I/Os, in completion order.
    pub fn entries(&self) -> &[CompletedIo] {
        &self.entries
    }

    /// Stitches per-LP logs into one run-wide window: every worker LP
    /// captured its own first `capacity` completions, so the union is
    /// a superset of the global window — sort by completion instant
    /// (device as a deterministic tie-break) and keep the first
    /// `capacity`.
    pub(crate) fn merged(capacity: usize, parts: Vec<LedgerLog>) -> Self {
        let mut entries: Vec<CompletedIo> = parts.into_iter().flat_map(|p| p.entries).collect();
        entries.sort_by_key(|e| (e.reaped_at, e.device));
        entries.truncate(capacity);
        LedgerLog { entries, capacity }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credit_counts_only_nonzero() {
        let mut ledger = IoLedger::begin(SimTime::ZERO);
        ledger.credit(Cause::CpuWork, SimDuration::ZERO);
        ledger.credit(Cause::CpuWork, SimDuration::micros(2));
        ledger.credit(Cause::CpuWork, SimDuration::micros(3));
        let rows: Vec<_> = ledger.rows().collect();
        assert_eq!(rows, vec![(Cause::CpuWork, SimDuration::micros(5), 2)]);
    }

    #[test]
    fn settle_closes_open_accruals_once() {
        let mut ledger = IoLedger::begin(SimTime::ZERO);
        ledger.accrue(Cause::Fabric, SimDuration::micros(2));
        ledger.accrue(Cause::Fabric, SimDuration::micros(3));
        ledger.accrue(Cause::Housekeeping, SimDuration::ZERO);
        ledger.settle();
        let rows: Vec<_> = ledger.rows().collect();
        // Two accrued legs settle into ONE attribution event; the
        // zero-amount cause never materializes.
        assert_eq!(rows, vec![(Cause::Fabric, SimDuration::micros(5), 1)]);
        // settle() is idempotent.
        ledger.settle();
        assert_eq!(ledger.rows().collect::<Vec<_>>(), rows);
    }

    #[test]
    fn settle_leaves_credited_counts_alone() {
        let mut ledger = IoLedger::begin(SimTime::ZERO);
        ledger.credit(Cause::CpuWork, SimDuration::micros(1));
        ledger.credit(Cause::CpuWork, SimDuration::micros(1));
        ledger.settle();
        assert_eq!(
            ledger.rows().collect::<Vec<_>>(),
            vec![(Cause::CpuWork, SimDuration::micros(2), 2)]
        );
    }

    #[test]
    fn flush_matches_equivalent_records() {
        let mut ledger = IoLedger::begin(SimTime::ZERO);
        ledger.credit(Cause::CpuWork, SimDuration::nanos(1_800));
        ledger.accrue(Cause::Fabric, SimDuration::micros(1));
        ledger.accrue(Cause::Fabric, SimDuration::micros(2));
        ledger.accrue(Cause::DeviceService, SimDuration::micros(25));
        ledger.credit(Cause::CpuWork, SimDuration::nanos(1_300));
        ledger.settle();

        let mut from_ledger = CauseAccumulator::new();
        ledger.flush_causes(&mut from_ledger);

        // The same I/O attributed one event at a time: each credit is
        // an event, and the two accrued fabric legs settle into one.
        let mut reference = CauseAccumulator::new();
        reference.add(Cause::CpuWork, SimDuration::nanos(1_800), 1);
        reference.add(Cause::CpuWork, SimDuration::nanos(1_300), 1);
        reference.add(Cause::Fabric, SimDuration::micros(3), 1);
        reference.add(Cause::DeviceService, SimDuration::micros(25), 1);
        assert_eq!(from_ledger, reference);
    }

    #[test]
    fn stamps_round_trip_through_a_recorder() {
        let mut recorder = TraceRecorder::new(4);
        let mut ledger = IoLedger::begin(SimTime::from_nanos(100));
        ledger.set_trace(recorder.begin(3, 7, SimTime::from_nanos(100)));
        ledger.stamp(IoStage::Dispatch, SimTime::from_nanos(1_500));
        ledger.stamp(IoStage::DeviceComplete, SimTime::from_nanos(26_000));
        ledger.stamp(IoStage::Reaped, SimTime::from_nanos(33_000));
        ledger.flush_trace(&mut recorder);
        let trace = recorder.traces()[0];
        assert_eq!(trace.stamps[0], SimTime::from_nanos(100));
        assert_eq!(trace.stamps[1], SimTime::from_nanos(1_500));
        // Skipped IRQ stage stays zero (polling semantics).
        assert_eq!(trace.stamps[3], SimTime::ZERO);
        assert_eq!(trace.total().as_nanos(), 32_900);
    }

    #[test]
    fn total_and_pre_issue_account_the_latency_window() {
        let mut ledger = IoLedger::begin(SimTime::ZERO);
        ledger.credit(Cause::CpuWork, SimDuration::nanos(1_800));
        ledger.note_pre_issue(SimDuration::nanos(1_800));
        ledger.accrue(Cause::DeviceService, SimDuration::micros(25));
        ledger.credit(Cause::CpuWork, SimDuration::nanos(1_300));
        assert_eq!(
            ledger.total() - ledger.pre_issue(),
            SimDuration::micros(25) + SimDuration::nanos(1_300)
        );
    }

    #[test]
    fn ledger_log_caps_its_window() {
        let mut log = LedgerLog::new(2);
        for i in 0..5 {
            log.push(CompletedIo {
                job: i,
                device: i,
                issued_at: SimTime::ZERO,
                reaped_at: SimTime::from_nanos(30_000),
                ledger: IoLedger::begin(SimTime::ZERO),
            });
        }
        assert_eq!(log.entries().len(), 2);
        assert_eq!(log.entries()[1].job, 1);
        assert_eq!(log.entries()[0].latency(), SimDuration::micros(30));
    }
}
