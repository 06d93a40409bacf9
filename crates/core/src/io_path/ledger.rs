//! The per-I/O ledger: one fixed-size account of where an I/O's time
//! went.
//!
//! Every stage of the I/O path writes its timing contribution into the
//! [`IoLedger`] it is handed — the ledger is the *only* instrumentation
//! channel. At completion every settled ledger folds into the run's
//! cause table (a [`CauseAccumulator`], flushed with the run's
//! counters as its manifest budget), and the run's [`LedgerLog`], when
//! one is asked for, copies the first N settled ledgers whole. The log
//! is the only per-I/O capture: the blktrace view of an I/O
//! ([`CompletedIo::trace`]) is rendered from its entry's stamps.
//!
//! The ledger is `Copy`, heap-free and parked in the I/O's slot of the
//! world's in-flight slab, so each stage writes it in place at a fixed
//! cost and no I/O allocates.

use afa_sim::trace::{Cause, CauseAccumulator};
use afa_sim::{SimDuration, SimTime};

use crate::blktrace::{IoStage, IoTrace};

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
    /// Starting LBA of the I/O (4 KiB units), for its blktrace line.
    lba: u64,
}

impl IoLedger {
    /// Opens a ledger for an I/O queued at `queued_at`.
    pub fn begin(queued_at: SimTime) -> Self {
        Self::for_lba(queued_at, 0)
    }

    /// Opens a ledger for the I/O at `lba`, queued at `queued_at`.
    pub(crate) fn for_lba(queued_at: SimTime, lba: u64) -> Self {
        let mut stamps = [SimTime::ZERO; 5];
        stamps[IoStage::Queue as usize] = queued_at;
        IoLedger {
            causes: [SimDuration::ZERO; Cause::COUNT],
            credits: [0; Cause::COUNT],
            stamps,
            pre_issue: SimDuration::ZERO,
            lba,
        }
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
        self.stamps[stage as usize] = at;
    }

    /// The recorded timestamp for `stage` (zero when not reached).
    pub fn stamp_at(&self, stage: IoStage) -> SimTime {
        self.stamps[stage as usize]
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

    /// The I/O's blkparse-style stage trace: its device, its LBA and
    /// the ledger's five stamps (zero where a stage was skipped).
    pub fn trace(&self) -> IoTrace {
        IoTrace {
            device: self.device,
            lba: self.ledger.lba,
            stamps: self.ledger.stamps,
        }
    }
}

/// Captures the settled ledgers of the first `capacity` I/Os a run
/// completes, in reap order (enabled via `AfaConfig::with_ledger_log`).
/// One window per run: the single event wheel reaps in a deterministic
/// order, so the same run always logs the same I/Os.
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

    /// The captured I/Os, in reap order.
    pub fn entries(&self) -> &[CompletedIo] {
        &self.entries
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
    fn completed_io_renders_its_trace() {
        let mut ledger = IoLedger::for_lba(SimTime::from_nanos(100), 7);
        ledger.stamp(IoStage::Dispatch, SimTime::from_nanos(1_500));
        ledger.stamp(IoStage::DeviceComplete, SimTime::from_nanos(26_000));
        ledger.stamp(IoStage::Reaped, SimTime::from_nanos(33_000));
        let io = CompletedIo {
            job: 3,
            device: 3,
            issued_at: SimTime::from_nanos(100),
            reaped_at: SimTime::from_nanos(33_000),
            ledger,
        };
        let trace = io.trace();
        assert_eq!((trace.device, trace.lba), (3, 7));
        assert_eq!(trace.stamps[0], SimTime::from_nanos(100));
        assert_eq!(trace.stamps[1], SimTime::from_nanos(1_500));
        // Skipped IRQ stage stays zero (polling semantics).
        assert_eq!(trace.stamps[3], SimTime::ZERO);
        assert_eq!(trace.total(), io.latency());
    }

    #[test]
    fn ledger_is_200_bytes() {
        // The ledger every in-flight I/O parks: 16 cause totals,
        // 16 credit counts, 5 stamps, the pre-issue time and the LBA,
        // with no padding.
        assert_eq!(std::mem::size_of::<IoLedger>(), 200);
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
