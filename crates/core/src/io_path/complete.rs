//! Stage 7 — complete: the thread reaps the completion and the
//! ledger's derived views are flushed.
//!
//! Reaping runs inline on the woken (or spinning) thread. Once the
//! reap instant is known, [`IoPathWorld::finish_io`] settles the
//! ledger and derives every instrumentation view from it in one place:
//! the run's cause table (every I/O), the optional ledger log (the
//! run's first N reaps, blktrace stamps included), and the job's
//! latency sample.

use afa_host::{CpuId, HostModel};
use afa_sim::trace::Cause;
use afa_sim::{SimDuration, SimTime};

use crate::blktrace::IoStage;

use super::model::CompletionModel;
use super::{CompletedIo, IoId, IoLedger, IoPathWorld};

/// CPU cost of the completion path (reap + io_getevents return).
pub(crate) const COMPLETE_COST: SimDuration = SimDuration::nanos(1_300);

/// Reaps a completion on a woken thread: charges `work` from
/// `run_start` and credits the executed slice.
pub(crate) fn reap(
    host: &mut HostModel,
    cpu: CpuId,
    run_start: SimTime,
    work: SimDuration,
    ledger: &mut IoLedger,
) -> SimTime {
    let done = host.charge_cpu(cpu, run_start, work);
    ledger.credit(Cause::CpuWork, done.saturating_since(run_start));
    ledger.stamp(IoStage::Reaped, done);
    done
}

/// Reaps a completion discovered by reading the CQ — no interrupt, no
/// wake. Under [`CompletionModel::Poll`] the thread spun from
/// `issued_at`; under [`CompletionModel::Hybrid`] it slept for the
/// model's timed sleep first and only then started spinning. The CPU
/// is charged for the whole spin window plus the reap (that busy time
/// is the price the model pays), but the *ledger* credits only the
/// slices past `at_host`: the causes accrued before arrival — submit,
/// fabric legs, device service — already tile `issued_at..at_host`
/// exactly, so crediting the overlapping spin would double-book the
/// window. A hybrid *oversleep* (the CQE landed mid-sleep) credits
/// the residual sleep to [`Cause::PollSleep`]: that wait is the
/// model's own latency contribution, the tail hybrid polling trades
/// for its CPU savings.
pub(crate) fn poll_reap(
    host: &mut HostModel,
    cpu: CpuId,
    model: CompletionModel,
    issued_at: SimTime,
    at_host: SimTime,
    work: SimDuration,
    ledger: &mut IoLedger,
) -> SimTime {
    let spin_from = match model {
        CompletionModel::Hybrid { sleep } => issued_at + sleep,
        _ => issued_at,
    };
    let reap_start = if spin_from > at_host {
        // Oversleep: the completion beat the timer; the thread only
        // looks at the CQ once the sleep expires. The CPU was idle
        // for the whole sleep — that is the point of the model.
        ledger.credit(Cause::PollSleep, spin_from.saturating_since(at_host));
        spin_from
    } else {
        // Spin from the CQ-watch instant until the CQE landed (plus
        // any contention stretch): pure CPU burn overlapping the
        // accrued device/fabric causes.
        host.charge_cpu(cpu, spin_from, at_host.saturating_since(spin_from))
    };
    let done = host.charge_cpu(cpu, reap_start, work);
    ledger.credit(
        Cause::CpuWork,
        done.saturating_since(at_host.max(spin_from)),
    );
    ledger.stamp(IoStage::Reaped, done);
    done
}

impl IoPathWorld {
    /// Retires one I/O reaped at `done`: settles its ledger *in the
    /// slab* and derives every instrumentation view from it — cause
    /// table and ledger log — then records the job's latency sample and
    /// recycles the slot. The only ledger copy the I/O ever pays is
    /// the optional ledger-log capture.
    pub(crate) fn finish_io(&mut self, id: IoId, done: SimTime) {
        let io = &mut self.inflight[id as usize];
        io.ledger.settle();
        io.ledger.flush_causes(&mut self.causes);
        let (job, issued_at) = (io.job, io.issued_at);
        if let Some(log) = &mut self.ledger_log {
            log.push(CompletedIo {
                job,
                device: self.jobs[job].spec().device(),
                issued_at,
                reaped_at: done,
                ledger: io.ledger,
            });
        }
        self.free.push(id);
        self.jobs[job].complete(done.saturating_since(issued_at).as_nanos());
    }
}
