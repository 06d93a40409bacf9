//! Stage 5 — irq: MSI-X delivery, handler execution and the remote
//! IPI when the vector's effective CPU is not the submitter's.
//!
//! Routing runs on the hub (it owns the vector table and balancer);
//! the handler executes on the worker owning the effective vector CPU
//! (`HostModel::deliver_irq_routed`), and that same event books the
//! [`IrqOutcome`] onto the ledger of the first I/O the interrupt
//! serves. The handler slice and the remote-completion slice are both
//! closed amounts, so they credit the ledger directly.

use afa_host::IrqOutcome;
use afa_sim::trace::Cause;
use afa_sim::SimTime;

use crate::blktrace::IoStage;

use super::IoLedger;

/// Books an executed interrupt onto the I/O's ledger.
/// `at_host` is when the MSI reached the host (the handler slice runs
/// from there to `handler_done`; wake-ready beyond that is the remote
/// IPI).
pub(crate) fn apply(irq: &IrqOutcome, at_host: SimTime, ledger: &mut IoLedger) {
    ledger.credit(
        Cause::IrqHandling,
        irq.handler_done.saturating_since(at_host),
    );
    ledger.credit(
        Cause::RemoteCompletion,
        irq.wake_ready.saturating_since(irq.handler_done),
    );
    ledger.stamp(IoStage::IrqHandled, irq.handler_done);
}
