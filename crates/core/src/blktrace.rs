//! blktrace-style per-I/O stage traces.
//!
//! The paper's methodology family is fio + blktrace/LTTng-style
//! instrumentation. This module names the five stages on the
//! completion path and renders one I/O's stage timestamps in a
//! blkparse-like text format, so individual tail samples can be read
//! end to end ("where did these 600 µs go?"). The capture itself is
//! the run's ledger log (`AfaConfig::with_ledger_log`): each settled
//! ledger carries the stamps, and
//! [`CompletedIo::trace`](crate::io_path::CompletedIo::trace) renders
//! its [`IoTrace`].

use afa_sim::SimTime;

/// Stages of one I/O's life, in path order (blkparse action letters
/// in parentheses). A stage's discriminant is its slot in
/// [`IoTrace::stamps`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IoStage {
    /// Submitted by the application thread (Q — queued).
    Queue,
    /// Command visible to the device after fabric traversal (D —
    /// dispatched).
    Dispatch,
    /// Device posted the completion (C — completed by device).
    DeviceComplete,
    /// Interrupt handled on the host (I).
    IrqHandled,
    /// Application thread resumed and reaped the completion (R).
    Reaped,
}

impl IoStage {
    /// Every stage, in path order.
    pub const ALL: [IoStage; 5] = [
        IoStage::Queue,
        IoStage::Dispatch,
        IoStage::DeviceComplete,
        IoStage::IrqHandled,
        IoStage::Reaped,
    ];

    /// The blkparse-style action letter.
    pub fn letter(self) -> char {
        match self {
            IoStage::Queue => 'Q',
            IoStage::Dispatch => 'D',
            IoStage::DeviceComplete => 'C',
            IoStage::IrqHandled => 'I',
            IoStage::Reaped => 'R',
        }
    }
}

/// One traced I/O with its five stage timestamps.
///
/// # Example
///
/// ```
/// use afa_core::blktrace::IoTrace;
/// use afa_sim::SimTime;
///
/// let mut stamps = [SimTime::ZERO; 5];
/// stamps[0] = SimTime::from_nanos(100);
/// stamps[4] = SimTime::from_nanos(33_000);
/// let trace = IoTrace { device: 0, lba: 42, stamps };
/// assert_eq!(trace.total().as_nanos(), 32_900);
/// assert!(trace.to_text(0).contains(" R lba 336 + 8"));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoTrace {
    /// Device index.
    pub device: usize,
    /// Starting LBA (4 KiB units).
    pub lba: u64,
    /// Stage timestamps, indexed by [`IoStage`] order. Zero means the
    /// stage was not reached (e.g. polling skips the IRQ stage).
    pub stamps: [SimTime; 5],
}

impl IoTrace {
    /// Total latency from queue to reap.
    pub fn total(&self) -> afa_sim::SimDuration {
        self.stamps[4].saturating_since(self.stamps[0])
    }

    /// Renders one blkparse-like line per reached stage.
    pub fn to_text(&self, seq: usize) -> String {
        let mut out = String::new();
        for stage in IoStage::ALL {
            let t = self.stamps[stage as usize];
            if t == SimTime::ZERO && stage != IoStage::Queue {
                continue; // stage skipped
            }
            out.push_str(&format!(
                "nvme{:<3} {:>12.3} {:>8} {} lba {} + 8\n",
                self.device,
                t.as_secs_f64(),
                seq,
                stage.letter(),
                self.lba * 8 // 512 B sectors, like blkparse
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afa_sim::SimDuration;

    fn t_us(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::micros(n)
    }

    #[test]
    fn text_format_is_blkparse_like() {
        let mut stamps = [SimTime::ZERO; 5];
        stamps[0] = t_us(1);
        stamps[4] = t_us(34);
        let text = IoTrace {
            device: 0,
            lba: 10,
            stamps,
        }
        .to_text(0);
        assert!(text.contains("nvme0"));
        assert!(text.contains(" Q "));
        assert!(text.contains(" R "));
        // 10 pages × 8 sectors; skipped stages don't render.
        assert!(text.contains("lba 80"));
        assert!(!text.contains(" D "));
    }

    #[test]
    fn stage_letters_unique() {
        let letters = IoStage::ALL.map(IoStage::letter);
        assert_eq!(letters, ['Q', 'D', 'C', 'I', 'R']);
    }
}
