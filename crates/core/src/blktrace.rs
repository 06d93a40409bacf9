//! blktrace-style per-I/O stage tracing.
//!
//! The paper's methodology family is fio + blktrace/LTTng-style
//! instrumentation. This module records, for a window of I/Os, every
//! stage timestamp on the completion path and renders them in a
//! blkparse-like text format, so individual tail samples can be read
//! end to end ("where did these 600 µs go?").

use afa_sim::SimTime;

/// Stages of one I/O's life, in path order (blkparse action letters
/// in parentheses).
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
        for (i, stage) in [
            IoStage::Queue,
            IoStage::Dispatch,
            IoStage::DeviceComplete,
            IoStage::IrqHandled,
            IoStage::Reaped,
        ]
        .iter()
        .enumerate()
        {
            let t = self.stamps[i];
            if t == SimTime::ZERO && i > 0 {
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

/// Records stage timestamps for the first `capacity` I/Os of a run.
///
/// # Example
///
/// ```
/// use afa_core::blktrace::{IoStage, TraceRecorder};
/// use afa_sim::SimTime;
///
/// let mut rec = TraceRecorder::new(10);
/// let id = rec.begin(0, 42, SimTime::from_nanos(100)).unwrap();
/// rec.stamp(id, IoStage::Dispatch, SimTime::from_nanos(1_500));
/// rec.stamp(id, IoStage::Reaped, SimTime::from_nanos(33_000));
/// assert_eq!(rec.traces().len(), 1);
/// assert_eq!(rec.traces()[0].total().as_nanos(), 32_900);
/// ```
#[derive(Clone, Debug)]
pub struct TraceRecorder {
    traces: Vec<IoTrace>,
    capacity: usize,
}

impl TraceRecorder {
    /// Creates a recorder that keeps at most `capacity` I/Os.
    pub fn new(capacity: usize) -> Self {
        TraceRecorder {
            traces: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
        }
    }

    /// Starts tracing one I/O; returns its trace id, or `None` when
    /// the window is full (callers then skip stamping).
    pub fn begin(&mut self, device: usize, lba: u64, queued_at: SimTime) -> Option<usize> {
        if self.traces.len() >= self.capacity {
            return None;
        }
        let mut stamps = [SimTime::ZERO; 5];
        stamps[0] = queued_at;
        self.traces.push(IoTrace {
            device,
            lba,
            stamps,
        });
        Some(self.traces.len() - 1)
    }

    /// Records a stage timestamp.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn stamp(&mut self, id: usize, stage: IoStage, at: SimTime) {
        let idx = match stage {
            IoStage::Queue => 0,
            IoStage::Dispatch => 1,
            IoStage::DeviceComplete => 2,
            IoStage::IrqHandled => 3,
            IoStage::Reaped => 4,
        };
        self.traces[id].stamps[idx] = at;
    }

    /// The recorded traces.
    pub fn traces(&self) -> &[IoTrace] {
        &self.traces
    }

    /// Stitches per-LP recorders into one run-wide window: every
    /// worker LP traced its own first `capacity` I/Os, so the union is
    /// a superset of the global window — sort by queue instant
    /// (device, then LBA, as deterministic tie-breaks) and keep the
    /// first `capacity`.
    pub(crate) fn merged(capacity: usize, parts: Vec<TraceRecorder>) -> Self {
        let mut traces: Vec<IoTrace> = parts.into_iter().flat_map(|p| p.traces).collect();
        traces.sort_by_key(|t| (t.stamps[0], t.device, t.lba));
        traces.truncate(capacity);
        TraceRecorder { traces, capacity }
    }

    /// The slowest recorded I/O, if any.
    pub fn slowest(&self) -> Option<&IoTrace> {
        self.traces.iter().max_by_key(|t| t.total())
    }

    /// Renders all traces in blkparse-like text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (seq, trace) in self.traces.iter().enumerate() {
            out.push_str(&trace.to_text(seq));
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
    fn records_and_caps() {
        let mut rec = TraceRecorder::new(2);
        assert!(rec.begin(0, 1, t_us(1)).is_some());
        assert!(rec.begin(1, 2, t_us(2)).is_some());
        assert!(rec.begin(2, 3, t_us(3)).is_none(), "window full");
        assert_eq!(rec.traces().len(), 2);
    }

    #[test]
    fn stamps_land_in_order_slots() {
        let mut rec = TraceRecorder::new(1);
        let id = rec.begin(5, 100, t_us(10)).unwrap();
        rec.stamp(id, IoStage::Dispatch, t_us(12));
        rec.stamp(id, IoStage::DeviceComplete, t_us(37));
        rec.stamp(id, IoStage::IrqHandled, t_us(40));
        rec.stamp(id, IoStage::Reaped, t_us(43));
        let tr = rec.traces()[0];
        assert_eq!(tr.stamps[0], t_us(10));
        assert_eq!(tr.stamps[4], t_us(43));
        assert_eq!(tr.total(), SimDuration::micros(33));
    }

    #[test]
    fn slowest_finds_the_tail_sample() {
        let mut rec = TraceRecorder::new(3);
        for (i, lat) in [30u64, 600, 31].iter().enumerate() {
            let id = rec.begin(i, i as u64, t_us(0)).unwrap();
            rec.stamp(id, IoStage::Reaped, t_us(*lat));
        }
        assert_eq!(rec.slowest().unwrap().device, 1);
    }

    #[test]
    fn text_format_is_blkparse_like() {
        let mut rec = TraceRecorder::new(1);
        let id = rec.begin(0, 10, t_us(1)).unwrap();
        rec.stamp(id, IoStage::Reaped, t_us(34));
        let text = rec.to_text();
        assert!(text.contains("nvme0"));
        assert!(text.contains(" Q "));
        assert!(text.contains(" R "));
        assert!(text.contains("lba 80")); // 10 pages × 8 sectors
                                          // Skipped stages don't render.
        assert!(!text.contains(" D "));
    }

    #[test]
    fn stage_letters_unique() {
        let letters = ['Q', 'D', 'C', 'I', 'R'];
        for (i, s) in [
            IoStage::Queue,
            IoStage::Dispatch,
            IoStage::DeviceComplete,
            IoStage::IrqHandled,
            IoStage::Reaped,
        ]
        .iter()
        .enumerate()
        {
            assert_eq!(s.letter(), letters[i]);
        }
    }
}
