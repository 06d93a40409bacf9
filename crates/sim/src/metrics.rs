//! Per-run simulation counters.
//!
//! Every simulation hands its counts to [`flush`] once, when it
//! finishes (batched, so the per-event hot path pays nothing): the
//! [`ShardedSim`](crate::ShardedSim) engine its processed and clamped
//! events, the experiment worlds their serving, completion, fleet and
//! fusion tallies and the cause table of the ledgers they settled. A
//! flush lands in the innermost [`capture`] open on
//! the calling thread, so a harness that wraps a run in `capture` gets
//! exactly that run's [`Counters`] — whatever else runs in the process
//! at the same time. A flush outside any capture adds to the process
//! totals ([`events_processed_total`] and friends).
//!
//! `capture` does not forward what it collected: its caller reads the
//! counts and passes them on with `flush`, so every count reaches the
//! process totals exactly once. Work fanned out to other threads comes
//! back the same way (the experiment pool captures on each worker and
//! flushes on the calling thread).
//!
//! The event and fusion counts are engine throughput figures — keep
//! rates derived from them out of byte-stable artifacts. The serving,
//! completion and fleet counts and the cause table are
//! simulation-deterministic, so harnesses may serialize them.

use std::cell::RefCell;
use std::sync::{LazyLock, Mutex};

use crate::trace::CauseAccumulator;

/// Everything one run counts, flushed once when it finishes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Simulation events processed.
    pub events: u64,
    /// Past-time schedules clamped to the clock (see
    /// [`ShardedSim::clamped_past_schedules`](crate::ShardedSim::clamped_past_schedules)).
    /// A healthy model never schedules into the past.
    pub clamped_past: u64,
    /// Frontend serving-layer counters.
    pub frontend: FrontendCounters,
    /// Completion-model counters.
    pub completion: CompletionCounters,
    /// Fleet-layer fault counters.
    pub fleet: FleetCounters,
    /// Macro-event fusion counters.
    pub fusion: FusionCounters,
    /// Per-cause latency and attribution events of every ledger the
    /// run settled (empty for a run that keeps no ledger).
    pub causes: CauseAccumulator,
}

impl Counters {
    /// Field-wise sum: adds every counter of `other` to `self`.
    pub fn add(&mut self, other: Counters) {
        self.events += other.events;
        self.clamped_past += other.clamped_past;
        let (fe, o) = (&mut self.frontend, other.frontend);
        fe.requests_admitted += o.requests_admitted;
        fe.requests_shed += o.requests_shed;
        fe.hedges_fired += o.hedges_fired;
        fe.hedges_won += o.hedges_won;
        fe.slab_peak_live += o.slab_peak_live;
        fe.sketch_merges += o.sketch_merges;
        let (cm, o) = (&mut self.completion, other.completion);
        cm.interrupts += o.interrupts;
        cm.polls += o.polls;
        cm.hybrid_sleeps += o.hybrid_sleeps;
        let (fl, o) = (&mut self.fleet, other.fleet);
        fl.arrays_failed += o.arrays_failed;
        fl.failovers += o.failovers;
        fl.retries += o.retries;
        fl.rereplication_ios += o.rereplication_ios;
        let (fu, o) = (&mut self.fusion, other.fusion);
        fu.fused_chains += o.fused_chains;
        fu.defused_chains += o.defused_chains;
        fu.elided_events += o.elided_events;
        self.causes.merge(&other.causes);
    }
}

/// Counts flushed outside any capture, process-wide.
static TOTALS: LazyLock<Mutex<Counters>> = LazyLock::new(Mutex::default);

thread_local! {
    /// This thread's open captures, innermost last.
    static CAPTURES: RefCell<Vec<Counters>> = const { RefCell::new(Vec::new()) };
}

/// Hands a finished run's counts on: to the innermost [`capture`] open
/// on this thread, or to the process totals when none is open.
pub fn flush(counts: Counters) {
    let captured = CAPTURES.with_borrow_mut(|open| {
        if let Some(top) = open.last_mut() {
            top.add(counts);
            true
        } else {
            false
        }
    });
    if !captured {
        TOTALS
            .lock()
            .expect("a flush panicked holding the totals")
            .add(counts);
    }
}

/// Runs `f` and returns what it [`flush`]ed on this thread, on top of
/// its result. Nested captures each see only their own scope. The
/// counts are not forwarded: pass them on with `flush` once read.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Counters) {
    /// Closes the capture even when `f` unwinds, so a caught panic
    /// cannot strand later flushes on this thread in a dead scope.
    struct Close;
    impl Drop for Close {
        fn drop(&mut self) {
            CAPTURES.with_borrow_mut(|open| open.pop());
        }
    }
    CAPTURES.with_borrow_mut(|open| open.push(Counters::default()));
    let close = Close;
    let result = f();
    let counts = CAPTURES.with_borrow(|open| *open.last().expect("capture still open"));
    drop(close);
    (result, counts)
}

fn totals() -> Counters {
    *TOTALS.lock().expect("a flush panicked holding the totals")
}

/// Simulation events in the process totals so far. Counts flushed
/// inside an open capture arrive when its caller passes them on.
pub fn events_processed_total() -> u64 {
    totals().events
}

/// Past-time schedules clamped, in the process totals so far. A
/// healthy model never schedules into the past, so harnesses snapshot
/// this around a run and fail loudly on a non-zero delta.
pub fn clamped_past_total() -> u64 {
    totals().clamped_past
}

/// Frontend serving-layer counters of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontendCounters {
    /// Requests that passed admission into a tenant queue.
    pub requests_admitted: u64,
    /// Requests dropped by the token bucket or queue overflow.
    pub requests_shed: u64,
    /// Hedged duplicate sub-I/Os issued for stragglers.
    pub hedges_fired: u64,
    /// Hedges whose duplicate finished before the original.
    pub hedges_won: u64,
    /// Request-book slab occupancy high-water marks, summed over the
    /// worlds that flushed: an experiment that runs several cells
    /// reports the sum of its cells' peaks, not one overall peak.
    pub slab_peak_live: u64,
    /// Cross-tenant quantile-sketch rollup merges performed.
    pub sketch_merges: u64,
}

impl FrontendCounters {
    /// Whether any counter moved.
    pub fn any(&self) -> bool {
        self.requests_admitted
            | self.requests_shed
            | self.hedges_fired
            | self.hedges_won
            | self.slab_peak_live
            | self.sketch_merges
            != 0
    }
}

/// Completion-model counters: how each finished I/O was reaped.
/// Simulation-deterministic, so harnesses may serialize them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompletionCounters {
    /// Completions reaped after an MSI-X interrupt + wake-up.
    pub interrupts: u64,
    /// Completions reaped by a busy-poll spin (classic or the spin
    /// half of a hybrid poll).
    pub polls: u64,
    /// Hybrid-poll oversleeps: reaps whose completion landed during
    /// the timed sleep, so the residual sleep (not the device) set the
    /// observed latency.
    pub hybrid_sleeps: u64,
}

impl CompletionCounters {
    /// Component-wise difference (`self - earlier`), for deltas of the
    /// process totals around a run.
    pub fn since(&self, earlier: &CompletionCounters) -> CompletionCounters {
        CompletionCounters {
            interrupts: self.interrupts - earlier.interrupts,
            polls: self.polls - earlier.polls,
            hybrid_sleeps: self.hybrid_sleeps - earlier.hybrid_sleeps,
        }
    }

    /// Whether any counter moved.
    pub fn any(&self) -> bool {
        self.interrupts | self.polls | self.hybrid_sleeps != 0
    }

    /// Whether any *non-interrupt* completion model ran. Artifacts key
    /// on this rather than [`CompletionCounters::any`]: every
    /// pre-existing golden reaps via MSI-X, so a key that appeared on
    /// plain interrupt counts would rewrite all of them.
    pub fn any_polled(&self) -> bool {
        self.polls | self.hybrid_sleeps != 0
    }
}

/// Completion-model counters in the process totals so far.
pub fn completion_totals() -> CompletionCounters {
    totals().completion
}

/// Fleet-layer counters: replicated multi-array serving with fault
/// injection. Simulation-deterministic, so harnesses may serialize
/// them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetCounters {
    /// Arrays killed by the fault-injection plan.
    pub arrays_failed: u64,
    /// Requests re-routed to a surviving replica (dispatch-time dead
    /// primary plus mid-flight failovers).
    pub failovers: u64,
    /// Sub-I/O attempts re-issued through the retry path after an
    /// array died under them.
    pub retries: u64,
    /// Background re-replication I/Os issued to restore the
    /// replication factor after a kill.
    pub rereplication_ios: u64,
}

impl FleetCounters {
    /// Whether any counter moved.
    pub fn any(&self) -> bool {
        self.arrays_failed | self.failovers | self.retries | self.rereplication_ios != 0
    }
}

/// Fusion counters: how many I/O chains ran their device-side legs
/// inline at submit instead of on per-stage events, and how many
/// events that saved. Simulation-deterministic for a given fusion
/// setting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusionCounters {
    /// Chains that ran their device legs inline.
    pub fused_chains: u64,
    /// Always 0: the inline rule is exact, so nothing is ever undone.
    /// Kept because afabench reads it (`io_path.defused_per_fused`).
    pub defused_chains: u64,
    /// Per-stage events the inline chains skipped (2 per chain:
    /// `CommandAtDevice` and `DeviceDone`) — the gap between the
    /// per-stage and the popped event counts.
    pub elided_events: u64,
}

impl FusionCounters {
    /// Component-wise difference (`self - earlier`), for deltas of the
    /// process totals around a run.
    pub fn since(&self, earlier: &FusionCounters) -> FusionCounters {
        FusionCounters {
            fused_chains: self.fused_chains - earlier.fused_chains,
            defused_chains: self.defused_chains - earlier.defused_chains,
            elided_events: self.elided_events - earlier.elided_events,
        }
    }

    /// Whether any counter moved.
    pub fn any(&self) -> bool {
        self.fused_chains | self.defused_chains | self.elided_events != 0
    }
}

/// Fusion counters in the process totals so far.
pub fn fusion_totals() -> FusionCounters {
    totals().fusion
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Cause;
    use crate::SimDuration;

    /// A value with a distinct multiple of `k` in every field, so a
    /// dropped or crossed field in [`Counters::add`] shows.
    fn every_field(k: u64) -> Counters {
        let mut causes = CauseAccumulator::new();
        for (i, cause) in Cause::ALL.into_iter().enumerate() {
            let i = i as u64;
            causes.add(cause, SimDuration::nanos((19 + i) * k), (35 + i) * k);
        }
        Counters {
            events: k,
            clamped_past: 2 * k,
            frontend: FrontendCounters {
                requests_admitted: 3 * k,
                requests_shed: 4 * k,
                hedges_fired: 5 * k,
                hedges_won: 6 * k,
                slab_peak_live: 7 * k,
                sketch_merges: 8 * k,
            },
            completion: CompletionCounters {
                interrupts: 9 * k,
                polls: 10 * k,
                hybrid_sleeps: 11 * k,
            },
            fleet: FleetCounters {
                arrays_failed: 12 * k,
                failovers: 13 * k,
                retries: 14 * k,
                rereplication_ios: 15 * k,
            },
            fusion: FusionCounters {
                fused_chains: 16 * k,
                defused_chains: 17 * k,
                elided_events: 18 * k,
            },
            causes,
        }
    }

    #[test]
    fn add_sums_every_field() {
        let mut sum = every_field(1);
        sum.add(every_field(2));
        assert_eq!(sum, every_field(3));
        sum.add(Counters::default());
        assert_eq!(sum, every_field(3));
    }

    #[test]
    fn a_capture_sees_only_its_own_threads_flushes() {
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let run = |k: u64| {
                let barrier = &barrier;
                s.spawn(move || {
                    capture(|| {
                        for _ in 0..100 {
                            flush(every_field(k));
                            // Interleave the two threads' flushes.
                            barrier.wait();
                        }
                    })
                    .1
                })
            };
            let (a, b) = (run(1), run(1_000));
            (a.join().expect("thread a"), b.join().expect("thread b"))
        });
        assert_eq!(a, every_field(100));
        assert_eq!(b, every_field(100_000));
    }

    #[test]
    fn nested_captures_forward_only_when_flushed() {
        let ((), outer) = capture(|| {
            flush(every_field(1));
            let ((), inner) = capture(|| flush(every_field(2)));
            assert_eq!(inner, every_field(2));
            flush(inner);
            // A capture whose counts are dropped never reaches the
            // enclosing scope.
            let ((), dropped) = capture(|| flush(every_field(4)));
            assert_eq!(dropped, every_field(4));
        });
        assert_eq!(outer, every_field(3));
    }

    #[test]
    fn a_caught_panic_closes_its_capture() {
        let ((), outer) = capture(|| {
            let caught = std::panic::catch_unwind(|| {
                capture(|| {
                    flush(every_field(5));
                    panic!("run failed");
                })
            });
            assert!(caught.is_err());
            flush(every_field(1));
        });
        assert_eq!(outer, every_field(1));
    }

    #[test]
    fn any_flags_follow_their_fields() {
        assert!(!Counters::default().frontend.any());
        assert!(!Counters::default().completion.any());
        assert!(!Counters::default().fleet.any());
        assert!(!Counters::default().fusion.any());
        let all = every_field(1);
        assert!(all.frontend.any() && all.fleet.any() && all.fusion.any());
        assert!(all.completion.any() && all.completion.any_polled());
        let irq_only = CompletionCounters {
            interrupts: 9,
            polls: 0,
            hybrid_sleeps: 0,
        };
        assert!(irq_only.any() && !irq_only.any_polled());
        let hybrid_only = CompletionCounters {
            hybrid_sleeps: 1,
            ..CompletionCounters::default()
        };
        assert!(hybrid_only.any_polled());
    }
}
