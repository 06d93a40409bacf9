//! Process-wide DES throughput counters.
//!
//! Every [`ShardedSim`](crate::ShardedSim) adds its processed-event
//! count here when its [`run`](crate::ShardedSim::run) finishes
//! (batched, so the per-event hot path pays nothing). Harnesses
//! snapshot [`events_processed_total`] around a workload to derive an
//! events/sec figure — the single number that decides how close the
//! reproduction can get to the paper's full 120 s × 64-SSD runs.
//!
//! The counter is cumulative across the whole process and shared by
//! concurrent simulations (the experiment pool runs many at once), so
//! deltas are only meaningful around code the caller knows ran in
//! isolation; keep derived rates out of byte-stable artifacts.
//!
//! The frontend serving layer flushes its shed/hedge counters here the
//! same way ([`add_frontend`] / [`frontend_totals`]): per-run integers
//! accumulated locally, one atomic add when the drive finishes. Unlike
//! the throughput counters these are simulation-deterministic, so
//! harnesses may serialize their deltas.

use std::sync::atomic::{AtomicU64, Ordering};

static EVENTS_PROCESSED: AtomicU64 = AtomicU64::new(0);
static CLAMPED_PAST: AtomicU64 = AtomicU64::new(0);
static REQUESTS_ADMITTED: AtomicU64 = AtomicU64::new(0);
static REQUESTS_SHED: AtomicU64 = AtomicU64::new(0);
static HEDGES_FIRED: AtomicU64 = AtomicU64::new(0);
static HEDGES_WON: AtomicU64 = AtomicU64::new(0);
static SLAB_PEAK_LIVE: AtomicU64 = AtomicU64::new(0);
static SKETCH_MERGES: AtomicU64 = AtomicU64::new(0);
static COMPLETION_INTERRUPTS: AtomicU64 = AtomicU64::new(0);
static COMPLETION_POLLS: AtomicU64 = AtomicU64::new(0);
static COMPLETION_HYBRID_SLEEPS: AtomicU64 = AtomicU64::new(0);
static FLEET_ARRAYS_FAILED: AtomicU64 = AtomicU64::new(0);
static FLEET_FAILOVERS: AtomicU64 = AtomicU64::new(0);
static FLEET_RETRIES: AtomicU64 = AtomicU64::new(0);
static FLEET_REREPLICATION_IOS: AtomicU64 = AtomicU64::new(0);
static FUSED_CHAINS: AtomicU64 = AtomicU64::new(0);
static DEFUSED_CHAINS: AtomicU64 = AtomicU64::new(0);
static ELIDED_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Adds `n` processed events to the process-wide total.
pub fn add_events(n: u64) {
    if n > 0 {
        EVENTS_PROCESSED.fetch_add(n, Ordering::Relaxed);
    }
}

/// Total simulation events processed by this process so far.
pub fn events_processed_total() -> u64 {
    EVENTS_PROCESSED.load(Ordering::Relaxed)
}

/// Adds `n` past-time schedules that were clamped to the clock (see
/// [`ShardedSim::clamped_past_schedules`](crate::ShardedSim::clamped_past_schedules)).
pub fn add_clamped_past(n: u64) {
    if n > 0 {
        CLAMPED_PAST.fetch_add(n, Ordering::Relaxed);
    }
}

/// Total past-time schedules clamped by this process so far. A healthy
/// model never schedules into the past, so harnesses snapshot this
/// around a run and fail loudly on a non-zero delta.
pub fn clamped_past_total() -> u64 {
    CLAMPED_PAST.load(Ordering::Relaxed)
}

/// Process-wide frontend serving-layer counters (a snapshot of the
/// cumulative totals; deltas around a run give per-run figures).
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
    /// Request-book slab occupancy high-water marks, summed across
    /// flushes — the cumulative total is not meaningful on its own,
    /// but the delta around a single run is that run's peak.
    pub slab_peak_live: u64,
    /// Cross-tenant quantile-sketch rollup merges performed.
    pub sketch_merges: u64,
}

impl FrontendCounters {
    /// Component-wise difference (`self - earlier`), for deltas around
    /// a run.
    pub fn since(&self, earlier: &FrontendCounters) -> FrontendCounters {
        FrontendCounters {
            requests_admitted: self.requests_admitted - earlier.requests_admitted,
            requests_shed: self.requests_shed - earlier.requests_shed,
            hedges_fired: self.hedges_fired - earlier.hedges_fired,
            hedges_won: self.hedges_won - earlier.hedges_won,
            slab_peak_live: self.slab_peak_live - earlier.slab_peak_live,
            sketch_merges: self.sketch_merges - earlier.sketch_merges,
        }
    }

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

/// Adds a frontend run's counters to the process-wide totals. Like
/// [`add_events`], this is a batched flush: the serving-layer world
/// accumulates plain integers on the hot path and flushes once when
/// its drive finishes.
pub fn add_frontend(delta: FrontendCounters) {
    if delta.requests_admitted > 0 {
        REQUESTS_ADMITTED.fetch_add(delta.requests_admitted, Ordering::Relaxed);
    }
    if delta.requests_shed > 0 {
        REQUESTS_SHED.fetch_add(delta.requests_shed, Ordering::Relaxed);
    }
    if delta.hedges_fired > 0 {
        HEDGES_FIRED.fetch_add(delta.hedges_fired, Ordering::Relaxed);
    }
    if delta.hedges_won > 0 {
        HEDGES_WON.fetch_add(delta.hedges_won, Ordering::Relaxed);
    }
    if delta.slab_peak_live > 0 {
        SLAB_PEAK_LIVE.fetch_add(delta.slab_peak_live, Ordering::Relaxed);
    }
    if delta.sketch_merges > 0 {
        SKETCH_MERGES.fetch_add(delta.sketch_merges, Ordering::Relaxed);
    }
}

/// Process-wide completion-model counters: how each finished I/O was
/// reaped. Simulation-deterministic, flushed once per run like
/// [`FrontendCounters`], so harnesses may serialize their deltas.
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
    /// Component-wise difference (`self - earlier`), for deltas around
    /// a run.
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

/// Adds a run's completion-model counters to the process-wide totals
/// (batched flush, like [`add_frontend`]).
pub fn add_completion(delta: CompletionCounters) {
    if delta.interrupts > 0 {
        COMPLETION_INTERRUPTS.fetch_add(delta.interrupts, Ordering::Relaxed);
    }
    if delta.polls > 0 {
        COMPLETION_POLLS.fetch_add(delta.polls, Ordering::Relaxed);
    }
    if delta.hybrid_sleeps > 0 {
        COMPLETION_HYBRID_SLEEPS.fetch_add(delta.hybrid_sleeps, Ordering::Relaxed);
    }
}

/// Snapshot of the cumulative completion-model counters.
pub fn completion_totals() -> CompletionCounters {
    CompletionCounters {
        interrupts: COMPLETION_INTERRUPTS.load(Ordering::Relaxed),
        polls: COMPLETION_POLLS.load(Ordering::Relaxed),
        hybrid_sleeps: COMPLETION_HYBRID_SLEEPS.load(Ordering::Relaxed),
    }
}

/// Process-wide fleet-layer counters: replicated multi-array serving
/// with fault injection. Simulation-deterministic, flushed once per
/// run like [`FrontendCounters`], so harnesses may serialize their
/// deltas.
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
    /// Component-wise difference (`self - earlier`), for deltas around
    /// a run.
    pub fn since(&self, earlier: &FleetCounters) -> FleetCounters {
        FleetCounters {
            arrays_failed: self.arrays_failed - earlier.arrays_failed,
            failovers: self.failovers - earlier.failovers,
            retries: self.retries - earlier.retries,
            rereplication_ios: self.rereplication_ios - earlier.rereplication_ios,
        }
    }

    /// Whether any counter moved.
    pub fn any(&self) -> bool {
        self.arrays_failed | self.failovers | self.retries | self.rereplication_ios != 0
    }
}

/// Adds a run's fleet-layer counters to the process-wide totals
/// (batched flush, like [`add_frontend`]).
pub fn add_fleet(delta: FleetCounters) {
    if delta.arrays_failed > 0 {
        FLEET_ARRAYS_FAILED.fetch_add(delta.arrays_failed, Ordering::Relaxed);
    }
    if delta.failovers > 0 {
        FLEET_FAILOVERS.fetch_add(delta.failovers, Ordering::Relaxed);
    }
    if delta.retries > 0 {
        FLEET_RETRIES.fetch_add(delta.retries, Ordering::Relaxed);
    }
    if delta.rereplication_ios > 0 {
        FLEET_REREPLICATION_IOS.fetch_add(delta.rereplication_ios, Ordering::Relaxed);
    }
}

/// Snapshot of the cumulative fleet-layer counters.
pub fn fleet_totals() -> FleetCounters {
    FleetCounters {
        arrays_failed: FLEET_ARRAYS_FAILED.load(Ordering::Relaxed),
        failovers: FLEET_FAILOVERS.load(Ordering::Relaxed),
        retries: FLEET_RETRIES.load(Ordering::Relaxed),
        rereplication_ios: FLEET_REREPLICATION_IOS.load(Ordering::Relaxed),
    }
}

/// Process-wide macro-event fusion counters: how many I/O stage
/// chains the fusion fast path collapsed into a single settlement
/// event, and how many had to be de-fused back into per-stage events
/// after a shared resource was claimed under them. Simulation-
/// deterministic for a given fusion setting. Flushed once per run like
/// [`FrontendCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusionCounters {
    /// Stage chains fused into one settlement macro-event at submit.
    pub fused_chains: u64,
    /// Fused chains torn back into per-stage events after another I/O
    /// claimed a shared fabric leg inside their precomputed window.
    pub defused_chains: u64,
    /// Per-stage events the settled macro-events replaced (3 per
    /// chain; only polled chains fuse) — the gap between logical and
    /// popped event counts a harness must add back.
    pub elided_events: u64,
}

impl FusionCounters {
    /// Component-wise difference (`self - earlier`), for deltas around
    /// a run.
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

/// Adds a run's fusion counters to the process-wide totals (batched
/// flush, like [`add_frontend`]).
pub fn add_fusion(delta: FusionCounters) {
    if delta.fused_chains > 0 {
        FUSED_CHAINS.fetch_add(delta.fused_chains, Ordering::Relaxed);
    }
    if delta.defused_chains > 0 {
        DEFUSED_CHAINS.fetch_add(delta.defused_chains, Ordering::Relaxed);
    }
    if delta.elided_events > 0 {
        ELIDED_EVENTS.fetch_add(delta.elided_events, Ordering::Relaxed);
    }
}

/// Snapshot of the cumulative fusion counters.
pub fn fusion_totals() -> FusionCounters {
    FusionCounters {
        fused_chains: FUSED_CHAINS.load(Ordering::Relaxed),
        defused_chains: DEFUSED_CHAINS.load(Ordering::Relaxed),
        elided_events: ELIDED_EVENTS.load(Ordering::Relaxed),
    }
}

/// Snapshot of the cumulative frontend counters.
pub fn frontend_totals() -> FrontendCounters {
    FrontendCounters {
        requests_admitted: REQUESTS_ADMITTED.load(Ordering::Relaxed),
        requests_shed: REQUESTS_SHED.load(Ordering::Relaxed),
        hedges_fired: HEDGES_FIRED.load(Ordering::Relaxed),
        hedges_won: HEDGES_WON.load(Ordering::Relaxed),
        slab_peak_live: SLAB_PEAK_LIVE.load(Ordering::Relaxed),
        sketch_merges: SKETCH_MERGES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adds_accumulate() {
        let before = events_processed_total();
        add_events(0);
        assert!(events_processed_total() >= before);
        add_events(17);
        assert!(events_processed_total() >= before + 17);
    }

    #[test]
    fn frontend_counters_accumulate_and_delta() {
        let before = frontend_totals();
        add_frontend(FrontendCounters::default()); // all-zero: no-op
        add_frontend(FrontendCounters {
            requests_admitted: 10,
            requests_shed: 2,
            hedges_fired: 3,
            hedges_won: 1,
            slab_peak_live: 7,
            sketch_merges: 4,
        });
        let delta = frontend_totals().since(&before);
        assert!(delta.any());
        assert!(delta.requests_admitted >= 10);
        assert!(delta.requests_shed >= 2);
        assert!(delta.hedges_fired >= 3);
        assert!(delta.hedges_won >= 1);
        assert!(delta.slab_peak_live >= 7);
        assert!(delta.sketch_merges >= 4);
        assert!(!FrontendCounters::default().any());
    }

    #[test]
    fn completion_counters_accumulate_and_delta() {
        let before = completion_totals();
        add_completion(CompletionCounters::default()); // all-zero: no-op
        add_completion(CompletionCounters {
            interrupts: 5,
            polls: 3,
            hybrid_sleeps: 2,
        });
        let delta = completion_totals().since(&before);
        assert!(delta.any());
        assert!(delta.any_polled());
        assert!(delta.interrupts >= 5);
        assert!(delta.polls >= 3);
        assert!(delta.hybrid_sleeps >= 2);
        assert!(!CompletionCounters::default().any());
        let irq_only = CompletionCounters {
            interrupts: 9,
            polls: 0,
            hybrid_sleeps: 0,
        };
        assert!(irq_only.any() && !irq_only.any_polled());
    }

    #[test]
    fn fleet_counters_accumulate_and_delta() {
        let before = fleet_totals();
        add_fleet(FleetCounters::default()); // all-zero: no-op
        add_fleet(FleetCounters {
            arrays_failed: 1,
            failovers: 4,
            retries: 6,
            rereplication_ios: 12,
        });
        let delta = fleet_totals().since(&before);
        assert!(delta.any());
        assert!(delta.arrays_failed >= 1);
        assert!(delta.failovers >= 4);
        assert!(delta.retries >= 6);
        assert!(delta.rereplication_ios >= 12);
        assert!(!FleetCounters::default().any());
    }

    #[test]
    fn fusion_counters_accumulate_and_delta() {
        let before = fusion_totals();
        add_fusion(FusionCounters::default()); // all-zero: no-op
        add_fusion(FusionCounters {
            fused_chains: 8,
            defused_chains: 2,
            elided_events: 32,
        });
        let delta = fusion_totals().since(&before);
        assert!(delta.any());
        assert!(delta.fused_chains >= 8);
        assert!(delta.defused_chains >= 2);
        assert!(delta.elided_events >= 32);
        assert!(!FusionCounters::default().any());
    }

    #[test]
    fn clamped_adds_accumulate() {
        let before = clamped_past_total();
        add_clamped_past(0);
        assert!(clamped_past_total() >= before);
        add_clamped_past(3);
        assert!(clamped_past_total() >= before + 3);
    }
}
