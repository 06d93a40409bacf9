//! Striped fan-out bookkeeping, hedged reads, and the per-request
//! cause ledger.
//!
//! A client request maps through
//! [`StripedVolume`](afa_volume::StripedVolume) into per-SSD sub-I/Os;
//! [`RequestBook`] tracks them with first-completion-wins semantics so
//! a hedged duplicate and its original can race. The request's
//! latency is, exactly, its frontend queueing delay plus the settle
//! time of the slowest winning sub-I/O — the invariant
//! [`RequestLedger`] makes checkable per request.
//!
//! In-flight requests live on a [`HandleSlab`]: request ids are
//! generation-checked handles, so the book performs no hashing and —
//! once warm — no allocation per request, and a hedge loser's late
//! completion addresses a stale generation instead of needing a side
//! set. This is what lets the fleet experiments hold 10⁵–10⁶ tenants'
//! worth of traffic on a book whose footprint is the *concurrency*
//! high-water mark, not the tenant count.

use std::cell::Cell;

use afa_sim::trace::Cause;
use afa_sim::{SimDuration, SimTime};
use afa_stats::LatencyHistogram;
use afa_volume::SubIo;

use crate::slab::{Handle, HandleSlab};

/// Per-request wall-clock attribution over the shared [`Cause`]
/// vocabulary: where this request's latency went.
#[derive(Clone, Debug)]
pub struct RequestLedger {
    acc: [SimDuration; Cause::COUNT],
}

impl Default for RequestLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        RequestLedger {
            acc: [SimDuration::ZERO; Cause::COUNT],
        }
    }

    /// Resets every charge to zero — in-place reuse when ledgers park
    /// on recycled slab slots.
    pub fn reset(&mut self) {
        self.acc = [SimDuration::ZERO; Cause::COUNT];
    }

    /// A ledger tiling the span from `start` through `stamps`: each
    /// stamp charges the gap since the stamp before it (`start` for the
    /// first) to its cause, and a stamp earlier than the one before it
    /// charges zero. Over non-decreasing stamps the charges sum to the
    /// last stamp minus `start`.
    pub fn tile(start: SimTime, stamps: &[(Cause, SimTime)]) -> Self {
        let mut ledger = RequestLedger::new();
        let mut prev = start;
        for &(cause, at) in stamps {
            ledger.charge(cause, at.saturating_since(prev));
            prev = at;
        }
        ledger
    }

    /// Charges `d` to `cause`.
    pub fn charge(&mut self, cause: Cause, d: SimDuration) {
        self.acc[cause as usize] += d;
    }

    /// Time charged to `cause` so far.
    pub fn get(&self, cause: Cause) -> SimDuration {
        self.acc[cause as usize]
    }

    /// Sum over all causes — must equal the request's measured latency
    /// when the charges tile it exactly.
    pub fn total(&self) -> SimDuration {
        self.acc.iter().copied().sum()
    }

    /// Iterates the non-zero `(cause, duration)` entries in
    /// [`Cause::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Cause, SimDuration)> + '_ {
        Cause::ALL
            .iter()
            .map(|&c| (c, self.acc[c as usize]))
            .filter(|(_, d)| !d.is_zero())
    }
}

/// Outcome of one sub-I/O completion delivered to a [`RequestBook`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubCompletion {
    /// This sub already completed — the loser of a hedge race. The
    /// completion is dropped (cancel accounting).
    Duplicate,
    /// The request still has other sub-I/Os outstanding.
    Pending,
    /// This was the last outstanding sub-I/O; the request is done.
    Finished(FinishedSummary),
}

/// A finished request: identity, timeline, and hedge outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FinishedSummary {
    /// Owning tenant index.
    pub tenant: usize,
    /// When the request arrived at the frontend.
    pub arrived_at: SimTime,
    /// When a dispatch worker pulled it off the admission queue.
    pub dispatched_at: SimTime,
    /// When the slowest winning sub-I/O completed.
    pub finished_at: SimTime,
    /// How many sub-I/Os the request fanned out into.
    pub fanout: u32,
    /// Whether a hedged duplicate was fired for this request.
    pub hedge_fired: bool,
    /// Whether the duplicate beat the original it hedged.
    pub hedge_won: bool,
}

impl FinishedSummary {
    /// End-to-end request latency (arrival to last sub completion).
    pub fn latency(&self) -> SimDuration {
        self.finished_at.saturating_since(self.arrived_at)
    }

    /// Time spent queued in the frontend before dispatch.
    pub fn queueing(&self) -> SimDuration {
        self.dispatched_at.saturating_since(self.arrived_at)
    }
}

/// Slab-parked per-request state. The `subs` vector is the only heap
/// the request owns, and the slab recycles it with the slot.
#[derive(Debug, Default)]
struct OpenRequest {
    tenant: usize,
    arrived_at: SimTime,
    dispatched_at: SimTime,
    subs: Vec<SubState>,
    /// Winning completions still owed before the request finishes.
    remaining: u32,
    /// Latest winning completion seen so far (the running max that
    /// becomes `finished_at`).
    latest: SimTime,
    hedge_fired: bool,
    hedge_won: bool,
    /// The hedge loser already arrived (and was dropped) before the
    /// request finished.
    hedge_resolved: bool,
}

#[derive(Clone, Copy, Debug)]
struct SubState {
    io: SubIo,
    done: bool,
    hedged: bool,
}

/// Tracks in-flight client requests above the volume layer: striped
/// fan-out with first-completion-wins hedging and the arrival/dispatch
/// timeline, parked on a free-listed [`HandleSlab`].
#[derive(Debug, Default)]
pub struct RequestBook {
    open: HandleSlab<OpenRequest>,
    /// Requests that finished while their hedge duplicate's loser was
    /// still in flight: exactly this many more completions will arrive
    /// addressed to stale generations and must be dropped, not treated
    /// as unknown.
    pending_losers: u32,
    /// Bytes held across all slots' sub-I/O buffers (growth-only:
    /// vacated buffers stay allocated for reuse).
    subs_cap_bytes: usize,
}

impl RequestBook {
    /// Creates an empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a dispatched request fanning out into `subs`;
    /// returns its id (a [`Handle`] in raw form — dense slot index in
    /// the low 32 bits via [`Handle::index`]).
    ///
    /// # Panics
    ///
    /// Panics if `subs` is empty.
    pub fn begin(
        &mut self,
        tenant: usize,
        arrived_at: SimTime,
        dispatched_at: SimTime,
        subs: &[SubIo],
    ) -> u64 {
        assert!(!subs.is_empty(), "a request needs at least one sub-I/O");
        let (handle, open) = self.open.claim(OpenRequest::default);
        open.tenant = tenant;
        open.arrived_at = arrived_at;
        open.dispatched_at = dispatched_at;
        let cap_before = open.subs.capacity();
        open.subs.clear();
        open.subs.extend(subs.iter().map(|&io| SubState {
            io,
            done: false,
            hedged: false,
        }));
        self.subs_cap_bytes +=
            (open.subs.capacity() - cap_before) * std::mem::size_of::<SubState>();
        open.remaining = subs.len() as u32;
        open.latest = SimTime::ZERO;
        open.hedge_fired = false;
        open.hedge_won = false;
        open.hedge_resolved = false;
        handle.raw()
    }

    /// Delivers the completion of sub `sub` of request `id` at time
    /// `at`. `from_hedge` marks the completion of a hedged duplicate
    /// rather than the original submission; whichever arrives first
    /// wins, the other is reported as [`SubCompletion::Duplicate`].
    ///
    /// # Panics
    ///
    /// Panics for a completion addressed to no live request when no
    /// hedge loser is owed — an unknown id is a bug, not a race.
    pub fn complete_sub(
        &mut self,
        id: u64,
        sub: usize,
        at: SimTime,
        from_hedge: bool,
    ) -> SubCompletion {
        let handle = Handle::from_raw(id);
        let Some(open) = self.open.get_mut(handle) else {
            // The slot generation moved on: the request already
            // finished, and this is its hedge loser limping home.
            assert!(
                self.pending_losers > 0,
                "completion for unknown request {id:#x}"
            );
            self.pending_losers -= 1;
            return SubCompletion::Duplicate;
        };
        let state = &mut open.subs[sub];
        if state.done {
            open.hedge_resolved = true;
            return SubCompletion::Duplicate;
        }
        state.done = true;
        if from_hedge {
            open.hedge_won = true;
        }
        open.latest = open.latest.max(at);
        open.remaining -= 1;
        if open.remaining > 0 {
            return SubCompletion::Pending;
        }
        let fin = FinishedSummary {
            tenant: open.tenant,
            arrived_at: open.arrived_at,
            dispatched_at: open.dispatched_at,
            finished_at: open.latest,
            fanout: open.subs.len() as u32,
            hedge_fired: open.hedge_fired,
            hedge_won: open.hedge_won,
        };
        if open.hedge_fired && !open.hedge_resolved {
            self.pending_losers += 1;
        }
        self.open.free(handle);
        SubCompletion::Finished(fin)
    }

    /// Fires a hedge for request `id` if it is still in flight with
    /// **exactly one** sub-I/O outstanding that has not already been
    /// hedged: marks it hedged and returns `(sub_index, sub_io)` for
    /// the duplicate submission. Returns `None` otherwise.
    pub fn hedge_straggler(&mut self, id: u64) -> Option<(usize, SubIo)> {
        let open = self.open.get_mut(Handle::from_raw(id))?;
        let mut outstanding = open.subs.iter().enumerate().filter(|(_, s)| !s.done);
        let (idx, state) = outstanding.next()?;
        if outstanding.next().is_some() || state.hedged {
            return None;
        }
        let io = state.io;
        open.subs[idx].hedged = true;
        open.hedge_fired = true;
        Some((idx, io))
    }

    /// Re-arms sub `sub` of request `id` for another attempt after its
    /// target died mid-flight: returns the [`SubIo`] to re-issue iff
    /// the request is still live and that sub has not completed.
    /// Returns `None` for finished/stale ids or already-done subs, so
    /// a failover sweep can race a completion without double-settling.
    ///
    /// The sub's `done`/hedge state is untouched — the retry is a new
    /// submission of the *same* sub, and first-completion-wins still
    /// applies if the original attempt's completion somehow limps home
    /// (the caller is expected to fence stale attempts itself).
    pub fn retry_sub(&mut self, id: u64, sub: usize) -> Option<SubIo> {
        let open = self.open.get_mut(Handle::from_raw(id))?;
        let state = open.subs.get(sub)?;
        if state.done {
            return None;
        }
        Some(state.io)
    }

    /// When request `id` was dispatched, while it is still in flight
    /// (used to measure per-sub settle times for the hedge policy).
    pub fn dispatched_at(&self, id: u64) -> Option<SimTime> {
        self.open.get(Handle::from_raw(id)).map(|o| o.dispatched_at)
    }

    /// Sub-I/Os of request `id` not yet completed (0 once finished or
    /// for an unknown id). A hedger watches for this hitting one.
    pub fn outstanding(&self, id: u64) -> usize {
        self.open
            .get(Handle::from_raw(id))
            .map_or(0, |o| o.subs.iter().filter(|s| !s.done).count())
    }

    /// Requests currently in flight.
    pub fn in_flight(&self) -> usize {
        self.open.live()
    }

    /// High-water mark of concurrently in-flight requests — the slab's
    /// occupancy story: memory scales with this, not with tenant
    /// count.
    pub fn peak_in_flight(&self) -> usize {
        self.open.peak_live()
    }

    /// Slots the book has ever allocated (its footprint never exceeds
    /// what peak concurrency demanded).
    pub fn slots(&self) -> usize {
        self.open.slots()
    }

    /// Resident bytes of the book: the slab's structures plus every
    /// slot's sub-I/O buffer (vacated buffers stay allocated for
    /// reuse, so they count too).
    pub fn footprint_bytes(&self) -> usize {
        self.open.footprint_bytes() + self.subs_cap_bytes
    }
}

/// When to duplicate a straggling sub-I/O: after the tracked
/// percentile of observed sub-I/O settle times, once enough samples
/// exist to trust it (Dean & Barroso's "tail at scale" hedged
/// requests).
#[derive(Clone, Debug)]
pub struct HedgePolicy {
    percentile: f64,
    min_samples: u64,
    hist: LatencyHistogram,
    /// Memoized percentile scan, invalidated by `observe`. Re-arming
    /// a hedge between observations costs a cache read instead of a
    /// 6,400-bucket histogram walk.
    cached_delay: Cell<Option<SimDuration>>,
}

impl HedgePolicy {
    /// A policy hedging after the given percentile of sub-I/O settle
    /// time, warmed up by 100 observations.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < percentile <= 100`.
    pub fn at_percentile(percentile: f64) -> Self {
        assert!(
            percentile > 0.0 && percentile <= 100.0,
            "percentile must be in (0, 100]"
        );
        HedgePolicy {
            percentile,
            min_samples: 100,
            hist: LatencyHistogram::new(),
            cached_delay: Cell::new(None),
        }
    }

    /// Feeds one observed sub-I/O settle time.
    pub fn observe(&mut self, settle: SimDuration) {
        self.hist.record(settle.as_nanos());
        self.cached_delay.set(None);
    }

    /// The current hedge delay: the tracked percentile of observed
    /// settle times, or `None` while still warming up.
    pub fn delay(&self) -> Option<SimDuration> {
        if self.hist.count() < self.min_samples {
            return None;
        }
        if let Some(cached) = self.cached_delay.get() {
            return Some(cached);
        }
        let delay = SimDuration::nanos(self.hist.value_at_percentile(self.percentile));
        self.cached_delay.set(Some(delay));
        Some(delay)
    }

    /// Observations seen so far.
    pub fn observations(&self) -> u64 {
        self.hist.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subs(members: &[usize]) -> Vec<SubIo> {
        members
            .iter()
            .map(|&m| SubIo {
                member: m,
                lba: 100 + m as u64,
                bytes: 4096,
            })
            .collect()
    }

    #[test]
    fn request_finishes_at_the_slowest_sub() {
        let mut book = RequestBook::new();
        let arrived = SimTime::from_nanos(1_000);
        let dispatched = SimTime::from_nanos(1_500);
        let id = book.begin(0, arrived, dispatched, &subs(&[0, 1, 2]));
        assert_eq!(
            book.complete_sub(id, 1, SimTime::from_nanos(9_000), false),
            SubCompletion::Pending
        );
        assert_eq!(
            book.complete_sub(id, 2, SimTime::from_nanos(4_000), false),
            SubCompletion::Pending
        );
        match book.complete_sub(id, 0, SimTime::from_nanos(6_000), false) {
            SubCompletion::Finished(fin) => {
                assert_eq!(fin.finished_at, SimTime::from_nanos(9_000));
                assert_eq!(fin.latency(), SimDuration::nanos(8_000));
                assert_eq!(fin.queueing(), SimDuration::nanos(500));
                assert_eq!(fin.fanout, 3);
                assert!(!fin.hedge_fired);
            }
            other => panic!("expected Finished, got {other:?}"),
        }
        assert_eq!(book.in_flight(), 0);
    }

    #[test]
    fn hedge_race_is_first_completion_wins() {
        let mut book = RequestBook::new();
        let id = book.begin(1, SimTime::ZERO, SimTime::ZERO, &subs(&[0, 1]));
        assert_eq!(
            book.complete_sub(id, 0, SimTime::from_nanos(2_000), false),
            SubCompletion::Pending
        );
        // One straggler left: hedge fires exactly once.
        let (idx, io) = book.hedge_straggler(id).expect("one straggler");
        assert_eq!(idx, 1);
        assert_eq!(io.member, 1);
        assert!(book.hedge_straggler(id).is_none(), "no double hedge");
        // Duplicate wins the race...
        match book.complete_sub(id, 1, SimTime::from_nanos(5_000), true) {
            SubCompletion::Finished(fin) => {
                assert!(fin.hedge_fired);
                assert!(fin.hedge_won);
                assert_eq!(fin.finished_at, SimTime::from_nanos(5_000));
            }
            other => panic!("expected Finished, got {other:?}"),
        }
    }

    #[test]
    fn hedge_loser_is_cancelled() {
        let mut book = RequestBook::new();
        let id = book.begin(0, SimTime::ZERO, SimTime::ZERO, &subs(&[0]));
        let _ = book.hedge_straggler(id).expect("sole sub is the straggler");
        // Original wins; the duplicate's later completion is dropped.
        match book.complete_sub(id, 0, SimTime::from_nanos(3_000), false) {
            SubCompletion::Finished(fin) => {
                assert!(fin.hedge_fired);
                assert!(!fin.hedge_won);
            }
            other => panic!("expected Finished, got {other:?}"),
        }
        let id2 = book.begin(0, SimTime::ZERO, SimTime::ZERO, &subs(&[0, 1]));
        book.complete_sub(id2, 0, SimTime::from_nanos(1_000), false);
        book.hedge_straggler(id2).expect("straggler");
        book.complete_sub(id2, 1, SimTime::from_nanos(2_000), false);
        assert_eq!(
            book.complete_sub(id2, 1, SimTime::from_nanos(2_500), true),
            SubCompletion::Duplicate
        );
    }

    #[test]
    fn no_hedge_while_multiple_outstanding() {
        let mut book = RequestBook::new();
        let id = book.begin(0, SimTime::ZERO, SimTime::ZERO, &subs(&[0, 1, 2]));
        assert!(book.hedge_straggler(id).is_none(), "two+ outstanding");
        book.complete_sub(id, 0, SimTime::from_nanos(1_000), false);
        assert!(book.hedge_straggler(id).is_none());
        book.complete_sub(id, 1, SimTime::from_nanos(1_100), false);
        assert!(book.hedge_straggler(id).is_some());
    }

    #[test]
    fn slots_recycle_and_stale_ids_miss() {
        let mut book = RequestBook::new();
        let id1 = book.begin(0, SimTime::ZERO, SimTime::ZERO, &subs(&[0]));
        book.complete_sub(id1, 0, SimTime::from_nanos(500), false);
        let id2 = book.begin(1, SimTime::ZERO, SimTime::ZERO, &subs(&[0, 1]));
        assert_eq!(
            id1 & 0xffff_ffff,
            id2 & 0xffff_ffff,
            "slot is recycled through the free list"
        );
        assert_ne!(id1, id2, "but the generation differs");
        assert_eq!(book.outstanding(id1), 0, "stale id resolves to nothing");
        assert_eq!(book.outstanding(id2), 2);
        assert_eq!(book.slots(), 1, "footprint equals peak concurrency");
        assert_eq!(book.peak_in_flight(), 1);
        assert!(book.footprint_bytes() > 0);
    }

    #[test]
    fn retry_reissues_only_live_unfinished_subs() {
        let mut book = RequestBook::new();
        let id = book.begin(0, SimTime::ZERO, SimTime::ZERO, &subs(&[0, 1]));
        book.complete_sub(id, 0, SimTime::from_nanos(1_000), false);
        assert!(book.retry_sub(id, 0).is_none(), "done sub never retries");
        let io = book.retry_sub(id, 1).expect("open sub retries");
        assert_eq!(io.member, 1);
        // The retry is a fresh submission of the same sub: its
        // completion settles the request exactly once.
        match book.complete_sub(id, 1, SimTime::from_nanos(9_000), false) {
            SubCompletion::Finished(fin) => {
                assert_eq!(fin.finished_at, SimTime::from_nanos(9_000))
            }
            other => panic!("expected Finished, got {other:?}"),
        }
        assert!(book.retry_sub(id, 1).is_none(), "stale id never retries");
        assert!(book.retry_sub(id, 7).is_none(), "bad index is a miss");
    }

    #[test]
    #[should_panic(expected = "completion for unknown request")]
    fn unknown_completion_still_panics() {
        let mut book = RequestBook::new();
        let id = book.begin(0, SimTime::ZERO, SimTime::ZERO, &subs(&[0]));
        book.complete_sub(id, 0, SimTime::from_nanos(500), false);
        // No hedge was fired, so no loser is owed: a second completion
        // for the dead id is a bug and must be caught.
        book.complete_sub(id, 0, SimTime::from_nanos(900), false);
    }

    #[test]
    #[should_panic(expected = "at least one sub-I/O")]
    fn empty_fanout_panics() {
        RequestBook::new().begin(0, SimTime::ZERO, SimTime::ZERO, &[]);
    }

    #[test]
    fn ledger_tiles_request_latency_exactly() {
        // The invariant the experiment asserts per request: frontend
        // queueing + the slowest sub's settle segments == latency.
        let mut book = RequestBook::new();
        let arrived = SimTime::from_nanos(10_000);
        let dispatched = SimTime::from_nanos(12_500);
        let id = book.begin(0, arrived, dispatched, &subs(&[0, 1]));
        book.complete_sub(id, 0, SimTime::from_nanos(20_000), false);
        let fin = match book.complete_sub(id, 1, SimTime::from_nanos(31_500), false) {
            SubCompletion::Finished(fin) => fin,
            other => panic!("expected Finished, got {other:?}"),
        };
        let mut ledger = RequestLedger::new();
        ledger.charge(Cause::FrontendQueue, fin.queueing());
        // Split the slowest sub's settle time across device + IRQ
        // segments; the split is arbitrary here, the *sum* must tile.
        let settle = fin.finished_at.saturating_since(fin.dispatched_at);
        ledger.charge(Cause::DeviceService, settle - SimDuration::nanos(700));
        ledger.charge(Cause::IrqHandling, SimDuration::nanos(700));
        assert_eq!(ledger.total(), fin.latency());
        assert_eq!(ledger.get(Cause::FrontendQueue), SimDuration::nanos(2_500));
        assert!(ledger.iter().count() >= 2);
        ledger.reset();
        assert_eq!(ledger.total(), SimDuration::ZERO);
    }

    #[test]
    fn hedge_policy_warms_up_then_tracks_percentile() {
        let mut p = HedgePolicy::at_percentile(95.0);
        assert!(p.delay().is_none(), "cold policy must not hedge");
        for i in 1..=200u64 {
            p.observe(SimDuration::micros(i));
        }
        let delay = p.delay().expect("warm policy");
        let delay_us = delay.as_nanos() / 1_000;
        assert!(
            (180..=200).contains(&delay_us),
            "p95 of 1..=200us was {delay_us}us"
        );
        // Re-arms between observations hit the memoized value; a new
        // observation invalidates it.
        assert_eq!(p.delay(), Some(delay));
        p.observe(SimDuration::micros(500));
        assert!(p.delay().expect("still warm") >= delay);
    }
}
