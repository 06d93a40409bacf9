//! A logical-process (LP) event engine: one [`EventQueue`] timing wheel
//! multiplexing a fixed set of LPs.
//!
//! The model is a fixed set of *logical processes*, each owning a
//! disjoint slice of world state. One [`ShardWorld`] value holds every
//! LP's slice; [`ShardCtx::lp`] names the LP the current event belongs
//! to. An LP schedules *local* events for itself and exchanges
//! timestamped *cross* events with other LPs (self-sends included).
//!
//! This is the only event driver in the workspace. A world with nothing
//! to send runs as one LP with `Cross = Infallible`: its events pop in
//! `(time, push order)`, and its lookahead is never read.
//!
//! # The deterministic merge contract
//!
//! The wheel processes events in exactly this order:
//!
//! 1. earliest timestamp first;
//! 2. at equal timestamps, cross events before local events;
//! 3. cross events tie-break by [`MergeKey`] — `(source LP,
//!    destination LP, per-channel send seq)`;
//! 4. local events at equal times keep timing-wheel FIFO order.
//!
//! The wheel itself keeps this order: cross events go in through
//! [`EventQueue::push_keyed`] and local events through
//! [`EventQueue::push`], and the queue sorts an instant's keyed entries
//! ahead of its plain ones, by key, when that instant's level-0 bucket
//! drains. Pushes are plain appends and there is no side ordering
//! structure to consult per event. An event sent or scheduled *at* the
//! instant being drained pops after that instant's current batch.
//!
//! # Lookahead
//!
//! Each LP declares a *lookahead*: the minimum latency any of its cross
//! sends adds (a fabric hop, an interrupt entry). [`ShardCtx::send`]
//! asserts `ts ≥ now + lookahead(sending LP)`. Because every lookahead
//! is positive, same-timestamp events on *different* LPs are causally
//! independent, which is what makes the merge order above a property of
//! the model rather than of scheduling accidents. The per-LP bound also
//! keeps each LP's declared latency floor honest: an LP with a large
//! bound cannot hide a fast send behind another LP's smaller one.

use crate::queue::{EventQueue, MergeKey};
use crate::time::{SimDuration, SimTime};

/// A world partitioned into logical processes.
///
/// Implementations own the state slices of every LP and react to local
/// events and to cross events arriving from other LPs;
/// [`ShardCtx::lp`] names the LP the current event belongs to.
pub trait ShardWorld {
    /// Events an LP schedules for itself.
    type Local;
    /// Events exchanged between LPs.
    type Cross;

    /// Handles one local event.
    fn handle_local(
        &mut self,
        event: Self::Local,
        ctx: &mut ShardCtx<'_, Self::Local, Self::Cross>,
    );

    /// Handles one cross event sent by LP `src`.
    fn handle_cross(
        &mut self,
        src: usize,
        event: Self::Cross,
        ctx: &mut ShardCtx<'_, Self::Local, Self::Cross>,
    );
}

/// A wheel entry: a local event tagged with its LP, or a cross arrival
/// tagged with its channel (its merge key sits in the queue's key
/// slab). The queue parks each entry once, so a large cross payload is
/// never copied through the wheel's buckets.
enum Item<L, C> {
    Local { lp: u16, event: L },
    Cross { src: u16, dst: u16, event: C },
}

/// The engine state handlers schedule into: the wheel and the
/// per-channel send counters.
struct Wheel<L, C> {
    queue: EventQueue<Item<L, C>>,
    /// Per-`(src LP, dst LP)` send counters, `lp_count²` flattened.
    send_seq: Vec<u64>,
    /// Per-LP lookahead bound on cross sends.
    lookahead: Vec<SimDuration>,
    clamped: u64,
}

impl<L, C> Wheel<L, C> {
    fn push_local(&mut self, lp: usize, time: SimTime, event: L) {
        self.queue.push(
            time,
            Item::Local {
                lp: lp as u16,
                event,
            },
        );
    }

    /// Pushes a cross event keyed for the merge order, drawing the
    /// `(src, dst)` channel's next sequence number.
    fn push_cross(&mut self, src: usize, dst: usize, time: SimTime, event: C) {
        let channel = &mut self.send_seq[src * self.lookahead.len() + dst];
        let seq = *channel;
        *channel += 1;
        let (src, dst) = (src as u16, dst as u16);
        self.queue.push_keyed(
            time,
            MergeKey { src, dst, seq },
            Item::Cross { src, dst, event },
        );
    }
}

/// Scheduling context handed to the world while it processes one event.
pub struct ShardCtx<'a, L, C> {
    lp: usize,
    now: SimTime,
    wheel: &'a mut Wheel<L, C>,
}

impl<L, C> ShardCtx<'_, L, C> {
    /// The current simulation instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The logical process the current event belongs to.
    pub fn lp(&self) -> usize {
        self.lp
    }

    /// Schedules a local event for the current LP at an absolute time.
    /// Simulated time only moves forward: a past instant clamps to the
    /// clock (the event fires now, after the running one) and counts
    /// on [`ShardedSim::clamped_past_schedules`]. A non-zero count is a
    /// model bug that would otherwise hide as silently reordered
    /// events.
    pub fn at(&mut self, time: SimTime, event: L) {
        self.at_lp(self.lp, time, event);
    }

    /// Schedules a local event for an **explicit** LP at an absolute
    /// time. Used by the fusion fast path, where the hub schedules the
    /// settlement event directly on the job's worker LP.
    pub fn at_lp(&mut self, lp: usize, time: SimTime, event: L) {
        if time < self.now {
            self.wheel.clamped += 1;
        }
        self.wheel.push_local(lp, time.max(self.now), event);
    }

    /// Re-brands the context as acting for `lp` — subsequent
    /// [`at`](Self::at)/[`send`](Self::send) calls schedule, draw
    /// per-channel sequence numbers and check lookahead as that LP —
    /// and returns the previous LP so the caller can restore it. Used
    /// by the fusion fast path when it settles a macro-event
    /// synchronously from inside another LP's handler: the settlement
    /// must emit exactly the events (and sequence draws) the real
    /// completion handler on the owning LP would have.
    pub fn set_acting_lp(&mut self, lp: usize) -> usize {
        std::mem::replace(&mut self.lp, lp)
    }

    /// Sends a cross event to LP `dst` (self-sends are allowed and
    /// ordered like any other cross event), placed in merge-key
    /// position.
    ///
    /// # Panics
    ///
    /// Panics if `time < now + lookahead` of the sending LP.
    pub fn send(&mut self, dst: usize, time: SimTime, event: C) {
        let lookahead = self.wheel.lookahead[self.lp];
        assert!(
            time >= self.now + lookahead,
            "cross send by LP {} at {time} violates its lookahead \
             (now {}, lookahead {} ns)",
            self.lp,
            self.now,
            lookahead.as_nanos(),
        );
        self.wheel.push_cross(self.lp, dst, time, event);
    }

    /// Re-emits a cross event **as if** LP `src` had sent it — the
    /// de-fuse escape hatch of the fusion fast path. The send draws
    /// `src`'s per-channel sequence number, so a replayed event lands
    /// in exactly the merge-key position the elided original would
    /// have occupied. Unlike [`ShardCtx::send`] there is no lookahead
    /// floor: the replayed event may be scheduled at the current
    /// instant (it pops after the running handler, in key order among
    /// same-time entries).
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past.
    pub fn send_from(&mut self, src: usize, dst: usize, time: SimTime, event: C) {
        assert!(time >= self.now, "send_from must not target the past");
        self.wheel.push_cross(src, dst, time, event);
    }
}

/// A simulation of one [`ShardWorld`] over a fixed set of LPs.
pub struct ShardedSim<W: ShardWorld> {
    world: W,
    wheel: Wheel<W::Local, W::Cross>,
    now: SimTime,
    processed: u64,
}

impl<W: ShardWorld> ShardedSim<W> {
    /// Builds a simulation of `world` serving one LP per entry of
    /// `lookaheads`; `lookaheads[lp]` bounds LP `lp`'s cross sends. LP
    /// ids are the vector indices and must stay stable across runs —
    /// they are part of the merge contract.
    ///
    /// # Panics
    ///
    /// Panics if there are no LPs or any lookahead is zero.
    pub fn new(world: W, lookaheads: Vec<SimDuration>) -> Self {
        let lps = lookaheads.len();
        assert!(lps > 0, "need at least one LP");
        assert!(lps <= u16::MAX as usize, "too many LPs");
        assert!(
            lookaheads.iter().all(|l| !l.is_zero()),
            "every LP needs a positive lookahead"
        );
        ShardedSim {
            world,
            wheel: Wheel {
                queue: EventQueue::new(),
                send_seq: vec![0; lps * lps],
                lookahead: lookaheads,
                clamped: 0,
            },
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Seeds an initial local event on `lp`.
    pub fn schedule(&mut self, lp: usize, time: SimTime, event: W::Local) {
        self.wheel.push_local(lp, time, event);
    }

    /// The instant of the last event processed.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Total past-time schedules clamped.
    pub fn clamped_past_schedules(&self) -> u64 {
        self.wheel.clamped
    }

    /// Consumes the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Runs until no event remains, then [`flush`](crate::metrics::flush)es
    /// this run's processed and clamped counts.
    pub fn run(&mut self) {
        let (processed, clamped) = (self.processed, self.wheel.clamped);
        while let Some((time, item)) = self.wheel.queue.pop() {
            self.now = time;
            self.processed += 1;
            match item {
                Item::Local { lp, event } => {
                    let mut ctx = ShardCtx {
                        lp: lp as usize,
                        now: time,
                        wheel: &mut self.wheel,
                    };
                    self.world.handle_local(event, &mut ctx);
                }
                Item::Cross { src, dst, event } => {
                    let mut ctx = ShardCtx {
                        lp: dst as usize,
                        now: time,
                        wheel: &mut self.wheel,
                    };
                    self.world.handle_cross(src as usize, event, &mut ctx);
                }
            }
        }
        crate::metrics::flush(crate::metrics::Counters {
            events: self.processed - processed,
            clamped_past: self.wheel.clamped - clamped,
            ..Default::default()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    enum Local {
        Tick(u64),
    }

    type RingLog = Vec<(u64, usize, u64)>; // (time, src, value)

    /// A ring of LPs in one world: each LP passes a token to the next,
    /// recording what it saw. Local "tick" events fire at the same
    /// instants as cross arrivals to exercise cross-vs-local ties.
    struct Ring {
        logs: Vec<RingLog>,
        hops_left: Vec<u64>,
    }

    impl ShardWorld for Ring {
        type Local = Local;
        type Cross = u64;

        fn handle_local(&mut self, event: Local, ctx: &mut ShardCtx<'_, Local, u64>) {
            let Local::Tick(v) = event;
            let lp = ctx.lp();
            self.logs[lp].push((ctx.now().as_nanos(), usize::MAX, v));
            if self.hops_left[lp] > 0 {
                self.hops_left[lp] -= 1;
                let dst = (lp + 1) % self.logs.len();
                ctx.send(dst, ctx.now() + SimDuration::nanos(700), v + 1);
            }
        }

        fn handle_cross(&mut self, src: usize, event: u64, ctx: &mut ShardCtx<'_, Local, u64>) {
            let lp = ctx.lp();
            self.logs[lp].push((ctx.now().as_nanos(), src, event));
            if event < 200 {
                let dst = (lp + 1) % self.logs.len();
                ctx.send(dst, ctx.now() + SimDuration::nanos(700), event + 1);
                // A same-time local event: must process *after* any
                // cross event that shares its timestamp.
                ctx.at(ctx.now() + SimDuration::nanos(700), Local::Tick(event));
            }
        }
    }

    fn run_ring(lps: usize) -> (Vec<RingLog>, u64, SimTime) {
        let world = Ring {
            logs: vec![Vec::new(); lps],
            hops_left: vec![3; lps],
        };
        let mut sim = ShardedSim::new(world, vec![SimDuration::nanos(500); lps]);
        for lp in 0..lps {
            sim.schedule(
                lp,
                SimTime::ZERO + SimDuration::nanos(13 * lp as u64),
                Local::Tick(lp as u64 * 1000),
            );
        }
        sim.run();
        let events = sim.events_processed();
        let now = sim.now();
        (sim.into_world().logs, events, now)
    }

    #[test]
    fn ring_logs_interleave_cross_before_local() {
        let (logs, events, now) = run_ring(4);
        assert!(events > 0);
        assert_eq!(
            events,
            logs.iter().map(|l| l.len() as u64).sum::<u64>(),
            "every event lands in exactly one LP's log"
        );
        assert_eq!(
            Some(now.as_nanos()),
            logs.iter().flatten().map(|&(t, _, _)| t).max()
        );
        for (lp, log) in logs.iter().enumerate() {
            assert!(
                log.windows(2).all(|w| w[0].0 <= w[1].0),
                "LP {lp} went back in time"
            );
            // At every shared instant a cross arrival (src < MAX)
            // precedes the local tick (src == MAX).
            for w in log.windows(2) {
                if w[0].0 == w[1].0 {
                    assert!(
                        w[0].1 <= w[1].1,
                        "LP {lp}: local before cross at {}",
                        w[0].0
                    );
                }
            }
            // Every cross arrival came from the ring predecessor.
            let pred = (lp + logs.len() - 1) % logs.len();
            assert!(log
                .iter()
                .all(|&(_, src, _)| src == usize::MAX || src == pred));
        }
        // Same inputs, same run.
        assert_eq!(run_ring(4), (logs, events, now));
    }

    #[test]
    fn run_flushes_the_global_event_counter() {
        let ((_, events, _), counts) = crate::metrics::capture(|| run_ring(4));
        assert_eq!(
            counts,
            crate::metrics::Counters {
                events,
                ..Default::default()
            }
        );
    }

    /// A one-LP world with nothing to send, the shape of the
    /// experiment worlds: event 1 schedules event 2 before the clock.
    struct PastScheduler {
        seen: Vec<(u64, u32)>,
    }

    impl ShardWorld for PastScheduler {
        type Local = u32;
        type Cross = std::convert::Infallible;
        fn handle_local(&mut self, id: u32, ctx: &mut ShardCtx<'_, u32, Self::Cross>) {
            self.seen.push((ctx.now().as_nanos(), id));
            if id == 1 {
                ctx.at(SimTime::from_nanos(40), 2);
            }
        }
        fn handle_cross(
            &mut self,
            _s: usize,
            event: Self::Cross,
            _c: &mut ShardCtx<'_, u32, Self::Cross>,
        ) {
            match event {}
        }
    }

    #[test]
    fn past_schedules_clamp_to_now_and_count() {
        let world = PastScheduler { seen: Vec::new() };
        let mut sim = ShardedSim::new(world, vec![SimDuration::nanos(1)]);
        sim.schedule(0, SimTime::from_nanos(100), 1);
        let ((), counts) = crate::metrics::capture(|| sim.run());
        assert_eq!(sim.clamped_past_schedules(), 1);
        assert_eq!((counts.events, counts.clamped_past), (2, 1));
        // The clamped event fires at the clock, after the one that
        // scheduled it.
        assert_eq!(sim.into_world().seen, vec![(100, 1), (100, 2)]);
    }

    /// Two sources fire same-timestamp cross events at LP 0; the
    /// receiver must see them ordered by (time, src, seq), whatever
    /// order the sources ran in.
    #[test]
    fn cross_events_merge_by_time_src_seq() {
        struct Fan {
            seen: Vec<(usize, u64)>,
        }
        impl ShardWorld for Fan {
            type Local = ();
            type Cross = u64;
            fn handle_local(&mut self, _e: (), ctx: &mut ShardCtx<'_, (), u64>) {
                // Two sends to the same destination at the same
                // timestamp: seq breaks the tie.
                let t = ctx.now() + SimDuration::micros(10);
                let id = ctx.lp() as u64;
                ctx.send(0, t, id * 10);
                ctx.send(0, t, id * 10 + 1);
            }
            fn handle_cross(&mut self, src: usize, event: u64, ctx: &mut ShardCtx<'_, (), u64>) {
                assert_eq!(ctx.lp(), 0, "only LP 0 receives");
                self.seen.push((src, event));
            }
        }
        let mut sim = ShardedSim::new(Fan { seen: Vec::new() }, vec![SimDuration::nanos(1); 3]);
        // LP 2 fires *first* but must still merge after LP 1's events
        // (same timestamp, higher source LP).
        sim.schedule(2, SimTime::ZERO, ());
        sim.schedule(1, SimTime::ZERO, ());
        sim.run();
        assert_eq!(
            sim.into_world().seen,
            vec![(1, 10), (1, 11), (2, 20), (2, 21)]
        );
    }

    /// Sends `at_ns` after the clock from whichever LP the event runs on.
    struct Sender {
        at_ns: u64,
    }

    impl ShardWorld for Sender {
        type Local = ();
        type Cross = ();
        fn handle_local(&mut self, _e: (), ctx: &mut ShardCtx<'_, (), ()>) {
            let dst = 1 - ctx.lp();
            ctx.send(dst, ctx.now() + SimDuration::nanos(self.at_ns), ());
        }
        fn handle_cross(&mut self, _s: usize, _e: (), _c: &mut ShardCtx<'_, (), ()>) {}
    }

    fn run_sender(lp: usize, at_ns: u64) {
        let lookaheads = vec![SimDuration::nanos(100), SimDuration::nanos(1_000)];
        let mut sim = ShardedSim::new(Sender { at_ns }, lookaheads);
        sim.schedule(lp, SimTime::ZERO, ());
        sim.run();
    }

    #[test]
    #[should_panic(expected = "lookahead")]
    fn sends_below_lookahead_panic() {
        run_sender(0, 0);
    }

    /// Each LP is held to its own bound: LP 1 (1 µs) may not send at
    /// 500 ns even though LP 0's 100 ns bound would allow it, while
    /// LP 0 may.
    #[test]
    #[should_panic(expected = "cross send by LP 1")]
    fn each_lp_is_held_to_its_own_lookahead() {
        run_sender(0, 500);
        run_sender(1, 1_000);
        run_sender(1, 500);
    }
}
