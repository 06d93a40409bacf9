//! The generic simulation driver.
//!
//! A simulation is a [`World`] (all mutable model state) plus an
//! [`EventQueue`]. The driver pops the earliest event, advances the
//! clock, and asks the world to handle it; handling may schedule further
//! events through the [`Scheduler`] handed to the callback.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Scheduling interface passed to [`World::handle`], through which the
/// world enqueues follow-up events.
///
/// Borrowing the queue separately from the world lets the world mutate
/// itself freely while scheduling.
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    clamped_past: &'a mut u64,
}

impl<'a, E> Scheduler<'a, E> {
    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` after now.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// Simulated time only moves forward: a `time` in the past is
    /// clamped to now (keeping the run well-ordered) and counted on
    /// [`Simulation::clamped_past_schedules`], with a log line on the
    /// first occurrence in debug builds — a non-zero counter means a
    /// model bug that would otherwise hide as silently reordered
    /// events.
    pub fn at(&mut self, time: SimTime, event: E) {
        if time < self.now {
            note_past_schedule(self.clamped_past, self.now, time);
        }
        self.queue.push(time.max(self.now), event);
    }

    /// Schedules `event` to fire immediately (at the current instant,
    /// after all events already queued for this instant).
    pub fn immediately(&mut self, event: E) {
        self.queue.push(self.now, event);
    }
}

/// Bumps a past-schedule counter and reports the offence through the
/// structured [`crate::trace::set_past_schedule_hook`] hook (silent
/// when no hook is installed — never stderr, so concurrent runs cannot
/// interleave output).
#[inline]
pub(crate) fn note_past_schedule(counter: &mut u64, now: SimTime, requested: SimTime) {
    crate::trace::note_past_schedule(now, requested);
    *counter += 1;
}

/// The mutable state of a simulation and its event semantics.
pub trait World {
    /// The event type driving this world.
    type Event;

    /// Handles one event at its scheduled time, optionally scheduling
    /// follow-ups via `sched`.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);
}

/// Outcome of a single [`Simulation::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// An event was processed; the clock now reads the contained time.
    Advanced(SimTime),
    /// No events remain.
    Idle,
}

/// A generic discrete-event simulation: a world plus its event queue
/// and clock.
///
/// # Example
///
/// ```
/// use afa_sim::{Simulation, SimDuration, World};
///
/// struct Counter {
///     fired: u32,
/// }
///
/// impl World for Counter {
///     type Event = ();
///     fn handle(&mut self, _e: (), sched: &mut afa_sim::Scheduler<'_, ()>) {
///         self.fired += 1;
///         if self.fired < 3 {
///             sched.after(SimDuration::micros(10), ());
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(Counter { fired: 0 });
/// sim.schedule_in(SimDuration::ZERO, ());
/// sim.run_to_completion();
/// assert_eq!(sim.world().fired, 3);
/// assert_eq!(sim.now().as_micros_f64(), 20.0);
/// ```
pub struct Simulation<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    processed: u64,
    /// Events already reported to [`crate::metrics`].
    flushed: u64,
    /// Past-time schedules clamped to the clock (see
    /// [`Simulation::clamped_past_schedules`]).
    clamped_past: u64,
    /// Clamped schedules already reported to [`crate::metrics`].
    flushed_clamped: u64,
}

impl<W: World> Simulation<W> {
    /// Creates a simulation at time zero with an empty queue.
    pub fn new(world: W) -> Self {
        Self::with_capacity(world, 0)
    }

    /// Creates a simulation at time zero whose event queue is pre-sized
    /// for roughly `capacity` concurrently pending events.
    pub fn with_capacity(world: W, capacity: usize) -> Self {
        Simulation {
            world,
            queue: EventQueue::with_capacity(capacity),
            now: SimTime::ZERO,
            processed: 0,
            flushed: 0,
            clamped_past: 0,
            flushed_clamped: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events that were scheduled at an instant already in
    /// the past and clamped to the clock. Always 0 for a healthy
    /// model: anything else means event ordering silently diverged
    /// from what the world asked for.
    pub fn clamped_past_schedules(&self) -> u64 {
        self.clamped_past
    }

    /// Reports newly processed events to [`crate::metrics`] (batched so
    /// [`Simulation::step`] never touches an atomic).
    fn flush_metrics(&mut self) {
        crate::metrics::add_events(self.processed - self.flushed);
        self.flushed = self.processed;
        crate::metrics::add_clamped_past(self.clamped_past - self.flushed_clamped);
        self.flushed_clamped = self.clamped_past;
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the simulation and returns the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedules an event at an absolute time. Past instants clamp to
    /// the clock and count on [`Simulation::clamped_past_schedules`].
    pub fn schedule_at(&mut self, time: SimTime, event: W::Event) {
        if time < self.now {
            note_past_schedule(&mut self.clamped_past, self.now, time);
        }
        self.queue.push(time.max(self.now), event);
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: W::Event) {
        self.queue.push(self.now + delay, event);
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Processes the earliest pending event, advancing the clock.
    pub fn step(&mut self) -> StepOutcome {
        match self.queue.pop() {
            None => StepOutcome::Idle,
            Some((time, event)) => {
                self.now = time;
                self.processed += 1;
                let mut sched = Scheduler {
                    now: time,
                    queue: &mut self.queue,
                    clamped_past: &mut self.clamped_past,
                };
                self.world.handle(event, &mut sched);
                StepOutcome::Advanced(time)
            }
        }
    }

    /// Runs until no events remain.
    pub fn run_to_completion(&mut self) {
        while self.step() != StepOutcome::Idle {}
        self.flush_metrics();
    }

    /// Runs until the clock passes `deadline` or no events remain.
    ///
    /// Events scheduled exactly at `deadline` are processed; the first
    /// event strictly after it is left pending.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.next_time() {
            if t > deadline {
                // Stopping early: the clock rests at the deadline.
                self.now = self.now.max(deadline);
                break;
            }
            self.step();
        }
        self.flush_metrics();
    }
}

impl<W: World + std::fmt::Debug> std::fmt::Debug for Simulation<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("processed", &self.processed)
            .field("world", &self.world)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Recorder {
        seen: Vec<(u64, u32)>,
    }

    #[derive(Debug)]
    enum Ev {
        Mark(u32),
        Chain { remaining: u32, gap_ns: u64 },
    }

    impl World for Recorder {
        type Event = Ev;

        fn handle(&mut self, event: Ev, sched: &mut Scheduler<'_, Ev>) {
            match event {
                Ev::Mark(id) => self.seen.push((sched.now().as_nanos(), id)),
                Ev::Chain { remaining, gap_ns } => {
                    self.seen.push((sched.now().as_nanos(), remaining));
                    if remaining > 0 {
                        sched.after(
                            SimDuration::nanos(gap_ns),
                            Ev::Chain {
                                remaining: remaining - 1,
                                gap_ns,
                            },
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn processes_in_order_and_advances_clock() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_at(SimTime::from_nanos(50), Ev::Mark(2));
        sim.schedule_at(SimTime::from_nanos(10), Ev::Mark(1));
        sim.run_to_completion();
        assert_eq!(sim.world().seen, vec![(10, 1), (50, 2)]);
        assert_eq!(sim.now(), SimTime::from_nanos(50));
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn chained_events_reschedule() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_in(
            SimDuration::ZERO,
            Ev::Chain {
                remaining: 3,
                gap_ns: 100,
            },
        );
        sim.run_to_completion();
        assert_eq!(sim.world().seen, vec![(0, 3), (100, 2), (200, 1), (300, 0)]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(Recorder::default());
        for i in 0..10 {
            sim.schedule_at(SimTime::from_nanos(i * 100), Ev::Mark(i as u32));
        }
        sim.run_until(SimTime::from_nanos(450));
        assert_eq!(sim.world().seen.len(), 5);
        assert_eq!(sim.pending_events(), 5);
        // Event exactly at the deadline is included.
        sim.run_until(SimTime::from_nanos(500));
        assert_eq!(sim.world().seen.len(), 6);
    }

    #[test]
    fn idle_when_empty() {
        let mut sim = Simulation::new(Recorder::default());
        assert_eq!(sim.step(), StepOutcome::Idle);
    }

    #[test]
    fn past_schedules_clamp_and_count() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_at(SimTime::from_nanos(100), Ev::Mark(1));
        assert_eq!(sim.step(), StepOutcome::Advanced(SimTime::from_nanos(100)));
        assert_eq!(sim.clamped_past_schedules(), 0);
        // The clock reads 100; scheduling at 40 is a model bug — the
        // event fires now, and the counter records the clamp.
        sim.schedule_at(SimTime::from_nanos(40), Ev::Mark(2));
        assert_eq!(sim.clamped_past_schedules(), 1);
        sim.run_to_completion();
        assert_eq!(sim.world().seen, vec![(100, 1), (100, 2)]);
    }

    #[test]
    fn scheduler_counts_past_schedules_from_handlers() {
        #[derive(Debug, Default)]
        struct PastScheduler {
            fired: u32,
        }
        impl World for PastScheduler {
            type Event = ();
            fn handle(&mut self, _e: (), sched: &mut Scheduler<'_, ()>) {
                self.fired += 1;
                if self.fired == 1 {
                    // Deliberately schedule into the past.
                    sched.at(SimTime::ZERO, ());
                }
            }
        }
        let mut sim = Simulation::new(PastScheduler::default());
        sim.schedule_at(SimTime::from_nanos(50), ());
        sim.run_to_completion();
        assert_eq!(sim.world().fired, 2);
        assert_eq!(sim.clamped_past_schedules(), 1);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut sim = Simulation::with_capacity(Recorder::default(), 256);
        sim.schedule_at(SimTime::from_nanos(10), Ev::Mark(1));
        sim.schedule_at(SimTime::from_nanos(5), Ev::Mark(0));
        sim.run_to_completion();
        assert_eq!(sim.world().seen, vec![(5, 0), (10, 1)]);
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn runs_flush_the_global_event_counter() {
        let before = crate::metrics::events_processed_total();
        let mut sim = Simulation::new(Recorder::default());
        for i in 0..10 {
            sim.schedule_at(SimTime::from_nanos(i * 10), Ev::Mark(i as u32));
        }
        sim.run_until(SimTime::from_nanos(45));
        sim.run_to_completion();
        assert_eq!(sim.events_processed(), 10);
        // ≥, not ==: other tests in the process also count.
        assert!(crate::metrics::events_processed_total() >= before + 10);
    }

    #[test]
    fn same_instant_fifo() {
        let mut sim = Simulation::new(Recorder::default());
        for i in 0..5 {
            sim.schedule_at(SimTime::from_nanos(42), Ev::Mark(i));
        }
        sim.run_to_completion();
        let ids: Vec<u32> = sim.world().seen.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }
}
