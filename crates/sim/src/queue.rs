//! The timestamped event queue at the heart of the simulator.
//!
//! Implemented as a **hierarchical timing wheel** (calendar-queue
//! family): 11 levels of 64 nanosecond-resolution buckets, where level
//! `k` sorts events by bits `[6k, 6k+6)` of their absolute timestamp.
//! A push lands in the bucket of the *highest* bit in which the event's
//! time differs from the wheel's current origin — O(1). A pop drains
//! the earliest level-0 bucket; when level 0 is exhausted, the first
//! bucket of the lowest occupied level is *cascaded* (redistributed)
//! into the levels below it. Every event descends at most once per
//! level, so push and pop are amortized O(1) — versus the O(log n)
//! comparator work of a binary heap — and per-level occupancy bitmaps
//! make "find the next bucket" a single `trailing_zeros`.
//!
//! Each event is *parked once*: its payload (and merge key, if any)
//! goes into a free-listed slab at push time and leaves it at pop time.
//! The buckets hold 16-byte `(time, slot)` handles, so a cascade moves
//! handles, never payloads, however large the event type is.
//!
//! # Ordering contract
//!
//! Events pop in ascending time order. Among events at one instant:
//!
//! 1. a *drain batch* is everything an instant's level-0 bucket holds
//!    when it is drained; an event pushed at the instant being drained
//!    joins the next batch of that instant, after the current one;
//! 2. within a batch, keyed events ([`EventQueue::push_keyed`]) pop
//!    before plain ones ([`EventQueue::push`]), in [`MergeKey`] order;
//! 3. plain events pop in push (FIFO) order.
//!
//! Push order survives the wheel structurally: same-time events always
//! map to the same bucket, pushes append, and cascades preserve bucket
//! order. Rule 2 is applied when a level-0 bucket drains: a batch of
//! more than one event with at least one keyed entry is stable-sorted
//! there, keyed entries first by key, plain entries after in push
//! order. For plain-only traffic this is exactly the `(time,
//! insertion)` order of the binary heap this replaced (kept below as a
//! `#[cfg(test)]` reference) — this is what keeps whole-system runs
//! bit-reproducible. Differential tests (unit and property) drive the
//! wheel against the heap and against a sorted-set model of the rules
//! above with interleaved push/pop sequences and require identical
//! output.
//!
//! Timestamps may go backwards relative to the wheel origin (the
//! generic API allows pushing a time earlier than the last pop); such
//! events overflow into a small sequence-numbered binary heap and
//! still pop in exact `(time, keyed-before-plain, key or insertion)`
//! order. The LP engine never produces them — [`crate::ShardCtx::at`]
//! clamps to `now` and cross sends land in the future — so the hot
//! path pays only an empty-heap check.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Merge key of a cross-LP event: `(source LP, destination LP,
/// per-channel send sequence)`. Together with the timestamp this is a
/// total order over cross events that depends only on the logical
/// processes involved (see [`crate::shard`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MergeKey {
    /// Source logical process.
    pub src: u16,
    /// Destination logical process.
    pub dst: u16,
    /// Per-`(src, dst)` channel send counter.
    pub seq: u64,
}

/// Bits of the timestamp consumed per wheel level.
const LEVEL_BITS: u32 = 6;
/// Buckets per level; `u64` occupancy bitmaps require exactly 64.
const SLOTS: usize = 1 << LEVEL_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Levels needed so every `u64` timestamp has a home: ⌈64 / 6⌉.
const LEVELS: usize = (64 / LEVEL_BITS as usize) + 1;

/// Wheel level for an event at `time` given the wheel origin `cur`:
/// the level containing the most significant differing bit. `| 1`
/// pins `time == cur` to level 0 without a branch.
#[inline]
fn level_of(time: u64, cur: u64) -> usize {
    debug_assert!(time >= cur);
    ((63 - ((time ^ cur) | 1).leading_zeros()) / LEVEL_BITS) as usize
}

/// A wheel-resident reference to a parked event.
#[derive(Clone, Copy, Debug)]
struct Handle {
    time: u64,
    /// Index into [`EventQueue::slab`].
    slot: u32,
    /// Pushed by [`EventQueue::push_keyed`]; its key is
    /// `keys[slot]`.
    keyed: bool,
}

// Cascades copy handles, so keep them at two words.
const _: () = assert!(std::mem::size_of::<Handle>() == 16);

/// An event pushed with a timestamp earlier than the wheel origin
/// (impossible through the LP engine, legal through the raw API):
/// ordered by time, then insertion sequence, exactly like the old heap.
struct PastEntry<E> {
    time: u64,
    /// `Some` for keyed (cross) events, `None` for plain pushes.
    key: Option<MergeKey>,
    seq: u64,
    event: E,
}

impl<E> PastEntry<E> {
    /// Ascending-order rank: time, then keyed-before-plain, then key
    /// (keyed) or insertion seq (plain) — the order a wheel drain
    /// batch pops in.
    fn rank(&self, other: &Self) -> Ordering {
        self.time
            .cmp(&other.time)
            .then_with(|| match (&self.key, &other.key) {
                (Some(a), Some(b)) => a.cmp(b),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => self.seq.cmp(&other.seq),
            })
    }
}

impl<E> PartialEq for PastEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.rank(other) == Ordering::Equal
    }
}

impl<E> Eq for PastEntry<E> {}

impl<E> PartialOrd for PastEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for PastEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event wins.
        other.rank(self)
    }
}

/// A min-priority queue of `(SimTime, E)` pairs with stable FIFO
/// ordering among equal timestamps, built on a hierarchical timing
/// wheel (amortized O(1) push/pop).
///
/// # Example
///
/// ```
/// use afa_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(10), 'b');
/// q.push(SimTime::from_nanos(10), 'c');
/// q.push(SimTime::from_nanos(5), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
pub struct EventQueue<E> {
    /// `LEVELS × SLOTS` buckets, flattened; bucket `level*SLOTS + slot`
    /// holds handles whose timestamp chunk at `level` equals `slot`.
    wheel: Vec<Vec<Handle>>,
    /// Per-level bitmap of non-empty buckets.
    occupied: [u64; LEVELS],
    /// Wheel origin: all wheel-resident events have `time >= cur`.
    cur: u64,
    /// Parked payloads of wheel-resident events, indexed by
    /// [`Handle::slot`]; `None` slots are on `free`.
    slab: Vec<Option<E>>,
    /// Merge keys of keyed slots (stale for plain ones).
    keys: Vec<MergeKey>,
    free: Vec<u32>,
    /// The current drain batch: slots of the drained level-0 bucket,
    /// in pop order from `ready_pos`, every one at `ready_time`.
    ready: Vec<u32>,
    ready_pos: usize,
    ready_time: u64,
    /// Overflow for `time < cur` pushes (see module docs).
    past: BinaryHeap<PastEntry<E>>,
    past_seq: u64,
    /// Reusable cascade buffer; bucket allocations rotate through it
    /// so steady-state operation does not allocate.
    scratch: Vec<Handle>,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            cur: 0,
            slab: Vec::new(),
            keys: Vec::new(),
            free: Vec::new(),
            ready: Vec::new(),
            ready_pos: 0,
            ready_time: 0,
            past: BinaryHeap::new(),
            past_seq: 0,
            scratch: Vec::new(),
            len: 0,
        }
    }

    /// Creates an empty queue pre-sized for roughly `capacity` pending
    /// events: the slab and the cascade buffer are pre-allocated
    /// (bucket storage itself grows on demand and is reused
    /// thereafter).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.min(1 << 20);
        EventQueue {
            slab: Vec::with_capacity(capacity),
            keys: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            scratch: Vec::with_capacity(capacity),
            ..Self::new()
        }
    }

    /// Parks `event` in a free slab slot and returns the slot.
    #[inline]
    fn park(&mut self, event: E) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                self.keys.push(MergeKey {
                    src: 0,
                    dst: 0,
                    seq: 0,
                });
                (self.slab.len() - 1) as u32
            }
        }
    }

    /// Takes the event parked in `slot` and frees the slot.
    #[inline]
    fn unpark(&mut self, slot: u32) -> E {
        self.free.push(slot);
        self.slab[slot as usize].take().expect("parked event")
    }

    /// Places `handle` in its wheel bucket. Requires `handle.time >= cur`.
    #[inline]
    fn insert(&mut self, handle: Handle) {
        let level = level_of(handle.time, self.cur);
        let slot = ((handle.time >> (level as u32 * LEVEL_BITS)) & SLOT_MASK) as usize;
        self.wheel[level * SLOTS + slot].push(handle);
        self.occupied[level] |= 1 << slot;
    }

    /// Schedules `(t, event)`, keyed by `key` if it has one: parked on
    /// the wheel, or in the overflow heap if `t` precedes the origin.
    #[inline]
    fn schedule(&mut self, t: u64, key: Option<MergeKey>, event: E) {
        if self.len == 0 {
            // Empty queue: re-anchor the wheel so `t` is the origin.
            // Keeps single-outstanding-event churn entirely in level 0
            // and lets arbitrary (even "past") times start fresh.
            self.cur = t;
        }
        self.len += 1;
        if t < self.cur {
            let seq = self.past_seq;
            self.past_seq += 1;
            self.past.push(PastEntry {
                time: t,
                key,
                seq,
                event,
            });
            return;
        }
        let slot = self.park(event);
        if let Some(key) = key {
            self.keys[slot as usize] = key;
        }
        self.insert(Handle {
            time: t,
            slot,
            keyed: key.is_some(),
        });
    }

    /// Schedules `event` at the absolute instant `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.schedule(time.as_nanos(), None, event);
    }

    /// Schedules `event` at the absolute instant `time` under merge key
    /// `key`. Within the drain batch it lands in, every keyed event
    /// pops in [`MergeKey`] order *before* any plain event sharing the
    /// timestamp (see the module docs).
    ///
    /// The push itself is the plain append; the merge order is
    /// resolved once, when the instant's level-0 bucket drains, so
    /// neither this push nor a cascade pays for it.
    ///
    /// The caller must not push a keyed event at or before an instant
    /// it has already drained past (the LP engine's lookahead
    /// discipline guarantees arrivals are strictly in each receiver's
    /// future); a keyed event landing in the past-overflow heap is
    /// still ordered correctly against everything pending.
    pub fn push_keyed(&mut self, time: SimTime, key: MergeKey, event: E) {
        self.schedule(time.as_nanos(), Some(key), event);
    }

    /// Cascades buckets until level 0 is occupied. Requires at least
    /// one wheel-resident event.
    fn settle_wheel(&mut self) {
        while self.occupied[0] == 0 {
            // The first bucket of the lowest occupied level holds the
            // globally earliest events: higher levels differ from the
            // origin in more significant timestamp bits.
            let level = (1..LEVELS)
                .find(|&k| self.occupied[k] != 0)
                .expect("settle_wheel called with an empty wheel");
            let slot = self.occupied[level].trailing_zeros() as u64;
            let shift = level as u32 * LEVEL_BITS;
            // Advance the origin to the start of the bucket's span;
            // everything below `shift` zeroes out.
            let upper = u64::MAX.checked_shl(shift + LEVEL_BITS).unwrap_or(0);
            self.cur = (self.cur & upper) | (slot << shift);
            self.occupied[level] &= !(1 << slot);
            // Swap the bucket against the reusable scratch buffer and
            // redistribute; order-preserving, so FIFO ties survive.
            let mut items = std::mem::replace(
                &mut self.wheel[level * SLOTS + slot as usize],
                std::mem::take(&mut self.scratch),
            );
            for handle in items.drain(..) {
                debug_assert!(
                    level_of(handle.time, self.cur) < level,
                    "cascade must descend"
                );
                self.insert(handle);
            }
            self.scratch = items;
        }
    }

    /// Drains the earliest level-0 bucket into the ready batch, in pop
    /// order. Requires at least one wheel-resident event.
    fn drain_next_batch(&mut self) {
        self.settle_wheel();
        let slot = self.occupied[0].trailing_zeros() as u64;
        let t = (self.cur & !SLOT_MASK) | slot;
        debug_assert!(t >= self.cur);
        self.cur = t;
        self.ready_time = t;
        self.occupied[0] &= !(1 << slot);
        // A level-0 bucket spans exactly one nanosecond, so every
        // entry shares the timestamp. Keyed entries move ahead of
        // plain ones in key order; the sort is stable, so plain
        // entries keep push order.
        let bucket = &mut self.wheel[slot as usize];
        if bucket.len() > 1 && bucket.iter().any(|h| h.keyed) {
            let keys = &self.keys;
            bucket.sort_by(|a, b| match (a.keyed, b.keyed) {
                (true, true) => keys[a.slot as usize].cmp(&keys[b.slot as usize]),
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                (false, false) => Ordering::Equal,
            });
        }
        self.ready.clear();
        self.ready_pos = 0;
        // Drain keeps the bucket's allocation for its next occupant.
        self.ready.extend(bucket.drain(..).map(|h| {
            debug_assert_eq!(h.time, t);
            h.slot
        }));
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        // Overflow events are strictly earlier than the origin, and
        // ready events sit exactly at it, so the precedence is fixed.
        if let Some(entry) = self.past.pop() {
            return Some((SimTime::from_nanos(entry.time), entry.event));
        }
        if self.ready_pos == self.ready.len() {
            self.drain_next_batch();
        }
        let slot = self.ready[self.ready_pos];
        self.ready_pos += 1;
        Some((SimTime::from_nanos(self.ready_time), self.unpark(slot)))
    }

    /// Returns the timestamp of the earliest pending event.
    ///
    /// Non-mutating, so when the head of the queue is buried in a
    /// not-yet-cascaded bucket this scans that bucket (O(bucket)).
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if let Some(p) = self.past.peek() {
            return Some(SimTime::from_nanos(p.time));
        }
        if self.ready_pos < self.ready.len() {
            return Some(SimTime::from_nanos(self.ready_time));
        }
        for level in 0..LEVELS {
            if self.occupied[level] == 0 {
                continue;
            }
            let slot = self.occupied[level].trailing_zeros() as u64;
            if level == 0 {
                return Some(SimTime::from_nanos((self.cur & !SLOT_MASK) | slot));
            }
            let t = self.wheel[level * SLOTS + slot as usize]
                .iter()
                .map(|h| h.time)
                .min()
                .expect("bucket marked occupied");
            return Some(SimTime::from_nanos(t));
        }
        unreachable!("non-zero len with no events stored")
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        for bucket in &mut self.wheel {
            bucket.clear();
        }
        self.occupied = [0; LEVELS];
        self.slab.clear();
        self.keys.clear();
        self.free.clear();
        self.ready.clear();
        self.ready_pos = 0;
        self.past.clear();
        self.scratch.clear();
        self.cur = 0;
        self.ready_time = 0;
        self.len = 0;
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("next_time", &self.peek_time())
            .finish()
    }
}

/// The binary-heap implementation the timing wheel replaced, retained
/// verbatim as the ordering oracle for differential tests.
#[cfg(test)]
pub(crate) mod heap_reference {
    use super::{Ordering, SimTime};
    use std::collections::BinaryHeap;

    struct Entry<E> {
        time: SimTime,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }

    impl<E> Eq for Entry<E> {}

    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// `(time, insertion-seq)` min-queue on `std::collections::BinaryHeap`.
    #[derive(Default)]
    pub struct HeapEventQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
    }

    impl<E> HeapEventQueue<E> {
        pub fn new() -> Self {
            HeapEventQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        pub fn push(&mut self, time: SimTime, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { time, seq, event });
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|e| (e.time, e.event))
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.time)
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::heap_reference::HeapEventQueue;
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), 3);
        q.push(t(10), 1);
        q.push(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(t(7), "x");
        assert_eq!(q.peek_time(), Some(t(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(t(1), ());
        q.push(t(2), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(t(10), "a");
        q.push(t(40), "d");
        assert_eq!(q.pop(), Some((t(10), "a")));
        q.push(t(20), "b");
        q.push(t(30), "c");
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), Some((t(40), "d")));
    }

    #[test]
    fn far_future_times_cascade_correctly() {
        let mut q = EventQueue::new();
        // One event per wheel level, far beyond level 0's 64 ns span.
        let times: Vec<u64> = (0..16).map(|i| 1u64 << (i * 4)).collect();
        for (i, &n) in times.iter().enumerate() {
            q.push(t(n), i);
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        for &n in &sorted {
            let (pt, _) = q.pop().expect("event");
            assert_eq!(pt, t(n));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn huge_timestamps_have_a_home() {
        let mut q = EventQueue::new();
        q.push(t(u64::MAX), "max");
        q.push(t(0), "zero");
        q.push(t(u64::MAX - 1), "penultimate");
        assert_eq!(q.pop(), Some((t(0), "zero")));
        assert_eq!(q.pop(), Some((t(u64::MAX - 1), "penultimate")));
        assert_eq!(q.pop(), Some((t(u64::MAX), "max")));
    }

    #[test]
    fn past_time_pushes_still_order_correctly() {
        let mut q = EventQueue::new();
        q.push(t(1_000), "late");
        assert_eq!(q.pop(), Some((t(1_000), "late")));
        // The origin is now 1000; push events before it.
        q.push(t(2_000), "d");
        q.push(t(500), "b");
        q.push(t(100), "a");
        q.push(t(500), "c"); // same past time: FIFO after "b"
        assert_eq!(q.pop(), Some((t(100), "a")));
        assert_eq!(q.pop(), Some((t(500), "b")));
        assert_eq!(q.pop(), Some((t(500), "c")));
        assert_eq!(q.pop(), Some((t(2_000), "d")));
    }

    /// Keyed-path test event: `Some(key)` sorts before plain `None`.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    struct KE(Option<(u16, u16, u64)>, u32);

    fn push_ke(q: &mut EventQueue<KE>, time: u64, e: KE) {
        match e.0 {
            Some((src, dst, seq)) => q.push_keyed(t(time), MergeKey { src, dst, seq }, e),
            None => q.push(t(time), e),
        }
    }

    #[test]
    fn keyed_events_sort_by_key_before_plain() {
        let mut q = EventQueue::new();
        // Out-of-key-order pushes at one instant, interleaved with
        // plain events and a different instant.
        push_ke(&mut q, 50, KE(None, 0));
        push_ke(&mut q, 50, KE(Some((2, 0, 0)), 1));
        push_ke(&mut q, 40, KE(Some((9, 9, 9)), 2));
        push_ke(&mut q, 50, KE(Some((1, 1, 1)), 3));
        push_ke(&mut q, 50, KE(Some((1, 1, 0)), 4));
        push_ke(&mut q, 50, KE(None, 5));
        push_ke(&mut q, 50, KE(Some((2, 0, 5)), 6));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e.1)).collect();
        // 40 first; then the t=50 keyed events by (src, dst, seq);
        // then the plain events in FIFO order.
        assert_eq!(order, vec![2, 4, 3, 1, 6, 0, 5]);
    }

    #[test]
    fn keyed_order_survives_cascades() {
        let mut q = EventQueue::new();
        q.push(t(1), KE(None, 99));
        // Same far-future instant, pushed in reverse key order, so the
        // group must cascade down several levels intact.
        let far = 5_000_000;
        for seq in (0..10u64).rev() {
            push_ke(&mut q, far, KE(Some((0, 0, seq)), seq as u32));
        }
        push_ke(&mut q, far, KE(None, 50));
        assert_eq!(q.pop(), Some((t(1), KE(None, 99))));
        for seq in 0..10u32 {
            assert_eq!(q.pop(), Some((t(far), KE(Some((0, 0, seq as u64)), seq))));
        }
        assert_eq!(q.pop(), Some((t(far), KE(None, 50))));
        assert!(q.is_empty());
    }

    #[test]
    fn keyed_past_pushes_order_against_plain() {
        let mut q = EventQueue::new();
        q.push(t(1_000), KE(None, 0));
        assert!(q.pop().is_some()); // origin now 1000
        push_ke(&mut q, 500, KE(None, 1));
        push_ke(&mut q, 500, KE(Some((3, 0, 0)), 2));
        push_ke(&mut q, 500, KE(Some((1, 0, 7)), 3));
        push_ke(&mut q, 400, KE(None, 4));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e.1)).collect();
        assert_eq!(order, vec![4, 3, 2, 1]);
    }

    /// `(time, batch, plain?, key, push order, id)`; plain events share
    /// one dummy key, so push order breaks their ties.
    type RefEntry = (u64, u64, bool, (u16, u16, u64), u64, u32);

    /// The merge order [`EventQueue::push_keyed`] promises, as a plain
    /// sorted set: `(time, drain batch, keyed before plain, MergeKey
    /// or push order)`. A batch is what one drain of an instant takes;
    /// an event pushed at the instant being drained joins the next
    /// batch of that instant.
    #[derive(Default)]
    struct KeyedReference {
        pending: std::collections::BTreeSet<RefEntry>,
        /// `(instant, batch)` of the last pop.
        draining: Option<(u64, u64)>,
        pushes: u64,
    }

    impl KeyedReference {
        fn push(&mut self, time: u64, e: KE) {
            let batch = match self.draining {
                Some((now, batch)) if now == time => batch + 1,
                _ => 0,
            };
            let (plain, key) = match e.0 {
                Some(key) => (false, key),
                None => (true, (0, 0, 0)),
            };
            self.pending
                .insert((time, batch, plain, key, self.pushes, e.1));
            self.pushes += 1;
        }

        fn pop(&mut self) -> Option<(u64, u32)> {
            let (time, batch, _, _, _, id) = self.pending.pop_first()?;
            self.draining = Some((time, batch));
            Some((time, id))
        }
    }

    /// Random interleavings of `push`, `push_keyed` and `pop` must pop
    /// exactly the order of [`KeyedReference`]. Keys are drawn per
    /// `(src, dst)` channel with sequence numbers rising in push order,
    /// as the LP engine draws them; a share of the pushes lands on the
    /// instant last popped (never before it), and future instants are
    /// coarse so several events share them and cascade together.
    #[test]
    fn keyed_differential_against_merge_reference() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..24u64 {
            let mut q = EventQueue::new();
            let mut reference = KeyedReference::default();
            let mut channel_seq = [[0u64; 4]; 4];
            let mut clock = trial * 7_919;
            let mut id = 0u32;
            for _ in 0..4_000 {
                let r = rng();
                if r % 100 < 55 || q.is_empty() {
                    // An empty queue re-anchors its origin at the next
                    // push, so a later push at the last-popped instant
                    // would land in the past-overflow heap, which has
                    // no drain batches (see
                    // `keyed_past_pushes_order_against_plain`); the
                    // first push into an empty queue lands on the clock.
                    let gap = match (r >> 7) % 10 {
                        _ if q.is_empty() => 0,
                        0..=2 => 0,
                        3..=5 => ((r >> 16) % 8) * 64,
                        6 | 7 => ((r >> 16) % 8) * 50_000,
                        _ => ((r >> 16) % 4) * 40_000_000,
                    };
                    let key = if (r >> 40) % 3 == 0 {
                        None
                    } else {
                        let (src, dst) = (((r >> 44) % 4) as usize, ((r >> 48) % 4) as usize);
                        let seq = channel_seq[src][dst];
                        channel_seq[src][dst] += 1;
                        Some((src as u16, dst as u16, seq))
                    };
                    let e = KE(key, id);
                    id += 1;
                    push_ke(&mut q, clock + gap, e);
                    reference.push(clock + gap, e);
                } else {
                    let got = q.pop().map(|(pt, e)| (pt.as_nanos(), e.1));
                    assert_eq!(got, reference.pop(), "trial {trial}");
                    if let Some((pt, _)) = got {
                        clock = pt;
                    }
                }
                assert_eq!(q.len(), reference.pending.len(), "trial {trial}");
            }
            loop {
                let got = q.pop().map(|(pt, e)| (pt.as_nanos(), e.1));
                assert_eq!(got, reference.pop(), "drain, trial {trial}");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    /// The differential ordering test the timing wheel's correctness
    /// rests on: long random interleavings of pushes and pops must
    /// agree, value-for-value, with the retained binary heap.
    #[test]
    fn differential_against_heap_reference() {
        // Simple xorshift* so the test is self-contained.
        let mut state = 0x853C_49E6_748F_EA9Bu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..20u64 {
            let mut wheel = EventQueue::new();
            let mut heap = HeapEventQueue::new();
            let mut clock = trial * 1_000; // varied starting origin
            let mut id = 0u64;
            for _ in 0..4_000 {
                let r = rng();
                if r % 100 < 60 || wheel.is_empty() {
                    // Mixed horizons: mostly near-future, occasionally
                    // far-future (exercises high levels) or same-tick.
                    let gap = match r % 10 {
                        0 => 0,
                        1..=6 => (r >> 8) % 50_000,
                        7 | 8 => (r >> 8) % 5_000_000,
                        _ => (r >> 8) % 10_000_000_000,
                    };
                    wheel.push(t(clock + gap), id);
                    heap.push(t(clock + gap), id);
                    id += 1;
                } else {
                    assert_eq!(wheel.peek_time(), heap.peek_time(), "trial {trial}");
                    let a = wheel.pop();
                    let b = heap.pop();
                    assert_eq!(a, b, "trial {trial}");
                    if let Some((pt, _)) = a {
                        // Keep pushes causal, like the LP engine does.
                        clock = clock.max(pt.as_nanos());
                    }
                }
                assert_eq!(wheel.len(), heap.len());
            }
            // Drain both completely.
            loop {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b, "drain, trial {trial}");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
