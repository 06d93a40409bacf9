//! Network/RPC hop model between the fleet frontend and an array.
//!
//! Modeled exactly like the PCIe fabric one level down: a directed
//! link is a next-free-time resource that serializes payloads at line
//! rate, then delivers after propagation plus bounded jitter. On top
//! of the line, an RPC hop bounds its *in-flight window*: at most
//! `window` transfers may be between the two ends at once, and a new
//! transfer waits for the in-flight delivery that lands first before
//! it may start (credit-based flow control, the RPC analogue of a
//! bounded submission queue). Jitter lets a later transfer land before
//! an earlier one, so deliveries are not FIFO within a leg, and the
//! credit that frees first need not be the oldest. A hop is a *pair*
//! of legs — request out, completion back — so both directions
//! contribute distinct, ledger-visible time.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use afa_sim::{SimDuration, SimRng, SimTime};

/// Shape of one directed network leg.
#[derive(Clone, Copy, Debug)]
pub struct HopSpec {
    /// One-way propagation delay (switching + cabling + stack).
    pub propagation: SimDuration,
    /// Line rate in gigabits per second.
    pub gbps: f64,
    /// Uniform delivery jitter bound in nanoseconds (0 disables).
    pub jitter_ns: u64,
    /// Maximum transfers in flight on this leg at once.
    pub window: usize,
}

impl HopSpec {
    /// An intra-datacenter leg: 25 GbE, ~10 µs one-way through the
    /// ToR/spine and both network stacks, ±2 µs jitter, 64-deep RPC
    /// window. Chosen so an unloaded fleet round trip adds ~20-25 µs —
    /// the same order as the array's own 30 µs device path, which is
    /// what makes the fleet-level tail math interesting rather than
    /// network-dominated.
    pub fn datacenter() -> Self {
        HopSpec {
            propagation: SimDuration::micros(10),
            gbps: 25.0,
            jitter_ns: 2_000,
            window: 64,
        }
    }

    /// Usable line rate in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.gbps * 1e9 / 8.0
    }

    /// Serialization time for a payload of `bytes`.
    pub fn serialization(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec())
    }
}

/// One directed network leg: next-free-time line + in-flight window +
/// jitter stream.
///
/// # Example
///
/// ```
/// use afa_fleet::{HopSpec, NetLink};
/// use afa_sim::SimTime;
///
/// let mut link = NetLink::new(HopSpec::datacenter(), 7, 0);
/// let arrival = link.reserve(SimTime::ZERO, 4096);
/// let us = arrival.as_micros_f64();
/// // ~1.3 us serialization + 10 us propagation + up to 2 us jitter.
/// assert!(us > 11.0 && us < 14.0, "{us}");
/// ```
#[derive(Clone, Debug)]
pub struct NetLink {
    spec: HopSpec,
    /// When the line is next free to start serializing.
    free_at: SimTime,
    /// When each window credit frees (its transfer's delivery time), as
    /// a min-heap. A transfer claims the credit that frees first; a
    /// delivery depends only on that minimum, and replacing any one of
    /// several equal minima leaves the same multiset.
    credits: BinaryHeap<Reverse<SimTime>>,
    jitter: SimRng,
    bytes_carried: u64,
    transfers: u64,
    /// Time transfers spent blocked on the window (not the line).
    window_wait: SimDuration,
    /// The last `(bytes, spec.serialization(bytes))` pair
    /// [`reserve`](Self::reserve) computed: a leg carries one or two
    /// payload sizes, so this skips the float conversion on almost
    /// every transfer.
    last_serialization: (u64, SimDuration),
}

impl NetLink {
    /// Creates an idle leg. `seed`/`stream` pin the jitter stream so a
    /// fleet of legs stays deterministic per (master seed, leg id).
    pub fn new(spec: HopSpec, seed: u64, stream: u64) -> Self {
        assert!(spec.window > 0, "a hop needs at least one credit");
        NetLink {
            spec,
            free_at: SimTime::ZERO,
            credits: vec![Reverse(SimTime::ZERO); spec.window].into(),
            jitter: SimRng::from_seed_and_stream(seed, 0xFEE7 ^ stream),
            bytes_carried: 0,
            transfers: 0,
            window_wait: SimDuration::ZERO,
            last_serialization: (0, spec.serialization(0)),
        }
    }

    /// The leg's shape.
    pub fn spec(&self) -> HopSpec {
        self.spec
    }

    /// Reserves the leg for a transfer of `bytes` starting no earlier
    /// than `now`; returns the delivery time at the far end.
    pub fn reserve(&mut self, now: SimTime, bytes: u64) -> SimTime {
        // Claim the window credit that frees first.
        let mut credit = self.credits.peek_mut().expect("window > 0");
        let credit_free = credit.0;
        let start = now.max(self.free_at).max(credit_free);
        if credit_free > now.max(self.free_at) {
            self.window_wait += credit_free.saturating_since(now.max(self.free_at));
        }
        if self.last_serialization.0 != bytes {
            self.last_serialization = (bytes, self.spec.serialization(bytes));
        }
        self.free_at = start + self.last_serialization.1;
        let jitter = if self.spec.jitter_ns > 0 {
            SimDuration::nanos(self.jitter.below(self.spec.jitter_ns + 1))
        } else {
            SimDuration::ZERO
        };
        let delivery = self.free_at + self.spec.propagation + jitter;
        *credit = Reverse(delivery);
        self.bytes_carried += bytes;
        self.transfers += 1;
        delivery
    }

    /// Total payload bytes carried.
    pub fn bytes_carried(&self) -> u64 {
        self.bytes_carried
    }

    /// Total transfers carried.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Cumulative time transfers waited on the in-flight window
    /// specifically (line and caller queueing excluded).
    pub fn window_wait(&self) -> SimDuration {
        self.window_wait
    }
}

/// The paired legs connecting the frontend to one array: requests ride
/// `request`, completions ride `completion`, and the two directions
/// queue independently (a burst of completions does not block new
/// submissions).
#[derive(Clone, Debug)]
pub struct NetHop {
    /// Frontend → array leg.
    pub request: NetLink,
    /// Array → frontend leg.
    pub completion: NetLink,
}

impl NetHop {
    /// Creates the hop to array `array`, with per-leg jitter streams
    /// derived from (`seed`, `array`).
    pub fn new(spec: HopSpec, seed: u64, array: u64) -> Self {
        NetHop {
            request: NetLink::new(spec, seed, array * 2),
            completion: NetLink::new(spec, seed, array * 2 + 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The leg with a linear scan of every credit for the earliest: the
    /// specification the credit heap must reproduce.
    struct ScanLink {
        spec: HopSpec,
        free_at: SimTime,
        credits: Vec<SimTime>,
        jitter: SimRng,
        bytes_carried: u64,
        transfers: u64,
        window_wait: SimDuration,
    }

    impl ScanLink {
        fn new(spec: HopSpec, seed: u64, stream: u64) -> Self {
            ScanLink {
                spec,
                free_at: SimTime::ZERO,
                credits: vec![SimTime::ZERO; spec.window],
                jitter: SimRng::from_seed_and_stream(seed, 0xFEE7 ^ stream),
                bytes_carried: 0,
                transfers: 0,
                window_wait: SimDuration::ZERO,
            }
        }

        fn reserve(&mut self, now: SimTime, bytes: u64) -> SimTime {
            let (slot, credit_free) = self
                .credits
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|&(_, at)| at)
                .expect("window > 0");
            let start = now.max(self.free_at).max(credit_free);
            if credit_free > now.max(self.free_at) {
                self.window_wait += credit_free.saturating_since(now.max(self.free_at));
            }
            self.free_at = start + self.spec.serialization(bytes);
            let jitter = if self.spec.jitter_ns > 0 {
                SimDuration::nanos(self.jitter.below(self.spec.jitter_ns + 1))
            } else {
                SimDuration::ZERO
            };
            let delivery = self.free_at + self.spec.propagation + jitter;
            self.credits[slot] = delivery;
            self.bytes_carried += bytes;
            self.transfers += 1;
            delivery
        }
    }

    #[test]
    fn credit_heap_matches_the_linear_scan() {
        let mut draws = SimRng::from_seed_and_stream(0x4EA9, 1);
        for case in 0..64u64 {
            let mut spec = HopSpec::datacenter();
            // Windows of 1–8 bind: a few hundred nanoseconds between
            // sends against a 10 us propagation keeps every credit
            // busy, and 2 us of jitter frees them out of order.
            spec.window = 1 + (case % 8) as usize;
            let mut heap = NetLink::new(spec, case, case % 3);
            let mut scan = ScanLink::new(spec, case, case % 3);
            let mut now = SimTime::ZERO;
            for _ in 0..2_000 {
                // Gaps of zero give same-instant sends (tied credits
                // and tied starts).
                now += SimDuration::nanos(draws.below(4) * draws.below(400));
                let bytes = if draws.below(2) == 0 { 256 } else { 4096 };
                assert_eq!(
                    heap.reserve(now, bytes),
                    scan.reserve(now, bytes),
                    "case {case}"
                );
            }
            assert_eq!(heap.window_wait(), scan.window_wait, "case {case}");
            assert!(heap.window_wait() > SimDuration::ZERO, "case {case}");
            assert_eq!(heap.transfers(), scan.transfers, "case {case}");
            assert_eq!(heap.bytes_carried(), scan.bytes_carried, "case {case}");
        }
    }

    #[test]
    fn unloaded_transfer_is_ser_plus_propagation_plus_jitter() {
        let spec = HopSpec::datacenter();
        let mut link = NetLink::new(spec, 1, 0);
        let arrival = link.reserve(SimTime::ZERO, 4096);
        let floor = spec.serialization(4096) + spec.propagation;
        let ceil = floor + SimDuration::nanos(spec.jitter_ns);
        assert!(arrival >= SimTime::ZERO + floor);
        assert!(arrival <= SimTime::ZERO + ceil);
        assert_eq!(link.transfers(), 1);
        assert_eq!(link.bytes_carried(), 4096);
    }

    #[test]
    fn line_serializes_back_to_back_transfers() {
        let mut spec = HopSpec::datacenter();
        spec.jitter_ns = 0;
        let mut link = NetLink::new(spec, 1, 0);
        let first = link.reserve(SimTime::ZERO, 65_536);
        let second = link.reserve(SimTime::ZERO, 65_536);
        let delta = second.saturating_since(first);
        let ser = spec.serialization(65_536);
        assert_eq!(delta, ser, "second transfer waits out the first's ser");
    }

    #[test]
    fn window_caps_in_flight_transfers() {
        let mut spec = HopSpec::datacenter();
        spec.jitter_ns = 0;
        spec.window = 2;
        // Tiny payloads: serialization is negligible next to the 10 us
        // propagation, so the window (not the line) is the bottleneck.
        let mut link = NetLink::new(spec, 1, 0);
        let a = link.reserve(SimTime::ZERO, 64);
        let b = link.reserve(SimTime::ZERO, 64);
        let c = link.reserve(SimTime::ZERO, 64);
        assert!(b < a + SimDuration::micros(1));
        assert!(
            c >= a + spec.propagation,
            "third transfer waits for the first delivery: {c:?} vs {a:?}"
        );
        assert!(link.window_wait() > SimDuration::ZERO);
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_stream() {
        let spec = HopSpec::datacenter();
        let run = |seed, stream| {
            let mut link = NetLink::new(spec, seed, stream);
            (0..32)
                .map(|i| link.reserve(SimTime::from_nanos(i * 50_000), 4096))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9, 4), run(9, 4));
        assert_ne!(run(9, 4), run(9, 5), "streams differ");
        assert_ne!(run(9, 4), run(10, 4), "seeds differ");
    }

    #[test]
    fn hop_legs_queue_independently() {
        let mut spec = HopSpec::datacenter();
        spec.jitter_ns = 0;
        let mut hop = NetHop::new(spec, 3, 1);
        // Saturate the request leg; the completion leg stays unloaded.
        for _ in 0..16 {
            hop.request.reserve(SimTime::ZERO, 1 << 20);
        }
        let completion = hop.completion.reserve(SimTime::ZERO, 4096);
        let floor = spec.serialization(4096) + spec.propagation;
        assert_eq!(completion, SimTime::ZERO + floor);
    }
}
