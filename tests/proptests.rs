//! Cross-crate property tests over the whole system, on the
//! first-party [`afa_sim::check`] harness.
//!
//! These runs simulate whole arrays and are comparatively heavy, so
//! the suite is gated behind the `proptest` cargo feature:
//!
//! ```text
//! cargo test --release --features proptest --test proptests
//! ```
//!
//! The properties run in parallel: a [`FusionOverride`] pins only its
//! own thread (and the pool workers that thread fans out to), and each
//! run manifest reads its own run's counters, so concurrent properties
//! cannot leak into each other's artifacts.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::process::Command;

use afa::core::{check_jobs, AfaConfig, AfaSystem, FusionOverride, TuningStage};
use afa::sim::check::{run_cases, Gen};
use afa::sim::{EventQueue, ShardCtx, ShardWorld, ShardedSim, SimDuration, SimTime};
use afa::stats::NinesPoint;
use afa::workload::parse_jobfile;

/// For any seed and small device count, the system completes I/O on
/// every device, latencies are at least the physical floor (device
/// ~25 µs + fabric), and percentile profiles are monotone.
#[test]
fn runs_are_sane_for_any_seed() {
    run_cases("runs_are_sane_for_any_seed", 8, |g| {
        let seed = g.u64_in(0, 10_000);
        let ssds = g.usize_in(1, 6);
        let result = AfaSystem::run(
            &AfaConfig::paper(TuningStage::IrqAffinity)
                .with_ssds(ssds)
                .with_runtime(SimDuration::millis(40))
                .with_seed(seed),
        );
        assert_eq!(result.reports.len(), ssds);
        for report in &result.reports {
            assert!(report.completed() > 300, "{} I/Os", report.completed());
            let profile = report.profile();
            assert!(profile.get_micros(NinesPoint::Average) > 25.0);
            let pts = [
                NinesPoint::Nines2,
                NinesPoint::Nines3,
                NinesPoint::Nines4,
                NinesPoint::Nines5,
                NinesPoint::Nines6,
                NinesPoint::Max,
            ];
            for w in pts.windows(2) {
                assert!(profile.get(w[0]) <= profile.get(w[1]));
            }
        }
    });
}

/// The binary-heap event queue the timing wheel replaced, kept here as
/// the ordering specification: pop order is `(time, insertion seq)`.
struct ReferenceHeap<E> {
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    events: Vec<Option<E>>,
    seq: u64,
}

impl<E> ReferenceHeap<E> {
    fn new() -> Self {
        ReferenceHeap {
            heap: BinaryHeap::new(),
            events: Vec::new(),
            seq: 0,
        }
    }

    fn push(&mut self, time: SimTime, event: E) {
        let slot = self.events.len() as u64;
        self.events.push(Some(event));
        self.heap.push(Reverse((time.as_nanos(), self.seq, slot)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((nanos, _, slot)) = self.heap.pop()?;
        let event = self.events[slot as usize].take().expect("slot filled once");
        Some((SimTime::from_nanos(nanos), event))
    }
}

/// The timing wheel pops events in exactly the `(time, insertion seq)`
/// order of the binary heap it replaced, for any interleaving of
/// pushes and pops and any mix of near/far/past timestamps. This is
/// the contract that keeps every registry artifact byte-identical
/// across the queue swap.
#[test]
fn timing_wheel_matches_reference_heap() {
    run_cases("timing_wheel_matches_reference_heap", 32, |g| {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap: ReferenceHeap<u64> = ReferenceHeap::new();
        // Mix of event-time horizons: dense same-instant bursts,
        // device-latency gaps, and far-future housekeeping timers.
        let horizon = [0u64, 1, 1_000, 50_000, 5_000_000, 10_000_000_000][g.usize_in(0, 5)];
        let ops = g.usize_in(10, 600);
        let mut clock = 0u64; // latest popped time, to generate past pushes
        let mut id = 0u64;
        for _ in 0..ops {
            if g.bool() || wheel.is_empty() {
                let base = if g.u64_in(0, 9) == 0 {
                    // Occasionally push at/behind the popped frontier,
                    // which only the raw queue API can do.
                    clock.saturating_sub(g.u64_in(0, 1_000))
                } else {
                    clock + g.u64_in(0, horizon.max(1))
                };
                wheel.push(SimTime::from_nanos(base), id);
                heap.push(SimTime::from_nanos(base), id);
                id += 1;
            } else {
                let got = wheel.pop();
                let want = heap.pop();
                assert_eq!(
                    got.map(|(t, e)| (t.as_nanos(), e)),
                    want.map(|(t, e)| (t.as_nanos(), e)),
                );
                if let Some((t, _)) = got {
                    clock = clock.max(t.as_nanos());
                }
            }
        }
        // Drain: remaining contents must agree exactly, in order.
        loop {
            let got = wheel.pop();
            let want = heap.pop();
            assert_eq!(
                got.map(|(t, e)| (t.as_nanos(), e)),
                want.map(|(t, e)| (t.as_nanos(), e)),
            );
            if got.is_none() {
                break;
            }
        }
    });
}

/// The wheel's overflow heap — where pushes behind the popped
/// frontier land — preserves the exact global `(time, insertion seq)`
/// pop order, for any interleaving of past, near-future and far-future
/// pushes with pops. [`timing_wheel_matches_reference_heap`] compares
/// two queue implementations; this pins the order itself against a
/// from-scratch model (the `(time, seq)`-minimum of the queued set),
/// so a matching bug in both implementations can't hide. Past pushes
/// are over-weighted relative to real workloads precisely to keep the
/// overflow heap populated while the wheel cascades around it.
#[test]
fn overflow_heap_drains_in_time_seq_order() {
    run_cases("overflow_heap_drains_in_time_seq_order", 32, |g| {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        // Reference: the queued set as (time, global push seq); the
        // payload IS the seq, so a pop identifies its push uniquely.
        let mut queued: Vec<(u64, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut frontier = 0u64;
        let pop_reference = |queued: &mut Vec<(u64, u64)>| {
            let at = (0..queued.len())
                .min_by_key(|&i| queued[i])
                .expect("reference non-empty");
            // swap_remove is fine: the reference orders by (time, seq),
            // not by position.
            queued.swap_remove(at)
        };
        for _ in 0..g.usize_in(20, 500) {
            if g.bool() || queued.is_empty() {
                let time = match g.usize_in(0, 3) {
                    // Behind the popped frontier: overflow-heap traffic.
                    0 => frontier.saturating_sub(g.u64_in(0, 1 << 20)),
                    // Level-0 neighborhood of the frontier.
                    1 => frontier + g.u64_in(0, 64),
                    // Mid levels: cascades on the way down.
                    2 => frontier + g.u64_in(0, 1 << 20),
                    // Top levels: far-future housekeeping horizons.
                    _ => frontier + g.u64_in(0, 1 << 40),
                };
                wheel.push(SimTime::from_nanos(time), seq);
                queued.push((time, seq));
                seq += 1;
            } else {
                let (time, id) = pop_reference(&mut queued);
                let got = wheel.pop().expect("reference says non-empty");
                assert_eq!(
                    (got.0.as_nanos(), got.1),
                    (time, id),
                    "pop left (time, seq) order"
                );
                frontier = frontier.max(time);
            }
        }
        while !queued.is_empty() {
            let (time, id) = pop_reference(&mut queued);
            let got = wheel.pop().expect("drain shorter than reference");
            assert_eq!(
                (got.0.as_nanos(), got.1),
                (time, id),
                "drain left (time, seq) order"
            );
        }
        assert!(wheel.pop().is_none(), "wheel drained more than was pushed");
    });
}

/// Every completed I/O's ledger is exactly conservative: summed over
/// causes, the post-issue contributions equal the measured completion
/// latency to the nanosecond — for any tuning stage, seed and device
/// count. This is the invariant that lets cause attribution, the
/// blktrace stage records and the per-cause budget all be derived
/// views of one [`afa::core::io_path::IoLedger`] instead of three
/// separately-maintained instrumentation paths.
///
/// This case pins the default interrupt-driven engine; the sweep
/// across completion models (busy-poll, hybrid poll) and device
/// profiles lives in [`ledger_tiles_latency_for_every_completion_model`].
#[test]
fn ledger_sums_to_completion_latency() {
    run_cases("ledger_sums_to_completion_latency", 12, |g| {
        let stage = [
            TuningStage::Default,
            TuningStage::Chrt,
            TuningStage::Isolcpus,
            TuningStage::IrqAffinity,
            TuningStage::ExperimentalFirmware,
        ][g.usize_in(0, 4)];
        let seed = g.u64_in(0, 10_000);
        let ssds = g.usize_in(1, 6);
        let result = AfaSystem::run(
            &AfaConfig::paper(stage)
                .with_ssds(ssds)
                .with_runtime(SimDuration::millis(40))
                .with_seed(seed)
                .with_ledger_log(512),
        );
        let log = result.ledgers.expect("ledger log enabled");
        assert!(!log.entries().is_empty());
        for io in log.entries() {
            let ledger = &io.ledger;
            assert_eq!(
                ledger.total() - ledger.pre_issue(),
                io.latency(),
                "device {} I/O issued at {:?}: per-cause sums drifted from \
                 the measured latency",
                io.device,
                io.issued_at,
            );
        }
    });
}

/// The ledger's conservation law is completion-model independent: for
/// any engine (interrupt, busy-poll, hybrid poll), device profile,
/// tuning stage, seed and device count, every completed I/O's
/// per-cause credits still sum exactly to the measured latency. A
/// polled reap credits only the slices no accrued cause covers — the
/// residual hybrid sleep as `poll_sleep`, the post-arrival reap as
/// `cpu_work` — so the spin window never double-books against the
/// device service it overlaps. And because no MSI-X vector fires on a
/// polled completion, the `IrqHandled` blktrace stamp stays unset.
#[test]
fn ledger_tiles_latency_for_every_completion_model() {
    use afa::core::blktrace::IoStage;
    use afa::ssd::DeviceProfile;
    use afa::workload::IoEngine;
    run_cases("ledger_tiles_latency_for_every_completion_model", 12, |g| {
        let engine = [IoEngine::Libaio, IoEngine::Polling, IoEngine::HybridPoll][g.usize_in(0, 2)];
        let profile = [DeviceProfile::Table1, DeviceProfile::UltraLowLatency][g.usize_in(0, 1)];
        let stage = [
            TuningStage::Default,
            TuningStage::Chrt,
            TuningStage::Isolcpus,
            TuningStage::IrqAffinity,
            TuningStage::ExperimentalFirmware,
        ][g.usize_in(0, 4)];
        let seed = g.u64_in(0, 10_000);
        let ssds = g.usize_in(1, 4);
        let result = AfaSystem::run(
            &AfaConfig::paper(stage)
                .with_ssds(ssds)
                .with_engine(engine)
                .with_device_profile(profile)
                .with_runtime(SimDuration::millis(40))
                .with_seed(seed)
                .with_ledger_log(512),
        );
        let log = result.ledgers.expect("ledger log enabled");
        assert!(!log.entries().is_empty());
        for io in log.entries() {
            let ledger = &io.ledger;
            assert_eq!(
                ledger.total() - ledger.pre_issue(),
                io.latency(),
                "{engine:?} on {profile:?}, device {}: per-cause sums \
                 drifted from the measured latency",
                io.device,
            );
            if engine != IoEngine::Libaio {
                assert_eq!(
                    ledger.stamp_at(IoStage::IrqHandled),
                    SimTime::ZERO,
                    "{engine:?}: polled completion recorded an IRQ stamp",
                );
            }
        }
        // The run-wide reap counters agree with the model: interrupt
        // reaps only under libaio, polled reaps only otherwise.
        let reaps = result.completions;
        match engine {
            IoEngine::Libaio => assert_eq!(reaps.polls, 0),
            _ => assert_eq!(reaps.interrupts, 0),
        }
    });
}

/// Macro-event fusion is invisible in the artifacts, and only polled
/// chains fuse: for any scale and seed, a run with the fusion fast path
/// forced on serializes to exactly the bytes of a run with every chain
/// forced down the per-stage path — including the manifest's per-cause
/// latency budget, which is the run's own cause table, so `ablate-poll`'s
/// polled runs put their fused chains' settled ledgers into the
/// byte-compared bytes. Each case checks one drawn interrupt experiment
/// (fig06–fig09, fig11), which must fuse nothing even with fusion
/// forced on, and `ablate-poll`, whose busy-polled half must actually
/// fuse (a gate that silently declines everything would pass the
/// byte-compare vacuously). With fusion forced off nothing fuses.
#[test]
fn fusion_on_and_off_produce_identical_artifacts() {
    // QD1 experiments at ≤ 6 SSDs: one job per worker LP, so every
    // gate but the completion model passes. (ablate-coalescing would
    // decline by design — QD4 with coalescing on — and is covered by
    // the golden matrix instead.)
    let interrupt = ["fig06", "fig07", "fig08", "fig09", "fig11"];
    run_cases("fusion_on_and_off_produce_identical_artifacts", 6, |g| {
        let figure = interrupt[g.usize_in(0, interrupt.len() - 1)];
        let scale = afa::core::experiment::ExperimentScale::new(
            SimDuration::millis(g.u64_in(10, 30)),
            g.usize_in(1, 6),
            g.u64_in(0, 10_000),
        );
        for name in [figure, "ablate-poll"] {
            let def = afa::core::experiment::find(name).expect("experiment registered");
            let run = |fuse: bool| {
                let _fusion = FusionOverride::set(fuse);
                let run = afa::core::experiment::run_experiment(def, scale);
                (run.to_json().to_string(), run.manifest.counters.fusion)
            };
            let (fused_json, fused_tally) = run(true);
            let (unfused_json, unfused_tally) = run(false);
            assert_eq!(
                fused_json, unfused_json,
                "{name} artifact diverged between fusion on and off"
            );
            if name == "ablate-poll" {
                assert!(
                    fused_tally.fused_chains > 0,
                    "{name}: run fused no chains — the polled fast path is dead"
                );
            } else {
                assert_eq!(
                    fused_tally.fused_chains, 0,
                    "{name}: an interrupt chain fused"
                );
            }
            assert_eq!(
                unfused_tally.fused_chains, 0,
                "{name}: FusionOverride(false) still fused chains"
            );
        }
    });
}

/// Per-I/O ledgers are fusion-invariant, entry by entry: with the
/// ledger log enabled, runs with fusion forced on and off produce the
/// identical sequence of completed I/Os — same device, same issue
/// instant, same latency, and the same per-cause sums to the
/// nanosecond. Today the ledger-log gate routes both runs down the
/// per-stage path, so equality is structural; if that gate is ever
/// relaxed to let logged runs fuse, this becomes the test that the
/// eagerly-stamped fused ledger matches the per-stage one exactly.
#[test]
fn fusion_preserves_per_cause_ledger_sums() {
    run_cases("fusion_preserves_per_cause_ledger_sums", 8, |g| {
        let stage = [
            TuningStage::Default,
            TuningStage::Chrt,
            TuningStage::IrqAffinity,
            TuningStage::ExperimentalFirmware,
        ][g.usize_in(0, 3)];
        let seed = g.u64_in(0, 10_000);
        let ssds = g.usize_in(1, 6);
        let ledgers = |fuse: bool| {
            let _fusion = FusionOverride::set(fuse);
            let result = AfaSystem::run(
                &AfaConfig::paper(stage)
                    .with_ssds(ssds)
                    .with_runtime(SimDuration::millis(40))
                    .with_seed(seed)
                    .with_ledger_log(512),
            );
            let log = result.ledgers.expect("ledger log enabled");
            log.entries()
                .iter()
                .map(|io| {
                    (
                        io.device,
                        io.issued_at,
                        io.latency(),
                        io.ledger.rows().collect::<Vec<_>>(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let fused = ledgers(true);
        let unfused = ledgers(false);
        assert!(!fused.is_empty(), "no completed I/Os logged");
        assert_eq!(
            fused, unfused,
            "per-cause ledger sums diverged between fusion on and off"
        );
    });
}

/// A world for probing the cross-LP merge contract: LPs `1..` fire
/// bursts of cross events at sink LP 0, with timestamps drawn from a
/// coarse grid so same-instant collisions across sources are common.
/// Each payload is the sender's running send counter — the
/// per-channel `seq` of the merge key.
struct Chatter {
    /// Per-LP bursts still to fire: (fire time, fan-out), popped from
    /// the back.
    bursts: Vec<Vec<(SimTime, usize)>>,
    sent: Vec<u64>,
    seen: Vec<(u64, usize, u64)>, // (time ns, src, payload) at the sink
}

impl ShardWorld for Chatter {
    type Local = ();
    type Cross = u64;

    fn handle_local(&mut self, _event: (), ctx: &mut ShardCtx<'_, (), u64>) {
        let lp = ctx.lp();
        let Some((_, fanout)) = self.bursts[lp].pop() else {
            return;
        };
        for i in 0..fanout {
            // Arrival grid: multiples of 100 ns past the lookahead,
            // shared across sources, so distinct (src, seq) pairs
            // collide on the timestamp — the tie the contract breaks.
            let at = ctx.now() + SimDuration::nanos(500) + SimDuration::nanos(100 * (i as u64 % 3));
            ctx.send(0, at, self.sent[lp]);
            self.sent[lp] += 1;
        }
        if let Some(&(t, _)) = self.bursts[lp].last() {
            ctx.at(t, ());
        }
    }

    fn handle_cross(&mut self, src: usize, event: u64, ctx: &mut ShardCtx<'_, (), u64>) {
        assert_eq!(ctx.lp(), 0, "only the sink receives");
        self.seen.push((ctx.now().as_nanos(), src, event));
    }
}

/// The merge ordering contract, clause 3: a receiver consumes cross
/// events in exactly `(time, source LP, per-channel seq)` order, for
/// any burst pattern.
#[test]
fn cross_merge_respects_time_src_seq_order() {
    run_cases("cross_merge_respects_time_src_seq_order", 24, |g| {
        let sources = g.usize_in(2, 6);
        // Fire times on a coarse grid (sorted descending — Chatter
        // pops from the back) so sources frequently tie.
        let mut bursts: Vec<Vec<(SimTime, usize)>> = vec![Vec::new()];
        for _ in 0..sources {
            let mut plan: Vec<(SimTime, usize)> = (0..g.usize_in(1, 8))
                .map(|_| {
                    (
                        SimTime::ZERO + SimDuration::nanos(200 * g.u64_in(0, 12)),
                        g.usize_in(1, 3),
                    )
                })
                .collect();
            plan.sort();
            plan.reverse();
            bursts.push(plan);
        }
        let expected: u64 = bursts
            .iter()
            .flatten()
            .map(|&(_, fanout)| fanout as u64)
            .sum();
        let firsts: Vec<Option<SimTime>> = bursts
            .iter()
            .map(|plan| plan.last().map(|&(t, _)| t))
            .collect();
        let lps = bursts.len();
        let world = Chatter {
            bursts,
            sent: vec![0; lps],
            seen: Vec::new(),
        };
        let mut sim = ShardedSim::new(world, vec![SimDuration::nanos(500); lps]);
        for (lp, first) in firsts.into_iter().enumerate() {
            if let Some(t) = first {
                sim.schedule(lp, t, ());
            }
        }
        sim.run();
        let seen = sim.into_world().seen;

        // Clause 3: the consumed order IS the sorted merge-key order.
        let mut sorted = seen.clone();
        sorted.sort();
        assert_eq!(seen, sorted, "sink consumed out of merge-key order");
        assert_eq!(seen.len() as u64, expected, "messages lost");
    });
}

/// The streaming quantile sketch honors its configured relative-error
/// bound against a rank-exact oracle, for any workload shape the
/// serving layer can produce: uniform bands, heavy tails, multi-modal
/// mixtures and same-value bursts, spanning the sketch's whole covered
/// range (~100 ns to ~100 s).
#[test]
fn sketch_tracks_exact_percentiles_within_bound() {
    use afa::stats::QuantileSketch;
    run_cases("sketch_tracks_exact_percentiles_within_bound", 24, |g| {
        let mut sketch = QuantileSketch::new();
        let mut samples: Vec<u64> = Vec::new();
        let n = g.usize_in(100, 5_000);
        // A random mixture of magnitude bands, so one case can hold
        // e.g. a microsecond body with a multi-second tail.
        let bands: Vec<(u64, u64)> = (0..g.usize_in(1, 5))
            .map(|_| {
                // Cap the band top near 50 s: past the sketch's
                // covered range (~330 s) estimates saturate by design.
                let lo = 10u64.pow(g.u32_in(2, 10));
                (lo, lo * g.u64_in(2, 51))
            })
            .collect();
        for _ in 0..n {
            let (lo, hi) = bands[g.usize_in(0, bands.len())];
            let v = g.u64_in(lo, hi);
            sketch.record(v);
            samples.push(v);
        }
        samples.sort_unstable();
        assert_eq!(sketch.count(), n as u64);
        for &p in &[50.0, 90.0, 99.0, 99.9, 100.0] {
            // Same rank rule the sketch uses, against the true sample.
            let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
            let exact = samples[rank - 1] as f64;
            let approx = sketch.value_at_percentile(p) as f64;
            let err = (approx - exact).abs() / exact;
            assert!(
                err <= sketch.relative_error() + 1e-9,
                "p{p}: sketch {approx} vs exact {exact} (err {err:.4}, bound {})",
                sketch.relative_error()
            );
        }
    });
}

/// Sketch merging is exactly stream concatenation: merge(a, b) answers
/// every query with the same numbers as one sketch fed both streams,
/// for any pair of workloads. This is the property that makes
/// cross-tenant rollups O(1) instead of O(samples).
#[test]
fn sketch_merge_equals_concatenated_stream() {
    use afa::stats::QuantileSketch;
    run_cases("sketch_merge_equals_concatenated_stream", 24, |g| {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut both = QuantileSketch::new();
        for sketch_half in [&mut a, &mut b] {
            let n = g.usize_in(0, 2_000);
            let lo = 10u64.pow(g.u32_in(2, 9));
            let hi = lo * g.u64_in(2, 1_000);
            for _ in 0..n {
                let v = g.u64_in(lo, hi);
                sketch_half.record(v);
                both.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        assert_eq!(a.mean().to_bits(), both.mean().to_bits());
        for tenth in 0..=1_000u64 {
            let p = tenth as f64 / 10.0;
            assert_eq!(
                a.value_at_percentile(p),
                both.value_at_percentile(p),
                "merge diverged from concatenation at p{p}"
            );
        }
    });
}

/// Rendezvous placement is a pure function of `(volume, array set)` —
/// invariant under the order the alive set is presented in — and
/// killing one array moves the minimum possible data: every volume
/// keeps its surviving replicas, volumes that never placed on the dead
/// array keep their placement verbatim, and the affected fraction
/// concentrates near `r/n` (at most one array's worth of placements).
#[test]
fn rendezvous_placement_is_pure_and_loses_at_most_one_arrays_share() {
    use afa::fleet::place_among;
    run_cases(
        "rendezvous_placement_is_pure_and_loses_at_most_one_arrays_share",
        32,
        |g| {
            let n = g.usize_in(3, 8);
            let r = g.usize_in(1, 3.min(n));
            let volumes = g.u64_in(64, 512);
            let all: Vec<usize> = (0..n).collect();
            let mut shuffled = all.clone();
            // Fisher–Yates off the case generator: same set, new order.
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, g.usize_in(0, i + 1));
            }
            let dead = g.usize_in(0, n);
            let survivors: Vec<usize> = all.iter().copied().filter(|&a| a != dead).collect();
            let mut affected = 0u64;
            for volume in 0..volumes {
                let before = place_among(volume, &all, r);
                // Purity: same inputs — and any presentation order of
                // the same set — produce the identical placement.
                assert_eq!(before, place_among(volume, &all, r));
                assert_eq!(before, place_among(volume, &shuffled, r));
                assert_eq!(before.len(), r);
                let after = place_among(volume, &survivors, r);
                if before.contains(&dead) {
                    affected += 1;
                    // Minimal motion: every surviving replica is kept.
                    for member in before.iter().filter(|&&a| a != dead) {
                        assert!(
                            after.contains(member),
                            "volume {volume} dropped surviving replica {member}"
                        );
                    }
                } else {
                    assert_eq!(
                        before, after,
                        "volume {volume} moved without touching the dead array"
                    );
                }
            }
            // Expected affected share is r/n; allow generous sampling
            // slack but pin the order of magnitude ("at most one
            // array's worth, give or take the draw").
            let expected = volumes as f64 * r as f64 / n as f64;
            assert!(
                (affected as f64) < 2.0 * expected + 16.0,
                "{affected} affected volumes for an expectation of {expected:.0}"
            );
        },
    );
}

/// Exactly-once settlement under fault injection: for any seed and any
/// kill time, every request the fleet frontend admits settles exactly
/// once — served or shed, never both, never twice (a double settle
/// panics inside the request book), the book drains by the horizon,
/// and every per-request ledger still tiles the measured latency.
#[test]
fn fleet_failover_settles_exactly_once_for_any_kill_time() {
    use afa::core::experiment::fleet_failover_probe;
    run_cases(
        "fleet_failover_settles_exactly_once_for_any_kill_time",
        8,
        |g| {
            let seed = g.u64_in(0, 10_000);
            let kill_frac = g.u64_in(50, 950) as f64 / 1_000.0;
            let out = fleet_failover_probe(seed, kill_frac);
            assert!(out.admitted > 0, "probe admitted nothing");
            assert_eq!(
                out.admitted,
                out.settled + out.shed,
                "seed {seed}, kill at {kill_frac}: settled {} + shed {} \
                 != admitted {}",
                out.settled,
                out.shed,
                out.admitted
            );
            assert_eq!(
                out.in_flight_at_end, 0,
                "seed {seed}: requests still open after the drain horizon"
            );
            assert_eq!(
                out.ledger_mismatches, 0,
                "seed {seed}: a request's causes stopped tiling its latency"
            );
        },
    );
}

/// Tuning never makes the worst case worse than default for the same
/// seed (statistically certain at this scale).
#[test]
fn tuned_never_loses_to_default() {
    run_cases("tuned_never_loses_to_default", 8, |g| {
        let seed = g.u64_in(0, 1_000);
        let default = AfaSystem::run(
            &AfaConfig::paper(TuningStage::Default)
                .with_ssds(4)
                .with_runtime(SimDuration::millis(120))
                .with_seed(seed),
        );
        let tuned = AfaSystem::run(
            &AfaConfig::paper(TuningStage::ExperimentalFirmware)
                .with_ssds(4)
                .with_runtime(SimDuration::millis(120))
                .with_seed(seed),
        );
        let max = |r: &afa::core::RunResult| {
            r.reports
                .iter()
                .map(|rep| rep.histogram().max())
                .max()
                .unwrap()
        };
        assert!(max(&tuned) <= max(&default));
    });
}

/// The jobfile parser's keys, each with valid values, then after a `|`
/// malformed ones (`_` is the empty value). Valid values stay small
/// (10–30 ms runtimes, depths up to 64, blocks up to 1 MiB).
const JOBFILE_VOCABULARY: &str = "\
rw randread randwrite read write randrw | trim _
readwrite randrw | RANDREAD
rwmixread 0 70 100 | 101 -5 x
bs 4k 8K 128k 1m | 0 1000 4x 4g 99999999999g
blocksize 4096 16k | \u{ff14}k
iodepth 1 8 64 | 0 -1 4294967296 x
ioengine libaio sync psync io_uring_poll pvsync2_hipri polling io_uring_hybrid hybrid | spdk _
runtime 0.01 0.02s 0.03 | 0 0.001 601 inf nan -1 1e300 x _
filename /dev/nvme0 /dev/nvme5n1 /dev/nvme63 | /dev/nvme64 /dev/nvme70 /dev/sda nvme3 \
/dev/nvme18446744073709551615 /dev/nvme99999999999999999999
cpus_allowed 4 17 39 | 0 3 40 99 65535 4-7 -1 x
numjobs 0 1 2 8 | 64 65 4294967295 x
rate_iops 1 1000 0 18446744073709551615 | -1 x
write_lat_log 1 0
size 4k 1m 1g 0 | 1000g 99999999999g x
direct 1
bogus | 1";

/// Lines that are no `key=value` pair: bare keys, comments, headers.
const JOBFILE_NOISE: &str = "\
group_reporting
iodepth
bs
; comment

[
[]
[global
=
iodepth = 8 = 9";

fn pick<'a>(g: &mut Gen, items: &[&'a str]) -> &'a str {
    items[g.usize_in(0, items.len())]
}

/// A vocabulary pair, malformed one time in eight, or now and then noise.
fn jobfile_line(g: &mut Gen) -> String {
    if g.u32_in(0, 16) == 0 {
        return pick(g, &JOBFILE_NOISE.lines().collect::<Vec<_>>()).to_owned();
    }
    let keys: Vec<&str> = JOBFILE_VOCABULARY.lines().collect();
    let (key, values) = pick(g, &keys)
        .split_once(' ')
        .expect("a key and its values");
    let sides: Vec<&str> = values.split('|').filter(|v| !v.trim().is_empty()).collect();
    let side = sides[if g.u32_in(0, 8) == 0 {
        sides.len() - 1
    } else {
        0
    }];
    let value = pick(g, &side.split_whitespace().collect::<Vec<_>>());
    format!("{key}={}", if value == "_" { "" } else { value })
}

/// A fio jobfile from the parser's vocabulary. `[global]` opens with a
/// 10 ms runtime that later lines override only with another short one
/// or a malformed one, so no accepted case runs longer than 30 ms.
fn random_jobfile(g: &mut Gen) -> String {
    let mut lines = vec!["[global]".to_owned(), "runtime=0.01".to_owned()];
    if g.u32_in(0, 16) == 0 {
        lines.insert(0, "iodepth=1".to_owned()); // a key outside any section
    }
    for _ in 0..g.usize_in(0, 4) {
        lines.push(jobfile_line(g));
    }
    for section in 0..g.usize_in(1, 4) {
        lines.push(pick(g, &["[job]", "[a b]", "[job]", "[GLOBAL]"]).to_owned());
        if g.u32_in(0, 16) != 0 {
            let device = 8 * section + g.usize_in(0, 8);
            lines.push(format!("filename=/dev/nvme{device}"));
        }
        for _ in 0..g.usize_in(0, 5) {
            lines.push(jobfile_line(g));
        }
    }
    lines.join("\n")
}

/// Jobfiles fail with errors, never panics: any jobfile built from the
/// parser's vocabulary, malformed values included, goes through
/// `parse_jobfile` → `check_jobs` → `AfaSystem::run` without a panic,
/// and `afactl jobfile` exits 0 when that pipeline accepts it and 1
/// when it rejects it.
#[test]
fn jobfiles_fail_with_errors_never_panics() {
    let dir = std::env::temp_dir().join(format!("afa-jobfile-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    run_cases("jobfiles_fail_with_errors_never_panics", 96, |g| {
        let text = random_jobfile(g);
        let stage = TuningStage::ALL[g.usize_in(0, TuningStage::ALL.len())];
        let seed = g.u64_in(0, 10_000);
        let accepted = match parse_jobfile(&text) {
            Ok(jobs) if check_jobs(&jobs).is_ok() => {
                AfaSystem::run(&AfaConfig::paper(stage).with_seed(seed).with_jobs(jobs));
                true
            }
            _ => false,
        };
        let path = dir.join(format!("{seed}.fio"));
        std::fs::write(&path, &text).expect("write jobfile");
        let out = Command::new(env!("CARGO_BIN_EXE_afactl"))
            .arg("jobfile")
            .arg(&path)
            .args(["--stage", stage.label(), "--seed", &seed.to_string()])
            .output()
            .expect("run afactl");
        assert_eq!(
            out.status.code(),
            Some(i32::from(!accepted)),
            "afactl jobfile on\n{text}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    });
    std::fs::remove_dir_all(&dir).ok();
}
