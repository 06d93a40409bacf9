//! Per-layer metrics: exact counts from a run's outputs, and host time
//! per call from replaying each layer's public hot call.
//!
//! A replay builds the layer's state from the workload's own
//! configuration (tuning stage, device profile, SSD count, rw mix,
//! queue occupancy and the simulated inter-I/O gap the run produced)
//! and drives the call the simulator makes per I/O, outside the
//! simulator. `<layer>.ns_per_io` is that per-call time multiplied by
//! the layer's exact calls per unit; whatever the layers do not account
//! for is `io_path.unattributed_ns_per_io` (the event conductor,
//! dispatch, and cache effects a tight replay loop does not pay).

use std::hint::black_box;

use afa_core::io_path::IoLedger;
use afa_frontend::{RequestBook, RequestLedger};
use afa_host::{CpuTopology, HostModel};
use afa_pcie::PcieFabric;
use afa_sim::trace::Cause;
use afa_sim::{EventQueue, SimDuration, SimRng, SimTime};
use afa_ssd::{NvmeCommand, SsdDevice};
use afa_stats::{LatencyHistogram, QuantileSketch};
use afa_volume::{StripeConfig, StripedVolume, SubIo};
use afa_workload::{IoEngine, RwPattern};

use crate::metrics::{Line, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads::{Counts, Kind, Outcome, Workload};

/// Calls per replay phase of the layers whose calls cost tens to
/// hundreds of nanoseconds.
const CALLS: usize = 200_000;
/// Calls per replay phase of the few-nanosecond calls.
const CHEAP_CALLS: usize = 1_000_000;
/// CPU work of one reap (io_path's completion cost).
const REAP_WORK: SimDuration = SimDuration::nanos(1_300);
/// Requests the request-book replay keeps in flight.
const BOOK_IN_FLIGHT: usize = 8;

/// Host nanoseconds per call of each replayed hot call.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallTimes {
    pub queue_op: f64,
    pub deliver_irq: f64,
    pub wake_io_task: f64,
    pub charge_cpu: f64,
    pub submit: f64,
    pub complete: f64,
    pub submit_read: f64,
    pub submit_write: f64,
    pub ledger: f64,
    pub histogram: f64,
    pub sketch: f64,
    pub map_read: f64,
    pub book: f64,
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Sub-I/Os each request stripes into on the serving path (one stripe
/// unit per member); array and fleet units touch one device.
fn stripe_width(w: &Workload) -> usize {
    match w.kind {
        Kind::ServeHedge => w.ssds,
        Kind::Array | Kind::FleetFailover => 1,
    }
}

/// Replays every layer's hot call on state built from `w`'s
/// configuration and `o`, the workload's traced outcome.
pub fn replay(w: &Workload, seed: u64, o: &Outcome, tracer: &mut Tracer) -> CallTimes {
    let config = w.array_config(seed, SimDuration::nanos(o.sim_ns));
    let geometry = &config.geometry;
    let ssds = w.ssds;
    let commands = o.counts.commands.max(1);
    // Simulated gap between consecutive commands array-wide, and
    // between consecutive commands to one device.
    let gap = (o.sim_ns / commands).max(1);
    let device_gap = gap * ssds as u64;
    let mut rng = SimRng::from_seed_and_stream(seed, 0xAFAB);
    let mut times = CallTimes::default();

    // afa-sim: one event through the wheel is one pop plus one push,
    // at the workload's occupancy and event horizon.
    let occupancy = match w.kind {
        Kind::Array => ssds * w.iodepth as usize + 2,
        Kind::ServeHedge => 2 * ssds + 6,
        Kind::FleetFailover => 4 * ssds + 4,
    };
    let mean_gap = (o.sim_ns / o.counts.events.max(1)).max(1) * occupancy as u64;
    let deltas: Vec<u64> = (0..CHEAP_CALLS)
        .map(|_| rng.below(2 * mean_gap) + 1)
        .collect();
    let mut queue: EventQueue<[u64; 3]> = EventQueue::with_capacity(occupancy);
    for i in 0..occupancy as u64 {
        queue.push(SimTime::from_nanos(rng.below(2 * mean_gap)), [i; 3]);
    }
    let start = tracer.now();
    times.queue_op = tracer.phase(
        "replay.sim",
        "sim.queue_pop_push",
        "afa-sim",
        &deltas,
        |&d| {
            let (t, ev) = queue.pop().expect("queue stays at its occupancy");
            queue.push(t + SimDuration::nanos(d), black_box(ev));
        },
    );
    tracer.close(start, "replay.sim", "afa-sim", deltas.len() as u64);

    // afa-host: IRQ delivery, then the wake of the I/O task at the
    // IRQ's wake-ready instant, then the reap charge at the run start.
    let mut host = HostModel::new(
        CpuTopology::xeon_e5_2690_v2_dual(),
        config.tuning.kernel_config(geometry.io_cpu_set()),
        config.background,
        seed,
    );
    host.init_vectors(geometry.assignment().to_vec(), seed);
    let policy = config.tuning.fio_policy();
    let irq_inputs: Vec<(usize, SimTime)> = (0..CALLS)
        .map(|k| (k % ssds, SimTime::from_nanos(k as u64 * gap)))
        .collect();
    let mut wake_inputs = Vec::with_capacity(CALLS);
    let start = tracer.now();
    times.deliver_irq = tracer.phase(
        "replay.host",
        "host.deliver_irq",
        "afa-host",
        &irq_inputs,
        |&(d, t)| {
            let out = host.deliver_irq(d, t);
            wake_inputs.push((geometry.cpu_of_ssd(d), out.wake_ready));
        },
    );
    let mut charge_inputs = Vec::with_capacity(CALLS);
    times.wake_io_task = tracer.phase(
        "replay.host",
        "host.wake_io_task",
        "afa-host",
        &wake_inputs,
        |&(cpu, ready)| {
            let (run_start, _) = host.wake_io_task(cpu, ready, policy);
            charge_inputs.push((cpu, run_start));
        },
    );
    times.charge_cpu = tracer.phase(
        "replay.host",
        "host.charge_cpu",
        "afa-host",
        &charge_inputs,
        |&(cpu, at)| {
            black_box(host.charge_cpu(cpu, at, REAP_WORK));
        },
    );
    tracer.close(start, "replay.host", "afa-host", 3 * CALLS as u64);

    // afa-pcie: command submission, then the completion legs (the
    // polled legs, without the MSI write, for polling engines).
    let mut fabric = PcieFabric::paper_single_host(ssds);
    let read_share = match w.rw {
        RwPattern::RandRw { read_pct } => f64::from(read_pct) / 100.0,
        RwPattern::RandWrite | RwPattern::SeqWrite => 0.0,
        RwPattern::RandRead | RwPattern::SeqRead => 1.0,
    };
    let submit_inputs: Vec<(usize, SimTime, u64)> = (0..CALLS)
        .map(|k| {
            let bytes = if rng.next_f64() < read_share { 4096 } else { 0 };
            (k % ssds, SimTime::from_nanos(k as u64 * gap), bytes)
        })
        .collect();
    let polled = w.engine == IoEngine::Polling;
    let service = config.device_profile.nominal_read_latency();
    let start = tracer.now();
    times.submit = tracer.phase(
        "replay.pcie",
        "pcie.submit_command",
        "afa-pcie",
        &submit_inputs,
        |&(d, t, _)| {
            black_box(fabric.submit_command(d, t));
        },
    );
    times.complete = tracer.phase(
        "replay.pcie",
        "pcie.deliver_completion",
        "afa-pcie",
        &submit_inputs,
        |&(d, t, bytes)| {
            let at = t + service;
            if polled {
                let leaf = fabric.poll_completion_device_leg(d, at, bytes);
                black_box(fabric.poll_completion_shared_legs(d, leaf, bytes));
            } else {
                black_box(fabric.deliver_completion(d, at, bytes));
            }
        },
    );
    tracer.close(start, "replay.pcie", "afa-pcie", 2 * CALLS as u64);

    // afa-ssd: reads and writes at the device's own command rate, so
    // the device sees the workload's queue occupancy.
    let spec = config.device_profile.spec();
    let firmware = config.tuning.firmware();
    let mut reader = SsdDevice::new(spec.clone(), firmware.clone(), seed);
    let mut writer = SsdDevice::new(spec, firmware, seed ^ 1);
    let pages = reader.spec().logical_pages();
    let ssd_inputs: Vec<(SimTime, u64)> = (0..CALLS)
        .map(|k| (SimTime::from_nanos(k as u64 * device_gap), rng.below(pages)))
        .collect();
    let start = tracer.now();
    times.submit_read = tracer.phase(
        "replay.ssd",
        "ssd.submit_read",
        "afa-ssd",
        &ssd_inputs,
        |&(t, lba)| {
            black_box(reader.submit(t, NvmeCommand::read(lba, 4096)));
        },
    );
    times.submit_write = tracer.phase(
        "replay.ssd",
        "ssd.submit_write",
        "afa-ssd",
        &ssd_inputs,
        |&(t, lba)| {
            black_box(writer.submit(t, NvmeCommand::write(lba, 4096)));
        },
    );
    tracer.close(start, "replay.ssd", "afa-ssd", 2 * CALLS as u64);

    // Ledger: array units settle an IoLedger per I/O (replayed from the
    // traced run's captured ledgers); serving units settle a
    // RequestLedger per request with the run's average cause mix.
    let start = tracer.now();
    if o.ledger_rows.is_empty() {
        let mix: Vec<(Cause, SimDuration)> = Cause::ALL
            .iter()
            .filter(|c| o.causes[c.index()] > 0)
            .map(|&c| (c, SimDuration::nanos(o.causes[c.index()] / o.units.max(1))))
            .collect();
        let mut ledger = RequestLedger::new();
        let inputs = vec![(); CHEAP_CALLS];
        times.ledger = tracer.phase(
            "replay.ledger",
            "frontend.request_ledger",
            "afa-frontend",
            &inputs,
            |_| {
                ledger.reset();
                for &(cause, d) in &mix {
                    ledger.charge(cause, d);
                }
                black_box(ledger.total());
            },
        );
    } else {
        let rows: Vec<&Vec<(Cause, u64)>> =
            o.ledger_rows.iter().cycle().take(CHEAP_CALLS).collect();
        times.ledger = tracer.phase(
            "replay.ledger",
            "io_path.io_ledger",
            "afa-core",
            &rows,
            |rows| {
                let mut ledger = IoLedger::begin(SimTime::ZERO);
                for &(cause, ns) in rows.iter() {
                    ledger.accrue(cause, SimDuration::nanos(ns));
                }
                ledger.settle();
                black_box(ledger.total());
            },
        );
    }
    let ledger_layer = if o.ledger_rows.is_empty() {
        "afa-frontend"
    } else {
        "afa-core"
    };
    tracer.close(start, "replay.ledger", ledger_layer, CHEAP_CALLS as u64);

    // afa-stats: the exact histogram and the quantile sketch, fed the
    // run's own latency values.
    let values: Vec<u64> = o
        .latencies
        .iter()
        .cycle()
        .take(CHEAP_CALLS)
        .enumerate()
        .map(|(k, &v)| v + (k % 1_000) as u64)
        .collect();
    let mut histogram = LatencyHistogram::new();
    let mut sketch = QuantileSketch::new();
    let start = tracer.now();
    times.histogram = tracer.phase(
        "replay.stats",
        "stats.histogram_record",
        "afa-stats",
        &values,
        |&v| {
            histogram.record(v);
        },
    );
    times.sketch = tracer.phase(
        "replay.stats",
        "stats.sketch_record",
        "afa-stats",
        &values,
        |&v| {
            sketch.record(v);
        },
    );
    black_box((histogram.count(), sketch.count()));
    tracer.close(start, "replay.stats", "afa-stats", 2 * CHEAP_CALLS as u64);

    // afa-volume and afa-frontend: stripe mapping and the request book
    // at the workload's stripe width.
    let width = stripe_width(w);
    let volume = StripedVolume::new((0..width).collect(), StripeConfig::new(4096));
    let bytes = 4096 * width as u32;
    let page_inputs: Vec<u64> = (0..CALLS)
        .map(|_| rng.below(4_000_000 / width as u64) * width as u64)
        .collect();
    let mut subs: Vec<SubIo> = Vec::with_capacity(width);
    let start = tracer.now();
    times.map_read = tracer.phase(
        "replay.frontend",
        "volume.map_read_into",
        "afa-volume",
        &page_inputs,
        |&page| {
            volume.map_read_into(page, bytes, &mut subs);
            black_box(subs.len());
        },
    );
    let mut book = RequestBook::new();
    let mut in_flight: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
    let request_inputs: Vec<SimTime> = (0..CALLS)
        .map(|k| SimTime::from_nanos(k as u64 * gap * width as u64))
        .collect();
    times.book = tracer.phase(
        "replay.frontend",
        "frontend.request_book",
        "afa-frontend",
        &request_inputs,
        |&t| {
            in_flight.push_back(book.begin(0, t, t, &subs));
            if in_flight.len() > BOOK_IN_FLIGHT {
                let id = in_flight.pop_front().expect("non-empty");
                for sub in 0..subs.len() {
                    black_box(book.complete_sub(id, sub, t, false));
                }
            }
        },
    );
    tracer.close(start, "replay.frontend", "afa-frontend", 2 * CALLS as u64);
    times
}

/// Exact count metrics of one run: everything in [`PER_LAYER`] that
/// needs neither a replay nor cause attribution.
pub fn count_metrics(w: &Workload, o: &Outcome) -> Vec<(&'static str, f64)> {
    let c: &Counts = &o.counts;
    let u = o.units;
    let cmds = c.reads + c.writes;
    let serving = w.kind != Kind::Array;
    let per_req = |n: u64| if serving { ratio(n, u) } else { 0.0 };
    vec![
        ("sim.events_per_io", ratio(c.events, u)),
        ("io_path.fused_share", ratio(c.fused, u)),
        ("io_path.defused_per_fused", ratio(c.defused, c.fused)),
        ("io_path.polled_share", ratio(c.polls, u)),
        ("host.irqs_per_io", ratio(c.irqs, u)),
        ("host.remote_irq_share", ratio(c.remote_irqs, c.irqs)),
        ("host.wakes_per_io", ratio(c.wakes, u)),
        (
            "host.bg_preempt_share",
            ratio(c.wakes_preempting_bg, c.wakes),
        ),
        ("pcie.commands_per_io", ratio(c.commands, u)),
        ("pcie.msi_per_io", ratio(c.msi, u)),
        ("pcie.uplink_bytes_per_io", ratio(c.uplink_bytes, u)),
        ("ssd.cmds_per_io", ratio(cmds, u)),
        ("ssd.write_share", ratio(c.writes, cmds)),
        ("ssd.housekeeping_share", ratio(c.housekeeping_hits, cmds)),
        ("ssd.retry_share", ratio(c.media_retries, cmds)),
        ("ssd.gc_cycles", c.gc_cycles as f64),
        ("frontend.subs_per_req", per_req(c.subs)),
        ("frontend.hedges_per_req", per_req(c.hedges_fired)),
        (
            "frontend.hedge_win_ratio",
            ratio(c.hedges_won, c.hedges_fired),
        ),
        ("frontend.shed_share", ratio(c.shed, c.admitted + c.shed)),
        ("fleet.failovers", c.failovers as f64),
        ("fleet.retries_per_req", per_req(c.fleet_retries)),
        ("fleet.rereplication_ios", c.rereplication_ios as f64),
        ("fleet.stale_drops", c.stale_drops as f64),
    ]
}

/// Host-time figures of one traced workload.
#[derive(Clone, Copy, Debug)]
pub struct HostTimes {
    /// `host_ns_per_io` of the fastest untraced repetition.
    pub ns_per_io: f64,
    /// `host_ns_per_io` of the fastest traced repetition.
    pub traced_ns_per_io: f64,
    /// Median harvest time, milliseconds.
    pub harvest_ms: f64,
}

/// Every [`PER_LAYER`] metric, in table order.
pub fn per_layer_lines(
    w: &Workload,
    o: &Outcome,
    calls: &CallTimes,
    host: &HostTimes,
) -> Vec<Line> {
    let c = &o.counts;
    let u = o.units.max(1) as f64;
    let per_unit = |n: u64| n as f64 / u;
    let sim = calls.queue_op * per_unit(c.events);
    let host_ns = calls.deliver_irq * per_unit(c.irqs)
        + calls.wake_io_task * per_unit(c.wakes)
        + calls.charge_cpu * per_unit(c.charges);
    let pcie = (calls.submit + calls.complete) * per_unit(c.commands);
    let ssd = calls.submit_read * per_unit(c.reads) + calls.submit_write * per_unit(c.writes);
    let stats =
        calls.histogram * per_unit(c.histogram_records) + calls.sketch * per_unit(c.sketch_records);
    let ledger = calls.ledger * per_unit(c.ledgers);
    let serving = match w.kind {
        Kind::Array => 0.0,
        Kind::ServeHedge => calls.map_read + calls.book,
        Kind::FleetFailover => calls.book,
    };
    let unattributed = host.ns_per_io - (sim + host_ns + pcie + ssd + stats + ledger + serving);

    let mut values = count_metrics(w, o);
    values.extend([
        ("sim.queue_ns_per_op", calls.queue_op),
        ("sim.ns_per_io", sim),
        ("io_path.ledger_ns_per_io", ledger),
        ("io_path.unattributed_ns_per_io", unattributed),
        ("host.deliver_irq_ns", calls.deliver_irq),
        ("host.wake_io_task_ns", calls.wake_io_task),
        ("host.charge_cpu_ns", calls.charge_cpu),
        ("host.ns_per_io", host_ns),
        ("pcie.submit_ns", calls.submit),
        ("pcie.complete_ns", calls.complete),
        ("pcie.ns_per_io", pcie),
        ("ssd.submit_read_ns", calls.submit_read),
        ("ssd.submit_write_ns", calls.submit_write),
        ("ssd.ns_per_io", ssd),
        ("stats.histogram_record_ns", calls.histogram),
        ("stats.sketch_record_ns", calls.sketch),
        ("stats.ns_per_io", stats),
        ("workload.harvest_ms", host.harvest_ms),
        ("volume.map_read_ns", calls.map_read),
        ("frontend.book_ns_per_req", calls.book),
        (
            "trace.overhead_pct",
            100.0 * (host.traced_ns_per_io / host.ns_per_io - 1.0),
        ),
    ]);
    let cause_names: Vec<String> = Cause::ALL
        .iter()
        .map(|c| format!("cause.{}_us_per_io", c.label()))
        .collect();
    PER_LAYER
        .iter()
        .map(|m| {
            let value = match cause_names.iter().position(|n| n == m.name) {
                Some(i) => o.causes[i] as f64 / 1_000.0 / u,
                None => {
                    values
                        .iter()
                        .find(|(name, _)| *name == m.name)
                        .unwrap_or_else(|| panic!("no value computed for {}", m.name))
                        .1
                }
            };
            Line::num(w.name, m.name, value, m.unit)
        })
        .collect()
}
