//! One workload's measurement, as the pinned child process runs it.
//!
//! The child first sets the workload up with zero simulated run time
//! (building host, fabric, devices, jobs and world replicas, plus
//! harvest) [`WARMUP_SETUPS`] times, untimed. Then it repeats the timed
//! run until its wall-clock budget is spent (at least once), times one
//! more set-up after each repetition, and reports the fastest
//! repetition's `host_ns_per_io` and the median set-up as `setup_s`.
//! Every repetition's outputs are checked and digested; a repetition
//! whose digest differs from the first is one more failed unit.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use afa_sim::SimDuration;

use crate::layers::{self, HostTimes};
use crate::metrics::{per_layer_unit, Line, Value, ERROR_RATE};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Outcome, Workload};

/// Fewest timed set-ups whose median is `setup_s`. A timed run of
/// `measure` repeats often enough to time more, one after each
/// repetition, so its set-ups sample the whole run: timed back to back,
/// a burst of neighbouring load covered all of them, and the median of
/// ten `serve-hedge-16` runs spread 31% against 6% when interleaved.
/// A single-repetition plan times the rest back to back after it.
const SETUPS: usize = 5;
/// Untimed set-ups first. A process's first four or five set-ups pay
/// first-touch page faults and run up to 6× slower, falling steadily,
/// so a median that included them would move with how fast the fall
/// happened to be.
const WARMUP_SETUPS: usize = 5;

/// What the child is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    /// Simulated time of one repetition.
    pub sim_secs: f64,
    /// Wall-clock budget for the timed repetitions; 0 runs exactly one.
    pub seconds: f64,
    /// Also run traced repetitions and the per-layer replays.
    pub traced: bool,
}

/// One timed repetition.
struct Rep {
    ns_per_io: f64,
    harvest_ms: f64,
    outcome: Outcome,
}

fn timed_rep(w: &Workload, plan: &Plan, traced: bool, tracer: &mut Tracer, id: u64) -> Rep {
    let runtime = SimDuration::from_secs_f64(plan.sim_secs);
    let name = if traced { "run.traced" } else { "run" };
    let start = tracer.now();
    let t0 = Instant::now();
    let raw = w.execute(plan.seed, runtime, traced);
    let wall = t0.elapsed();
    let mid = tracer.now();
    let outcome = raw.harvest();
    let harvest = t0.elapsed() - wall;
    let end = tracer.now();
    tracer.record(
        id,
        Some("workload"),
        name,
        "afa-core",
        start,
        mid,
        outcome.units,
    );
    tracer.record(id, Some("workload"), "harvest", "afabench", mid, end, 1);
    Rep {
        ns_per_io: wall.as_nanos() as f64 / outcome.units.max(1) as f64,
        harvest_ms: harvest.as_secs_f64() * 1e3,
        outcome,
    }
}

/// `host_ns_per_io` of the fastest repetition. On a shared host the
/// slowdowns neighbours cause come in bursts of a few hundred
/// milliseconds: on a 2-vCPU VM the median of 0.3-second runs moved 16%
/// between ten-second windows where their minimum moved 5%. Repetitions do
/// identical simulated work, so the fastest is the least disturbed.
fn fastest(reps: &[Rep]) -> f64 {
    reps.iter()
        .map(|r| r.ns_per_io)
        .fold(f64::INFINITY, f64::min)
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM present in /proc/self/status");
    kib * 1024.0 / 1e6
}

/// One zero-runtime set-up, in wall seconds.
fn set_up(w: &Workload, plan: &Plan) -> f64 {
    let t0 = Instant::now();
    black_box(w.execute(plan.seed, SimDuration::ZERO, false).harvest());
    t0.elapsed().as_secs_f64()
}

/// Times one set-up into `setups`, with a span whose id is its index.
fn timed_setup(w: &Workload, plan: &Plan, tracer: &mut Tracer, setups: &mut Vec<f64>) {
    let start = tracer.now();
    setups.push(set_up(w, plan));
    let end = tracer.now();
    let id = setups.len() as u64 - 1;
    tracer.record(id, Some("workload"), "setup", "afa-core", start, end, 1);
}

/// Runs the plan and returns every output line. Traced plans also
/// write their spans to `trace_dir/trace-<workload>-<seed>.jsonl`.
pub fn measure(w: &Workload, plan: &Plan, trace_dir: &Path) -> Vec<Line> {
    let mut tracer = Tracer::default();
    let root_start = tracer.now();
    for _ in 0..WARMUP_SETUPS {
        set_up(w, plan);
    }
    tracer.close(root_start, "setup.warmup", "afa-core", WARMUP_SETUPS as u64);

    let budget = Instant::now() + Duration::from_secs_f64(plan.seconds);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut setups = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        let id = plain.len() as u64;
        plain.push(timed_rep(w, plan, false, &mut tracer, id));
        if id == 0 {
            // Read before any repetition reuses freed memory: later
            // repetitions only add allocator fragmentation.
            peak_rss = peak_rss_mb();
        }
        if plan.traced {
            traced.push(timed_rep(w, plan, true, &mut tracer, id));
        }
        timed_setup(w, plan, &mut tracer, &mut setups);
        if Instant::now() >= budget {
            break;
        }
    }
    while setups.len() < SETUPS {
        timed_setup(w, plan, &mut tracer, &mut setups);
    }

    let first = &plain[0].outcome;
    let mut attempted = 0;
    let mut failed = 0;
    for rep in plain.iter().chain(&traced) {
        attempted += rep.outcome.units;
        failed += rep.outcome.failed;
        if rep.outcome.digest != first.digest || rep.outcome.units != first.units {
            failed += 1;
        }
    }
    let host_ns_per_io = fastest(&plain);
    let name = w.name;
    let mut lines = vec![
        Line::num(name, "host_ns_per_io", host_ns_per_io, "ns"),
        Line::num(name, "setup_s", median(&setups), "s"),
        Line::num(name, "peak_rss_mb", peak_rss, "MB"),
        Line::num(
            name,
            ERROR_RATE,
            failed as f64 / attempted.max(1) as f64,
            "fraction",
        ),
        Line::num(name, "units", first.units as f64, w.unit),
        Line::num(name, "attempted_units", attempted as f64, w.unit),
        Line::num(name, "failed_units", failed as f64, w.unit),
        Line::num(name, "reps", plain.len() as f64, "count"),
        Line::num(
            name,
            "workers",
            afa_core::experiment::pool::worker_cap() as f64,
            "count",
        ),
        Line {
            workload: name.to_owned(),
            metric: "sim_digest".to_owned(),
            value: Value::Text(format!("0x{:016x}", first.digest)),
            unit: "fnv1a64".to_owned(),
        },
    ];

    if !plan.traced {
        lines.extend(
            layers::count_metrics(w, first)
                .into_iter()
                .map(|(metric, v)| Line::num(name, metric, v, per_layer_unit(metric))),
        );
        return lines;
    }
    // Counts come from an untraced repetition, because the ledger log
    // of a traced run switches macro-event fusion off; causes and
    // ledgers come from the traced one.
    let mut outcome = first.clone();
    let with_causes = &traced
        .last()
        .expect("a traced plan runs traced reps")
        .outcome;
    outcome.causes = with_causes.causes;
    outcome.ledger_rows = with_causes.ledger_rows.clone();
    let calls = layers::replay(w, plan.seed, &outcome, &mut tracer);
    let harvest: Vec<f64> = plain.iter().map(|r| r.harvest_ms).collect();
    let host = HostTimes {
        ns_per_io: host_ns_per_io,
        traced_ns_per_io: fastest(&traced),
        harvest_ms: median(&harvest),
    };
    let root_end = tracer.now();
    tracer.record(
        0, None, "workload", "afabench", root_start, root_end, attempted,
    );
    let path = trace_dir.join(format!("trace-{}-{}.jsonl", w.name, plan.seed));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("afabench: cannot write {}: {e}", path.display());
    }
    lines.extend(layers::per_layer_lines(w, &outcome, &calls, &host));
    lines
}
