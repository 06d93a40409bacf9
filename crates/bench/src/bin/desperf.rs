//! DES-throughput trajectory: appends one measurement entry to
//! `BENCH_desperf.json` at the repo root.
//!
//! Each entry captures the substrate hot-path micro-benches
//! (`queue_push_pop_1k`, `queue_push_pop_64k`, `histogram_record`,
//! `frontend_fanout_64` — the exact same bodies
//! `cargo bench --bench micro` runs) plus five pinned end-to-end
//! runs: fig06 (10 s × 64 SSDs, seed 42), the request-serving
//! tailscale-fanout sweep (0.5 s × 16 SSDs, seed 42), the
//! fleet-arrival tenant ladder (1 s × 8 SSDs, seed 42 — the
//! million-tenant rung plus its peak slab footprint, the serving
//! path's RSS proxy), the fleet-failover replicated-fleet grid
//! (0.25 s × 8 SSDs, seed 42 — 5 kill/failover runs, so the network
//! hop and re-replication paths stay in the trajectory), and the
//! ull-crossover completion-model grid
//! (0.25 s × 8 SSDs, seed 42 — 30 runs spanning both device profiles
//! and all three completion models, so the polled reap path stays in
//! the trajectory), each with its wall-clock and events/sec, recorded
//! alongside the host's core count. The fig06 run also records
//! `fig06_ns_per_io`, the fastest pass's wall time per simulated I/O
//! (older entries lack it). Because the scales are pinned,
//! entries are comparable across commits: the file is the perf
//! trajectory of the event queue, histogram, serving layer and I/O-path
//! engine over the repo's history.
//!
//! Usage:
//!
//! ```text
//! AFA_BENCH_LABEL=timing-wheel cargo run --release -p afa-bench --bin desperf
//! ```
//!
//! `desperf --check` is the CI regression gate: it skips the
//! micro-benches, re-measures the pinned fig06 run, and exits non-zero
//! if events/sec fell more than 20% below the most recent committed
//! entry (nothing is appended). It also re-measures the fleet ladder
//! and gates its events/sec (80% floor), its peak slab bytes
//! (110% ceiling) and its 1M/10k rate ratio ([0.8, 1.2] band), plus
//! the fleet-failover grid's and the ull-crossover grid's events/sec
//! (80% floors), each skipping gracefully when the committed
//! trajectory predates its keys. Older entries also carry
//! `event_fusion_*` keys from a retired fig06 fusion probe; new
//! entries omit them.

use std::time::Instant;

use afa_bench::micro::{self, Harness};
use afa_core::experiment::{self, Experiment, ExperimentScale};
use afa_sim::SimDuration;
use afa_stats::Json;

/// The pinned end-to-end scale; changing it breaks trajectory
/// comparability, so don't.
fn trajectory_scale() -> ExperimentScale {
    ExperimentScale::new(SimDuration::from_secs_f64(10.0), 64, 42)
}

/// The pinned request-serving scale (tailscale-fanout: 5 stages × a
/// width sweep per entry); same comparability rule as
/// [`trajectory_scale`].
fn frontend_scale() -> ExperimentScale {
    ExperimentScale::new(SimDuration::from_secs_f64(0.5), 16, 42)
}

/// The pinned fleet-serving scale: 1 s keeps the tenant ladder's full
/// 10³ → 10⁶ climb in the trajectory, so the 1M rung is exercised on
/// every measurement. Same comparability rule as [`trajectory_scale`].
fn fleet_scale() -> ExperimentScale {
    ExperimentScale::new(SimDuration::from_secs_f64(1.0), 8, 42)
}

/// Runs the pinned fleet-arrival ladder once; returns
/// `(events_per_sec, peak_slab_bytes, rate_ratio_1m_vs_10k)`. The
/// slab bytes are the serving path's peak-RSS proxy; the rate ratio
/// compares the 1M rung's per-rung events/sec against the 10k rung's
/// (flat-memory serving should hold it near 1.0).
fn run_fleet_ladder() -> (f64, u64, f64) {
    let scale = fleet_scale();
    println!(
        "fleet-arrival ladder at {:.1}s x {} SSDs, seed {} ...",
        scale.runtime.as_secs_f64(),
        scale.ssds,
        scale.seed
    );
    // Three passes: best-of for throughput and for each rung of the
    // ratio. The whole ladder finishes in a fraction of a second, and
    // a single pass on a shared host picks up enough scheduler/cache
    // noise to swing a per-pass 1M/10k quotient by ±30 %. Taking the
    // median of per-pass ratios (the old estimator) still swung
    // 0.98–1.23 because one noisy rung poisons its whole pass; taking
    // best-of-3 for the numerator and denominator *jointly sampled
    // from the same passes* filters the one-sided scheduler noise out
    // of each rung independently, and the surviving quotient compares
    // the two rungs' steady-state rates.
    let mut events_per_sec = 0.0f64;
    let mut peak_slab_bytes = 0u64;
    let mut best_1m = 0.0f64;
    let mut best_10k = 0.0f64;
    for _ in 0..3 {
        let events_before = afa_sim::metrics::events_processed_total();
        let t0 = Instant::now();
        let result = experiment::fleet_arrival(scale);
        let wall = t0.elapsed().as_secs_f64();
        let events = afa_sim::metrics::events_processed_total() - events_before;
        events_per_sec = events_per_sec.max(events as f64 / wall.max(1e-9));
        peak_slab_bytes = result
            .cells
            .iter()
            .map(|c| c.slab_footprint_bytes)
            .max()
            .unwrap_or(0);
        let rung_rate = |tenants: u64| {
            result
                .cell(tenants)
                .map(|c| c.sim_events as f64 / c.wall.as_secs_f64().max(1e-9))
        };
        if let Some(big) = rung_rate(1_000_000) {
            best_1m = best_1m.max(big);
        }
        if let Some(small) = rung_rate(10_000) {
            best_10k = best_10k.max(small);
        }
    }
    let rate_ratio = if best_10k > 0.0 {
        best_1m / best_10k
    } else {
        1.0
    };
    println!(
        "fleet-arrival: best of 3 passes, {events_per_sec:.0} events/sec, \
         {peak_slab_bytes} peak slab bytes, 1M/10k rate ratio {rate_ratio:.2} (best-of-3 rungs)"
    );
    (events_per_sec, peak_slab_bytes, rate_ratio)
}

/// The pinned completion-model scale: the full ull-crossover grid (2
/// device profiles × 5 tuning stages × 3 completion models) in a
/// fraction of a second, so the polled and hybrid reap paths are
/// measured on every trajectory entry. Same comparability rule as
/// [`trajectory_scale`].
fn ull_scale() -> ExperimentScale {
    ExperimentScale::new(SimDuration::from_secs_f64(0.25), 8, 42)
}

/// The pinned replicated-fleet scale: the 5-stage fleet-failover grid
/// (kill one array at t=50%, failover + re-replication) at 2 s sim
/// time, so each pass does enough network-hop and failover work for a
/// stable events/sec on a noisy shared host. Same comparability rule
/// as [`trajectory_scale`].
fn fleet_failover_scale() -> ExperimentScale {
    ExperimentScale::new(SimDuration::from_secs_f64(2.0), 8, 42)
}

/// Runs the pinned fleet-failover grid; returns best-of-3 events/sec.
/// Three passes for the same reason as [`run_fleet_ladder`]: short
/// runs amplify per-run scheduler noise on a shared host.
fn run_fleet_failover() -> f64 {
    let def = experiment::find("fleet-failover").expect("fleet-failover registered");
    let scale = fleet_failover_scale();
    println!(
        "fleet-failover grid at {:.2}s x {} SSDs, seed {} ...",
        scale.runtime.as_secs_f64(),
        scale.ssds,
        scale.seed
    );
    let mut events_per_sec = 0.0f64;
    for _ in 0..3 {
        let events_before = afa_sim::metrics::events_processed_total();
        let t0 = Instant::now();
        let result = def.run(scale);
        let wall = t0.elapsed().as_secs_f64();
        let events = afa_sim::metrics::events_processed_total() - events_before;
        events_per_sec = events_per_sec.max(events as f64 / wall.max(1e-9));
        std::hint::black_box(result.samples());
    }
    println!("fleet-failover: best of 3 passes, {events_per_sec:.0} events/sec");
    events_per_sec
}

/// Runs the pinned ull-crossover grid; returns best-of-2 events/sec.
/// Two passes because the grid's 30 short runs amplify per-run
/// scheduler noise on a shared host.
fn run_ull_crossover() -> f64 {
    let def = experiment::find("ull-crossover").expect("ull-crossover registered");
    let scale = ull_scale();
    println!(
        "ull-crossover grid at {:.2}s x {} SSDs, seed {} ...",
        scale.runtime.as_secs_f64(),
        scale.ssds,
        scale.seed
    );
    let mut events_per_sec = 0.0f64;
    for _ in 0..2 {
        let events_before = afa_sim::metrics::events_processed_total();
        let t0 = Instant::now();
        let result = def.run(scale);
        let wall = t0.elapsed().as_secs_f64();
        let events = afa_sim::metrics::events_processed_total() - events_before;
        events_per_sec = events_per_sec.max(events as f64 / wall.max(1e-9));
        std::hint::black_box(result.samples());
    }
    println!("ull-crossover: best of 2 passes, {events_per_sec:.0} events/sec");
    events_per_sec
}

fn median_ns(harness: &Harness, name: &str) -> f64 {
    harness
        .results()
        .iter()
        .find(|r| r.name == name)
        .map_or(f64::NAN, |r| r.median_ns)
}

fn main() {
    let check_only = std::env::args().any(|a| a == "--check");
    let label = std::env::var("AFA_BENCH_LABEL").unwrap_or_else(|_| "unlabeled".to_owned());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_desperf.json");

    if check_only {
        let baseline = match last_events_per_sec(&std::fs::read_to_string(path).unwrap_or_default())
        {
            Some(b) => b,
            None => {
                eprintln!("--check: no committed entry in {path}; run desperf once first");
                std::process::exit(1);
            }
        };
        let measured = run_trajectory_fig06().events_per_sec;
        let floor = 0.8 * baseline;
        if measured < floor {
            eprintln!(
                "desperf regression: {measured:.0} events/sec is more than 20% below \
                 the committed baseline {baseline:.0} (floor {floor:.0})"
            );
            std::process::exit(1);
        }
        println!(
            "desperf OK: {measured:.0} events/sec vs baseline {baseline:.0} \
             ({:+.1}%)",
            100.0 * (measured / baseline - 1.0)
        );
        let existing = std::fs::read_to_string(path).unwrap_or_default();
        check_fleet(&existing);
        check_fleet_failover(&existing);
        check_ull(&existing);
        return;
    }

    let mut harness = Harness::default();
    micro::register_queue_churn(&mut harness);
    micro::register_histogram_record(&mut harness);
    micro::register_frontend_fanout(&mut harness);

    println!();
    let fig06 = run_trajectory_fig06();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let fe_def = experiment::find("tailscale-fanout").expect("tailscale-fanout registered");
    let fe_scale = frontend_scale();
    println!(
        "\ntailscale-fanout end-to-end at {:.1}s x {} SSDs, seed {} ...",
        fe_scale.runtime.as_secs_f64(),
        fe_scale.ssds,
        fe_scale.seed
    );
    let fe_events_before = afa_sim::metrics::events_processed_total();
    let fe_t0 = Instant::now();
    let fe_result = fe_def.run(fe_scale);
    let fe_wall = fe_t0.elapsed().as_secs_f64();
    let fe_events = afa_sim::metrics::events_processed_total() - fe_events_before;
    let fe_events_per_sec = fe_events as f64 / fe_wall.max(1e-9);
    println!(
        "tailscale-fanout: {:.2}s wall, {} samples, {} events, {:.0} events/sec",
        fe_wall,
        fe_result.samples(),
        fe_events,
        fe_events_per_sec
    );

    println!();
    let (fleet_eps, fleet_slab_bytes, fleet_rate_ratio) = run_fleet_ladder();

    println!();
    let fleet_failover_eps = run_fleet_failover();

    println!();
    let ull_eps = run_ull_crossover();

    let entry = Json::obj([
        ("label", Json::str(&label)),
        (
            "queue_push_pop_1k_ns",
            Json::f64(median_ns(&harness, "queue_push_pop_1k")),
        ),
        (
            "queue_push_pop_64k_ns",
            Json::f64(median_ns(&harness, "queue_push_pop_64k")),
        ),
        (
            "histogram_record_ns",
            Json::f64(median_ns(&harness, "histogram_record")),
        ),
        (
            "frontend_fanout_64_ns",
            Json::f64(median_ns(&harness, "frontend_fanout_64")),
        ),
        ("fig06_wall_s", Json::f64(fig06.wall_s)),
        ("fig06_samples", Json::u64(fig06.samples)),
        ("fig06_events", Json::u64(fig06.events)),
        ("fig06_events_per_sec", Json::f64(fig06.events_per_sec)),
        ("fig06_ns_per_io", Json::f64(fig06.ns_per_io())),
        ("host_cores", Json::u64(cores as u64)),
        ("frontend_wall_s", Json::f64(fe_wall)),
        ("frontend_samples", Json::u64(fe_result.samples())),
        ("frontend_events", Json::u64(fe_events)),
        ("frontend_events_per_sec", Json::f64(fe_events_per_sec)),
        ("fleet_events_per_sec", Json::f64(fleet_eps)),
        ("fleet_slab_peak_bytes", Json::u64(fleet_slab_bytes)),
        ("fleet_rate_ratio_1m_vs_10k", Json::f64(fleet_rate_ratio)),
        (
            "fleet_failover_events_per_sec",
            Json::f64(fleet_failover_eps),
        ),
        ("ull_crossover_events_per_sec", Json::f64(ull_eps)),
    ]);

    let rendered = append_entry(&std::fs::read_to_string(path).unwrap_or_default(), &entry);
    match std::fs::write(path, &rendered) {
        Ok(()) => println!("\nappended '{label}' entry to {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// One pinned-scale fig06 trajectory measurement.
struct Fig06Measurement {
    wall_s: f64,
    samples: u64,
    events: u64,
    events_per_sec: f64,
}

impl Fig06Measurement {
    /// Wall-clock nanoseconds per simulated I/O (latency sample).
    fn ns_per_io(&self) -> f64 {
        self.wall_s * 1e9 / self.samples.max(1) as f64
    }
}

/// Runs the pinned-scale fig06 trajectory best-of-3 and returns the
/// fastest pass. Three passes for the same reason as
/// [`run_fleet_ladder`]: a single ~11 s pass on a 1-core shared host
/// picks up enough scheduler noise to swing events/sec ±10%, which is
/// the entire width of the regression band; taking the fastest pass
/// filters the one-sided noise out of both the appended baseline and
/// the `--check` re-measurement, so the gate compares steady-state
/// rates. The samples/events counts are deterministic across passes.
fn run_trajectory_fig06() -> Fig06Measurement {
    let def = experiment::find("fig06").expect("fig06 registered");
    let scale = trajectory_scale();
    println!(
        "fig06 end-to-end at {:.1}s x {} SSDs, seed {} (best of 3) ...",
        scale.runtime.as_secs_f64(),
        scale.ssds,
        scale.seed
    );
    let mut best = Fig06Measurement {
        wall_s: f64::INFINITY,
        samples: 0,
        events: 0,
        events_per_sec: 0.0,
    };
    for _ in 0..3 {
        let events_before = afa_sim::metrics::events_processed_total();
        let t0 = Instant::now();
        let result = def.run(scale);
        let wall = t0.elapsed().as_secs_f64();
        let events = afa_sim::metrics::events_processed_total() - events_before;
        let events_per_sec = events as f64 / wall.max(1e-9);
        if events_per_sec > best.events_per_sec {
            best = Fig06Measurement {
                wall_s: wall,
                samples: result.samples(),
                events,
                events_per_sec,
            };
        }
    }
    println!(
        "fig06: {:.2}s wall, {} samples, {} events, {:.0} events/sec (best of 3 passes)",
        best.wall_s, best.samples, best.events, best.events_per_sec
    );
    println!("fig06_ns_per_io {:.1}", best.ns_per_io());
    best
}

/// The fleet gate: events/sec must hold 80% of the last committed
/// fleet measurement, the peak slab footprint (the serving path's
/// RSS proxy) must not grow more than 10%, and the 1M/10k rate ratio
/// must sit inside [0.8, 1.2] — flat-memory serving holds it near
/// 1.0, and the best-of-3-per-rung estimator is stable enough for
/// that band (the old per-pass-median estimator swung 0.98–1.23 on
/// noise alone, and a 1-core shared host still moves the best-of-3
/// quotient a few points run to run). Skipped with a note when the
/// trajectory predates the fleet keys.
fn check_fleet(existing: &str) {
    let (Some(base_eps), Some(base_bytes)) = (
        last_f64_key(existing, "\"fleet_events_per_sec\":"),
        last_f64_key(existing, "\"fleet_slab_peak_bytes\":"),
    ) else {
        println!("fleet gate: skipped (no fleet keys in the committed trajectory yet)");
        return;
    };
    let (eps, slab_bytes, rate_ratio) = run_fleet_ladder();
    if !(0.8..=1.2).contains(&rate_ratio) {
        eprintln!(
            "fleet ladder regression: 1M/10k rate ratio {rate_ratio:.2} is outside \
             [0.8, 1.2] — the million-tenant rung no longer serves at the \
             10k rung's per-event cost"
        );
        std::process::exit(1);
    }
    let eps_floor = 0.8 * base_eps;
    if eps < eps_floor {
        eprintln!(
            "fleet regression: {eps:.0} events/sec is more than 20% below the \
             committed baseline {base_eps:.0} (floor {eps_floor:.0})"
        );
        std::process::exit(1);
    }
    let bytes_ceiling = 1.1 * base_bytes;
    if slab_bytes as f64 > bytes_ceiling {
        eprintln!(
            "fleet slab regression: {slab_bytes} peak slab bytes is more than 10% above \
             the committed baseline {base_bytes:.0} (ceiling {bytes_ceiling:.0})"
        );
        std::process::exit(1);
    }
    println!(
        "fleet OK: {eps:.0} events/sec ({:+.1}% vs baseline), {slab_bytes} peak slab bytes \
         ({:+.1}% vs baseline), 1M/10k rate ratio {rate_ratio:.2}",
        100.0 * (eps / base_eps - 1.0),
        100.0 * (slab_bytes as f64 / base_bytes - 1.0)
    );
}

/// The replicated-fleet gate: the fleet-failover grid's events/sec
/// must hold 80% of the last committed measurement — it is the only
/// throughput coverage for the network-hop, failover and
/// re-replication paths. Skipped with a note when the trajectory
/// predates the key.
fn check_fleet_failover(existing: &str) {
    let Some(base_eps) = last_f64_key(existing, "\"fleet_failover_events_per_sec\":") else {
        println!(
            "fleet-failover gate: skipped (no fleet-failover key in the committed trajectory yet)"
        );
        return;
    };
    let eps = run_fleet_failover();
    let floor = 0.8 * base_eps;
    if eps < floor {
        eprintln!(
            "fleet-failover regression: {eps:.0} events/sec is more than 20% below the \
             committed baseline {base_eps:.0} (floor {floor:.0})"
        );
        std::process::exit(1);
    }
    println!(
        "fleet-failover OK: {eps:.0} events/sec ({:+.1}% vs baseline)",
        100.0 * (eps / base_eps - 1.0)
    );
}

/// The completion-model gate: the ull-crossover grid's events/sec
/// must hold 80% of the last committed measurement — the polled reap
/// path has no other throughput coverage in CI. Skipped with a note
/// when the trajectory predates the key.
fn check_ull(existing: &str) {
    let Some(base_eps) = last_f64_key(existing, "\"ull_crossover_events_per_sec\":") else {
        println!("ull gate: skipped (no ull-crossover key in the committed trajectory yet)");
        return;
    };
    let eps = run_ull_crossover();
    let floor = 0.8 * base_eps;
    if eps < floor {
        eprintln!(
            "ull-crossover regression: {eps:.0} events/sec is more than 20% below the \
             committed baseline {base_eps:.0} (floor {floor:.0})"
        );
        std::process::exit(1);
    }
    println!(
        "ull OK: {eps:.0} events/sec ({:+.1}% vs baseline)",
        100.0 * (eps / base_eps - 1.0)
    );
}

/// Extracts the last entry's `fig06_events_per_sec` from the
/// trajectory document.
fn last_events_per_sec(existing: &str) -> Option<f64> {
    last_f64_key(existing, "\"fig06_events_per_sec\":")
}

/// Extracts the number after the final occurrence of `key` — same
/// no-parser discipline as [`append_entry`].
fn last_f64_key(existing: &str, key: &str) -> Option<f64> {
    let at = existing.rfind(key)? + key.len();
    let rest = &existing[at..];
    let end = rest.find([',', '}', ']', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Appends `entry` to a JSON array document without a JSON parser:
/// strip the closing bracket, add a comma if the array is non-empty,
/// and re-close. An empty or missing document starts a fresh array.
fn append_entry(existing: &str, entry: &Json) -> String {
    let body = existing.trim_end();
    let body = body.strip_suffix(']').unwrap_or("").trim_end();
    let mut out = String::new();
    if body.is_empty() || body == "[" {
        out.push_str("[\n");
    } else {
        out.push_str(body);
        out.push_str(",\n");
    }
    out.push_str("  ");
    out.push_str(&entry.to_string());
    out.push_str("\n]\n");
    out
}
