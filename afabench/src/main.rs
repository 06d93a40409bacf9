//! `afabench`: the AFA simulator's benchmark — host nanoseconds per
//! simulated I/O on five pinned workloads, a per-layer traced run, and
//! the parent-vs-change comparison. See `README.md` next to this
//! package for what each workload and metric is for.
//!
//! ```text
//! afabench run --seed N                 five workloads, full scale
//! afabench trace --seed N               the same, traced, per-layer metrics
//! afabench compare P.json... -- C.json... parent vs change verdicts
//! afabench measure --workload W --seed N --seconds S --trace 0|1
//!                                       one workload for S wall seconds,
//!                                       ending in one JSON result line
//! ```
//!
//! Every workload runs in a child process of its own, one at a time,
//! pinned with `taskset -c` to the highest CPU the parent may use and
//! with every `AFA_*` variable removed from its environment and glibc's
//! malloc thresholds fixed.

mod json;
mod layers;
mod metrics;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use afa_stats::Json;

use metrics::{Line, Value, END_TO_END, ERROR_RATE, PER_LAYER};
use runner::Plan;
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "usage:
  afabench run --seed N
  afabench trace --seed N
  afabench compare PARENT.json... -- CHANGE.json...
  afabench measure --workload W --seed N --seconds S --trace 0|1";

/// Where run records and traces go, relative to the working directory.
const OUT_DIR: &str = "target/afabench";

/// The seed whose digests and unit counts `provenance.json` pins.
const PIN_SEED: u64 = 42;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_set(rest, false),
        Some("trace") => run_set(rest, true),
        Some("compare") => compare(rest),
        Some("measure") => measure(rest),
        Some("child") => child(rest),
        _ => Err(format!("unknown command\n{USAGE}")),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("afabench: {msg}");
            std::process::exit(2);
        }
    }
}

/// `--key value` pairs, restricted to the keys a command accepts.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .filter(|k| allowed.contains(k))
                .ok_or_else(|| format!("unexpected argument '{key}'"))?;
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            if pairs.iter().any(|(k, _)| k == name) {
                return Err(format!("{key} given twice"));
            }
            pairs.push((name.to_owned(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let (_, text) = self
            .0
            .iter()
            .find(|(k, _)| k == key)
            .ok_or_else(|| format!("--{key} is required"))?;
        text.parse()
            .map_err(|_| format!("--{key}: cannot parse '{text}'"))
    }

    fn workload(&self) -> Result<&'static Workload, String> {
        let name: String = self.get("workload")?;
        workloads::find(&name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload '{name}' (known: {})", known.join(", "))
        })
    }

    fn seconds(&self, key: &str) -> Result<f64, String> {
        let s: f64 = self.get(key)?;
        if s.is_finite() && (0.0..=3_600.0).contains(&s) {
            Ok(s)
        } else {
            Err(format!("--{key} must be between 0 and 3600"))
        }
    }

    fn trace(&self) -> Result<bool, String> {
        match self.get::<u8>("trace")? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err("--trace must be 0 or 1".to_owned()),
        }
    }
}

/// The highest CPU in this process's allowed set.
fn pinned_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim()
        .split(',')
        .filter_map(|range| range.rsplit('-').next()?.trim().parse().ok())
        .max()
}

/// glibc malloc settings for the child: the mmap threshold fixed at the
/// 32 MiB ceiling of glibc's dynamic rule and the trim threshold at
/// twice that, as the rule would set them. Left dynamic, the threshold
/// follows the order in which the experiment pool's worker thread and
/// the main thread free large blocks, which varies from process to
/// process: about one `serve-hedge-16` child in eight then set up 3×
/// slower and peaked 23% lower in RSS. Other allocators ignore it.
const MALLOC_TUNABLES: &str =
    "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=67108864";

/// Runs one workload in a child process of its own — pinned to
/// [`pinned_cpu`] when `taskset` exists, with every `AFA_*` variable
/// removed and [`MALLOC_TUNABLES`] set — waits for it, and returns its
/// output lines.
fn spawn_child(w: &Workload, plan: &Plan) -> Result<Vec<Line>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate afabench: {e}"))?;
    let child_args = [
        "child".to_owned(),
        "--workload".to_owned(),
        w.name.to_owned(),
        "--seed".to_owned(),
        plan.seed.to_string(),
        "--sim-secs".to_owned(),
        plan.sim_secs.to_string(),
        "--seconds".to_owned(),
        plan.seconds.to_string(),
        "--trace".to_owned(),
        u8::from(plan.traced).to_string(),
    ];
    let prepare = |mut cmd: Command| {
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("AFA_") {
                cmd.env_remove(key);
            }
        }
        cmd.env("GLIBC_TUNABLES", MALLOC_TUNABLES)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        cmd
    };
    let direct = || {
        let mut cmd = Command::new(&exe);
        cmd.args(&child_args);
        prepare(cmd).output()
    };
    let output = match pinned_cpu() {
        Some(cpu) => {
            let mut cmd = Command::new("taskset");
            cmd.arg("-c")
                .arg(cpu.to_string())
                .arg(&exe)
                .args(&child_args);
            match prepare(cmd).output() {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => direct(),
                other => other,
            }
        }
        None => direct(),
    }
    .map_err(|e| format!("cannot start the {} child: {e}", w.name))?;
    if !output.status.success() {
        return Err(format!("the {} child failed ({})", w.name, output.status));
    }
    Ok(String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(Line::parse)
        .collect())
}

fn child(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &["workload", "seed", "sim-secs", "seconds", "trace"])?;
    let w = flags.workload()?;
    let plan = Plan {
        seed: flags.get("seed")?,
        sim_secs: flags.seconds("sim-secs")?,
        seconds: flags.seconds("seconds")?,
        traced: flags.trace()?,
    };
    for line in runner::measure(w, &plan, Path::new(OUT_DIR)) {
        println!("{line}");
    }
    Ok(0)
}

fn find_line<'a>(lines: &'a [Line], metric: &str) -> Option<&'a Line> {
    lines.iter().find(|l| l.metric == metric)
}

fn metric_json(lines: &[Line], names: impl Iterator<Item = &'static str>) -> Result<Json, String> {
    let mut out = Json::obj([]);
    for name in names {
        let line = find_line(lines, name).ok_or_else(|| format!("no value for {name}"))?;
        let value = line
            .as_f64()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("{name} is not a finite number"))?;
        out.push(
            name,
            Json::obj([("value", Json::f64(value)), ("unit", Json::str(&line.unit))]),
        );
    }
    Ok(out)
}

/// `measure`: one workload for `--seconds` wall seconds; the last
/// stdout line is `{"correct", "attempted", "failed", "metrics"}` with
/// the end-to-end metrics (`--trace 0`) or the per-layer ones
/// (`--trace 1`).
fn measure(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace"])?;
    let w = flags.workload()?;
    let plan = Plan {
        seed: flags.get("seed")?,
        sim_secs: w.rep_secs,
        seconds: flags.seconds("seconds")?,
        traced: flags.trace()?,
    };
    let lines = spawn_child(w, &plan)?;
    for line in &lines {
        println!("{line}");
    }
    let count = |metric| {
        find_line(&lines, metric)
            .and_then(Line::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("the child reported no {metric}"))
    };
    let attempted = count("attempted_units")?;
    let failed = count("failed_units")?;
    let metrics = if plan.traced {
        metric_json(&lines, PER_LAYER.iter().map(|m| m.name))?
    } else {
        metric_json(&lines, END_TO_END.iter().map(|m| m.name))?
    };
    let result = Json::obj([
        ("correct", Json::Bool(failed == 0 && attempted > 0)),
        ("attempted", Json::u64(attempted)),
        ("failed", Json::u64(failed)),
        ("metrics", metrics),
    ]);
    println!("{result}");
    Ok(0)
}

/// The provenance record: workload configs, pins, metric definitions,
/// host facts and the baseline.
const PROVENANCE: &str = include_str!("../provenance.json");

/// The seed-[`PIN_SEED`] digest pinned for `workload`.
fn pinned_digest(workload: &str) -> Option<String> {
    let doc = json::parse(PROVENANCE).expect("provenance.json is valid JSON");
    let Some(Json::Arr(entries)) = doc.get("workloads") else {
        return None;
    };
    entries
        .iter()
        .find(|e| e.get("name").and_then(json::as_str) == Some(workload))?
        .get("pin")?
        .get("sim_digest")
        .and_then(json::as_str)
        .map(str::to_owned)
}

/// `run` / `trace`: every workload at full scale, one child at a time.
fn run_set(args: &[String], traced: bool) -> Result<i32, String> {
    let flags = Flags::parse(args, &["seed"])?;
    let seed: u64 = flags.get("seed")?;
    let mut doc = Json::obj([]);
    let mut clean = true;
    for w in &WORKLOADS {
        println!(
            "# {} ({}s simulated, unit {}): {}",
            w.name, w.full_secs, w.unit, w.why
        );
        let plan = Plan {
            seed,
            sim_secs: w.full_secs,
            seconds: 0.0,
            traced,
        };
        let mut lines = spawn_child(w, &plan).unwrap_or_else(|e| {
            eprintln!("afabench: {e}");
            // A child that dies counts every unit as failed.
            vec![Line::num(w.name, ERROR_RATE, 1.0, "fraction")]
        });
        if !traced && seed == PIN_SEED {
            let digest = find_line(&lines, "sim_digest").map(|l| l.value.to_string());
            if let Some(pin) = pinned_digest(w.name) {
                let matches = digest.as_deref() == Some(pin.as_str());
                clean &= matches;
                lines.push(Line::num(
                    w.name,
                    "sim_digest_matches_pin",
                    f64::from(u8::from(matches)),
                    "bool",
                ));
            }
        }
        clean &= find_line(&lines, ERROR_RATE).and_then(Line::as_f64) == Some(0.0);
        let mut entry = Json::obj([]);
        for line in &lines {
            println!("{line}");
            let value = match &line.value {
                Value::Num(v) => Json::f64(*v),
                Value::Text(s) => Json::str(s),
            };
            entry.push(
                &line.metric,
                Json::obj([("value", value), ("unit", Json::str(&line.unit))]),
            );
        }
        doc.push(w.name, entry);
    }
    if !traced {
        let record = Json::obj([
            ("seed", Json::u64(seed)),
            (
                "host",
                Json::obj([
                    (
                        "nproc",
                        Json::u64(
                            std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
                        ),
                    ),
                    (
                        "pinned_cpu",
                        pinned_cpu().map_or(Json::Null, |c| Json::u64(u64::from(c))),
                    ),
                ]),
            ),
            ("workloads", doc),
        ]);
        let path = PathBuf::from(OUT_DIR).join(format!("run-{seed}.json"));
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, format!("{record}\n")))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(if clean { 0 } else { 1 })
}

/// A run record's values: workload → metric → value.
fn load_record(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("workloads")
        .cloned()
        .ok_or_else(|| format!("{path}: not an afabench run record"))
}

fn record_value<'a>(record: &'a Json, workload: &str, metric: &str) -> Option<&'a Json> {
    record.get(workload)?.get(metric)?.get("value")
}

/// `compare`: parent records before `--`, change records after it.
fn compare(args: &[String]) -> Result<i32, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare needs '--' between the parent and change records")?;
    let (parent, change) = (&args[..split], &args[split + 1..]);
    if parent.is_empty() || change.is_empty() {
        return Err("compare needs at least one record on each side".to_owned());
    }
    let load = |paths: &[String]| {
        paths
            .iter()
            .map(|p| load_record(p))
            .collect::<Result<Vec<_>, _>>()
    };
    let (parent, change) = (load(parent)?, load(change)?);
    let mut metrics: Vec<(&str, &str, metrics::Better, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better, m.bound))
        .collect();
    metrics.push((ERROR_RATE, "fraction", metrics::Better::Lower, 0.0));
    for &(metric, unit, better, bound) in &metrics {
        println!(
            "# {metric} ({unit}, {} is better): regression bound {}",
            better.label(),
            if bound == 0.0 {
                "any rise".to_owned()
            } else {
                format!("{:.0}% of the parent median", 100.0 * bound)
            }
        );
    }
    let mut worse = false;
    println!(
        "{:<17} {:<15} {:>28} {:>28} {:>5} verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for w in &WORKLOADS {
        for &(metric, _, better, bound) in &metrics {
            let values = |side: &[Json]| -> Vec<f64> {
                side.iter()
                    .filter_map(|r| record_value(r, w.name, metric).and_then(json::as_f64))
                    .collect()
            };
            let (p, c) = (values(&parent), values(&change));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let cmp = stats::compare(&p, &c, better, bound);
            worse |= cmp.verdict == stats::Verdict::Regressed;
            let fmt = |s: stats::Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            println!(
                "{:<17} {:<15} {:>28} {:>28} {:>4.0}% {}",
                w.name,
                metric,
                fmt(cmp.parent),
                fmt(cmp.change),
                100.0 * cmp.win_fraction,
                cmp.verdict.label()
            );
        }
        let digests = |side: &[Json]| -> Vec<String> {
            let mut d: Vec<String> = side
                .iter()
                .filter_map(|r| record_value(r, w.name, "sim_digest").and_then(json::as_str))
                .map(str::to_owned)
                .collect();
            d.sort();
            d.dedup();
            d
        };
        let (pd, cd) = (digests(&parent), digests(&change));
        if pd != cd {
            worse = true;
            println!(
                "{:<17} sim_digest differs: parent {} / change {}",
                w.name,
                pd.join(","),
                cd.join(",")
            );
        }
    }
    Ok(i32::from(worse))
}
