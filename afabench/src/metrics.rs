//! The benchmark's metric vocabulary: every name, unit, direction and
//! bound lives here, and `BENCHMARK.json` must list the same names
//! (checked by a test).

use std::fmt;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Host-side end-to-end metrics, measured with tracing off.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "host_ns_per_io",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// Failed units ÷ attempted units. Always reported, never allowed to
/// rise: its bound is zero in absolute terms, so it is not one of the
/// share-bounded [`END_TO_END`] metrics.
pub const ERROR_RATE: &str = "error_rate";

/// A per-layer metric and the end-to-end metric it should move.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    // Read by the tests that hold BENCHMARK.json and provenance.json to
    // this table.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    /// Workloads on which a change to this layer should move
    /// `host_ns_per_io` (or, for simulated causes, nothing at all).
    #[cfg_attr(not(test), allow(dead_code))]
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const ARRAYS: &str = "paper-64, ull-poll-8, mixed-qd8-16";
const SERVING: &str = "serve-hedge-16, fleet-failover-8";
const ALL: &str = "all workloads";
const CAUSE: &str = "simulated latency, not host time: must not move in a performance-only change";

/// Per-layer metrics, reported by the traced run. Counts are exact
/// functions of the simulated outputs; `*_ns` figures are host
/// nanoseconds per call measured by replaying the layer's public hot
/// call; `cause.*` figures are simulated microseconds.
pub const PER_LAYER: [PerLayer; 61] = [
    layer(
        "sim.events_per_io",
        "count",
        Lower,
        "paper-64 (7.00), ull-poll-8 (3.21)",
    ),
    layer("sim.queue_ns_per_op", "ns", Lower, "paper-64, ull-poll-8"),
    layer("sim.ns_per_io", "ns", Lower, "paper-64, ull-poll-8"),
    layer(
        "io_path.fused_share",
        "fraction",
        Higher,
        "ull-poll-8 (0.88)",
    ),
    layer(
        "io_path.defused_per_fused",
        "fraction",
        Lower,
        "ull-poll-8 (0.054)",
    ),
    layer("io_path.polled_share", "fraction", Higher, "ull-poll-8"),
    layer("io_path.ledger_ns_per_io", "ns", Lower, ARRAYS),
    layer("io_path.unattributed_ns_per_io", "ns", Lower, ALL),
    layer("host.irqs_per_io", "count", Lower, "paper-64, mixed-qd8-16"),
    layer("host.remote_irq_share", "fraction", Lower, "paper-64"),
    layer(
        "host.wakes_per_io",
        "count",
        Lower,
        "paper-64, mixed-qd8-16",
    ),
    layer("host.bg_preempt_share", "fraction", Lower, "paper-64"),
    layer("host.deliver_irq_ns", "ns", Lower, "paper-64, mixed-qd8-16"),
    layer(
        "host.wake_io_task_ns",
        "ns",
        Lower,
        "paper-64, mixed-qd8-16",
    ),
    layer("host.charge_cpu_ns", "ns", Lower, ALL),
    layer(
        "host.ns_per_io",
        "ns",
        Lower,
        "paper-64, mixed-qd8-16; ~0 IRQ/wake work on ull-poll-8",
    ),
    layer(
        "pcie.commands_per_io",
        "count",
        Lower,
        "paper-64, mixed-qd8-16",
    ),
    layer("pcie.msi_per_io", "count", Lower, "paper-64, mixed-qd8-16"),
    layer("pcie.uplink_bytes_per_io", "B", Lower, "mixed-qd8-16"),
    layer("pcie.submit_ns", "ns", Lower, "paper-64"),
    layer("pcie.complete_ns", "ns", Lower, "paper-64, mixed-qd8-16"),
    layer("pcie.ns_per_io", "ns", Lower, "paper-64, mixed-qd8-16"),
    layer("ssd.cmds_per_io", "count", Lower, "mixed-qd8-16"),
    layer("ssd.write_share", "fraction", Lower, "mixed-qd8-16"),
    layer("ssd.housekeeping_share", "fraction", Lower, "mixed-qd8-16"),
    layer("ssd.retry_share", "fraction", Lower, "mixed-qd8-16"),
    layer("ssd.gc_cycles", "count", Lower, "mixed-qd8-16"),
    layer(
        "ssd.submit_read_ns",
        "ns",
        Lower,
        "mixed-qd8-16, ull-poll-8",
    ),
    layer(
        "ssd.submit_write_ns",
        "ns",
        Lower,
        "mixed-qd8-16 (also peak_rss_mb)",
    ),
    layer("ssd.ns_per_io", "ns", Lower, "mixed-qd8-16, ull-poll-8"),
    layer("stats.histogram_record_ns", "ns", Lower, ALL),
    layer("stats.sketch_record_ns", "ns", Lower, SERVING),
    layer("stats.ns_per_io", "ns", Lower, ALL),
    layer(
        "workload.harvest_ms",
        "ms",
        Lower,
        "setup_s on all workloads",
    ),
    layer("frontend.subs_per_req", "count", Lower, "serve-hedge-16"),
    layer("frontend.hedges_per_req", "count", Lower, "serve-hedge-16"),
    layer(
        "frontend.hedge_win_ratio",
        "fraction",
        Higher,
        "serve-hedge-16",
    ),
    layer("frontend.shed_share", "fraction", Lower, "serve-hedge-16"),
    layer("volume.map_read_ns", "ns", Lower, "serve-hedge-16"),
    layer("frontend.book_ns_per_req", "ns", Lower, SERVING),
    layer("fleet.failovers", "count", Lower, "fleet-failover-8"),
    layer("fleet.retries_per_req", "count", Lower, "fleet-failover-8"),
    layer(
        "fleet.rereplication_ios",
        "count",
        Lower,
        "fleet-failover-8",
    ),
    layer("fleet.stale_drops", "count", Lower, "fleet-failover-8"),
    layer("cause.cpu_work_us_per_io", "sim_us", Lower, CAUSE),
    layer("cause.sched_delay_us_per_io", "sim_us", Lower, CAUSE),
    layer("cause.cstate_exit_us_per_io", "sim_us", Lower, CAUSE),
    layer("cause.ctx_switch_us_per_io", "sim_us", Lower, CAUSE),
    layer("cause.irq_us_per_io", "sim_us", Lower, CAUSE),
    layer("cause.remote_completion_us_per_io", "sim_us", Lower, CAUSE),
    layer("cause.cache_pollution_us_per_io", "sim_us", Lower, CAUSE),
    layer("cause.fabric_us_per_io", "sim_us", Lower, CAUSE),
    layer("cause.network_us_per_io", "sim_us", Lower, CAUSE),
    layer("cause.device_service_us_per_io", "sim_us", Lower, CAUSE),
    layer("cause.device_queueing_us_per_io", "sim_us", Lower, CAUSE),
    layer("cause.housekeeping_us_per_io", "sim_us", Lower, CAUSE),
    layer("cause.gc_us_per_io", "sim_us", Lower, CAUSE),
    layer("cause.frontend_queue_us_per_io", "sim_us", Lower, CAUSE),
    layer("cause.poll_sleep_us_per_io", "sim_us", Lower, CAUSE),
    layer("cause.other_us_per_io", "sim_us", Lower, CAUSE),
    layer(
        "trace.overhead_pct",
        "%",
        Lower,
        "none (cost of tracing itself)",
    ),
];

/// The unit of a [`PER_LAYER`] metric.
///
/// # Panics
///
/// Panics for a name the table does not hold.
pub fn per_layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
        .unit
}

/// A reported value: a number, or text (the digest).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Num(f64),
    Text(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(v) => write!(f, "{v}"),
            Value::Text(s) => f.write_str(s),
        }
    }
}

/// One `<workload> <metric> <value> <unit>` line.
#[derive(Clone, Debug, PartialEq)]
pub struct Line {
    pub workload: String,
    pub metric: String,
    pub value: Value,
    pub unit: String,
}

impl Line {
    pub fn num(workload: &str, metric: &str, value: f64, unit: &str) -> Self {
        Line {
            workload: workload.to_owned(),
            metric: metric.to_owned(),
            value: Value::Num(value),
            unit: unit.to_owned(),
        }
    }

    /// Parses a line printed by [`Line`]'s `Display`; `None` for any
    /// other output.
    pub fn parse(text: &str) -> Option<Line> {
        let mut parts = text.split_whitespace();
        let (workload, metric, value, unit) =
            (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
        if parts.next().is_some() {
            return None;
        }
        let value = match value.parse::<f64>() {
            Ok(v) => Value::Num(v),
            Err(_) => Value::Text(value.to_owned()),
        };
        Some(Line {
            workload: workload.to_owned(),
            metric: metric.to_owned(),
            value,
            unit: unit.to_owned(),
        })
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self.value {
            Value::Num(v) => Some(v),
            Value::Text(_) => None,
        }
    }
}

impl fmt::Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {}",
            self.workload, self.metric, self.value, self.unit
        )
    }
}

#[cfg(test)]
mod tests {
    use afa_stats::Json;

    use super::*;
    use crate::json::{self, as_f64, as_str};
    use crate::workloads::WORKLOADS;

    fn load(file: &str) -> Json {
        let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match doc.get(key) {
            Some(Json::Arr(items)) => items,
            other => panic!("{key} is not a list: {other:?}"),
        }
    }

    fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(as_str)
            .unwrap_or_else(|| panic!("no {key} in {entry}"))
    }

    #[test]
    fn names_in_code_match_benchmark_json() {
        let doc = load("../BENCHMARK.json");
        let workloads: Vec<(&str, &str)> = list(&doc, "workloads")
            .iter()
            .map(|e| (text(e, "name"), text(e, "why")))
            .collect();
        let expected: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, expected);

        let e2e = list(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(entry, "name"), m.name);
            assert_eq!(text(entry, "unit"), m.unit);
            assert_eq!(text(entry, "better"), m.better.label());
            assert_eq!(entry.get("bound").and_then(as_f64), Some(m.bound));
        }

        let layers = list(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(entry, "name"), m.name);
            assert_eq!(text(entry, "unit"), m.unit);
            assert_eq!(text(entry, "better"), m.better.label());
        }
    }

    #[test]
    fn names_and_units_are_well_formed() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(name_ok(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(unit), "{unit}");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= setup.bound && m.bound <= 0.25));
    }

    #[test]
    fn provenance_records_every_workload_and_metric() {
        let doc = load("provenance.json");
        let workloads = list(&doc, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(entry, "name"), w.name);
            assert_eq!(text(entry, "unit"), w.unit);
            assert_eq!(text(entry, "why"), w.why);
            let pin = entry.get("pin").expect("pin");
            assert!(pin.get("units").and_then(as_f64).is_some_and(|u| u > 0.0));
            assert!(text(pin, "sim_digest").starts_with("0x"));
        }
        let layers = list(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(entry, "name"), m.name);
            assert_eq!(text(entry, "moves"), m.moves);
        }
        let baseline = doc
            .get("baseline")
            .and_then(|b| b.get("workloads"))
            .expect("baseline");
        for w in &WORKLOADS {
            for m in &END_TO_END {
                let stat = baseline
                    .get(w.name)
                    .and_then(|b| b.get(m.name))
                    .expect("baseline entry");
                for key in ["median", "q1", "q3"] {
                    assert!(
                        stat.get(key).and_then(as_f64).is_some(),
                        "{} {} {key}",
                        w.name,
                        m.name
                    );
                }
            }
        }
    }
}
