//! The experiment registry: every figure, table and ablation of the
//! reproduction as a first-class, named, runnable object.
//!
//! Three layers:
//!
//! * [`ExperimentResult`] — what every experiment returns: a paper
//!   table ([`ExperimentResult::to_table`]), a plotting CSV
//!   ([`ExperimentResult::to_csv`]) and a machine-readable JSON
//!   document ([`ExperimentResult::to_json`]).
//! * [`ExperimentDef`] — a named, described runner. The static
//!   [`registry`] lists one per artifact; [`find`] resolves a name.
//! * [`run_experiment`] — runs a definition at an [`ExperimentScale`]
//!   and wraps the result with a [`RunManifest`]: seed, scale, stage,
//!   wall-clock, sample count, the run's own simulation counters and
//!   its per-[`Cause`] latency budget, the sum of the ledgers the run
//!   itself settled.
//!
//! Everything in the JSON artifact is a pure function of
//! `(experiment, scale)` — host wall-clock is carried in the manifest
//! struct and rendered in tables, but serialized as `null` so two runs
//! with the same seed emit byte-identical JSON. The manifest's counters
//! and budget come from an [`afa_sim::metrics::capture`] around the
//! experiment, so runs sharing a process (threads, a test binary)
//! cannot leak into each other's artifacts.

use std::time::Duration;
use std::time::Instant;

use afa_sim::metrics::{self, Counters};
use afa_sim::trace::Cause;
use afa_sim::SimDuration;
use afa_stats::Json;

use crate::experiment::{self, ExperimentScale};
use crate::tuning::TuningStage;

/// Uniform interface over every experiment's result object.
pub trait ExperimentResult {
    /// Paper-style human-readable table.
    fn to_table(&self) -> String;
    /// CSV for plotting.
    fn to_csv(&self) -> String;
    /// Machine-readable JSON document. Must be a pure function of the
    /// experiment inputs (no wall-clock, no host state) so same-seed
    /// runs serialize byte-identically.
    fn to_json(&self) -> Json;
    /// Latency samples behind the result (0 when the experiment has no
    /// per-I/O sample notion).
    fn samples(&self) -> u64 {
        0
    }
    /// Headline worst-case latency in µs, when the experiment has one.
    fn headline_max_us(&self) -> Option<f64> {
        None
    }
}

/// A registry entry: a name, a description and a runner fn.
#[derive(Clone, Copy)]
pub struct ExperimentDef {
    /// Registry name (`afactl exp <name>`).
    pub name: &'static str,
    /// One-line description (`afactl list`).
    pub description: &'static str,
    /// The single tuning stage the experiment runs at, if any.
    pub stage: Option<TuningStage>,
    runner: fn(ExperimentScale) -> Box<dyn ExperimentResult>,
}

impl ExperimentDef {
    /// Runs the experiment (without a manifest; see [`run_experiment`]).
    pub fn run(&self, scale: ExperimentScale) -> Box<dyn ExperimentResult> {
        (self.runner)(scale)
    }
}

static REGISTRY: [ExperimentDef; 33] = [
    ExperimentDef {
        name: "fig06",
        description: "Fig. 6: per-SSD latency distributions, default configuration",
        stage: Some(TuningStage::Default),
        runner: |s| Box::new(experiment::fig6(s)),
    },
    ExperimentDef {
        name: "fig07",
        description: "Fig. 7: + fio under chrt -f 99",
        stage: Some(TuningStage::Chrt),
        runner: |s| Box::new(experiment::fig7(s)),
    },
    ExperimentDef {
        name: "fig08",
        description: "Fig. 8: + isolcpus/nohz_full/rcu_nocbs/idle=poll",
        stage: Some(TuningStage::Isolcpus),
        runner: |s| Box::new(experiment::fig8(s)),
    },
    ExperimentDef {
        name: "fig09",
        description: "Fig. 9: + all NVMe vectors pinned to designated CPUs",
        stage: Some(TuningStage::IrqAffinity),
        runner: |s| Box::new(experiment::fig9(s)),
    },
    ExperimentDef {
        name: "fig10",
        description: "Fig. 10: per-sample latency scatter, SMART spikes visible",
        stage: Some(TuningStage::IrqAffinity),
        runner: |s| Box::new(experiment::fig10(s)),
    },
    ExperimentDef {
        name: "fig11",
        description: "Fig. 11: + experimental firmware (SMART disabled)",
        stage: Some(TuningStage::ExperimentalFirmware),
        runner: |s| Box::new(experiment::fig11(s)),
    },
    ExperimentDef {
        name: "fig12",
        description: "Fig. 12: the four kernel configurations side by side",
        stage: None,
        runner: |s| Box::new(experiment::fig12(s)),
    },
    ExperimentDef {
        name: "fig13",
        description: "Fig. 13: latency vs. SSDs per physical core (Table II sweep)",
        stage: Some(TuningStage::IrqAffinity),
        runner: |s| Box::new(experiment::fig13(s)),
    },
    ExperimentDef {
        name: "fig14",
        description: "Fig. 14: mean/std aggregation of the Fig. 13 sweep",
        stage: Some(TuningStage::IrqAffinity),
        runner: |s| {
            Box::new(experiment::Fig14Result {
                summaries: experiment::fig14(s),
            })
        },
    },
    ExperimentDef {
        name: "table1",
        description: "Table I: device model, rated vs. measured",
        stage: None,
        runner: |s| Box::new(experiment::table1(s.seed)),
    },
    ExperimentDef {
        name: "table2",
        description: "Table II: the Fig. 13 run matrix, derived from the geometry",
        stage: None,
        runner: |_| Box::new(experiment::table2_matrix()),
    },
    ExperimentDef {
        name: "ablate-tick",
        description: "Ablation: timer-tick rate vs. CFS wake-up tail",
        stage: Some(TuningStage::Default),
        runner: |s| Box::new(experiment::ablate_tick(s)),
    },
    ExperimentDef {
        name: "ablate-cstate",
        description: "Ablation: idle C-state policy vs. latency",
        stage: Some(TuningStage::Chrt),
        runner: |s| Box::new(experiment::ablate_cstate(s)),
    },
    ExperimentDef {
        name: "ablate-smart-period",
        description: "Ablation: SMART housekeeping protocol sweep",
        stage: Some(TuningStage::IrqAffinity),
        runner: |s| Box::new(experiment::ablate_smart_period(s)),
    },
    ExperimentDef {
        name: "ablate-poll",
        description: "Ablation: interrupt vs. polling completions",
        stage: Some(TuningStage::IrqAffinity),
        runner: |s| Box::new(experiment::ablate_poll(s)),
    },
    ExperimentDef {
        name: "ablate-coalescing",
        description: "Ablation: NVMe interrupt coalescing at QD4",
        stage: Some(TuningStage::ExperimentalFirmware),
        runner: |s| Box::new(experiment::ablate_coalescing(s)),
    },
    ExperimentDef {
        name: "ablate-rcu",
        description: "Ablation: rcu_nocbs callback offloading",
        stage: Some(TuningStage::IrqAffinity),
        runner: |s| Box::new(experiment::ablate_rcu(s)),
    },
    ExperimentDef {
        name: "ablate-numa",
        description: "Ablation: NUMA placement of fio threads",
        stage: Some(TuningStage::IrqAffinity),
        runner: |s| Box::new(experiment::ablate_numa(s)),
    },
    ExperimentDef {
        name: "ablate-gc",
        description: "Ablation: FOB vs. aged device (GC interference)",
        stage: None,
        runner: |s| Box::new(experiment::ablate_gc(s.seed)),
    },
    ExperimentDef {
        name: "rootcause",
        description: "Per-cause latency budget across the whole tuning ladder",
        stage: None,
        runner: |s| Box::new(experiment::root_cause_ladder(s)),
    },
    ExperimentDef {
        name: "tailscale",
        description: "Tail at scale: client latency over a striped volume",
        stage: None,
        runner: |s| Box::new(experiment::tail_at_scale(s)),
    },
    ExperimentDef {
        name: "tailscale-fanout",
        description: "Tail at scale, request level: open-loop serving, fan-out sweep per stage",
        stage: None,
        runner: |s| Box::new(experiment::tailscale_fanout(s)),
    },
    ExperimentDef {
        name: "tailscale-hedge",
        description: "Tail at scale, request level: hedged reads on/off, mixed load, tuned kernel",
        stage: Some(TuningStage::IrqAffinity),
        runner: |s| Box::new(experiment::tailscale_hedge(s)),
    },
    ExperimentDef {
        name: "fleet-arrival",
        description: "Serving fleet: tenant ladder at fixed rate, sketched tails, slab book",
        stage: Some(TuningStage::IrqAffinity),
        runner: |s| Box::new(experiment::fleet_arrival(s)),
    },
    ExperimentDef {
        name: "fleet-failover",
        description:
            "Replicated fleet: kill one array at t=50%, failover + re-replication, per stage",
        stage: None,
        runner: |s| Box::new(experiment::fleet_failover(s)),
    },
    ExperimentDef {
        name: "fleet-replication",
        description: "Replicated fleet: R x read-policy grid, write tax vs hedged-read tail win",
        stage: Some(TuningStage::IrqAffinity),
        runner: |s| Box::new(experiment::fleet_replication(s)),
    },
    ExperimentDef {
        name: "saturation",
        description: "Uplink saturation: sequential vs. QD1 random throughput",
        stage: Some(TuningStage::IrqAffinity),
        runner: |s| Box::new(experiment::uplink_saturation(s)),
    },
    ExperimentDef {
        name: "pts",
        description: "SNIA PTS-E style steady-state random-write rounds",
        stage: None,
        runner: |s| Box::new(experiment::pts_random_write(s.seed, 30)),
    },
    ExperimentDef {
        name: "qdsweep",
        description: "Queue-depth sweep: the device's latency/IOPS knee",
        stage: None,
        runner: |s| Box::new(experiment::qd_sweep(s.seed)),
    },
    ExperimentDef {
        name: "multihost",
        description: "Multi-host enclosure isolation across the shared fabric",
        stage: None,
        runner: |s| Box::new(experiment::multi_host_isolation(s)),
    },
    ExperimentDef {
        name: "futurework",
        description: "Future-work prototypes vs. the paper's manual tuning",
        stage: None,
        runner: |s| Box::new(experiment::future_schedulers(s)),
    },
    ExperimentDef {
        name: "ull-crossover",
        description: "Completion model x tuning ladder on Table-I vs. ultra-low-latency devices",
        stage: None,
        runner: |s| Box::new(experiment::ull_crossover(s)),
    },
    ExperimentDef {
        name: "blktrace",
        description: "blktrace-style per-I/O stage timestamps, slowest sample",
        stage: Some(TuningStage::IrqAffinity),
        runner: |s| Box::new(experiment::io_trace(s)),
    },
];

/// All registered experiments, in presentation order.
pub fn registry() -> &'static [ExperimentDef] {
    &REGISTRY
}

/// Resolves a registry name.
pub fn find(name: &str) -> Option<&'static ExperimentDef> {
    REGISTRY.iter().find(|def| def.name == name)
}

/// Provenance of one experiment run.
#[derive(Clone, Debug)]
pub struct RunManifest {
    /// Registry name of the experiment.
    pub experiment: &'static str,
    /// The scale the experiment ran at.
    pub scale: ExperimentScale,
    /// The experiment's single tuning stage, if it has one.
    pub stage: Option<TuningStage>,
    /// Latency samples behind the result.
    pub samples: u64,
    /// Host wall-clock time of the run. Rendered in tables only —
    /// serialized as `null` so same-seed JSON is byte-identical.
    pub wall: Duration,
    /// DES throughput (`counters.events / wall`). Table-only: like the
    /// fusion counters, the event count changes with fusion, and the
    /// JSON artifact must stay identical with fusion on or off.
    pub events_per_sec: f64,
    /// Everything the experiment flushed; `causes` is its latency
    /// budget, summed over its cells. The JSON always carries the
    /// clamped past-time schedules (non-zero is a red flag worth
    /// failing CI over) and otherwise only deterministic parts that moved.
    pub counters: Counters,
}

impl RunManifest {
    /// Renders the manifest for humans (includes wall-clock).
    pub fn to_table(&self) -> String {
        let c = &self.counters;
        let mut out = format!("run manifest — {}\n", self.experiment);
        out.push_str(&format!(
            "scale   : {:.3}s per job, {} SSDs, seed {}\n",
            self.scale.runtime.as_secs_f64(),
            self.scale.ssds,
            self.scale.seed
        ));
        out.push_str(&format!(
            "stage   : {}\n",
            self.stage.map_or("(multi)", TuningStage::label)
        ));
        out.push_str(&format!("samples : {}\n", self.samples));
        out.push_str(&format!("wall    : {:.2}s", self.wall.as_secs_f64()));
        if self.samples > 0 {
            let ns_per_sample = self.wall.as_nanos() as f64 / self.samples as f64;
            out.push_str(&format!(" ({ns_per_sample:.0} host ns/sample)"));
        }
        out.push('\n');
        out.push_str(&format!(
            "events  : {} ({:.0} events/sec)\n",
            c.events, self.events_per_sec
        ));
        out.push_str(&format!(
            "clamped : {} past-time schedules\n",
            c.clamped_past
        ));
        if c.frontend.any() {
            out.push_str(&format!(
                "frontend: {} admitted, {} shed, {} hedges fired, {} won\n",
                c.frontend.requests_admitted,
                c.frontend.requests_shed,
                c.frontend.hedges_fired,
                c.frontend.hedges_won
            ));
            if c.frontend.slab_peak_live > 0 || c.frontend.sketch_merges > 0 {
                out.push_str(&format!(
                    "serving : {} peak live slab slots, {} sketch merges\n",
                    c.frontend.slab_peak_live, c.frontend.sketch_merges
                ));
            }
        }
        if c.fleet.any() {
            out.push_str(&format!(
                "fleet   : {} arrays failed, {} failovers, {} retries, {} re-replication I/Os\n",
                c.fleet.arrays_failed,
                c.fleet.failovers,
                c.fleet.retries,
                c.fleet.rereplication_ios
            ));
        }
        if c.completion.any() {
            out.push_str(&format!(
                "reaps   : {} interrupt, {} polled ({} hybrid oversleeps)\n",
                c.completion.interrupts, c.completion.polls, c.completion.hybrid_sleeps
            ));
        }
        if c.fusion.any() {
            out.push_str(&format!(
                "fusion  : {} chains fused, {} defused, {} events elided\n",
                c.fusion.fused_chains, c.fusion.defused_chains, c.fusion.elided_events
            ));
        }
        if c.causes.iter().next().is_some() {
            out.push_str("latency budget (the ledgers this run settled):\n");
            out.push_str(&format!(
                "  {:<20} {:>12} {:>12}\n",
                "cause", "total(ms)", "events"
            ));
            for (cause, total, events) in c.causes.iter() {
                out.push_str(&format!(
                    "  {:<20} {:>12.2} {:>12}\n",
                    cause.label(),
                    total.as_micros_f64() / 1_000.0,
                    events
                ));
            }
        }
        out
    }

    /// Serializes the manifest. `wall_ms` is always `null`: wall-clock
    /// is the one non-deterministic field, and the JSON artifact must
    /// be byte-identical across same-seed runs.
    pub fn to_json(&self) -> Json {
        let c = &self.counters;
        let mut doc = Json::obj([
            ("experiment", Json::str(self.experiment)),
            ("seed", Json::u64(self.scale.seed)),
            (
                "scale",
                Json::obj([
                    (
                        "runtime_ms",
                        Json::f64(self.scale.runtime.as_secs_f64() * 1e3),
                    ),
                    ("ssds", Json::u64(self.scale.ssds as u64)),
                ]),
            ),
            ("stage", stage_json(self.stage)),
            ("samples", Json::u64(self.samples)),
            ("clamped_past_schedules", Json::u64(c.clamped_past)),
            ("wall_ms", Json::Null),
        ]);
        // A run that settles no ledger has nothing to attribute.
        if c.causes.iter().next().is_some() {
            let total: SimDuration = c.causes.iter().map(|(_, d, _)| d).sum();
            let causes = Json::arr(c.causes.iter().map(|(cause, total, events)| {
                Json::obj([
                    ("cause", Json::str(cause.label())),
                    ("total_us", Json::f64(total.as_micros_f64())),
                    ("events", Json::u64(events)),
                ])
            }));
            doc.push(
                "budget",
                Json::obj([
                    ("total_us", Json::f64(total.as_micros_f64())),
                    ("causes", causes),
                ]),
            );
        }
        // Conditional so experiments that never touch the serving
        // layer keep their pre-frontend byte-identical artifacts.
        if c.frontend.any() {
            let mut fe = Json::obj([
                ("requests_admitted", Json::u64(c.frontend.requests_admitted)),
                ("requests_shed", Json::u64(c.frontend.requests_shed)),
                ("hedges_fired", Json::u64(c.frontend.hedges_fired)),
                ("hedges_won", Json::u64(c.frontend.hedges_won)),
            ]);
            // Per-field conditional: the fleet experiment's slab/sketch
            // counters appear only when they moved, so the tailscale
            // artifacts keep their original four-key object.
            if c.frontend.slab_peak_live > 0 {
                fe.push("slab_peak_live", Json::u64(c.frontend.slab_peak_live));
            }
            if c.frontend.sketch_merges > 0 {
                fe.push("sketch_merges", Json::u64(c.frontend.sketch_merges));
            }
            doc.push("frontend", fe);
        }
        // Gated on any_polled(), not any(): every interrupt-only
        // golden predates this key and must keep its exact bytes.
        if c.completion.any_polled() {
            let mut cm = Json::obj([
                ("interrupts", Json::u64(c.completion.interrupts)),
                ("polls", Json::u64(c.completion.polls)),
            ]);
            if c.completion.hybrid_sleeps > 0 {
                cm.push("hybrid_sleeps", Json::u64(c.completion.hybrid_sleeps));
            }
            doc.push("completion", cm);
        }
        // Only fleet experiments move these counters; everything else
        // keeps its pre-fleet artifact bytes.
        if c.fleet.any() {
            doc.push(
                "fleet",
                Json::obj([
                    ("arrays_failed", Json::u64(c.fleet.arrays_failed)),
                    ("failovers", Json::u64(c.fleet.failovers)),
                    ("retries", Json::u64(c.fleet.retries)),
                    ("rereplication_ios", Json::u64(c.fleet.rereplication_ios)),
                ]),
            );
        }
        // `fusion` is deliberately absent: its counters depend on
        // whether the fast path engaged, and the artifact must be
        // byte-identical with fusion on or off.
        doc
    }
}

fn stage_json(stage: Option<TuningStage>) -> Json {
    stage.map_or(Json::Null, |s| Json::str(s.label()))
}

/// One experiment run: the result plus its provenance manifest.
pub struct ExperimentRun {
    /// Provenance: seed, scale, wall-clock, latency budget.
    pub manifest: RunManifest,
    /// The experiment's result object.
    pub result: Box<dyn ExperimentResult>,
}

impl ExperimentRun {
    /// The full JSON artifact: manifest + data. Byte-identical across
    /// runs with the same `(experiment, scale)`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("manifest", self.manifest.to_json()),
            ("data", self.result.to_json()),
        ])
    }
}

/// Runs `def` at `scale` and attaches a [`RunManifest`].
///
/// The manifest's counters and latency budget are what the experiment
/// [`flush`](afa_sim::metrics::flush)ed, on this thread and on the
/// pool workers it fanned out to; they are passed on to the enclosing
/// capture (or the process totals) afterwards. The budget is the cause
/// table of the ledgers the experiment itself settled, so nothing runs
/// besides the experiment.
pub fn run_experiment(def: &ExperimentDef, scale: ExperimentScale) -> ExperimentRun {
    let t0 = Instant::now();
    let (result, run) = metrics::capture(|| def.run(scale));
    let wall = t0.elapsed();
    let events_per_sec = run.events as f64 / wall.as_secs_f64().max(1e-9);
    metrics::flush(run);

    ExperimentRun {
        manifest: RunManifest {
            experiment: def.name,
            scale,
            stage: def.stage,
            samples: result.samples(),
            wall,
            events_per_sec,
            counters: run,
        },
        result,
    }
}

/// Convenience: JSON rows for a per-cause budget (used by result
/// serializers that carry their own [`Cause`] tables).
pub fn cause_rows_json(rows: &[(Cause, f64, u64, f64)]) -> Json {
    Json::arr(rows.iter().map(|&(cause, total_us, events, per_io)| {
        Json::obj([
            ("cause", Json::str(cause.label())),
            ("total_us", Json::f64(total_us)),
            ("events", Json::u64(events)),
            ("us_per_io", Json::f64(per_io)),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use afa_sim::trace::CauseAccumulator;

    #[test]
    fn registry_has_at_least_twenty_unique_names() {
        let names: Vec<&str> = registry().iter().map(|d| d.name).collect();
        assert!(names.len() >= 20, "only {} experiments", names.len());
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate registry names");
    }

    #[test]
    fn find_resolves_known_names_and_rejects_unknown() {
        assert_eq!(find("fig12").unwrap().name, "fig12");
        assert!(find("fig12").unwrap().stage.is_none());
        assert_eq!(find("fig06").unwrap().stage, Some(TuningStage::Default));
        assert!(find("no-such-experiment").is_none());
    }

    #[test]
    fn descriptions_are_nonempty_and_single_line() {
        for def in registry() {
            assert!(!def.description.is_empty(), "{} undescribed", def.name);
            assert!(
                !def.description.contains('\n'),
                "{} description spans lines",
                def.name
            );
        }
    }

    #[test]
    fn manifest_json_has_null_wall_clock() {
        let def = find("table2").expect("table2 registered");
        let run = run_experiment(def, ExperimentScale::quick());
        let manifest = run.manifest.to_json();
        let rendered = manifest.to_string();
        assert!(rendered.contains("\"wall_ms\":null"), "{rendered}");
        assert!(rendered.contains("\"experiment\":\"table2\""));
        // table2 simulates nothing, so it has no latency to attribute.
        assert!(!rendered.contains("\"budget\""), "{rendered}");
    }

    #[test]
    fn runs_without_ledgers_carry_no_budget() {
        let scale = ExperimentScale::new(SimDuration::millis(40), 4, 3);
        for name in ["table2", "multihost", "fleet-arrival", "tailscale"] {
            let run = run_experiment(find(name).expect("registered"), scale);
            let rendered = run.manifest.to_json().to_string();
            assert!(!rendered.contains("\"budget\""), "{name}: {rendered}");
            assert!(!run.manifest.to_table().contains("latency budget"));
        }
    }

    /// The budget is the run's own cause table: for fig06 the one
    /// `AfaSystem::run` hands back with attribution on, for
    /// tailscale-hedge the sum of its cells' tables.
    #[test]
    fn budget_is_the_runs_own_cause_table() {
        let scale = ExperimentScale::quick();
        let fig = run_experiment(find("fig06").expect("registered"), scale);
        let config = crate::AfaConfig::paper(TuningStage::Default)
            .with_ssds(scale.ssds)
            .with_runtime(scale.runtime)
            .with_seed(scale.seed)
            .with_cause_attribution(true);
        assert_eq!(
            Some(fig.manifest.counters.causes),
            crate::AfaSystem::run(&config).causes
        );
        assert!(fig.manifest.to_table().contains("latency budget"));

        let scale = ExperimentScale::new(SimDuration::millis(60), 4, 11);
        let hedge = run_experiment(find("tailscale-hedge").expect("registered"), scale);
        let mut cells = CauseAccumulator::new();
        for (cause, d) in experiment::tailscale_hedge(scale)
            .cells
            .iter()
            .flat_map(|c| &c.causes)
        {
            cells.add(*cause, *d, 0);
        }
        for cause in Cause::ALL {
            assert_eq!(
                hedge.manifest.counters.causes.total(cause),
                cells.total(cause),
                "{cause}"
            );
        }
        assert!(cells.total(Cause::FrontendQueue) > SimDuration::ZERO);
    }

    #[test]
    fn clamped_schedules_are_zero_and_serialized() {
        let def = find("fig06").expect("fig06 registered");
        let run = run_experiment(def, ExperimentScale::quick());
        assert_eq!(
            run.manifest.counters.clamped_past, 0,
            "model scheduled into the past"
        );
        let rendered = run.manifest.to_json().to_string();
        assert!(
            rendered.contains("\"clamped_past_schedules\":0"),
            "{rendered}"
        );
        assert!(run.manifest.to_table().contains("clamped : 0"));
    }

    #[test]
    fn frontend_counters_reach_the_manifest() {
        let def = find("tailscale-hedge").expect("tailscale-hedge registered");
        let run = run_experiment(def, ExperimentScale::new(SimDuration::millis(60), 4, 11));
        assert!(
            run.manifest.counters.frontend.any(),
            "serving layer must flush counters"
        );
        assert!(run.manifest.counters.frontend.requests_admitted > 0);
        let rendered = run.manifest.to_json().to_string();
        assert!(
            rendered.contains("\"frontend\":{\"requests_admitted\":"),
            "{rendered}"
        );
        assert!(run.manifest.to_table().contains("frontend: "));
    }

    #[test]
    fn fleet_counters_reach_the_manifest_only_for_fleet_runs() {
        let def = find("fleet-failover").expect("fleet-failover registered");
        let run = run_experiment(def, ExperimentScale::new(SimDuration::millis(60), 6, 11));
        assert!(
            run.manifest.counters.fleet.any(),
            "fleet layer must flush fault counters"
        );
        assert_eq!(
            run.manifest.counters.fleet.arrays_failed,
            TuningStage::ALL.len() as u64,
            "one kill per stage cell"
        );
        let rendered = run.manifest.to_json().to_string();
        assert!(
            rendered.contains("\"fleet\":{\"arrays_failed\":"),
            "{rendered}"
        );
        assert!(run.manifest.to_table().contains("fleet   : "));
        // The fleet's request ledgers charge network time.
        assert!(run.manifest.counters.causes.total(Cause::Network) > SimDuration::ZERO);
        // Secondary-array work is stitched into the completion totals
        // even though the manifest omits the interrupt-only key.
        assert!(run.manifest.counters.completion.interrupts > 0);

        // A non-fleet experiment must not grow the key.
        let fig = find("fig06").expect("fig06 registered");
        let fig_run = run_experiment(fig, ExperimentScale::quick());
        assert!(!fig_run.manifest.counters.fleet.any());
        let fig_json = fig_run.manifest.to_json().to_string();
        assert!(!fig_json.contains("\"fleet\""), "{fig_json}");
    }

    #[test]
    fn events_per_sec_is_table_only() {
        // fig06 actually drives a simulation, so the event count must
        // be non-zero; the JSON schema must not grow a key for it.
        let def = find("fig06").expect("fig06 registered");
        let run = run_experiment(def, ExperimentScale::quick());
        assert!(
            run.manifest.counters.events > 0,
            "no events counted for a simulation-backed experiment"
        );
        assert!(run.manifest.events_per_sec > 0.0);
        let table = run.manifest.to_table();
        assert!(table.contains("events/sec"), "{table}");
        assert!(table.contains("host ns/sample"), "{table}");
        let rendered = run.manifest.to_json().to_string();
        assert!(
            !rendered.contains("events_per_sec") && !rendered.contains("events_processed"),
            "throughput leaked into the byte-stable artifact: {rendered}"
        );
    }

    #[test]
    fn fusion_counters_are_table_only() {
        // ablate-poll's busy-polled half at quick scale runs one job
        // per LP, so the fusion fast path must engage — and its
        // counters must stay out of the byte-stable JSON, because the
        // fusion contract is that artifacts are identical with fusion
        // on or off (a `fusion` key would differ between the two).
        let def = find("ablate-poll").expect("ablate-poll registered");
        let run = run_experiment(def, ExperimentScale::quick());
        assert!(
            run.manifest.counters.fusion.fused_chains > 0,
            "fusion never engaged on a polled QD1 run"
        );
        assert!(
            run.manifest.counters.fusion.elided_events > 0,
            "fused chains must elide per-stage events"
        );
        let table = run.manifest.to_table();
        assert!(table.contains("fusion  :"), "{table}");
        let rendered = run.manifest.to_json().to_string();
        assert!(
            !rendered.contains("fused_chains")
                && !rendered.contains("defused_chains")
                && !rendered.contains("elided_events"),
            "fusion counters leaked into the byte-stable artifact: {rendered}"
        );
    }
}
