//! `afactl` — command-line driver for the AFA latency laboratory.
//!
//! ```text
//! afactl list
//! afactl exp <name> [--ssds N] [--seconds F] [--seed N] [--json] [--out DIR]
//! afactl run     [--ssds N] [--stage S] [--seconds F] [--seed N] [--engine E]
//! afactl ladder  [--ssds N] [--seconds F] [--seed N]
//! afactl profile [--ssds N] [--seconds F] [--seed N] [--sigmas F]
//! afactl causes  [--ssds N] [--stage S] [--seconds F] [--seed N]
//! afactl jobfile <path> [--stage S] [--seed N]
//! ```
//!
//! `list` prints the experiment registry; `exp` runs one registered
//! experiment and prints its table plus run manifest (`--json` emits
//! the machine-readable artifact on stdout instead; `--out DIR` writes
//! `<name>.{txt,csv,json}` under `DIR`).
//!
//! Stages: `default`, `chrt`, `isolcpus`, `irq`, `exp-firmware`.
//! Engines: `libaio`, `sync`, `polling`.

use std::process::ExitCode;

use afa::core::experiment::{self, root_cause, ExperimentResult, ExperimentScale};
use afa::core::profiler::ParallelProfiler;
use afa::core::{AfaConfig, AfaSystem, TuningStage};
use afa::sim::SimDuration;
use afa::stats::NinesPoint;
use afa::workload::IoEngine;

/// Parsed command-line options.
struct Options {
    ssds: usize,
    stage: TuningStage,
    seconds: f64,
    seed: u64,
    engine: IoEngine,
    sigmas: f64,
    json: bool,
    out: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            ssds: 8,
            stage: TuningStage::IrqAffinity,
            seconds: 1.0,
            seed: 42,
            engine: IoEngine::Libaio,
            sigmas: 3.0,
            json: false,
            out: None,
        }
    }
}

fn parse_stage(s: &str) -> Option<TuningStage> {
    TuningStage::ALL.into_iter().find(|t| t.label() == s)
}

fn parse_engine(s: &str) -> Option<IoEngine> {
    match s {
        "libaio" => Some(IoEngine::Libaio),
        "sync" => Some(IoEngine::Sync),
        "polling" => Some(IoEngine::Polling),
        _ => None,
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--ssds" => {
                opts.ssds = value()?.parse().map_err(|e| format!("--ssds: {e}"))?;
                if !(1..=64).contains(&opts.ssds) {
                    return Err("--ssds must be 1..=64".into());
                }
            }
            "--stage" => {
                let v = value()?;
                opts.stage = parse_stage(v).ok_or_else(|| format!("unknown stage '{v}'"))?;
            }
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.01..=600.0).contains(&opts.seconds) {
                    return Err("--seconds must be 0.01..=600".into());
                }
            }
            "--seed" => {
                opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--engine" => {
                let v = value()?;
                opts.engine = parse_engine(v).ok_or_else(|| format!("unknown engine '{v}'"))?;
            }
            "--sigmas" => {
                opts.sigmas = value()?.parse().map_err(|e| format!("--sigmas: {e}"))?;
                if !(opts.sigmas.is_finite() && opts.sigmas > 0.0) {
                    return Err("--sigmas must be finite and > 0".into());
                }
            }
            "--json" => opts.json = true,
            "--out" => opts.out = Some(value()?.clone()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(opts)
}

fn usage() {
    eprintln!(
        "usage: afactl <list|exp <name>|run|ladder|profile|causes|jobfile <path>> [options]\n\
         options: --ssds N --stage <default|chrt|isolcpus|irq|exp-firmware>\n\
         \x20        --seconds F --seed N --engine <libaio|sync|polling> --sigmas F\n\
         \x20        --json --out DIR  (exp only)"
    );
}

fn config(opts: &Options) -> AfaConfig {
    AfaConfig::paper(opts.stage)
        .with_ssds(opts.ssds)
        .with_runtime(SimDuration::from_secs_f64(opts.seconds))
        .with_seed(opts.seed)
        .with_engine(opts.engine)
}

fn cmd_run(opts: &Options) {
    let config = config(opts);
    let result = AfaSystem::run(&config);
    for (d, report) in result.reports.iter().enumerate() {
        println!("{}", report.to_fio_style(&format!("nvme{d}")));
    }
    println!(
        "aggregate: {:.0} IOPS, {:.2} GB/s, {} interrupts ({} remote)",
        result.aggregate_iops(config.runtime),
        result.aggregate_gbps(config.runtime),
        result.host.stats().irqs,
        result.host.stats().remote_irqs
    );
}

fn cmd_ladder(opts: &Options) {
    println!(
        "{:<14} {:>10} {:>12} {:>10}",
        "stage", "avg(us)", "p99.999(us)", "max(us)"
    );
    for stage in TuningStage::ALL {
        let config = AfaConfig::paper(stage)
            .with_ssds(opts.ssds)
            .with_runtime(SimDuration::from_secs_f64(opts.seconds))
            .with_seed(opts.seed);
        let result = AfaSystem::run(&config);
        let mut avg = 0.0;
        let mut p5 = 0.0f64;
        let mut max = 0.0f64;
        for report in &result.reports {
            let p = report.profile();
            avg += p.get_micros(NinesPoint::Average);
            p5 = p5.max(p.get_micros(NinesPoint::Nines5));
            max = max.max(p.get_micros(NinesPoint::Max));
        }
        avg /= result.reports.len() as f64;
        println!("{:<14} {avg:>10.1} {p5:>12.1} {max:>10.1}", stage.label());
    }
}

fn cmd_profile(opts: &Options) {
    let batch = ParallelProfiler::new(
        opts.ssds,
        SimDuration::from_secs_f64(opts.seconds),
        opts.seed,
    )
    .threshold_sigmas(opts.sigmas)
    .run();
    println!("{}", batch.to_table());
    println!("outliers: {:?}", batch.outliers());
}

fn cmd_causes(opts: &Options) {
    let scale = ExperimentScale::new(
        SimDuration::from_secs_f64(opts.seconds),
        opts.ssds,
        opts.seed,
    );
    println!("{}", root_cause(opts.stage, scale).to_table());
}

fn cmd_list() {
    println!("{:<20} {:<12} description", "name", "stage");
    for def in experiment::registry() {
        println!(
            "{:<20} {:<12} {}",
            def.name,
            def.stage.map_or("(multi)", afa::core::TuningStage::label),
            def.description
        );
    }
}

fn cmd_exp(name: &str, opts: &Options) -> ExitCode {
    let Some(def) = experiment::find(name) else {
        eprintln!("afactl: unknown experiment '{name}' (see `afactl list`)");
        return ExitCode::FAILURE;
    };
    let scale = ExperimentScale::new(
        SimDuration::from_secs_f64(opts.seconds),
        opts.ssds,
        opts.seed,
    );
    let run = experiment::run_experiment(def, scale);
    if opts.json {
        println!("{}", run.to_json());
    } else {
        println!("{}", run.result.to_table());
        println!("{}", run.manifest.to_table());
    }
    // Wall-clock goes to stderr so `--json` stdout stays a pure,
    // reproducible artifact.
    eprintln!("wall: {:.2}s", run.manifest.wall.as_secs_f64());
    if let Some(out) = &opts.out {
        let dir = std::path::Path::new(out);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("afactl: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let artifacts = [
            ("txt", run.result.to_table()),
            ("csv", run.result.to_csv()),
            ("json", run.to_json().to_string()),
        ];
        for (ext, content) in artifacts {
            let path = dir.join(format!("{name}.{ext}"));
            if let Err(e) = std::fs::write(&path, content) {
                eprintln!("afactl: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
    }
    ExitCode::SUCCESS
}

fn cmd_jobfile(path: &str, opts: &Options) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("afactl: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let jobs = match afa::workload::parse_jobfile(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("afactl: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = afa::core::check_jobs(&jobs) {
        eprintln!("afactl: {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("parsed {} job(s) from {path}", jobs.len());
    let config = AfaConfig::paper(opts.stage)
        .with_seed(opts.seed)
        .with_jobs(jobs);
    let result = AfaSystem::run(&config);
    for (j, report) in result.reports.iter().enumerate() {
        println!("{}", report.to_fio_style(&format!("job{j}")));
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    if command == "list" {
        cmd_list();
        return ExitCode::SUCCESS;
    }
    // `exp` takes a positional experiment name before the flags.
    if command == "exp" {
        let Some(name) = args.get(1) else {
            eprintln!("afactl: exp needs an experiment name (see `afactl list`)");
            usage();
            return ExitCode::FAILURE;
        };
        let opts = match parse(&args[2..]) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("afactl: {e}");
                usage();
                return ExitCode::FAILURE;
            }
        };
        return cmd_exp(name, &opts);
    }
    // `jobfile` takes a positional path before the flags.
    if command == "jobfile" {
        let Some(path) = args.get(1) else {
            eprintln!("afactl: jobfile needs a path");
            usage();
            return ExitCode::FAILURE;
        };
        let opts = match parse(&args[2..]) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("afactl: {e}");
                usage();
                return ExitCode::FAILURE;
            }
        };
        return cmd_jobfile(path, &opts);
    }
    let opts = match parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("afactl: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    match command.as_str() {
        "run" => cmd_run(&opts),
        "ladder" => cmd_ladder(&opts),
        "profile" => cmd_profile(&opts),
        "causes" => cmd_causes(&opts),
        other => {
            eprintln!("afactl: unknown command '{other}'");
            usage();
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::parse;

    /// The error `parse` returns for `args`, if any.
    fn error(args: &[&str]) -> Option<String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args).err()
    }

    #[test]
    fn sigmas_must_be_finite_and_positive() {
        for bad in ["nan", "inf", "-1", "0"] {
            let err = error(&["--sigmas", bad]).expect(bad);
            assert!(err.contains("--sigmas"), "{bad}: {err}");
        }
        let args = ["--sigmas".to_string(), "2.5".to_string()];
        assert_eq!(parse(&args).map(|o| o.sigmas), Ok(2.5));
    }

    #[test]
    fn out_of_range_and_malformed_arguments_are_errors() {
        for args in [
            &["--ssds", "0"][..],
            &["--ssds", "65"],
            &["--seconds", "nan"],
            &["--seconds", "0.001"],
            &["--seconds", "601"],
            &["--bogus"],
            &["--seed"],
        ] {
            assert!(error(args).is_some(), "{args:?} parsed");
        }
        assert_eq!(
            error(&["--ssds", "64", "--seconds", "0.25", "--json"]),
            None
        );
    }
}
