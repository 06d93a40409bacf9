//! Benchmark and figure-regeneration harness for the AFA reproduction.
//!
//! Two kinds of targets live here:
//!
//! * **Figure/table regeneration** — `cargo bench -p afa-bench --bench
//!   figures` iterates the experiment registry
//!   ([`afa_core::experiment::registry()`]) and prints paper-style
//!   tables. Individual binaries (`cargo run -p afa-bench --release
//!   --bin fig06`, …) are thin wrappers over [`run_named`]: each
//!   regenerates one artifact, prints its run manifest, and writes
//!   CSV + JSON under `target/afa-results/`.
//! * **Micro-benchmarks** — `cargo bench -p afa-bench --bench micro`
//!   (stdlib [`micro`] harness) measures the substrate hot paths the
//!   whole-array simulation leans on.
//!
//! Scaling: all experiment targets honour `AFA_SECONDS`, `AFA_SSDS`,
//! `AFA_SEED` and `AFA_FULL=1` (the paper's full 120 s × 64-SSD runs);
//! see [`afa_core::experiment::ExperimentScale::from_env`]. A malformed
//! or out-of-range value makes the target exit 1 naming the variable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::process::ExitCode;

pub mod micro;

pub use afa_core::experiment::ExperimentScale;

/// Runs the registry experiment `name` at the environment scale:
/// banner, table, run manifest, then CSV + JSON artifacts under
/// `target/afa-results/`. Unknown names list the registry and fail, as
/// does a malformed scale variable.
pub fn run_named(name: &str) -> ExitCode {
    run_many(&[name])
}

/// Runs several registry experiments in sequence; fails if any name is
/// unknown or a scale variable is malformed.
pub fn run_many(names: &[&str]) -> ExitCode {
    let scale = match ExperimentScale::from_env() {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in names {
        ok &= run_named_inner(name, scale);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_named_inner(name: &str, scale: ExperimentScale) -> bool {
    let Some(def) = afa_core::experiment::find(name) else {
        eprintln!("unknown experiment '{name}'; registered experiments:");
        for def in afa_core::experiment::registry() {
            eprintln!("  {:<20} {}", def.name, def.description);
        }
        return false;
    };
    banner(def.description, scale);
    let run = afa_core::experiment::run_experiment(def, scale);
    println!("{}", run.result.to_table());
    println!("{}", run.manifest.to_table());
    write_csv(&format!("{name}.csv"), &run.result.to_csv());
    write_csv(&format!("{name}.json"), &run.to_json().to_string());
    true
}

/// Prints a standard header naming the artifact being regenerated.
pub fn banner(artifact: &str, scale: ExperimentScale) {
    println!("=== {artifact} ===");
    println!(
        "scale: {:.1}s per job, {} SSDs, seed {} (paper: 120s, 64 SSDs)\n",
        scale.runtime.as_secs_f64(),
        scale.ssds,
        scale.seed
    );
}

/// Writes a CSV artifact under `target/afa-results/` and reports the
/// path.
pub fn write_csv(name: &str, content: &str) {
    let dir = std::path::Path::new("target/afa-results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(name);
    match std::fs::write(&path, content) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_does_not_panic() {
        banner("test", ExperimentScale::quick());
    }

    #[test]
    fn write_csv_creates_artifact() {
        write_csv("unit-test.csv", "a,b\n1,2\n");
        let content = std::fs::read_to_string("target/afa-results/unit-test.csv").unwrap();
        assert!(content.contains("1,2"));
    }
}
