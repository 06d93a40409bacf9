//! Regenerates every artifact in the experiment registry.
//!
//! Run with `cargo bench -p afa-bench --bench figures`. Honours
//! `AFA_SECONDS` / `AFA_SSDS` / `AFA_SEED` / `AFA_FULL=1`; pass a
//! substring filter as the first CLI argument to run a subset, e.g.
//! `cargo bench -p afa-bench --bench figures -- fig12`.

use afa_bench::banner;
use afa_core::experiment::{registry, run_experiment, ExperimentScale};

fn main() {
    // Cargo's bench runner passes flags like `--bench`; take the first
    // non-flag argument as the filter.
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let scale = ExperimentScale::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let t0 = std::time::Instant::now();

    let mut ran = 0usize;
    for def in registry() {
        if filter
            .as_ref()
            .is_some_and(|f| !def.name.contains(f.as_str()))
        {
            continue;
        }
        banner(&format!("{} — {}", def.name, def.description), scale);
        let run = run_experiment(def, scale);
        println!("{}", run.result.to_table());
        println!("{}", run.manifest.to_table());
        ran += 1;
    }

    if ran == 0 {
        if let Some(f) = &filter {
            eprintln!("filter '{f}' matched no registered experiment; known names:");
            for def in registry() {
                eprintln!("  {}", def.name);
            }
            std::process::exit(1);
        }
    }
    println!(
        "regenerated {ran} artifact(s) in {:.1}s",
        t0.elapsed().as_secs_f64()
    );
}
