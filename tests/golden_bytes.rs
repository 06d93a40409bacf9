//! Golden artifacts in the default test suite: sixteen of the
//! committed fixtures under `tests/golden/`, regenerated at their scale
//! (0.25 s × 8 SSDs, seed 42) and byte-compared. They cover the paper
//! figures fig06–fig12, the blktrace window read off the ledger log,
//! interrupt coalescing (the only fixture whose interrupts serve
//! batches of completions), and every world that runs as a one-LP
//! simulation (serving, fleet, striped volume, multi-host).
//! `fleet-replication` is the only fixture whose fleet cells hedge
//! across arrays, rotate reads over the replicas, run at R = 3 and fan
//! writes out to every replica.
//! `scripts/ci.sh` compares every fixture through `afactl`; `fig13` and
//! `ull-crossover` are left to it because they would more than double
//! this test's time.
//!
//! The sixteen runs build concurrently, one thread each. Each
//! manifest's `frontend`, `completion` and `fleet` keys and its latency
//! `budget` come from its own run's counters and cause table, so a
//! sibling run in the same process must not move a byte: a counter or
//! cause time that leaked between runs (a serving run's `frontend` key
//! or `frontend_queue` time appearing in `fig06`, say) fails the
//! compare.

use afa::core::experiment::{self, ExperimentScale};
use afa::sim::SimDuration;

#[test]
fn golden_artifacts_are_byte_identical() {
    let scale = ExperimentScale::new(SimDuration::from_secs_f64(0.25), 8, 42);
    // Spawn all sixteen runs, then join them: they overlap in time.
    let artifacts = std::thread::scope(|s| {
        [
            "fig06",
            "fig07",
            "fig08",
            "fig09",
            "fig10",
            "fig11",
            "fig12",
            "blktrace",
            "ablate-coalescing",
            "tailscale-fanout",
            "fleet-failover",
            "fleet-replication",
            "fleet-arrival",
            "tailscale-hedge",
            "tailscale",
            "multihost",
        ]
        .map(|name| {
            s.spawn(move || {
                let def = experiment::find(name).expect("experiment registered");
                // `afactl exp --json` prints the artifact plus a newline.
                let run = experiment::run_experiment(def, scale);
                (name, format!("{}\n", run.to_json()))
            })
        })
        .map(|run| run.join().expect("artifact thread panicked"))
    });
    for (name, artifact) in artifacts {
        let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
        let golden = std::fs::read_to_string(&path).expect("golden fixture");
        if let Some(at) = artifact
            .bytes()
            .zip(golden.bytes())
            .position(|(a, b)| a != b)
            .or((artifact.len() != golden.len()).then(|| artifact.len().min(golden.len())))
        {
            let window = |s: &str| {
                let bytes = &s.as_bytes()[at.saturating_sub(60)..(at + 60).min(s.len())];
                String::from_utf8_lossy(bytes).into_owned()
            };
            panic!(
                "{name} artifact differs from {path} at byte {at}:\n  got    …{}…\n  golden …{}…\n\
                 (if the change is intentional, regenerate with `afactl exp {name} \
                 --seconds 0.25 --ssds 8 --seed 42 --json`)",
                window(&artifact),
                window(&golden),
            );
        }
    }
}
