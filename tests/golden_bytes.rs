//! Golden artifacts in the default test suite: seven of the committed
//! fixtures under `tests/golden/`, regenerated at their scale
//! (0.25 s × 8 SSDs, seed 42) and byte-compared. Besides two paper
//! figures they cover every world that runs as a one-LP simulation
//! (serving, fleet, striped volume, multi-host). `scripts/ci.sh`
//! compares all fifteen through `afactl`.
//!
//! One `#[test]` in its own file on purpose: the run manifest's
//! `frontend`, `completion` and `fleet` keys are deltas of
//! process-wide counters, so a simulation running concurrently in the
//! same test binary would leak into these artifacts.

use afa::core::experiment::{self, ExperimentScale};
use afa::sim::SimDuration;

#[test]
fn golden_artifacts_are_byte_identical() {
    let scale = ExperimentScale::new(SimDuration::from_secs_f64(0.25), 8, 42);
    for name in [
        "fig06",
        "fig12",
        "fleet-failover",
        "fleet-arrival",
        "tailscale-hedge",
        "tailscale",
        "multihost",
    ] {
        let def = experiment::find(name).expect("experiment registered");
        // `afactl exp --json` prints the artifact plus a newline.
        let artifact = format!("{}\n", experiment::run_experiment(def, scale).to_json());
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
