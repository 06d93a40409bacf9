//! The parent removes every `AFA_*` variable before it starts a
//! workload's child, so engine knobs set around the benchmark cannot
//! change what it measures.

use std::process::Command;

fn stdout(cmd: &mut Command) -> String {
    let out = cmd.output().expect("afabench runs");
    assert!(out.status.success(), "afabench failed: {}", out.status);
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// The value of `metric` in `<workload> <metric> <value> <unit>` lines.
fn value(text: &str, metric: &str) -> String {
    text.lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|parts| parts.len() == 4 && parts[1] == metric)
        .unwrap_or_else(|| panic!("no {metric} line in:\n{text}"))[2]
        .to_owned()
}

fn afabench(dir: &std::path::Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_afabench"));
    cmd.current_dir(dir)
        .env_remove("AFA_NO_FUSION")
        .env_remove("AFA_SHARD_PLAN");
    cmd
}

#[test]
fn afa_knobs_in_the_parent_do_not_reach_the_child() {
    let dir = std::env::temp_dir().join(format!("afabench-scrub-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let measure = [
        "measure",
        "--workload",
        "ull-poll-8",
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace",
        "0",
    ];
    let clean = stdout(afabench(&dir).args(measure));
    let knobbed = stdout(
        afabench(&dir)
            .args(measure)
            .env("AFA_NO_FUSION", "1")
            .env("AFA_SHARD_PLAN", "full-9"),
    );
    for metric in [
        "sim_digest",
        "units",
        "io_path.fused_share",
        "sim.events_per_io",
    ] {
        assert_eq!(value(&clean, metric), value(&knobbed, metric), "{metric}");
    }
    assert!(value(&clean, "io_path.fused_share").parse::<f64>().unwrap() > 0.5);

    // The knob is live when nothing scrubs it: a child started directly
    // stops fusing, with the same simulated outputs.
    let child = [
        "child",
        "--workload",
        "ull-poll-8",
        "--seed",
        "3",
        "--sim-secs",
        "0.05",
        "--seconds",
        "0",
        "--trace",
        "0",
    ];
    let fused = stdout(afabench(&dir).args(child));
    let unfused = stdout(afabench(&dir).args(child).env("AFA_NO_FUSION", "1"));
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(value(&unfused, "io_path.fused_share"), "0");
    assert_ne!(value(&fused, "io_path.fused_share"), "0");
    assert_eq!(value(&fused, "sim_digest"), value(&unfused, "sim_digest"));
}
