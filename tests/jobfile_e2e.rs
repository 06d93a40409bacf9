//! End-to-end: a fio-style jobfile drives the whole-array simulation.

use std::process::Command;

use afa::core::{check_jobs, AfaConfig, AfaSystem, TuningStage};
use afa::sim::SimDuration;
use afa::workload::parse_jobfile;

const JOBFILE: &str = "\
[global]
ioengine=libaio
rw=randread
bs=4k
iodepth=1
runtime=0.08

[a]
filename=/dev/nvme0
cpus_allowed=4

[b]
filename=/dev/nvme1
cpus_allowed=5

[c]
filename=/dev/nvme2
cpus_allowed=17
";

#[test]
fn jobfile_runs_end_to_end() {
    let jobs = parse_jobfile(JOBFILE).expect("parse");
    assert_eq!(jobs.len(), 3);
    check_jobs(&jobs).expect("valid jobs");
    let config = AfaConfig::paper(TuningStage::IrqAffinity)
        .with_seed(11)
        .with_jobs(jobs);
    let result = AfaSystem::run(&config);
    assert_eq!(result.reports.len(), 3);
    for report in &result.reports {
        assert!(report.completed() > 1_000, "{} I/Os", report.completed());
        let mean = report.histogram().mean() / 1e3;
        assert!((28.0..45.0).contains(&mean), "mean {mean} us");
    }
}

#[test]
fn jobfile_pinning_is_honored() {
    let jobs = parse_jobfile(JOBFILE).expect("parse");
    let config = AfaConfig::paper(TuningStage::IrqAffinity)
        .with_seed(12)
        .with_jobs(jobs);
    // Geometry resolution happens in run(); if the pinned CPUs were
    // ignored, the vectors (designated = assignment) would differ and
    // pinned-IRQ stats would show remote deliveries.
    let result = AfaSystem::run(&config);
    assert_eq!(result.host.stats().remote_irqs, 0);
}

#[test]
fn heterogeneous_jobfile_mixes_engines() {
    let text = "\
[poll]
filename=/dev/nvme0
cpus_allowed=4
ioengine=pvsync2_hipri
runtime=0.05

[irqd]
filename=/dev/nvme1
cpus_allowed=5
ioengine=libaio
runtime=0.05
";
    let jobs = parse_jobfile(text).expect("parse");
    let config = AfaConfig::paper(TuningStage::ExperimentalFirmware)
        .with_seed(13)
        .with_jobs(jobs);
    let result = AfaSystem::run(&config);
    // Only the libaio job generates interrupts.
    let libaio_ios = result.reports[1].completed();
    assert!(result.host.stats().irqs >= libaio_ios);
    assert!(result.host.stats().irqs < libaio_ios + 100);
    assert!(result.reports[0].completed() > 500);
}

#[test]
#[should_panic(expected = "two jobs target device")]
fn duplicate_device_jobs_panic() {
    let text = "\
[a]
filename=/dev/nvme0
[b]
filename=/dev/nvme0
";
    let jobs = parse_jobfile(text).expect("parse");
    let config = AfaConfig::paper(TuningStage::Default)
        .with_runtime(SimDuration::millis(10))
        .with_jobs(jobs);
    let _ = AfaSystem::run(&config);
}

/// Jobfiles the simulated host cannot run, with the error each must
/// produce: `(name, jobfile, expected message)`.
const MALFORMED: [(&str, &str, &str); 4] = [
    (
        "duplicate-device",
        "[a]\nfilename=/dev/nvme0\n[b]\nfilename=/dev/nvme0\n",
        "job1: /dev/nvme0 is already driven by job0",
    ),
    (
        "device-70",
        "[a]\nfilename=/dev/nvme70\n",
        "job0: /dev/nvme70 is beyond the host's 64 SSDs",
    ),
    (
        "cpu-99",
        "[a]\nfilename=/dev/nvme0\ncpus_allowed=99\n",
        "job0: cpus_allowed=99 is beyond the host's 40 CPUs",
    ),
    (
        "iodepth-0",
        "[a]\nfilename=/dev/nvme0\niodepth=0\n",
        "line 3: iodepth must be positive",
    ),
];

#[test]
fn malformed_jobfiles_are_errors() {
    for (name, text, expected) in MALFORMED {
        let error = match parse_jobfile(text) {
            Err(e) => e.to_string(),
            Ok(jobs) => check_jobs(&jobs).expect_err(name),
        };
        assert!(error.contains(expected), "{name}: {error}");
    }
}

#[test]
fn afactl_jobfile_exits_1_on_malformed_jobfiles() {
    let dir = std::env::temp_dir().join(format!("afa-jobfile-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, text, expected) in MALFORMED {
        let path = dir.join(format!("{name}.fio"));
        std::fs::write(&path, text).expect("write jobfile");
        let out = Command::new(env!("CARGO_BIN_EXE_afactl"))
            .arg("jobfile")
            .arg(&path)
            .output()
            .expect("run afactl");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains(expected), "{name}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
