//! Bench binaries refuse malformed scale variables: each case exits 1
//! with a message naming the variable, before simulating anything.

use std::process::Command;

#[test]
fn malformed_scale_variables_exit_1_naming_the_variable() {
    for (name, value) in [
        ("AFA_SECONDS", "nan"),
        ("AFA_SECONDS", "1O"),
        ("AFA_SSDS", "abc"),
        ("AFA_SSDS", "0"),
        ("AFA_SEED", "-1"),
    ] {
        // The other variables are valid and tiny, so a parser that
        // accepted the bad value would finish quickly and fail here.
        let out = Command::new(env!("CARGO_BIN_EXE_fig06"))
            .env_remove("AFA_FULL")
            .env("AFA_SECONDS", "0.01")
            .env("AFA_SSDS", "1")
            .env("AFA_SEED", "1")
            .env(name, value)
            .current_dir(std::env::temp_dir())
            .output()
            .expect("run fig06");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}={value}: {stderr}");
        assert!(stderr.contains(name), "{name}={value}: {stderr}");
    }
}
