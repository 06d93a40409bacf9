//! Experiment scaling (environment-driven).

use afa_sim::SimDuration;

/// How big to run the experiments.
///
/// The paper runs 120 s per configuration; a full-fidelity
/// reproduction (`AFA_FULL=1`) does the same, while the default scales
/// down to keep `cargo bench` turnaround reasonable. 6-nines
/// percentiles need ≥10⁶ samples (~33 s at QD1); shorter runs report
/// them from fewer samples, and the harness prints the sample counts
/// so the reader can judge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Per-job run time.
    pub runtime: SimDuration,
    /// Devices in the array (the paper uses 64).
    pub ssds: usize,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// Reads the scale from the environment:
    ///
    /// * `AFA_FULL=1` — the paper's full 120 s × 64 SSDs,
    /// * `AFA_SECONDS=<f64>` — run time in 0.01..=600 s (default 10),
    /// * `AFA_SSDS=<n>` — device count in 1..=64 (default 64),
    /// * `AFA_SEED=<n>` — master seed, a `u64` (default 42).
    ///
    /// The ranges are `afactl`'s. Unset variables keep their defaults;
    /// a set one that does not parse or is out of range is an error
    /// naming it.
    pub fn from_env() -> Result<Self, String> {
        Self::from_vars(|name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()))
    }

    /// [`from_env`](Self::from_env) over any variable lookup: `var`
    /// returns a variable's value, or `None` when it is unset.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let full = var("AFA_FULL").is_some_and(|v| v == "1");
        let seconds = parse_var(&var, "AFA_SECONDS", "seconds in 0.01..=600", |v| {
            v.parse::<f64>().ok().filter(|s| (0.01..=600.0).contains(s))
        })?
        .unwrap_or(if full { 120.0 } else { 10.0 });
        let ssds = parse_var(&var, "AFA_SSDS", "an SSD count in 1..=64", |v| {
            v.parse::<usize>().ok().filter(|n| (1..=64).contains(n))
        })?
        .unwrap_or(64);
        let seed =
            parse_var(&var, "AFA_SEED", "a u64 seed", |v| v.parse::<u64>().ok())?.unwrap_or(42);
        Ok(ExperimentScale {
            runtime: SimDuration::from_secs_f64(seconds),
            ssds,
            seed,
        })
    }

    /// A small scale for unit/integration tests.
    pub fn quick() -> Self {
        ExperimentScale {
            runtime: SimDuration::millis(200),
            ssds: 8,
            seed: 42,
        }
    }

    /// A custom scale.
    pub fn new(runtime: SimDuration, ssds: usize, seed: u64) -> Self {
        ExperimentScale {
            runtime,
            ssds,
            seed,
        }
    }
}

/// Parses variable `name` with `parse`: `Ok(None)` when unset, an error
/// naming the variable and what it `expects` when `parse` rejects it.
fn parse_var<T>(
    var: &impl Fn(&str) -> Option<String>,
    name: &str,
    expects: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    match var(name) {
        None => Ok(None),
        Some(v) => parse(&v)
            .map(Some)
            .ok_or_else(|| format!("{name}={v:?}: expected {expects}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_small() {
        let s = ExperimentScale::quick();
        assert!(s.runtime <= SimDuration::secs(1));
        assert!(s.ssds <= 16);
    }

    fn from_pairs(pairs: &[(&str, &str)]) -> Result<ExperimentScale, String> {
        ExperimentScale::from_vars(|name| {
            pairs
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_owned())
        })
    }

    #[test]
    fn unset_variables_keep_the_defaults() {
        let s = from_pairs(&[]).expect("defaults");
        assert_eq!(s, ExperimentScale::new(SimDuration::secs(10), 64, 42));
        let full = from_pairs(&[("AFA_FULL", "1")]).expect("full");
        assert_eq!(full.runtime, SimDuration::secs(120));
        let set = from_pairs(&[
            ("AFA_SECONDS", "0.25"),
            ("AFA_SSDS", "8"),
            ("AFA_SEED", "7"),
        ]);
        assert_eq!(
            set,
            Ok(ExperimentScale::new(SimDuration::millis(250), 8, 7))
        );
    }

    #[test]
    fn malformed_or_out_of_range_variables_are_errors() {
        for (name, value) in [
            ("AFA_SECONDS", "nan"),
            ("AFA_SECONDS", "1O"),
            ("AFA_SECONDS", "0"),
            ("AFA_SECONDS", "601"),
            ("AFA_SECONDS", "inf"),
            ("AFA_SSDS", "abc"),
            ("AFA_SSDS", "0"),
            ("AFA_SSDS", "65"),
            ("AFA_SEED", "-1"),
            ("AFA_SEED", ""),
        ] {
            let err = from_pairs(&[(name, value)]).expect_err(value);
            assert!(err.starts_with(name), "{name}={value}: {err}");
        }
    }

    #[test]
    fn custom_scale_roundtrips() {
        let s = ExperimentScale::new(SimDuration::secs(3), 16, 7);
        assert_eq!(s.runtime, SimDuration::secs(3));
        assert_eq!(s.ssds, 16);
        assert_eq!(s.seed, 7);
    }
}
