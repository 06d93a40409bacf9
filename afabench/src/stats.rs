//! Order statistics and the parent-vs-change verdict rule.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so spreads computed here match the ones
//! computed from the same values in Python.

use crate::metrics::Better;

/// Median of `values` (average of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, as `statistics.quantiles(values, n=4)`
/// returns them. A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative for tiny samples, where Python extrapolates too.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Outcome of comparing one metric × workload between two commits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The parent's own run-to-run spread is wider than the bound, so
    /// "no worse than the bound" cannot be shown.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
        }
    }
}

/// The comparison of one metric × workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Comparison {
    pub parent: Summary,
    pub change: Summary,
    /// Share of positional pairs the change won (ties count for
    /// neither side).
    pub win_fraction: f64,
    pub verdict: Verdict,
}

/// Whether `a` is strictly better than `b`.
fn beats(a: f64, b: f64, better: Better) -> bool {
    match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// Applies the gain / no-regression rule to runs of the parent and the
/// change, paired by position (run i of each side).
///
/// * `improved`: the change wins at least nine tenths of the pairs and
///   its median is better than the parent's by more than the parent's
///   interquartile distance.
/// * `unresolved`: otherwise, when the parent's relative spread exceeds
///   `bound` — unless every change run beats every parent run, which is
///   reported as `improved` when the medians also clear the spread.
/// * `regressed`: the change's median is worse than the parent's by
///   more than `bound` × the parent's median. A `bound` of zero is an
///   absolute bound: any worsening of the mean regresses.
/// * `unchanged`: everything else.
///
/// # Panics
///
/// Panics if either side is empty.
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Comparison {
    let p = Summary::of(parent);
    let c = Summary::of(change);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&pv, &cv)| beats(cv, pv, better))
        .count();
    let win_fraction = wins as f64 / pairs as f64;
    let gain = match better {
        Better::Lower => p.median - c.median,
        Better::Higher => c.median - p.median,
    };
    let clears_spread = gain > p.q3 - p.q1;
    let all_better = change
        .iter()
        .all(|&cv| parent.iter().all(|&pv| beats(cv, pv, better)));
    let spread = relative_spread(parent);
    let regressed = if bound == 0.0 {
        // An absolute bound compares totals: one more failure in any
        // run is a regression even when the medians agree.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        beats(mean(parent), mean(change), better)
    } else {
        -gain > bound * p.median.abs()
    };
    let verdict = if win_fraction >= 0.9 && clears_spread && (spread <= bound || all_better) {
        Verdict::Improved
    } else if spread > bound {
        Verdict::Unresolved
    } else if regressed {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    Comparison {
        parent: p,
        change: c,
        win_fraction,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0]), 0.0);
    }

    fn runs(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * (i as f64 - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn clear_gain_is_improved() {
        let c = compare(&runs(1000.0, 5.0), &runs(900.0, 5.0), Better::Lower, 0.05);
        assert_eq!(c.verdict, Verdict::Improved);
        assert_eq!(c.win_fraction, 1.0);
    }

    #[test]
    fn small_shift_inside_the_bound_is_unchanged() {
        let c = compare(&runs(1000.0, 5.0), &runs(1020.0, 5.0), Better::Lower, 0.05);
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn shift_past_the_bound_is_regressed() {
        let c = compare(&runs(1000.0, 5.0), &runs(1100.0, 5.0), Better::Lower, 0.05);
        assert_eq!(c.verdict, Verdict::Regressed);
        // Direction matters: the same values on a higher-is-better
        // metric are a gain.
        let c = compare(&runs(1000.0, 5.0), &runs(1100.0, 5.0), Better::Higher, 0.05);
        assert_eq!(c.verdict, Verdict::Improved);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let c = compare(
            &runs(1000.0, 200.0),
            &runs(1010.0, 200.0),
            Better::Lower,
            0.05,
        );
        assert_eq!(c.verdict, Verdict::Unresolved);
        // ... unless every change run beats every parent run.
        let c = compare(
            &runs(1000.0, 200.0),
            &runs(500.0, 10.0),
            Better::Lower,
            0.05,
        );
        assert_eq!(c.verdict, Verdict::Improved);
    }

    #[test]
    fn zero_bound_is_absolute() {
        let c = compare(&[0.0; 5], &[0.0, 0.0, 0.0, 0.01, 0.01], Better::Lower, 0.0);
        assert_eq!(c.verdict, Verdict::Regressed);
        let c = compare(&[0.0; 5], &[0.0; 5], Better::Lower, 0.0);
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn win_fraction_ignores_ties() {
        let c = compare(
            &[1.0, 2.0, 3.0, 4.0],
            &[1.0, 1.0, 3.0, 3.0],
            Better::Lower,
            0.5,
        );
        assert_eq!(c.win_fraction, 0.5);
    }
}
