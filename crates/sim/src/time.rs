//! Simulated clock types.
//!
//! All simulated time in the workspace is expressed in nanoseconds using
//! [`SimTime`] (an absolute instant) and [`SimDuration`] (a span). Both
//! are thin newtypes over `u64`, so arithmetic is cheap and `Copy`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulated clock, in nanoseconds since the
/// start of the simulation.
///
/// # Example
///
/// ```
/// use afa_sim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::millis(2);
/// assert_eq!(t.as_micros_f64(), 2_000.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Example
///
/// ```
/// use afa_sim::SimDuration;
///
/// let d = SimDuration::micros(25) + SimDuration::nanos(500);
/// assert_eq!(d.as_nanos(), 25_500);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulated clock.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after the origin.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Returns the instant as nanoseconds since the origin.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the instant as (fractional) microseconds since the origin.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the instant as (fractional) seconds since the origin.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns the span since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `n` nanoseconds.
    #[inline]
    pub const fn nanos(n: u64) -> Self {
        SimDuration(n)
    }

    /// Creates a span of `n` microseconds.
    #[inline]
    pub const fn micros(n: u64) -> Self {
        SimDuration(n * 1_000)
    }

    /// Creates a span of `n` milliseconds.
    #[inline]
    pub const fn millis(n: u64) -> Self {
        SimDuration(n * 1_000_000)
    }

    /// Creates a span of `n` seconds.
    #[inline]
    pub const fn secs(n: u64) -> Self {
        SimDuration(n * 1_000_000_000)
    }

    /// Creates a span from fractional microseconds, rounding to the
    /// nearest nanosecond. Negative inputs clamp to zero.
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        SimDuration(round_to_u64(us * 1_000.0))
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// nanosecond. Negative inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(round_to_u64(secs * 1_000_000_000.0))
    }

    /// Returns the span in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the span as (fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the span as (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns `true` if the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the larger of two spans.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two spans.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Subtracts `other`, saturating at zero.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

/// `x.round() as u64` without `f64::round`, which is an out-of-line
/// libm call on the baseline x86-64 target: truncate, then round up if
/// the remainder is at least one half. Exact for every input: below
/// 2^53 the remainder `x - trunc(x)` is exact, and from 2^53 up every
/// double is an integer. Saturates at `u64::MAX` like `as u64`;
/// negative inputs and NaN give 0.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let whole = x as u64;
    whole.saturating_add((x - whole as f64 >= 0.5) as u64)
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl From<SimDuration> for SimTime {
    #[inline]
    fn from(d: SimDuration) -> SimTime {
        SimTime(d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimDuration::micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimTime::from_nanos(42).as_nanos(), 42);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::micros(10);
        let u = t + SimDuration::micros(5);
        assert_eq!(u - t, SimDuration::micros(5));
        assert_eq!(u - SimDuration::micros(15), SimTime::ZERO);
        assert_eq!(SimDuration::micros(4) * 3, SimDuration::micros(12));
        assert_eq!(SimDuration::micros(12) / 4, SimDuration::micros(3));
    }

    #[test]
    fn saturating_ops() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(30);
        assert_eq!(late.saturating_since(early).as_nanos(), 20);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(
            SimDuration::nanos(5).saturating_sub(SimDuration::nanos(9)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn float_conversions() {
        assert_eq!(SimDuration::from_micros_f64(25.5).as_nanos(), 25_500);
        assert_eq!(SimDuration::from_micros_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
        let t = SimTime::from_nanos(1_500);
        assert!((t.as_micros_f64() - 1.5).abs() < 1e-12);
    }

    /// `round_to_u64` is `x.round() as u64` for every input: at the
    /// halfway points, at the largest double below one half (where
    /// `(x + 0.5) as u64` rounds up), across 2^52..2^53 (where `x + 0.5`
    /// itself rounds), past `u64::MAX`, and at the non-finite and
    /// negative values that clamp.
    #[test]
    fn rounding_matches_f64_round() {
        let two = |e: i32| 2f64.powi(e);
        let mut points = vec![
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            1_234_567.5,
            two(52) - 0.5,
            two(52) + 1.0,
            two(52) + 3.0,
            two(53) - 1.0,
            two(53),
            two(53) + 2.0,
            two(63),
            two(64) - 2048.0,
            two(64),
            two(65),
            f64::MAX,
            f64::INFINITY,
            -0.4,
            -0.5,
            -2.5,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for k in 0..1_000u64 {
            points.push(k as f64 + 0.5);
        }
        // Random bit patterns: every exponent, sign and payload.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..100_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            points.push(f64::from_bits(state));
            // Non-negative values with every share of fraction bits.
            points.push((state >> 11) as f64 / two((state % 60) as i32));
        }
        for x in points {
            assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
        }
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_micros_f64(f64::INFINITY),
            SimDuration::MAX
        );
    }

    #[test]
    fn ordering_and_extremes() {
        assert!(SimTime::ZERO < SimTime::MAX);
        let a = SimDuration::micros(3);
        let b = SimDuration::micros(7);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(SimDuration::ZERO.is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn display_formats_microseconds() {
        assert_eq!(SimDuration::micros(25).to_string(), "25.000us");
        assert_eq!(SimTime::from_nanos(1_234).to_string(), "1.234us");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::micros).sum();
        assert_eq!(total, SimDuration::micros(10));
    }
}
