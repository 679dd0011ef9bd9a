//! Simulated time.
//!
//! All simulator clocks tick in microseconds, wrapped in the newtypes
//! [`SimTime`] (an absolute instant since simulation start) and
//! [`SimDuration`] (a span between instants). Using newtypes rather than
//! bare `u64`s keeps instants and spans from being mixed up and gives us a
//! single place to define conversions to/from seconds.
//!
//! # Examples
//!
//! ```
//! use hsm_simnet::time::{SimTime, SimDuration};
//!
//! let start = SimTime::ZERO;
//! let rtt = SimDuration::from_millis(30);
//! let later = start + rtt;
//! assert_eq!(later.as_micros(), 30_000);
//! assert_eq!(later - start, rtt);
//! ```

use serde::Serialize;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant in simulated time, measured in microseconds since
/// the start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimTime(u64);

/// A span of simulated time in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimDuration(u64);

/// `x.round() as u64` for finite non-negative `x` without the libm call
/// `f64::round` compiles to on the default x86-64 target (every jittered
/// link crossing converts a latency): truncate, then compare the
/// fraction. Exact — below 2^53 both `t as f64` and the subtraction are;
/// from there on `x` is an integer and the fraction is zero; past
/// `u64::MAX` the cast saturates, like the reference's.
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

impl SimTime {
    /// The instant at which every simulation starts.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far"
    /// sentinel for timers that are effectively disabled.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from a raw microsecond count.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Creates an instant from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid time in seconds: {s}");
        SimTime(round_to_u64(s * 1e6))
    }

    /// Raw microsecond count since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from a raw microsecond count.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a span from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "invalid duration in seconds: {s}"
        );
        SimDuration(round_to_u64(s * 1e6))
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This span expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True for the zero-length span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    /// The span from `rhs` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "time went backwards: {self:?} - {rhs:?}");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl From<SimDuration> for f64 {
    /// Seconds as `f64`, handy for analytic-model plumbing.
    fn from(d: SimDuration) -> f64 {
        d.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_micros(), 500_000);
        assert_eq!(SimTime::from_secs_f64(1.25).as_micros(), 1_250_000);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_secs(1);
        let d = SimDuration::from_millis(250);
        assert_eq!((t + d).as_micros(), 1_250_000);
        assert_eq!((t + d) - t, d);
        assert_eq!((t - d).as_micros(), 750_000);
        assert_eq!(d + d, SimDuration::from_millis(500));
        assert_eq!(d * 4, SimDuration::from_secs(1));
        assert_eq!(SimDuration::from_secs(1) / 4, d);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn round_to_u64_is_round_half_away_at_every_awkward_value() {
        let two = |e: i32| 2f64.powi(e);
        let mut xs = vec![
            0.0,
            0.49999999999999994, // largest double below 0.5: x + 0.5 rounds up
            0.5,
            1.4999999999999998,
            two(52) - 0.5,
            two(52),
            two(52) + 1.0,
            two(53),
            two(53) + 2.0,
            two(63),
            two(64) - 2048.0, // largest double below 2^64
            two(64),          // saturates
            1e30,
            f64::MAX,
        ];
        xs.extend((0..2_000u32).map(|k| f64::from(k) + 0.5));
        for x in xs {
            assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
        }
        // Through the public constructors, at the scale they are fed.
        for s in [
            4_503_599_627.370_496_f64,
            9_007_199_254.740_992,
            2.5e-7,
            1e20,
        ] {
            let want = (s * 1e6).round() as u64;
            assert_eq!(SimTime::from_secs_f64(s).as_micros(), want, "s = {s:e}");
            assert_eq!(SimDuration::from_secs_f64(s).as_micros(), want);
        }
    }

    proptest::proptest! {
        #[test]
        fn from_secs_f64_rounds_like_libm(
            s in proptest::prop_oneof![0.0f64..1e-3, 0.0f64..1.0, 0.0f64..4_000.0, 0.0f64..1e13],
            k in 0u64..10_000_000_000,
        ) {
            proptest::prop_assert_eq!(
                SimDuration::from_secs_f64(s).as_micros(),
                (s * 1e6).round() as u64
            );
            // Half-microsecond ties as they come out of a division.
            let tie = (k as f64 + 0.5) / 1e6;
            proptest::prop_assert_eq!(
                SimTime::from_secs_f64(tie).as_micros(),
                (tie * 1e6).round() as u64
            );
        }
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", SimTime::ZERO).is_empty());
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
    }

    #[test]
    #[should_panic]
    fn negative_seconds_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(1) < SimDuration::from_millis(2));
        assert_eq!(
            SimDuration::from_millis(7).max(SimDuration::from_millis(3)),
            SimDuration::from_millis(7)
        );
        assert_eq!(
            SimDuration::from_millis(7).min(SimDuration::from_millis(3)),
            SimDuration::from_millis(3)
        );
    }
}
