//! Simulated time.
//!
//! Time is measured in integer **microsecond ticks** from simulation start.
//! Integer ticks keep the discrete-event simulator exactly deterministic
//! (no floating-point drift), which the reproduction relies on: the output
//! oracle compares a faulty run against a reference run tick by tick.

use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (µs since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Time(pub u64);

/// A span of simulated time (µs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Duration(pub u64);

impl Time {
    /// The simulation origin.
    pub const ZERO: Time = Time(0);

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000)
    }

    /// Microseconds since the origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds since the origin.
    pub(crate) fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating subtraction producing a duration.
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The enclosing period index for a system period `p`.
    ///
    /// # Panics
    /// Panics if `p` is zero.
    pub fn period_index(self, p: Duration) -> u64 {
        assert!(p.0 > 0, "period must be positive");
        self.0 / p.0
    }

    /// The start of the next period boundary at or after `self`.
    ///
    /// # Panics
    /// Panics if `p` is zero.
    pub fn next_period_start(self, p: Duration) -> Time {
        assert!(p.0 > 0, "period must be positive");
        Time(self.0.div_ceil(p.0) * p.0)
    }
}

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000)
    }

    /// Microseconds in the span.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds in the span.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("time subtraction underflow"),
        )
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("duration subtraction underflow"),
        )
    }
}

impl std::fmt::Display for Time {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl std::fmt::Display for Duration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Time::from_millis(5);
        let d = Duration::from_millis(3);
        assert_eq!(t + d, Time(8_000));
        assert_eq!((t + d) - t, d);
        assert_eq!(Time::from_secs(1), Time(1_000_000));
    }

    #[test]
    fn period_helpers() {
        let p = Duration::from_millis(10);
        assert_eq!(Time(0).period_index(p), 0);
        assert_eq!(Time(9_999).period_index(p), 0);
        assert_eq!(Time(10_000).period_index(p), 1);
        assert_eq!(Time(0).next_period_start(p), Time(0));
        assert_eq!(Time(1).next_period_start(p), Time(10_000));
        assert_eq!(Time(10_000).next_period_start(p), Time(10_000));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = Time(1) - Time(2);
    }

    #[test]
    fn saturating_since() {
        assert_eq!(Time(1).saturating_since(Time(5)), Duration::ZERO);
        assert_eq!(Time(5).saturating_since(Time(1)), Duration(4));
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Time(1_500)), "1.500ms");
        assert_eq!(format!("{}", Duration(250)), "0.250ms");
    }
}
