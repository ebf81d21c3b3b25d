//! Virtual time: instants and durations with millisecond resolution.
//!
//! All RAI components speak [`SimTime`] rather than `std::time::Instant`
//! so that a whole semester of course traffic can be replayed under the
//! discrete-event engine. The representation is a plain `u64` count of
//! milliseconds since the simulation epoch, which keeps the types `Copy`
//! and totally ordered.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// An instant in virtual time, in milliseconds since the simulation epoch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SimTime(u64);

/// A span of virtual time, in milliseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The farthest representable instant; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Construct from whole seconds since the epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000)
    }

    /// Raw milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Duration elapsed since `earlier`, saturating at zero if `earlier`
    /// is in the future.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The zero-based hour-of-day this instant falls in, treating the
    /// epoch as midnight. Used by the circadian workload model.
    pub fn hour_of_day(self) -> u64 {
        (self.0 / SimDuration::HOUR.0) % 24
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// One millisecond.
    pub const MILLI: SimDuration = SimDuration(1);
    /// One second.
    pub const SECOND: SimDuration = SimDuration(1_000);
    /// One minute.
    pub(crate) const MINUTE: SimDuration = SimDuration(60_000);
    /// One hour.
    pub const HOUR: SimDuration = SimDuration(3_600_000);
    /// One day.
    pub const DAY: SimDuration = SimDuration(86_400_000);

    /// Construct from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000)
    }

    /// Construct from whole days.
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * 86_400_000)
    }

    /// Construct from a float second count (sub-millisecond truncates).
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1_000.0).round() as u64)
    }

    /// Raw milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Whether the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
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
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
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
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration((self.0 as f64 * rhs.max(0.0)).round() as u64)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        if ms == 0 {
            return write!(f, "0ms");
        }
        let days = ms / SimDuration::DAY.0;
        let hours = (ms % SimDuration::DAY.0) / SimDuration::HOUR.0;
        let mins = (ms % SimDuration::HOUR.0) / SimDuration::MINUTE.0;
        let secs = (ms % SimDuration::MINUTE.0) / 1_000;
        let rem_ms = ms % 1_000;
        let mut wrote = false;
        for (v, unit) in [(days, "d"), (hours, "h"), (mins, "m"), (secs, "s")] {
            if v > 0 {
                write!(f, "{v}{unit}")?;
                wrote = true;
            }
        }
        if rem_ms > 0 || !wrote {
            write!(f, "{rem_ms}ms")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_millis(), 3_000);
        assert_eq!(SimDuration::from_hours(2).as_secs(), 7_200);
        assert_eq!(SimDuration::from_days(1), SimDuration::DAY);
        assert_eq!(SimDuration::from_mins(90), SimDuration::from_secs(5400));
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimDuration::from_secs(5), SimTime::from_secs(10));
        // Saturating: stepping back past the epoch lands on it, not
        // underflow.
        assert_eq!(SimTime::ZERO - SimDuration::from_secs(1), SimTime::ZERO);
    }

    #[test]
    fn duration_since_saturates() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(9);
        assert_eq!(late.duration_since(early).as_secs(), 8);
        assert_eq!(early.duration_since(late), SimDuration::ZERO);
    }

    #[test]
    fn calendar_helpers() {
        let t = SimTime::from_millis(
            SimDuration::DAY.as_millis() * 2 + SimDuration::HOUR.as_millis() * 5,
        );
        assert_eq!(t.hour_of_day(), 5);
    }

    #[test]
    fn display_humanizes() {
        assert_eq!(SimDuration::ZERO.to_string(), "0ms");
        assert_eq!(SimDuration::from_secs(90).to_string(), "1m30s");
        let d = SimDuration::from_days(1) + SimDuration::from_hours(2) + SimDuration::from_millis(7);
        assert_eq!(d.to_string(), "1d2h7ms");
    }

    #[test]
    fn float_seconds_round_trip() {
        let d = SimDuration::from_secs_f64(0.5);
        assert_eq!(d.as_millis(), 500);
        assert!((d.as_secs_f64() - 0.5).abs() < 1e-9);
        // Negative inputs clamp to zero rather than wrapping.
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn scalar_ops() {
        assert_eq!(SimDuration::SECOND * 30, SimDuration::from_secs(30));
        assert_eq!(SimDuration::SECOND * 2.5, SimDuration::from_millis(2_500));
    }
}
