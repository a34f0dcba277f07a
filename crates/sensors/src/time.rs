//! Integer-microsecond time base.
//!
//! The simulator integrates power over sleep/wake state intervals; float
//! timestamps would accumulate error over half-hour traces. [`Micros`] is
//! both a timestamp (offset from trace start) and a duration — the trace
//! origin is always zero, so a separate instant type would add ceremony
//! without catching real bugs in this codebase.

use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A timestamp or duration in whole microseconds.
///
/// # Example
///
/// ```
/// use sidewinder_sensors::time::Micros;
///
/// let t = Micros::from_millis(1_500);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// assert_eq!(t + Micros::from_secs(1), Micros::from_millis(2_500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Micros(pub u64);

impl Micros {
    /// Zero time: the trace origin.
    pub const ZERO: Micros = Micros(0);
    /// The largest representable time.
    pub const MAX: Micros = Micros(u64::MAX);

    /// Constructs from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Micros(us)
    }

    /// Constructs from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Micros(ms * 1_000)
    }

    /// Constructs from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Micros(s * 1_000_000)
    }

    /// Constructs from fractional seconds, rounding to the nearest
    /// microsecond. Negative or non-finite input clamps to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Micros::ZERO;
        }
        Micros((s * 1e6).round() as u64)
    }

    /// The raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This time in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This time in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction: `self - rhs`, or zero if `rhs` is later.
    pub fn saturating_sub(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: Micros) -> Option<Micros> {
        self.0.checked_add(rhs.0).map(Micros)
    }

    /// The smaller of two times.
    pub fn min(self, rhs: Micros) -> Micros {
        Micros(self.0.min(rhs.0))
    }

    /// The larger of two times.
    pub fn max(self, rhs: Micros) -> Micros {
        Micros(self.0.max(rhs.0))
    }

    /// Number of whole sample periods of `rate_hz` that fit in this
    /// duration.
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` is not positive and finite.
    pub fn samples_at(self, rate_hz: f64) -> usize {
        assert!(
            rate_hz.is_finite() && rate_hz > 0.0,
            "sample rate must be positive, got {rate_hz}"
        );
        (self.as_secs_f64() * rate_hz).floor() as usize
    }
}

impl Add for Micros {
    type Output = Micros;
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl AddAssign for Micros {
    fn add_assign(&mut self, rhs: Micros) {
        self.0 += rhs.0;
    }
}

impl Sub for Micros {
    type Output = Micros;
    /// # Panics
    /// Panics on underflow in debug builds, like integer subtraction.
    fn sub(self, rhs: Micros) -> Micros {
        Micros(self.0 - rhs.0)
    }
}

impl SubAssign for Micros {
    fn sub_assign(&mut self, rhs: Micros) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Micros {
    type Output = Micros;
    fn mul(self, rhs: u64) -> Micros {
        Micros(self.0 * rhs)
    }
}

impl Div<u64> for Micros {
    type Output = Micros;
    fn div(self, rhs: u64) -> Micros {
        Micros(self.0 / rhs)
    }
}

impl std::fmt::Display for Micros {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

/// Converts a sample index to its timestamp at `rate_hz`.
///
/// Sample times are non-decreasing in the index: the index-to-float
/// conversion, the division by a positive rate, the scaling to
/// microseconds and the rounding are each monotone. The simulator's
/// replay relies on this to find where a run of samples ends by search
/// instead of evaluating every sample's time.
///
/// # Panics
///
/// Panics if `rate_hz` is not positive and finite.
pub fn sample_time(index: usize, rate_hz: f64) -> Micros {
    assert!(
        rate_hz.is_finite() && rate_hz > 0.0,
        "sample rate must be positive, got {rate_hz}"
    );
    Micros::from_secs_f64(index as f64 / rate_hz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Micros::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(Micros::from_millis(5).as_micros(), 5_000);
        assert_eq!(Micros::from_secs_f64(1.5), Micros::from_millis(1_500));
        assert_eq!(Micros::from_secs(3).as_secs_f64(), 3.0);
        assert_eq!(Micros::from_millis(250).as_millis_f64(), 250.0);
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(Micros::from_secs_f64(-1.0), Micros::ZERO);
        assert_eq!(Micros::from_secs_f64(f64::NAN), Micros::ZERO);
        assert_eq!(Micros::from_secs_f64(f64::INFINITY), Micros::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Micros::from_secs(1);
        let b = Micros::from_millis(500);
        assert_eq!(a + b, Micros::from_millis(1_500));
        assert_eq!(a - b, Micros::from_millis(500));
        assert_eq!(b * 4, Micros::from_secs(2));
        assert_eq!(a / 4, Micros::from_micros(250_000));
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        assert_eq!(
            Micros::from_secs(1).saturating_sub(Micros::from_secs(2)),
            Micros::ZERO
        );
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(Micros::MAX.checked_add(Micros(1)).is_none());
        assert_eq!(Micros(1).checked_add(Micros(2)), Some(Micros(3)));
    }

    #[test]
    fn min_max() {
        let a = Micros(10);
        let b = Micros(20);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn samples_at_counts_whole_periods() {
        assert_eq!(Micros::from_secs(2).samples_at(50.0), 100);
        assert_eq!(Micros::from_millis(1_999).samples_at(1.0), 1);
        assert_eq!(Micros::ZERO.samples_at(100.0), 0);
    }

    #[test]
    #[should_panic(expected = "sample rate must be positive")]
    fn samples_at_rejects_zero_rate() {
        Micros::from_secs(1).samples_at(0.0);
    }

    #[test]
    fn sample_time_is_index_over_rate() {
        assert_eq!(sample_time(50, 50.0), Micros::from_secs(1));
        assert_eq!(sample_time(0, 8000.0), Micros::ZERO);
        assert_eq!(sample_time(1, 8000.0), Micros(125));
    }

    #[test]
    fn sample_times_are_non_decreasing_in_the_index() {
        let starts = [0usize, 1 << 20, (1 << 32) - 512, 1 << 32, (1 << 33) + 7];
        for rate in [8000.0, 50.0, 40.0, 100.0, 1000.0 / 3.0, 44100.0, 0.5] {
            for start in starts {
                let times: Vec<Micros> = (start..start + 1024)
                    .map(|i| sample_time(i, rate))
                    .collect();
                assert!(
                    times.windows(2).all(|w| w[0] <= w[1]),
                    "{rate} Hz from index {start}"
                );
            }
        }
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Micros(500).to_string(), "500us");
        assert_eq!(Micros::from_millis(20).to_string(), "20.000ms");
        assert_eq!(Micros::from_secs_f64(1.25).to_string(), "1.250s");
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(Micros(1) < Micros(2));
        assert_eq!(Micros::ZERO, Micros::default());
    }
}
