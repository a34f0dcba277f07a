//! Uniformly sampled time series.

use crate::time::{sample_time, Micros};

/// A uniformly sampled signal: a sample rate plus a sample vector, starting
/// at trace time zero.
///
/// # Example
///
/// ```
/// use sidewinder_sensors::series::TimeSeries;
/// use sidewinder_sensors::time::Micros;
///
/// let s = TimeSeries::from_samples(50.0, vec![0.0; 100])?;
/// assert_eq!(s.duration(), Micros::from_secs(2));
/// assert_eq!(s.index_at(Micros::from_millis(1_000)), Some(50));
/// # Ok::<(), sidewinder_sensors::series::InvalidRateError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    rate_hz: f64,
    samples: Vec<f64>,
}

/// Error returned when a series is constructed with a non-positive or
/// non-finite sample rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidRateError {
    /// The rejected rate.
    pub rate_hz: f64,
}

impl std::fmt::Display for InvalidRateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sample rate {} must be positive and finite",
            self.rate_hz
        )
    }
}

impl std::error::Error for InvalidRateError {}

impl TimeSeries {
    /// Creates a series from a sample rate and samples.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidRateError`] if `rate_hz` is not positive and finite.
    pub fn from_samples(rate_hz: f64, samples: Vec<f64>) -> Result<Self, InvalidRateError> {
        if !(rate_hz.is_finite() && rate_hz > 0.0) {
            return Err(InvalidRateError { rate_hz });
        }
        Ok(TimeSeries { rate_hz, samples })
    }

    /// Creates an empty series at the given rate.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidRateError`] if `rate_hz` is not positive and finite.
    pub fn empty(rate_hz: f64) -> Result<Self, InvalidRateError> {
        TimeSeries::from_samples(rate_hz, Vec::new())
    }

    /// The sampling rate in Hz.
    pub fn rate_hz(&self) -> f64 {
        self.rate_hz
    }

    /// The samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total duration covered (`len / rate`).
    pub fn duration(&self) -> Micros {
        Micros::from_secs_f64(self.samples.len() as f64 / self.rate_hz)
    }

    /// Timestamp of the sample at `index`, non-decreasing in `index`
    /// ([`sample_time`]).
    pub fn time_of(&self, index: usize) -> Micros {
        sample_time(index, self.rate_hz)
    }

    /// Index of the sample covering time `t`, or `None` past the end.
    pub fn index_at(&self, t: Micros) -> Option<usize> {
        let idx = (t.as_secs_f64() * self.rate_hz).floor() as usize;
        (idx < self.samples.len()).then_some(idx)
    }

    /// The samples whose timestamps lie in `[start, end)`.
    ///
    /// Times past the end of the series are clamped; an inverted range
    /// yields an empty slice.
    pub fn slice(&self, start: Micros, end: Micros) -> &[f64] {
        if end <= start {
            return &[];
        }
        // Guard the ceil against float error: 1.1 s × 50 Hz evaluates to
        // 55.000000000000007, which must still mean index 55.
        let bound = |t: Micros| {
            (((t.as_secs_f64() * self.rate_hz) - 1e-9).ceil().max(0.0) as usize)
                .min(self.samples.len())
        };
        let lo = bound(start);
        let hi = bound(end);
        &self.samples[lo..hi.max(lo)]
    }

    /// Appends a sample.
    pub fn push(&mut self, sample: f64) {
        self.samples.push(sample);
    }

    /// Appends all samples from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.samples.extend(iter);
    }

    /// Iterates `(timestamp, sample)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Micros, f64)> + '_ {
        self.samples
            .iter()
            .enumerate()
            .map(move |(i, &x)| (self.time_of(i), x))
    }

    /// Consumes the series, returning the raw sample vector.
    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> TimeSeries {
        TimeSeries::from_samples(50.0, (0..100).map(|i| i as f64).collect()).unwrap()
    }

    #[test]
    fn rejects_bad_rates() {
        assert!(TimeSeries::from_samples(0.0, vec![]).is_err());
        assert!(TimeSeries::from_samples(-5.0, vec![]).is_err());
        assert!(TimeSeries::from_samples(f64::NAN, vec![]).is_err());
        let err = TimeSeries::from_samples(0.0, vec![]).unwrap_err();
        assert!(err.to_string().contains("0"));
    }

    #[test]
    fn duration_and_len() {
        let s = series();
        assert_eq!(s.len(), 100);
        assert!(!s.is_empty());
        assert_eq!(s.duration(), Micros::from_secs(2));
        assert!(TimeSeries::empty(10.0).unwrap().is_empty());
        assert_eq!(TimeSeries::empty(10.0).unwrap().duration(), Micros::ZERO);
    }

    #[test]
    fn time_index_round_trip() {
        let s = series();
        for i in [0usize, 1, 49, 99] {
            assert_eq!(s.index_at(s.time_of(i)), Some(i));
        }
        assert_eq!(s.index_at(Micros::from_secs(2)), None);
    }

    #[test]
    fn slice_selects_half_open_range() {
        let s = series();
        // [1s, 1.1s) at 50 Hz = samples 50..55
        let got = s.slice(Micros::from_secs(1), Micros::from_millis(1_100));
        assert_eq!(got, &[50.0, 51.0, 52.0, 53.0, 54.0]);
    }

    #[test]
    fn slice_clamps_to_series_end() {
        let s = series();
        let got = s.slice(Micros::from_millis(1_900), Micros::from_secs(100));
        assert_eq!(got.len(), 5);
        assert_eq!(got[0], 95.0);
    }

    #[test]
    fn inverted_or_empty_ranges_are_empty() {
        let s = series();
        assert!(s
            .slice(Micros::from_secs(1), Micros::from_secs(1))
            .is_empty());
        assert!(s
            .slice(Micros::from_secs(2), Micros::from_secs(1))
            .is_empty());
    }

    #[test]
    fn whole_trace_slice_returns_everything() {
        let s = series();
        assert_eq!(s.slice(Micros::ZERO, s.duration()), s.samples());
    }

    #[test]
    fn push_and_extend_grow_series() {
        let mut s = TimeSeries::empty(10.0).unwrap();
        s.push(1.0);
        s.extend([2.0, 3.0]);
        assert_eq!(s.samples(), &[1.0, 2.0, 3.0]);
        assert_eq!(s.into_samples(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn iter_yields_timestamps() {
        let s = TimeSeries::from_samples(2.0, vec![5.0, 6.0]).unwrap();
        let pairs: Vec<_> = s.iter().collect();
        assert_eq!(
            pairs,
            vec![(Micros::ZERO, 5.0), (Micros::from_millis(500), 6.0)]
        );
    }
}
