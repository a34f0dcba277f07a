//! Noise-reduction and frequency-selective filters.
//!
//! The paper's hub offers "noise-reduction algorithms such as a moving
//! average and exponential moving average" and "FFT-based low-pass /
//! high-pass filtering" (§3.6 "Data Filtering"). The on-device pieces —
//! the band-shape frequency response and the keep-mask fill — live in
//! `sidewinder-mcu` and are re-exported here. This module owns the
//! host-side [`MovingAverage`] (streaming, with a block path for whole
//! slices) and [`fft_highpass`], the `Vec`-returning FFT filter the
//! siren detector opens with.

use crate::complex::Complex;
use crate::fft::{self, NonPowerOfTwoError};
use crate::sample::Sample;

pub use sidewinder_mcu::filter::{fill_keep_mask, BandShape};

/// A streaming simple moving average over the last `window` samples.
///
/// Produces no output until `window` samples have been observed — the
/// behaviour the paper calls out when motivating the interpreter's
/// `hasResult` flag (§3.5).
///
/// # Example
///
/// ```
/// use sidewinder_dsp::filter::MovingAverage;
///
/// let mut ma = MovingAverage::new(3)?;
/// assert_eq!(ma.push(3.0), None);
/// assert_eq!(ma.push(6.0), None);
/// assert_eq!(ma.push(9.0), Some(6.0));
/// assert_eq!(ma.push(0.0), Some(5.0));
/// # Ok::<(), sidewinder_dsp::filter::ZeroWindowError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MovingAverage<P: Sample = f64> {
    window: usize,
    buf: std::collections::VecDeque<P>,
}

/// Error returned when a filter is configured with a zero-length window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroWindowError;

impl std::fmt::Display for ZeroWindowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("filter window length must be non-zero")
    }
}

impl std::error::Error for ZeroWindowError {}

impl<P: Sample> MovingAverage<P> {
    /// Creates a moving average over `window` samples.
    ///
    /// # Errors
    ///
    /// Returns [`ZeroWindowError`] if `window` is zero.
    pub fn new(window: usize) -> Result<Self, ZeroWindowError> {
        if window == 0 {
            return Err(ZeroWindowError);
        }
        Ok(MovingAverage {
            window,
            buf: std::collections::VecDeque::with_capacity(window),
        })
    }

    /// The configured window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Pushes a sample; returns the average once the window is full.
    pub fn push(&mut self, sample: P) -> Option<P> {
        if self.buf.len() == self.window {
            self.buf.pop_front();
        }
        self.buf.push_back(sample);
        if self.buf.len() < self.window {
            None
        } else {
            // Recompute rather than maintain a rolling sum: hub windows are
            // small (tens of samples) and this avoids drift on long runs.
            Some(self.window_sum() / P::from_usize(self.window))
        }
    }

    /// Oldest-to-newest sum of the buffered window — the exact reduction
    /// `push` has always performed; the block path below reproduces it.
    fn window_sum(&self) -> P {
        let mut sum = P::ZERO;
        for &x in &self.buf {
            sum += x;
        }
        sum
    }

    /// Clears all buffered samples.
    pub fn reset(&mut self) {
        self.buf.clear();
    }

    /// Filters a whole slice, returning one output per input once primed.
    ///
    /// When the filter is cold (empty buffer) and the slice covers at
    /// least one full window, sixteen output windows are computed in
    /// flight — each output is still the oldest-to-newest recompute
    /// `push` performs, so results (and the buffered tail left behind)
    /// are bit-identical to the streaming path.
    pub fn filter(&mut self, signal: &[P]) -> Vec<P> {
        if self.buf.is_empty() && signal.len() >= self.window {
            return self.filter_block(signal);
        }
        signal.iter().filter_map(|&x| self.push(x)).collect()
    }

    /// Block evaluation of a cold filter: output `k` averages
    /// `signal[k..k + window]` in ascending index order, exactly as the
    /// per-push recompute does; sixteen outputs in flight give LLVM four
    /// independent vector accumulators, hiding the serial-add latency
    /// each individual output's sum carries. The final buffer state (last
    /// `window` samples) matches what streaming would have left.
    fn filter_block(&mut self, signal: &[P]) -> Vec<P> {
        const BLOCK: usize = 16;
        let w = self.window;
        let n_out = signal.len() - w + 1;
        let divisor = P::from_usize(w);
        let mut out = Vec::with_capacity(n_out);
        let mut k = 0;
        while k + BLOCK <= n_out {
            let mut acc = [P::ZERO; BLOCK];
            for j in 0..w {
                let lane = &signal[k + j..k + j + BLOCK];
                for l in 0..BLOCK {
                    acc[l] += lane[l];
                }
            }
            for a in acc {
                out.push(a / divisor);
            }
            k += BLOCK;
        }
        while k < n_out {
            let mut a = P::ZERO;
            for j in 0..w {
                a += signal[k + j];
            }
            out.push(a / divisor);
            k += 1;
        }
        self.buf.clear();
        self.buf.extend(signal[signal.len() - w..].iter().copied());
        out
    }
}

/// FFT-based high-pass filter: zeroes all bins below `cutoff_hz`.
///
/// The window is transformed, bins strictly below the cutoff (and their
/// mirror images) are zeroed, and the window is transformed back. The
/// paper's siren detector opens with a 750 Hz high-pass built this way
/// (§3.7.2).
///
/// # Errors
///
/// Returns [`NonPowerOfTwoError`] if `signal.len()` is not a power of two.
pub fn fft_highpass(
    signal: &[f64],
    cutoff_hz: f64,
    sample_rate_hz: f64,
) -> Result<Vec<f64>, NonPowerOfTwoError> {
    fft::with_plan(signal.len(), |plan| {
        let mut keep = vec![false; signal.len()];
        fill_keep_mask(&mut keep, sample_rate_hz, BandShape::HighPass { cutoff_hz });
        let mut spectrum = Vec::new();
        plan.process_real_forward_into(signal, &mut spectrum);
        for (z, &keep) in spectrum.iter_mut().zip(&keep) {
            if !keep {
                *z = Complex::ZERO;
            }
        }
        plan.process_inverse(&mut spectrum);
        spectrum.iter().map(|z| z.re).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f64, rate: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * freq * i as f64 / rate).sin())
            .collect()
    }

    fn rms(signal: &[f64]) -> f64 {
        (signal.iter().map(|x| x * x).sum::<f64>() / signal.len() as f64).sqrt()
    }

    #[test]
    fn moving_average_rejects_zero_window() {
        assert!(MovingAverage::<f64>::new(0).is_err());
        assert_eq!(
            ZeroWindowError.to_string(),
            "filter window length must be non-zero"
        );
    }

    #[test]
    fn block_filter_is_bit_identical_to_streaming() {
        // Cold-start slice filtering takes the block path;
        // pushing sample-by-sample takes the streaming path. Outputs and
        // the buffered tail must agree bit-for-bit, including when the
        // output count is not a multiple of the block and when the filter is
        // re-used after the block (tail continuity).
        for (w, n) in [(10, 1024), (7, 23), (3, 3), (5, 6), (1, 17)] {
            let signal: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.61).sin() / 3.0).collect();
            let mut block = MovingAverage::new(w).unwrap();
            let mut stream = MovingAverage::new(w).unwrap();
            let got = block.filter(&signal);
            let want: Vec<f64> = signal.iter().filter_map(|&x| stream.push(x)).collect();
            assert_eq!(got.len(), want.len(), "w={w} n={n}");
            for (g, e) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), e.to_bits(), "w={w} n={n}");
            }
            // Continuity: the next pushed sample sees the same window.
            assert_eq!(block.push(0.25), stream.push(0.25), "w={w} n={n}");
        }
    }

    #[test]
    fn warm_filter_keeps_streaming_semantics() {
        // A non-empty buffer must take the per-sample path: outputs
        // spanning the old buffer and the new slice stay correct.
        let mut warm = MovingAverage::new(4).unwrap();
        let mut reference = MovingAverage::new(4).unwrap();
        warm.push(1.0);
        warm.push(2.0);
        reference.push(1.0);
        reference.push(2.0);
        let tail = [3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let got = warm.filter(&tail);
        let want: Vec<f64> = tail.iter().filter_map(|&x| reference.push(x)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn f32_moving_average_runs_at_single_precision() {
        let mut ma = MovingAverage::<f32>::new(2).unwrap();
        assert_eq!(ma.push(1.0), None);
        assert_eq!(ma.push(3.0), Some(2.0));
        assert_eq!(ma.push(5.0), Some(4.0));
    }

    #[test]
    fn moving_average_warms_up_then_averages() {
        let mut ma = MovingAverage::new(4).unwrap();
        assert_eq!(ma.push(1.0), None);
        assert_eq!(ma.push(2.0), None);
        assert_eq!(ma.push(3.0), None);
        assert_eq!(ma.push(4.0), Some(2.5));
        assert_eq!(ma.push(5.0), Some(3.5));
        assert_eq!(ma.window(), 4);
    }

    #[test]
    fn moving_average_window_one_is_identity() {
        let mut ma = MovingAverage::new(1).unwrap();
        for x in [1.0, -3.0, 7.5] {
            assert_eq!(ma.push(x), Some(x));
        }
    }

    #[test]
    fn moving_average_constant_input_is_fixed_point() {
        let mut ma = MovingAverage::new(10).unwrap();
        let out = ma.filter(&vec![4.2; 100]);
        assert_eq!(out.len(), 91);
        assert!(out.iter().all(|&y| (y - 4.2).abs() < 1e-12));
    }

    #[test]
    fn moving_average_reset_forgets_history() {
        let mut ma = MovingAverage::new(2).unwrap();
        ma.push(100.0);
        ma.reset();
        assert_eq!(ma.push(1.0), None);
        assert_eq!(ma.push(3.0), Some(2.0));
    }

    #[test]
    fn moving_average_smooths_oscillation() {
        // A ±1 square wave averaged over an even window cancels to zero.
        let mut ma = MovingAverage::new(2).unwrap();
        let signal: Vec<f64> = (0..20)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let out = ma.filter(&signal);
        assert!(out.iter().all(|&y| y.abs() < 1e-12));
    }

    #[test]
    fn highpass_removes_low_tone_keeps_high_tone() {
        let n = 512;
        let rate = 8000.0;
        let low = tone(250.0, rate, n);
        let high = tone(3000.0, rate, n);
        let mixed: Vec<f64> = low.iter().zip(&high).map(|(a, b)| a + b).collect();
        let filtered = fft_highpass(&mixed, 1000.0, rate).unwrap();
        let residual: Vec<f64> = filtered.iter().zip(&high).map(|(a, b)| a - b).collect();
        assert!(rms(&residual) < 0.05);
    }

    #[test]
    fn highpass_removes_dc() {
        let signal = vec![2.0; 64];
        let filtered = fft_highpass(&signal, 10.0, 1000.0).unwrap();
        for y in filtered {
            assert!(y.abs() < 1e-9);
        }
    }

    #[test]
    fn fft_filters_reject_non_power_of_two() {
        assert!(fft_highpass(&[0.0; 100], 10.0, 1000.0).is_err());
    }
}
