//! Band-shape selection for the MCU core's FFT filters.
//!
//! The paper's hub offers "FFT-based low-pass / high-pass filtering"
//! (§3.6 "Data Filtering"). This module holds the pieces the on-device
//! interpreter needs for it: the [`BandShape`] frequency response and
//! the per-bin keep-mask fill used to build FFT band filters into
//! fixed-capacity storage. The moving averages run inline in the
//! interpreter's node passes; the host's `VecDeque`-backed
//! `MovingAverage` and `Vec`-returning `fft_highpass` live in
//! `sidewinder-dsp`, which re-exports these types.

use crate::fft;

/// The frequency response selecting which bins an FFT band filter keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BandShape {
    /// Keep `freq <= cutoff_hz`.
    LowPass {
        /// Cutoff frequency in Hz (inclusive).
        cutoff_hz: f64,
    },
    /// Keep `freq >= cutoff_hz`.
    HighPass {
        /// Cutoff frequency in Hz (inclusive).
        cutoff_hz: f64,
    },
    /// Keep `low_hz <= freq <= high_hz`.
    BandPass {
        /// Lower edge in Hz (inclusive).
        low_hz: f64,
        /// Upper edge in Hz (inclusive).
        high_hz: f64,
    },
}

impl BandShape {
    /// Whether a bin centered at `freq` Hz is kept by this response.
    pub fn keeps(self, freq: f64) -> bool {
        match self {
            BandShape::LowPass { cutoff_hz } => freq <= cutoff_hz,
            BandShape::HighPass { cutoff_hz } => freq >= cutoff_hz,
            BandShape::BandPass { low_hz, high_hz } => freq >= low_hz && freq <= high_hz,
        }
    }
}

/// Writes the per-bin keep mask for an `out.len()`-point transform into
/// `out`, mirroring bins above `N/2` onto their positive frequencies.
/// The interpreter fills caller-owned storage with it; the host crate's
/// `fft_highpass` fills a `Vec`.
pub fn fill_keep_mask(out: &mut [bool], sample_rate_hz: f64, shape: BandShape) {
    let n = out.len();
    for (bin, slot) in out.iter_mut().enumerate() {
        // Bins above N/2 represent negative frequencies; map to their
        // positive-frequency magnitude for the keep decision.
        let logical_bin = if bin <= n / 2 { bin } else { n - bin };
        *slot = shape.keeps(fft::bin_to_frequency(logical_bin, n, sample_rate_hz));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::vec;

    #[test]
    fn band_shapes_keep_inclusive_edges() {
        let lp = BandShape::LowPass { cutoff_hz: 100.0 };
        assert!(lp.keeps(100.0) && lp.keeps(0.0) && !lp.keeps(100.1));
        let hp = BandShape::HighPass { cutoff_hz: 100.0 };
        assert!(hp.keeps(100.0) && hp.keeps(5000.0) && !hp.keeps(99.9));
        let bp = BandShape::BandPass {
            low_hz: 50.0,
            high_hz: 100.0,
        };
        assert!(bp.keeps(50.0) && bp.keeps(100.0) && bp.keeps(75.0));
        assert!(!bp.keeps(49.9) && !bp.keeps(100.1));
    }

    #[test]
    fn keep_mask_mirrors_negative_frequencies() {
        let mut mask = vec![false; 16];
        fill_keep_mask(&mut mask, 1600.0, BandShape::LowPass { cutoff_hz: 200.0 });
        // 100 Hz per bin: bins 0..=2 kept, plus mirrors 14 and 15.
        for (bin, &kept) in mask.iter().enumerate() {
            let logical = if bin <= 8 { bin } else { 16 - bin };
            assert_eq!(kept, logical <= 2, "bin {bin}");
        }
    }
}
