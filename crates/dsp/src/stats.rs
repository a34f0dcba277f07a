//! Statistical feature extraction.
//!
//! The paper's hub ships "a set of statistical functions" for feature
//! extraction (§3.6). The music-journal and phrase-detection wake-up
//! conditions use the variance of window amplitude and the variance of
//! per-sub-window zero-crossing rates (§3.7.2); those reductions are built
//! from these kernels.
//!
//! The flat reduction kernels ([`Summary`], [`variance`], [`mean_abs`],
//! …) live in `sidewinder-mcu` — they are exactly what the on-device
//! interpreter runs — and are re-exported here with their documented
//! length-dependent reduction order (DESIGN.md §6h) intact. The
//! `Vec`-returning local-extrema searches the steps/headbutt
//! applications use stay host-side below.

pub use sidewinder_mcu::stats::*;

/// Indices of local maxima whose value lies within `[lo, hi]`.
///
/// A sample is a local maximum when strictly greater than its predecessor
/// and at least its successor (plateaus credit their first sample). The
/// steps application detects steps as band-limited local maxima of low-pass
/// filtered x-axis acceleration (§3.7.1, after Libby's algorithm).
pub fn local_maxima_in_band(signal: &[f64], lo: f64, hi: f64) -> Vec<usize> {
    let mut out = Vec::new();
    for i in 1..signal.len().saturating_sub(1) {
        if signal[i] > signal[i - 1]
            && signal[i] >= signal[i + 1]
            && signal[i] >= lo
            && signal[i] <= hi
        {
            out.push(i);
        }
    }
    out
}

/// Indices of local minima whose value lies within `[lo, hi]`.
///
/// The headbutt application searches for y-axis local minima between
/// −6.75 and −3.75 m/s² (§3.7.1).
pub fn local_minima_in_band(signal: &[f64], lo: f64, hi: f64) -> Vec<usize> {
    // The mirror of `local_maxima_in_band` with flipped comparisons —
    // equivalent to negating the signal and band, without the copy.
    let mut out = Vec::new();
    for i in 1..signal.len().saturating_sub(1) {
        if signal[i] < signal[i - 1]
            && signal[i] <= signal[i + 1]
            && signal[i] >= lo
            && signal[i] <= hi
        {
            out.push(i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn finds_local_maxima_in_band() {
        //            0    1    2    3    4    5    6
        let signal = [0.0, 3.0, 1.0, 5.0, 2.0, 9.0, 0.0];
        assert_eq!(local_maxima_in_band(&signal, 0.0, 10.0), vec![1, 3, 5]);
        // Band filter drops the 9.0 peak.
        assert_eq!(local_maxima_in_band(&signal, 2.5, 6.0), vec![1, 3]);
    }

    #[test]
    fn plateau_counts_once() {
        let signal = [0.0, 2.0, 2.0, 0.0];
        assert_eq!(local_maxima_in_band(&signal, 0.0, 10.0), vec![1]);
    }

    #[test]
    fn endpoints_are_never_maxima() {
        let signal = [9.0, 1.0, 9.0];
        assert!(local_maxima_in_band(&signal, 0.0, 10.0).is_empty());
    }

    #[test]
    fn finds_local_minima_in_band() {
        let signal = [0.0, -5.0, 0.0, -2.0, 0.0];
        assert_eq!(local_minima_in_band(&signal, -6.0, -1.0), vec![1, 3]);
        assert_eq!(local_minima_in_band(&signal, -3.0, -1.0), vec![3]);
    }

    #[test]
    fn short_signals_have_no_extrema() {
        assert!(local_maxima_in_band(&[], 0.0, 1.0).is_empty());
        assert!(local_maxima_in_band(&[1.0], 0.0, 2.0).is_empty());
        assert!(local_maxima_in_band(&[1.0, 2.0], 0.0, 3.0).is_empty());
    }
}
