//! Zero-crossing rate computation.
//!
//! ZCR is the rate at which a signal changes sign. The paper's music-journal
//! and phrase-detection wake-up conditions partition each window into
//! sub-windows, compute the ZCR of each, and threshold the variance of those
//! rates (§3.7.2): speech alternates voiced (low ZCR) and unvoiced
//! (high ZCR) segments and therefore has high ZCR variance, while music and
//! steady noise are more uniform.
//!
//! The counting kernels and the scratch-buffer (`_into`) variants live in
//! `sidewinder-mcu`; the `Vec`-returning conveniences below wrap
//! [`sub_window_zcr_into`] for host-side callers.

use crate::sample::Sample;

pub use sidewinder_mcu::zcr::*;

/// Splits `window` into `sub_windows` equal parts and returns each part's
/// zero-crossing rate.
///
/// Trailing samples that do not fill the last sub-window are ignored, as in
/// the paper's streaming implementation. Returns `None` if `sub_windows` is
/// zero or the window is too short to give every sub-window two samples.
pub fn sub_window_zcr<P: Sample>(window: &[P], sub_windows: usize) -> Option<Vec<P>> {
    // A split into more than `len / 2` parts is rejected, so the buffer
    // never needs to be longer than that.
    let mut rates = vec![P::ZERO; sub_windows.min(window.len() / 2)];
    sub_window_zcr_into(window, sub_windows, &mut rates)?;
    Some(rates)
}

/// Variance of sub-window zero-crossing rates — the feature the music and
/// phrase wake-up conditions threshold (§3.7.2).
pub fn zcr_variance<P: Sample>(window: &[P], sub_windows: usize) -> Option<P> {
    let rates = sub_window_zcr(window, sub_windows)?;
    crate::stats::variance(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tone_zcr_tracks_frequency() {
        // A 100 Hz sine at 8 kHz crosses zero 2·100 times per second, i.e.
        // rate ≈ 200/8000 = 0.025.
        let rate_hz = 8000.0;
        let f = 100.0;
        let signal: Vec<f64> = (0..8000)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / rate_hz).sin())
            .collect();
        let zcr = zero_crossing_rate(&signal).unwrap();
        assert!((zcr - 0.025).abs() < 0.002, "zcr = {zcr}");
    }

    #[test]
    fn sub_window_zcr_partitions() {
        // First half alternates (rate 1), second half constant (rate 0).
        let mut signal = vec![];
        for i in 0..8 {
            signal.push(if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        signal.extend(std::iter::repeat_n(1.0, 8));
        let rates = sub_window_zcr(&signal, 2).unwrap();
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 1.0).abs() < 1e-12);
        assert_eq!(rates[1], 0.0);
    }

    #[test]
    fn sub_window_zcr_rejects_degenerate_splits() {
        assert!(sub_window_zcr(&[1.0, -1.0], 0).is_none());
        assert!(sub_window_zcr(&[1.0, -1.0, 1.0], 2).is_none());
        assert!(sub_window_zcr(&[1.0; 8], usize::MAX).is_none());
    }

    #[test]
    fn zcr_variance_separates_speechlike_from_tone() {
        let rate_hz = 8000.0;
        let n = 1600;
        // Speech-like: alternate voiced (low freq) and unvoiced (high freq)
        // sub-segments.
        let speechish: Vec<f64> = (0..n)
            .map(|i| {
                let f = if (i / 200) % 2 == 0 { 150.0 } else { 2500.0 };
                (2.0 * std::f64::consts::PI * f * i as f64 / rate_hz).sin()
            })
            .collect();
        // Tone: single frequency throughout.
        let tone: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * 440.0 * i as f64 / rate_hz).sin())
            .collect();
        let v_speech = zcr_variance(&speechish, 8).unwrap();
        let v_tone = zcr_variance(&tone, 8).unwrap();
        assert!(
            v_speech > 10.0 * v_tone.max(1e-9),
            "speech zcr var {v_speech} should dominate tone {v_tone}"
        );
    }
}
