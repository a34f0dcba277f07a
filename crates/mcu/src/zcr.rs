//! Zero-crossing rate computation.
//!
//! ZCR is the rate at which a signal changes sign. The paper's music-journal
//! and phrase-detection wake-up conditions partition each window into
//! sub-windows, compute the ZCR of each, and threshold the variance of those
//! rates (§3.7.2): speech alternates voiced (low ZCR) and unvoiced
//! (high ZCR) segments and therefore has high ZCR variance, while music and
//! steady noise are more uniform.
//!
//! [`sub_window_zcr_into`] splits a window into a caller-provided scratch
//! slice; the host crate's `Vec`-returning `sub_window_zcr` is built on
//! it, so both feed the variance the identical rates.

use crate::sample::Sample;

/// Chunk width of the vectorized crossing counter. Chunks whose samples
/// are all strictly signed take the branch-free path; chunks containing
/// zeros or NaNs fall back to the per-sample state machine. The count is
/// an integer either way, so the chunking never changes the result.
const ZCR_CHUNK: usize = 64;

/// Counts sign changes in `window`.
///
/// A crossing is counted when consecutive samples have strictly opposite
/// signs; zeros adopt the sign of the previous non-zero sample so that a
/// touch of zero is not double counted.
///
/// # NaN policy
///
/// A NaN sample compares neither above nor below zero, so it behaves
/// exactly like a zero: it keeps the previous sign and can never flip it
/// or count as a crossing (consistent with `lint` SW004 — NaN flows
/// through reductions without panicking and cannot inflate the count).
pub fn zero_crossings<P: Sample>(window: &[P]) -> usize {
    let mut count = 0;
    let mut prev_sign = 0i8;
    for chunk in window.chunks(ZCR_CHUNK) {
        // "Clean" = every sample strictly signed: no zeros, no NaNs.
        // An AND-reduction of two compares, which vectorizes.
        let mut clean = true;
        for &x in chunk {
            clean &= (x > P::ZERO) | (x < P::ZERO);
        }
        if clean {
            let first_neg = chunk[0] < P::ZERO;
            if prev_sign != 0 && first_neg != (prev_sign < 0) {
                count += 1;
            }
            // Interior crossings: adjacent pairs with unequal signs.
            // Pure integer work once the compares become masks.
            let mut interior = 0usize;
            for i in 1..chunk.len() {
                interior += usize::from((chunk[i] < P::ZERO) != (chunk[i - 1] < P::ZERO));
            }
            count += interior;
            prev_sign = if chunk[chunk.len() - 1] < P::ZERO {
                -1
            } else {
                1
            };
        } else {
            for &x in chunk {
                step(x, &mut prev_sign, &mut count);
            }
        }
    }
    count
}

/// The original per-sample sign state machine; the chunked path defers
/// to it whenever a chunk contains zeros or NaNs. Public so differential
/// tests and fuzz targets can replay it against the chunked counter.
#[inline]
pub fn step<P: Sample>(x: P, prev_sign: &mut i8, count: &mut usize) {
    let sign = if x > P::ZERO {
        1
    } else if x < P::ZERO {
        -1
    } else {
        *prev_sign
    };
    if *prev_sign != 0 && sign != 0 && sign != *prev_sign {
        *count += 1;
    }
    if sign != 0 {
        *prev_sign = sign;
    }
}

/// Zero-crossing rate: crossings per sample, in `[0, 1]`.
///
/// Returns `None` for windows with fewer than two samples.
pub fn zero_crossing_rate<P: Sample>(window: &[P]) -> Option<P> {
    if window.len() < 2 {
        return None;
    }
    Some(P::from_usize(zero_crossings(window)) / P::from_usize(window.len() - 1))
}

/// Splits `window` into `sub_windows` equal parts and writes each part's
/// zero-crossing rate into `scratch[..sub_windows]`, returning that
/// prefix. Trailing samples that do not fill the last sub-window are
/// ignored, as in the paper's streaming implementation.
///
/// Returns `None` if `sub_windows` is zero, the window is too short to
/// give every sub-window two samples, or `scratch` is too small.
pub fn sub_window_zcr_into<'a, P: Sample>(
    window: &[P],
    sub_windows: usize,
    scratch: &'a mut [P],
) -> Option<&'a [P]> {
    if sub_windows == 0 || scratch.len() < sub_windows {
        return None;
    }
    let sub_len = window.len() / sub_windows;
    if sub_len < 2 {
        return None;
    }
    for (k, slot) in scratch[..sub_windows].iter_mut().enumerate() {
        *slot = zero_crossing_rate(&window[k * sub_len..(k + 1) * sub_len])
            .expect("sub-window length checked >= 2");
    }
    Some(&scratch[..sub_windows])
}

/// Variance of sub-window zero-crossing rates through a caller-provided
/// scratch slice — the feature the music and phrase wake-up conditions
/// threshold (§3.7.2), as computed on the MCU core.
pub fn zcr_variance_into<P: Sample>(
    window: &[P],
    sub_windows: usize,
    scratch: &mut [P],
) -> Option<P> {
    let rates = sub_window_zcr_into(window, sub_windows, scratch)?;
    crate::stats::variance(rates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::vec::Vec;

    #[test]
    fn constant_signal_never_crosses() {
        assert_eq!(zero_crossings(&[1.0; 10]), 0);
        assert_eq!(zero_crossings(&[-1.0; 10]), 0);
        assert_eq!(zero_crossings(&[0.0; 10]), 0);
    }

    #[test]
    fn alternating_signal_crosses_every_sample() {
        let signal = [1.0, -1.0, 1.0, -1.0, 1.0];
        assert_eq!(zero_crossings(&signal), 4);
        assert_eq!(zero_crossing_rate(&signal), Some(1.0));
    }

    #[test]
    fn zeros_do_not_double_count() {
        // +1 → 0 → −1 is one crossing, not two.
        assert_eq!(zero_crossings(&[1.0, 0.0, -1.0]), 1);
        // +1 → 0 → +1 is no crossing.
        assert_eq!(zero_crossings(&[1.0, 0.0, 1.0]), 0);
    }

    #[test]
    fn leading_zeros_are_ignored() {
        assert_eq!(zero_crossings(&[0.0, 0.0, 1.0, -1.0]), 1);
    }

    #[test]
    fn nan_behaves_like_zero() {
        // NaN keeps the previous sign: one crossing, same as a zero.
        assert_eq!(zero_crossings(&[1.0, f64::NAN, -1.0]), 1);
        assert_eq!(zero_crossings(&[1.0, f64::NAN, 1.0]), 0);
        // Leading NaNs, like leading zeros, never count.
        assert_eq!(zero_crossings(&[f64::NAN, -1.0, 1.0]), 1);
        assert_eq!(zero_crossings(&[f64::NAN; 16]), 0);
    }

    #[test]
    fn chunked_count_matches_serial_state_machine() {
        // Straddle several chunk boundaries with a messy signal that
        // mixes clean runs, zeros, and NaN so both paths execute.
        let signal: Vec<f64> = (0..1000)
            .map(|i| match i % 97 {
                0 => 0.0,
                1 => f64::NAN,
                _ => ((i as f64) * 0.73).sin() - 0.1,
            })
            .collect();
        let mut count = 0;
        let mut prev_sign = 0i8;
        for &x in &signal {
            step(x, &mut prev_sign, &mut count);
        }
        assert_eq!(zero_crossings(&signal), count);
    }

    #[test]
    fn f32_counts_match_f64_on_clean_signals() {
        let wide: Vec<f64> = (0..2048).map(|i| ((i as f64) * 0.37).sin() + 0.2).collect();
        let narrow: Vec<f32> = wide.iter().map(|&x| x as f32).collect();
        assert_eq!(zero_crossings(&wide), zero_crossings(&narrow));
    }

    #[test]
    fn rate_needs_two_samples() {
        assert_eq!(zero_crossing_rate::<f64>(&[]), None);
        assert_eq!(zero_crossing_rate(&[1.0]), None);
    }

    #[test]
    fn sub_window_zcr_into_partitions() {
        // First half alternates (rate 1), second half constant (rate 0).
        let mut signal = [1.0f64; 16];
        for (i, s) in signal.iter_mut().take(8).enumerate() {
            *s = if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        let mut scratch = [0.0f64; 4];
        let rates = sub_window_zcr_into(&signal, 2, &mut scratch).unwrap();
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 1.0).abs() < 1e-12);
        assert_eq!(rates[1], 0.0);
    }

    #[test]
    fn sub_window_zcr_into_rejects_degenerate_splits() {
        let mut scratch = [0.0f64; 4];
        assert!(sub_window_zcr_into(&[1.0, -1.0], 0, &mut scratch).is_none());
        assert!(sub_window_zcr_into(&[1.0, -1.0, 1.0], 2, &mut scratch).is_none());
        // Scratch shorter than the requested sub-window count.
        assert!(sub_window_zcr_into(&[1.0f64; 64], 8, &mut scratch).is_none());
    }

    #[test]
    fn zcr_variance_into_matches_manual_variance() {
        let signal: Vec<f64> = (0..1600)
            .map(|i| {
                let f = if (i / 200) % 2 == 0 { 150.0 } else { 2500.0 };
                (2.0 * core::f64::consts::PI * f * i as f64 / 8000.0).sin()
            })
            .collect();
        let mut scratch = [0.0f64; 8];
        let v = zcr_variance_into(&signal, 8, &mut scratch).unwrap();
        let rates: Vec<f64> = (0..8)
            .map(|k| zero_crossing_rate(&signal[k * 200..(k + 1) * 200]).unwrap())
            .collect();
        assert_eq!(
            v.to_bits(),
            crate::stats::variance(&rates).unwrap().to_bits()
        );
    }
}
