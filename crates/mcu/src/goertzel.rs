//! Goertzel single-bin DFT evaluation.
//!
//! The paper's §3.8 discusses the trade-off between algorithm complexity and
//! MCU power: the MSP430 could not run a full FFT in real time. The Goertzel
//! algorithm evaluates a *single* DFT bin in O(N) multiplies with O(1)
//! state, making narrow-band detection feasible on the smaller MCU. It is
//! included as one of this reproduction's ablation subjects ("what if the
//! siren detector probed a few bins with Goertzel instead of a full FFT?").
//!
//! Probing K frequencies over one window is K *independent* second-order
//! recurrences reading the same samples, so the batch entry points
//! ([`strongest_of`], [`strongest_magnitude`], [`magnitude_max_and_sum`])
//! interleave up to four probes per pass: each probe's operation order is
//! exactly the single-probe loop's ([`goertzel_power`]), which keeps every
//! power bit-identical to one-at-a-time evaluation while the independent
//! recurrences hide each other's FMA latency.

use crate::math;
use crate::sample::Sample;

/// Probes interleaved per pass over the window.
const PROBE_LANES: usize = 4;

/// Computes the squared magnitude of the DFT of `window` at `freq_hz`.
///
/// Uses the standard Goertzel recurrence with coefficient
/// `2·cos(2πf/fs)`. The result matches `|FFT(window)[k]|²` when `freq_hz`
/// falls exactly on bin `k`. The recurrence runs at the window's
/// precision `P` (the coefficient is computed in `f64` and narrowed
/// once); the closing power is widened to `f64`, which is exact.
///
/// Returns `None` if the window is empty, the sample rate is not positive,
/// or `freq_hz` is negative or above Nyquist.
pub fn goertzel_power<P: Sample>(window: &[P], freq_hz: f64, sample_rate_hz: f64) -> Option<f64> {
    if window.is_empty() || sample_rate_hz <= 0.0 {
        return None;
    }
    if !(0.0..=sample_rate_hz / 2.0).contains(&freq_hz) {
        return None;
    }
    let coeff = probe_coeff::<P>(freq_hz, sample_rate_hz);
    let mut s_prev = P::ZERO;
    let mut s_prev2 = P::ZERO;
    for &x in window {
        let s = x + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    Some(close_power(s_prev, s_prev2, coeff))
}

/// `2·cos(2πf/fs)`, computed in `f64` and narrowed once so the grouped
/// and single-probe paths see identical coefficient bits.
fn probe_coeff<P: Sample>(freq_hz: f64, sample_rate_hz: f64) -> P {
    let omega = 2.0 * core::f64::consts::PI * freq_hz / sample_rate_hz;
    P::from_f64(2.0 * math::cos(omega))
}

/// The closing step shared by every path: `s1² + s2² − c·s1·s2`, widened.
fn close_power<P: Sample>(s_prev: P, s_prev2: P, coeff: P) -> f64 {
    (s_prev * s_prev + s_prev2 * s_prev2 - coeff * s_prev * s_prev2).to_f64()
}

/// Runs every valid probe frequency over `window` and hands each
/// `(probe index, power)` to `each`, in probe order.
///
/// Invalid probes (outside `[0, rate/2]`) are skipped, exactly as
/// [`goertzel_power`] rejects them; per-probe arithmetic is unchanged by
/// the grouping.
fn for_each_power<P: Sample>(
    window: &[P],
    freqs: &[f64],
    sample_rate_hz: f64,
    mut each: impl FnMut(usize, f64),
) {
    if window.is_empty() || sample_rate_hz <= 0.0 {
        return;
    }
    // (probe index, coefficient) staging area; `usize::MAX` marks a
    // padding lane whose (finite) result is discarded.
    let mut group = [(usize::MAX, P::ZERO); PROBE_LANES];
    let mut filled = 0;
    for (i, &f) in freqs.iter().enumerate() {
        if !(0.0..=sample_rate_hz / 2.0).contains(&f) {
            continue;
        }
        group[filled] = (i, probe_coeff::<P>(f, sample_rate_hz));
        filled += 1;
        if filled == PROBE_LANES {
            run_group(window, &group, &mut each);
            group = [(usize::MAX, P::ZERO); PROBE_LANES];
            filled = 0;
        }
    }
    if filled > 0 {
        run_group(window, &group, &mut each);
    }
}

/// One interleaved pass: four independent recurrences share each window
/// read. Padding lanes (index `usize::MAX`, coefficient 0) do harmless
/// finite work and are dropped before the callback.
fn run_group<P: Sample>(
    window: &[P],
    group: &[(usize, P); PROBE_LANES],
    each: &mut impl FnMut(usize, f64),
) {
    let coeff = [group[0].1, group[1].1, group[2].1, group[3].1];
    let mut s_prev = [P::ZERO; PROBE_LANES];
    let mut s_prev2 = [P::ZERO; PROBE_LANES];
    for &x in window {
        for j in 0..PROBE_LANES {
            let s = x + coeff[j] * s_prev[j] - s_prev2[j];
            s_prev2[j] = s_prev[j];
            s_prev[j] = s;
        }
    }
    for j in 0..PROBE_LANES {
        if group[j].0 != usize::MAX {
            each(group[j].0, close_power(s_prev[j], s_prev2[j], coeff[j]));
        }
    }
}

/// Probes a set of frequencies and returns the one with the highest power
/// together with that power. `None` if `freqs` is empty or all probes fail.
///
/// Ties keep the *last* maximal probe and NaN powers compare equal —
/// the `Iterator::max_by` semantics of the original reduction.
pub fn strongest_of<P: Sample>(
    window: &[P],
    freqs: &[f64],
    sample_rate_hz: f64,
) -> Option<(f64, f64)> {
    let mut best: Option<(f64, f64)> = None;
    for_each_power(window, freqs, sample_rate_hz, |i, p| {
        best = match best {
            Some((bf, bp))
                if bp.partial_cmp(&p).unwrap_or(core::cmp::Ordering::Equal)
                    == core::cmp::Ordering::Greater =>
            {
                Some((bf, bp))
            }
            _ => Some((freqs[i], p)),
        };
    });
    best
}

/// Probes a set of frequencies and returns the largest *magnitude*
/// (`power.max(0).sqrt()`), or `None` when no probe is valid.
///
/// Ties keep the *first* maximal probe (strictly-greater update) — the
/// reduction the hub's `goertzel` node performs. `sqrt` is monotonic, so
/// this selects the same probe as a first-max over powers.
pub fn strongest_magnitude<P: Sample>(
    window: &[P],
    freqs: &[f64],
    sample_rate_hz: f64,
) -> Option<f64> {
    let mut best: Option<f64> = None;
    for_each_power(window, freqs, sample_rate_hz, |_, p| {
        let m = math::sqrt(p.max(0.0));
        best = Some(match best {
            Some(b) if m > b => m,
            Some(b) => b,
            None => m,
        });
    });
    best
}

/// Probes a set of frequencies and returns `(max, sum)` over their
/// magnitudes (`power.max(0).sqrt()` each) — the reduction behind the
/// strength-reduced dominant-ratio node, which needs both the peak and
/// the in-band total. The max uses a strictly-greater (first-max)
/// update and the sum accumulates in probe order, so the grouped
/// passes are bit-identical to one-at-a-time probing. `None`
/// when no probe is valid.
pub fn magnitude_max_and_sum<P: Sample>(
    window: &[P],
    freqs: &[f64],
    sample_rate_hz: f64,
) -> Option<(f64, f64)> {
    let mut best: Option<(f64, f64)> = None;
    for_each_power(window, freqs, sample_rate_hz, |_, p| {
        let m = math::sqrt(p.max(0.0));
        best = Some(match best {
            Some((mx, sum)) => (if m > mx { m } else { mx }, sum + m),
            None => (m, m),
        });
    });
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::vec;
    use std::vec::Vec;

    fn tone(freq: f64, rate: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * core::f64::consts::PI * freq * i as f64 / rate).sin())
            .collect()
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(goertzel_power::<f64>(&[], 100.0, 8000.0).is_none());
        assert!(goertzel_power(&[1.0], 100.0, 0.0).is_none());
        assert!(goertzel_power(&[1.0], -5.0, 8000.0).is_none());
        assert!(goertzel_power(&[1.0], 4001.0, 8000.0).is_none());
    }

    #[test]
    fn detects_present_tone_rejects_absent() {
        let n = 512;
        let rate = 8000.0;
        let signal = tone(1000.0, rate, n);
        let present = goertzel_power(&signal, 1000.0, rate).unwrap();
        let absent = goertzel_power(&signal, 2500.0, rate).unwrap();
        assert!(present > 100.0 * absent.max(1e-12));
    }

    #[test]
    fn strongest_of_picks_the_tone() {
        let signal = tone(1200.0, 8000.0, 512);
        let (f, _) = strongest_of(&signal, &[800.0, 1200.0, 1600.0], 8000.0).unwrap();
        assert_eq!(f, 1200.0);
        assert!(strongest_of(&signal, &[], 8000.0).is_none());
    }

    #[test]
    fn grouped_powers_are_bit_identical_to_single_probes() {
        // 5 valid probes + 1 invalid: exercises a full group of 4, a
        // padded remainder group, and the skip path.
        let rate = 8000.0;
        let w = tone(1200.0, rate, 333);
        let freqs = [850.0, 985.0, 9000.0, 1120.0, 1255.0, 1390.0];
        let mut grouped = Vec::new();
        for_each_power(&w, &freqs, rate, |i, p| grouped.push((i, p)));
        let singles: Vec<(usize, f64)> = freqs
            .iter()
            .enumerate()
            .filter_map(|(i, &f)| goertzel_power(&w, f, rate).map(|p| (i, p)))
            .collect();
        assert_eq!(grouped.len(), singles.len());
        for (g, s) in grouped.iter().zip(&singles) {
            assert_eq!(g.0, s.0);
            assert_eq!(g.1.to_bits(), s.1.to_bits(), "probe {}", g.0);
        }
    }

    #[test]
    fn strongest_magnitude_takes_the_first_of_tied_probes() {
        // A constant-zero window powers every probe at exactly 0; the
        // strictly-greater fold keeps the first.
        let w = vec![0.0f64; 64];
        let m = strongest_magnitude(&w, &[100.0, 200.0, 300.0], 8000.0).unwrap();
        assert_eq!(m, 0.0);
        // And on a tone it agrees with strongest_of's argmax.
        let rate = 8000.0;
        let w = tone(1200.0, rate, 1024);
        let freqs: Vec<f64> = (0..8).map(|i| 850.0 + 135.0 * i as f64).collect();
        let (_, p) = strongest_of(&w, &freqs, rate).unwrap();
        let m = strongest_magnitude(&w, &freqs, rate).unwrap();
        assert_eq!(m.to_bits(), p.max(0.0).sqrt().to_bits());
    }

    #[test]
    fn max_and_sum_agree_with_single_probe_reductions() {
        let rate = 8000.0;
        let w = tone(1200.0, rate, 512);
        let freqs: Vec<f64> = (0..6).map(|i| 850.0 + 135.0 * i as f64).collect();
        let (mx, sum) = magnitude_max_and_sum(&w, &freqs, rate).unwrap();
        let singles: Vec<f64> = freqs
            .iter()
            .filter_map(|&f| goertzel_power(&w, f, rate).map(|p| p.max(0.0).sqrt()))
            .collect();
        let naive_max = singles.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let naive_sum: f64 = singles.iter().sum();
        assert_eq!(mx.to_bits(), naive_max.to_bits());
        assert_eq!(sum.to_bits(), naive_sum.to_bits());
        assert!(magnitude_max_and_sum(&w, &[], rate).is_none());
    }

    #[test]
    fn f32_probe_tracks_f64_within_single_precision() {
        let rate = 8000.0;
        let wide = tone(1200.0, rate, 512);
        let narrow: Vec<f32> = wide.iter().map(|&x| x as f32).collect();
        let p64 = goertzel_power(&wide, 1200.0, rate).unwrap();
        let p32 = goertzel_power(&narrow, 1200.0, rate).unwrap();
        // The marginally-stable recurrence amplifies rounding by ~n^1.5,
        // so budget ~512^1.5·ε_f32 ≈ 1.4e-3 relative, with headroom.
        assert!(
            (p32 - p64).abs() < 1e-2 * p64.abs().max(1.0),
            "f32 {p32} vs f64 {p64}"
        );
    }
}
