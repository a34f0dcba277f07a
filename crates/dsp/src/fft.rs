//! Radix-2 Fast Fourier Transform and its inverse.
//!
//! The paper's hub runtime provides FFT and IFFT as platform algorithms
//! (§3.6 "Transform"). The evaluation also leans on the FFT's cost: the
//! MSP430 microcontroller could not run FFT-based stages in real time,
//! forcing siren detection onto the larger LM4F120 (§4, Table 2 footnote).
//! These kernels are therefore both a substrate and a measurement target.
//!
//! The implementation is an iterative, in-place, decimation-in-time radix-2
//! transform. Input lengths must be powers of two; the hub-side windowing
//! stage guarantees that in practice.
//!
//! Because the hub replays hours of sensor traces window by window at a
//! fixed transform length, the twiddle factors and the bit-reversal
//! permutation are worth computing once: [`FftPlan`] precomputes both and
//! applies them with in-place `process` passes. The plan's butterflies use
//! the exact twiddle values the direct kernel would compute (the same
//! `w *= wlen` recurrence, tabulated), so planned and direct transforms are
//! bit-identical. The module-level entry points ([`fft_in_place`],
//! [`ifft_in_place`], [`real_fft`], [`real_fft_magnitudes`]) route through
//! a per-thread plan cache keyed by transform length.

use crate::complex::Complex;
use std::cell::RefCell;
use std::rc::Rc;

// The transform primitives — the error type, the length predicate, the
// bin/frequency conversions, the swap/twiddle generators, and the
// reference kernel — live in `sidewinder-mcu` so the on-device
// interpreter shares them; re-export them under their historical paths.
use sidewinder_mcu::fft as mcu_fft;
pub use sidewinder_mcu::fft::{
    bin_to_frequency, check_len, is_power_of_two, transform, NonPowerOfTwoError,
};

/// Performs an in-place forward FFT.
///
/// The transform is unscaled: `ifft` applies the `1/N` factor so that a
/// round trip reproduces the input.
///
/// # Errors
///
/// Returns [`NonPowerOfTwoError`] if `data.len()` is zero or not a power of
/// two.
///
/// # Example
///
/// ```
/// use sidewinder_dsp::{fft, Complex};
///
/// let mut data = vec![Complex::ONE; 8];
/// fft::fft_in_place(&mut data)?;
/// // A constant signal concentrates all energy in bin 0.
/// assert!((data[0].re - 8.0).abs() < 1e-12);
/// assert!(data[1..].iter().all(|z| z.magnitude() < 1e-12));
/// # Ok::<(), sidewinder_dsp::fft::NonPowerOfTwoError>(())
/// ```
pub fn fft_in_place(data: &mut [Complex]) -> Result<(), NonPowerOfTwoError> {
    with_plan(data.len(), |plan| plan.process_forward(data))
}

/// Performs an in-place inverse FFT, including the `1/N` normalization.
///
/// # Errors
///
/// Returns [`NonPowerOfTwoError`] if `data.len()` is zero or not a power of
/// two.
pub fn ifft_in_place(data: &mut [Complex]) -> Result<(), NonPowerOfTwoError> {
    with_plan(data.len(), |plan| plan.process_inverse(data))
}

/// Forward FFT of a real signal, returning the full complex spectrum.
///
/// # Errors
///
/// Returns [`NonPowerOfTwoError`] if `signal.len()` is zero or not a power
/// of two.
pub fn real_fft(signal: &[f64]) -> Result<Vec<Complex>, NonPowerOfTwoError> {
    with_plan(signal.len(), |plan| {
        let mut data = Vec::new();
        plan.process_real_forward_into(signal, &mut data);
        data
    })
}

/// Forward FFT of a real signal reduced to one-sided magnitudes.
///
/// Returns `N/2 + 1` magnitudes covering DC through the Nyquist bin. This is
/// the representation the hub's feature-extraction stages consume.
///
/// # Panics
///
/// Panics if `signal.len()` is zero or not a power of two. The hub-side
/// windowing stage guarantees power-of-two windows; use [`real_fft`] for a
/// fallible variant.
pub fn real_fft_magnitudes(signal: &[f64]) -> Vec<f64> {
    let spectrum = real_fft(signal).expect("window length must be a non-zero power of two");
    spectrum[..=signal.len() / 2]
        .iter()
        .map(|z| z.magnitude())
        .collect()
}

/// A precomputed radix-2 FFT plan for one transform length.
///
/// Building a plan tabulates the bit-reversal swap list and the per-stage
/// twiddle factors; [`FftPlan::process_forward`] and
/// [`FftPlan::process_inverse`] then run the butterfly passes with table
/// lookups instead of recomputing `e^{±2πik/len}` per chunk. The tables are
/// generated with the same `w *= wlen` recurrence the direct
/// [`transform`] kernel uses, so a planned transform is bit-identical to
/// the direct one.
///
/// # Example
///
/// ```
/// use sidewinder_dsp::{fft::FftPlan, Complex};
///
/// let plan = FftPlan::new(8)?;
/// let mut data = vec![Complex::ONE; 8];
/// plan.process_forward(&mut data);
/// assert!((data[0].re - 8.0).abs() < 1e-12);
/// # Ok::<(), sidewinder_dsp::fft::NonPowerOfTwoError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FftPlan {
    len: usize,
    /// Bit-reversal swaps `(i, j)` with `j > i`.
    swaps: Vec<(u32, u32)>,
    /// Forward twiddles, stages concatenated: `len/2` entries for stage 2,
    /// then stage 4, … — `len - 1` entries total.
    forward: Vec<Complex>,
    /// Inverse twiddles in the same layout.
    inverse: Vec<Complex>,
}

impl FftPlan {
    /// Precomputes a plan for `len`-point transforms.
    ///
    /// # Errors
    ///
    /// Returns [`NonPowerOfTwoError`] if `len` is zero or not a power of
    /// two.
    pub fn new(len: usize) -> Result<FftPlan, NonPowerOfTwoError> {
        check_len(len)?;
        let mut swaps = Vec::with_capacity(mcu_fft::swap_count(len));
        mcu_fft::for_each_swap(len, |i, j| swaps.push((i, j)));
        Ok(FftPlan {
            len,
            swaps,
            forward: twiddle_table(len, -1.0),
            inverse: twiddle_table(len, 1.0),
        })
    }

    /// The transform length this plan serves.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` only for the degenerate one-point plan.
    pub fn is_empty(&self) -> bool {
        self.len <= 1
    }

    /// In-place forward FFT (unscaled, like [`fft_in_place`]).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan length.
    pub fn process_forward(&self, data: &mut [Complex]) {
        self.run(data, &self.forward);
    }

    /// In-place inverse FFT including the `1/N` normalization.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan length.
    pub fn process_inverse(&self, data: &mut [Complex]) {
        self.run(data, &self.inverse);
        mcu_fft::scale_inverse(data);
    }

    /// Forward FFT of a real signal written into `out` (cleared first).
    ///
    /// The caller owns `out`, so steady-state reuse performs no heap
    /// allocation once the buffer has grown to the plan length.
    ///
    /// # Panics
    ///
    /// Panics if `signal.len()` differs from the plan length.
    pub fn process_real_forward_into(&self, signal: &[f64], out: &mut Vec<Complex>) {
        assert_eq!(signal.len(), self.len, "signal length != plan length");
        out.clear();
        out.extend(signal.iter().map(|&x| Complex::from_real(x)));
        self.process_forward(out);
    }

    /// Shared butterfly driver over a twiddle table.
    fn run(&self, data: &mut [Complex], twiddles: &[Complex]) {
        assert_eq!(data.len(), self.len, "data length != plan length");
        mcu_fft::run_butterflies(data, &self.swaps, twiddles);
    }
}

/// Tabulates the per-stage twiddle factors with the exact recurrence the
/// direct kernel uses (`w` starts at 1 and is repeatedly multiplied by
/// `wlen`), preserving bit-for-bit output equality.
fn twiddle_table(n: usize, sign: f64) -> Vec<Complex> {
    let mut table = Vec::with_capacity(mcu_fft::twiddle_count(n));
    mcu_fft::for_each_twiddle(n, sign, |w| table.push(w));
    table
}

thread_local! {
    /// Per-thread plan cache, indexed by `log2(len)`. Plans are immutable
    /// and shared by `Rc`, so nested `with_plan` calls are fine.
    static PLAN_CACHE: RefCell<Vec<Option<Rc<FftPlan>>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with the cached plan for `len`, building it on first use.
///
/// # Errors
///
/// Returns [`NonPowerOfTwoError`] if `len` is zero or not a power of two.
pub fn with_plan<R>(len: usize, f: impl FnOnce(&FftPlan) -> R) -> Result<R, NonPowerOfTwoError> {
    check_len(len)?;
    let slot = len.trailing_zeros() as usize;
    let plan = PLAN_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.len() <= slot {
            cache.resize(slot + 1, None);
        }
        match &cache[slot] {
            Some(plan) => Rc::clone(plan),
            None => {
                let plan = Rc::new(FftPlan::new(len).expect("length checked"));
                cache[slot] = Some(Rc::clone(&plan));
                plan
            }
        }
    });
    Ok(f(&plan))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} !~ {b}");
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut data = vec![Complex::ZERO; 12];
        assert_eq!(fft_in_place(&mut data), Err(NonPowerOfTwoError { len: 12 }));
        assert!(real_fft(&[0.0; 7]).is_err());
        assert!(real_fft(&[]).is_err());
    }

    #[test]
    fn error_display_mentions_length() {
        let msg = NonPowerOfTwoError { len: 12 }.to_string();
        assert!(msg.contains("12"));
    }

    #[test]
    fn single_element_is_identity() {
        let mut data = vec![Complex::new(4.2, -1.0)];
        fft_in_place(&mut data).unwrap();
        assert_eq!(data[0], Complex::new(4.2, -1.0));
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut data = vec![Complex::ZERO; 16];
        data[0] = Complex::ONE;
        fft_in_place(&mut data).unwrap();
        for z in &data {
            assert_close(z.re, 1.0, 1e-12);
            assert_close(z.im, 0.0, 1e-12);
        }
    }

    #[test]
    fn constant_signal_concentrates_in_dc() {
        let spectrum = real_fft(&[3.0; 32]).unwrap();
        assert_close(spectrum[0].re, 96.0, 1e-9);
        for z in &spectrum[1..] {
            assert!(z.magnitude() < 1e-9);
        }
    }

    #[test]
    fn pure_tone_peaks_at_its_bin() {
        let n = 128;
        let rate = 1000.0;
        let f = 125.0; // exactly bin 16
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / rate).cos())
            .collect();
        let mags = real_fft_magnitudes(&signal);
        let bin = 16;
        assert_eq!(bin_to_frequency(bin, n, rate), f);
        let (peak_bin, _) = rank_peak(&mags).unwrap();
        assert_eq!(peak_bin, bin);
        // A unit-amplitude cosine carries N/2 magnitude in its bin.
        assert_close(mags[bin], n as f64 / 2.0, 1e-9);
    }

    /// Largest-magnitude bin with a NaN-total ordering (the comparison
    /// `dsp::spectral::dominant_bin` uses): a NaN anywhere in the spectrum
    /// must not panic the ranking.
    fn rank_peak(mags: &[f64]) -> Option<(usize, f64)> {
        mags.iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }

    #[test]
    fn magnitude_ranking_survives_nan() {
        // A corrupted sample can push a NaN through the whole transform;
        // ranking with a partial order would panic here.
        let mags = [1.0, f64::NAN, 7.0, 3.0];
        let (peak_bin, peak) = rank_peak(&mags).unwrap();
        assert_eq!(peak_bin, 2);
        assert_eq!(peak, 7.0);
        assert!(rank_peak(&[f64::NAN, f64::NAN]).is_some());
        assert!(rank_peak(&[]).is_none());
    }

    #[test]
    fn fft_ifft_round_trip_recovers_signal() {
        let n = 64;
        let original: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut data = original.clone();
        fft_in_place(&mut data).unwrap();
        ifft_in_place(&mut data).unwrap();
        for (a, b) in data.iter().zip(&original) {
            assert_close(a.re, b.re, 1e-10);
            assert_close(a.im, b.im, 1e-10);
        }
    }

    #[test]
    fn linearity_of_transform() {
        let n = 32;
        let x: Vec<Complex> = (0..n).map(|i| Complex::from_real(i as f64)).collect();
        let y: Vec<Complex> = (0..n)
            .map(|i| Complex::from_real((i as f64).sqrt()))
            .collect();
        let mut fx = x.clone();
        let mut fy = y.clone();
        let mut fxy: Vec<Complex> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        fft_in_place(&mut fx).unwrap();
        fft_in_place(&mut fy).unwrap();
        fft_in_place(&mut fxy).unwrap();
        for i in 0..n {
            let sum = fx[i] + fy[i];
            assert_close(fxy[i].re, sum.re, 1e-9);
            assert_close(fxy[i].im, sum.im, 1e-9);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 64;
        let signal: Vec<f64> = (0..n).map(|i| ((i * i) as f64 * 0.01).sin()).collect();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let spectrum = real_fft(&signal).unwrap();
        let freq_energy: f64 =
            spectrum.iter().map(|z| z.magnitude_squared()).sum::<f64>() / n as f64;
        assert_close(time_energy, freq_energy, 1e-9);
    }

    #[test]
    fn one_sided_magnitudes_have_expected_length() {
        assert_eq!(real_fft_magnitudes(&[0.0; 16]).len(), 9);
        assert_eq!(real_fft_magnitudes(&[0.0; 2]).len(), 2);
    }
}
