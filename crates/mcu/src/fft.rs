//! Radix-2 FFT kernels shared by the host plans and the MCU core.
//!
//! The host crate (`sidewinder-dsp`) owns the `Vec`-backed [`FftPlan`]
//! and its per-thread cache; this module owns the allocation-free pieces
//! they are built from: the bit-reversal swap enumeration, the twiddle
//! recurrence, and the butterfly driver that consumes precomputed tables.
//! Both the host plan and the MCU interpreter call the same
//! [`run_butterflies`] body, so planned transforms are bit-identical no
//! matter which side runs them.
//!
//! [`FftPlan`]: https://docs.rs/sidewinder-dsp

use crate::complex::Complex;

/// Error returned when a transform is given a length that is not a power of
/// two (or is zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonPowerOfTwoError {
    /// The offending length.
    pub len: usize,
}

impl core::fmt::Display for NonPowerOfTwoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "transform length {} is not a non-zero power of two",
            self.len
        )
    }
}

impl core::error::Error for NonPowerOfTwoError {}

/// Returns `true` if `n` is a non-zero power of two.
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Validates a transform length.
///
/// # Errors
///
/// Returns [`NonPowerOfTwoError`] if `n` is zero or not a power of two.
pub fn check_len(n: usize) -> Result<(), NonPowerOfTwoError> {
    if is_power_of_two(n) {
        Ok(())
    } else {
        Err(NonPowerOfTwoError { len: n })
    }
}

/// Converts an FFT bin index to the center frequency in Hz.
///
/// `n` is the transform length and `sample_rate_hz` the sampling rate of the
/// windowed signal.
pub fn bin_to_frequency(bin: usize, n: usize, sample_rate_hz: f64) -> f64 {
    bin as f64 * sample_rate_hz / n as f64
}

/// Number of bit-reversal swaps a `len`-point plan performs — the exact
/// count [`for_each_swap`] will emit, for sizing caller-owned storage.
pub fn swap_count(len: usize) -> usize {
    let mut count = 0;
    for_each_swap(len, |_, _| count += 1);
    count
}

/// Number of twiddle factors a `len`-point plan tabulates (`len - 1`,
/// stages concatenated), for sizing caller-owned storage.
pub fn twiddle_count(len: usize) -> usize {
    len.saturating_sub(1)
}

/// Enumerates the bit-reversal swaps `(i, j)` with `j > i` for a
/// `len`-point transform, in the exact order the host plan stores them.
///
/// `len` must be a power of two (degenerate lengths `0` and `1` emit
/// nothing); validate with [`check_len`] first.
pub fn for_each_swap(len: usize, mut f: impl FnMut(u32, u32)) {
    if len > 1 {
        let bits = len.trailing_zeros();
        for i in 0..len {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if j > i {
                f(i as u32, j as u32);
            }
        }
    }
}

/// Emits the per-stage twiddle factors for an `n`-point transform with the
/// exact recurrence the direct kernel uses (`w` starts at 1 and is
/// repeatedly multiplied by `wlen`), preserving bit-for-bit output
/// equality. `sign` is `-1.0` for the forward transform, `1.0` for the
/// inverse. Emits [`twiddle_count`]`(n)` values: `n/2` entries for stage 2,
/// then stage 4, and so on.
pub fn for_each_twiddle(n: usize, sign: f64, mut f: impl FnMut(Complex)) {
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * core::f64::consts::PI / len as f64;
        let wlen = Complex::from_angle(ang);
        let mut w = Complex::ONE;
        for _ in 0..len / 2 {
            f(w);
            w *= wlen;
        }
        len <<= 1;
    }
}

/// In-place butterfly passes over precomputed tables: the shared body of
/// the host plan's `process_forward` / `process_inverse`.
///
/// `swaps` must be the [`for_each_swap`] list for `data.len()` and
/// `twiddles` the matching [`for_each_twiddle`] table (forward or
/// inverse). The transform is unscaled either way; inverse callers apply
/// `1/N` via [`scale_inverse`].
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two or `twiddles` is not the
/// matching table length.
pub fn run_butterflies(data: &mut [Complex], swaps: &[(u32, u32)], twiddles: &[Complex]) {
    let n = data.len();
    assert!(is_power_of_two(n), "data length must be a power of two");
    if n <= 1 {
        return;
    }
    assert_eq!(twiddles.len(), twiddle_count(n), "twiddle table length");
    for &(i, j) in swaps {
        data.swap(i as usize, j as usize);
    }
    let mut offset = 0;
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let stage = &twiddles[offset..offset + half];
        for chunk in data.chunks_exact_mut(len) {
            // Splitting the chunk lets the butterflies run without
            // per-element bounds checks; the arithmetic (and therefore
            // the output bits) is unchanged.
            let (lo, hi) = chunk.split_at_mut(half);
            for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                let u = *a;
                let v = *b * w;
                *a = u + v;
                *b = u - v;
            }
        }
        offset += half;
        len <<= 1;
    }
}

/// Applies the inverse transform's `1/N` normalization, exactly as the
/// host plan's `process_inverse` does after its butterfly pass.
pub fn scale_inverse(data: &mut [Complex]) {
    let scale = 1.0 / data.len() as f64;
    for z in data.iter_mut() {
        *z = z.scale(scale);
    }
}

/// The iterative radix-2 Cooley–Tukey reference kernel.
///
/// This is the portable reference implementation the paper-faithful hub
/// originally interpreted against; the hot paths use the host `FftPlan`
/// (or the MCU core's tables), which are bit-identical. It stays public so
/// the equivalence suites and the differential fuzz targets can compare
/// against it. `data.len()` must be a power of two (check with
/// [`is_power_of_two`]); other lengths produce unspecified results.
pub fn transform(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }

    // Butterfly passes.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * core::f64::consts::PI / len as f64;
        let wlen = Complex::from_angle(ang);
        for chunk in data.chunks_mut(len) {
            let mut w = Complex::ONE;
            let half = len / 2;
            for k in 0..half {
                let u = chunk[k];
                let v = chunk[k + half] * w;
                chunk[k] = u + v;
                chunk[k + half] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::vec;
    use std::vec::Vec;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} !~ {b}");
    }

    fn table(n: usize, sign: f64) -> Vec<Complex> {
        let mut t = Vec::new();
        for_each_twiddle(n, sign, |w| t.push(w));
        t
    }

    fn swap_list(n: usize) -> Vec<(u32, u32)> {
        let mut s = Vec::new();
        for_each_swap(n, |i, j| s.push((i, j)));
        s
    }

    #[test]
    fn check_len_rejects_non_power_of_two() {
        assert_eq!(check_len(12), Err(NonPowerOfTwoError { len: 12 }));
        assert!(check_len(0).is_err());
        assert!(check_len(1).is_ok());
        assert!(check_len(1024).is_ok());
        let msg = std::format!("{}", NonPowerOfTwoError { len: 12 });
        assert!(msg.contains("12"));
    }

    #[test]
    fn counts_match_enumerations() {
        for n in [1usize, 2, 4, 8, 64, 256] {
            assert_eq!(swap_list(n).len(), swap_count(n));
            assert_eq!(table(n, -1.0).len(), twiddle_count(n));
        }
        assert_eq!(twiddle_count(0), 0);
    }

    #[test]
    fn butterflies_match_reference_transform() {
        for n in [1usize, 2, 8, 64, 256] {
            let original: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let mut direct = original.clone();
            transform(&mut direct, false);
            let mut planned = original.clone();
            run_butterflies(&mut planned, &swap_list(n), &table(n, -1.0));
            for (a, b) in direct.iter().zip(&planned) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn inverse_butterflies_round_trip() {
        let n = 64;
        let original: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.7).cos(), (i as f64 * 0.3).sin()))
            .collect();
        let swaps = swap_list(n);
        let mut data = original.clone();
        run_butterflies(&mut data, &swaps, &table(n, -1.0));
        run_butterflies(&mut data, &swaps, &table(n, 1.0));
        scale_inverse(&mut data);
        for (a, b) in data.iter().zip(&original) {
            assert_close(a.re, b.re, 1e-10);
            assert_close(a.im, b.im, 1e-10);
        }
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut data = vec![Complex::ZERO; 16];
        data[0] = Complex::ONE;
        transform(&mut data, false);
        for z in &data {
            assert_close(z.re, 1.0, 1e-12);
            assert_close(z.im, 0.0, 1e-12);
        }
    }
}
