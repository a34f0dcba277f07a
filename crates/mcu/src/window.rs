//! Window taper shapes.
//!
//! The paper's hub provides "Partitioning sensor data into rectangular or
//! Hamming windows" (§3.6). [`WindowShape`] carries the taper and lives in
//! the MCU crate because the interpreter applies it on-device (the
//! interpreter's window node does the streaming partitioning). With the
//! `std` feature, [`WindowShape::apply`] tapers a whole slice through a
//! per-thread coefficient table.

use crate::math;
use crate::sample::Sample;

/// The taper applied to each window of samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WindowShape {
    /// No taper; every coefficient is 1. The paper's "rectangular" window.
    #[default]
    Rectangular,
    /// The Hamming taper `0.54 - 0.46·cos(2πi/(N-1))`.
    Hamming,
    /// The Hann taper `0.5·(1 - cos(2πi/(N-1)))`. Not named by the paper but
    /// a conventional member of the same family; included for completeness.
    Hann,
}

impl WindowShape {
    /// Returns the window coefficient at index `i` of an `n`-point window.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn coefficient(self, i: usize, n: usize) -> f64 {
        assert!(i < n, "window index {i} out of range for length {n}");
        if n == 1 {
            return 1.0;
        }
        let x = 2.0 * core::f64::consts::PI * i as f64 / (n - 1) as f64;
        match self {
            WindowShape::Rectangular => 1.0,
            WindowShape::Hamming => 0.54 - 0.46 * math::cos(x),
            WindowShape::Hann => 0.5 * (1.0 - math::cos(x)),
        }
    }

    /// Writes the coefficients of an `out.len()`-point window into `out` —
    /// the allocation-free form of [`WindowShape::coefficients`], computed
    /// in `f64` and narrowed per element exactly as the `Vec` builders do.
    pub fn fill_coefficients<P: Sample>(self, out: &mut [P]) {
        let n = out.len();
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = P::from_f64(self.coefficient(i, n));
        }
    }

    /// Generates the full coefficient vector for an `n`-point window.
    #[cfg(any(test, feature = "std"))]
    pub fn coefficients(self, n: usize) -> std::vec::Vec<f64> {
        (0..n).map(|i| self.coefficient(i, n)).collect()
    }

    /// [`WindowShape::coefficients`] at any sample precision: coefficients
    /// are computed in `f64` and narrowed per element, so the `f64`
    /// instantiation is bit-identical to `coefficients`.
    #[cfg(any(test, feature = "std"))]
    fn coefficients_in<P: Sample>(self, n: usize) -> std::vec::Vec<P> {
        (0..n)
            .map(|i| P::from_f64(self.coefficient(i, n)))
            .collect()
    }

    /// Applies the taper to a signal, returning the windowed copy.
    ///
    /// Each output element is exactly `x * coefficient(i, len)`. The
    /// coefficients are tabulated once per `(shape, length)` in a
    /// thread-local cache and applied with an element-wise multiply, so
    /// the cosine is not recomputed per window (tabulation is where a
    /// per-element kernel spends ~95% of its time).
    #[cfg(any(test, feature = "std"))]
    pub fn apply<P: Sample>(self, signal: &[P]) -> std::vec::Vec<P> {
        let coeffs = self.cached_coefficients::<P>(signal.len());
        signal
            .iter()
            .zip(coeffs.iter())
            .map(|(&x, &c)| x * c)
            .collect()
    }

    /// The thread-local single-entry coefficient cache behind
    /// [`WindowShape::apply`]. Steady-state pipelines re-window the same
    /// geometry forever, so one entry per precision is enough; switching
    /// shape or length just retabulates.
    #[cfg(any(test, feature = "std"))]
    fn cached_coefficients<P: Sample>(self, n: usize) -> std::rc::Rc<[P]> {
        P::taper_cache().with(|cell| {
            let mut entry = cell.borrow_mut();
            if entry.0 != self as u8 || entry.1 != n {
                *entry = (
                    self as u8,
                    n,
                    std::rc::Rc::from(self.coefficients_in::<P>(n)),
                );
            }
            std::rc::Rc::clone(&entry.2)
        })
    }
}

impl core::fmt::Display for WindowShape {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            WindowShape::Rectangular => "rectangular",
            WindowShape::Hamming => "hamming",
            WindowShape::Hann => "hann",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::vec;
    use std::vec::Vec;

    #[test]
    fn rectangular_coefficients_are_unity() {
        assert_eq!(WindowShape::Rectangular.coefficients(8), vec![1.0; 8]);
    }

    #[test]
    fn hamming_endpoints_and_peak() {
        let c = WindowShape::Hamming.coefficients(11);
        assert!((c[0] - 0.08).abs() < 1e-12);
        assert!((c[10] - 0.08).abs() < 1e-12);
        assert!((c[5] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hann_endpoints_are_zero() {
        let c = WindowShape::Hann.coefficients(9);
        assert!(c[0].abs() < 1e-12);
        assert!(c[8].abs() < 1e-12);
        assert!((c[4] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn windows_are_symmetric() {
        for shape in [WindowShape::Hamming, WindowShape::Hann] {
            let c = shape.coefficients(16);
            for i in 0..8 {
                assert!(
                    (c[i] - c[15 - i]).abs() < 1e-12,
                    "{shape} asymmetric at {i}"
                );
            }
        }
    }

    #[test]
    fn length_one_window_is_identity() {
        for shape in [
            WindowShape::Rectangular,
            WindowShape::Hamming,
            WindowShape::Hann,
        ] {
            assert_eq!(shape.coefficients(1), vec![1.0]);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coefficient_out_of_range_panics() {
        WindowShape::Hamming.coefficient(5, 5);
    }

    #[test]
    fn fill_coefficients_matches_vec_builders() {
        for shape in [
            WindowShape::Rectangular,
            WindowShape::Hamming,
            WindowShape::Hann,
        ] {
            let mut filled = [0.0f64; 13];
            shape.fill_coefficients(&mut filled);
            let built = shape.coefficients(13);
            for (a, b) in filled.iter().zip(&built) {
                assert_eq!(a.to_bits(), b.to_bits(), "{shape}");
            }
            let mut narrow = [0.0f32; 13];
            shape.fill_coefficients(&mut narrow);
            let built32: Vec<f32> = shape.coefficients_in(13);
            assert_eq!(&narrow[..], &built32[..], "{shape}");
        }
    }

    #[test]
    fn apply_scales_signal() {
        let signal = vec![2.0; 4];
        let windowed = WindowShape::Hamming.apply(&signal);
        let coeffs = WindowShape::Hamming.coefficients(4);
        for i in 0..4 {
            assert!((windowed[i] - 2.0 * coeffs[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_is_bit_identical_to_per_element_products() {
        // The cache must never change the products — pin bit equality
        // across shape and length switches (which thrash the one-entry
        // cache on purpose).
        let signal: Vec<f64> = (0..37).map(|i| ((i as f64) * 1.3).sin() * 2.0).collect();
        for shape in [
            WindowShape::Hamming,
            WindowShape::Hann,
            WindowShape::Hamming,
        ] {
            for n in [37, 16, 37] {
                let windowed = shape.apply(&signal[..n]);
                for (i, (&got, &x)) in windowed.iter().zip(&signal).enumerate() {
                    assert_eq!(got.to_bits(), (x * shape.coefficient(i, n)).to_bits());
                }
            }
        }
    }

    #[test]
    fn f32_apply_narrows_coefficients_per_element() {
        let signal = vec![1.0f32; 8];
        let windowed = WindowShape::Hann.apply(&signal);
        for (i, &got) in windowed.iter().enumerate() {
            assert_eq!(got, WindowShape::Hann.coefficient(i, 8) as f32);
        }
    }
}
