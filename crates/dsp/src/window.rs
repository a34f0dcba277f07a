//! Window functions.
//!
//! The paper's hub provides "Partitioning sensor data into rectangular or
//! Hamming windows" (§3.6). [`WindowShape`] carries the taper and lives in
//! `sidewinder-mcu`, whose interpreter does the streaming partitioning;
//! this module re-exports it for host-side signal processing.

pub use sidewinder_mcu::window::WindowShape;

#[cfg(test)]
mod tests {
    use super::*;

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
