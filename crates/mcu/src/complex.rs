//! A minimal complex-number type for the FFT kernels.
//!
//! The crate deliberately avoids external numeric dependencies (see the
//! crate-level docs), so it carries its own small [`Complex`] type with just
//! the arithmetic the transforms need.

use crate::math;
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Example
///
/// ```
/// use sidewinder_mcu::Complex;
///
/// let i = Complex::new(0.0, 1.0);
/// assert_eq!(i * i, Complex::new(-1.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real component.
    pub re: f64,
    /// Imaginary component.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Returns `e^(i·theta)`: the unit phasor at angle `theta` radians.
    pub fn from_angle(theta: f64) -> Self {
        Complex {
            re: math::cos(theta),
            im: math::sin(theta),
        }
    }

    /// Returns the magnitude (absolute value).
    pub fn magnitude(self) -> f64 {
        math::hypot(self.re, self.im)
    }

    /// Returns the squared magnitude, avoiding the square root.
    pub fn magnitude_squared(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Scales both components by a real factor.
    pub fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_identities() {
        assert_eq!(Complex::ZERO + Complex::ONE, Complex::ONE);
        assert_eq!(Complex::ONE * Complex::ONE, Complex::ONE);
        assert_eq!(Complex::from(2.5), Complex::new(2.5, 0.0));
    }

    #[test]
    fn multiplication_follows_i_squared_rule() {
        let i = Complex::new(0.0, 1.0);
        assert_eq!(i * i, Complex::new(-1.0, 0.0));
    }

    #[test]
    fn magnitude_of_3_4_is_5() {
        assert!((Complex::new(3.0, 4.0).magnitude() - 5.0).abs() < 1e-12);
        assert!((Complex::new(3.0, 4.0).magnitude_squared() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn phasor_lies_on_unit_circle() {
        for k in 0..16 {
            let theta = k as f64 * core::f64::consts::PI / 8.0;
            let z = Complex::from_angle(theta);
            assert!((z.magnitude() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn subtraction_and_negation_agree() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(0.5, -1.5);
        assert_eq!(a - b, a + (-b));
    }

    #[test]
    fn assign_operators_match_binary_operators() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-0.25, 4.0);
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        c = a;
        c -= b;
        assert_eq!(c, a - b);
        c = a;
        c *= b;
        assert_eq!(c, a * b);
    }

    #[test]
    fn scale_multiplies_both_components() {
        assert_eq!(Complex::new(1.0, -2.0).scale(3.0), Complex::new(3.0, -6.0));
    }
}
