//! Scalar float math for the `no_std` core.
//!
//! On Rust 1.82 the transcendental `f64` methods (`sqrt`, `sin`, `cos`,
//! `hypot`) live in `std`, not `core`, so every kernel in this crate
//! routes through this shim instead of calling them directly.
//!
//! With the `std` feature on (every host build) the shim is a
//! zero-cost forward to the platform libm — the kernels stay
//! bit-identical to the pre-split `sidewinder-dsp` code, which is what
//! keeps the frozen wake digests valid. With `std` off (the thumb
//! cross-build) the pure-Rust fallbacks below are used; they are
//! accurate to roughly 1e-12 relative over the ranges the kernels use,
//! and nothing ever compares their bits against a host run.

/// `|x|` by clearing the sign bit — exactly what `f64::abs` does, so
/// this one needs no feature gate.
#[inline(always)]
pub fn abs(x: f64) -> f64 {
    f64::from_bits(x.to_bits() & !(1u64 << 63))
}

/// `|x|` for `f32`, same bit trick.
#[inline(always)]
pub fn abs_f32(x: f32) -> f32 {
    f32::from_bits(x.to_bits() & !(1u32 << 31))
}

#[cfg(any(test, feature = "std"))]
mod imp {
    #[inline(always)]
    pub fn sqrt(x: f64) -> f64 {
        x.sqrt()
    }
    #[inline(always)]
    pub fn sqrt_f32(x: f32) -> f32 {
        x.sqrt()
    }
    #[inline(always)]
    pub fn sin(x: f64) -> f64 {
        x.sin()
    }
    #[inline(always)]
    pub fn cos(x: f64) -> f64 {
        x.cos()
    }
    #[inline(always)]
    pub fn hypot(x: f64, y: f64) -> f64 {
        x.hypot(y)
    }
}

#[cfg(not(any(test, feature = "std")))]
mod imp {
    use core::f64::consts::{FRAC_PI_2, PI};

    /// Newton–Raphson square root from a bit-level initial guess.
    pub fn sqrt(x: f64) -> f64 {
        if x < 0.0 || x.is_nan() {
            return f64::NAN;
        }
        if x == 0.0 || x == f64::INFINITY {
            return x;
        }
        // Halve the exponent for a guess good to a couple of bits,
        // then five Newton steps converge well past 1e-15 relative.
        let mut y = f64::from_bits((x.to_bits() >> 1) + 0x1FF8_0000_0000_0000);
        for _ in 0..5 {
            y = 0.5 * (y + x / y);
        }
        y
    }

    pub fn sqrt_f32(x: f32) -> f32 {
        sqrt(x as f64) as f32
    }

    fn floor(x: f64) -> f64 {
        // |x| >= 2^52 is already integral (or non-finite).
        if x.is_nan() || super::abs(x) >= 4_503_599_627_370_496.0 {
            return x;
        }
        let t = x as i64 as f64; // truncation toward zero
        if t > x {
            t - 1.0
        } else {
            t
        }
    }

    /// Sine via range reduction to [-pi, pi] and a 15th-order Taylor
    /// polynomial (worst case ~1e-12 absolute on the reduced range).
    pub fn sin(x: f64) -> f64 {
        if x.is_nan() || super::abs(x) == f64::INFINITY {
            return f64::NAN;
        }
        let mut r = x - floor(x / (2.0 * PI)) * 2.0 * PI; // [0, 2pi)
        if r > PI {
            r -= 2.0 * PI; // (-pi, pi]
        }
        // Fold into [-pi/2, pi/2] where the polynomial is tightest.
        if r > FRAC_PI_2 {
            r = PI - r;
        } else if r < -FRAC_PI_2 {
            r = -PI - r;
        }
        let r2 = r * r;
        // sin r = r (1 - r^2/6 (1 - r^2/20 (1 - ...))) up to r^15.
        let mut p = 1.0 - r2 / (14.0 * 15.0);
        p = 1.0 - r2 / (12.0 * 13.0) * p;
        p = 1.0 - r2 / (10.0 * 11.0) * p;
        p = 1.0 - r2 / (8.0 * 9.0) * p;
        p = 1.0 - r2 / (6.0 * 7.0) * p;
        p = 1.0 - r2 / (4.0 * 5.0) * p;
        p = 1.0 - r2 / (2.0 * 3.0) * p;
        r * p
    }

    pub fn cos(x: f64) -> f64 {
        sin(FRAC_PI_2 - x)
    }

    pub fn hypot(x: f64, y: f64) -> f64 {
        let (x, y) = (super::abs(x), super::abs(y));
        if x == f64::INFINITY || y == f64::INFINITY {
            return f64::INFINITY;
        }
        let (hi, lo) = if x > y { (x, y) } else { (y, x) };
        if hi == 0.0 {
            return 0.0;
        }
        // Scale to dodge overflow/underflow in the squares.
        let r = lo / hi;
        hi * sqrt(1.0 + r * r)
    }
}

pub use imp::{cos, hypot, sin, sqrt, sqrt_f32};

#[cfg(test)]
mod tests {
    // The workspace builds this crate with `std` on, so these tests
    // pin the shim against the libm it forwards to. The no-std
    // fallback bodies are compile-checked by the host
    // `--no-default-features` build and the thumb CI job.
    use super::*;

    #[test]
    fn abs_matches_std() {
        for x in [0.0f64, -0.0, 1.5, -1.5, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(abs(x).to_bits(), x.abs().to_bits());
        }
        assert!(abs(f64::NAN).is_nan());
        assert_eq!(abs_f32(-3.25f32).to_bits(), 3.25f32.to_bits());
    }

    #[cfg(any(test, feature = "std"))]
    #[test]
    fn std_shim_is_bit_identical_to_libm() {
        for i in 0..1000 {
            let x = (i as f64) * 0.137 - 68.5;
            assert_eq!(sin(x).to_bits(), x.sin().to_bits());
            assert_eq!(cos(x).to_bits(), x.cos().to_bits());
            let p = abs(x) + 0.001;
            assert_eq!(sqrt(p).to_bits(), p.sqrt().to_bits());
            assert_eq!(hypot(x, p).to_bits(), x.hypot(p).to_bits());
        }
    }
}
