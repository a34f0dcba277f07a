//! The precision-generic sample type behind the flat DSP kernels.
//!
//! The paper's hub MCUs (TI MSP430, TI LM4F120 — §3, Table 2) have no
//! f64 FPU: the LM4F120's Cortex-M4F does single-precision in hardware
//! and the MSP430 does everything in software. An `f32` pipeline is
//! therefore *more* faithful to the hardware than the host-side `f64`
//! default — and it doubles the effective lane width of the unrolled
//! kernels. [`Sample`] abstracts the two precisions so every flat kernel
//! (`stats`, `zcr`, `window`, `goertzel`, the `filter` moving average)
//! and the hub's vector-valued dataflow can be instantiated at either.
//!
//! The trait is sealed: exactly `f32` and `f64` implement it. Scalar
//! edges (thresholds, wake values, sensor ingestion) stay `f64`
//! everywhere; the precision parameter governs *vector* payloads, which
//! is where the paper's memory table says the hub stores f32 anyway
//! ("one f32 ring buffer" per window — see `hub::cost`).
//!
//! The taper-coefficient cache is host-side and gated on the `std`
//! feature; the interpreter widens through caller-provided slices
//! (`widen_slice_into`).

use crate::math;
use core::fmt::Debug;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

#[cfg(any(test, feature = "std"))]
use core::cell::RefCell;
#[cfg(any(test, feature = "std"))]
use std::rc::Rc;
#[cfg(any(test, feature = "std"))]
use std::thread::LocalKey;
#[cfg(any(test, feature = "std"))]
use std::vec::Vec;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// Thread-local single-entry cache of window-taper coefficients:
/// `(shape tag, window length, coefficients)`. See
/// `WindowShape::apply` in the host `sidewinder-dsp` crate.
#[cfg(any(test, feature = "std"))]
#[doc(hidden)]
pub type TaperCacheEntry<P> = (u8, usize, Rc<[P]>);

/// A sample precision the DSP kernels can run at: `f64` (the host
/// default, bit-compatible with the original kernels) or `f32` (the
/// hardware-faithful hub mode).
///
/// Conversions to and from `f64` are explicit so generic code cannot
/// widen or narrow by accident; for `P = f64` every conversion is the
/// identity and compiles away.
pub trait Sample:
    sealed::Sealed
    + Copy
    + PartialOrd
    + PartialEq
    + Debug
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Positive infinity (lane seed for running minima).
    const INFINITY: Self;
    /// Negative infinity (lane seed for running maxima).
    const NEG_INFINITY: Self;
    /// Independent accumulator lanes the unrolled kernels run: 4 for
    /// `f64`, 8 for `f32` (twice as many f32 values fit one vector
    /// register, so halving the precision doubles the lane width).
    const LANES: usize;
    /// Short name used to label benchmark rows (`"f32"`, `"f64"`).
    const NAME: &'static str;

    /// Converts from `f64`, rounding to nearest for `f32`.
    fn from_f64(x: f64) -> Self;
    /// Widens to `f64` (exact for both precisions).
    fn to_f64(self) -> f64;
    /// Converts a count; identical to `n as f64` / `n as f32`.
    fn from_usize(n: usize) -> Self {
        Self::from_f64(n as f64)
    }
    /// IEEE-754 minimum ignoring NaN, as [`f64::min`].
    fn min(self, other: Self) -> Self;
    /// IEEE-754 maximum ignoring NaN, as [`f64::max`].
    fn max(self, other: Self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Whether the value is NaN.
    fn is_nan(self) -> bool;

    /// Presents `src` as an `f64` slice without allocating: a no-op
    /// borrow for `f64`, a widening copy into `scratch[..src.len()]`
    /// for `f32` (panics if `scratch` is shorter than `src` — the
    /// fixed-capacity interpreter sizes it at load time).
    fn widen_slice_into<'a>(src: &'a [Self], scratch: &'a mut [f64]) -> &'a [f64];

    /// The per-precision window-taper coefficient cache; implementation
    /// detail of `WindowShape::apply` in the host crate.
    #[cfg(any(test, feature = "std"))]
    #[doc(hidden)]
    fn taper_cache() -> &'static LocalKey<RefCell<TaperCacheEntry<Self>>>;
}

#[cfg(any(test, feature = "std"))]
std::thread_local! {
    static TAPER_F64: RefCell<TaperCacheEntry<f64>> =
        RefCell::new((u8::MAX, 0, Rc::from(Vec::new())));
    static TAPER_F32: RefCell<TaperCacheEntry<f32>> =
        RefCell::new((u8::MAX, 0, Rc::from(Vec::new())));
}

impl Sample for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const INFINITY: Self = f64::INFINITY;
    const NEG_INFINITY: Self = f64::NEG_INFINITY;
    const LANES: usize = 4;
    const NAME: &'static str = "f64";

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        math::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        math::sqrt(self)
    }
    #[inline(always)]
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }

    #[inline(always)]
    fn widen_slice_into<'a>(src: &'a [Self], _scratch: &'a mut [f64]) -> &'a [f64] {
        src
    }

    #[cfg(any(test, feature = "std"))]
    fn taper_cache() -> &'static LocalKey<RefCell<TaperCacheEntry<Self>>> {
        &TAPER_F64
    }
}

impl Sample for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const INFINITY: Self = f32::INFINITY;
    const NEG_INFINITY: Self = f32::NEG_INFINITY;
    const LANES: usize = 8;
    const NAME: &'static str = "f32";

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f32::min(self, other)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        math::abs_f32(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        math::sqrt_f32(self)
    }
    #[inline(always)]
    fn is_nan(self) -> bool {
        f32::is_nan(self)
    }

    #[inline]
    fn widen_slice_into<'a>(src: &'a [Self], scratch: &'a mut [f64]) -> &'a [f64] {
        let out = &mut scratch[..src.len()];
        for (w, &x) in out.iter_mut().zip(src) {
            *w = f64::from(x);
        }
        out
    }

    #[cfg(any(test, feature = "std"))]
    fn taper_cache() -> &'static LocalKey<RefCell<TaperCacheEntry<Self>>> {
        &TAPER_F32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_round_trips_exactly() {
        for x in [0.0, -1.5, f64::MAX, f64::MIN_POSITIVE] {
            assert_eq!(<f64 as Sample>::from_f64(x).to_f64(), x);
        }
    }

    #[test]
    fn f32_narrowing_rounds_to_nearest() {
        let x = 0.1f64;
        assert_eq!(<f32 as Sample>::from_f64(x), 0.1f32);
        assert_ne!(<f32 as Sample>::from_f64(x).to_f64(), x);
    }

    #[test]
    fn widen_slice_into_borrows_for_f64_and_copies_for_f32() {
        let src = [1.0f64, 2.0];
        let mut scratch = [0.0f64; 4];
        let wide = <f64 as Sample>::widen_slice_into(&src, &mut scratch);
        assert_eq!(wide.as_ptr(), src.as_ptr());

        let src32 = [1.5f32, -2.0];
        let mut scratch = [0.0f64; 4];
        let wide = <f32 as Sample>::widen_slice_into(&src32, &mut scratch);
        assert_eq!(wide, &[1.5f64, -2.0]);
    }

    #[test]
    fn lane_widths_double_when_precision_halves() {
        assert_eq!(<f64 as Sample>::LANES * 2, <f32 as Sample>::LANES);
    }
}
