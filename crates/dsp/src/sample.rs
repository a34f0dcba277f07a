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
//! The trait itself lives in `sidewinder-mcu` so the on-device
//! interpreter is generic over the same two precisions; this module
//! re-exports it.

pub use sidewinder_mcu::sample::*;

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
    fn lane_widths_double_when_precision_halves() {
        assert_eq!(<f64 as Sample>::LANES * 2, <f32 as Sample>::LANES);
    }
}
