//! Statistical feature extraction.
//!
//! The paper's hub ships "a set of statistical functions" for feature
//! extraction (§3.6). The music-journal and phrase-detection wake-up
//! conditions use the variance of window amplitude and the variance of
//! per-sub-window zero-crossing rates (§3.7.2); those reductions are built
//! from these kernels.
//!
//! # Reduction order
//!
//! [`Summary::of`] computes its sums in a *defined, length-dependent
//! order* that is part of the kernel contract (see DESIGN.md §6h):
//!
//! * windows shorter than [`LANE_CUTOVER`] samples are reduced by one
//!   sequential left-to-right accumulator — bit-identical to the
//!   original scalar kernel, so short reductions (e.g. the eight
//!   sub-window ZCR rates behind `zcrVariance`) are unaffected by the
//!   lane rewrite;
//! * longer windows are reduced by [`Sample::LANES`] independent
//!   accumulators, lane `j` summing elements `j, j+LANES, j+2·LANES, …`
//!   (trailing elements continue into lanes `0..r`), combined by a
//!   halving tree: with lanes `l0..l3`, the total is
//!   `(l0+l2) + (l1+l3)`, and one more halving round for 8 lanes.
//!
//! The kernel walks exactly this order (unrolled into `L`-wide chunks
//! that LLVM vectorizes); the `dsp/tests/lane_order.rs` proptests pin it
//! bit for bit against an in-test emulation of the documented order.

use crate::sample::Sample;

/// Window lengths below this are reduced by the original sequential
/// loop; at or above it the multi-accumulator lane order kicks in. Part
/// of the documented kernel contract.
pub const LANE_CUTOVER: usize = 32;

/// Summary statistics of a window of samples, computed in a single pass.
///
/// # Example
///
/// ```
/// use sidewinder_mcu::stats::Summary;
///
/// let s = Summary::<f64>::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// assert!((s.variance - 1.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary<P: Sample = f64> {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: P,
    /// Population variance (divides by `count`).
    pub variance: P,
    /// Smallest sample.
    pub min: P,
    /// Largest sample.
    pub max: P,
    /// Root mean square.
    pub rms: P,
}

impl<P: Sample> Summary<P> {
    /// Computes summary statistics. Returns `None` for an empty window.
    ///
    /// # NaN policy
    ///
    /// NaN samples are *propagated, not rejected* (`lint` SW004 assumes
    /// reductions pass NaN through rather than panic or filter):
    ///
    /// * `mean` and `rms` become NaN as soon as any sample is NaN;
    /// * `variance` is computed as `(E[x²] − mean²).max(0)`, and the
    ///   IEEE-754 `max` that clamps catastrophic cancellation also
    ///   absorbs NaN — a window containing NaN reports variance `0.0`;
    /// * `min`/`max` use IEEE-754 min/max, which ignore NaN; an
    ///   all-NaN window reports `min = +∞`, `max = −∞`.
    pub fn of(window: &[P]) -> Option<Summary<P>> {
        if window.is_empty() {
            return None;
        }
        let n = P::from_usize(window.len());
        let (sum, sum_sq, min, max) = moments(window);
        let mean = sum / n;
        // Clamp: catastrophic cancellation can produce a tiny negative value.
        let variance = (sum_sq / n - mean * mean).max(P::ZERO);
        Some(Summary {
            count: window.len(),
            mean,
            variance,
            min,
            max,
            rms: (sum_sq / n).sqrt(),
        })
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> P {
        self.variance.sqrt()
    }

    /// Peak-to-peak amplitude (`max - min`).
    pub fn peak_to_peak(&self) -> P {
        self.max - self.min
    }
}

/// `(Σx, Σx², min, max)` in the documented length-dependent order.
fn moments<P: Sample>(window: &[P]) -> (P, P, P, P) {
    if window.len() < LANE_CUTOVER {
        moments_serial(window)
    } else {
        match P::LANES {
            8 => moments_lanes::<P, 8>(window),
            _ => moments_lanes::<P, 4>(window),
        }
    }
}

fn moments_serial<P: Sample>(window: &[P]) -> (P, P, P, P) {
    let mut sum = P::ZERO;
    let mut sum_sq = P::ZERO;
    let mut min = P::INFINITY;
    let mut max = P::NEG_INFINITY;
    for &x in window {
        sum += x;
        sum_sq += x * x;
        min = min.min(x);
        max = max.max(x);
    }
    (sum, sum_sq, min, max)
}

/// Unrolled lane reduction: `L` independent accumulators walk the window
/// in `L`-wide chunks, which LLVM turns into vector adds; `Σx`, `Σx²`,
/// min, and max all ride the same pass.
fn moments_lanes<P: Sample, const L: usize>(window: &[P]) -> (P, P, P, P) {
    let mut sum = [P::ZERO; L];
    let mut sum_sq = [P::ZERO; L];
    let mut min = [P::INFINITY; L];
    let mut max = [P::NEG_INFINITY; L];
    let mut chunks = window.chunks_exact(L);
    for chunk in &mut chunks {
        for j in 0..L {
            let x = chunk[j];
            sum[j] += x;
            sum_sq[j] += x * x;
            min[j] = min[j].min(x);
            max[j] = max[j].max(x);
        }
    }
    for (j, &x) in chunks.remainder().iter().enumerate() {
        sum[j] += x;
        sum_sq[j] += x * x;
        min[j] = min[j].min(x);
        max[j] = max[j].max(x);
    }
    (
        tree_fold(sum, |a, b| a + b),
        tree_fold(sum_sq, |a, b| a + b),
        tree_fold(min, P::min),
        tree_fold(max, P::max),
    )
}

/// Combines lane partials by repeated halving: `L=4` lanes reduce as
/// `(l0⊕l2) ⊕ (l1⊕l3)`; `L=8` adds one more halving round. The order is
/// part of the kernel contract.
fn tree_fold<P: Sample, const L: usize>(mut lanes: [P; L], f: impl Fn(P, P) -> P) -> P {
    let mut n = L;
    while n > 1 {
        n /= 2;
        for i in 0..n {
            lanes[i] = f(lanes[i], lanes[i + n]);
        }
    }
    lanes[0]
}

/// Population variance; `None` when empty.
pub fn variance<P: Sample>(window: &[P]) -> Option<P> {
    Summary::of(window).map(|s| s.variance)
}

/// Mean absolute amplitude; `None` when empty. Used by the significant-sound
/// predefined-activity detector.
pub fn mean_abs<P: Sample>(window: &[P]) -> Option<P> {
    if window.is_empty() {
        return None;
    }
    let mut sum = P::ZERO;
    for &x in window {
        sum += x.abs();
    }
    Some(sum / P::from_usize(window.len()))
}

/// Signal energy `Σ x²`.
pub fn energy<P: Sample>(window: &[P]) -> P {
    let mut sum = P::ZERO;
    for &x in window {
        sum += x * x;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::vec::Vec;

    #[test]
    fn empty_window_yields_none() {
        assert!(Summary::<f64>::of(&[]).is_none());
        assert!(variance::<f64>(&[]).is_none());
        assert!(mean_abs::<f64>(&[]).is_none());
    }

    #[test]
    fn single_sample_summary() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.rms, 7.0);
    }

    #[test]
    fn known_variance() {
        // Population variance of [2,4,4,4,5,5,7,9] is 4.
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.variance - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn variance_never_negative_under_cancellation() {
        let big = 1e9;
        let s = Summary::of(&[big, big, big]).unwrap();
        assert!(s.variance >= 0.0);
    }

    #[test]
    fn peak_to_peak() {
        let s = Summary::of(&[-1.0, 0.0, 3.0]).unwrap();
        assert_eq!(s.peak_to_peak(), 4.0);
    }

    #[test]
    fn rms_of_alternating_unit_signal_is_one() {
        let signal = [1.0, -1.0, 1.0, -1.0];
        assert!((Summary::of(&signal).unwrap().rms - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_abs_ignores_sign() {
        assert_eq!(mean_abs(&[1.0, -1.0, 2.0, -2.0]).unwrap(), 1.5);
    }

    #[test]
    fn energy_sums_squares() {
        assert_eq!(energy(&[3.0, 4.0]), 25.0);
        assert_eq!(energy::<f64>(&[]), 0.0);
    }

    #[test]
    fn f32_summary_matches_f64_within_single_precision() {
        let wide: Vec<f64> = (0..2048).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        let narrow: Vec<f32> = wide.iter().map(|&x| x as f32).collect();
        let sw = Summary::of(&wide).unwrap();
        let sn = Summary::of(&narrow).unwrap();
        assert!((f64::from(sn.mean) - sw.mean).abs() < 1e-4);
        assert!((f64::from(sn.variance) - sw.variance).abs() < 1e-3);
        assert_eq!(f64::from(sn.max), sw.max as f32 as f64);
    }

    #[test]
    fn lane_order_is_the_documented_tree() {
        // A 33-sample window (cutover + 1, non-multiple of 4): recompute
        // the documented lane order by hand and require bit equality.
        let w: Vec<f64> = (0..33).map(|i| (i as f64 * 0.9).sin() / 3.0).collect();
        let mut lanes = [0.0f64; 4];
        let main = w.len() - w.len() % 4;
        for (i, &x) in w.iter().enumerate() {
            let lane = if i < main { i % 4 } else { i - main };
            lanes[lane] += x;
        }
        let expected = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
        let got = Summary::of(&w).unwrap();
        assert_eq!(got.mean.to_bits(), (expected / 33.0).to_bits());
    }

    #[test]
    fn below_cutover_matches_the_sequential_kernel_exactly() {
        // Lengths under LANE_CUTOVER must reproduce the original
        // left-to-right reduction bit-for-bit (the zcrVariance path
        // reduces 8 inexact rates and its digests are frozen).
        let w: Vec<f64> = (0..(LANE_CUTOVER - 1))
            .map(|i| 0.1 + (i as f64 / 7.0).sin())
            .collect();
        let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
        for &x in &w {
            sum += x;
            sum_sq += x * x;
        }
        let n = w.len() as f64;
        let s = Summary::of(&w).unwrap();
        assert_eq!(s.mean.to_bits(), (sum / n).to_bits());
        assert_eq!(
            s.variance.to_bits(),
            (sum_sq / n - (sum / n) * (sum / n)).max(0.0).to_bits()
        );
    }

    #[test]
    fn nan_policy_propagates_through_sums_and_skips_extrema() {
        let s = Summary::of(&[1.0, f64::NAN, 3.0]).unwrap();
        assert!(s.mean.is_nan());
        assert!(s.rms.is_nan());
        // The cancellation clamp absorbs NaN: documented, load-bearing
        // for SW004's "threshold comparisons see a number" assumption.
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);

        let all_nan = Summary::of(&[f64::NAN; 40]).unwrap();
        assert!(all_nan.mean.is_nan());
        assert_eq!(all_nan.min, f64::INFINITY);
        assert_eq!(all_nan.max, f64::NEG_INFINITY);
    }
}
