//! Reduction-order pins for the flat DSP kernels.
//!
//! Each unrolled kernel promises the *documented length-dependent
//! reduction order* (DESIGN.md §6h). The bit-exact tier here checks each
//! kernel against an in-test scalar emulation of that documented order:
//! strided lanes for `Summary::of`, the per-sample state machine for the
//! chunked crossing counter, per-element products for the tabulated
//! taper, the streaming recompute for the block moving average, and
//! one-at-a-time probes for the grouped Goertzel passes.
//!
//! Lengths are drawn from the awkward set — 0, 1, lane−1, lane, lane+1,
//! the `LANE_CUTOVER` boundary, 1024, and arbitrary non-multiples — so
//! remainder handling and the cutover are exercised, not just the happy
//! multiple-of-lane case.
//!
//! The tolerance tier pins the `f32` instantiations against `f64`
//! within the §6h error budget: roundoff grows with accumulation
//! length (∝ n·ε for sums, ∝ n^1.5·ε for the Goertzel recurrence), and
//! the pins leave roughly an order of magnitude of headroom above the
//! worst generated case.

use proptest::prelude::*;
use sidewinder_dsp::filter::MovingAverage;
use sidewinder_dsp::goertzel;
use sidewinder_dsp::sample::Sample;
use sidewinder_dsp::stats::{Summary, LANE_CUTOVER};
use sidewinder_dsp::window::WindowShape;
use sidewinder_dsp::zcr;

/// Window lengths that stress lane remainders: empty, single, one on
/// each side of both lane widths (4 for f64, 8 for f32), the serial/lane
/// cutover boundary, a big power of two, and arbitrary non-multiples.
fn awkward_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1),
        Just(3),
        Just(4),
        Just(5),
        Just(7),
        Just(8),
        Just(9),
        Just(LANE_CUTOVER - 1),
        Just(LANE_CUTOVER),
        Just(LANE_CUTOVER + 1),
        Just(1024),
        2usize..200,
    ]
}

/// A finite signal of the given length, spanning the physical sensor
/// amplitude range (±12 covers the accelerometer fixtures).
fn signal(len: impl Strategy<Value = usize>) -> impl Strategy<Value = Vec<f64>> {
    len.prop_flat_map(|n| prop::collection::vec(-12.0f64..12.0, n))
}

/// Bit equality for any sample precision: `f32 → f64` widening is
/// exact, so comparing the widened bit patterns compares the values.
fn assert_bits_eq<P: Sample>(got: P, want: P, what: &str) {
    assert_eq!(
        got.to_f64().to_bits(),
        want.to_f64().to_bits(),
        "{what}: {} vs {}",
        got.to_f64(),
        want.to_f64()
    );
}

/// Scalar emulation of the documented `Summary::of` reduction order:
/// sequential left-to-right below [`LANE_CUTOVER`], otherwise
/// [`Sample::LANES`] strided accumulators (lane `j` reduces elements
/// `j, j+L, j+2L, …`, trailing elements continue into lanes `0..r`)
/// combined by the halving tree. Returns `(Σx, Σx², min, max)`.
fn moments_reference<P: Sample>(window: &[P]) -> (P, P, P, P) {
    let l = if window.len() < LANE_CUTOVER {
        1
    } else {
        P::LANES
    };
    let mut sum = vec![P::ZERO; l];
    let mut sum_sq = vec![P::ZERO; l];
    let mut min = vec![P::INFINITY; l];
    let mut max = vec![P::NEG_INFINITY; l];
    let main = window.len() - window.len() % l;
    for (i, &x) in window.iter().enumerate() {
        let j = if i < main { i % l } else { i - main };
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

/// The documented halving tree: `(l0⊕l2) ⊕ (l1⊕l3)` for four lanes, one
/// more round for eight.
fn tree_fold<P: Sample>(mut lanes: Vec<P>, f: impl Fn(P, P) -> P) -> P {
    let mut n = lanes.len();
    while n > 1 {
        n /= 2;
        for i in 0..n {
            lanes[i] = f(lanes[i], lanes[i + n]);
        }
    }
    lanes[0]
}

fn check_summary_against_reference<P: Sample>(window: &[P]) {
    let Some(s) = Summary::of(window) else {
        assert!(window.is_empty(), "only the empty window yields None");
        return;
    };
    let n = P::from_usize(window.len());
    let (sum, sum_sq, min, max) = moments_reference(window);
    let mean = sum / n;
    assert_bits_eq(s.mean, mean, "mean");
    assert_bits_eq(
        s.variance,
        (sum_sq / n - mean * mean).max(P::ZERO),
        "variance",
    );
    assert_bits_eq(s.min, min, "min");
    assert_bits_eq(s.max, max, "max");
    assert_bits_eq(s.rms, (sum_sq / n).sqrt(), "rms");
}

/// The original per-sample zero-crossing state machine — the reference
/// the chunked counter must reproduce exactly (the count is an integer,
/// so equality is exact, not toleranced).
fn zero_crossings_reference<P: Sample>(window: &[P]) -> usize {
    let mut count = 0;
    let mut prev_sign = 0i8;
    for &x in window {
        let sign = if x > P::ZERO {
            1
        } else if x < P::ZERO {
            -1
        } else {
            prev_sign
        };
        if prev_sign != 0 && sign != 0 && sign != prev_sign {
            count += 1;
        }
        if sign != 0 {
            prev_sign = sign;
        }
    }
    count
}

/// A signal seasoned with exact zeros and NaNs so the chunked counter's
/// clean-path/fallback split is exercised on both sides.
fn messy_signal() -> impl Strategy<Value = Vec<f64>> {
    awkward_len().prop_flat_map(|n| {
        prop::collection::vec(
            prop_oneof![
                (-1.0f64..1.0).boxed(),
                (-1.0f64..1.0).boxed(),
                (-1.0f64..1.0).boxed(),
                Just(0.0f64).boxed(),
                Just(f64::NAN).boxed(),
            ],
            n,
        )
    })
}

proptest! {
    // ── Bit-exact tier ──────────────────────────────────────────────

    #[test]
    fn summary_walks_the_documented_lane_order_f64(w in signal(awkward_len())) {
        check_summary_against_reference(&w);
    }

    #[test]
    fn summary_walks_the_documented_lane_order_f32(w in signal(awkward_len())) {
        let narrow: Vec<f32> = w.iter().map(|&x| x as f32).collect();
        check_summary_against_reference(&narrow);
    }

    #[test]
    fn zero_crossings_match_the_serial_state_machine(w in messy_signal()) {
        prop_assert_eq!(zcr::zero_crossings(&w), zero_crossings_reference(&w));
        let narrow: Vec<f32> = w.iter().map(|&x| x as f32).collect();
        prop_assert_eq!(
            zcr::zero_crossings(&narrow),
            zero_crossings_reference(&narrow)
        );
    }

    #[test]
    fn window_apply_is_per_element_products(
        w in signal(awkward_len()),
        shape_idx in 0usize..3,
    ) {
        let shape = [WindowShape::Rectangular, WindowShape::Hamming, WindowShape::Hann][shape_idx];
        let n = w.len();
        for (i, (&got, &x)) in shape.apply(&w).iter().zip(&w).enumerate() {
            assert_bits_eq(got, x * shape.coefficient(i, n), "tapered sample");
        }
        let narrow: Vec<f32> = w.iter().map(|&x| x as f32).collect();
        for (i, (&got, &x)) in shape.apply(&narrow).iter().zip(&narrow).enumerate() {
            assert_bits_eq(got, x * shape.coefficient(i, n) as f32, "f32 tapered sample");
        }
    }

    #[test]
    fn moving_average_block_matches_streaming(
        w in 1usize..40,
        sig in signal(awkward_len()),
    ) {
        // The cold block path must match per-push streaming output for
        // output, and leave the same buffered tail behind — checked by
        // streaming more samples through both filters afterwards.
        let mut block = MovingAverage::<f64>::new(w).unwrap();
        let mut stream = MovingAverage::<f64>::new(w).unwrap();
        let got = block.filter(&sig);
        let want: Vec<f64> = sig.iter().filter_map(|&x| stream.push(x)).collect();
        prop_assert_eq!(got.len(), want.len());
        for (g, e) in got.iter().zip(&want) {
            assert_bits_eq(*g, *e, "moving average output");
        }
        for i in 0..w + 2 {
            let x = i as f64 * 0.3 - 1.0;
            prop_assert_eq!(
                block.push(x).map(f64::to_bits),
                stream.push(x).map(f64::to_bits),
                "tail state diverged after block filtering"
            );
        }
    }

    #[test]
    fn goertzel_probe_grouping_matches_single_probes(
        w in signal(awkward_len()),
        bins in prop::collection::vec(prop_oneof![
            (0.0f64..4000.0).boxed(),  // valid: inside [0, rate/2]
            (0.0f64..4000.0).boxed(),
            (0.0f64..4000.0).boxed(),
            Just(-100.0f64).boxed(),   // invalid probes must be skipped
            Just(7000.0f64).boxed(),   // beyond Nyquist
        ], 0..11),
    ) {
        // The interleaved build runs probes four at a time; each lane's
        // recurrence is independent, so results must be bit-identical
        // to probing one frequency at a time.
        let rate = 8000.0;
        let mut best: Option<(f64, f64)> = None;  // last-max ties
        let mut max_sum: Option<(f64, f64)> = None; // first-max + sum
        for &f in &bins {
            let Some(p) = goertzel::goertzel_power(&w, f, rate) else {
                continue;
            };
            best = match best {
                Some((bf, bp)) if bp > p => Some((bf, bp)),
                _ => Some((f, p)),
            };
            let m = p.max(0.0).sqrt();
            max_sum = Some(match max_sum {
                Some((mx, sum)) => (if m > mx { m } else { mx }, sum + m),
                None => (m, m),
            });
        }
        prop_assert_eq!(
            goertzel::strongest_of(&w, &bins, rate).map(|(f, p)| (f.to_bits(), p.to_bits())),
            best.map(|(f, p)| (f.to_bits(), p.to_bits())),
            "strongest_of diverged from per-probe evaluation"
        );
        prop_assert_eq!(
            goertzel::magnitude_max_and_sum(&w, &bins, rate)
                .map(|(m, s)| (m.to_bits(), s.to_bits())),
            max_sum.map(|(m, s)| (m.to_bits(), s.to_bits())),
            "magnitude_max_and_sum diverged from per-probe evaluation"
        );
    }

    // ── Tolerance tier: f32 vs f64 ──────────────────────────────────

    #[test]
    fn f32_summary_tracks_f64_within_budget(w in signal(1usize..2049)) {
        let narrow: Vec<f32> = w.iter().map(|&x| x as f32).collect();
        let s64 = Summary::of(&w).unwrap();
        let s32 = Summary::of(&narrow).unwrap();
        let ms = s64.rms * s64.rms; // mean square: the natural scale for
                                    // variance cancellation error
        prop_assert!((f64::from(s32.mean) - s64.mean).abs() <= 1e-3 * s64.mean.abs().max(1.0));
        prop_assert!((f64::from(s32.rms) - s64.rms).abs() <= 1e-3 * s64.rms.max(1.0));
        prop_assert!((f64::from(s32.variance) - s64.variance).abs() <= 1e-3 * (ms + 1e-9));
        // Extrema only round, never reorder past a single ulp narrowing.
        prop_assert_eq!(f64::from(s32.min).to_bits(), (s64.min as f32 as f64).to_bits());
        prop_assert_eq!(f64::from(s32.max).to_bits(), (s64.max as f32 as f64).to_bits());
    }

    #[test]
    fn f32_zcr_matches_f64_away_from_zero(len in awkward_len()) {
        // Narrowing can flip the sign only of samples within one f32 ulp
        // of zero; a deterministic signal bounded away from zero must
        // count identically.
        let w: Vec<f64> = (0..len)
            .map(|i| {
                let x = ((i as f64) * 0.37).sin();
                x + 0.25 * x.signum() + 0.01 * f64::from(x == 0.0)
            })
            .collect();
        let narrow: Vec<f32> = w.iter().map(|&x| x as f32).collect();
        prop_assert_eq!(zcr::zero_crossings(&w), zcr::zero_crossings(&narrow));
    }

    #[test]
    fn f32_moving_average_tracks_f64(w in 1usize..40, sig in signal(awkward_len())) {
        let narrow: Vec<f32> = sig.iter().map(|&x| x as f32).collect();
        let got = MovingAverage::<f32>::new(w).unwrap().filter(&narrow);
        let want = MovingAverage::<f64>::new(w).unwrap().filter(&sig);
        prop_assert_eq!(got.len(), want.len());
        for (&g, &e) in got.iter().zip(&want) {
            prop_assert!((f64::from(g) - e).abs() <= 1e-3 * e.abs().max(1.0));
        }
    }

    #[test]
    fn f32_goertzel_tracks_f64_within_recurrence_budget(
        size_bits in 4u32..11,
        freq in 100.0f64..3900.0,
    ) {
        // The Goertzel recurrence compounds roundoff ∝ n^1.5·ε; at
        // n = 1024 in f32 that is ~4e-3 relative, so 1e-2 pins the
        // behavior with headroom without masking algorithmic drift.
        let n = 1usize << size_bits;
        let rate = 8000.0;
        let w: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * freq * i as f64 / rate).sin() * 0.9)
            .collect();
        let narrow: Vec<f32> = w.iter().map(|&x| x as f32).collect();
        let p64 = goertzel::goertzel_power(&w, freq, rate).unwrap();
        let p32 = goertzel::goertzel_power(&narrow, freq, rate).unwrap();
        prop_assert!(
            (p32 - p64).abs() <= 1e-2 * p64.abs().max(1e-6),
            "goertzel power diverged: {p64} vs {p32} (n = {n}, f = {freq})"
        );
    }
}
