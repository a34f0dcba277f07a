//! Property-based tests over the DSP kernels.

use proptest::prelude::*;
use sidewinder_dsp::filter::MovingAverage;
use sidewinder_dsp::window::WindowShape;
use sidewinder_dsp::{fft, goertzel, spectral, stats, zcr, Complex};

fn finite_signal(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..max_len)
}

fn pow2_signal() -> impl Strategy<Value = Vec<f64>> {
    (2u32..9).prop_flat_map(|bits| prop::collection::vec(-1e3f64..1e3, 1usize << bits))
}

proptest! {
    #[test]
    fn fft_ifft_round_trip(signal in pow2_signal()) {
        let mut data: Vec<Complex> = signal.iter().map(|&x| Complex::from_real(x)).collect();
        fft::fft_in_place(&mut data).unwrap();
        fft::ifft_in_place(&mut data).unwrap();
        for (z, &x) in data.iter().zip(&signal) {
            prop_assert!((z.re - x).abs() < 1e-6 * (1.0 + x.abs()));
            prop_assert!(z.im.abs() < 1e-6);
        }
    }

    #[test]
    fn parseval_holds(signal in pow2_signal()) {
        let n = signal.len() as f64;
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let spectrum = fft::real_fft(&signal).unwrap();
        let freq_energy: f64 = spectrum.iter().map(|z| z.magnitude_squared()).sum::<f64>() / n;
        prop_assert!((time_energy - freq_energy).abs() <= 1e-6 * (1.0 + time_energy));
    }

    #[test]
    fn real_spectrum_is_conjugate_symmetric(signal in pow2_signal()) {
        let spectrum = fft::real_fft(&signal).unwrap();
        let n = spectrum.len();
        for k in 1..n / 2 {
            let (a, b) = (spectrum[k], spectrum[n - k]);
            prop_assert!((a.re - b.re).abs() < 1e-6 * (1.0 + a.magnitude()));
            prop_assert!((a.im + b.im).abs() < 1e-6 * (1.0 + a.magnitude()));
        }
    }

    #[test]
    fn moving_average_output_within_input_bounds(
        signal in finite_signal(64),
        window in 1usize..16,
    ) {
        let lo = signal.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = signal.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut ma = MovingAverage::new(window).unwrap();
        for y in ma.filter(&signal) {
            prop_assert!(y >= lo - 1e-9 && y <= hi + 1e-9);
        }
    }

    #[test]
    fn moving_average_emits_exactly_len_minus_window_plus_one(
        signal in finite_signal(128),
        window in 1usize..16,
    ) {
        let mut ma = MovingAverage::new(window).unwrap();
        let out = ma.filter(&signal);
        prop_assert_eq!(out.len(), signal.len().saturating_sub(window - 1));
    }

    #[test]
    fn zcr_rate_is_in_unit_interval(signal in finite_signal(128)) {
        if let Some(r) = zcr::zero_crossing_rate(&signal) {
            prop_assert!((0.0..=1.0).contains(&r));
        }
    }

    #[test]
    fn summary_invariants(signal in finite_signal(128)) {
        let s = stats::Summary::of(&signal).unwrap();
        prop_assert!(s.min <= s.mean + 1e-9);
        prop_assert!(s.mean <= s.max + 1e-9);
        prop_assert!(s.variance >= 0.0);
        prop_assert!(s.rms >= 0.0);
        prop_assert!(s.rms + 1e-9 >= s.mean.abs());
        prop_assert_eq!(s.count, signal.len());
    }

    #[test]
    fn window_coefficients_in_unit_interval(
        n in 1usize..256,
        shape_idx in 0usize..3,
    ) {
        let shape = [WindowShape::Rectangular, WindowShape::Hamming, WindowShape::Hann][shape_idx];
        for c in shape.coefficients(n) {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
        }
    }

    #[test]
    fn goertzel_never_negative(signal in pow2_signal(), freq_frac in 0.0f64..0.5) {
        let rate = 8000.0;
        let p = goertzel::goertzel_power(&signal, freq_frac * rate, rate).unwrap();
        prop_assert!(p >= -1e-6 * signal.iter().map(|x| x * x).sum::<f64>().max(1.0));
    }

    #[test]
    fn dominant_to_mean_ratio_at_least_one(signal in pow2_signal()) {
        let mags = fft::real_fft_magnitudes(&signal);
        if let Some(r) = spectral::dominant_to_mean_ratio(&mags) {
            prop_assert!(r >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn local_extrema_are_within_band(
        signal in finite_signal(128),
        lo in -100.0f64..0.0,
        span in 0.0f64..200.0,
    ) {
        let hi = lo + span;
        for i in stats::local_maxima_in_band(&signal, lo, hi) {
            prop_assert!(signal[i] >= lo && signal[i] <= hi);
            prop_assert!(i > 0 && i < signal.len() - 1);
        }
        for i in stats::local_minima_in_band(&signal, lo, hi) {
            prop_assert!(signal[i] >= lo && signal[i] <= hi);
        }
    }
}
