//! Goertzel single-bin DFT evaluation.
//!
//! The kernels live in `sidewinder-mcu` — Goertzel probing is exactly
//! the workload the paper keeps on the small MCU (§3.8) — and are
//! re-exported here; see that module for the interleaved probe passes.

pub use sidewinder_mcu::goertzel::*;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft;

    #[test]
    fn matches_fft_bin_power() {
        let n = 256;
        let rate = 8000.0;
        let f = fft::bin_to_frequency(32, n, rate);
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / rate).sin())
            .collect();
        let spectrum = fft::real_fft(&signal).unwrap();
        let fft_power = spectrum[32].magnitude_squared();
        let g_power = goertzel_power(&signal, f, rate).unwrap();
        assert!(
            (fft_power - g_power).abs() / fft_power < 1e-9,
            "fft {fft_power} vs goertzel {g_power}"
        );
    }
}
