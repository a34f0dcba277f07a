//! DSP primitives for the Sidewinder sensor hub.
//!
//! The Sidewinder paper (ASPLOS 2016, §3.6) ships a fixed menu of sensor
//! data processing algorithms on the low-power sensor hub: windowing,
//! FFT/IFFT transforms, noise-reduction filters, FFT-based low/high-pass
//! filters, feature extraction (vector magnitude, zero-crossing rate,
//! statistics, dominant-frequency magnitude), and admission-control
//! thresholds. This crate is the host-side face of the numerical kernels
//! behind those algorithms (most live in `sidewinder-mcu`, whose
//! interpreter runs them per node).
//!
//! All kernels are implemented in-repo (no external DSP dependency) because
//! the algorithms themselves are part of the system under study: the paper's
//! hub runtime ships its own C implementations, and the reproduction's
//! micro-benchmarks measure exactly these kernels.
//!
//! # Example
//!
//! ```
//! use sidewinder_dsp::{fft, window::WindowShape};
//!
//! // A 1 kHz tone sampled at 8 kHz, Hamming-windowed, transformed, and
//! // reduced to its dominant frequency.
//! let n = 256;
//! let rate = 8000.0;
//! let tone: Vec<f64> = (0..n)
//!     .map(|i| (2.0 * std::f64::consts::PI * 1000.0 * i as f64 / rate).sin())
//!     .collect();
//! let windowed = WindowShape::Hamming.apply(&tone);
//! let spectrum = fft::real_fft_magnitudes(&windowed);
//! let peak = sidewinder_dsp::spectral::dominant_bin(&spectrum[1..]).unwrap();
//! let freq = fft::bin_to_frequency(peak.bin + 1, n, rate);
//! assert!((freq - 1000.0).abs() < rate / n as f64);
//! ```

pub mod complex;
pub mod fft;
pub mod filter;
pub mod goertzel;
pub mod sample;
pub mod spectral;
pub mod stats;
pub mod window;
pub mod zcr;

pub use complex::Complex;
pub use fft::FftPlan;
pub use filter::BandShape;
pub use sample::Sample;
