//! Spectral feature extraction over one-sided magnitude spectra.
//!
//! The siren wake-up condition (§3.7.2) transforms each window to the
//! frequency domain, extracts "the magnitude of the dominant frequency and
//! the mean magnitude of all frequency bins", and uses their ratio to decide
//! whether the window contains a pitched sound. The reductions live in
//! `sidewinder-mcu` (the `no_std` hub core runs them on-device); this
//! module re-exports them for the host-side pipeline builders.

pub use sidewinder_mcu::spectral::*;
