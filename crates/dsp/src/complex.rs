//! A minimal complex-number type for the FFT kernels.
//!
//! The crate deliberately avoids external numeric dependencies (see the
//! crate-level docs), so it carries its own small [`Complex`] type with just
//! the arithmetic the transforms need. The implementation lives in
//! `sidewinder-mcu` (the `no_std` hub core) because the on-device
//! interpreter does complex arithmetic too; this module re-exports it so
//! host-side code keeps its historical `sidewinder_dsp::complex` path.

pub use sidewinder_mcu::complex::*;
