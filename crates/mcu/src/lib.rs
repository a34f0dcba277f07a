//! The `no_std` sensor-hub core.
//!
//! This crate is the part of the Sidewinder reproduction that actually
//! runs on the hub MCU (the paper's TI MSP430 / LM4F120 class parts):
//! the flat `Sample`-generic DSP kernels and the wake-condition
//! interpreter. It is the *only* interpreter: the firmware form
//! ([`McuCore`], inline fixed-capacity arenas) runs on the hub, and the
//! host form ([`HostCore`], `std` feature, heap arenas sized per image)
//! runs behind `sidewinder-hub`'s `HubRuntime` in every simulation.
//! Nothing in here allocates after `load`; with the `std` feature off
//! the crate does not even link `std` or `alloc`, which is what the CI
//! `embedded-build` job proves by cross-compiling it for
//! `thumbv7em-none-eabi`.
//!
//! The host crates (`sidewinder-dsp`, `sidewinder-hub`) depend on this
//! crate **with the `std` feature on** and re-export it; the `std` build
//! routes all float math through the platform libm, which keeps the
//! frozen wake digests bit-identical.
//!
//! The one observability interface lives here too: [`Probe`], with its
//! event vocabulary ([`probe::Event`]), the off switch [`NullSink`] and
//! the [`HighWaterProbe`] the certificate soundness pins read.
//!
//! What stays host-side (see DESIGN.md §6j): IR parsing, validation,
//! lints, the optimizer, the sinks that collect counters and timelines,
//! plan caches, and the `Vec`-returning conveniences. The boundary artifact is
//! [`image::McuImage`]: the host compiles a validated program into that
//! plain-data image and the core executes it.
#![no_std]
#![deny(unsafe_code)]

#[cfg(any(test, feature = "std"))]
extern crate std;

pub mod complex;
pub mod exec;
pub mod fft;
pub mod filter;
pub mod footprint;
pub mod goertzel;
pub mod image;
pub mod math;
pub mod probe;
pub mod sample;
pub mod spectral;
pub mod stats;
pub mod window;
pub mod zcr;

pub use complex::Complex;
pub use exec::{
    ArenaStorage, ArenaViews, ExecCore, InlineArenas, McuCore, McuExecError, WakeEvent,
    DEFAULT_ARENA, HOST_ARENA_CAP,
};
#[cfg(feature = "std")]
pub use exec::{HeapArenas, HostCore};
pub use footprint::{
    check_fit, image_footprint, image_layout, ArenaKind, ArenaUse, ImageFootprint, ImageLayout,
};
pub use image::{
    CapacityError, ImageBuilder, ImageError, Mask, McuImage, NodeKind, NodeSpec, PortSource,
    StatKind,
};
pub use probe::{Event, FrameOutcome, HighWaterProbe, NullSink, Probe};
pub use sample::Sample;
pub use window::WindowShape;
