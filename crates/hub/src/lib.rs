//! The Sidewinder low-power sensor-hub substrate.
//!
//! The paper's hub (§3.4–3.6) is a microcontroller (TI MSP430 or TI
//! LM4F120) running a small interpreter over the intermediate language:
//! each IR node owns its own data structure with a `hasResult` flag; the
//! interpreter feeds sensor samples in, propagates flagged results along
//! the dataflow edges, and reports a wake-up whenever a value reaches
//! `OUT`.
//!
//! This crate is the host side of that substrate. The interpreter itself
//! is `sidewinder-mcu`'s core, the same code the hub runs:
//!
//! * [`mcu_image`] — compiles a validated IR program into the plain-data
//!   image the core loads ([`compile_image`]);
//! * [`runtime`] — [`HubRuntime`], the core's host wrapper: loads a
//!   program, accepts samples, and emits [`WakeEvent`]s;
//! * [`cost`] — a flop/memory cost model for pipelines;
//! * [`mcu`] — microcontroller capability models; the MSP430 cannot run
//!   FFT stages in real time, reproducing the paper's Table 2 footnote;
//! * [`link`] — the phone↔hub serial link budget (paper §3.4), with
//!   CRC-framed transfer modeling so corruption is detectable;
//! * [`fault`] — deterministic fault injection for the link and hub
//!   (frame corruption/drops, watchdog resets, channel dropouts).
//!
//! # Example
//!
//! ```
//! use sidewinder_hub::runtime::HubRuntime;
//! use sidewinder_ir::Program;
//! use sidewinder_sensors::SensorChannel;
//!
//! let program: Program = "\
//! ACC_X -> movingAvg(id=1, params={4});
//! 1 -> minThreshold(id=2, params={5});
//! 2 -> OUT;
//! ".parse()?;
//! let mut hub = HubRuntime::load(&program, &Default::default())?;
//! // Quiet samples do not wake the CPU; a loud burst does.
//! for _ in 0..8 {
//!     assert!(hub.push_sample(SensorChannel::AccX, 0.0)?.is_empty());
//! }
//! let mut woke = false;
//! for _ in 0..8 {
//!     woke |= !hub.push_sample(SensorChannel::AccX, 9.0)?.is_empty();
//! }
//! assert!(woke);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cost;
pub mod energy;
pub mod fault;
pub mod link;
pub mod mcu;
pub mod mcu_image;
pub mod runtime;

pub use fault::{ChannelDropout, FaultPlan, FaultSchedule, FrameFate, RetryPolicy};
pub use mcu::Mcu;
pub use mcu_image::compile_image;
pub use runtime::{HubError, HubRuntime, HubRuntime32, LoadError, WakeEvent};
pub use sidewinder_dsp::Sample;
pub use sidewinder_mcu::image::{MAX_CHANNELS, MAX_NODES};
pub use sidewinder_mcu::{McuCore, McuExecError, McuImage, DEFAULT_ARENA};
