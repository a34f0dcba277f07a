//! # Sidewinder
//!
//! A Rust reproduction of *"Sidewinder: An Energy Efficient and Developer
//! Friendly Heterogeneous Architecture for Continuous Mobile Sensing"*
//! (ASPLOS 2016).
//!
//! Sidewinder offloads continuous sensor processing to a low-power sensor
//! hub: the platform ships a fixed menu of processing algorithms
//! (windowing, filtering, FFT, feature extraction, admission control) and
//! application developers build custom *wake-up conditions* by chaining
//! and parameterizing them. The hub runs the condition continuously and
//! wakes the main processor only when events of interest occur.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the developer API: `ProcessingPipeline`,
//!   `ProcessingBranch`, algorithm stubs, `SidewinderSensorManager`;
//! * [`ir`] — the intermediate language exchanged between the sensor
//!   manager and the hub;
//! * [`hub`] — the sensor-hub substrate: the IR interpreter, MCU
//!   capability models, the serial-link budget;
//! * [`dsp`] — the numerical kernels behind the hub algorithms;
//! * [`mcu`] — the `#![no_std]` hub core: the fixed-capacity image
//!   format, the zero-allocation interpreter, and the `Sample`-generic
//!   kernels, cross-compilable to bare-metal MCU targets;
//! * [`sensors`] — traces, channels, timestamps, ground truth;
//! * [`tracegen`] — synthetic robot / human / audio trace generators;
//! * [`apps`] — the six evaluation applications and the
//!   predefined-activity baselines;
//! * [`lint`] — the `swlint` static analyzer: abstract interpretation
//!   over value intervals, the `SW0xx` lint catalog, MCU schedulability
//!   checks;
//! * [`cert`] — the `swcert` static resource certifier: sound per-arena
//!   occupancy, worst-case cycle, and energy-ceiling bounds over
//!   compiled MCU images, with pinned canonical-JSON digests;
//! * [`opt`] — the `swopt` optimizing IR compiler: dead-node
//!   elimination, gate fusion, cross-application common-subexpression
//!   elimination, and Goertzel strength reduction, built on the
//!   linter's abstract-interpretation facts;
//! * [`sim`] — the trace-driven power/recall simulator;
//! * [`fleet`] — the fleet-scale simulation service: sharded
//!   hundred-thousand-device runs over the batch engine with streaming
//!   trace generation, per-device fault schedules, a framed wire API,
//!   and deterministic observability rollups;
//! * [`obs`] — observability data: timing histograms and energy
//!   ledgers. Runs report through one probe trait, `mcu::Probe`; its
//!   sinks (`hub::CounterSink`, `hub::TimelineSink`) live in [`hub`].
//!
//! # Quickstart
//!
//! The paper's Fig. 2 significant-motion condition, end to end:
//!
//! ```
//! use sidewinder::core::algorithm::{MinThreshold, MovingAverage, VectorMagnitude};
//! use sidewinder::core::{ProcessingBranch, ProcessingPipeline, SidewinderSensorManager};
//! use sidewinder::sensors::SensorChannel;
//!
//! let mut pipeline = ProcessingPipeline::new();
//! let mut branches = [
//!     ProcessingBranch::new(SensorChannel::AccX),
//!     ProcessingBranch::new(SensorChannel::AccY),
//!     ProcessingBranch::new(SensorChannel::AccZ),
//! ];
//! for branch in &mut branches {
//!     branch.add(MovingAverage::new(10));
//! }
//! pipeline.add_branches(branches);
//! pipeline.add(VectorMagnitude::new());
//! pipeline.add(MinThreshold::new(15.0));
//!
//! // The sensor manager compiles the pipeline to the intermediate
//! // language, sizes it onto a microcontroller, and runs it on the hub.
//! let mut manager = SidewinderSensorManager::new();
//! let id = manager.push(&pipeline, |event: &sidewinder::core::SensorEvent| {
//!     println!("wake-up: |a| = {:.1} m/s^2", event.value);
//! })?;
//! assert_eq!(manager.mcu(id).unwrap().name, "TI MSP430");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use sidewinder_apps as apps;
pub use sidewinder_cert as cert;
pub use sidewinder_core as core;
pub use sidewinder_dsp as dsp;
pub use sidewinder_fleet as fleet;
pub use sidewinder_hub as hub;
pub use sidewinder_ir as ir;
pub use sidewinder_lint as lint;
pub use sidewinder_mcu as mcu;
pub use sidewinder_obs as obs;
pub use sidewinder_opt as opt;
pub use sidewinder_sensors as sensors;
pub use sidewinder_sim as sim;
pub use sidewinder_tracegen as tracegen;
