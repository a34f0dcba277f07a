//! Observability data types for the Sidewinder reproduction.
//!
//! The paper evaluates Sidewinder through aggregate outcomes — power
//! draw, wake counts, detection accuracy — but a production system needs
//! to see *where* time and energy go inside the hub interpreter, the way
//! DSP.Ear attributes co-processor budgets per pipeline stage. Runs
//! report through one probe trait, `sidewinder_mcu::Probe`; the sinks
//! that collect what it reports (`CounterSink`, `TimelineSink`) live in
//! `sidewinder-hub`. This crate holds the plain data they and the fleet
//! rollups build on:
//!
//! * [`hist`] — fixed-bucket power-of-two latency [`Histogram`]s:
//!   `no_std`-friendly plain arrays, allocation-free after setup.
//! * [`energy`] — the [`EnergyLedger`]: an exact-sum split of a
//!   simulation's joules across pipeline nodes, the serial link, MCU
//!   idle, and the phone's power states.

pub mod energy;
pub mod hist;

pub use energy::{EnergyLedger, NodeEnergy};
pub use hist::Histogram;
