//! Trace-driven simulation of continuous-sensing strategies.
//!
//! The paper's evaluation (§4) replays sensor traces through a simulator
//! that models the phone's sleep/wake behaviour and power draw under six
//! sensing configurations: Always Awake, Duty Cycling, Batching,
//! Predefined Activity, Sidewinder, and a hypothetical Oracle. This crate
//! is that simulator:
//!
//! * [`power`] — the Nexus 4 power profile (Table 1) and energy
//!   integration over the phone's state timeline;
//! * [`intervals`] — awake-interval set algebra (merging, clipping,
//!   total time);
//! * [`app`] — the [`Application`] trait the six evaluation applications
//!   implement: a main-CPU classifier plus hub wake-up condition;
//! * [`strategy`] — the sensing configurations;
//! * [`engine`] — [`engine::simulate`]: replay a trace under a strategy,
//!   producing awake intervals, detections, wake-up counts, and power;
//!   [`engine::simulate_with_faults`] injects a deterministic
//!   [`FaultSchedule`] (corrupted/dropped frames, hub resets, sensor
//!   dropouts) with retry/backoff recovery and an optional degraded
//!   duty-cycling fallback. Every entry point wraps one generic run, and
//!   one hub replay — cut at the fault plan's edges, batched between
//!   them — feeds every hub-resident strategy, traced or not;
//! * [`metrics`] — recall/precision matching of detections against
//!   ground truth, plus [`FaultCounters`] for fault-injected runs;
//! * [`concurrent`] — several applications sharing one phone and hub
//!   (the paper's §7 concurrency question), each condition replayed
//!   through the engine's hub replay;
//! * [`batch`] — the parallel sweep engine: run an application ×
//!   strategy × trace grid over [`try_par_map`]'s scoped worker pool
//!   with deterministic, bit-identical-to-serial results;
//! * [`report`] — derived quantities (power relative to Oracle, fraction
//!   of possible savings) and fixed-width table rendering for the
//!   experiment binaries;
//! * [`energy`] — [`energy::attribute_energy`]: run with counters
//!   attached and close an exact-sum [`EnergyLedger`] splitting the
//!   run's joules across pipeline nodes, the serial link, MCU idle, and
//!   the phone's power states.

pub mod app;
pub mod batch;
pub mod concurrent;
pub mod energy;
pub mod engine;
pub mod intervals;
pub mod metrics;
pub mod power;
pub mod report;
pub mod strategy;

pub use app::Application;
pub use batch::{
    par_map, try_par_map, BatchReport, BatchRunner, JobError, JobOutcome, JobPanic, JobSpec,
    SharedApp, SweepSpec,
};
pub use energy::{attribute_energy, attribute_energy_with_faults, AttributedRun};
pub use engine::{
    simulate, simulate_f32, simulate_traced, simulate_with_faults, simulate_with_faults_traced,
    SimConfig, SimError, SimResult,
};
pub use metrics::{DetectionStats, FaultCounters};
pub use power::{PhonePowerProfile, PowerBreakdown};
pub use sidewinder_hub::fault::{ChannelDropout, FaultSchedule, RetryPolicy};
pub use sidewinder_hub::{CounterSink, NullSink, Probe, TimelineSink};
pub use sidewinder_obs::EnergyLedger;
pub use strategy::Strategy;
