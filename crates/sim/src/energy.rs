//! Per-node energy attribution for simulated runs.
//!
//! A [`SimResult`] reports *total* energy (phone-state energies plus the
//! hub's flat draw); this module splits it by cause. The hub budget —
//! `hub_mw × duration` — is divided using observed work: each node's
//! share is its cost-model flops-per-input times its counted executions
//! at a fixed energy-per-flop, the link's share is counted frames times
//! the modelled frame transfer time at UART-active power, and whatever
//! the estimates don't claim closes into the MCU's idle floor (see
//! [`EnergyLedger::close`] for the overshoot guard). The phone-state
//! energies reuse the exact arithmetic of
//! [`PowerBreakdown::average_power_mw`], so the ledger's bottom line
//! reproduces the result's average power times duration to within f64
//! rounding.

use crate::app::Application;
use crate::engine::{simulate_with_faults_traced, SimConfig, SimError, SimResult};
use crate::power::{PhonePowerProfile, PowerBreakdown};
use crate::strategy::Strategy;
use sidewinder_hub::cost::PipelineCost;
use sidewinder_hub::fault::{FaultSchedule, WAKE_FRAME_BYTES};
use sidewinder_hub::link::SerialLink;
use sidewinder_hub::runtime::ChannelRates;
use sidewinder_ir::Program;
use sidewinder_obs::{CounterSink, EnergyLedger};
use sidewinder_sensors::SensorTrace;

// The constants live in `sidewinder_hub::energy` so the static
// certifier can price its energy ceiling from the same figures the
// ledger charges; this re-export keeps `sim::energy::HUB_NJ_PER_FLOP`
// the canonical spelling in experiment code.
pub use sidewinder_hub::energy::{HUB_NJ_PER_FLOP, LINK_ACTIVE_MW};

/// A simulation run with its energy split and raw counters.
#[derive(Debug, Clone)]
pub struct AttributedRun {
    /// The ordinary simulation outcome, bit-identical to an untraced run.
    pub result: SimResult,
    /// Where the run's joules went.
    pub ledger: EnergyLedger,
    /// The raw per-node counters and link/fault tallies behind the split.
    pub counters: CounterSink,
}

/// Runs `app` under `strategy` with counters attached and closes an
/// energy ledger over the outcome.
///
/// # Errors
///
/// Returns [`SimError`] if the underlying simulation does.
pub fn attribute_energy(
    trace: &SensorTrace,
    app: &dyn Application,
    strategy: &Strategy,
    profile: &PhonePowerProfile,
    config: &SimConfig,
) -> Result<AttributedRun, SimError> {
    let none = FaultSchedule::none();
    attribute_energy_with_faults(trace, app, strategy, profile, config, &none)
}

/// [`attribute_energy`] under a fault schedule: retried and lost frames
/// show up as link energy, resets as extra executions after warm-up
/// replays.
///
/// # Errors
///
/// Returns [`SimError`] if the underlying simulation does.
pub fn attribute_energy_with_faults(
    trace: &SensorTrace,
    app: &dyn Application,
    strategy: &Strategy,
    profile: &PhonePowerProfile,
    config: &SimConfig,
    schedule: &FaultSchedule,
) -> Result<AttributedRun, SimError> {
    let mut counters = CounterSink::new();
    let result = simulate_with_faults_traced(
        trace,
        app,
        strategy,
        profile,
        config,
        schedule,
        &mut counters,
    )?;
    let ledger = close_ledger(&result.breakdown, profile, strategy, trace, &counters);
    Ok(AttributedRun {
        result,
        ledger,
        counters,
    })
}

/// The hub program a strategy runs, if any.
fn program_of(strategy: &Strategy) -> Option<&Program> {
    match strategy {
        Strategy::HubWake { program, .. } | Strategy::HubWakeDegraded { program, .. } => {
            Some(program)
        }
        _ => None,
    }
}

fn close_ledger(
    breakdown: &PowerBreakdown,
    profile: &PhonePowerProfile,
    strategy: &Strategy,
    trace: &SensorTrace,
    counters: &CounterSink,
) -> EnergyLedger {
    let duration_s = breakdown.total().as_secs_f64();
    let hub_total_j = breakdown.hub_mw * duration_s / 1_000.0;

    // Raw per-node estimates: cost-model flops × observed executions.
    let mut raw_nodes: Vec<(String, u64, f64)> = Vec::new();
    if let Some(program) = program_of(strategy) {
        let mut rates = ChannelRates::default();
        for &channel in &program.channels() {
            if let Some(series) = trace.channel(channel) {
                rates = rates.with_rate(channel, series.rate_hz());
            }
        }
        let cost = PipelineCost::analyze(program, &rates);
        for (i, (_, id, kind)) in program.nodes().enumerate() {
            let executions = counters.nodes().get(i).map_or(0, |n| n.executions);
            let flops = cost.nodes().get(i).map_or(0.0, |c| c.flops_per_input);
            raw_nodes.push((
                format!("{}#{}", kind.ir_name(), id.0),
                executions,
                flops * executions as f64 * HUB_NJ_PER_FLOP * 1e-9,
            ));
        }
    }

    // Raw link estimate: counted frames at the modelled UART transfer
    // time and active power.
    let frame_s = SerialLink::NEXUS4_UART
        .framed_transfer_time(WAKE_FRAME_BYTES)
        .as_secs_f64();
    let link_raw_j = counters.frames_sent as f64 * frame_s * LINK_ACTIVE_MW / 1_000.0;

    // Phone-state energies: the same per-state products that
    // average_power_mw sums, divided by 1000 (mJ → J).
    let phone_awake_j = profile.awake_mw * breakdown.awake.as_secs_f64() / 1_000.0;
    let phone_asleep_j = profile.asleep_mw * breakdown.asleep.as_secs_f64() / 1_000.0;
    let phone_transition_j = (profile.wake_transition_mw * breakdown.waking.as_secs_f64()
        + profile.sleep_transition_mw * breakdown.sleeping.as_secs_f64())
        / 1_000.0;

    EnergyLedger::close(
        hub_total_j,
        raw_nodes,
        link_raw_j,
        phone_awake_j,
        phone_asleep_j,
        phone_transition_j,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use sidewinder_sensors::Micros;
    use sidewinder_sensors::{EventKind, LabeledInterval, SensorChannel, TimeSeries};

    struct ToyApp;

    impl Application for ToyApp {
        fn name(&self) -> &str {
            "toy"
        }
        fn target_kinds(&self) -> Vec<EventKind> {
            vec![EventKind::Headbutt]
        }
        fn classify(&self, _trace: &SensorTrace, start: Micros, _end: Micros) -> Vec<Micros> {
            vec![start]
        }
        fn wake_condition(&self) -> Program {
            "ACC_X -> movingAvg(id=1, params={2});
             1 -> minThreshold(id=2, params={5});
             2 -> OUT;"
                .parse()
                .unwrap()
        }
        fn wake_condition_hub_mw(&self) -> f64 {
            3.6
        }
    }

    fn toy_trace() -> SensorTrace {
        let mut x = vec![0.0f64; 60 * 50];
        for sample in &mut x[1500..1600] {
            *sample = 10.0;
        }
        let mut trace = SensorTrace::new("toy");
        trace.insert(
            SensorChannel::AccX,
            TimeSeries::from_samples(50.0, x).unwrap(),
        );
        trace.ground_truth_mut().push(
            LabeledInterval::new(
                EventKind::Headbutt,
                Micros::from_secs(30),
                Micros::from_secs(32),
            )
            .unwrap(),
        );
        trace
    }

    fn sidewinder() -> Strategy {
        Strategy::HubWake {
            program: ToyApp.wake_condition(),
            hub_mw: 3.6,
            label: "Sw",
        }
    }

    #[test]
    fn attribution_reproduces_the_untraced_result() {
        let trace = toy_trace();
        let config = SimConfig::default();
        let plain = simulate(
            &trace,
            &ToyApp,
            &sidewinder(),
            &PhonePowerProfile::NEXUS4,
            &config,
        )
        .unwrap();
        let attributed = attribute_energy(
            &trace,
            &ToyApp,
            &sidewinder(),
            &PhonePowerProfile::NEXUS4,
            &config,
        )
        .unwrap();
        assert_eq!(plain, attributed.result);
    }

    #[test]
    fn ledger_total_matches_average_power_times_duration() {
        let trace = toy_trace();
        let run = attribute_energy(
            &trace,
            &ToyApp,
            &sidewinder(),
            &PhonePowerProfile::NEXUS4,
            &SimConfig::default(),
        )
        .unwrap();
        let duration_s = run.result.breakdown.total().as_secs_f64();
        let expected_j = run.result.average_power_mw * duration_s / 1_000.0;
        assert!(
            (run.ledger.total_j() - expected_j).abs() < 1e-9,
            "ledger {} J vs result {} J",
            run.ledger.total_j(),
            expected_j
        );
    }

    #[test]
    fn nodes_are_labeled_and_counted() {
        let trace = toy_trace();
        let run = attribute_energy(
            &trace,
            &ToyApp,
            &sidewinder(),
            &PhonePowerProfile::NEXUS4,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(run.ledger.nodes.len(), 2);
        assert_eq!(run.ledger.nodes[0].label, "movingAvg#1");
        assert_eq!(run.ledger.nodes[1].label, "minThreshold#2");
        // Every sample executes the movingAvg entry node.
        assert_eq!(run.ledger.nodes[0].executions, 3000);
        assert!(run.ledger.nodes[0].joules > 0.0);
        // One delivered link frame per wake.
        assert_eq!(run.counters.frames_sent, run.counters.wakes);
    }

    #[test]
    fn phone_only_strategy_has_no_hub_rows() {
        let trace = toy_trace();
        let run = attribute_energy(
            &trace,
            &ToyApp,
            &Strategy::AlwaysAwake,
            &PhonePowerProfile::NEXUS4,
            &SimConfig::default(),
        )
        .unwrap();
        assert!(run.ledger.nodes.is_empty());
        assert_eq!(run.ledger.hub_j(), 0.0);
        assert!(run.ledger.phone_awake_j > 0.0);
    }
}
