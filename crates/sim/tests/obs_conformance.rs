//! Observability must never change what it observes.
//!
//! Two pins across all six evaluation applications:
//!
//! * a run with the default [`NullSink`] — and a run with live
//!   [`CounterSink`] counters, which takes the per-sample traced replay
//!   path instead of the batch path — is bit-identical to the plain
//!   `simulate` result (wakes, detections, intervals, energy);
//! * the per-node energy ledger closes on the run's measured energy to
//!   within 1e-9 J.
//!
//! Both pins hold under fault schedules too, where the counters must
//! also tally exactly the fault activity the result reports.

use sidewinder_apps::{accelerometer_apps, audio_apps, StepsApp};
use sidewinder_hub::{Event, WakeEvent};
use sidewinder_ir::fnv::Fnv1a;
use sidewinder_ir::{NodeId, Program};
use sidewinder_sensors::{Micros, SensorChannel, SensorTrace};
use sidewinder_sim::{
    attribute_energy_with_faults, simulate, simulate_with_faults, simulate_with_faults_traced,
    Application, ChannelDropout, CounterSink, FaultSchedule, NullSink, PhonePowerProfile, Probe,
    SimConfig, Strategy,
};
use sidewinder_tracegen::{
    audio_trace, robot_group_runs, ActivityGroup, AudioEnvironment, AudioTraceConfig,
};

/// Each evaluation application with a representative trace: the three
/// accelerometer apps on one robot run, the three audio apps on one
/// audio environment each.
fn six_apps() -> Vec<(Box<dyn Application>, SensorTrace)> {
    let robot = robot_group_runs(ActivityGroup::Group1, 1, Micros::from_secs(120), 11)
        .pop()
        .unwrap();
    let mut out: Vec<(Box<dyn Application>, SensorTrace)> = Vec::new();
    for app in accelerometer_apps() {
        out.push((app, robot.clone()));
    }
    for (i, app) in audio_apps().into_iter().enumerate() {
        let trace = audio_trace(&AudioTraceConfig {
            duration: Micros::from_secs(60),
            environment: AudioEnvironment::ALL[i % AudioEnvironment::ALL.len()],
            seed: 42 + i as u64,
            ..AudioTraceConfig::default()
        });
        out.push((app, trace));
    }
    out
}

fn sidewinder(app: &dyn Application) -> Strategy {
    Strategy::HubWake {
        program: app.wake_condition(),
        hub_mw: app.wake_condition_hub_mw(),
        label: "Sw",
    }
}

#[test]
fn traced_runs_are_bit_identical_to_plain_runs_for_all_six_apps() {
    let profile = PhonePowerProfile::NEXUS4;
    let config = SimConfig::default();
    for (app, trace) in six_apps() {
        let strategy = sidewinder(app.as_ref());
        let plain = simulate(&trace, app.as_ref(), &strategy, &profile, &config).unwrap();

        let mut null = NullSink;
        let with_null = simulate_with_faults_traced(
            &trace,
            app.as_ref(),
            &strategy,
            &profile,
            &config,
            &FaultSchedule::none(),
            &mut null,
        )
        .unwrap();
        assert_eq!(plain, with_null, "{}: NullSink run diverged", app.name());

        // Counters flip the engine onto the per-sample traced replay —
        // still bit-identical to the batch path.
        let mut counters = CounterSink::new();
        let with_counters = simulate_with_faults_traced(
            &trace,
            app.as_ref(),
            &strategy,
            &profile,
            &config,
            &FaultSchedule::none(),
            &mut counters,
        )
        .unwrap();
        assert_eq!(
            plain,
            with_counters,
            "{}: counter-instrumented run diverged",
            app.name()
        );
        assert!(
            counters.total_executions() > 0,
            "{}: counters saw no work",
            app.name()
        );
        // Awake periods merge overlapping wakes, so the raw hub wake
        // count can only be at least the result's wake-up count.
        assert!(
            counters.wakes >= plain.wake_ups as u64,
            "{}: {} counted wakes < {} awake periods",
            app.name(),
            counters.wakes,
            plain.wake_ups
        );
    }
}

#[test]
fn energy_ledger_closes_within_a_nanojoule_for_all_six_apps() {
    let profile = PhonePowerProfile::NEXUS4;
    let config = SimConfig::default();
    for (app, trace) in six_apps() {
        let strategy = sidewinder(app.as_ref());
        let run = attribute_energy_with_faults(
            &trace,
            app.as_ref(),
            &strategy,
            &profile,
            &config,
            &FaultSchedule::none(),
        )
        .unwrap();
        let duration_s = run.result.breakdown.total().as_secs_f64();
        let measured_j = run.result.average_power_mw * duration_s / 1_000.0;
        let gap = (run.ledger.total_j() - measured_j).abs();
        assert!(
            gap < 1e-9,
            "{}: ledger off by {gap:.3e} J (ledger {} J, measured {} J)",
            app.name(),
            run.ledger.total_j(),
            measured_j
        );
        // The hub side alone also closes on the flat hub draw.
        let hub_j = run.result.breakdown.hub_mw * duration_s / 1_000.0;
        assert!(
            (run.ledger.hub_j() - hub_j).abs() < 1e-9,
            "{}: hub sub-ledger off",
            app.name()
        );
    }
}

/// Every fault class at once: noisy link, rate-based resets.
fn stress_schedule() -> FaultSchedule {
    FaultSchedule::seeded(0xFA57)
        .with_frame_corruption(0.2)
        .with_frame_drops(0.1)
        .with_hub_resets_every(Micros::from_secs(15))
}

/// Explicit edges inside the shortest (60 s) trace: a dropout on each
/// sensor kind, a hub outage and one watchdog reset, plus a noisy link.
fn edge_schedule() -> FaultSchedule {
    FaultSchedule::seeded(0xED6E)
        .with_frame_corruption(0.3)
        .with_dropout(ChannelDropout::new(
            SensorChannel::AccX,
            Micros::from_secs(10),
            Micros::from_millis(17_510),
        ))
        .with_dropout(ChannelDropout::new(
            SensorChannel::Mic,
            Micros::from_millis(25_003),
            Micros::from_secs(29),
        ))
        .with_hub_downtime(Micros::from_secs(35), Micros::from_secs(40))
        .with_hub_reset_at(Micros::from_millis(47_501))
}

#[test]
fn traced_fault_runs_match_plain_runs_and_tally_their_faults() {
    let profile = PhonePowerProfile::NEXUS4;
    let config = SimConfig::default();
    for schedule in [stress_schedule(), edge_schedule()] {
        for (app, trace) in six_apps() {
            let app = app.as_ref();
            let strategy = sidewinder(app);
            let plain =
                simulate_with_faults(&trace, app, &strategy, &profile, &config, &schedule).unwrap();
            assert!(!plain.fault.is_clean(), "{}: no fault fired", app.name());

            let with_null = simulate_with_faults_traced(
                &trace,
                app,
                &strategy,
                &profile,
                &config,
                &schedule,
                &mut NullSink,
            )
            .unwrap();
            assert_eq!(plain, with_null, "{}: NullSink run diverged", app.name());

            let mut c = CounterSink::new();
            let with_counters = simulate_with_faults_traced(
                &trace, app, &strategy, &profile, &config, &schedule, &mut c,
            )
            .unwrap();
            assert_eq!(plain, with_counters, "{}: counted run diverged", app.name());
            let f = &plain.fault;
            assert_eq!(
                [
                    c.frames_sent,
                    c.frames_corrupted,
                    c.frames_dropped,
                    c.frames_retried,
                    c.frames_lost,
                    c.hub_resets,
                    c.redownloads,
                    c.samples_dropped,
                ],
                [
                    f.frames_sent,
                    f.frames_corrupted,
                    f.frames_dropped,
                    f.frames_retried,
                    f.frames_lost,
                    f.hub_resets,
                    f.redownloads,
                    f.samples_dropped,
                ],
                "{}: counters disagree with the result's fault tallies",
                app.name()
            );

            let run =
                attribute_energy_with_faults(&trace, app, &strategy, &profile, &config, &schedule)
                    .unwrap();
            assert_eq!(run.result, plain, "{}: attributed run diverged", app.name());
            let measured_j =
                plain.average_power_mw * plain.breakdown.total().as_secs_f64() / 1_000.0;
            let gap = (run.ledger.total_j() - measured_j).abs();
            assert!(
                gap < 1e-9,
                "{}: faulted ledger off by {gap:.3e} J",
                app.name()
            );
        }
    }
}

/// Hashes every event with the trace time it was recorded at, in
/// emission order; node timings are left out. Each event is hashed as
/// the text the pin was taken with: node runs and wakes name their IR
/// ids, resolved from the program's dense order, and a dropped sample
/// names its channel.
struct StreamDigest {
    /// IR id of each node by dense index.
    ids: Vec<NodeId>,
    /// The node feeding `OUT`, which wakes name.
    out: NodeId,
    now: Micros,
    hash: Fnv1a,
    events: u64,
}

impl StreamDigest {
    fn new(program: &Program) -> StreamDigest {
        StreamDigest {
            ids: program.nodes().map(|(_, id, _)| id).collect(),
            out: program.out_source().unwrap(),
            now: Micros::ZERO,
            hash: Fnv1a::new(),
            events: 0,
        }
    }

    fn emit(&mut self, event: &str) {
        self.hash
            .bytes(format!("{:?} {event};", self.now).as_bytes());
        self.events += 1;
    }
}

impl Probe for StreamDigest {
    fn node_end(&mut self, node: u16, produced: bool) {
        let (index, id) = (node as usize, self.ids[node as usize]);
        self.emit(&format!(
            "NodeExecuted {{ index: {index}, node: {id:?}, elapsed_ns: 0, produced: {produced} }}"
        ));
    }

    fn wake(&mut self, wake: WakeEvent) {
        let WakeEvent { seq, value } = wake;
        let out = self.out;
        self.emit(&format!(
            "Wake {{ node: {out:?}, seq: {seq}, value: {value:?} }}"
        ));
    }

    fn record(&mut self, event: Event) {
        match event {
            Event::SampleDropped { channel } => {
                let channel = SensorChannel::ALL[channel as usize];
                self.emit(&format!("SampleDropped {{ channel: {channel:?} }}"));
            }
            other => self.emit(&format!("{other:?}")),
        }
    }

    fn set_time(&mut self, micros: u64) {
        self.now = Micros::from_micros(micros);
    }
}

/// Pins the traced event stream of a program reading three co-sampled
/// axes while the middle one is dropped: every node run, wake, dropped
/// sample, frame attempt and reset, in order and at its trace time.
#[test]
fn traced_stream_with_a_dropped_middle_axis_matches_its_pin() {
    let program: Program = "ACC_X -> movingAvg(id=1, params={4});
                   ACC_Y -> movingAvg(id=2, params={4});
                   ACC_Z -> movingAvg(id=3, params={4});
                   1 -> minThreshold(id=4, params={1.5});
                   2 -> minThreshold(id=5, params={1.5});
                   3 -> minThreshold(id=6, params={11});
                   4,5,6 -> anyOf(id=7);
                   7 -> OUT;"
        .parse()
        .unwrap();
    let mut stream = StreamDigest::new(&program);
    let strategy = Strategy::HubWake {
        program,
        hub_mw: 3.6,
        label: "Sw",
    };
    let trace = six_apps().swap_remove(0).1;
    let schedule = FaultSchedule::seeded(0x5EC)
        .with_frame_corruption(0.3)
        .with_dropout(ChannelDropout::new(
            SensorChannel::AccY,
            Micros::from_secs(20),
            Micros::from_millis(50_010),
        ))
        .with_hub_reset_at(Micros::from_millis(70_001));
    let (profile, config) = (PhonePowerProfile::NEXUS4, SimConfig::default());
    let app = StepsApp::new();
    let plain =
        simulate_with_faults(&trace, &app, &strategy, &profile, &config, &schedule).unwrap();
    let traced = simulate_with_faults_traced(
        &trace,
        &app,
        &strategy,
        &profile,
        &config,
        &schedule,
        &mut stream,
    )
    .unwrap();
    assert_eq!(plain, traced);
    assert!(plain.fault.samples_dropped > 0 && plain.fault.frames_corrupted > 0);
    assert_eq!(
        (stream.events, stream.hash.finish()),
        (37_325, 0xa12e_a5f1_01c3_0a6e),
        "traced stream moved: {} events, digest {:#018x}",
        stream.events,
        stream.hash.finish()
    );
}
