//! Fault-injection conformance: the fault-aware engine must (1) be
//! bit-identical to the fault-free path when the schedule is empty,
//! (2) be bit-identical across worker counts for a fixed seed — the
//! batch engine's determinism promise extended to fault runs — (3)
//! degrade into genuine duty cycling while the hub is down, and (4)
//! reproduce every pinned faulted result bit for bit.

use sidewinder_apps::{
    HeadbuttsApp, MusicJournalApp, PhraseDetectionApp, SirenDetectorApp, StepsApp, TransitionsApp,
};
use sidewinder_sensors::{Micros, SensorChannel, SensorTrace};
use sidewinder_sim::{
    simulate, simulate_with_faults, Application, BatchRunner, ChannelDropout, FaultSchedule,
    PhonePowerProfile, SharedApp, SimConfig, Strategy, SweepSpec,
};
use sidewinder_tracegen::{audio_trace, robot_run, AudioTraceConfig, RobotRunConfig};
use std::sync::Arc;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// A trace carrying both the accelerometer and the microphone channels,
/// so every evaluation application has the data its classifier and
/// wake-up condition need.
fn combined_trace(seed: u64, duration_s: u64) -> SensorTrace {
    let mut trace = robot_run(&RobotRunConfig {
        duration: Micros::from_secs(duration_s),
        idle_fraction: 0.6,
        rate_hz: 50.0,
        seed,
    });
    let audio = audio_trace(&AudioTraceConfig {
        duration: Micros::from_secs(duration_s),
        seed: seed + 1000,
        ..AudioTraceConfig::default()
    });
    for channel in audio.channels().collect::<Vec<_>>() {
        trace.insert(
            channel,
            audio.channel(channel).expect("listed channel").clone(),
        );
    }
    for interval in audio.ground_truth().intervals() {
        trace.ground_truth_mut().push(*interval);
    }
    trace
}

fn all_apps() -> Vec<SharedApp> {
    vec![
        Arc::new(StepsApp::new()),
        Arc::new(TransitionsApp::new()),
        Arc::new(HeadbuttsApp::new()),
        Arc::new(SirenDetectorApp::new()),
        Arc::new(MusicJournalApp::new()),
        Arc::new(PhraseDetectionApp::new()),
    ]
}

/// Each application's own Sidewinder wake-up condition, plain and
/// hardened.
fn sidewinder_strategies(app: &dyn Application) -> Vec<Strategy> {
    vec![
        Strategy::HubWake {
            program: app.wake_condition(),
            hub_mw: app.wake_condition_hub_mw(),
            label: "Sw",
        },
        Strategy::HubWakeDegraded {
            program: app.wake_condition(),
            hub_mw: app.wake_condition_hub_mw(),
            label: "Sw+",
            fallback_sleep: Micros::from_secs(5),
        },
    ]
}

/// A schedule that exercises every fault class at once.
fn stress_schedule() -> FaultSchedule {
    FaultSchedule::seeded(0xFA57)
        .with_frame_corruption(0.2)
        .with_frame_drops(0.1)
        .with_hub_resets_every(Micros::from_secs(40))
}

#[test]
fn empty_schedule_is_bit_identical_for_every_cell() {
    let spec = SweepSpec::new()
        .shared_apps(all_apps())
        .trace(combined_trace(71, 120))
        .strategies_per_app(sidewinder_strategies);
    let none = FaultSchedule::none();
    for job in spec.jobs() {
        let clean = simulate(
            &job.trace,
            &*job.app,
            &job.strategy,
            &job.profile,
            &job.config,
        )
        .expect("clean cell");
        let faulted = simulate_with_faults(
            &job.trace,
            &*job.app,
            &job.strategy,
            &job.profile,
            &job.config,
            &none,
        )
        .expect("empty-schedule cell");
        assert_eq!(
            clean,
            faulted,
            "{} / {}: empty schedule diverged from the fault-free path",
            job.app.name(),
            job.strategy.label()
        );
        assert!(faulted.fault.is_clean());
    }
}

#[test]
fn seeded_faults_are_bit_identical_across_worker_counts() {
    let spec = SweepSpec::new()
        .shared_apps(all_apps())
        .trace(combined_trace(72, 120))
        .strategies_per_app(sidewinder_strategies)
        .faults(stress_schedule());
    let jobs = spec.jobs();
    assert_eq!(jobs.len(), 12);

    // Serial reference: every cell through the fault-aware engine on
    // the calling thread.
    let schedule = stress_schedule();
    let serial: Vec<_> = jobs
        .iter()
        .map(|job| {
            simulate_with_faults(
                &job.trace,
                &*job.app,
                &job.strategy,
                &job.profile,
                &job.config,
                &schedule,
            )
            .expect("fault cell")
        })
        .collect();
    // The schedule genuinely fired: the rate-based resets alone strike
    // every cell on a 120 s horizon.
    assert!(serial.iter().all(|r| r.fault.hub_resets > 0));
    assert!(serial.iter().any(|r| r.fault.frames_corrupted > 0));

    for workers in WORKER_COUNTS {
        let report = BatchRunner::new().workers(workers).run(&spec);
        assert_eq!(report.len(), serial.len());
        for (i, (reference, outcome)) in serial.iter().zip(report.outcomes()).enumerate() {
            assert_eq!(outcome.index, i, "{workers} workers: outcome order");
            let parallel = outcome
                .result
                .as_ref()
                .unwrap_or_else(|e| panic!("{workers} workers: cell {i} failed: {e}"));
            assert_eq!(
                reference, parallel,
                "{workers} workers: cell {i} ({} / {}) diverged",
                outcome.app, outcome.strategy
            );
        }
    }
}

#[test]
fn degraded_fallback_matches_duty_cycling_during_full_outage() {
    // With the hub down for the entire trace, the hardened strategy is
    // duty cycling at the fallback interval: identical detections and
    // recall for every evaluation application.
    let trace = combined_trace(73, 120);
    let sleep = Micros::from_secs(5);
    let outage = FaultSchedule::seeded(1).with_hub_downtime(Micros::ZERO, trace.duration());
    for app in all_apps() {
        let degraded = simulate_with_faults(
            &trace,
            &*app,
            &Strategy::HubWakeDegraded {
                program: app.wake_condition(),
                hub_mw: app.wake_condition_hub_mw(),
                label: "Sw+",
                fallback_sleep: sleep,
            },
            &PhonePowerProfile::NEXUS4,
            &SimConfig::default(),
            &outage,
        )
        .expect("degraded cell");
        let dc = simulate(
            &trace,
            &*app,
            &Strategy::DutyCycle { sleep },
            &PhonePowerProfile::NEXUS4,
            &SimConfig::default(),
        )
        .expect("duty-cycle cell");
        assert_eq!(
            degraded.detections,
            dc.detections,
            "{}: degraded mode missed detections duty cycling fires",
            app.name()
        );
        assert_eq!(degraded.stats, dc.stats, "{}", app.name());
        assert_eq!(degraded.wake_ups, dc.wake_ups, "{}", app.name());
        assert_eq!(degraded.fault.degraded_time, trace.duration());
        assert!(degraded.fault.samples_dropped > 0);
    }
}

/// A schedule of explicit edges: a dropout on each sensor kind, a hub
/// outage in mid-trace and one watchdog reset. Some edges land exactly
/// on sample instants (the half-open windows must drop the sample at
/// `start` and keep the one at `end`), others between them.
fn edge_schedule() -> FaultSchedule {
    FaultSchedule::seeded(0xED6E)
        .with_dropout(ChannelDropout::new(
            SensorChannel::AccX,
            Micros::from_secs(20),
            Micros::from_millis(35_010),
        ))
        .with_dropout(ChannelDropout::new(
            SensorChannel::Mic,
            Micros::from_millis(50_003),
            Micros::from_secs(58),
        ))
        .with_hub_downtime(Micros::from_secs(70), Micros::from_secs(80))
        .with_hub_reset_at(Micros::from_millis(95_001))
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a over the `Debug` text of every cell's result, in sweep order.
fn faulted_digest(schedule: &FaultSchedule) -> u64 {
    let spec = SweepSpec::new()
        .shared_apps(all_apps())
        .trace(combined_trace(74, 120))
        .strategies_per_app(sidewinder_strategies);
    let jobs = spec.jobs();
    assert_eq!(jobs.len(), 12);
    jobs.iter().fold(0xcbf2_9ce4_8422_2325, |hash, job| {
        let result = simulate_with_faults(
            &job.trace,
            &*job.app,
            &job.strategy,
            &job.profile,
            &job.config,
            schedule,
        )
        .expect("fault cell");
        fnv1a(hash, format!("{result:?}").as_bytes())
    })
}

/// Pins every faulted result bit for bit: fault timing (reset instants,
/// half-open downtime and dropout windows), frame fates in wake order
/// and the wake-to-trigger-time mapping after resets and drops.
#[test]
fn faulted_results_match_their_pinned_digests() {
    let stress = faulted_digest(&stress_schedule());
    let edges = faulted_digest(&edge_schedule());
    assert_eq!(
        (stress, edges),
        (STRESS_DIGEST, EDGE_DIGEST),
        "faulted results moved: stress {stress:#018x}, edges {edges:#018x}"
    );
}

const STRESS_DIGEST: u64 = 0xc96b_897b_3c58_248a;
const EDGE_DIGEST: u64 = 0x2e95_1030_0422_e392;
