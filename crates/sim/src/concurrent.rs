//! Concurrent multi-application simulation.
//!
//! The paper's §7 raises "supporting multiple concurrent applications
//! while still maintaining predictable performance" as future work: one
//! phone runs several continuous-sensing applications, each with its own
//! hub-resident wake-up condition, sharing a single main processor.
//! [`simulate_concurrent`] models that: the hub runs every condition,
//! the phone wakes for the *union* of their wake-ups, and each awake
//! period is visible to every application's classifier (a wake-up for
//! one application lets the others piggyback on the data).

use crate::app::Application;
use crate::engine::{hub_wake_times, integrate, SimConfig, SimError};
use crate::intervals::IntervalSet;
use crate::metrics::DetectionStats;
use crate::power::{PhonePowerProfile, PowerBreakdown};
use sidewinder_sensors::{Micros, SensorTrace};

/// Per-application outcome within a concurrent simulation.
#[derive(Debug, Clone)]
pub struct ConcurrentAppResult {
    /// Application name.
    pub app: String,
    /// Wake-ups raised by this application's own condition.
    pub own_wake_ups: usize,
    /// Recall/precision of this application's classifier over the shared
    /// awake time.
    pub stats: DetectionStats,
}

/// The outcome of running several applications on one phone.
#[derive(Debug, Clone)]
pub struct ConcurrentResult {
    /// Shared phone state breakdown (awake = union of all conditions'
    /// wake spans).
    pub breakdown: PowerBreakdown,
    /// Average power of the shared phone, mW.
    pub average_power_mw: f64,
    /// Disjoint awake periods of the shared phone.
    pub wake_ups: usize,
    /// Per-application detection quality.
    pub per_app: Vec<ConcurrentAppResult>,
}

/// Runs every application's wake-up condition concurrently on one hub
/// and one phone.
///
/// The hub draw is the most expensive microcontroller any condition
/// needs (one hub serves all conditions, sized for the most demanding —
/// the same rule `SidewinderSensorManager` applies).
///
/// # Errors
///
/// Returns [`SimError`] if any condition cannot be loaded or executed on
/// the trace.
pub fn simulate_concurrent(
    trace: &SensorTrace,
    apps: &[&dyn Application],
    profile: &PhonePowerProfile,
    config: &SimConfig,
) -> Result<ConcurrentResult, SimError> {
    let duration = trace.duration();

    // The hub runs every condition over the same trace.
    let wake_times = apps
        .iter()
        .map(|app| hub_wake_times(trace, &app.wake_condition()))
        .collect::<Result<Vec<_>, _>>()?;

    // The phone wakes for the union of all conditions' spans.
    let all_spans: Vec<(Micros, Micros)> = wake_times
        .iter()
        .flatten()
        .map(|&w| (w, w + config.hub_chunk))
        .collect();
    let awake = IntervalSet::from_spans(all_spans, config.merge_gap).clip(duration);

    // Every application classifies over every awake period (plus the
    // hub's raw buffer) — piggybacking on each other's wake-ups.
    let mut per_app = Vec::new();
    for (app_idx, app) in apps.iter().enumerate() {
        let mut detections = Vec::new();
        for &(start, end) in awake.spans() {
            detections.extend(app.classify(trace, start.saturating_sub(config.lookback), end));
        }
        detections.sort();
        detections.dedup();
        let own_spans = IntervalSet::from_spans(
            wake_times[app_idx]
                .iter()
                .map(|&w| (w, w + config.hub_chunk))
                .collect(),
            config.merge_gap,
        );
        per_app.push(ConcurrentAppResult {
            app: app.name().to_string(),
            own_wake_ups: own_spans.len(),
            stats: DetectionStats::match_events(
                trace.ground_truth(),
                &app.target_kinds(),
                &detections,
                config.match_tolerance,
            ),
        });
    }

    // One hub serves all conditions: charge the most expensive MCU.
    let hub_mw = apps
        .iter()
        .map(|a| a.wake_condition_hub_mw())
        .fold(0.0, f64::max);

    let breakdown = integrate(&awake, duration, profile, hub_mw);

    Ok(ConcurrentResult {
        average_power_mw: breakdown.average_power_mw(profile),
        wake_ups: awake.len(),
        breakdown,
        per_app,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;
    use sidewinder_ir::Program;
    use sidewinder_sensors::{EventKind, GroundTruth, LabeledInterval, SensorChannel, TimeSeries};

    /// Two toy applications watching different thresholds on the same
    /// channel.
    struct LevelApp {
        name: &'static str,
        kind: EventKind,
        level: f64,
    }

    impl Application for LevelApp {
        fn name(&self) -> &str {
            self.name
        }
        fn target_kinds(&self) -> Vec<EventKind> {
            vec![self.kind]
        }
        fn classify(&self, trace: &SensorTrace, start: Micros, end: Micros) -> Vec<Micros> {
            let series = trace.channel(SensorChannel::AccX).unwrap();
            let rate = series.rate_hz();
            let offset = ((start.as_secs_f64() * rate - 1e-9).ceil()).max(0.0) as usize;
            let mut out = Vec::new();
            let mut inside = false;
            for (i, &v) in series.slice(start, end).iter().enumerate() {
                let hit = v > self.level && v < self.level + 3.0;
                if hit && !inside {
                    out.push(sidewinder_sensors::time::sample_time(offset + i, rate));
                }
                inside = hit;
            }
            out
        }
        fn wake_condition(&self) -> Program {
            format!(
                "ACC_X -> movingAvg(id=1, params={{2}});
                 1 -> bandThreshold(id=2, params={{{}, {}}});
                 2 -> OUT;",
                self.level,
                self.level + 3.0
            )
            .parse()
            .unwrap()
        }
        fn wake_condition_hub_mw(&self) -> f64 {
            3.6
        }
    }

    /// Bursts at level 6 (t=20..22) and level 12 (t=60..62).
    fn two_kind_trace() -> SensorTrace {
        let mut x = vec![0.0f64; 120 * 50];
        let mut gt = GroundTruth::new();
        for (t0, level, kind) in [
            (20u64, 6.0, EventKind::Headbutt),
            (60, 20.0, EventKind::Siren),
        ] {
            for sample in &mut x[(t0 * 50) as usize..((t0 + 2) * 50) as usize] {
                *sample = level;
            }
            gt.push(
                LabeledInterval::new(kind, Micros::from_secs(t0), Micros::from_secs(t0 + 2))
                    .unwrap(),
            );
        }
        let mut trace = SensorTrace::new("two-kinds");
        trace.insert(
            SensorChannel::AccX,
            TimeSeries::from_samples(50.0, x).unwrap(),
        );
        *trace.ground_truth_mut() = gt;
        trace
    }

    fn apps() -> (LevelApp, LevelApp) {
        (
            LevelApp {
                name: "low",
                kind: EventKind::Headbutt,
                level: 5.0,
            },
            LevelApp {
                name: "high",
                kind: EventKind::Siren,
                level: 19.0,
            },
        )
    }

    #[test]
    fn concurrent_apps_share_the_phone_with_full_recall() {
        let trace = two_kind_trace();
        let (low, high) = apps();
        let result = simulate_concurrent(
            &trace,
            &[&low, &high],
            &PhonePowerProfile::NEXUS4,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(result.per_app.len(), 2);
        for app in &result.per_app {
            assert_eq!(app.stats.recall(), 1.0, "{} missed its event", app.app);
            assert_eq!(app.own_wake_ups, 1, "{}", app.app);
        }
        assert_eq!(result.wake_ups, 2);
        assert_eq!(result.breakdown.total(), Micros::from_secs(120));
        assert_eq!(result.breakdown.hub_mw, 3.6);
    }

    #[test]
    fn concurrent_power_is_bounded_by_individuals() {
        let trace = two_kind_trace();
        let (low, high) = apps();
        let config = SimConfig::default();
        let solo = |app: &LevelApp| {
            crate::engine::simulate(
                &trace,
                app,
                &Strategy::HubWake {
                    program: app.wake_condition(),
                    hub_mw: app.wake_condition_hub_mw(),
                    label: "Sw",
                },
                &PhonePowerProfile::NEXUS4,
                &config,
            )
            .unwrap()
            .average_power_mw
        };
        let combined =
            simulate_concurrent(&trace, &[&low, &high], &PhonePowerProfile::NEXUS4, &config)
                .unwrap()
                .average_power_mw;
        let low_solo = solo(&low);
        let high_solo = solo(&high);
        // Sharing cannot be cheaper than the most expensive individual and
        // is far cheaper than running two phones.
        assert!(combined >= low_solo.max(high_solo) - 1e-9);
        assert!(combined < low_solo + high_solo);
    }

    #[test]
    fn missing_channel_is_reported() {
        let mut trace = SensorTrace::new("no-channels");
        trace.insert(
            SensorChannel::Mic,
            TimeSeries::from_samples(8000.0, vec![0.0; 100]).unwrap(),
        );
        let (low, _) = apps();
        let err = simulate_concurrent(
            &trace,
            &[&low],
            &PhonePowerProfile::NEXUS4,
            &SimConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::MissingChannel(SensorChannel::AccX));
    }
}
