//! Firmware-core conformance over the evaluation grid: for each of the
//! six real applications whose wake condition fits the default firmware
//! core class, replaying a real synthetic trace through the
//! host runtime (the interpreter on heap arenas) and through the inline
//! firmware [`McuCore`] must produce bit-identical wake streams.
//!
//! `hub/tests/mcu_equivalence.rs` pins the same property on the perf
//! gate's synthetic conformance input; this suite pins it on the traces
//! the simulator actually evaluates — robot runs and audio beds with
//! bursts, silence, and ground-truth events.

use sidewinder_apps::{
    HeadbuttsApp, MusicJournalApp, PhraseDetectionApp, SirenDetectorApp, StepsApp, TransitionsApp,
};
use sidewinder_hub::runtime::{ChannelRates, HubRuntime};
use sidewinder_hub::{compile_image, McuCore, McuExecError, DEFAULT_ARENA};
use sidewinder_sensors::{Micros, SensorTrace};
use sidewinder_sim::Application;
use sidewinder_tracegen::{audio_trace, robot_run, AudioTraceConfig, RobotRunConfig};

/// A trace carrying both the accelerometer and the microphone channels,
/// so every application's wake condition has the data it reads.
fn combined_trace(seed: u64, duration_s: u64) -> SensorTrace {
    let mut trace = robot_run(&RobotRunConfig {
        duration: Micros::from_secs(duration_s),
        idle_fraction: 0.5,
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
    trace
}

fn all_apps() -> Vec<Box<dyn Application>> {
    vec![
        Box::new(StepsApp::new()),
        Box::new(TransitionsApp::new()),
        Box::new(HeadbuttsApp::new()),
        Box::new(SirenDetectorApp::new()),
        Box::new(MusicJournalApp::new()),
        Box::new(PhraseDetectionApp::new()),
    ]
}

/// Compares the host and firmware wake streams for `app`; returns
/// `false` when its condition does not fit the default firmware class.
fn check_app(app: &dyn Application, trace: &SensorTrace) -> bool {
    let program = app.wake_condition();
    let rates = ChannelRates::default();
    let mut hub = HubRuntime::load(&program, &rates)
        .unwrap_or_else(|e| panic!("{}: hub load failed: {e}", app.name()));
    let image = compile_image(&program, &rates)
        .unwrap_or_else(|e| panic!("{}: image compilation failed: {e}", app.name()));
    let mut core: McuCore<f64, DEFAULT_ARENA> = McuCore::new();
    match core.load(&image) {
        Ok(()) => {}
        Err(McuExecError::ArenaOverflow { .. }) => return false,
        Err(e) => panic!("{}: core load failed: {e}", app.name()),
    }

    let mut total = 0usize;
    for channel in program.channels() {
        let samples = trace
            .channel(channel)
            .unwrap_or_else(|| panic!("trace lacks {channel:?}"))
            .samples();
        let host_wakes = hub
            .push_samples(channel, samples)
            .unwrap_or_else(|e| panic!("{}: hub exec failed: {e}", app.name()));
        let mut core_wakes = Vec::with_capacity(host_wakes.len());
        core.push_samples(channel.index() as u8, samples, &mut |w| core_wakes.push(w))
            .unwrap_or_else(|e| panic!("{}: core exec failed: {e}", app.name()));

        assert_eq!(
            host_wakes.len(),
            core_wakes.len(),
            "{}: wake count diverged on {channel:?}",
            app.name()
        );
        for (k, (h, c)) in host_wakes.iter().zip(core_wakes.iter()).enumerate() {
            assert_eq!(h.seq, c.seq, "{}: wake #{k} moved", app.name());
            assert_eq!(
                h.value.to_bits(),
                c.value.to_bits(),
                "{}: wake #{k} (seq {}) bits diverged",
                app.name(),
                h.seq
            );
        }
        total += host_wakes.len();
    }
    assert_eq!(core.wake_count(), total as u64, "{}", app.name());
    true
}

#[test]
fn mcu_core_matches_the_hub_on_every_evaluation_app() {
    let trace = combined_trace(0x5EED_CAFE, 60);
    let compared = all_apps()
        .iter()
        .filter(|app| check_app(app.as_ref(), &trace))
        .count();
    // Sirens (a 1024-point filter and transform), music and phrase (two
    // long windows at once) need a bigger firmware class; the
    // accelerometer conditions fit the default one.
    assert_eq!(compared, 3);
}
