//! Counters against a hand-computed run of a tiny fixture program.
//!
//! The program is small enough to execute on paper:
//!
//! ```text
//! ACC_X -> movingAvg(id=1, params={2});
//! 1 -> minThreshold(id=2, params={5});
//! 2 -> OUT;
//! ```
//!
//! * `movingAvg` (window 2) executes on every sample and emits from the
//!   second sample onward (the window must fill first).
//! * `minThreshold` executes once per average and passes values ≥ 5.
//! * Every passed value reaches `OUT` and raises a wake.

use sidewinder_hub::runtime::{ChannelRates, HubRuntime};
use sidewinder_hub::CounterSink;
use sidewinder_ir::Program;
use sidewinder_sensors::SensorChannel;

const PROGRAM: &str = "ACC_X -> movingAvg(id=1, params={2});
                       1 -> minThreshold(id=2, params={5});
                       2 -> OUT;";

#[test]
fn counters_match_a_hand_computed_run() {
    let program: Program = PROGRAM.parse().unwrap();
    let node_count = program.nodes().count();
    let mut hub: HubRuntime<_> = HubRuntime::load_generic(
        &program,
        &ChannelRates::default(),
        CounterSink::with_nodes(node_count),
    )
    .unwrap();

    // Averages over window 2: 0, 5, 10, 10, 5, 0, 0 — four of them ≥ 5.
    let samples = [0.0, 0.0, 10.0, 10.0, 10.0, 0.0, 0.0, 0.0];
    let wakes: Vec<f64> = hub
        .push_samples(SensorChannel::AccX, &samples)
        .unwrap()
        .iter()
        .map(|w| w.value)
        .collect();
    assert_eq!(wakes, vec![5.0, 10.0, 10.0, 5.0]);

    let sink = hub.sink();
    assert_eq!(sink.nodes().len(), 2);

    // movingAvg: one execution per sample; the first sample only fills
    // the window and produces nothing.
    assert_eq!(sink.nodes()[0].executions, 8);
    assert_eq!(sink.nodes()[0].productions, 7);

    // minThreshold: one execution per emitted average; four pass.
    assert_eq!(sink.nodes()[1].executions, 7);
    assert_eq!(sink.nodes()[1].productions, 4);

    // One wake per passed value; nothing else happened.
    assert_eq!(sink.wakes, 4);
    assert_eq!(sink.hub_resets, 0);
    assert_eq!(sink.frames_sent, 0);
    assert_eq!(sink.total_executions(), 15);

    // Every execution lands one timing observation.
    assert_eq!(sink.nodes()[0].timing.count(), 8);
    assert_eq!(sink.nodes()[1].timing.count(), 7);
    assert_eq!(sink.total_timing().count(), 15);
}

#[test]
fn reset_is_counted_and_counters_survive_it() {
    let program: Program = PROGRAM.parse().unwrap();
    let mut hub: HubRuntime<_> = HubRuntime::load_generic(
        &program,
        &ChannelRates::default(),
        CounterSink::with_nodes(2),
    )
    .unwrap();
    hub.push_samples(SensorChannel::AccX, &[0.0, 10.0, 10.0])
        .unwrap();
    hub.reset();
    hub.push_samples(SensorChannel::AccX, &[10.0, 10.0])
        .unwrap();

    let sink = hub.sink();
    assert_eq!(sink.hub_resets, 1);
    // Counters accumulate across the reset: 3 + 2 samples.
    assert_eq!(sink.nodes()[0].executions, 5);
    // Wakes: averages 5, 10 before the reset (≥ 5 → 2 wakes), then the
    // post-reset window refills and emits 10 once (1 wake).
    assert_eq!(sink.wakes, 3);
}
