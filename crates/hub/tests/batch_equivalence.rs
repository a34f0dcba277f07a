//! `push_samples` must be observationally identical to a `push_sample`
//! loop: same wake events (bit for bit), same wake counts, and the same
//! error at the same point in the stream. The batch form exists purely to
//! amortize per-call overhead, so any divergence is a bug.
//!
//! The fixtures are the six golden wake-up conditions the determinism
//! conformance suite replays; between them they cover windows, FFT-backed
//! filters, ZCR features, joins, and sustained streaks.

use sidewinder_hub::runtime::{ChannelRates, HubRuntime, WakeEvent};
use sidewinder_hub::HubError;
use sidewinder_hub::McuExecError;
use sidewinder_ir::Program;
use sidewinder_sensors::SensorChannel;

/// Accelerometer drive: ±4 plateaus with quiet recovery spans, pushing
/// moving averages well outside every fixture threshold and back.
fn acc_bursts(i: usize) -> f64 {
    match (i / 300) % 3 {
        0 => 4.0,
        1 => -4.0,
        _ => 0.1 * (i as f64 * 1.1).sin(),
    }
}

/// A steady ~1 kHz tone at the default 8 kHz mic rate: loud (music,
/// sirens) with uniform zero-crossing rate.
fn tone(i: usize) -> f64 {
    (i as f64 * 0.785).sin()
}

/// Speech-like: alternating fast/slow sub-segments give a high variance
/// of sub-window zero-crossing rates (the phrase fixture's feature).
fn speechish(i: usize) -> f64 {
    let w = if (i / 256).is_multiple_of(2) {
        2.0
    } else {
        0.05
    };
    (i as f64 * w).sin()
}

/// Fixture name, program text, driving channel, and test signal.
type Fixture = (&'static str, &'static str, SensorChannel, fn(usize) -> f64);

const FIXTURES: [Fixture; 6] = [
    (
        "headbutts",
        include_str!("../../ir/tests/fixtures/headbutts.swir"),
        SensorChannel::AccY,
        acc_bursts,
    ),
    (
        "music",
        include_str!("../../ir/tests/fixtures/music.swir"),
        SensorChannel::Mic,
        tone,
    ),
    (
        "phrase",
        include_str!("../../ir/tests/fixtures/phrase.swir"),
        SensorChannel::Mic,
        speechish,
    ),
    (
        "sirens",
        include_str!("../../ir/tests/fixtures/sirens.swir"),
        SensorChannel::Mic,
        tone,
    ),
    (
        "steps",
        include_str!("../../ir/tests/fixtures/steps.swir"),
        SensorChannel::AccX,
        acc_bursts,
    ),
    (
        "transitions",
        include_str!("../../ir/tests/fixtures/transitions.swir"),
        SensorChannel::AccY,
        acc_bursts,
    ),
];

fn load(text: &str) -> HubRuntime {
    let program: Program = text.parse().unwrap();
    HubRuntime::load(&program, &ChannelRates::default()).unwrap()
}

fn assert_wakes_equal(serial: &[WakeEvent], batched: &[WakeEvent], what: &str) {
    assert_eq!(
        serial.len(),
        batched.len(),
        "{what}: wake count differs ({} vs {})",
        serial.len(),
        batched.len()
    );
    for (i, (a, b)) in serial.iter().zip(batched).enumerate() {
        assert_eq!(a.seq, b.seq, "{what}: wake {i} seq differs");
        assert_eq!(
            a.value.to_bits(),
            b.value.to_bits(),
            "{what}: wake {i} value differs ({} vs {})",
            a.value,
            b.value
        );
    }
}

#[test]
fn batched_ingestion_matches_serial_on_all_golden_fixtures() {
    for (name, text, channel, signal) in FIXTURES {
        let samples: Vec<f64> = (0..8192).map(signal).collect();
        let mut serial_hub = load(text);
        let mut serial = Vec::new();
        for &s in &samples {
            serial.extend(serial_hub.push_sample(channel, s).unwrap());
        }
        // Several batch shapes, including single-sample and whole-stream.
        for chunk in [1usize, 7, 64, 1024, samples.len()] {
            let mut batch_hub = load(text);
            let mut batched = Vec::new();
            for block in samples.chunks(chunk) {
                batched.extend_from_slice(batch_hub.push_samples(channel, block).unwrap());
            }
            assert_wakes_equal(&serial, &batched, &format!("{name} chunk={chunk}"));
            assert_eq!(
                serial_hub.wake_count(),
                batch_hub.wake_count(),
                "{name} chunk={chunk}: wake_count differs"
            );
        }
        assert!(
            !serial.is_empty(),
            "{name}: test signal never woke — fixture not exercised"
        );
    }
}

#[test]
fn samples_on_unrelated_channels_are_ignored_in_batches() {
    for (name, text, channel, _) in FIXTURES {
        let mut hub = load(text);
        for other in SensorChannel::ALL {
            if other == channel {
                continue;
            }
            let wakes = hub.push_samples(other, &[9.0; 256]).unwrap();
            assert!(
                wakes.is_empty(),
                "{name}: woke on unrelated channel {other:?}"
            );
        }
    }
}

/// A magnitude vector (length 33) flowing into lowPass raises a run-time
/// transform-length error; the batch form must surface the same error the
/// serial loop does, at the same sample.
#[test]
fn batched_ingestion_reports_the_same_error_as_serial() {
    let text = "MIC -> window(id=1, params={64, 64, 0});
         1 -> fft(id=2);
         2 -> spectralMagnitude(id=3);
         3 -> lowPass(id=4, params={100});
         4 -> rms(id=5);
         5 -> minThreshold(id=6, params={0});
         6 -> OUT;";
    let samples: Vec<f64> = (0..256).map(|i| (i as f64 * 0.1).sin()).collect();

    let mut serial_hub = load(text);
    let mut serial_err = None;
    for (i, &s) in samples.iter().enumerate() {
        if let Err(e) = serial_hub.push_sample(SensorChannel::Mic, s) {
            serial_err = Some((i, e));
            break;
        }
    }
    let (serial_at, serial_err) = serial_err.expect("serial loop must hit the error");
    assert!(matches!(
        serial_err,
        HubError::Exec(McuExecError::BadTransformLength { len: 33, .. })
    ));

    let mut batch_hub = load(text);
    let batch_err = batch_hub
        .push_samples(SensorChannel::Mic, &samples)
        .unwrap_err();
    assert_eq!(serial_err, batch_err, "batch error differs from serial");

    // The batch consumed exactly the samples before the failing one: the
    // remainder of the stream replays to the same error again.
    let replay_err = batch_hub
        .push_samples(SensorChannel::Mic, &samples[serial_at + 1..])
        .unwrap_err();
    assert_eq!(serial_err, replay_err, "replay after error diverged");
}
