//! `push_samples` must be observationally identical to a `push_sample`
//! loop: same wake events (bit for bit), same wake counts, and the same
//! error for an out-of-range channel. `push_frames` must be identical to
//! `push_sample` interleaved frame by frame, members in order. The batch
//! forms exist purely to amortize per-call overhead, so any divergence is
//! a bug.
//!
//! The fixtures are the six golden wake-up conditions the determinism
//! conformance suite replays; between them they cover windows, FFT-backed
//! filters, ZCR features, joins, and sustained streaks.

use sidewinder_hub::runtime::{ChannelRates, HubRuntime, HubRuntime32, WakeEvent};
use sidewinder_hub::{compile_image, McuCore, McuExecError, NullSink};
use sidewinder_ir::Program;
use sidewinder_mcu::image::MAX_CHANNELS;
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

/// Every channel framed together — the fixture's own channel carrying
/// its signal, the others a drive of their own — against one
/// `push_sample` per sample in frame order.
#[test]
fn frames_match_serial_interleaved_pushes_on_all_golden_fixtures() {
    let channels = SensorChannel::ALL;
    for (name, text, driven, signal) in FIXTURES {
        let columns: Vec<Vec<f64>> = channels
            .iter()
            .map(|&c| {
                (0..8192)
                    .map(|i| {
                        if c == driven {
                            signal(i)
                        } else {
                            acc_bursts(i + 150)
                        }
                    })
                    .collect()
            })
            .collect();
        let mut serial_hub = load(text);
        let mut serial = Vec::new();
        let mut members = Vec::new();
        for k in 0..8192 {
            for (m, (&c, column)) in channels.iter().zip(&columns).enumerate() {
                for &w in serial_hub.push_sample(c, column[k]).unwrap() {
                    serial.push(w);
                    members.push(m);
                }
            }
        }
        assert!(!serial.is_empty(), "{name}: fixture not exercised");
        for chunk in [1usize, 7, 64, 1024, 8192] {
            let mut frame_hub = load(text);
            let (mut framed, mut framed_members) = (Vec::new(), Vec::new());
            for start in (0..8192).step_by(chunk) {
                let end = (start + chunk).min(8192);
                let rows: Vec<&[f64]> = columns.iter().map(|c| &c[start..end]).collect();
                frame_hub
                    .push_frames(&channels, &rows, |m, w| {
                        framed.push(w);
                        framed_members.push(m);
                    })
                    .unwrap();
            }
            let what = format!("{name} frames of {chunk}");
            assert_wakes_equal(&serial, &framed, &what);
            assert_eq!(members, framed_members, "{what}: wake members differ");
            assert_eq!(serial_hub.wake_count(), frame_hub.wake_count(), "{what}");
        }
    }
}

/// The window fill narrows samples to the core's precision as the pass
/// does: at `f32`, one batch per fixture matches one `push_sample` per
/// sample.
#[test]
fn f32_batches_match_serial_on_all_golden_fixtures() {
    for (name, text, channel, signal) in FIXTURES {
        let program: Program = text.parse().unwrap();
        let rates = ChannelRates::default();
        let samples: Vec<f64> = (0..8192).map(signal).collect();
        let mut serial_hub = HubRuntime32::load_generic(&program, &rates, NullSink).unwrap();
        let mut serial = Vec::new();
        for &s in &samples {
            serial.extend(serial_hub.push_sample(channel, s).unwrap());
        }
        let mut batch_hub = HubRuntime32::load_generic(&program, &rates, NullSink).unwrap();
        let batched = batch_hub.push_samples(channel, &samples).unwrap();
        assert_wakes_equal(&serial, batched, &format!("{name} at f32"));
    }
}

/// A frame whose columns do not match its channels is refused before
/// any sample runs.
#[test]
fn ragged_frames_are_refused_whole() {
    let (_, text, channel, signal) = FIXTURES[4];
    let samples: Vec<f64> = (0..512).map(signal).collect();
    let mut hub = load(text);
    let mut reference = load(text);
    // One channel more than a frame can carry, with a column for each of
    // the first `MAX_CHANNELS`.
    let wide = [channel; MAX_CHANNELS + 1];
    for (channels, columns) in [
        (
            &[channel, SensorChannel::AccY][..],
            &[&samples[..], &samples[..511]][..],
        ),
        (&[channel][..], &[&samples[..], &samples[..]][..]),
        (&wide[..], &[&samples[..]; MAX_CHANNELS][..]),
    ] {
        let err = hub.push_frames(channels, columns, |_, _| {}).unwrap_err();
        assert_eq!(err, McuExecError::FrameShape.into());
    }
    let a = hub.push_samples(channel, &samples).unwrap().to_vec();
    let b = reference.push_samples(channel, &samples).unwrap();
    assert_wakes_equal(b, &a, "after the refused frames");
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

/// A loaded image cannot fail at run time, so the one error a push can
/// raise is an out-of-range channel: the batch form must report it as
/// the serial form does, before consuming a sample.
#[test]
fn batched_ingestion_reports_the_same_error_as_serial() {
    // Headbutts: three scalar nodes, so a small inline core holds it.
    let (_, text, channel, signal) = FIXTURES[0];
    let program: Program = text.parse().unwrap();
    let image = compile_image(&program, &ChannelRates::default()).unwrap();
    let samples: Vec<f64> = (0..256).map(signal).collect();
    let bad = MAX_CHANNELS as u8;

    let mut serial: McuCore<f64, 128> = McuCore::new();
    serial.load(&image).unwrap();
    let serial_err = serial
        .push_sample(bad, samples[0], &mut |_| {})
        .unwrap_err();
    assert_eq!(serial_err, McuExecError::BadChannel { channel: bad });

    let mut batch: McuCore<f64, 128> = McuCore::new();
    batch.load(&image).unwrap();
    let batch_err = batch.push_samples(bad, &samples, &mut |_| {}).unwrap_err();
    assert_eq!(serial_err, batch_err, "batch error differs from serial");

    // Neither call consumed a sample: both cores replay the stream alike.
    let ch = channel.index() as u8;
    let (mut a, mut b) = (Vec::new(), Vec::new());
    serial
        .push_samples(ch, &samples, &mut |w| a.push(w))
        .unwrap();
    batch
        .push_samples(ch, &samples, &mut |w| b.push(w))
        .unwrap();
    assert_wakes_equal(&a, &b, "after the rejected push");
}

/// SplitMix64: the random-program differential's deterministic source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A sample: mostly within the thresholds' range, sometimes NaN.
    fn sample(&mut self) -> f64 {
        if self.below(61) == 0 {
            f64::NAN
        } else {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 12.0 - 6.0
        }
    }
}

/// A random valid program over ACC_X, ACC_Y and ACC_Z: scalar chains,
/// joins across channels and nodes, windows of any hop fed by a channel
/// or by a scalar node, and window statistics, all joined into `OUT`.
fn random_program(rng: &mut Rng) -> String {
    const CHANNELS: [&str; 3] = ["ACC_X", "ACC_Y", "ACC_Z"];
    let mut text = String::new();
    let (mut scalars, mut vectors) = (Vec::new(), Vec::new());
    let mut consumed = std::collections::BTreeSet::new();
    // A channel, or a scalar node (now consumed).
    let pick =
        |rng: &mut Rng, scalars: &[usize], consumed: &mut std::collections::BTreeSet<usize>| {
            if scalars.is_empty() || rng.below(2) == 0 {
                CHANNELS[rng.below(3)].to_string()
            } else {
                let id = scalars[rng.below(scalars.len())];
                consumed.insert(id);
                id.to_string()
            }
        };
    let nodes = 2 + rng.below(9);
    for id in 1..=nodes {
        let t = (rng.below(9) as f64 - 4.0) / 2.0;
        let line = match rng.below(10) {
            0 | 1 => {
                let size = [4, 8, 16][rng.below(3)];
                let hop = 1 + rng.below(size);
                let src = if rng.below(5) == 0 {
                    pick(rng, &scalars, &mut consumed)
                } else {
                    CHANNELS[rng.below(3)].to_string()
                };
                vectors.push(id);
                format!("{src} -> window(id={id}, params={{{size}, {hop}, 0}});")
            }
            2 if !vectors.is_empty() => {
                let v = vectors[rng.below(vectors.len())];
                consumed.insert(v);
                scalars.push(id);
                let stat = ["mean", "max", "peakToPeak"][rng.below(3)];
                format!("{v} -> {stat}(id={id});")
            }
            2..=6 => {
                let src = pick(rng, &scalars, &mut consumed);
                scalars.push(id);
                let kind = match rng.below(8) {
                    0 => format!("movingAvg(id={id}, params={{{}}})", 1 + rng.below(5)),
                    1 => format!("expMovingAvg(id={id}, params={{0.5}})"),
                    2 => format!("minThreshold(id={id}, params={{{t}}})"),
                    3 => format!("maxThreshold(id={id}, params={{{t}}})"),
                    4 => format!("bandThreshold(id={id}, params={{{t}, {}}})", t + 2.0),
                    5 => format!("outsideThreshold(id={id}, params={{{t}, {}}})", t + 2.0),
                    _ => format!(
                        "sustained(id={id}, params={{{}, {}}})",
                        1 + rng.below(3),
                        1 + rng.below(3)
                    ),
                };
                format!("{src} -> {kind};")
            }
            _ => {
                let ports: Vec<String> = (0..2 + rng.below(2))
                    .map(|_| pick(rng, &scalars, &mut consumed))
                    .collect();
                scalars.push(id);
                let kind = ["anyOf", "allOf", "vectorMagnitude"][rng.below(3)];
                format!("{} -> {kind}(id={id});", ports.join(","))
            }
        };
        text += &line;
        text.push('\n');
    }
    let mut next = nodes + 1;
    let mut sinks = Vec::new();
    for &v in &vectors {
        if !consumed.contains(&v) {
            text += &format!("{v} -> max(id={next});\n");
            sinks.push(next);
            next += 1;
        }
    }
    sinks.extend(scalars.iter().filter(|id| !consumed.contains(id)));
    let out = if let [only] = sinks[..] {
        only
    } else {
        let ids: Vec<String> = sinks.iter().map(usize::to_string).collect();
        text += &format!("{} -> anyOf(id={next});\n", ids.join(","));
        next
    };
    text + &format!("{out} -> OUT;\n")
}

/// Random programs, pushed as frames of random members and lengths —
/// one row or many, one member or three, a channel repeated, members out
/// of channel order — must raise exactly the wakes of one-sample pushes
/// under live counters (the per-sample pass), member for member and bit
/// for bit, at both precisions. Frames run by block wherever the program
/// and the push allow it, so this holds the block path to the pass
/// across block boundaries, joins and windows.
#[test]
fn random_programs_take_frames_exactly_as_samples() {
    use sidewinder_hub::CounterSink;
    use SensorChannel::{AccX, AccY, AccZ};
    const MEMBERS: [&[SensorChannel]; 8] = [
        &[AccX],
        &[AccY],
        &[AccX, AccY],
        &[AccY, AccX],
        &[AccX, AccY, AccZ],
        &[AccZ, AccX],
        &[AccX, AccX],
        &[AccZ],
    ];
    fn check<P: sidewinder_mcu::Sample>(program: &Program, rng: &mut Rng, label: &str) {
        let rates = ChannelRates::default();
        let nodes = program.nodes().count();
        let mut serial: HubRuntime<_, P> =
            HubRuntime::load_generic(program, &rates, CounterSink::with_nodes(nodes)).unwrap();
        let mut framed: HubRuntime<NullSink, P> =
            HubRuntime::load_generic(program, &rates, NullSink).unwrap();
        for push in 0..24 {
            let members = MEMBERS[rng.below(MEMBERS.len())];
            let rows = [1, 2, 31, 32, 33, 70][rng.below(6)];
            let columns: Vec<Vec<f64>> = members
                .iter()
                .map(|_| (0..rows).map(|_| rng.sample()).collect())
                .collect();
            let mut expected = Vec::new();
            for k in 0..rows {
                for (m, (&channel, column)) in members.iter().zip(&columns).enumerate() {
                    for w in serial.push_sample(channel, column[k]).unwrap() {
                        expected.push((m, w.seq, w.value.to_bits()));
                    }
                }
            }
            let refs: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
            let mut got = Vec::new();
            framed
                .push_frames(members, &refs, |m, w| {
                    got.push((m, w.seq, w.value.to_bits()))
                })
                .unwrap();
            assert_eq!(
                got, expected,
                "{label}: push {push} {members:?} x {rows}\n{program}"
            );
        }
        assert_eq!(
            framed.wake_count(),
            serial.wake_count(),
            "{label}\n{program}"
        );
    }
    let mut rng = Rng(0x5eed_b10c);
    let mut loaded = 0;
    for case in 0..400 {
        let text = random_program(&mut rng);
        let program: Program = text.parse().unwrap_or_else(|e| panic!("{e}\n{text}"));
        if HubRuntime::load(&program, &ChannelRates::default()).is_err() {
            continue;
        }
        loaded += 1;
        check::<f64>(&program, &mut rng, &format!("case {case} f64"));
        check::<f32>(&program, &mut rng, &format!("case {case} f32"));
    }
    assert!(loaded > 300, "only {loaded} of 400 random programs loaded");
}
