//! The fuzz targets: each takes arbitrary bytes and panics on any
//! violated invariant, so the runner's `catch_unwind` is the oracle.

use crate::{fnv1a, SplitMix64};
use sidewinder_cert::{certify_program, emission_bound, CertError, CertTarget, Precision};
use sidewinder_dsp::complex::Complex;
use sidewinder_dsp::fft;
use sidewinder_hub::runtime::{ChannelRates, HubRuntime, WakeEvent};
use sidewinder_hub::{compile_image, CounterSink, McuCore};
use sidewinder_ir::Program;
use sidewinder_mcu::fft as mcu_fft;
use sidewinder_mcu::{HighWaterProbe, McuExecError};
use sidewinder_sensors::{SensorChannel, SensorTrace, TimeSeries};
use sidewinder_sim::engine::hub_wake_times;

/// The six golden fixtures double as structured seeds: mutated wake
/// conditions for the totality target, program choices for the
/// interpreter differentials.
pub const FIXTURES: [&str; 6] = [
    include_str!("../../crates/ir/tests/fixtures/steps.swir"),
    include_str!("../../crates/ir/tests/fixtures/transitions.swir"),
    include_str!("../../crates/ir/tests/fixtures/headbutts.swir"),
    include_str!("../../crates/ir/tests/fixtures/sirens.swir"),
    include_str!("../../crates/ir/tests/fixtures/music.swir"),
    include_str!("../../crates/ir/tests/fixtures/phrase.swir"),
];

/// Samples each interpreter differential expands its input to — enough
/// to fill the fixtures' 2048-sample windows twice over.
const SAMPLE_BUDGET: usize = 4096;

/// Samples [`ir_totality`] pushes per channel into a loaded program —
/// enough to fill the small windows mutations tend to produce.
const TOTALITY_SAMPLES: usize = 256;

/// Totality: the parser must accept or reject arbitrary bytes without
/// panicking, and everything downstream of a successful parse — the
/// validator, the linter, the host loader, the image compiler — must be
/// total too, returning typed errors at worst. A program that loads
/// cannot fail at run time: pushes on every channel it reads succeed.
pub fn ir_totality(data: &[u8]) {
    let text = String::from_utf8_lossy(data);
    let Ok(program) = text.parse::<Program>() else {
        return;
    };
    let rates = ChannelRates::default();
    let _ = program.validate();
    let _ = sidewinder_lint::lint(&program, &rates);
    let _ = compile_image(&program, &rates);
    let Ok(mut hub) = HubRuntime::load(&program, &rates) else {
        return;
    };
    let samples = sample_schedule(data, TOTALITY_SAMPLES);
    for channel in program.channels() {
        if let Err(e) = hub.push_samples(channel, &samples) {
            panic!("a loaded program failed at run time on {channel:?}: {e}");
        }
    }
}

/// Interprets the input as raw `f64` bit patterns — NaNs, infinities,
/// and subnormals included, since every differential pair must handle
/// them identically.
fn raw_floats(data: &[u8]) -> Vec<f64> {
    data.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect()
}

/// Differential FFT: the host's planned path (swap/twiddle tables via
/// `FftPlan`) must be bit-identical to the reference radix-2 kernel,
/// forward and inverse, on arbitrary bit patterns.
pub fn fft_differential(data: &[u8]) {
    let values = raw_floats(data);
    let n = values.len().next_power_of_two() / 2;
    if n == 0 {
        return;
    }
    let input: Vec<Complex> = values[..n].iter().map(|&x| Complex::from_real(x)).collect();

    let mut planned = input.clone();
    fft::fft_in_place(&mut planned).expect("power-of-two length");
    let mut reference = input.clone();
    mcu_fft::transform(&mut reference, false);
    assert_bits_equal(&planned, &reference, "forward fft");

    let mut planned_inv = planned.clone();
    fft::ifft_in_place(&mut planned_inv).expect("power-of-two length");
    let mut reference_inv = reference.clone();
    mcu_fft::transform(&mut reference_inv, true);
    mcu_fft::scale_inverse(&mut reference_inv);
    assert_bits_equal(&planned_inv, &reference_inv, "inverse fft");
}

fn assert_bits_equal(a: &[Complex], b: &[Complex], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length diverged");
    for (k, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: bin {k} diverged: {x:?} vs {y:?}"
        );
    }
}

/// Expands the input bytes into a `len`-sample per-channel schedule:
/// the raw floats first (preserving adversarial bit patterns), then a
/// bytes-seeded PRNG stream, so short inputs still exercise the
/// windowed pipelines.
fn sample_schedule(data: &[u8], len: usize) -> Vec<f64> {
    let mut samples = raw_floats(data);
    samples.truncate(len);
    let mut rng = SplitMix64(fnv1a(data));
    while samples.len() < len {
        // Mostly tame amplitudes so thresholds and windows see both
        // sides; every 16th value is a raw bit pattern.
        let x = if rng.below(16) == 0 {
            f64::from_bits(rng.next_u64())
        } else {
            (rng.next_u64() as f64 / u64::MAX as f64 - 0.5) * 24.0
        };
        samples.push(x);
    }
    samples
}

/// Programs reading more than one channel, for the frame differential:
/// the two accelerometer axes the fleet's fused suite reads (the pass),
/// and non-overlapping windows on two channels that wake often on the
/// schedule's noise (the window fill).
const MULTI_CHANNEL: [&str; 2] = [
    "ACC_X -> movingAvg(id=1, params={3});
     ACC_Y -> movingAvg(id=2, params={5});
     1 -> outsideThreshold(id=3, params={-2, 2});
     2 -> minThreshold(id=4, params={3});
     3,4 -> anyOf(id=5);
     5 -> OUT;",
    "MIC -> window(id=1, params={64, 64, 0});
     1 -> variance(id=2);
     2 -> minThreshold(id=3, params={30});
     ACC_Z -> window(id=4, params={32, 32, 0});
     4 -> mean(id=5);
     5 -> outsideThreshold(id=6, params={-1.5, 1.5});
     3,6 -> anyOf(id=7);
     7 -> OUT;",
];

/// Picks the program the input's first byte selects: a golden fixture
/// or a multi-channel program.
fn pick_program(data: &[u8]) -> Program {
    let idx = data
        .first()
        .map_or(0, |&b| b as usize % (FIXTURES.len() + MULTI_CHANNEL.len()));
    FIXTURES
        .iter()
        .chain(&MULTI_CHANNEL)
        .nth(idx)
        .expect("index in range")
        .parse()
        .expect("committed program parses")
}

/// Differential ingestion: every channel is pushed as frames of a
/// data-chosen length, and — for a program that reads one channel — its
/// samples as one `push_samples` batch. Both must be bit-identical —
/// same wakes, same order, same member, same result bits — to the
/// reference: a runtime with live counters, which runs every sample
/// through the per-sample pass, fed one `push_sample` at a time in frame
/// order. The fast paths (window fill, the unobserved pass) are thereby
/// checked against the probed one.
pub fn ingest_differential(data: &[u8]) {
    let program = pick_program(data);
    let rates = ChannelRates::default();
    let channels = SensorChannel::ALL;
    let schedule = sample_schedule(data, SAMPLE_BUDGET * channels.len());
    let columns: Vec<&[f64]> = schedule.chunks(SAMPLE_BUDGET).collect();

    let counters = CounterSink::with_nodes(program.nodes().count());
    let mut reference: HubRuntime<_> =
        HubRuntime::load_generic(&program, &rates, counters).expect("program loads");
    let mut expected = Vec::new();
    for k in 0..SAMPLE_BUDGET {
        for (m, (&channel, column)) in channels.iter().zip(&columns).enumerate() {
            let wakes = reference
                .push_sample(channel, column[k])
                .expect("program executes");
            expected.extend(wakes.iter().map(|&w| (m, w)));
        }
    }

    let frame = 1 + data.get(1).map_or(0, |&b| b as usize) * 17;
    let mut framed = HubRuntime::load(&program, &rates).expect("program loads");
    let mut got = Vec::with_capacity(expected.len());
    for start in (0..SAMPLE_BUDGET).step_by(frame) {
        let end = (start + frame).min(SAMPLE_BUDGET);
        let rows: Vec<&[f64]> = columns.iter().map(|c| &c[start..end]).collect();
        framed
            .push_frames(&channels, &rows, |m, w| got.push((m, w)))
            .expect("program executes");
    }
    assert_same_wakes(&expected, &got, &format!("frames of {frame}"));

    if let [channel] = program.channels()[..] {
        let m = channels
            .iter()
            .position(|&c| c == channel)
            .expect("a channel");
        let mut batched = HubRuntime::load(&program, &rates).expect("program loads");
        let got: Vec<_> = batched
            .push_samples(channel, columns[m])
            .expect("program executes")
            .iter()
            .map(|&w| (m, w))
            .collect();
        assert_same_wakes(&expected, &got, "one batch");
    }
}

fn assert_same_wakes(expected: &[(usize, WakeEvent)], got: &[(usize, WakeEvent)], what: &str) {
    assert_eq!(expected.len(), got.len(), "{what}: wake count diverged");
    for (k, ((em, e), (gm, g))) in expected.iter().zip(got).enumerate() {
        assert!(
            em == gm && e.seq == g.seq && e.value.to_bits() == g.value.to_bits(),
            "{what}: wake #{k} diverged: {e:?} on member {em} vs {g:?} on member {gm}"
        );
    }
}

/// Arena capacity for the certificate-soundness target: deliberately
/// tight (a 512-sample windowed pipeline's exact footprint) so mutated
/// programs land on both sides of the fit boundary — the committed
/// corpus seeds programs at exactly the cap (`at_cap.swir`, 1538
/// elements), one element over (`just_over.swir`, 1539), and a couple
/// under/over (`under_cap.swir` 1536, `over_cap.swir` 1540).
const CERT_CAP: usize = 1538;

/// Certificate soundness: `certify_program` must be total on arbitrary
/// parseable programs and must agree exactly with the loader — it errs
/// exactly when `load` rejects the image for a non-arena reason, and
/// `fits_cap` says whether `load` finds room. A loaded image must run
/// without error, and the certificate's bounds must dominate everything
/// the run measures — every payload a node hands a consumer within its
/// certified `out_len`, and per-node emission counts.
pub fn cert_soundness(data: &[u8]) {
    let text = String::from_utf8_lossy(data);
    let Ok(program) = text.parse::<Program>() else {
        return;
    };
    if program.validate().is_err() {
        return;
    }
    let rates = ChannelRates::default();
    let target = CertTarget {
        mcu: None,
        cap: CERT_CAP,
    };
    // Totality at both precisions: typed errors at worst.
    let cert = certify_program(&program, &rates, Precision::F64, &target);
    let cert32 = certify_program(&program, &rates, Precision::F32, &target);
    assert_eq!(
        cert.is_ok(),
        cert32.is_ok(),
        "precision changed certifiability"
    );
    let Ok(image) = compile_image(&program, &rates) else {
        assert!(cert.is_err(), "certified a program the compiler rejects");
        return;
    };
    // The loader and the certificate share one static model.
    let mut core: McuCore<f64, CERT_CAP> = McuCore::new();
    let cert = match (cert, core.load(&image)) {
        (Ok(cert), Ok(())) => {
            assert!(
                cert.fits_cap,
                "load succeeded but the certificate claims overflow \
                 (required {})",
                cert.required_capacity
            );
            cert
        }
        (Ok(cert), Err(McuExecError::ArenaOverflow { .. })) => {
            assert!(
                !cert.fits_cap,
                "load overflowed but the certificate claims required {} <= {}",
                cert.required_capacity, CERT_CAP
            );
            return;
        }
        (Err(CertError::Image(c)), Err(l)) => {
            assert_eq!(c, l, "certificate and loader name different faults");
            return;
        }
        (cert, loaded) => panic!(
            "certificate ({:?}) and loader ({loaded:?}) disagree",
            cert.err()
        ),
    };

    // Execute a deterministic schedule under the high-water probe; every
    // measured mark must stay at or under its certified bound.
    let samples = sample_schedule(data, SAMPLE_BUDGET);
    let mut probe = HighWaterProbe::new();
    let mut pushes = [0u64; sidewinder_mcu::image::MAX_CHANNELS];
    for channel in program.channels() {
        let ci = channel.index();
        if let Err(e) =
            core.push_frames_probed(&[ci as u8], &[&samples], &mut |_, _| {}, &mut probe)
        {
            panic!("a loaded image failed at run time on {channel:?}: {e}");
        }
        pushes[ci] += samples.len() as u64;
    }
    for (node, nc) in cert.nodes.iter().enumerate() {
        assert!(
            probe.payload_peak[node] <= nc.out_len,
            "node {node} handed on a {}-element payload > certified out_len {}",
            probe.payload_peak[node],
            nc.out_len
        );
    }
    for (node, &measured) in probe.emissions.iter().enumerate().take(cert.nodes.len()) {
        let bound = emission_bound(&cert, node, &pushes);
        assert!(
            measured <= bound,
            "node {node} emitted {measured} > certified bound {bound}"
        );
    }
}

/// Sample rates for [`replay_differential`]: clocks that collide (100,
/// 50 and 40 Hz share every 100 ms) and clocks whose times round
/// (1000/3 and 1000/7 Hz), beside the microphone's 8 kHz.
const REPLAY_RATES: [f64; 6] = [8000.0, 100.0, 50.0, 40.0, 1000.0 / 3.0, 1000.0 / 7.0];

/// Most samples one channel of a [`replay_differential`] trace holds.
const REPLAY_SAMPLES: usize = 512;

/// Differential replay: the simulator's replay ([`hub_wake_times`]),
/// which cuts the trace into runs and frames by searching the sample
/// clocks, must wake exactly when a naive oracle does. The oracle pushes
/// one sample at a time in the serial pick's order — the earliest next
/// sample across the program's inputs, the first input winning ties —
/// and stamps each wake with the time of the sample that raised it.
///
/// The bytes pick 1–3 channels, each with a rate from a fixed menu (8
/// kHz, 100, 50, 40, 1000/3 and 1000/7 Hz) and a bounded length, or the previous channel's rate and length so
/// that co-sampled groups occur; the samples and each channel's
/// threshold come from the bytes too. Every channel feeds a
/// `minThreshold`, joined by `anyOf`.
pub fn replay_differential(data: &[u8]) {
    let byte = |k: usize| data.get(k).map_or(0, |&b| b as usize);
    let count = 1 + byte(0) % 3;
    let samples = sample_schedule(data, count * REPLAY_SAMPLES);
    let mut trace = SensorTrace::new("replay_differential");
    let mut text = String::new();
    let (mut rate, mut len) = (REPLAY_RATES[0], 0);
    for k in 0..count {
        let spec = byte(1 + 3 * k);
        if k == 0 || spec % 4 != 0 {
            rate = REPLAY_RATES[spec / 4 % REPLAY_RATES.len()];
            len = 1 + byte(2 + 3 * k) * 2 % REPLAY_SAMPLES;
        }
        let channel = SensorChannel::ALL[(byte(0) / 3 + k) % SensorChannel::COUNT];
        let column = samples[k * REPLAY_SAMPLES..][..len].to_vec();
        let series = TimeSeries::from_samples(rate, column).expect("menu rates are positive");
        trace.insert(channel, series);
        let threshold = (byte(3 + 3 * k) as f64 - 128.0) / 12.0;
        text += &format!(
            "{} -> minThreshold(id={}, params={{{threshold}}});\n",
            channel.ir_name(),
            k + 1
        );
    }
    let out = if count == 1 {
        1
    } else {
        let ids: Vec<String> = (1..=count).map(|k| k.to_string()).collect();
        text += &format!("{} -> anyOf(id={});\n", ids.join(","), count + 1);
        count + 1
    };
    text += &format!("{out} -> OUT;");
    let program: Program = text.parse().expect("generated program parses");

    let inputs: Vec<(SensorChannel, &TimeSeries)> = program
        .channels()
        .into_iter()
        .map(|c| {
            (
                c,
                trace
                    .channel(c)
                    .expect("every read channel is in the trace"),
            )
        })
        .collect();
    let rates = inputs
        .iter()
        .fold(ChannelRates::default(), |rates, &(c, series)| {
            rates.with_rate(c, series.rate_hz())
        });
    let mut oracle = HubRuntime::load(&program, &rates).expect("generated program loads");
    let mut cursors = vec![0usize; inputs.len()];
    let mut expected = Vec::new();
    while let Some(j) = (0..inputs.len())
        .filter(|&j| cursors[j] < inputs[j].1.len())
        .min_by_key(|&j| (inputs[j].1.time_of(cursors[j]), j))
    {
        let (channel, series) = inputs[j];
        let at = series.time_of(cursors[j]);
        let wakes = oracle
            .push_sample(channel, series.samples()[cursors[j]])
            .expect("program executes");
        expected.extend(wakes.iter().map(|_| at));
        cursors[j] += 1;
    }

    let got = hub_wake_times(&trace, &program).expect("replay runs");
    assert_eq!(
        got, expected,
        "replay diverged from the serial oracle on:\n{text}"
    );
}
