//! The fuzz targets: each takes arbitrary bytes and panics on any
//! violated invariant, so the runner's `catch_unwind` is the oracle.

use crate::{fnv1a, SplitMix64};
use sidewinder_cert::{certify_program, emission_bound, CertTarget, Precision};
use sidewinder_dsp::complex::Complex;
use sidewinder_dsp::fft;
use sidewinder_hub::runtime::{ChannelRates, HubRuntime};
use sidewinder_hub::{compile_image, McuCore};
use sidewinder_ir::Program;
use sidewinder_mcu::fft as mcu_fft;
use sidewinder_mcu::{ArenaKind, HighWaterProbe, McuExecError};

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

/// Totality: the parser must accept or reject arbitrary bytes without
/// panicking, and everything downstream of a successful parse — the
/// validator, the linter, the host loader, the image compiler — must be
/// total too, returning typed errors at worst.
pub fn ir_totality(data: &[u8]) {
    let text = String::from_utf8_lossy(data);
    let Ok(program) = text.parse::<Program>() else {
        return;
    };
    let rates = ChannelRates::default();
    let _ = program.validate();
    let _ = sidewinder_lint::lint(&program, &rates);
    let _ = HubRuntime::load(&program, &rates);
    let _ = compile_image(&program, &rates);
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

/// Expands the input bytes into a per-channel sample schedule: the raw
/// floats first (preserving adversarial bit patterns), then a
/// bytes-seeded PRNG stream up to the budget, so short inputs still
/// exercise the windowed pipelines.
fn sample_schedule(data: &[u8]) -> Vec<f64> {
    let mut samples = raw_floats(data);
    let mut rng = SplitMix64(fnv1a(data));
    while samples.len() < SAMPLE_BUDGET {
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

/// Picks the fixture program the input's first byte selects.
fn pick_program(data: &[u8]) -> Program {
    let idx = data.first().map_or(0, |&b| b as usize % FIXTURES.len());
    FIXTURES[idx].parse().expect("committed fixture parses")
}

/// Differential ingestion: one batched `push_samples` call must be
/// bit-identical — same wakes, same order, same result bits — to
/// pushing the same samples one at a time, on every channel the
/// program reads.
pub fn ingest_differential(data: &[u8]) {
    let program = pick_program(data);
    let samples = sample_schedule(data);
    let rates = ChannelRates::default();
    let mut batched = HubRuntime::load(&program, &rates).expect("fixture loads");
    let mut serial = HubRuntime::load(&program, &rates).expect("fixture loads");
    for channel in program.channels() {
        let batch_wakes: Vec<_> = batched
            .push_samples(channel, &samples)
            .expect("fixture executes")
            .to_vec();
        let mut serial_wakes = Vec::with_capacity(batch_wakes.len());
        for &x in &samples {
            serial_wakes.extend(serial.push_sample(channel, x).expect("fixture executes"));
        }
        assert_eq!(
            batch_wakes.len(),
            serial_wakes.len(),
            "wake count diverged on {channel:?}"
        );
        for (k, (b, s)) in batch_wakes.iter().zip(serial_wakes.iter()).enumerate() {
            assert!(
                b.seq == s.seq && b.value.to_bits() == s.value.to_bits(),
                "wake #{k} diverged on {channel:?}: {b:?} vs {s:?}"
            );
        }
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
/// parseable programs, must agree exactly with the loader about what
/// fits, and its bounds must dominate everything a real execution
/// measures — arena occupancy, staging high-water marks, and per-node
/// emission counts.
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
    let cert = cert.expect("compilable programs certify");

    // The loader and the certificate must agree exactly on fit.
    let mut core: McuCore<f64, CERT_CAP> = McuCore::new();
    match core.load(&image) {
        Ok(()) => assert!(
            cert.fits_cap,
            "load succeeded but the certificate claims overflow \
             (required {})",
            cert.required_capacity
        ),
        Err(McuExecError::ArenaOverflow { .. }) => {
            assert!(
                !cert.fits_cap,
                "load overflowed but the certificate claims required {} <= {}",
                cert.required_capacity, CERT_CAP
            );
            return;
        }
        Err(e) => panic!("load failed for a non-arena reason: {e:?}"),
    }

    // Exact arena accounting: carved == certified, element for element.
    let used = core.arena_used();
    for (kind, &u) in ArenaKind::ALL[..5].iter().zip(used.iter()) {
        assert_eq!(
            u,
            cert.arenas[kind.index()].elements,
            "{} carve diverged from the certificate",
            kind.name()
        );
    }

    // Execute a deterministic schedule under the high-water probe; every
    // measured mark must stay at or under its certified bound.
    let samples = sample_schedule(data);
    let mut probe = HighWaterProbe::new();
    let mut pushes = [0u64; sidewinder_mcu::image::MAX_CHANNELS];
    for channel in program.channels() {
        let ci = channel.index();
        if core
            .push_samples_probed(ci as u8, &samples, &mut |_| {}, &mut probe)
            .is_err()
        {
            return; // runtime fault (e.g. NaN guard); bounds are vacuous
        }
        pushes[ci] += samples.len() as u64;
    }
    let stage_sample = cert.arenas[ArenaKind::StageSample.index()].peak_elements;
    let stage_spectrum = cert.arenas[ArenaKind::StageSpectrum.index()].peak_elements;
    assert!(
        probe.stage_sample_peak <= stage_sample,
        "staged vector peak {} exceeds certified {stage_sample}",
        probe.stage_sample_peak
    );
    assert!(
        probe.stage_spectrum_peak <= stage_spectrum,
        "staged spectrum peak {} exceeds certified {stage_spectrum}",
        probe.stage_spectrum_peak
    );
    for (node, &measured) in probe.emissions.iter().enumerate().take(cert.nodes.len()) {
        let bound = emission_bound(&cert, node, &pushes);
        assert!(
            measured <= bound,
            "node {node} emitted {measured} > certified bound {bound}"
        );
    }
}
