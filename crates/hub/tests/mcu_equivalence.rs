//! Host-vs-firmware equivalence on the six golden fixtures.
//!
//! Host and hub run one interpreter: [`HubRuntime`] wraps the core with
//! heap arenas sized to each image, and the firmware [`McuCore`] holds
//! the same arenas inline. This suite pins the two storage forms to one
//! wake stream (DESIGN.md §6j): each golden wake-up condition, replayed
//! on the perf gate's synthetic conformance input, produces the
//! *bit-identical* wake sequence — same count, same sequence tags, same
//! result bits — on both, and the f64 trace hashes to the committed
//! goldens in `results/wake_digests.json`. A second tier holds the
//! single-precision pipeline to the f64 wake schedule within the perf
//! gate's f32 tolerance.

use sidewinder_cert::{certify_program, CertTarget, Precision};
use sidewinder_hub::runtime::{ChannelRates, HubRuntime};
use sidewinder_hub::{compile_image, McuCore, McuExecError, NullSink, Sample, DEFAULT_ARENA};
use sidewinder_ir::fnv::Fnv1a;
use sidewinder_ir::Program;

/// The six golden wake-up conditions, as committed under `crates/ir`.
const FIXTURES: [(&str, &str); 6] = [
    ("steps", include_str!("../../ir/tests/fixtures/steps.swir")),
    (
        "transitions",
        include_str!("../../ir/tests/fixtures/transitions.swir"),
    ),
    (
        "headbutts",
        include_str!("../../ir/tests/fixtures/headbutts.swir"),
    ),
    (
        "sirens",
        include_str!("../../ir/tests/fixtures/sirens.swir"),
    ),
    ("music", include_str!("../../ir/tests/fixtures/music.swir")),
    (
        "phrase",
        include_str!("../../ir/tests/fixtures/phrase.swir"),
    ),
];

/// The committed f64 goldens the perf gate checks; replaying them here
/// pins the interpreter to the frozen stream, not merely to itself.
const GOLDEN_DIGESTS: &str = include_str!("../../../results/wake_digests.json");

/// Samples per channel — the perf gate's `DIGEST_SAMPLES`.
const DIGEST_SAMPLES: usize = 16_384;

fn fixtures() -> impl Iterator<Item = (&'static str, Program)> {
    FIXTURES.into_iter().map(|(name, text)| {
        let program = text
            .parse()
            .unwrap_or_else(|e| panic!("fixture {name} does not parse: {e}"));
        (name, program)
    })
}

/// The conformance input from the perf gate (`sidewinder-bench`):
/// per-channel sinusoids alternating every 8192 samples between a loud
/// steady tone and a quiet frequency-modulated segment.
fn digest_sample(i: usize, ci: usize) -> f64 {
    let loud = (i / 8192) % 2 == 1;
    let step = if loud {
        1.3
    } else {
        1.3 + 0.8 * (i as f64 / 97.0).sin()
    };
    let phase = i as f64 * step + ci as f64 * 0.7;
    phase.sin() * if loud { 12.0 } else { 2.0 }
}

/// Replays the conformance input through the host runtime at vector
/// precision `P` and collects `(seq, value)` wake pairs.
fn host_trace<P: Sample>(program: &Program) -> Vec<(u64, f64)> {
    let mut hub =
        HubRuntime::<NullSink, P>::load_generic(program, &ChannelRates::default(), NullSink)
            .expect("fixture loads on the host");
    let channels = program.channels();
    let mut trace = Vec::new();
    for i in 0..DIGEST_SAMPLES {
        for (ci, &channel) in channels.iter().enumerate() {
            for wake in hub
                .push_samples(channel, &[digest_sample(i, ci)])
                .expect("fixture executes on the host")
            {
                trace.push((wake.seq, wake.value));
            }
        }
    }
    trace
}

/// Replays the same input through an inline-arena firmware core of the
/// default class at vector precision `P`, or returns `None` when the
/// program does not fit that class.
fn firmware_trace<P: Sample>(program: &Program) -> Option<Vec<(u64, f64)>> {
    let image =
        compile_image(program, &ChannelRates::default()).expect("fixture compiles to an image");
    let mut core: McuCore<P, DEFAULT_ARENA> = McuCore::new();
    match core.load(&image) {
        Ok(()) => {}
        Err(McuExecError::ArenaOverflow { .. }) => return None,
        Err(e) => panic!("fixture fails to load: {e}"),
    }
    let channels = program.channels();
    let mut trace = Vec::new();
    for i in 0..DIGEST_SAMPLES {
        for (ci, &channel) in channels.iter().enumerate() {
            core.push_sample(channel.index() as u8, digest_sample(i, ci), &mut |w| {
                trace.push((w.seq, w.value))
            })
            .expect("fixture executes on the core");
        }
    }
    Some(trace)
}

/// Asserts two wake traces are equal wake for wake, bit for bit.
fn assert_bit_identical(name: &str, a: &[(u64, f64)], b: &[(u64, f64)]) {
    assert_eq!(a.len(), b.len(), "fixture {name}: wake count diverged");
    for (k, (&(sa, va), &(sb, vb))) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(sa, sb, "fixture {name}: wake #{k} moved");
        assert_eq!(
            va.to_bits(),
            vb.to_bits(),
            "fixture {name}: wake #{k} (seq {sa}) bits diverged: {va:?} vs {vb:?}"
        );
    }
}

/// The perf gate's wake digest over a `(seq, value)` trace.
fn trace_digest(trace: &[(u64, f64)]) -> u64 {
    let mut hash = Fnv1a::new();
    for &(seq, value) in trace {
        hash.word(seq);
        hash.word(value.to_bits());
    }
    hash.finish()
}

/// Reads one `"name": "0x..."` golden out of the committed digest file.
fn golden_digest(name: &str) -> u64 {
    for line in GOLDEN_DIGESTS.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        if key.trim().trim_matches('"') != name {
            continue;
        }
        let hex = value.trim().trim_matches('"').trim_start_matches("0x");
        return u64::from_str_radix(hex, 16)
            .unwrap_or_else(|e| panic!("golden digest for {name} is not hex: {e}"));
    }
    panic!("no committed wake digest for fixture {name}");
}

/// The host's f64 wake trace hashes to the committed golden digest on
/// every fixture.
#[test]
fn f64_host_reproduces_the_committed_digests() {
    for (name, program) in fixtures() {
        let host = host_trace::<f64>(&program);
        assert!(!host.is_empty(), "fixture {name} never woke");
        let digest = trace_digest(&host);
        let golden = golden_digest(name);
        assert_eq!(
            digest, golden,
            "fixture {name}: digest {digest:#018x} != committed {golden:#018x}"
        );
    }
}

/// Bit-exact tier: wherever a fixture fits the default firmware class,
/// the inline-arena core's wake trace equals the host's, at both
/// precisions.
#[test]
fn firmware_core_is_bit_identical_to_the_host() {
    let mut compared = 0;
    for (name, program) in fixtures() {
        if let Some(core) = firmware_trace::<f64>(&program) {
            assert_bit_identical(name, &host_trace::<f64>(&program), &core);
            let core32 = firmware_trace::<f32>(&program).expect("f32 fits where f64 does");
            assert_bit_identical(name, &host_trace::<f32>(&program), &core32);
            compared += 1;
        }
    }
    // Sirens, music and phrase certify past the default class.
    assert_eq!(compared, 3, "fixtures fitting the default core");
}

/// Tolerance tier: the single-precision pipeline holds the f64 wake
/// schedule, values within the perf gate's f32 budget (DESIGN.md §6h:
/// 1e-3 relative, floored at an absolute scale of 1.0).
#[test]
fn f32_holds_the_wake_schedule_within_tolerance() {
    const F32_RELATIVE_TOLERANCE: f64 = 1e-3;
    for (name, program) in fixtures() {
        let wide = host_trace::<f64>(&program);
        let narrow = host_trace::<f32>(&program);
        assert_eq!(
            wide.len(),
            narrow.len(),
            "fixture {name}: wake count diverged at f32"
        );
        for (k, (&(s64, v64), &(s32, v32))) in wide.iter().zip(narrow.iter()).enumerate() {
            assert_eq!(s64, s32, "fixture {name}: wake #{k} moved at f32");
            let scale = v64.abs().max(1.0);
            assert!(
                (v64 - v32).abs() <= F32_RELATIVE_TOLERANCE * scale,
                "fixture {name}: wake #{k} (seq {s64}) off at f32: {v64:.9} vs {v32:.9}"
            );
        }
    }
}

/// The certificate's verdict is the firmware loader's: a fixture the
/// certifier places past the default class (music: two concurrent
/// windows) really does overflow a default-arena core, with a typed
/// error naming the arena, while the host sizes its arenas to the image
/// and runs it. The failed load is not sticky.
#[test]
fn certificates_and_the_firmware_loader_agree_on_fit() {
    for (name, program) in fixtures() {
        let cert = certify_program(
            &program,
            &ChannelRates::default(),
            Precision::F64,
            &CertTarget {
                mcu: None,
                cap: DEFAULT_ARENA,
            },
        )
        .expect("fixture certifies");
        let image = compile_image(&program, &ChannelRates::default()).unwrap();
        let mut core: McuCore<f64, DEFAULT_ARENA> = McuCore::new();
        match core.load(&image) {
            Ok(()) => assert!(cert.fits_cap, "fixture {name} loaded past its certificate"),
            Err(McuExecError::ArenaOverflow { .. }) => {
                assert!(!cert.fits_cap, "fixture {name} certified but overflowed");
                HubRuntime::load(&program, &ChannelRates::default())
                    .expect("the host sizes its arenas to the image");
                let steps: Program = FIXTURES[0].1.parse().unwrap();
                core.load(&compile_image(&steps, &ChannelRates::default()).unwrap())
                    .expect("core is reusable after a failed load");
            }
            Err(e) => panic!("fixture {name} failed to load: {e}"),
        }
    }
    let music: Program = FIXTURES[4].1.parse().unwrap();
    let cert = certify_program(
        &music,
        &ChannelRates::default(),
        Precision::F64,
        &CertTarget {
            mcu: None,
            cap: DEFAULT_ARENA,
        },
    )
    .unwrap();
    assert!(!cert.fits_cap, "music must exercise the overflow path");
}
