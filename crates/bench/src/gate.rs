//! Performance and wake-conformance gate logic.
//!
//! The CI `perf-gate` job runs the `perfgate` binary, which is a thin
//! shell around this module: pure comparison functions over parsed
//! benchmark reports (so the pass/fail rules are unit-testable without
//! running a single benchmark) plus a deterministic wake-sequence digest
//! for each golden wake-up condition.
//!
//! Two perf rules, both against the committed pre-optimization baseline
//! in `results/bench_interpreter_baseline.json`:
//!
//! 1. **Regression rule** — a bench may not run more than
//!    [`MAX_REGRESSION`] slower than its allowed time.
//! 2. **Speedup floors** — the interpreter benches that the hot-path
//!    rework accelerated must keep their gains: the allowed time for a
//!    floored bench is `baseline / floor`, so e.g. the music condition
//!    failing back to 1.5× of baseline trips the gate even though it is
//!    still faster than the committed numbers.
//!
//! Wake conformance comes in two tiers:
//!
//! * **Bit-exact tier** — the wake digest hashes the exact wake sequence
//!   (sequence numbers and result bits) each fixture program produces on
//!   a fixed synthetic input at the reference f64 precision. Committed
//!   goldens live in `results/wake_digests.json`; any change to
//!   interpreter semantics — including the SIMD lane kernels, which are
//!   bit-exact by construction — shows up as a digest mismatch.
//! * **Tolerance tier** — [`check_f32_conformance`] replays the same
//!   input through the single-precision (`f32` vector) pipeline and
//!   requires the same wake sequence with values within
//!   [`F32_RELATIVE_TOLERANCE`] of the f64 reference.

use sidewinder_hub::runtime::{ChannelRates, HubRuntime};
use sidewinder_hub::{HubError, Sample};
use sidewinder_ir::Program;
use sidewinder_sim::NullSink;
use std::collections::BTreeMap;

/// Maximum tolerated slowdown versus the allowed time: 0.15 = 15 %.
pub const MAX_REGRESSION: f64 = 0.15;

/// Minimum speedups versus the committed pre-optimization baseline.
///
/// Three tiers, pinned as the reworks that earned them landed:
///
/// * the end-to-end interpreter rows (zero-allocation hot-path rework);
/// * the five flat DSP kernel rows at 1.8x each (multi-accumulator lane
///   vectorization) — their baselines are the pre-SIMD scalar numbers;
/// * the `_f32` interpreter rows, measured against the *f64* seed
///   baselines, so they pin the combined lane + single-precision win.
pub const SPEEDUP_FLOORS: [(&str, f64); 11] = [
    ("hub_interpreter/steps_condition", 1.3),
    ("hub_interpreter/music_condition", 2.0),
    ("hub_interpreter/siren_condition", 2.0),
    ("hub_interpreter/steps_condition_f32", 1.3),
    ("hub_interpreter/music_condition_f32", 2.0),
    ("hub_interpreter/siren_condition_f32", 2.0),
    ("moving_average_w10_1024_samples", 1.8),
    ("zcr_variance_8x2048", 1.8),
    ("summary_stats_2048", 1.8),
    ("hamming_window_2048", 1.8),
    ("siren_band_detection/goertzel_8_probes", 1.8),
];

/// Minimum ratios between two rows of the *same* fresh report:
/// `(slow_id, fast_id, floor)` demands `slow / fast >= floor`. Unlike
/// [`SPEEDUP_FLOORS`], both sides are measured in the same run, so the
/// rule is immune to machine-speed drift; it pins what the optimizing
/// compiler buys, not how fast this host is.
///
/// * The optimized-fused row must hold at least 1.8x over two separate
///   runtimes of the same two conditions (measured 2.1-2.3x on a 2-CPU
///   x86-64 container): CSE collapses the duplicated chain, and losing
///   it would silently reopen the fusion gap.
/// * The Goertzel strength reduction must keep the narrow-band alarm
///   condition at least 2x cheaper than its filters-plus-FFT form.
pub const RATIO_FLOORS: [(&str, &str, f64); 2] = [
    (
        "concurrent_conditions/two_separate_runtimes",
        "concurrent_conditions/one_optimized_fused_runtime",
        1.8,
    ),
    (
        "siren_band_detection/narrowband_fft_pipeline",
        "siren_band_detection/goertzel_rewrite",
        2.0,
    ),
];

/// The six golden wake-up conditions, by fixture name.
pub const FIXTURES: [(&str, &str); 6] = [
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

/// One gate failure, human-readable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateViolation {
    /// The bench or fixture that tripped the gate.
    pub id: String,
    /// What went wrong, with the numbers.
    pub message: String,
}

impl std::fmt::Display for GateViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.id, self.message)
    }
}

/// Parses the flat `"id": number` map format of the committed baseline
/// (one entry per line; a `comment` key is ignored). No JSON dependency:
/// the files are machine-written in exactly this shape.
pub fn parse_flat_json(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.rsplit_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        if key == "comment" {
            continue;
        }
        if let Ok(ns) = value.trim().parse::<f64>() {
            out.insert(key.to_string(), ns);
        }
    }
    out
}

/// Extracts `id → ns_per_iter` from the nested `BENCH_interpreter.json`
/// report `perfreport` writes (each bench is an object opened by a
/// quoted id; its `ns_per_iter` field follows before the object closes).
pub fn parse_bench_report(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if let Some(id) = line
            .strip_suffix(": {")
            .map(|k| k.trim().trim_matches('"'))
            .filter(|k| !k.is_empty() && *k != "benches")
        {
            current = Some(id.to_string());
            continue;
        }
        if let Some((key, value)) = line.split_once(':') {
            if key.trim().trim_matches('"') == "ns_per_iter" {
                if let (Some(id), Ok(ns)) = (current.take(), value.trim().parse::<f64>()) {
                    out.insert(id, ns);
                }
            }
        }
    }
    out
}

/// Parses the committed digest map: `"name": "0x..."` per line.
pub fn parse_digests(text: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        if key == "comment" {
            continue;
        }
        let value = value.trim().trim_matches('"');
        if let Some(hex) = value.strip_prefix("0x") {
            if let Ok(digest) = u64::from_str_radix(hex, 16) {
                out.insert(key.to_string(), digest);
            }
        }
    }
    out
}

/// The perf gate rule, pure over parsed reports: for every baseline
/// bench, the fresh time must not exceed `baseline / floor ×
/// (1 + max_regression)`. Unmatched baseline entries (bench renamed or
/// dropped) are violations too — a silently vanished bench must not pass.
pub fn check_perf(
    baseline: &BTreeMap<String, f64>,
    fresh: &BTreeMap<String, f64>,
    max_regression: f64,
    floors: &[(&str, f64)],
) -> Vec<GateViolation> {
    let mut violations = Vec::new();
    for (id, &base_ns) in baseline {
        let Some(&fresh_ns) = fresh.get(id) else {
            violations.push(GateViolation {
                id: id.clone(),
                message: "present in baseline but missing from the fresh report".to_string(),
            });
            continue;
        };
        let floor = floors
            .iter()
            .find(|(fid, _)| fid == id)
            .map_or(1.0, |&(_, f)| f);
        let allowed_ns = base_ns / floor * (1.0 + max_regression);
        if fresh_ns > allowed_ns {
            violations.push(GateViolation {
                id: id.clone(),
                message: format!(
                    "{fresh_ns:.0} ns/iter exceeds the allowed {allowed_ns:.0} ns/iter \
                     (baseline {base_ns:.0}, required speedup {floor}x, tolerance {:.0}%)",
                    max_regression * 100.0
                ),
            });
        }
    }
    violations
}

/// The ratio rule, pure over the fresh report: each [`RATIO_FLOORS`]
/// entry requires both rows to be present and `slow / fast >= floor`.
/// A missing row is a violation — the optimizer's win must stay
/// measured, not silently dropped.
pub fn check_ratios(
    fresh: &BTreeMap<String, f64>,
    ratios: &[(&str, &str, f64)],
) -> Vec<GateViolation> {
    let mut violations = Vec::new();
    for &(slow_id, fast_id, floor) in ratios {
        let (slow, fast) = match (fresh.get(slow_id), fresh.get(fast_id)) {
            (Some(&s), Some(&f)) => (s, f),
            (slow, _) => {
                let missing = if slow.is_none() { slow_id } else { fast_id };
                violations.push(GateViolation {
                    id: missing.to_string(),
                    message: "ratio-floor row missing from the fresh report".to_string(),
                });
                continue;
            }
        };
        let ratio = slow / fast;
        if ratio < floor {
            violations.push(GateViolation {
                id: fast_id.to_string(),
                message: format!(
                    "only {ratio:.2}x faster than {slow_id} \
                     ({slow:.0} / {fast:.0} ns/iter); the floor is {floor}x"
                ),
            });
        }
    }
    violations
}

/// FNV-1a over a byte stream.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Samples per channel fed to [`wake_digest`]; enough to fill the
/// largest fixture window (2048) and `sustained` span (6 × 1024) many
/// times over.
const DIGEST_SAMPLES: usize = 16_384;

/// Hashes the wake sequence a program produces on a fixed synthetic
/// input: per channel, a sinusoid alternating every 8192 samples (long
/// enough to hold the fixtures' `sustained` spans) between a loud
/// steady tone at 1.3 rad/sample (≈1.65 kHz at the default mic rate —
/// above the siren fixture's 750 Hz high-pass, with the near-zero
/// zero-crossing variance the music fixture looks for) and a quiet
/// frequency-modulated segment (the high zero-crossing variance the
/// phrase fixture looks for). The digest covers each wake's order,
/// sequence tag, and exact result bits — any semantic change to the
/// interpreter or the fixture moves it.
///
/// # Errors
///
/// Returns [`HubError`] if the program fails to load or execute.
pub fn wake_digest(program: &Program) -> Result<u64, HubError> {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (seq, value) in wake_trace::<f64>(program)? {
        hash = fnv1a(hash, &seq.to_le_bytes());
        hash = fnv1a(hash, &value.to_bits().to_le_bytes());
    }
    Ok(hash)
}

/// Replays the digest input (see [`wake_digest`]) through a hub at
/// vector precision `P` and collects the wake sequence as
/// `(seq, value)` pairs. At `f64` this is exactly the stream
/// [`wake_digest`] hashes; at `f32` it is the stream the tolerance tier
/// compares against it.
///
/// # Errors
///
/// Returns [`HubError`] if the program fails to load or execute.
pub fn wake_trace<P: Sample>(program: &Program) -> Result<Vec<(u64, f64)>, HubError> {
    let mut hub =
        HubRuntime::<NullSink, P>::load_generic(program, &ChannelRates::default(), NullSink)?;
    let channels = program.channels();
    let mut trace = Vec::new();
    for i in 0..DIGEST_SAMPLES {
        let loud = (i / 8192) % 2 == 1;
        let step = if loud {
            1.3
        } else {
            1.3 + 0.8 * (i as f64 / 97.0).sin()
        };
        for (ci, &channel) in channels.iter().enumerate() {
            let phase = i as f64 * step + ci as f64 * 0.7;
            let sample = phase.sin() * if loud { 12.0 } else { 2.0 };
            for wake in hub.push_samples(channel, &[sample])? {
                trace.push((wake.seq, wake.value));
            }
        }
    }
    Ok(trace)
}

/// Relative tolerance for the f32 conformance tier: the single-precision
/// pipeline's wake values must land within this fraction of the f64
/// reference (floored at an absolute scale of 1.0 so near-zero features
/// are not held to an impossible relative bar). The budget comes from
/// DESIGN.md §6h: a 2048-sample f32 accumulation carries ≈2.5e-4
/// relative error; 1e-3 leaves honest headroom without masking a
/// precision bug, which shows up orders of magnitude above it.
pub const F32_RELATIVE_TOLERANCE: f64 = 1e-3;

/// The tolerance-pinned conformance tier: every golden fixture, replayed
/// through the single-precision (`f32` vector) pipeline on the digest
/// input, must produce the *same wake sequence* as the f64 reference —
/// same count, same sequence tags, values within
/// [`F32_RELATIVE_TOLERANCE`]. The bit-exact tier ([`check_digests`])
/// pins f64 against the committed goldens; this tier pins f32 against
/// f64 in the same run, so it holds on any host.
///
/// # Panics
///
/// Panics if a committed fixture fails to parse or execute — that is
/// itself a conformance failure.
pub fn check_f32_conformance() -> Vec<GateViolation> {
    let mut violations = Vec::new();
    for (name, text) in FIXTURES {
        let program: Program = text
            .parse()
            .unwrap_or_else(|e| panic!("fixture {name} does not parse: {e}"));
        let wide = wake_trace::<f64>(&program)
            .unwrap_or_else(|e| panic!("fixture {name} failed at f64: {e}"));
        let narrow = wake_trace::<f32>(&program)
            .unwrap_or_else(|e| panic!("fixture {name} failed at f32: {e}"));
        if wide.len() != narrow.len() {
            violations.push(GateViolation {
                id: format!("f32_conformance/{name}"),
                message: format!(
                    "wake count diverged: {} at f64 vs {} at f32",
                    wide.len(),
                    narrow.len()
                ),
            });
            continue;
        }
        for (k, (&(seq64, v64), &(seq32, v32))) in wide.iter().zip(narrow.iter()).enumerate() {
            if seq64 != seq32 {
                violations.push(GateViolation {
                    id: format!("f32_conformance/{name}"),
                    message: format!("wake #{k} moved: seq {seq64} at f64 vs {seq32} at f32"),
                });
                break;
            }
            let scale = v64.abs().max(1.0);
            if (v64 - v32).abs() > F32_RELATIVE_TOLERANCE * scale {
                violations.push(GateViolation {
                    id: format!("f32_conformance/{name}"),
                    message: format!(
                        "wake #{k} (seq {seq64}) value off: {v64:.9} at f64 vs {v32:.9} at f32 \
                         (tolerance {F32_RELATIVE_TOLERANCE:.0e} relative)"
                    ),
                });
                break;
            }
        }
    }
    violations
}

/// Digests every golden fixture, in [`FIXTURES`] order, plus the
/// `fused_all_six` entry: all six conditions merged by
/// [`sidewinder_opt::fuse_programs`] and run through the optimizer at
/// the aggressive level. The committed golden therefore pins the
/// acceptance criterion end to end — any optimizer change that alters
/// the fused program's wake stream moves this digest.
///
/// # Panics
///
/// Panics if a committed fixture fails to parse or execute — that is
/// itself a conformance failure.
pub fn fixture_digests() -> Vec<(String, u64)> {
    let programs: Vec<Program> = FIXTURES
        .iter()
        .map(|(name, text)| {
            text.parse()
                .unwrap_or_else(|e| panic!("fixture {name} does not parse: {e}"))
        })
        .collect();
    let mut digests: Vec<(String, u64)> = FIXTURES
        .iter()
        .zip(programs.iter())
        .map(|(&(name, _), program)| {
            let digest =
                wake_digest(program).unwrap_or_else(|e| panic!("fixture {name} failed: {e}"));
            (name.to_string(), digest)
        })
        .collect();
    let fused = sidewinder_opt::fuse_programs(&programs);
    let (optimized, _) = sidewinder_opt::optimize(
        &fused,
        &ChannelRates::default(),
        &sidewinder_opt::OptOptions::aggressive(),
    );
    let digest =
        wake_digest(&optimized).unwrap_or_else(|e| panic!("optimized fused fixture failed: {e}"));
    digests.push(("fused_all_six".to_string(), digest));
    digests
}

/// Renders the digest map in the committed `wake_digests.json` format.
pub fn render_digests(digests: &[(String, u64)]) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"comment\": \"FNV-1a digests of each golden fixture's wake sequence on the \
         perfgate synthetic input; regenerate with perfgate --write-digests\",\n",
    );
    for (i, (name, digest)) in digests.iter().enumerate() {
        out.push_str(&format!("  \"{name}\": \"{digest:#018x}\""));
        out.push_str(if i + 1 < digests.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Compares fresh digests against the committed goldens: mismatches and
/// fixtures missing from the goldens are violations.
pub fn check_digests(
    golden: &BTreeMap<String, u64>,
    fresh: &[(String, u64)],
) -> Vec<GateViolation> {
    let mut violations = Vec::new();
    for (name, digest) in fresh {
        match golden.get(name) {
            None => violations.push(GateViolation {
                id: name.clone(),
                message: "no committed wake digest; run perfgate --write-digests".to_string(),
            }),
            Some(&want) if want != *digest => violations.push(GateViolation {
                id: name.clone(),
                message: format!("wake digest {digest:#018x} != committed {want:#018x}"),
            }),
            Some(_) => {}
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(entries: &[(&str, f64)]) -> BTreeMap<String, f64> {
        entries.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn twenty_percent_regression_fails_the_fifteen_percent_gate() {
        let baseline = map(&[("bench/a", 100_000.0)]);
        let fresh = map(&[("bench/a", 120_000.0)]);
        let violations = check_perf(&baseline, &fresh, MAX_REGRESSION, &[]);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].id, "bench/a");
        assert!(violations[0].message.contains("exceeds"));
    }

    #[test]
    fn regressions_inside_the_tolerance_pass() {
        let baseline = map(&[("bench/a", 100_000.0)]);
        let fresh = map(&[("bench/a", 114_000.0)]);
        assert!(check_perf(&baseline, &fresh, MAX_REGRESSION, &[]).is_empty());
    }

    #[test]
    fn speedup_floor_rejects_losing_the_optimization() {
        let baseline = map(&[("hub_interpreter/music_condition", 474_220.0)]);
        let floors = [("hub_interpreter/music_condition", 2.0)];
        // Allowed: 474220 / 2 × 1.15 ≈ 272677 ns. 300 µs — still faster
        // than baseline, but the 2× gain is gone.
        let fresh = map(&[("hub_interpreter/music_condition", 300_000.0)]);
        assert_eq!(
            check_perf(&baseline, &fresh, MAX_REGRESSION, &floors).len(),
            1
        );
        // At 250 µs the floor holds.
        let fresh = map(&[("hub_interpreter/music_condition", 250_000.0)]);
        assert!(check_perf(&baseline, &fresh, MAX_REGRESSION, &floors).is_empty());
    }

    #[test]
    fn vanished_benches_are_violations() {
        let baseline = map(&[("bench/a", 100.0)]);
        let violations = check_perf(&baseline, &BTreeMap::new(), MAX_REGRESSION, &[]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("missing"));
    }

    #[test]
    fn bench_report_parser_reads_perfreport_output() {
        let text = r#"{
  "benches": {
    "hub_interpreter/steps_condition": {
      "ns_per_iter": 190687.0,
      "melem_per_s": 157.33,
      "baseline_ns_per_iter": 463370.0,
      "speedup": 2.43
    },
    "fft/real_fft/256": {
      "ns_per_iter": 4111.0
    }
  }
}"#;
        let parsed = parse_bench_report(text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["hub_interpreter/steps_condition"], 190_687.0);
        assert_eq!(parsed["fft/real_fft/256"], 4_111.0);
    }

    #[test]
    fn flat_parser_skips_comments() {
        let text = "{\n  \"comment\": \"notes: x\",\n  \"a\": 12.5,\n  \"b\": 3\n}\n";
        let parsed = parse_flat_json(text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["a"], 12.5);
    }

    #[test]
    fn ratio_floor_rejects_a_lost_optimization() {
        let floors = [("suite/slow", "suite/fast", 1.3)];
        // 1.5x holds the 1.3x floor.
        let fresh = map(&[("suite/slow", 300_000.0), ("suite/fast", 200_000.0)]);
        assert!(check_ratios(&fresh, &floors).is_empty());
        // 1.2x does not.
        let fresh = map(&[("suite/slow", 240_000.0), ("suite/fast", 200_000.0)]);
        let violations = check_ratios(&fresh, &floors);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].id, "suite/fast");
        assert!(violations[0].message.contains("1.20x"), "{}", violations[0]);
    }

    #[test]
    fn ratio_floor_rejects_missing_rows() {
        let floors = [("suite/slow", "suite/fast", 1.3)];
        let fresh = map(&[("suite/slow", 300_000.0)]);
        let violations = check_ratios(&fresh, &floors);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].id, "suite/fast");
        assert!(violations[0].message.contains("missing"));
    }

    /// The acceptance criterion behind the committed `fused_all_six`
    /// golden: optimizing the fused six-app program must not move its
    /// wake digest — the exact-tier passes are digest-preserving on the
    /// conformance input.
    #[test]
    fn optimizing_the_fused_fixtures_preserves_the_wake_digest() {
        let programs: Vec<Program> = FIXTURES.iter().map(|(_, t)| t.parse().unwrap()).collect();
        let fused = sidewinder_opt::fuse_programs(&programs);
        let (optimized, report) = sidewinder_opt::optimize(
            &fused,
            &ChannelRates::default(),
            &sidewinder_opt::OptOptions::aggressive(),
        );
        assert!(report.changed(), "CSE must fire on the fused fixtures");
        assert_eq!(
            wake_digest(&fused).unwrap(),
            wake_digest(&optimized).unwrap(),
            "optimization moved the fused wake digest"
        );
    }

    #[test]
    fn digests_are_deterministic_and_distinguish_fixtures() {
        let all = fixture_digests();
        assert_eq!(
            all.len(),
            FIXTURES.len() + 1,
            "six fixtures + fused_all_six"
        );
        assert_eq!(all.last().unwrap().0, "fused_all_six");
        let again = fixture_digests();
        assert_eq!(all, again);
        let unique: std::collections::BTreeSet<u64> = all.iter().map(|&(_, d)| d).collect();
        assert_eq!(unique.len(), all.len(), "digest collision across fixtures");
    }

    /// The acceptance criterion for the f32 pipeline mode: every golden
    /// fixture passes the tolerance-pinned tier against its own f64 run.
    #[test]
    fn f32_conformance_holds_on_all_fixtures() {
        let violations = check_f32_conformance();
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// The f32 tier is not vacuous: the fixtures actually wake on the
    /// digest input, so the tolerance comparison has substance.
    #[test]
    fn f32_conformance_compares_real_wakes() {
        let total: usize = FIXTURES
            .iter()
            .map(|(name, text)| {
                let program: Program = text.parse().unwrap();
                let trace = wake_trace::<f32>(&program)
                    .unwrap_or_else(|e| panic!("fixture {name} failed at f32: {e}"));
                trace.len()
            })
            .sum();
        assert!(total > 0, "no fixture woke at f32 on the digest input");
    }

    #[test]
    fn digest_roundtrip_through_render_and_parse() {
        let digests = vec![("steps".to_string(), 0x1234_5678_9abc_def0u64)];
        let text = render_digests(&digests);
        let parsed = parse_digests(&text);
        assert_eq!(parsed["steps"], 0x1234_5678_9abc_def0);
        assert!(check_digests(&parsed, &digests).is_empty());
        let mismatched = vec![("steps".to_string(), 1u64)];
        assert_eq!(check_digests(&parsed, &mismatched).len(), 1);
        let unknown = vec![("novel".to_string(), 2u64)];
        assert!(check_digests(&parsed, &unknown)[0]
            .message
            .contains("no committed"));
    }
}
