//! Goertzel strength reduction for narrow-band spectral gates.
//!
//! The shape this pass looks for is the siren detector's:
//!
//! ```text
//! window -> highPass/lowPass* -> fft -> spectralMagnitude -> max
//!                                                         |- dominantFreq
//!                                                         |- dominantRatio
//! ```
//!
//! The filters are FFT-based bin masks (`fft -> zero out-of-band bins ->
//! ifft`), so re-transforming the filtered signal reproduces the masked
//! spectrum and the chain's `max` is exactly the largest magnitude among
//! the DFT bins whose center frequency the filters keep (out-of-band
//! bins carry only ifft/fft rounding residue, ~1e-13 relative). The
//! whole chain is therefore one question — "how strong is the strongest
//! in-band bin?" — which the Goertzel algorithm answers per bin in
//! `O(N)` without ever materializing a spectrum. A `dominantFreq` head
//! asks *which* bin that is (its frequency) and a `dominantRatio` head
//! asks how it compares to the mean bin magnitude; both are in-band
//! reductions the same probes answer, so all three heads strength-reduce
//! to a goertzel-family node (`goertzel`, `goertzelFreq`,
//! `goertzelRatio`).
//!
//! The rewrite replaces the head node in place with its goertzel-family
//! counterpart reading the window directly, and deletes the
//! filter/FFT/magnitude chain. Band edges are inclusive on both sides,
//! mirroring the filters' bin masks, and the upper edge is capped at
//! Nyquist (the one-sided magnitude never sees higher bins, and the
//! goertzel nodes need a finite edge). The dominant-feature heads skip
//! the DC bin (`mags[1..]`), so their rewrites additionally require a
//! band with `lo > 0` — in practice a high-pass filter in the chain.
//!
//! Two guards keep it honest:
//!
//! * **Cost gate** — probing K bins costs `K·O(N)` against the chain's
//!   `O(N log N)`; the rewrite is kept only if the cost model's total
//!   flops/s strictly drops. Wide bands (the paper's 750 Hz–Nyquist
//!   siren band is ~417 bins at 1024 points) are correctly left alone.
//! * **Tolerance tier** — the Goertzel recurrence evaluates the same
//!   DFT sums in a different order, so results match the chain only to
//!   floating-point rounding. The driver downgrades the program's
//!   equivalence tier to [`crate::EquivalenceTier::TolerancePinned`],
//!   and the differential harness checks detection parity within a
//!   pinned relative tolerance instead of bit equality.

use super::{consumer_counts, node_info};
use sidewinder_hub::cost::PipelineCost;
use sidewinder_hub::runtime::ChannelRates;
use sidewinder_ir::rewrite::Rewrite;
use sidewinder_ir::{AlgorithmKind, NodeId, Program, Source, StatFn};
use sidewinder_lint::absint::Analysis;
use sidewinder_lint::analyze;
use std::collections::BTreeMap;

pub(crate) fn run(program: &Program, rates: &ChannelRates) -> Option<(Program, usize)> {
    let mut current = program.clone();
    let mut applied = 0;
    while let Some(next) = reduce_one(&current, rates) {
        current = next;
        applied += 1;
    }
    if applied == 0 {
        None
    } else {
        Some((current, applied))
    }
}

/// Which spectral reduction sits at the head of the chain — each has a
/// strength-reduced goertzel-family counterpart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Head {
    /// `max` → [`AlgorithmKind::Goertzel`].
    Max,
    /// `dominantFreq` → [`AlgorithmKind::GoertzelFreq`].
    Freq,
    /// `dominantRatio` → [`AlgorithmKind::GoertzelRatio`].
    Ratio,
}

impl Head {
    /// The dominant-feature heads skip the DC bin (`mags[1..]`), so
    /// their probe grids must too.
    fn skips_dc(self) -> bool {
        !matches!(self, Head::Max)
    }

    /// The replacement node for a band of `[lo_hz, hi_hz]`.
    fn replacement(self, lo_hz: f64, hi_hz: f64) -> AlgorithmKind {
        match self {
            Head::Max => AlgorithmKind::Goertzel { lo_hz, hi_hz },
            Head::Freq => AlgorithmKind::GoertzelFreq { lo_hz, hi_hz },
            Head::Ratio => AlgorithmKind::GoertzelRatio { lo_hz, hi_hz },
        }
    }
}

/// Applies the first cost-improving strength reduction, if any.
fn reduce_one(program: &Program, rates: &ChannelRates) -> Option<Program> {
    let analysis = analyze(program, rates);
    let consumers = consumer_counts(program);
    let info = node_info(program);
    let before = PipelineCost::analyze(program, rates).total_flops_per_second();
    for (sources, id, kind) in program.nodes() {
        let head = match kind {
            AlgorithmKind::Stat(StatFn::Max) => Head::Max,
            AlgorithmKind::DominantFreq => Head::Freq,
            AlgorithmKind::DominantRatio => Head::Ratio,
            _ => continue,
        };
        let Some(rw) = candidate(&analysis, &consumers, &info, sources, id, head) else {
            continue;
        };
        let rewritten = rw.apply(program);
        if rewritten.validate().is_err() {
            continue;
        }
        let after = PipelineCost::analyze(&rewritten, rates).total_flops_per_second();
        if after < before {
            return Some(rewritten);
        }
    }
    None
}

fn single(consumers: &BTreeMap<NodeId, usize>, id: NodeId) -> bool {
    consumers.get(&id).copied().unwrap_or(0) == 1
}

/// Walks upward from the head node (`max`, `dominantFreq`, or
/// `dominantRatio`) through `spectralMagnitude -> fft -> filters* ->
/// window` and builds the replacement edit script. Every intermediate
/// node must have this chain as its only consumer (the window itself may
/// fan out — it survives).
fn candidate(
    analysis: &Analysis,
    consumers: &BTreeMap<NodeId, usize>,
    info: &BTreeMap<NodeId, (&[Source], &AlgorithmKind)>,
    max_sources: &[Source],
    max_id: NodeId,
    head: Head,
) -> Option<Rewrite> {
    let [Source::Node(mag)] = max_sources else {
        return None;
    };
    let mag = *mag;
    let (mag_sources, mag_kind) = info.get(&mag)?;
    if !matches!(mag_kind, AlgorithmKind::SpectralMagnitude) || !single(consumers, mag) {
        return None;
    }
    let [Source::Node(fft)] = *mag_sources else {
        return None;
    };
    let fft = *fft;
    let (fft_sources, fft_kind) = info.get(&fft)?;
    if !matches!(fft_kind, AlgorithmKind::Fft) || !single(consumers, fft) {
        return None;
    }

    let mut lo = 0.0f64;
    let mut hi = f64::INFINITY;
    let mut removed = vec![mag, fft];
    let mut cursor = *fft_sources.first()?;
    loop {
        let Source::Node(nid) = cursor else {
            return None;
        };
        let (n_sources, n_kind) = info.get(&nid)?;
        match n_kind {
            AlgorithmKind::HighPass { cutoff_hz } if single(consumers, nid) => {
                lo = lo.max(*cutoff_hz);
                removed.push(nid);
                cursor = *n_sources.first()?;
            }
            AlgorithmKind::LowPass { cutoff_hz } if single(consumers, nid) => {
                hi = hi.min(*cutoff_hz);
                removed.push(nid);
                cursor = *n_sources.first()?;
            }
            AlgorithmKind::Window { size, .. } => {
                let n = *size as usize;
                let base = analysis.fact(nid)?.flow.base_rate_hz;
                if !base.is_finite() || base <= 0.0 || n == 0 {
                    return None;
                }
                let hi = hi.min(base / 2.0);
                if lo > hi {
                    return None; // dead band — SW001's finding, not ours
                }
                // The dominant-feature heads skip the DC bin, so only a
                // band that already excludes DC (a high-pass with a
                // positive cutoff) has an exactly matching probe grid.
                if head.skips_dc() && lo <= 0.0 {
                    return None;
                }
                // The band must keep at least one probeable bin, or the
                // rewrite would turn "max over nothing" semantics into
                // silence differently than the chain does.
                let bin_hz = base / n as f64;
                let first_bin = usize::from(head.skips_dc());
                let in_band = (first_bin..=n / 2).any(|k| {
                    let f = k as f64 * bin_hz;
                    lo <= f && f <= hi
                });
                if !in_band {
                    return None;
                }
                let mut rw = Rewrite::new();
                rw.replace(max_id, vec![Source::Node(nid)], head.replacement(lo, hi));
                for r in removed {
                    rw.remove(r);
                }
                return Some(rw);
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates() -> ChannelRates {
        ChannelRates::default()
    }

    fn parse(text: &str) -> Program {
        text.parse().unwrap()
    }

    const NARROW: &str = "MIC -> window(id=1, params={1024, 1024, 0});
         1 -> highPass(id=2, params={980});
         2 -> lowPass(id=3, params={1020});
         3 -> fft(id=4);
         4 -> spectralMagnitude(id=5);
         5 -> max(id=6);
         6 -> minThreshold(id=7, params={25});
         7 -> OUT;";

    #[test]
    fn narrow_band_reduces_to_goertzel() {
        let (q, n) = run(&parse(NARROW), &rates()).unwrap();
        assert_eq!(n, 1);
        assert!(q.validate().is_ok());
        assert_eq!(q.nodes().count(), 3);
        let (sources, id, kind) = q.nodes().nth(1).unwrap();
        assert_eq!(id, NodeId(6), "max is replaced in place");
        assert_eq!(sources, &[Source::Node(NodeId(1))]);
        assert_eq!(
            *kind,
            AlgorithmKind::Goertzel {
                lo_hz: 980.0,
                hi_hz: 1020.0
            }
        );
    }

    #[test]
    fn narrow_band_dominant_freq_reduces_to_goertzel_freq() {
        let p = parse(
            "MIC -> window(id=1, params={1024, 1024, 0});
             1 -> highPass(id=2, params={980});
             2 -> lowPass(id=3, params={1020});
             3 -> fft(id=4);
             4 -> spectralMagnitude(id=5);
             5 -> dominantFreq(id=6);
             6 -> bandThreshold(id=7, params={990, 1010});
             7 -> OUT;",
        );
        let (q, n) = run(&p, &rates()).unwrap();
        assert_eq!(n, 1);
        assert!(q.validate().is_ok());
        assert_eq!(q.nodes().count(), 3);
        let (sources, id, kind) = q.nodes().nth(1).unwrap();
        assert_eq!(id, NodeId(6), "dominantFreq is replaced in place");
        assert_eq!(sources, &[Source::Node(NodeId(1))]);
        assert_eq!(
            *kind,
            AlgorithmKind::GoertzelFreq {
                lo_hz: 980.0,
                hi_hz: 1020.0
            }
        );
    }

    #[test]
    fn narrow_band_dominant_ratio_reduces_to_goertzel_ratio() {
        let p = parse(
            "MIC -> window(id=1, params={1024, 1024, 0});
             1 -> highPass(id=2, params={980});
             2 -> lowPass(id=3, params={1020});
             3 -> fft(id=4);
             4 -> spectralMagnitude(id=5);
             5 -> dominantRatio(id=6);
             6 -> minThreshold(id=7, params={3});
             7 -> OUT;",
        );
        let (q, n) = run(&p, &rates()).unwrap();
        assert_eq!(n, 1);
        assert!(q
            .nodes()
            .any(|(_, _, k)| matches!(k, AlgorithmKind::GoertzelRatio { .. })));
    }

    #[test]
    fn dominant_heads_require_a_dc_free_band() {
        // No high-pass: the band starts at DC, which the dominant chains
        // skip, so there is no exactly matching probe grid. (A plain
        // `max` head over the same shape is only stopped by the cost
        // gate, not this guard.)
        let p = parse(
            "MIC -> window(id=1, params={1024, 1024, 0});
             1 -> lowPass(id=2, params={200});
             2 -> fft(id=3);
             3 -> spectralMagnitude(id=4);
             4 -> dominantFreq(id=5);
             5 -> bandThreshold(id=6, params={50, 150});
             6 -> OUT;",
        );
        assert!(run(&p, &rates()).is_none());
    }

    #[test]
    fn wide_band_fails_the_cost_gate() {
        let p = parse(
            "MIC -> window(id=1, params={1024, 1024, 0});
             1 -> highPass(id=2, params={750});
             2 -> fft(id=3);
             3 -> spectralMagnitude(id=4);
             4 -> max(id=5);
             5 -> minThreshold(id=6, params={25});
             6 -> OUT;",
        );
        assert!(run(&p, &rates()).is_none());
    }

    #[test]
    fn shared_spectrum_blocks_the_rewrite() {
        // The magnitude vector also feeds a dominantRatio branch, so the
        // chain cannot be deleted out from under it.
        let p = parse(
            "MIC -> window(id=1, params={1024, 1024, 0});
             1 -> highPass(id=2, params={980});
             2 -> lowPass(id=3, params={1020});
             3 -> fft(id=4);
             4 -> spectralMagnitude(id=5);
             5 -> max(id=6);
             5 -> dominantRatio(id=8);
             8 -> minThreshold(id=9, params={3});
             6 -> minThreshold(id=7, params={25});
             7,9 -> allOf(id=10);
             10 -> OUT;",
        );
        assert!(run(&p, &rates()).is_none());
    }

    #[test]
    fn shared_window_is_fine() {
        // The window fans out to a ZCR branch; it survives the rewrite,
        // so fan-out at the window does not block it.
        let p = parse(
            "MIC -> window(id=1, params={1024, 1024, 0});
             1 -> highPass(id=2, params={980});
             2 -> lowPass(id=3, params={1020});
             3 -> fft(id=4);
             4 -> spectralMagnitude(id=5);
             5 -> max(id=6);
             6 -> minThreshold(id=7, params={25});
             1 -> zcr(id=8);
             8 -> minThreshold(id=9, params={0.1});
             7,9 -> allOf(id=10);
             10 -> OUT;",
        );
        let (q, n) = run(&p, &rates()).unwrap();
        assert_eq!(n, 1);
        assert!(q.validate().is_ok());
        assert!(q
            .nodes()
            .any(|(_, _, k)| matches!(k, AlgorithmKind::Goertzel { .. })));
        assert!(q.nodes().any(|(_, _, k)| matches!(k, AlgorithmKind::Zcr)));
    }

    #[test]
    fn empty_band_is_left_alone() {
        // 100–101 Hz at 8 kHz / 64 points: bins are 125 Hz apart, the
        // band holds no bin center.
        let p = parse(
            "MIC -> window(id=1, params={64, 64, 0});
             1 -> highPass(id=2, params={100});
             2 -> lowPass(id=3, params={101});
             3 -> fft(id=4);
             4 -> spectralMagnitude(id=5);
             5 -> max(id=6);
             6 -> minThreshold(id=7, params={25});
             7 -> OUT;",
        );
        assert!(run(&p, &rates()).is_none());
    }
}
