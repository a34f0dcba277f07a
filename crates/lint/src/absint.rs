//! Abstract interpretation of IR dataflow graphs.
//!
//! The analyzer sits on the program's dataflow facts
//! ([`sidewinder_ir::flow`]): every node's emission rate, period in
//! source ticks, vector length and base rate come from that one walk,
//! and are embedded in each node's [`NodeFacts`] as its
//! [`flow`](NodeFacts::flow) row. On top of them one forward pass
//! propagates what is the analyzer's own:
//!
//! * a **value interval** per emitted element, seeded from the physical
//!   sensor bounds (±2 g accelerometer, ±1 normalized audio);
//! * whether a value may be **non-finite**;
//! * **feasibility** flags: can the node ever emit, and does it emit for
//!   every upstream arrival (the two ends of the admission-control
//!   spectrum — a dead wake condition versus a wake storm).
//!
//! The pass is *total*: it never panics, even on unvalidated or
//! malformed programs. References to undefined nodes resolve to a
//! conservative top element (unbounded value, possibly non-finite),
//! which is also what lets the numeric-hazard lint reason about
//! FFT stages fed by unconstrained intermediates.

use crate::interval::Interval;
use sidewinder_hub::runtime::ChannelRates;
use sidewinder_ir::flow::{self, NodeFlow};
use sidewinder_ir::{AlgorithmKind, NodeId, Program, Source, StatFn};
use sidewinder_sensors::SensorChannel;
use std::collections::BTreeMap;

/// Standard gravity, m/s² — the accelerometer seed is ±2 g.
const G: f64 = 9.80665;

/// The physical value bounds of a sensor channel: ±2 g for the
/// accelerometer axes (the part's configured full-scale range), `[-1, 1]`
/// for normalized microphone amplitude.
pub fn channel_interval(channel: SensorChannel) -> Interval {
    if channel.is_accelerometer() {
        Interval::symmetric(2.0 * G)
    } else {
        Interval::symmetric(1.0)
    }
}

/// Everything the analyzer derived about one node.
#[derive(Debug, Clone)]
pub struct NodeFacts {
    /// The node's dataflow facts: id, algorithm, rates, lengths, period
    /// and base rate.
    pub flow: NodeFlow,
    /// Source line of its declaration, when parsed from text.
    pub line: Option<u32>,
    /// Per-element interval of emitted values ([`Interval::EMPTY`] when
    /// the node provably never emits).
    pub value: Interval,
    /// Hull of the incoming element intervals.
    pub input_value: Interval,
    /// Whether an emitted value could be NaN or ±∞.
    pub may_non_finite: bool,
    /// Whether any incoming value could be NaN or ±∞.
    pub input_may_non_finite: bool,
    /// Whether the node can ever emit.
    pub feasible: bool,
    /// Whether the node emits for *every* upstream arrival.
    pub always_emits: bool,
    /// For admission-control nodes: the gate provably passes every
    /// possible input value (it filters nothing).
    pub passes_all: bool,
    /// For admission-control nodes: the gate provably rejects every
    /// possible input value.
    pub passes_none: bool,
}

/// The result of analyzing a program.
#[derive(Debug, Clone)]
pub struct Analysis {
    facts: BTreeMap<NodeId, NodeFacts>,
    order: Vec<NodeId>,
    out_source: Option<NodeId>,
    out_line: Option<u32>,
}

impl Analysis {
    /// Facts for one node, if it exists.
    pub fn fact(&self, id: NodeId) -> Option<&NodeFacts> {
        self.facts.get(&id)
    }

    /// Facts in statement order.
    pub fn facts(&self) -> impl Iterator<Item = &NodeFacts> {
        self.order.iter().filter_map(|id| self.facts.get(id))
    }

    /// The node feeding `OUT`, if any.
    pub fn out_source(&self) -> Option<NodeId> {
        self.out_source
    }

    /// Source line of the `OUT` statement, when parsed from text.
    pub fn out_line(&self) -> Option<u32> {
        self.out_line
    }

    /// Facts of the node feeding `OUT`.
    pub fn out_fact(&self) -> Option<&NodeFacts> {
        self.out_source.and_then(|id| self.facts.get(&id))
    }
}

/// An upstream edge resolved to its abstract value properties.
#[derive(Debug, Clone, Copy)]
struct Up {
    value: Interval,
    may_non_finite: bool,
    feasible: bool,
    always: bool,
}

impl Up {
    /// Conservative top for references the program never defines
    /// (unvalidated input): value unknown and possibly non-finite, but
    /// neither provably dead nor provably storming.
    fn unknown() -> Up {
        Up {
            value: Interval::UNBOUNDED,
            may_non_finite: true,
            feasible: true,
            always: false,
        }
    }
}

/// Runs the forward pass. Total: accepts unvalidated programs and never
/// panics; garbage in yields conservative facts out.
pub fn analyze(program: &Program, rates: &ChannelRates) -> Analysis {
    let mut facts: BTreeMap<NodeId, NodeFacts> = BTreeMap::new();
    let mut order = Vec::new();

    let rows = flow::analyze(program, rates).into_rows();
    for ((sources, id, _), flow) in program.nodes().zip(rows) {
        let ups: Vec<Up> = sources
            .iter()
            .map(|s| match s {
                Source::Channel(c) => Up {
                    value: channel_interval(*c),
                    may_non_finite: false,
                    feasible: true,
                    always: true,
                },
                Source::Node(n) => facts.get(n).map_or_else(Up::unknown, |f| Up {
                    value: f.value,
                    may_non_finite: f.may_non_finite,
                    feasible: f.feasible,
                    always: f.always_emits,
                }),
            })
            .collect();
        let fact = transfer(program.line_of(id), flow, &ups);
        if !facts.contains_key(&id) {
            order.push(id);
        }
        facts.insert(id, fact);
    }

    Analysis {
        facts,
        order,
        out_source: program.out_source(),
        out_line: program.out_line(),
    }
}

/// Applies one node's transfer function to its resolved inputs.
fn transfer(line: Option<u32>, flow: NodeFlow, ups: &[Up]) -> NodeFacts {
    // Aggregate input properties; a node with no inputs (malformed)
    // degrades to the conservative unknown edge.
    let unknown = [Up::unknown()];
    let ups = if ups.is_empty() { &unknown[..] } else { ups };
    let primary = &ups[0];
    let input_value = ups
        .iter()
        .fold(Interval::EMPTY, |acc, u| acc.hull(&u.value));
    let input_may_non_finite = ups.iter().any(|u| u.may_non_finite);
    let inputs_feasible = ups.iter().all(|u| u.feasible);
    let base_rate_hz = flow.base_rate_hz;

    let len = flow.input_len;
    let n = len as f64;
    let m = primary.value.abs_bound();
    let v = primary.value;

    // Defaults: scalar pass-through of the primary edge.
    let mut value = v;
    let mut may_non_finite = input_may_non_finite;
    let mut feasible = inputs_feasible;
    let mut always_emits = ups.iter().all(|u| u.always);
    let mut passes_all = false;
    let mut passes_none = false;

    match flow.kind {
        AlgorithmKind::Window { shape, .. } => {
            value = match shape {
                sidewinder_ir::WindowShapeParam::Rectangular => v,
                _ => v.tapered(),
            };
        }
        AlgorithmKind::Fft => {
            // An N-point transform's bins are bounded by Σ|x| ≤ N·max|x|.
            value = Interval::symmetric(n.max(1.0) * m);
            may_non_finite |= !v.is_bounded();
        }
        AlgorithmKind::Ifft => {
            // Normalized inverse: |y| ≤ (1/N)·Σ|X| ≤ max|X|.
            value = Interval::symmetric(m);
            may_non_finite |= !v.is_bounded();
        }
        AlgorithmKind::SpectralMagnitude => {
            // |re + j·im| ≤ √2·max(|re|, |im|).
            value = Interval::new(0.0, std::f64::consts::SQRT_2 * m);
        }
        AlgorithmKind::LowPass { .. } | AlgorithmKind::HighPass { .. } => {
            // fft → mask → ifft; ringing can overshoot the input range
            // but stays within the spectral bound.
            value = Interval::symmetric(n.max(1.0) * m);
            may_non_finite |= !v.is_bounded();
        }
        AlgorithmKind::MovingAvg { .. } | AlgorithmKind::ExpMovingAvg { .. } => {
            // Convex combinations of history stay inside the input hull.
            value = v;
        }
        AlgorithmKind::VectorMagnitude => {
            let sq: f64 = ups.iter().map(|u| u.value.abs_bound().powi(2)).sum();
            value = Interval::new(0.0, sq.sqrt());
        }
        AlgorithmKind::Zcr => value = Interval::new(0.0, 1.0),
        AlgorithmKind::ZcrVariance { .. } => {
            // Variance of values in [0, 1] is at most 1/4.
            value = Interval::new(0.0, 0.25);
        }
        AlgorithmKind::Stat(s) => {
            value = match s {
                StatFn::Mean | StatFn::Min | StatFn::Max => v,
                StatFn::PeakToPeak => Interval::new(0.0, v.width()),
                StatFn::Variance => Interval::new(0.0, (v.width() / 2.0).powi(2)),
                StatFn::StdDev => Interval::new(0.0, v.width() / 2.0),
                StatFn::MeanAbs | StatFn::Rms => Interval::new(0.0, m),
                StatFn::Energy => Interval::new(0.0, n.max(1.0) * m * m),
            };
        }
        AlgorithmKind::DominantRatio => {
            // The hub kernel skips emission when the mean is <= 0, so the
            // division never produces NaN and the peak (the max element,
            // >= the mean) keeps the ratio >= 1. The [1, bins] upper
            // bound additionally needs every element nonnegative (a true
            // magnitude spectrum): then mean >= peak/bins. On signed
            // input — the IR type system also admits raw time-domain
            // windows here — cancellation can drive the mean arbitrarily
            // close to zero while the peak stays large, so the ratio is
            // unbounded above.
            value = if v.lo >= 0.0 {
                Interval::new(1.0, (len.saturating_sub(1)).max(1) as f64)
            } else {
                Interval::new(1.0, f64::INFINITY)
            };
            may_non_finite |= !value.is_bounded();
        }
        AlgorithmKind::DominantFreq => {
            value = Interval::new(0.0, base_rate_hz / 2.0);
        }
        AlgorithmKind::Goertzel { lo_hz, hi_hz } => {
            // A single DFT bin obeys the same bound as an FFT bin:
            // |X_k| ≤ Σ|x| ≤ N·max|x|.
            value = Interval::new(0.0, n.max(1.0) * m);
            may_non_finite |= !v.is_bounded();
            // With a known bin grid, an empty probe set (no bin center
            // inside the band) means the node can never emit.
            if base_rate_hz > 0.0 && len > 0 {
                let bins = len;
                let bin_hz = base_rate_hz / bins as f64;
                let any_in_band = (0..=bins / 2).any(|k| {
                    let f = k as f64 * bin_hz;
                    lo_hz <= f && f <= hi_hz
                });
                if !any_in_band {
                    feasible = false;
                }
            }
        }
        AlgorithmKind::GoertzelFreq { lo_hz, hi_hz } => {
            // Emits the frequency of an in-band, sub-Nyquist, non-DC
            // probe, so the result is confined to the band clipped to
            // (0, rate/2]; without a known rate only the band bounds it.
            let nyquist = if base_rate_hz > 0.0 {
                base_rate_hz / 2.0
            } else {
                f64::INFINITY
            };
            let hi = hi_hz.min(nyquist);
            value = Interval::new(lo_hz.min(hi), hi);
            if base_rate_hz > 0.0 && len > 0 {
                let bins = len;
                let bin_hz = base_rate_hz / bins as f64;
                // DC is never probed — the chains this node strength-
                // reduces search `mags[1..]`.
                let any_in_band = (1..=bins / 2).any(|k| {
                    let f = k as f64 * bin_hz;
                    lo_hz <= f && f <= hi_hz
                });
                if !any_in_band {
                    feasible = false;
                }
            }
        }
        AlgorithmKind::GoertzelRatio { lo_hz, hi_hz } => {
            // peak ≥ sum/probes and sum ≥ peak, so the emitted
            // `peak · bins / sum` lies in [1, bins] with bins = len/2 —
            // Goertzel magnitudes are nonnegative by construction, so
            // unlike `dominantRatio` no signed-input caveat applies.
            value = Interval::new(1.0, (len / 2).max(1) as f64);
            if base_rate_hz > 0.0 && len > 0 {
                let bins = len;
                let bin_hz = base_rate_hz / bins as f64;
                let any_in_band = (1..=bins / 2).any(|k| {
                    let f = k as f64 * bin_hz;
                    lo_hz <= f && f <= hi_hz
                });
                if !any_in_band {
                    feasible = false;
                }
            }
        }
        AlgorithmKind::MinThreshold { threshold } => {
            gate(
                v,
                Interval::new(threshold, f64::INFINITY),
                &mut value,
                &mut passes_all,
                &mut passes_none,
            );
        }
        AlgorithmKind::MaxThreshold { threshold } => {
            gate(
                v,
                Interval::new(f64::NEG_INFINITY, threshold),
                &mut value,
                &mut passes_all,
                &mut passes_none,
            );
        }
        AlgorithmKind::BandThreshold { lo, hi } => {
            gate(
                v,
                Interval::new(lo, hi),
                &mut value,
                &mut passes_all,
                &mut passes_none,
            );
        }
        AlgorithmKind::OutsideThreshold { lo, hi } => {
            let band = Interval::new(lo, hi);
            let below = v.intersect(&Interval::new(f64::NEG_INFINITY, lo));
            let above = v.intersect(&Interval::new(hi, f64::INFINITY));
            value = below.hull(&above);
            passes_none = v.subset_of(&band);
            passes_all = !v.is_empty() && (v.hi < lo || v.lo > hi);
        }
        AlgorithmKind::Sustained { count, max_gap } => {
            // Arrivals are "consecutive" when their sequence tags are at
            // most max_gap ticks apart; an input cadence wider than the
            // gap can never chain count ≥ 2 arrivals. The node keeps its
            // input's cadence, so its own period is the input's.
            passes_none = count >= 2 && (max_gap as f64) < flow.period_ticks;
            passes_all = !passes_none;
        }
        AlgorithmKind::AllOf => {
            // Forwards the last input's value once every branch delivered.
            value = ups.last().map_or(Interval::EMPTY, |u| u.value);
        }
        AlgorithmKind::AnyOf => {
            value = input_value;
            feasible = ups.iter().any(|u| u.feasible);
            always_emits = ups.iter().any(|u| u.always);
        }
    }

    if passes_none {
        feasible = false;
    }
    if is_gate(&flow.kind) {
        always_emits = always_emits && passes_all;
    }
    if !feasible {
        value = Interval::EMPTY;
    }

    NodeFacts {
        flow,
        line,
        value,
        input_value,
        may_non_finite,
        input_may_non_finite,
        feasible,
        always_emits,
        passes_all,
        passes_none,
    }
}

/// Threshold transfer: intersect the input interval with the pass set.
fn gate(
    input: Interval,
    pass: Interval,
    value: &mut Interval,
    passes_all: &mut bool,
    passes_none: &mut bool,
) {
    *value = input.intersect(&pass);
    *passes_all = !input.is_empty() && input.subset_of(&pass);
    *passes_none = value.is_empty();
}

/// Whether this algorithm filters its input stream (admission control or
/// a duration condition).
pub fn is_gate(kind: &AlgorithmKind) -> bool {
    matches!(
        kind,
        AlgorithmKind::MinThreshold { .. }
            | AlgorithmKind::MaxThreshold { .. }
            | AlgorithmKind::BandThreshold { .. }
            | AlgorithmKind::OutsideThreshold { .. }
            | AlgorithmKind::Sustained { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyzed(text: &str) -> Analysis {
        let p: Program = text.parse().unwrap();
        analyze(&p, &ChannelRates::default())
    }

    #[test]
    fn channel_seeds_match_physical_bounds() {
        assert_eq!(
            channel_interval(SensorChannel::AccX),
            Interval::symmetric(2.0 * G)
        );
        assert_eq!(
            channel_interval(SensorChannel::Mic),
            Interval::new(-1.0, 1.0)
        );
    }

    #[test]
    fn rates_and_lengths_propagate_through_windows() {
        let a = analyzed(
            "MIC -> window(id=1, params={512, 512, 0});
             1 -> rms(id=2);
             2 -> minThreshold(id=3, params={0.5});
             3 -> OUT;",
        );
        let w = a.fact(NodeId(1)).unwrap();
        assert_eq!(w.flow.out_len, 512);
        assert!((w.flow.out_rate_hz - 8000.0 / 512.0).abs() < 1e-9);
        assert_eq!(w.flow.period_ticks, 512.0);
        let rms = a.fact(NodeId(2)).unwrap();
        assert_eq!(rms.value, Interval::new(0.0, 1.0));
        assert_eq!(rms.flow.out_len, 1);
    }

    #[test]
    fn threshold_narrows_and_detects_dead_gates() {
        let a = analyzed(
            "ACC_Y -> movingAvg(id=1, params={3});
             1 -> minThreshold(id=2, params={25});
             2 -> OUT;",
        );
        let thr = a.fact(NodeId(2)).unwrap();
        // ±2 g ≈ ±19.6 m/s² can never reach 25.
        assert!(thr.passes_none);
        assert!(!thr.feasible);
        assert!(thr.value.is_empty());
        assert!(!a.out_fact().unwrap().feasible);
    }

    #[test]
    fn always_passing_threshold_is_flagged() {
        let a = analyzed(
            "ACC_X -> movingAvg(id=1, params={5});
             1 -> minThreshold(id=2, params={-100});
             2 -> OUT;",
        );
        let thr = a.fact(NodeId(2)).unwrap();
        assert!(thr.passes_all);
        assert!(thr.always_emits);
        assert!(a.out_fact().unwrap().always_emits);
    }

    #[test]
    fn outside_threshold_splits_the_interval() {
        let a = analyzed(
            "ACC_X -> movingAvg(id=1, params={5});
             1 -> outsideThreshold(id=2, params={-2, 2});
             2 -> OUT;",
        );
        let t = a.fact(NodeId(2)).unwrap();
        assert!(!t.passes_all && !t.passes_none);
        assert_eq!(t.value, Interval::symmetric(2.0 * G));
    }

    #[test]
    fn sustained_with_unreachable_gap_is_dead() {
        let a = analyzed(
            "MIC -> window(id=1, params={1024, 1024, 0});
             1 -> rms(id=2);
             2 -> minThreshold(id=3, params={0});
             3 -> sustained(id=4, params={3, 64});
             4 -> OUT;",
        );
        // Emissions arrive 1024 ticks apart; a 64-tick gap never chains.
        let s = a.fact(NodeId(4)).unwrap();
        assert!(s.passes_none);
        assert!(!s.feasible);

        let ok = analyzed(
            "MIC -> window(id=1, params={1024, 1024, 0});
             1 -> rms(id=2);
             2 -> minThreshold(id=3, params={0});
             3 -> sustained(id=4, params={3, 1024});
             4 -> OUT;",
        );
        assert!(ok.fact(NodeId(4)).unwrap().feasible);
    }

    #[test]
    fn vector_magnitude_joins_at_the_slowest_branch() {
        let a = analyzed(
            "ACC_X -> movingAvg(id=1, params={10});
             ACC_Y -> movingAvg(id=2, params={10});
             ACC_Z -> movingAvg(id=3, params={10});
             1,2,3 -> vectorMagnitude(id=4);
             4 -> minThreshold(id=5, params={15});
             5 -> OUT;",
        );
        let vm = a.fact(NodeId(4)).unwrap();
        assert_eq!(*vm.flow.input_rates, [50.0, 50.0, 50.0]);
        assert!((vm.flow.out_rate_hz - 50.0).abs() < 1e-9);
        // √(3·(2g)²) ≈ 33.97 — the 15 m/s² wake threshold is reachable.
        let bound = (3.0f64 * (2.0 * G).powi(2)).sqrt();
        assert!((vm.value.hi - bound).abs() < 1e-9);
        assert!(a.fact(NodeId(5)).unwrap().feasible);
    }

    #[test]
    fn fft_chain_stays_bounded_and_finite() {
        let a = analyzed(
            "MIC -> window(id=1, params={1024, 1024, 0});
             1 -> highPass(id=2, params={750});
             2 -> fft(id=3);
             3 -> spectralMagnitude(id=4);
             4 -> max(id=5);
             5 -> minThreshold(id=6, params={25});
             6 -> OUT;",
        );
        for id in 1..=6 {
            let f = a.fact(NodeId(id)).unwrap();
            assert!(!f.may_non_finite, "node {id} flagged non-finite");
            assert!(f.value.is_bounded(), "node {id} unbounded");
        }
        // The 25-threshold on a [0, …] magnitude peak is reachable.
        assert!(a.fact(NodeId(6)).unwrap().feasible);
        assert!(!a.fact(NodeId(6)).unwrap().always_emits);
    }

    #[test]
    fn undefined_sources_degrade_to_unknown_not_panic() {
        // Unvalidated program: node 7 was never defined.
        let p = Program::from_stmts(vec![sidewinder_ir::Stmt::Node {
            sources: vec![Source::Node(NodeId(7))],
            id: NodeId(1),
            kind: AlgorithmKind::MovingAvg { window: 2 },
            line: 0,
        }]);
        let a = analyze(&p, &ChannelRates::default());
        let f = a.fact(NodeId(1)).unwrap();
        assert!(f.input_may_non_finite);
        assert!(!f.value.is_bounded());
        assert!(f.feasible);
        assert!(!f.always_emits);
    }

    #[test]
    fn dominant_freq_bounded_by_nyquist() {
        let a = analyzed(
            "MIC -> window(id=1, params={256, 256, 0});
             1 -> fft(id=2);
             2 -> spectralMagnitude(id=3);
             3 -> dominantFreq(id=4);
             4 -> minThreshold(id=5, params={500});
             5 -> OUT;",
        );
        let df = a.fact(NodeId(4)).unwrap();
        assert_eq!(df.value, Interval::new(0.0, 4000.0));
    }
}
