//! Dataflow facts: one forward walk over a program that derives, for
//! every node statement, the rates, vector length, period and base rate
//! flowing along its edges.
//!
//! The cost model (`hub::cost`), the abstract interpreter
//! (`lint::absint`), the certifier and the image compiler all read this
//! one table, so each rule for how a fact crosses an edge lives here
//! and nowhere else:
//!
//! * a node's **arrival rate** is the sum of its sources' emission
//!   rates — a multi-input node processes every arriving value;
//! * it **emits** once per arrival, except that a window emits every
//!   `hop` arrivals and the joins that wait for every branch (`allOf`,
//!   `vectorMagnitude`) emit at the slowest branch's rate; `anyOf`
//!   forwards every arrival;
//! * the **period** in source ticks is the first source's, scaled by
//!   `hop` at windows, the slowest branch's at the waiting joins and the
//!   fastest branch's at `anyOf`;
//! * the **base rate** — the sample rate of the data inside incoming
//!   vectors, which places DFT bins — is the fastest source's;
//! * the **channel mask** is the union of the sources'.
//!
//! The walk is total: it never panics, on unvalidated programs or on
//! programs larger than any image. A source the program never defined
//! (before use) reads as rate 0, length 1, period ∞, base rate 0 and no
//! channels. When an id is defined twice, later statements read the
//! latest definition.

use crate::{AlgorithmKind, NodeId, Program, Source};
use sidewinder_sensors::SensorChannel;
use std::collections::BTreeMap;

/// Per-channel sample rates used to configure frequency-aware stages.
///
/// `Default` yields each channel's [`SensorChannel::default_rate_hz`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelRates {
    rates: BTreeMap<SensorChannel, f64>,
}

impl Default for ChannelRates {
    fn default() -> Self {
        ChannelRates {
            rates: SensorChannel::ALL
                .into_iter()
                .map(|c| (c, c.default_rate_hz()))
                .collect(),
        }
    }
}

impl ChannelRates {
    /// Overrides one channel's rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` is not positive and finite.
    pub fn with_rate(mut self, channel: SensorChannel, rate_hz: f64) -> Self {
        assert!(
            rate_hz.is_finite() && rate_hz > 0.0,
            "sample rate must be positive, got {rate_hz}"
        );
        self.rates.insert(channel, rate_hz);
        self
    }

    /// The rate configured for `channel`.
    pub fn rate_of(&self, channel: SensorChannel) -> f64 {
        self.rates
            .get(&channel)
            .copied()
            .unwrap_or_else(|| channel.default_rate_hz())
    }
}

/// One node statement's dataflow facts.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeFlow {
    /// The node.
    pub id: NodeId,
    /// The algorithm running at the node.
    pub kind: AlgorithmKind,
    /// Emission rate of each input edge, in Hz, in source order.
    pub input_rates: InputRates,
    /// Arrivals per second: the sum of `input_rates`.
    pub input_rate_hz: f64,
    /// Elements per arriving value: the longest input's (1 for scalars).
    pub input_len: usize,
    /// Emissions per second leaving the node (an upper bound).
    pub out_rate_hz: f64,
    /// Elements per emission (1 for scalars).
    pub out_len: usize,
    /// Expected source-sample ticks between emissions — the unit
    /// `sustained` compares its `max_gap` parameter against.
    pub period_ticks: f64,
    /// Sample rate of the data inside incoming vectors.
    pub base_rate_hz: f64,
    /// Bitmask over dense channel indices
    /// ([`SensorChannel::index`]) of the channels that transitively feed
    /// the node.
    pub channels_mask: u16,
}

/// Per-input emission rates, in source order; derefs to `[f64]`.
///
/// A one-input node keeps its rate inline, so the walk allocates only
/// for joins.
#[derive(Debug, Clone)]
pub struct InputRates(Rates);

#[derive(Debug, Clone)]
enum Rates {
    One([f64; 1]),
    Many(Vec<f64>),
}

impl InputRates {
    fn of(edges: &[Edge]) -> InputRates {
        InputRates(match edges {
            [e] => Rates::One([e.rate_hz]),
            _ => Rates::Many(edges.iter().map(|e| e.rate_hz).collect()),
        })
    }
}

impl std::ops::Deref for InputRates {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        match &self.0 {
            Rates::One(rate) => rate,
            Rates::Many(rates) => rates,
        }
    }
}

impl PartialEq for InputRates {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// What one edge carries into a node.
#[derive(Debug, Clone, Copy)]
struct Edge {
    rate_hz: f64,
    len: usize,
    period_ticks: f64,
    base_rate_hz: f64,
    channels_mask: u16,
}

impl Edge {
    /// A reference the program never defined before use.
    const UNKNOWN: Edge = Edge {
        rate_hz: 0.0,
        len: 1,
        period_ticks: f64::INFINITY,
        base_rate_hz: 0.0,
        channels_mask: 0,
    };

    fn channel(channel: SensorChannel, rates: &[f64; SensorChannel::COUNT]) -> Edge {
        let rate_hz = rates[channel.index()];
        Edge {
            rate_hz,
            len: 1,
            period_ticks: 1.0,
            base_rate_hz: rate_hz,
            channels_mask: 1 << channel.index(),
        }
    }

    fn from(row: &NodeFlow) -> Edge {
        Edge {
            rate_hz: row.out_rate_hz,
            len: row.out_len,
            period_ticks: row.period_ticks,
            base_rate_hz: row.base_rate_hz,
            channels_mask: row.channels_mask,
        }
    }
}

/// A program's dataflow facts: one row per node statement, in statement
/// order, and the rule that resolves a reference to its row.
#[derive(Debug, Clone)]
pub struct Flow {
    rows: Vec<NodeFlow>,
    /// Every definition as (id, position), sorted.
    defs: Vec<(NodeId, usize)>,
}

impl Flow {
    /// The rows in statement order.
    pub fn rows(&self) -> &[NodeFlow] {
        &self.rows
    }

    /// The rows, by value.
    pub fn into_rows(self) -> Vec<NodeFlow> {
        self.rows
    }

    /// The row a reference to `id` made by node statement `at` reads:
    /// the latest definition before it (`usize::MAX` for the whole
    /// program), if there is one.
    pub fn resolve(&self, id: NodeId, at: usize) -> Option<usize> {
        let k = self.defs.partition_point(|&def| def < (id, at));
        let (def, row) = *self.defs.get(k.checked_sub(1)?)?;
        (def == id).then_some(row)
    }
}

/// Derives every node statement's facts. Total: see the
/// [module docs](self).
pub fn analyze(program: &Program, rates: &ChannelRates) -> Flow {
    let channel_rates = SensorChannel::ALL.map(|c| rates.rate_of(c));
    let mut defs: Vec<(NodeId, usize)> = program
        .nodes()
        .enumerate()
        .map(|(at, (_, id, _))| (id, at))
        .collect();
    defs.sort_unstable();
    let mut flow = Flow {
        rows: Vec::with_capacity(defs.len()),
        defs,
    };
    let mut edges: Vec<Edge> = Vec::new();
    for (at, (sources, id, kind)) in program.nodes().enumerate() {
        edges.clear();
        for s in sources {
            edges.push(match s {
                Source::Channel(c) => Edge::channel(*c, &channel_rates),
                Source::Node(n) => flow
                    .resolve(*n, at)
                    .map_or(Edge::UNKNOWN, |i| Edge::from(&flow.rows[i])),
            });
        }
        let row = transfer(id, *kind, &edges);
        flow.rows.push(row);
    }
    flow
}

/// One node's facts from the edges arriving at it.
fn transfer(id: NodeId, kind: AlgorithmKind, edges: &[Edge]) -> NodeFlow {
    let primary = edges.first().copied().unwrap_or(Edge::UNKNOWN);
    let input_rates = InputRates::of(edges);
    let input_rate_hz: f64 = input_rates.iter().sum();
    let input_len = edges.iter().map(|e| e.len).max().unwrap_or(1);

    let mut out_rate_hz = input_rate_hz;
    let mut out_len = 1;
    let mut period_ticks = primary.period_ticks;
    match kind {
        AlgorithmKind::Window { size, hop, .. } => {
            out_rate_hz = input_rate_hz / f64::from(hop);
            out_len = size as usize;
            period_ticks *= f64::from(hop.max(1));
        }
        AlgorithmKind::Fft
        | AlgorithmKind::Ifft
        | AlgorithmKind::LowPass { .. }
        | AlgorithmKind::HighPass { .. } => out_len = input_len,
        AlgorithmKind::SpectralMagnitude => out_len = input_len / 2 + 1,
        AlgorithmKind::VectorMagnitude | AlgorithmKind::AllOf => {
            let slowest = input_rates.iter().copied().fold(f64::INFINITY, f64::min);
            out_rate_hz = if slowest.is_finite() { slowest } else { 0.0 };
            period_ticks = edges
                .iter()
                .fold(period_ticks, |p, e| p.max(e.period_ticks));
        }
        AlgorithmKind::AnyOf => {
            period_ticks = edges
                .iter()
                .fold(period_ticks, |p, e| p.min(e.period_ticks));
        }
        _ => {}
    }
    NodeFlow {
        id,
        kind,
        input_rates,
        input_rate_hz,
        input_len,
        out_rate_hz,
        out_len,
        period_ticks,
        base_rate_hz: edges.iter().fold(0.0, |m, e| m.max(e.base_rate_hz)),
        channels_mask: edges.iter().fold(0, |m, e| m | e.channels_mask),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(text: &str) -> Vec<NodeFlow> {
        let p: Program = text.parse().unwrap();
        analyze(&p, &ChannelRates::default()).into_rows()
    }

    #[test]
    fn windows_divide_the_rate_and_set_the_length() {
        let r = rows(
            "MIC -> window(id=1, params={512, 256, 0});
             1 -> fft(id=2);
             2 -> spectralMagnitude(id=3);
             3 -> max(id=4);
             4 -> OUT;",
        );
        assert_eq!(r[0].out_rate_hz, 8000.0 / 256.0);
        assert_eq!((r[0].out_len, r[0].period_ticks), (512, 256.0));
        assert_eq!((r[1].input_len, r[1].out_len), (512, 512));
        assert_eq!(r[2].out_len, 257);
        assert_eq!(r[3].out_len, 1);
        // The base rate stays the channel's all the way down.
        assert!(r.iter().all(|n| n.base_rate_hz == 8000.0));
        assert!(r
            .iter()
            .all(|n| n.channels_mask == 1 << SensorChannel::Mic.index()));
    }

    #[test]
    fn joins_take_their_own_rules() {
        let r = rows(
            "ACC_X -> window(id=1, params={4, 2, 0});
             1 -> mean(id=2);
             ACC_Y -> movingAvg(id=3, params={2});
             2,3 -> allOf(id=4);
             2,3 -> anyOf(id=5);
             4,5 -> anyOf(id=6);
             6 -> OUT;",
        );
        let (all, any) = (&r[3], &r[4]);
        assert_eq!(*all.input_rates, [25.0, 50.0]);
        assert_eq!(all.input_rate_hz, 75.0);
        assert_eq!((all.out_rate_hz, all.period_ticks), (25.0, 2.0));
        assert_eq!((any.out_rate_hz, any.period_ticks), (75.0, 1.0));
        assert_eq!(all.base_rate_hz, 50.0);
        let both = 1 << SensorChannel::AccX.index() | 1 << SensorChannel::AccY.index();
        assert_eq!(r[5].channels_mask, both);
    }

    #[test]
    fn undefined_and_forward_sources_read_as_unknown() {
        // Node 1 reads node 2 before it is defined; node 3 reads node 9,
        // which never is.
        let r = rows(
            "2 -> movingAvg(id=1, params={2});
             ACC_X -> window(id=2, params={8, 8, 0});
             9 -> fft(id=3);
             1 -> OUT;",
        );
        assert_eq!(r.len(), 3);
        for n in [&r[0], &r[2]] {
            assert_eq!(*n.input_rates, [0.0]);
            assert_eq!((n.out_rate_hz, n.out_len), (0.0, 1));
            assert_eq!(n.period_ticks, f64::INFINITY);
            assert_eq!((n.base_rate_hz, n.channels_mask), (0.0, 0));
        }
    }

    #[test]
    fn the_latest_definition_wins() {
        let r = rows(
            "ACC_X -> movingAvg(id=1, params={2});
             MIC -> window(id=1, params={16, 16, 0});
             1 -> mean(id=2);
             2 -> OUT;",
        );
        assert_eq!(r.len(), 3);
        assert_eq!(*r[2].input_rates, [500.0]);
        assert_eq!(r[2].input_len, 16);
    }

    #[test]
    fn a_node_without_sources_is_total() {
        let mut p = Program::new();
        p.push_node(vec![], NodeId(1), AlgorithmKind::AllOf);
        p.push_out(NodeId(1));
        let r = analyze(&p, &ChannelRates::default()).into_rows();
        assert!(r[0].input_rates.is_empty());
        assert_eq!((r[0].out_rate_hz, r[0].input_len), (0.0, 1));
        assert_eq!(r[0].period_ticks, f64::INFINITY);
    }
}
