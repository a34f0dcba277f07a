//! Pipeline cost analysis.
//!
//! The paper's §3.8 "Sizing" discussion notes that the lower-power MCU
//! "was not able to run some algorithms (such as Fast Fourier Transforms)
//! in real-time". To reproduce that constraint without hardware, each
//! algorithm is assigned a floating-point-operation count per emission,
//! and each node an emission rate derived from its position in the
//! pipeline (windows emit every `hop` samples; scalar filters emit per
//! sample). An MCU then admits a pipeline iff the total flop/s — scaled by
//! the MCU's cycles-per-flop (software floating point on the MSP430 is an
//! order of magnitude slower than the Cortex-M4F's FPU) — fits within its
//! clock budget, and the buffers fit in RAM.

use crate::runtime::ChannelRates;
use sidewinder_ir::{AlgorithmKind, NodeId, Program, Source, StatFn};
use std::collections::BTreeMap;

/// Cost of a single node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCost {
    /// The node.
    pub id: NodeId,
    /// Emissions per second this node processes.
    pub input_rate_hz: f64,
    /// Floating-point operations per input emission.
    pub flops_per_input: f64,
    /// Bytes of state the instance keeps.
    pub memory_bytes: usize,
    /// Worst-case emissions per second leaving the node.
    pub out_rate_hz: f64,
    /// Elements per emission leaving the node.
    pub out_len: usize,
    /// Sample rate of the data inside incoming vectors — what
    /// frequency-aware stages place DFT bins with.
    pub base_rate_hz: f64,
    /// Bitmask over dense channel indices
    /// ([`SensorChannel::index`](sidewinder_sensors::SensorChannel::index))
    /// of the channels that transitively feed the node.
    pub channels_mask: u16,
}

impl NodeCost {
    /// Flops per second this node demands.
    pub fn flops_per_second(&self) -> f64 {
        self.input_rate_hz * self.flops_per_input
    }
}

/// The aggregate cost of a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineCost {
    nodes: Vec<NodeCost>,
}

impl PipelineCost {
    /// Analyzes a validated program against channel rates.
    ///
    /// Unvalidated programs may yield meaningless costs, but analysis
    /// never panics on them: an unknown source reads as rate 0, length
    /// 1, base rate 0 and no channels.
    pub fn analyze(program: &Program, rates: &ChannelRates) -> PipelineCost {
        // Each node's emission rate, vector length, and the sample rate
        // of the data *inside* those vectors (the base rate a
        // frequency-aware stage like goertzel sees) flow to its
        // consumers through `nodes`.
        let mut index: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut nodes: Vec<NodeCost> = Vec::new();

        for (sources, id, kind) in program.nodes() {
            let upstream = |n: &NodeId| index.get(n).map(|&k| &nodes[k]);
            // A multi-input aggregator processes every arriving value, so
            // it is charged for the *sum* of its source rates, not just
            // the first source's.
            let src_rates: Vec<f64> = sources
                .iter()
                .map(|s| match s {
                    Source::Channel(c) => rates.rate_of(*c),
                    Source::Node(n) => upstream(n).map_or(0.0, |u| u.out_rate_hz),
                })
                .collect();
            let input_rate: f64 = src_rates.iter().sum();
            let input_len = sources
                .iter()
                .map(|s| match s {
                    Source::Channel(_) => 1,
                    Source::Node(n) => upstream(n).map_or(1, |u| u.out_len),
                })
                .max()
                .unwrap_or(1);
            let input_base = sources
                .iter()
                .map(|s| match s {
                    Source::Channel(c) => rates.rate_of(*c),
                    Source::Node(n) => upstream(n).map_or(0.0, |u| u.base_rate_hz),
                })
                .fold(0.0, f64::max);
            let channels_mask = sources.iter().fold(0u16, |mask, s| match s {
                Source::Channel(c) => mask | 1 << c.index(),
                Source::Node(n) => mask | upstream(n).map_or(0, |u| u.channels_mask),
            });

            let (flops, mem, mut rate_out, len_out) =
                cost_of(kind, input_rate, input_len, input_base);
            // Joins that wait for every branch emit at the slowest
            // branch's cadence; anyOf forwards every arrival (the summed
            // rate cost_of already returned).
            if matches!(kind, AlgorithmKind::VectorMagnitude | AlgorithmKind::AllOf) {
                rate_out = src_rates.iter().copied().fold(f64::INFINITY, f64::min);
                if !rate_out.is_finite() {
                    rate_out = 0.0;
                }
            }
            index.insert(id, nodes.len());
            nodes.push(NodeCost {
                id,
                input_rate_hz: input_rate,
                flops_per_input: flops,
                memory_bytes: mem,
                out_rate_hz: rate_out,
                out_len: len_out,
                base_rate_hz: input_base,
                channels_mask,
            });
        }
        PipelineCost { nodes }
    }

    /// Per-node costs in statement order.
    pub fn nodes(&self) -> &[NodeCost] {
        &self.nodes
    }

    /// Total flops per second across all nodes.
    pub fn total_flops_per_second(&self) -> f64 {
        self.nodes.iter().map(|n| n.flops_per_second()).sum()
    }

    /// Total instance memory in bytes.
    pub fn total_memory_bytes(&self) -> usize {
        self.nodes.iter().map(|n| n.memory_bytes).sum()
    }
}

/// Returns `(flops_per_input, memory_bytes, output_rate, output_len)`.
/// `input_base_rate` is the sample rate of the data inside incoming
/// vectors — what frequency-aware stages use to place DFT bins.
fn cost_of(
    kind: &AlgorithmKind,
    input_rate: f64,
    input_len: usize,
    input_base_rate: f64,
) -> (f64, usize, f64, usize) {
    let n = input_len as f64;
    match *kind {
        AlgorithmKind::Window { size, hop, shape } => {
            let taper = match shape {
                sidewinder_ir::WindowShapeParam::Rectangular => 0.0,
                _ => size as f64, // one multiply per sample on emission
            };
            // Per-sample buffer push ≈ 2 flops; amortize taper over hop.
            // Memory: one f32 ring buffer; emissions stream to consumers
            // in place on the MCU.
            (
                2.0 + (taper + size as f64) / hop as f64,
                size as usize * 4,
                input_rate / hop as f64,
                size as usize,
            )
        }
        // In-place complex f32 transforms: 8 bytes per point.
        AlgorithmKind::Fft => (
            5.0 * n * n.log2().max(1.0),
            input_len * 8,
            input_rate,
            input_len,
        ),
        AlgorithmKind::Ifft => (
            5.0 * n * n.log2().max(1.0) + n,
            input_len * 8,
            input_rate,
            input_len,
        ),
        AlgorithmKind::SpectralMagnitude => {
            // A sqrt per bin ≈ 15 flops on scalar hardware.
            (
                16.0 * (n / 2.0 + 1.0),
                (input_len / 2 + 1) * 4,
                input_rate,
                input_len / 2 + 1,
            )
        }
        AlgorithmKind::MovingAvg { window } => {
            (window as f64 + 2.0, window as usize * 4, input_rate, 1)
        }
        AlgorithmKind::ExpMovingAvg { .. } => (3.0, 16, input_rate, 1),
        AlgorithmKind::LowPass { .. } | AlgorithmKind::HighPass { .. } => (
            // Forward + inverse FFT plus a pass over the bins; one
            // in-place complex f32 workspace.
            10.0 * n * n.log2().max(1.0) + 2.0 * n,
            input_len * 8,
            input_rate,
            input_len,
        ),
        AlgorithmKind::VectorMagnitude => (20.0, 64, input_rate, 1),
        AlgorithmKind::Zcr => (3.0 * n, 16, input_rate, 1),
        AlgorithmKind::ZcrVariance { .. } => (4.0 * n, 64, input_rate, 1),
        AlgorithmKind::Stat(s) => {
            let per_sample = match s {
                StatFn::Mean | StatFn::Min | StatFn::Max | StatFn::PeakToPeak => 1.0,
                StatFn::MeanAbs | StatFn::Energy => 2.0,
                StatFn::Variance | StatFn::StdDev | StatFn::Rms => 3.0,
            };
            (per_sample * n + 10.0, 32, input_rate, 1)
        }
        AlgorithmKind::DominantRatio | AlgorithmKind::DominantFreq => (2.0 * n, 16, input_rate, 1),
        AlgorithmKind::Goertzel { lo_hz, hi_hz }
        | AlgorithmKind::GoertzelFreq { lo_hz, hi_hz }
        | AlgorithmKind::GoertzelRatio { lo_hz, hi_hz } => {
            // One Goertzel recurrence per in-band bin: ~3 flops per
            // sample plus the closing magnitude (a sqrt ≈ 15 flops).
            // Without a known base rate the bin spacing is unknown, so
            // assume the worst case (every bin in band). The freq/ratio
            // variants skip the DC probe; one bin of difference is noise
            // at this model's resolution, so all three share the count.
            let probes = if input_base_rate > 0.0 && input_len > 0 {
                let bin_hz = input_base_rate / n;
                (0..=input_len / 2)
                    .filter(|&k| {
                        let f = k as f64 * bin_hz;
                        lo_hz <= f && f <= hi_hz
                    })
                    .count() as f64
            } else {
                n / 2.0 + 1.0
            };
            (probes * (3.0 * n + 20.0), 32 + input_len * 4, input_rate, 1)
        }
        AlgorithmKind::MinThreshold { .. }
        | AlgorithmKind::MaxThreshold { .. }
        | AlgorithmKind::BandThreshold { .. }
        | AlgorithmKind::OutsideThreshold { .. } => (2.0, 16, input_rate, 1),
        AlgorithmKind::Sustained { .. } => (3.0, 24, input_rate, 1),
        AlgorithmKind::AllOf | AlgorithmKind::AnyOf => (2.0, 48, input_rate, 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidewinder_ir::Program;

    fn analyze(text: &str) -> PipelineCost {
        let p: Program = text.parse().unwrap();
        p.validate().unwrap();
        PipelineCost::analyze(&p, &ChannelRates::default())
    }

    #[test]
    fn scalar_accel_pipeline_is_cheap() {
        let cost = analyze(
            "ACC_X -> movingAvg(id=1, params={10});
             1 -> minThreshold(id=2, params={15});
             2 -> OUT;",
        );
        // 50 Hz × (12 + 2) flops ≈ 700 flops/s.
        assert!(cost.total_flops_per_second() < 1_000.0);
        assert_eq!(cost.nodes().len(), 2);
        assert!(cost.total_memory_bytes() < 1_024);
    }

    #[test]
    fn fft_audio_pipeline_is_expensive() {
        let cost = analyze(
            "MIC -> window(id=1, params={256, 256, 1});
             1 -> highPass(id=2, params={750});
             2 -> fft(id=3);
             3 -> spectralMagnitude(id=4);
             4 -> dominantRatio(id=5);
             5 -> minThreshold(id=6, params={4});
             6 -> OUT;",
        );
        // Filters + FFT at 31.25 windows/s run in the hundreds of kiloflops.
        let f = cost.total_flops_per_second();
        assert!(f > 300_000.0, "flops/s = {f}");
    }

    #[test]
    fn window_rate_division_propagates() {
        let cost = analyze(
            "MIC -> window(id=1, params={512, 512, 0});
             1 -> rms(id=2);
             2 -> minThreshold(id=3, params={0.5});
             3 -> OUT;",
        );
        // The rms node sees 8000/512 = 15.625 windows/s.
        let rms = &cost.nodes()[1];
        assert!((rms.input_rate_hz - 15.625).abs() < 1e-9);
        // The threshold sees the same (scalar) rate.
        let thr = &cost.nodes()[2];
        assert!((thr.input_rate_hz - 15.625).abs() < 1e-9);
    }

    #[test]
    fn spectral_magnitude_halves_vector_length() {
        let p: Program = "MIC -> window(id=1, params={256, 256, 0});
             1 -> fft(id=2);
             2 -> spectralMagnitude(id=3);
             3 -> dominantFreq(id=4);
             4 -> minThreshold(id=5, params={0});
             5 -> OUT;"
            .parse()
            .unwrap();
        let cost = PipelineCost::analyze(&p, &ChannelRates::default());
        // dominantFreq consumes 129-point magnitude vectors: 2 flops/bin.
        let dom = &cost.nodes()[3];
        assert!((dom.flops_per_input - 258.0).abs() < 1e-9);
    }

    #[test]
    fn aggregator_input_rate_sums_all_sources() {
        // Regression: analyze() used to read only sources.first(), so a
        // two-input aggregator was charged for one 50 Hz stream instead
        // of two.
        let cost = analyze(
            "ACC_X -> movingAvg(id=1, params={5});
             ACC_Y -> movingAvg(id=2, params={5});
             1,2 -> vectorMagnitude(id=3);
             3 -> minThreshold(id=4, params={15});
             4 -> OUT;",
        );
        let join = &cost.nodes()[2];
        assert!((join.input_rate_hz - 100.0).abs() < 1e-9);
        // 100 arrivals/s × 20 flops each.
        assert!((join.flops_per_second() - 2_000.0).abs() < 1e-9);
        // The join emits once per completed set — at the branch rate —
        // so the downstream threshold sees 50 Hz, not 100 Hz.
        let thr = &cost.nodes()[3];
        assert!((thr.input_rate_hz - 50.0).abs() < 1e-9);
    }

    #[test]
    fn any_of_forwards_the_summed_rate() {
        let cost = analyze(
            "ACC_X -> movingAvg(id=1, params={5});
             ACC_Y -> movingAvg(id=2, params={5});
             1,2 -> anyOf(id=3);
             3 -> minThreshold(id=4, params={15});
             4 -> OUT;",
        );
        // An OR join emits on every arrival: downstream sees 100 Hz.
        let thr = &cost.nodes()[3];
        assert!((thr.input_rate_hz - 100.0).abs() < 1e-9);
    }

    #[test]
    fn memory_counts_buffers() {
        let cost = analyze(
            "MIC -> window(id=1, params={256, 256, 0});
             1 -> rms(id=2);
             2 -> minThreshold(id=3, params={0.1});
             3 -> OUT;",
        );
        assert!(cost.total_memory_bytes() >= 256 * 4);
    }
}
