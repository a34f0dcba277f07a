//! Pipeline cost analysis.
//!
//! The paper's §3.8 "Sizing" discussion notes that the lower-power MCU
//! "was not able to run some algorithms (such as Fast Fourier Transforms)
//! in real-time". To reproduce that constraint without hardware, each
//! algorithm is assigned a floating-point-operation count per arrival
//! and a memory footprint. The arrival rates, vector lengths and base
//! rates those prices multiply come from the program's one dataflow-fact
//! walk ([`sidewinder_ir::flow`]); this module only prices. An MCU then
//! admits a pipeline iff the total flop/s — scaled by the MCU's
//! cycles-per-flop (software floating point on the MSP430 is an order of
//! magnitude slower than the Cortex-M4F's FPU) — fits within its clock
//! budget, and the buffers fit in RAM.

use crate::runtime::ChannelRates;
use sidewinder_ir::flow::{self, NodeFlow};
use sidewinder_ir::{AlgorithmKind, Program, StatFn};

/// Cost of a single node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCost {
    /// The node's dataflow facts: rates, lengths and base rate.
    pub flow: NodeFlow,
    /// Floating-point operations per input emission.
    pub flops_per_input: f64,
    /// Bytes of state the instance keeps.
    pub memory_bytes: usize,
}

impl NodeCost {
    /// Flops per second this node demands: every arrival is processed.
    pub fn flops_per_second(&self) -> f64 {
        self.flow.input_rate_hz * self.flops_per_input
    }
}

/// The aggregate cost of a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineCost {
    nodes: Vec<NodeCost>,
}

impl PipelineCost {
    /// Prices every row of the program's [dataflow facts](flow) against
    /// channel rates.
    ///
    /// Unvalidated programs may yield meaningless costs, but analysis
    /// never panics on them: an unknown source reads as rate 0, length
    /// 1, base rate 0 and no channels.
    pub fn analyze(program: &Program, rates: &ChannelRates) -> PipelineCost {
        let nodes = flow::analyze(program, rates)
            .into_rows()
            .into_iter()
            .map(|flow| {
                let (flops_per_input, memory_bytes) = cost_of(&flow);
                NodeCost {
                    flow,
                    flops_per_input,
                    memory_bytes,
                }
            })
            .collect();
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

/// Returns `(flops_per_input, memory_bytes)`: the per-kind price of
/// one arrival of `flow.input_len` elements. Frequency-aware stages place
/// DFT bins with `flow.base_rate_hz`.
fn cost_of(flow: &NodeFlow) -> (f64, usize) {
    let input_len = flow.input_len;
    let n = input_len as f64;
    match flow.kind {
        AlgorithmKind::Window { size, hop, shape } => {
            let taper = match shape {
                sidewinder_ir::WindowShapeParam::Rectangular => 0.0,
                _ => size as f64, // one multiply per sample on emission
            };
            // Per-sample buffer push ≈ 2 flops; amortize taper over hop.
            // Memory: one f32 ring buffer; emissions stream to consumers
            // in place on the MCU.
            (2.0 + (taper + size as f64) / hop as f64, size as usize * 4)
        }
        // In-place complex f32 transforms: 8 bytes per point.
        AlgorithmKind::Fft => (5.0 * n * n.log2().max(1.0), input_len * 8),
        AlgorithmKind::Ifft => (5.0 * n * n.log2().max(1.0) + n, input_len * 8),
        AlgorithmKind::SpectralMagnitude => {
            // A sqrt per bin ≈ 15 flops on scalar hardware.
            (16.0 * (n / 2.0 + 1.0), (input_len / 2 + 1) * 4)
        }
        AlgorithmKind::MovingAvg { window } => (window as f64 + 2.0, window as usize * 4),
        AlgorithmKind::ExpMovingAvg { .. } => (3.0, 16),
        AlgorithmKind::LowPass { .. } | AlgorithmKind::HighPass { .. } => (
            // Forward + inverse FFT plus a pass over the bins; one
            // in-place complex f32 workspace.
            10.0 * n * n.log2().max(1.0) + 2.0 * n,
            input_len * 8,
        ),
        AlgorithmKind::VectorMagnitude => (20.0, 64),
        AlgorithmKind::Zcr => (3.0 * n, 16),
        AlgorithmKind::ZcrVariance { .. } => (4.0 * n, 64),
        AlgorithmKind::Stat(s) => {
            let per_sample = match s {
                StatFn::Mean | StatFn::Min | StatFn::Max | StatFn::PeakToPeak => 1.0,
                StatFn::MeanAbs | StatFn::Energy => 2.0,
                StatFn::Variance | StatFn::StdDev | StatFn::Rms => 3.0,
            };
            (per_sample * n + 10.0, 32)
        }
        AlgorithmKind::DominantRatio | AlgorithmKind::DominantFreq => (2.0 * n, 16),
        AlgorithmKind::Goertzel { lo_hz, hi_hz }
        | AlgorithmKind::GoertzelFreq { lo_hz, hi_hz }
        | AlgorithmKind::GoertzelRatio { lo_hz, hi_hz } => {
            // One Goertzel recurrence per in-band bin: ~3 flops per
            // sample plus the closing magnitude (a sqrt ≈ 15 flops).
            // Without a known base rate the bin spacing is unknown, so
            // assume the worst case (every bin in band). The freq/ratio
            // variants skip the DC probe; one bin of difference is noise
            // at this model's resolution, so all three share the count.
            let probes = if flow.base_rate_hz > 0.0 && input_len > 0 {
                let bin_hz = flow.base_rate_hz / n;
                (0..=input_len / 2)
                    .filter(|&k| {
                        let f = k as f64 * bin_hz;
                        lo_hz <= f && f <= hi_hz
                    })
                    .count() as f64
            } else {
                n / 2.0 + 1.0
            };
            (probes * (3.0 * n + 20.0), 32 + input_len * 4)
        }
        AlgorithmKind::MinThreshold { .. }
        | AlgorithmKind::MaxThreshold { .. }
        | AlgorithmKind::BandThreshold { .. }
        | AlgorithmKind::OutsideThreshold { .. } => (2.0, 16),
        AlgorithmKind::Sustained { .. } => (3.0, 24),
        AlgorithmKind::AllOf | AlgorithmKind::AnyOf => (2.0, 48),
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
        assert!((rms.flow.input_rate_hz - 15.625).abs() < 1e-9);
        // The threshold sees the same (scalar) rate.
        let thr = &cost.nodes()[2];
        assert!((thr.flow.input_rate_hz - 15.625).abs() < 1e-9);
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
        assert!((join.flow.input_rate_hz - 100.0).abs() < 1e-9);
        // 100 arrivals/s × 20 flops each.
        assert!((join.flops_per_second() - 2_000.0).abs() < 1e-9);
        // The join emits once per completed set — at the branch rate —
        // so the downstream threshold sees 50 Hz, not 100 Hz.
        let thr = &cost.nodes()[3];
        assert!((thr.flow.input_rate_hz - 50.0).abs() < 1e-9);
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
        assert!((thr.flow.input_rate_hz - 100.0).abs() < 1e-9);
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
