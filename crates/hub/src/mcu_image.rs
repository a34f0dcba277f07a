//! Compiling validated programs into MCU core images.
//!
//! The `no_std` interpreter in `sidewinder-mcu` executes a plain-data
//! [`McuImage`] instead of walking the IR: parsing, validation, and this
//! compilation step stay on the host (the paper's phone-side runtime),
//! and only the fixed-capacity image crosses the serial link to the hub
//! (DESIGN.md §6j). [`compile_image`] gives each node its base rate from
//! the program's dataflow facts ([`sidewinder_ir::flow`]) and resolves
//! its dense define-before-use index. The
//! [`HubRuntime`](crate::HubRuntime) runs the same image on a heap-backed
//! core, so the host and an [`McuCore`](sidewinder_mcu::McuCore) are one
//! interpreter.

use crate::runtime::{ChannelRates, HubError, LoadError};
use sidewinder_ir::{flow, AlgorithmKind, Program, Source, StatFn, WindowShapeParam};
use sidewinder_mcu::{ImageBuilder, McuImage, NodeKind, PortSource, StatKind, WindowShape};

/// Compiles a program into the fixed-capacity image the MCU core
/// executes.
///
/// # Errors
///
/// Returns [`HubError::Invalid`] if the program fails validation,
/// [`HubError::Load`] for structural holes in a program that bypassed
/// validation, and [`HubError::Image`] if the program exceeds the image's
/// fixed capacities ([`MAX_NODES`](sidewinder_mcu::image::MAX_NODES)
/// nodes, [`MAX_PORTS`](sidewinder_mcu::image::MAX_PORTS) ports per
/// node).
pub fn compile_image(program: &Program, rates: &ChannelRates) -> Result<McuImage, HubError> {
    program.validate()?;
    compile_validated(program, rates)
}

/// [`compile_image`] without the validation pass, so the defensive
/// paths stay testable.
pub(crate) fn compile_validated(
    program: &Program,
    rates: &ChannelRates,
) -> Result<McuImage, HubError> {
    let flow = flow::analyze(program, rates);
    let mut dense: Vec<PortSource> = Vec::new();
    let mut builder = ImageBuilder::new();
    for (at, ((sources, id, kind), facts)) in program.nodes().zip(flow.rows()).enumerate() {
        if sources.is_empty() {
            return Err(HubError::Invalid(sidewinder_ir::ValidateError::BadArity {
                id,
                algorithm: kind.ir_name(),
                got: 0,
            }));
        }
        // Node `at` lands at dense index `at`: every earlier push succeeded.
        dense.clear();
        for s in sources {
            dense.push(match s {
                Source::Channel(c) => PortSource::Channel(c.index() as u8),
                Source::Node(src) => {
                    let row = flow.resolve(*src, at).ok_or(LoadError::UnknownSource {
                        at: id,
                        source: *src,
                    })?;
                    PortSource::Node(row as u16)
                }
            });
        }
        builder.push_node(node_kind(kind), &dense, facts.base_rate_hz)?;
    }
    let out_id = program
        .out_source()
        .ok_or(HubError::Invalid(sidewinder_ir::ValidateError::MissingOut))?;
    let out_index = flow
        .resolve(out_id, usize::MAX)
        .ok_or(LoadError::UnknownOut { source: out_id })?;
    Ok(builder.finish(out_index as u16)?)
}

/// IR algorithm → image node kind. The two enums are deliberately
/// parallel; this match is the total (compiler-checked) bridge.
fn node_kind(kind: &AlgorithmKind) -> NodeKind {
    match *kind {
        AlgorithmKind::Window { size, hop, shape } => NodeKind::Window {
            size,
            hop,
            shape: window_shape(shape),
        },
        AlgorithmKind::Fft => NodeKind::Fft,
        AlgorithmKind::Ifft => NodeKind::Ifft,
        AlgorithmKind::SpectralMagnitude => NodeKind::SpectralMagnitude,
        AlgorithmKind::MovingAvg { window } => NodeKind::MovingAvg { window },
        AlgorithmKind::ExpMovingAvg { alpha } => NodeKind::ExpMovingAvg { alpha },
        AlgorithmKind::LowPass { cutoff_hz } => NodeKind::LowPass { cutoff_hz },
        AlgorithmKind::HighPass { cutoff_hz } => NodeKind::HighPass { cutoff_hz },
        AlgorithmKind::VectorMagnitude => NodeKind::VectorMagnitude,
        AlgorithmKind::Zcr => NodeKind::Zcr,
        AlgorithmKind::ZcrVariance { sub_windows } => NodeKind::ZcrVariance { sub_windows },
        AlgorithmKind::Stat(f) => NodeKind::Stat(stat_kind(f)),
        AlgorithmKind::DominantRatio => NodeKind::DominantRatio,
        AlgorithmKind::DominantFreq => NodeKind::DominantFreq,
        AlgorithmKind::Goertzel { lo_hz, hi_hz } => NodeKind::Goertzel { lo_hz, hi_hz },
        AlgorithmKind::GoertzelFreq { lo_hz, hi_hz } => NodeKind::GoertzelFreq { lo_hz, hi_hz },
        AlgorithmKind::GoertzelRatio { lo_hz, hi_hz } => NodeKind::GoertzelRatio { lo_hz, hi_hz },
        AlgorithmKind::MinThreshold { threshold } => NodeKind::MinThreshold { threshold },
        AlgorithmKind::MaxThreshold { threshold } => NodeKind::MaxThreshold { threshold },
        AlgorithmKind::BandThreshold { lo, hi } => NodeKind::BandThreshold { lo, hi },
        AlgorithmKind::OutsideThreshold { lo, hi } => NodeKind::OutsideThreshold { lo, hi },
        AlgorithmKind::Sustained { count, max_gap } => NodeKind::Sustained {
            count,
            max_gap: u64::from(max_gap),
        },
        AlgorithmKind::AllOf => NodeKind::AllOf,
        AlgorithmKind::AnyOf => NodeKind::AnyOf,
    }
}

fn window_shape(shape: WindowShapeParam) -> WindowShape {
    match shape {
        WindowShapeParam::Rectangular => WindowShape::Rectangular,
        WindowShapeParam::Hamming => WindowShape::Hamming,
        WindowShapeParam::Hann => WindowShape::Hann,
    }
}

fn stat_kind(f: StatFn) -> StatKind {
    match f {
        StatFn::Mean => StatKind::Mean,
        StatFn::Variance => StatKind::Variance,
        StatFn::StdDev => StatKind::StdDev,
        StatFn::MeanAbs => StatKind::MeanAbs,
        StatFn::Rms => StatKind::Rms,
        StatFn::Energy => StatKind::Energy,
        StatFn::Min => StatKind::Min,
        StatFn::Max => StatKind::Max,
        StatFn::PeakToPeak => StatKind::PeakToPeak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidewinder_ir::NodeId;
    use sidewinder_mcu::McuCore;
    use sidewinder_sensors::SensorChannel;

    fn compile(text: &str) -> McuImage {
        let program: Program = text.parse().unwrap();
        compile_image(&program, &ChannelRates::default()).unwrap()
    }

    #[test]
    fn compiles_the_fig2_pipeline() {
        let image = compile(
            "ACC_X -> movingAvg(id=1, params={10});
             ACC_Y -> movingAvg(id=2, params={10});
             ACC_Z -> movingAvg(id=3, params={10});
             1,2,3 -> vectorMagnitude(id=4);
             4 -> minThreshold(id=5, params={15});
             5 -> OUT;",
        );
        assert_eq!(image.node_count(), 5);
        assert_eq!(image.out_index(), 4);
        // Each accelerometer axis direct-feeds exactly its moving average.
        assert_eq!(image.direct_feed_mask(SensorChannel::AccX.index()), 1 << 0);
        assert_eq!(image.direct_feed_mask(SensorChannel::AccZ.index()), 1 << 2);
    }

    #[test]
    fn compiled_image_runs_on_the_core() {
        let image = compile(
            "ACC_X -> movingAvg(id=1, params={2});
             1 -> minThreshold(id=2, params={5});
             2 -> OUT;",
        );
        let mut core: McuCore = McuCore::new();
        core.load(&image).unwrap();
        let mut wakes = Vec::new();
        let channel = SensorChannel::AccX.index() as u8;
        for x in [10.0, 10.0, 10.0] {
            core.push_sample(channel, x, &mut |w| wakes.push(w))
                .unwrap();
        }
        assert_eq!(wakes.len(), 2); // averages at seq 1 and 2 pass the gate
        assert_eq!(wakes[0].value, 10.0);
    }

    #[test]
    fn rejects_invalid_programs() {
        let program: Program = "ACC_X -> movingAvg(id=1, params={10});".parse().unwrap();
        let err = compile_image(&program, &ChannelRates::default()).unwrap_err();
        assert!(matches!(err, HubError::Invalid(_)));
    }

    #[test]
    fn oversized_programs_get_a_typed_capacity_error() {
        // Chain more nodes than the image can hold.
        let mut text = String::from("ACC_X -> movingAvg(id=1, params={2});\n");
        for id in 2..40 {
            text.push_str(&format!(
                "{} -> movingAvg(id={}, params={{2}});\n",
                id - 1,
                id
            ));
        }
        text.push_str("39 -> OUT;");
        let program: Program = text.parse().unwrap();
        let err = compile_image(&program, &ChannelRates::default()).unwrap_err();
        assert!(matches!(err, HubError::Image(_)), "got {err:?}");
        assert!(err.to_string().contains("image nodes"));
    }

    #[test]
    fn unvalidated_forward_rate_reference_is_a_typed_error() {
        // Node 1 reads node 2, which is defined later.
        let mut program = Program::new();
        program.push_node(
            vec![Source::Node(NodeId(2))],
            NodeId(1),
            AlgorithmKind::AnyOf,
        );
        program.push_node(
            vec![Source::Channel(SensorChannel::AccX)],
            NodeId(2),
            AlgorithmKind::MovingAvg { window: 4 },
        );
        program.push_out(NodeId(1));
        let err = compile_validated(&program, &ChannelRates::default()).unwrap_err();
        assert_eq!(
            err,
            HubError::Load(LoadError::UnknownSource {
                at: NodeId(1),
                source: NodeId(2),
            })
        );
        assert!(err.to_string().contains("not defined before use"));
    }

    #[test]
    fn unvalidated_undefined_port_source_is_a_typed_error() {
        // A join whose second port is undefined.
        let mut program = Program::new();
        program.push_node(
            vec![Source::Channel(SensorChannel::AccX)],
            NodeId(1),
            AlgorithmKind::MovingAvg { window: 4 },
        );
        program.push_node(
            vec![Source::Node(NodeId(1)), Source::Node(NodeId(9))],
            NodeId(2),
            AlgorithmKind::AllOf,
        );
        program.push_out(NodeId(2));
        let err = compile_validated(&program, &ChannelRates::default()).unwrap_err();
        assert_eq!(
            err,
            HubError::Load(LoadError::UnknownSource {
                at: NodeId(2),
                source: NodeId(9),
            })
        );
    }

    #[test]
    fn unvalidated_holes_surface_typed_load_errors() {
        let mut program = Program::new();
        program.push_node(
            vec![Source::Channel(SensorChannel::AccX)],
            NodeId(1),
            AlgorithmKind::MovingAvg { window: 4 },
        );
        program.push_out(NodeId(9));
        let err = compile_validated(&program, &ChannelRates::default()).unwrap_err();
        assert_eq!(
            err,
            HubError::Load(LoadError::UnknownOut { source: NodeId(9) })
        );
    }
}
