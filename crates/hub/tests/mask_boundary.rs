//! Pins the program-size boundary.
//!
//! Host and hub run one interpreter, whose ready set is a single
//! [`Mask`] word: [`MAX_NODES`] is the one program-size limit. Two things
//! must hold at the boundary: a program of exactly `MAX_NODES` nodes, with
//! every bit of the mask live on every pass, computes the right wakes; and
//! one node more is refused at load with a typed image error, never run.

use sidewinder_hub::runtime::{ChannelRates, HubRuntime, WakeEvent};
use sidewinder_hub::HubError;
use sidewinder_ir::{AlgorithmKind, NodeId, Program, Source};
use sidewinder_mcu::image::{Mask, MAX_NODES};
use sidewinder_mcu::ImageError;
use sidewinder_sensors::SensorChannel;

const ALPHA: f64 = 0.5;

/// Builds a `node_count`-long chain: `ACC_X -> ema -> ema -> … -> OUT`.
/// Every EMA emits on every sample, so all nodes are live and the ready
/// set is saturated each pass — the densest possible mask traffic.
fn ema_chain(node_count: usize) -> Program {
    assert!(node_count >= 1);
    let mut program = Program::new();
    program.push_node(
        vec![Source::Channel(SensorChannel::AccX)],
        NodeId(1),
        AlgorithmKind::ExpMovingAvg { alpha: ALPHA },
    );
    for id in 2..=node_count as u32 {
        program.push_node(
            vec![Source::Node(NodeId(id - 1))],
            NodeId(id),
            AlgorithmKind::ExpMovingAvg { alpha: ALPHA },
        );
    }
    program.push_out(NodeId(node_count as u32));
    program
}

/// A deterministic, non-trivial input signal.
fn signal() -> Vec<f64> {
    (0..200).map(|i| ((i % 17) as f64) - 8.0).collect()
}

fn run(hub: &mut HubRuntime) -> Vec<WakeEvent> {
    let mut wakes = Vec::new();
    for &x in &signal() {
        wakes.extend(hub.push_sample(SensorChannel::AccX, x).unwrap());
    }
    wakes
}

/// The chain computed in plain Rust: `depth` chained EMA folds.
fn reference_chain(depth: usize) -> Vec<f64> {
    let mut states: Vec<Option<f64>> = vec![None; depth];
    signal()
        .iter()
        .map(|&x| {
            let mut value = x;
            for state in &mut states {
                value = match *state {
                    None => value,
                    Some(prev) => ALPHA * value + (1.0 - ALPHA) * prev,
                };
                *state = Some(value);
            }
            value
        })
        .collect()
}

#[test]
fn the_limit_fills_the_mask_word() {
    assert_eq!(MAX_NODES, Mask::BITS as usize);
}

#[test]
fn full_mask_chain_matches_reference_at_max_nodes() {
    let mut hub = HubRuntime::load(&ema_chain(MAX_NODES), &ChannelRates::default()).unwrap();
    assert_eq!(hub.node_count(), MAX_NODES);
    let wakes = run(&mut hub);
    let expected = reference_chain(MAX_NODES);
    assert_eq!(wakes.len(), expected.len());
    for (i, (wake, want)) in wakes.iter().zip(&expected).enumerate() {
        assert_eq!(wake.seq, i as u64);
        assert!(
            (wake.value - want).abs() < 1e-12,
            "sample {i}: {} != {want}",
            wake.value
        );
    }
}

#[test]
fn one_node_past_the_limit_is_refused_at_load() {
    let err = HubRuntime::load(&ema_chain(MAX_NODES + 1), &ChannelRates::default()).unwrap_err();
    match err {
        HubError::Image(ImageError::Capacity(c)) => {
            assert_eq!(c.what, "image nodes");
            assert_eq!(c.needed, MAX_NODES + 1);
            assert_eq!(c.capacity, MAX_NODES);
        }
        other => panic!("expected an image capacity error, got {other:?}"),
    }
}

#[test]
fn boundary_chains_differ_by_exactly_one_smoothing_stage() {
    // Sanity: the chain one past the limit is genuinely one fold deeper,
    // so the two tests above are not about identical pipelines.
    assert_ne!(reference_chain(MAX_NODES), reference_chain(MAX_NODES + 1));
}
