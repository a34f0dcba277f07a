//! Shared redundancy facts.
//!
//! SW003 ("redundant node") and the optimizer's dead-node elimination
//! must agree on what counts as a node that provably does nothing: a
//! node the optimizer deletes has to be exactly one the lint would
//! flag, or the two drift and `swopt` output stops being lint-clean.
//! This module is the single predicate both consume.

use crate::absint::NodeFacts;
use sidewinder_ir::AlgorithmKind;

/// Why a node provably does nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Redundancy {
    /// `movingAvg` over ≤ 1 sample re-emits its input.
    IdentityMovingAvg {
        /// The configured window length.
        window: u32,
    },
    /// `expMovingAvg` with alpha ≥ 1 re-emits its input.
    IdentityEma {
        /// The configured smoothing factor.
        alpha: f64,
    },
    /// A 1-sample window re-emits each sample (as a 1-vector).
    OneSampleWindow,
    /// `sustained` of ≤ 1 arrival passes every arrival.
    PassthroughSustained {
        /// The configured arrival count.
        count: u32,
    },
    /// A threshold gate whose pass set covers its whole input interval.
    FilterlessGate,
}

impl Redundancy {
    /// Whether the optimizer may delete the node and forward its input
    /// directly to consumers.
    ///
    /// True only for *value-preserving scalar identities*: on every
    /// arrival the node emits its input value, bit-for-bit, with no
    /// type change. A 1-sample window is redundant but wraps the scalar
    /// in a vector, so deleting it would retype the edge; and the
    /// degenerate `window = 0` / `count = 0` parameterizations are
    /// rejected by validation, so the optimizer (which only runs on
    /// valid programs) never sees them.
    ///
    /// One caveat worth recording: `expMovingAvg` at alpha = 1 computes
    /// `1·x + 0·prev`, which maps a `-0.0` sample to `+0.0` once state
    /// is warm. The bypass forwards `-0.0` unchanged — the *bypass* is
    /// the mathematically faithful identity; the filter's rounding is
    /// the artifact.
    pub fn bypassable(&self) -> bool {
        match *self {
            Redundancy::IdentityMovingAvg { window } => window == 1,
            Redundancy::IdentityEma { .. } => true,
            Redundancy::OneSampleWindow => false,
            Redundancy::PassthroughSustained { count } => count == 1,
            Redundancy::FilterlessGate => true,
        }
    }

    /// The human-readable explanation SW003 prints. `facts` must be the
    /// same analysis record the redundancy was derived from.
    pub fn detail(&self, facts: &NodeFacts) -> String {
        match *self {
            Redundancy::IdentityMovingAvg { window } => {
                format!("`movingAvg` over {window} sample(s) is the identity")
            }
            Redundancy::IdentityEma { alpha } => {
                format!("`expMovingAvg` with alpha = {alpha} is the identity")
            }
            Redundancy::OneSampleWindow => {
                "a 1-sample window re-emits each sample unchanged".to_string()
            }
            Redundancy::PassthroughSustained { count } => {
                format!("`sustained` of {count} arrival(s) passes every arrival")
            }
            Redundancy::FilterlessGate => format!(
                "`{}` passes every value in {}; it filters nothing",
                facts.flow.kind.ir_name(),
                facts.input_value
            ),
        }
    }
}

/// The SW003 predicate: whether `facts` describes a node that provably
/// does nothing, and why.
pub fn redundancy(facts: &NodeFacts) -> Option<Redundancy> {
    match facts.flow.kind {
        AlgorithmKind::MovingAvg { window } if window <= 1 => {
            Some(Redundancy::IdentityMovingAvg { window })
        }
        AlgorithmKind::ExpMovingAvg { alpha } if alpha >= 1.0 => {
            Some(Redundancy::IdentityEma { alpha })
        }
        AlgorithmKind::Window { size: 1, .. } => Some(Redundancy::OneSampleWindow),
        AlgorithmKind::Sustained { count, .. } if count <= 1 => {
            Some(Redundancy::PassthroughSustained { count })
        }
        AlgorithmKind::MinThreshold { .. }
        | AlgorithmKind::MaxThreshold { .. }
        | AlgorithmKind::BandThreshold { .. }
        | AlgorithmKind::OutsideThreshold { .. }
            if facts.passes_all =>
        {
            Some(Redundancy::FilterlessGate)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::analyze;
    use sidewinder_hub::runtime::ChannelRates;
    use sidewinder_ir::{NodeId, Program};

    fn facts_of(text: &str, id: u32) -> NodeFacts {
        let p: Program = text.parse().unwrap();
        analyze(&p, &ChannelRates::default())
            .fact(NodeId(id))
            .unwrap()
            .clone()
    }

    #[test]
    fn identities_are_bypassable_with_pinned_details() {
        let f = facts_of(
            "ACC_X -> movingAvg(id=1, params={1});
             1 -> minThreshold(id=2, params={15});
             2 -> OUT;",
            1,
        );
        let r = redundancy(&f).unwrap();
        assert!(r.bypassable());
        assert_eq!(r.detail(&f), "`movingAvg` over 1 sample(s) is the identity");

        let f = facts_of(
            "ACC_X -> expMovingAvg(id=1, params={1});
             1 -> minThreshold(id=2, params={15});
             2 -> OUT;",
            1,
        );
        let r = redundancy(&f).unwrap();
        assert!(r.bypassable());
        assert_eq!(
            r.detail(&f),
            "`expMovingAvg` with alpha = 1 is the identity"
        );
    }

    #[test]
    fn one_sample_window_is_redundant_but_not_bypassable() {
        let f = facts_of(
            "MIC -> window(id=1, params={1, 1, 0});
             1 -> rms(id=2);
             2 -> minThreshold(id=3, params={0.5});
             3 -> OUT;",
            1,
        );
        let r = redundancy(&f).unwrap();
        assert_eq!(r, Redundancy::OneSampleWindow);
        assert!(!r.bypassable(), "deleting it would retype the edge");
        assert_eq!(
            r.detail(&f),
            "a 1-sample window re-emits each sample unchanged"
        );
    }

    #[test]
    fn filterless_gate_is_flagged_from_interval_facts() {
        let f = facts_of(
            "ACC_X -> movingAvg(id=1, params={10});
             1 -> minThreshold(id=2, params={-100});
             2 -> OUT;",
            2,
        );
        let r = redundancy(&f).unwrap();
        assert_eq!(r, Redundancy::FilterlessGate);
        assert!(r.bypassable());
        assert!(r.detail(&f).contains("filters nothing"));
    }

    #[test]
    fn passthrough_sustained_is_bypassable() {
        let f = facts_of(
            "MIC -> window(id=1, params={256, 256, 0});
             1 -> rms(id=2);
             2 -> minThreshold(id=3, params={0.5});
             3 -> sustained(id=4, params={1, 256});
             4 -> OUT;",
            4,
        );
        let r = redundancy(&f).unwrap();
        assert_eq!(r, Redundancy::PassthroughSustained { count: 1 });
        assert!(r.bypassable());
    }

    #[test]
    fn effective_nodes_are_not_flagged() {
        for (text, id) in [
            (
                "ACC_X -> movingAvg(id=1, params={10});
                 1 -> minThreshold(id=2, params={15});
                 2 -> OUT;",
                1,
            ),
            (
                "ACC_X -> movingAvg(id=1, params={10});
                 1 -> minThreshold(id=2, params={15});
                 2 -> OUT;",
                2,
            ),
        ] {
            assert!(redundancy(&facts_of(text, id)).is_none());
        }
    }
}
