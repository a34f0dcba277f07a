//! Totality: the dataflow-fact walk, the analyzer and every lint pass
//! must accept *anything* that parses — validated or not — without
//! panicking, and the fact table and the report must hold their
//! structural invariants.

use proptest::prelude::*;
use sidewinder_hub::runtime::ChannelRates;
use sidewinder_ir::{flow, Program};
use sidewinder_lint::testing::arb_program;
use sidewinder_lint::{analyze, lint_program, LintReport};

/// Structural invariants every report must satisfy, whatever fired.
fn check_report_invariants(report: &LintReport) {
    let mut last = (0u32, None);
    for d in &report.diagnostics {
        assert_eq!(d.severity, d.code.severity(), "severity drifted from code");
        let key = (d.line.unwrap_or(u32::MAX), Some(d.code));
        assert!(last <= key, "diagnostics not sorted by line then code");
        last = key;
    }
}

/// The fact walk returns exactly one row per node statement, in
/// statement order, with one input rate per source.
fn check_flow_rows(p: &Program) {
    let rows = flow::analyze(p, &ChannelRates::default()).into_rows();
    assert_eq!(rows.len(), p.nodes().count(), "one row per node statement");
    for ((sources, id, _), row) in p.nodes().zip(&rows) {
        assert_eq!(row.id, id);
        assert_eq!(row.input_rates.len(), sources.len());
    }
}

proptest! {
    /// Arbitrary bytes: whatever survives the parser must survive the
    /// linter too — including programs that fail validation.
    #[test]
    fn garbage_bytes_never_panic_the_linter(
        bytes in prop::collection::vec(0u8..=255u8, 0..200)
    ) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(p) = text.parse::<Program>() {
            check_flow_rows(&p);
            let report = lint_program(&p, &ChannelRates::default());
            check_report_invariants(&report);
        }
    }

    /// Every valid generated program lints without panicking, and its
    /// JSON/human renderings are total too.
    #[test]
    fn generated_programs_never_panic_the_linter(p in arb_program()) {
        check_flow_rows(&p);
        let report = lint_program(&p, &ChannelRates::default());
        check_report_invariants(&report);
        let _ = report.render_human("generated");
        let _ = report.to_json("generated");
    }

    /// Truncating a valid program anywhere yields a parse error or a
    /// prefix the linter handles — dangling node references included.
    #[test]
    fn truncated_programs_never_panic_the_linter(
        (text, cut) in arb_program().prop_flat_map(|p| {
            let text = p.to_string();
            let len = text.len();
            (Just(text), 0usize..len)
        })
    ) {
        if let Some(truncated) = text.get(..cut) {
            if let Ok(p) = truncated.parse::<Program>() {
                check_flow_rows(&p);
                let report = lint_program(&p, &ChannelRates::default());
                check_report_invariants(&report);
            }
        }
    }

    /// The abstract interpreter's facts are internally consistent on
    /// every valid program: feasibility and value emptiness agree, and
    /// rates/periods are non-negative.
    #[test]
    fn analysis_facts_are_consistent(p in arb_program()) {
        let analysis = analyze(&p, &ChannelRates::default());
        for f in analysis.facts() {
            prop_assert!(f.flow.out_rate_hz >= 0.0);
            prop_assert!(f.flow.period_ticks >= 0.0);
            prop_assert!(f.flow.out_len >= 1);
            if !f.feasible {
                prop_assert!(f.value.is_empty(), "infeasible node {} kept a value", f.flow.id.0);
            }
            prop_assert!(!(f.passes_all && f.passes_none && !f.input_value.is_empty()));
        }
    }
}
