//! The lint passes: each walks the [`crate::absint::Analysis`] (and, for
//! the schedulability lints, the hub cost model) and emits
//! [`Diagnostic`]s through the registry.

use crate::absint::{analyze, Analysis, NodeFacts};
use crate::registry::{Diagnostic, LintCode, LintReport};
use sidewinder_hub::cost::PipelineCost;
use sidewinder_hub::mcu::Mcu;
use sidewinder_hub::runtime::ChannelRates;
use sidewinder_ir::{AlgorithmKind, Program};

/// Runs every registered lint over `program`.
///
/// Total like the analysis underneath: unvalidated or malformed programs
/// yield (possibly conservative) diagnostics, never a panic.
pub fn lint_program(program: &Program, rates: &ChannelRates) -> LintReport {
    let analysis = analyze(program, rates);
    let mut report = LintReport::default();

    dead_wake(&analysis, &mut report);
    wake_storm(&analysis, &mut report);
    redundant_nodes(&analysis, &mut report);
    numeric_hazards(&analysis, &mut report);
    rate_mismatches(&analysis, &mut report);
    schedulability(program, rates, &analysis, &mut report);

    // Stable presentation order: by source line (unlocated findings
    // last), then by code.
    report
        .diagnostics
        .sort_by_key(|d| (d.line.unwrap_or(u32::MAX), d.code));
    report
}

/// SW001: the wake condition can never fire.
fn dead_wake(analysis: &Analysis, report: &mut LintReport) {
    let Some(out) = analysis.out_fact() else {
        return;
    };
    if out.feasible {
        return;
    }
    // The forward pass visits definitions before uses, so the first
    // `passes_none` gate in order is where feasibility was lost.
    let origin = analysis.facts().find(|f| f.passes_none);
    let (node, line, detail) = match origin {
        Some(f) => (Some(f.flow.id), f.line, dead_gate_detail(f)),
        None => (
            analysis.out_source(),
            analysis.out_line(),
            "an upstream branch provably never emits".to_string(),
        ),
    };
    report.diagnostics.push(Diagnostic::new(
        LintCode::DeadWake,
        node,
        line,
        format!("wake condition can never fire: {detail}"),
    ));
}

/// Explains *why* a gate rejects everything, with the concrete interval.
fn dead_gate_detail(f: &NodeFacts) -> String {
    let input = f.input_value;
    match f.flow.kind {
        AlgorithmKind::MinThreshold { threshold } => {
            format!("no value in {input} can reach the >= {threshold} threshold")
        }
        AlgorithmKind::MaxThreshold { threshold } => {
            format!("no value in {input} falls below the <= {threshold} threshold")
        }
        AlgorithmKind::BandThreshold { lo, hi } => {
            format!("no value in {input} lies inside the [{lo}, {hi}] band")
        }
        AlgorithmKind::OutsideThreshold { lo, hi } => {
            format!("every value in {input} lies inside the [{lo}, {hi}] band")
        }
        AlgorithmKind::Sustained { count, max_gap } => format!(
            "`sustained` needs {count} arrivals at most {max_gap} ticks apart, \
             but inputs arrive every {:.0} ticks",
            f.flow.period_ticks
        ),
        _ => format!("`{}` provably never emits", f.flow.kind.ir_name()),
    }
}

/// SW002: the wake condition fires for every upstream arrival.
fn wake_storm(analysis: &Analysis, report: &mut LintReport) {
    let Some(out) = analysis.out_fact() else {
        return;
    };
    if out.feasible && out.always_emits && out.flow.out_rate_hz > 0.0 {
        report.diagnostics.push(Diagnostic::new(
            LintCode::WakeStorm,
            analysis.out_source(),
            analysis.out_line(),
            format!(
                "wake condition fires for every upstream arrival \
                 (~{:.1} wakes/s); no gate on the path to OUT filters anything",
                out.flow.out_rate_hz
            ),
        ));
    }
}

/// SW003: nodes that provably do nothing. The predicate lives in
/// [`crate::facts`] so the optimizer's dead-node elimination and this
/// lint can never drift apart.
fn redundant_nodes(analysis: &Analysis, report: &mut LintReport) {
    for f in analysis.facts() {
        let Some(r) = crate::facts::redundancy(f) else {
            continue;
        };
        report.diagnostics.push(Diagnostic::new(
            LintCode::RedundantNode,
            Some(f.flow.id),
            f.line,
            format!("redundant node: {}", r.detail(f)),
        ));
    }
}

/// SW004: FFT-family stages fed by values that are not provably finite.
///
/// The premise is the DSP kernel contract's NaN policy (see
/// `sidewinder_dsp::stats::Summary::of` and `sidewinder_dsp::zcr`):
/// reductions pass NaN *through* rather than panic or filter, so a
/// non-finite value entering a transform silently poisons every bin and
/// everything downstream — which is exactly why it deserves a lint
/// rather than a runtime check.
fn numeric_hazards(analysis: &Analysis, report: &mut LintReport) {
    for f in analysis.facts() {
        let fft_family = matches!(
            f.flow.kind,
            AlgorithmKind::Fft
                | AlgorithmKind::Ifft
                | AlgorithmKind::LowPass { .. }
                | AlgorithmKind::HighPass { .. }
        );
        if fft_family && (f.input_may_non_finite || !f.input_value.is_bounded()) {
            report.diagnostics.push(Diagnostic::new(
                LintCode::NumericHazard,
                Some(f.flow.id),
                f.line,
                format!(
                    "`{}` consumes values that are not provably finite \
                     (input interval {}); NaN/Inf would propagate through \
                     every bin of the transform",
                    f.flow.kind.ir_name(),
                    f.input_value
                ),
            ));
        }
    }
}

/// SW005: joins whose input rates are not integer multiples.
fn rate_mismatches(analysis: &Analysis, report: &mut LintReport) {
    for f in analysis.facts() {
        if !matches!(
            f.flow.kind,
            AlgorithmKind::VectorMagnitude | AlgorithmKind::AllOf
        ) {
            continue;
        }
        let input_rates = &f.flow.input_rates;
        let rates: Vec<f64> = input_rates.iter().copied().filter(|r| *r > 0.0).collect();
        if rates.len() < 2 {
            continue;
        }
        let fastest = rates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let slowest = rates.iter().copied().fold(f64::INFINITY, f64::min);
        let ratio = fastest / slowest;
        // Integer rate ratios keep sequence tags phase-aligned (a 4:1
        // window pair joins on every 4th fast emission); anything else
        // drifts and the join fires rarely or never.
        if (ratio - ratio.round()).abs() > 1e-9 {
            let listed: Vec<String> = input_rates.iter().map(|r| format!("{r:.3}")).collect();
            report.diagnostics.push(Diagnostic::new(
                LintCode::RateMismatch,
                Some(f.flow.id),
                f.line,
                format!(
                    "`{}` joins inputs emitting at [{}] Hz; the {ratio:.3}:1 \
                     ratio is not an integer, so sequence tags rarely align",
                    f.flow.kind.ir_name(),
                    listed.join(", ")
                ),
            ));
        }
    }
}

/// SW006/SW007: schedulability against the hub MCU catalog.
fn schedulability(
    program: &Program,
    rates: &ChannelRates,
    analysis: &Analysis,
    report: &mut LintReport,
) {
    let cost = PipelineCost::analyze(program, rates);
    if cost.nodes().is_empty() {
        return;
    }
    let attribution = attribution(&cost);
    match Mcu::first_fit(&cost) {
        (mcu, Ok(())) if mcu == Mcu::CATALOG[0] => {}
        (mcu, Ok(())) => {
            // Fitting only the bigger part is legitimate (the paper's
            // siren condition does exactly this) — advisory.
            let why = Mcu::CATALOG[0]
                .supports_cost(&cost)
                .expect_err("first_fit skipped the first catalog entry")
                .to_string();
            report.diagnostics.push(Diagnostic::new(
                LintCode::NeedsBiggerMcu,
                analysis.out_source(),
                analysis.out_line(),
                format!(
                    "pipeline does not fit {} (needs {}): {why}; {attribution}",
                    Mcu::CATALOG[0].name,
                    mcu.name
                ),
            ));
        }
        (_, Err(err)) => {
            report.diagnostics.push(Diagnostic::new(
                LintCode::FitsNoMcu,
                analysis.out_source(),
                analysis.out_line(),
                format!("pipeline fits no supported MCU: {err}; {attribution}"),
            ));
        }
    }
}

/// Names the heaviest compute and memory contributors for SW006/SW007.
fn attribution(cost: &PipelineCost) -> String {
    let hottest = cost
        .nodes()
        .iter()
        .max_by(|a, b| a.flops_per_second().total_cmp(&b.flops_per_second()));
    let fattest = cost.nodes().iter().max_by_key(|n| n.memory_bytes);
    match (hottest, fattest) {
        (Some(h), Some(m)) => format!(
            "heaviest compute: `{}` (id {}) at {:.0} flop/s; \
             largest buffer: `{}` (id {}) at {} B",
            h.flow.kind.ir_name(),
            h.flow.id.0,
            h.flops_per_second(),
            m.flow.kind.ir_name(),
            m.flow.id.0,
            m.memory_bytes
        ),
        _ => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Severity;
    use sidewinder_ir::{NodeId, Source, Stmt};

    fn lint(text: &str) -> LintReport {
        let p: Program = text.parse().unwrap();
        lint_program(&p, &ChannelRates::default())
    }

    #[test]
    fn clean_pipeline_yields_no_diagnostics() {
        let r = lint(
            "ACC_X -> movingAvg(id=1, params={10});
             1 -> minThreshold(id=2, params={15});
             2 -> OUT;",
        );
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn dead_threshold_reports_sw001_at_the_gate() {
        let r = lint(
            "ACC_Y -> movingAvg(id=1, params={10});
             1 -> minThreshold(id=2, params={25});
             2 -> OUT;",
        );
        assert!(r.has(LintCode::DeadWake));
        let d = r.at(Severity::Error).next().unwrap();
        assert_eq!(d.node, Some(NodeId(2)));
        assert_eq!(d.line, Some(2));
        assert!(d.message.contains(">= 25"), "{}", d.message);
    }

    #[test]
    fn dead_sustained_cites_the_cadence() {
        let r = lint(
            "MIC -> window(id=1, params={1024, 1024, 0});
             1 -> rms(id=2);
             2 -> minThreshold(id=3, params={0.5});
             3 -> sustained(id=4, params={3, 64});
             4 -> OUT;",
        );
        assert!(r.has(LintCode::DeadWake));
        let d = r.diagnostics.iter().find(|d| d.code == LintCode::DeadWake);
        let d = d.unwrap();
        assert_eq!(d.node, Some(NodeId(4)));
        assert!(d.message.contains("1024 ticks"), "{}", d.message);
    }

    #[test]
    fn always_firing_condition_reports_storm_and_redundancy() {
        let r = lint(
            "ACC_X -> movingAvg(id=1, params={10});
             1 -> minThreshold(id=2, params={-100});
             2 -> OUT;",
        );
        assert!(r.has(LintCode::WakeStorm));
        assert!(r.has(LintCode::RedundantNode));
        let storm = r
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::WakeStorm)
            .unwrap();
        assert_eq!(storm.line, Some(3), "storm anchors at OUT");
        assert!(storm.message.contains("50.0 wakes/s"), "{}", storm.message);
    }

    #[test]
    fn identity_nodes_report_sw003() {
        let r = lint(
            "ACC_X -> movingAvg(id=1, params={1});
             1 -> minThreshold(id=2, params={15});
             2 -> OUT;",
        );
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::RedundantNode)
            .unwrap();
        assert_eq!(d.node, Some(NodeId(1)));
        assert!(d.message.contains("identity"), "{}", d.message);

        let r = lint(
            "MIC -> window(id=1, params={256, 256, 0});
             1 -> rms(id=2);
             2 -> minThreshold(id=3, params={0.5});
             3 -> sustained(id=4, params={1, 256});
             4 -> OUT;",
        );
        assert!(r.has(LintCode::RedundantNode));
    }

    #[test]
    fn fft_on_unbounded_intermediate_reports_sw004() {
        // Unvalidated program: the FFT's source is never defined, so its
        // input degrades to the unbounded, possibly-non-finite top.
        let p = Program::from_stmts(vec![
            Stmt::Node {
                sources: vec![Source::Node(NodeId(9))],
                id: NodeId(1),
                kind: AlgorithmKind::Fft,
                line: 0,
            },
            Stmt::Out {
                source: NodeId(1),
                line: 0,
            },
        ]);
        let r = lint_program(&p, &ChannelRates::default());
        assert!(r.has(LintCode::NumericHazard));
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::NumericHazard)
            .unwrap();
        assert!(d.message.contains("not provably finite"), "{}", d.message);
    }

    #[test]
    fn incommensurate_join_rates_report_sw005() {
        // 512- and 768-sample windows: 15.625 Hz vs ~10.417 Hz, a 1.5:1
        // ratio — tags align only every third slow window.
        let r = lint(
            "MIC -> window(id=1, params={512, 512, 0});
             1 -> rms(id=2);
             2 -> minThreshold(id=3, params={0.5});
             MIC -> window(id=4, params={768, 768, 0});
             4 -> rms(id=5);
             5 -> minThreshold(id=6, params={0.5});
             3,6 -> allOf(id=7);
             7 -> OUT;",
        );
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::RateMismatch)
            .unwrap();
        assert_eq!(d.node, Some(NodeId(7)));
        assert!(d.message.contains("1.500:1"), "{}", d.message);
    }

    #[test]
    fn integer_rate_ratios_are_allowed() {
        // 512 vs 2048 samples is an exact 4:1 ratio (the music fixture).
        let r = lint(
            "MIC -> window(id=1, params={512, 512, 0});
             1 -> variance(id=2);
             2 -> minThreshold(id=3, params={0.002});
             MIC -> window(id=4, params={2048, 2048, 0});
             4 -> zcrVariance(id=5, params={8});
             5 -> maxThreshold(id=6, params={0.005});
             3,6 -> allOf(id=7);
             7 -> OUT;",
        );
        assert!(!r.has(LintCode::RateMismatch), "{:?}", r.diagnostics);
    }

    #[test]
    fn siren_pipeline_needs_the_bigger_mcu() {
        // The paper's Table 2 footnote: the FFT-based siren condition
        // "includes the more powerful TI LM4F120".
        let r = lint(
            "MIC -> window(id=1, params={1024, 1024, 0});
             1 -> highPass(id=2, params={750});
             2 -> fft(id=3);
             3 -> spectralMagnitude(id=4);
             4 -> max(id=5);
             5 -> minThreshold(id=6, params={25});
             6 -> sustained(id=7, params={6, 1024});
             7 -> OUT;",
        );
        assert!(!r.fails(true), "SW006 is advisory: {:?}", r.diagnostics);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::NeedsBiggerMcu)
            .unwrap();
        assert_eq!(d.severity, Severity::Info);
        assert_eq!(d.line, Some(8), "anchored at OUT");
        assert!(
            d.message
                .contains("does not fit TI MSP430 (needs TI LM4F120)"),
            "{}",
            d.message
        );
        assert!(d.message.contains("heaviest compute"), "{}", d.message);
    }

    #[test]
    fn overdriven_pipeline_fits_no_mcu() {
        // A 2048-point FFT filter sliding every 2 samples demands
        // hundreds of megaflops per second — beyond every catalog part.
        let r = lint(
            "MIC -> window(id=1, params={2048, 2, 0});
             1 -> highPass(id=2, params={750});
             2 -> fft(id=3);
             3 -> spectralMagnitude(id=4);
             4 -> max(id=5);
             5 -> minThreshold(id=6, params={25});
             6 -> OUT;",
        );
        assert!(r.fails(false));
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::FitsNoMcu)
            .unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("fits no supported MCU"), "{}", d.message);
        assert!(d.message.contains("largest buffer"), "{}", d.message);
    }

    #[test]
    fn diagnostics_sort_by_line_then_code() {
        let r = lint(
            "ACC_X -> movingAvg(id=1, params={1});
             1 -> minThreshold(id=2, params={-100});
             2 -> OUT;",
        );
        let lines: Vec<Option<u32>> = r.diagnostics.iter().map(|d| d.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_by_key(|l| l.unwrap_or(u32::MAX));
        assert_eq!(lines, sorted);
    }
}
