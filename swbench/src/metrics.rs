//! The metric dictionary and the run's output.
//!
//! Every metric the benchmark reports is defined here, with its unit,
//! which direction is better and, for end-to-end metrics, the share of
//! the parent's median by which it may worsen. `BENCHMARK.json` lists
//! the same metrics; a test holds the two in step.

use std::collections::BTreeMap;

use crate::json;
use crate::side::{Interpreters, Kernels};
use crate::stats::{median, percentile, quartiles};

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// Which direction is an improvement: "higher" or "lower".
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
    /// How a run turns the metric's per-round samples into its value.
    pub summary: Summary,
}

/// How a run turns a metric's per-round samples into its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Summary {
    Median,
    /// The 90th percentile. Other tenants of a shared host only ever
    /// slow a round down, so the fast end of a run's rounds says how
    /// fast the code is; the median says how busy the host was.
    P90,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    summary: Summary,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        summary,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        summary: Summary::Median,
    }
}

/// What a user of the system sees; reported by untraced runs.
pub const END_TO_END: [Def; 3] = [
    e2e("trace_s_per_s", "x", "higher", 0.10, Summary::P90),
    e2e("setup_s", "s", "lower", 0.25, Summary::Median),
    e2e("peak_rss_mb", "MB", "lower", 0.10, Summary::Median),
];

/// Single layers; reported by traced runs.
pub const PER_LAYER: [Def; 29] = [
    layer("tracegen.ns_per_sample", "ns", "lower"),
    layer("hub.replay_ns_per_sample", "ns", "lower"),
    layer("hub.batch_ns_per_sample", "ns", "lower"),
    layer("hub32.replay_ns_per_sample", "ns", "lower"),
    layer("mcu.replay_ns_per_sample", "ns", "lower"),
    layer("mcu32.replay_ns_per_sample", "ns", "lower"),
    layer("dsp.real_fft_1024_ns", "ns", "lower"),
    layer("dsp.fft_highpass_1024_ns", "ns", "lower"),
    layer("dsp.zcr_variance_8x2048_ns", "ns", "lower"),
    layer("dsp.summary_stats_512_ns", "ns", "lower"),
    layer("dsp.spectral_magnitude_1024_ns", "ns", "lower"),
    layer("sim.ns_per_sample", "ns", "lower"),
    layer("sim.self_ns_per_sample", "ns", "lower"),
    layer("sim.call_us.p50", "us", "lower"),
    layer("sim.call_us.p90", "us", "lower"),
    layer("opt.optimize_suite_us", "us", "lower"),
    layer("cert.certify_us", "us", "lower"),
    layer("hub.compile_image_us", "us", "lower"),
    layer("share.hub", "ratio", "lower"),
    layer("share.sim_self", "ratio", "lower"),
    layer("share.rest", "ratio", "lower"),
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("batch.speedup_2w", "x", "higher"),
    layer("count.samples", "count", "higher"),
    layer("count.sim_calls", "count", "higher"),
    layer("count.wake_ups", "count", "lower"),
    layer("count.detections", "count", "higher"),
    layer("count.served_nodes", "count", "lower"),
    layer("model.mean_power_mw", "mW", "lower"),
];

/// The metrics a run reports: end-to-end untraced, per-layer traced.
pub fn defs(traced: bool) -> &'static [Def] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Per-round samples of each metric.
#[derive(Debug, Default)]
pub struct Values {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Values {
    /// Records one round's sample of `name`.
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// The samples of `name`, if any.
    pub fn get(&self, name: &str) -> Option<&[f64]> {
        self.samples.get(name).map(Vec::as_slice)
    }

    /// The value of `d`: its summary of the samples, if there are any.
    pub fn value(&self, d: &Def) -> Option<f64> {
        let s = self.get(d.name).filter(|s| !s.is_empty())?;
        Some(match d.summary {
            Summary::Median => median(s),
            Summary::P90 => percentile(s, 0.9),
        })
    }
}

/// Everything a run produces besides its printed notes.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: Values,
    /// Operations attempted: devices simulated, submissions and queries
    /// sent, audio cells run.
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// Failed checks, each naming its workload and round.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a failed check.
    pub fn problem(&mut self, msg: String) {
        self.problems.push(msg);
    }

    /// Checks that every metric in `defs` has a finite value.
    pub fn check_complete(&mut self, workload: &str, defs: &[Def]) {
        for d in defs {
            let ok = self.values.value(d).is_some_and(f64::is_finite);
            if !ok {
                self.problem(format!("{workload}: metric {} has no value", d.name));
            }
        }
    }

    /// One line per metric: its value, then the median and quartiles of
    /// its per-round samples, the IQR as a share of the median, and
    /// `unstable` when that share exceeds half the metric's bound.
    pub fn table(&self, defs: &[Def]) -> String {
        let mut out = String::new();
        for d in defs {
            let (Some(s), Some(v)) = (self.values.get(d.name), self.values.value(d)) else {
                out.push_str(&format!("  {:<32} (missing)\n", d.name));
                continue;
            };
            let m = median(s);
            let (q1, q3) = quartiles(s);
            let iqr = if m != 0.0 { (q3 - q1) / m.abs() } else { 0.0 };
            let flag = match d.bound {
                Some(b) if iqr > b / 2.0 => "  unstable",
                _ => "",
            };
            let summary = match d.summary {
                Summary::Median => "",
                Summary::P90 => " (p90)",
            };
            out.push_str(&format!(
                "  {:<32} {:>14} {:<6} median {:<12} q1 {:<12} q3 {:<12} iqr {:>5.1}%  n={}{summary}{flag}\n",
                d.name,
                digits(v),
                d.unit,
                digits(m),
                digits(q1),
                digits(q3),
                iqr * 100.0,
                s.len(),
            ));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and each
    /// metric's value with its unit.
    pub fn json_line(&self, defs: &[Def]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .filter_map(|d| {
                Some(format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(d.name),
                    json::number(self.values.value(d)?),
                    json::string(d.unit)
                ))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty() && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `v` with four decimals, or five significant digits when it is small.
fn digits(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.1 {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// What one traced round measured, in the terms both workload kinds
/// share: a loop of `simulate` calls, plus side calls on its inputs.
#[derive(Debug, Default)]
pub struct LayerRound {
    /// Wall time of the round's loop, side calls excluded.
    pub loop_ns: f64,
    /// Time inside `simulate` calls.
    pub sim_ns: f64,
    /// Estimated hub-interpreter time inside those calls: samples fed
    /// times the side calls' engine-order replay cost per sample.
    pub hub_ns: f64,
    /// Samples the simulated hubs were fed.
    pub pushed: u64,
    /// Duration of each `simulate` call.
    pub call_ns: Vec<f64>,
    pub wake_ups: u64,
    pub detections: u64,
    /// Sum of the calls' average power.
    pub power_mw: f64,
    pub interpreters: Interpreters,
    pub kernels: Option<Kernels>,
}

impl LayerRound {
    /// Pushes this round's per-layer values; `reference_s` is the wall
    /// time of the same work untraced.
    pub fn record(&self, out: &mut Outcome, reference_s: f64) {
        let pushed = self.pushed.max(1) as f64;
        let calls = self.call_ns.len();
        let i = &self.interpreters;
        let v = &mut out.values;
        v.push("hub.replay_ns_per_sample", i.hub.ns_per_sample());
        v.push("hub.batch_ns_per_sample", i.hub_batch.ns_per_sample());
        v.push("hub32.replay_ns_per_sample", i.hub32.ns_per_sample());
        v.push("mcu.replay_ns_per_sample", i.mcu.ns_per_sample());
        v.push("mcu32.replay_ns_per_sample", i.mcu32.ns_per_sample());
        if let Some(k) = &self.kernels {
            v.push("dsp.real_fft_1024_ns", k.real_fft_1024_ns);
            v.push("dsp.fft_highpass_1024_ns", k.fft_highpass_1024_ns);
            v.push("dsp.zcr_variance_8x2048_ns", k.zcr_variance_8x2048_ns);
            v.push("dsp.summary_stats_512_ns", k.summary_stats_512_ns);
            v.push(
                "dsp.spectral_magnitude_1024_ns",
                k.spectral_magnitude_1024_ns,
            );
        }
        v.push("sim.ns_per_sample", self.sim_ns / pushed);
        v.push(
            "sim.self_ns_per_sample",
            (self.sim_ns - self.hub_ns) / pushed,
        );
        v.push("share.hub", self.hub_ns / self.loop_ns);
        v.push("share.sim_self", (self.sim_ns - self.hub_ns) / self.loop_ns);
        v.push("share.rest", (self.loop_ns - self.sim_ns) / self.loop_ns);
        v.push(
            "trace.overhead_frac",
            self.loop_ns / 1e9 / reference_s - 1.0,
        );
        v.push("count.samples", self.pushed as f64);
        v.push("count.sim_calls", calls as f64);
        v.push("count.wake_ups", self.wake_ups as f64);
        v.push("count.detections", self.detections as f64);
        v.push("model.mean_power_mw", self.power_mw / calls.max(1) as f64);
    }
}

/// Pushes the `simulate` call latency percentiles pooled over `rounds`.
pub fn record_calls(out: &mut Outcome, rounds: &[LayerRound]) {
    let us: Vec<f64> = rounds
        .iter()
        .flat_map(|r| &r.call_ns)
        .map(|ns| ns / 1e3)
        .collect();
    out.values.push("sim.call_us.p50", percentile(&us, 0.5));
    out.values.push("sim.call_us.p90", percentile(&us, 0.9));
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_bounds_only_on_end_to_end() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn table_flags_unstable_metrics() {
        let mut o = Outcome::default();
        for v in [100.0, 80.0, 120.0, 100.0] {
            o.values.push("trace_s_per_s", v);
        }
        o.values.push("setup_s", 0.5);
        let table = o.table(&END_TO_END);
        assert!(table.lines().next().unwrap().ends_with("unstable"));
        assert!(!table.lines().nth(1).unwrap().contains("unstable"));
        assert!(table.contains("peak_rss_mb") && table.contains("(missing)"));
        o.check_complete("w", &END_TO_END);
        assert_eq!(o.problems, vec!["w: metric peak_rss_mb has no value"]);
    }

    #[test]
    fn values_summarize_samples_by_median_or_p90() {
        let mut v = Values::default();
        for x in 1..=11 {
            v.push("trace_s_per_s", f64::from(x));
            v.push("setup_s", f64::from(x));
        }
        assert_eq!(v.value(&END_TO_END[0]), Some(10.0));
        assert_eq!(v.value(&END_TO_END[1]), Some(6.0));
        assert_eq!(v.value(&END_TO_END[2]), None);
    }

    #[test]
    fn json_line_reports_values_and_correctness() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.values.push("setup_s", 0.25);
        o.values.push("setup_s", 0.75);
        o.values.push("setup_s", 0.5);
        let line = o.json_line(&END_TO_END);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        o.failed = 1;
        assert!(o.json_line(&END_TO_END).starts_with("{\"correct\": false"));
    }
}
