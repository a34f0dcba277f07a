//! `swbench` — the end-to-end and per-layer benchmark of the Sidewinder
//! reproduction.
//!
//! ```text
//! swbench --workload fleet_accel|fleet_suite|audio_eval [--seed N]
//!         [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! A run measures one workload in one process, so its peak RSS is that
//! workload's. It prints every metric by name with its unit, then, as
//! its last line, one JSON object with `correct`, `attempted`, `failed`
//! and the metrics' values. It exits non-zero when a check fails.
//! With `--trace 1` it reports per-layer metrics from a traced pass and
//! writes the spans to `target/swbench/<workload>.trace.json`.
//! See README.md for the workloads and the metric dictionary.

mod audio;
mod fleet;
mod json;
mod metrics;
mod pace;
mod side;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::Outcome;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fleetd`'s defaults: three accelerometer conditions, faulty fleet.
    FleetAccel,
    /// Eight conditions plus a twin fused into one dense program.
    FleetSuite,
    /// Table 2's developer loop over three audio environments.
    AudioEval,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FleetAccel,
        Workload::FleetSuite,
        Workload::AudioEval,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetAccel => "fleet_accel",
            Workload::FleetSuite => "fleet_suite",
            Workload::AudioEval => "audio_eval",
        }
    }

    /// The seed whose output digest is pinned.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::FleetAccel | Workload::FleetSuite => 0x51DE_F1EE,
            Workload::AudioEval => 400,
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed (or traced) rounds run, at least.
    pub measure: Duration,
    pub trace: bool,
    /// Tiny inputs, for tests: 16 devices, 10 s of audio.
    pub smoke: bool,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage: swbench --workload fleet_accel|fleet_suite|audio_eval \
[--seed N] [--seconds S] [--trace 0|1] [--smoke]";

fn parse_u64(flag: &str, value: Option<String>) -> Result<u64, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    let parsed = match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    };
    parsed.map_err(|_| format!("{flag}: not a number: {value}"))
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = it.next().ok_or("--workload needs a value")?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?,
                );
            }
            "--seed" => seed = Some(parse_u64(&arg, it.next())?),
            "--seconds" => seconds = parse_u64(&arg, it.next())?,
            "--trace" => trace = parse_u64(&arg, it.next())? != 0,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(USAGE)?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        measure: Duration::from_secs(seconds),
        trace,
        smoke,
        trace_out: trace
            .then(|| PathBuf::from(format!("target/swbench/{}.trace.json", workload.name()))),
    })
}

/// Runs rounds until `measure` has elapsed and at least `min_rounds`
/// are done; returns how many ran.
pub fn rounds_for(measure: Duration, min_rounds: usize, mut round: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut done = 0;
    while done < min_rounds || start.elapsed() < measure {
        round(done);
        done += 1;
    }
    done
}

/// Writes the span log where the run was asked to.
pub fn save_trace(args: &Args, tracer: &spans::Tracer, out: &mut Outcome, notes: &mut String) {
    let Some(path) = &args.trace_out else { return };
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, tracer.chrome_json(args.workload.name())));
    match written {
        Ok(()) => notes.push_str(&format!("  spans written to {}\n", path.display())),
        Err(e) => out.problem(format!("writing {}: {e}", path.display())),
    }
}

/// Runs one workload; returns its outcome and the human-readable report.
pub fn run(args: &Args) -> (Outcome, String) {
    let (mut outcome, notes) = match args.workload {
        Workload::FleetAccel | Workload::FleetSuite => fleet::run(args),
        Workload::AudioEval => audio::run(args),
    };
    let defs = metrics::defs(args.trace);
    outcome.check_complete(args.workload.name(), defs);
    let mut report = format!(
        "swbench {} seed {:#x} ({}{})\n{notes}",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        if args.smoke { ", smoke" } else { "" },
    );
    report.push_str(&outcome.table(defs));
    for p in &outcome.problems {
        report.push_str(&format!("CHECK FAILED: {p}\n"));
    }
    (outcome, report)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("swbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (outcome, report) = run(&args);
    print!("{report}");
    println!("{}", outcome.json_line(metrics::defs(args.trace)));
    if outcome.problems.is_empty() && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn command_line_parses_workload_seed_seconds_and_trace() {
        let a = args(&[
            "--workload",
            "fleet_suite",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::FleetSuite);
        assert_eq!(a.seed, 7);
        assert_eq!(a.measure, Duration::from_secs(3));
        assert!(a.trace);
        assert_eq!(
            a.trace_out,
            Some(PathBuf::from("target/swbench/fleet_suite.trace.json"))
        );
        let d = args(&["--workload", "audio_eval", "--trace", "0"]).unwrap();
        assert_eq!(d.seed, 400);
        assert!(!d.trace && d.trace_out.is_none());
        assert_eq!(
            args(&["--workload", "fleet_accel", "--seed", "0x10"])
                .unwrap()
                .seed,
            16
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "audio_eval", "--bogus"]).is_err());
    }

    #[test]
    fn rounds_run_at_least_the_minimum() {
        let mut seen = Vec::new();
        assert_eq!(rounds_for(Duration::ZERO, 3, |r| seen.push(r)), 3);
        assert_eq!(seen, vec![0, 1, 2]);
    }

    /// Every metric `BENCHMARK.json` names, in its two sections.
    fn benchmark_json_names() -> (Vec<String>, Vec<String>) {
        let text = include_str!("../../BENCHMARK.json");
        let e2e = text.find("\"end_to_end\"").expect("end_to_end section");
        let layer = text.find("\"per_layer\"").expect("per_layer section");
        assert!(e2e < layer, "end_to_end precedes per_layer");
        let names = |section: &str| -> Vec<String> {
            section
                .split("\"name\":")
                .skip(1)
                .filter_map(|rest| json::field(&format!("\"n\":{rest}"), "n").map(String::from))
                .collect()
        };
        (names(&text[e2e..layer]), names(&text[layer..]))
    }

    #[test]
    fn benchmark_json_lists_exactly_the_defined_metrics() {
        let (e2e, layer) = benchmark_json_names();
        let own =
            |defs: &[metrics::Def]| defs.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
        assert_eq!(e2e, own(&metrics::END_TO_END));
        assert_eq!(layer, own(&metrics::PER_LAYER));
        let text = include_str!("../../BENCHMARK.json");
        for d in metrics::END_TO_END.iter().chain(&metrics::PER_LAYER) {
            let at = text.find(&format!("\"name\": \"{}\"", d.name)).unwrap();
            let entry = &text[at..at + text[at..].find('}').unwrap()];
            assert_eq!(
                json::field(entry, "unit"),
                Some(d.unit),
                "unit of {}",
                d.name
            );
            assert_eq!(
                json::field(entry, "better"),
                Some(d.better),
                "better of {}",
                d.name
            );
            let bound = json::field(entry, "bound").and_then(|b| b.parse::<f64>().ok());
            assert_eq!(bound, d.bound, "bound of {}", d.name);
        }
    }

    /// Smoke runs of every workload, untraced and traced, on a thread
    /// with room for the MCU cores' arenas.
    #[test]
    fn every_workload_emits_every_listed_metric_in_smoke_runs() {
        let (e2e, layer) = benchmark_json_names();
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(move || {
                for w in Workload::ALL {
                    for trace in [false, true] {
                        let a = Args {
                            workload: w,
                            seed: w.default_seed(),
                            measure: Duration::ZERO,
                            trace,
                            smoke: true,
                            trace_out: None,
                        };
                        let (outcome, report) = run(&a);
                        assert!(outcome.problems.is_empty(), "{report}");
                        assert_eq!(outcome.failed, 0, "{report}");
                        let line = outcome.json_line(metrics::defs(trace));
                        for name in if trace { &layer } else { &e2e } {
                            assert!(
                                line.contains(&format!("\"{name}\": {{\"value\": ")),
                                "{} (trace {trace}) does not emit {name}: {line}",
                                w.name()
                            );
                        }
                        assert!(!line.contains("null"), "{line}");
                    }
                }
            })
            .expect("spawn smoke thread")
            .join()
            .expect("smoke runs pass");
    }
}
