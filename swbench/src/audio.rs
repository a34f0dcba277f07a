//! The audio workload: Table 2's developer loop. An app developer
//! replays three synthesized audio environments through `simulate` for
//! each audio application, under Sidewinder at both hub precisions and
//! under the predefined significant-sound detector.
//!
//! One channel means the simulator pushes each trace to the hub in one
//! batch, so the window/FFT/ZCR kernels and the vector interpreter do
//! the work; the fleet, the wire, faults and channel interleaving do
//! none of it.

use std::time::Instant;

use sidewinder_apps::{predefined, MusicJournalApp, PhraseDetectionApp, SirenDetectorApp};
use sidewinder_ir::Program;
use sidewinder_sensors::{Micros, SensorChannel, SensorTrace};
use sidewinder_sim::{
    simulate, simulate_f32, try_par_map, Application, PhonePowerProfile, SimConfig, SimResult,
    Strategy,
};
use sidewinder_tracegen::{audio_trace, AudioEnvironment, AudioTraceConfig};

use crate::metrics::{peak_rss_mb, record_calls, LayerRound, Outcome};
use crate::pace::{Pace, Timed};
use crate::side::{self, Cores, Input, Interpreters};
use crate::spans::Tracer;
use crate::stats::median;
use crate::{rounds_for, save_trace, Args, Workload};

/// Digest of every cell's output on the default seed at full size.
const PINNED: u64 = 0x1b53_9f12_d1d7_98c1;

/// Length of each environment's trace (10 s in smoke runs).
const TRACE_SECS: u64 = 300;
/// Fewest timed or traced rounds a run makes.
const MIN_ROUNDS: usize = 3;
/// Seconds of each trace the side calls replay.
const SIDE_SECS: f64 = 8.0;

/// How a cell runs its application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// The app's own condition on the hub, f64 vectors (`simulate`).
    Sw,
    /// The same at f32 vectors (`simulate_f32`).
    Sw32,
    /// The predefined significant-sound detector (`simulate`).
    Pa,
}

const VARIANTS: [Variant; 3] = [Variant::Sw, Variant::Sw32, Variant::Pa];

/// One (trace, app, variant) cell of the grid.
#[derive(Debug, Clone, Copy)]
struct Cell {
    trace: usize,
    app: usize,
    variant: Variant,
}

/// The grid's fixed parts: apps, their strategies, and the cells.
struct Grid {
    apps: Vec<Box<dyn Application + Send + Sync>>,
    /// Each app's Sidewinder strategy, then the predefined one.
    strategies: Vec<Strategy>,
    cells: Vec<Cell>,
}

impl Grid {
    fn new(traces: usize) -> Grid {
        let apps: Vec<Box<dyn Application + Send + Sync>> = vec![
            Box::new(SirenDetectorApp::new()),
            Box::new(MusicJournalApp::new()),
            Box::new(PhraseDetectionApp::new()),
        ];
        let mut strategies: Vec<Strategy> = apps
            .iter()
            .map(|app| Strategy::HubWake {
                program: app.wake_condition(),
                hub_mw: app.wake_condition_hub_mw(),
                label: "Sw",
            })
            .collect();
        strategies.push(Strategy::HubWake {
            program: predefined::significant_sound(),
            hub_mw: predefined::hub_mw(),
            label: "PA",
        });
        let mut cells = Vec::new();
        for trace in 0..traces {
            for app in 0..apps.len() {
                for variant in VARIANTS {
                    cells.push(Cell {
                        trace,
                        app,
                        variant,
                    });
                }
            }
        }
        Grid {
            apps,
            strategies,
            cells,
        }
    }

    /// The distinct programs the grid serves: each app's, then PA's.
    fn programs(&self) -> Vec<Program> {
        self.strategies
            .iter()
            .filter_map(|s| match s {
                Strategy::HubWake { program, .. } => Some(program.clone()),
                _ => None,
            })
            .collect()
    }

    /// Index into [`Grid::strategies`] of the strategy `cell` runs.
    fn strategy_of(&self, cell: &Cell) -> usize {
        match cell.variant {
            Variant::Sw | Variant::Sw32 => cell.app,
            Variant::Pa => self.apps.len(),
        }
    }

    fn simulate(&self, traces: &[SensorTrace], cell: &Cell) -> Result<SimResult, String> {
        let trace = &traces[cell.trace];
        let app = self.apps[cell.app].as_ref();
        let strategy = &self.strategies[self.strategy_of(cell)];
        let (profile, config) = (PhonePowerProfile::NEXUS4, SimConfig::default());
        let result = match cell.variant {
            Variant::Sw32 => simulate_f32(trace, app, strategy, &profile, &config),
            _ => simulate(trace, app, strategy, &profile, &config),
        };
        result.map_err(|e| {
            format!(
                "{} / {} / {:?}: {e}",
                trace.name(),
                app.name(),
                cell.variant
            )
        })
    }

    /// Runs every cell over `workers` threads, in cell order.
    fn run(&self, traces: &[SensorTrace], workers: usize) -> Vec<Result<SimResult, String>> {
        try_par_map(workers, &self.cells, |cell| self.simulate(traces, cell))
            .into_iter()
            .map(|r| r.unwrap_or_else(|panic| Err(format!("cell panicked: {}", panic.message))))
            .collect()
    }

    /// Runs every cell serially, each between two pace samples; returns
    /// the results in cell order and the cells' summed times.
    fn run_paced(
        &self,
        traces: &[SensorTrace],
        pace: &Pace,
    ) -> (Vec<Result<SimResult, String>>, Timed) {
        let mut total = Timed::default();
        let results = try_par_map(1, &self.cells, |cell| {
            pace.time(|| self.simulate(traces, cell))
        })
        .into_iter()
        .map(|r| match r {
            Ok((result, t)) => {
                total.add(t);
                result
            }
            Err(panic) => Err(format!("cell panicked: {}", panic.message)),
        })
        .collect();
        (results, total)
    }
}

/// Streaming FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds one cell's output: wake-ups, detections, average power.
    fn cell(&mut self, r: &SimResult) {
        self.word(r.wake_ups as u64);
        self.word(r.detections.len() as u64);
        for d in &r.detections {
            self.word(d.as_micros());
        }
        self.word(r.average_power_mw.to_bits());
    }
}

/// The three environments, seeded `seed`, `seed + 1`, `seed + 2`.
fn synthesize(seed: u64, duration: Micros) -> Vec<SensorTrace> {
    AudioEnvironment::ALL
        .into_iter()
        .enumerate()
        .map(|(i, environment)| synthesize_one(seed, duration, i, environment))
        .collect()
}

fn synthesize_one(
    seed: u64,
    duration: Micros,
    i: usize,
    environment: AudioEnvironment,
) -> SensorTrace {
    audio_trace(&AudioTraceConfig {
        duration,
        environment,
        seed: seed.wrapping_add(i as u64),
        ..AudioTraceConfig::default()
    })
}

fn duration(args: &Args) -> Micros {
    Micros::from_secs(if args.smoke { 10 } else { TRACE_SECS })
}

/// Checks one round's cells and folds them into a digest; `None` when a
/// cell failed (counted and reported).
fn check_round(
    out: &mut Outcome,
    round: &str,
    traces: &[SensorTrace],
    grid: &Grid,
    results: &[Result<SimResult, String>],
) -> Option<u64> {
    let mut fnv = Fnv::new();
    let mut ok = true;
    out.attempted += results.len() as u64;
    for (cell, result) in grid.cells.iter().zip(results) {
        match result {
            Ok(r) if r.breakdown.total() == traces[cell.trace].duration() => fnv.cell(r),
            Ok(r) => {
                ok = false;
                out.problem(format!(
                    "audio_eval {round}: {} / {}: power breakdown covers {} of {} us",
                    r.trace,
                    r.app,
                    r.breakdown.total().as_micros(),
                    traces[cell.trace].duration().as_micros()
                ));
            }
            Err(e) => {
                ok = false;
                out.failed += 1;
                out.problem(format!("audio_eval {round}: {e}"));
            }
        }
    }
    ok.then_some(fnv.0)
}

/// Records a digest mismatch against `want` (and the pin, when it applies).
fn check_digest(out: &mut Outcome, args: &Args, round: &str, digest: u64, want: Option<u64>) {
    if let Some(want) = want.filter(|&w| w != digest) {
        out.problem(format!(
            "audio_eval {round}: cell digest {digest:#018x} differs from {want:#018x}"
        ));
    }
    // The first round carries the pin; later ones must match it.
    let pinned = want.is_none() && !args.smoke && args.seed == Workload::AudioEval.default_seed();
    if pinned && digest != PINNED {
        out.problem(format!(
            "audio_eval {round}: cell digest {digest:#018x} differs from the pinned {PINNED:#018x}"
        ));
    }
}

/// Runs the audio workload.
pub fn run(args: &Args) -> (Outcome, String) {
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

fn untraced(args: &Args) -> (Outcome, String) {
    let mut out = Outcome::default();
    let pace = Pace::new();
    let (mut traces, t) = pace.time(|| synthesize(args.seed, duration(args)));
    out.values.push("setup_s", t.paced_s);
    let grid = Grid::new(traces.len());
    let trace_seconds: f64 = traces
        .iter()
        .map(|t| t.duration().as_secs_f64())
        .sum::<f64>()
        * (grid.cells.len() / traces.len()) as f64;

    let warm = grid.run(&traces, 1);
    let Some(reference) = check_round(&mut out, "warm-up", &traces, &grid, &warm) else {
        return (out, String::new());
    };
    check_digest(&mut out, args, "warm-up", reference, None);
    let mut wall_trace_s_per_s = Vec::new();
    rounds_for(args.measure, MIN_ROUNDS, |r| {
        let (results, t) = grid.run_paced(&traces, &pace);
        let round = format!("round {r}");
        if let Some(digest) = check_round(&mut out, &round, &traces, &grid, &results) {
            check_digest(&mut out, args, &round, digest, Some(reference));
            out.values.push("trace_s_per_s", trace_seconds / t.paced_s);
            wall_trace_s_per_s.push(trace_seconds / t.raw_s);
        }
        // Set up again after every round, so the set-up samples spread
        // across the run; the next round replays the fresh traces, which
        // must give the same digest. The old set goes first, so peak
        // memory holds one set.
        traces.clear();
        let (fresh, t) = pace.time(|| synthesize(args.seed, duration(args)));
        traces = fresh;
        out.values.push("setup_s", t.paced_s);
    });
    if let Some(rss) = peak_rss_mb() {
        out.values.push("peak_rss_mb", rss);
    }
    let wakes: usize = warm.iter().flatten().map(|r| r.wake_ups).sum();
    let notes = format!(
        "  {} cells x {} s of audio per round, serial; {wakes} wake-ups; wall-clock trace_s_per_s median {:.1}\n  cell digest {reference:#018x}\n",
        grid.cells.len(),
        duration(args).as_secs_f64(),
        median(&wall_trace_s_per_s),
    );
    (out, notes)
}

fn traced(args: &Args) -> (Outcome, String) {
    let mut out = Outcome::default();
    let mut notes = String::new();
    let mut tracer = Tracer::with_capacity(4096);

    let mark = tracer.mark();
    let traces: Vec<SensorTrace> = AudioEnvironment::ALL
        .into_iter()
        .enumerate()
        .map(|(i, env)| {
            tracer.time("tracegen", None, i as u64, || {
                synthesize_one(args.seed, duration(args), i, env)
            })
        })
        .collect();
    let generated: usize = traces.iter().map(|t| mic(t).len()).sum();
    out.values.push(
        "tracegen.ns_per_sample",
        tracer.total(mark, "tracegen") as f64 / generated as f64,
    );

    let grid = Grid::new(traces.len());
    let programs = grid.programs();
    match side::ingest(&programs[..grid.apps.len()], &programs) {
        Ok(c) => c.record(&mut out),
        Err(e) => out.problem(format!("audio_eval ingest passes: {e}")),
    }
    let nodes: usize = programs.iter().map(|p| p.nodes().count()).sum();
    out.values.push("count.served_nodes", nodes as f64);

    // An untimed warm-up, the untraced reference round, then the
    // worker-scaling row.
    let warm = grid.run(&traces, 1);
    let Some(reference) = check_round(&mut out, "warm-up", &traces, &grid, &warm) else {
        return (out, notes);
    };
    check_digest(&mut out, args, "warm-up", reference, None);
    let t = Instant::now();
    let results = grid.run(&traces, 1);
    let reference_s = t.elapsed().as_secs_f64();
    if let Some(digest) = check_round(&mut out, "reference round", &traces, &grid, &results) {
        check_digest(&mut out, args, "reference round", digest, Some(reference));
    }
    let processors = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = processors.min(2);
    let t = Instant::now();
    let results = grid.run(&traces, workers);
    let many_s = t.elapsed().as_secs_f64();
    if let Some(digest) = check_round(&mut out, "scaling row", &traces, &grid, &results) {
        check_digest(&mut out, args, "scaling row", digest, Some(reference));
    }
    out.values.push("batch.speedup_2w", reference_s / many_s);
    notes.push_str(&format!(
        "  reference round {reference_s:.3} s; batch: {workers} workers {many_s:.3} s ({processors} processors)\n"
    ));

    let mut cores = Cores::new();
    let mut rounds: Vec<LayerRound> = Vec::new();
    let mut per_app: Vec<Vec<(f64, f64)>> = vec![Vec::new(); grid.apps.len()];
    rounds_for(args.measure, MIN_ROUNDS, |r| {
        let round = format!("traced round {r}");
        out.attempted += grid.cells.len() as u64;
        match traced_round(&grid, &traces, &mut tracer, &mut cores, &mut per_app) {
            Ok((layer, digest, unattributed)) => {
                check_digest(&mut out, args, &round, digest, Some(reference));
                if !(0.0..=0.05).contains(&unattributed) {
                    out.problem(format!(
                        "audio_eval {round}: spans leave {:.1}% of the loop unattributed",
                        unattributed * 100.0
                    ));
                }
                layer.record(&mut out, reference_s);
                rounds.push(layer);
            }
            Err(e) => {
                out.failed += 1;
                out.problem(format!("audio_eval {round}: {e}"));
            }
        }
    });
    record_calls(&mut out, &rounds);
    for (app, samples) in grid.apps.iter().zip(&per_app) {
        let batch: Vec<f64> = samples.iter().map(|s| s.0).collect();
        let self_ms: Vec<f64> = samples.iter().map(|s| s.1).collect();
        notes.push_str(&format!(
            "  {}: hub.batch_ns_per_sample {:.1}, sim.self_ms of a Sw cell {:.2}\n",
            app.name(),
            median(&batch),
            median(&self_ms)
        ));
    }
    save_trace(args, &tracer, &mut out, &mut notes);
    (out, notes)
}

fn mic(trace: &SensorTrace) -> &[f64] {
    trace
        .channel(SensorChannel::Mic)
        .map_or(&[][..], |s| s.samples())
}

/// One traced round: every cell under a span, then the side calls.
/// Returns the per-layer numbers, the cells' digest and the share of
/// the loop no span covers. Pushes each app's batch cost and mean Sw
/// cell self time onto `per_app`.
fn traced_round(
    grid: &Grid,
    traces: &[SensorTrace],
    tracer: &mut Tracer,
    cores: &mut Cores,
    per_app: &mut [Vec<(f64, f64)>],
) -> Result<(LayerRound, u64, f64), String> {
    let mark = tracer.mark();
    let start = Instant::now();
    let mut layer = LayerRound::default();
    let mut fnv = Fnv::new();
    for (i, cell) in grid.cells.iter().enumerate() {
        let item = i as u64;
        let span = tracer.begin("audio.cell", None, item);
        let sim = tracer.begin("sim", Some(span), item);
        let result = grid.simulate(traces, cell);
        let ns = tracer.end(sim) as f64;
        let r = result?;
        tracer.time("audio.fold", Some(span), item, || fnv.cell(&r));
        tracer.end(span);
        layer.call_ns.push(ns);
        layer.wake_ups += r.wake_ups as u64;
        layer.detections += r.stats.detections as u64;
        layer.power_mw += r.average_power_mw;
        layer.pushed += mic(&traces[cell.trace]).len() as u64;
    }
    layer.loop_ns = start.elapsed().as_nanos() as f64;
    layer.sim_ns = tracer.total(mark, "sim") as f64;
    let unattributed =
        (layer.loop_ns - layer.sim_ns - tracer.total(mark, "audio.fold") as f64) / layer.loop_ns;

    // Side calls: each program on a prefix of each trace.
    let rate_hz = AudioTraceConfig::default().rate_hz;
    let programs = grid.programs();
    let mut by_program = vec![Interpreters::default(); programs.len()];
    for (t, trace) in traces.iter().enumerate() {
        let limit = (SIDE_SECS * rate_hz) as usize;
        for (p, program) in programs.iter().enumerate() {
            let input = Input::new(program, trace, limit).ok_or("audio trace lacks MIC")?;
            let m = tracer.time(
                "side.interpreters",
                None,
                (t * programs.len() + p) as u64,
                || Interpreters::measure(cores, program, &input),
            )?;
            by_program[p].add(&m);
            layer.interpreters.add(&m);
        }
    }
    let signal = mic(&traces[0]);
    layer.kernels = Some(tracer.time("side.kernels", None, 0, || side::kernels(signal, rate_hz))?);

    let mut sw_self_ms = vec![0.0; grid.apps.len()];
    for (cell, &ns) in grid.cells.iter().zip(&layer.call_ns) {
        let rates = &by_program[grid.strategy_of(cell)];
        let per_sample = match cell.variant {
            Variant::Sw32 => rates.hub32.ns_per_sample(),
            _ => rates.hub.ns_per_sample(),
        };
        let hub = mic(&traces[cell.trace]).len() as f64 * per_sample;
        layer.hub_ns += hub;
        if cell.variant == Variant::Sw {
            sw_self_ms[cell.app] += (ns - hub) / 1e6 / traces.len() as f64;
        }
    }
    for (app, self_ms) in sw_self_ms.into_iter().enumerate() {
        per_app[app].push((by_program[app].hub_batch.ns_per_sample(), self_ms));
    }
    Ok((layer, fnv.0, unattributed))
}
