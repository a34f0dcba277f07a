//! Parallel batch simulation: the paper's §4.3 cross-product sweep
//! (applications × sensing strategies × traces) as a first-class engine.
//!
//! Every figure and table of the evaluation replays the same serial
//! loop: for each app, for each strategy, for each trace, call
//! [`simulate`]. [`BatchRunner`] runs that grid over a pool of scoped
//! worker threads instead, with three guarantees the experiment
//! binaries and the conformance suite rely on:
//!
//! 1. **Bit-identical results.** Each cell calls the exact serial
//!    [`simulate`] on the exact same inputs; parallelism only changes
//!    *when* a cell runs, never *what* it computes. The serial path
//!    remains the reference implementation, and
//!    `crates/sim/tests/batch_conformance.rs` pins the equivalence.
//! 2. **Deterministic order.** [`BatchReport::outcomes`] is always in
//!    sweep-spec order (app-major, then strategy, trace, config) no
//!    matter how threads interleave.
//! 3. **Failure isolation.** A failing cell — a [`SimError`] or even a
//!    panic inside a classifier — becomes a recorded [`JobError`] for
//!    that cell; the rest of the sweep still completes.
//!
//! Shared inputs (loaded traces, compiled wake-up-condition
//! [`Program`]s inside [`Strategy::HubWake`]) are reference-counted via
//! [`Arc`], so a 6-app × 9-strategy × 18-trace sweep synthesizes each
//! trace and each program once, not once per cell.
//!
//! [`Program`]: sidewinder_ir::Program
//! [`simulate`]: crate::engine::simulate

use crate::app::Application;
use crate::engine::{simulate_with_faults, SimConfig, SimError, SimResult};
use crate::power::PhonePowerProfile;
use crate::strategy::Strategy;
use sidewinder_hub::fault::FaultSchedule;
use sidewinder_sensors::SensorTrace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An application shared across worker threads.
pub type SharedApp = Arc<dyn Application + Send + Sync>;

/// A per-application strategy factory (e.g. each application's own
/// Sidewinder wake-up condition).
type StrategyFactory = Box<dyn Fn(&dyn Application) -> Vec<Strategy> + Send + Sync>;

/// How a sweep derives its strategy list.
enum StrategySource {
    /// One fixed list, evaluated against every application.
    Fixed(Vec<Strategy>),
    /// A per-application list, evaluated once per application.
    PerApp(StrategyFactory),
}

/// A declarative sweep: applications × strategies × traces × configs
/// under one power profile.
///
/// Build one with the fluent methods, then hand it to
/// [`BatchRunner::run`]. Enumeration order — and therefore
/// [`BatchReport`] order — is app-major: applications, then strategies,
/// then traces, then configs.
pub struct SweepSpec {
    apps: Vec<SharedApp>,
    traces: Vec<Arc<SensorTrace>>,
    configs: Vec<SimConfig>,
    profile: PhonePowerProfile,
    strategies: StrategySource,
    faults: Arc<FaultSchedule>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec::new()
    }
}

impl SweepSpec {
    /// An empty sweep with the Nexus 4 profile and the default
    /// [`SimConfig`].
    pub fn new() -> SweepSpec {
        SweepSpec {
            apps: Vec::new(),
            traces: Vec::new(),
            configs: Vec::new(),
            profile: PhonePowerProfile::NEXUS4,
            strategies: StrategySource::Fixed(Vec::new()),
            faults: Arc::new(FaultSchedule::none()),
        }
    }

    /// Adds one application.
    pub fn app(mut self, app: impl Application + Send + Sync + 'static) -> Self {
        self.apps.push(Arc::new(app));
        self
    }

    /// Adds an already-shared application.
    pub fn shared_app(mut self, app: SharedApp) -> Self {
        self.apps.push(app);
        self
    }

    /// Adds already-shared applications.
    pub fn shared_apps(mut self, apps: impl IntoIterator<Item = SharedApp>) -> Self {
        self.apps.extend(apps);
        self
    }

    /// Adds one trace (wrapped in an [`Arc`] so all cells share it).
    pub fn trace(mut self, trace: SensorTrace) -> Self {
        self.traces.push(Arc::new(trace));
        self
    }

    /// Adds traces.
    pub fn traces(mut self, traces: impl IntoIterator<Item = SensorTrace>) -> Self {
        self.traces.extend(traces.into_iter().map(Arc::new));
        self
    }

    /// Adds already-shared traces.
    pub fn shared_traces(mut self, traces: impl IntoIterator<Item = Arc<SensorTrace>>) -> Self {
        self.traces.extend(traces);
        self
    }

    /// Adds one strategy to the fixed strategy list.
    ///
    /// # Panics
    ///
    /// Panics if [`SweepSpec::strategies_per_app`] was already set — a
    /// sweep derives its strategies one way or the other.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        match &mut self.strategies {
            StrategySource::Fixed(list) => list.push(strategy),
            StrategySource::PerApp(_) => {
                panic!("SweepSpec: cannot mix fixed strategies with strategies_per_app")
            }
        }
        self
    }

    /// Adds strategies to the fixed strategy list.
    ///
    /// # Panics
    ///
    /// Panics if [`SweepSpec::strategies_per_app`] was already set.
    pub fn strategies(mut self, strategies: impl IntoIterator<Item = Strategy>) -> Self {
        for s in strategies {
            self = self.strategy(s);
        }
        self
    }

    /// Derives the strategy list from each application — the natural
    /// form when the sweep includes each application's own Sidewinder
    /// wake-up condition. `f` is evaluated **once per application**;
    /// the resulting strategies (and any compiled programs inside them)
    /// are shared across that application's traces and configs.
    pub fn strategies_per_app(
        mut self,
        f: impl Fn(&dyn Application) -> Vec<Strategy> + Send + Sync + 'static,
    ) -> Self {
        self.strategies = StrategySource::PerApp(Box::new(f));
        self
    }

    /// Adds a simulation config (defaults to one [`SimConfig::default`]
    /// if never called).
    pub fn config(mut self, config: SimConfig) -> Self {
        self.configs.push(config);
        self
    }

    /// Sets the power profile (defaults to the Nexus 4).
    pub fn profile(mut self, profile: PhonePowerProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the fault schedule every cell runs under (defaults to
    /// [`FaultSchedule::none`], which leaves all cells bit-identical to
    /// the fault-free path).
    pub fn faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = Arc::new(faults);
        self
    }

    /// Enumerates the sweep's jobs in deterministic spec order.
    pub fn jobs(&self) -> Vec<JobSpec> {
        let default_config = [SimConfig::default()];
        let configs: &[SimConfig] = if self.configs.is_empty() {
            &default_config
        } else {
            &self.configs
        };
        let mut jobs = Vec::new();
        for (app_idx, app) in self.apps.iter().enumerate() {
            let strategies: Vec<Arc<Strategy>> = match &self.strategies {
                StrategySource::Fixed(list) => list.iter().cloned().map(Arc::new).collect(),
                StrategySource::PerApp(f) => f(app.as_ref()).into_iter().map(Arc::new).collect(),
            };
            for (strategy_idx, strategy) in strategies.iter().enumerate() {
                for (trace_idx, trace) in self.traces.iter().enumerate() {
                    for (config_idx, config) in configs.iter().enumerate() {
                        jobs.push(JobSpec {
                            index: jobs.len(),
                            app_idx,
                            strategy_idx,
                            trace_idx,
                            config_idx,
                            app: Arc::clone(app),
                            strategy: Arc::clone(strategy),
                            trace: Arc::clone(trace),
                            config: *config,
                            profile: self.profile,
                            faults: Arc::clone(&self.faults),
                        });
                    }
                }
            }
        }
        jobs
    }
}

/// One cell of a sweep: everything the engine needs, with the heavy
/// inputs behind [`Arc`]s.
#[derive(Clone)]
pub struct JobSpec {
    /// Position in spec order.
    pub index: usize,
    /// Application index within the spec.
    pub app_idx: usize,
    /// Strategy index within the application's strategy list.
    pub strategy_idx: usize,
    /// Trace index within the spec.
    pub trace_idx: usize,
    /// Config index within the spec.
    pub config_idx: usize,
    /// The application.
    pub app: SharedApp,
    /// The strategy (compiled program shared, not recompiled).
    pub strategy: Arc<Strategy>,
    /// The trace (loaded once, shared).
    pub trace: Arc<SensorTrace>,
    /// Simulation constants.
    pub config: SimConfig,
    /// Power profile.
    pub profile: PhonePowerProfile,
    /// Fault schedule (shared; empty for fault-free sweeps).
    pub faults: Arc<FaultSchedule>,
}

impl JobSpec {
    /// Runs this cell on the calling thread via the serial reference
    /// engine ([`simulate_with_faults`], which is [`simulate`] exactly
    /// when the schedule is empty), converting panics into
    /// [`JobError::Panicked`].
    ///
    /// [`simulate`]: crate::engine::simulate
    pub fn run(&self) -> JobOutcome {
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            simulate_with_faults(
                &self.trace,
                &*self.app,
                &self.strategy,
                &self.profile,
                &self.config,
                &self.faults,
            )
        }));
        let result = match result {
            Ok(Ok(r)) => Ok(r),
            Ok(Err(e)) => Err(JobError::Sim(e)),
            Err(panic) => Err(JobError::Panicked(panic_message(&*panic))),
        };
        JobOutcome {
            index: self.index,
            app_idx: self.app_idx,
            strategy_idx: self.strategy_idx,
            trace_idx: self.trace_idx,
            config_idx: self.config_idx,
            app: self.app.name().to_string(),
            strategy: self.strategy.label(),
            trace: self.trace.name().to_string(),
            elapsed: started.elapsed(),
            result,
        }
    }

    /// [`JobSpec::run`] with a second, outer panic guard: the inner guard
    /// covers the simulation, but [`JobOutcome`] construction still calls
    /// application code (`name()`), which a hostile [`Application`] can
    /// panic in. Any panic escaping [`JobSpec::run`] becomes a
    /// [`JobError::Panicked`] outcome instead of poisoning the worker —
    /// the per-cell isolation the runner advertises must hold even there.
    fn run_isolated(&self) -> JobOutcome {
        let started = Instant::now();
        // UnwindSafe audit: `self` is only read across the boundary, and
        // on panic every value the closure produced is discarded — the
        // synthesized outcome below is built solely from the `JobSpec`.
        catch_unwind(AssertUnwindSafe(|| self.run())).unwrap_or_else(|panic| JobOutcome {
            index: self.index,
            app_idx: self.app_idx,
            strategy_idx: self.strategy_idx,
            trace_idx: self.trace_idx,
            config_idx: self.config_idx,
            app: guarded_name(|| self.app.name().to_string(), "<app name panicked>"),
            strategy: guarded_name(|| self.strategy.label(), "<strategy label panicked>"),
            trace: self.trace.name().to_string(),
            elapsed: started.elapsed(),
            result: Err(JobError::Panicked(panic_message(&*panic))),
        })
    }

    /// The outcome recorded for a job whose worker never filled its slot.
    fn lost_outcome(&self) -> JobOutcome {
        let app = guarded_name(|| self.app.name().to_string(), "<app name panicked>");
        let strategy = guarded_name(|| self.strategy.label(), "<strategy label panicked>");
        let trace = self.trace.name().to_string();
        JobOutcome {
            index: self.index,
            app_idx: self.app_idx,
            strategy_idx: self.strategy_idx,
            trace_idx: self.trace_idx,
            config_idx: self.config_idx,
            app: app.clone(),
            strategy: strategy.clone(),
            trace: trace.clone(),
            elapsed: Duration::ZERO,
            result: Err(JobError::Lost {
                app,
                strategy,
                trace,
            }),
        }
    }
}

/// Evaluates a display-name closure, substituting `fallback` if it
/// panics — failure reporting must never introduce a second panic.
fn guarded_name(f: impl FnOnce() -> String, fallback: &str) -> String {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| fallback.to_string())
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Why a cell failed without aborting the sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The simulation rejected the cell (e.g. the trace lacks a channel
    /// the wake-up condition reads).
    Sim(SimError),
    /// The application code panicked; the payload message is preserved.
    Panicked(String),
    /// The cell's worker never reported an outcome — the job was lost.
    /// Carries the cell's identity so a fleet-scale sweep can say *which*
    /// device shard vanished rather than aborting on an anonymous slot.
    Lost {
        /// Application name of the lost cell.
        app: String,
        /// Strategy label of the lost cell.
        strategy: String,
        /// Trace name of the lost cell.
        trace: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Sim(e) => write!(f, "{e}"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::Lost {
                app,
                strategy,
                trace,
            } => write!(
                f,
                "job lost: worker never reported an outcome for cell \
                 (app {app} / strategy {strategy} / trace {trace})"
            ),
        }
    }
}

impl std::error::Error for JobError {}

/// The outcome of one cell, failed or not, with its sweep coordinates.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Position in spec order.
    pub index: usize,
    /// Application index within the spec.
    pub app_idx: usize,
    /// Strategy index within the application's strategy list.
    pub strategy_idx: usize,
    /// Trace index within the spec.
    pub trace_idx: usize,
    /// Config index within the spec.
    pub config_idx: usize,
    /// Application name.
    pub app: String,
    /// Strategy label.
    pub strategy: String,
    /// Trace name.
    pub trace: String,
    /// Wall-clock time this cell took.
    pub elapsed: Duration,
    /// The simulation result, or why it failed.
    pub result: Result<SimResult, JobError>,
}

/// All outcomes of a sweep, in deterministic spec order.
#[derive(Debug, Clone)]
pub struct BatchReport {
    outcomes: Vec<JobOutcome>,
    /// Wall-clock time of the whole sweep.
    pub elapsed: Duration,
    /// Worker threads used.
    pub workers: usize,
}

impl BatchReport {
    /// Every cell outcome in spec order.
    pub fn outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the sweep had no cells.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Successful results in spec order.
    pub fn results(&self) -> impl Iterator<Item = &SimResult> {
        self.outcomes.iter().filter_map(|o| o.result.as_ref().ok())
    }

    /// Failed cells in spec order.
    pub fn failures(&self) -> impl Iterator<Item = &JobOutcome> {
        self.outcomes.iter().filter(|o| o.result.is_err())
    }

    /// The successful results of one (application, strategy) cell
    /// across all traces and configs, cloned into a contiguous slice
    /// for the `report` helpers ([`mean_power_mw`] and friends).
    ///
    /// [`mean_power_mw`]: crate::report::mean_power_mw
    pub fn cell(&self, app: &str, strategy: &str) -> Vec<SimResult> {
        self.outcomes
            .iter()
            .filter(|o| o.app == app && o.strategy == strategy)
            .filter_map(|o| o.result.as_ref().ok())
            .cloned()
            .collect()
    }

    /// All successful results, in spec order, panicking on the first
    /// failed cell — the semantics the experiment binaries want, where
    /// every configuration is valid by construction.
    ///
    /// # Panics
    ///
    /// Panics with the failing cell's coordinates if any cell failed.
    pub fn expect_all(&self) -> Vec<SimResult> {
        if let Some(failure) = self.failures().next() {
            panic!(
                "sweep cell {} / {} / {} failed: {}",
                failure.trace,
                failure.app,
                failure.strategy,
                failure.result.as_ref().expect_err("filtered to failures"),
            );
        }
        self.results().cloned().collect()
    }
}

/// Resolves the worker count: explicit override, else the
/// `SIDEWINDER_SWEEP_WORKERS` environment variable, else available
/// parallelism.
fn default_workers() -> usize {
    if let Ok(v) = std::env::var("SIDEWINDER_SWEEP_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs sweeps over a pool of scoped worker threads.
#[derive(Debug, Clone)]
pub struct BatchRunner {
    workers: usize,
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::new()
    }
}

impl BatchRunner {
    /// A runner with the default worker count (the
    /// `SIDEWINDER_SWEEP_WORKERS` environment variable, else available
    /// parallelism).
    pub fn new() -> BatchRunner {
        BatchRunner {
            workers: default_workers(),
        }
    }

    /// Overrides the worker count (clamped to at least one).
    pub fn workers(mut self, workers: usize) -> BatchRunner {
        self.workers = workers.max(1);
        self
    }

    /// The worker count this runner will use.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Runs every cell of `spec` and returns outcomes in spec order.
    pub fn run(&self, spec: &SweepSpec) -> BatchReport {
        self.run_jobs(spec.jobs())
    }

    /// Runs pre-enumerated jobs (`jobs[i].index` must equal `i`, as
    /// produced by [`SweepSpec::jobs`]) and returns outcomes in that
    /// order.
    pub fn run_jobs(&self, jobs: Vec<JobSpec>) -> BatchReport {
        let started = Instant::now();
        // `run_isolated` turns every panic into an outcome, so a
        // `JobPanic` only means a job was lost wholesale: it becomes a
        // typed `JobError::Lost` naming the cell, never an anonymous
        // panic.
        let outcomes = try_par_map(self.workers, &jobs, JobSpec::run_isolated)
            .into_iter()
            .zip(&jobs)
            .map(|(outcome, job)| outcome.unwrap_or_else(|_| job.lost_outcome()))
            .collect();
        BatchReport {
            outcomes,
            elapsed: started.elapsed(),
            workers: self.workers.min(jobs.len()).max(1),
        }
    }
}

/// A panic caught while mapping one item of [`try_par_map`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the item whose closure panicked.
    pub index: usize,
    /// The panic payload, rendered to a string.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "item {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Order-preserving parallel map with per-item panic isolation — the
/// one worker pool, behind [`BatchRunner`] and the sweep-shaped work
/// that is not a [`simulate`](crate::engine::simulate) call
/// (pipeline-cost analysis, concurrent-app simulation, trace synthesis,
/// fleet shards). A panicking `f` costs exactly the item it
/// panicked on: every other item still completes, and the panic comes
/// back as a [`JobPanic`] in that item's slot — the same per-cell
/// isolation [`BatchRunner::run`] gives sweep cells.
///
/// UnwindSafe audit: `f` and the items cross the unwind boundary by
/// shared reference only, and a panicked item's partial results are
/// discarded wholesale (its slot holds the error, never a value), so no
/// broken invariant is observable afterwards. `f` is re-invoked for
/// *other* items after a panic; captures whose invariants a panic can
/// break mid-update (e.g. a poisoned lock) are `f`'s own contract, as
/// with [`BatchRunner::run`].
pub fn try_par_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<Result<R, JobPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len()).max(1);
    let guarded = |i: usize, item: &T| {
        catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|panic| JobPanic {
            index: i,
            message: panic_message(&*panic),
        })
    };
    if workers == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| guarded(i, item))
            .collect();
    }
    // Slot-based collection (not per-thread vectors joined at the end):
    // each finished item is immediately safe in its slot, so even a
    // worker failing in an unforeseen way cannot take completed results
    // down with it. (`Mutex<Option<R>>` rather than `OnceLock`: the lock
    // is uncontended — each index is claimed by exactly one worker — and
    // it only asks `R: Send` of the result type.)
    let slots: Vec<std::sync::Mutex<Option<Result<R, JobPanic>>>> =
        items.iter().map(|_| std::sync::Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = guarded(i, item);
                if let Ok(mut slot) = slots[i].lock() {
                    *slot = Some(result);
                }
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .unwrap_or_else(|| {
                    Err(JobPanic {
                        index: i,
                        message: "item's worker never reported a result".to_string(),
                    })
                })
        })
        .collect()
}

/// Order-preserving parallel map over the runner's worker pool.
///
/// Built on [`try_par_map`], so one panicking item no longer kills the
/// other workers mid-flight: every healthy item completes first, then
/// the first panic (in item order) is re-raised on the calling thread
/// with its original payload message. Callers that need the healthy
/// results alongside the failures should call [`try_par_map`] directly.
///
/// # Panics
///
/// Panics if `f` panicked on any item.
pub fn par_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    try_par_map(workers, items, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| panic!("par_map {p}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidewinder_ir::Program;
    use sidewinder_sensors::{
        EventKind, GroundTruth, LabeledInterval, Micros, SensorChannel, TimeSeries,
    };

    /// The engine test's toy application, duplicated here to keep the
    /// module self-contained.
    struct ToyApp;

    impl Application for ToyApp {
        fn name(&self) -> &str {
            "toy"
        }
        fn target_kinds(&self) -> Vec<EventKind> {
            vec![EventKind::Headbutt]
        }
        fn classify(&self, trace: &SensorTrace, start: Micros, end: Micros) -> Vec<Micros> {
            let series = trace.channel(SensorChannel::AccX).unwrap();
            let rate = series.rate_hz();
            let offset = (start.as_secs_f64() * rate).ceil() as usize;
            let mut out = Vec::new();
            let mut inside = false;
            for (i, &v) in series.slice(start, end).iter().enumerate() {
                if v > 5.0 && !inside {
                    inside = true;
                    out.push(sidewinder_sensors::time::sample_time(offset + i, rate));
                } else if v <= 5.0 {
                    inside = false;
                }
            }
            out
        }
        fn wake_condition(&self) -> Program {
            "ACC_X -> movingAvg(id=1, params={2});
             1 -> minThreshold(id=2, params={5});
             2 -> OUT;"
                .parse()
                .unwrap()
        }
        fn wake_condition_hub_mw(&self) -> f64 {
            3.6
        }
    }

    /// A classifier that panics — for failure-isolation coverage.
    struct PanickyApp;

    impl Application for PanickyApp {
        fn name(&self) -> &str {
            "panicky"
        }
        fn target_kinds(&self) -> Vec<EventKind> {
            vec![EventKind::Headbutt]
        }
        fn classify(&self, _: &SensorTrace, _: Micros, _: Micros) -> Vec<Micros> {
            panic!("classifier exploded")
        }
        fn wake_condition(&self) -> Program {
            ToyApp.wake_condition()
        }
        fn wake_condition_hub_mw(&self) -> f64 {
            3.6
        }
    }

    fn toy_trace(name: &str) -> SensorTrace {
        let rate = 50.0;
        let n = 120 * 50;
        let mut x = vec![0.0f64; n];
        let mut trace = SensorTrace::new(name);
        let mut gt = GroundTruth::new();
        for (s, e) in [(30u64, 32u64), (90, 92)] {
            for sample in &mut x[(s * 50) as usize..(e * 50) as usize] {
                *sample = 10.0;
            }
            gt.push(
                LabeledInterval::new(
                    EventKind::Headbutt,
                    Micros::from_secs(s),
                    Micros::from_secs(e),
                )
                .unwrap(),
            );
        }
        trace.insert(
            SensorChannel::AccX,
            TimeSeries::from_samples(rate, x).unwrap(),
        );
        *trace.ground_truth_mut() = gt;
        trace
    }

    fn toy_spec() -> SweepSpec {
        SweepSpec::new()
            .app(ToyApp)
            .traces([toy_trace("a"), toy_trace("b"), toy_trace("c")])
            .strategies([
                Strategy::AlwaysAwake,
                Strategy::Oracle,
                Strategy::DutyCycle {
                    sleep: Micros::from_secs(5),
                },
            ])
    }

    #[test]
    fn jobs_enumerate_in_app_major_order() {
        let jobs = toy_spec().jobs();
        assert_eq!(jobs.len(), 9);
        let coords: Vec<(usize, usize, usize)> = jobs
            .iter()
            .map(|j| (j.strategy_idx, j.trace_idx, j.config_idx))
            .collect();
        assert_eq!(
            coords,
            vec![
                (0, 0, 0),
                (0, 1, 0),
                (0, 2, 0),
                (1, 0, 0),
                (1, 1, 0),
                (1, 2, 0),
                (2, 0, 0),
                (2, 1, 0),
                (2, 2, 0),
            ]
        );
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.index, i);
        }
    }

    #[test]
    fn parallel_matches_serial_in_value_and_order() {
        let spec = toy_spec();
        let serial: Vec<SimResult> = spec
            .jobs()
            .iter()
            .map(|j| j.run().result.expect("toy cells succeed"))
            .collect();
        for workers in [1, 2, 8] {
            let report = BatchRunner::new().workers(workers).run(&spec);
            let parallel: Vec<&SimResult> = report.results().collect();
            assert_eq!(parallel.len(), serial.len());
            for (s, p) in serial.iter().zip(parallel) {
                assert_eq!(s, p);
            }
        }
    }

    #[test]
    fn failures_are_isolated_per_cell() {
        // ToyApp's wake condition needs ACC_X; a mic-only trace fails
        // that one cell with a SimError while the others succeed.
        let mut mic_only = SensorTrace::new("mic-only");
        mic_only.insert(
            SensorChannel::Mic,
            TimeSeries::from_samples(8000.0, vec![0.0; 100]).unwrap(),
        );
        let spec = SweepSpec::new()
            .app(ToyApp)
            .trace(toy_trace("ok"))
            .trace(mic_only)
            .strategies([
                Strategy::AlwaysAwake,
                Strategy::HubWake {
                    program: ToyApp.wake_condition(),
                    hub_mw: 3.6,
                    label: "Sw",
                },
            ]);
        let report = BatchRunner::new().workers(4).run(&spec);
        assert_eq!(report.len(), 4);
        // Two failed cells: AA on mic-only panics inside the toy
        // classifier (missing-channel unwrap), Sw on mic-only is a
        // clean SimError. Both recorded, neither fatal.
        assert_eq!(report.failures().count(), 2);
        let failure = report.failures().find(|o| o.strategy == "Sw").unwrap();
        assert_eq!(failure.trace, "mic-only");
        assert_eq!(failure.strategy, "Sw");
        assert_eq!(
            failure.result,
            Err(JobError::Sim(SimError::MissingChannel(SensorChannel::AccX)))
        );
        let aa_mic = &report.outcomes()[1];
        assert_eq!(
            (aa_mic.trace.as_str(), aa_mic.strategy.as_str()),
            ("mic-only", "AA")
        );
        assert!(matches!(aa_mic.result, Err(JobError::Panicked(_))));
    }

    #[test]
    fn classifier_panics_become_job_errors() {
        let spec = SweepSpec::new()
            .app(PanickyApp)
            .trace(toy_trace("t"))
            .strategy(Strategy::AlwaysAwake);
        let report = BatchRunner::new().workers(2).run(&spec);
        assert_eq!(report.len(), 1);
        match &report.outcomes()[0].result {
            Err(JobError::Panicked(msg)) => {
                assert!(msg.contains("classifier exploded"), "msg = {msg:?}")
            }
            other => panic!("expected panic outcome, got {other:?}"),
        }
    }

    #[test]
    fn per_app_strategies_are_evaluated_once_per_app() {
        use std::sync::atomic::AtomicUsize;
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let spec = SweepSpec::new()
            .app(ToyApp)
            .traces([toy_trace("a"), toy_trace("b")])
            .strategies_per_app(|app| {
                CALLS.fetch_add(1, Ordering::Relaxed);
                vec![Strategy::HubWake {
                    program: app.wake_condition(),
                    hub_mw: app.wake_condition_hub_mw(),
                    label: "Sw",
                }]
            });
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 2);
        assert_eq!(CALLS.load(Ordering::Relaxed), 1);
        // Both cells share the same compiled program allocation.
        assert!(Arc::ptr_eq(&jobs[0].strategy, &jobs[1].strategy));
        assert!(Arc::ptr_eq(&jobs[0].app, &jobs[1].app));
    }

    #[test]
    fn cell_lookup_groups_traces() {
        let report = BatchRunner::new().workers(3).run(&toy_spec());
        let aa = report.cell("toy", "AA");
        assert_eq!(aa.len(), 3);
        assert!(aa.iter().all(|r| r.strategy == "AA"));
        assert_eq!(report.cell("toy", "nope").len(), 0);
        let all = report.expect_all();
        assert_eq!(all.len(), 9);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = par_map(8, &items, |&x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        // Degenerate pools.
        assert_eq!(par_map(1, &items, |&x| x + 1).len(), 100);
        assert!(par_map(4, &[] as &[u64], |&x| x).is_empty());
    }

    #[test]
    fn try_par_map_isolates_a_panicking_item() {
        // One poisoned item among healthy ones: every healthy item's
        // result survives, the poisoned one carries its panic payload.
        let items: Vec<u64> = (0..50).collect();
        for workers in [1, 2, 8] {
            let results = try_par_map(workers, &items, |&x| {
                if x == 17 {
                    panic!("device {x} exploded");
                }
                x * 3
            });
            assert_eq!(results.len(), 50);
            for (i, r) in results.iter().enumerate() {
                if i == 17 {
                    let err = r.as_ref().expect_err("item 17 panicked");
                    assert_eq!(err.index, 17);
                    assert!(err.message.contains("device 17 exploded"), "{err}");
                } else {
                    assert_eq!(*r, Ok(i as u64 * 3));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "item 3 panicked: kaboom")]
    fn par_map_reraises_the_first_panic_in_item_order() {
        let items: Vec<u64> = (0..8).collect();
        par_map(4, &items, |&x| {
            if x >= 3 {
                panic!("kaboom");
            }
            x
        });
    }

    #[test]
    fn lost_job_slots_become_typed_per_cell_failures() {
        let jobs = toy_spec().jobs();
        // Job 4 (Oracle on trace "b") as recorded when its worker
        // vanished mid-cell.
        let lost = jobs[4].lost_outcome();
        assert_eq!(lost.index, 4);
        assert_eq!(lost.app, "toy");
        assert_eq!(lost.strategy, "Oracle");
        assert_eq!(lost.trace, "b");
        match &lost.result {
            Err(JobError::Lost {
                app,
                strategy,
                trace,
            }) => {
                assert_eq!(
                    (app.as_str(), strategy.as_str(), trace.as_str()),
                    ("toy", "Oracle", "b")
                );
            }
            other => panic!("expected JobError::Lost, got {other:?}"),
        }
        let rendered = lost.result.as_ref().unwrap_err().to_string();
        assert!(rendered.contains("app toy"), "{rendered}");
        assert!(rendered.contains("strategy Oracle"), "{rendered}");
        assert!(rendered.contains("trace b"), "{rendered}");
    }

    /// An application that panics *outside* the simulation — in `name()`
    /// during outcome construction — must still degrade to a recorded
    /// per-cell failure, not a poisoned worker.
    struct HostileNameApp {
        armed: std::sync::atomic::AtomicBool,
    }

    impl Application for HostileNameApp {
        fn name(&self) -> &str {
            // First call (outcome construction after a successful run)
            // panics; later calls (failure reporting) succeed so the
            // fallback path is exercised deterministically.
            if !self.armed.swap(true, Ordering::Relaxed) {
                panic!("name() exploded")
            }
            "hostile"
        }
        fn target_kinds(&self) -> Vec<EventKind> {
            vec![EventKind::Headbutt]
        }
        fn classify(&self, _: &SensorTrace, _: Micros, _: Micros) -> Vec<Micros> {
            Vec::new()
        }
        fn wake_condition(&self) -> Program {
            ToyApp.wake_condition()
        }
        fn wake_condition_hub_mw(&self) -> f64 {
            3.6
        }
    }

    #[test]
    fn panics_in_outcome_construction_are_isolated_too() {
        let spec = SweepSpec::new()
            .app(HostileNameApp {
                armed: std::sync::atomic::AtomicBool::new(false),
            })
            .trace(toy_trace("t"))
            .strategy(Strategy::AlwaysAwake);
        let report = BatchRunner::new().workers(2).run(&spec);
        assert_eq!(report.len(), 1);
        let outcome = &report.outcomes()[0];
        match &outcome.result {
            Err(JobError::Panicked(msg)) => {
                assert!(msg.contains("name() exploded"), "msg = {msg:?}")
            }
            other => panic!("expected panic outcome, got {other:?}"),
        }
        assert_eq!(outcome.app, "hostile");
    }

    #[test]
    fn worker_count_env_override() {
        // Explicit override beats everything.
        assert_eq!(BatchRunner::new().workers(3).worker_count(), 3);
        assert_eq!(BatchRunner::new().workers(0).worker_count(), 1);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let report = BatchRunner::new().run(&SweepSpec::new());
        assert!(report.is_empty());
        assert_eq!(report.expect_all().len(), 0);
    }
}
