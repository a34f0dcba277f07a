//! The trace-driven simulation engine.
//!
//! [`simulate`] replays one trace through one application under one
//! strategy and produces the quantities the paper reports (§4.3): "the
//! amount of sleep and awake time, the total number of wake-up events,
//! and the recall and precision of the application", plus the average
//! power estimated from the Table 1 model.

use crate::app::Application;
use crate::intervals::IntervalSet;
use crate::metrics::{DetectionStats, FaultCounters};
use crate::power::{PhonePowerProfile, PowerBreakdown};
use crate::strategy::Strategy;
use sidewinder_hub::fault::{
    FaultPlan, FaultSchedule, FrameFate, HUB_REBOOT_TIME, PROBE_FRAME_BYTES, WAKE_FRAME_BYTES,
};
use sidewinder_hub::link::SerialLink;
use sidewinder_hub::runtime::{ChannelRates, HubRuntime};
use sidewinder_hub::{HubError, Sample};
use sidewinder_ir::Program;
use sidewinder_obs::{Event, EventSink, FrameOutcome, NullSink};
use sidewinder_sensors::{Micros, SensorChannel, SensorTrace, TimeSeries};
use std::ops::Range;

/// Tunable simulation constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// How long the phone stays awake per wake-up to sample and process
    /// (the paper uses 4 s chunks for duty cycling).
    pub awake_chunk: Micros,
    /// How long the phone stays awake after a *hub* wake-up: the hub
    /// hands over a buffer of already-collected data, so processing is
    /// brief; sustained events keep producing wake-ups that merge into a
    /// continuous awake span.
    pub hub_chunk: Micros,
    /// How much buffered raw data the hub hands to the application on a
    /// wake-up (§3.8 "our current implementation passes a buffer of raw
    /// sensor data").
    pub lookback: Micros,
    /// Awake periods closer than this merge into one (the phone cannot
    /// complete a sleep/wake round trip faster than the two 1 s
    /// transitions).
    pub merge_gap: Micros,
    /// Tolerance when matching detections to ground-truth events.
    pub match_tolerance: Micros,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            awake_chunk: Micros::from_secs(4),
            hub_chunk: Micros::from_millis(500),
            lookback: Micros::from_secs(4),
            merge_gap: Micros::from_secs(2),
            match_tolerance: Micros::from_secs(2),
        }
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The hub rejected or failed to execute the wake-up condition.
    Hub(HubError),
    /// The trace lacks a channel the wake-up condition reads.
    MissingChannel(sidewinder_sensors::SensorChannel),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Hub(e) => write!(f, "hub failure: {e}"),
            SimError::MissingChannel(c) => {
                write!(f, "trace does not record channel {c}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<HubError> for SimError {
    fn from(e: HubError) -> Self {
        SimError::Hub(e)
    }
}

/// The outcome of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Strategy label (AA, DC-10, …).
    pub strategy: String,
    /// Application name.
    pub app: String,
    /// Trace name.
    pub trace: String,
    /// Time spent per phone state.
    pub breakdown: PowerBreakdown,
    /// Average power, mW, under the profile used.
    pub average_power_mw: f64,
    /// Number of disjoint awake periods (wake-up events).
    pub wake_ups: usize,
    /// Recall/precision against ground truth.
    pub stats: DetectionStats,
    /// De-duplicated detection timestamps.
    pub detections: Vec<Micros>,
    /// Per-detection discovery delay: how long after the event appeared
    /// in the data the application actually processed it. Zero for live
    /// strategies; up to one interval for batching — the paper's §5.4
    /// timeliness objection.
    pub discovery_delays: Vec<Micros>,
    /// Fault activity during the run; all zeros for fault-free runs.
    pub fault: FaultCounters,
}

impl SimResult {
    /// Recall shorthand.
    pub fn recall(&self) -> f64 {
        self.stats.recall()
    }

    /// Precision shorthand.
    pub fn precision(&self) -> f64 {
        self.stats.precision()
    }

    /// Mean discovery delay in seconds (zero when every detection was
    /// processed live).
    pub fn mean_discovery_delay_s(&self) -> f64 {
        if self.discovery_delays.is_empty() {
            return 0.0;
        }
        self.discovery_delays
            .iter()
            .map(|d| d.as_secs_f64())
            .sum::<f64>()
            / self.discovery_delays.len() as f64
    }

    /// Largest discovery delay in seconds.
    pub fn max_discovery_delay_s(&self) -> f64 {
        self.discovery_delays
            .iter()
            .map(|d| d.as_secs_f64())
            .fold(0.0, f64::max)
    }
}

/// Replays `trace` through `app` under `strategy`.
///
/// # Errors
///
/// Returns [`SimError`] if a hub wake-up condition cannot be loaded or
/// executed on the trace.
pub fn simulate(
    trace: &SensorTrace,
    app: &dyn Application,
    strategy: &Strategy,
    profile: &PhonePowerProfile,
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    run::<_, f64>(
        trace,
        app,
        strategy,
        profile,
        config,
        &FaultSchedule::none(),
        &mut NullSink,
    )
}

/// [`simulate`] with the hub interpreter running its vector pipeline at
/// single precision — the hardware-faithful hub mode (the paper's MCUs
/// have at most an f32 FPU). Phone-side strategies (Always Awake, Duty
/// Cycling, Batching, Oracle) are unaffected: the precision parameter
/// only governs windows and spectra buffered *on the hub*, so their
/// results are identical to [`simulate`]. Hub-resident strategies may
/// wake at slightly different sample positions when a feature value sits
/// within single-precision rounding of its threshold.
///
/// # Errors
///
/// Returns [`SimError`] if a hub wake-up condition cannot be loaded or
/// executed on the trace.
pub fn simulate_f32(
    trace: &SensorTrace,
    app: &dyn Application,
    strategy: &Strategy,
    profile: &PhonePowerProfile,
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    run::<_, f32>(
        trace,
        app,
        strategy,
        profile,
        config,
        &FaultSchedule::none(),
        &mut NullSink,
    )
}

/// [`simulate`] with an observability sink attached.
///
/// Hub-resident strategies thread `sink` into the [`HubRuntime`], so it
/// sees every node execution and wake emission; the engine additionally
/// moves the sink's time cursor to each sample's trace time and reports
/// one delivered link frame per wake. With [`NullSink`] this *is*
/// [`simulate`]: the instrumentation compiles out and the sample replay
/// takes the identical batched path (pinned by the obs conformance
/// suite).
///
/// # Errors
///
/// Returns [`SimError`] if a hub wake-up condition cannot be loaded or
/// executed on the trace.
pub fn simulate_traced<S: EventSink>(
    trace: &SensorTrace,
    app: &dyn Application,
    strategy: &Strategy,
    profile: &PhonePowerProfile,
    config: &SimConfig,
    sink: &mut S,
) -> Result<SimResult, SimError> {
    run::<_, f64>(
        trace,
        app,
        strategy,
        profile,
        config,
        &FaultSchedule::none(),
        sink,
    )
}

/// Replays `trace` through `app` under `strategy` while injecting the
/// faults described by `schedule`.
///
/// With an empty schedule this is exactly [`simulate`] — bit-identical
/// results, zeroed [`FaultCounters`]. Faults live on the phone↔hub link
/// and the hub itself, so only the hub-resident strategies
/// ([`Strategy::HubWake`], [`Strategy::HubWakeDegraded`]) are affected;
/// phone-only strategies run exactly as under [`simulate`].
///
/// # Errors
///
/// Returns [`SimError`] if the wake-up condition cannot be loaded or
/// executed on the trace.
pub fn simulate_with_faults(
    trace: &SensorTrace,
    app: &dyn Application,
    strategy: &Strategy,
    profile: &PhonePowerProfile,
    config: &SimConfig,
    schedule: &FaultSchedule,
) -> Result<SimResult, SimError> {
    run::<_, f64>(
        trace,
        app,
        strategy,
        profile,
        config,
        schedule,
        &mut NullSink,
    )
}

/// [`simulate_with_faults`] with an observability sink attached: on top
/// of what [`simulate_traced`] reports, the sink sees every link-frame
/// fate and retry, lost frames, dropped samples, hub resets with their
/// program re-downloads, and degraded-mode entries/exits.
///
/// # Errors
///
/// Returns [`SimError`] if the wake-up condition cannot be loaded or
/// executed on the trace.
pub fn simulate_with_faults_traced<S: EventSink>(
    trace: &SensorTrace,
    app: &dyn Application,
    strategy: &Strategy,
    profile: &PhonePowerProfile,
    config: &SimConfig,
    schedule: &FaultSchedule,
    sink: &mut S,
) -> Result<SimResult, SimError> {
    run::<_, f64>(trace, app, strategy, profile, config, schedule, sink)
}

/// The one simulation behind every entry point above: `P` is the hub's
/// vector sample precision, `schedule` the faults to inject (empty for
/// a fault-free run) and `sink` the observer.
fn run<S: EventSink, P: Sample>(
    trace: &SensorTrace,
    app: &dyn Application,
    strategy: &Strategy,
    profile: &PhonePowerProfile,
    config: &SimConfig,
    schedule: &FaultSchedule,
    sink: &mut S,
) -> Result<SimResult, SimError> {
    let duration = trace.duration();
    let mut discovery_delays = Vec::new();
    let mut fault = FaultCounters::default();
    let (awake, mut detections) = match strategy {
        Strategy::AlwaysAwake => {
            let detections = app.classify(trace, Micros::ZERO, duration);
            (
                IntervalSet::from_spans(vec![(Micros::ZERO, duration)], Micros::ZERO),
                detections,
            )
        }
        Strategy::DutyCycle { sleep } => {
            let (spans, detections) = duty_cycle(
                trace,
                app,
                *sleep,
                profile,
                config,
                (Micros::ZERO, duration),
            );
            // Duty-cycle spans are genuinely disjoint: the phone
            // transitions between every pair, so no gap merging applies.
            (IntervalSet::from_spans(spans, Micros::ZERO), detections)
        }
        Strategy::Batching { interval, .. } => {
            let (awake, detections, delays) = batching(trace, app, *interval, profile, config);
            discovery_delays = delays;
            (awake, detections)
        }
        Strategy::HubWake { program, .. } | Strategy::HubWakeDegraded { program, .. } => {
            let fallback = match strategy {
                Strategy::HubWakeDegraded { fallback_sleep, .. } => Some(*fallback_sleep),
                _ => None,
            };
            let (awake, detections, hub_fault) = hub_wake::<S, P>(
                trace, app, program, fallback, profile, config, schedule, sink,
            )?;
            fault = hub_fault;
            (awake, detections)
        }
        Strategy::Oracle => {
            let spans: Vec<(Micros, Micros)> = app
                .target_kinds()
                .iter()
                .flat_map(|&k| trace.ground_truth().of_kind(k))
                .map(|iv| (iv.start(), iv.end()))
                .collect();
            let detections = spans.iter().map(|(s, e)| *s + (*e - *s) / 2).collect();
            (IntervalSet::from_spans(spans, config.merge_gap), detections)
        }
    };

    let awake = awake.clip(duration);
    detections.sort();
    detections.dedup();

    let stats = DetectionStats::match_events(
        trace.ground_truth(),
        &app.target_kinds(),
        &detections,
        config.match_tolerance,
    );

    let mut breakdown = integrate(&awake, duration, profile, strategy.hub_mw());
    // Recovery work (backoff waits, probes, retransmissions, program
    // re-downloads) keeps the phone out of sleep: move that time from the
    // sleep budget to awake, preserving the trace-time partition.
    let recovery_awake = fault.recovery_time.min(breakdown.asleep);
    breakdown.awake += recovery_awake;
    breakdown.asleep -= recovery_awake;
    Ok(SimResult {
        strategy: strategy.label(),
        app: app.name().to_string(),
        trace: trace.name().to_string(),
        average_power_mw: breakdown.average_power_mw(profile),
        wake_ups: awake.len(),
        breakdown,
        stats,
        detections,
        discovery_delays,
        // Without faults there is nothing to count: a fault-free run
        // reports no link frames either.
        fault: if schedule.is_empty() {
            FaultCounters::default()
        } else {
            fault
        },
    })
}

/// Converts awake spans into the per-state time breakdown, charging one
/// wake and one sleep transition per disjoint awake period out of the
/// sleep budget.
pub(crate) fn integrate(
    awake: &IntervalSet,
    duration: Micros,
    profile: &PhonePowerProfile,
    hub_mw: f64,
) -> PowerBreakdown {
    let t_awake = awake.total().min(duration);
    let sleep_budget = duration.saturating_sub(t_awake);
    let wanted_overhead = profile.transition_time * (2 * awake.len() as u64);
    let overhead = wanted_overhead.min(sleep_budget);
    PowerBreakdown {
        awake: t_awake,
        asleep: sleep_budget.saturating_sub(overhead),
        waking: overhead / 2,
        sleeping: overhead - overhead / 2,
        hub_mw,
    }
}

/// Duty cycling over `(start, end)`: wake, sample for one chunk, extend
/// while the classifier keeps detecting, then sleep. Returns the awake
/// spans and the detections.
fn duty_cycle(
    trace: &SensorTrace,
    app: &dyn Application,
    sleep: Micros,
    profile: &PhonePowerProfile,
    config: &SimConfig,
    (start, stop): (Micros, Micros),
) -> (Vec<(Micros, Micros)>, Vec<Micros>) {
    let chunk = config.awake_chunk;
    let mut spans = Vec::new();
    let mut detections = Vec::new();
    let mut t = start;
    while t < stop {
        let mut end = (t + chunk).min(stop);
        loop {
            let chunk_start = end.saturating_sub(chunk).max(t);
            let found = app.classify(trace, chunk_start, end);
            let fresh: Vec<Micros> = found
                .into_iter()
                .filter(|&d| d >= chunk_start && d < end)
                .collect();
            let keep_going = !fresh.is_empty() && end < stop;
            detections.extend(fresh);
            if !keep_going {
                break;
            }
            end = (end + chunk).min(stop);
        }
        spans.push((t, end));
        // The sleep interval is the total gap between sampling windows;
        // the two 1 s transitions live inside it (and consume it
        // entirely at the paper's shortest 2 s interval, which is why
        // DC-2 costs *more* than Always Awake — §5.4's 339 mW).
        t = end + sleep.max(profile.transition_time * 2);
    }
    (spans, detections)
}

/// Batching: the hub caches data while the phone sleeps; on each wake the
/// application processes the entire batch.
fn batching(
    trace: &SensorTrace,
    app: &dyn Application,
    interval: Micros,
    profile: &PhonePowerProfile,
    config: &SimConfig,
) -> (IntervalSet, Vec<Micros>, Vec<Micros>) {
    let duration = trace.duration();
    let mut spans = Vec::new();
    let mut detections = Vec::new();
    let mut delays = Vec::new();
    let mut processed_to = Micros::ZERO;
    let mut t = interval;
    while processed_to < duration {
        let wake_at = t.min(duration);
        // Process everything cached since the last batch; each detection
        // is only *discovered* now, a batch interval after the fact.
        for d in app.classify(trace, processed_to, wake_at) {
            delays.push(wake_at.saturating_sub(d));
            detections.push(d);
        }
        processed_to = wake_at;
        if wake_at >= duration {
            break;
        }
        spans.push((wake_at, (wake_at + config.awake_chunk).min(duration)));
        t = wake_at + config.awake_chunk + interval.max(profile.transition_time * 2);
    }
    (
        IntervalSet::from_spans(spans, Micros::ZERO),
        detections,
        delays,
    )
}

/// One program input: a channel and its series in the trace.
type Input<'t> = (SensorChannel, &'t TimeSeries);

/// The program's input channels resolved against the trace, and hub
/// channel rates taken from the trace itself.
fn hub_inputs<'t>(
    trace: &'t SensorTrace,
    program: &Program,
) -> Result<(Vec<Input<'t>>, ChannelRates), SimError> {
    let mut rates = ChannelRates::default();
    let mut inputs = Vec::new();
    for channel in program.channels() {
        let series = trace
            .channel(channel)
            .ok_or(SimError::MissingChannel(channel))?;
        rates = rates.with_rate(channel, series.rate_hz());
        inputs.push((channel, series));
    }
    Ok((inputs, rates))
}

/// Cuts the next run off the serial replay of `inputs`, where
/// `cursors[i]` is the next unread sample of input `i`.
///
/// The serial replay feeds the hub the earliest next sample across all
/// inputs, the first input winning ties. A run is the longest stretch of
/// one input that keeps winning that pick: its samples must stay
/// strictly earlier than the next sample of every input before it and no
/// later than that of every input after it. Returns the input's index
/// and the run's sample range, and advances its cursor past the run;
/// `None` once every input is drained.
fn next_run(inputs: &[Input<'_>], cursors: &mut [usize]) -> Option<(usize, Range<usize>)> {
    let next = |j: usize| {
        let (_, series) = inputs[j];
        (cursors[j] < series.len()).then(|| series.time_of(cursors[j]))
    };
    let mut best: Option<(usize, Micros)> = None;
    for j in 0..inputs.len() {
        if let Some(t) = next(j) {
            if best.is_none_or(|(_, bt)| t < bt) {
                best = Some((j, t));
            }
        }
    }
    let (i, _) = best?;
    // The other inputs' next-sample times are fixed while this one runs.
    let mut before_min: Option<Micros> = None;
    let mut after_min: Option<Micros> = None;
    for j in (0..inputs.len()).filter(|&j| j != i) {
        if let Some(t) = next(j) {
            let slot = if j < i {
                &mut before_min
            } else {
                &mut after_min
            };
            *slot = Some(slot.map_or(t, |m| m.min(t)));
        }
    }
    let wins = |t: Micros| before_min.is_none_or(|m| t < m) && after_min.is_none_or(|m| t <= m);
    let series = inputs[i].1;
    let start = cursors[i];
    let mut end = start + 1;
    while end < series.len() && wins(series.time_of(end)) {
        end += 1;
    }
    cursors[i] = end;
    Some((i, start..end))
}

/// The link-cost model: every transfer is CRC-framed over the phone's
/// UART, and a health probe is a round trip.
const LINK: SerialLink = SerialLink::NEXUS4_UART;

fn probe_time() -> Micros {
    LINK.framed_transfer_time(PROBE_FRAME_BYTES) * 2
}

/// Hub-resident wake-up condition (Predefined Activity or Sidewinder)
/// under `schedule`, interpreted at vector precision `P`.
///
/// The phone wakes briefly for every wake frame that reaches it. When
/// `fallback` is set it additionally duty-cycles on the main CPU, with
/// that sleep interval, through every window where the hub is unusable:
/// downtime, and the stretch after a frame lost past its retry budget.
#[allow(clippy::too_many_arguments)]
fn hub_wake<S: EventSink, P: Sample>(
    trace: &SensorTrace,
    app: &dyn Application,
    program: &Program,
    fallback: Option<Micros>,
    profile: &PhonePowerProfile,
    config: &SimConfig,
    schedule: &FaultSchedule,
    sink: &mut S,
) -> Result<(IntervalSet, Vec<Micros>, FaultCounters), SimError> {
    let duration = trace.duration();
    // Recovering from a hub reset takes the reboot, a program
    // re-download, and a probe to confirm the hub is back.
    let recovery =
        HUB_REBOOT_TIME + LINK.framed_transfer_time(program.to_string().len()) + probe_time();
    let mut plan = schedule.plan(duration, recovery);
    let Replay {
        wakes,
        lost,
        mut fault,
    } = replay::<S, P>(trace, program, &mut plan, sink)?;

    // Each wake keeps the phone up briefly; close wakes merge into a
    // continuous awake span covering the event.
    let spans = wakes.iter().map(|&w| (w, w + config.hub_chunk)).collect();
    let hub_awake = IntervalSet::from_spans(spans, config.merge_gap);

    // The application classifies over each awake period plus the raw
    // buffer the hub hands over.
    let mut detections = Vec::new();
    for &(start, end) in hub_awake.spans() {
        detections.extend(app.classify(trace, start.saturating_sub(config.lookback), end));
    }
    let Some(sleep) = fallback else {
        return Ok((hub_awake, detections, fault));
    };

    // Degraded mode: while the hub is down or the link saturated, fall
    // back to duty-cycling on the main CPU — the paper's DC strategy,
    // bounded to the outage window, so wake conditions keep firing (late,
    // at phone power) instead of never. A lost frame is covered by one
    // fallback duty cycle.
    let windows = plan
        .downtime()
        .iter()
        .copied()
        .chain(
            lost.iter()
                .map(|&t| (t, (t + sleep + config.awake_chunk).min(duration))),
        )
        .collect();
    let mut all_spans = hub_awake.spans().to_vec();
    for &(start, end) in IntervalSet::from_spans(windows, Micros::ZERO).spans() {
        fault.degraded_time += end - start;
        if S::ENABLED {
            sink.set_time(start);
            sink.record(Event::Degraded { entered: true });
        }
        // The exact duty-cycle pacing, bounded to the window, so a
        // full-trace outage reproduces DutyCycle detections identically.
        let (spans, found) = duty_cycle(trace, app, sleep, profile, config, (start, end));
        all_spans.extend(spans);
        detections.extend(found);
        if S::ENABLED {
            sink.set_time(end);
            sink.record(Event::Degraded { entered: false });
        }
    }
    Ok((
        IntervalSet::from_spans(all_spans, Micros::ZERO),
        detections,
        fault,
    ))
}

/// The trace times at which `program`, replayed fault-free over `trace`,
/// wakes the phone: the raw wake stream behind [`Strategy::HubWake`],
/// before the phone merges it into awake spans.
///
/// # Errors
///
/// Returns [`SimError`] if the program cannot be loaded or executed on
/// the trace.
pub fn hub_wake_times(trace: &SensorTrace, program: &Program) -> Result<Vec<Micros>, SimError> {
    let mut plan = FaultSchedule::none().plan(trace.duration(), Micros::ZERO);
    Ok(replay::<_, f64>(trace, program, &mut plan, &mut NullSink)?.wakes)
}

/// What one hub replay delivered to the phone.
#[derive(Default)]
struct Replay {
    /// Arrival time of every wake frame that reached the phone.
    wakes: Vec<Micros>,
    /// Trigger time of every wake whose frame ran out of retries.
    lost: Vec<Micros>,
    /// Link and hub fault activity.
    fault: FaultCounters,
}

/// Replays `trace` through `program` on the hub at vector precision `P`
/// under `plan` — the one place trace samples enter a [`HubRuntime`].
///
/// Samples go in the serial pick's order ([`next_run`]). Each run is cut
/// again at its channel's next plan edge ([`FaultPlan::channel_state`]), so a
/// stretch meets one hub state: due resets fire before its first sample,
/// a stretch the hub or channel drops is only counted, and a live one is
/// pushed as one batch. Traced runs (`S::ENABLED`) cut every sample into
/// its own stretch so each event carries its sample's trace time. Every
/// wake then crosses the link, its frame retried with capped exponential
/// backoff until it is delivered or the retry budget runs out; frame
/// fates are drawn in wake order. A clean first attempt costs nothing
/// extra, so an empty plan delivers every wake at its trigger time.
fn replay<S: EventSink, P: Sample>(
    trace: &SensorTrace,
    program: &Program,
    plan: &mut FaultPlan,
    sink: &mut S,
) -> Result<Replay, SimError> {
    let duration = trace.duration();
    let (inputs, rates) = hub_inputs(trace, program)?;
    let mut hub = HubRuntime::<_, P>::load_generic(program, &rates, &mut *sink)?;
    let frame_time = LINK.framed_transfer_time(WAKE_FRAME_BYTES);
    let probe_time = probe_time();
    let retry = plan.retry();
    let mut out = Replay::default();
    let mut next_reset = 0;
    // Samples each input has fed the hub since its last reset. The hub
    // tags a wake with its channel's sample count, which restarts at
    // zero on reset and skips dropped samples, so a wake maps back to an
    // offset from the start of the stretch that raised it.
    let mut fed = vec![0u64; inputs.len()];
    // Per input, whether its samples reach the hub, and until when.
    let mut state = vec![(true, Micros::ZERO); inputs.len()];
    let mut triggers: Vec<Micros> = Vec::new();
    let mut cursors = vec![0usize; inputs.len()];
    while let Some((i, run)) = next_run(&inputs, &mut cursors) {
        let (channel, series) = inputs[i];
        let mut start = run.start;
        while start < run.end {
            // The stretch's start time, needed only while an edge lies
            // ahead or to stamp traced events.
            let t = || series.time_of(start);
            // Fire any watchdog reset that has come due: the hub loses
            // all filter state and its sequence counters, and the phone
            // pays reboot + re-download + probe to bring it back.
            while let Some(&at) = plan.resets().get(next_reset).filter(|&&at| at <= t()) {
                if S::ENABLED {
                    hub.sink_mut().set_time(at);
                }
                hub.reset();
                if S::ENABLED {
                    hub.sink_mut().record(Event::ProgramRedownload);
                }
                fed.fill(0);
                out.fault.hub_resets += 1;
                out.fault.redownloads += 1;
                out.fault.recovery_time += plan.recovery();
                next_reset += 1;
            }
            if state[i].1 != Micros::MAX && t() >= state[i].1 {
                state[i] = plan.channel_state(channel, t());
            }
            let (live, until) = state[i];
            let end = match until {
                _ if S::ENABLED => start + 1,
                Micros::MAX => run.end,
                edge => (start + 1..run.end)
                    .find(|&s| series.time_of(s) >= edge)
                    .unwrap_or(run.end),
            };
            if S::ENABLED {
                hub.sink_mut().set_time(t());
            }
            if !live {
                out.fault.samples_dropped += (end - start) as u64;
                if S::ENABLED {
                    hub.sink_mut().record(Event::SampleDropped { channel });
                }
                start = end;
                continue;
            }
            let base = fed[i];
            fed[i] += (end - start) as u64;
            let wakes = hub.push_samples(channel, &series.samples()[start..end])?;
            triggers.clear();
            triggers.extend(
                wakes
                    .iter()
                    .map(|w| series.time_of(start + (w.seq - base) as usize)),
            );
            // Transfer each wake notification: retry corrupted or dropped
            // frames with capped exponential backoff until delivery or
            // budget exhaustion.
            for &tw in &triggers {
                let mut delay = Micros::ZERO;
                for attempt in 1u32.. {
                    out.fault.frames_sent += 1;
                    let fate = plan.next_frame_fate();
                    if S::ENABLED {
                        let outcome = match fate {
                            FrameFate::Delivered => FrameOutcome::Delivered,
                            FrameFate::Corrupted => FrameOutcome::Corrupted,
                            FrameFate::Dropped => FrameOutcome::Dropped,
                        };
                        hub.sink_mut().record(Event::LinkFrame { outcome, attempt });
                    }
                    match fate {
                        FrameFate::Delivered => {
                            out.wakes.push((tw + delay).min(duration));
                            break;
                        }
                        FrameFate::Corrupted => out.fault.frames_corrupted += 1,
                        FrameFate::Dropped => out.fault.frames_dropped += 1,
                    }
                    if attempt >= retry.max_attempts {
                        out.fault.frames_lost += 1;
                        if S::ENABLED {
                            hub.sink_mut().record(Event::FrameLost);
                        }
                        out.lost.push(tw);
                        break;
                    }
                    out.fault.frames_retried += 1;
                    delay = delay + retry.backoff_before(attempt) + probe_time + frame_time;
                    out.fault.recovery_time += probe_time + frame_time;
                }
            }
            start = end;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidewinder_sensors::{EventKind, LabeledInterval, SensorChannel, TimeSeries};

    /// A toy application over a synthetic square-wave trace: events are
    /// intervals where ACC_X exceeds 5; the classifier finds them
    /// perfectly within the data it sees.
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
            let mut out = Vec::new();
            let slice = series.slice(start, end);
            let offset = (start.as_secs_f64() * rate).ceil() as usize;
            let mut in_event = false;
            for (i, &v) in slice.iter().enumerate() {
                if v > 5.0 && !in_event {
                    in_event = true;
                    out.push(sidewinder_sensors::time::sample_time(offset + i, rate));
                } else if v <= 5.0 {
                    in_event = false;
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

    #[test]
    fn runs_merge_the_serial_pick_exactly() {
        // Rates whose sample times collide often, so ties (first input
        // wins) decide many picks.
        let series: Vec<TimeSeries> = [100.0, 40.0, 50.0]
            .iter()
            .map(|&rate| TimeSeries::from_samples(rate, vec![0.0; 37]).unwrap())
            .collect();
        let channels = [
            SensorChannel::AccX,
            SensorChannel::AccY,
            SensorChannel::AccZ,
        ];
        let inputs: Vec<Input<'_>> = channels.iter().copied().zip(series.iter()).collect();

        // The serial pick, one sample at a time, merged into runs.
        let mut cursors = vec![0usize; inputs.len()];
        let mut expected: Vec<(usize, Range<usize>)> = Vec::new();
        loop {
            let pick = (0..inputs.len())
                .filter(|&j| cursors[j] < inputs[j].1.len())
                .min_by_key(|&j| (inputs[j].1.time_of(cursors[j]), j));
            let Some(j) = pick else { break };
            match expected.last_mut() {
                Some((last, run)) if *last == j => run.end += 1,
                _ => expected.push((j, cursors[j]..cursors[j] + 1)),
            }
            cursors[j] += 1;
        }

        let mut cursors = vec![0usize; inputs.len()];
        let runs: Vec<_> = std::iter::from_fn(|| next_run(&inputs, &mut cursors)).collect();
        assert_eq!(runs, expected);
        assert!(runs.len() < 3 * 37, "runs must batch some samples");
    }

    /// 120 s at 50 Hz with bursts of 10 at [30,32) and [90,92).
    fn toy_trace() -> SensorTrace {
        let rate = 50.0;
        let n = 120 * 50;
        let mut x = vec![0.0f64; n];
        let mut trace = SensorTrace::new("toy");
        let mut gt = sidewinder_sensors::GroundTruth::new();
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

    fn run(strategy: Strategy) -> SimResult {
        simulate(
            &toy_trace(),
            &ToyApp,
            &strategy,
            &PhonePowerProfile::NEXUS4,
            &SimConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn always_awake_sees_everything_at_full_power() {
        let r = run(Strategy::AlwaysAwake);
        assert_eq!(r.recall(), 1.0);
        assert_eq!(r.precision(), 1.0);
        assert!((r.average_power_mw - 323.0).abs() < 1e-9);
        assert_eq!(r.breakdown.asleep, Micros::ZERO);
        assert_eq!(r.wake_ups, 1);
    }

    #[test]
    fn oracle_has_perfect_metrics_at_minimal_power() {
        let r = run(Strategy::Oracle);
        assert_eq!(r.recall(), 1.0);
        assert_eq!(r.precision(), 1.0);
        // Awake only 4 s of 120 s plus transitions.
        assert_eq!(r.breakdown.awake, Micros::from_secs(4));
        assert_eq!(r.wake_ups, 2);
        assert!(r.average_power_mw < 35.0, "{}", r.average_power_mw);
        // And strictly cheaper than Always Awake.
        assert!(r.average_power_mw < run(Strategy::AlwaysAwake).average_power_mw);
    }

    #[test]
    fn sidewinder_wakes_on_events_only() {
        let r = run(Strategy::HubWake {
            program: ToyApp.wake_condition(),
            hub_mw: 3.6,
            label: "Sw",
        });
        assert_eq!(r.recall(), 1.0, "sidewinder must catch both events");
        assert_eq!(r.wake_ups, 2);
        // Hub draw is included.
        assert!(r.breakdown.hub_mw == 3.6);
        // Power sits between Oracle and Always Awake.
        let oracle = run(Strategy::Oracle).average_power_mw;
        let aa = run(Strategy::AlwaysAwake).average_power_mw;
        assert!(r.average_power_mw > oracle);
        assert!(r.average_power_mw < aa / 3.0);
    }

    #[test]
    fn f32_hub_mode_detects_the_same_toy_events() {
        let r64 = run(sidewinder());
        let r32 = simulate_f32(
            &toy_trace(),
            &ToyApp,
            &sidewinder(),
            &PhonePowerProfile::NEXUS4,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(r32.recall(), 1.0);
        assert_eq!(r32.wake_ups, r64.wake_ups);
        assert_eq!(r32.detections, r64.detections);
        // Phone-side strategies are precision-independent: the hub never
        // buffers their data, so f32 mode must be exactly f64 mode.
        let aa64 = run(Strategy::AlwaysAwake);
        let aa32 = simulate_f32(
            &toy_trace(),
            &ToyApp,
            &Strategy::AlwaysAwake,
            &PhonePowerProfile::NEXUS4,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(aa64, aa32);
    }

    #[test]
    fn duty_cycle_recall_degrades_with_sleep_interval() {
        let short = run(Strategy::DutyCycle {
            sleep: Micros::from_secs(2),
        });
        let long = run(Strategy::DutyCycle {
            sleep: Micros::from_secs(30),
        });
        assert!(short.recall() >= long.recall());
        // Long sleep must miss at least one 2 s event.
        assert!(long.recall() < 1.0);
        // And long sleeping saves power.
        assert!(long.average_power_mw < short.average_power_mw);
    }

    #[test]
    fn short_duty_cycle_burns_power_on_transitions() {
        // With a 2 s sleep interval the phone spends much of its time
        // transitioning — the paper measures 339 mW, *above* Always
        // Awake.
        let r = run(Strategy::DutyCycle {
            sleep: Micros::from_secs(2),
        });
        assert!(
            r.average_power_mw > 200.0,
            "DC-2 should be expensive, got {}",
            r.average_power_mw
        );
    }

    #[test]
    fn batching_has_perfect_recall_with_low_power() {
        let r = run(Strategy::Batching {
            interval: Micros::from_secs(10),
            hub_mw: 3.6,
        });
        assert_eq!(r.recall(), 1.0, "batching sees all data");
        let aa = run(Strategy::AlwaysAwake).average_power_mw;
        assert!(r.average_power_mw < aa / 2.0);
    }

    #[test]
    fn hub_wake_fails_cleanly_on_missing_channel() {
        let mut trace = SensorTrace::new("no-acc");
        trace.insert(
            SensorChannel::Mic,
            TimeSeries::from_samples(8000.0, vec![0.0; 100]).unwrap(),
        );
        let err = simulate(
            &trace,
            &ToyApp,
            &Strategy::HubWake {
                program: ToyApp.wake_condition(),
                hub_mw: 3.6,
                label: "Sw",
            },
            &PhonePowerProfile::NEXUS4,
            &SimConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::MissingChannel(SensorChannel::AccX));
        assert!(err.to_string().contains("ACC_X"));
    }

    #[test]
    fn breakdown_times_partition_the_trace() {
        for strategy in [
            Strategy::AlwaysAwake,
            Strategy::Oracle,
            Strategy::DutyCycle {
                sleep: Micros::from_secs(5),
            },
            Strategy::Batching {
                interval: Micros::from_secs(10),
                hub_mw: 3.6,
            },
            Strategy::HubWake {
                program: ToyApp.wake_condition(),
                hub_mw: 3.6,
                label: "Sw",
            },
        ] {
            let r = run(strategy.clone());
            assert_eq!(
                r.breakdown.total(),
                Micros::from_secs(120),
                "{} does not partition time",
                strategy.label()
            );
        }
    }

    #[test]
    fn detections_are_sorted_and_unique() {
        let r = run(Strategy::AlwaysAwake);
        let mut sorted = r.detections.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(r.detections, sorted);
        assert!(!r.detections.is_empty());
    }

    fn run_faulted(strategy: Strategy, schedule: &FaultSchedule) -> SimResult {
        simulate_with_faults(
            &toy_trace(),
            &ToyApp,
            &strategy,
            &PhonePowerProfile::NEXUS4,
            &SimConfig::default(),
            schedule,
        )
        .unwrap()
    }

    fn sidewinder() -> Strategy {
        Strategy::HubWake {
            program: ToyApp.wake_condition(),
            hub_mw: 3.6,
            label: "Sw",
        }
    }

    fn sidewinder_degraded(fallback_sleep: Micros) -> Strategy {
        Strategy::HubWakeDegraded {
            program: ToyApp.wake_condition(),
            hub_mw: 3.6,
            label: "Sw+",
            fallback_sleep,
        }
    }

    #[test]
    fn empty_schedule_is_bit_identical_to_fault_free_path() {
        for strategy in [
            Strategy::AlwaysAwake,
            Strategy::DutyCycle {
                sleep: Micros::from_secs(5),
            },
            sidewinder(),
            sidewinder_degraded(Micros::from_secs(5)),
        ] {
            let clean = run(strategy.clone());
            let faulted = run_faulted(strategy, &FaultSchedule::none());
            assert_eq!(clean, faulted);
            assert!(faulted.fault.is_clean());
        }
    }

    #[test]
    fn corrupted_frames_are_retried_and_recovered() {
        let schedule = FaultSchedule::seeded(11).with_frame_corruption(0.4);
        let r = run_faulted(sidewinder(), &schedule);
        assert!(r.fault.frames_corrupted > 0);
        assert!(r.fault.frames_retried > 0);
        assert!(r.fault.frames_sent > r.fault.frames_retried);
        assert!(r.fault.recovery_time > Micros::ZERO);
        // Retransmissions are plentiful enough that both events still get
        // through, just at a higher energy bill than the clean run.
        assert_eq!(r.recall(), 1.0);
        assert!(r.average_power_mw > run(sidewinder()).average_power_mw);
    }

    #[test]
    fn hub_reset_forces_program_redownload() {
        let schedule = FaultSchedule::seeded(1).with_hub_reset_at(Micros::from_secs(60));
        let r = run_faulted(sidewinder(), &schedule);
        assert_eq!(r.fault.hub_resets, 1);
        assert_eq!(r.fault.redownloads, 1);
        assert!(r.fault.recovery_time >= HUB_REBOOT_TIME);
        // The reset lands between the two events, so both still fire.
        assert_eq!(r.recall(), 1.0);
    }

    #[test]
    fn downtime_without_fallback_misses_events() {
        // Hub down across the first event: plain HubWake loses it.
        let schedule = FaultSchedule::seeded(1)
            .with_hub_downtime(Micros::from_secs(20), Micros::from_secs(40));
        let r = run_faulted(sidewinder(), &schedule);
        assert!(r.fault.samples_dropped > 0);
        assert!(r.recall() < 1.0, "recall {}", r.recall());
    }

    #[test]
    fn degraded_mode_covers_downtime_like_duty_cycling() {
        // Hub down for the whole trace: the degraded strategy must fire
        // exactly the detections DutyCycle fires at the fallback interval.
        let sleep = Micros::from_secs(5);
        let schedule =
            FaultSchedule::seeded(1).with_hub_downtime(Micros::ZERO, Micros::from_secs(120));
        let degraded = run_faulted(sidewinder_degraded(sleep), &schedule);
        let dc = run(Strategy::DutyCycle { sleep });
        assert_eq!(degraded.detections, dc.detections);
        assert_eq!(degraded.stats, dc.stats);
        assert_eq!(degraded.wake_ups, dc.wake_ups);
        assert_eq!(degraded.fault.degraded_time, Micros::from_secs(120));
        assert_eq!(degraded.fault.samples_dropped, 6000);
    }

    #[test]
    fn faulted_runs_are_reproducible() {
        let schedule = FaultSchedule::seeded(99)
            .with_frame_corruption(0.3)
            .with_frame_drops(0.2)
            .with_hub_resets_every(Micros::from_secs(40));
        let a = run_faulted(sidewinder_degraded(Micros::from_secs(5)), &schedule);
        let b = run_faulted(sidewinder_degraded(Micros::from_secs(5)), &schedule);
        assert_eq!(a, b);
        assert!(!a.fault.is_clean());
    }

    #[test]
    fn breakdown_still_partitions_time_under_faults() {
        let schedule = FaultSchedule::seeded(5)
            .with_frame_corruption(0.5)
            .with_hub_reset_at(Micros::from_secs(50));
        let r = run_faulted(sidewinder_degraded(Micros::from_secs(5)), &schedule);
        assert_eq!(r.breakdown.total(), Micros::from_secs(120));
    }
}
