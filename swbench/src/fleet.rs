//! The fleet workloads: an operator submits wake conditions over the
//! wire, the service ingests them (optimize, deduplicate, certify), and
//! a rollup query runs the fleet.
//!
//! The untraced run drives only the wire: each timed round builds a
//! fresh `FleetService`, submits every condition, and queries the
//! rollup. The traced run calls the shard loop itself, device by device,
//! rebuilds the rollup, and requires its digest to equal the service's.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use sidewinder_apps::{HeadbuttsApp, StepsApp, TransitionsApp};
use sidewinder_fleet::wire::{
    decode_message, decode_submit_ack, encode_message, encode_query_rollup, MessageType,
};
use sidewinder_fleet::{
    run_fleet, DeviceArchetype, DeviceDisposition, FaultClass, FleetConfig, FleetFaultModel,
    FleetRollup, FleetService, ShardRollup, ShardSummary, SubmitAck,
};
use sidewinder_ir::Program;
use sidewinder_sensors::{SensorChannel, SensorTrace};
use sidewinder_sim::engine::{simulate_with_faults, SimConfig};
use sidewinder_sim::power::PhonePowerProfile;
use sidewinder_sim::Application;

use crate::metrics::{peak_rss_mb, record_calls, LayerRound, Outcome};
use crate::pace::Pace;
use crate::side::{self, Cores, Input, Interpreters};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::{json, rounds_for, save_trace, Args, Workload};

/// The dense suite: eight distinct accelerometer conditions, then a
/// twin of the fourth with renumbered ids that ingest must deduplicate.
const SUITE: [(&str, &str); 9] = [
    ("1_x_swing", include_str!("../suite/1_x_swing.swir")),
    ("2_y_sway", include_str!("../suite/2_y_sway.swir")),
    ("3_z_tilt", include_str!("../suite/3_z_tilt.swir")),
    ("4_x_range", include_str!("../suite/4_x_range.swir")),
    ("5_z_energy", include_str!("../suite/5_z_energy.swir")),
    ("6_y_zcr", include_str!("../suite/6_y_zcr.swir")),
    ("7_z_band", include_str!("../suite/7_z_band.swir")),
    ("8_x_band", include_str!("../suite/8_x_band.swir")),
    (
        "9_x_range_twin",
        include_str!("../suite/9_x_range_twin.swir"),
    ),
];

/// Rollup digests of full-size runs on each workload's default seed.
const PINNED_ACCEL: u64 = 0x4f48_d567_acb0_5c42;
const PINNED_SUITE: u64 = 0x4209_6804_e78a_08ee;

/// Fewest timed or traced rounds a run makes.
const MIN_ROUNDS: usize = 3;
/// Devices per round on each workload. Short rounds keep each round's
/// pace samples close to the work they rescale; `fleet_accel`'s cheaper
/// devices are twice as many, so a seed's device mix varies less.
const ACCEL_DEVICES: u64 = 200;
const SUITE_DEVICES: u64 = 100;
/// Fresh ingests per set-up sample.
const SETUP_BATCH: u64 = 16;
/// The traced run replays every `SIDE_STRIDE`-th device through the
/// single-layer side calls.
const SIDE_STRIDE: u64 = 25;

/// One fleet workload, made from the seed.
struct Spec {
    workload: Workload,
    /// (label, IR text) in submission order. Exactly the submissions
    /// labelled `*_twin` must come back deduplicated.
    conditions: Vec<(String, String)>,
    config: FleetConfig,
    /// The digest the rollup must have, on the default seed at full size.
    pinned: Option<u64>,
}

impl Spec {
    fn new(args: &Args) -> Spec {
        let (conditions, faults, devices, pinned): (Vec<(String, String)>, _, _, _) =
            match args.workload {
                Workload::FleetAccel => {
                    let apps: [Box<dyn Application>; 3] = [
                        Box::new(StepsApp::new()),
                        Box::new(TransitionsApp::new()),
                        Box::new(HeadbuttsApp::new()),
                    ];
                    let conditions = apps
                        .iter()
                        .map(|a| (a.name().to_string(), a.wake_condition().to_string()))
                        .collect();
                    (
                        conditions,
                        FleetFaultModel::default(),
                        ACCEL_DEVICES,
                        PINNED_ACCEL,
                    )
                }
                _ => {
                    let conditions = SUITE
                        .iter()
                        .map(|(label, text)| (label.to_string(), text.to_string()))
                        .collect();
                    (
                        conditions,
                        FleetFaultModel::none(),
                        SUITE_DEVICES,
                        PINNED_SUITE,
                    )
                }
            };
        let mut config = FleetConfig {
            faults,
            ..FleetConfig::new(args.seed, devices)
        };
        if args.smoke {
            config.devices = 16;
            config.shard_size = 8;
        }
        let default_size = !args.smoke;
        Spec {
            workload: args.workload,
            conditions,
            config,
            pinned: (default_size && args.seed == args.workload.default_seed()).then_some(pinned),
        }
    }

    fn trace_seconds(&self) -> f64 {
        self.config.devices as f64 * self.config.device_duration.as_secs_f64()
    }
}

/// A service with every condition submitted over the wire.
struct Ingested {
    service: FleetService,
    acks: Vec<SubmitAck>,
    /// Per-submission wall time, submit to decoded ack.
    submit_us: Vec<f64>,
}

fn ingest(spec: &Spec) -> Result<Ingested, String> {
    let mut service = FleetService::new(spec.config.clone()).with_workers(1);
    let mut acks = Vec::new();
    let mut submit_us = Vec::new();
    for (label, text) in &spec.conditions {
        let t = Instant::now();
        let reply = service.handle(&encode_message(MessageType::SubmitProgram, text.as_bytes()));
        let (kind, payload) =
            decode_message(&reply).map_err(|e| format!("{label}: undecodable reply: {e}"))?;
        submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        match kind {
            MessageType::SubmitAck => {
                acks.push(decode_submit_ack(&payload).map_err(|e| format!("{label}: {e}"))?)
            }
            MessageType::ErrorReply => {
                return Err(format!(
                    "{label} rejected: {}",
                    String::from_utf8_lossy(&payload)
                ))
            }
            other => return Err(format!("{label}: unexpected reply {other:?}")),
        }
    }
    for ((label, _), ack) in spec.conditions.iter().zip(&acks) {
        if ack.cert_digest == 0 {
            return Err(format!("{label}: served uncertified (cert_digest 0)"));
        }
        let twin = label.ends_with("_twin");
        if ack.deduplicated != twin {
            return Err(format!(
                "{label}: deduplicated is {}, expected {twin}",
                ack.deduplicated
            ));
        }
    }
    Ok(Ingested {
        service,
        acks,
        submit_us,
    })
}

/// What a rollup reply says, as far as the checks go.
struct Rollup {
    digest: u64,
    json: String,
}

fn query(service: &mut FleetService) -> Result<String, String> {
    let reply = service.handle(&encode_query_rollup());
    let (kind, payload) = decode_message(&reply).map_err(|e| format!("undecodable reply: {e}"))?;
    let text = String::from_utf8_lossy(&payload).into_owned();
    match kind {
        MessageType::RollupReply => Ok(text),
        MessageType::ErrorReply => Err(format!("rollup query failed: {text}")),
        other => Err(format!("unexpected reply {other:?} to the rollup query")),
    }
}

fn count(json: &str, key: &str) -> Result<u64, String> {
    json::field(json, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("rollup reply has no count {key:?}"))
}

/// Devices the rollup reports as failed, panicked or incompatible, and
/// devices it covers. A missing count is an error, never a zero.
fn failures_and_devices(json: &str) -> Result<(u64, u64), String> {
    let failed = ["failed", "panicked", "incompatible"]
        .iter()
        .map(|k| count(json, k))
        .sum::<Result<u64, String>>()?;
    Ok((failed, count(json, "devices")?))
}

/// One wire round: a fresh service, every submission, one query.
struct WireRound {
    rollup: Rollup,
    /// Wall time of the query, which runs the fleet.
    query_s: f64,
}

fn wire_round(spec: &Spec) -> Result<WireRound, String> {
    let mut ingested = ingest(spec)?;
    let t = Instant::now();
    let json = query(&mut ingested.service)?;
    let query_s = t.elapsed().as_secs_f64();
    let digest = json::field(&json, "digest")
        .and_then(json::hex)
        .ok_or("rollup reply carries no digest")?;
    Ok(WireRound {
        rollup: Rollup { digest, json },
        query_s,
    })
}

/// Folds one round's rollup into the outcome: counts its operations
/// and failures, and checks it against the reference digest.
fn check_round(
    spec: &Spec,
    out: &mut Outcome,
    round: &str,
    result: Result<Rollup, String>,
    reference: Option<u64>,
) -> Option<Rollup> {
    let name = spec.workload.name();
    out.attempted += spec.config.devices + spec.conditions.len() as u64 + 1;
    let rollup = match result {
        Ok(r) => r,
        Err(e) => {
            out.failed += 1;
            out.problem(format!("{name} {round}: {e}"));
            return None;
        }
    };
    let (failed, devices) = match failures_and_devices(&rollup.json) {
        Ok(counts) => counts,
        Err(e) => {
            out.problem(format!("{name} {round}: {e}"));
            return None;
        }
    };
    out.failed += failed;
    if devices != spec.config.devices {
        out.problem(format!(
            "{name} {round}: rollup does not cover every device"
        ));
    }
    if let Some(want) = reference.filter(|&d| d != rollup.digest) {
        out.problem(format!(
            "{name} {round}: rollup digest {:#018x} differs from {want:#018x}",
            rollup.digest
        ));
    }
    // The first round carries the pin; later ones must match it.
    let pin = spec.pinned.filter(|_| reference.is_none());
    if let Some(pin) = pin.filter(|&p| p != rollup.digest) {
        out.problem(format!(
            "{name} {round}: rollup digest {:#018x} differs from the pinned {pin:#018x}",
            rollup.digest
        ));
    }
    Some(rollup)
}

fn rollup_note(json: &str) -> String {
    let keys = [
        "ok",
        "wake_ups",
        "detections",
        "degraded_devices",
        "frames_sent",
        "frames_lost",
        "hub_resets",
    ];
    let fields: Vec<String> = keys
        .iter()
        .map(|k| format!("{k} {}", json::field(json, k).unwrap_or("?")))
        .collect();
    format!("  rollup: {}\n", fields.join(", "))
}

/// Runs a fleet workload.
pub fn run(args: &Args) -> (Outcome, String) {
    let spec = Spec::new(args);
    if args.trace {
        traced(args, &spec)
    } else {
        untraced(args, &spec)
    }
}

fn untraced(args: &Args, spec: &Spec) -> (Outcome, String) {
    let name = spec.workload.name();
    let mut out = Outcome::default();
    let mut notes = String::new();
    let pace = Pace::new();
    let warm = wire_round(spec).map(|w| w.rollup);
    let Some(reference) = check_round(spec, &mut out, "warm-up", warm, None) else {
        return (out, notes);
    };
    let mut devices_per_s = Vec::new();
    let mut wall_trace_s_per_s = Vec::new();
    rounds_for(args.measure, MIN_ROUNDS, |r| {
        let label = format!("round {r}");
        let (result, t) = pace.time(|| wire_round(spec));
        let result = result.map(|w| w.rollup);
        if check_round(spec, &mut out, &label, result, Some(reference.digest)).is_some() {
            out.values
                .push("trace_s_per_s", spec.trace_seconds() / t.paced_s);
            devices_per_s.push(spec.config.devices as f64 / t.paced_s);
            wall_trace_s_per_s.push(spec.trace_seconds() / t.raw_s);
        }
        // One ingest takes well under a millisecond, so each set-up
        // sample times a batch of them, each into a fresh service.
        out.attempted += SETUP_BATCH * spec.conditions.len() as u64;
        let (ingested, t) = pace.time(|| (0..SETUP_BATCH).try_for_each(|_| ingest(spec).map(drop)));
        match ingested {
            Ok(()) => out.values.push("setup_s", t.paced_s / SETUP_BATCH as f64),
            Err(e) => {
                out.failed += 1;
                out.problem(format!("{name} {label} set-up: {e}"));
            }
        }
    });
    if let Some(rss) = peak_rss_mb() {
        out.values.push("peak_rss_mb", rss);
    }
    notes.push_str(&format!(
        "  {} devices x {} s per round, 1 worker; devices_per_s p90 {:.1}; wall-clock trace_s_per_s median {:.1}\n  rollup digest {:#018x}\n",
        spec.config.devices,
        spec.config.device_duration.as_secs_f64(),
        percentile(&devices_per_s, 0.9),
        median(&wall_trace_s_per_s),
        reference.digest
    ));
    notes.push_str(&rollup_note(&reference.json));
    (out, notes)
}

/// One traced round: the shared per-layer numbers plus what only a
/// fleet has.
struct FleetRound {
    layer: LayerRound,
    digest: u64,
    failed: u64,
    /// Samples the trace generators produced (every channel).
    generated: u64,
    tracegen_ns: f64,
    /// Spec derivation, rollup absorb and merge, rollup rendering.
    fleet_ns: f64,
    spec_ns: f64,
    absorb_ns: f64,
    clean_ns: Vec<f64>,
    faulty_ns: Vec<f64>,
}

impl FleetRound {
    fn unattributed(&self) -> f64 {
        let l = &self.layer;
        (l.loop_ns - self.tracegen_ns - l.sim_ns - self.fleet_ns) / l.loop_ns
    }
}

fn traced(args: &Args, spec: &Spec) -> (Outcome, String) {
    let name = spec.workload.name();
    let config = &spec.config;
    let mut out = Outcome::default();
    let mut notes = String::new();

    let ingested = match ingest(spec) {
        Ok(i) => i,
        Err(e) => {
            out.failed += 1;
            out.problem(format!("{name} setup: {e}"));
            return (out, notes);
        }
    };
    let program = ingested
        .service
        .served_program()
        .expect("ingest submitted at least one condition");
    match side::ingest(
        ingested.service.submissions(),
        std::slice::from_ref(&program),
    ) {
        Ok(c) => c.record(&mut out),
        Err(e) => out.problem(format!("{name} ingest passes: {e}")),
    }
    out.values
        .push("count.served_nodes", program.nodes().count() as f64);
    notes.push_str(&format!(
        "  ingest: {} submissions, {} served unique, fused program {} nodes; ingest.submit_us.max {:.1}\n",
        ingested.acks.len(),
        ingested.acks.last().map_or(0, |a| a.active_unique),
        program.nodes().count(),
        ingested.submit_us.iter().copied().fold(0.0, f64::max),
    ));

    // An untimed warm-up, then the untraced reference: its digest is
    // what the traced pass must rebuild, and its wall time is the base
    // of the tracing overhead.
    let warm = wire_round(spec).map(|w| w.rollup);
    let Some(reference) = check_round(spec, &mut out, "warm-up", warm, None) else {
        return (out, notes);
    };
    let t = Instant::now();
    let result = wire_round(spec);
    let reference_s = t.elapsed().as_secs_f64();
    let query_s = result.as_ref().map_or(f64::NAN, |w| w.query_s);
    let result = result.map(|w| w.rollup);
    check_round(
        spec,
        &mut out,
        "reference round",
        result,
        Some(reference.digest),
    );
    notes.push_str(&format!(
        "  reference round {reference_s:.3} s, of which the rollup query {query_s:.3} s\n"
    ));
    notes.push_str(&rollup_note(&reference.json));
    scaling_row(spec, &program, reference.digest, &mut out, &mut notes);

    let rounds_hint = (args.measure.as_secs_f64() / reference_s) as usize + MIN_ROUNDS;
    let mut tracer = Tracer::with_capacity(rounds_hint * (config.devices as usize * 6 + 64));
    let mut cores = Cores::new();
    let mut rounds = Vec::new();
    rounds_for(args.measure, MIN_ROUNDS, |r| {
        out.attempted += config.devices;
        match traced_round(spec, &program, &mut tracer, &mut cores) {
            Ok(round) => {
                out.failed += round.failed;
                if round.digest != reference.digest {
                    out.problem(format!(
                        "{name} traced round {r}: rebuilt digest {:#018x} differs from the service's {:#018x}",
                        round.digest, reference.digest
                    ));
                }
                if !(0.0..=0.05).contains(&round.unattributed()) {
                    out.problem(format!(
                        "{name} traced round {r}: spans leave {:.1}% of the loop unattributed",
                        round.unattributed() * 100.0
                    ));
                }
                round.layer.record(&mut out, reference_s);
                out.values.push(
                    "tracegen.ns_per_sample",
                    round.tracegen_ns / round.generated.max(1) as f64,
                );
                rounds.push(round);
            }
            Err(e) => {
                out.failed += 1;
                out.problem(format!("{name} traced round {r}: {e}"));
            }
        }
    });
    let layers: Vec<LayerRound> = rounds
        .iter_mut()
        .map(|r| std::mem::take(&mut r.layer))
        .collect();
    record_calls(&mut out, &layers);

    let over = |f: &dyn Fn(&FleetRound, &LayerRound) -> f64| {
        median(
            &rounds
                .iter()
                .zip(&layers)
                .map(|(r, l)| f(r, l))
                .collect::<Vec<_>>(),
        )
    };
    // NaN when the fleet has no devices of a class.
    let mean_us = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64 / 1e3;
    let span_us = |name: &str, q: f64| {
        let us: Vec<f64> = tracer
            .durations(0, name)
            .iter()
            .map(|&d| d as f64 / 1e3)
            .collect();
        percentile(&us, q)
    };
    notes.push_str(&format!(
        "  shares: tracegen {:.3}, hub {:.3}, sim_self {:.3}, fleet {:.4}, unattributed {:.4}\n",
        over(&|r, l| r.tracegen_ns / l.loop_ns),
        over(&|_, l| l.hub_ns / l.loop_ns),
        over(&|_, l| (l.sim_ns - l.hub_ns) / l.loop_ns),
        over(&|r, l| r.fleet_ns / l.loop_ns),
        over(&|r, l| (l.loop_ns - r.tracegen_ns - l.sim_ns - r.fleet_ns) / l.loop_ns),
    ));
    notes.push_str(&format!(
        "  sim.clean_device_us {:.1}, sim.faulty_device_us {:.1}, fleet.device_us p50 {:.1} p99 {:.1}\n",
        over(&|r, _| mean_us(&r.clean_ns)),
        over(&|r, _| mean_us(&r.faulty_ns)),
        span_us("fleet.device", 0.5),
        span_us("fleet.device", 0.99),
    ));
    notes.push_str(&format!(
        "  fleet.spec_us {:.2}, fleet.absorb_us {:.2}, fleet.merge_us {:.1}, fleet.rollup_json_us {:.1}\n",
        over(&|r, _| r.spec_ns / config.devices as f64 / 1e3),
        over(&|r, _| r.absorb_ns / config.devices as f64 / 1e3),
        span_us("fleet.merge", 0.5),
        span_us("fleet.rollup_json", 0.5),
    ));
    save_trace(args, &tracer, &mut out, &mut notes);
    (out, notes)
}

/// Worker scaling as its own row: one fleet run on one worker and one
/// on up to two (never more than the processors), with quarter-size
/// shards so there is work to split. Both must reproduce the digest.
fn scaling_row(spec: &Spec, program: &Program, digest: u64, out: &mut Outcome, notes: &mut String) {
    let processors = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = processors.min(2);
    let split = FleetConfig {
        shard_size: spec.config.devices.div_ceil(4).max(1),
        ..spec.config.clone()
    };
    let mut secs = [0.0; 2];
    for (slot, w) in [1, workers].into_iter().enumerate() {
        let t = Instant::now();
        let rollup = run_fleet(&split, program, w);
        secs[slot] = t.elapsed().as_secs_f64();
        out.attempted += split.devices;
        if rollup.digest() != digest {
            out.problem(format!(
                "{} scaling row: {w}-worker digest {:#018x} differs from {digest:#018x}",
                spec.workload.name(),
                rollup.digest()
            ));
        }
    }
    out.values.push("batch.speedup_2w", secs[0] / secs[1]);
    notes.push_str(&format!(
        "  batch: 1 worker {:.3} s, {workers} workers {:.3} s ({processors} processors)\n",
        secs[0], secs[1]
    ));
}

/// Samples `trace` holds on `channels`.
fn samples(trace: &SensorTrace, channels: impl Iterator<Item = SensorChannel>) -> u64 {
    channels
        .map(|c| trace.channel(c).map_or(0, |s| s.len() as u64))
        .sum()
}

fn traced_round(
    spec: &Spec,
    program: &Program,
    tracer: &mut Tracer,
    cores: &mut Cores,
) -> Result<FleetRound, String> {
    let config = &spec.config;
    let apps: Vec<(DeviceArchetype, Box<dyn Application + Send + Sync>)> =
        DeviceArchetype::ALL.iter().map(|&a| (a, a.app())).collect();
    let strategy = config.strategy_for(program);
    let profile = PhonePowerProfile::default();
    let sim_config = SimConfig::default();
    let channels = program.channels();

    let mark = tracer.mark();
    let start = Instant::now();
    let mut layer = LayerRound::default();
    let mut generated = 0;
    let mut clean_ns = Vec::new();
    let mut faulty_ns = Vec::new();
    let mut sampled: Vec<SensorTrace> = Vec::new();
    let mut totals = ShardRollup::new(0);
    let mut shards = Vec::new();
    for shard in 0..config.shards() {
        let shard_span = tracer.begin("fleet.shard", None, shard);
        let mut rollup = ShardRollup::new(shard);
        for device_id in config.shard_range(shard) {
            let dev = tracer.begin("fleet.device", Some(shard_span), device_id);
            let device = tracer.time("fleet.spec", Some(dev), device_id, || {
                config.device_spec(device_id)
            });
            let app = &apps
                .iter()
                .find(|(a, _)| *a == device.archetype)
                .expect("every archetype has an app")
                .1;
            // Panic isolation per device, as in the service's shard loop.
            let run = catch_unwind(AssertUnwindSafe(|| {
                let trace = tracer.time("tracegen", Some(dev), device_id, || device.trace());
                if let Some(ch) = channels.iter().find(|&&c| !trace.has_channel(c)) {
                    return Err(format!("condition reads {ch}, which the trace lacks"));
                }
                let sim = tracer.begin("sim", Some(dev), device_id);
                let result = simulate_with_faults(
                    &trace,
                    app.as_ref(),
                    &strategy,
                    &profile,
                    &sim_config,
                    &device.faults,
                );
                let ns = tracer.end(sim) as f64;
                Ok((trace, result, ns))
            }));
            let absorb = tracer.begin("fleet.absorb", Some(dev), device_id);
            match run {
                Ok(Ok((trace, Ok(result), ns))) => {
                    rollup.absorb_ok(device.fault_class, &result);
                    layer.call_ns.push(ns);
                    layer.wake_ups += result.wake_ups as u64;
                    layer.detections += result.stats.detections as u64;
                    layer.power_mw += result.average_power_mw;
                    layer.pushed += samples(&trace, channels.iter().copied());
                    generated += samples(&trace, trace.channels());
                    if device.fault_class == FaultClass::Clean {
                        clean_ns.push(ns);
                    } else {
                        faulty_ns.push(ns);
                    }
                    if device_id % SIDE_STRIDE == 0 {
                        sampled.push(trace);
                    }
                }
                Ok(Ok((_, Err(e), _))) => {
                    rollup.absorb_failure(device_id, DeviceDisposition::Failed, e.to_string())
                }
                Ok(Err(why)) => {
                    rollup.absorb_failure(device_id, DeviceDisposition::Incompatible, why)
                }
                Err(_) => rollup.absorb_failure(
                    device_id,
                    DeviceDisposition::Panicked,
                    "device panicked".to_string(),
                ),
            }
            tracer.end(absorb);
            tracer.end(dev);
        }
        tracer.time("fleet.merge", Some(shard_span), shard, || {
            shards.push(ShardSummary {
                shard,
                devices: rollup.devices,
                failed: rollup.failed + rollup.panicked,
                frames_lost: rollup.fault.frames_lost,
                hub_resets: rollup.fault.hub_resets,
                digest: rollup.digest(),
            });
            totals.merge(&rollup);
        });
        tracer.end(shard_span);
    }
    let failed = totals.failed + totals.panicked + totals.incompatible;
    let rollup = FleetRollup {
        seed: config.seed,
        totals,
        shards,
    };
    tracer.time("fleet.rollup_json", None, 0, || rollup.to_json());
    layer.loop_ns = start.elapsed().as_nanos() as f64;

    // Side calls, after the loop: every interpreter on the sampled
    // devices' traces, the kernels on the first one's first channel.
    for (i, trace) in sampled.iter().enumerate() {
        let input =
            Input::new(program, trace, usize::MAX).ok_or("sampled trace lacks a channel")?;
        let m = tracer.time("side.interpreters", None, i as u64, || {
            Interpreters::measure(cores, program, &input)
        })?;
        layer.interpreters.add(&m);
        if layer.kernels.is_none() {
            let series = trace
                .channel(channels[0])
                .ok_or("sampled trace lacks a channel")?;
            let k = tracer.time("side.kernels", None, i as u64, || {
                side::kernels(series.samples(), series.rate_hz())
            })?;
            layer.kernels = Some(k);
        }
    }

    let ns = |name: &str| tracer.total(mark, name) as f64;
    layer.sim_ns = ns("sim");
    layer.hub_ns = layer.pushed as f64 * layer.interpreters.hub.ns_per_sample();
    let spec_ns = ns("fleet.spec");
    let absorb_ns = ns("fleet.absorb");
    Ok(FleetRound {
        digest: rollup.digest(),
        failed,
        generated,
        tracegen_ns: ns("tracegen"),
        fleet_ns: spec_ns + absorb_ns + ns("fleet.merge") + ns("fleet.rollup_json"),
        spec_ns,
        absorb_ns,
        clean_ns,
        faulty_ns,
        layer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn rollup_failure_counts_are_required() {
        let args = Args {
            workload: Workload::FleetAccel,
            seed: 1,
            measure: Duration::ZERO,
            trace: false,
            smoke: true,
            trace_out: None,
        };
        let spec = Spec::new(&args);
        let json = format!(
            "{{\n  \"devices\": {},\n  \"incompatible\": 1,\n  \"failed\": 2,\n  \"panicked\": 0\n}}\n",
            spec.config.devices
        );
        let mut out = Outcome::default();
        let rollup = Rollup {
            digest: 1,
            json: json.clone(),
        };
        assert!(check_round(&spec, &mut out, "round 0", Ok(rollup), None).is_some());
        assert_eq!(out.failed, 3);
        assert!(out.problems.is_empty(), "{:?}", out.problems);

        let mut out = Outcome::default();
        let rollup = Rollup {
            digest: 1,
            json: json.replace("  \"failed\": 2,\n", ""),
        };
        assert!(check_round(&spec, &mut out, "round 0", Ok(rollup), None).is_none());
        assert_eq!(
            out.problems,
            vec!["fleet_accel round 0: rollup reply has no count \"failed\""]
        );
        assert!(out.json_line(&[]).starts_with("{\"correct\": false"));
    }
}
