//! Cross-crate integration tests exercised through the facade: the full
//! path from the developer API through the intermediate language, the
//! hub interpreter, trace persistence, and the simulator.

use sidewinder::core::algorithm::{MinThreshold, MovingAverage, VectorMagnitude};
use sidewinder::core::{
    ProcessingBranch, ProcessingPipeline, SensorEvent, SidewinderSensorManager,
};
use sidewinder::fleet::{run_fleet, FleetConfig};
use sidewinder::hub::runtime::{ChannelRates, HubRuntime};
use sidewinder::ir::fnv::Fnv1a;
use sidewinder::ir::Program;
use sidewinder::opt::{fuse_programs, optimize, OptOptions};
use sidewinder::sensors::{csv, EventKind, Micros, SensorChannel};
use sidewinder::sim::{simulate, Application, PhonePowerProfile, SimConfig, Strategy};
use sidewinder::tracegen::{robot_run, RobotRunConfig};
use std::cell::Cell;
use std::rc::Rc;

fn significant_motion() -> ProcessingPipeline {
    let mut pipeline = ProcessingPipeline::new();
    let mut branches = vec![
        ProcessingBranch::new(SensorChannel::AccX),
        ProcessingBranch::new(SensorChannel::AccY),
        ProcessingBranch::new(SensorChannel::AccZ),
    ];
    for branch in &mut branches {
        branch.add(MovingAverage::new(10));
    }
    pipeline.add_branches(branches);
    pipeline.add(VectorMagnitude::new());
    pipeline.add(MinThreshold::new(15.0));
    pipeline
}

#[test]
fn api_ir_hub_round_trip() {
    // API → IR text → parse → validate → hub → wake.
    let program = significant_motion().compile().unwrap();
    let text = program.to_string();
    let reparsed: Program = text.parse().unwrap();
    assert_eq!(reparsed, program);
    reparsed.validate().unwrap();

    let mut hub = HubRuntime::load(&reparsed, &ChannelRates::default()).unwrap();
    let mut woke = false;
    for _ in 0..20 {
        for channel in SensorChannel::ACCEL {
            woke |= !hub.push_sample(channel, 12.0).unwrap().is_empty();
        }
    }
    assert!(woke);
}

#[test]
fn manager_drives_listener_through_facade() {
    let mut manager = SidewinderSensorManager::new();
    let wakes = Rc::new(Cell::new(0u32));
    let counter = wakes.clone();
    manager
        .push(&significant_motion(), move |_: &SensorEvent| {
            counter.set(counter.get() + 1)
        })
        .unwrap();
    for _ in 0..20 {
        for channel in SensorChannel::ACCEL {
            manager.on_sample(channel, 12.0).unwrap();
        }
    }
    assert!(wakes.get() > 0);
}

#[test]
fn generated_trace_survives_csv_round_trip_with_identical_simulation() {
    let trace = robot_run(&RobotRunConfig {
        duration: Micros::from_secs(120),
        idle_fraction: 0.5,
        rate_hz: 50.0,
        seed: 77,
    });

    // Persist and reload both samples and labels.
    let mut samples_buf = Vec::new();
    csv::write_samples(&trace, &mut samples_buf).unwrap();
    let mut labels_buf = Vec::new();
    csv::write_labels(trace.ground_truth(), &mut labels_buf).unwrap();
    let mut reloaded = csv::read_samples(trace.name(), samples_buf.as_slice()).unwrap();
    *reloaded.ground_truth_mut() = csv::read_labels(labels_buf.as_slice()).unwrap();

    // The reloaded trace must drive the simulator to the identical
    // outcome.
    let app = sidewinder::apps::HeadbuttsApp::new();
    let strategy = Strategy::HubWake {
        program: app.wake_condition(),
        hub_mw: app.wake_condition_hub_mw(),
        label: "Sw",
    };
    let a = simulate(
        &trace,
        &app,
        &strategy,
        &PhonePowerProfile::NEXUS4,
        &SimConfig::default(),
    )
    .unwrap();
    let b = simulate(
        &reloaded,
        &app,
        &strategy,
        &PhonePowerProfile::NEXUS4,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(a.average_power_mw, b.average_power_mw);
    assert_eq!(a.detections, b.detections);
    assert_eq!(a.wake_ups, b.wake_ups);
}

#[test]
fn fused_runtime_agrees_with_separate_runtimes_on_audio_conditions() {
    let music = sidewinder::apps::MusicJournalApp::new().wake_condition();
    let phrase = sidewinder::apps::PhraseDetectionApp::new().wake_condition();
    let rates = ChannelRates::default();
    let (fused, _) = optimize(
        &fuse_programs(&[music.clone(), phrase.clone()]),
        &rates,
        &OptOptions::default(),
    );
    // CSE shares the window+variance branch the two conditions have in
    // common, even with the `anyOf` join the fusion adds.
    assert!(fused.nodes().count() < music.nodes().count() + phrase.nodes().count());

    let mut fused = HubRuntime::load(&fused, &rates).unwrap();
    let mut solo_music = HubRuntime::load(&music, &rates).unwrap();
    let mut solo_phrase = HubRuntime::load(&phrase, &rates).unwrap();

    // A deterministic loud modulated signal that exercises both
    // conditions. The fused program wakes exactly when either condition
    // does.
    let mut wakes = 0;
    for i in 0..20_000u64 {
        let t = i as f64 / 8000.0;
        let v = if ((t * 4.0) as u64).is_multiple_of(2) {
            0.25 * (2.0 * std::f64::consts::PI * 300.0 * t).sin()
        } else if i % 2 == 0 {
            0.15
        } else {
            -0.15
        };
        let f = fused.push_sample(SensorChannel::Mic, v).unwrap();
        let m = solo_music.push_sample(SensorChannel::Mic, v).unwrap();
        let p = solo_phrase.push_sample(SensorChannel::Mic, v).unwrap();
        assert_eq!(
            f.is_empty(),
            m.is_empty() && p.is_empty(),
            "wake mismatch at sample {i}"
        );
        wakes += f.len();
    }
    assert!(wakes > 0, "the signal must wake the fused condition");
}

#[test]
fn hub_tolerates_nan_dropouts_without_spurious_wakes() {
    // A sensor dropout (NaN samples) must neither panic nor wake.
    let program = sidewinder::apps::StepsApp::new().wake_condition();
    let mut hub = HubRuntime::load(&program, &ChannelRates::default()).unwrap();
    for _ in 0..100 {
        let wakes = hub.push_sample(SensorChannel::AccX, f64::NAN).unwrap();
        assert!(wakes.is_empty(), "NaN input must not satisfy thresholds");
    }
    // And the pipeline recovers once real data returns.
    let mut woke = false;
    for i in 0..200 {
        let v = 3.5 * (i as f64 * 0.2).sin();
        woke |= !hub.push_sample(SensorChannel::AccX, v).unwrap().is_empty();
    }
    assert!(woke, "pipeline must recover after a dropout");
}

#[test]
fn oracle_is_the_power_floor_for_every_app_on_a_shared_trace() {
    let trace = robot_run(&RobotRunConfig {
        duration: Micros::from_secs(300),
        idle_fraction: 0.5,
        rate_hz: 50.0,
        seed: 3,
    });
    let steps = sidewinder::apps::StepsApp::new();
    let transitions = sidewinder::apps::TransitionsApp::new();
    let headbutts = sidewinder::apps::HeadbuttsApp::new();
    let apps: [&dyn Application; 3] = [&steps, &transitions, &headbutts];
    for app in apps {
        let oracle = simulate(
            &trace,
            app,
            &Strategy::Oracle,
            &PhonePowerProfile::NEXUS4,
            &SimConfig::default(),
        )
        .unwrap();
        for strategy in [
            Strategy::AlwaysAwake,
            Strategy::HubWake {
                program: app.wake_condition(),
                hub_mw: app.wake_condition_hub_mw(),
                label: "Sw",
            },
        ] {
            let r = simulate(
                &trace,
                app,
                &strategy,
                &PhonePowerProfile::NEXUS4,
                &SimConfig::default(),
            )
            .unwrap();
            assert!(
                r.average_power_mw >= oracle.average_power_mw,
                "{}: {} beat the oracle",
                app.name(),
                strategy.label()
            );
        }
    }
}

#[test]
fn wake_conditions_fit_the_serial_link() {
    use sidewinder::hub::link::SerialLink;
    let link = SerialLink::NEXUS4_UART;
    for app in sidewinder::apps::accelerometer_apps()
        .iter()
        .chain(sidewinder::apps::audio_apps().iter())
    {
        let channels = app.wake_condition().channels();
        assert!(
            link.check_channels(&channels).is_ok(),
            "{} exceeds the UART budget",
            app.name()
        );
    }
}

#[test]
fn ground_truth_kinds_cover_all_applications() {
    // Every application's target kinds appear in the generators' labels.
    let robot = robot_run(&RobotRunConfig {
        duration: Micros::from_secs(600),
        idle_fraction: 0.1,
        rate_hz: 50.0,
        seed: 9,
    });
    for kind in [
        EventKind::Walking,
        EventKind::SitToStand,
        EventKind::StandToSit,
        EventKind::Headbutt,
        EventKind::Step,
    ] {
        assert!(
            robot.ground_truth().count_of(kind) > 0,
            "robot trace lacks {kind}"
        );
    }
}

#[test]
fn faulted_fleet_replay_is_worker_count_invariant() {
    // A 64-device fleet under the default fault model: noisy links,
    // flaky hubs and full outages all strike, so the engine's faulted
    // replay and its degraded fallback both run end to end.
    let program = sidewinder::apps::StepsApp::new().wake_condition();
    let config = FleetConfig {
        shard_size: 16,
        device_duration: Micros::from_secs(30),
        ..FleetConfig::new(2, 64)
    };
    let serial = run_fleet(&config, &program, 1);
    let parallel = run_fleet(&config, &program, 2);
    assert_eq!(serial.digest(), parallel.digest());
    assert_eq!(serial.totals, parallel.totals);
    let totals = &serial.totals;
    assert_eq!(totals.devices, 64);
    assert!(totals.fault.frames_retried > 0, "no frame was retried");
    assert!(totals.fault.hub_resets > 0, "no hub reset fired");
    assert!(totals.degraded_time > Micros::ZERO, "no device degraded");
}

#[test]
fn golden_fixture_runs_through_every_layer() {
    // parse → optimize → certify → load → interpret → simulate, on one
    // golden fixture; the digest pins the wake stream and the simulated
    // outcome together.
    use sidewinder::cert::{certify_program, CertTarget, Precision};
    let text = include_str!("../crates/ir/tests/fixtures/transitions.swir");
    let program: Program = text.parse().unwrap();
    program.validate().unwrap();
    let rates = ChannelRates::default();
    let (optimized, _) = optimize(&program, &rates, &OptOptions::aggressive());

    let target = CertTarget::default();
    let cert = certify_program(&optimized, &rates, Precision::F64, &target).unwrap();
    assert!(
        cert.fits_cap && cert.required_capacity <= target.cap,
        "needs {} elements per arena, cap {}",
        cert.required_capacity,
        target.cap
    );

    let trace = robot_run(&RobotRunConfig {
        duration: Micros::from_secs(120),
        idle_fraction: 0.5,
        rate_hz: 50.0,
        seed: 77,
    });
    let mut hash = Fnv1a::new();
    let mut word = |w: u64| hash.word(w);
    let mut hub = HubRuntime::load(&optimized, &rates).unwrap();
    let samples = trace.channel(SensorChannel::AccY).unwrap().samples();
    let wakes = hub
        .push_samples(SensorChannel::AccY, samples)
        .unwrap()
        .to_vec();
    assert!(!wakes.is_empty(), "the trace must wake the condition");
    for w in &wakes {
        word(w.seq);
        word(w.value.to_bits());
    }

    let app = sidewinder::apps::TransitionsApp::new();
    let strategy = Strategy::HubWake {
        program: optimized,
        hub_mw: app.wake_condition_hub_mw(),
        label: "Sw",
    };
    let result = simulate(
        &trace,
        &app,
        &strategy,
        &PhonePowerProfile::NEXUS4,
        &SimConfig::default(),
    )
    .unwrap();
    assert!(result.wake_ups > 0 && result.wake_ups <= wakes.len());
    word(result.wake_ups as u64);
    word(result.average_power_mw.to_bits());
    for d in &result.detections {
        word(d.as_micros());
    }
    let hash = hash.finish();
    assert_eq!(
        hash, 0xe29d_94dd_35ae_2db4,
        "wake digest drifted: {hash:#018x}"
    );
}

#[test]
fn one_probe_sees_the_same_run_on_the_core_and_the_hub_runtime() {
    // Every layer reports through the one probe trait, so the same two
    // sinks observe the firmware core and the host runtime directly, and
    // must see the same run: node for node, wake for wake, payload for
    // payload.
    use sidewinder::hub::{compile_image, CounterSink};
    use sidewinder::mcu::{HighWaterProbe, McuCore};
    let text = include_str!("../crates/ir/tests/fixtures/transitions.swir");
    let program: Program = text.parse().unwrap();
    let rates = ChannelRates::default();
    let trace = robot_run(&RobotRunConfig {
        duration: Micros::from_secs(60),
        idle_fraction: 0.5,
        rate_hz: 50.0,
        seed: 77,
    });
    let samples = trace.channel(SensorChannel::AccY).unwrap().samples();
    let nodes = program.nodes().count();

    let image = compile_image(&program, &rates).unwrap();
    let mut core: McuCore<f64, 4096> = McuCore::new();
    core.load(&image).unwrap();
    let channel = [SensorChannel::AccY.index() as u8];
    let mut core_counts = CounterSink::with_nodes(nodes);
    core.push_frames_probed(&channel, &[samples], &mut |_, _| {}, &mut core_counts)
        .unwrap();
    core.reset();
    let mut core_marks = HighWaterProbe::new();
    core.push_frames_probed(&channel, &[samples], &mut |_, _| {}, &mut core_marks)
        .unwrap();

    let mut counted: HubRuntime<_> =
        HubRuntime::load_generic(&program, &rates, CounterSink::with_nodes(nodes)).unwrap();
    let wakes = counted
        .push_samples(SensorChannel::AccY, samples)
        .unwrap()
        .len();
    let mut marked: HubRuntime<_> =
        HubRuntime::load_generic(&program, &rates, HighWaterProbe::new()).unwrap();
    marked.push_samples(SensorChannel::AccY, samples).unwrap();
    let (hub_counts, hub_marks) = (counted.sink(), marked.sink());

    assert!(wakes > 0, "the trace must wake the condition");
    assert_eq!(hub_counts.wakes, wakes as u64);
    assert_eq!(core_counts.wakes, hub_counts.wakes);
    assert_eq!(hub_counts.nodes().len(), nodes);
    for (i, (c, h)) in core_counts
        .nodes()
        .iter()
        .zip(hub_counts.nodes())
        .enumerate()
    {
        assert!(h.executions > 0, "node {i} never ran");
        assert_eq!(
            (c.executions, c.productions),
            (h.executions, h.productions),
            "node {i}"
        );
        assert_eq!(h.productions, hub_marks.emissions[i], "node {i}");
    }
    assert_eq!(core_marks.emissions, hub_marks.emissions);
    assert_eq!(core_marks.payload_peak, hub_marks.payload_peak);
    // peakToPeak borrows the window's 64-sample payload in place.
    assert_eq!(hub_marks.payload_peak[..nodes], [64, 0, 0]);
}

/// Hashes every flat kernel's output over one deterministic signal at
/// one precision: the lane reduction, the chunked crossing counter, the
/// tabulated taper, the grouped Goertzel probes and the block moving
/// average, at lengths on both sides of each kernel's cutovers.
fn kernel_outputs<P: sidewinder::mcu::Sample>(word: &mut impl FnMut(u64)) {
    use sidewinder::dsp::filter::MovingAverage as Ma;
    use sidewinder::dsp::{goertzel, stats::Summary, window::WindowShape, zcr};
    let mut state: u64 = 0x005e_ed0f_4e12;
    let signal: Vec<P> = (0..1031)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            // Exact zeros every 13th sample drive the counter's
            // per-sample path; the rest are signed values in [-1, 1).
            let x = if i % 13 == 0 {
                0.0
            } else {
                (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            };
            P::from_f64(x)
        })
        .collect();
    let opt = |word: &mut dyn FnMut(u64), x: Option<f64>| match x {
        Some(x) => {
            word(1);
            word(x.to_bits());
        }
        None => word(0),
    };
    let freqs = [850.0, 985.0, 9000.0, 1120.0, 1255.0, 1390.0];
    for len in [0, 1, 3, 4, 5, 31, 32, 33, 1024, 1031] {
        let w = &signal[..len];
        word(len as u64);
        match Summary::of(w) {
            Some(s) => {
                for v in [s.mean, s.variance, s.min, s.max, s.rms] {
                    word(v.to_f64().to_bits());
                }
            }
            None => word(0),
        }
        word(zcr::zero_crossings(w) as u64);
        opt(word, zcr::zcr_variance(w, 4).map(P::to_f64));
        for shape in [WindowShape::Hamming, WindowShape::Hann] {
            for v in shape.apply(w) {
                word(v.to_f64().to_bits());
            }
        }
        let best = goertzel::strongest_of(w, &freqs, 8000.0);
        opt(word, best.map(|b| b.0));
        opt(word, best.map(|b| b.1));
        let mut cold = Ma::<P>::new(7).unwrap();
        let mut warm = Ma::<P>::new(7).unwrap();
        for x in [0.5, -0.25, 0.125] {
            warm.push(P::from_f64(x));
        }
        for ma in [&mut cold, &mut warm] {
            for v in ma.filter(w) {
                word(v.to_f64().to_bits());
            }
            opt(word, ma.push(P::from_f64(0.75)).map(P::to_f64));
        }
    }
}

#[test]
fn flat_kernels_are_pinned_bit_for_bit() {
    // One digest over every flat kernel at both precisions: a change to
    // any kernel's reduction order, chunking or tabulation moves it.
    let mut hash = Fnv1a::new();
    let mut word = |w: u64| hash.word(w);
    kernel_outputs::<f64>(&mut word);
    kernel_outputs::<f32>(&mut word);
    let hash = hash.finish();
    assert_eq!(
        hash, 0x0bc6_b6aa_e6bc_dde4,
        "kernel digest drifted: {hash:#018x}"
    );
}

/// The fleet's served program: Steps, Transitions and Headbutts ingested
/// over the wire by a fleet service, fused to one program.
fn fleet_served_program(config: &FleetConfig) -> Program {
    use sidewinder::apps::{HeadbuttsApp, StepsApp, TransitionsApp};
    use sidewinder::fleet::wire::{decode_message, encode_message, MessageType};
    use sidewinder::fleet::FleetService;
    let mut service = FleetService::new(config.clone());
    let apps: [Box<dyn Application>; 3] = [
        Box::new(StepsApp::new()),
        Box::new(TransitionsApp::new()),
        Box::new(HeadbuttsApp::new()),
    ];
    for app in &apps {
        let text = app.wake_condition().to_string();
        let reply = service.handle(&encode_message(MessageType::SubmitProgram, text.as_bytes()));
        let (kind, payload) = decode_message(&reply).unwrap();
        assert_eq!(
            kind,
            MessageType::SubmitAck,
            "{}: {}",
            app.name(),
            String::from_utf8_lossy(&payload)
        );
    }
    service.served_program().expect("three conditions served")
}

#[test]
fn fleet_served_program_takes_frames_exactly_as_samples() {
    // The program fleet ingest serves, over eight fleet devices' AccX and
    // AccY traces: pushed as frames cut at 1, 31, 32, 33 and whole-trace
    // lengths, it must raise exactly the wakes of one-sample pushes under
    // live counters (the per-sample pass), member for member and bit for
    // bit. The digest pins that wake stream.
    use sidewinder::hub::CounterSink;
    let config = FleetConfig::new(0x51DE_F1EE, 8);
    let program = fleet_served_program(&config);
    let nodes = program.nodes().count();
    assert_eq!(nodes, 8, "{program}");
    let channels = [SensorChannel::AccX, SensorChannel::AccY];
    let mut hash = Fnv1a::new();
    let mut wakes = 0;
    for device in 0..config.devices {
        let trace = config.device_spec(device).trace();
        let mut rates = ChannelRates::default();
        let mut columns = Vec::new();
        for channel in channels {
            let series = trace.channel(channel).unwrap();
            rates = rates.with_rate(channel, series.rate_hz());
            columns.push(series.samples());
        }
        let rows = columns[0].len();
        assert_eq!(columns[1].len(), rows, "device {device}");

        let mut serial: HubRuntime<_> =
            HubRuntime::load_generic(&program, &rates, CounterSink::with_nodes(nodes)).unwrap();
        let mut expected = Vec::new();
        for k in 0..rows {
            for (m, (&channel, column)) in channels.iter().zip(&columns).enumerate() {
                for w in serial.push_sample(channel, column[k]).unwrap() {
                    expected.push((m, w.seq, w.value.to_bits()));
                }
            }
        }
        for cut in [1, 31, 32, 33, rows] {
            let mut hub = HubRuntime::load(&program, &rates).unwrap();
            let mut got = Vec::new();
            for start in (0..rows).step_by(cut) {
                let end = (start + cut).min(rows);
                let frame = [&columns[0][start..end], &columns[1][start..end]];
                hub.push_frames(&channels, &frame, |m, w| {
                    got.push((m, w.seq, w.value.to_bits()))
                })
                .unwrap();
            }
            assert_eq!(got, expected, "device {device}, frames of {cut}");
        }
        wakes += expected.len();
        hash.word(device);
        hash.word(expected.len() as u64);
        for &(m, seq, bits) in &expected {
            hash.word(m as u64);
            hash.word(seq);
            hash.word(bits);
        }
    }
    assert!(wakes > 0, "the fleet must wake the served program");
    let hash = hash.finish();
    assert_eq!(
        hash, 0x90ce_9118_10cb_d46a,
        "served-program wake digest drifted: {hash:#018x}"
    );
}
