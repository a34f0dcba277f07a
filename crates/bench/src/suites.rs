//! The Criterion bench suites, exposed as plain functions so they can be
//! driven two ways: by the `cargo bench` harnesses in `benches/` and by
//! the `perfreport` binary, which runs them in calibrated smoke mode and
//! writes the measurements to `BENCH_interpreter.json` via
//! [`criterion::take_records`].

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use sidewinder_apps::{HeadbuttsApp, MusicJournalApp, SirenDetectorApp, StepsApp, TransitionsApp};
use sidewinder_dsp::filter::{fft_highpass, MovingAverage};
use sidewinder_dsp::window::WindowShape;
use sidewinder_dsp::{fft, goertzel, stats, zcr};
use sidewinder_hub::runtime::{ChannelRates, HubRuntime, HubRuntime32};
use sidewinder_hub::NullSink;
use sidewinder_opt::{fuse_programs, optimize, optimize_suite, OptOptions};
use sidewinder_sensors::SensorChannel;
use sidewinder_sim::Application;

/// Samples per batch fed to the interpreter benches; also the declared
/// element throughput, so reported rates are samples per second.
pub const INTERPRETER_BATCH: usize = 8192;

fn tone(freq: f64, rate: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (2.0 * std::f64::consts::PI * freq * i as f64 / rate).sin())
        .collect()
}

/// Hub-interpreter throughput: how many sensor samples per second the IR
/// runtime sustains for each evaluation wake-up condition.
pub fn bench_conditions(c: &mut Criterion) {
    let cases: Vec<(&str, sidewinder_ir::Program, SensorChannel)> = vec![
        (
            "steps_condition",
            StepsApp::new().wake_condition(),
            SensorChannel::AccX,
        ),
        (
            "music_condition",
            MusicJournalApp::new().wake_condition(),
            SensorChannel::Mic,
        ),
        (
            "siren_condition",
            SirenDetectorApp::new().wake_condition(),
            SensorChannel::Mic,
        ),
    ];
    let mut group = c.benchmark_group("hub_interpreter");
    let batch = INTERPRETER_BATCH;
    group.throughput(Throughput::Elements(batch as u64));
    for (name, program, channel) in &cases {
        let samples: Vec<f64> = (0..batch).map(|i| (i as f64 * 0.37).sin()).collect();
        group.bench_function(*name, |b| {
            let mut hub = HubRuntime::load(program, &ChannelRates::default()).unwrap();
            b.iter(|| {
                hub.push_samples(*channel, black_box(&samples))
                    .unwrap()
                    .len()
            })
        });
    }
    // The program fleet ingest serves for Steps, Transitions and
    // Headbutts (the suite pass fuses them to 8 nodes), fed co-sampled
    // AccX + AccY columns as frames: the fleet devices' ingest pattern.
    // Its element count is the samples of both columns.
    let apps: [&dyn Application; 3] = [
        &StepsApp::new(),
        &TransitionsApp::new(),
        &HeadbuttsApp::new(),
    ];
    let conditions: Vec<_> = apps.iter().map(|app| app.wake_condition()).collect();
    let served = optimize_suite(
        &conditions,
        &ChannelRates::default(),
        &OptOptions::default(),
    )
    .fused()
    .expect("three conditions fuse");
    let x: Vec<f64> = (0..batch / 2)
        .map(|i| 3.0 * (i as f64 * 0.37).sin())
        .collect();
    let y: Vec<f64> = (0..batch / 2)
        .map(|i| 3.0 * (i as f64 * 0.23).cos())
        .collect();
    group.bench_function("fleet_accel_frames", |b| {
        let mut hub = HubRuntime::load(&served, &ChannelRates::default()).unwrap();
        let channels = [SensorChannel::AccX, SensorChannel::AccY];
        b.iter(|| {
            let mut wakes = 0usize;
            hub.push_frames(&channels, black_box(&[&x, &y]), |_, _| wakes += 1)
                .unwrap();
            wakes
        })
    });
    // The same conditions through the single-precision pipeline mode.
    // Sensor ingestion stays f64 (the ADC side is unchanged), so the
    // input batch is identical; only the buffered vector stages narrow.
    // Their committed baselines are the f64 seed numbers, so the
    // reported speedup is the combined lane + f32 win.
    for (name, program, channel) in &cases {
        let samples: Vec<f64> = (0..batch).map(|i| (i as f64 * 0.37).sin()).collect();
        group.bench_function(format!("{name}_f32"), |b| {
            let mut hub =
                HubRuntime32::load_generic(program, &ChannelRates::default(), NullSink).unwrap();
            b.iter(|| {
                hub.push_samples(*channel, black_box(&samples))
                    .unwrap()
                    .len()
            })
        });
    }
    group.finish();
}

/// Fusion ablation: two music-journal conditions run as separate hubs
/// vs one optimized fused program.
pub fn bench_fusion(c: &mut Criterion) {
    let program = MusicJournalApp::new().wake_condition();
    let batch = INTERPRETER_BATCH;
    let samples: Vec<f64> = (0..batch).map(|i| (i as f64 * 0.21).sin() * 0.2).collect();

    let mut group = c.benchmark_group("concurrent_conditions");
    group.throughput(Throughput::Elements(batch as u64));
    group.bench_function("two_separate_runtimes", |b| {
        let mut a = HubRuntime::load(&program, &ChannelRates::default()).unwrap();
        let mut bb = HubRuntime::load(&program, &ChannelRates::default()).unwrap();
        b.iter(|| {
            let mut wakes = 0usize;
            for &s in &samples {
                wakes += a
                    .push_sample(SensorChannel::Mic, black_box(s))
                    .unwrap()
                    .len();
                wakes += bb
                    .push_sample(SensorChannel::Mic, black_box(s))
                    .unwrap()
                    .len();
            }
            wakes
        })
    });
    // The optimizing compiler's answer to the same workload: fuse the
    // two conditions into one IR program and let CSE collapse the
    // duplicated chain, so the hub interprets one condition plus an
    // `anyOf` join instead of two. The perf gate's ratio floor pins
    // this row's win over `two_separate_runtimes`.
    group.bench_function("one_optimized_fused_runtime", |b| {
        let fused_ir = fuse_programs(&[program.clone(), program.clone()]);
        let (optimized, _) = optimize(
            &fused_ir,
            &ChannelRates::default(),
            &OptOptions::aggressive(),
        );
        let mut hub = HubRuntime::load(&optimized, &ChannelRates::default()).unwrap();
        b.iter(|| {
            let mut wakes = 0usize;
            for &s in &samples {
                wakes += hub
                    .push_sample(SensorChannel::Mic, black_box(s))
                    .unwrap()
                    .len();
            }
            wakes
        })
    });
    group.finish();
}

/// Forward real FFT at the window lengths the fixtures use.
pub fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for n in [256usize, 1024, 2048] {
        let signal = tone(1000.0, 8000.0, n);
        group.bench_with_input(BenchmarkId::new("real_fft", n), &signal, |b, s| {
            b.iter(|| fft::real_fft(black_box(s)).unwrap())
        });
    }
    group.finish();
}

/// The two filter kernels on a 1024-sample window.
pub fn bench_filters(c: &mut Criterion) {
    let signal = tone(1000.0, 8000.0, 1024);
    c.bench_function("highpass_750hz_1024", |b| {
        b.iter(|| fft_highpass(black_box(&signal), 750.0, 8000.0).unwrap())
    });
    c.bench_function("moving_average_w10_1024_samples", |b| {
        b.iter(|| {
            let mut ma = MovingAverage::new(10).unwrap();
            ma.filter(black_box(&signal))
        })
    });
}

/// Feature extractors on a 2048-sample window.
pub fn bench_features(c: &mut Criterion) {
    let signal = tone(440.0, 8000.0, 2048);
    c.bench_function("zcr_variance_8x2048", |b| {
        b.iter(|| zcr::zcr_variance(black_box(&signal), 8))
    });
    c.bench_function("summary_stats_2048", |b| {
        b.iter(|| stats::Summary::of(black_box(&signal)))
    });
    c.bench_function("hamming_window_2048", |b| {
        b.iter(|| WindowShape::Hamming.apply(black_box(&signal)))
    });
}

/// Ablation: full FFT spectrum vs probing 8 Goertzel bins for the siren
/// band.
pub fn bench_goertzel_ablation(c: &mut Criterion) {
    let signal = tone(1200.0, 8000.0, 1024);
    let probes: Vec<f64> = (0..8).map(|i| 850.0 + i as f64 * 135.0).collect();
    let mut group = c.benchmark_group("siren_band_detection");
    group.bench_function("full_fft_magnitudes", |b| {
        b.iter(|| fft::real_fft_magnitudes(black_box(&signal)))
    });
    group.bench_function("goertzel_8_probes", |b| {
        b.iter(|| goertzel::strongest_of(black_box(&signal), &probes, 8000.0))
    });
    // Interpreter-level counterpart: the narrow-band alarm condition
    // written with filters + FFT, against the same condition after the
    // optimizer's Goertzel strength reduction. Both push a 1 kHz tone
    // (the center of the 980-1020 Hz band) through a real HubRuntime;
    // the ratio floor pins the rewrite's win.
    let alarm = SirenDetectorApp::narrowband_wake_condition();
    let tone_batch = tone(1000.0, 8000.0, INTERPRETER_BATCH);
    group.bench_function("narrowband_fft_pipeline", |b| {
        let mut hub = HubRuntime::load(&alarm, &ChannelRates::default()).unwrap();
        b.iter(|| {
            hub.push_samples(SensorChannel::Mic, black_box(&tone_batch))
                .unwrap()
                .len()
        })
    });
    group.bench_function("goertzel_rewrite", |b| {
        let (optimized, report) =
            optimize(&alarm, &ChannelRates::default(), &OptOptions::aggressive());
        assert_eq!(report.goertzel_rewrites, 1, "{}", report.summary());
        let mut hub = HubRuntime::load(&optimized, &ChannelRates::default()).unwrap();
        b.iter(|| {
            hub.push_samples(SensorChannel::Mic, black_box(&tone_batch))
                .unwrap()
                .len()
        })
    });
    group.finish();
}
