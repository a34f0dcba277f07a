//! Side calls: the workload's own programs and inputs replayed through
//! single layers — the host interpreter (`HubRuntime`, f64 and f32), the
//! MCU core (`McuCore`, f64 and f32), the DSP kernels, and the ingest
//! passes (optimize, certify, compile). The traced run makes these calls
//! outside every device and cell span, so they never count as device
//! time. Every call into those layers' APIs lives in this module.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sidewinder_cert::{certify_program, CertTarget, Precision};
use sidewinder_dsp::{fft, filter, stats, zcr};
use sidewinder_fleet::service::FLEET_CERT_ARENA;
use sidewinder_hub::runtime::{ChannelRates, HubRuntime};
use sidewinder_hub::{compile_image, McuCore, Sample};
use sidewinder_ir::Program;
use sidewinder_opt::{optimize_suite, OptOptions};
use sidewinder_sensors::{SensorChannel, SensorTrace};
use sidewinder_sim::NullSink;

use crate::metrics::Outcome;
use crate::stats::median;

/// Arena capacity of the MCU cores the side calls run: the class fleet
/// ingest certifies against, which every benchmark program fits.
const MCU_ARENA: usize = FLEET_CERT_ARENA;

/// One program's input: the samples it reads, cut into the runs the
/// simulator feeds the hub (maximal same-channel stretches in time
/// order, first channel winning ties — `sim::engine`'s pick rule).
pub struct Input<'a> {
    series: Vec<(SensorChannel, &'a [f64])>,
    rates: ChannelRates,
    runs: Vec<(usize, usize, usize)>,
}

impl<'a> Input<'a> {
    /// The first `limit` samples of each channel `program` reads from
    /// `trace`, or `None` when the trace lacks one of them.
    pub fn new(program: &Program, trace: &'a SensorTrace, limit: usize) -> Option<Input<'a>> {
        let mut series = Vec::new();
        let mut rates = ChannelRates::default();
        let mut times = Vec::new();
        for channel in program.channels() {
            let s = trace.channel(channel)?;
            let n = s.len().min(limit);
            series.push((channel, &s.samples()[..n]));
            rates = rates.with_rate(channel, s.rate_hz());
            times.push((0..n).map(|i| s.time_of(i)).collect::<Vec<_>>());
        }
        let mut cursors = vec![0usize; series.len()];
        let mut runs = Vec::new();
        loop {
            let mut best: Option<usize> = None;
            for (c, &i) in cursors.iter().enumerate() {
                if i < times[c].len() && best.is_none_or(|b| times[c][i] < times[b][cursors[b]]) {
                    best = Some(c);
                }
            }
            let Some(c) = best else { break };
            let start = cursors[c];
            let mut end = start + 1;
            let wins = |t| {
                cursors.iter().enumerate().all(|(o, &j)| {
                    o == c
                        || j >= times[o].len()
                        || if o < c {
                            t < times[o][j]
                        } else {
                            t <= times[o][j]
                        }
                })
            };
            while end < times[c].len() && wins(times[c][end]) {
                end += 1;
            }
            cursors[c] = end;
            runs.push((c, start, end));
        }
        Some(Input {
            series,
            rates,
            runs,
        })
    }

    /// Samples across all channels.
    pub fn samples(&self) -> u64 {
        self.series.iter().map(|(_, s)| s.len() as u64).sum()
    }
}

/// Time and outcome of one replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Wall time including load (and image compilation for the core).
    pub ns: u64,
    /// Samples pushed.
    pub samples: u64,
    /// Wake-ups raised.
    pub wakes: u64,
}

impl Replay {
    /// Adds another replay's totals.
    pub fn add(&mut self, other: Replay) {
        self.ns += other.ns;
        self.samples += other.samples;
        self.wakes += other.wakes;
    }

    /// Nanoseconds per sample.
    pub fn ns_per_sample(&self) -> f64 {
        self.ns as f64 / self.samples.max(1) as f64
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// `HubRuntime` at vector precision `P`: load, then one `push_samples`
/// per engine-order run.
pub fn hub_replay<P: Sample>(program: &Program, input: &Input) -> Result<Replay, String> {
    let t = Instant::now();
    let mut hub = HubRuntime::<NullSink, P>::load_generic(program, &input.rates, NullSink)
        .map_err(|e| format!("hub load: {e}"))?;
    let mut wakes = 0;
    for &(c, start, end) in &input.runs {
        let (channel, samples) = input.series[c];
        wakes += hub
            .push_samples(channel, &samples[start..end])
            .map_err(|e| format!("hub push: {e}"))?
            .len() as u64;
    }
    Ok(Replay {
        ns: elapsed_ns(t),
        samples: input.samples(),
        wakes,
    })
}

/// `HubRuntime` (f64): load, then one `push_samples` per channel with
/// the whole series — the call pattern block execution would allow.
pub fn hub_batch(program: &Program, input: &Input) -> Result<Replay, String> {
    let t = Instant::now();
    let mut hub = HubRuntime::load(program, &input.rates).map_err(|e| format!("hub load: {e}"))?;
    let mut wakes = 0;
    for &(channel, samples) in &input.series {
        wakes += hub
            .push_samples(channel, samples)
            .map_err(|e| format!("hub push: {e}"))?
            .len() as u64;
    }
    Ok(Replay {
        ns: elapsed_ns(t),
        samples: input.samples(),
        wakes,
    })
}

/// The MCU cores, allocated once: a core is several hundred KiB of
/// arenas, and `load` resets one completely.
pub struct Cores {
    f64: Box<McuCore<f64, MCU_ARENA>>,
    f32: Box<McuCore<f32, MCU_ARENA>>,
}

impl Cores {
    /// Fresh, unloaded cores.
    pub fn new() -> Cores {
        Cores {
            f64: Box::new(McuCore::new()),
            f32: Box::new(McuCore::new()),
        }
    }

    /// `compile_image` + `McuCore` (f64): compile, load, then one
    /// `push_sample` per sample in engine order.
    pub fn replay_f64(&mut self, program: &Program, input: &Input) -> Result<Replay, String> {
        mcu_replay(&mut self.f64, program, input)
    }

    /// [`Cores::replay_f64`] on the single-precision core.
    pub fn replay_f32(&mut self, program: &Program, input: &Input) -> Result<Replay, String> {
        mcu_replay(&mut self.f32, program, input)
    }
}

fn mcu_replay<P: Sample>(
    core: &mut McuCore<P, MCU_ARENA>,
    program: &Program,
    input: &Input,
) -> Result<Replay, String> {
    let t = Instant::now();
    let image = compile_image(program, &input.rates).map_err(|e| format!("compile: {e}"))?;
    core.load(&image).map_err(|e| format!("mcu load: {e}"))?;
    let mut wakes = 0u64;
    for &(c, start, end) in &input.runs {
        let (channel, samples) = input.series[c];
        for &x in &samples[start..end] {
            core.push_sample(channel.index() as u8, x, &mut |_| wakes += 1)
                .map_err(|e| format!("mcu push: {e}"))?;
        }
    }
    Ok(Replay {
        ns: elapsed_ns(t),
        samples: input.samples(),
        wakes,
    })
}

/// Every interpreter on one program and input. The f64 host replay, the
/// f64 batch and the f64 core must raise the same wake-ups — the
/// equivalence the repository's own tests pin — so a mismatch is a
/// failed check.
#[derive(Debug, Clone, Copy, Default)]
pub struct Interpreters {
    pub hub: Replay,
    pub hub_batch: Replay,
    pub hub32: Replay,
    pub mcu: Replay,
    pub mcu32: Replay,
}

impl Interpreters {
    /// Replays `program` on `input` through all five.
    pub fn measure(cores: &mut Cores, program: &Program, input: &Input) -> Result<Self, String> {
        let out = Interpreters {
            hub: hub_replay::<f64>(program, input)?,
            hub_batch: hub_batch(program, input)?,
            hub32: hub_replay::<f32>(program, input)?,
            mcu: cores.replay_f64(program, input)?,
            mcu32: cores.replay_f32(program, input)?,
        };
        if out.hub.wakes != out.hub_batch.wakes || out.hub.wakes != out.mcu.wakes {
            return Err(format!(
                "interpreters disagree: hub {} / batch {} / mcu {} wake-ups",
                out.hub.wakes, out.hub_batch.wakes, out.mcu.wakes
            ));
        }
        Ok(out)
    }

    /// Adds another measurement's totals.
    pub fn add(&mut self, other: &Interpreters) {
        self.hub.add(other.hub);
        self.hub_batch.add(other.hub_batch);
        self.hub32.add(other.hub32);
        self.mcu.add(other.mcu);
        self.mcu32.add(other.mcu32);
    }
}

/// Median nanoseconds per call of `f` over fifteen batches of at least
/// 200 µs each.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(15);
    for _ in 0..15 {
        let t = Instant::now();
        let mut calls = 0u32;
        while t.elapsed() < Duration::from_micros(200) {
            f();
            calls += 1;
        }
        per_call.push(elapsed_ns(t) as f64 / f64::from(calls));
    }
    median(&per_call)
}

/// Per-call cost of the DSP kernels the audio conditions lean on.
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    pub real_fft_1024_ns: f64,
    pub fft_highpass_1024_ns: f64,
    pub zcr_variance_8x2048_ns: f64,
    pub summary_stats_512_ns: f64,
    pub spectral_magnitude_1024_ns: f64,
}

/// Times the kernels on windows cut from `signal` (at least 2048
/// samples recorded at `rate_hz`). The high-pass cutoff sits at the
/// same fraction of the rate as the siren condition's 750 Hz at 8 kHz.
pub fn kernels(signal: &[f64], rate_hz: f64) -> Result<Kernels, String> {
    if signal.len() < 2048 {
        return Err(format!(
            "kernel input has {} samples, needs 2048",
            signal.len()
        ));
    }
    let w1024 = &signal[..1024];
    let spectrum = fft::real_fft(w1024).map_err(|e| e.to_string())?;
    let mut magnitudes = Vec::with_capacity(spectrum.len());
    let cutoff = rate_hz * 750.0 / 8000.0;
    Ok(Kernels {
        real_fft_1024_ns: per_call_ns(|| {
            black_box(fft::real_fft(black_box(w1024)).ok());
        }),
        fft_highpass_1024_ns: per_call_ns(|| {
            black_box(filter::fft_highpass(black_box(w1024), cutoff, rate_hz).ok());
        }),
        zcr_variance_8x2048_ns: per_call_ns(|| {
            black_box(zcr::zcr_variance(black_box(&signal[..2048]), 8));
        }),
        summary_stats_512_ns: per_call_ns(|| {
            black_box(stats::Summary::of(black_box(&signal[..512])));
        }),
        spectral_magnitude_1024_ns: per_call_ns(|| {
            let s = black_box(&spectrum);
            magnitudes.clear();
            magnitudes.extend(s[..=s.len() / 2].iter().map(|z| z.magnitude()));
            black_box(&magnitudes);
        }),
    })
}

/// Cost of the ingest passes, in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct Ingest {
    /// `optimize_suite` over every submission.
    pub optimize_suite_us: f64,
    /// `certify_program` over every served program.
    pub certify_us: f64,
    /// `compile_image` over every served program.
    pub compile_image_us: f64,
}

impl Ingest {
    /// Pushes the three costs as per-layer values.
    pub fn record(&self, out: &mut Outcome) {
        out.values
            .push("opt.optimize_suite_us", self.optimize_suite_us);
        out.values.push("cert.certify_us", self.certify_us);
        out.values
            .push("hub.compile_image_us", self.compile_image_us);
    }
}

/// Times the ingest passes: the median of five repetitions each.
pub fn ingest(submissions: &[Program], served: &[Program]) -> Result<Ingest, String> {
    let rates = ChannelRates::default();
    let target = CertTarget {
        mcu: None,
        cap: MCU_ARENA,
    };
    let time_us = |f: &mut dyn FnMut() -> Result<(), String>| -> Result<f64, String> {
        let mut us = Vec::with_capacity(5);
        for _ in 0..5 {
            let t = Instant::now();
            f()?;
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(median(&us))
    };
    Ok(Ingest {
        optimize_suite_us: time_us(&mut || {
            black_box(optimize_suite(submissions, &rates, &OptOptions::default()));
            Ok(())
        })?,
        certify_us: time_us(&mut || {
            for p in served {
                certify_program(p, &rates, Precision::F64, &target)
                    .map_err(|e| format!("certify: {e}"))?;
            }
            Ok(())
        })?,
        compile_image_us: time_us(&mut || {
            for p in served {
                compile_image(p, &rates).map_err(|e| format!("compile: {e}"))?;
            }
            Ok(())
        })?,
    })
}
