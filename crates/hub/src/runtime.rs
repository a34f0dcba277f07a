//! The hub interpreter.
//!
//! [`HubRuntime`] is this reproduction's equivalent of the paper's C
//! interpreter (§3.5): "Upon receiving a new configuration, the runtime
//! allocates memory for each algorithm in the configuration. The
//! interpreter then waits for sensor data to be available and feeds the
//! data into the appropriate algorithm. If the algorithm produces a
//! result, it sets a flag. The interpreter checks the flag and if
//! necessary sends the result to the next algorithm. … The final algorithm
//! feeds into OUT, indicating that the main processor should be woken up."
//!
//! There is one interpreter: `sidewinder-mcu`'s core, the code that runs
//! on the hub MCU. [`HubRuntime`] is its host wrapper. It compiles a
//! validated program into the image the hub loads ([`compile_image`]),
//! loads that image into a [`HostCore`] whose arenas are sized to the
//! image's exact footprint, and adapts the core's probe hooks to an
//! [`EventSink`]. The host therefore runs the very code `swcert`
//! certifies.

use crate::mcu_image::compile_image;
use sidewinder_dsp::Sample;
use sidewinder_ir::{NodeId, Program, ValidateError};
use sidewinder_mcu::image::MAX_CHANNELS;
use sidewinder_mcu::{ExecProbe, HostCore, McuExecError};
use sidewinder_obs::{Event, EventSink, NullSink};
use sidewinder_sensors::SensorChannel;
use std::time::Instant;

pub use sidewinder_ir::flow::ChannelRates;
pub use sidewinder_mcu::WakeEvent;

/// Errors raised while loading or running a program on the hub.
#[derive(Debug, Clone, PartialEq)]
pub enum HubError {
    /// The program failed structural validation.
    Invalid(ValidateError),
    /// The program bypassed validation and has a structural hole the
    /// image compiler cannot resolve.
    Load(LoadError),
    /// The program does not fit the hub image: more than
    /// [`MAX_NODES`](sidewinder_mcu::image::MAX_NODES) nodes, or too many
    /// ports on one node (raised by [`compile_image`]).
    Image(sidewinder_mcu::ImageError),
    /// The core rejected the image at load: a parameter out of range, an
    /// edge of the wrong value kind, or a transform fed a length that is
    /// not a power of two. A loaded program cannot fail at run time.
    Exec(McuExecError),
}

/// Errors raised while resolving a program's edges to dense node
/// indices.
///
/// Validation makes these unreachable for programs that went through
/// [`Program::validate`], but the image compiler must not *trust* that:
/// a program assembled directly from [`Program::push_node`] (or a
/// validator that drifts out of sync) has to surface a typed error, not
/// a `BTreeMap` indexing panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadError {
    /// A node references a source node not yet indexed (undefined or
    /// defined later — the IR is define-before-use).
    UnknownSource {
        /// The consuming node.
        at: NodeId,
        /// The missing producer.
        source: NodeId,
    },
    /// The `OUT` statement references a node never indexed.
    UnknownOut {
        /// The missing producer.
        source: NodeId,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::UnknownSource { at, source } => {
                write!(
                    f,
                    "node {at}: source node {source} is not defined before use"
                )
            }
            LoadError::UnknownOut { source } => {
                write!(f, "OUT references undefined node {source}")
            }
        }
    }
}

impl std::error::Error for LoadError {}

impl std::fmt::Display for HubError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HubError::Invalid(e) => write!(f, "invalid program: {e}"),
            HubError::Load(e) => write!(f, "load failed: {e}"),
            HubError::Image(e) => write!(f, "image compilation failed: {e}"),
            HubError::Exec(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for HubError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HubError::Invalid(e) => Some(e),
            HubError::Load(e) => Some(e),
            HubError::Image(e) => Some(e),
            HubError::Exec(e) => Some(e),
        }
    }
}

impl From<ValidateError> for HubError {
    fn from(e: ValidateError) -> Self {
        HubError::Invalid(e)
    }
}

impl From<LoadError> for HubError {
    fn from(e: LoadError) -> Self {
        HubError::Load(e)
    }
}

impl From<sidewinder_mcu::ImageError> for HubError {
    fn from(e: sidewinder_mcu::ImageError) -> Self {
        HubError::Image(e)
    }
}

impl From<McuExecError> for HubError {
    fn from(e: McuExecError) -> Self {
        HubError::Exec(e)
    }
}

/// The hub interpreter: a loaded wake-up condition ready to consume
/// samples.
///
/// The core walks a dense, topologically ordered node table: each sample
/// runs the nodes it reaches, and every fresh result readies its
/// consumers, down to `OUT`. Readiness lives in one bitmask word, and
/// after `load` a pass performs no heap allocation.
///
/// The runtime is generic over an observability [`EventSink`]. The
/// default [`NullSink`] has `ENABLED = false`, which switches the core's
/// probe off at compile time, so the unobserved runtime is exactly the
/// uninstrumented interpreter (pinned by `tests/zero_alloc.rs`). Pass a
/// [`CounterSink`](sidewinder_obs::CounterSink) or
/// [`TimelineSink`](sidewinder_obs::TimelineSink) via
/// [`HubRuntime::load_with_sink`] to observe node executions, wake
/// emissions, and resets.
///
/// The runtime is also generic over the vector sample precision `P`
/// (default `f64`). In `f32` mode (the [`HubRuntime32`] alias, loaded
/// via [`HubRuntime32::load_f32`]) windows and magnitude spectra are
/// buffered and reduced at single precision — the hardware-faithful
/// hub mode, since the paper's MCUs have at most an f32 FPU — while
/// sensor ingestion, scalar features, thresholds, and [`WakeEvent`]s
/// stay `f64` end to end.
pub struct HubRuntime<S: EventSink = NullSink, P: Sample = f64> {
    core: HostCore<P>,
    /// IR id of each node by dense index; kept only for enabled sinks,
    /// whose events name nodes.
    ids: Vec<NodeId>,
    /// Wake events accumulated by the current `push_samples` batch.
    wake_buf: Vec<WakeEvent>,
    /// Observability sink; [`NullSink`] by default, in which case every
    /// use below is guarded out at compile time.
    sink: S,
}

impl HubRuntime {
    /// Validates `program` and loads it, with observability disabled
    /// ([`NullSink`]).
    ///
    /// # Errors
    ///
    /// As [`HubRuntime::load_generic`].
    pub fn load(program: &Program, rates: &ChannelRates) -> Result<Self, HubError> {
        Self::load_with_sink(program, rates, NullSink)
    }
}

/// The hub interpreter in single-precision (`f32`) vector mode.
pub type HubRuntime32<S = NullSink> = HubRuntime<S, f32>;

impl HubRuntime32 {
    /// Validates `program` and loads it with vector payloads (windows,
    /// magnitude spectra) at `f32`, with observability disabled
    /// ([`NullSink`]).
    ///
    /// # Errors
    ///
    /// As [`HubRuntime::load_generic`].
    pub fn load_f32(program: &Program, rates: &ChannelRates) -> Result<Self, HubError> {
        Self::load_generic(program, rates, NullSink)
    }
}

impl<S: EventSink> HubRuntime<S, f64> {
    /// Like [`HubRuntime::load`], but events flow into `sink`.
    ///
    /// # Errors
    ///
    /// As [`HubRuntime::load_generic`].
    pub fn load_with_sink(
        program: &Program,
        rates: &ChannelRates,
        sink: S,
    ) -> Result<Self, HubError> {
        Self::load_generic(program, rates, sink)
    }
}

impl<S: EventSink, P: Sample> HubRuntime<S, P> {
    /// The precision-generic loader behind [`HubRuntime::load_with_sink`]
    /// and [`HubRuntime32::load_f32`]: validate, compile the image, load
    /// it into a core. Callers name the precision at the type level
    /// (`HubRuntime::<_, f32>::load_generic(..)`); the named loaders
    /// exist so ordinary call sites never need a turbofish.
    ///
    /// # Errors
    ///
    /// [`HubError::Invalid`] if the program fails validation,
    /// [`HubError::Image`] if it exceeds the image limits, and
    /// [`HubError::Exec`] if the core rejects the image (see
    /// [`HubError::Exec`]).
    pub fn load_generic(
        program: &Program,
        rates: &ChannelRates,
        sink: S,
    ) -> Result<Self, HubError> {
        let image = compile_image(program, rates)?;
        let mut core = HostCore::new();
        core.load(&image)?;
        let ids = if S::ENABLED {
            program.nodes().map(|(_, id, _)| id).collect()
        } else {
            Vec::new()
        };
        Ok(HubRuntime {
            core,
            ids,
            wake_buf: Vec::new(),
            sink,
        })
    }

    /// The observability sink (e.g. to read counters after a run).
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the sink (e.g. to move its time cursor).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Number of nodes loaded.
    pub fn node_count(&self) -> usize {
        self.core.image().node_count()
    }

    /// Total wake-ups raised since load (or the last [`HubRuntime::reset`]).
    pub fn wake_count(&self) -> u64 {
        self.core.wake_count()
    }

    /// Feeds one sensor sample and propagates it through the pipeline.
    ///
    /// Returns the wake events raised by this sample (at most one per
    /// `OUT`-feeding emission).
    ///
    /// # Errors
    ///
    /// None on a loaded runtime: `load` rejects every program that could
    /// fail at run time, and every [`SensorChannel`] is in range. The
    /// `Result` carries the core's contract through unchanged.
    pub fn push_sample(
        &mut self,
        channel: SensorChannel,
        sample: f64,
    ) -> Result<Vec<WakeEvent>, HubError> {
        self.push_samples(channel, std::slice::from_ref(&sample))
            .map(<[WakeEvent]>::to_vec)
    }

    /// Feeds a batch of consecutive samples from one channel — the
    /// allocation-free bulk form of [`HubRuntime::push_sample`].
    ///
    /// Equivalent to pushing each sample in order; the returned slice
    /// holds every wake event the batch raised, in order, and borrows a
    /// buffer that the next push reuses.
    ///
    /// # Errors
    ///
    /// As [`HubRuntime::push_sample`].
    pub fn push_samples(
        &mut self,
        channel: SensorChannel,
        samples: &[f64],
    ) -> Result<&[WakeEvent], HubError> {
        let HubRuntime {
            core,
            ids,
            wake_buf,
            sink,
        } = self;
        wake_buf.clear();
        push_core(
            core,
            ids,
            sink,
            &[channel.index() as u8],
            &[samples],
            &mut |_, w| wake_buf.push(w),
        )?;
        Ok(wake_buf)
    }

    /// Feeds frames of co-sampled channels: frame `k` pushes
    /// `columns[m][k]` on `channels[m]` for each member `m` in order —
    /// equivalent to pushing each sample in that order, and
    /// allocation-free. `on_wake` receives every wake the frames raise,
    /// in order, with the index of the member whose sample raised it.
    ///
    /// # Errors
    ///
    /// [`HubError::Exec`] with [`McuExecError::FrameShape`] when the
    /// columns do not match the channels one for one, differ in length
    /// or number more than [`MAX_CHANNELS`] (nothing is pushed);
    /// otherwise as
    /// [`HubRuntime::push_sample`].
    pub fn push_frames(
        &mut self,
        channels: &[SensorChannel],
        columns: &[&[f64]],
        mut on_wake: impl FnMut(usize, WakeEvent),
    ) -> Result<(), HubError> {
        if channels.len() > MAX_CHANNELS {
            return Err(McuExecError::FrameShape.into());
        }
        let mut indices = [0u8; MAX_CHANNELS];
        for (index, channel) in indices.iter_mut().zip(channels) {
            *index = channel.index() as u8;
        }
        let indices = &indices[..channels.len()];
        let HubRuntime {
            core, ids, sink, ..
        } = self;
        push_core(core, ids, sink, indices, columns, &mut on_wake)?;
        Ok(())
    }

    /// Clears all node state and counters, keeping the configuration.
    pub fn reset(&mut self) {
        self.core.reset();
        self.wake_buf.clear();
        if S::ENABLED {
            self.sink.record(Event::HubReset);
        }
    }
}

impl<S: EventSink, P: Sample> std::fmt::Debug for HubRuntime<S, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HubRuntime")
            .field("nodes", &self.node_count())
            .field("wake_count", &self.wake_count())
            .finish_non_exhaustive()
    }
}

/// The one push behind [`HubRuntime::push_samples`] and
/// [`HubRuntime::push_frames`]: the core's probe is live exactly when
/// the sink is.
fn push_core<S: EventSink, P: Sample>(
    core: &mut HostCore<P>,
    ids: &[NodeId],
    sink: &mut S,
    channels: &[u8],
    columns: &[&[f64]],
    on_wake: &mut impl FnMut(usize, WakeEvent),
) -> Result<(), McuExecError> {
    if S::ENABLED {
        let mut probe = SinkProbe {
            out: ids[core.image().out_index()],
            sink,
            ids,
            started: None,
        };
        core.push_frames_probed(channels, columns, on_wake, &mut probe)
    } else {
        core.push_frames(channels, columns, on_wake)
    }
}

/// Turns the core's node-run and wake hooks into
/// [`Event::NodeExecuted`]s and [`Event::Wake`]s.
struct SinkProbe<'a, S: EventSink> {
    /// The node feeding `OUT`, which wake events name.
    out: NodeId,
    sink: &'a mut S,
    ids: &'a [NodeId],
    started: Option<Instant>,
}

impl<S: EventSink> ExecProbe for SinkProbe<'_, S> {
    const ENABLED: bool = S::ENABLED;

    fn node_start(&mut self, _node: u16) {
        self.started = Some(Instant::now());
    }

    fn node_end(&mut self, node: u16, produced: bool) {
        self.sink.record(Event::NodeExecuted {
            index: node as usize,
            node: self.ids[node as usize],
            elapsed_ns: self
                .started
                .take()
                .map_or(0, |t| t.elapsed().as_nanos() as u64),
            produced,
        });
    }

    fn wake(&mut self, wake: WakeEvent) {
        self.sink.record(Event::Wake {
            node: self.out,
            seq: wake.seq,
            value: wake.value,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidewinder_ir::Program;

    fn load(text: &str) -> HubRuntime {
        let program: Program = text.parse().unwrap();
        HubRuntime::load(&program, &ChannelRates::default()).unwrap()
    }

    #[test]
    fn load_rejects_invalid_programs() {
        let program: Program = "ACC_X -> movingAvg(id=1, params={10});".parse().unwrap();
        let err = HubRuntime::load(&program, &ChannelRates::default()).unwrap_err();
        assert!(matches!(err, HubError::Invalid(ValidateError::MissingOut)));
        assert!(err.to_string().contains("OUT"));
    }

    /// Wake values, one entry per pushed sample, of `text` fed
    /// `samples` on `channel`.
    fn wake_values(text: &str, channel: SensorChannel, samples: &[f64]) -> Vec<Option<f64>> {
        let mut hub = load(text);
        samples
            .iter()
            .map(|&x| {
                hub.push_sample(channel, x)
                    .unwrap()
                    .first()
                    .map(|w| w.value)
            })
            .collect()
    }

    #[test]
    fn threshold_gates_pass_only_their_band() {
        let gate = |kind: &str| {
            wake_values(
                &format!("ACC_X -> {kind}; 1 -> OUT;"),
                SensorChannel::AccX,
                &[-5.0, -1.0, 0.0, 2.0, 3.0, 5.0],
            )
        };
        assert_eq!(
            gate("minThreshold(id=1, params={2})"),
            [None, None, None, Some(2.0), Some(3.0), Some(5.0)]
        );
        assert_eq!(
            gate("maxThreshold(id=1, params={-3.75})"),
            [Some(-5.0), None, None, None, None, None]
        );
        assert_eq!(
            gate("bandThreshold(id=1, params={2.5, 4.5})"),
            [None, None, None, None, Some(3.0), None]
        );
        assert_eq!(
            gate("outsideThreshold(id=1, params={-1, 1})"),
            [Some(-5.0), None, None, Some(2.0), Some(3.0), Some(5.0)]
        );
    }

    #[test]
    fn stats_reduce_windows() {
        let cases = [
            ("mean", 2.5),
            ("variance", 1.25),
            ("stdDev", 1.25f64.sqrt()),
            ("meanAbs", 2.5),
            ("rms", 7.5f64.sqrt()),
            ("energy", 30.0),
            ("min", 1.0),
            ("max", 4.0),
            ("peakToPeak", 3.0),
        ];
        for (stat, expected) in cases {
            let text =
                format!("ACC_X -> window(id=1, params={{4, 4, 0}}); 1 -> {stat}(id=2); 2 -> OUT;");
            let wakes = wake_values(&text, SensorChannel::AccX, &[1.0, 2.0, 3.0, 4.0]);
            let got = wakes[3].unwrap_or_else(|| panic!("{stat}: the full window must emit"));
            assert!((got - expected).abs() < 1e-9, "{stat}: {got} != {expected}");
        }
    }

    #[test]
    fn dominant_freq_finds_the_tone() {
        let rate = 8000.0;
        let tone: Vec<f64> = (0..256)
            .map(|i| (2.0 * std::f64::consts::PI * 1000.0 * i as f64 / rate).sin())
            .collect();
        let wakes = wake_values(
            "MIC -> window(id=1, params={256, 256, 0});
             1 -> fft(id=2);
             2 -> spectralMagnitude(id=3);
             3 -> dominantFreq(id=4);
             4 -> OUT;",
            SensorChannel::Mic,
            &tone,
        );
        let f = wakes[255].expect("a full window must yield a dominant frequency");
        assert!((f - 1000.0).abs() < rate / 256.0, "freq = {f}");
    }

    #[test]
    fn zero_crossing_features_see_modulation() {
        // Half alternating, half constant.
        let mut samples: Vec<f64> = (0..32)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        samples.extend(std::iter::repeat_n(1.0, 32));
        let window = "MIC -> window(id=1, params={64, 64, 0});";
        let zcr = wake_values(
            &format!("{window} 1 -> zcr(id=2); 2 -> OUT;"),
            SensorChannel::Mic,
            &samples,
        );
        // 31 crossings in the alternating half, one into the constant one.
        let rate = zcr[63].expect("zcr emits per window");
        assert!((rate - 32.0 / 63.0).abs() < 1e-9, "zcr = {rate}");
        let var = wake_values(
            &format!("{window} 1 -> zcrVariance(id=2, params={{4}}); 2 -> OUT;"),
            SensorChannel::Mic,
            &samples,
        );
        assert!(var[63].expect("zcrVariance emits per window") > 0.0);
    }

    #[test]
    fn goertzel_probes_match_the_fft_chain_on_bin_tones() {
        let rate = 8000.0;
        let n = 1024;
        // A strong tone on bin 128 (1000 Hz) and a weaker one on bin 130.
        let tone: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / rate;
                (2.0 * std::f64::consts::PI * 1000.0 * t).sin()
                    + 0.3 * (2.0 * std::f64::consts::PI * 1015.625 * t).sin()
            })
            .collect();
        let spectrum = sidewinder_dsp::fft::real_fft(&tone).unwrap();
        let in_band: Vec<f64> = (1..=n / 2)
            .filter(|&k| (980.0..=1020.0).contains(&(k as f64 * rate / n as f64)))
            .map(|k| spectrum[k].magnitude())
            .collect();
        let peak = in_band.iter().copied().fold(0.0f64, f64::max);
        let head = |kind: &str| {
            wake_values(
                &format!("MIC -> window(id=1, params={{1024, 1024, 0}}); 1 -> {kind}(id=2, params={{980, 1020}}); 2 -> OUT;"),
                SensorChannel::Mic,
                &tone,
            )[n - 1]
            .unwrap_or_else(|| panic!("{kind} must emit on the full window"))
        };
        let magnitude = head("goertzel");
        assert!(
            (magnitude - peak).abs() / peak < 1e-9,
            "{magnitude} vs {peak}"
        );
        assert!((head("goertzelFreq") - 1000.0).abs() < 1e-9);
        let ratio = head("goertzelRatio");
        let expected = peak / (in_band.iter().sum::<f64>() / (n / 2) as f64);
        assert!(
            (ratio - expected).abs() / expected < 1e-6,
            "{ratio} vs {expected}"
        );
    }

    #[test]
    fn goertzel_heads_never_probe_dc_or_empty_bands() {
        let dc = vec![1.0; 64];
        let window = "MIC -> window(id=1, params={64, 64, 0});";
        // The DC-only band covers bin 0, which the dominant-feature
        // probes skip; 100–101 Hz holds no 125 Hz-spaced bin center.
        for head in [
            "goertzelFreq(id=2, params={0, 100})",
            "goertzelRatio(id=2, params={0, 100})",
            "goertzel(id=2, params={100, 101})",
        ] {
            let text = format!("{window} 1 -> {head}; 2 -> OUT;");
            let wakes = wake_values(&text, SensorChannel::Mic, &dc);
            assert!(wakes.iter().all(Option::is_none), "{head} emitted");
        }
    }

    #[test]
    fn significant_motion_pipeline_wakes_on_vigorous_motion() {
        // The paper's Fig. 2 example, with a threshold above resting
        // gravity magnitude (~9.81).
        let mut hub = load(
            "ACC_X -> movingAvg(id=1, params={10});
             ACC_Y -> movingAvg(id=2, params={10});
             ACC_Z -> movingAvg(id=3, params={10});
             1,2,3 -> vectorMagnitude(id=4);
             4 -> minThreshold(id=5, params={15});
             5 -> OUT;",
        );
        assert_eq!(hub.node_count(), 5);

        // Resting: gravity only.
        for _ in 0..50 {
            for (c, v) in [
                (SensorChannel::AccX, 0.0),
                (SensorChannel::AccY, 0.0),
                (SensorChannel::AccZ, 9.81),
            ] {
                assert!(hub.push_sample(c, v).unwrap().is_empty());
            }
        }
        assert_eq!(hub.wake_count(), 0);

        // Vigorous shaking: large magnitude on all axes.
        let mut woke = false;
        for _ in 0..50 {
            for c in SensorChannel::ACCEL {
                woke |= !hub.push_sample(c, 12.0).unwrap().is_empty();
            }
        }
        assert!(woke);
        assert!(hub.wake_count() > 0);
    }

    #[test]
    fn wake_events_carry_value_and_seq() {
        let mut hub = load(
            "ACC_X -> movingAvg(id=1, params={2});
             1 -> minThreshold(id=2, params={5});
             2 -> OUT;",
        );
        hub.push_sample(SensorChannel::AccX, 6.0).unwrap();
        let wakes = hub.push_sample(SensorChannel::AccX, 8.0).unwrap();
        assert_eq!(wakes.len(), 1);
        assert_eq!(wakes[0].value, 7.0);
        assert_eq!(wakes[0].seq, 1);
    }

    #[test]
    fn irrelevant_channels_are_ignored() {
        let mut hub = load(
            "ACC_X -> movingAvg(id=1, params={1});
             1 -> minThreshold(id=2, params={0});
             2 -> OUT;",
        );
        // Mic samples never touch the accelerometer pipeline.
        assert!(hub
            .push_sample(SensorChannel::Mic, 99.0)
            .unwrap()
            .is_empty());
        assert!(!hub
            .push_sample(SensorChannel::AccX, 1.0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn audio_window_pipeline_counts_windows() {
        let mut hub = load(
            "MIC -> window(id=1, params={64, 64, 0});
             1 -> rms(id=2);
             2 -> minThreshold(id=3, params={0.5});
             3 -> OUT;",
        );
        // 128 loud samples → two windows → two wakes.
        let mut wakes = 0;
        for i in 0..128u64 {
            let x = if i % 2 == 0 { 1.0 } else { -1.0 };
            wakes += hub.push_sample(SensorChannel::Mic, x).unwrap().len();
        }
        assert_eq!(wakes, 2);
        // 128 quiet samples → no wakes.
        for _ in 0..128 {
            assert!(hub
                .push_sample(SensorChannel::Mic, 0.001)
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn branching_window_feeds_two_consumers() {
        // One window feeding both a variance branch and a ZCR branch,
        // joined by allOf — the music-journal shape (paper §3.7.2).
        let mut hub = load(
            "MIC -> window(id=1, params={64, 64, 0});
             1 -> variance(id=2);
             1 -> zcrVariance(id=3, params={4});
             2 -> minThreshold(id=4, params={0.01});
             3 -> minThreshold(id=5, params={0});
             4,5 -> allOf(id=6);
             6 -> OUT;",
        );
        let mut woke = false;
        for i in 0..256u64 {
            // Alternate loud high-ZCR and quiet segments within windows.
            let x = if (i / 8) % 2 == 0 {
                if i % 2 == 0 {
                    1.0
                } else {
                    -1.0
                }
            } else {
                0.0
            };
            woke |= !hub.push_sample(SensorChannel::Mic, x).unwrap().is_empty();
        }
        assert!(woke);
    }

    #[test]
    fn sustained_siren_shape_requires_duration() {
        // Pitched windows must persist for 3 consecutive windows
        // (hop = 64) before OUT fires.
        let text = "MIC -> window(id=1, params={64, 64, 0});
             1 -> fft(id=2);
             2 -> spectralMagnitude(id=3);
             3 -> dominantRatio(id=4);
             4 -> minThreshold(id=5, params={5});
             5 -> sustained(id=6, params={3, 64});
             6 -> OUT;";
        let mut hub = load(text);
        let rate = 8000.0;
        let tone = |i: u64| (2.0 * std::f64::consts::PI * 1000.0 * i as f64 / rate).sin();

        // Two pitched windows: not enough.
        let mut wakes = 0;
        for i in 0..128u64 {
            wakes += hub.push_sample(SensorChannel::Mic, tone(i)).unwrap().len();
        }
        assert_eq!(wakes, 0);
        // A third consecutive pitched window triggers.
        for i in 128..192u64 {
            wakes += hub.push_sample(SensorChannel::Mic, tone(i)).unwrap().len();
        }
        assert_eq!(wakes, 1);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut hub = load(
            "ACC_X -> movingAvg(id=1, params={2});
             1 -> minThreshold(id=2, params={0});
             2 -> OUT;",
        );
        hub.push_sample(SensorChannel::AccX, 1.0).unwrap();
        hub.push_sample(SensorChannel::AccX, 1.0).unwrap();
        assert_eq!(hub.wake_count(), 1);
        hub.reset();
        assert_eq!(hub.wake_count(), 0);
        // Warm-up required again after reset.
        assert!(hub
            .push_sample(SensorChannel::AccX, 1.0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn channel_rates_validation() {
        let rates = ChannelRates::default().with_rate(SensorChannel::Mic, 16_000.0);
        assert_eq!(rates.rate_of(SensorChannel::Mic), 16_000.0);
        assert_eq!(rates.rate_of(SensorChannel::AccX), 50.0);
    }

    #[test]
    #[should_panic(expected = "sample rate must be positive")]
    fn channel_rates_reject_zero() {
        let _ = ChannelRates::default().with_rate(SensorChannel::Mic, 0.0);
    }

    #[test]
    fn fft_ifft_round_trip_inside_a_program() {
        // window → fft → ifft → rms reproduces the plain window → rms
        // pipeline (the inverse transform is exact).
        let text_roundtrip = "MIC -> window(id=1, params={64, 64, 0});
             1 -> fft(id=2);
             2 -> ifft(id=3);
             3 -> rms(id=4);
             4 -> minThreshold(id=5, params={0.5});
             5 -> OUT;";
        let text_direct = "MIC -> window(id=1, params={64, 64, 0});
             1 -> rms(id=2);
             2 -> minThreshold(id=3, params={0.5});
             3 -> OUT;";
        let mut roundtrip = load(text_roundtrip);
        let mut direct = load(text_direct);
        for i in 0..512u64 {
            let x = (i as f64 * 0.7).sin();
            let a = roundtrip.push_sample(SensorChannel::Mic, x).unwrap();
            let b = direct.push_sample(SensorChannel::Mic, x).unwrap();
            assert_eq!(a.len(), b.len(), "wake mismatch at sample {i}");
            for (wa, wb) in a.iter().zip(&b) {
                assert!((wa.value - wb.value).abs() < 1e-9);
            }
        }
        assert!(roundtrip.wake_count() > 0);
    }

    #[test]
    fn any_of_joins_with_or_semantics() {
        // Wake when either axis exceeds its own threshold.
        let mut hub = load(
            "ACC_X -> minThreshold(id=1, params={5});
             ACC_Y -> minThreshold(id=2, params={7});
             1,2 -> anyOf(id=3);
             3 -> OUT;",
        );
        // Only x exceeds: wakes.
        assert!(!hub
            .push_sample(SensorChannel::AccX, 6.0)
            .unwrap()
            .is_empty());
        assert!(hub
            .push_sample(SensorChannel::AccY, 6.0)
            .unwrap()
            .is_empty());
        // Only y exceeds: wakes.
        assert!(hub
            .push_sample(SensorChannel::AccX, 1.0)
            .unwrap()
            .is_empty());
        assert!(!hub
            .push_sample(SensorChannel::AccY, 8.0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn exp_moving_average_runs_in_a_program() {
        let mut hub = load(
            "ACC_X -> expMovingAvg(id=1, params={0.5});
             1 -> minThreshold(id=2, params={3});
             2 -> OUT;",
        );
        // EMA of constant 4: first output 4 ≥ 3 → immediate wake.
        assert!(!hub
            .push_sample(SensorChannel::AccX, 4.0)
            .unwrap()
            .is_empty());
        // EMA decays from 4 toward 0: 2.0 at the next quiet sample.
        assert!(hub
            .push_sample(SensorChannel::AccX, 0.0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn f32_runtime_agrees_with_f64_on_the_music_shape() {
        // The branching window/variance/zcr shape at both precisions:
        // identical wake decisions on a well-separated signal, with wake
        // values within single-precision tolerance.
        let text = "MIC -> window(id=1, params={64, 64, 0});
             1 -> variance(id=2);
             1 -> zcrVariance(id=3, params={4});
             2 -> minThreshold(id=4, params={0.01});
             3 -> minThreshold(id=5, params={0});
             4,5 -> allOf(id=6);
             6 -> OUT;";
        let program: Program = text.parse().unwrap();
        let mut h64 = HubRuntime::load(&program, &ChannelRates::default()).unwrap();
        let mut h32 = HubRuntime32::load_f32(&program, &ChannelRates::default()).unwrap();
        for i in 0..512u64 {
            let x = if (i / 8) % 2 == 0 {
                if i % 2 == 0 {
                    1.0
                } else {
                    -1.0
                }
            } else {
                0.0
            };
            let a = h64.push_sample(SensorChannel::Mic, x).unwrap();
            let b = h32.push_sample(SensorChannel::Mic, x).unwrap();
            assert_eq!(a.len(), b.len(), "wake count diverged at sample {i}");
            for (wa, wb) in a.iter().zip(&b) {
                assert_eq!(wa.seq, wb.seq);
                assert!(
                    (wa.value - wb.value).abs() < 1e-4,
                    "{} vs {}",
                    wa.value,
                    wb.value
                );
            }
        }
        assert!(h64.wake_count() > 0, "the loud segments must wake");
        assert_eq!(h64.wake_count(), h32.wake_count());
    }

    #[test]
    fn load_rejects_a_transform_fed_a_non_power_of_two() {
        // A magnitude vector (length 33) flowing into lowPass passes IR
        // validation; the core's layout walk rejects it at load, naming
        // the filter, instead of failing on the first window.
        let program: Program = "MIC -> window(id=1, params={64, 64, 0});
             1 -> fft(id=2);
             2 -> spectralMagnitude(id=3);
             3 -> lowPass(id=4, params={100});
             4 -> rms(id=5);
             5 -> minThreshold(id=6, params={0});
             6 -> OUT;"
            .parse()
            .unwrap();
        program.validate().unwrap();
        let err = HubRuntime::load(&program, &ChannelRates::default()).unwrap_err();
        assert_eq!(
            err,
            HubError::Exec(McuExecError::BadTransformLength { node: 3, len: 33 })
        );
        assert!(err.to_string().contains("node 3"), "{err}");
    }

    #[test]
    fn load_refuses_a_valid_but_huge_buffer_with_a_typed_error() {
        // Both pass IR validation; their rings would need gigabytes, so
        // the host core refuses them against its per-arena cap before
        // allocating anything.
        for (text, arena) in [
            (
                include_str!("../../../fuzz/corpora/ir_totality/huge_window.swir"),
                "sample arena",
            ),
            (
                include_str!("../../../fuzz/corpora/ir_totality/huge_moving_avg.swir"),
                "scalar arena",
            ),
        ] {
            let program: Program = text.parse().unwrap();
            program.validate().unwrap();
            let err = HubRuntime::load(&program, &ChannelRates::default()).unwrap_err();
            let HubError::Exec(McuExecError::ArenaOverflow {
                arena: got,
                node: 0,
                capacity,
                ..
            }) = err
            else {
                panic!("{text}: expected an arena overflow at node 0, got {err:?}");
            };
            assert_eq!((got, capacity), (arena, sidewinder_mcu::HOST_ARENA_CAP));
        }
    }
}
