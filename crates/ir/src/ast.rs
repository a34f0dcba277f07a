//! Program representation for the intermediate language.

use sidewinder_sensors::SensorChannel;

/// Identifier of an algorithm instance within one program.
///
/// Ids are assigned by the sensor manager when a pipeline is compiled
/// (paper §3.3) and must be unique and non-zero within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The kind of value flowing along an edge of the dataflow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// One number per sample or per window (sensor samples, features,
    /// admission-control outputs).
    Scalar,
    /// A window of real samples or a magnitude spectrum.
    Vector,
    /// A complex spectrum, produced by `fft` and consumed by `ifft` or
    /// `spectralMagnitude`.
    Spectrum,
}

impl std::fmt::Display for ValueType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ValueType::Scalar => "scalar",
            ValueType::Vector => "vector",
            ValueType::Spectrum => "spectrum",
        };
        f.write_str(s)
    }
}

/// Window taper selector carried in IR parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WindowShapeParam {
    /// Rectangular (no taper); parameter value `0`.
    #[default]
    Rectangular,
    /// Hamming taper; parameter value `1`.
    Hamming,
    /// Hann taper; parameter value `2`.
    Hann,
}

impl WindowShapeParam {
    /// Encodes the shape as the numeric IR parameter.
    pub fn encode(self) -> f64 {
        match self {
            WindowShapeParam::Rectangular => 0.0,
            WindowShapeParam::Hamming => 1.0,
            WindowShapeParam::Hann => 2.0,
        }
    }

    /// Decodes a numeric IR parameter back to a shape.
    pub fn decode(v: f64) -> Option<Self> {
        match v as i64 {
            0 if v == 0.0 => Some(WindowShapeParam::Rectangular),
            1 if v == 1.0 => Some(WindowShapeParam::Hamming),
            2 if v == 2.0 => Some(WindowShapeParam::Hann),
            _ => None,
        }
    }
}

/// The statistical reductions offered by the platform's "set of statistical
/// functions" (paper §3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StatFn {
    /// Arithmetic mean of the window.
    Mean,
    /// Population variance of the window.
    Variance,
    /// Population standard deviation of the window.
    StdDev,
    /// Mean absolute amplitude of the window.
    MeanAbs,
    /// Root mean square of the window.
    Rms,
    /// Energy `Σx²` of the window.
    Energy,
    /// Minimum sample of the window.
    Min,
    /// Maximum sample of the window.
    Max,
    /// `max − min` of the window.
    PeakToPeak,
}

impl StatFn {
    /// All statistical functions.
    pub const ALL: [StatFn; 9] = [
        StatFn::Mean,
        StatFn::Variance,
        StatFn::StdDev,
        StatFn::MeanAbs,
        StatFn::Rms,
        StatFn::Energy,
        StatFn::Min,
        StatFn::Max,
        StatFn::PeakToPeak,
    ];

    /// The IR name of this reduction.
    pub fn ir_name(self) -> &'static str {
        match self {
            StatFn::Mean => "mean",
            StatFn::Variance => "variance",
            StatFn::StdDev => "stdDev",
            StatFn::MeanAbs => "meanAbs",
            StatFn::Rms => "rms",
            StatFn::Energy => "energy",
            StatFn::Min => "min",
            StatFn::Max => "max",
            StatFn::PeakToPeak => "peakToPeak",
        }
    }
}

/// An algorithm instance's kind and parameters.
///
/// This is the complete menu the platform offers (paper §3.6): windowing,
/// transforms, data filtering, feature extraction, and admission control,
/// plus the aggregation operators (`vectorMagnitude`, `allOf`, `anyOf`)
/// that merge processing branches, and `sustained` which expresses
/// duration conditions such as the siren detector's "longer than 650 ms".
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlgorithmKind {
    /// Partition a scalar stream into windows of `size` samples emitted
    /// every `hop` samples with taper `shape`. Scalar → Vector.
    Window {
        /// Window length in samples.
        size: u32,
        /// Stride between emitted windows in samples.
        hop: u32,
        /// Taper applied to each window.
        shape: WindowShapeParam,
    },
    /// Forward FFT of a window. Vector → Spectrum.
    Fft,
    /// Inverse FFT back to the time domain. Spectrum → Vector.
    Ifft,
    /// One-sided magnitude reduction of a spectrum. Spectrum → Vector.
    SpectralMagnitude,
    /// Simple moving average over `window` samples. Scalar → Scalar.
    MovingAvg {
        /// Averaging window in samples.
        window: u32,
    },
    /// Exponential moving average with smoothing factor `alpha`.
    /// Scalar → Scalar.
    ExpMovingAvg {
        /// Smoothing factor in `(0, 1]`.
        alpha: f64,
    },
    /// FFT-based low-pass filter on a window. Vector → Vector.
    LowPass {
        /// Cut-off frequency in Hz.
        cutoff_hz: f64,
    },
    /// FFT-based high-pass filter on a window. Vector → Vector.
    HighPass {
        /// Cut-off frequency in Hz.
        cutoff_hz: f64,
    },
    /// Euclidean magnitude across N scalar branches; emits when every
    /// branch has delivered a value derived from the same source samples
    /// (equal sequence tags). Scalar×N → Scalar.
    VectorMagnitude,
    /// Zero-crossing rate of a window. Vector → Scalar.
    Zcr,
    /// Variance of per-sub-window zero-crossing rates. Vector → Scalar.
    ZcrVariance {
        /// Number of equal sub-windows.
        sub_windows: u32,
    },
    /// A statistical reduction of a window. Vector → Scalar.
    Stat(StatFn),
    /// Ratio of dominant to mean spectral magnitude ("pitchedness").
    /// Vector → Scalar.
    DominantRatio,
    /// Frequency (Hz) of the dominant non-DC spectral bin.
    /// Vector → Scalar.
    DominantFreq,
    /// Maximum Goertzel magnitude over the DFT bins of the incoming
    /// window whose center frequency lies in `[lo_hz, hi_hz]` — the
    /// strength-reduced form of a narrow-band spectral gate
    /// (`fft → spectralMagnitude → max` restricted to a band). Probing
    /// K bins costs `O(K·N)` instead of the filter+FFT chain's
    /// `O(N log N)`, so it wins exactly when the band is narrow.
    /// Vector → Scalar.
    Goertzel {
        /// Lower band edge in Hz (inclusive).
        lo_hz: f64,
        /// Upper band edge in Hz (inclusive).
        hi_hz: f64,
    },
    /// Frequency (Hz) of the strongest Goertzel probe among the non-DC
    /// DFT bins of the incoming window whose center frequency lies in
    /// `[lo_hz, hi_hz]` — the strength-reduced form of a narrow-band
    /// `fft → spectralMagnitude → dominantFreq` chain (the chain skips
    /// the DC bin, so the probe grid does too). Vector → Scalar.
    GoertzelFreq {
        /// Lower band edge in Hz (inclusive).
        lo_hz: f64,
        /// Upper band edge in Hz (inclusive).
        hi_hz: f64,
    },
    /// Ratio of the strongest in-band Goertzel magnitude to the mean
    /// magnitude the replaced chain would compute over all non-DC bins
    /// of the one-sided spectrum (out-of-band bins of a filtered
    /// spectrum carry only rounding residue, so the in-band sum stands
    /// in for the total) — the strength-reduced form of a narrow-band
    /// `fft → spectralMagnitude → dominantRatio` chain.
    /// Vector → Scalar.
    GoertzelRatio {
        /// Lower band edge in Hz (inclusive).
        lo_hz: f64,
        /// Upper band edge in Hz (inclusive).
        hi_hz: f64,
    },
    /// Passes values `>= threshold` (the paper's low-bound admission
    /// control). Scalar → Scalar.
    MinThreshold {
        /// Lower bound.
        threshold: f64,
    },
    /// Passes values `<= threshold`. Scalar → Scalar.
    MaxThreshold {
        /// Upper bound.
        threshold: f64,
    },
    /// Passes values inside `[lo, hi]`. Scalar → Scalar.
    BandThreshold {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Passes values outside `[lo, hi]` — the complement of
    /// [`AlgorithmKind::BandThreshold`]. Scalar → Scalar.
    OutsideThreshold {
        /// Lower bound of the rejected band.
        lo: f64,
        /// Upper bound of the rejected band.
        hi: f64,
    },
    /// Emits once `count` inputs have arrived with gaps of at most
    /// `max_gap` hub samples between consecutive arrivals; used for
    /// duration conditions. Scalar → Scalar.
    Sustained {
        /// Required consecutive arrivals.
        count: u32,
        /// Maximum gap, in hub sample ticks, for arrivals to count as
        /// consecutive (typically the upstream window hop).
        max_gap: u32,
    },
    /// Emits when every input branch has delivered a value derived from
    /// the same source samples (logical AND join over one window);
    /// forwards the last input's value. Scalar×N → Scalar.
    AllOf,
    /// Emits whenever any input branch delivers a value (logical OR
    /// join). Scalar×N → Scalar.
    AnyOf,
}

impl AlgorithmKind {
    /// The IR name of this algorithm.
    pub fn ir_name(&self) -> &'static str {
        match self {
            AlgorithmKind::Window { .. } => "window",
            AlgorithmKind::Fft => "fft",
            AlgorithmKind::Ifft => "ifft",
            AlgorithmKind::SpectralMagnitude => "spectralMagnitude",
            AlgorithmKind::MovingAvg { .. } => "movingAvg",
            AlgorithmKind::ExpMovingAvg { .. } => "expMovingAvg",
            AlgorithmKind::LowPass { .. } => "lowPass",
            AlgorithmKind::HighPass { .. } => "highPass",
            AlgorithmKind::VectorMagnitude => "vectorMagnitude",
            AlgorithmKind::Zcr => "zcr",
            AlgorithmKind::ZcrVariance { .. } => "zcrVariance",
            AlgorithmKind::Stat(s) => s.ir_name(),
            AlgorithmKind::DominantRatio => "dominantRatio",
            AlgorithmKind::DominantFreq => "dominantFreq",
            AlgorithmKind::Goertzel { .. } => "goertzel",
            AlgorithmKind::GoertzelFreq { .. } => "goertzelFreq",
            AlgorithmKind::GoertzelRatio { .. } => "goertzelRatio",
            AlgorithmKind::MinThreshold { .. } => "minThreshold",
            AlgorithmKind::MaxThreshold { .. } => "maxThreshold",
            AlgorithmKind::BandThreshold { .. } => "bandThreshold",
            AlgorithmKind::OutsideThreshold { .. } => "outsideThreshold",
            AlgorithmKind::Sustained { .. } => "sustained",
            AlgorithmKind::AllOf => "allOf",
            AlgorithmKind::AnyOf => "anyOf",
        }
    }

    /// Encodes the parameters in IR order.
    pub fn encode_params(&self) -> Vec<f64> {
        match *self {
            AlgorithmKind::Window { size, hop, shape } => {
                vec![size as f64, hop as f64, shape.encode()]
            }
            AlgorithmKind::MovingAvg { window } => vec![window as f64],
            AlgorithmKind::ExpMovingAvg { alpha } => vec![alpha],
            AlgorithmKind::LowPass { cutoff_hz } => vec![cutoff_hz],
            AlgorithmKind::HighPass { cutoff_hz } => vec![cutoff_hz],
            AlgorithmKind::ZcrVariance { sub_windows } => vec![sub_windows as f64],
            AlgorithmKind::Goertzel { lo_hz, hi_hz }
            | AlgorithmKind::GoertzelFreq { lo_hz, hi_hz }
            | AlgorithmKind::GoertzelRatio { lo_hz, hi_hz } => vec![lo_hz, hi_hz],
            AlgorithmKind::MinThreshold { threshold } => vec![threshold],
            AlgorithmKind::MaxThreshold { threshold } => vec![threshold],
            AlgorithmKind::BandThreshold { lo, hi } => vec![lo, hi],
            AlgorithmKind::OutsideThreshold { lo, hi } => vec![lo, hi],
            AlgorithmKind::Sustained { count, max_gap } => {
                vec![count as f64, max_gap as f64]
            }
            AlgorithmKind::Fft
            | AlgorithmKind::Ifft
            | AlgorithmKind::SpectralMagnitude
            | AlgorithmKind::VectorMagnitude
            | AlgorithmKind::Zcr
            | AlgorithmKind::Stat(_)
            | AlgorithmKind::DominantRatio
            | AlgorithmKind::DominantFreq
            | AlgorithmKind::AllOf
            | AlgorithmKind::AnyOf => vec![],
        }
    }

    /// Decodes an IR name and parameter list back to a kind.
    ///
    /// Returns `None` for unknown names or wrong parameter counts; value
    /// *range* checking is the validator's job.
    pub fn decode(name: &str, params: &[f64]) -> Option<AlgorithmKind> {
        let kind = match (name, params.len()) {
            ("window", 3) => AlgorithmKind::Window {
                size: params[0] as u32,
                hop: params[1] as u32,
                shape: WindowShapeParam::decode(params[2])?,
            },
            ("fft", 0) => AlgorithmKind::Fft,
            ("ifft", 0) => AlgorithmKind::Ifft,
            ("spectralMagnitude", 0) => AlgorithmKind::SpectralMagnitude,
            ("movingAvg", 1) => AlgorithmKind::MovingAvg {
                window: params[0] as u32,
            },
            ("expMovingAvg", 1) => AlgorithmKind::ExpMovingAvg { alpha: params[0] },
            ("lowPass", 1) => AlgorithmKind::LowPass {
                cutoff_hz: params[0],
            },
            ("highPass", 1) => AlgorithmKind::HighPass {
                cutoff_hz: params[0],
            },
            ("vectorMagnitude", 0) => AlgorithmKind::VectorMagnitude,
            ("zcr", 0) => AlgorithmKind::Zcr,
            ("zcrVariance", 1) => AlgorithmKind::ZcrVariance {
                sub_windows: params[0] as u32,
            },
            ("dominantRatio", 0) => AlgorithmKind::DominantRatio,
            ("dominantFreq", 0) => AlgorithmKind::DominantFreq,
            ("goertzel", 2) => AlgorithmKind::Goertzel {
                lo_hz: params[0],
                hi_hz: params[1],
            },
            ("goertzelFreq", 2) => AlgorithmKind::GoertzelFreq {
                lo_hz: params[0],
                hi_hz: params[1],
            },
            ("goertzelRatio", 2) => AlgorithmKind::GoertzelRatio {
                lo_hz: params[0],
                hi_hz: params[1],
            },
            ("minThreshold", 1) => AlgorithmKind::MinThreshold {
                threshold: params[0],
            },
            ("maxThreshold", 1) => AlgorithmKind::MaxThreshold {
                threshold: params[0],
            },
            ("bandThreshold", 2) => AlgorithmKind::BandThreshold {
                lo: params[0],
                hi: params[1],
            },
            ("outsideThreshold", 2) => AlgorithmKind::OutsideThreshold {
                lo: params[0],
                hi: params[1],
            },
            ("sustained", 2) => AlgorithmKind::Sustained {
                count: params[0] as u32,
                max_gap: params[1] as u32,
            },
            ("allOf", 0) => AlgorithmKind::AllOf,
            ("anyOf", 0) => AlgorithmKind::AnyOf,
            (_, n) => {
                let stat = StatFn::ALL.into_iter().find(|s| s.ir_name() == name)?;
                if n != 0 {
                    return None;
                }
                AlgorithmKind::Stat(stat)
            }
        };
        Some(kind)
    }

    /// The value type this algorithm consumes on each input edge.
    pub fn input_type(&self) -> ValueType {
        match self {
            AlgorithmKind::Window { .. }
            | AlgorithmKind::MovingAvg { .. }
            | AlgorithmKind::ExpMovingAvg { .. }
            | AlgorithmKind::VectorMagnitude
            | AlgorithmKind::MinThreshold { .. }
            | AlgorithmKind::MaxThreshold { .. }
            | AlgorithmKind::BandThreshold { .. }
            | AlgorithmKind::OutsideThreshold { .. }
            | AlgorithmKind::Sustained { .. }
            | AlgorithmKind::AllOf
            | AlgorithmKind::AnyOf => ValueType::Scalar,
            AlgorithmKind::Fft
            | AlgorithmKind::LowPass { .. }
            | AlgorithmKind::HighPass { .. }
            | AlgorithmKind::Zcr
            | AlgorithmKind::ZcrVariance { .. }
            | AlgorithmKind::Stat(_)
            | AlgorithmKind::DominantRatio
            | AlgorithmKind::DominantFreq
            | AlgorithmKind::Goertzel { .. }
            | AlgorithmKind::GoertzelFreq { .. }
            | AlgorithmKind::GoertzelRatio { .. } => ValueType::Vector,
            AlgorithmKind::Ifft | AlgorithmKind::SpectralMagnitude => ValueType::Spectrum,
        }
    }

    /// The value type this algorithm produces.
    pub fn output_type(&self) -> ValueType {
        match self {
            AlgorithmKind::Window { .. }
            | AlgorithmKind::Ifft
            | AlgorithmKind::SpectralMagnitude
            | AlgorithmKind::LowPass { .. }
            | AlgorithmKind::HighPass { .. } => ValueType::Vector,
            AlgorithmKind::Fft => ValueType::Spectrum,
            _ => ValueType::Scalar,
        }
    }

    /// Whether the algorithm accepts more than one input branch.
    pub fn is_aggregator(&self) -> bool {
        matches!(
            self,
            AlgorithmKind::VectorMagnitude | AlgorithmKind::AllOf | AlgorithmKind::AnyOf
        )
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.ir_name())
    }
}

/// A data source feeding an algorithm: a sensor channel or an earlier node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// A hub sensor channel (`ACC_X`, `MIC`, …).
    Channel(SensorChannel),
    /// The output of another algorithm instance.
    Node(NodeId),
}

impl std::fmt::Display for Source {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Source::Channel(c) => write!(f, "{}", c.ir_name()),
            Source::Node(id) => write!(f, "{id}"),
        }
    }
}

/// One statement of an IR program.
///
/// Statements carry the 1-based source line they were parsed from so
/// diagnostics (validator errors, lints) can cite `line N` instead of
/// only node ids. Programs built through the API use line `0`
/// ("synthesized"); the line is *metadata* and is ignored by `PartialEq`,
/// so a parsed program compares equal to the same program built by hand.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `sources -> kind(id=N, params={…});` — instantiate an algorithm.
    Node {
        /// The input edges, in order.
        sources: Vec<Source>,
        /// The unique instance id.
        id: NodeId,
        /// The algorithm and its parameters.
        kind: AlgorithmKind,
        /// 1-based source line, or 0 when synthesized via the API.
        line: u32,
    },
    /// `N -> OUT;` — results of node `N` wake the main processor.
    Out {
        /// The node whose output triggers the wake-up.
        source: NodeId,
        /// 1-based source line, or 0 when synthesized via the API.
        line: u32,
    },
}

impl Stmt {
    /// The 1-based source line this statement was parsed from, or `None`
    /// for statements synthesized through the API.
    pub fn line(&self) -> Option<u32> {
        let raw = match self {
            Stmt::Node { line, .. } | Stmt::Out { line, .. } => *line,
        };
        (raw != 0).then_some(raw)
    }
}

impl PartialEq for Stmt {
    /// Structural equality; the source line is metadata and ignored.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                Stmt::Node {
                    sources: a,
                    id: ia,
                    kind: ka,
                    ..
                },
                Stmt::Node {
                    sources: b,
                    id: ib,
                    kind: kb,
                    ..
                },
            ) => a == b && ia == ib && ka == kb,
            (Stmt::Out { source: a, .. }, Stmt::Out { source: b, .. }) => a == b,
            _ => false,
        }
    }
}

/// A complete intermediate-language program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    stmts: Vec<Stmt>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Creates a program from statements without validating; call
    /// [`Program::validate`] before execution.
    pub fn from_stmts(stmts: Vec<Stmt>) -> Self {
        Program { stmts }
    }

    /// The statements in order.
    pub fn stmts(&self) -> &[Stmt] {
        &self.stmts
    }

    /// Appends a node statement (no source line; see
    /// [`Program::push_node_at`]).
    pub fn push_node(&mut self, sources: Vec<Source>, id: NodeId, kind: AlgorithmKind) {
        self.push_node_at(sources, id, kind, 0);
    }

    /// Appends a node statement carrying its 1-based source line
    /// (0 = synthesized).
    pub fn push_node_at(
        &mut self,
        sources: Vec<Source>,
        id: NodeId,
        kind: AlgorithmKind,
        line: u32,
    ) {
        self.stmts.push(Stmt::Node {
            sources,
            id,
            kind,
            line,
        });
    }

    /// Appends the terminal `OUT` statement (no source line; see
    /// [`Program::push_out_at`]).
    pub fn push_out(&mut self, source: NodeId) {
        self.push_out_at(source, 0);
    }

    /// Appends the terminal `OUT` statement carrying its 1-based source
    /// line (0 = synthesized).
    pub fn push_out_at(&mut self, source: NodeId, line: u32) {
        self.stmts.push(Stmt::Out { source, line });
    }

    /// The source line declaring node `id`, if the program was parsed
    /// from text.
    pub fn line_of(&self, id: NodeId) -> Option<u32> {
        self.stmts.iter().find_map(|s| match s {
            Stmt::Node { id: nid, .. } if *nid == id => s.line(),
            _ => None,
        })
    }

    /// The source line of the `OUT` statement, if parsed from text.
    pub fn out_line(&self) -> Option<u32> {
        self.stmts.iter().find_map(|s| match s {
            Stmt::Out { .. } => s.line(),
            _ => None,
        })
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the program has no statements.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Iterates node statements (skipping `OUT`).
    pub fn nodes(&self) -> impl Iterator<Item = (&[Source], NodeId, &AlgorithmKind)> {
        self.stmts.iter().filter_map(|s| match s {
            Stmt::Node {
                sources, id, kind, ..
            } => Some((sources.as_slice(), *id, kind)),
            Stmt::Out { .. } => None,
        })
    }

    /// The node feeding `OUT`, if the program has an `OUT` statement.
    pub fn out_source(&self) -> Option<NodeId> {
        self.stmts.iter().find_map(|s| match s {
            Stmt::Out { source, .. } => Some(*source),
            _ => None,
        })
    }

    /// The sensor channels this program reads.
    pub fn channels(&self) -> Vec<SensorChannel> {
        let mut out: Vec<SensorChannel> = self
            .nodes()
            .flat_map(|(sources, _, _)| sources.iter())
            .filter_map(|s| match s {
                Source::Channel(c) => Some(*c),
                Source::Node(_) => None,
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// A stable 64-bit digest of the program: FNV-1a over the canonical
    /// printed form. Because `parse ∘ print` is the identity, two
    /// programs have equal digests exactly when their canonical texts
    /// are equal — the key a fleet ingest path uses to acknowledge and
    /// deduplicate submitted wake conditions across the wire.
    pub fn stable_digest(&self) -> u64 {
        crate::fnv::Fnv1a::hash(self.to_string().as_bytes())
    }

    /// Whether the program contains an FFT-family stage (`fft`, `ifft`,
    /// `lowPass`, `highPass`). The MCU capability model uses this: the
    /// MSP430 cannot run FFT stages in real time (paper §4).
    pub fn uses_fft(&self) -> bool {
        self.nodes().any(|(_, _, kind)| {
            matches!(
                kind,
                AlgorithmKind::Fft
                    | AlgorithmKind::Ifft
                    | AlgorithmKind::LowPass { .. }
                    | AlgorithmKind::HighPass { .. }
            )
        })
    }

    /// Validates the program; see [`crate::validate`].
    ///
    /// # Errors
    ///
    /// Returns the first structural defect found.
    pub fn validate(&self) -> Result<(), crate::validate::ValidateError> {
        crate::validate::validate(self)
    }

    /// Validates the program, attaching source lines to any defect; see
    /// [`crate::validate`].
    ///
    /// # Errors
    ///
    /// Returns the first structural defect found, located at the
    /// statement that introduced it when line metadata is available.
    pub fn validate_located(&self) -> Result<(), crate::validate::LocatedValidateError> {
        crate::validate::validate_located(self)
    }
}

impl std::fmt::Display for Program {
    /// Prints the canonical textual form, one statement per line, exactly
    /// as accepted by the parser.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for stmt in &self.stmts {
            match stmt {
                Stmt::Node {
                    sources, id, kind, ..
                } => {
                    let src: Vec<String> = sources.iter().map(|s| s.to_string()).collect();
                    write!(f, "{} -> {}(id={}", src.join(","), kind.ir_name(), id)?;
                    let params = kind.encode_params();
                    if !params.is_empty() {
                        let rendered: Vec<String> =
                            params.iter().map(|p| format_param(*p)).collect();
                        write!(f, ", params={{{}}}", rendered.join(", "))?;
                    }
                    writeln!(f, ");")?;
                }
                Stmt::Out { source, .. } => writeln!(f, "{source} -> OUT;")?,
            }
        }
        Ok(())
    }
}

impl std::str::FromStr for Program {
    type Err = crate::parse::ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        crate::parse::parse(s)
    }
}

/// Formats a parameter so integers print without a trailing `.0` (matching
/// the paper's `params={10}` style) while fractional values keep full
/// precision.
pub(crate) fn format_param(p: f64) -> String {
    if p.fract() == 0.0 && p.abs() < 1e15 {
        format!("{}", p as i64)
    } else {
        // `{:?}` prints the shortest representation that round-trips.
        format!("{p:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ir_names_decode_back() {
        let kinds = [
            AlgorithmKind::Window {
                size: 256,
                hop: 128,
                shape: WindowShapeParam::Hamming,
            },
            AlgorithmKind::Fft,
            AlgorithmKind::Ifft,
            AlgorithmKind::SpectralMagnitude,
            AlgorithmKind::MovingAvg { window: 10 },
            AlgorithmKind::ExpMovingAvg { alpha: 0.25 },
            AlgorithmKind::LowPass { cutoff_hz: 3.0 },
            AlgorithmKind::HighPass { cutoff_hz: 750.0 },
            AlgorithmKind::VectorMagnitude,
            AlgorithmKind::Zcr,
            AlgorithmKind::ZcrVariance { sub_windows: 8 },
            AlgorithmKind::Stat(StatFn::Variance),
            AlgorithmKind::DominantRatio,
            AlgorithmKind::DominantFreq,
            AlgorithmKind::Goertzel {
                lo_hz: 980.0,
                hi_hz: 1020.0,
            },
            AlgorithmKind::GoertzelFreq {
                lo_hz: 980.0,
                hi_hz: 1020.0,
            },
            AlgorithmKind::GoertzelRatio {
                lo_hz: 980.0,
                hi_hz: 1020.0,
            },
            AlgorithmKind::MinThreshold { threshold: 15.0 },
            AlgorithmKind::MaxThreshold { threshold: -3.75 },
            AlgorithmKind::BandThreshold { lo: 1.0, hi: 2.0 },
            AlgorithmKind::OutsideThreshold { lo: -1.0, hi: 1.0 },
            AlgorithmKind::Sustained {
                count: 5,
                max_gap: 1024,
            },
            AlgorithmKind::AllOf,
            AlgorithmKind::AnyOf,
        ];
        for kind in kinds {
            let name = kind.ir_name();
            let params = kind.encode_params();
            assert_eq!(
                AlgorithmKind::decode(name, &params),
                Some(kind),
                "round trip failed for {name}"
            );
        }
    }

    #[test]
    fn decode_rejects_unknown_and_misparameterized() {
        assert_eq!(AlgorithmKind::decode("bogus", &[]), None);
        assert_eq!(AlgorithmKind::decode("movingAvg", &[]), None);
        assert_eq!(AlgorithmKind::decode("fft", &[1.0]), None);
        assert_eq!(AlgorithmKind::decode("mean", &[1.0]), None);
        assert_eq!(AlgorithmKind::decode("window", &[8.0, 8.0, 9.0]), None);
    }

    #[test]
    fn stat_functions_decode_by_name() {
        for s in StatFn::ALL {
            assert_eq!(
                AlgorithmKind::decode(s.ir_name(), &[]),
                Some(AlgorithmKind::Stat(s))
            );
        }
    }

    #[test]
    fn window_shape_encoding_round_trips() {
        for shape in [
            WindowShapeParam::Rectangular,
            WindowShapeParam::Hamming,
            WindowShapeParam::Hann,
        ] {
            assert_eq!(WindowShapeParam::decode(shape.encode()), Some(shape));
        }
        assert_eq!(WindowShapeParam::decode(1.5), None);
        assert_eq!(WindowShapeParam::decode(-1.0), None);
        assert_eq!(WindowShapeParam::decode(3.0), None);
    }

    #[test]
    fn value_types_are_consistent() {
        assert_eq!(AlgorithmKind::Fft.input_type(), ValueType::Vector);
        assert_eq!(AlgorithmKind::Fft.output_type(), ValueType::Spectrum);
        assert_eq!(AlgorithmKind::Ifft.input_type(), ValueType::Spectrum);
        assert_eq!(AlgorithmKind::Ifft.output_type(), ValueType::Vector);
        assert_eq!(
            AlgorithmKind::MovingAvg { window: 1 }.output_type(),
            ValueType::Scalar
        );
        assert_eq!(
            AlgorithmKind::Window {
                size: 2,
                hop: 2,
                shape: WindowShapeParam::Rectangular
            }
            .output_type(),
            ValueType::Vector
        );
    }

    #[test]
    fn aggregators_are_flagged() {
        assert!(AlgorithmKind::VectorMagnitude.is_aggregator());
        assert!(AlgorithmKind::AllOf.is_aggregator());
        assert!(AlgorithmKind::AnyOf.is_aggregator());
        assert!(!AlgorithmKind::Fft.is_aggregator());
    }

    #[test]
    fn program_prints_paper_example() {
        let mut p = Program::new();
        for (i, c) in SensorChannel::ACCEL.into_iter().enumerate() {
            p.push_node(
                vec![Source::Channel(c)],
                NodeId(i as u32 + 1),
                AlgorithmKind::MovingAvg { window: 10 },
            );
        }
        p.push_node(
            vec![
                Source::Node(NodeId(1)),
                Source::Node(NodeId(2)),
                Source::Node(NodeId(3)),
            ],
            NodeId(4),
            AlgorithmKind::VectorMagnitude,
        );
        p.push_node(
            vec![Source::Node(NodeId(4))],
            NodeId(5),
            AlgorithmKind::MinThreshold { threshold: 15.0 },
        );
        p.push_out(NodeId(5));
        let expected = "\
ACC_X -> movingAvg(id=1, params={10});
ACC_Y -> movingAvg(id=2, params={10});
ACC_Z -> movingAvg(id=3, params={10});
1,2,3 -> vectorMagnitude(id=4);
4 -> minThreshold(id=5, params={15});
5 -> OUT;
";
        assert_eq!(p.to_string(), expected);
    }

    #[test]
    fn program_queries() {
        let mut p = Program::new();
        p.push_node(
            vec![Source::Channel(SensorChannel::Mic)],
            NodeId(1),
            AlgorithmKind::Window {
                size: 256,
                hop: 256,
                shape: WindowShapeParam::Hamming,
            },
        );
        p.push_node(
            vec![Source::Node(NodeId(1))],
            NodeId(2),
            AlgorithmKind::HighPass { cutoff_hz: 750.0 },
        );
        p.push_out(NodeId(2));
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.out_source(), Some(NodeId(2)));
        assert_eq!(p.channels(), vec![SensorChannel::Mic]);
        assert!(p.uses_fft());
        assert_eq!(p.nodes().count(), 2);
    }

    #[test]
    fn stable_digest_tracks_canonical_text() {
        let a: Program = "ACC_X -> movingAvg(id=1, params={10});\n1 -> OUT;\n"
            .parse()
            .unwrap();
        // Same canonical text regardless of the surface form it was
        // parsed from: same digest.
        let b: Program = "ACC_X   ->   movingAvg( id = 1 , params = {10} ) ;  1 -> OUT;"
            .parse()
            .unwrap();
        assert_eq!(a.stable_digest(), b.stable_digest());
        // A parameter change is a different program.
        let c: Program = "ACC_X -> movingAvg(id=1, params={11});\n1 -> OUT;\n"
            .parse()
            .unwrap();
        assert_ne!(a.stable_digest(), c.stable_digest());
        // FNV-1a of the canonical text, pinned so the wire protocol's
        // acks stay stable across refactors.
        assert_eq!(a.stable_digest(), 0x85fd_8537_2a64_6a02);
    }

    #[test]
    fn uses_fft_is_false_without_fft_stages() {
        let mut p = Program::new();
        p.push_node(
            vec![Source::Channel(SensorChannel::AccX)],
            NodeId(1),
            AlgorithmKind::MovingAvg { window: 4 },
        );
        p.push_out(NodeId(1));
        assert!(!p.uses_fft());
    }

    #[test]
    fn lines_are_metadata_not_identity() {
        let mut by_hand = Program::new();
        by_hand.push_node(
            vec![Source::Channel(SensorChannel::AccX)],
            NodeId(1),
            AlgorithmKind::MovingAvg { window: 10 },
        );
        by_hand.push_out(NodeId(1));
        let parsed: Program = "ACC_X -> movingAvg(id=1, params={10});\n1 -> OUT;"
            .parse()
            .unwrap();
        // Equality ignores line metadata...
        assert_eq!(parsed, by_hand);
        // ...but parsed statements still know where they came from.
        assert_eq!(parsed.line_of(NodeId(1)), Some(1));
        assert_eq!(parsed.out_line(), Some(2));
        assert_eq!(by_hand.line_of(NodeId(1)), None);
        assert_eq!(by_hand.out_line(), None);
        assert_eq!(by_hand.line_of(NodeId(42)), None);
    }

    #[test]
    fn param_formatting() {
        assert_eq!(format_param(10.0), "10");
        assert_eq!(format_param(-3.75), "-3.75");
        assert_eq!(format_param(0.1), "0.1");
    }

    #[test]
    fn fractional_params_print_and_reparse() {
        let mut p = Program::new();
        p.push_node(
            vec![Source::Channel(SensorChannel::AccX)],
            NodeId(1),
            AlgorithmKind::ExpMovingAvg { alpha: 0.1 },
        );
        p.push_out(NodeId(1));
        let text = p.to_string();
        assert!(text.contains("params={0.1}"), "{text}");
    }
}
