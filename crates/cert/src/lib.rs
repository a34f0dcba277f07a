//! `swcert` — the static resource certifier.
//!
//! The paper's placement story (Table 2) is that a wake condition
//! *provably fits* a tiny hub MCU. `swcert` certifies that from the two
//! static models the rest of the workspace already runs on, deriving,
//! per program, per precision, per target MCU:
//!
//! * **arena occupancy** — exact per-arena element counts for all five
//!   arenas of the compiled [`McuImage`](sidewinder_mcu::McuImage), read
//!   from [`sidewinder_mcu::footprint`]'s layout walk — the very spans
//!   [`McuCore::load`](sidewinder_mcu::McuCore) applies — with per-arena
//!   attribution of the heaviest node;
//! * **cycle bounds** — worst-case flops and cycles per second per
//!   node, copied from the [`PipelineCost`] rows that price the
//!   program's one dataflow-fact table ([`sidewinder_ir::flow`]), so
//!   the certifier and the SW006/SW007 lints read the same numbers;
//! * **schedulability** — [`Mcu::supports_cost`] on that cost, against
//!   the target MCU or the catalog's first-fit part;
//! * **an energy ceiling** — certified flop rate priced at
//!   [`sidewinder_hub::energy::HUB_NJ_PER_FLOP`] plus certified wake
//!   rate priced at the framed UART link cost, the same constants the
//!   simulator's attribution ledger charges.
//!
//! The result is a plain-data [`ResourceCert`] with a canonical JSON
//! rendering ([`canonical_json`]) and a pinned FNV-1a digest
//! ([`digest`]); `results/resource_certs.json` pins the six golden
//! fixtures and the fused suite. Soundness — measured payload high-water
//! marks and execution counts never exceed certified bounds — is
//! enforced by the `soundness` test suite and the `cert_soundness` fuzz
//! target; monotonicity under `opt::optimize` is asserted by the
//! optimizer itself in debug builds.

pub mod render;

pub use render::{canonical_json, digest, fnv1a64, render_pins, PinEntry};

use sidewinder_hub::cost::PipelineCost;
use sidewinder_hub::energy::{HUB_NJ_PER_FLOP, LINK_ACTIVE_MW};
use sidewinder_hub::fault::WAKE_FRAME_BYTES;
use sidewinder_hub::link::SerialLink;
use sidewinder_hub::mcu::CapacityError;
use sidewinder_hub::runtime::ChannelRates;
use sidewinder_hub::{compile_image, HubError, Mcu};
use sidewinder_ir::{NodeId, Program};
use sidewinder_mcu::footprint::{image_footprint, ArenaKind};
use sidewinder_mcu::image::MAX_CHANNELS;
use sidewinder_mcu::McuExecError;
use sidewinder_sensors::SensorChannel;

/// The sample payload width a certificate prices arenas at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// `f64` payloads (the digest-pinned reference precision).
    F64,
    /// `f32` payloads (the SIMD pipeline mode).
    F32,
}

impl Precision {
    /// Bytes per sample payload element.
    pub fn sample_bytes(self) -> usize {
        match self {
            Precision::F64 => 8,
            Precision::F32 => 4,
        }
    }

    /// Lowercase label used in renderings.
    pub fn name(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        }
    }
}

/// What to certify against: a core capacity and an MCU (or the catalog).
#[derive(Debug, Clone, Copy)]
pub struct CertTarget {
    /// The MCU to check schedulability against; `None` means pick the
    /// cheapest fitting part from [`Mcu::CATALOG`], exactly as
    /// [`Mcu::cheapest_for`] (and therefore SW006/SW007) does.
    pub mcu: Option<Mcu>,
    /// Core arena capacity (`CAP` of the `McuCore` the image targets).
    pub cap: usize,
}

impl Default for CertTarget {
    fn default() -> Self {
        CertTarget {
            mcu: None,
            cap: sidewinder_mcu::DEFAULT_ARENA,
        }
    }
}

/// One arena's certified occupancy, priced at the cert's precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArenaCert {
    /// Stable arena name (e.g. `"sample arena"`).
    pub name: &'static str,
    /// Certified element occupancy.
    pub elements: usize,
    /// Bytes per element at the cert's precision.
    pub element_bytes: usize,
    /// `elements × element_bytes`.
    pub bytes: usize,
    /// Dense image index of the heaviest contributor, when any node
    /// contributes at all.
    pub peak_node: Option<u16>,
    /// The heaviest contributor's element count.
    pub peak_elements: usize,
}

/// One node's certified worst-case demand.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCert {
    /// Dense image index.
    pub index: u16,
    /// IR algorithm name (`window`, `fft`, …).
    pub kind: &'static str,
    /// IR node id, when certified from a program.
    pub ir_id: Option<u32>,
    /// Source line, when certified from parsed text.
    pub line: Option<u32>,
    /// Emissions per second arriving at the node (sum over ports).
    pub input_rate_hz: f64,
    /// Worst-case emissions per second leaving the node.
    pub out_rate_hz: f64,
    /// Elements per emission leaving the node.
    pub out_len: usize,
    /// Sample rate of the data inside incoming vectors.
    pub base_rate_hz: f64,
    /// Dense-channel bitmask of the sensor channels transitively
    /// feeding this node.
    pub channels_mask: u16,
    /// Floating-point operations per input emission.
    pub flops_per_input: f64,
    /// Worst-case flops per second (`input_rate_hz × flops_per_input`).
    pub flops_per_second: f64,
    /// Host-model state bytes (the SW006/SW007 RAM estimate).
    pub memory_bytes: usize,
}

/// Schedulability of the certified demand on one MCU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McuVerdict {
    /// The MCU judged (the cheapest fitting part in auto mode, or the
    /// last catalog part when nothing fits).
    pub mcu: &'static str,
    /// MCU awake power, mW.
    pub awake_power_mw: f64,
    /// Worst-case cycles per second the image demands on this MCU.
    pub demanded_cycles_per_s: f64,
    /// Cycles per second the MCU grants wake conditions.
    pub budget_cycles_per_s: f64,
    /// Host-model memory demand, bytes.
    pub memory_bytes: usize,
    /// MCU RAM, bytes.
    pub ram_bytes: usize,
    /// Why the image does not fit, when it doesn't.
    pub error: Option<CapacityError>,
}

/// The static energy ceiling, µW.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyCert {
    /// Certified flop rate priced at [`HUB_NJ_PER_FLOP`].
    pub compute_uw: f64,
    /// Certified wake rate priced at the framed UART transfer cost and
    /// [`LINK_ACTIVE_MW`].
    pub link_uw: f64,
    /// `compute_uw + link_uw` — the ceiling the attribution ledger's
    /// compute and link rows stay under.
    pub total_uw: f64,
}

/// A complete certificate for one image at one precision and target.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceCert {
    /// Sample payload width the byte figures assume.
    pub precision: Precision,
    /// The core capacity certified against.
    pub cap: usize,
    /// Largest single-arena occupancy — the smallest `CAP` that loads
    /// the image.
    pub required_capacity: usize,
    /// Whether every arena fits `cap`.
    pub fits_cap: bool,
    /// Total carved bytes at this precision.
    pub total_bytes: usize,
    /// Per-arena occupancy, in [`ArenaKind::ALL`] order.
    pub arenas: [ArenaCert; 5],
    /// Per-node demand, in dense image order.
    pub nodes: Vec<NodeCert>,
    /// Dense per-channel sample rates the cert was derived at.
    pub channel_rates: [f64; MAX_CHANNELS],
    /// Worst-case total flops per second (bitwise equal to
    /// `PipelineCost::total_flops_per_second`).
    pub total_flops_per_second: f64,
    /// Host-model memory demand (bitwise equal to
    /// `PipelineCost::total_memory_bytes`).
    pub total_memory_bytes: usize,
    /// Worst-case wake emissions per second.
    pub wake_rate_hz: f64,
    /// Schedulability on the target (or cheapest catalog) MCU.
    pub mcu: McuVerdict,
    /// The static energy ceiling.
    pub energy: EnergyCert,
}

impl ResourceCert {
    /// The certificate's canonical-JSON FNV-1a digest.
    pub fn digest(&self) -> u64 {
        digest(self)
    }
}

/// Why an input could not be certified.
#[derive(Debug, Clone, PartialEq)]
pub enum CertError {
    /// The program failed to compile into an image.
    Compile(HubError),
    /// The image is one `load` would reject: a parameter out of range,
    /// an edge of the wrong value kind, or a transform fed a length that
    /// is not a power of two.
    Image(McuExecError),
}

impl std::fmt::Display for CertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertError::Compile(e) => write!(f, "uncertifiable: {e}"),
            CertError::Image(e) => write!(f, "uncertifiable image: {e}"),
        }
    }
}

impl std::error::Error for CertError {}

impl From<HubError> for CertError {
    fn from(e: HubError) -> Self {
        CertError::Compile(e)
    }
}

/// Dense per-channel rate table: index `c` holds the rate of the sensor
/// channel whose dense index is `c`, exactly as `compile_image` encodes
/// `PortSource::Channel`.
pub fn dense_rates(rates: &ChannelRates) -> [f64; MAX_CHANNELS] {
    let mut dense = [0.0; MAX_CHANNELS];
    for &channel in &SensorChannel::ALL {
        dense[channel.index()] = rates.rate_of(channel);
    }
    dense
}

/// Compiles and certifies a program: arena occupancy from the image's
/// layout, and every node's rates, lengths and demand — the wake-rate
/// bound included — from the one table [`PipelineCost::analyze`] prices
/// the program's dataflow facts into.
///
/// # Errors
///
/// Returns [`CertError::Compile`] when the program fails validation or
/// exceeds image capacities, and [`CertError::Image`] exactly when
/// `load` would reject the image for a reason other than arena
/// capacity.
pub fn certify_program(
    program: &Program,
    rates: &ChannelRates,
    precision: Precision,
    target: &CertTarget,
) -> Result<ResourceCert, CertError> {
    let image = compile_image(program, rates)?;
    let footprint = image_footprint(&image).map_err(CertError::Image)?;
    let cost = PipelineCost::analyze(program, rates);

    // The image preserves statement order, so the i-th image node is the
    // i-th cost row.
    let nodes: Vec<NodeCert> = cost
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, c)| NodeCert {
            index: i as u16,
            kind: c.flow.kind.ir_name(),
            ir_id: Some(c.flow.id.0),
            line: program.line_of(c.flow.id),
            input_rate_hz: c.flow.input_rate_hz,
            out_rate_hz: c.flow.out_rate_hz,
            out_len: c.flow.out_len,
            base_rate_hz: c.flow.base_rate_hz,
            channels_mask: c.flow.channels_mask,
            flops_per_input: c.flops_per_input,
            flops_per_second: c.flops_per_second(),
            memory_bytes: c.memory_bytes,
        })
        .collect();
    let total_flops_per_second = cost.total_flops_per_second();
    let wake_rate_hz = nodes[image.out_index()].out_rate_hz;

    let (mcu, fit) = match target.mcu {
        Some(mcu) => (mcu, mcu.supports_cost(&cost)),
        None => Mcu::first_fit(&cost),
    };
    let sample_bytes = precision.sample_bytes();
    Ok(ResourceCert {
        precision,
        cap: target.cap,
        required_capacity: footprint.required_capacity(),
        fits_cap: footprint.fits(target.cap),
        total_bytes: footprint.total_bytes(sample_bytes),
        arenas: ArenaKind::ALL.map(|k| {
            let a = footprint.arena(k);
            ArenaCert {
                name: k.name(),
                elements: a.elements,
                element_bytes: k.element_bytes(sample_bytes),
                bytes: a.elements * k.element_bytes(sample_bytes),
                peak_node: (a.peak_elements > 0).then_some(a.peak_node),
                peak_elements: a.peak_elements,
            }
        }),
        nodes,
        channel_rates: dense_rates(rates),
        total_flops_per_second,
        total_memory_bytes: cost.total_memory_bytes(),
        wake_rate_hz,
        mcu: McuVerdict {
            mcu: mcu.name,
            awake_power_mw: mcu.awake_power_mw,
            demanded_cycles_per_s: total_flops_per_second * mcu.cycles_per_flop,
            budget_cycles_per_s: mcu.cycle_budget(),
            memory_bytes: cost.total_memory_bytes(),
            ram_bytes: mcu.ram_bytes,
            error: fit.err(),
        },
        energy: energy_of(total_flops_per_second, wake_rate_hz),
    })
}

fn energy_of(total_flops_per_second: f64, wake_rate_hz: f64) -> EnergyCert {
    // flops/s × nJ/flop = nW; ×1e-3 → µW.
    let compute_uw = total_flops_per_second * HUB_NJ_PER_FLOP * 1e-3;
    let frame_s = SerialLink::NEXUS4_UART
        .framed_transfer_time(WAKE_FRAME_BYTES)
        .as_secs_f64();
    // wakes/s × s/frame × mW = mW duty; ×1e3 → µW.
    let link_uw = wake_rate_hz * frame_s * LINK_ACTIVE_MW * 1e3;
    EnergyCert {
        compute_uw,
        link_uw,
        total_uw: compute_uw + link_uw,
    }
}

/// A sound upper bound on how many emissions `cert.nodes[node]` may
/// produce after the given per-dense-channel push counts.
///
/// Every push runs one interpreter pass, and a pass emits each node at
/// most once, so the sum of pushes on the node's contributing channels
/// is always sound. When all contributing channels share one base rate
/// the certified out-rate gives a much tighter bound (`pushes ×
/// out_rate / base`, plus one for edge alignment and float rounding);
/// multi-rate joins fall back to the trivial bound because elapsed time
/// cannot be recovered from per-channel counts alone.
pub fn emission_bound(cert: &ResourceCert, node: usize, pushes: &[u64; MAX_CHANNELS]) -> u64 {
    let Some(n) = cert.nodes.get(node) else {
        return 0;
    };
    let mut total: u64 = 0;
    let mut max_pushes: u64 = 0;
    let mut base: Option<f64> = None;
    let mut uniform = true;
    for (c, &p) in pushes.iter().enumerate() {
        if n.channels_mask & (1 << c) != 0 {
            total = total.saturating_add(p);
            max_pushes = max_pushes.max(p);
            let r = cert.channel_rates[c];
            match base {
                None => base = Some(r),
                Some(b) if b == r => {}
                Some(_) => uniform = false,
            }
        }
    }
    if uniform {
        if let Some(b) = base {
            if b > 0.0 && n.out_rate_hz.is_finite() {
                let tight = (max_pushes as f64 * n.out_rate_hz / b).floor() as u64 + 1;
                return tight.min(total);
            }
        }
    }
    total
}

/// Renders a certificate's violations as registry diagnostics: one
/// SW008 per overflowing arena (naming the heaviest node) and one SW009
/// when the MCU verdict fails.
///
/// These are *target-relative* findings — a program that merely needs a
/// 16k core is healthy on a 16k fleet — so they are surfaced by
/// `swcert` and fleet ingest, not by a default `swlint` run.
pub fn diagnostics(cert: &ResourceCert) -> Vec<sidewinder_lint::Diagnostic> {
    use sidewinder_lint::{Diagnostic, LintCode};
    let mut out = Vec::new();
    for arena in &cert.arenas {
        if arena.elements > cert.cap {
            let (node, line, label) = match arena.peak_node {
                Some(i) => {
                    let n = &cert.nodes[i as usize];
                    (
                        n.ir_id.map(NodeId),
                        n.line,
                        format!("{}#{}", n.kind, n.ir_id.unwrap_or(u32::from(n.index))),
                    )
                }
                None => (None, None, String::from("<none>")),
            };
            out.push(Diagnostic::new(
                LintCode::ArenaOverflow,
                node,
                line,
                format!(
                    "{} needs {} elements but the core capacity is {}; heaviest node {} carves {}",
                    arena.name, arena.elements, cert.cap, label, arena.peak_elements
                ),
            ));
        }
    }
    if let Some(err) = cert.mcu.error {
        // Anchor the deadline finding to the hungriest node.
        let heavy = cert
            .nodes
            .iter()
            .max_by(|a, b| a.flops_per_second.total_cmp(&b.flops_per_second));
        out.push(Diagnostic::new(
            LintCode::MissedDeadline,
            heavy.and_then(|n| n.ir_id.map(NodeId)),
            heavy.and_then(|n| n.line),
            format!("certified demand is unschedulable: {err}"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidewinder_lint::LintCode;

    fn fig2() -> Program {
        "ACC_X -> movingAvg(id=1, params={10});
         ACC_Y -> movingAvg(id=2, params={10});
         ACC_Z -> movingAvg(id=3, params={10});
         1,2,3 -> vectorMagnitude(id=4);
         4 -> minThreshold(id=5, params={15});
         5 -> OUT;"
            .parse()
            .unwrap()
    }

    fn audio() -> Program {
        "MIC -> window(id=1, params={64, 32, 1});
         1 -> fft(id=2);
         2 -> spectralMagnitude(id=3);
         3 -> dominantRatio(id=4);
         4 -> minThreshold(id=5, params={3});
         5 -> OUT;"
            .parse()
            .unwrap()
    }

    #[test]
    fn mirror_totals_are_bitwise_equal_to_the_cost_model() {
        for program in [fig2(), audio()] {
            let rates = ChannelRates::default();
            let cost = PipelineCost::analyze(&program, &rates);
            let cert =
                certify_program(&program, &rates, Precision::F64, &CertTarget::default()).unwrap();
            assert_eq!(
                cert.total_flops_per_second.to_bits(),
                cost.total_flops_per_second().to_bits(),
                "flops must agree bit for bit"
            );
            assert_eq!(cert.total_memory_bytes, cost.total_memory_bytes());
            for (nc, cc) in cert.nodes.iter().zip(cost.nodes()) {
                assert_eq!(nc.input_rate_hz.to_bits(), cc.flow.input_rate_hz.to_bits());
                assert_eq!(nc.flops_per_input.to_bits(), cc.flops_per_input.to_bits());
                assert_eq!(nc.memory_bytes, cc.memory_bytes);
                assert_eq!(nc.ir_id, Some(cc.flow.id.0));
            }
        }
    }

    #[test]
    fn verdict_matches_cheapest_for() {
        let rates = ChannelRates::default();
        for program in [fig2(), audio()] {
            let cert =
                certify_program(&program, &rates, Precision::F64, &CertTarget::default()).unwrap();
            match Mcu::cheapest_for(&program, &rates) {
                Ok(mcu) => {
                    assert_eq!(cert.mcu.mcu, mcu.name);
                    assert!(cert.mcu.error.is_none());
                }
                Err(_) => assert!(cert.mcu.error.is_some()),
            }
        }
    }

    #[test]
    fn arena_occupancy_matches_the_node_specs_and_the_load() {
        let rates = ChannelRates::default();
        let image = compile_image(&audio(), &rates).unwrap();
        let cert =
            certify_program(&audio(), &rates, Precision::F64, &CertTarget::default()).unwrap();
        let elements = |kind: ArenaKind| cert.arenas[kind.index()].elements;
        // Worked out by hand from the node specs of
        // `window(64, 32) → fft → spectralMagnitude → dominantRatio →
        // minThreshold`; the scalar tail carves nothing.
        assert_eq!(
            elements(ArenaKind::Sample),
            64 // window ring
                + 64 // window taper
                + 64 // window payload
                + 33 // spectralMagnitude payload: 64 / 2 + 1 bins
        );
        assert_eq!(elements(ArenaKind::Scalar), 64); // fft widening scratch
        assert_eq!(
            elements(ArenaKind::Complex),
            63 // fft twiddles: 64 - 1
                + 64 // fft spectrum payload
        );
        // fft swaps: the 64 - 8 six-bit indices that are not bit
        // palindromes, in pairs.
        assert_eq!(elements(ArenaKind::Swap), 28);
        assert_eq!(elements(ArenaKind::Mask), 0);
        assert_eq!(cert.required_capacity, 225);
        assert!(cert.fits_cap);

        // The load agrees: the largest arena fits a core of exactly
        // that capacity and overflows one element less.
        let mut fits: sidewinder_mcu::McuCore<f64, 225> = sidewinder_mcu::McuCore::new();
        fits.load(&image).unwrap();
        let mut short: sidewinder_mcu::McuCore<f64, 224> = sidewinder_mcu::McuCore::new();
        assert!(matches!(
            short.load(&image),
            Err(sidewinder_mcu::McuExecError::ArenaOverflow { needed: 225, .. })
        ));
    }

    #[test]
    fn f32_certificates_halve_sample_bytes_only() {
        let rates = ChannelRates::default();
        let c64 =
            certify_program(&audio(), &rates, Precision::F64, &CertTarget::default()).unwrap();
        let c32 =
            certify_program(&audio(), &rates, Precision::F32, &CertTarget::default()).unwrap();
        assert_eq!(c64.required_capacity, c32.required_capacity);
        assert_eq!(
            c64.total_flops_per_second.to_bits(),
            c32.total_flops_per_second.to_bits()
        );
        let s64 = c64.arenas[ArenaKind::Sample.index()];
        let s32 = c32.arenas[ArenaKind::Sample.index()];
        assert_eq!(s64.elements, s32.elements);
        assert_eq!(s64.bytes, 2 * s32.bytes);
        // Scalar/complex arenas are precision-independent.
        let f64a = c64.arenas[ArenaKind::Scalar.index()];
        let f32a = c32.arenas[ArenaKind::Scalar.index()];
        assert_eq!(f64a.bytes, f32a.bytes);
        assert_ne!(c64.digest(), c32.digest());
    }

    #[test]
    fn overflow_and_deadline_render_as_sw008_and_sw009() {
        let rates = ChannelRates::default();
        let cert = certify_program(
            &audio(),
            &rates,
            Precision::F64,
            &CertTarget {
                mcu: Some(Mcu::MSP430),
                cap: 100,
            },
        )
        .unwrap();
        assert!(!cert.fits_cap);
        let diags = diagnostics(&cert);
        let sw008: Vec<_> = diags
            .iter()
            .filter(|d| d.code == LintCode::ArenaOverflow)
            .collect();
        assert!(!sw008.is_empty());
        assert!(
            sw008[0].message.contains("window#1"),
            "{}",
            sw008[0].message
        );
        // The FFT pipeline cannot run on the MSP430 in real time.
        assert!(cert.mcu.error.is_some());
        assert!(diags.iter().any(|d| d.code == LintCode::MissedDeadline));
        // A healthy target yields no diagnostics at all.
        let ok = certify_program(&fig2(), &rates, Precision::F64, &CertTarget::default()).unwrap();
        assert!(diagnostics(&ok).is_empty());
    }

    #[test]
    fn emission_bounds_tighten_for_single_base_rate_pipelines() {
        let rates = ChannelRates::default();
        let cert =
            certify_program(&audio(), &rates, Precision::F64, &CertTarget::default()).unwrap();
        let mic = SensorChannel::Mic.index();
        let mut pushes = [0u64; MAX_CHANNELS];
        pushes[mic] = 8_000;
        // The windower (node 0) hops every 32 samples.
        let window_bound = emission_bound(&cert, 0, &pushes);
        assert!(window_bound <= 8_000 / 32 + 1, "bound {window_bound}");
        // The trivial per-push bound still caps everything.
        for i in 0..cert.nodes.len() {
            assert!(emission_bound(&cert, i, &pushes) <= 8_000);
        }
    }

    #[test]
    fn certification_is_total_on_uncompilable_programs() {
        let program: Program = "ACC_X -> movingAvg(id=1, params={10});".parse().unwrap();
        let err = certify_program(
            &program,
            &ChannelRates::default(),
            Precision::F64,
            &CertTarget::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CertError::Compile(_)));
        assert!(err.to_string().contains("uncertifiable"));
    }
}
