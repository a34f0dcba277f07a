//! The static model of a loaded image — the `no_std` half of the
//! `swcert` resource certifier, and the layout
//! [`ExecCore::load`](crate::ExecCore::load) applies.
//!
//! `image_layout` is the one walk over an [`McuImage`] that knows what
//! each node kind needs. In load order it types every edge (each port
//! must carry the value kind the node consumes, vectors and spectra at
//! one length), validates every parameter, checks that every transform
//! length is a power of two, and carves each node's arena spans. Every
//! input length is static — windows are fixed, transforms keep the
//! length, `spectralMagnitude` gives `n/2+1` — so an image this walk
//! accepts cannot fail at run time.
//!
//! `load` copies the spans into its node tables; [`image_footprint`]
//! and [`check_fit`] read the per-arena totals the same spans sum to,
//! so the certified occupancy is the carve itself, not a mirror of it.

use crate::exec::McuExecError;
use crate::fft;
use crate::image::{McuImage, NodeKind, PortSource, MAX_NODES};
use core::ops::Range;

/// The seven fixed arenas a [`McuCore`](crate::McuCore) carves at load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaKind {
    /// `arena_p`: window rings, taper tables, vector payloads.
    Sample,
    /// `arena_f`: moving-average rings, probe tables, widening scratch.
    Scalar,
    /// `arena_c`: twiddle tables and spectrum payloads.
    Complex,
    /// `arena_s`: bit-reversal swap tables.
    Swap,
    /// `arena_b`: band-filter keep masks.
    Mask,
    /// `stage_p`: staging copy of the largest fed vector payload.
    StageSample,
    /// `stage_c`: staging copy of the largest fed spectrum payload.
    StageSpectrum,
}

impl ArenaKind {
    /// Every arena, in declaration order.
    pub const ALL: [ArenaKind; 7] = [
        ArenaKind::Sample,
        ArenaKind::Scalar,
        ArenaKind::Complex,
        ArenaKind::Swap,
        ArenaKind::Mask,
        ArenaKind::StageSample,
        ArenaKind::StageSpectrum,
    ];

    /// Position in [`ImageFootprint::arenas`].
    pub fn index(self) -> usize {
        match self {
            ArenaKind::Sample => 0,
            ArenaKind::Scalar => 1,
            ArenaKind::Complex => 2,
            ArenaKind::Swap => 3,
            ArenaKind::Mask => 4,
            ArenaKind::StageSample => 5,
            ArenaKind::StageSpectrum => 6,
        }
    }

    /// The name `load`'s capacity errors use for this arena.
    pub fn name(self) -> &'static str {
        match self {
            ArenaKind::Sample => "sample arena",
            ArenaKind::Scalar => "scalar arena",
            ArenaKind::Complex => "complex arena",
            ArenaKind::Swap => "swap arena",
            ArenaKind::Mask => "mask arena",
            ArenaKind::StageSample => "sample staging arena",
            ArenaKind::StageSpectrum => "spectrum staging arena",
        }
    }

    /// Bytes one element occupies, given the sample-payload width
    /// (`8` for `f64` cores, `4` for `f32`).
    pub fn element_bytes(self, sample_bytes: usize) -> usize {
        match self {
            ArenaKind::Sample | ArenaKind::StageSample => sample_bytes,
            ArenaKind::Scalar => 8,
            ArenaKind::Complex | ArenaKind::StageSpectrum => 16,
            ArenaKind::Swap => 8,
            ArenaKind::Mask => 1,
        }
    }
}

/// One arena's certified occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaUse {
    /// Total elements the program carves from (or stages through) the
    /// arena.
    pub elements: usize,
    /// Dense index of the node contributing the most elements.
    pub peak_node: u16,
    /// That node's contribution.
    pub peak_elements: usize,
}

impl ArenaUse {
    fn add(&mut self, node: u16, elements: usize) {
        self.elements += elements;
        if elements > self.peak_elements {
            self.peak_elements = elements;
            self.peak_node = node;
        }
    }

    /// Staging arenas hold one payload at a time, so their occupancy is
    /// the maximum, not the sum.
    fn stage(&mut self, node: u16, elements: usize) {
        if elements > self.elements {
            self.elements = elements;
        }
        if elements > self.peak_elements {
            self.peak_elements = elements;
            self.peak_node = node;
        }
    }
}

/// Exact per-arena element occupancy of one image, in load order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImageFootprint {
    /// Occupancy per arena, indexed by [`ArenaKind::index`].
    pub arenas: [ArenaUse; 7],
}

impl ImageFootprint {
    /// Occupancy of one arena.
    pub fn arena(&self, kind: ArenaKind) -> ArenaUse {
        self.arenas[kind.index()]
    }

    /// The largest single-arena occupancy — the smallest `CAP` a
    /// `McuCore<_, CAP>` needs to load the image.
    pub fn required_capacity(&self) -> usize {
        let mut max = 0;
        let mut i = 0;
        while i < self.arenas.len() {
            if self.arenas[i].elements > max {
                max = self.arenas[i].elements;
            }
            i += 1;
        }
        max
    }

    /// Whether every arena fits a core of capacity `cap`.
    pub fn fits(&self, cap: usize) -> bool {
        self.required_capacity() <= cap
    }

    /// Total bytes across all arenas for the given sample-payload
    /// width — the RAM the carved program actually occupies.
    pub fn total_bytes(&self, sample_bytes: usize) -> usize {
        ArenaKind::ALL
            .iter()
            .map(|&k| self.arena(k).elements * k.element_bytes(sample_bytes))
            .sum()
    }
}

/// A `[start, start + cap)` slice of one arena, assigned by
/// [`image_layout`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    /// First element.
    pub(crate) start: u32,
    /// Elements reserved.
    pub(crate) cap: u32,
}

impl Span {
    /// The empty span a node holds in an arena it does not use.
    pub(crate) const EMPTY: Span = Span { start: 0, cap: 0 };

    /// The first `len` elements of the span.
    #[inline]
    pub(crate) fn range(self, len: usize) -> Range<usize> {
        let start = self.start as usize;
        start..start + len
    }

    /// The whole span.
    #[inline]
    pub(crate) fn full(self) -> Range<usize> {
        self.range(self.cap as usize)
    }
}

/// The kind of value a node emits or a channel delivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueKind {
    /// One `f64` per emission (every channel, every scalar feature).
    Scalar,
    /// A sample-payload vector.
    Vector,
    /// A complex spectrum.
    Spectrum,
}

/// One node's static model: the arena spans `load` hands it and the
/// value it emits. Each kind uses only its own spans; the rest stay
/// [`Span::EMPTY`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeLayout {
    /// Window ring / zcr-variance scratch (sample arena).
    pub(crate) aux_p: Span,
    /// Tabulated taper coefficients (sample arena).
    pub(crate) coeffs: Span,
    /// Moving-average ring / Goertzel probe table (scalar arena).
    pub(crate) aux_f: Span,
    /// Bit-reversal swap table (swap arena).
    pub(crate) swaps: Span,
    /// Forward twiddle table (complex arena).
    pub(crate) fwd: Span,
    /// Inverse twiddle table (complex arena).
    pub(crate) inv: Span,
    /// Band-filter keep mask (mask arena).
    pub(crate) mask: Span,
    /// Widening scratch for `f32` pipelines (scalar arena).
    pub(crate) wide_in: Span,
    /// Vector payload (sample arena).
    pub(crate) vec: Span,
    /// Spectrum payload (complex arena).
    pub(crate) spec: Span,
    /// The kind of value the node emits.
    out: ValueKind,
    /// Elements per emitted payload (0 for scalars).
    out_len: usize,
    /// Whether another node consumes the output, so its payload passes
    /// through a staging arena on every feed.
    staged: bool,
}

impl NodeLayout {
    const EMPTY: NodeLayout = NodeLayout {
        aux_p: Span::EMPTY,
        coeffs: Span::EMPTY,
        aux_f: Span::EMPTY,
        swaps: Span::EMPTY,
        fwd: Span::EMPTY,
        inv: Span::EMPTY,
        mask: Span::EMPTY,
        wide_in: Span::EMPTY,
        vec: Span::EMPTY,
        spec: Span::EMPTY,
        out: ValueKind::Scalar,
        out_len: 0,
        staged: false,
    };

    /// Elements the node adds to `arena`: its spans there, or for a
    /// staging arena the payload it stages.
    fn elements(&self, arena: ArenaKind) -> usize {
        let n = |s: Span| s.cap as usize;
        let staged = |kind: ValueKind| {
            if self.staged && self.out == kind {
                self.out_len
            } else {
                0
            }
        };
        match arena {
            ArenaKind::Sample => n(self.aux_p) + n(self.coeffs) + n(self.vec),
            ArenaKind::Scalar => n(self.aux_f) + n(self.wide_in),
            ArenaKind::Complex => n(self.fwd) + n(self.inv) + n(self.spec),
            ArenaKind::Swap => n(self.swaps),
            ArenaKind::Mask => n(self.mask),
            ArenaKind::StageSample => staged(ValueKind::Vector),
            ArenaKind::StageSpectrum => staged(ValueKind::Spectrum),
        }
    }
}

/// The static model of a whole image: every node's layout, in load
/// order, and the per-arena totals they sum to.
#[derive(Debug, Clone)]
pub struct ImageLayout {
    nodes: [NodeLayout; MAX_NODES],
    count: usize,
    footprint: ImageFootprint,
}

impl ImageLayout {
    /// Per-node layouts in dense image order.
    pub(crate) fn nodes(&self) -> &[NodeLayout] {
        &self.nodes[..self.count]
    }

    /// Elements per emission of each node in dense image order (1 for
    /// scalars).
    pub fn out_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.nodes().iter().map(|n| n.out_len.max(1))
    }

    /// Per-arena totals and peak nodes.
    pub fn footprint(&self) -> ImageFootprint {
        self.footprint
    }

    /// Admission against a core of `cap` elements per arena.
    ///
    /// # Errors
    ///
    /// [`McuExecError::ArenaOverflow`] naming the arena and the first
    /// node whose carve crosses `cap`.
    pub fn check_fit(&self, cap: usize) -> Result<(), McuExecError> {
        tally(self.nodes(), cap).map(|_| ())
    }
}

/// Sums node layouts into arena totals in load order — arenas in
/// [`ArenaKind::ALL`] order within a node — and stops at the first
/// total above `cap`.
fn tally(nodes: &[NodeLayout], cap: usize) -> Result<ImageFootprint, McuExecError> {
    let mut fp = ImageFootprint::default();
    for (i, layout) in nodes.iter().enumerate() {
        let node = i as u16;
        for kind in ArenaKind::ALL {
            let arena = &mut fp.arenas[kind.index()];
            let elements = layout.elements(kind);
            match kind {
                ArenaKind::StageSample | ArenaKind::StageSpectrum => arena.stage(node, elements),
                _ => arena.add(node, elements),
            }
            if arena.elements > cap {
                return Err(McuExecError::ArenaOverflow {
                    arena: kind.name(),
                    node,
                    needed: arena.elements,
                    capacity: cap,
                });
            }
        }
    }
    Ok(fp)
}

/// Walks `image` in load order: types every edge, validates every
/// parameter and transform length, and carves every span.
///
/// # Errors
///
/// At the first offending node:
/// [`McuExecError::BadParameter`] for a parameter out of range,
/// [`McuExecError::TypeError`] for a port carrying a value kind the node
/// does not consume (or a payload length other than its first port's),
/// and [`McuExecError::BadTransformLength`] for an `fft`, `ifft`,
/// `lowPass` or `highPass` fed a length that is not a power of two.
pub fn image_layout(image: &McuImage) -> Result<ImageLayout, McuExecError> {
    let mut layout = ImageLayout {
        nodes: [NodeLayout::EMPTY; MAX_NODES],
        count: image.node_count(),
        footprint: ImageFootprint::default(),
    };
    // Bump cursors of the five carved arenas, by `ArenaKind::index`.
    let mut used = [0usize; 5];
    for (i, spec) in image.nodes().iter().enumerate() {
        let node = i as u16;
        let done = &layout.nodes[..i];
        // Every port must carry `want`, payloads at one length; yields
        // that length (0 for scalars).
        let input = |want: ValueKind| {
            let mut len = None;
            for &source in &spec.sources[..spec.port_count as usize] {
                let (kind, n) = match source {
                    PortSource::Channel(_) => (ValueKind::Scalar, 0),
                    PortSource::Node(src) => (done[src as usize].out, done[src as usize].out_len),
                };
                if kind != want || len.is_some_and(|l| l != n) {
                    return Err(McuExecError::TypeError { node });
                }
                len = Some(n);
            }
            Ok(len.unwrap_or(0))
        };
        let transform = |n: usize| {
            if fft::is_power_of_two(n) {
                Ok(n)
            } else {
                Err(McuExecError::BadTransformLength { node, len: n })
            }
        };
        let bad = |what| Err(McuExecError::BadParameter { node, what });
        let mut carve = |arena: ArenaKind, n: usize| {
            let at = &mut used[arena.index()];
            let span = Span {
                start: *at as u32,
                cap: n as u32,
            };
            *at += n;
            span
        };

        // Spans carve in ascending order within each arena; the
        // executor's disjoint-borrow helpers rely on it.
        let mut n = NodeLayout::EMPTY;
        match spec.kind {
            NodeKind::Window { size, hop, .. } => {
                let (size, hop) = (size as usize, hop as usize);
                if size == 0 || hop == 0 || hop > size {
                    return bad("window size and hop must be positive");
                }
                input(ValueKind::Scalar)?;
                // Ring + taper table + output payload.
                n.aux_p = carve(ArenaKind::Sample, size);
                n.coeffs = carve(ArenaKind::Sample, size);
                n.vec = carve(ArenaKind::Sample, size);
                (n.out, n.out_len) = (ValueKind::Vector, size);
            }
            NodeKind::Fft => {
                let len = transform(input(ValueKind::Vector)?)?;
                n.swaps = carve(ArenaKind::Swap, fft::swap_count(len));
                n.fwd = carve(ArenaKind::Complex, fft::twiddle_count(len));
                n.wide_in = carve(ArenaKind::Scalar, len);
                n.spec = carve(ArenaKind::Complex, len);
                (n.out, n.out_len) = (ValueKind::Spectrum, len);
            }
            NodeKind::Ifft => {
                let len = transform(input(ValueKind::Spectrum)?)?;
                n.swaps = carve(ArenaKind::Swap, fft::swap_count(len));
                n.inv = carve(ArenaKind::Complex, fft::twiddle_count(len));
                // The spectrum span doubles as the inverse scratch.
                n.spec = carve(ArenaKind::Complex, len);
                n.vec = carve(ArenaKind::Sample, len);
                (n.out, n.out_len) = (ValueKind::Vector, len);
            }
            NodeKind::SpectralMagnitude => {
                // Spectra come from transforms, so `len >= 1`.
                let m = input(ValueKind::Spectrum)? / 2 + 1;
                n.vec = carve(ArenaKind::Sample, m);
                (n.out, n.out_len) = (ValueKind::Vector, m);
            }
            NodeKind::MovingAvg { window } => {
                if window == 0 {
                    return bad("moving-average window must be positive");
                }
                input(ValueKind::Scalar)?;
                n.aux_f = carve(ArenaKind::Scalar, window as usize);
            }
            NodeKind::ExpMovingAvg { alpha } => {
                if !(alpha > 0.0 && alpha <= 1.0) {
                    return bad("smoothing factor must be in (0, 1]");
                }
                input(ValueKind::Scalar)?;
            }
            NodeKind::LowPass { .. } | NodeKind::HighPass { .. } => {
                let len = transform(input(ValueKind::Vector)?)?;
                let twiddles = fft::twiddle_count(len);
                n.swaps = carve(ArenaKind::Swap, fft::swap_count(len));
                n.fwd = carve(ArenaKind::Complex, twiddles);
                n.inv = carve(ArenaKind::Complex, twiddles);
                n.mask = carve(ArenaKind::Mask, len);
                n.wide_in = carve(ArenaKind::Scalar, len);
                n.spec = carve(ArenaKind::Complex, len);
                n.vec = carve(ArenaKind::Sample, len);
                (n.out, n.out_len) = (ValueKind::Vector, len);
            }
            NodeKind::ZcrVariance { sub_windows } => {
                input(ValueKind::Vector)?;
                n.aux_p = carve(ArenaKind::Sample, sub_windows as usize);
            }
            NodeKind::Goertzel { lo_hz, hi_hz }
            | NodeKind::GoertzelFreq { lo_hz, hi_hz }
            | NodeKind::GoertzelRatio { lo_hz, hi_hz } => {
                if !(lo_hz.is_finite() && hi_hz.is_finite() && 0.0 <= lo_hz && lo_hz <= hi_hz) {
                    return bad("goertzel band must be finite with 0 <= lo <= hi");
                }
                // One probe per bin at most: `0..=len/2`.
                let len = input(ValueKind::Vector)?;
                n.aux_f = carve(ArenaKind::Scalar, len / 2 + 1);
            }
            NodeKind::Zcr
            | NodeKind::Stat(_)
            | NodeKind::DominantRatio
            | NodeKind::DominantFreq => {
                input(ValueKind::Vector)?;
            }
            NodeKind::VectorMagnitude
            | NodeKind::MinThreshold { .. }
            | NodeKind::MaxThreshold { .. }
            | NodeKind::BandThreshold { .. }
            | NodeKind::OutsideThreshold { .. }
            | NodeKind::Sustained { .. }
            | NodeKind::AllOf
            | NodeKind::AnyOf => {
                input(ValueKind::Scalar)?;
            }
        }
        n.staged = spec.consumer_mask != 0;
        layout.nodes[i] = n;
    }
    layout.footprint = tally(layout.nodes(), usize::MAX)?;
    Ok(layout)
}

/// The exact per-arena occupancy of `image`: its layout's totals.
///
/// # Errors
///
/// As the layout walk reports them: [`McuExecError::BadParameter`],
/// [`McuExecError::TypeError`] or [`McuExecError::BadTransformLength`]
/// at the first offending node.
pub fn image_footprint(image: &McuImage) -> Result<ImageFootprint, McuExecError> {
    image_layout(image).map(|layout| layout.footprint)
}

/// [`image_footprint`] plus admission against a core of capacity `cap`.
///
/// # Errors
///
/// As [`image_footprint`], then [`ImageLayout::check_fit`].
pub fn check_fit(image: &McuImage, cap: usize) -> Result<ImageFootprint, McuExecError> {
    let layout = image_layout(image)?;
    layout.check_fit(cap)?;
    Ok(layout.footprint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageBuilder;
    use crate::window::WindowShape;

    fn window_image(size: u32) -> McuImage {
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size,
                    hop: size,
                    shape: WindowShape::Rectangular,
                },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let stat = b
            .push_node(
                NodeKind::Stat(crate::image::StatKind::Mean),
                &[PortSource::Node(win)],
                50.0,
            )
            .unwrap();
        b.finish(stat).unwrap()
    }

    #[test]
    fn window_chain_counts_ring_taper_payload_and_staging() {
        let fp = image_footprint(&window_image(64)).unwrap();
        assert_eq!(fp.arena(ArenaKind::Sample).elements, 3 * 64);
        assert_eq!(fp.arena(ArenaKind::StageSample).elements, 64);
        assert_eq!(fp.arena(ArenaKind::Scalar).elements, 0);
        assert_eq!(fp.required_capacity(), 192);
        assert!(fp.fits(192));
        assert!(!fp.fits(191));
    }

    #[test]
    fn unconsumed_payload_is_not_staged() {
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size: 16,
                    hop: 16,
                    shape: WindowShape::Rectangular,
                },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let image = b.finish(win).unwrap();
        let fp = image_footprint(&image).unwrap();
        assert_eq!(fp.arena(ArenaKind::StageSample).elements, 0);
    }

    #[test]
    fn check_fit_names_arena_and_node() {
        let err = check_fit(&window_image(64), 100).unwrap_err();
        assert_eq!(
            err,
            McuExecError::ArenaOverflow {
                arena: "sample arena",
                node: 0,
                needed: 192,
                capacity: 100,
            }
        );
        let text = std::format!("{err}");
        assert!(text.contains("sample arena"), "{text}");
        assert!(text.contains("node 0"), "{text}");
    }

    #[test]
    fn bad_parameters_surface_at_the_same_node_as_load() {
        let mut b = ImageBuilder::new();
        b.push_node(
            NodeKind::MovingAvg { window: 0 },
            &[PortSource::Channel(0)],
            50.0,
        )
        .unwrap();
        let image = b.finish(0).unwrap();
        assert_eq!(
            image_footprint(&image).unwrap_err(),
            McuExecError::BadParameter {
                node: 0,
                what: "moving-average window must be positive",
            }
        );
    }
}
