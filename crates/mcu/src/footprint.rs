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
//! Each arena has one ascending bump cursor, so every span of a node
//! lies above every payload it reads. The walk records where each
//! node's carve begins in the sample and complex arenas (its *base*);
//! `load` copies the spans into its node tables counted from those
//! bases, and a consumer reads its producers' payloads in place, below
//! its base, while it writes its own spans above. [`image_footprint`]
//! and [`check_fit`] read the per-arena totals the same spans sum to,
//! so the certified occupancy is the carve itself, not a mirror of it.
//!
//! A scalar node that a channel reaches without crossing a window — a
//! moving average, a threshold, a join — is a *stream node*: the block
//! path runs it over up to [`BLOCK_ROWS`] frame rows at a time, so the
//! walk carves it one block of output values (scalar arena) and flags
//! (mask arena) per channel it is reached from, its *lanes*.

use crate::exec::{McuExecError, BLOCK_ROWS};
use crate::fft;
use crate::image::{McuImage, NodeKind, PortSource, MAX_NODES};
use core::ops::Range;

/// The five fixed arenas a [`McuCore`](crate::McuCore) carves at load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaKind {
    /// `arena_p`: window rings, taper tables, vector payloads.
    Sample,
    /// `arena_f`: moving-average rings, probe tables, widening scratch,
    /// stream values.
    Scalar,
    /// `arena_c`: twiddle tables and spectrum payloads.
    Complex,
    /// `arena_s`: bit-reversal swap tables.
    Swap,
    /// `arena_b`: band-filter keep masks, stream flags.
    Mask,
}

impl ArenaKind {
    /// Every arena, in declaration order.
    pub const ALL: [ArenaKind; 5] = [
        ArenaKind::Sample,
        ArenaKind::Scalar,
        ArenaKind::Complex,
        ArenaKind::Swap,
        ArenaKind::Mask,
    ];

    /// Position in [`ImageFootprint::arenas`].
    pub fn index(self) -> usize {
        match self {
            ArenaKind::Sample => 0,
            ArenaKind::Scalar => 1,
            ArenaKind::Complex => 2,
            ArenaKind::Swap => 3,
            ArenaKind::Mask => 4,
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
        }
    }

    /// Bytes one element occupies, given the sample-payload width
    /// (`8` for `f64` cores, `4` for `f32`).
    pub fn element_bytes(self, sample_bytes: usize) -> usize {
        match self {
            ArenaKind::Sample => sample_bytes,
            ArenaKind::Scalar => 8,
            ArenaKind::Complex => 16,
            ArenaKind::Swap => 8,
            ArenaKind::Mask => 1,
        }
    }
}

/// One arena's certified occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaUse {
    /// Total elements the program carves from the arena.
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
}

/// Exact per-arena element occupancy of one image, in load order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImageFootprint {
    /// Occupancy per arena, indexed by [`ArenaKind::index`].
    pub arenas: [ArenaUse; 5],
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

    /// The span counted from `base`, the cursor where its node's carve
    /// begins in the arena. An unused ([`Span::EMPTY`]) span stays empty.
    pub(crate) fn above(self, base: u32) -> Span {
        debug_assert!(self.cap == 0 || self.start >= base, "span below its base");
        Span {
            start: self.start.saturating_sub(base),
            cap: self.cap,
        }
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
    /// A stream node's block of output values, [`BLOCK_ROWS`] per lane
    /// in lane order (scalar arena).
    pub(crate) stream: Span,
    /// Which entries of `stream` hold an output (mask arena).
    pub(crate) present: Span,
    /// The channels that reach the node without crossing a window, one
    /// bit each; nonzero exactly for stream nodes.
    pub(crate) lanes: u8,
    /// The kind of value the node emits.
    out: ValueKind,
    /// Elements per emitted payload (0 for scalars).
    out_len: usize,
    /// Sample-arena cursor where the node's carve begins: every input
    /// payload lies below it, every span of the node at or above it.
    pub(crate) base_p: u32,
    /// Complex-arena cursor where the node's carve begins.
    pub(crate) base_c: u32,
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
        stream: Span::EMPTY,
        present: Span::EMPTY,
        lanes: 0,
        out: ValueKind::Scalar,
        out_len: 0,
        base_p: 0,
        base_c: 0,
    };

    /// Elements the node adds to `arena`: its spans there.
    fn elements(&self, arena: ArenaKind) -> usize {
        let n = |s: Span| s.cap as usize;
        match arena {
            ArenaKind::Sample => n(self.aux_p) + n(self.coeffs) + n(self.vec),
            ArenaKind::Scalar => n(self.stream) + n(self.aux_f) + n(self.wide_in),
            ArenaKind::Complex => n(self.fwd) + n(self.inv) + n(self.spec),
            ArenaKind::Swap => n(self.swaps),
            ArenaKind::Mask => n(self.present) + n(self.mask),
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
            arena.add(node, layout.elements(kind));
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
        // Spans carve in ascending order within each arena; the
        // executor's disjoint-borrow helpers rely on it, and so does its
        // hand-off: a consumer reads its producers' payloads below its
        // own base while it writes its spans above.
        let mut n = NodeLayout {
            base_p: used[ArenaKind::Sample.index()] as u32,
            base_c: used[ArenaKind::Complex.index()] as u32,
            ..NodeLayout::EMPTY
        };
        let mut carve = |arena: ArenaKind, n: usize| {
            let at = &mut used[arena.index()];
            let span = Span {
                start: *at as u32,
                cap: n as u32,
            };
            *at += n;
            span
        };
        // A stream node's buffers come first in its scalar carve, so
        // the block path reads its producers' streams below them and
        // finds a moving average's ring above.
        if maps_scalars(spec.kind) {
            n.lanes = spec.sources[..spec.port_count as usize]
                .iter()
                .fold(0, |lanes, &source| match source {
                    PortSource::Channel(c) => lanes | 1 << c,
                    PortSource::Node(src) => lanes | done[src as usize].lanes,
                });
            let len = BLOCK_ROWS * n.lanes.count_ones() as usize;
            n.stream = carve(ArenaKind::Scalar, len);
            n.present = carve(ArenaKind::Mask, len);
        }

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
        layout.nodes[i] = n;
    }
    layout.footprint = tally(layout.nodes(), usize::MAX)?;
    Ok(layout)
}

/// Whether nodes of `kind` take scalars and emit scalars: the kinds that
/// run as stream nodes when a channel reaches them.
fn maps_scalars(kind: NodeKind) -> bool {
    matches!(
        kind,
        NodeKind::MovingAvg { .. }
            | NodeKind::ExpMovingAvg { .. }
            | NodeKind::VectorMagnitude
            | NodeKind::MinThreshold { .. }
            | NodeKind::MaxThreshold { .. }
            | NodeKind::BandThreshold { .. }
            | NodeKind::OutsideThreshold { .. }
            | NodeKind::Sustained { .. }
            | NodeKind::AllOf
            | NodeKind::AnyOf
    )
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
    fn window_chain_counts_ring_taper_and_payload() {
        let fp = image_footprint(&window_image(64)).unwrap();
        assert_eq!(fp.arena(ArenaKind::Sample).elements, 3 * 64);
        assert_eq!(fp.arena(ArenaKind::Scalar).elements, 0);
        assert_eq!(fp.required_capacity(), 192);
        assert!(fp.fits(192));
        assert!(!fp.fits(191));
    }

    #[test]
    fn every_node_carves_above_the_payloads_it_reads() {
        // The executor's hand-off splits the sample and complex arenas at
        // a consumer's base: its producers' payloads must end at or below
        // it, and its own spans begin at or above it.
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size: 16,
                    hop: 8,
                    shape: WindowShape::Hann,
                },
                &[PortSource::Channel(0)],
                64.0,
            )
            .unwrap();
        let hp = b
            .push_node(
                NodeKind::HighPass { cutoff_hz: 8.0 },
                &[PortSource::Node(win)],
                64.0,
            )
            .unwrap();
        let fft = b
            .push_node(NodeKind::Fft, &[PortSource::Node(hp)], 64.0)
            .unwrap();
        let ifft = b
            .push_node(NodeKind::Ifft, &[PortSource::Node(fft)], 64.0)
            .unwrap();
        let zv = b
            .push_node(
                NodeKind::ZcrVariance { sub_windows: 4 },
                &[PortSource::Node(ifft)],
                64.0,
            )
            .unwrap();
        let image = b.finish(zv).unwrap();
        let layout = image_layout(&image).unwrap();
        let end = |s: Span| s.start + s.cap;
        for (i, (spec, node)) in image.nodes().iter().zip(layout.nodes()).enumerate() {
            for &span in &[node.aux_p, node.coeffs, node.vec] {
                assert!(span.cap == 0 || span.start >= node.base_p, "node {i}");
            }
            for &span in &[node.fwd, node.inv, node.spec] {
                assert!(span.cap == 0 || span.start >= node.base_c, "node {i}");
            }
            for &source in &spec.sources[..spec.port_count as usize] {
                if let PortSource::Node(src) = source {
                    let from = &layout.nodes()[src as usize];
                    assert!(end(from.vec) <= node.base_p, "node {i} <- {src}");
                    assert!(end(from.spec) <= node.base_c, "node {i} <- {src}");
                }
            }
        }
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
