//! The wake-condition interpreter — the hub core, and the one
//! interpreter every host path runs as well.
//!
//! [`ExecCore`] executes an [`McuImage`] without allocating after
//! `load`. `load` applies the image's static model, the layout walk in
//! [`footprint`](crate::footprint): it types every edge, validates
//! every parameter and transform length, and assigns every buffer a
//! node needs a span in one of five arenas (samples, scalars, complex
//! values, swap tables and keep masks). A consumer reads its producers'
//! payloads where they lie: every node's spans sit above the payloads
//! it reads, so a pass splits the sample and complex arenas at the
//! node's base and lends it the lower part to read and the upper part
//! to write. An image that loads cannot fail at run time: a push
//! returns only [`McuExecError::NotLoaded`],
//! [`McuExecError::BadChannel`] and, for a ragged frame,
//! [`McuExecError::FrameShape`], before any sample runs. Samples enter
//! as frames of co-sampled channels ([`ExecCore::push_frames`]); a
//! one-channel batch is the one-member frame. Where the arenas live is
//! the core's [`ArenaStorage`] parameter:
//!
//! * [`McuCore<P, CAP>`](McuCore) keeps them inline as `[T; CAP]`
//!   arrays — the firmware form, const-constructible into a `static`.
//!   A program that does not fit is refused at `load` with a typed
//!   [`McuExecError::ArenaOverflow`].
//! * [`HostCore<P>`](HostCore) (`std` feature) allocates exactly the
//!   layout's footprint per arena at `load`. `sidewinder-hub`'s
//!   `HubRuntime` wraps it, so a program's resource certificate is an
//!   exact account of what the host runs.
//!
//! Either way, steady-state execution touches no allocator and no
//! `std`.
//!
//! Every push goes through [`ExecCore::push_frames_probed`], which
//! reports node runs, payload hand-offs and wakes to a [`Probe`] — the
//! one observability interface, which the host runtime and the
//! simulator report through as well. The plain pushes pass
//! [`NullSink`], whose hooks compile away.
//!
//! A push runs in one of two ways, with one result. The per-sample
//! pass runs every node a sample reaches, one sample at a time; it is
//! the interpreter's reference body, and every observed push takes it.
//! An unobserved push of several frames runs by *block* instead: the
//! rows up to the next one where a window emits (at most
//! [`BLOCK_ROWS`]) have their window samples copied into the rings by
//! slice, and every stream node — a scalar node a channel reaches
//! without crossing a window — runs node by node over the whole block
//! into buffers the layout walk carved for it. The emitting row then
//! runs the per-sample pass. A one-frame push runs by block only where
//! it reaches windows alone, so it is a copy. Both ways share each
//! kind's arithmetic.

use crate::complex::Complex;
use crate::fft;
use crate::filter::{self, BandShape};
use crate::footprint::{image_layout, ImageLayout, Span};
use crate::goertzel;
use crate::image::{
    Mask, McuImage, NodeKind, NodeSpec, PortSource, StatKind, MAX_CHANNELS, MAX_NODES, MAX_PORTS,
};
use crate::math;
use crate::probe::{NullSink, Probe};
use crate::sample::Sample;
use crate::spectral;
use crate::stats;
use crate::window::WindowShape;
use crate::zcr;
use core::ops::Range;

/// Frame rows the block path runs at most between two looks at the
/// windows; each stream node's buffers hold one such block per lane.
pub const BLOCK_ROWS: usize = 32;

/// Default arena capacity (elements per arena) of an inline
/// [`McuCore`]. MCU deployments instantiate `McuCore<f32, N>` with `N`
/// matched to their program and RAM budget.
pub const DEFAULT_ARENA: usize = 4096;

/// A wake-up event: the triggering sample's per-channel sequence number
/// and the value that crossed the output node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WakeEvent {
    /// Sequence number of the sample that completed the emission.
    pub seq: u64,
    /// The scalar value produced at the output node.
    pub value: f64,
}

/// Errors raised while loading an image, or pushing samples to a core
/// that has none. Nodes are named by their dense image index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum McuExecError {
    /// `push_sample` before a successful `load`.
    NotLoaded,
    /// A channel index at or above [`MAX_CHANNELS`].
    BadChannel {
        /// The offending channel index.
        channel: u8,
    },
    /// A frame push whose columns do not match its channels one for
    /// one, differ in length, or number more than [`MAX_CHANNELS`].
    FrameShape,
    /// A transform node is fed a payload whose length is not a power
    /// of two.
    BadTransformLength {
        /// The node's dense index.
        node: u16,
        /// The offending length.
        len: usize,
    },
    /// A port is fed a value of the wrong kind (scalar where a vector
    /// is expected, and so on), or a payload of another length than the
    /// node's first port.
    TypeError {
        /// The node's dense index.
        node: u16,
    },
    /// A node parameter failed validation at load time.
    BadParameter {
        /// The node's dense index.
        node: u16,
        /// What was wrong.
        what: &'static str,
    },
    /// A node's carve would overflow one of the fixed arenas — detected
    /// by the pre-flight footprint check, before anything is carved.
    ArenaOverflow {
        /// The arena that would overflow (see
        /// [`ArenaKind::name`](crate::footprint::ArenaKind::name)).
        arena: &'static str,
        /// Dense index of the node whose carve crosses the capacity.
        node: u16,
        /// Elements the program needs by the end of that node's carve.
        needed: usize,
        /// Elements the core provides per arena.
        capacity: usize,
    },
}

impl core::fmt::Display for McuExecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            McuExecError::NotLoaded => write!(f, "no program image loaded"),
            McuExecError::BadChannel { channel } => {
                write!(f, "channel {channel} beyond the core's channel limit")
            }
            McuExecError::FrameShape => {
                write!(
                    f,
                    "frame columns do not match its channels in count or length"
                )
            }
            McuExecError::BadTransformLength { node, len } => {
                write!(f, "node {node}: window length {len} is not a power of two")
            }
            McuExecError::TypeError { node } => {
                write!(f, "node {node}: received a value of the wrong type")
            }
            McuExecError::BadParameter { node, what } => {
                write!(f, "node {node}: invalid parameter: {what}")
            }
            McuExecError::ArenaOverflow {
                arena,
                node,
                needed,
                capacity,
            } => write!(
                f,
                "node {node}: {arena} exhausted: needs {needed} elements, capacity {capacity}"
            ),
        }
    }
}

impl core::error::Error for McuExecError {}

/// Mutable views of a core's five arenas, in
/// [`ArenaKind::ALL`](crate::footprint::ArenaKind::ALL) order — what the
/// storage lends a push, and what a node's run writes.
pub struct ArenaViews<'a, P: Sample> {
    /// Window rings, taper tables, vector payloads.
    pub p: &'a mut [P],
    /// Moving-average rings, probe tables, widening scratch, stream
    /// values.
    pub f: &'a mut [f64],
    /// Twiddle tables and spectrum payloads.
    pub c: &'a mut [Complex],
    /// Bit-reversal swap tables.
    pub s: &'a mut [(u32, u32)],
    /// Band-filter keep masks, stream flags.
    pub b: &'a mut [bool],
}

/// Where an [`ExecCore`] keeps its arenas.
pub trait ArenaStorage {
    /// Vector-payload precision (`f64` for host bit-equivalence, `f32`
    /// for hardware-faithful deployments).
    type Sample: Sample;

    /// Readies the arenas for `layout`, before `load` applies it.
    ///
    /// # Errors
    ///
    /// [`McuExecError::ArenaOverflow`] when fixed storage is too small.
    fn fit(&mut self, layout: &ImageLayout) -> Result<(), McuExecError>;

    /// The arenas, each as long as the storage provides.
    fn views(&mut self) -> ArenaViews<'_, Self::Sample>;
}

/// Fixed `[T; CAP]` arenas held inline — the firmware storage.
pub struct InlineArenas<P: Sample, const CAP: usize> {
    p: [P; CAP],
    f: [f64; CAP],
    c: [Complex; CAP],
    s: [(u32, u32); CAP],
    b: [bool; CAP],
}

impl<P: Sample, const CAP: usize> InlineArenas<P, CAP> {
    /// Zeroed arenas.
    pub const fn new() -> Self {
        InlineArenas {
            p: [P::ZERO; CAP],
            f: [0.0; CAP],
            c: [Complex::ZERO; CAP],
            s: [(0, 0); CAP],
            b: [false; CAP],
        }
    }
}

impl<P: Sample, const CAP: usize> Default for InlineArenas<P, CAP> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Sample, const CAP: usize> ArenaStorage for InlineArenas<P, CAP> {
    type Sample = P;

    fn fit(&mut self, layout: &ImageLayout) -> Result<(), McuExecError> {
        layout.check_fit(CAP)
    }

    fn views(&mut self) -> ArenaViews<'_, P> {
        ArenaViews {
            p: &mut self.p,
            f: &mut self.f,
            c: &mut self.c,
            s: &mut self.s,
            b: &mut self.b,
        }
    }
}

/// Elements per arena a [`HeapArenas`] will allocate: 4 Mi elements
/// (64 MiB of complex values), 256 times the fleet's 16 Ki-element
/// certification arena and far above any evaluation program's
/// footprint. A valid program that needs more, such as
/// `window(1073741824)`, is refused at `load` with a typed
/// [`McuExecError::ArenaOverflow`] instead of asking the allocator for
/// gigabytes.
pub const HOST_ARENA_CAP: usize = 1 << 22;

/// Heap arenas sized to each loaded image's exact footprint — the host
/// storage, up to [`HOST_ARENA_CAP`] elements per arena.
#[cfg(feature = "std")]
#[derive(Debug, Clone, Default)]
pub struct HeapArenas<P: Sample> {
    p: std::vec::Vec<P>,
    f: std::vec::Vec<f64>,
    c: std::vec::Vec<Complex>,
    s: std::vec::Vec<(u32, u32)>,
    b: std::vec::Vec<bool>,
}

#[cfg(feature = "std")]
impl<P: Sample> ArenaStorage for HeapArenas<P> {
    type Sample = P;

    fn fit(&mut self, layout: &ImageLayout) -> Result<(), McuExecError> {
        use crate::footprint::ArenaKind;
        use std::vec;
        layout.check_fit(HOST_ARENA_CAP)?;
        let fp = layout.footprint();
        let n = |kind: ArenaKind| fp.arena(kind).elements;
        *self = HeapArenas {
            p: vec![P::ZERO; n(ArenaKind::Sample)],
            f: vec![0.0; n(ArenaKind::Scalar)],
            c: vec![Complex::ZERO; n(ArenaKind::Complex)],
            s: vec![(0, 0); n(ArenaKind::Swap)],
            b: vec![false; n(ArenaKind::Mask)],
        };
        Ok(())
    }

    fn views(&mut self) -> ArenaViews<'_, P> {
        ArenaViews {
            p: &mut self.p,
            f: &mut self.f,
            c: &mut self.c,
            s: &mut self.s,
            b: &mut self.b,
        }
    }
}

/// Per-node mutable state plus the arena spans its kind was assigned.
/// One flat struct for all kinds keeps the state table a plain array;
/// each kind touches only its own fields. Sample- and complex-arena
/// spans (here and in the node's [`Slot`]) count from the node's base
/// in that arena.
#[derive(Debug, Clone, Copy)]
struct NodeState {
    /// Where the node's carve begins in the sample arena.
    base_p: u32,
    /// Where the node's carve begins in the complex arena.
    base_c: u32,
    /// Window ring buffer / zcr-variance scratch (sample arena).
    aux_p: Span,
    /// Tabulated taper coefficients (sample arena).
    coeffs: Span,
    /// Moving-average ring / Goertzel probe table (scalar arena).
    aux_f: Span,
    /// Bit-reversal swap table (swap arena).
    swaps: Span,
    /// Live entries in `swaps` once planned.
    swaps_len: u32,
    /// Forward twiddle table (complex arena).
    fwd: Span,
    /// Inverse twiddle table (complex arena).
    inv: Span,
    /// Band-filter keep mask (mask arena).
    mask: Span,
    /// Widening scratch for `f32` pipelines (scalar arena).
    wide_in: Span,
    /// Stream node outputs over a block, one block per lane (scalar
    /// arena).
    stream: Span,
    /// Which `stream` entries hold an output (mask arena).
    present: Span,
    /// The channels that reach a stream node, one bit each; 0 for every
    /// other node.
    lanes: u8,
    /// Planned transform length / probed window length; `u32::MAX`
    /// until first planned (plans are built on the first window).
    planned_len: u32,
    /// Live probe count in `aux_f` for Goertzel kinds.
    probe_len: u32,
    /// Ring head (windower / moving average).
    head: u32,
    /// Ring fill (windower / moving average).
    fill: u32,
    /// Samples since the last emission (sliding windower).
    since_emit: u32,
    /// Whether the sliding windower has emitted its first window.
    primed: bool,
    /// EMA state value.
    ema: f64,
    /// Whether `ema` holds a previous output.
    ema_set: bool,
    /// Per-port latest sequence tags (joins).
    latest_seq: [u64; MAX_PORTS],
    /// Per-port latest values (joins).
    latest_val: [f64; MAX_PORTS],
    /// Bitmask of ports that have received a value (joins).
    latest_set: u8,
    /// Current streak length (`sustained`).
    streak: u32,
    /// Last arrival sequence (`sustained`).
    last_seq: u64,
    /// Whether `last_seq` is valid.
    has_last: bool,
}

impl NodeState {
    const EMPTY: NodeState = NodeState {
        base_p: 0,
        base_c: 0,
        aux_p: Span::EMPTY,
        coeffs: Span::EMPTY,
        aux_f: Span::EMPTY,
        swaps: Span::EMPTY,
        swaps_len: 0,
        fwd: Span::EMPTY,
        inv: Span::EMPTY,
        mask: Span::EMPTY,
        wide_in: Span::EMPTY,
        stream: Span::EMPTY,
        present: Span::EMPTY,
        lanes: 0,
        planned_len: u32::MAX,
        probe_len: 0,
        head: 0,
        fill: 0,
        since_emit: 0,
        primed: false,
        ema: 0.0,
        ema_set: false,
        latest_seq: [0; MAX_PORTS],
        latest_val: [0.0; MAX_PORTS],
        latest_set: 0,
        streak: 0,
        last_seq: 0,
        has_last: false,
    };

    /// Clears the mutable execution state while keeping spans and plans
    /// — the per-node half of [`ExecCore::reset`].
    fn reset(&mut self) {
        self.head = 0;
        self.fill = 0;
        self.since_emit = 0;
        self.primed = false;
        self.ema = 0.0;
        self.ema_set = false;
        self.latest_seq = [0; MAX_PORTS];
        self.latest_val = [0.0; MAX_PORTS];
        self.latest_set = 0;
        self.streak = 0;
        self.last_seq = 0;
        self.has_last = false;
    }
}

/// The type of value a result slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    Empty,
    Scalar,
    Vector,
    Spectrum,
}

/// One node's result slot: the latest value it produced and the
/// sequence tag of the sample it derives from.
#[derive(Debug, Clone, Copy)]
struct Slot {
    kind: SlotKind,
    seq: u64,
    scalar: f64,
    /// Vector payload span (sample arena) and live length.
    vec: Span,
    vec_len: u32,
    /// Spectrum payload span (complex arena) and live length.
    spec: Span,
    spec_len: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        kind: SlotKind::Empty,
        seq: 0,
        scalar: 0.0,
        vec: Span::EMPTY,
        vec_len: 0,
        spec: Span::EMPTY,
        spec_len: 0,
    };

    fn set_scalar(&mut self, seq: u64, value: f64) {
        self.kind = SlotKind::Scalar;
        self.seq = seq;
        self.scalar = value;
    }
}

/// A borrowed input value on its way into a node.
enum In<'a, P: Sample> {
    Scalar(f64),
    Vector(&'a [P]),
    Spectrum(&'a [Complex]),
}

/// Identity of one feed: which port, at what sequence.
#[derive(Clone, Copy)]
struct FeedCtx {
    port: usize,
    seq: u64,
}

/// What a lazily built transform plan must provide.
struct PlanNeeds {
    fwd: bool,
    inv: bool,
    band: Option<(BandShape, f64)>,
}

/// The interpreter: loads an [`McuImage`] into the arenas of its
/// [`ArenaStorage`] and executes it sample by sample.
///
/// Use it through [`McuCore`] (inline arenas) or [`HostCore`] (heap
/// arenas sized per image). The node and slot tables are fixed at
/// [`MAX_NODES`] entries, the image's own limit.
pub struct ExecCore<A: ArenaStorage> {
    image: McuImage,
    loaded: bool,
    states: [NodeState; MAX_NODES],
    slots: [Slot; MAX_NODES],
    channel_seq: [u64; MAX_CHANNELS],
    wake_count: u64,
    blocks: BlockPlan,
    arenas: A,
}

/// The firmware core: `CAP`-element arenas held inline. The struct is
/// large (`41 * CAP` bytes of arenas at `P = f64`, `37 * CAP` at `f32`);
/// embed it in a `static` or a `Box` rather than the stack for big
/// capacities.
pub type McuCore<P = f64, const CAP: usize = DEFAULT_ARENA> = ExecCore<InlineArenas<P, CAP>>;

/// The host core: heap arenas sized exactly to each loaded image.
#[cfg(feature = "std")]
pub type HostCore<P = f64> = ExecCore<HeapArenas<P>>;

impl<P: Sample, const CAP: usize> ExecCore<InlineArenas<P, CAP>> {
    /// Creates an empty core. `const`, so a core can live in a
    /// `static` — the zero-heap deployment shape for MCU targets.
    pub const fn new() -> Self {
        Self::with_arenas(InlineArenas::new())
    }
}

impl<P: Sample, const CAP: usize> Default for ExecCore<InlineArenas<P, CAP>> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(feature = "std")]
impl<P: Sample> ExecCore<HeapArenas<P>> {
    /// Creates an empty core; `load` allocates its arenas.
    pub fn new() -> Self {
        Self::with_arenas(HeapArenas::default())
    }
}

#[cfg(feature = "std")]
impl<P: Sample> Default for ExecCore<HeapArenas<P>> {
    fn default() -> Self {
        Self::new()
    }
}

/// Removes and returns the lowest set bit's index.
#[inline]
fn take_lowest(mask: &mut Mask) -> usize {
    let i = mask.trailing_zeros() as usize;
    *mask &= *mask - 1;
    i
}

/// `i + 1`, wrapped to `0` at `len`.
#[inline]
fn next_index(i: usize, len: usize) -> usize {
    if i + 1 == len {
        0
    } else {
        i + 1
    }
}

/// `head + offset` on a ring of `len`, for `head < len` and
/// `offset <= len`.
#[inline]
fn ring_index(head: usize, offset: usize, len: usize) -> usize {
    let k = head + offset;
    if k >= len {
        k - len
    } else {
        k
    }
}

impl<A: ArenaStorage> ExecCore<A> {
    /// An empty core over `arenas`.
    const fn with_arenas(arenas: A) -> Self {
        ExecCore {
            image: McuImage::EMPTY,
            loaded: false,
            states: [NodeState::EMPTY; MAX_NODES],
            slots: [Slot::EMPTY; MAX_NODES],
            channel_seq: [0; MAX_CHANNELS],
            wake_count: 0,
            blocks: BlockPlan::EMPTY,
            arenas,
        }
    }

    /// Total wake-ups since load (or the last [`reset`](Self::reset)).
    pub fn wake_count(&self) -> u64 {
        self.wake_count
    }

    /// The loaded image.
    pub fn image(&self) -> &McuImage {
        &self.image
    }

    /// Loads an image: applies its layout — the one static walk that
    /// types every edge, validates every parameter and transform length,
    /// and assigns every node its arena spans — then tabulates the
    /// window tapers. Transform plans are built on the first window.
    ///
    /// A rejected image leaves the core as unloaded as a fresh one, and
    /// reusable: no arena is written until the layout is accepted and
    /// fits.
    ///
    /// # Errors
    ///
    /// [`McuExecError::BadParameter`], [`McuExecError::TypeError`] and
    /// [`McuExecError::BadTransformLength`] as the layout walk reports
    /// them; [`McuExecError::ArenaOverflow`] when the footprint exceeds
    /// fixed storage, naming the arena and the offending node.
    pub fn load(&mut self, image: &McuImage) -> Result<(), McuExecError> {
        self.loaded = false;
        self.states = [NodeState::EMPTY; MAX_NODES];
        self.slots = [Slot::EMPTY; MAX_NODES];
        self.channel_seq = [0; MAX_CHANNELS];
        self.wake_count = 0;

        let layout = image_layout(image)?;
        self.arenas.fit(&layout)?;
        let p = self.arenas.views().p;
        for (i, (spec, node)) in image.nodes().iter().zip(layout.nodes()).enumerate() {
            let (bp, bc) = (node.base_p, node.base_c);
            self.states[i] = NodeState {
                base_p: bp,
                base_c: bc,
                aux_p: node.aux_p.above(bp),
                coeffs: node.coeffs.above(bp),
                aux_f: node.aux_f,
                swaps: node.swaps,
                fwd: node.fwd.above(bc),
                inv: node.inv.above(bc),
                mask: node.mask,
                wide_in: node.wide_in,
                stream: node.stream,
                present: node.present,
                lanes: node.lanes,
                ..NodeState::EMPTY
            };
            self.slots[i].vec = node.vec.above(bp);
            self.slots[i].spec = node.spec.above(bc);
            if let NodeKind::Window { shape, .. } = spec.kind {
                shape.fill_coefficients(&mut p[node.coeffs.full()]);
            }
        }
        self.blocks = BlockPlan::new(image, &self.states);
        self.image = *image;
        self.loaded = true;
        Ok(())
    }

    /// Ingests one sample on a channel, running a full interpreter pass
    /// and invoking `on_wake` for each wake-up it produces.
    ///
    /// # Errors
    ///
    /// [`McuExecError::NotLoaded`] before a `load`,
    /// [`McuExecError::BadChannel`] for a channel at or above
    /// [`MAX_CHANNELS`]. Nothing else: `load` rejects every image that
    /// could fail at run time.
    pub fn push_sample(
        &mut self,
        channel: u8,
        sample: f64,
        on_wake: &mut impl FnMut(WakeEvent),
    ) -> Result<(), McuExecError> {
        self.push_samples(channel, core::slice::from_ref(&sample), on_wake)
    }

    /// Ingests a batch of samples on one channel, exactly as if each
    /// were pushed in turn: the one-channel call of
    /// [`push_frames`](Self::push_frames).
    ///
    /// # Errors
    ///
    /// As [`push_sample`](Self::push_sample), before any sample runs.
    pub fn push_samples(
        &mut self,
        channel: u8,
        samples: &[f64],
        on_wake: &mut impl FnMut(WakeEvent),
    ) -> Result<(), McuExecError> {
        self.push_frames_probed(
            &[channel],
            &[samples],
            &mut |_, w| on_wake(w),
            &mut NullSink,
        )
    }

    /// Ingests `frames` of co-sampled channels: frame `k` pushes
    /// `columns[m][k]` on `channels[m]` for each member `m` in order,
    /// exactly as if each sample were pushed in turn. `on_wake` receives
    /// each wake-up with the index of the member whose sample raised it.
    ///
    /// # Errors
    ///
    /// As [`push_sample`](Self::push_sample), plus
    /// [`McuExecError::FrameShape`] when the columns do not match the
    /// channels one for one or differ in length; all before any sample
    /// runs.
    pub fn push_frames(
        &mut self,
        channels: &[u8],
        columns: &[&[f64]],
        on_wake: &mut impl FnMut(usize, WakeEvent),
    ) -> Result<(), McuExecError> {
        self.push_frames_probed(channels, columns, on_wake, &mut NullSink)
    }

    /// [`push_frames`](Self::push_frames) reporting to a [`Probe`] — the
    /// one entry every push goes through.
    ///
    /// Each sample runs one interpreter pass, the core's one per-sample
    /// body, unless the push runs by block. A push runs by block when
    /// the probe is off, its channels are distinct, each window its
    /// samples reach before a vector is fed by one of its channels
    /// alone, and it has more than one frame or reaches no stream node
    /// (one row of stream nodes costs a block as much as a pass). Then
    /// the rows before the next one where such a window emits — at most
    /// [`BLOCK_ROWS`] while a stream node is reached — form a block:
    ///
    /// * each window copies its samples into its ring by slice (two
    ///   copies where a sliding window's ring wraps), narrowed to the
    ///   core's precision;
    /// * each stream node, in image (topological) order, runs over the
    ///   block's rows into its stream buffers; a node fed at several
    ///   ports or from several members takes its inputs in the order
    ///   the passes would, `(row, member, port)`, the last emission of a
    ///   `(row, member)` winning;
    /// * the wakes of `OUT`, when it is a stream node, are raised in
    ///   `(row, member)` order.
    ///
    /// The emitting row then runs the per-sample pass for each member.
    /// Both ways run the same arithmetic, so the wakes are bit-identical.
    ///
    /// # Errors
    ///
    /// As [`push_frames`](Self::push_frames).
    pub fn push_frames_probed<Pr: Probe>(
        &mut self,
        channels: &[u8],
        columns: &[&[f64]],
        on_wake: &mut impl FnMut(usize, WakeEvent),
        probe: &mut Pr,
    ) -> Result<(), McuExecError> {
        if !self.loaded {
            return Err(McuExecError::NotLoaded);
        }
        let frames = frame_count(channels, columns)?;
        let ExecCore {
            image,
            states,
            slots,
            channel_seq,
            wake_count,
            blocks,
            arenas,
            ..
        } = self;
        let block = if Pr::ENABLED {
            None
        } else {
            blocks.admit(channels, frames)
        };
        let mut views = arenas.views();
        // Frame `k`, member `m`: one loop over every sample in push order.
        let (mut k, mut m) = (0, 0);
        while k < frames {
            if let (0, Some(reach)) = (m, block) {
                let run = block_rows(image, states, reach).min(frames - k);
                if run > 0 {
                    run_block(
                        image,
                        states,
                        channel_seq,
                        wake_count,
                        (views.p, views.f, views.b),
                        channels,
                        columns,
                        k..k + run,
                        reach,
                        on_wake,
                    );
                    k += run;
                    continue;
                }
            }
            let pass = Pass {
                image,
                states: &mut *states,
                slots: &mut *slots,
                channel_seq: &mut *channel_seq,
                wake_count: &mut *wake_count,
                views: &mut views,
            };
            pass.run(channels[m], columns[m][k], &mut |w| on_wake(m, w), probe);
            m += 1;
            if m == channels.len() {
                m = 0;
                k += 1;
            }
        }
        Ok(())
    }

    /// Resets all mutable execution state (rings, averages, streaks,
    /// sequence counters) while keeping the image, arena layout, and
    /// built transform plans.
    pub fn reset(&mut self) {
        for st in self.states.iter_mut() {
            st.reset();
        }
        for slot in self.slots.iter_mut() {
            slot.kind = SlotKind::Empty;
        }
        self.channel_seq = [0; MAX_CHANNELS];
        self.wake_count = 0;
    }
}

/// Checks a frame push's shape and returns its frame count: at most
/// [`MAX_CHANNELS`] members, every channel in range, one column per
/// channel, all of one length.
fn frame_count(channels: &[u8], columns: &[&[f64]]) -> Result<usize, McuExecError> {
    if let Some(&channel) = channels.iter().find(|&&c| c as usize >= MAX_CHANNELS) {
        return Err(McuExecError::BadChannel { channel });
    }
    let frames = columns.first().map_or(0, |c| c.len());
    if channels.len() > MAX_CHANNELS
        || columns.len() != channels.len()
        || columns.iter().any(|c| c.len() != frames)
    {
        return Err(McuExecError::FrameShape);
    }
    Ok(frames)
}

/// What the block path needs of a loaded image, derived at `load`.
#[derive(Debug, Clone, Copy)]
struct BlockPlan {
    /// Channels whose pushes may run by block, one bit each: every
    /// window their samples reach before a vector is fed by that
    /// channel alone, so its emissions can be counted ahead.
    channels: u8,
    /// The `channels` that reach no stream node: a one-frame push on
    /// them only fills windows.
    fills: u8,
    /// Per channel: the windows it feeds.
    windows: [Mask; MAX_CHANNELS],
    /// Per channel: the stream nodes it reaches.
    streams: [Mask; MAX_CHANNELS],
}

/// The nodes a block-run push reaches.
#[derive(Debug, Clone, Copy)]
struct Reach {
    /// Stream nodes.
    streams: Mask,
    /// Windows, each fed by one member alone.
    windows: Mask,
}

impl BlockPlan {
    const EMPTY: BlockPlan = BlockPlan {
        channels: 0,
        fills: 0,
        windows: [0; MAX_CHANNELS],
        streams: [0; MAX_CHANNELS],
    };

    fn new(image: &McuImage, states: &[NodeState; MAX_NODES]) -> BlockPlan {
        let mut plan = BlockPlan {
            channels: u8::MAX,
            ..BlockPlan::EMPTY
        };
        for (i, spec) in image.nodes().iter().enumerate() {
            let lanes = states[i].lanes;
            for (c, streams) in plan.streams.iter_mut().enumerate() {
                if lanes & 1 << c != 0 {
                    *streams |= 1 << i;
                }
            }
            if let NodeKind::Window { .. } = spec.kind {
                let ports = &spec.sources[..spec.port_count as usize];
                let alone = match *ports {
                    [PortSource::Channel(c)] => 1 << c,
                    _ => 0,
                };
                for &source in ports {
                    let reached = match source {
                        PortSource::Channel(c) => {
                            plan.windows[c as usize] |= 1 << i;
                            1 << c
                        }
                        PortSource::Node(src) => states[src as usize].lanes,
                    };
                    plan.channels &= !(reached & !alone);
                }
            }
        }
        for (c, &streams) in plan.streams.iter().enumerate() {
            if streams == 0 {
                plan.fills |= plan.channels & 1 << c;
            }
        }
        plan
    }

    /// What a push of `frames` on `channels` reaches, when it may run by
    /// block: its channels are distinct (a repeated channel interleaves
    /// its samples) and each is one of `self.channels` — of
    /// `self.fills` for one frame, since one row of stream nodes costs a
    /// block as much as a pass.
    #[inline(always)]
    fn admit(&self, channels: &[u8], frames: usize) -> Option<Reach> {
        let eligible = if frames > 1 {
            self.channels
        } else {
            self.fills
        };
        let mut seen = 0u8;
        let mut reach = Reach {
            streams: 0,
            windows: 0,
        };
        for &channel in channels {
            let bit = 1 << channel;
            if seen & bit != 0 || eligible & bit == 0 {
                return None;
            }
            seen |= bit;
            reach.streams |= self.streams[channel as usize];
            reach.windows |= self.windows[channel as usize];
        }
        Some(reach)
    }
}

/// Rows a push reaching `reach` can run by block before a window emits:
/// the fewest samples any of its windows takes without emitting, and at
/// most [`BLOCK_ROWS`] while a stream node is reached.
#[inline(always)]
fn block_rows(image: &McuImage, states: &[NodeState; MAX_NODES], reach: Reach) -> usize {
    let mut run = if reach.streams != 0 {
        BLOCK_ROWS
    } else {
        usize::MAX
    };
    let mut rest = reach.windows;
    while rest != 0 {
        let i = take_lowest(&mut rest);
        if let NodeKind::Window { size, hop, .. } = image.nodes()[i].kind {
            let st = &states[i];
            // A sliding window emits every `hop` samples once primed; a
            // tumbling one never primes and emits when its ring fills.
            let quiet = if st.primed {
                hop - 1 - st.since_emit
            } else {
                size - 1 - st.fill
            };
            run = run.min(quiet as usize);
        }
    }
    run
}

/// Offset of lane `channel` in a stream buffer of `lanes`.
#[inline]
fn lane_offset(lanes: u8, channel: u8) -> usize {
    (lanes & ((1 << channel) - 1)).count_ones() as usize * BLOCK_ROWS
}

/// Runs `rows` of a push by block — what one pass per sample does on
/// rows where no window emits: fills the windows, runs the stream nodes,
/// and advances the channels' sequence counters.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn run_block<P: Sample>(
    image: &McuImage,
    states: &mut [NodeState; MAX_NODES],
    channel_seq: &mut [u64; MAX_CHANNELS],
    wake_count: &mut u64,
    (p, f, b): (&mut [P], &mut [f64], &mut [bool]),
    channels: &[u8],
    columns: &[&[f64]],
    rows: Range<usize>,
    reach: Reach,
    on_wake: &mut impl FnMut(usize, WakeEvent),
) {
    let n = rows.len();
    let nodes = image.nodes();
    for (&channel, column) in channels.iter().zip(columns) {
        let mut fed = image.direct_feed_mask(channel as usize) & reach.windows;
        while fed != 0 {
            let i = take_lowest(&mut fed);
            if let NodeKind::Window { size, .. } = nodes[i].kind {
                fill_ring(&mut states[i], p, size as usize, &column[rows.clone()]);
            }
        }
    }
    if reach.streams != 0 {
        run_streams(
            image,
            states,
            channel_seq,
            wake_count,
            (f, b),
            channels,
            columns,
            rows,
            reach.streams,
            on_wake,
        );
    }
    for &channel in channels {
        channel_seq[channel as usize] += n as u64;
    }
}

/// Runs the `streams` nodes over a block's `rows` in image order, then
/// raises `OUT`'s wakes in `(row, member)` order when it is one of them.
/// The channels' sequence counters still stand at the block's first row.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn run_streams(
    image: &McuImage,
    states: &mut [NodeState; MAX_NODES],
    channel_seq: &[u64; MAX_CHANNELS],
    wake_count: &mut u64,
    (f, b): (&mut [f64], &mut [bool]),
    channels: &[u8],
    columns: &[&[f64]],
    rows: Range<usize>,
    streams: Mask,
    on_wake: &mut impl FnMut(usize, WakeEvent),
) {
    let n = rows.len();
    let nodes = image.nodes();
    let mut seq0 = [0u64; MAX_CHANNELS];
    let mut members = 0u8;
    for (m, &channel) in channels.iter().enumerate() {
        seq0[m] = channel_seq[channel as usize];
        members |= 1 << channel;
    }
    let block = Block {
        channels,
        columns,
        rows,
        seq0: &seq0,
        members,
    };
    let mut rest = streams;
    while rest != 0 {
        let i = take_lowest(&mut rest);
        run_stream(&nodes[i], i, states, f, b, &block);
    }
    let out = image.out_index();
    if streams & 1 << out == 0 {
        return;
    }
    let st = &states[out];
    let (vals, set) = (&f[st.stream.full()], &b[st.present.full()]);
    let mut lanes = [(0, 0); MAX_CHANNELS];
    let mut count = 0;
    for (m, &channel) in channels.iter().enumerate() {
        if st.lanes & 1 << channel != 0 {
            lanes[count] = (m, lane_offset(st.lanes, channel));
            count += 1;
        }
    }
    for j in 0..n {
        for &(m, at) in &lanes[..count] {
            if set[at + j] {
                *wake_count += 1;
                let w = WakeEvent {
                    seq: seq0[m] + j as u64,
                    value: vals[at + j],
                };
                on_wake(m, w);
            }
        }
    }
}

/// Copies `xs` into a window's ring, narrowing to `P` — what a pass per
/// sample does while the window does not emit. `xs` must end before the
/// window's next emission.
#[inline(always)]
fn fill_ring<P: Sample>(st: &mut NodeState, p: &mut [P], len: usize, xs: &[f64]) {
    let ring = (st.base_p + st.aux_p.start) as usize;
    if !st.primed {
        // Not yet full (a tumbling window never is): the ring's head is
        // its start, so the samples go right past the fill.
        let at = ring + st.fill as usize;
        narrow(&mut p[at..at + xs.len()], xs);
        st.fill += xs.len() as u32;
        return;
    }
    // A primed sliding window overwrites its oldest samples from `head`
    // on, wrapping at most once.
    let ring = &mut p[ring..ring + len];
    let head = st.head as usize;
    let (tail, wrapped) = xs.split_at(xs.len().min(len - head));
    narrow(&mut ring[head..head + tail.len()], tail);
    narrow(&mut ring[..wrapped.len()], wrapped);
    st.head = ring_index(head, xs.len(), len) as u32;
    st.since_emit += xs.len() as u32;
}

/// `dst[k] = xs[k]` narrowed to `P`: the precision boundary samples
/// cross as they enter a ring.
#[inline(always)]
fn narrow<P: Sample>(dst: &mut [P], xs: &[f64]) {
    for (d, &x) in dst.iter_mut().zip(xs) {
        *d = P::from_f64(x);
    }
}

/// A block's input, as every stream node reads it.
struct Block<'a> {
    channels: &'a [u8],
    columns: &'a [&'a [f64]],
    rows: Range<usize>,
    /// Each member's first sequence number in the block.
    seq0: &'a [u64; MAX_CHANNELS],
    /// The members' channels, one bit each.
    members: u8,
}

/// Where one port reads one member's inputs over a block.
#[derive(Clone, Copy)]
enum Feed {
    /// The member's own column.
    Column,
    /// A producer's stream: where its lane's values and flags begin in
    /// the scalar and mask arenas.
    Stream { vals: usize, flags: usize },
}

/// Runs stream node `i` over a block into its stream buffers: for each
/// row and member in push order, each port that delivers a value feeds
/// the node, and its last emission is the row's output.
fn run_stream(
    spec: &NodeSpec,
    i: usize,
    states: &mut [NodeState; MAX_NODES],
    f: &mut [f64],
    b: &mut [bool],
    block: &Block<'_>,
) {
    let (done, rest) = states.split_at_mut(i);
    let st = &mut rest[0];
    // Producers' streams lie below the node's own; a moving average's
    // ring lies above them.
    let (f_in, f_own) = f.split_at_mut(st.stream.start as usize);
    let (vals, f_rest) = f_own.split_at_mut(st.stream.cap as usize);
    let ring = &mut f_rest[st.aux_f.above(st.stream.start + st.stream.cap).full()];
    let (b_in, b_own) = b.split_at_mut(st.present.start as usize);
    let flags = &mut b_own[..st.present.cap as usize];
    let active = st.lanes & block.members;
    let n = block.rows.len();

    let column = |m: usize| &block.columns[m][block.rows.clone()];

    if active.count_ones() > 1 && !stateless(spec.kind) {
        // Members share the node's state: rows and members interleave
        // as the passes would.
        let mut feeds = [([(0, Feed::Column); MAX_PORTS], 0); MAX_CHANNELS];
        for (m, &channel) in block.channels.iter().enumerate() {
            if active & 1 << channel != 0 {
                feeds[m] = member_feeds(spec, done, channel);
            }
        }
        for j in 0..n {
            for (m, &channel) in block.channels.iter().enumerate() {
                if active & 1 << channel == 0 {
                    continue;
                }
                let seq = block.seq0[m] + j as u64;
                let (feeds, count) = &feeds[m];
                let y = feed_row(
                    spec,
                    st,
                    ring,
                    &feeds[..*count],
                    column(m),
                    f_in,
                    b_in,
                    j,
                    seq,
                );
                let at = lane_offset(st.lanes, channel) + j;
                flags[at] = y.is_some();
                if let Some(y) = y {
                    vals[at] = y;
                }
            }
        }
        return;
    }
    // Otherwise no state joins two members' rows, so each member's lane
    // runs alone, row by row.
    for (m, &channel) in block.channels.iter().enumerate() {
        if active & 1 << channel == 0 {
            continue;
        }
        let at = lane_offset(st.lanes, channel);
        let (out, out_set) = (&mut vals[at..at + n], &mut flags[at..at + n]);
        let seq = block.seq0[m];
        let xs = column(m);
        let (feeds, count) = member_feeds(spec, done, channel);
        match (spec.kind, &feeds[..count]) {
            (NodeKind::MovingAvg { window }, [(_, Feed::Column)]) => {
                moving_average_column(&mut ring[..window as usize], st, xs, out, out_set);
            }
            (_, &[(port, Feed::Column)]) => {
                for (j, &x) in xs.iter().enumerate() {
                    let y = step_scalar(
                        spec.kind,
                        spec.port_count as usize,
                        st,
                        ring,
                        port,
                        seq + j as u64,
                        x,
                    );
                    out_set[j] = y.is_some();
                    if let Some(y) = y {
                        out[j] = y;
                    }
                }
            }
            (_, &[(port, Feed::Stream { vals, flags })]) => {
                let (xs, set) = (&f_in[vals..vals + n], &b_in[flags..flags + n]);
                for j in 0..n {
                    let y = if set[j] {
                        step_scalar(
                            spec.kind,
                            spec.port_count as usize,
                            st,
                            ring,
                            port,
                            seq + j as u64,
                            xs[j],
                        )
                    } else {
                        None
                    };
                    out_set[j] = y.is_some();
                    if let Some(y) = y {
                        out[j] = y;
                    }
                }
            }
            (_, feeds) => {
                for j in 0..n {
                    let y = feed_row(spec, st, ring, feeds, xs, f_in, b_in, j, seq + j as u64);
                    out_set[j] = y.is_some();
                    if let Some(y) = y {
                        out[j] = y;
                    }
                }
            }
        }
    }
}

/// Where each of a stream node's ports reads the member on `channel`,
/// for the ports that deliver to it, in port order; and their count.
fn member_feeds(
    spec: &NodeSpec,
    done: &[NodeState],
    channel: u8,
) -> ([(usize, Feed); MAX_PORTS], usize) {
    let mut feeds = [(0, Feed::Column); MAX_PORTS];
    let mut count = 0;
    for (port, &source) in spec.sources[..spec.port_count as usize].iter().enumerate() {
        let feed = match source {
            PortSource::Channel(c) if c == channel => Feed::Column,
            PortSource::Node(src) if done[src as usize].lanes & 1 << channel != 0 => {
                let from = &done[src as usize];
                let at = lane_offset(from.lanes, channel);
                Feed::Stream {
                    vals: from.stream.start as usize + at,
                    flags: from.present.start as usize + at,
                }
            }
            _ => continue,
        };
        feeds[count] = (port, feed);
        count += 1;
    }
    (feeds, count)
}

/// Runs a moving average fed by one member's column over a block. Rows
/// whose window reaches back before the block step through the ring;
/// the rest sum their window where it lies in the column — the same
/// samples in the same order — and the ring ends holding the block's
/// last window.
fn moving_average_column(
    ring: &mut [f64],
    st: &mut NodeState,
    xs: &[f64],
    out: &mut [f64],
    out_set: &mut [bool],
) {
    let w = ring.len();
    let lead = xs.len().min(w - 1);
    for (j, &x) in xs[..lead].iter().enumerate() {
        let y = moving_average(st, ring, x);
        out_set[j] = y.is_some();
        if let Some(y) = y {
            out[j] = y;
        }
    }
    if lead == xs.len() {
        return;
    }
    for (j, window) in xs.windows(w).enumerate() {
        out[lead + j] = oldest_first_mean(window, &[]);
        out_set[lead + j] = true;
    }
    ring.copy_from_slice(&xs[xs.len() - w..]);
    st.head = 0;
    st.fill = w as u32;
}

/// A moving average's output: the sum from zero of its window, oldest
/// run then newest, over the window length.
#[inline(always)]
fn oldest_first_mean(older: &[f64], newer: &[f64]) -> f64 {
    let mut sum = 0.0;
    for &v in older {
        sum += v;
    }
    for &v in newer {
        sum += v;
    }
    sum / (older.len() + newer.len()) as f64
}

/// Feeds row `j` of one member to a stream node through each of its
/// `feeds` that delivers a value, in port order, and returns the last
/// emission.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn feed_row(
    spec: &NodeSpec,
    st: &mut NodeState,
    ring: &mut [f64],
    feeds: &[(usize, Feed)],
    column: &[f64],
    f_in: &[f64],
    b_in: &[bool],
    j: usize,
    seq: u64,
) -> Option<f64> {
    let mut y = None;
    for &(port, feed) in feeds {
        let x = match feed {
            Feed::Column => column[j],
            Feed::Stream { vals, flags } if b_in[flags + j] => f_in[vals + j],
            Feed::Stream { .. } => continue,
        };
        if let Some(v) = step_scalar(spec.kind, spec.port_count as usize, st, ring, port, seq, x) {
            y = Some(v);
        }
    }
    y
}

/// The core's state as one pass borrows it.
struct Pass<'a, 'v, P: Sample> {
    image: &'a McuImage,
    states: &'a mut [NodeState; MAX_NODES],
    slots: &'a mut [Slot; MAX_NODES],
    channel_seq: &'a mut [u64; MAX_CHANNELS],
    wake_count: &'a mut u64,
    views: &'a mut ArenaViews<'v, P>,
}

impl<P: Sample> Pass<'_, '_, P> {
    /// One interpreter pass for `sample` on `channel`: the single-source
    /// entry nodes of `channel` first, in increasing index order, then
    /// the ready set drains in index (topological) order — a node's
    /// consumers always have larger indices, so newly readied bits are
    /// still ahead of the cursor.
    ///
    /// This is the interpreter's one per-sample body; its one call site
    /// is [`ExecCore::push_frames_probed`]'s frame loop.
    #[inline(always)]
    fn run<Pr: Probe>(
        self,
        channel: u8,
        sample: f64,
        on_wake: &mut impl FnMut(WakeEvent),
        probe: &mut Pr,
    ) {
        let Pass {
            image,
            states,
            slots,
            channel_seq,
            wake_count,
            views: ArenaViews { p, f, c, s, b },
        } = self;
        let nodes = image.nodes();
        let out = image.out_index();
        let ci = channel as usize;
        let seq = channel_seq[ci];
        channel_seq[ci] += 1;
        let mut direct = image.direct_feed_mask(ci);
        let mut ready = image.entry_mask(ci);
        let mut fresh: Mask = 0;
        let mut wake = None;
        loop {
            let i = if direct != 0 {
                take_lowest(&mut direct)
            } else if ready != 0 {
                take_lowest(&mut ready)
            } else {
                break;
            };
            let spec = &nodes[i];
            // Producers precede consumers, so node i's sources all
            // live in `done`.
            let (done, rest) = slots.split_at_mut(i);
            let slot = &mut rest[0];
            slot.kind = SlotKind::Empty;
            if Pr::ENABLED {
                probe.node_start(i as u16);
            }
            // The node reads its producers' payloads below its base and
            // writes its own spans above it.
            let (p_in, p_own) = p.split_at_mut(states[i].base_p as usize);
            let (c_in, c_own) = c.split_at_mut(states[i].base_c as usize);
            for (port, &source) in spec.sources[..spec.port_count as usize].iter().enumerate() {
                let (seq, input) = match source {
                    PortSource::Channel(ch) if ch == channel => (seq, In::Scalar(sample)),
                    PortSource::Channel(_) => continue,
                    PortSource::Node(src) if fresh & (1 << src) != 0 => {
                        let from = &done[src as usize];
                        let owner = &states[src as usize];
                        let input = match from.kind {
                            SlotKind::Empty => continue,
                            SlotKind::Scalar => In::Scalar(from.scalar),
                            SlotKind::Vector => {
                                let len = from.vec_len as usize;
                                if Pr::ENABLED {
                                    probe.payload(src, len);
                                }
                                let at = (owner.base_p + from.vec.start) as usize;
                                In::Vector(&p_in[at..at + len])
                            }
                            SlotKind::Spectrum => {
                                let len = from.spec_len as usize;
                                if Pr::ENABLED {
                                    probe.payload(src, len);
                                }
                                let at = (owner.base_c + from.spec.start) as usize;
                                In::Spectrum(&c_in[at..at + len])
                            }
                        };
                        (from.seq, input)
                    }
                    PortSource::Node(_) => continue,
                };
                exec_kind(
                    FeedCtx { port, seq },
                    spec,
                    &mut states[i],
                    slot,
                    ArenaViews {
                        p: p_own,
                        f,
                        c: c_own,
                        s,
                        b,
                    },
                    input,
                );
            }
            let produced = slot.kind != SlotKind::Empty;
            if Pr::ENABLED {
                probe.node_end(i as u16, produced);
            }
            if produced {
                fresh |= 1 << i;
                ready |= spec.consumer_mask;
                if i == out && slot.kind == SlotKind::Scalar {
                    wake = Some(WakeEvent {
                        seq: slot.seq,
                        value: slot.scalar,
                    });
                }
            }
        }
        // `out` runs at most once per pass, so a pass raises at most
        // one wake; it is reported once every node has run.
        if let Some(w) = wake {
            *wake_count += 1;
            if Pr::ENABLED {
                probe.wake(w);
            }
            on_wake(w);
        }
    }
}

/// Two disjoint mutable subslices of one slice, in either order.
fn two_ranges<T>(s: &mut [T], a: Range<usize>, b: Range<usize>) -> (&mut [T], &mut [T]) {
    if a.end <= b.start {
        let (lo, hi) = s.split_at_mut(b.start);
        let b_len = b.end - b.start;
        (&mut lo[a], &mut hi[..b_len])
    } else {
        debug_assert!(b.end <= a.start, "overlapping arena spans");
        let (lo, hi) = s.split_at_mut(a.start);
        let a_len = a.end - a.start;
        (&mut hi[..a_len], &mut lo[b])
    }
}

/// Three disjoint mutable subslices; `c` must lie after `a` and `b`
/// (the layout walk carves ascending spans, so per-node span triples
/// always satisfy this).
fn tri_ranges<T>(
    s: &mut [T],
    a: Range<usize>,
    b: Range<usize>,
    c: Range<usize>,
) -> (&mut [T], &mut [T], &mut [T]) {
    debug_assert!(a.end <= c.start && b.end <= c.start, "span order violated");
    let (rest, tail) = s.split_at_mut(c.start);
    let c_len = c.end - c.start;
    let (a_s, b_s) = two_ranges(rest, a, b);
    (a_s, b_s, &mut tail[..c_len])
}

/// Builds a node's transform tables on its first window. The layout
/// walk sized every span for the node's one static, power-of-two
/// length.
fn ensure_plan(
    st: &mut NodeState,
    n: usize,
    s: &mut [(u32, u32)],
    c: &mut [Complex],
    b: &mut [bool],
    needs: &PlanNeeds,
) {
    if st.planned_len == n as u32 {
        return;
    }
    let sc = fft::swap_count(n);
    let tc = fft::twiddle_count(n);
    {
        let swaps = &mut s[st.swaps.range(sc)];
        let mut k = 0;
        fft::for_each_swap(n, |i, j| {
            swaps[k] = (i, j);
            k += 1;
        });
        st.swaps_len = sc as u32;
    }
    if needs.fwd {
        let table = &mut c[st.fwd.range(tc)];
        let mut k = 0;
        fft::for_each_twiddle(n, -1.0, |w| {
            table[k] = w;
            k += 1;
        });
    }
    if needs.inv {
        let table = &mut c[st.inv.range(tc)];
        let mut k = 0;
        fft::for_each_twiddle(n, 1.0, |w| {
            table[k] = w;
            k += 1;
        });
    }
    if let Some((shape, rate)) = needs.band {
        filter::fill_keep_mask(&mut b[st.mask.range(n)], rate, shape);
    }
    st.planned_len = n as u32;
}

/// Builds a Goertzel node's probe table on its first window. At most
/// `n/2 + 1` bins fall in band, the table span's size.
fn replan_probes(
    st: &mut NodeState,
    f: &mut [f64],
    n: usize,
    rate_hz: f64,
    lo_hz: f64,
    hi_hz: f64,
    skip_dc: bool,
) {
    if st.planned_len == n as u32 {
        return;
    }
    st.planned_len = n as u32;
    st.probe_len = 0;
    if rate_hz > 0.0 && n > 0 {
        let dst = &mut f[st.aux_f.full()];
        let mut count = 0usize;
        for k in usize::from(skip_dc)..=n / 2 {
            let freq = fft::bin_to_frequency(k, n, rate_hz);
            if lo_hz <= freq && freq <= hi_hz {
                dst[count] = freq;
                count += 1;
            }
        }
        st.probe_len = count as u32;
    }
}

/// Copies the window ring (in logical order starting at `head`) into
/// the node's output span and applies the tabulated taper.
fn emit_window<P: Sample>(
    p: &mut [P],
    st: &NodeState,
    slot: &Slot,
    len: usize,
    shape: WindowShape,
    head: usize,
) {
    let (ring, coeffs, out) = tri_ranges(
        p,
        st.aux_p.range(len),
        st.coeffs.range(len),
        slot.vec.range(len),
    );
    let (newer, older) = ring.split_at(head);
    out[..older.len()].copy_from_slice(older);
    out[older.len()..].copy_from_slice(newer);
    if shape != WindowShape::Rectangular {
        for (x, &cf) in out.iter_mut().zip(coeffs.iter()) {
            *x = *x * cf;
        }
    }
}

/// Executes one feed against one node. Inlined into the pass, its one
/// call site: an out-of-line call per node run costs more than the
/// simple kinds' own work.
///
/// Infallible: the layout walk admitted only images whose every port
/// carries the kind of value its node consumes, at the static length
/// its spans were sized for, so no arm's `let ... else` takes its
/// `else`.
#[inline(always)]
fn exec_kind<P: Sample>(
    ctx: FeedCtx,
    spec: &NodeSpec,
    st: &mut NodeState,
    slot: &mut Slot,
    ar: ArenaViews<'_, P>,
    input: In<'_, P>,
) {
    let ArenaViews { p, f, c, s, b } = ar;
    let seq = ctx.seq;
    let ports = spec.port_count as usize;
    match spec.kind {
        NodeKind::Window { size, hop, shape } => {
            let In::Scalar(x) = input else {
                return;
            };
            // The precision boundary: samples narrow to `P` as they
            // enter the ring.
            let x = P::from_f64(x);
            let (len, hop) = (size as usize, hop as usize);
            let ring_start = st.aux_p.start as usize;
            if hop == len {
                // Non-overlapping windows partition the stream:
                // sequential fill, emit, restart.
                p[ring_start + st.fill as usize] = x;
                st.fill += 1;
                if (st.fill as usize) < len {
                    return;
                }
                emit_window(p, st, slot, len, shape, 0);
                st.fill = 0;
            } else {
                if st.fill as usize == len {
                    st.head = next_index(st.head as usize, len) as u32;
                    st.fill -= 1;
                }
                p[ring_start + ring_index(st.head as usize, st.fill as usize, len)] = x;
                st.fill += 1;
                if (st.fill as usize) < len {
                    return;
                }
                let emit = if !st.primed {
                    st.primed = true;
                    st.since_emit = 0;
                    true
                } else {
                    st.since_emit += 1;
                    if st.since_emit as usize == hop {
                        st.since_emit = 0;
                        true
                    } else {
                        false
                    }
                };
                if !emit {
                    return;
                }
                emit_window(p, st, slot, len, shape, st.head as usize);
            }
            slot.kind = SlotKind::Vector;
            slot.vec_len = len as u32;
            slot.seq = seq;
        }
        NodeKind::Fft => {
            let In::Vector(window) = input else {
                return;
            };
            let n = window.len();
            ensure_plan(
                st,
                n,
                s,
                c,
                b,
                &PlanNeeds {
                    fwd: true,
                    inv: false,
                    band: None,
                },
            );
            let wide = P::widen_slice_into(window, &mut f[st.wide_in.full()]);
            let (spec_s, fwd_s) =
                two_ranges(c, slot.spec.range(n), st.fwd.range(fft::twiddle_count(n)));
            for (z, &x) in spec_s.iter_mut().zip(wide.iter()) {
                *z = Complex::from_real(x);
            }
            fft::run_butterflies(spec_s, &s[st.swaps.range(st.swaps_len as usize)], fwd_s);
            slot.kind = SlotKind::Spectrum;
            slot.spec_len = n as u32;
            slot.seq = seq;
        }
        NodeKind::Ifft => {
            let In::Spectrum(spectrum) = input else {
                return;
            };
            let n = spectrum.len();
            ensure_plan(
                st,
                n,
                s,
                c,
                b,
                &PlanNeeds {
                    fwd: false,
                    inv: true,
                    band: None,
                },
            );
            // The spectrum span doubles as the inverse-transform
            // scratch; the result itself is the real part, a vector.
            let (spec_s, inv_s) =
                two_ranges(c, slot.spec.range(n), st.inv.range(fft::twiddle_count(n)));
            spec_s.copy_from_slice(spectrum);
            fft::run_butterflies(spec_s, &s[st.swaps.range(st.swaps_len as usize)], inv_s);
            fft::scale_inverse(spec_s);
            for (o, z) in p[slot.vec.range(n)].iter_mut().zip(spec_s.iter()) {
                *o = P::from_f64(z.re);
            }
            slot.kind = SlotKind::Vector;
            slot.vec_len = n as u32;
            slot.seq = seq;
        }
        NodeKind::SpectralMagnitude => {
            let In::Spectrum(spectrum) = input else {
                return;
            };
            // Spectra come from transforms, so they are never empty.
            let m = spectrum.len() / 2 + 1;
            for (o, z) in p[slot.vec.range(m)].iter_mut().zip(spectrum[..m].iter()) {
                *o = P::from_f64(z.magnitude());
            }
            slot.kind = SlotKind::Vector;
            slot.vec_len = m as u32;
            slot.seq = seq;
        }
        NodeKind::LowPass { cutoff_hz } | NodeKind::HighPass { cutoff_hz } => {
            let In::Vector(window) = input else {
                return;
            };
            let n = window.len();
            let shape = if matches!(spec.kind, NodeKind::LowPass { .. }) {
                BandShape::LowPass { cutoff_hz }
            } else {
                BandShape::HighPass { cutoff_hz }
            };
            ensure_plan(
                st,
                n,
                s,
                c,
                b,
                &PlanNeeds {
                    fwd: true,
                    inv: true,
                    band: Some((shape, spec.rate_hz)),
                },
            );
            let tc = fft::twiddle_count(n);
            let wide = P::widen_slice_into(window, &mut f[st.wide_in.full()]);
            {
                let (spec_s, fwd_s) = two_ranges(c, slot.spec.range(n), st.fwd.range(tc));
                for (z, &x) in spec_s.iter_mut().zip(wide.iter()) {
                    *z = Complex::from_real(x);
                }
                fft::run_butterflies(spec_s, &s[st.swaps.range(st.swaps_len as usize)], fwd_s);
                for (z, &keep) in spec_s.iter_mut().zip(b[st.mask.range(n)].iter()) {
                    if !keep {
                        *z = Complex::ZERO;
                    }
                }
            }
            {
                let (spec_s, inv_s) = two_ranges(c, slot.spec.range(n), st.inv.range(tc));
                fft::run_butterflies(spec_s, &s[st.swaps.range(st.swaps_len as usize)], inv_s);
                fft::scale_inverse(spec_s);
                for (o, z) in p[slot.vec.range(n)].iter_mut().zip(spec_s.iter()) {
                    *o = P::from_f64(z.re);
                }
            }
            slot.kind = SlotKind::Vector;
            slot.vec_len = n as u32;
            slot.seq = seq;
        }
        NodeKind::Zcr => {
            let In::Vector(window) = input else {
                return;
            };
            if let Some(r) = zcr::zero_crossing_rate(window) {
                slot.set_scalar(seq, r.to_f64());
            }
        }
        NodeKind::ZcrVariance { sub_windows } => {
            let In::Vector(window) = input else {
                return;
            };
            let scratch = &mut p[st.aux_p.full()];
            if let Some(v) = zcr::zcr_variance_into(window, sub_windows as usize, scratch) {
                slot.set_scalar(seq, v.to_f64());
            }
        }
        NodeKind::Stat(sf) => {
            let In::Vector(window) = input else {
                return;
            };
            if let Some(summary) = stats::Summary::of(window) {
                let y = match sf {
                    StatKind::Mean => summary.mean,
                    StatKind::Variance => summary.variance,
                    StatKind::StdDev => summary.std_dev(),
                    // Some: `window` is non-empty, as `summary` shows.
                    StatKind::MeanAbs => stats::mean_abs(window).unwrap_or(P::ZERO),
                    StatKind::Rms => summary.rms,
                    StatKind::Energy => stats::energy(window),
                    StatKind::Min => summary.min,
                    StatKind::Max => summary.max,
                    StatKind::PeakToPeak => summary.peak_to_peak(),
                };
                slot.set_scalar(seq, y.to_f64());
            }
        }
        NodeKind::DominantRatio => {
            let In::Vector(mags) = input else {
                return;
            };
            // Skip DC: pitched-sound detection must not be fooled by
            // offset.
            if mags.len() > 1 {
                if let Some(r) = spectral::dominant_to_mean_ratio(&mags[1..]) {
                    slot.set_scalar(seq, r.to_f64());
                }
            }
        }
        NodeKind::DominantFreq => {
            let In::Vector(mags) = input else {
                return;
            };
            if mags.len() > 1 {
                if let Some(peak) = spectral::dominant_bin(&mags[1..]) {
                    // One-sided magnitudes of an N-point transform have
                    // N/2+1 entries.
                    let n = (mags.len() - 1) * 2;
                    let freq = fft::bin_to_frequency(peak.bin + 1, n, spec.rate_hz);
                    slot.set_scalar(seq, freq);
                }
            }
        }
        NodeKind::Goertzel { lo_hz, hi_hz } => {
            let In::Vector(window) = input else {
                return;
            };
            replan_probes(st, f, window.len(), spec.rate_hz, lo_hz, hi_hz, false);
            let probes = &f[st.aux_f.range(st.probe_len as usize)];
            if let Some(m) = goertzel::strongest_magnitude(window, probes, spec.rate_hz) {
                slot.set_scalar(seq, m);
            }
        }
        NodeKind::GoertzelFreq { lo_hz, hi_hz } => {
            let In::Vector(window) = input else {
                return;
            };
            replan_probes(st, f, window.len(), spec.rate_hz, lo_hz, hi_hz, true);
            let probes = &f[st.aux_f.range(st.probe_len as usize)];
            if let Some((freq, _)) = goertzel::strongest_of(window, probes, spec.rate_hz) {
                slot.set_scalar(seq, freq);
            }
        }
        NodeKind::GoertzelRatio { lo_hz, hi_hz } => {
            let In::Vector(window) = input else {
                return;
            };
            replan_probes(st, f, window.len(), spec.rate_hz, lo_hz, hi_hz, true);
            let probes = &f[st.aux_f.range(st.probe_len as usize)];
            if let Some((peak, sum)) = goertzel::magnitude_max_and_sum(window, probes, spec.rate_hz)
            {
                // Peak over the mean of all n/2 non-DC bins, with the
                // in-band sum standing in for the total; a zero sum
                // mirrors `dominantRatio`'s no-emission guard.
                let bins = (window.len() / 2) as f64;
                if sum > 0.0 && bins > 0.0 {
                    slot.set_scalar(seq, peak * bins / sum);
                }
            }
        }
        // Each scalar kind reaches the shared step from an arm of its
        // own, its kind bound by value, so the step's match on the kind
        // folds away where it inlines.
        k @ NodeKind::MovingAvg { .. } => feed_scalar(ctx, k, ports, st, slot, f, input),
        k @ NodeKind::ExpMovingAvg { .. } => feed_scalar(ctx, k, ports, st, slot, f, input),
        k @ NodeKind::VectorMagnitude => feed_scalar(ctx, k, ports, st, slot, f, input),
        k @ NodeKind::MinThreshold { .. } => feed_scalar(ctx, k, ports, st, slot, f, input),
        k @ NodeKind::MaxThreshold { .. } => feed_scalar(ctx, k, ports, st, slot, f, input),
        k @ NodeKind::BandThreshold { .. } => feed_scalar(ctx, k, ports, st, slot, f, input),
        k @ NodeKind::OutsideThreshold { .. } => feed_scalar(ctx, k, ports, st, slot, f, input),
        k @ NodeKind::Sustained { .. } => feed_scalar(ctx, k, ports, st, slot, f, input),
        k @ NodeKind::AllOf => feed_scalar(ctx, k, ports, st, slot, f, input),
        k @ NodeKind::AnyOf => feed_scalar(ctx, k, ports, st, slot, f, input),
    }
}

/// One pass's feed of a scalar node: [`step_scalar`] on the input, its
/// emission written to the node's slot.
#[inline(always)]
fn feed_scalar<P: Sample>(
    ctx: FeedCtx,
    kind: NodeKind,
    ports: usize,
    st: &mut NodeState,
    slot: &mut Slot,
    f: &mut [f64],
    input: In<'_, P>,
) {
    let In::Scalar(x) = input else {
        return;
    };
    let y = match kind {
        NodeKind::MovingAvg { window } => {
            moving_average(st, &mut f[st.aux_f.range(window as usize)], x)
        }
        _ => step_scalar(kind, ports, st, &mut [], ctx.port, ctx.seq, x),
    };
    if let Some(y) = y {
        slot.set_scalar(ctx.seq, y);
    }
}

/// Feeds `x` to a moving average whose ring is `ring`, returning the
/// mean of the last `ring.len()` inputs once it has seen that many: their
/// sum from zero, oldest to newest, over the window length.
#[inline(always)]
fn moving_average(st: &mut NodeState, ring: &mut [f64], x: f64) -> Option<f64> {
    let w = ring.len();
    if st.fill as usize == w {
        st.head = next_index(st.head as usize, w) as u32;
        st.fill -= 1;
    }
    ring[ring_index(st.head as usize, st.fill as usize, w)] = x;
    st.fill += 1;
    if (st.fill as usize) < w {
        return None;
    }
    // The ring from `head` on is the oldest run, the prefix before it
    // the newest.
    let (newer, older) = ring.split_at(st.head as usize);
    Some(oldest_first_mean(older, newer))
}

/// Whether a node of `kind` emits from the one input it is fed alone,
/// keeping no state between inputs.
fn stateless(kind: NodeKind) -> bool {
    matches!(
        kind,
        NodeKind::MinThreshold { .. }
            | NodeKind::MaxThreshold { .. }
            | NodeKind::BandThreshold { .. }
            | NodeKind::OutsideThreshold { .. }
            | NodeKind::AnyOf
    )
}

/// Feeds scalar `x` at `port` to a node of `kind` with `ports` ports
/// that takes scalars and emits them, returning its emission, if any.
/// `ring` is a moving average's `aux_f` span. The per-sample pass and
/// the block path run every scalar kind through here (a moving average
/// through [`moving_average`]), so they share its arithmetic bit for bit.
#[inline(always)]
fn step_scalar(
    kind: NodeKind,
    ports: usize,
    st: &mut NodeState,
    ring: &mut [f64],
    port: usize,
    seq: u64,
    x: f64,
) -> Option<f64> {
    match kind {
        NodeKind::MovingAvg { window } => moving_average(st, &mut ring[..window as usize], x),
        NodeKind::ExpMovingAvg { alpha } => {
            let y = if st.ema_set {
                alpha * x + (1.0 - alpha) * st.ema
            } else {
                x
            };
            st.ema = y;
            st.ema_set = true;
            Some(y)
        }
        NodeKind::VectorMagnitude => {
            st.latest_seq[port] = seq;
            st.latest_val[port] = x;
            st.latest_set |= 1 << port;
            // Emit only when every branch has produced a value from the
            // same source samples: a stale axis must never be combined
            // with a fresh one.
            let all = (0..ports).all(|k| st.latest_set & (1 << k) != 0 && st.latest_seq[k] == seq);
            all.then(|| {
                let mut energy = 0.0;
                for k in 0..ports {
                    let v = st.latest_val[k];
                    energy += v * v;
                }
                math::sqrt(energy)
            })
        }
        NodeKind::MinThreshold { threshold } => (x >= threshold).then_some(x),
        NodeKind::MaxThreshold { threshold } => (x <= threshold).then_some(x),
        NodeKind::BandThreshold { lo, hi } => (x >= lo && x <= hi).then_some(x),
        NodeKind::OutsideThreshold { lo, hi } => (x < lo || x > hi).then_some(x),
        NodeKind::Sustained { count, max_gap } => {
            let consecutive = st.has_last && seq.saturating_sub(st.last_seq) <= max_gap;
            st.streak = if consecutive { st.streak + 1 } else { 1 };
            st.last_seq = seq;
            st.has_last = true;
            (st.streak >= count).then_some(x)
        }
        NodeKind::AllOf => {
            st.latest_seq[port] = seq;
            st.latest_val[port] = x;
            st.latest_set |= 1 << port;
            // AND-join over the same window: all branches must have
            // passed their admission control for this seq.
            let all = (0..ports).all(|k| st.latest_set & (1 << k) != 0 && st.latest_seq[k] == seq);
            all.then_some(x)
        }
        NodeKind::AnyOf => Some(x),
        // Vector and spectrum consumers never take a scalar.
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageBuilder;
    use crate::probe::HighWaterProbe;
    use std::string::ToString;
    use std::vec::Vec;

    fn collect_wakes<A: ArenaStorage>(
        core: &mut ExecCore<A>,
        channel: u8,
        samples: &[f64],
    ) -> Vec<WakeEvent> {
        let mut wakes = Vec::new();
        core.push_samples(channel, samples, &mut |w| wakes.push(w))
            .unwrap();
        wakes
    }

    #[test]
    fn const_init_lives_in_a_static() {
        static CORE: McuCore<f64, 16> = McuCore::new();
        assert!(!CORE.loaded);
        assert_eq!(CORE.wake_count(), 0);
    }

    #[test]
    fn push_before_load_is_an_error() {
        let mut core: McuCore<f64, 16> = McuCore::new();
        let err = core.push_sample(0, 1.0, &mut |_| {}).unwrap_err();
        assert_eq!(err, McuExecError::NotLoaded);
        assert!(err.to_string().contains("no program image"));
    }

    #[test]
    fn moving_average_threshold_chain_wakes() {
        let mut b = ImageBuilder::new();
        let avg = b
            .push_node(
                NodeKind::MovingAvg { window: 4 },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let thr = b
            .push_node(
                NodeKind::MinThreshold { threshold: 3.0 },
                &[PortSource::Node(avg)],
                50.0,
            )
            .unwrap();
        let image = b.finish(thr).unwrap();
        let mut core: McuCore<f64, 128> = McuCore::new();
        core.load(&image).unwrap();
        let samples: Vec<f64> = (1..=8).map(f64::from).collect();
        let wakes = collect_wakes(&mut core, 0, &samples);
        // Averages 2.5, 3.5, 4.5, 5.5, 6.5 at seqs 3..=7; >= 3.0 from
        // the second on.
        assert_eq!(wakes.len(), 4);
        assert_eq!(wakes[0], WakeEvent { seq: 4, value: 3.5 });
        assert_eq!(wakes[3], WakeEvent { seq: 7, value: 6.5 });
        assert_eq!(core.wake_count(), 4);
    }

    #[test]
    fn window_mean_pipeline_emits_window_means() {
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size: 4,
                    hop: 4,
                    shape: WindowShape::Rectangular,
                },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let stat = b
            .push_node(
                NodeKind::Stat(StatKind::Mean),
                &[PortSource::Node(win)],
                50.0,
            )
            .unwrap();
        let image = b.finish(stat).unwrap();
        let mut core: McuCore<f64, 64> = McuCore::new();
        core.load(&image).unwrap();
        let samples: Vec<f64> = (0..8).map(f64::from).collect();
        let wakes = collect_wakes(&mut core, 0, &samples);
        assert_eq!(wakes.len(), 2);
        assert_eq!(wakes[0], WakeEvent { seq: 3, value: 1.5 });
        assert_eq!(wakes[1], WakeEvent { seq: 7, value: 5.5 });
    }

    #[test]
    fn sliding_window_hop_and_taper_match_the_host_windower() {
        // hop 2 over size 4 with a Hamming taper: first emission at
        // seq 3, then every 2 samples, each window tapered.
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size: 4,
                    hop: 2,
                    shape: WindowShape::Hamming,
                },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let stat = b
            .push_node(
                NodeKind::Stat(StatKind::Mean),
                &[PortSource::Node(win)],
                50.0,
            )
            .unwrap();
        let image = b.finish(stat).unwrap();
        let mut core: McuCore<f64, 64> = McuCore::new();
        core.load(&image).unwrap();
        let samples: Vec<f64> = (1..=8).map(f64::from).collect();
        let wakes = collect_wakes(&mut core, 0, &samples);
        assert_eq!(
            wakes.iter().map(|w| w.seq).collect::<Vec<_>>(),
            [3, 5, 7],
            "hop-2 emission schedule"
        );
        let coeffs = WindowShape::Hamming.coefficients(4);
        for (w, start) in wakes.iter().zip([1.0f64, 3.0, 5.0]) {
            let expect = (0..4).map(|k| (start + k as f64) * coeffs[k]).sum::<f64>() / 4.0;
            assert_eq!(w.value.to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn fft_pipeline_is_bit_identical_to_reference_kernels() {
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size: 8,
                    hop: 8,
                    shape: WindowShape::Hamming,
                },
                &[PortSource::Channel(0)],
                80.0,
            )
            .unwrap();
        let fft_n = b
            .push_node(NodeKind::Fft, &[PortSource::Node(win)], 80.0)
            .unwrap();
        let mag = b
            .push_node(
                NodeKind::SpectralMagnitude,
                &[PortSource::Node(fft_n)],
                80.0,
            )
            .unwrap();
        let stat = b
            .push_node(
                NodeKind::Stat(StatKind::Max),
                &[PortSource::Node(mag)],
                80.0,
            )
            .unwrap();
        let image = b.finish(stat).unwrap();
        let mut core: McuCore<f64, 256> = McuCore::new();
        core.load(&image).unwrap();
        let samples: Vec<f64> = (0..8).map(|i| (i as f64 * 0.9).sin()).collect();
        let wakes = collect_wakes(&mut core, 0, &samples);
        assert_eq!(wakes.len(), 1);
        assert_eq!(wakes[0].seq, 7);

        let coeffs = WindowShape::Hamming.coefficients(8);
        let mut data: Vec<Complex> = samples
            .iter()
            .zip(&coeffs)
            .map(|(&x, &cf)| Complex::from_real(x * cf))
            .collect();
        fft::transform(&mut data, false);
        let mags: Vec<f64> = data[..5].iter().map(|z| z.magnitude()).collect();
        let expect = stats::Summary::of(&mags).unwrap().max;
        assert_eq!(wakes[0].value.to_bits(), expect.to_bits());
    }

    #[test]
    fn lowpass_pipeline_matches_manual_band_filter() {
        let n = 16;
        let rate = 1600.0;
        let cutoff = 300.0;
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size: n as u32,
                    hop: n as u32,
                    shape: WindowShape::Rectangular,
                },
                &[PortSource::Channel(0)],
                rate,
            )
            .unwrap();
        let lp = b
            .push_node(
                NodeKind::LowPass { cutoff_hz: cutoff },
                &[PortSource::Node(win)],
                rate,
            )
            .unwrap();
        let stat = b
            .push_node(NodeKind::Stat(StatKind::Rms), &[PortSource::Node(lp)], rate)
            .unwrap();
        let image = b.finish(stat).unwrap();
        let mut core: McuCore<f64, 512> = McuCore::new();
        core.load(&image).unwrap();
        let samples: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / rate;
                (2.0 * core::f64::consts::PI * 100.0 * t).sin()
                    + (2.0 * core::f64::consts::PI * 600.0 * t).sin()
            })
            .collect();
        let wakes = collect_wakes(&mut core, 0, &samples);
        assert_eq!(wakes.len(), 1);

        // Manual reference: forward transform, zero masked bins,
        // inverse, scale, take real parts, RMS.
        let mut mask = std::vec![false; n];
        filter::fill_keep_mask(&mut mask, rate, BandShape::LowPass { cutoff_hz: cutoff });
        let mut data: Vec<Complex> = samples.iter().map(|&x| Complex::from_real(x)).collect();
        fft::transform(&mut data, false);
        for (z, &keep) in data.iter_mut().zip(&mask) {
            if !keep {
                *z = Complex::ZERO;
            }
        }
        fft::transform(&mut data, true);
        fft::scale_inverse(&mut data);
        let filtered: Vec<f64> = data.iter().map(|z| z.re).collect();
        let expect = stats::Summary::of(&filtered).unwrap().rms;
        assert_eq!(wakes[0].value.to_bits(), expect.to_bits());
    }

    #[test]
    fn goertzel_node_matches_direct_probing() {
        let n = 32;
        let rate = 3200.0;
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size: n as u32,
                    hop: n as u32,
                    shape: WindowShape::Rectangular,
                },
                &[PortSource::Channel(0)],
                rate,
            )
            .unwrap();
        let g = b
            .push_node(
                NodeKind::Goertzel {
                    lo_hz: 200.0,
                    hi_hz: 500.0,
                },
                &[PortSource::Node(win)],
                rate,
            )
            .unwrap();
        let image = b.finish(g).unwrap();
        let mut core: McuCore<f64, 256> = McuCore::new();
        core.load(&image).unwrap();
        let samples: Vec<f64> = (0..n)
            .map(|i| (2.0 * core::f64::consts::PI * 300.0 * i as f64 / rate).sin())
            .collect();
        let wakes = collect_wakes(&mut core, 0, &samples);
        assert_eq!(wakes.len(), 1);
        let probes = [200.0, 300.0, 400.0, 500.0];
        let expect = goertzel::strongest_magnitude(&samples, &probes, rate).unwrap();
        assert_eq!(wakes[0].value.to_bits(), expect.to_bits());
    }

    #[test]
    fn vector_magnitude_joins_two_channels() {
        let mut b = ImageBuilder::new();
        let vm = b
            .push_node(
                NodeKind::VectorMagnitude,
                &[PortSource::Channel(0), PortSource::Channel(1)],
                50.0,
            )
            .unwrap();
        let image = b.finish(vm).unwrap();
        let mut core: McuCore<f64, 128> = McuCore::new();
        core.load(&image).unwrap();
        let mut wakes = Vec::new();
        core.push_sample(0, 3.0, &mut |w| wakes.push(w)).unwrap();
        assert!(wakes.is_empty(), "one axis alone must not emit");
        core.push_sample(1, 4.0, &mut |w| wakes.push(w)).unwrap();
        assert_eq!(wakes, [WakeEvent { seq: 0, value: 5.0 }]);
    }

    #[test]
    fn allof_join_requires_equal_sequences() {
        let mut b = ImageBuilder::new();
        let lo = b
            .push_node(
                NodeKind::MinThreshold { threshold: 0.0 },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let hi = b
            .push_node(
                NodeKind::MaxThreshold { threshold: 10.0 },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let both = b
            .push_node(
                NodeKind::AllOf,
                &[PortSource::Node(lo), PortSource::Node(hi)],
                50.0,
            )
            .unwrap();
        let image = b.finish(both).unwrap();
        let mut core: McuCore<f64, 128> = McuCore::new();
        core.load(&image).unwrap();
        let wakes = collect_wakes(&mut core, 0, &[5.0, 20.0, -3.0, 7.0]);
        assert_eq!(
            wakes,
            [
                WakeEvent { seq: 0, value: 5.0 },
                WakeEvent { seq: 3, value: 7.0 }
            ]
        );
    }

    #[test]
    fn sustained_streaks_respect_gaps() {
        let mut b = ImageBuilder::new();
        let thr = b
            .push_node(
                NodeKind::MinThreshold { threshold: 0.5 },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let sus = b
            .push_node(
                NodeKind::Sustained {
                    count: 2,
                    max_gap: 1,
                },
                &[PortSource::Node(thr)],
                50.0,
            )
            .unwrap();
        let image = b.finish(sus).unwrap();
        let mut core: McuCore<f64, 128> = McuCore::new();
        core.load(&image).unwrap();
        let wakes = collect_wakes(&mut core, 0, &[1.0, 1.0, 0.0, 1.0, 1.0]);
        assert_eq!(
            wakes.iter().map(|w| w.seq).collect::<Vec<_>>(),
            [1, 4],
            "a 2-sample gap must break the streak"
        );
    }

    #[test]
    fn ema_emits_from_the_first_sample() {
        let mut b = ImageBuilder::new();
        let ema = b
            .push_node(
                NodeKind::ExpMovingAvg { alpha: 0.5 },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let image = b.finish(ema).unwrap();
        let mut core: McuCore<f64, 128> = McuCore::new();
        core.load(&image).unwrap();
        let wakes = collect_wakes(&mut core, 0, &[4.0, 8.0]);
        assert_eq!(wakes[0].value, 4.0);
        assert_eq!(wakes[1].value, 6.0);
    }

    #[test]
    fn reset_replays_identically() {
        let mut b = ImageBuilder::new();
        let avg = b
            .push_node(
                NodeKind::MovingAvg { window: 4 },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let image = b.finish(avg).unwrap();
        let mut core: McuCore<f64, 128> = McuCore::new();
        core.load(&image).unwrap();
        let samples: Vec<f64> = (1..=4).map(f64::from).collect();
        let first = collect_wakes(&mut core, 0, &samples);
        assert_eq!(first, [WakeEvent { seq: 3, value: 2.5 }]);
        core.reset();
        assert_eq!(core.wake_count(), 0);
        let again = collect_wakes(&mut core, 0, &samples);
        assert_eq!(again, first, "reset must restart sequences and rings");
    }

    #[test]
    fn f32_core_runs_the_same_pipelines() {
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size: 4,
                    hop: 4,
                    shape: WindowShape::Rectangular,
                },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let stat = b
            .push_node(
                NodeKind::Stat(StatKind::Mean),
                &[PortSource::Node(win)],
                50.0,
            )
            .unwrap();
        let image = b.finish(stat).unwrap();
        let mut core: McuCore<f32, 64> = McuCore::new();
        core.load(&image).unwrap();
        let samples: Vec<f64> = (0..4).map(f64::from).collect();
        let wakes = collect_wakes(&mut core, 0, &samples);
        assert_eq!(wakes.len(), 1);
        assert!((wakes[0].value - 1.5).abs() < 1e-6);
    }

    #[test]
    fn oversized_programs_fail_at_load_with_capacity_errors() {
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size: 64,
                    hop: 64,
                    shape: WindowShape::Rectangular,
                },
                &[PortSource::Channel(0)],
                50.0,
            )
            .unwrap();
        let image = b.finish(win).unwrap();
        let mut core: McuCore<f64, 8> = McuCore::new();
        match core.load(&image).unwrap_err() {
            McuExecError::ArenaOverflow {
                arena,
                node,
                needed,
                capacity,
            } => {
                assert_eq!(arena, "sample arena");
                assert_eq!(node, 0);
                assert!(needed > 8, "needed = {needed}");
                assert_eq!(capacity, 8);
            }
            other => panic!("expected arena-overflow error, got {other:?}"),
        }
        assert!(!core.loaded);
    }

    #[test]
    fn failed_load_leaves_the_core_reusable() {
        // A rejected image must not leave partial carve state behind: a
        // subsequent load of a fitting image runs exactly as if the
        // failed load never happened.
        let oversized = {
            let mut b = ImageBuilder::new();
            let win = b
                .push_node(
                    NodeKind::Window {
                        size: 256,
                        hop: 256,
                        shape: WindowShape::Rectangular,
                    },
                    &[PortSource::Channel(0)],
                    50.0,
                )
                .unwrap();
            b.finish(win).unwrap()
        };
        let fitting = {
            let mut b = ImageBuilder::new();
            let avg = b
                .push_node(
                    NodeKind::MovingAvg { window: 4 },
                    &[PortSource::Channel(0)],
                    50.0,
                )
                .unwrap();
            let thr = b
                .push_node(
                    NodeKind::MinThreshold { threshold: 5.0 },
                    &[PortSource::Node(avg)],
                    50.0,
                )
                .unwrap();
            b.finish(thr).unwrap()
        };

        let mut fresh: McuCore<f64, 128> = McuCore::new();
        fresh.load(&fitting).unwrap();
        let samples: Vec<f64> = (0..16).map(f64::from).collect();
        let expected = collect_wakes(&mut fresh, 0, &samples);
        assert!(!expected.is_empty());

        let mut reused: McuCore<f64, 128> = McuCore::new();
        assert!(matches!(
            reused.load(&oversized).unwrap_err(),
            McuExecError::ArenaOverflow { .. }
        ));
        assert!(!reused.loaded);
        assert!(matches!(
            reused.push_sample(0, 1.0, &mut |_| {}),
            Err(McuExecError::NotLoaded)
        ));
        reused.load(&fitting).unwrap();
        assert_eq!(collect_wakes(&mut reused, 0, &samples), expected);
        assert_eq!(reused.wake_count(), fresh.wake_count());
    }

    #[test]
    fn inline_arenas_are_the_five_arenas_and_nothing_more() {
        use crate::footprint::ArenaKind;
        use core::mem::size_of;
        fn check<P: Sample, const CAP: usize>() {
            let elements = [
                size_of::<P>(),
                size_of::<f64>(),
                size_of::<Complex>(),
                size_of::<(u32, u32)>(),
                size_of::<bool>(),
            ];
            for (kind, &bytes) in ArenaKind::ALL.iter().zip(&elements) {
                assert_eq!(kind.element_bytes(size_of::<P>()), bytes, "{}", kind.name());
            }
            assert_eq!(
                size_of::<InlineArenas<P, CAP>>(),
                elements.iter().sum::<usize>() * CAP
            );
        }
        check::<f64, 16>();
        check::<f32, 16>();
        check::<f64, 16_384>();
        check::<f32, 16_384>();
    }

    #[test]
    fn payload_peaks_stay_within_the_layouts_out_lengths() {
        let mut b = ImageBuilder::new();
        let win = b
            .push_node(
                NodeKind::Window {
                    size: 16,
                    hop: 16,
                    shape: WindowShape::Hamming,
                },
                &[PortSource::Channel(0)],
                64.0,
            )
            .unwrap();
        let fft = b
            .push_node(NodeKind::Fft, &[PortSource::Node(win)], 64.0)
            .unwrap();
        let mag = b
            .push_node(NodeKind::SpectralMagnitude, &[PortSource::Node(fft)], 64.0)
            .unwrap();
        let dom = b
            .push_node(NodeKind::DominantRatio, &[PortSource::Node(mag)], 64.0)
            .unwrap();
        let image = b.finish(dom).unwrap();
        let layout = image_layout(&image).unwrap();
        let mut core: McuCore<f64, 128> = McuCore::new();
        core.load(&image).unwrap();
        let mut probe = HighWaterProbe::new();
        let samples: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
        core.push_frames_probed(&[0], &[&samples], &mut |_, _| {}, &mut probe)
            .unwrap();
        // window 16, fft 16, spectralMagnitude 9: each consumed, in place.
        assert_eq!(probe.payload_peak[..4], [16, 16, 9, 0]);
        for (node, out_len) in layout.out_lens().enumerate() {
            assert!(probe.payload_peak[node] <= out_len, "node {node}");
        }
    }

    #[cfg(feature = "std")]
    #[test]
    fn host_core_sizes_its_arenas_to_the_footprint() {
        use crate::footprint::{image_footprint, ArenaKind};
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
        let mag = b
            .push_node(NodeKind::SpectralMagnitude, &[PortSource::Node(fft)], 64.0)
            .unwrap();
        let max = b
            .push_node(
                NodeKind::Stat(StatKind::Max),
                &[PortSource::Node(mag)],
                64.0,
            )
            .unwrap();
        let image = b.finish(max).unwrap();
        let fp = image_footprint(&image).unwrap();

        let mut host: HostCore = HostCore::new();
        host.load(&image).unwrap();
        let ar = host.arenas.views();
        let lens = [ar.p.len(), ar.f.len(), ar.c.len(), ar.s.len(), ar.b.len()];
        for kind in ArenaKind::ALL {
            assert_eq!(
                lens[kind.index()],
                fp.arena(kind).elements,
                "{} is not sized to the footprint",
                kind.name()
            );
        }

        // Same wakes as the inline firmware form.
        let samples: Vec<f64> = (0..64).map(|i| (i as f64 * 1.7).sin()).collect();
        let mut firmware: McuCore<f64, 256> = McuCore::new();
        firmware.load(&image).unwrap();
        assert_eq!(
            collect_wakes(&mut host, 0, &samples),
            collect_wakes(&mut firmware, 0, &samples)
        );
    }

    #[test]
    fn type_errors_name_the_node() {
        let mut b = ImageBuilder::new();
        b.push_node(NodeKind::Fft, &[PortSource::Channel(0)], 50.0)
            .unwrap();
        let image = b.finish(0).unwrap();
        let mut core: McuCore<f64, 16> = McuCore::new();
        let err = core.load(&image).unwrap_err();
        assert_eq!(err, McuExecError::TypeError { node: 0 });
        assert!(err.to_string().contains("node 0"));
    }

    /// `window(size)` on channel 0, then `kinds` chained after it.
    fn chain(size: u32, kinds: &[NodeKind]) -> McuImage {
        let mut b = ImageBuilder::new();
        let mut last = b
            .push_node(
                NodeKind::Window {
                    size,
                    hop: size,
                    shape: WindowShape::Rectangular,
                },
                &[PortSource::Channel(0)],
                64.0,
            )
            .unwrap();
        for &kind in kinds {
            last = b.push_node(kind, &[PortSource::Node(last)], 64.0).unwrap();
        }
        b.finish(last).unwrap()
    }

    #[test]
    fn load_rejects_every_image_that_could_fail_at_run_time() {
        let scalar_into_fft = {
            let mut b = ImageBuilder::new();
            b.push_node(NodeKind::Fft, &[PortSource::Channel(0)], 64.0)
                .unwrap();
            b.finish(0).unwrap()
        };
        let threshold = NodeKind::MinThreshold { threshold: 0.0 };
        let cases = [
            (
                "scalar -> fft",
                scalar_into_fft,
                McuExecError::TypeError { node: 0 },
            ),
            (
                "vector -> minThreshold",
                chain(8, &[threshold]),
                McuExecError::TypeError { node: 1 },
            ),
            (
                "spectrum -> mean",
                chain(8, &[NodeKind::Fft, NodeKind::Stat(StatKind::Mean)]),
                McuExecError::TypeError { node: 2 },
            ),
            (
                "window(48) -> fft",
                chain(48, &[NodeKind::Fft]),
                McuExecError::BadTransformLength { node: 1, len: 48 },
            ),
            (
                "spectralMagnitude(33) -> lowPass",
                chain(
                    64,
                    &[
                        NodeKind::Fft,
                        NodeKind::SpectralMagnitude,
                        NodeKind::LowPass { cutoff_hz: 8.0 },
                    ],
                ),
                McuExecError::BadTransformLength { node: 3, len: 33 },
            ),
        ];
        let fitting = chain(8, &[NodeKind::Stat(StatKind::Max)]);
        let samples: Vec<f64> = (0..32).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut fresh: McuCore<f64, 256> = McuCore::new();
        fresh.load(&fitting).unwrap();
        let expected = collect_wakes(&mut fresh, 0, &samples);
        assert_eq!(expected.len(), 4);

        for (what, image, err) in cases {
            assert_eq!(
                crate::footprint::image_footprint(&image),
                Err(err),
                "{what}: footprint"
            );
            let mut core: McuCore<f64, 256> = McuCore::new();
            assert_eq!(core.load(&image), Err(err), "{what}: McuCore");
            assert!(!core.loaded, "{what}");
            assert_eq!(
                core.push_sample(0, 1.0, &mut |_| {}),
                Err(McuExecError::NotLoaded)
            );
            core.load(&fitting).unwrap();
            assert_eq!(
                collect_wakes(&mut core, 0, &samples),
                expected,
                "{what}: reuse"
            );

            #[cfg(feature = "std")]
            {
                let mut host: HostCore = HostCore::new();
                assert_eq!(host.load(&image), Err(err), "{what}: HostCore");
                assert!(!host.loaded, "{what}");
                host.load(&fitting).unwrap();
                assert_eq!(
                    collect_wakes(&mut host, 0, &samples),
                    expected,
                    "{what}: reuse"
                );
            }
        }
    }

    #[test]
    fn invalid_parameters_are_rejected_at_load() {
        let mut b = ImageBuilder::new();
        b.push_node(
            NodeKind::ExpMovingAvg { alpha: 1.5 },
            &[PortSource::Channel(0)],
            50.0,
        )
        .unwrap();
        let image = b.finish(0).unwrap();
        let mut core: McuCore<f64, 16> = McuCore::new();
        let err = core.load(&image).unwrap_err();
        assert_eq!(
            err,
            McuExecError::BadParameter {
                node: 0,
                what: "smoothing factor must be in (0, 1]",
            }
        );
        assert!(err.to_string().contains("smoothing factor"));
    }

    #[test]
    fn bad_channel_is_rejected_at_push() {
        let mut b = ImageBuilder::new();
        b.push_node(NodeKind::AnyOf, &[PortSource::Channel(0)], 50.0)
            .unwrap();
        let image = b.finish(0).unwrap();
        let mut core: McuCore<f64, 128> = McuCore::new();
        core.load(&image).unwrap();
        let err = core.push_sample(200, 1.0, &mut |_| {}).unwrap_err();
        assert_eq!(err, McuExecError::BadChannel { channel: 200 });
    }
}
