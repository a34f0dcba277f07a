//! The wake-condition interpreter — the hub core, and the one
//! interpreter every host path runs as well.
//!
//! [`ExecCore`] executes an [`McuImage`] without allocating after
//! `load`: every buffer a node needs is carved at load time out of seven
//! arenas (samples, scalars, complex values, swap tables, keep masks,
//! and the two staging buffers payloads are copied through). Where those
//! arenas live is the core's [`ArenaStorage`] parameter:
//!
//! * [`McuCore<P, CAP>`](McuCore) keeps them inline as `[T; CAP]`
//!   arrays — the firmware form, const-constructible into a `static`.
//!   A program that does not fit is refused at `load` with a typed
//!   [`McuExecError::ArenaOverflow`].
//! * [`HostCore<P>`](HostCore) (`std` feature) allocates exactly the
//!   image's [`image_footprint`](crate::image_footprint) per arena at
//!   `load`. `sidewinder-hub`'s `HubRuntime` wraps it, so a program's
//!   resource certificate is an exact account of what the host runs.
//!
//! Either way, steady-state execution touches no allocator and no
//! `std`.

use crate::complex::Complex;
use crate::fft;
use crate::filter::{self, BandShape};
use crate::goertzel;
use crate::image::{
    CapacityError, Mask, McuImage, NodeKind, NodeSpec, PortSource, StatKind, MAX_CHANNELS,
    MAX_NODES, MAX_PORTS,
};
use crate::math;
use crate::sample::Sample;
use crate::spectral;
use crate::stats;
use crate::window::WindowShape;
use crate::zcr;
use core::ops::Range;

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

/// Execution-time observability hooks.
///
/// The interpreter threads an `ExecProbe` through every node run and
/// staging copy, so a harness can measure what a run *actually* touched
/// (the soundness pins compare it against the certified bounds) and the
/// host runtime can turn node runs into observability events. The
/// statically-dispatched `const ENABLED` makes the hooks zero-cost when
/// disabled: with [`NoProbe`] every call site constant-folds away, which
/// keeps `push_sample` on the frozen-digest fast path intact.
pub trait ExecProbe {
    /// Whether the probe is live. `false` lets the compiler delete
    /// every hook.
    const ENABLED: bool;

    /// Node `node` is about to run.
    fn node_start(&mut self, _node: u16) {}

    /// Node `node` has run; `produced` says whether it left a fresh
    /// result.
    fn node_end(&mut self, _node: u16, _produced: bool) {}

    /// A vector payload of `len` elements was copied through the
    /// sample staging arena from `node`'s result slot.
    fn staged_vector(&mut self, _node: u16, _len: usize) {}

    /// A spectrum payload of `len` elements was copied through the
    /// spectrum staging arena from `node`'s result slot.
    fn staged_spectrum(&mut self, _node: u16, _len: usize) {}
}

/// The default probe: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl ExecProbe for NoProbe {
    const ENABLED: bool = false;
}

/// Records staging high-water marks and per-node emission counts — the
/// measured side of the `measured ≤ certified` soundness pins.
#[derive(Debug, Clone, Copy)]
pub struct HighWaterProbe {
    /// Largest vector payload staged through `stage_p`, in elements.
    pub stage_sample_peak: usize,
    /// Largest spectrum payload staged through `stage_c`, in elements.
    pub stage_spectrum_peak: usize,
    /// Fresh results per node since construction.
    pub emissions: [u64; MAX_NODES],
}

impl HighWaterProbe {
    /// A probe with every mark at zero.
    pub const fn new() -> HighWaterProbe {
        HighWaterProbe {
            stage_sample_peak: 0,
            stage_spectrum_peak: 0,
            emissions: [0; MAX_NODES],
        }
    }
}

impl Default for HighWaterProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecProbe for HighWaterProbe {
    const ENABLED: bool = true;

    fn node_end(&mut self, node: u16, produced: bool) {
        if produced {
            self.emissions[node as usize] += 1;
        }
    }

    fn staged_vector(&mut self, _node: u16, len: usize) {
        if len > self.stage_sample_peak {
            self.stage_sample_peak = len;
        }
    }

    fn staged_spectrum(&mut self, _node: u16, len: usize) {
        if len > self.stage_spectrum_peak {
            self.stage_spectrum_peak = len;
        }
    }
}

/// Errors raised while loading or executing an image. Nodes are named
/// by their dense image index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum McuExecError {
    /// `push_sample` before a successful `load`.
    NotLoaded,
    /// A channel index at or above [`MAX_CHANNELS`].
    BadChannel {
        /// The offending channel index.
        channel: u8,
    },
    /// A transform node received a window whose length is not a power
    /// of two.
    BadTransformLength {
        /// The node's dense index.
        node: u16,
        /// The offending length.
        len: usize,
    },
    /// A node received a value of the wrong type (scalar where a vector
    /// was expected, and so on).
    TypeError {
        /// The node's dense index.
        node: u16,
    },
    /// A value arrived on a port the node does not have.
    BadPort {
        /// The node's dense index.
        node: u16,
        /// The offending port.
        port: usize,
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
    /// The program needs more arena storage than the core provides.
    Capacity(CapacityError),
}

impl core::fmt::Display for McuExecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            McuExecError::NotLoaded => write!(f, "no program image loaded"),
            McuExecError::BadChannel { channel } => {
                write!(f, "channel {channel} beyond the core's channel limit")
            }
            McuExecError::BadTransformLength { node, len } => {
                write!(f, "node {node}: window length {len} is not a power of two")
            }
            McuExecError::TypeError { node } => {
                write!(f, "node {node}: received a value of the wrong type")
            }
            McuExecError::BadPort { node, port } => {
                write!(f, "node {node}: no input port {port}")
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
            McuExecError::Capacity(e) => write!(f, "{e}"),
        }
    }
}

impl core::error::Error for McuExecError {}

impl From<CapacityError> for McuExecError {
    fn from(e: CapacityError) -> Self {
        McuExecError::Capacity(e)
    }
}

/// Mutable views of a core's seven arenas, in
/// [`ArenaKind::ALL`](crate::footprint::ArenaKind::ALL) order.
pub struct ArenaViews<'a, P: Sample> {
    /// Window rings, taper tables, vector payloads.
    pub p: &'a mut [P],
    /// Moving-average rings, probe tables, widening scratch.
    pub f: &'a mut [f64],
    /// Twiddle tables and spectrum payloads.
    pub c: &'a mut [Complex],
    /// Bit-reversal swap tables.
    pub s: &'a mut [(u32, u32)],
    /// Band-filter keep masks.
    pub b: &'a mut [bool],
    /// Staging copy of a producer's vector payload while it is fed.
    pub stage_p: &'a mut [P],
    /// Staging copy of a producer's spectrum payload while it is fed.
    pub stage_c: &'a mut [Complex],
}

/// Where an [`ExecCore`] keeps its arenas.
pub trait ArenaStorage {
    /// Vector-payload precision (`f64` for host bit-equivalence, `f32`
    /// for hardware-faithful deployments).
    type Sample: Sample;

    /// Readies the arenas for `image`, before `load` carves them.
    ///
    /// # Errors
    ///
    /// [`McuExecError::BadParameter`] on the parameters `load` rejects,
    /// [`McuExecError::ArenaOverflow`] when fixed storage is too small.
    fn fit(&mut self, image: &McuImage) -> Result<(), McuExecError>;

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
    stage_p: [P; CAP],
    stage_c: [Complex; CAP],
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
            stage_p: [P::ZERO; CAP],
            stage_c: [Complex::ZERO; CAP],
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

    fn fit(&mut self, image: &McuImage) -> Result<(), McuExecError> {
        crate::footprint::check_fit(image, CAP).map(|_| ())
    }

    fn views(&mut self) -> ArenaViews<'_, P> {
        ArenaViews {
            p: &mut self.p,
            f: &mut self.f,
            c: &mut self.c,
            s: &mut self.s,
            b: &mut self.b,
            stage_p: &mut self.stage_p,
            stage_c: &mut self.stage_c,
        }
    }
}

/// Heap arenas sized to each loaded image's exact footprint — the host
/// storage.
#[cfg(feature = "std")]
#[derive(Debug, Clone, Default)]
pub struct HeapArenas<P: Sample> {
    p: std::vec::Vec<P>,
    f: std::vec::Vec<f64>,
    c: std::vec::Vec<Complex>,
    s: std::vec::Vec<(u32, u32)>,
    b: std::vec::Vec<bool>,
    stage_p: std::vec::Vec<P>,
    stage_c: std::vec::Vec<Complex>,
}

#[cfg(feature = "std")]
impl<P: Sample> ArenaStorage for HeapArenas<P> {
    type Sample = P;

    fn fit(&mut self, image: &McuImage) -> Result<(), McuExecError> {
        use crate::footprint::ArenaKind;
        use std::vec;
        let fp = crate::footprint::image_footprint(image)?;
        let n = |kind: ArenaKind| fp.arena(kind).elements;
        *self = HeapArenas {
            p: vec![P::ZERO; n(ArenaKind::Sample)],
            f: vec![0.0; n(ArenaKind::Scalar)],
            c: vec![Complex::ZERO; n(ArenaKind::Complex)],
            s: vec![(0, 0); n(ArenaKind::Swap)],
            b: vec![false; n(ArenaKind::Mask)],
            stage_p: vec![P::ZERO; n(ArenaKind::StageSample)],
            stage_c: vec![Complex::ZERO; n(ArenaKind::StageSpectrum)],
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
            stage_p: &mut self.stage_p,
            stage_c: &mut self.stage_c,
        }
    }
}

/// A `[start, start + cap)` slice of one arena, assigned at load time.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    cap: u32,
}

impl Span {
    const EMPTY: Span = Span { start: 0, cap: 0 };

    fn range(self, len: usize) -> Range<usize> {
        let start = self.start as usize;
        start..start + len
    }

    fn full(self) -> Range<usize> {
        self.range(self.cap as usize)
    }

    fn cap(self) -> usize {
        self.cap as usize
    }
}

/// Per-node mutable state plus the arena spans its kind was assigned.
/// One flat struct for all kinds keeps the state table a plain array;
/// each kind touches only its own fields.
#[derive(Debug, Clone, Copy)]
struct NodeState {
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
        aux_p: Span::EMPTY,
        coeffs: Span::EMPTY,
        aux_f: Span::EMPTY,
        swaps: Span::EMPTY,
        swaps_len: 0,
        fwd: Span::EMPTY,
        inv: Span::EMPTY,
        mask: Span::EMPTY,
        wide_in: Span::EMPTY,
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

impl<'a, P: Sample> In<'a, P> {
    fn as_scalar(&self) -> Option<f64> {
        match *self {
            In::Scalar(x) => Some(x),
            _ => None,
        }
    }

    fn as_vector(&self) -> Option<&'a [P]> {
        match *self {
            In::Vector(v) => Some(v),
            _ => None,
        }
    }

    fn as_spectrum(&self) -> Option<&'a [Complex]> {
        match *self {
            In::Spectrum(s) => Some(s),
            _ => None,
        }
    }
}

/// Mutable views over the carved arenas, handed to the per-kind
/// executor.
struct Arenas<'a, P: Sample> {
    p: &'a mut [P],
    f: &'a mut [f64],
    c: &'a mut [Complex],
    s: &'a mut [(u32, u32)],
    b: &'a mut [bool],
}

/// Identity of one feed: which node, which port, at what sequence.
#[derive(Clone, Copy)]
struct FeedCtx {
    node: u16,
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
    /// Elements `load` carved from each bump arena (sample, scalar,
    /// complex, swap, mask) — pinned against the static footprint.
    arena_used: [u32; 5],
    arenas: A,
}

/// The firmware core: `CAP`-element arenas held inline. The struct is
/// large (roughly `7 * CAP * 8` bytes at `P = f64`); embed it in a
/// `static` or a `Box` rather than the stack for big capacities.
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
            arena_used: [0; 5],
            arenas,
        }
    }

    /// Whether an image has been loaded.
    pub fn is_loaded(&self) -> bool {
        self.loaded
    }

    /// Total wake-ups since load (or the last [`reset`](Self::reset)).
    pub fn wake_count(&self) -> u64 {
        self.wake_count
    }

    /// The loaded image.
    pub fn image(&self) -> &McuImage {
        &self.image
    }

    /// Elements the last successful `load` carved from each bump arena,
    /// in [`ArenaKind::ALL`](crate::footprint::ArenaKind::ALL) order
    /// (sample, scalar, complex, swap, mask). The soundness harness
    /// pins these against [`image_footprint`](crate::image_footprint).
    pub fn arena_used(&self) -> [usize; 5] {
        self.arena_used.map(|n| n as usize)
    }

    /// Loads an image: validates node parameters and carves every
    /// buffer the program needs out of the arenas.
    ///
    /// Buffer sizes come from a forward pass over the dense node list
    /// (producers precede consumers, so each node's payload length is
    /// known from its first source).
    ///
    /// # Errors
    ///
    /// [`McuExecError::BadParameter`] on invalid node parameters,
    /// [`McuExecError::ArenaOverflow`] when the program's certified
    /// footprint exceeds fixed storage — raised by the storage's
    /// pre-flight [`fit`](ArenaStorage::fit), naming the arena and the
    /// offending node, before any arena is touched.
    pub fn load(&mut self, image: &McuImage) -> Result<(), McuExecError> {
        self.loaded = false;
        self.states = [NodeState::EMPTY; MAX_NODES];
        self.slots = [Slot::EMPTY; MAX_NODES];
        self.channel_seq = [0; MAX_CHANNELS];
        self.wake_count = 0;
        self.arena_used = [0; 5];

        // Admission first: the static footprint is exact (pinned
        // against the carve below by the equivalence tests), so a
        // rejected image leaves the core exactly as unloaded as a
        // never-loaded one, and the carve below cannot fail.
        self.arenas.fit(image)?;
        let ar = self.arenas.views();
        let cap = [ar.p.len(), ar.f.len(), ar.c.len(), ar.s.len(), ar.b.len()];

        let mut used_p = 0usize;
        let mut used_f = 0usize;
        let mut used_c = 0usize;
        let mut used_s = 0usize;
        let mut used_b = 0usize;
        // Payload length each node emits (0 for scalar producers).
        let mut lens = [0usize; MAX_NODES];

        for (i, spec) in image.nodes().iter().enumerate() {
            let node = i as u16;
            let in_len = match spec.sources[0] {
                PortSource::Channel(_) => 0,
                PortSource::Node(src) => lens[src as usize],
            };
            let mut st = NodeState::EMPTY;
            let mut slot = Slot::EMPTY;
            match spec.kind {
                NodeKind::Window { size, hop, shape } => {
                    let (size, hop) = (size as usize, hop as usize);
                    if size == 0 || hop == 0 || hop > size {
                        return Err(McuExecError::BadParameter {
                            node,
                            what: "window size and hop must be positive",
                        });
                    }
                    st.aux_p = bump(&mut used_p, cap[0], size, "sample arena")?;
                    st.coeffs = bump(&mut used_p, cap[0], size, "sample arena")?;
                    shape.fill_coefficients(&mut ar.p[st.coeffs.full()]);
                    slot.vec = bump(&mut used_p, cap[0], size, "sample arena")?;
                    lens[i] = size;
                }
                NodeKind::Fft => {
                    st.swaps = bump(&mut used_s, cap[3], plan_swap_cap(in_len), "swap arena")?;
                    st.fwd = bump(
                        &mut used_c,
                        cap[2],
                        plan_twiddle_cap(in_len),
                        "complex arena",
                    )?;
                    st.wide_in = bump(&mut used_f, cap[1], in_len, "scalar arena")?;
                    slot.spec = bump(&mut used_c, cap[2], in_len, "complex arena")?;
                    lens[i] = in_len;
                }
                NodeKind::Ifft => {
                    st.swaps = bump(&mut used_s, cap[3], plan_swap_cap(in_len), "swap arena")?;
                    st.inv = bump(
                        &mut used_c,
                        cap[2],
                        plan_twiddle_cap(in_len),
                        "complex arena",
                    )?;
                    slot.spec = bump(&mut used_c, cap[2], in_len, "complex arena")?;
                    slot.vec = bump(&mut used_p, cap[0], in_len, "sample arena")?;
                    lens[i] = in_len;
                }
                NodeKind::SpectralMagnitude => {
                    let m = if in_len > 0 { in_len / 2 + 1 } else { 0 };
                    slot.vec = bump(&mut used_p, cap[0], m, "sample arena")?;
                    lens[i] = m;
                }
                NodeKind::MovingAvg { window } => {
                    if window == 0 {
                        return Err(McuExecError::BadParameter {
                            node,
                            what: "moving-average window must be positive",
                        });
                    }
                    st.aux_f = bump(&mut used_f, cap[1], window as usize, "scalar arena")?;
                }
                NodeKind::ExpMovingAvg { alpha } => {
                    if !(alpha > 0.0 && alpha <= 1.0) {
                        return Err(McuExecError::BadParameter {
                            node,
                            what: "smoothing factor must be in (0, 1]",
                        });
                    }
                }
                NodeKind::LowPass { .. } | NodeKind::HighPass { .. } => {
                    let twiddles = plan_twiddle_cap(in_len);
                    st.swaps = bump(&mut used_s, cap[3], plan_swap_cap(in_len), "swap arena")?;
                    st.fwd = bump(&mut used_c, cap[2], twiddles, "complex arena")?;
                    st.inv = bump(&mut used_c, cap[2], twiddles, "complex arena")?;
                    st.mask = bump(&mut used_b, cap[4], in_len, "mask arena")?;
                    st.wide_in = bump(&mut used_f, cap[1], in_len, "scalar arena")?;
                    slot.spec = bump(&mut used_c, cap[2], in_len, "complex arena")?;
                    slot.vec = bump(&mut used_p, cap[0], in_len, "sample arena")?;
                    lens[i] = in_len;
                }
                NodeKind::ZcrVariance { sub_windows } => {
                    st.aux_p = bump(&mut used_p, cap[0], sub_windows as usize, "sample arena")?;
                }
                NodeKind::Goertzel { lo_hz, hi_hz }
                | NodeKind::GoertzelFreq { lo_hz, hi_hz }
                | NodeKind::GoertzelRatio { lo_hz, hi_hz } => {
                    if !(lo_hz.is_finite() && hi_hz.is_finite() && 0.0 <= lo_hz && lo_hz <= hi_hz) {
                        return Err(McuExecError::BadParameter {
                            node,
                            what: "goertzel band must be finite with 0 <= lo <= hi",
                        });
                    }
                    let probes = if in_len > 0 { in_len / 2 + 1 } else { 0 };
                    st.aux_f = bump(&mut used_f, cap[1], probes, "scalar arena")?;
                }
                NodeKind::VectorMagnitude
                | NodeKind::Zcr
                | NodeKind::Stat(_)
                | NodeKind::DominantRatio
                | NodeKind::DominantFreq
                | NodeKind::MinThreshold { .. }
                | NodeKind::MaxThreshold { .. }
                | NodeKind::BandThreshold { .. }
                | NodeKind::OutsideThreshold { .. }
                | NodeKind::Sustained { .. }
                | NodeKind::AllOf
                | NodeKind::AnyOf => {}
            }
            self.states[i] = st;
            self.slots[i] = slot;
        }

        self.arena_used = [
            used_p as u32,
            used_f as u32,
            used_c as u32,
            used_s as u32,
            used_b as u32,
        ];
        self.image = *image;
        self.loaded = true;
        Ok(())
    }

    /// Ingests one sample on a channel, running a full interpreter pass
    /// and invoking `on_wake` for each wake-up it produces.
    ///
    /// # Errors
    ///
    /// [`McuExecError::NotLoaded`] before a `load`, otherwise the
    /// execution errors of the nodes the sample reaches. The core stays
    /// usable after an execution error.
    pub fn push_sample(
        &mut self,
        channel: u8,
        sample: f64,
        on_wake: &mut impl FnMut(WakeEvent),
    ) -> Result<(), McuExecError> {
        self.push_sample_probed(channel, sample, on_wake, &mut NoProbe)
    }

    /// [`push_sample`](Self::push_sample) with an [`ExecProbe`]
    /// observing node runs and staging copies. With [`NoProbe`] this
    /// *is* `push_sample` — the hooks compile away.
    ///
    /// # Errors
    ///
    /// As [`push_sample`](Self::push_sample).
    pub fn push_sample_probed<Pr: ExecProbe>(
        &mut self,
        channel: u8,
        sample: f64,
        on_wake: &mut impl FnMut(WakeEvent),
        probe: &mut Pr,
    ) -> Result<(), McuExecError> {
        self.push_samples_probed(channel, core::slice::from_ref(&sample), on_wake, probe)
    }

    /// Ingests a batch of samples on one channel, exactly as if each
    /// were pushed in turn.
    ///
    /// # Errors
    ///
    /// Stops at the first failing sample; see [`push_sample`](Self::push_sample).
    pub fn push_samples(
        &mut self,
        channel: u8,
        samples: &[f64],
        on_wake: &mut impl FnMut(WakeEvent),
    ) -> Result<(), McuExecError> {
        self.push_samples_probed(channel, samples, on_wake, &mut NoProbe)
    }

    /// [`push_samples`](Self::push_samples) with an [`ExecProbe`].
    ///
    /// Each sample runs one pass: the single-source entry nodes of
    /// `channel` first, in increasing index order, then the ready set
    /// drains in index (topological) order — a node's consumers always
    /// have larger indices, so newly readied bits are still ahead of the
    /// cursor.
    ///
    /// # Errors
    ///
    /// Stops at the first failing sample; see [`push_sample`](Self::push_sample).
    pub fn push_samples_probed<Pr: ExecProbe>(
        &mut self,
        channel: u8,
        samples: &[f64],
        on_wake: &mut impl FnMut(WakeEvent),
        probe: &mut Pr,
    ) -> Result<(), McuExecError> {
        if !self.loaded {
            return Err(McuExecError::NotLoaded);
        }
        let ci = channel as usize;
        if ci >= MAX_CHANNELS {
            return Err(McuExecError::BadChannel { channel });
        }
        let ExecCore {
            image,
            states,
            slots,
            channel_seq,
            wake_count,
            arenas,
            ..
        } = self;
        let ArenaViews {
            p,
            f,
            c,
            s,
            b,
            stage_p,
            stage_c,
        } = arenas.views();
        let nodes = image.nodes();
        let out = image.out_index();
        for &sample in samples {
            let seq = channel_seq[ci];
            channel_seq[ci] += 1;
            let mut direct = image.direct_feed_mask(ci);
            let mut ready = image.entry_mask(ci);
            let mut fresh: Mask = 0;
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
                for (port, &source) in spec.sources[..spec.port_count as usize].iter().enumerate() {
                    let (seq, input) = match source {
                        PortSource::Channel(ch) if ch == channel => (seq, In::Scalar(sample)),
                        PortSource::Channel(_) => continue,
                        PortSource::Node(src) if fresh & (1 << src) != 0 => {
                            // Payloads are copied through staging so the
                            // consumer can borrow its input while it
                            // writes its own spans of the same arena.
                            let from = &done[src as usize];
                            let input = match from.kind {
                                SlotKind::Empty => continue,
                                SlotKind::Scalar => In::Scalar(from.scalar),
                                SlotKind::Vector => {
                                    let len = from.vec_len as usize;
                                    if Pr::ENABLED {
                                        probe.staged_vector(src, len);
                                    }
                                    stage_p[..len].copy_from_slice(&p[from.vec.range(len)]);
                                    In::Vector(&stage_p[..len])
                                }
                                SlotKind::Spectrum => {
                                    let len = from.spec_len as usize;
                                    if Pr::ENABLED {
                                        probe.staged_spectrum(src, len);
                                    }
                                    stage_c[..len].copy_from_slice(&c[from.spec.range(len)]);
                                    In::Spectrum(&stage_c[..len])
                                }
                            };
                            (from.seq, input)
                        }
                        PortSource::Node(_) => continue,
                    };
                    exec_kind(
                        FeedCtx {
                            node: i as u16,
                            port,
                            seq,
                        },
                        spec,
                        &mut states[i],
                        slot,
                        Arenas {
                            p: &mut *p,
                            f: &mut *f,
                            c: &mut *c,
                            s: &mut *s,
                            b: &mut *b,
                        },
                        input,
                    )?;
                }
                let produced = slot.kind != SlotKind::Empty;
                if Pr::ENABLED {
                    probe.node_end(i as u16, produced);
                }
                if produced {
                    fresh |= 1 << i;
                    ready |= spec.consumer_mask;
                    if i == out && slot.kind == SlotKind::Scalar {
                        *wake_count += 1;
                        on_wake(WakeEvent {
                            seq: slot.seq,
                            value: slot.scalar,
                        });
                    }
                }
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

/// Bump-allocates `need` elements from an arena of `total` capacity.
fn bump(
    used: &mut usize,
    total: usize,
    need: usize,
    what: &'static str,
) -> Result<Span, McuExecError> {
    if *used + need > total {
        return Err(McuExecError::Capacity(CapacityError {
            what,
            needed: *used + need,
            capacity: total,
        }));
    }
    let span = Span {
        start: *used as u32,
        cap: need as u32,
    };
    *used += need;
    Ok(span)
}

/// Swap-table capacity to reserve for a predicted transform length.
/// Non-power-of-two predictions reserve nothing: the plan will fail
/// with `BadTransformLength` before the table is needed.
pub(crate) fn plan_swap_cap(n: usize) -> usize {
    if fft::is_power_of_two(n) {
        fft::swap_count(n)
    } else {
        0
    }
}

/// Twiddle-table capacity to reserve for a predicted transform length.
pub(crate) fn plan_twiddle_cap(n: usize) -> usize {
    if fft::is_power_of_two(n) {
        fft::twiddle_count(n)
    } else {
        0
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
/// (the bump allocator hands out ascending spans, so per-node span
/// triples always satisfy this).
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

/// (Re)builds a node's transform tables when the incoming window length
/// differs from the planned length.
fn ensure_plan(
    node: u16,
    st: &mut NodeState,
    n: usize,
    s: &mut [(u32, u32)],
    c: &mut [Complex],
    b: &mut [bool],
    needs: &PlanNeeds,
) -> Result<(), McuExecError> {
    if st.planned_len == n as u32 {
        return Ok(());
    }
    fft::check_len(n).map_err(|e| McuExecError::BadTransformLength { node, len: e.len })?;
    let sc = fft::swap_count(n);
    let tc = fft::twiddle_count(n);
    if sc > st.swaps.cap() {
        return Err(arena_overflow("swap arena", sc, st.swaps.cap()));
    }
    if needs.fwd && tc > st.fwd.cap() {
        return Err(arena_overflow("complex arena", tc, st.fwd.cap()));
    }
    if needs.inv && tc > st.inv.cap() {
        return Err(arena_overflow("complex arena", tc, st.inv.cap()));
    }
    if needs.band.is_some() && n > st.mask.cap() {
        return Err(arena_overflow("mask arena", n, st.mask.cap()));
    }
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
    Ok(())
}

/// Rebuilds a Goertzel node's probe table when the window length
/// changes.
fn replan_probes(
    st: &mut NodeState,
    f: &mut [f64],
    n: usize,
    rate_hz: f64,
    lo_hz: f64,
    hi_hz: f64,
    skip_dc: bool,
) -> Result<(), McuExecError> {
    if st.planned_len == n as u32 {
        return Ok(());
    }
    st.planned_len = n as u32;
    st.probe_len = 0;
    if rate_hz > 0.0 && n > 0 {
        let dst = &mut f[st.aux_f.full()];
        let mut count = 0usize;
        for k in usize::from(skip_dc)..=n / 2 {
            let freq = fft::bin_to_frequency(k, n, rate_hz);
            if lo_hz <= freq && freq <= hi_hz {
                if count >= dst.len() {
                    return Err(arena_overflow("scalar arena", count + 1, dst.len()));
                }
                dst[count] = freq;
                count += 1;
            }
        }
        st.probe_len = count as u32;
    }
    Ok(())
}

fn arena_overflow(what: &'static str, needed: usize, capacity: usize) -> McuExecError {
    McuExecError::Capacity(CapacityError {
        what,
        needed,
        capacity,
    })
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
#[inline(always)]
fn exec_kind<P: Sample>(
    ctx: FeedCtx,
    spec: &NodeSpec,
    st: &mut NodeState,
    slot: &mut Slot,
    ar: Arenas<'_, P>,
    input: In<'_, P>,
) -> Result<(), McuExecError> {
    let Arenas { p, f, c, s, b } = ar;
    let node = ctx.node;
    let seq = ctx.seq;
    let type_err = McuExecError::TypeError { node };
    match spec.kind {
        NodeKind::Window { size, hop, shape } => {
            let x = input.as_scalar().ok_or(type_err)?;
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
                    return Ok(());
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
                    return Ok(());
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
                    return Ok(());
                }
                emit_window(p, st, slot, len, shape, st.head as usize);
            }
            slot.kind = SlotKind::Vector;
            slot.vec_len = len as u32;
            slot.seq = seq;
        }
        NodeKind::Fft => {
            let window = input.as_vector().ok_or(type_err)?;
            let n = window.len();
            ensure_plan(
                node,
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
            )?;
            if n > st.wide_in.cap() {
                return Err(arena_overflow("scalar arena", n, st.wide_in.cap()));
            }
            if n > slot.spec.cap() {
                return Err(arena_overflow("complex arena", n, slot.spec.cap()));
            }
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
            let spectrum = input.as_spectrum().ok_or(type_err)?;
            let n = spectrum.len();
            ensure_plan(
                node,
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
            )?;
            if n > slot.spec.cap() {
                return Err(arena_overflow("complex arena", n, slot.spec.cap()));
            }
            if n > slot.vec.cap() {
                return Err(arena_overflow("sample arena", n, slot.vec.cap()));
            }
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
            let spectrum = input.as_spectrum().ok_or(type_err)?;
            if !spectrum.is_empty() {
                let m = spectrum.len() / 2 + 1;
                if m > slot.vec.cap() {
                    return Err(arena_overflow("sample arena", m, slot.vec.cap()));
                }
                for (o, z) in p[slot.vec.range(m)].iter_mut().zip(spectrum[..m].iter()) {
                    *o = P::from_f64(z.magnitude());
                }
                slot.kind = SlotKind::Vector;
                slot.vec_len = m as u32;
                slot.seq = seq;
            }
        }
        NodeKind::MovingAvg { window } => {
            let x = input.as_scalar().ok_or(type_err)?;
            let w = window as usize;
            let ring = &mut f[st.aux_f.range(w)];
            if st.fill as usize == w {
                st.head = next_index(st.head as usize, w) as u32;
                st.fill -= 1;
            }
            ring[ring_index(st.head as usize, st.fill as usize, w)] = x;
            st.fill += 1;
            if st.fill as usize == w {
                // Oldest-to-newest sum from zero, then divide: the ring
                // from `head` on is the oldest run, the prefix before it
                // the newest.
                let (newer, older) = ring.split_at(st.head as usize);
                let mut sum = 0.0;
                for &v in older {
                    sum += v;
                }
                for &v in newer {
                    sum += v;
                }
                slot.set_scalar(seq, sum / w as f64);
            }
        }
        NodeKind::ExpMovingAvg { alpha } => {
            let x = input.as_scalar().ok_or(type_err)?;
            let y = if st.ema_set {
                alpha * x + (1.0 - alpha) * st.ema
            } else {
                x
            };
            st.ema = y;
            st.ema_set = true;
            slot.set_scalar(seq, y);
        }
        NodeKind::LowPass { cutoff_hz } | NodeKind::HighPass { cutoff_hz } => {
            let window = input.as_vector().ok_or(type_err)?;
            let n = window.len();
            let shape = if matches!(spec.kind, NodeKind::LowPass { .. }) {
                BandShape::LowPass { cutoff_hz }
            } else {
                BandShape::HighPass { cutoff_hz }
            };
            ensure_plan(
                node,
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
            )?;
            if n > st.wide_in.cap() {
                return Err(arena_overflow("scalar arena", n, st.wide_in.cap()));
            }
            if n > slot.spec.cap() {
                return Err(arena_overflow("complex arena", n, slot.spec.cap()));
            }
            if n > slot.vec.cap() {
                return Err(arena_overflow("sample arena", n, slot.vec.cap()));
            }
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
        NodeKind::VectorMagnitude => {
            let x = input.as_scalar().ok_or(type_err)?;
            let ports = spec.port_count as usize;
            if ctx.port >= ports {
                return Err(McuExecError::BadPort {
                    node,
                    port: ctx.port,
                });
            }
            st.latest_seq[ctx.port] = seq;
            st.latest_val[ctx.port] = x;
            st.latest_set |= 1 << ctx.port;
            // Emit only when every branch has produced a value from
            // the same source samples: a stale axis must never be
            // combined with a fresh one.
            let all = (0..ports).all(|k| st.latest_set & (1 << k) != 0 && st.latest_seq[k] == seq);
            if all {
                let mut energy = 0.0;
                for k in 0..ports {
                    let v = st.latest_val[k];
                    energy += v * v;
                }
                slot.set_scalar(seq, math::sqrt(energy));
            }
        }
        NodeKind::Zcr => {
            let window = input.as_vector().ok_or(type_err)?;
            if let Some(r) = zcr::zero_crossing_rate(window) {
                slot.set_scalar(seq, r.to_f64());
            }
        }
        NodeKind::ZcrVariance { sub_windows } => {
            let window = input.as_vector().ok_or(type_err)?;
            let scratch = &mut p[st.aux_p.full()];
            if let Some(v) = zcr::zcr_variance_into(window, sub_windows as usize, scratch) {
                slot.set_scalar(seq, v.to_f64());
            }
        }
        NodeKind::Stat(sf) => {
            let window = input.as_vector().ok_or(type_err)?;
            if let Some(summary) = stats::Summary::of(window) {
                let y = match sf {
                    StatKind::Mean => summary.mean,
                    StatKind::Variance => summary.variance,
                    StatKind::StdDev => summary.std_dev(),
                    StatKind::MeanAbs => stats::mean_abs(window).ok_or(type_err)?,
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
            let mags = input.as_vector().ok_or(type_err)?;
            // Skip DC: pitched-sound detection must not be fooled by
            // offset.
            if mags.len() > 1 {
                if let Some(r) = spectral::dominant_to_mean_ratio(&mags[1..]) {
                    slot.set_scalar(seq, r.to_f64());
                }
            }
        }
        NodeKind::DominantFreq => {
            let mags = input.as_vector().ok_or(type_err)?;
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
            let window = input.as_vector().ok_or(type_err)?;
            replan_probes(st, f, window.len(), spec.rate_hz, lo_hz, hi_hz, false)?;
            let probes = &f[st.aux_f.range(st.probe_len as usize)];
            if let Some(m) = goertzel::strongest_magnitude(window, probes, spec.rate_hz) {
                slot.set_scalar(seq, m);
            }
        }
        NodeKind::GoertzelFreq { lo_hz, hi_hz } => {
            let window = input.as_vector().ok_or(type_err)?;
            replan_probes(st, f, window.len(), spec.rate_hz, lo_hz, hi_hz, true)?;
            let probes = &f[st.aux_f.range(st.probe_len as usize)];
            if let Some((freq, _)) = goertzel::strongest_of(window, probes, spec.rate_hz) {
                slot.set_scalar(seq, freq);
            }
        }
        NodeKind::GoertzelRatio { lo_hz, hi_hz } => {
            let window = input.as_vector().ok_or(type_err)?;
            replan_probes(st, f, window.len(), spec.rate_hz, lo_hz, hi_hz, true)?;
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
        NodeKind::MinThreshold { threshold } => {
            let x = input.as_scalar().ok_or(type_err)?;
            if x >= threshold {
                slot.set_scalar(seq, x);
            }
        }
        NodeKind::MaxThreshold { threshold } => {
            let x = input.as_scalar().ok_or(type_err)?;
            if x <= threshold {
                slot.set_scalar(seq, x);
            }
        }
        NodeKind::BandThreshold { lo, hi } => {
            let x = input.as_scalar().ok_or(type_err)?;
            if x >= lo && x <= hi {
                slot.set_scalar(seq, x);
            }
        }
        NodeKind::OutsideThreshold { lo, hi } => {
            let x = input.as_scalar().ok_or(type_err)?;
            if x < lo || x > hi {
                slot.set_scalar(seq, x);
            }
        }
        NodeKind::Sustained { count, max_gap } => {
            let x = input.as_scalar().ok_or(type_err)?;
            let consecutive = st.has_last && seq.saturating_sub(st.last_seq) <= max_gap;
            st.streak = if consecutive { st.streak + 1 } else { 1 };
            st.last_seq = seq;
            st.has_last = true;
            if st.streak >= count {
                slot.set_scalar(seq, x);
            }
        }
        NodeKind::AllOf => {
            let x = input.as_scalar().ok_or(type_err)?;
            let ports = spec.port_count as usize;
            if ctx.port >= ports {
                return Err(McuExecError::BadPort {
                    node,
                    port: ctx.port,
                });
            }
            st.latest_seq[ctx.port] = seq;
            st.latest_val[ctx.port] = x;
            st.latest_set |= 1 << ctx.port;
            // AND-join over the same window: all branches must have
            // passed their admission control for this seq.
            let all = (0..ports).all(|k| st.latest_set & (1 << k) != 0 && st.latest_seq[k] == seq);
            if all {
                slot.set_scalar(seq, x);
            }
        }
        NodeKind::AnyOf => {
            let x = input.as_scalar().ok_or(type_err)?;
            slot.set_scalar(seq, x);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageBuilder;
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
        assert!(!CORE.is_loaded());
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
        let mut core: McuCore<f64, 64> = McuCore::new();
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
        let mut core: McuCore<f64, 16> = McuCore::new();
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
        let mut core: McuCore<f64, 16> = McuCore::new();
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
        let mut core: McuCore<f64, 16> = McuCore::new();
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
        let mut core: McuCore<f64, 16> = McuCore::new();
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
        let mut core: McuCore<f64, 16> = McuCore::new();
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
        assert!(!core.is_loaded());
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
                        size: 64,
                        hop: 64,
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

        let mut fresh: McuCore<f64, 16> = McuCore::new();
        fresh.load(&fitting).unwrap();
        let samples: Vec<f64> = (0..16).map(f64::from).collect();
        let expected = collect_wakes(&mut fresh, 0, &samples);
        assert!(!expected.is_empty());

        let mut reused: McuCore<f64, 16> = McuCore::new();
        assert!(matches!(
            reused.load(&oversized).unwrap_err(),
            McuExecError::ArenaOverflow { .. }
        ));
        assert!(!reused.is_loaded());
        assert!(matches!(
            reused.push_sample(0, 1.0, &mut |_| {}),
            Err(McuExecError::NotLoaded)
        ));
        reused.load(&fitting).unwrap();
        assert_eq!(collect_wakes(&mut reused, 0, &samples), expected);
        assert_eq!(reused.arena_used(), [0, 4, 0, 0, 0]);
    }

    #[test]
    fn arena_used_matches_the_static_footprint() {
        use crate::footprint::{image_footprint, ArenaKind};
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
        let fp = image_footprint(&image).unwrap();
        let mut core: McuCore<f64, 128> = McuCore::new();
        core.load(&image).unwrap();
        let used = core.arena_used();
        for (k, kind) in ArenaKind::ALL[..5].iter().enumerate() {
            assert_eq!(
                used[k],
                fp.arena(*kind).elements,
                "{} diverged from the footprint",
                kind.name()
            );
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
        let lens = [
            ar.p.len(),
            ar.f.len(),
            ar.c.len(),
            ar.s.len(),
            ar.b.len(),
            ar.stage_p.len(),
            ar.stage_c.len(),
        ];
        for kind in ArenaKind::ALL {
            assert_eq!(
                lens[kind.index()],
                fp.arena(kind).elements,
                "{} is not sized to the footprint",
                kind.name()
            );
        }
        assert_eq!(host.arena_used(), lens[..5]);

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
        core.load(&image).unwrap();
        let err = core.push_sample(0, 1.0, &mut |_| {}).unwrap_err();
        assert_eq!(err, McuExecError::TypeError { node: 0 });
        assert!(err.to_string().contains("node 0"));
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
        let mut core: McuCore<f64, 16> = McuCore::new();
        core.load(&image).unwrap();
        let err = core.push_sample(200, 1.0, &mut |_| {}).unwrap_err();
        assert_eq!(err, McuExecError::BadChannel { channel: 200 });
    }
}
