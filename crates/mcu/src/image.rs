//! The loadable program image for the MCU core.
//!
//! [`McuImage`] is a plain-old-data description of a validated wake-up
//! condition: one [`NodeSpec`] per IR statement in dense (topological)
//! order, plus the precomputed readiness masks the interpreter pass uses.
//! The host side (`sidewinder-hub`) compiles a validated `ir::Program`
//! into an image; the `no_std` [`McuCore`](crate::exec::McuCore) loads it
//! into fixed-capacity arenas. The image itself allocates nothing and can
//! be built on either side of the boundary.

use crate::window::WindowShape;

/// Maximum number of nodes an image can hold — the one program-size
/// limit of every interpreter, host and hub alike. 32 covers every
/// fixture and fleet program with slack on an MCU-sized budget, and lets
/// one [`Mask`] word carry a readiness set.
pub const MAX_NODES: usize = 32;

/// A set of nodes, one bit per dense image index.
pub type Mask = u32;

const _: () = assert!(MAX_NODES <= Mask::BITS as usize);

/// Maximum input ports per node (aggregators like `vectorMagnitude` and
/// `allOf` use one port per joined branch).
pub const MAX_PORTS: usize = 8;

/// Maximum sensor channels an image addresses. The host's dense channel
/// index must stay below this.
pub const MAX_CHANNELS: usize = 8;

/// A fixed-capacity storage overflow: the program needs more of `what`
/// than the target provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityError {
    /// Which fixed resource overflowed.
    pub what: &'static str,
    /// How much the program needs.
    pub needed: usize,
    /// How much the target provides.
    pub capacity: usize,
}

impl core::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "capacity exceeded: {} needs {} but only {} available",
            self.what, self.needed, self.capacity
        )
    }
}

impl core::error::Error for CapacityError {}

/// Errors raised while assembling an [`McuImage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageError {
    /// A fixed image table overflowed.
    Capacity(CapacityError),
    /// A node references a producer at or after its own index — the image
    /// must be in define-before-use order.
    ForwardReference {
        /// The referencing node's dense index.
        node: u16,
        /// The referenced producer index.
        src: u16,
    },
    /// A node has no input ports.
    NoSources {
        /// The node's dense index.
        node: u16,
    },
    /// The `OUT` index does not name a node.
    BadOut {
        /// The offending index.
        out: u16,
    },
    /// A channel index at or above [`MAX_CHANNELS`].
    BadChannel {
        /// The referencing node's dense index.
        node: u16,
        /// The offending channel index.
        channel: u8,
    },
}

impl core::fmt::Display for ImageError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ImageError::Capacity(e) => write!(f, "{e}"),
            ImageError::ForwardReference { node, src } => {
                write!(f, "node {node} references source {src} at or after itself")
            }
            ImageError::NoSources { node } => write!(f, "node {node} has no sources"),
            ImageError::BadOut { out } => write!(f, "OUT index {out} names no node"),
            ImageError::BadChannel { node, channel } => {
                write!(
                    f,
                    "node {node} references channel {channel} beyond the image limit"
                )
            }
        }
    }
}

impl core::error::Error for ImageError {}

impl From<CapacityError> for ImageError {
    fn from(e: CapacityError) -> Self {
        ImageError::Capacity(e)
    }
}

/// An input edge in the dense image space: a sensor channel (by the
/// host's dense channel index) or a producing node's image index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortSource {
    /// A sensor channel, by dense index (`< MAX_CHANNELS`).
    Channel(u8),
    /// A node earlier in the image.
    Node(u16),
}

/// The statistics reduced by a `Stat` node — the IR's `StatFn` menu.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatKind {
    /// Arithmetic mean.
    Mean,
    /// Population variance.
    Variance,
    /// Standard deviation.
    StdDev,
    /// Mean absolute value.
    MeanAbs,
    /// Root mean square.
    Rms,
    /// Sum of squares.
    Energy,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Max minus min.
    PeakToPeak,
}

/// One node's algorithm and parameters — the image-side mirror of the
/// IR's `AlgorithmKind`, with window shapes already converted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeKind {
    /// Streaming windower: `size`-sample windows every `hop` samples.
    Window {
        /// Window length in samples.
        size: u32,
        /// Stride between emissions.
        hop: u32,
        /// Taper applied to emitted windows.
        shape: WindowShape,
    },
    /// Forward FFT of an incoming window.
    Fft,
    /// Inverse FFT of an incoming spectrum.
    Ifft,
    /// One-sided magnitude reduction of a spectrum.
    SpectralMagnitude,
    /// Simple moving average over `window` scalars.
    MovingAvg {
        /// Window length.
        window: u32,
    },
    /// Exponential moving average with smoothing factor `alpha`.
    ExpMovingAvg {
        /// Smoothing factor in `(0, 1]`.
        alpha: f64,
    },
    /// FFT low-pass filter on incoming windows.
    LowPass {
        /// Cutoff frequency in Hz (inclusive).
        cutoff_hz: f64,
    },
    /// FFT high-pass filter on incoming windows.
    HighPass {
        /// Cutoff frequency in Hz (inclusive).
        cutoff_hz: f64,
    },
    /// Euclidean norm across all ports at equal sequence tags.
    VectorMagnitude,
    /// Zero-crossing rate of a window.
    Zcr,
    /// Variance of per-sub-window zero-crossing rates.
    ZcrVariance {
        /// Number of equal sub-windows.
        sub_windows: u32,
    },
    /// A window statistic.
    Stat(StatKind),
    /// Dominant-to-mean magnitude ratio of a magnitude spectrum (DC
    /// skipped).
    DominantRatio,
    /// Frequency of the dominant non-DC magnitude bin.
    DominantFreq,
    /// Max Goertzel magnitude over in-band probe frequencies.
    Goertzel {
        /// Band lower edge in Hz (inclusive).
        lo_hz: f64,
        /// Band upper edge in Hz (inclusive).
        hi_hz: f64,
    },
    /// Frequency of the strongest in-band Goertzel probe.
    GoertzelFreq {
        /// Band lower edge in Hz (inclusive).
        lo_hz: f64,
        /// Band upper edge in Hz (inclusive).
        hi_hz: f64,
    },
    /// Peak-to-mean ratio over in-band Goertzel probes.
    GoertzelRatio {
        /// Band lower edge in Hz (inclusive).
        lo_hz: f64,
        /// Band upper edge in Hz (inclusive).
        hi_hz: f64,
    },
    /// Pass values `>= threshold`.
    MinThreshold {
        /// Inclusive lower bound.
        threshold: f64,
    },
    /// Pass values `<= threshold`.
    MaxThreshold {
        /// Inclusive upper bound.
        threshold: f64,
    },
    /// Pass values in `[lo, hi]`.
    BandThreshold {
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// Pass values outside `[lo, hi]`.
    OutsideThreshold {
        /// Inclusive lower bound of the rejected band.
        lo: f64,
        /// Inclusive upper bound of the rejected band.
        hi: f64,
    },
    /// Pass after `count` arrivals no more than `max_gap` sequence units
    /// apart.
    Sustained {
        /// Required streak length.
        count: u32,
        /// Maximum sequence gap between consecutive arrivals.
        max_gap: u64,
    },
    /// AND-join: emit when every port has a value at the same sequence.
    AllOf,
    /// OR-join: emit on any arrival.
    AnyOf,
}

/// One node of the image: algorithm, resolved input edges, input rate, and
/// the consumer mask the interpreter pass propagates readiness with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// The algorithm and its parameters.
    pub kind: NodeKind,
    /// Input edges, dense; only `sources[..port_count]` is meaningful.
    pub sources: [PortSource; MAX_PORTS],
    /// Number of live entries in `sources`.
    pub port_count: u8,
    /// Sample rate of the data arriving on the node's input path.
    pub rate_hz: f64,
    /// Bitmask over image indices of the nodes consuming this output.
    pub consumer_mask: Mask,
}

const EMPTY_SPEC: NodeSpec = NodeSpec {
    kind: NodeKind::AnyOf,
    sources: [PortSource::Channel(0); MAX_PORTS],
    port_count: 0,
    rate_hz: 0.0,
    consumer_mask: 0,
};

/// A complete, loadable program image. Build one with [`ImageBuilder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McuImage {
    nodes: [NodeSpec; MAX_NODES],
    node_count: u16,
    out_index: u16,
    /// Per channel: nodes whose only input is the channel itself, fed
    /// directly by the pass (bits drain in increasing index order).
    direct_feed_masks: [Mask; MAX_CHANNELS],
    /// Per channel: remaining channel-fed nodes, seeding the ready set.
    entry_masks: [Mask; MAX_CHANNELS],
}

impl McuImage {
    /// The zero-node image a fresh [`McuCore`](crate::exec::McuCore)
    /// holds before its first `load`.
    pub const EMPTY: McuImage = McuImage {
        nodes: [EMPTY_SPEC; MAX_NODES],
        node_count: 0,
        out_index: 0,
        direct_feed_masks: [0; MAX_CHANNELS],
        entry_masks: [0; MAX_CHANNELS],
    };

    /// The nodes in dense order.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes[..self.node_count as usize]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count as usize
    }

    /// Dense index of the node feeding `OUT`.
    pub fn out_index(&self) -> usize {
        self.out_index as usize
    }

    /// The direct-feed mask for a channel index.
    pub fn direct_feed_mask(&self, channel: usize) -> Mask {
        self.direct_feed_masks[channel]
    }

    /// The ready-set seed mask for a channel index.
    pub fn entry_mask(&self, channel: usize) -> Mask {
        self.entry_masks[channel]
    }
}

/// Incremental [`McuImage`] assembly in define-before-use order.
#[derive(Debug, Clone)]
pub struct ImageBuilder {
    nodes: [NodeSpec; MAX_NODES],
    count: u16,
}

impl Default for ImageBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ImageBuilder {
    /// Creates an empty builder.
    pub const fn new() -> Self {
        ImageBuilder {
            nodes: [EMPTY_SPEC; MAX_NODES],
            count: 0,
        }
    }

    /// Appends a node, returning its dense index.
    ///
    /// # Errors
    ///
    /// Returns an [`ImageError`] when the node table or port table
    /// overflows, when `sources` is empty or references a node at or
    /// after this one, or when a channel index is out of range.
    pub fn push_node(
        &mut self,
        kind: NodeKind,
        sources: &[PortSource],
        rate_hz: f64,
    ) -> Result<u16, ImageError> {
        let index = self.count;
        if index as usize >= MAX_NODES {
            return Err(CapacityError {
                what: "image nodes",
                needed: index as usize + 1,
                capacity: MAX_NODES,
            }
            .into());
        }
        if sources.is_empty() {
            return Err(ImageError::NoSources { node: index });
        }
        if sources.len() > MAX_PORTS {
            return Err(CapacityError {
                what: "node ports",
                needed: sources.len(),
                capacity: MAX_PORTS,
            }
            .into());
        }
        let mut spec = EMPTY_SPEC;
        spec.kind = kind;
        spec.rate_hz = rate_hz;
        spec.port_count = sources.len() as u8;
        for (slot, &source) in spec.sources.iter_mut().zip(sources) {
            match source {
                PortSource::Channel(c) if (c as usize) < MAX_CHANNELS => {}
                PortSource::Channel(c) => {
                    return Err(ImageError::BadChannel {
                        node: index,
                        channel: c,
                    });
                }
                PortSource::Node(src) if src < index => {}
                PortSource::Node(src) => {
                    return Err(ImageError::ForwardReference { node: index, src });
                }
            }
            *slot = source;
        }
        self.nodes[index as usize] = spec;
        self.count += 1;
        Ok(index)
    }

    /// Finalizes the image: computes consumer masks and the per-channel
    /// direct-feed / entry masks the interpreter pass runs on.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::BadOut`] if `out_index` names no node.
    pub fn finish(mut self, out_index: u16) -> Result<McuImage, ImageError> {
        let count = self.count as usize;
        if out_index as usize >= count {
            return Err(ImageError::BadOut { out: out_index });
        }
        // Consumer masks: every node source edge marks the consumer bit
        // on its producer.
        for i in 0..count {
            let node = self.nodes[i];
            for &source in &node.sources[..node.port_count as usize] {
                if let PortSource::Node(src) = source {
                    self.nodes[src as usize].consumer_mask |= 1 << i;
                }
            }
        }
        let mut direct_feed_masks = [0; MAX_CHANNELS];
        let mut entry_masks = [0; MAX_CHANNELS];
        for (i, node) in self.nodes[..count].iter().enumerate() {
            let ports = &node.sources[..node.port_count as usize];
            if let [PortSource::Channel(c)] = *ports {
                direct_feed_masks[c as usize] |= 1 << i;
            } else {
                for &source in ports {
                    if let PortSource::Channel(c) = source {
                        entry_masks[c as usize] |= 1 << i;
                    }
                }
            }
        }
        Ok(McuImage {
            nodes: self.nodes,
            node_count: self.count,
            out_index,
            direct_feed_masks,
            entry_masks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::string::ToString;

    #[test]
    fn builds_a_simple_chain() {
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
        let image = b.finish(thr).unwrap();
        assert_eq!(image.node_count(), 2);
        assert_eq!(image.out_index(), 1);
        assert_eq!(image.nodes()[0].consumer_mask, 0b10);
        assert_eq!(image.direct_feed_mask(0), 0b01);
        assert_eq!(image.entry_mask(0), 0);
    }

    #[test]
    fn join_nodes_land_in_entry_masks() {
        // Two channel ports on one node: not a direct feed.
        let mut b = ImageBuilder::new();
        let join = b
            .push_node(
                NodeKind::VectorMagnitude,
                &[PortSource::Channel(0), PortSource::Channel(1)],
                50.0,
            )
            .unwrap();
        let image = b.finish(join).unwrap();
        assert_eq!(image.direct_feed_mask(0), 0);
        assert_eq!(image.entry_mask(0), 0b1);
        assert_eq!(image.entry_mask(1), 0b1);
    }

    #[test]
    fn rejects_forward_references_and_bad_out() {
        let mut b = ImageBuilder::new();
        let err = b
            .push_node(NodeKind::AnyOf, &[PortSource::Node(3)], 50.0)
            .unwrap_err();
        assert!(matches!(
            err,
            ImageError::ForwardReference { node: 0, src: 3 }
        ));
        assert!(err.to_string().contains("source 3"));
        let b = ImageBuilder::new();
        assert!(matches!(b.finish(0), Err(ImageError::BadOut { out: 0 })));
    }

    #[test]
    fn rejects_empty_sources_and_bad_channels() {
        let mut b = ImageBuilder::new();
        assert!(matches!(
            b.push_node(NodeKind::AnyOf, &[], 50.0),
            Err(ImageError::NoSources { node: 0 })
        ));
        assert!(matches!(
            b.push_node(NodeKind::AnyOf, &[PortSource::Channel(200)], 50.0),
            Err(ImageError::BadChannel {
                node: 0,
                channel: 200
            })
        ));
    }

    #[test]
    fn node_table_overflow_is_a_capacity_error() {
        let mut b = ImageBuilder::new();
        for _ in 0..MAX_NODES {
            b.push_node(NodeKind::AnyOf, &[PortSource::Channel(0)], 50.0)
                .unwrap();
        }
        let err = b
            .push_node(NodeKind::AnyOf, &[PortSource::Channel(0)], 50.0)
            .unwrap_err();
        match err {
            ImageError::Capacity(c) => {
                assert_eq!(c.what, "image nodes");
                assert_eq!(c.capacity, MAX_NODES);
                assert!(c.to_string().contains("image nodes"));
            }
            other => panic!("expected capacity error, got {other:?}"),
        }
    }
}
