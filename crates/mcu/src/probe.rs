//! The one observability interface, and its event vocabulary.
//!
//! Everything that watches a run implements [`Probe`]: the core reports
//! node runs, payload hand-offs and wakes through its hooks, and the
//! host reports what happens around the core — resets, re-downloads,
//! link frames, dropped samples, degraded mode — as [`Event`]s, moving
//! the probe's trace-time cursor with [`Probe::set_time`]. Nodes are
//! named by their dense image index and channels by their raw index, so
//! the vocabulary needs nothing above this crate; a sink that renders
//! output resolves IR ids from the program's dense order.
//!
//! The probe is a generic parameter everywhere (static dispatch), and
//! every hook a run calls per sample is guarded by
//! [`Probe::ENABLED`]. [`NullSink`] sets it to `false`, so with it every
//! hook constant-folds away and an observed run costs exactly an
//! unobserved one.

use crate::exec::WakeEvent;
use crate::image::MAX_NODES;

/// What happened to one link-frame transfer attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameOutcome {
    /// The frame arrived with a valid CRC.
    Delivered,
    /// The frame arrived corrupted and was discarded.
    Corrupted,
    /// The frame never arrived (detected by timeout).
    Dropped,
}

/// One event the host reports around the core.
///
/// Events are small `Copy` values, so emitting one is a couple of
/// stores; with [`NullSink`] the emission constant-folds away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The hub lost all interpreter state (watchdog reset, reload).
    HubReset,
    /// The phone re-downloaded the wake-up condition after a reset.
    ProgramRedownload,
    /// One transfer attempt of a wake/probe frame on the serial link.
    LinkFrame {
        /// How the attempt ended.
        outcome: FrameOutcome,
        /// 1-based attempt number; anything above 1 is a retry.
        attempt: u32,
    },
    /// A frame was abandoned after the retry budget was exhausted.
    FrameLost,
    /// A fault swallowed one sensor sample before the hub saw it
    /// (hub downtime or a per-channel dropout).
    SampleDropped {
        /// Raw index of the channel the lost sample belonged to.
        channel: u8,
    },
    /// The strategy changed operating mode (degraded duty-cycle fallback
    /// entered or left).
    Degraded {
        /// `true` on entry into degraded mode, `false` on exit.
        entered: bool,
    },
}

/// An observer of runs: the core's hooks and the host's events.
///
/// Every hook defaults to doing nothing, so a probe implements only what
/// it keeps. Call sites guard per-sample hooks on [`Probe::ENABLED`]:
///
/// ```ignore
/// if Pr::ENABLED {
///     probe.node_start(i as u16);
/// }
/// ```
///
/// so a [`NullSink`] run performs no probe work at all.
pub trait Probe {
    /// Whether the probe observes anything. `false` (only
    /// [`NullSink`]) lets the compiler delete every hook.
    const ENABLED: bool = true;

    /// Node `node` (dense image index) is about to run.
    fn node_start(&mut self, _node: u16) {}

    /// Node `node` has run; `produced` says whether it left a fresh
    /// result.
    fn node_end(&mut self, _node: u16, _produced: bool) {}

    /// A consumer borrowed the `len`-element vector or spectrum payload
    /// in `src`'s result slot, in place.
    fn payload(&mut self, _src: u16, _len: usize) {}

    /// The pass that just ended raised `wake` at the `OUT`-feeding node;
    /// reported after the pass's last `node_end`, just before the wake
    /// callback runs.
    fn wake(&mut self, _wake: WakeEvent) {}

    /// The host reports `event`.
    fn record(&mut self, _event: Event) {}

    /// Moves the probe's trace-time cursor to `micros`; probes that
    /// build timelines stamp what follows with it.
    fn set_time(&mut self, _micros: u64) {}
}

/// The disabled probe: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl Probe for NullSink {
    const ENABLED: bool = false;
}

/// Probes pass through mutable references, so a caller can lend one to
/// a run and read it afterwards.
impl<Pr: Probe> Probe for &mut Pr {
    const ENABLED: bool = Pr::ENABLED;

    #[inline(always)]
    fn node_start(&mut self, node: u16) {
        (**self).node_start(node);
    }

    #[inline(always)]
    fn node_end(&mut self, node: u16, produced: bool) {
        (**self).node_end(node, produced);
    }

    #[inline(always)]
    fn payload(&mut self, src: u16, len: usize) {
        (**self).payload(src, len);
    }

    #[inline(always)]
    fn wake(&mut self, wake: WakeEvent) {
        (**self).wake(wake);
    }

    #[inline(always)]
    fn record(&mut self, event: Event) {
        (**self).record(event);
    }

    #[inline(always)]
    fn set_time(&mut self, micros: u64) {
        (**self).set_time(micros);
    }
}

/// Records per-node payload high-water marks and emission counts — the
/// measured side of the `measured ≤ certified` soundness pins.
#[derive(Debug, Clone, Copy)]
pub struct HighWaterProbe {
    /// Largest payload, in elements, a consumer borrowed from each node.
    pub payload_peak: [usize; MAX_NODES],
    /// Fresh results per node since construction.
    pub emissions: [u64; MAX_NODES],
}

impl HighWaterProbe {
    /// A probe with every mark at zero.
    pub const fn new() -> HighWaterProbe {
        HighWaterProbe {
            payload_peak: [0; MAX_NODES],
            emissions: [0; MAX_NODES],
        }
    }
}

impl Default for HighWaterProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe for HighWaterProbe {
    fn node_end(&mut self, node: u16, produced: bool) {
        if produced {
            self.emissions[node as usize] += 1;
        }
    }

    fn payload(&mut self, src: u16, len: usize) {
        let peak = &mut self.payload_peak[src as usize];
        *peak = (*peak).max(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Tally {
        events: usize,
        last_time: u64,
    }

    impl Probe for Tally {
        fn record(&mut self, _event: Event) {
            self.events += 1;
        }
        fn set_time(&mut self, micros: u64) {
            self.last_time = micros;
        }
    }

    #[test]
    fn mut_ref_forwards_and_preserves_enabled() {
        const { assert!(!NullSink::ENABLED) };
        const { assert!(!<&mut NullSink as Probe>::ENABLED) };
        const { assert!(<&mut Tally as Probe>::ENABLED) };
        let mut tally = Tally::default();
        {
            let mut lent = &mut tally;
            <&mut Tally as Probe>::record(&mut lent, Event::HubReset);
            <&mut Tally as Probe>::set_time(&mut lent, 7_000_000);
        }
        assert_eq!(tally.events, 1);
        assert_eq!(tally.last_time, 7_000_000);
    }
}
