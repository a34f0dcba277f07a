//! Per-node counters and timing histograms.

use sidewinder_mcu::{Event, FrameOutcome, Probe, WakeEvent};
use sidewinder_obs::Histogram;
use std::time::Instant;

/// Execution statistics for one pipeline node.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeStats {
    /// Interpreter passes that executed this node.
    pub executions: u64,
    /// Executions that produced a result (set the `hasResult` flag).
    pub productions: u64,
    /// Execution-time histogram, nanoseconds.
    pub timing: Histogram,
}

/// A [`Probe`] that tallies everything: per-node execution counts and
/// timing histograms (dense, in statement order), wake emissions,
/// link-frame outcomes, and fault activity.
///
/// Sized with [`CounterSink::with_nodes`], recording is allocation-free:
/// every event lands in a preallocated slot or a plain integer. (An
/// undersized sink grows its node table on first contact instead of
/// losing data — that growth is the only allocation it can ever make.)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterSink {
    nodes: Vec<NodeStats>,
    /// When the running node started; read by its `node_end`.
    started: Option<Instant>,
    /// Wake-ups raised (values reaching `OUT`).
    pub wakes: u64,
    /// Hub resets observed.
    pub hub_resets: u64,
    /// Program re-downloads after resets.
    pub redownloads: u64,
    /// Link-frame transfer attempts.
    pub frames_sent: u64,
    /// Attempts that arrived corrupted.
    pub frames_corrupted: u64,
    /// Attempts that never arrived.
    pub frames_dropped: u64,
    /// Attempts that were retries (attempt number above one).
    pub frames_retried: u64,
    /// Frames abandoned after the retry budget.
    pub frames_lost: u64,
    /// Sensor samples lost to downtime or channel dropouts.
    pub samples_dropped: u64,
    /// Entries into the degraded duty-cycle fallback.
    pub degraded_entries: u64,
}

impl CounterSink {
    /// An empty sink; the node table grows on demand.
    pub fn new() -> CounterSink {
        CounterSink::default()
    }

    /// A sink preallocated for a program of `nodes` nodes, so recording
    /// never allocates.
    pub fn with_nodes(nodes: usize) -> CounterSink {
        CounterSink {
            nodes: vec![NodeStats::default(); nodes],
            ..CounterSink::default()
        }
    }

    /// Per-node statistics in dense statement order. Nodes the
    /// interpreter never executed keep zero counts.
    pub fn nodes(&self) -> &[NodeStats] {
        &self.nodes
    }

    /// Total node executions across the program.
    pub fn total_executions(&self) -> u64 {
        self.nodes.iter().map(|n| n.executions).sum()
    }

    /// Merged execution-time histogram across all nodes.
    pub fn total_timing(&self) -> Histogram {
        let mut total = Histogram::new();
        for n in &self.nodes {
            total.merge(&n.timing);
        }
        total
    }
}

impl Probe for CounterSink {
    fn node_start(&mut self, _node: u16) {
        self.started = Some(Instant::now());
    }

    fn node_end(&mut self, node: u16, produced: bool) {
        let index = node as usize;
        if index >= self.nodes.len() {
            self.nodes.resize(index + 1, NodeStats::default());
        }
        let stats = &mut self.nodes[index];
        stats.executions += 1;
        stats.productions += u64::from(produced);
        stats.timing.record(
            self.started
                .take()
                .map_or(0, |t| t.elapsed().as_nanos() as u64),
        );
    }

    fn wake(&mut self, _wake: WakeEvent) {
        self.wakes += 1;
    }

    fn record(&mut self, event: Event) {
        match event {
            Event::HubReset => self.hub_resets += 1,
            Event::ProgramRedownload => self.redownloads += 1,
            Event::LinkFrame { outcome, attempt } => {
                self.frames_sent += 1;
                self.frames_retried += u64::from(attempt > 1);
                match outcome {
                    FrameOutcome::Delivered => {}
                    FrameOutcome::Corrupted => self.frames_corrupted += 1,
                    FrameOutcome::Dropped => self.frames_dropped += 1,
                }
            }
            Event::FrameLost => self.frames_lost += 1,
            Event::SampleDropped { .. } => self.samples_dropped += 1,
            Event::Degraded { entered } => self.degraded_entries += u64::from(entered),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_runs_land_in_dense_slots() {
        let mut sink = CounterSink::with_nodes(2);
        for (node, produced) in [(0, true), (0, false), (1, true)] {
            sink.node_start(node);
            sink.node_end(node, produced);
        }
        assert_eq!(sink.nodes()[0].executions, 2);
        assert_eq!(sink.nodes()[0].productions, 1);
        assert_eq!(sink.nodes()[0].timing.count(), 2);
        assert_eq!(sink.nodes()[1].executions, 1);
        assert_eq!(sink.total_executions(), 3);
        assert_eq!(sink.total_timing().count(), 3);
    }

    #[test]
    fn undersized_sink_grows_instead_of_dropping() {
        let mut sink = CounterSink::new();
        sink.node_start(3);
        sink.node_end(3, true);
        assert_eq!(sink.nodes().len(), 4);
        assert_eq!(sink.nodes()[3].executions, 1);
        assert_eq!(sink.nodes()[0].executions, 0);
    }

    #[test]
    fn link_and_fault_events_tally() {
        let mut sink = CounterSink::new();
        sink.record(Event::LinkFrame {
            outcome: FrameOutcome::Corrupted,
            attempt: 1,
        });
        sink.record(Event::LinkFrame {
            outcome: FrameOutcome::Delivered,
            attempt: 2,
        });
        sink.record(Event::LinkFrame {
            outcome: FrameOutcome::Dropped,
            attempt: 1,
        });
        sink.record(Event::FrameLost);
        sink.record(Event::HubReset);
        sink.record(Event::ProgramRedownload);
        sink.record(Event::SampleDropped { channel: 3 });
        sink.record(Event::Degraded { entered: true });
        sink.record(Event::Degraded { entered: false });
        sink.wake(WakeEvent { seq: 0, value: 1.0 });
        assert_eq!(sink.frames_sent, 3);
        assert_eq!(sink.frames_corrupted, 1);
        assert_eq!(sink.frames_dropped, 1);
        assert_eq!(sink.frames_retried, 1);
        assert_eq!(sink.frames_lost, 1);
        assert_eq!(sink.hub_resets, 1);
        assert_eq!(sink.redownloads, 1);
        assert_eq!(sink.samples_dropped, 1);
        assert_eq!(sink.degraded_entries, 1);
        assert_eq!(sink.wakes, 1);
    }
}
