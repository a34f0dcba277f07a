//! Event timeline collection and `chrome://tracing` export.
//!
//! [`TimelineSink`] timestamps events against *simulated* trace time (the
//! engine moves the cursor with [`Probe::set_time`] as it replays
//! samples), so exported timelines are deterministic modulo the measured
//! per-node durations. [`TimelineSink::chrome_json`] renders the Trace
//! Event Format JSON that `chrome://tracing` / Perfetto open directly:
//! node executions become duration (`"X"`) slices on one row per node,
//! wakes and faults become instant events.

use sidewinder_mcu::{Event, FrameOutcome, Probe, WakeEvent};
use sidewinder_sensors::Micros;
use std::time::Instant;

/// One timestamped entry in the collected timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimelineEvent {
    /// A node execution at simulated time `ts` taking `dur_ns` of
    /// measured wall-clock interpreter time.
    Node {
        /// Simulated time of the triggering sample.
        ts: Micros,
        /// Dense statement-order node index.
        index: usize,
        /// Measured execution time, nanoseconds.
        dur_ns: u64,
        /// Whether the execution produced a result.
        produced: bool,
    },
    /// A wake-up emission.
    Wake {
        /// Simulated time.
        ts: Micros,
        /// Value delivered to `OUT`.
        value: f64,
    },
    /// A hub reset.
    Reset {
        /// Simulated time.
        ts: Micros,
    },
    /// A link-frame transfer attempt.
    Frame {
        /// Simulated time.
        ts: Micros,
        /// How the attempt ended.
        outcome: FrameOutcome,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// A degraded-mode transition.
    Degraded {
        /// Simulated time.
        ts: Micros,
        /// `true` on entry, `false` on exit.
        entered: bool,
    },
}

impl TimelineEvent {
    fn ts(&self) -> Micros {
        match *self {
            TimelineEvent::Node { ts, .. }
            | TimelineEvent::Wake { ts, .. }
            | TimelineEvent::Reset { ts }
            | TimelineEvent::Frame { ts, .. }
            | TimelineEvent::Degraded { ts, .. } => ts,
        }
    }
}

/// Default cap on collected events (~56 MB of entries) so an unexpectedly
/// chatty run degrades to truncation instead of unbounded memory growth.
const DEFAULT_LIMIT: usize = 2_000_000;

/// A [`Probe`] that collects a timestamped event timeline for one
/// simulation run.
#[derive(Debug, Clone)]
pub struct TimelineSink {
    now: Micros,
    /// When the running node started; read by its `node_end`.
    started: Option<Instant>,
    events: Vec<TimelineEvent>,
    limit: usize,
    /// Events discarded after the cap was hit.
    pub truncated: u64,
}

impl Default for TimelineSink {
    fn default() -> Self {
        TimelineSink::new()
    }
}

impl TimelineSink {
    /// An empty timeline with the default event cap.
    pub fn new() -> TimelineSink {
        TimelineSink {
            now: Micros::ZERO,
            started: None,
            events: Vec::new(),
            limit: DEFAULT_LIMIT,
            truncated: 0,
        }
    }

    /// Overrides the event cap (mainly for tests).
    pub fn with_limit(limit: usize) -> TimelineSink {
        TimelineSink {
            limit,
            ..TimelineSink::new()
        }
    }

    /// The collected events in emission order.
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    fn push(&mut self, event: TimelineEvent) {
        if self.events.len() < self.limit {
            self.events.push(event);
        } else {
            self.truncated += 1;
        }
    }

    /// Renders the Trace Event Format JSON for `chrome://tracing`.
    ///
    /// `node_names` labels the per-node rows in dense statement order;
    /// missing entries fall back to `node<i>`. All content is generated
    /// (node labels come from the IR), so no JSON escaping is needed.
    pub fn chrome_json(&self, node_names: &[String]) -> String {
        use std::fmt::Write as _;
        let name_of = |i: usize| -> String {
            node_names
                .get(i)
                .cloned()
                .unwrap_or_else(|| format!("node{i}"))
        };
        let mut out = String::from("{\"traceEvents\":[\n");
        // Thread-name metadata: tid 1.. = nodes, 0 = wake/control row,
        // nodes+1 = link row.
        let link_tid = node_names.len() + 1;
        let _ = writeln!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":\"hub control\"}}}},"
        );
        for (i, _) in node_names.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}},",
                i + 1,
                name_of(i)
            );
        }
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{link_tid},\
             \"args\":{{\"name\":\"serial link\"}}}}"
        );
        for event in &self.events {
            out.push_str(",\n");
            let ts = event.ts().as_micros();
            match *event {
                TimelineEvent::Node {
                    index,
                    dur_ns,
                    produced,
                    ..
                } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"{}\",\"cat\":\"node\",\"ph\":\"X\",\"ts\":{ts},\
                         \"dur\":{:.3},\"pid\":1,\"tid\":{},\
                         \"args\":{{\"produced\":{produced}}}}}",
                        name_of(index),
                        dur_ns as f64 / 1_000.0,
                        index + 1,
                    );
                }
                TimelineEvent::Wake { value, .. } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"wake\",\"cat\":\"wake\",\"ph\":\"i\",\"ts\":{ts},\
                         \"pid\":1,\"tid\":0,\"s\":\"p\",\"args\":{{\"value\":{value}}}}}"
                    );
                }
                TimelineEvent::Reset { .. } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"hub reset\",\"cat\":\"fault\",\"ph\":\"i\",\"ts\":{ts},\
                         \"pid\":1,\"tid\":0,\"s\":\"p\"}}"
                    );
                }
                TimelineEvent::Frame {
                    outcome, attempt, ..
                } => {
                    let label = match outcome {
                        FrameOutcome::Delivered => "frame delivered",
                        FrameOutcome::Corrupted => "frame corrupted",
                        FrameOutcome::Dropped => "frame dropped",
                    };
                    let _ = write!(
                        out,
                        "{{\"name\":\"{label}\",\"cat\":\"link\",\"ph\":\"i\",\"ts\":{ts},\
                         \"pid\":1,\"tid\":{link_tid},\"s\":\"t\",\
                         \"args\":{{\"attempt\":{attempt}}}}}"
                    );
                }
                TimelineEvent::Degraded { entered, .. } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"degraded mode\",\"cat\":\"strategy\",\"ph\":\"{}\",\
                         \"ts\":{ts},\"pid\":1,\"tid\":0}}",
                        if entered { "B" } else { "E" },
                    );
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Probe for TimelineSink {
    fn node_start(&mut self, _node: u16) {
        self.started = Some(Instant::now());
    }

    fn node_end(&mut self, node: u16, produced: bool) {
        let dur_ns = self
            .started
            .take()
            .map_or(0, |t| t.elapsed().as_nanos() as u64);
        self.push(TimelineEvent::Node {
            ts: self.now,
            index: node as usize,
            dur_ns,
            produced,
        });
    }

    fn wake(&mut self, wake: WakeEvent) {
        self.push(TimelineEvent::Wake {
            ts: self.now,
            value: wake.value,
        });
    }

    fn record(&mut self, event: Event) {
        let ts = self.now;
        match event {
            Event::HubReset => self.push(TimelineEvent::Reset { ts }),
            Event::LinkFrame { outcome, attempt } => self.push(TimelineEvent::Frame {
                ts,
                outcome,
                attempt,
            }),
            Event::Degraded { entered } => self.push(TimelineEvent::Degraded { ts, entered }),
            // Pure tallies don't need timeline rows.
            Event::ProgramRedownload | Event::FrameLost | Event::SampleDropped { .. } => {}
        }
    }

    fn set_time(&mut self, micros: u64) {
        self.now = Micros::from_micros(micros);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WAKE: WakeEvent = WakeEvent { seq: 0, value: 1.0 };

    #[test]
    fn events_are_stamped_with_the_cursor() {
        let mut sink = TimelineSink::new();
        sink.set_time(20_000);
        sink.node_start(0);
        sink.node_end(0, true);
        sink.set_time(40_000);
        sink.wake(WAKE);
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.events()[0].ts(), Micros::from_millis(20));
        assert_eq!(sink.events()[1].ts(), Micros::from_millis(40));
    }

    #[test]
    fn limit_truncates_instead_of_growing() {
        let mut sink = TimelineSink::with_limit(1);
        for _ in 0..3 {
            sink.record(Event::HubReset);
        }
        assert_eq!(sink.events().len(), 1);
        assert_eq!(sink.truncated, 2);
    }

    #[test]
    fn chrome_json_is_structurally_sound() {
        let mut sink = TimelineSink::new();
        sink.set_time(1_000_000);
        sink.node_start(0);
        sink.node_end(0, true);
        sink.wake(WAKE);
        sink.record(Event::LinkFrame {
            outcome: FrameOutcome::Corrupted,
            attempt: 2,
        });
        sink.record(Event::Degraded { entered: true });
        sink.record(Event::Degraded { entered: false });
        let json = sink.chrome_json(&["movingAvg#1".to_string()]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"movingAvg#1\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"wake\""));
        assert!(json.contains("frame corrupted"));
        assert!(json.contains("\"ph\":\"B\""));
        // Balanced braces/brackets (no raw braces inside generated labels).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
