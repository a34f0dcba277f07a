//! Threshold self-tuning from wake-up feedback (paper §7).
//!
//! "Given feedback from the more complex algorithms running on the
//! application level, self-learning mechanisms may be able to tune the
//! parameters used on the wake-up conditions. It is easy to imagine an
//! application notifying the sensor hub about wake-ups when events of
//! interest were not actually detected (i.e. false positives)."
//!
//! [`tune_final_threshold`] implements that loop offline: it sweeps the
//! final admission-control threshold of a wake-up condition over a
//! calibration trace, measuring per-candidate recall (did every event of
//! interest still produce a wake?) and wake-up count (the false-positive
//! proxy the application reports), and returns the most selective
//! threshold that keeps recall at 100 %. The paper's caution also holds
//! here: tightening can only use observed wake-ups, so the search never
//! proposes a threshold that would have missed an event on the
//! calibration trace, but it cannot rule out misses on unseen data.

use sidewinder_ir::{AlgorithmKind, NodeId, Program, Stmt};
use sidewinder_sensors::{EventKind, Micros, SensorTrace};
use sidewinder_sim::engine::hub_wake_times;

/// One candidate evaluated during tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The threshold value tried.
    pub threshold: f64,
    /// Wake-ups raised over the calibration trace.
    pub wake_ups: u64,
    /// Fraction of target events that produced at least one wake.
    pub recall: f64,
}

/// The tuning outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// The re-parameterized program.
    pub program: Program,
    /// The chosen threshold.
    pub chosen: Candidate,
    /// Every candidate evaluated, in sweep order.
    pub sweep: Vec<Candidate>,
}

/// Errors raised by tuning.
#[derive(Debug, Clone, PartialEq)]
pub enum TuneError {
    /// The program's final node (feeding `OUT`) is not a tunable
    /// threshold (min, max, or symmetric outside band).
    NotAThreshold,
    /// The calibration trace has no events of the target kinds.
    NoEvents,
    /// The hub could not run a candidate program.
    Hub(String),
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::NotAThreshold => {
                write!(
                    f,
                    "the wake-up condition does not end in a tunable threshold"
                )
            }
            TuneError::NoEvents => write!(f, "calibration trace has no target events"),
            TuneError::Hub(e) => write!(f, "hub failure during tuning: {e}"),
        }
    }
}

impl std::error::Error for TuneError {}

/// Sweeps the final threshold of `program` across `candidates` and picks
/// the most selective value that preserves 100 % recall of `kinds` on the
/// calibration trace.
///
/// # Errors
///
/// See [`TuneError`].
pub fn tune_final_threshold(
    program: &Program,
    trace: &SensorTrace,
    kinds: &[EventKind],
    candidates: &[f64],
    tolerance: Micros,
) -> Result<TuneResult, TuneError> {
    let out = program.out_source().ok_or(TuneError::NotAThreshold)?;
    let is_tunable = program.nodes().any(|(_, id, kind)| {
        id == out
            && matches!(
                kind,
                AlgorithmKind::MinThreshold { .. }
                    | AlgorithmKind::MaxThreshold { .. }
                    | AlgorithmKind::OutsideThreshold { .. }
            )
    });
    if !is_tunable {
        return Err(TuneError::NotAThreshold);
    }
    let events: Vec<_> = kinds
        .iter()
        .flat_map(|&k| trace.ground_truth().of_kind(k))
        .collect();
    if events.is_empty() {
        return Err(TuneError::NoEvents);
    }

    let mut sweep = Vec::new();
    let mut best: Option<(Candidate, Program)> = None;
    for &threshold in candidates {
        let tuned = retarget(program, out, threshold);
        let wake_times =
            hub_wake_times(trace, &tuned).map_err(|e| TuneError::Hub(e.to_string()))?;
        let recalled = events
            .iter()
            .filter(|ev| {
                let lo = ev.start().saturating_sub(tolerance);
                let hi = ev.end() + tolerance;
                wake_times.iter().any(|&w| w >= lo && w < hi)
            })
            .count();
        let candidate = Candidate {
            threshold,
            wake_ups: wake_times.len() as u64,
            recall: recalled as f64 / events.len() as f64,
        };
        sweep.push(candidate);
        if candidate.recall >= 1.0 {
            // Ties go to the later (more selective) candidate.
            let better = match &best {
                None => true,
                Some((cur, _)) => candidate.wake_ups <= cur.wake_ups,
            };
            if better {
                best = Some((candidate, tuned));
            }
        }
    }
    let (chosen, program) = best.ok_or_else(|| {
        TuneError::Hub("no candidate threshold preserved 100% recall".to_string())
    })?;
    Ok(TuneResult {
        program,
        chosen,
        sweep,
    })
}

/// Rewrites the threshold parameter of node `target`.
fn retarget(program: &Program, target: NodeId, threshold: f64) -> Program {
    let stmts: Vec<Stmt> = program
        .stmts()
        .iter()
        .map(|stmt| match stmt {
            Stmt::Node {
                sources,
                id,
                kind,
                line,
            } if *id == target => {
                let kind = match kind {
                    AlgorithmKind::MinThreshold { .. } => AlgorithmKind::MinThreshold { threshold },
                    AlgorithmKind::MaxThreshold { .. } => AlgorithmKind::MaxThreshold { threshold },
                    // For the complement band, the candidate is the
                    // symmetric band half-width.
                    AlgorithmKind::OutsideThreshold { .. } => AlgorithmKind::OutsideThreshold {
                        lo: -threshold,
                        hi: threshold,
                    },
                    other => *other,
                };
                Stmt::Node {
                    sources: sources.clone(),
                    id: *id,
                    kind,
                    line: *line,
                }
            }
            other => other.clone(),
        })
        .collect();
    Program::from_stmts(stmts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidewinder_sensors::{GroundTruth, LabeledInterval, SensorChannel, TimeSeries};

    /// Events of amplitude 6 at t=10 and t=20; noise bursts of amplitude
    /// 3 elsewhere that a lax threshold wakes on.
    fn calibration_trace() -> SensorTrace {
        let rate = 50.0;
        let mut x = vec![0.0f64; 30 * 50];
        let mut gt = GroundTruth::new();
        for (start, amp, label) in [
            (5u64, 3.0, false),
            (10, 6.0, true),
            (15, 3.0, false),
            (20, 6.0, true),
            (25, 3.0, false),
        ] {
            for sample in &mut x[(start * 50) as usize..((start + 1) * 50) as usize] {
                *sample = amp;
            }
            if label {
                gt.push(
                    LabeledInterval::new(
                        EventKind::Headbutt,
                        Micros::from_secs(start),
                        Micros::from_secs(start + 1),
                    )
                    .unwrap(),
                );
            }
        }
        let mut trace = SensorTrace::new("calib");
        trace.insert(
            SensorChannel::AccX,
            TimeSeries::from_samples(rate, x).unwrap(),
        );
        *trace.ground_truth_mut() = gt;
        trace
    }

    fn lax_program() -> Program {
        "ACC_X -> movingAvg(id=1, params={2});
         1 -> minThreshold(id=2, params={1});
         2 -> OUT;"
            .parse()
            .unwrap()
    }

    #[test]
    fn tightens_to_drop_false_positives() {
        let result = tune_final_threshold(
            &lax_program(),
            &calibration_trace(),
            &[EventKind::Headbutt],
            &[1.0, 2.0, 4.0, 5.0, 7.0],
            Micros::from_secs(1),
        )
        .unwrap();
        // 7.0 misses the events; 4.0 and 5.0 keep recall and drop the
        // noise bursts; the most selective recall-preserving one wins.
        assert_eq!(result.chosen.threshold, 5.0);
        assert_eq!(result.chosen.recall, 1.0);
        assert_eq!(result.sweep.len(), 5);
        // The lax candidate wakes more often than the chosen one.
        assert!(result.sweep[0].wake_ups > result.chosen.wake_ups);
        // Recall collapses past the event amplitude.
        assert_eq!(result.sweep[4].recall, 0.0);
        // The tuned program carries the new parameter.
        assert!(result.program.to_string().contains("params={5}"));
    }

    #[test]
    fn refuses_untunable_programs() {
        let program: Program = "ACC_X -> movingAvg(id=1, params={2});
             1 -> bandThreshold(id=2, params={0, 1});
             2 -> OUT;"
            .parse()
            .unwrap();
        let err = tune_final_threshold(
            &program,
            &calibration_trace(),
            &[EventKind::Headbutt],
            &[1.0],
            Micros::from_secs(1),
        )
        .unwrap_err();
        assert_eq!(err, TuneError::NotAThreshold);
    }

    #[test]
    fn refuses_eventless_traces() {
        let mut trace = calibration_trace();
        *trace.ground_truth_mut() = GroundTruth::new();
        let err = tune_final_threshold(
            &lax_program(),
            &trace,
            &[EventKind::Headbutt],
            &[1.0],
            Micros::from_secs(1),
        )
        .unwrap_err();
        assert_eq!(err, TuneError::NoEvents);
    }

    #[test]
    fn reports_when_nothing_preserves_recall() {
        let err = tune_final_threshold(
            &lax_program(),
            &calibration_trace(),
            &[EventKind::Headbutt],
            &[50.0],
            Micros::from_secs(1),
        )
        .unwrap_err();
        assert!(err.to_string().contains("recall"));
    }
}
