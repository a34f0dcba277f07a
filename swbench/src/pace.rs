//! The host's pace, for end-to-end times that hold still on a shared
//! machine.
//!
//! A shared host's speed drifts by tens of percent over seconds to
//! minutes as its neighbours' load comes and goes, so two runs of the
//! same code can differ by more than any useful regression bound. The
//! pace is a fixed loop that shares no code with the system: floating
//! point arithmetic over a cache-resident array, then an unpredictable
//! dispatch over an opcode stream, the two kinds of work the
//! interpreters and kernels do. Every timed unit of work is bracketed by
//! two runs of the loop, and its duration is rescaled by how much slower
//! or faster the loop ran than on the reference machine. A change to the
//! system cannot move the loop, so it moves the rescaled time exactly as
//! it moves the raw one; drift in the host moves both, and cancels.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one run of the loop takes, rounded, on the reference machine
/// (a 2-vCPU Intel Xeon VM at 2.1 GHz). Rescaled times are in seconds
/// at that pace.
const REFERENCE_S: f64 = 1.1e-3;
/// Elements of the arithmetic loop's array: 256 KiB of `f64`.
const VALUES: usize = 1 << 15;
const VALUE_PASSES: usize = 16;
const OPS: usize = 1 << 16;
const OP_PASSES: usize = 6;

/// The pace loop's inputs, made once.
pub struct Pace {
    values: Vec<f64>,
    ops: Vec<u8>,
}

impl Pace {
    pub fn new() -> Pace {
        Pace {
            values: (0..VALUES).map(|i| i as f64 * 1e-4).collect(),
            ops: (0..OPS as u32)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 29) as u8)
                .collect(),
        }
    }

    /// Runs the loop once; returns its wall time in seconds.
    pub fn sample(&self) -> f64 {
        let t = Instant::now();
        let mut acc = 0.0;
        for _ in 0..VALUE_PASSES {
            for &x in black_box(&self.values[..]) {
                acc += ((x * 0.3 + 0.7) * x - 1.1) * x + 0.2;
            }
        }
        let mut r = [1.0f64; 4];
        for _ in 0..OP_PASSES {
            for &op in black_box(&self.ops[..]) {
                match op {
                    0 => r[0] += r[1],
                    1 => r[1] *= 0.999,
                    2 => r[2] = r[0] - r[3],
                    3 => r[3] += 1.0,
                    4 => r[0] *= 1.0001,
                    5 => r[1] += r[2] * 1e-9,
                    6 => r[2] -= 0.5,
                    _ => r[3] = r[3].sqrt(),
                }
            }
        }
        black_box((acc, r));
        t.elapsed().as_secs_f64()
    }

    /// Runs `work` between two samples of the pace. Returns its result,
    /// its wall time, and that time rescaled to the reference pace.
    pub fn time<R>(&self, work: impl FnOnce() -> R) -> (R, Timed) {
        let before = self.sample();
        let t = Instant::now();
        let out = work();
        let raw_s = t.elapsed().as_secs_f64();
        let after = self.sample();
        let paced_s = raw_s * REFERENCE_S / ((before + after) / 2.0);
        (out, Timed { raw_s, paced_s })
    }
}

/// One timed unit of work.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Wall time.
    pub raw_s: f64,
    /// Wall time at the reference pace.
    pub paced_s: f64,
}

impl Timed {
    /// Adds another unit's times.
    pub fn add(&mut self, other: Timed) {
        self.raw_s += other.raw_s;
        self.paced_s += other.paced_s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_work_is_rescaled_by_the_pace() {
        let pace = Pace::new();
        assert!(pace.sample() > 0.0);
        let (v, t) = pace.time(|| (0..1000u64).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(t.raw_s > 0.0 && t.paced_s > 0.0);
        let mut total = Timed::default();
        total.add(t);
        total.add(t);
        assert_eq!(total.raw_s, 2.0 * t.raw_s);
        assert_eq!(total.paced_s, 2.0 * t.paced_s);
    }
}
