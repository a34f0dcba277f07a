//! Deterministic fault injection for the phone↔hub channel.
//!
//! The paper's prototype hangs the whole wake-up architecture off an
//! audio-jack UART (§3.4) and a microcontroller that can brown out; a
//! production deployment has to survive corrupted frames, dropped frames,
//! watchdog resets, and sensors that stop reporting. This module provides
//! the *injection* side of that story: a [`FaultSchedule`] describes which
//! faults strike and when, and [`FaultSchedule::plan`] expands it into a
//! concrete, fully deterministic [`FaultPlan`] the simulator consumes.
//!
//! Determinism is load-bearing. The PR 1 conformance suite promises that
//! simulation results are bit-identical across worker counts, so nothing
//! here may consult the wall clock or any global randomness: all
//! rate-based decisions come from a seeded xorshift generator owned by the
//! plan, and every explicit fault is an absolute [`Micros`] timestamp.
//! Two plans built from the same schedule over the same horizon are equal;
//! a schedule with no faults configured injects nothing at all.

use sidewinder_mcu::FrameOutcome;
use sidewinder_sensors::{Micros, SensorChannel};

/// Bytes in the hub→phone wake notification frame (event id, sequence
/// tag, triggering value, buffer descriptor).
pub const WAKE_FRAME_BYTES: usize = 64;

/// Bytes in a phone→hub health-probe frame and its echoed reply.
pub const PROBE_FRAME_BYTES: usize = 8;

/// Time for the hub microcontroller to reboot after a watchdog reset,
/// before it can accept a program re-download.
pub const HUB_REBOOT_TIME: Micros = Micros::from_millis(200);

/// A small xorshift64* generator (Vigna 2016): three shifts and a
/// multiply, no allocation, no wall clock — the determinism workhorse
/// behind rate-based fault injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Seeds the generator; a zero seed (the xorshift fixed point) is
    /// replaced by a golden-ratio constant.
    pub fn new(seed: u64) -> Self {
        FaultRng {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform draw in `[0, 1)` built from the top 53 bits.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// One Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_unit() < p
    }
}

/// How the phone paces frame retransmissions: capped exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total transfer attempts per frame, including the first.
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_backoff: Micros,
    /// Ceiling on the per-retry delay.
    pub max_backoff: Micros,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Micros::from_millis(10),
            max_backoff: Micros::from_millis(160),
        }
    }
}

impl RetryPolicy {
    /// The backoff delay before retry number `retry` (1-based): doubles
    /// each time, capped at [`RetryPolicy::max_backoff`].
    pub fn backoff_before(&self, retry: u32) -> Micros {
        let factor = 1u64 << (retry.saturating_sub(1)).min(20);
        Micros(self.base_backoff.0.saturating_mul(factor)).min(self.max_backoff)
    }
}

/// A window during which one sensor channel reports nothing to the hub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelDropout {
    /// The silent channel.
    pub channel: SensorChannel,
    /// Dropout start (inclusive).
    pub start: Micros,
    /// Dropout end (exclusive).
    pub end: Micros,
}

impl ChannelDropout {
    /// A dropout of `channel` over `[start, end)`.
    pub fn new(channel: SensorChannel, start: Micros, end: Micros) -> Self {
        ChannelDropout {
            channel,
            start,
            end,
        }
    }

    /// Whether `t` falls inside the dropout.
    pub fn contains(&self, t: Micros) -> bool {
        t >= self.start && t < self.end
    }
}

/// A declarative fault configuration: rates and explicit timestamps, all
/// derived from one seed — no wall clock anywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    seed: u64,
    frame_corruption_rate: f64,
    frame_drop_rate: f64,
    hub_resets_at: Vec<Micros>,
    hub_reset_mean_interval: Option<Micros>,
    hub_downtime: Vec<(Micros, Micros)>,
    dropouts: Vec<ChannelDropout>,
    retry: RetryPolicy,
}

impl Default for FaultSchedule {
    fn default() -> Self {
        FaultSchedule::none()
    }
}

impl FaultSchedule {
    /// The empty schedule: injects nothing, leaves every simulation
    /// bit-identical to the fault-free path.
    pub fn none() -> Self {
        FaultSchedule {
            seed: 0,
            frame_corruption_rate: 0.0,
            frame_drop_rate: 0.0,
            hub_resets_at: Vec::new(),
            hub_reset_mean_interval: None,
            hub_downtime: Vec::new(),
            dropouts: Vec::new(),
            retry: RetryPolicy::default(),
        }
    }

    /// An empty schedule carrying a PRNG seed for rate-based faults.
    pub fn seeded(seed: u64) -> Self {
        FaultSchedule {
            seed,
            ..FaultSchedule::none()
        }
    }

    /// Sets the per-frame probability that a transfer arrives with a CRC
    /// mismatch. Clamped to `[0, 1]`.
    pub fn with_frame_corruption(mut self, rate: f64) -> Self {
        self.frame_corruption_rate = clamp_rate(rate);
        self
    }

    /// Sets the per-frame probability that a transfer vanishes entirely
    /// (detected by timeout rather than CRC). Clamped to `[0, 1]`.
    pub fn with_frame_drops(mut self, rate: f64) -> Self {
        self.frame_drop_rate = clamp_rate(rate);
        self
    }

    /// Adds an explicit watchdog reset at `t`.
    pub fn with_hub_reset_at(mut self, t: Micros) -> Self {
        self.hub_resets_at.push(t);
        self
    }

    /// Enables rate-based watchdog resets with the given mean interval
    /// (jittered deterministically from the seed).
    pub fn with_hub_resets_every(mut self, mean_interval: Micros) -> Self {
        self.hub_reset_mean_interval = Some(mean_interval);
        self
    }

    /// Adds an explicit hub outage over `[start, end)`: the hub delivers
    /// no wake-ups and consumes no samples (a brown-out, a wedged MCU, a
    /// yanked audio jack).
    pub fn with_hub_downtime(mut self, start: Micros, end: Micros) -> Self {
        self.hub_downtime.push((start, end));
        self
    }

    /// Adds an explicit sensor-channel dropout window.
    pub fn with_dropout(mut self, dropout: ChannelDropout) -> Self {
        self.dropouts.push(dropout);
        self
    }

    /// Overrides the retry/backoff policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The retry policy in force.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// Whether the schedule injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.frame_corruption_rate == 0.0
            && self.frame_drop_rate == 0.0
            && self.hub_resets_at.is_empty()
            && self.hub_reset_mean_interval.is_none()
            && self.hub_downtime.is_empty()
            && self.dropouts.is_empty()
    }

    /// Expands the schedule into a concrete plan over `[0, duration)`.
    ///
    /// `recovery` is how long the hub stays unusable after each watchdog
    /// reset (reboot plus program re-download plus health probe, as
    /// modeled by the caller). Rate-based resets are placed by walking
    /// the horizon with seed-jittered intervals, so the same schedule and
    /// horizon always yield the same plan.
    pub fn plan(&self, duration: Micros, recovery: Micros) -> FaultPlan {
        let mut rng = FaultRng::new(self.seed);
        let mut resets: Vec<Micros> = self
            .hub_resets_at
            .iter()
            .copied()
            .filter(|&t| t < duration)
            .collect();
        if let Some(mean) = self.hub_reset_mean_interval {
            let mut t = Micros::ZERO;
            loop {
                // Jittered interval in [mean/2, 3·mean/2): mean-preserving
                // without needing a log for a true exponential draw.
                let jitter = Micros::from_secs_f64(mean.as_secs_f64() * rng.next_unit());
                t = t + mean / 2 + jitter;
                if t >= duration {
                    break;
                }
                resets.push(t);
            }
        }
        resets.sort();
        resets.dedup();

        let mut downtime: Vec<(Micros, Micros)> = resets
            .iter()
            .map(|&t| (t, (t + recovery).min(duration)))
            .chain(
                self.hub_downtime
                    .iter()
                    .map(|&(s, e)| (s.min(duration), e.min(duration)))
                    .filter(|&(s, e)| s < e),
            )
            .collect();
        downtime.sort();
        let downtime = merge_windows(downtime);

        let mut dropouts: Vec<ChannelDropout> = self
            .dropouts
            .iter()
            .filter(|d| d.start < duration && d.start < d.end)
            .map(|d| ChannelDropout {
                end: d.end.min(duration),
                ..*d
            })
            .collect();
        dropouts.sort_by_key(|d| (d.channel.index(), d.start));

        FaultPlan {
            resets,
            recovery,
            downtime,
            dropouts,
            corruption_rate: self.frame_corruption_rate,
            drop_rate: self.frame_drop_rate,
            retry: self.retry,
            rng,
        }
    }
}

fn clamp_rate(rate: f64) -> f64 {
    if rate.is_finite() {
        rate.clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// Coalesces sorted, possibly-overlapping windows.
fn merge_windows(sorted: Vec<(Micros, Micros)>) -> Vec<(Micros, Micros)> {
    let mut out: Vec<(Micros, Micros)> = Vec::with_capacity(sorted.len());
    for (s, e) in sorted {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// A schedule expanded over a concrete horizon: explicit reset instants,
/// merged hub-downtime windows, per-channel dropout windows, and an owned
/// generator for per-frame fates. Consumed mutably by one simulation run;
/// clone the plan (or re-plan the schedule) for another run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    resets: Vec<Micros>,
    recovery: Micros,
    downtime: Vec<(Micros, Micros)>,
    dropouts: Vec<ChannelDropout>,
    corruption_rate: f64,
    drop_rate: f64,
    retry: RetryPolicy,
    rng: FaultRng,
}

impl FaultPlan {
    /// Watchdog reset instants, sorted ascending.
    pub fn resets(&self) -> &[Micros] {
        &self.resets
    }

    /// How long the hub stays unusable after each reset (the `recovery`
    /// the plan was built with).
    pub fn recovery(&self) -> Micros {
        self.recovery
    }

    /// Merged windows during which the hub is unusable.
    pub fn downtime(&self) -> &[(Micros, Micros)] {
        &self.downtime
    }

    /// The retry policy in force.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// What the plan does to a sample of `channel` at `t`, and for how
    /// long: whether the sample reaches the hub (the hub is up and the
    /// channel is not in a dropout), and the first instant after `t` at
    /// which that can change or a reset falls due — a reset instant, a
    /// downtime edge or an edge of one of the channel's dropouts;
    /// [`Micros::MAX`] if none. Every sample of `channel` in `[t, until)`
    /// meets the same state with no reset due between them.
    pub fn channel_state(&self, channel: SensorChannel, t: Micros) -> (bool, Micros) {
        let dropouts = || self.dropouts.iter().filter(|d| d.channel == channel);
        let live = !self.downtime.iter().any(|&(s, e)| t >= s && t < e)
            && !dropouts().any(|d| d.contains(t));
        let until = self
            .resets
            .iter()
            .copied()
            .chain(self.downtime.iter().flat_map(|&(s, e)| [s, e]))
            .chain(dropouts().flat_map(|d| [d.start, d.end]))
            .filter(|&edge| edge > t)
            .min()
            .unwrap_or(Micros::MAX);
        (live, until)
    }

    /// Draws the fate of the next frame transfer attempt. Corruption is
    /// checked before loss, so one attempt consumes one or two draws —
    /// always in the same order, keeping runs reproducible.
    pub fn next_frame_fate(&mut self) -> FrameOutcome {
        if self.rng.chance(self.corruption_rate) {
            FrameOutcome::Corrupted
        } else if self.rng.chance(self.drop_rate) {
            FrameOutcome::Dropped
        } else {
            FrameOutcome::Delivered
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_uniformish() {
        let mut a = FaultRng::new(42);
        let mut b = FaultRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = FaultRng::new(42);
        let mean: f64 = (0..10_000).map(|_| c.next_unit()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn zero_seed_is_not_a_fixed_point() {
        let mut rng = FaultRng::new(0);
        assert_ne!(rng.next_u64(), 0);
        assert_ne!(rng.next_u64(), rng.next_u64());
    }

    #[test]
    fn empty_schedule_plans_nothing() {
        let plan = FaultSchedule::none().plan(Micros::from_secs(600), Micros::from_millis(300));
        assert!(FaultSchedule::none().is_empty());
        assert!(plan.resets().is_empty());
        assert!(plan.downtime().is_empty());
        assert_eq!(
            plan.channel_state(SensorChannel::AccX, Micros::from_secs(1)),
            (true, Micros::MAX)
        );
        let mut plan = plan;
        for _ in 0..32 {
            assert_eq!(plan.next_frame_fate(), FrameOutcome::Delivered);
        }
    }

    #[test]
    fn plans_are_reproducible() {
        let schedule = FaultSchedule::seeded(7)
            .with_frame_corruption(0.3)
            .with_frame_drops(0.2)
            .with_hub_resets_every(Micros::from_secs(60));
        let mut a = schedule.plan(Micros::from_secs(600), Micros::from_millis(300));
        let mut b = schedule.plan(Micros::from_secs(600), Micros::from_millis(300));
        assert_eq!(a, b);
        assert!(!a.resets().is_empty());
        for _ in 0..100 {
            assert_eq!(a.next_frame_fate(), b.next_frame_fate());
        }
    }

    #[test]
    fn explicit_resets_open_downtime_windows() {
        let plan = FaultSchedule::seeded(1)
            .with_hub_reset_at(Micros::from_secs(10))
            .plan(Micros::from_secs(60), Micros::from_secs(2));
        assert_eq!(plan.resets(), &[Micros::from_secs(10)]);
        let live = |t| {
            plan.channel_state(SensorChannel::Mic, Micros::from_secs(t))
                .0
        };
        assert!(!live(11));
        assert!(live(12));
        assert!(live(9));
    }

    #[test]
    fn resets_beyond_the_horizon_are_ignored() {
        let plan = FaultSchedule::seeded(1)
            .with_hub_reset_at(Micros::from_secs(99))
            .plan(Micros::from_secs(60), Micros::from_secs(2));
        assert!(plan.resets().is_empty());
    }

    #[test]
    fn overlapping_downtime_merges() {
        let plan = FaultSchedule::seeded(1)
            .with_hub_downtime(Micros::from_secs(10), Micros::from_secs(20))
            .with_hub_downtime(Micros::from_secs(15), Micros::from_secs(30))
            .plan(Micros::from_secs(60), Micros::ZERO);
        assert_eq!(
            plan.downtime(),
            &[(Micros::from_secs(10), Micros::from_secs(30))]
        );
    }

    #[test]
    fn dropouts_are_per_channel() {
        let plan = FaultSchedule::seeded(1)
            .with_dropout(ChannelDropout::new(
                SensorChannel::AccX,
                Micros::from_secs(5),
                Micros::from_secs(10),
            ))
            .plan(Micros::from_secs(60), Micros::ZERO);
        let live = |c, t| plan.channel_state(c, Micros::from_secs(t)).0;
        assert!(!live(SensorChannel::AccX, 7));
        assert!(live(SensorChannel::AccY, 7));
        assert!(live(SensorChannel::AccX, 10));
    }

    #[test]
    fn channel_state_holds_until_the_next_edge() {
        let s = Micros::from_secs;
        let plan = FaultSchedule::seeded(1)
            .with_hub_reset_at(s(30))
            .with_hub_downtime(s(10), s(20))
            .with_dropout(ChannelDropout::new(SensorChannel::AccX, s(5), s(8)))
            .plan(s(60), s(2));
        let acc = |t| plan.channel_state(SensorChannel::AccX, t);
        assert_eq!(acc(Micros::ZERO), (true, s(5)));
        // An edge at `t` itself is already in force.
        assert_eq!(acc(s(5)), (false, s(8)));
        assert_eq!(acc(s(8)), (true, s(10)));
        assert_eq!(acc(s(10)), (false, s(20)));
        assert_eq!(acc(s(20)), (true, s(30)));
        // The reset's recovery window closes at 32 s.
        assert_eq!(acc(s(30)), (false, s(32)));
        assert_eq!(acc(s(32)), (true, Micros::MAX));
        // Other channels ignore ACC_X's dropout.
        let mic = plan.channel_state(SensorChannel::Mic, s(5));
        assert_eq!(mic, (true, s(10)));
        assert_eq!(plan.recovery(), s(2));
    }

    #[test]
    fn frame_fates_follow_configured_rates() {
        let mut plan = FaultSchedule::seeded(3)
            .with_frame_corruption(0.25)
            .with_frame_drops(0.25)
            .plan(Micros::from_secs(60), Micros::ZERO);
        let mut counts = [0u32; 3];
        for _ in 0..4000 {
            match plan.next_frame_fate() {
                FrameOutcome::Delivered => counts[0] += 1,
                FrameOutcome::Corrupted => counts[1] += 1,
                FrameOutcome::Dropped => counts[2] += 1,
            }
        }
        // ~56 % delivered, ~25 % corrupted, ~19 % dropped.
        assert!((counts[1] as f64 / 4000.0 - 0.25).abs() < 0.05);
        assert!((counts[2] as f64 / 4000.0 - 0.1875).abs() < 0.05);
        assert!(counts[0] > counts[1] && counts[0] > counts[2]);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base_backoff: Micros::from_millis(10),
            max_backoff: Micros::from_millis(50),
        };
        assert_eq!(policy.backoff_before(1), Micros::from_millis(10));
        assert_eq!(policy.backoff_before(2), Micros::from_millis(20));
        assert_eq!(policy.backoff_before(3), Micros::from_millis(40));
        assert_eq!(policy.backoff_before(4), Micros::from_millis(50));
        assert_eq!(policy.backoff_before(40), Micros::from_millis(50));
    }

    #[test]
    fn rate_clamping_rejects_nonsense() {
        let s = FaultSchedule::seeded(1)
            .with_frame_corruption(7.0)
            .with_frame_drops(f64::NAN);
        let mut plan = s.plan(Micros::from_secs(1), Micros::ZERO);
        // Corruption clamps to 1.0 (every frame), NaN drop rate to 0.
        assert_eq!(plan.next_frame_fate(), FrameOutcome::Corrupted);
    }
}
