//! Deterministic fleet-level observability rollups.
//!
//! A shard folds every device it simulates into a [`ShardRollup`]; the
//! fleet merges shard rollups *in shard-index order* into a
//! [`FleetRollup`]. All aggregate state is integer (counts, saturating
//! microsecond sums, microwatt histograms), so merging is associative
//! and the merged result is bit-identical regardless of how many
//! workers raced through the shards — the property the conformance
//! suite pins with [`FleetRollup::digest`].
//!
//! The digest deliberately covers only *population-level* aggregates
//! (never the capped failure samples, and never per-shard summaries),
//! so it is also invariant to the shard size: resharding the same fleet
//! changes how work is split, not what the fleet did.

use sidewinder_ir::fnv::Fnv1a;
use sidewinder_obs::Histogram;
use sidewinder_sensors::Micros;
use sidewinder_sim::{FaultCounters, SimResult};

use crate::device::FaultClass;

/// How one simulated device ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceDisposition {
    /// Simulated to completion.
    Ok,
    /// The submitted wake condition reads a channel the device's trace
    /// does not record; the device sat the run out.
    Incompatible,
    /// The simulation returned a typed error.
    Failed,
    /// The device's cell panicked; the panic was caught and isolated.
    Panicked,
}

/// A capped sample of one device failure, for reports. Failure *counts*
/// are exact in the rollup; only the retained messages are capped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceFailure {
    /// Which device failed.
    pub device_id: u64,
    /// Whether it failed or panicked.
    pub disposition: DeviceDisposition,
    /// The error or panic message.
    pub message: String,
}

/// How many failure samples a shard retains (counts stay exact).
pub const MAX_FAILURE_SAMPLES: usize = 8;

/// Aggregates for one shard's devices.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRollup {
    /// Shard index within the fleet.
    pub shard: u64,
    /// Devices assigned to this shard.
    pub devices: u64,
    /// Devices simulated to completion.
    pub ok: u64,
    /// Devices whose condition was incompatible with their trace.
    pub incompatible: u64,
    /// Devices that returned a typed simulation error.
    pub failed: u64,
    /// Devices whose cell panicked (caught and isolated).
    pub panicked: u64,
    /// Devices that spent the whole run in degraded fallback class.
    pub outage_devices: u64,
    /// Devices that spent any time degraded.
    pub degraded_devices: u64,
    /// Total degraded time across devices.
    pub degraded_time: Micros,
    /// Total phone wake-ups.
    pub wake_ups: u64,
    /// Total detections emitted by classifiers.
    pub detections: u64,
    /// Total ground-truth events across device traces.
    pub events: u64,
    /// Total ground-truth events recalled.
    pub recalled: u64,
    /// Total time awake across devices.
    pub awake: Micros,
    /// Total simulated time across devices.
    pub total_time: Micros,
    /// Sum of per-device average power, microwatts (integer).
    pub energy_sum_uw: u64,
    /// Distribution of per-device average power, microwatts.
    pub energy_uw: Histogram,
    /// Distribution of per-device wake-up counts.
    pub wake_counts: Histogram,
    /// Fault activity summed across devices.
    pub fault: FaultCounters,
    /// Up to [`MAX_FAILURE_SAMPLES`] retained failure messages.
    pub failures: Vec<DeviceFailure>,
}

impl ShardRollup {
    /// An empty rollup for shard `shard`.
    pub fn new(shard: u64) -> ShardRollup {
        ShardRollup {
            shard,
            devices: 0,
            ok: 0,
            incompatible: 0,
            failed: 0,
            panicked: 0,
            outage_devices: 0,
            degraded_devices: 0,
            degraded_time: Micros::ZERO,
            wake_ups: 0,
            detections: 0,
            events: 0,
            recalled: 0,
            awake: Micros::ZERO,
            total_time: Micros::ZERO,
            energy_sum_uw: 0,
            energy_uw: Histogram::new(),
            wake_counts: Histogram::new(),
            fault: FaultCounters::default(),
            failures: Vec::new(),
        }
    }

    /// Folds one completed device simulation into the rollup.
    pub fn absorb_ok(&mut self, class: FaultClass, result: &SimResult) {
        self.devices += 1;
        self.ok += 1;
        if class == FaultClass::Outage {
            self.outage_devices += 1;
        }
        if result.fault.degraded_time > Micros::ZERO {
            self.degraded_devices += 1;
            self.degraded_time = self
                .degraded_time
                .checked_add(result.fault.degraded_time)
                .unwrap_or(Micros::MAX);
        }
        self.wake_ups += result.wake_ups as u64;
        self.detections += result.stats.detections as u64;
        self.events += result.stats.events as u64;
        self.recalled += result.stats.recalled as u64;
        self.awake = self
            .awake
            .checked_add(result.breakdown.awake)
            .unwrap_or(Micros::MAX);
        self.total_time = self
            .total_time
            .checked_add(result.breakdown.total())
            .unwrap_or(Micros::MAX);
        // Integer microwatts: exact summation in any order, and the
        // histograms bucket the same value every merge.
        let uw = (result.average_power_mw * 1000.0).round().max(0.0) as u64;
        self.energy_sum_uw = self.energy_sum_uw.saturating_add(uw);
        self.energy_uw.record(uw);
        self.wake_counts.record(result.wake_ups as u64);
        self.fault.merge(&result.fault);
    }

    /// Folds one device that could not run (incompatible condition,
    /// typed error, or caught panic).
    pub fn absorb_failure(
        &mut self,
        device_id: u64,
        disposition: DeviceDisposition,
        message: String,
    ) {
        self.devices += 1;
        match disposition {
            DeviceDisposition::Incompatible => {
                self.incompatible += 1;
                return; // expected at population level; not a failure sample
            }
            DeviceDisposition::Failed => self.failed += 1,
            DeviceDisposition::Panicked => self.panicked += 1,
            DeviceDisposition::Ok => unreachable!("absorb_ok handles completed devices"),
        }
        if self.failures.len() < MAX_FAILURE_SAMPLES {
            self.failures.push(DeviceFailure {
                device_id,
                disposition,
                message,
            });
        }
    }

    /// Merges another shard's aggregates into this one (used by the
    /// fleet-level fold; call in shard-index order for reproducible
    /// failure-sample retention).
    pub fn merge(&mut self, other: &ShardRollup) {
        self.devices += other.devices;
        self.ok += other.ok;
        self.incompatible += other.incompatible;
        self.failed += other.failed;
        self.panicked += other.panicked;
        self.outage_devices += other.outage_devices;
        self.degraded_devices += other.degraded_devices;
        self.degraded_time = self
            .degraded_time
            .checked_add(other.degraded_time)
            .unwrap_or(Micros::MAX);
        self.wake_ups += other.wake_ups;
        self.detections += other.detections;
        self.events += other.events;
        self.recalled += other.recalled;
        self.awake = self.awake.checked_add(other.awake).unwrap_or(Micros::MAX);
        self.total_time = self
            .total_time
            .checked_add(other.total_time)
            .unwrap_or(Micros::MAX);
        self.energy_sum_uw = self.energy_sum_uw.saturating_add(other.energy_sum_uw);
        self.energy_uw.merge(&other.energy_uw);
        self.wake_counts.merge(&other.wake_counts);
        self.fault.merge(&other.fault);
        for f in &other.failures {
            if self.failures.len() >= MAX_FAILURE_SAMPLES {
                break;
            }
            self.failures.push(f.clone());
        }
    }

    /// FNV-1a digest of this shard's aggregates (failure samples
    /// excluded — their counts are covered).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.fold_digest(&mut h);
        h.finish()
    }

    pub(crate) fn fold_digest(&self, h: &mut Fnv1a) {
        for w in [
            self.devices,
            self.ok,
            self.incompatible,
            self.failed,
            self.panicked,
            self.outage_devices,
            self.degraded_devices,
            self.degraded_time.as_micros(),
            self.wake_ups,
            self.detections,
            self.events,
            self.recalled,
            self.awake.as_micros(),
            self.total_time.as_micros(),
            self.energy_sum_uw,
        ] {
            h.word(w);
        }
        for &b in self.energy_uw.buckets() {
            h.word(b);
        }
        for &b in self.wake_counts.buckets() {
            h.word(b);
        }
        for w in [
            self.fault.frames_sent,
            self.fault.frames_corrupted,
            self.fault.frames_dropped,
            self.fault.frames_retried,
            self.fault.frames_lost,
            self.fault.hub_resets,
            self.fault.redownloads,
            self.fault.samples_dropped,
            self.fault.degraded_time.as_micros(),
            self.fault.recovery_time.as_micros(),
        ] {
            h.word(w);
        }
    }
}

/// One line of the fleet's per-shard table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: u64,
    /// Devices in the shard.
    pub devices: u64,
    /// Devices that failed or panicked.
    pub failed: u64,
    /// Shard fault totals.
    pub frames_lost: u64,
    /// Shard hub resets.
    pub hub_resets: u64,
    /// The shard's own digest.
    pub digest: u64,
}

/// The fleet-wide rollup: merged shard aggregates plus the per-shard
/// summary table.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRollup {
    /// Fleet seed the run derived everything from.
    pub seed: u64,
    /// Merged aggregates over every device.
    pub totals: ShardRollup,
    /// Per-shard summaries, in shard order.
    pub shards: Vec<ShardSummary>,
}

impl FleetRollup {
    /// Fraction of the fleet that spent any time in the degraded
    /// duty-cycle fallback.
    pub fn degraded_fraction(&self) -> f64 {
        if self.totals.devices == 0 {
            0.0
        } else {
            self.totals.degraded_devices as f64 / self.totals.devices as f64
        }
    }

    /// Mean wake-ups per device-hour across the fleet.
    pub fn wake_rate_per_device_hour(&self) -> f64 {
        let hours = self.totals.total_time.as_secs_f64() / 3600.0;
        if hours <= 0.0 {
            0.0
        } else {
            self.totals.wake_ups as f64 / hours
        }
    }

    /// Mean per-device average power in milliwatts.
    pub fn mean_power_mw(&self) -> f64 {
        if self.totals.ok == 0 {
            0.0
        } else {
            self.totals.energy_sum_uw as f64 / 1000.0 / self.totals.ok as f64
        }
    }

    /// Upper-bound power percentile in milliwatts (power-of-two bucket
    /// edge), from the microwatt histogram.
    pub fn power_percentile_mw(&self, q: f64) -> f64 {
        self.totals.energy_uw.quantile_upper_ns(q) as f64 / 1000.0
    }

    /// The fleet digest: FNV-1a over the merged aggregates only, so it
    /// is invariant to worker count *and* shard size.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.word(self.seed);
        self.totals.fold_digest(&mut h);
        h.finish()
    }

    /// Plain-text report for operators.
    pub fn report(&self) -> String {
        let t = &self.totals;
        let mut out = String::new();
        out.push_str(&format!(
            "fleet rollup (seed {:#x}): {} devices in {} shards\n",
            self.seed,
            t.devices,
            self.shards.len()
        ));
        out.push_str(&format!(
            "  ok {}  incompatible {}  failed {}  panicked {}\n",
            t.ok, t.incompatible, t.failed, t.panicked
        ));
        out.push_str(&format!(
            "  wake rate {:.2}/device-hour  mean power {:.3} mW  p50/p90/p99 <= {:.3}/{:.3}/{:.3} mW\n",
            self.wake_rate_per_device_hour(),
            self.mean_power_mw(),
            self.power_percentile_mw(0.50),
            self.power_percentile_mw(0.90),
            self.power_percentile_mw(0.99),
        ));
        out.push_str(&format!(
            "  degraded population {:.2}%  ({} devices, {:.1} s total; {} full-outage)\n",
            self.degraded_fraction() * 100.0,
            t.degraded_devices,
            t.degraded_time.as_secs_f64(),
            t.outage_devices,
        ));
        out.push_str(&format!(
            "  faults: {} frames sent, {} corrupted, {} dropped, {} retried, {} lost; {} hub resets, {} redownloads\n",
            t.fault.frames_sent,
            t.fault.frames_corrupted,
            t.fault.frames_dropped,
            t.fault.frames_retried,
            t.fault.frames_lost,
            t.fault.hub_resets,
            t.fault.redownloads,
        ));
        out.push_str("  power distribution (uW buckets):\n");
        for (lo, hi, count) in t.energy_uw.nonzero_buckets() {
            out.push_str(&format!("    [{lo:>10}, {hi:>10})  {count}\n"));
        }
        for f in &t.failures {
            out.push_str(&format!(
                "  failure sample: device {} ({:?}): {}\n",
                f.device_id, f.disposition, f.message
            ));
        }
        out.push_str(&format!("  digest {:#018x}\n", self.digest()));
        out
    }

    /// Machine-readable JSON (hand-rolled: the workspace is offline and
    /// carries no serde).
    pub fn to_json(&self) -> String {
        let t = &self.totals;
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"seed\": \"{:#x}\",\n", self.seed));
        out.push_str(&format!("  \"devices\": {},\n", t.devices));
        out.push_str(&format!("  \"shards\": {},\n", self.shards.len()));
        out.push_str(&format!("  \"ok\": {},\n", t.ok));
        out.push_str(&format!("  \"incompatible\": {},\n", t.incompatible));
        out.push_str(&format!("  \"failed\": {},\n", t.failed));
        out.push_str(&format!("  \"panicked\": {},\n", t.panicked));
        out.push_str(&format!("  \"wake_ups\": {},\n", t.wake_ups));
        out.push_str(&format!("  \"detections\": {},\n", t.detections));
        out.push_str(&format!("  \"events\": {},\n", t.events));
        out.push_str(&format!("  \"recalled\": {},\n", t.recalled));
        out.push_str(&format!(
            "  \"degraded_devices\": {},\n",
            t.degraded_devices
        ));
        out.push_str(&format!("  \"outage_devices\": {},\n", t.outage_devices));
        out.push_str(&format!("  \"energy_sum_uw\": {},\n", t.energy_sum_uw));
        out.push_str(&format!("  \"frames_sent\": {},\n", t.fault.frames_sent));
        out.push_str(&format!("  \"frames_lost\": {},\n", t.fault.frames_lost));
        out.push_str(&format!("  \"hub_resets\": {},\n", t.fault.hub_resets));
        out.push_str(&format!("  \"digest\": \"{:#018x}\"\n", self.digest()));
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_result(power_mw: f64, wakes: usize) -> SimResult {
        use sidewinder_sim::{DetectionStats, PowerBreakdown};
        SimResult {
            strategy: "Sw+".into(),
            app: "steps".into(),
            trace: "t".into(),
            breakdown: PowerBreakdown {
                awake: Micros::from_secs(5),
                asleep: Micros::from_secs(55),
                ..PowerBreakdown::default()
            },
            average_power_mw: power_mw,
            wake_ups: wakes,
            stats: DetectionStats {
                events: 4,
                recalled: 3,
                detections: 5,
                true_positives: 3,
            },
            detections: Vec::new(),
            discovery_delays: Vec::new(),
            fault: FaultCounters::default(),
        }
    }

    #[test]
    fn absorb_and_merge_agree() {
        // Devices folded into one shard == two shards merged.
        let r1 = fake_result(40.0, 12);
        let r2 = fake_result(90.5, 30);
        let mut whole = ShardRollup::new(0);
        whole.absorb_ok(FaultClass::Clean, &r1);
        whole.absorb_ok(FaultClass::Clean, &r2);
        whole.absorb_failure(3, DeviceDisposition::Panicked, "boom".into());

        let mut a = ShardRollup::new(0);
        a.absorb_ok(FaultClass::Clean, &r1);
        let mut b = ShardRollup::new(1);
        b.absorb_ok(FaultClass::Clean, &r2);
        b.absorb_failure(3, DeviceDisposition::Panicked, "boom".into());
        a.merge(&b);

        assert_eq!(whole.devices, a.devices);
        assert_eq!(whole.energy_sum_uw, a.energy_sum_uw);
        assert_eq!(whole.energy_uw, a.energy_uw);
        assert_eq!(whole.digest(), a.digest());
    }

    #[test]
    fn incompatible_devices_count_but_are_not_failures() {
        let mut r = ShardRollup::new(0);
        r.absorb_failure(9, DeviceDisposition::Incompatible, "missing MIC".into());
        assert_eq!(r.devices, 1);
        assert_eq!(r.incompatible, 1);
        assert_eq!(r.failed, 0);
        assert!(r.failures.is_empty());
    }

    #[test]
    fn failure_samples_cap_but_counts_do_not() {
        let mut r = ShardRollup::new(0);
        for i in 0..(MAX_FAILURE_SAMPLES as u64 + 5) {
            r.absorb_failure(i, DeviceDisposition::Failed, format!("e{i}"));
        }
        assert_eq!(r.failed, MAX_FAILURE_SAMPLES as u64 + 5);
        assert_eq!(r.failures.len(), MAX_FAILURE_SAMPLES);
    }

    #[test]
    fn digest_ignores_failure_samples_but_not_counts() {
        let mut a = ShardRollup::new(0);
        a.absorb_failure(1, DeviceDisposition::Failed, "message one".into());
        let mut b = ShardRollup::new(0);
        b.absorb_failure(1, DeviceDisposition::Failed, "entirely different".into());
        assert_eq!(a.digest(), b.digest());
        let mut c = ShardRollup::new(0);
        c.absorb_failure(1, DeviceDisposition::Panicked, "message one".into());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn fleet_report_and_json_render() {
        let mut t = ShardRollup::new(0);
        t.absorb_ok(FaultClass::Clean, &fake_result(40.0, 12));
        let fleet = FleetRollup {
            seed: 7,
            totals: t,
            shards: vec![ShardSummary {
                shard: 0,
                devices: 1,
                failed: 0,
                frames_lost: 0,
                hub_resets: 0,
                digest: 1,
            }],
        };
        let report = fleet.report();
        assert!(report.contains("1 devices in 1 shards"));
        assert!(report.contains("digest 0x"));
        let json = fleet.to_json();
        assert!(json.contains("\"devices\": 1"));
        assert!(json.contains("\"digest\": \"0x"));
        assert!(fleet.wake_rate_per_device_hour() > 0.0);
        assert!((fleet.mean_power_mw() - 40.0).abs() < 1e-9);
    }
}
