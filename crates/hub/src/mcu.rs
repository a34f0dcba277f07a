//! Microcontroller capability and power models.
//!
//! The paper's prototype uses two TI microcontrollers (§4): the MSP430
//! (3.6 mW awake, no hardware floating point, small RAM — could not run
//! FFT filters in real time) and the LM4F120 (Cortex-M4F, 49.4 mW awake,
//! an order of magnitude more capable). Table 2's siren row is footnoted
//! "includes the more powerful TI LM4F120" because only that MCU could run
//! the FFT-based siren condition. This module makes that selection a
//! *derived* property of the cost model rather than a hard-coded rule.

use crate::cost::PipelineCost;
use crate::runtime::ChannelRates;
use sidewinder_ir::Program;

/// A microcontroller model for the sensor hub.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mcu {
    /// Human-readable name.
    pub name: &'static str,
    /// Average power while awake and processing, in milliwatts
    /// (paper §4).
    pub awake_power_mw: f64,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Cycles needed per floating-point operation (software float on the
    /// MSP430, single-cycle FPU on the Cortex-M4F).
    pub cycles_per_flop: f64,
    /// Usable RAM in bytes.
    pub ram_bytes: usize,
    /// Fraction of the clock available to wake-up conditions (the rest is
    /// reserved for sampling, the serial link, and the interpreter loop).
    pub utilization: f64,
}

impl Mcu {
    /// TI MSP430 (F5438-class): 3.6 mW awake, 16 MHz, software floating
    /// point, 16 KiB SRAM.
    pub const MSP430: Mcu = Mcu {
        name: "TI MSP430",
        awake_power_mw: 3.6,
        clock_hz: 16_000_000.0,
        cycles_per_flop: 50.0,
        ram_bytes: 16 * 1024,
        utilization: 0.8,
    };

    /// TI LM4F120 (Cortex-M4F): 49.4 mW awake, 80 MHz, hardware FPU,
    /// 32 KiB RAM.
    pub const LM4F120: Mcu = Mcu {
        name: "TI LM4F120",
        awake_power_mw: 49.4,
        clock_hz: 80_000_000.0,
        cycles_per_flop: 1.0,
        ram_bytes: 32 * 1024,
        utilization: 0.8,
    };

    /// A low-power flash FPGA (IGLOO-class) modelling the paper's §7
    /// future work: "developing an FPGA-based prototype". Pipelined
    /// dataflow in fabric makes a "flop" effectively fractional-cycle,
    /// at a fraction of the Cortex-M4F's power — at the cost of the
    /// reconfiguration workflow the paper's §2.1.1 discusses.
    ///
    /// Deliberately *not* in [`Mcu::CATALOG`]: the evaluation reproduces
    /// the paper's prototype, which only shipped the two TI parts. The
    /// sizing explorer reports this target as a what-if.
    pub const IGLOO_FPGA: Mcu = Mcu {
        name: "IGLOO-class FPGA",
        awake_power_mw: 12.0,
        clock_hz: 50_000_000.0,
        cycles_per_flop: 0.25,
        ram_bytes: 64 * 1024,
        utilization: 0.8,
    };

    /// The hub MCUs the prototype evaluated, cheapest first.
    pub const CATALOG: [Mcu; 2] = [Mcu::MSP430, Mcu::LM4F120];

    /// Cycles per second available to wake-up conditions.
    pub fn cycle_budget(&self) -> f64 {
        self.clock_hz * self.utilization
    }

    /// Whether this MCU can execute `cost` in real time and in memory.
    pub fn supports_cost(&self, cost: &PipelineCost) -> Result<(), CapacityError> {
        let demanded = cost.total_flops_per_second() * self.cycles_per_flop;
        if demanded > self.cycle_budget() {
            return Err(CapacityError::NotRealTime {
                mcu: self.name,
                demanded_cycles_per_s: demanded,
                budget_cycles_per_s: self.cycle_budget(),
            });
        }
        if cost.total_memory_bytes() > self.ram_bytes {
            return Err(CapacityError::OutOfMemory {
                mcu: self.name,
                demanded_bytes: cost.total_memory_bytes(),
                ram_bytes: self.ram_bytes,
            });
        }
        Ok(())
    }

    /// Whether this MCU can run `program` at the given channel rates.
    pub fn supports(&self, program: &Program, rates: &ChannelRates) -> Result<(), CapacityError> {
        self.supports_cost(&PipelineCost::analyze(program, rates))
    }

    /// Whether this MCU can *cache* raw sensor data for the Batching
    /// configuration: the batch buffer (per-channel byte rate × interval)
    /// must fit in RAM. The paper's Batching numbers assume the MSP430;
    /// this check shows that assumption only holds for low-rate sensors —
    /// a 10 s batch of 8 kHz audio (80 KB) fits no catalog part.
    pub fn can_cache(
        &self,
        channels: &[sidewinder_sensors::SensorChannel],
        interval: sidewinder_sensors::Micros,
    ) -> Result<(), CapacityError> {
        let bytes_per_s: f64 = channels.iter().map(|c| c.bytes_per_second()).sum();
        let demanded = (bytes_per_s * interval.as_secs_f64()).ceil() as usize;
        if demanded > self.ram_bytes {
            return Err(CapacityError::OutOfMemory {
                mcu: self.name,
                demanded_bytes: demanded,
                ram_bytes: self.ram_bytes,
            });
        }
        Ok(())
    }

    /// The catalog's first-fit pick for `cost`: the lowest-power part
    /// that runs it, or, when none does, the last part with the reason
    /// it cannot.
    pub fn first_fit(cost: &PipelineCost) -> (Mcu, Result<(), CapacityError>) {
        let mut pick = (Mcu::CATALOG[0], Ok(()));
        for mcu in Mcu::CATALOG {
            pick = (mcu, mcu.supports_cost(cost));
            if pick.1.is_ok() {
                break;
            }
        }
        pick
    }

    /// Picks the lowest-power MCU from the catalog able to run `program`.
    ///
    /// Reproduces the paper's sizing decision: accelerometer pipelines run
    /// on the MSP430; the FFT-heavy siren condition needs the LM4F120.
    ///
    /// # Errors
    ///
    /// Returns the last [`CapacityError`] if no catalog MCU suffices.
    pub fn cheapest_for(program: &Program, rates: &ChannelRates) -> Result<Mcu, CapacityError> {
        let (mcu, fit) = Mcu::first_fit(&PipelineCost::analyze(program, rates));
        fit.map(|()| mcu)
    }
}

impl std::fmt::Display for Mcu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name)
    }
}

/// Why a pipeline does not fit an MCU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacityError {
    /// The pipeline demands more cycles per second than the MCU has.
    NotRealTime {
        /// The MCU that was tried.
        mcu: &'static str,
        /// Cycles per second the pipeline needs.
        demanded_cycles_per_s: f64,
        /// Cycles per second available.
        budget_cycles_per_s: f64,
    },
    /// The pipeline's buffers exceed MCU RAM.
    OutOfMemory {
        /// The MCU that was tried.
        mcu: &'static str,
        /// Bytes the pipeline needs.
        demanded_bytes: usize,
        /// Bytes available.
        ram_bytes: usize,
    },
}

impl std::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapacityError::NotRealTime {
                mcu,
                demanded_cycles_per_s,
                budget_cycles_per_s,
            } => write!(
                f,
                "{mcu} cannot run the pipeline in real time \
                 ({demanded_cycles_per_s:.0} cycles/s needed, {budget_cycles_per_s:.0} available)"
            ),
            CapacityError::OutOfMemory {
                mcu,
                demanded_bytes,
                ram_bytes,
            } => write!(
                f,
                "{mcu} lacks memory for the pipeline ({demanded_bytes} B needed, {ram_bytes} B available)"
            ),
        }
    }
}

impl std::error::Error for CapacityError {}

#[cfg(test)]
mod tests {
    use super::*;
    use sidewinder_ir::Program;

    fn program(text: &str) -> Program {
        let p: Program = text.parse().unwrap();
        p.validate().unwrap();
        p
    }

    const ACCEL_PIPELINE: &str = "ACC_X -> movingAvg(id=1, params={10});
        1 -> minThreshold(id=2, params={15});
        2 -> OUT;";

    const SIREN_PIPELINE: &str = "MIC -> window(id=1, params={256, 256, 1});
        1 -> highPass(id=2, params={750});
        2 -> fft(id=3);
        3 -> spectralMagnitude(id=4);
        4 -> dominantRatio(id=5);
        5 -> minThreshold(id=6, params={4});
        6 -> sustained(id=7, params={3, 256});
        7 -> OUT;";

    #[test]
    fn msp430_runs_accelerometer_pipelines() {
        let p = program(ACCEL_PIPELINE);
        assert!(Mcu::MSP430.supports(&p, &ChannelRates::default()).is_ok());
    }

    #[test]
    fn msp430_cannot_run_fft_siren_in_real_time() {
        // Reproduces §4: "it was unable to run the FFT-based low-pass
        // filter in real-time".
        let p = program(SIREN_PIPELINE);
        let err = Mcu::MSP430
            .supports(&p, &ChannelRates::default())
            .unwrap_err();
        assert!(matches!(err, CapacityError::NotRealTime { .. }));
        assert!(err.to_string().contains("MSP430"));
    }

    #[test]
    fn lm4f120_runs_the_siren_pipeline() {
        let p = program(SIREN_PIPELINE);
        assert!(Mcu::LM4F120.supports(&p, &ChannelRates::default()).is_ok());
    }

    #[test]
    fn cheapest_for_matches_paper_assignments() {
        let rates = ChannelRates::default();
        assert_eq!(
            Mcu::cheapest_for(&program(ACCEL_PIPELINE), &rates).unwrap(),
            Mcu::MSP430
        );
        assert_eq!(
            Mcu::cheapest_for(&program(SIREN_PIPELINE), &rates).unwrap(),
            Mcu::LM4F120
        );
    }

    #[test]
    fn power_figures_match_table_1_sources() {
        assert_eq!(Mcu::MSP430.awake_power_mw, 3.6);
        assert_eq!(Mcu::LM4F120.awake_power_mw, 49.4);
    }

    #[test]
    fn cycle_budget_applies_utilization() {
        assert_eq!(Mcu::MSP430.cycle_budget(), 16_000_000.0 * 0.8);
    }

    #[test]
    fn display_prints_name() {
        assert_eq!(Mcu::LM4F120.to_string(), "TI LM4F120");
    }

    #[test]
    fn batching_cache_fits_accel_not_audio() {
        use sidewinder_sensors::{Micros, SensorChannel};
        // 10 s of 3-axis 50 Hz accelerometer data: 3 kB — fits.
        assert!(Mcu::MSP430
            .can_cache(&SensorChannel::ACCEL, Micros::from_secs(10))
            .is_ok());
        // 10 s of 8 kHz audio: 80 kB — fits no catalog MCU, so audio
        // batching implicitly assumes host-side memory.
        for mcu in Mcu::CATALOG {
            let err = mcu
                .can_cache(&[SensorChannel::Mic], Micros::from_secs(10))
                .unwrap_err();
            assert!(matches!(err, CapacityError::OutOfMemory { .. }));
        }
    }

    #[test]
    fn fpga_what_if_runs_the_siren_pipeline_cheaper() {
        // The §7 FPGA prototype would lift the siren condition off the
        // LM4F120 at a quarter of its power...
        let p = program(SIREN_PIPELINE);
        assert!(Mcu::IGLOO_FPGA
            .supports(&p, &ChannelRates::default())
            .is_ok());
        let (fpga_mw, m4_mw) = (Mcu::IGLOO_FPGA.awake_power_mw, Mcu::LM4F120.awake_power_mw);
        assert!(fpga_mw < m4_mw / 4.0, "{fpga_mw} vs {m4_mw}");
        // ...but is intentionally excluded from the evaluation catalog.
        assert!(!Mcu::CATALOG.iter().any(|m| m.name == Mcu::IGLOO_FPGA.name));
    }
}
