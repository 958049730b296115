//! Board power and energy model.
//!
//! Stands in for the POWER-Z KT001 USB power meter used in the paper's
//! measurements (Fig. 7). Board power is modeled as a static term (PS
//! subsystem, DRAM, board rails) plus dynamic terms proportional to
//! resource utilization and clock frequency — the standard FPGA power
//! decomposition. Coefficients are calibrated so the paper's designs
//! land at their published operating points (≈2.2 W at 100 MHz and
//! ≈2.4-2.5 W at 150 MHz for near-full utilization, Table 2).

use crate::report::{ResourceUsage, SimReport, Utilization};

/// Utilization-proportional board power model.
///
/// # Example
///
/// ```
/// use codesign_sim::power::PowerModel;
/// use codesign_sim::report::Utilization;
///
/// let model = PowerModel::pynq_z1();
/// let util = Utilization { dsp: 0.9, lut: 0.8, ff: 0.4, bram: 0.95 };
/// let watts = model.board_power(&util, 0.9, 100.0);
/// assert!(watts > 1.5 && watts < 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Static board power in watts (PS, DRAM, rails, idle PL).
    pub static_watts: f64,
    /// Dynamic watts of a fully active DSP array at 100 MHz.
    pub dsp_watts_at_100mhz: f64,
    /// Dynamic watts of fully utilized BRAM at 100 MHz.
    pub bram_watts_at_100mhz: f64,
    /// Dynamic watts of fully utilized LUT/FF fabric at 100 MHz.
    pub fabric_watts_at_100mhz: f64,
}

impl PowerModel {
    /// Coefficients calibrated for the PYNQ-Z1 operating points of
    /// Table 2.
    pub fn pynq_z1() -> Self {
        Self {
            static_watts: 1.40,
            dsp_watts_at_100mhz: 0.55,
            bram_watts_at_100mhz: 0.22,
            fabric_watts_at_100mhz: 0.18,
        }
    }

    /// Board power in watts for a design with resource utilization
    /// `util` whose DSP array is busy for fraction `activity` of the
    /// time, clocked at `clock_mhz`.
    pub fn board_power(&self, util: &Utilization, activity: f64, clock_mhz: f64) -> f64 {
        let scale = clock_mhz / 100.0;
        let activity = activity.clamp(0.0, 1.0);
        self.static_watts
            + scale
                * (self.dsp_watts_at_100mhz * util.dsp.min(1.0) * activity
                    + self.bram_watts_at_100mhz * util.bram.min(1.0)
                    + self.fabric_watts_at_100mhz * util.lut.min(1.0))
    }

    /// Board power for a simulation report on a device budget.
    pub fn report_power(&self, report: &SimReport, budget: &ResourceUsage, clock_mhz: f64) -> f64 {
        self.board_power(&report.utilization(budget), report.dsp_activity, clock_mhz)
    }

    /// Energy in joules to process `images` frames at `latency_ms` per
    /// frame and `watts` board power (the paper's 50 K-image energy
    /// column is exactly this product).
    pub fn energy_joules(&self, watts: f64, latency_ms: f64, images: u64) -> f64 {
        watts * latency_ms * 1e-3 * images as f64
    }

    /// Energy per frame in joules (the paper's J/pic column).
    pub fn joules_per_image(&self, watts: f64, latency_ms: f64) -> f64 {
        watts * latency_ms * 1e-3
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::pynq_z1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn near_full_util() -> Utilization {
        Utilization {
            dsp: 0.918,
            lut: 0.825,
            ff: 0.376,
            bram: 0.961,
        }
    }

    #[test]
    fn pynq_operating_point_at_100mhz() {
        // DNN1 of Table 2: ~2.2 W at 100 MHz at near-full utilization.
        let p = PowerModel::pynq_z1().board_power(&near_full_util(), 0.95, 100.0);
        assert!((p - 2.2).abs() < 0.15, "got {p}");
    }

    #[test]
    fn pynq_operating_point_at_150mhz() {
        // ~2.4-2.5 W at 150 MHz.
        let p = PowerModel::pynq_z1().board_power(&near_full_util(), 0.95, 150.0);
        assert!((2.3..2.7).contains(&p), "got {p}");
    }

    #[test]
    fn energy_matches_table_arithmetic() {
        // DNN1: 80 ms x 2.2 W x 50_000 images = 8.8 KJ, 0.176 J/pic.
        let m = PowerModel::pynq_z1();
        let e = m.energy_joules(2.2, 80.0, 50_000);
        assert!((e - 8_800.0).abs() < 1.0);
        let jpp = m.joules_per_image(2.2, 80.0);
        assert!((jpp - 0.176).abs() < 1e-9);
    }

    #[test]
    fn idle_design_draws_static_power() {
        let m = PowerModel::pynq_z1();
        let p = m.board_power(&Utilization::default(), 0.0, 100.0);
        assert!((p - m.static_watts).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_power_monotone_in_clock(c1 in 50.0f64..300.0, c2 in 50.0f64..300.0) {
            let m = PowerModel::pynq_z1();
            let u = near_full_util();
            let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
            prop_assert!(m.board_power(&u, 0.9, lo) <= m.board_power(&u, 0.9, hi));
        }

        #[test]
        fn prop_power_monotone_in_activity(a1 in 0.0f64..1.0, a2 in 0.0f64..1.0) {
            let m = PowerModel::pynq_z1();
            let u = near_full_util();
            let (lo, hi) = if a1 <= a2 { (a1, a2) } else { (a2, a1) };
            prop_assert!(m.board_power(&u, lo, 100.0) <= m.board_power(&u, hi, 100.0));
        }

        #[test]
        fn prop_energy_linear_in_images(n in 1u64..100_000) {
            let m = PowerModel::pynq_z1();
            let one = m.energy_joules(2.0, 50.0, 1);
            let many = m.energy_joules(2.0, 50.0, n);
            prop_assert!((many - one * n as f64).abs() < 1e-6);
        }
    }
}
