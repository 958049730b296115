//! FPGA device descriptions.
//!
//! The paper targets the PYNQ-Z1 board (Zynq-7020 SoC) used by the
//! DAC-SDC competition: 4.9 Mbit of on-chip BRAM, 220 DSP slices,
//! 53,200 LUTs and 106,400 flip-flops (Sec. 5). The device description
//! also carries the effective DRAM bandwidth of the PS-PL interface,
//! which bounds off-chip tile traffic in the Tile-Arch model.

use crate::error::SimError;
use crate::report::ResourceUsage;
use std::fmt;

/// An embedded FPGA device with its resource budget.
///
/// # Example
///
/// ```
/// use codesign_sim::device::pynq_z1;
///
/// let dev = pynq_z1();
/// assert_eq!(dev.dsp, 220);
/// assert_eq!(dev.bram_18k, 280); // 140 x 36Kb blocks = 280 x 18Kb
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaDevice {
    /// Device / board name.
    pub name: String,
    /// DSP slices (DSP48E1 on Zynq-7000).
    pub dsp: u64,
    /// Look-up tables.
    pub lut: u64,
    /// Flip-flops.
    pub ff: u64,
    /// BRAM capacity in 18 Kbit blocks.
    pub bram_18k: u64,
    /// Effective DRAM bandwidth of the accelerator's memory interface
    /// in bytes per cycle at the base clock (PS-PL HP port on Zynq).
    pub dram_bytes_per_cycle: f64,
    /// Supported accelerator clock frequencies in MHz.
    pub clock_mhz: Vec<f64>,
}

impl FpgaDevice {
    /// Resource budget as a [`ResourceUsage`] (for utilization math).
    pub fn budget(&self) -> ResourceUsage {
        ResourceUsage {
            dsp: self.dsp,
            lut: self.lut,
            ff: self.ff,
            bram_18k: self.bram_18k,
        }
    }

    /// Validates the device description.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidDevice`] when any budget or the DRAM
    /// bandwidth is zero, or when no clock frequency is listed.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.dsp == 0 || self.lut == 0 || self.ff == 0 || self.bram_18k == 0 {
            return Err(SimError::InvalidDevice {
                reason: "zero resource budget".into(),
            });
        }
        if self.dram_bytes_per_cycle <= 0.0 {
            return Err(SimError::InvalidDevice {
                reason: "non-positive dram bandwidth".into(),
            });
        }
        if self.clock_mhz.is_empty() {
            return Err(SimError::InvalidDevice {
                reason: "no clock frequencies".into(),
            });
        }
        Ok(())
    }

    /// Checks that `usage` fits this device.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ResourceOverflow`] naming the first
    /// overflowing resource.
    pub fn check_fit(&self, usage: &ResourceUsage) -> Result<(), SimError> {
        let pairs = [
            ("DSP", usage.dsp, self.dsp),
            ("LUT", usage.lut, self.lut),
            ("FF", usage.ff, self.ff),
            ("BRAM_18K", usage.bram_18k, self.bram_18k),
        ];
        for (name, requested, available) in pairs {
            if requested > available {
                return Err(SimError::ResourceOverflow {
                    resource: name,
                    requested,
                    available,
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for FpgaDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (DSP {}, LUT {}, FF {}, BRAM {}x18K)",
            self.name, self.dsp, self.lut, self.ff, self.bram_18k
        )
    }
}

/// The PYNQ-Z1 board (Zynq XC7Z020) used by the DAC-SDC competition and
/// the paper's experiments: 220 DSP, 53,200 LUT, 106,400 FF, 4.9 Mbit
/// BRAM, with 100 and 150 MHz accelerator clocks.
pub fn pynq_z1() -> FpgaDevice {
    FpgaDevice {
        name: "PYNQ-Z1 (XC7Z020)".into(),
        dsp: 220,
        lut: 53_200,
        ff: 106_400,
        bram_18k: 280,
        // Effective HP-port bandwidth ~1 GB/s at 100 MHz => 10 B/cycle.
        dram_bytes_per_cycle: 10.0,
        clock_mhz: vec![100.0, 150.0],
    }
}

/// The Ultra96 board (Zynq UltraScale+ ZU3EG), a larger edge device the
/// methodology also targets; included to exercise device portability.
pub fn ultra96() -> FpgaDevice {
    FpgaDevice {
        name: "Ultra96 (ZU3EG)".into(),
        dsp: 360,
        lut: 70_560,
        ff: 141_120,
        bram_18k: 432,
        dram_bytes_per_cycle: 19.2,
        clock_mhz: vec![150.0, 220.0],
    }
}

/// The ZCU104 evaluation board (Zynq UltraScale+ XCZU7EV), a
/// mid-range embedded platform well above the Ultra96: 1,728 DSP48E2
/// slices, 230,400 LUTs, 460,800 FFs and 312 x 36 Kb BRAM blocks
/// (URAM ignored by the Tile-Arch model), with a wider PS-PL memory
/// interface. Widens the portability study beyond the paper's
/// DAC-SDC-class devices.
pub fn zcu104() -> FpgaDevice {
    FpgaDevice {
        name: "ZCU104 (XCZU7EV)".into(),
        dsp: 1_728,
        lut: 230_400,
        ff: 460_800,
        bram_18k: 624, // 312 x 36 Kb = 624 x 18 Kb
        dram_bytes_per_cycle: 25.6,
        clock_mhz: vec![150.0, 200.0, 300.0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pynq_budget_matches_paper() {
        let d = pynq_z1();
        assert_eq!(d.dsp, 220);
        assert_eq!(d.lut, 53_200);
        assert_eq!(d.ff, 106_400);
        // 4.9 Mbit = 280 x 18 Kbit.
        assert_eq!(d.bram_18k * 18, 5040); // kbits, ~4.9 Mbit
        d.validate().unwrap();
    }

    #[test]
    fn ultra96_is_bigger_than_pynq() {
        let (p, u) = (pynq_z1(), ultra96());
        assert!(u.dsp > p.dsp && u.lut > p.lut && u.bram_18k > p.bram_18k);
        u.validate().unwrap();
    }

    #[test]
    fn zcu104_is_bigger_than_ultra96() {
        // The portability ladder must be strictly ordered on every
        // resource axis: PYNQ-Z1 < Ultra96 < ZCU104.
        let (u, z) = (ultra96(), zcu104());
        assert!(z.dsp > u.dsp);
        assert!(z.lut > u.lut);
        assert!(z.ff > u.ff);
        assert!(z.bram_18k > u.bram_18k);
        assert!(z.dram_bytes_per_cycle > u.dram_bytes_per_cycle);
        assert!(
            z.clock_mhz.iter().cloned().fold(0.0, f64::max)
                >= u.clock_mhz.iter().cloned().fold(0.0, f64::max)
        );
        z.validate().unwrap();
    }

    #[test]
    fn zcu104_budget_matches_datasheet() {
        let z = zcu104();
        assert_eq!(z.dsp, 1_728);
        assert_eq!(z.lut, 230_400);
        assert_eq!(z.ff, 460_800);
        // 312 x 36 Kb BRAM blocks counted as 18 Kb halves.
        assert_eq!(z.bram_18k, 624);
        z.validate().unwrap();
    }

    #[test]
    fn fit_check_flags_overflow() {
        let d = pynq_z1();
        let mut usage = d.budget();
        d.check_fit(&usage).unwrap();
        usage.dsp += 1;
        let err = d.check_fit(&usage).unwrap_err();
        assert!(matches!(err, SimError::ResourceOverflow { resource, .. } if resource == "DSP"));
    }

    #[test]
    fn invalid_device_rejected() {
        let mut d = pynq_z1();
        d.dram_bytes_per_cycle = 0.0;
        assert!(d.validate().is_err());
        let mut d2 = pynq_z1();
        d2.clock_mhz.clear();
        assert!(d2.validate().is_err());
    }
}
