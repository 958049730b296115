//! Synthesis-style reports produced by the simulator.

use std::fmt;
use std::ops::{Add, AddAssign};

/// FPGA resource usage of a design or IP instance.
///
/// # Example
///
/// ```
/// use codesign_sim::ResourceUsage;
///
/// let a = ResourceUsage { dsp: 10, lut: 100, ff: 200, bram_18k: 4 };
/// let b = a + a;
/// assert_eq!(b.dsp, 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceUsage {
    /// DSP slices.
    pub dsp: u64,
    /// Look-up tables.
    pub lut: u64,
    /// Flip-flops.
    pub ff: u64,
    /// BRAM in 18 Kbit blocks.
    pub bram_18k: u64,
}

impl ResourceUsage {
    /// The zero usage.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Element-wise maximum with another usage (for mutually exclusive
    /// allocations that share the same silicon).
    pub fn max(self, other: Self) -> Self {
        Self {
            dsp: self.dsp.max(other.dsp),
            lut: self.lut.max(other.lut),
            ff: self.ff.max(other.ff),
            bram_18k: self.bram_18k.max(other.bram_18k),
        }
    }
}

impl Add for ResourceUsage {
    type Output = ResourceUsage;

    fn add(self, rhs: ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            dsp: self.dsp + rhs.dsp,
            lut: self.lut + rhs.lut,
            ff: self.ff + rhs.ff,
            bram_18k: self.bram_18k + rhs.bram_18k,
        }
    }
}

impl AddAssign for ResourceUsage {
    fn add_assign(&mut self, rhs: ResourceUsage) {
        *self = *self + rhs;
    }
}

impl fmt::Display for ResourceUsage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dsp={} lut={} ff={} bram18k={}",
            self.dsp, self.lut, self.ff, self.bram_18k
        )
    }
}

/// Fractional utilization of a device's budget, per resource class.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Utilization {
    /// DSP utilization in `[0, 1]` (may exceed 1 for infeasible designs).
    pub dsp: f64,
    /// LUT utilization.
    pub lut: f64,
    /// FF utilization.
    pub ff: f64,
    /// BRAM utilization.
    pub bram: f64,
}

impl Utilization {
    /// Computes utilization of `usage` against `budget`.
    pub fn of(usage: &ResourceUsage, budget: &ResourceUsage) -> Self {
        let frac = |u: u64, b: u64| {
            if b == 0 {
                f64::INFINITY
            } else {
                u as f64 / b as f64
            }
        };
        Self {
            dsp: frac(usage.dsp, budget.dsp),
            lut: frac(usage.lut, budget.lut),
            ff: frac(usage.ff, budget.ff),
            bram: frac(usage.bram_18k, budget.bram_18k),
        }
    }
}

impl fmt::Display for Utilization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LUT {:.1}% DSP {:.1}% BRAM {:.1}% FF {:.1}%",
            self.lut * 100.0,
            self.dsp * 100.0,
            self.bram * 100.0,
            self.ff * 100.0
        )
    }
}

/// Hit/miss counters of a shared estimate cache (see
/// `codesign_hls::cache::EstimateCache`), surfaced next to synthesis
/// reports so flow output can show how much analytic work was memoized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to run the full analytic model.
    pub misses: u64,
    /// Distinct entries resident in the cache.
    pub entries: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (`0.0` when empty).
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate, {} entries)",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.entries
        )
    }
}

/// Per-layer cycle breakdown entry.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCycles {
    /// Layer index within the DNN.
    pub layer: usize,
    /// Display form of the operator.
    pub op: String,
    /// Compute cycles attributed to the layer (pipelined).
    pub compute_cycles: u64,
    /// DRAM transfer cycles attributed to the layer.
    pub memory_cycles: u64,
    /// Observed wall-clock cycles of the pipeline group (compute and
    /// memory overlapped); the target of Auto-HLS calibration.
    pub total_cycles: u64,
}

/// Simulation report for one DNN mapped onto the Tile-Arch accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// End-to-end cycles for one input image.
    pub total_cycles: u64,
    /// Cycles spent in compute (pipelined, overlap removed).
    pub compute_cycles: u64,
    /// Cycles spent in DRAM transfers that could not be hidden.
    pub exposed_memory_cycles: u64,
    /// Total DRAM traffic in bytes per image.
    pub dram_bytes: u64,
    /// Resource usage of the full accelerator.
    pub resources: ResourceUsage,
    /// Per-Bundle-replication cycle breakdown.
    pub layer_cycles: Vec<LayerCycles>,
    /// Fraction of total cycles during which the DSP array is busy;
    /// feeds the dynamic power model.
    pub dsp_activity: f64,
}

impl SimReport {
    /// Latency in milliseconds at `clock_mhz`.
    pub fn latency_ms(&self, clock_mhz: f64) -> f64 {
        self.total_cycles as f64 / (clock_mhz * 1e3)
    }

    /// Throughput in frames per second at `clock_mhz` for single-image
    /// (batch 1) operation.
    pub fn fps(&self, clock_mhz: f64) -> f64 {
        1000.0 / self.latency_ms(clock_mhz)
    }

    /// Utilization against a device budget.
    pub fn utilization(&self, budget: &ResourceUsage) -> Utilization {
        Utilization::of(&self.resources, budget)
    }

    /// Renders an ASCII Gantt chart of the pipeline groups: one bar per
    /// group, scaled to `width` columns, with compute (`#`) and exposed
    /// memory (`-`) segments. Useful for eyeballing where a design's
    /// cycles go.
    ///
    /// # Example
    ///
    /// ```
    /// # use codesign_sim::report::{LayerCycles, ResourceUsage, SimReport};
    /// # let report = SimReport {
    /// #     total_cycles: 100, compute_cycles: 80, exposed_memory_cycles: 20,
    /// #     dram_bytes: 0, resources: ResourceUsage::zero(),
    /// #     layer_cycles: vec![LayerCycles { layer: 0, op: "conv3x3(8)".into(),
    /// #         compute_cycles: 80, memory_cycles: 20, total_cycles: 100 }],
    /// #     dsp_activity: 0.5,
    /// # };
    /// let chart = report.gantt(40);
    /// assert!(chart.contains('#'));
    /// ```
    pub fn gantt(&self, width: usize) -> String {
        use std::fmt::Write as _;
        let width = width.max(10);
        let total: u64 = self
            .layer_cycles
            .iter()
            .map(|g| g.total_cycles)
            .sum::<u64>()
            .max(1);
        let mut out = String::new();
        let name_w = self
            .layer_cycles
            .iter()
            .map(|g| g.op.len().min(28))
            .max()
            .unwrap_or(8);
        for group in &self.layer_cycles {
            let cols = ((group.total_cycles as f64 / total as f64) * width as f64)
                .round()
                .max(1.0) as usize;
            let comp_cols = if group.total_cycles == 0 {
                0
            } else {
                ((group.compute_cycles.min(group.total_cycles) as f64 / group.total_cycles as f64)
                    * cols as f64)
                    .round() as usize
            }
            .min(cols);
            let mut name = group.op.clone();
            name.truncate(28);
            let _ = writeln!(
                out,
                "{name:<name_w$} |{}{}| {} cyc",
                "#".repeat(comp_cols),
                "-".repeat(cols - comp_cols),
                group.total_cycles
            );
        }
        out
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles ({} compute, {} exposed mem), {} DRAM bytes, {}",
            self.total_cycles,
            self.compute_cycles,
            self.exposed_memory_cycles,
            self.dram_bytes,
            self.resources
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn addition_is_fieldwise() {
        let a = ResourceUsage {
            dsp: 1,
            lut: 2,
            ff: 3,
            bram_18k: 4,
        };
        let b = ResourceUsage {
            dsp: 10,
            lut: 20,
            ff: 30,
            bram_18k: 40,
        };
        assert_eq!(
            a + b,
            ResourceUsage {
                dsp: 11,
                lut: 22,
                ff: 33,
                bram_18k: 44
            }
        );
    }

    #[test]
    fn utilization_fraction() {
        let usage = ResourceUsage {
            dsp: 110,
            lut: 26_600,
            ff: 0,
            bram_18k: 140,
        };
        let budget = ResourceUsage {
            dsp: 220,
            lut: 53_200,
            ff: 106_400,
            bram_18k: 280,
        };
        let u = Utilization::of(&usage, &budget);
        assert!((u.dsp - 0.5).abs() < 1e-9);
        assert!((u.lut - 0.5).abs() < 1e-9);
        assert!((u.bram - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_budget_gives_infinite_utilization() {
        let usage = ResourceUsage {
            dsp: 1,
            ..ResourceUsage::zero()
        };
        let u = Utilization::of(&usage, &ResourceUsage::zero());
        assert!(u.dsp.is_infinite());
    }

    #[test]
    fn latency_and_fps_are_consistent() {
        let r = SimReport {
            total_cycles: 8_000_000,
            compute_cycles: 7_000_000,
            exposed_memory_cycles: 1_000_000,
            dram_bytes: 0,
            resources: ResourceUsage::zero(),
            layer_cycles: vec![],
            dsp_activity: 0.9,
        };
        assert!((r.latency_ms(100.0) - 80.0).abs() < 1e-9);
        assert!((r.fps(100.0) - 12.5).abs() < 1e-9);
        // 1.5x clock => 1.5x fps.
        assert!((r.fps(150.0) / r.fps(100.0) - 1.5).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn prop_add_commutes(d1 in 0u64..1000, d2 in 0u64..1000,
                             l1 in 0u64..1000, l2 in 0u64..1000) {
            let a = ResourceUsage { dsp: d1, lut: l1, ff: 0, bram_18k: 0 };
            let b = ResourceUsage { dsp: d2, lut: l2, ff: 0, bram_18k: 0 };
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn prop_max_dominates_both(d1 in 0u64..1000, d2 in 0u64..1000) {
            let a = ResourceUsage { dsp: d1, ..ResourceUsage::zero() };
            let b = ResourceUsage { dsp: d2, ..ResourceUsage::zero() };
            let m = a.max(b);
            prop_assert!(m.dsp >= a.dsp && m.dsp >= b.dsp);
        }
    }
}
