//! The executable top-down flow baseline.
//!
//! The paper contrasts its bottom-up co-design with the contest winner's
//! top-down approach: "starting from a standard DNN-based detector
//! (SSD); after network compression, the DNN is small enough that
//! satisfies both hardware constraints and performance demands"
//! (Sec. 6). This module makes that flow executable on the same
//! substrate: an SSD-style conv3x3 backbone is built for accuracy
//! first, then uniformly channel-pruned until the accelerator fits the
//! device and meets the latency target, paying a compression penalty on
//! accuracy for every pruning round.

use codesign_dnn::builder::DnnBuilder;
use codesign_dnn::bundle::{bundle_by_id, BundleId};
use codesign_dnn::quant::Activation;
use codesign_dnn::space::DesignPoint;
use codesign_sim::device::FpgaDevice;
use codesign_sim::error::SimError;
use codesign_sim::pipeline::{simulate, AccelConfig};
use codesign_sim::report::SimReport;

/// Accuracy cost of one 25% channel-pruning round (post-compression
/// fine-tuning never fully recovers; ~1 IoU point per aggressive round
/// is in line with published compression results).
pub const PRUNE_ROUND_PENALTY: f64 = 0.010;

/// Channel shrink factor per pruning round.
pub const PRUNE_FACTOR: f64 = 0.75;

/// Result of the top-down flow.
#[derive(Debug, Clone, PartialEq)]
pub struct TopDownResult {
    /// Channel-pruning rounds applied before the design fit.
    pub prune_rounds: usize,
    /// Final channel cap after pruning.
    pub max_channels: usize,
    /// Estimated IoU after compression penalties.
    pub iou: f64,
    /// Latency in milliseconds at the evaluation clock.
    pub latency_ms: f64,
    /// Final synthesis-style report.
    pub report: SimReport,
}

/// The top-down compress-then-map flow.
///
/// # Example
///
/// ```
/// use codesign_baselines::TopDownFlow;
/// use codesign_sim::device::pynq_z1;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let result = TopDownFlow::new(pynq_z1()).run(100.0, 85.0)?;
/// assert!(result.prune_rounds > 0, "SSD never fits without compression");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TopDownFlow {
    device: FpgaDevice,
    /// Accuracy the uncompressed detector would reach with unlimited
    /// hardware (SSD-class detectors lead the contest's accuracy range).
    pub uncompressed_iou: f64,
}

impl TopDownFlow {
    /// Creates the flow for a device.
    pub fn new(device: FpgaDevice) -> Self {
        Self {
            device,
            uncompressed_iou: 0.70,
        }
    }

    /// The SSD-style starting design: a deep conv3x3 backbone (Bundle
    /// 10 is conv3x3 + conv3x3, the VGG-ish block SSD builds on) sized
    /// for accuracy, not for the device.
    pub fn uncompressed_point(&self) -> DesignPoint {
        let vgg_block = bundle_by_id(BundleId(10)).expect("bundle 10 exists");
        let mut p = DesignPoint::initial(vgg_block, 5);
        p.base_channels = 64;
        p.max_channels = 512;
        p.activation = Activation::Relu;
        p.parallel_factor = 64;
        p
    }

    /// Runs compress-until-fit: uniform channel pruning (25% per round)
    /// until the mapped accelerator fits the device *and* meets
    /// `latency_target_ms` at `clock_mhz`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when even the fully pruned
    /// network misses the constraints, or propagates simulator errors.
    pub fn run(&self, clock_mhz: f64, latency_target_ms: f64) -> Result<TopDownResult, SimError> {
        let builder = DnnBuilder::new();
        let mut point = self.uncompressed_point();
        let mut iou = self.uncompressed_iou;
        for round in 0..12 {
            let Ok(dnn) = builder.build(&point) else {
                return Err(SimError::InvalidConfig {
                    reason: "compressed network no longer elaborates".into(),
                });
            };
            // The top-down flow maxes out the DSP array for whatever
            // network survived compression (the contest winner reports
            // 100% DSP): pick the largest PF whose accelerator fits.
            let mut best: Option<SimReport> = None;
            let mut pf = 256;
            while pf >= 16 {
                point.parallel_factor = pf;
                let cfg = AccelConfig::for_point(&point);
                let report = simulate(&dnn, &cfg, &self.device)?;
                if self.device.check_fit(&report.resources).is_ok() {
                    best = Some(report);
                    break;
                }
                pf -= 16;
            }
            if let Some(report) = best {
                let latency_ms = report.latency_ms(clock_mhz);
                if latency_ms <= latency_target_ms {
                    return Ok(TopDownResult {
                        prune_rounds: round,
                        max_channels: point.max_channels,
                        iou,
                        latency_ms,
                        report,
                    });
                }
            }
            // Prune: shrink every channel cap by 25% and pay the
            // compression penalty.
            point.max_channels = ((point.max_channels as f64 * PRUNE_FACTOR) as usize).max(32);
            point.base_channels = ((point.base_channels as f64 * PRUNE_FACTOR) as usize).max(16);
            iou -= PRUNE_ROUND_PENALTY;
        }
        Err(SimError::InvalidConfig {
            reason: "top-down flow failed to meet constraints after 12 pruning rounds".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_sim::device::pynq_z1;

    #[test]
    fn ssd_needs_compression_to_fit() {
        let flow = TopDownFlow::new(pynq_z1());
        let result = flow.run(100.0, 90.0).unwrap();
        assert!(
            result.prune_rounds >= 2,
            "only {} rounds",
            result.prune_rounds
        );
        assert!(result.max_channels < 512);
        assert!(result.iou < flow.uncompressed_iou);
    }

    #[test]
    fn result_fits_device_and_target() {
        let result = TopDownFlow::new(pynq_z1()).run(100.0, 90.0).unwrap();
        assert!(pynq_z1().check_fit(&result.report.resources).is_ok());
        assert!(result.latency_ms <= 90.0);
    }

    #[test]
    fn tighter_target_costs_more_accuracy() {
        let loose = TopDownFlow::new(pynq_z1()).run(100.0, 150.0).unwrap();
        let tight = TopDownFlow::new(pynq_z1()).run(100.0, 60.0).unwrap();
        assert!(tight.prune_rounds >= loose.prune_rounds);
        assert!(tight.iou <= loose.iou);
    }

    #[test]
    fn impossible_target_is_an_error() {
        let err = TopDownFlow::new(pynq_z1()).run(100.0, 0.01).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }));
    }
}
