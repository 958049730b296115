//! Configurable IP instances.
//!
//! Each IP instance `p_j` of Table 1 is a hardware engine for one layer
//! type, configured with a parallel factor `PF_j` (multiply-accumulate
//! lanes working in parallel) and a quantization scheme `Q_j`. Following
//! the paper (Sec. 5.2.1), `PF` and `Q` are kept consistent across all
//! instances of a design so IPs can be reused across layers and BRAM
//! buffers shared between IPs.
//!
//! Cycle counts model a pipelined engine with initiation interval 1 on
//! its inner loop: one invocation processes one tile of one layer and
//! takes `ceil(work / PF)` cycles plus a fixed pipeline ramp.

use crate::error::SimError;
use crate::report::ResourceUsage;
use codesign_dnn::layer::{LayerOp, PoolKind, TensorShape};
use codesign_dnn::quant::Quantization;
use std::fmt;

/// Pipeline ramp-up cycles per IP invocation (fill + drain of the
/// engine's inner pipeline plus AXI handshaking).
pub const INVOCATION_OVERHEAD: u64 = 24;

/// Parallel lanes of the LUT-implemented element-wise IPs (pooling,
/// normalization, activation); these do not consume DSPs.
pub const ELEMENTWISE_LANES: u64 = 8;

/// The category of hardware IP template a layer maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpKind {
    /// Standard convolution engine with kernel `k`.
    Conv {
        /// Kernel size.
        k: usize,
    },
    /// Depth-wise convolution engine with kernel `k`.
    DwConv {
        /// Kernel size.
        k: usize,
    },
    /// Pooling engine (max or average, shared hardware).
    Pool,
    /// Element-wise engine: batch-norm scale/bias and activations.
    Elementwise,
}

impl IpKind {
    /// The IP template a layer operator requires.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedLayer`] for operators outside the
    /// Tile-Arch IP pool.
    pub fn for_op(op: &LayerOp) -> Result<Self, SimError> {
        match *op {
            LayerOp::Conv { k, .. } => Ok(IpKind::Conv { k }),
            LayerOp::DwConv { k } => Ok(IpKind::DwConv { k }),
            LayerOp::Pool { .. } | LayerOp::GlobalAvgPool => Ok(IpKind::Pool),
            LayerOp::BatchNorm | LayerOp::Activation { .. } => Ok(IpKind::Elementwise),
            #[allow(unreachable_patterns)]
            ref other => Err(SimError::UnsupportedLayer {
                op: other.to_string(),
            }),
        }
    }
}

impl fmt::Display for IpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpKind::Conv { k } => write!(f, "conv{k}x{k}-ip"),
            IpKind::DwConv { k } => write!(f, "dwconv{k}x{k}-ip"),
            IpKind::Pool => write!(f, "pool-ip"),
            IpKind::Elementwise => write!(f, "elementwise-ip"),
        }
    }
}

/// A configured IP instance: template + parallel factor + quantization.
///
/// # Example
///
/// ```
/// use codesign_sim::ip::{IpInstance, IpKind};
/// use codesign_dnn::quant::Quantization;
///
/// let ip = IpInstance::new(IpKind::Conv { k: 3 }, 64, Quantization::Int8);
/// // 64 int8 MAC lanes pack into 32 DSPs (+ control).
/// assert!(ip.resources().dsp >= 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IpInstance {
    /// IP template.
    pub kind: IpKind,
    /// Parallel factor: MAC lanes for convolution engines, ignored for
    /// LUT-level engines.
    pub pf: usize,
    /// Quantization scheme.
    pub quant: Quantization,
}

impl IpInstance {
    /// Creates a configured instance.
    pub fn new(kind: IpKind, pf: usize, quant: Quantization) -> Self {
        Self { kind, pf, quant }
    }

    /// Resource footprint of the instance's compute logic (weight and
    /// data buffers are accounted at the accelerator level because they
    /// are shared across IPs).
    ///
    /// DSP usage packs MAC lanes according to the quantization scheme
    /// (two int8 MACs per DSP48); LUT/FF scale with the lane count and
    /// kernel window.
    pub fn resources(&self) -> ResourceUsage {
        match self.kind {
            IpKind::Conv { k } | IpKind::DwConv { k } => {
                let lanes = self.pf as u64;
                let dsp = lanes.div_ceil(self.quant.macs_per_dsp() as u64) + 2;
                let window = (k * k) as u64;
                ResourceUsage {
                    dsp,
                    lut: 850 + 46 * lanes + 28 * window,
                    ff: 1200 + 64 * lanes + 20 * window,
                    // Line buffers for the sliding window: k rows of the
                    // tile; charged per engine, sized at tile level, a
                    // small fixed number of blocks here.
                    bram_18k: 2 + (window / 9).min(4),
                }
            }
            IpKind::Pool => ResourceUsage {
                dsp: 0,
                lut: 900 + 30 * ELEMENTWISE_LANES,
                ff: 700,
                bram_18k: 2,
            },
            IpKind::Elementwise => ResourceUsage {
                dsp: 0,
                lut: 650,
                ff: 500,
                bram_18k: 0,
            },
        }
    }

    /// Cycles for one invocation of the IP on a tile of spatial size
    /// `tile_h x tile_w` with the given input/output channel counts:
    /// `⌈work / lanes⌉` plus the fixed pipeline ramp.
    ///
    /// `op` supplies per-layer details (pooling window, etc.); the
    /// instance's template must match the operator's category.
    pub fn invocation_cycles(
        &self,
        op: &LayerOp,
        tile_h: usize,
        tile_w: usize,
        in_ch: usize,
        out_ch: usize,
    ) -> u64 {
        self.invocation_work(op, tile_h, tile_w, in_ch, out_ch)
            .div_ceil(self.lanes())
            + INVOCATION_OVERHEAD
    }

    /// The lane-independent work of one invocation — the unit count the
    /// engine's MAC/LUT lanes divide. Exposed separately so incremental
    /// estimators can precompute it per layer and re-price a design at
    /// many parallel factors without re-walking shapes.
    pub fn invocation_work(
        &self,
        op: &LayerOp,
        tile_h: usize,
        tile_w: usize,
        in_ch: usize,
        out_ch: usize,
    ) -> u64 {
        let pixels = (tile_h * tile_w) as u64;
        match (*op, self.kind) {
            (LayerOp::Conv { k, .. }, IpKind::Conv { .. }) => {
                (k * k) as u64 * in_ch as u64 * out_ch as u64 * pixels
            }
            (LayerOp::DwConv { k }, IpKind::DwConv { .. }) => {
                (k * k) as u64 * in_ch as u64 * pixels
            }
            (LayerOp::Pool { k, kind }, IpKind::Pool) => {
                let window_cost = match kind {
                    PoolKind::Max => 1,
                    PoolKind::Avg => 2, // running sum + final divide
                };
                (k * k) as u64 * window_cost * in_ch as u64 * pixels / ((k * k) as u64).max(1)
            }
            (LayerOp::GlobalAvgPool, IpKind::Pool) => in_ch as u64 * pixels,
            (LayerOp::BatchNorm, IpKind::Elementwise)
            | (LayerOp::Activation { .. }, IpKind::Elementwise) => in_ch as u64 * pixels,
            // Mismatched op/template: treated as a full sequential pass
            // so bugs surface as gross latency, never as free compute.
            _ => (in_ch * out_ch) as u64 * pixels,
        }
    }

    /// Parallel lanes dividing [`invocation_work`](Self::invocation_work):
    /// the configured MAC lanes for convolution engines, the fixed
    /// [`ELEMENTWISE_LANES`] for LUT-level engines, at least 1.
    pub fn lanes(&self) -> u64 {
        match self.kind {
            IpKind::Conv { .. } | IpKind::DwConv { .. } => self.pf as u64,
            IpKind::Pool | IpKind::Elementwise => ELEMENTWISE_LANES,
        }
        .max(1)
    }

    /// Cycles to stream one layer's weights into the on-chip weight
    /// buffer, assuming the full DRAM bandwidth `bytes_per_cycle` is
    /// available to the loader.
    pub fn weight_load_cycles(
        &self,
        op: &LayerOp,
        input: TensorShape,
        bytes_per_cycle: f64,
    ) -> u64 {
        let bytes = op.params(input) * self.quant.bytes() as u64;
        if bytes == 0 {
            0
        } else {
            (bytes as f64 / bytes_per_cycle).ceil() as u64
        }
    }
}

impl fmt::Display for IpInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} pf={} {}", self.kind, self.pf, self.quant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::quant::Activation;
    use proptest::prelude::*;

    #[test]
    fn op_to_ip_mapping() {
        assert_eq!(
            IpKind::for_op(&LayerOp::conv(3, 8)).unwrap(),
            IpKind::Conv { k: 3 }
        );
        assert_eq!(
            IpKind::for_op(&LayerOp::dw_conv(5)).unwrap(),
            IpKind::DwConv { k: 5 }
        );
        assert_eq!(IpKind::for_op(&LayerOp::max_pool(2)).unwrap(), IpKind::Pool);
        assert_eq!(
            IpKind::for_op(&LayerOp::activation(Activation::Relu)).unwrap(),
            IpKind::Elementwise
        );
        assert_eq!(
            IpKind::for_op(&LayerOp::GlobalAvgPool).unwrap(),
            IpKind::Pool
        );
    }

    #[test]
    fn int8_packs_two_macs_per_dsp() {
        let i8 = IpInstance::new(IpKind::Conv { k: 3 }, 64, Quantization::Int8);
        let i16 = IpInstance::new(IpKind::Conv { k: 3 }, 64, Quantization::Int16);
        assert_eq!(i8.resources().dsp, 32 + 2);
        assert_eq!(i16.resources().dsp, 64 + 2);
    }

    #[test]
    fn pool_uses_no_dsp() {
        let ip = IpInstance::new(IpKind::Pool, 16, Quantization::Int8);
        assert_eq!(ip.resources().dsp, 0);
    }

    #[test]
    fn conv_cycles_match_work_over_lanes() {
        let ip = IpInstance::new(IpKind::Conv { k: 3 }, 16, Quantization::Int8);
        let op = LayerOp::conv(3, 32);
        // 3*3*8*32 MACs/pixel * 100 pixels / 16 lanes + overhead.
        let expected = (9u64 * 8 * 32 * 100).div_ceil(16) + INVOCATION_OVERHEAD;
        assert_eq!(ip.invocation_cycles(&op, 10, 10, 8, 32), expected);
    }

    #[test]
    fn dwconv_is_cheaper_than_conv() {
        let conv = IpInstance::new(IpKind::Conv { k: 3 }, 16, Quantization::Int8);
        let dw = IpInstance::new(IpKind::DwConv { k: 3 }, 16, Quantization::Int8);
        let c = conv.invocation_cycles(&LayerOp::conv(3, 64), 10, 10, 64, 64);
        let d = dw.invocation_cycles(&LayerOp::dw_conv(3), 10, 10, 64, 64);
        assert!(d < c / 10);
    }

    #[test]
    fn doubling_pf_roughly_halves_cycles() {
        let slow = IpInstance::new(IpKind::Conv { k: 3 }, 8, Quantization::Int8);
        let fast = IpInstance::new(IpKind::Conv { k: 3 }, 16, Quantization::Int8);
        let op = LayerOp::conv(3, 64);
        let s = slow.invocation_cycles(&op, 20, 20, 32, 64) - INVOCATION_OVERHEAD;
        let f = fast.invocation_cycles(&op, 20, 20, 32, 64) - INVOCATION_OVERHEAD;
        assert!((s as f64 / f as f64 - 2.0).abs() < 0.01);
    }

    #[test]
    fn weight_load_respects_bandwidth() {
        let ip = IpInstance::new(IpKind::Conv { k: 3 }, 16, Quantization::Int16);
        let op = LayerOp::conv(3, 16);
        let input = TensorShape::new(8, 20, 20);
        let cycles_fast = ip.weight_load_cycles(&op, input, 8.0);
        let cycles_slow = ip.weight_load_cycles(&op, input, 4.0);
        assert!(cycles_slow >= 2 * cycles_fast - 1);
        // Activation layers carry no weights.
        assert_eq!(
            ip.weight_load_cycles(&LayerOp::activation(Activation::Relu), input, 8.0),
            0
        );
    }

    proptest! {
        #[test]
        fn prop_cycles_monotone_in_channels(ci in 1usize..64, co in 1usize..64) {
            let ip = IpInstance::new(IpKind::Conv { k: 3 }, 16, Quantization::Int8);
            let op_small = LayerOp::conv(3, co);
            let op_big = LayerOp::conv(3, co + 8);
            let small = ip.invocation_cycles(&op_small, 8, 8, ci, co);
            let big = ip.invocation_cycles(&op_big, 8, 8, ci, co + 8);
            prop_assert!(big >= small);
        }

        #[test]
        fn prop_resources_monotone_in_pf(pf in 1usize..128) {
            let a = IpInstance::new(IpKind::Conv { k: 3 }, pf, Quantization::Int16);
            let b = IpInstance::new(IpKind::Conv { k: 3 }, pf + 8, Quantization::Int16);
            prop_assert!(b.resources().dsp >= a.resources().dsp);
            prop_assert!(b.resources().lut >= a.resources().lut);
        }

        #[test]
        fn prop_invocation_has_minimum_overhead(th in 1usize..16, tw in 1usize..16) {
            let ip = IpInstance::new(IpKind::Pool, 4, Quantization::Int8);
            let c = ip.invocation_cycles(&LayerOp::max_pool(2), th, tw, 4, 4);
            prop_assert!(c >= INVOCATION_OVERHEAD);
        }
    }
}
