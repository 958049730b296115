//! Bundle-Arch: the hardware-aware DNN building-block template.
//!
//! A *Bundle* (paper Sec. 4.1) is a short sequence of DNN layers used as
//! the basic building block for bottom-up DNN construction. On the FPGA
//! a Bundle corresponds to the set of IP instances that compute it, laid
//! out according to the Tile-Arch template. Because IoT-scale devices
//! are resource-starved, the paper limits each Bundle to at most **two
//! computational IPs** (Sec. 4.2) and enumerates **18 Bundle candidates
//! offline**; [`enumerate_bundles`] reproduces that enumeration.

use crate::error::DnnError;
use crate::layer::LayerOp;
use crate::quant::Activation;
use std::fmt;

/// Maximum number of computational IPs per Bundle for IoT-scale devices.
pub const MAX_COMPUTATIONAL_IPS: usize = 2;

/// Number of Bundle candidates generated offline in the paper.
pub const PAPER_BUNDLE_COUNT: usize = 18;

/// One-based identifier of a Bundle candidate, matching the paper's
/// numbering (e.g. Bundle 13 is `<dw-conv3x3 + conv1x1>`, the block used
/// by the final DNN1-3 designs in Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BundleId(pub usize);

impl fmt::Display for BundleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bundle-{}", self.0)
    }
}

/// Skeleton operator of a Bundle: the computational IPs before channel
/// counts are decided. Channel counts are chosen later by the DNN
/// builder, so the skeleton only records *how* output channels relate to
/// the Bundle's output width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SkeletonOp {
    /// Standard convolution with kernel `k`; output channels are set to
    /// the Bundle's output width.
    Conv {
        /// Kernel size.
        k: usize,
    },
    /// Depth-wise convolution with kernel `k`; preserves channels.
    DwConv {
        /// Kernel size.
        k: usize,
    },
}

impl SkeletonOp {
    /// True if the op can change the channel count.
    pub fn expands_channels(&self) -> bool {
        matches!(self, SkeletonOp::Conv { .. })
    }
}

impl fmt::Display for SkeletonOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkeletonOp::Conv { k } => write!(f, "conv{k}x{k}"),
            SkeletonOp::DwConv { k } => write!(f, "dw-conv{k}x{k}"),
        }
    }
}

/// A hardware-aware DNN building block (paper Fig. 2).
///
/// The Bundle stores its computational-IP skeleton; batch normalization
/// and activation follow every computational IP when the Bundle is
/// elaborated by the DNN builder, matching the paper's template where
/// activation / normalization IPs are shared LUT-level resources.
///
/// # Example
///
/// ```
/// use codesign_dnn::bundle::{Bundle, SkeletonOp, BundleId};
///
/// # fn main() -> Result<(), codesign_dnn::DnnError> {
/// // The paper's Bundle 13: <dw-conv3x3 + conv1x1>.
/// let b = Bundle::new(
///     BundleId(13),
///     vec![SkeletonOp::DwConv { k: 3 }, SkeletonOp::Conv { k: 1 }],
/// )?;
/// assert_eq!(b.computational_ip_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bundle {
    id: BundleId,
    /// Skeleton length: `ops[..len]` is the skeleton.
    len: usize,
    /// The skeleton, stored inline. Unused slots repeat the first op, so
    /// the derived equality and hash depend on the skeleton alone.
    ops: [SkeletonOp; MAX_COMPUTATIONAL_IPS],
}

impl Bundle {
    /// Creates a Bundle from its computational-IP skeleton.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::EmptyBundle`] for an empty skeleton and
    /// [`DnnError::TooManyIps`] when more than
    /// [`MAX_COMPUTATIONAL_IPS`] operators are supplied.
    pub fn new(id: BundleId, ops: Vec<SkeletonOp>) -> Result<Self, DnnError> {
        if ops.is_empty() {
            return Err(DnnError::EmptyBundle);
        }
        if ops.len() > MAX_COMPUTATIONAL_IPS {
            return Err(DnnError::TooManyIps {
                requested: ops.len(),
                limit: MAX_COMPUTATIONAL_IPS,
            });
        }
        Ok(Self::inline(id, &ops))
    }

    /// The Bundle of a skeleton of 1 to [`MAX_COMPUTATIONAL_IPS`] ops
    /// (any other length panics, at compile time in a constant).
    const fn inline(id: BundleId, ops: &[SkeletonOp]) -> Self {
        let mut inline = [ops[0]; MAX_COMPUTATIONAL_IPS];
        let mut i = 1;
        while i < ops.len() {
            inline[i] = ops[i];
            i += 1;
        }
        Self {
            id,
            len: ops.len(),
            ops: inline,
        }
    }

    /// The Bundle's identifier in the paper's 1..=18 numbering.
    pub fn id(&self) -> BundleId {
        self.id
    }

    /// The computational-IP skeleton.
    pub fn ops(&self) -> &[SkeletonOp] {
        &self.ops[..self.len]
    }

    /// Number of computational IPs (1 or 2).
    pub fn computational_ip_count(&self) -> usize {
        self.len
    }

    /// True if any operator in the Bundle is a standard convolution
    /// (i.e. the Bundle can widen the channel count by itself).
    pub fn can_expand_channels(&self) -> bool {
        self.ops().iter().any(SkeletonOp::expands_channels)
    }

    /// Elaborates the Bundle into concrete layer operators for a given
    /// output channel width. Every computational IP is followed by batch
    /// normalization and the supplied activation, as in Fig. 2.
    ///
    /// `out_channels` sets the output width of channel-expanding
    /// convolutions; depth-wise convolutions keep their input width.
    pub fn elaborate(
        &self,
        out_channels: usize,
        act: Activation,
    ) -> impl Iterator<Item = LayerOp> + '_ {
        self.ops().iter().flat_map(move |op| {
            let layer = match *op {
                SkeletonOp::Conv { k } => LayerOp::conv(k, out_channels),
                SkeletonOp::DwConv { k } => LayerOp::dw_conv(k),
            };
            [layer, LayerOp::BatchNorm, LayerOp::activation(act)]
        })
    }
}

impl fmt::Debug for Bundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bundle")
            .field("id", &self.id)
            .field("ops", &self.ops())
            .finish()
    }
}

impl fmt::Display for Bundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} <", self.id)?;
        for (i, op) in self.ops().iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{op}")?;
        }
        write!(f, ">")
    }
}

/// The paper's Bundle candidates in identifier order: see
/// [`enumerate_bundles`].
const PAPER_BUNDLES: [Bundle; PAPER_BUNDLE_COUNT] = {
    use SkeletonOp::{Conv, DwConv};
    const fn b(id: usize, ops: &[SkeletonOp]) -> Bundle {
        Bundle::inline(BundleId(id), ops)
    }
    [
        // 1-6: single computational IP.
        b(1, &[Conv { k: 3 }]),
        b(2, &[Conv { k: 1 }]),
        b(3, &[Conv { k: 5 }]),
        b(4, &[DwConv { k: 3 }]),
        b(5, &[DwConv { k: 5 }]),
        b(6, &[DwConv { k: 7 }]),
        // 7-12: two standard convolutions.
        b(7, &[Conv { k: 1 }, Conv { k: 3 }]),
        b(8, &[Conv { k: 3 }, Conv { k: 1 }]),
        b(9, &[Conv { k: 1 }, Conv { k: 5 }]),
        b(10, &[Conv { k: 3 }, Conv { k: 3 }]),
        b(11, &[Conv { k: 5 }, Conv { k: 1 }]),
        b(12, &[Conv { k: 3 }, Conv { k: 5 }]),
        // 13-18: depth-wise / point-wise combinations.
        b(13, &[DwConv { k: 3 }, Conv { k: 1 }]),
        b(14, &[DwConv { k: 5 }, Conv { k: 1 }]),
        b(15, &[Conv { k: 1 }, DwConv { k: 3 }]),
        b(16, &[DwConv { k: 7 }, Conv { k: 1 }]),
        b(17, &[Conv { k: 1 }, DwConv { k: 5 }]),
        b(18, &[DwConv { k: 3 }, Conv { k: 3 }]),
    ]
};

/// Enumerates the 18 Bundle candidates used in the paper's experiments
/// (Sec. 4.2), ordered so that `result[i]` has `BundleId(i + 1)`.
///
/// The enumeration follows the paper's IP pool — conv 1x1 / 3x3 / 5x5
/// and depth-wise conv 3x3 / 5x5 / 7x7, with at most two computational
/// IPs per Bundle — and is fixed so that the Bundles called out in the
/// paper keep their published identities:
///
/// * Bundle 13 is `<dw-conv3x3 + conv1x1>` (the block of DNN1-3, Fig. 6);
/// * the coarse-evaluation Pareto set is {1, 3, 13, 15, 17} (Fig. 4).
///
/// # Example
///
/// ```
/// use codesign_dnn::bundle::enumerate_bundles;
///
/// let bundles = enumerate_bundles();
/// assert_eq!(bundles.len(), 18);
/// ```
pub fn enumerate_bundles() -> Vec<Bundle> {
    PAPER_BUNDLES.to_vec()
}

/// Looks up a Bundle candidate by its paper identifier.
///
/// Returns `None` when `id` is outside `1..=18`.
pub fn bundle_by_id(id: BundleId) -> Option<Bundle> {
    PAPER_BUNDLES.get(id.0.checked_sub(1)?).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn eighteen_candidates() {
        assert_eq!(enumerate_bundles().len(), PAPER_BUNDLE_COUNT);
    }

    #[test]
    fn ids_are_sequential() {
        for (i, b) in enumerate_bundles().iter().enumerate() {
            assert_eq!(b.id(), BundleId(i + 1));
        }
    }

    #[test]
    fn bundle_13_is_mobilenet_block() {
        let b = bundle_by_id(BundleId(13)).unwrap();
        assert_eq!(b.to_string(), "bundle-13 <dw-conv3x3 + conv1x1>");
    }

    #[test]
    fn bundle_1_is_conv3x3() {
        let b = bundle_by_id(BundleId(1)).unwrap();
        assert_eq!(b.ops(), &[SkeletonOp::Conv { k: 3 }]);
    }

    #[test]
    fn bundle_3_is_conv5x5() {
        let b = bundle_by_id(BundleId(3)).unwrap();
        assert_eq!(b.ops(), &[SkeletonOp::Conv { k: 5 }]);
    }

    #[test]
    fn all_bundles_within_ip_limit() {
        for b in enumerate_bundles() {
            assert!(b.computational_ip_count() <= MAX_COMPUTATIONAL_IPS);
            assert!(b.computational_ip_count() >= 1);
        }
    }

    #[test]
    fn empty_bundle_rejected() {
        assert_eq!(
            Bundle::new(BundleId(1), vec![]).unwrap_err(),
            DnnError::EmptyBundle
        );
    }

    #[test]
    fn oversized_bundle_rejected() {
        let ops = vec![SkeletonOp::Conv { k: 1 }; 3];
        assert!(matches!(
            Bundle::new(BundleId(1), ops).unwrap_err(),
            DnnError::TooManyIps { requested: 3, .. }
        ));
    }

    #[test]
    fn out_of_range_lookup() {
        assert!(bundle_by_id(BundleId(0)).is_none());
        assert!(bundle_by_id(BundleId(19)).is_none());
        assert!(bundle_by_id(BundleId(18)).is_some());
    }

    #[test]
    fn elaboration_interleaves_norm_and_activation() {
        let b = bundle_by_id(BundleId(13)).unwrap();
        let layers: Vec<_> = b.elaborate(64, Activation::Relu4).collect();
        assert_eq!(layers.len(), 6);
        assert_eq!(layers[0], LayerOp::dw_conv(3));
        assert_eq!(layers[1], LayerOp::BatchNorm);
        assert_eq!(layers[2], LayerOp::activation(Activation::Relu4));
        assert_eq!(layers[3], LayerOp::conv(1, 64));
    }

    #[test]
    fn enumeration_has_no_duplicate_skeletons() {
        let bundles = enumerate_bundles();
        for i in 0..bundles.len() {
            for j in (i + 1)..bundles.len() {
                assert_ne!(bundles[i].ops(), bundles[j].ops(), "bundles {i} and {j}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_elaboration_length(id in 1usize..=18, ch in 1usize..256) {
            let b = bundle_by_id(BundleId(id)).unwrap();
            let layers = b.elaborate(ch, Activation::Relu).count();
            prop_assert_eq!(layers, b.computational_ip_count() * 3);
        }

        #[test]
        fn prop_elaborated_convs_use_requested_width(id in 1usize..=18, ch in 1usize..256) {
            let b = bundle_by_id(BundleId(id)).unwrap();
            for layer in b.elaborate(ch, Activation::Relu8) {
                if let LayerOp::Conv { out_channels, .. } = layer {
                    prop_assert_eq!(out_channels, ch);
                }
            }
        }
    }
}
