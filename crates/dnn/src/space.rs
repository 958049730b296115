//! The co-design space of Table 1.
//!
//! A [`DesignPoint`] fixes every variable the co-design flow searches
//! over: the Bundle, the number of replications `N`, the down-sampling
//! vector `X`, the channel-expansion vector `Π`, the shared parallel
//! factor `PF` and quantization scheme `Q` of the IP instances, and the
//! activation function. Together these specify both the DNN model and
//! its accelerator (paper Sec. 3.1).

use crate::bundle::{Bundle, SkeletonOp};
use crate::error::DnnError;
use crate::quant::{Activation, Quantization};
use std::fmt;

/// Channel-expansion factors available to the SCD unit (paper
/// Sec. 5.2.2): `{1.2, 1.3, 1.5, 1.75, 2}` plus `1.0` ("do not expand").
pub const CHANNEL_EXPANSION_FACTORS: [f64; 6] = [1.0, 1.2, 1.3, 1.5, 1.75, 2.0];

/// Canonical parallel factors swept by the coarse evaluation (the paper
/// sweeps PF = 4/8/16 in Fig. 4 and uses the maximum that fits for the
/// final designs).
pub const PARALLEL_FACTORS: [usize; 7] = [4, 8, 16, 32, 64, 128, 256];

/// Largest legal parallel factor. Any multiple of
/// [`PARALLEL_FACTOR_STEP`] up to this bound is a legal `PF`, matching
/// HLS array-partition factors.
pub const MAX_PARALLEL_FACTOR: usize = 512;

/// Granularity of legal parallel factors.
pub const PARALLEL_FACTOR_STEP: usize = 4;

/// True when `pf` is a legal parallel factor: a positive multiple of
/// [`PARALLEL_FACTOR_STEP`] no larger than [`MAX_PARALLEL_FACTOR`].
pub fn is_legal_parallel_factor(pf: usize) -> bool {
    (PARALLEL_FACTOR_STEP..=MAX_PARALLEL_FACTOR).contains(&pf)
        && pf.is_multiple_of(PARALLEL_FACTOR_STEP)
}

/// A fully specified point in the co-design space.
///
/// # Example
///
/// ```
/// use codesign_dnn::{bundle, space::DesignPoint};
///
/// let bundles = bundle::enumerate_bundles();
/// let p = DesignPoint::initial(bundles[0], 3);
/// assert_eq!(p.replications(), 3);
/// assert_eq!(p.channel_expansion().len(), 3);
/// ```
#[derive(Debug, PartialEq)]
pub struct DesignPoint {
    /// The Bundle replicated to build the DNN.
    pub bundle: Bundle,
    /// Number of Bundle replications `N`.
    pub n_replications: usize,
    /// Down-sampling vector `X`: `downsample[i]` is true when a 2x2
    /// down-sampling layer is inserted *after* replication `i`.
    pub downsample: Vec<bool>,
    /// Channel-expansion vector `Π`: `expansion[i]` multiplies the
    /// channel width entering replication `i`. Values are drawn from
    /// [`CHANNEL_EXPANSION_FACTORS`].
    pub expansion: Vec<f64>,
    /// Shared parallel factor `PF` of all IP instances. Kept consistent
    /// across instances to allow IP reuse across layers (Sec. 5.2.1).
    pub parallel_factor: usize,
    /// Activation function; fixes the quantization scheme `Q`.
    pub activation: Activation,
    /// Base channel width entering the first replication.
    pub base_channels: usize,
    /// Upper bound on channel width anywhere in the DNN (e.g. 512 for
    /// DNN1 in Fig. 6). Expansion saturates at this cap.
    pub max_channels: usize,
}

impl DesignPoint {
    /// Creates the initial design point used by DNN initialization
    /// (paper Sec. 5.2.1): `n` replications, down-sampling after every
    /// replication except the last, expansion factor 2 for
    /// channel-expanding Bundles and 1 otherwise, PF = 16, `Relu`.
    pub fn initial(bundle: Bundle, n: usize) -> Self {
        let n = n.max(1);
        let expand = if bundle.can_expand_channels() {
            2.0
        } else {
            1.0
        };
        Self {
            downsample: (0..n).map(|i| i + 1 < n).collect(),
            expansion: (0..n).map(|i| if i == 0 { 1.0 } else { expand }).collect(),
            bundle,
            n_replications: n,
            parallel_factor: 16,
            activation: Activation::Relu,
            base_channels: 32,
            max_channels: 512,
        }
    }

    /// Number of Bundle replications `N`.
    pub fn replications(&self) -> usize {
        self.n_replications
    }

    /// The down-sampling vector `X`.
    pub fn downsampling(&self) -> &[bool] {
        &self.downsample
    }

    /// The channel-expansion vector `Π`.
    pub fn channel_expansion(&self) -> &[f64] {
        &self.expansion
    }

    /// Quantization scheme implied by the activation function.
    pub fn quantization(&self) -> Quantization {
        self.activation.quantization()
    }

    /// Channel width entering replication `i` (0-based), applying the
    /// expansion vector cumulatively from `base_channels` and saturating
    /// at `max_channels`. Widths are rounded to the nearest multiple of
    /// 8 (and at least 8) so that feature maps pack evenly into BRAM
    /// words.
    pub fn channels_at(&self, i: usize) -> usize {
        let mut ch = self.base_channels as f64;
        for rep in 0..=i.min(self.n_replications.saturating_sub(1)) {
            let f = self.expansion.get(rep).copied().unwrap_or(1.0);
            ch = (ch * f).min(self.max_channels as f64);
        }
        let rounded = ((ch / 8.0).round() as usize).max(1) * 8;
        rounded.min(self.max_channels)
    }

    /// Widest channel count the design actually reaches: the realized
    /// maximum of [`channels_at`](Self::channels_at) over every
    /// replication, which can sit below the `max_channels` cap when the
    /// expansion vector never saturates it. This is the width the
    /// paper's Fig. 6 labels report.
    pub fn realized_max_channels(&self) -> usize {
        (0..self.n_replications)
            .map(|i| self.channels_at(i))
            .max()
            .unwrap_or(self.max_channels)
            .min(self.max_channels)
    }

    /// Validates the point's parameters against their legal domains.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidParameter`] for a zero replication
    /// count, vectors whose length disagrees with `N`, an expansion
    /// factor outside [`CHANNEL_EXPANSION_FACTORS`], an illegal parallel
    /// factor (see [`is_legal_parallel_factor`]), or zero channel widths.
    pub fn validate(&self) -> Result<(), DnnError> {
        if self.n_replications == 0 {
            return Err(DnnError::InvalidParameter {
                name: "n_replications".into(),
                value: "0".into(),
            });
        }
        if self.downsample.len() != self.n_replications {
            return Err(DnnError::InvalidParameter {
                name: "downsample vector length".into(),
                value: self.downsample.len().to_string(),
            });
        }
        if self.expansion.len() != self.n_replications {
            return Err(DnnError::InvalidParameter {
                name: "expansion vector length".into(),
                value: self.expansion.len().to_string(),
            });
        }
        for &f in &self.expansion {
            if !CHANNEL_EXPANSION_FACTORS
                .iter()
                .any(|&g| (g - f).abs() < 1e-9)
            {
                return Err(DnnError::InvalidParameter {
                    name: "channel expansion factor".into(),
                    value: format!("{f}"),
                });
            }
        }
        if !is_legal_parallel_factor(self.parallel_factor) {
            return Err(DnnError::InvalidParameter {
                name: "parallel factor".into(),
                value: self.parallel_factor.to_string(),
            });
        }
        if self.base_channels == 0 || self.max_channels == 0 {
            return Err(DnnError::InvalidParameter {
                name: "channel width".into(),
                value: "0".into(),
            });
        }
        Ok(())
    }

    /// Feeds a canonical, collision-free encoding of the design point to
    /// `sink`, one `u64` word at a time.
    ///
    /// Two points produce the same word sequence exactly when every
    /// field the analytic models read is identical: the Bundle skeleton
    /// (id and operators, encoded exactly rather than hashed), `N`, the
    /// down-sampling vector `X` (length-prefixed and bit-packed into as
    /// many words as needed — slot `i` and slot `i + 64` land in
    /// *different* words, so long vectors never alias), the
    /// channel-expansion vector `Π` as IEEE-754 bit patterns, `PF`, the
    /// activation arm, and the channel-width bounds. Length prefixes
    /// keep the encoding prefix-free, so unequal-length vectors cannot
    /// collide either.
    ///
    /// Estimate caches and candidate de-duplication both build their
    /// keys from this encoding (see [`DesignPoint::canonical_key`]).
    pub fn encode_canonical(&self, sink: &mut impl FnMut(u64)) {
        sink(self.bundle.id().0 as u64);
        let ops = self.bundle.ops();
        sink(ops.len() as u64);
        for op in ops {
            let (tag, k) = match *op {
                SkeletonOp::Conv { k } => (0u64, k),
                SkeletonOp::DwConv { k } => (1u64, k),
            };
            sink((tag << 32) | k as u64);
        }
        sink(self.n_replications as u64);
        sink(self.downsample.len() as u64);
        for chunk in self.downsample.chunks(64) {
            let mut word = 0u64;
            for (i, &d) in chunk.iter().enumerate() {
                word |= (d as u64) << i;
            }
            sink(word);
        }
        sink(self.expansion.len() as u64);
        for &f in &self.expansion {
            sink(f.to_bits());
        }
        sink(self.parallel_factor as u64);
        sink(match self.activation {
            Activation::Relu => 0,
            Activation::Relu4 => 1,
            Activation::Relu8 => 2,
        });
        sink(self.base_channels as u64);
        sink(self.max_channels as u64);
    }

    /// The canonical encoding of
    /// [`encode_canonical`](Self::encode_canonical) as an owned
    /// little-endian byte string — a hashable identity key for design
    /// points (`f64` fields rule out deriving `Hash`/`Eq` directly).
    pub fn canonical_key(&self) -> Vec<u8> {
        let mut key = Vec::with_capacity((24 + self.n_replications) * 8);
        self.encode_canonical(&mut |w| key.extend_from_slice(&w.to_le_bytes()));
        key
    }

    /// Returns a copy with `delta` added to the replication count; see
    /// [`move_replications`](Self::move_replications).
    pub fn with_replication_delta(&self, delta: isize) -> Self {
        let mut out = self.clone();
        out.move_replications(delta);
        out
    }

    /// Adds `delta` to the replication count in place (saturating at 1
    /// below), resizing the `X` and `Π` vectors to match. New entries
    /// default to no down-sampling and no expansion.
    pub fn move_replications(&mut self, delta: isize) {
        let n = (self.n_replications as isize + delta).max(1) as usize;
        self.n_replications = n;
        self.downsample.resize(n, false);
        self.expansion.resize(n, 1.0);
    }

    /// Moves the expansion vector `delta` steps through the factor
    /// ladder in place. Positive deltas raise the earliest non-maximal
    /// entries one rung at a time; negative deltas lower the latest
    /// non-minimal entries. The first entry (the stem width) is never
    /// modified.
    pub fn move_expansion(&mut self, delta: isize) {
        for _ in 0..delta.unsigned_abs() {
            if delta > 0 {
                if let Some(slot) = self
                    .expansion
                    .iter()
                    .skip(1)
                    .position(|&f| f < 2.0 - 1e-9)
                    .map(|p| p + 1)
                {
                    self.expansion[slot] = next_factor_up(self.expansion[slot]);
                } else {
                    break;
                }
            } else if let Some(slot) = self.expansion.iter().rposition(|&f| f > 1.0 + 1e-9) {
                self.expansion[slot] = next_factor_down(self.expansion[slot]);
            } else {
                break;
            }
        }
    }

    /// Moves the down-sampling vector `delta` steps in place: positive
    /// deltas set the earliest cleared spot, negative deltas clear the
    /// latest set spot. More down-sampling shrinks feature maps and
    /// therefore latency.
    pub fn move_downsampling(&mut self, delta: isize) {
        for _ in 0..delta.unsigned_abs() {
            if delta > 0 {
                if let Some(slot) = self.downsample.iter().position(|&d| !d) {
                    self.downsample[slot] = true;
                } else {
                    break;
                }
            } else if let Some(slot) = self.downsample.iter().rposition(|&d| d) {
                self.downsample[slot] = false;
            } else {
                break;
            }
        }
    }
}

impl Clone for DesignPoint {
    fn clone(&self) -> Self {
        Self {
            bundle: self.bundle,
            n_replications: self.n_replications,
            downsample: self.downsample.clone(),
            expansion: self.expansion.clone(),
            parallel_factor: self.parallel_factor,
            activation: self.activation,
            base_channels: self.base_channels,
            max_channels: self.max_channels,
        }
    }

    /// Copies `source` into `self`'s vector buffers: SCD rewrites its
    /// probe targets and plan base points this way, and allocates only
    /// when a vector outgrows every `N` the point held before.
    fn clone_from(&mut self, source: &Self) {
        // Destructured, so a new field cannot be left out here.
        let Self {
            bundle,
            n_replications,
            downsample,
            expansion,
            parallel_factor,
            activation,
            base_channels,
            max_channels,
        } = source;
        self.bundle = *bundle;
        self.n_replications = *n_replications;
        self.downsample.clone_from(downsample);
        self.expansion.clone_from(expansion);
        self.parallel_factor = *parallel_factor;
        self.activation = *activation;
        self.base_channels = *base_channels;
        self.max_channels = *max_channels;
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} x{} pf={} {} ch<={}",
            self.bundle,
            self.n_replications,
            self.parallel_factor,
            self.activation,
            self.max_channels
        )
    }
}

fn next_factor_up(f: f64) -> f64 {
    CHANNEL_EXPANSION_FACTORS
        .iter()
        .copied()
        .find(|&g| g > f + 1e-9)
        .unwrap_or(2.0)
}

fn next_factor_down(f: f64) -> f64 {
    CHANNEL_EXPANSION_FACTORS
        .iter()
        .rev()
        .copied()
        .find(|&g| g < f - 1e-9)
        .unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{bundle_by_id, BundleId};
    use proptest::prelude::*;

    fn point() -> DesignPoint {
        DesignPoint::initial(bundle_by_id(BundleId(13)).unwrap(), 4)
    }

    #[test]
    fn initial_point_is_valid() {
        point().validate().unwrap();
    }

    #[test]
    fn initial_downsamples_between_bundles() {
        let p = point();
        assert_eq!(p.downsample, vec![true, true, true, false]);
    }

    #[test]
    fn channels_round_to_multiple_of_8() {
        let p = point();
        for i in 0..p.replications() {
            assert_eq!(p.channels_at(i) % 8, 0, "rep {i}");
        }
    }

    #[test]
    fn channels_saturate_at_cap() {
        let mut p = point();
        p.max_channels = 64;
        assert!(p.channels_at(3) <= 64);
    }

    #[test]
    fn replication_delta_resizes_vectors() {
        let p = point().with_replication_delta(2);
        assert_eq!(p.n_replications, 6);
        assert_eq!(p.downsample.len(), 6);
        assert_eq!(p.expansion.len(), 6);
        p.validate().unwrap();
    }

    #[test]
    fn replication_delta_saturates_at_one() {
        let p = point().with_replication_delta(-10);
        assert_eq!(p.n_replications, 1);
        p.validate().unwrap();
    }

    #[test]
    fn expansion_delta_moves_along_ladder() {
        let mut p = point();
        p.expansion = vec![1.0, 1.0, 1.0, 1.0];
        p.move_expansion(1);
        assert_eq!(p.expansion, vec![1.0, 1.2, 1.0, 1.0]);
        p.move_expansion(-1);
        assert_eq!(p.expansion, vec![1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn expansion_delta_never_touches_stem_entry() {
        let mut p = point();
        p.move_expansion(20);
        assert_eq!(p.expansion[0], 1.0);
        p.validate().unwrap();
    }

    #[test]
    fn downsample_delta_sets_and_clears() {
        let mut p = point();
        p.downsample = vec![false; 4];
        p.move_downsampling(2);
        assert_eq!(p.downsample, vec![true, true, false, false]);
        p.move_downsampling(-1);
        assert_eq!(p.downsample, vec![true, false, false, false]);
    }

    #[test]
    fn clone_from_reuses_vector_buffers() {
        let deep = point().with_replication_delta(4);
        let mut scratch = deep.clone();
        let buffers = (scratch.downsample.as_ptr(), scratch.expansion.as_ptr());
        scratch.clone_from(&point());
        assert_eq!(scratch, point());
        scratch.clone_from(&deep);
        assert_eq!(scratch, deep);
        assert_eq!(
            (scratch.downsample.as_ptr(), scratch.expansion.as_ptr()),
            buffers
        );
    }

    #[test]
    fn validation_rejects_bad_expansion() {
        let mut p = point();
        p.expansion[1] = 1.4;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_pf() {
        let mut p = point();
        p.parallel_factor = 5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_mismatched_vectors() {
        let mut p = point();
        p.downsample.pop();
        assert!(p.validate().is_err());
    }

    #[test]
    fn canonical_key_separates_distant_downsample_slots() {
        // Regression: the old cache encoding packed downsample slot `i`
        // at bit `i % 64`, aliasing slots 0 and 64. The canonical
        // encoding is chunked into one word per 64 slots.
        let mut a = DesignPoint::initial(bundle_by_id(BundleId(13)).unwrap(), 65);
        a.downsample = vec![false; 65];
        a.downsample[0] = true;
        let mut b = a.clone();
        b.downsample[0] = false;
        b.downsample[64] = true;
        assert_ne!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn canonical_key_matches_equality() {
        let p = point();
        assert_eq!(p.canonical_key(), p.clone().canonical_key());
        let moved = |step: fn(&mut DesignPoint)| {
            let mut q = p.clone();
            step(&mut q);
            q
        };
        for (label, q) in [
            ("reps", p.with_replication_delta(1)),
            ("expansion", moved(|q| q.move_expansion(-1))),
            ("downsample", moved(|q| q.move_downsampling(-1))),
            ("pf", {
                let mut q = p.clone();
                q.parallel_factor = 64;
                q
            }),
            ("activation", {
                let mut q = p.clone();
                q.activation = crate::quant::Activation::Relu4;
                q
            }),
            (
                "bundle",
                DesignPoint::initial(bundle_by_id(BundleId(1)).unwrap(), 4),
            ),
        ] {
            assert_ne!(p.canonical_key(), q.canonical_key(), "{label}");
        }
    }

    proptest! {
        #[test]
        fn prop_moves_preserve_validity(reps in 1usize..8, up in 0isize..6, ds in -3isize..4) {
            let mut p = DesignPoint::initial(bundle_by_id(BundleId(1)).unwrap(), reps);
            p.move_expansion(up);
            p.move_downsampling(ds);
            prop_assert!(p.validate().is_ok());
        }

        #[test]
        fn prop_channels_monotone_nondecreasing(reps in 1usize..8) {
            let p = DesignPoint::initial(bundle_by_id(BundleId(1)).unwrap(), reps);
            for i in 1..reps {
                prop_assert!(p.channels_at(i) >= p.channels_at(i - 1));
            }
        }

        #[test]
        fn prop_expansion_round_trip(steps in 1isize..5) {
            let base = DesignPoint::initial(bundle_by_id(BundleId(13)).unwrap(), 5);
            let mut flat = base.clone();
            flat.expansion = vec![1.0; 5];
            let mut moved = flat.clone();
            moved.move_expansion(steps);
            moved.move_expansion(-steps);
            prop_assert_eq!(moved.expansion, flat.expansion);
        }
    }
}
