//! Analytic latency and resource models (paper Eqs. 1-5).
//!
//! The co-design search must evaluate thousands of candidate designs;
//! running synthesis (here: the Tile-Arch simulator) for each would be
//! too slow in the paper's setting, so Auto-DNN uses closed-form models
//! whose per-Bundle coefficients come from Auto-HLS sampling:
//!
//! * Eq. 1: `Res^r_bund_i = Σ_j Res^r_j + Γ^r_i` — IP instance
//!   resources plus fitted overhead `Γ` (buffers, control, muxes).
//! * Eq. 2: `Lat_bund_i = α_i · Σ_j Comp_j + β_i · Θ(Data_i) / bw` —
//!   sequential compute shrunk by the pipelining-overlap factor `α`,
//!   plus the non-hidden fraction `β` of the data movement.
//! * Eq. 3: `Comp_j = Σ reuse_j · lat_j` — IP invocation latency times
//!   the number of tile reuses.
//! * Eq. 4: `Lat_DNN = Σ_i Lat_bund_i + φ · Lat_DM` — Bundle latencies
//!   plus inter-bundle data-movement latency weighted by `φ`.
//! * Eq. 5: `Res_DNN = Res_bund + γ · Res_ctl` — accelerator resources
//!   plus control overhead weighted by `γ`.
//!
//! The model is written once, in three steps. `SlotBody::of` extracts
//! the invariants of one pipeline group (the stem, one Bundle
//! replication, or the head) with sim's tile geometry;
//! `SlotTerms::derive` prices them at a parallel factor and
//! quantization (Eq. 3 compute, `Θ(Data)`, inter-bundle bytes); `fold`
//! sums every group in canonical order into latency (Eqs. 2 and 4) and
//! resources (sim's Eq. 1 rule, then Eq. 5). [`HlsEstimator::estimate_dnn_at`] folds
//! freshly derived groups; an
//! [`EstimatePlan`](crate::incremental::EstimatePlan) folds groups it
//! kept from earlier probes.

use crate::cache::{EstimateCache, KeyBuf};
use crate::calibrate::CalibratedParams;
use codesign_dnn::builder::DnnBuilder;
use codesign_dnn::space::DesignPoint;
use codesign_dnn::{Dnn, DnnError, LayerInstance, TensorShape};
use codesign_sim::device::FpgaDevice;
use codesign_sim::error::SimError;
use codesign_sim::ip::{IpKind, INVOCATION_OVERHEAD};
use codesign_sim::pipeline::{group_tiles, layer_tile, resources_of, tile_elems, AccelConfig};
use codesign_sim::report::ResourceUsage;
use std::fmt;
use std::sync::Arc;

/// A fast analytic estimate of one design's cost, the quantities
/// `Est_Lat` and `Est_Res` consumed by Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated end-to-end latency in cycles.
    pub latency_cycles: u64,
    /// Estimated accelerator resource usage.
    pub resources: ResourceUsage,
}

impl Estimate {
    /// Latency in milliseconds at `clock_mhz`.
    pub fn latency_ms(&self, clock_mhz: f64) -> f64 {
        self.latency_cycles as f64 / (clock_mhz * 1e3)
    }

    /// Frames per second at `clock_mhz`.
    pub fn fps(&self, clock_mhz: f64) -> f64 {
        1000.0 / self.latency_ms(clock_mhz)
    }
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "~{} cycles, {}", self.latency_cycles, self.resources)
    }
}

/// Errors from the estimator: either the DNN cannot be built or the
/// accelerator mapping fails.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EstimateError {
    /// The design point does not elaborate into a DNN.
    Dnn(DnnError),
    /// The accelerator mapping failed.
    Sim(SimError),
}

impl fmt::Display for EstimateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimateError::Dnn(e) => write!(f, "dnn elaboration failed: {e}"),
            EstimateError::Sim(e) => write!(f, "accelerator mapping failed: {e}"),
        }
    }
}

impl std::error::Error for EstimateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EstimateError::Dnn(e) => Some(e),
            EstimateError::Sim(e) => Some(e),
        }
    }
}

impl From<DnnError> for EstimateError {
    fn from(e: DnnError) -> Self {
        EstimateError::Dnn(e)
    }
}

impl From<SimError> for EstimateError {
    fn from(e: SimError) -> Self {
        EstimateError::Sim(e)
    }
}

/// Distinct IP kinds one slot can contain: at most two Bundle
/// computational IPs, the element-wise engine, an expansion pointwise
/// conv, and a pooling engine.
const SLOT_KINDS: usize = 8;

/// Distinct IP kinds a whole DNN can contain (conv 1/3/5/7, dw-conv
/// 3/5/7, pool, element-wise), with slack.
const UNION_KINDS: usize = 16;

/// A tiny insertion-ordered set of IP kinds with inline storage — the
/// incremental fold must not heap-allocate per probe.
#[derive(Debug, Clone, Copy)]
struct KindSet<const N: usize> {
    len: usize,
    items: [IpKind; N],
}

impl<const N: usize> KindSet<N> {
    fn new() -> Self {
        Self {
            len: 0,
            items: [IpKind::Pool; N],
        }
    }

    fn insert(&mut self, kind: IpKind) {
        if !self.items[..self.len].contains(&kind) {
            assert!(self.len < N, "IP-kind set overflow");
            self.items[self.len] = kind;
            self.len += 1;
        }
    }

    fn as_slice(&self) -> &[IpKind] {
        &self.items[..self.len]
    }
}

/// The configuration-independent invariants of one pipeline group,
/// extracted once when the group is elaborated. Everything Eqs. 1-5
/// read from a group is derivable from these plus the accelerator
/// config (`PF` and quantization), so re-pricing a slot at another PF
/// is pure arithmetic — no shape walk, no re-elaboration.
#[derive(Debug)]
pub(crate) struct SlotBody {
    /// Output shape of the group's last layer (feeds the next slot).
    pub(crate) output: TensorShape,
    /// Tile count of the group's input feature map.
    n_tiles: u64,
    /// Per-layer lane-independent invocation work (Eq. 3's `lat` before
    /// the lane division) and the IP kind whose lanes divide it, in
    /// layer order.
    works: Vec<(u64, IpKind)>,
    /// Elements of the group's boundary feature maps (input + output).
    fm_elems: u64,
    /// Total weight parameters across the group's layers.
    params_sum: u64,
    /// Elements of the group's output feature map (inter-bundle
    /// traffic).
    out_elems: u64,
    /// Largest single-layer weight parameter count (sizes the shared
    /// weight buffer of Eq. 1).
    max_params: u64,
    /// Largest (input + output) tile footprint in elements (sizes the
    /// ping-pong data buffers of Eq. 1).
    max_tile_elems: u64,
    /// Distinct IP kinds the group instantiates.
    kinds: KindSet<SLOT_KINDS>,
}

impl SlotBody {
    /// Extracts the invariants of an elaborated group. `PF` and
    /// quantization are *not* baked in: `cfg` only names each layer's
    /// IP, whose work does not depend on them.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedLayer`] for an operator outside
    /// the IP pool.
    pub(crate) fn of(layers: &[LayerInstance], cfg: &AccelConfig) -> Result<Self, SimError> {
        let first = layers.first().expect("slots are non-empty");
        let last = layers.last().expect("slots are non-empty");
        let grid = group_tiles(first.input);
        let mut works = Vec::with_capacity(layers.len());
        let mut kinds = KindSet::new();
        let mut params_sum = 0u64;
        let mut max_params = 0u64;
        let mut max_tile_elems = 0u64;
        for layer in layers {
            let kind = IpKind::for_op(&layer.op)?;
            kinds.insert(kind);
            let (th, tw) = layer_tile(layer, grid);
            let ip = cfg.instance_for_kind(kind);
            works.push((
                ip.invocation_work(&layer.op, th, tw, layer.input.c, layer.output.c),
                kind,
            ));
            let params = layer.op.params(layer.input);
            params_sum += params;
            max_params = max_params.max(params);
            max_tile_elems = max_tile_elems.max(tile_elems(layer));
        }
        Ok(Self {
            output: last.output,
            n_tiles: (grid.0 * grid.1) as u64,
            works,
            fm_elems: (first.input.elements() + last.output.elements()) as u64,
            params_sum,
            out_elems: last.output.elements() as u64,
            max_params,
            max_tile_elems,
            kinds,
        })
    }
}

/// The closed-form terms of one pipeline group under a concrete
/// accelerator config, derived from the group's [`SlotBody`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotTerms {
    /// Sequential compute cycles `Σ reuse·lat` (Eq. 3).
    pub(crate) compute_cycles: u64,
    /// Data volume `Θ(Data)` in bytes (feature maps + streamed weights).
    pub(crate) data_bytes: u64,
    /// Bytes this group contributes to inter-bundle data movement.
    pub(crate) inter_bundle_bytes: u64,
}

impl SlotTerms {
    /// Prices a group's invariants under `cfg`: `⌈work/lanes⌉ +
    /// overhead` per layer times the tile count (sim's
    /// `invocation_cycles`); byte terms scale element counts by the
    /// quantization width, which distributes exactly over integer sums.
    pub(crate) fn derive(body: &SlotBody, cfg: &AccelConfig) -> Self {
        let qbytes = cfg.quant.bytes() as u64;
        let mut compute_cycles = 0u64;
        for &(work, kind) in &body.works {
            let lanes = cfg.instance_for_kind(kind).lanes();
            compute_cycles += (work.div_ceil(lanes) + INVOCATION_OVERHEAD) * body.n_tiles;
        }
        Self {
            compute_cycles,
            data_bytes: (body.fm_elems + body.params_sum) * qbytes,
            inter_bundle_bytes: body.out_elems * qbytes,
        }
    }
}

/// Sums every group's terms in canonical group order (stem, replication
/// 0‥N, head) — Eqs. 2 and 4 for latency, Eqs. 1 and 5 for resources.
///
/// The latency is an `f64` accumulation, and floating-point addition is
/// not associative, so every caller re-sums all groups in this order;
/// "subtract the old group, add the new one" would drift in the last
/// ulp.
pub(crate) fn fold<'a>(
    slots: impl IntoIterator<Item = (&'a SlotBody, SlotTerms)>,
    cfg: &AccelConfig,
    params: &CalibratedParams,
    device: &FpgaDevice,
) -> Estimate {
    let bw = device.dram_bytes_per_cycle;
    let mut latency = 0.0f64;
    let mut inter_bundle_bytes = 0u64;
    let mut kinds: KindSet<UNION_KINDS> = KindSet::new();
    let mut max_params = 0u64;
    let mut max_tile_elems = 0u64;
    for (body, terms) in slots {
        latency += params.alpha * (terms.compute_cycles as f64)
            + params.beta * (terms.data_bytes as f64) / bw;
        inter_bundle_bytes += terms.inter_bundle_bytes;
        for &kind in body.kinds.as_slice() {
            kinds.insert(kind);
        }
        max_params = max_params.max(body.max_params);
        max_tile_elems = max_tile_elems.max(body.max_tile_elems);
    }
    let lat_dm = inter_bundle_bytes as f64 / bw;
    latency += params.phi * lat_dm;

    let base = resources_of(kinds.as_slice(), max_params, max_tile_elems, cfg);
    let resources = ResourceUsage {
        dsp: base.dsp,
        lut: (base.lut as f64 * params.gamma).round() as u64,
        ff: (base.ff as f64 * params.gamma).round() as u64,
        bram_18k: base.bram_18k,
    };
    Estimate {
        latency_cycles: latency.max(0.0).round() as u64,
        resources,
    }
}

/// The Auto-HLS analytic estimator: applies the calibrated Eqs. 1-5 to
/// design points, giving Algorithm 1 its `Est_Lat` / `Est_Res` oracle.
#[derive(Debug, Clone)]
pub struct HlsEstimator {
    params: CalibratedParams,
    device: FpgaDevice,
    builder: DnnBuilder,
    cache: Option<Arc<EstimateCache>>,
    /// Precomputed cache-key salt (see [`Self::write_key`]).
    salt: Vec<u8>,
}

impl HlsEstimator {
    /// Creates an estimator from calibrated coefficients and the target
    /// device.
    pub fn new(params: CalibratedParams, device: FpgaDevice) -> Self {
        let builder = DnnBuilder::new();
        let salt = Self::compute_salt(&params, &device, &builder);
        Self {
            params,
            device,
            builder,
            cache: None,
            salt,
        }
    }

    /// Attaches a shared [`EstimateCache`]; subsequent
    /// [`estimate_point`](Self::estimate_point) calls are memoized.
    /// Clone the `Arc` to share one cache across estimators and worker
    /// threads — keys are salted with this estimator's calibration,
    /// device and builder configuration, so estimators never alias.
    pub fn with_cache(mut self, cache: Arc<EstimateCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached estimate cache, if any.
    pub fn cache(&self) -> Option<&Arc<EstimateCache>> {
        self.cache.as_ref()
    }

    /// The calibrated coefficients in use.
    pub fn params(&self) -> &CalibratedParams {
        &self.params
    }

    /// The target device.
    pub fn device(&self) -> &FpgaDevice {
        &self.device
    }

    /// The DNN builder used to elaborate design points.
    pub fn builder(&self) -> &DnnBuilder {
        &self.builder
    }

    /// Estimates latency (Eqs. 2-4) and resources (Eqs. 1 and 5) of an
    /// elaborated DNN at an explicit parallel factor: every pipeline
    /// group is derived afresh and folded, with no reuse, so this is the
    /// reference the incremental plan is checked against.
    ///
    /// The PF is threaded through as an argument — design-point
    /// estimation substitutes the *point's* PF for the calibration-time
    /// one, and doing so here avoids the estimator self-clone the old
    /// `estimate_point` paid on every probe.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::Sim`] for a zero parallel factor or an
    /// operator outside the IP pool.
    pub fn estimate_dnn_at(
        &self,
        dnn: &Dnn,
        parallel_factor: usize,
    ) -> Result<Estimate, EstimateError> {
        let cfg = AccelConfig::new(parallel_factor, dnn.quantization());
        cfg.validate()?;
        let bodies = dnn
            .layers()
            .chunk_by(|a, b| a.bundle_rep == b.bundle_rep)
            .map(|group| SlotBody::of(group, &cfg))
            .collect::<Result<Vec<_>, _>>()?;
        let slots = bodies
            .iter()
            .map(|body| (body, SlotTerms::derive(body, &cfg)));
        Ok(fold(slots, &cfg, &self.params, &self.device))
    }

    /// Builds the design point's DNN (with the point's own parallel
    /// factor) and estimates it.
    ///
    /// # Errors
    ///
    /// Propagates DNN elaboration failures (e.g. over-downsampled
    /// feature maps) as [`EstimateError::Dnn`].
    pub fn estimate_point(&self, point: &DesignPoint) -> Result<Estimate, EstimateError> {
        match &self.cache {
            Some(cache) => {
                let mut key = KeyBuf::new();
                self.write_key(point, &mut key);
                cache.get_or_insert_with(key.as_bytes(), || self.estimate_point_uncached(point))
            }
            None => self.estimate_point_uncached(point),
        }
    }

    /// One full (non-incremental) rebuild: elaborate the point's DNN and
    /// estimate it at the point's own parallel factor. This is the
    /// semantics every cached or incremental path must reproduce
    /// bit-for-bit; the `scd_search` bench uses it as the probe-cost
    /// baseline.
    pub(crate) fn estimate_point_uncached(
        &self,
        point: &DesignPoint,
    ) -> Result<Estimate, EstimateError> {
        let dnn = self.builder.build(point)?;
        self.estimate_dnn_at(&dnn, point.parallel_factor)
    }

    /// Writes the canonical cache key for `point` into `key`: the
    /// estimator salt followed by the exact design-point encoding of
    /// [`DesignPoint::encode_canonical`]. Full encodings, not digests —
    /// collisions cannot return a wrong estimate.
    pub(crate) fn write_key(&self, point: &DesignPoint, key: &mut KeyBuf) {
        key.extend(&self.salt);
        point.encode_canonical(&mut |w| key.push_u64(w));
    }

    /// Estimator salt: calibration coefficients, device bandwidth and
    /// budget, builder fingerprint. Precomputed because it is identical
    /// for every key this estimator writes.
    fn compute_salt(
        params: &CalibratedParams,
        device: &FpgaDevice,
        builder: &DnnBuilder,
    ) -> Vec<u8> {
        let mut salt = Vec::with_capacity(80);
        for v in [
            params.alpha.to_bits(),
            params.beta.to_bits(),
            params.phi.to_bits(),
            params.gamma.to_bits(),
            // params.parallel_factor is deliberately omitted: estimation
            // always substitutes the design point's own PF, so the
            // calibration-time PF never influences the cached value.
            device.dram_bytes_per_cycle.to_bits(),
            device.dsp,
            device.lut,
            device.ff,
            device.bram_18k,
            builder.fingerprint(),
        ] {
            salt.extend_from_slice(&v.to_le_bytes());
        }
        salt
    }

    /// True when the estimate fits the target device
    /// ([`FpgaDevice::check_fit`] passes).
    pub fn fits(&self, estimate: &Estimate) -> bool {
        self.device.check_fit(&estimate.resources).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::bundle::{bundle_by_id, BundleId};
    use codesign_dnn::quant::Activation;
    use codesign_sim::device::pynq_z1;

    fn estimator_for(id: usize) -> HlsEstimator {
        let b = bundle_by_id(BundleId(id)).unwrap();
        let params = crate::calibrate::calibrate_bundle(&b, &pynq_z1()).unwrap();
        HlsEstimator::new(params, pynq_z1())
    }

    #[test]
    fn estimates_are_positive() {
        let est = estimator_for(13);
        let b = bundle_by_id(BundleId(13)).unwrap();
        let e = est.estimate_point(&DesignPoint::initial(b, 3)).unwrap();
        assert!(e.latency_cycles > 0);
        assert!(e.resources.dsp > 0);
    }

    #[test]
    fn latency_monotone_in_depth() {
        let est = estimator_for(13);
        let b = bundle_by_id(BundleId(13)).unwrap();
        let small = est.estimate_point(&DesignPoint::initial(b, 2)).unwrap();
        let large = est.estimate_point(&DesignPoint::initial(b, 5)).unwrap();
        assert!(large.latency_cycles > small.latency_cycles);
    }

    #[test]
    fn pf_in_point_overrides_calibration_pf() {
        let est = estimator_for(1);
        let b = bundle_by_id(BundleId(1)).unwrap();
        let mut slow = DesignPoint::initial(b, 3);
        slow.parallel_factor = 8;
        let mut fast = DesignPoint::initial(b, 3);
        fast.parallel_factor = 64;
        let e_slow = est.estimate_point(&slow).unwrap();
        let e_fast = est.estimate_point(&fast).unwrap();
        assert!(e_fast.latency_cycles < e_slow.latency_cycles);
        assert!(e_fast.resources.dsp > e_slow.resources.dsp);
    }

    #[test]
    fn int16_estimates_cost_more_dsp() {
        let est = estimator_for(1);
        let b = bundle_by_id(BundleId(1)).unwrap();
        let mut p8 = DesignPoint::initial(b, 3);
        p8.activation = Activation::Relu4;
        let mut p16 = DesignPoint::initial(b, 3);
        p16.activation = Activation::Relu;
        let e8 = est.estimate_point(&p8).unwrap();
        let e16 = est.estimate_point(&p16).unwrap();
        assert!(e16.resources.dsp > e8.resources.dsp);
    }

    #[test]
    fn invalid_point_maps_to_dnn_error() {
        let est = estimator_for(1);
        let b = bundle_by_id(BundleId(1)).unwrap();
        let mut p = DesignPoint::initial(b, 3);
        p.parallel_factor = 3;
        assert!(matches!(
            est.estimate_point(&p).unwrap_err(),
            EstimateError::Dnn(_)
        ));
    }

    #[test]
    fn fits_detects_oversized_designs() {
        let est = estimator_for(10);
        let b = bundle_by_id(BundleId(10)).unwrap();
        let mut p = DesignPoint::initial(b, 4);
        p.parallel_factor = 512;
        p.activation = Activation::Relu;
        let e = est.estimate_point(&p).unwrap();
        assert!(!est.fits(&e));
    }

    #[test]
    fn cached_estimates_match_uncached() {
        let plain = estimator_for(13);
        let cache = Arc::new(EstimateCache::new());
        let cached = estimator_for(13).with_cache(cache.clone());
        let b = bundle_by_id(BundleId(13)).unwrap();
        for reps in 1..=4 {
            let p = DesignPoint::initial(b, reps);
            assert_eq!(
                plain.estimate_point(&p).unwrap(),
                cached.estimate_point(&p).unwrap()
            );
            // Second query hits.
            cached.estimate_point(&p).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 4);
        assert!(stats.hit_rate() > 0.49);
    }

    #[test]
    fn cache_salt_separates_estimators() {
        // Same design point, different calibrations: the shared cache
        // must keep the entries apart.
        let b = bundle_by_id(BundleId(13)).unwrap();
        let cache = Arc::new(EstimateCache::new());
        let p32 =
            crate::calibrate::calibrate_bundle_with(&b, &pynq_z1(), &[1, 2, 3, 4], 32).unwrap();
        let p96 =
            crate::calibrate::calibrate_bundle_with(&b, &pynq_z1(), &[1, 2, 3, 4], 96).unwrap();
        let est32 = HlsEstimator::new(p32, pynq_z1()).with_cache(cache.clone());
        let est96 = HlsEstimator::new(p96, pynq_z1()).with_cache(cache.clone());
        let point = DesignPoint::initial(b, 3);
        let a = est32.estimate_point(&point).unwrap();
        let bst = est96.estimate_point(&point).unwrap();
        assert_eq!(cache.stats().misses, 2, "salts must not alias");
        assert_eq!(a, est32.estimate_point(&point).unwrap());
        assert_eq!(bst, est96.estimate_point(&point).unwrap());
    }

    #[test]
    fn cache_does_not_alias_downsample_slots_64_apart() {
        // Regression: the old `ds_bits |= (d as u64) << (i % 64)` key
        // encoding packed the whole down-sampling vector into one word,
        // aliasing slots i and i + 64 — a slot-64 design could be served
        // the cached slot-0 estimate. The canonical encoding is chunked
        // into one word per 64 slots.
        let cache = Arc::new(EstimateCache::new());
        let cached = estimator_for(13).with_cache(cache.clone());
        let plain = estimator_for(13);
        let b = bundle_by_id(BundleId(13)).unwrap();
        let mut deep_a = DesignPoint::initial(b, 65);
        deep_a.downsample = vec![false; 65];
        deep_a.downsample[0] = true;
        let mut deep_b = deep_a.clone();
        deep_b.downsample[0] = false;
        deep_b.downsample[64] = true;
        let ea = cached.estimate_point(&deep_a).unwrap();
        let eb = cached.estimate_point(&deep_b).unwrap();
        assert_eq!(cache.stats().misses, 2, "slots 0 and 64 must not alias");
        assert_ne!(ea, eb, "the two designs are architecturally distinct");
        assert_eq!(ea, plain.estimate_point(&deep_a).unwrap());
        assert_eq!(eb, plain.estimate_point(&deep_b).unwrap());
    }

    #[test]
    fn cache_key_bytes_are_pinned() {
        // The persistent EstimateStore writes these bytes to disk, so a
        // change here orphans every existing store log.
        let b = bundle_by_id(BundleId(13)).unwrap();
        let est = estimator_for(13);
        let mut p = DesignPoint::initial(b, 5);
        p.parallel_factor = 100;
        p.activation = Activation::Relu4;
        let mut key = crate::cache::KeyBuf::new();
        est.write_key(&p, &mut key);
        let words: [u64; 27] = [
            // Salt: alpha, beta, phi, gamma, DRAM bytes/cycle, DSP, LUT,
            // FF, BRAM budget, builder fingerprint.
            0x3FE7_36DA_EA20_6FF8,
            0,
            0,
            0x3FF0_0000_0000_0000,
            0x4024_0000_0000_0000,
            220,
            53_200,
            106_400,
            280,
            0x31F9_F27E_46A2_A210,
            // Point: Bundle 13 and its two skeleton ops, N = 5, |X| = 5
            // (down-sampling after the first four replications), |Π| = 5
            // (1.0, then 2.0 four times) ...
            13,
            2,
            0x0000_0001_0000_0003,
            1,
            5,
            5,
            0b1111,
            5,
            0x3FF0_0000_0000_0000,
            0x4000_0000_0000_0000,
            0x4000_0000_0000_0000,
            0x4000_0000_0000_0000,
            0x4000_0000_0000_0000,
            // ... PF 100, Relu4, base and max channel widths.
            100,
            1,
            32,
            512,
        ];
        let expected: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(key.as_bytes(), &expected[..]);
    }

    #[test]
    fn cached_errors_replay() {
        let cache = Arc::new(EstimateCache::new());
        let est = estimator_for(1).with_cache(cache.clone());
        let b = bundle_by_id(BundleId(1)).unwrap();
        let mut p = DesignPoint::initial(b, 3);
        p.parallel_factor = 3; // illegal
        assert!(est.estimate_point(&p).is_err());
        assert!(est.estimate_point(&p).is_err());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn estimate_display_and_fps() {
        let e = Estimate {
            latency_cycles: 5_000_000,
            resources: ResourceUsage::zero(),
        };
        assert!((e.latency_ms(100.0) - 50.0).abs() < 1e-9);
        assert!((e.fps(100.0) - 20.0).abs() < 1e-9);
        assert!(e.to_string().contains("5000000"));
    }
}
