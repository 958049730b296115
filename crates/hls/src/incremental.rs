//! Incremental design-point estimation: the engine behind SCD probing.
//!
//! Algorithm 1 (the SCD unit) probes unit moves around its current
//! design point, so consecutive estimator queries differ by exactly one
//! coordinate of (`N`, `Π`, `X`, `PF`). The full
//! [`estimate_point`](crate::model::HlsEstimator::estimate_point) path
//! re-elaborates the whole DNN and re-walks every pipeline group for
//! each probe — almost pure waste when only one Bundle replication
//! changed. An [`EstimatePlan`] elaborates a point **once** into
//! per-slot terms and then updates only what a move touched.
//!
//! # Plan lifecycle
//!
//! 1. [`EstimatePlan::new`] elaborates the design point into *slots* —
//!    the stem, one slot per Bundle replication, and the detection head,
//!    exactly the pipeline groups of the analytic model (Eqs. 2-4) —
//!    and prices each slot with the model's own group pricing (see the
//!    [`model` module docs](crate::model)): sequential compute cycles
//!    (Eq. 3), data volume `Θ(Data)`, inter-bundle traffic bytes, and
//!    the slot's resource contributions (IP kinds, largest weight
//!    tensor, largest tile footprint).
//! 2. [`EstimatePlan::probe`] estimates a neighboring point without
//!    committing to it: slots before the first changed replication are
//!    reused verbatim, and only the affected replication and its
//!    shape-dependent downstream slots are re-elaborated. A
//!    parallel-factor change re-derives the terms of every slot but
//!    reuses the elaborated structure (PF never changes layer shapes).
//!    When the estimator carries an
//!    [`EstimateCache`](crate::cache::EstimateCache), each probe counts
//!    as one cache lookup, exactly like `estimate_point`; a key the
//!    plan's [`ProbeMemo`] already holds is answered without touching
//!    the shared cache (see the
//!    [`cache` module docs](crate::cache#per-search-memo)).
//! 3. [`EstimatePlan::commit`] / [`EstimatePlan::apply_move`] re-stage a
//!    target the same way and make it the plan's new base point (no
//!    cache interaction — the caller usually just probed the target).
//! 4. A clone shares the plan's estimator, probe memo and body memo, and
//!    `clone_from` copies the rest into the destination's own buffers.
//!    So an SCD restart replay, which resets the search's plan to the
//!    copy its first restart to that depth kept, reuses the plan's
//!    point, slot and staged buffers instead of allocating new ones.
//!
//! # Slot-body memo
//!
//! A search keeps meeting the same replications: a move and its undo,
//! a restart to a depth it has tried, the same width at another depth.
//! A replication's invariants depend only on what
//! [`DnnBuilder::replication`](codesign_dnn::builder::DnnBuilder::replication)
//! reads of the point — the Bundle, the activation, the input shape, the
//! replication's channel width and its down-sampling flag — and the
//! head's only on its input shape. So a plan keeps one body per such key,
//! shared by its clones like the probe memo, and a stage elaborates only
//! bodies the search has never seen; for the others it re-derives the
//! terms and folds. The memo holds one entry per distinct body the
//! search elaborates and is dropped with the plan's last clone. Its key
//! hashes to one folded multiply of the shape, width and flag, and
//! equality compares every field, so a collision costs a comparison,
//! never a wrong body.
//!
//! # What the plan adds, and what pins it
//!
//! The repo's determinism contract requires the incremental path to be
//! **bit-identical** to `estimate_point` on a freshly rebuilt DNN. The
//! plan writes none of the model: it prices slots with the model's
//! `SlotBody::of` and `SlotTerms::derive` and sums them with the
//! model's `fold`, the code
//! [`estimate_dnn_at`](crate::model::HlsEstimator::estimate_dnn_at)
//! runs over freshly derived groups. `fold` re-sums **all** slot terms
//! in canonical group order on every probe (its `f64` latency sum is
//! not associative, so "old total minus old slot plus new slot" would
//! drift in the last ulp); what is incremental is only which slots are
//! kept, re-priced or re-elaborated. So the plan is right exactly when
//! every slot it keeps equals the one a fresh derivation would give,
//! and the `incremental_equivalence` proptest checks that reuse over
//! random coordinate walks against the full rebuild.

use crate::cache::{folded_multiply, KeyBuf, PassThrough, ProbeMemo, ProbeTally};
use crate::model::{fold, Estimate, EstimateError, HlsEstimator, SlotBody, SlotTerms};
use codesign_dnn::bundle::Bundle;
use codesign_dnn::quant::Activation;
use codesign_dnn::space::DesignPoint;
use codesign_dnn::{DnnError, LayerInstance, TensorShape};
use codesign_sim::pipeline::AccelConfig;
use codesign_sim::report::ResourceUsage;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::rc::Rc;
use std::sync::Arc;

/// The three DNN-side coordinates the SCD unit moves along (Table 1's
/// `N`, `Π` and `X`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveCoord {
    /// Replication count `N`.
    Replications,
    /// Channel-expansion vector `Π`.
    Expansion,
    /// Down-sampling vector `X`.
    Downsampling,
}

impl MoveCoord {
    /// Moves `point` `steps` units along this coordinate, in place
    /// (saturating at the coordinate's domain bounds, like the
    /// `DesignPoint::move_*` methods it delegates to).
    pub fn apply(&self, point: &mut DesignPoint, steps: isize) {
        match self {
            MoveCoord::Replications => point.move_replications(steps),
            MoveCoord::Expansion => point.move_expansion(steps),
            MoveCoord::Downsampling => point.move_downsampling(steps),
        }
    }
}

/// One pipeline group: its shared invariants (reused slots cost one
/// `Rc` bump) plus the terms derived under the plan's current config.
#[derive(Debug, Clone)]
struct Slot {
    body: Rc<SlotBody>,
    terms: SlotTerms,
}

impl Slot {
    fn new(body: Rc<SlotBody>, cfg: &AccelConfig) -> Self {
        let terms = SlotTerms::derive(&body, cfg);
        Self { body, terms }
    }
}

/// Everything a slot body is derived from, besides the plan's builder
/// and the fixed tile geometry: what [`DnnBuilder::replication`] reads
/// of the point for one replication, and the head's input shape.
///
/// [`DnnBuilder::replication`]: codesign_dnn::builder::DnnBuilder::replication
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BodyKey {
    Replication {
        bundle: Bundle,
        activation: Activation,
        input: TensorShape,
        channels: usize,
        downsample: bool,
    },
    Head {
        input: TensorShape,
    },
}

impl Hash for BodyKey {
    /// One folded multiply over the fields that vary within a search
    /// (Bundle and activation are fixed there, and equality still
    /// compares them).
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (input, channels, downsample) = match *self {
            BodyKey::Replication {
                input,
                channels,
                downsample,
                ..
            } => (input, channels, downsample),
            BodyKey::Head { input } => (input, 0, false),
        };
        let shape = (input.c as u64) | (input.h as u64) << 21 | (input.w as u64) << 42;
        let width = (channels as u64) << 1 | u64::from(downsample);
        state.write_u64(folded_multiply(
            shape ^ 0x9E37_79B9_7F4A_7C15,
            width ^ 0x2545_F491_4F6C_DD1D,
        ));
    }
}

/// A plan's slot-body memo: one body per key a search has elaborated.
type BodyMemo = HashMap<BodyKey, Rc<SlotBody>, BuildHasherDefault<PassThrough>>;

/// A staged (not yet committed) re-estimation of a target point. The
/// slot list is absolute — it fully describes the staged point, not a
/// delta — so a memoized `Staged` stays valid no matter how the plan
/// moves afterwards.
#[derive(Debug)]
struct Staged {
    cfg: AccelConfig,
    slots: Vec<Slot>,
    estimate: Estimate,
}

impl Clone for Staged {
    fn clone(&self) -> Self {
        Self {
            cfg: self.cfg,
            slots: self.slots.clone(),
            estimate: self.estimate,
        }
    }

    /// Copies `source` into `self`'s slot buffer.
    fn clone_from(&mut self, source: &Self) {
        let Self {
            cfg,
            slots,
            estimate,
        } = source;
        self.cfg = *cfg;
        self.slots.clone_from(slots);
        self.estimate = *estimate;
    }
}

/// An incrementally updatable analytic estimate of one design point.
///
/// Construction elaborates the point once; afterwards
/// [`probe`](Self::probe) prices neighboring points by re-deriving only
/// the slots a move touched, and [`commit`](Self::commit) /
/// [`apply_move`](Self::apply_move) advance the plan's base point. All
/// results are bit-identical to
/// [`HlsEstimator::estimate_point`] on the same point — the plan is a
/// pure optimization, pinned by the `incremental_equivalence` proptest.
///
/// # Example
///
/// ```
/// use codesign_dnn::{bundle, space::DesignPoint};
/// use codesign_hls::calibrate::calibrate_bundle;
/// use codesign_hls::incremental::{EstimatePlan, MoveCoord};
/// use codesign_hls::model::HlsEstimator;
/// use codesign_sim::device::pynq_z1;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let bundle = bundle::enumerate_bundles()[12];
/// let estimator = HlsEstimator::new(calibrate_bundle(&bundle, &pynq_z1())?, pynq_z1());
/// let point = DesignPoint::initial(bundle, 3);
/// let mut plan = EstimatePlan::new(&estimator, &point)?;
///
/// // Probe a neighbor without committing, then walk to it.
/// let deeper = point.with_replication_delta(1);
/// let probed = plan.probe(&deeper)?;
/// assert_eq!(probed, estimator.estimate_point(&deeper)?); // bit-identical
/// assert_eq!(plan.apply_move(MoveCoord::Replications, 1)?, probed);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EstimatePlan {
    estimator: Rc<HlsEstimator>,
    /// The logical base point ([`point`](Self::point)) with its
    /// estimate. May run ahead of `slots_point` after cheap
    /// [`commit_probed`](Self::commit_probed) calls.
    point: DesignPoint,
    estimate: Estimate,
    /// The point `slots` were elaborated for — the diff base of
    /// [`stage`](Self::stage). Rebased whenever a stage result is
    /// adopted.
    slots_point: DesignPoint,
    cfg: AccelConfig,
    slots: Vec<Slot>,
    /// The target of the most recent probe miss and its stage, kept
    /// until a commit of that target takes the stage for free. The
    /// target stays to lend its buffers to the next miss's target.
    /// Interior-mutable because probing is logically `&self`.
    staged: RefCell<(DesignPoint, Option<Staged>)>,
    /// The probe memo in front of the estimator's cache (`None` without
    /// one), shared by every clone of the plan — in `scd_search`, the
    /// run's plan and its restart plans — and dropped with the last.
    memo: Option<Rc<RefCell<ProbeMemo>>>,
    /// Every replication and head body the plan has elaborated, shared
    /// by its clones like `memo`: a stage re-derives the terms of a body
    /// it has seen before instead of elaborating it again.
    bodies: Rc<RefCell<BodyMemo>>,
}

impl EstimatePlan {
    /// Elaborates `point` into per-slot terms under `estimator`'s
    /// calibration, device and builder (the estimator is cloned once,
    /// and shared by the plan's clones — not cloned per probe or per
    /// restart).
    ///
    /// # Errors
    ///
    /// Exactly the errors of
    /// [`estimate_point`](HlsEstimator::estimate_point): an invalid or
    /// unelaborable point maps to [`EstimateError::Dnn`], an operator
    /// outside the IP pool to [`EstimateError::Sim`].
    pub fn new(estimator: &HlsEstimator, point: &DesignPoint) -> Result<Self, EstimateError> {
        let mut plan = Self {
            estimator: Rc::new(estimator.clone()),
            point: point.clone(),
            estimate: Estimate {
                latency_cycles: 0,
                resources: ResourceUsage::zero(),
            },
            slots_point: point.clone(),
            cfg: AccelConfig::new(point.parallel_factor, point.quantization()),
            slots: Vec::new(),
            staged: RefCell::new((point.clone(), None)),
            memo: estimator
                .cache()
                .map(|cache| Rc::new(RefCell::new(ProbeMemo::new(Arc::clone(cache))))),
            bodies: Rc::default(),
        };
        let staged = plan.stage(point)?;
        plan.adopt(point, staged);
        Ok(plan)
    }

    /// Installs a staged result as the new base (and diff base).
    fn adopt(&mut self, target: &DesignPoint, staged: Staged) {
        self.cfg = staged.cfg;
        self.slots = staged.slots;
        self.estimate = staged.estimate;
        self.point.clone_from(target);
        self.slots_point.clone_from(target);
    }

    /// The plan's current base point.
    pub fn point(&self) -> &DesignPoint {
        &self.point
    }

    /// The estimate of the current base point.
    pub fn estimate(&self) -> Estimate {
        self.estimate
    }

    /// The estimator whose model the plan applies.
    pub fn estimator(&self) -> &HlsEstimator {
        &self.estimator
    }

    /// Estimates `target` without committing to it, reusing every slot
    /// the difference from the base point does not touch.
    ///
    /// When the estimator carries a cache this is **one counted
    /// lookup** under the same canonical key `estimate_point` would use
    /// — probe-for-probe parity keeps the flow's deterministic
    /// total-lookup count intact. The plan's [`ProbeMemo`] answers keys
    /// it has already resolved (counted as cache hits, without touching
    /// the shared cache); other keys go to the cache, and the
    /// incremental fold runs only on a cache miss.
    ///
    /// # Errors
    ///
    /// Exactly the errors `estimate_point(target)` would return (they
    /// are cached under the same key, like `estimate_point`'s).
    pub fn probe(&self, target: &DesignPoint) -> Result<Estimate, EstimateError> {
        let mut fresh: Option<Staged> = None;
        let mut stage = || {
            let staged = self.stage(target)?;
            let estimate = staged.estimate;
            fresh = Some(staged);
            Ok(estimate)
        };
        let result = match &self.memo {
            Some(memo) => {
                let mut key = KeyBuf::new();
                self.estimator.write_key(target, &mut key);
                memo.borrow_mut().get_or_insert_with(key.as_bytes(), stage)
            }
            None => stage(),
        };
        if let Some(staged) = fresh {
            // Remember the stage so a commit of this target is free.
            let (point, last) = &mut *self.staged.borrow_mut();
            point.clone_from(target);
            *last = Some(staged);
        }
        result
    }

    /// Every lookup the plan's [`ProbeMemo`] has served, shared with the
    /// plan's clones (zero without a cache). Two readings bracket the
    /// lookups of a stretch of probes.
    pub fn probe_tally(&self) -> ProbeTally {
        self.memo
            .as_ref()
            .map_or_else(ProbeTally::default, |memo| memo.borrow().tally())
    }

    /// Counts a stretch of probes this plan's memo already answered as
    /// if it ran again, without probing: see [`ProbeMemo::replay`] and
    /// the [restart replay](crate::cache#restart-replay) contract.
    pub fn replay_probes(&self, tally: ProbeTally) {
        if let Some(memo) = &self.memo {
            memo.borrow_mut().replay(tally);
        }
    }

    /// Makes `target` the plan's new base point, re-deriving only the
    /// slots the change touches, and returns its estimate.
    ///
    /// Does **not** consult the estimate cache: the SCD loop probes a
    /// point first and commits only accepted moves, so a cache lookup
    /// here would double-count. On error the plan is left unchanged.
    ///
    /// # Errors
    ///
    /// Exactly the errors `estimate_point(target)` would return.
    pub fn commit(&mut self, target: &DesignPoint) -> Result<Estimate, EstimateError> {
        if let Some(staged) = self.take_staged(target) {
            self.adopt(target, staged);
            return Ok(self.estimate);
        }
        let staged = self.stage(target)?;
        self.adopt(target, staged);
        Ok(self.estimate)
    }

    /// Makes `target` — a point whose [`probe`](Self::probe) just
    /// returned `estimate` — the plan's new base point, for free.
    ///
    /// When the probe was a cache **miss**, its staged slots were
    /// memoized and are adopted here; after a cache **hit** no staging
    /// ever ran, so the slot base intentionally lags behind (`stage`
    /// diffs against the slot base, which only costs reuse on the next
    /// miss, never correctness). This keeps the SCD hot loop free of
    /// per-accepted-move staging on heavily memoized flows.
    pub fn commit_probed(&mut self, target: &DesignPoint, estimate: Estimate) {
        if let Some(staged) = self.take_staged(target) {
            debug_assert_eq!(staged.estimate, estimate, "probe/stage disagree");
            self.adopt(target, staged);
        } else {
            self.point.clone_from(target);
        }
        self.estimate = estimate;
    }

    /// Takes the memoized stage if it belongs to `target`.
    fn take_staged(&self, target: &DesignPoint) -> Option<Staged> {
        let (point, staged) = &mut *self.staged.borrow_mut();
        if point == target {
            staged.take()
        } else {
            None
        }
    }

    /// Moves the base point `steps` units along `coord` (recomputing
    /// only the affected replication slots and their shape-dependent
    /// downstream slots) and returns the new estimate. Shorthand for
    /// [`commit`](Self::commit) on [`MoveCoord::apply`].
    ///
    /// # Errors
    ///
    /// See [`commit`](Self::commit).
    pub fn apply_move(
        &mut self,
        coord: MoveCoord,
        steps: isize,
    ) -> Result<Estimate, EstimateError> {
        let mut target = self.point.clone();
        coord.apply(&mut target, steps);
        self.commit(&target)
    }

    /// Re-estimates `target` against the current slot list: reuse the
    /// structural prefix, re-elaborate from the first changed
    /// replication, re-derive terms (for every slot when the accelerator
    /// config changed, for rebuilt slots otherwise), and fold in
    /// canonical order.
    fn stage(&self, target: &DesignPoint) -> Result<Staged, EstimateError> {
        target.validate()?;
        let cfg = AccelConfig::new(target.parallel_factor, target.quantization());
        let builder = self.estimator.builder();
        let reps = builder.body_replications(target);
        // Clamp to what actually exists: during construction the plan
        // stages against an empty slot list.
        let reuse = self.reusable_slots(target, reps).min(self.slots.len());
        let same_cfg = cfg == self.cfg;

        let mut slots: Vec<Slot> = Vec::with_capacity(reps + 2);
        for slot in &self.slots[..reuse] {
            slots.push(if same_cfg {
                slot.clone()
            } else {
                // PF / quantization changed: the elaborated structure is
                // untouched, only the terms are re-derived (pure
                // arithmetic over the slot's invariants).
                Slot::new(Rc::clone(&slot.body), &cfg)
            });
        }

        if slots.is_empty() {
            let mut layers = Vec::new();
            builder.stem(target, &mut layers)?;
            slots.push(Slot::new(Rc::new(SlotBody::of(&layers, &cfg)?), &cfg));
        }
        let mut shape = slots.last().expect("stem pushed").body.output;
        let done_reps = (slots.len() - 1).min(reps);
        for rep in done_reps..reps {
            let key = BodyKey::Replication {
                bundle: target.bundle,
                activation: target.activation,
                input: shape,
                channels: target.channels_at(rep),
                downsample: builder.downsample_at(target, rep),
            };
            let body = self.body(key, &cfg, |layers| {
                builder.replication(target, rep, shape, layers)
            })?;
            shape = body.output;
            slots.push(Slot::new(body, &cfg));
        }
        if slots.len() < reps + 2 {
            let body = self.body(BodyKey::Head { input: shape }, &cfg, |layers| {
                builder.head(shape, layers)
            })?;
            slots.push(Slot::new(body, &cfg));
        }

        let estimate = fold(
            slots.iter().map(|slot| (&*slot.body, slot.terms)),
            &cfg,
            self.estimator.params(),
            self.estimator.device(),
        );
        Ok(Staged {
            cfg,
            slots,
            estimate,
        })
    }

    /// The body `key` names: from the body memo, or elaborated by
    /// `elaborate` (which appends the group's layers) and remembered.
    fn body(
        &self,
        key: BodyKey,
        cfg: &AccelConfig,
        elaborate: impl FnOnce(&mut Vec<LayerInstance>) -> Result<TensorShape, DnnError>,
    ) -> Result<Rc<SlotBody>, EstimateError> {
        if let Some(body) = self.bodies.borrow().get(&key) {
            return Ok(Rc::clone(body));
        }
        let mut layers = Vec::new();
        elaborate(&mut layers)?;
        let body = Rc::new(SlotBody::of(&layers, cfg)?);
        self.bodies.borrow_mut().insert(key, Rc::clone(&body));
        Ok(body)
    }

    /// Number of leading slots of the current plan that stay valid for
    /// `target`: the stem plus every replication up to the first one
    /// whose down-sampling flag or channel width differs (widths are
    /// cumulative in `Π`, so a changed expansion entry invalidates
    /// everything downstream of it); the head only survives a full
    /// structural match.
    fn reusable_slots(&self, target: &DesignPoint, target_reps: usize) -> usize {
        let base = &self.slots_point;
        if target.bundle != base.bundle
            || target.activation != base.activation
            || target.base_channels != base.base_channels
            || target.max_channels != base.max_channels
        {
            return 0;
        }
        let builder = self.estimator.builder();
        let base_reps = builder.body_replications(base);
        let mut matching_reps = 0;
        for rep in 0..target_reps.min(base_reps) {
            if builder.downsample_at(target, rep) != builder.downsample_at(base, rep)
                || target.channels_at(rep) != base.channels_at(rep)
            {
                break;
            }
            matching_reps += 1;
        }
        if matching_reps == target_reps && target_reps == base_reps {
            target_reps + 2 // stem + every replication + head
        } else {
            1 + matching_reps // stem + the matching replication prefix
        }
    }
}

impl Clone for EstimatePlan {
    /// A plan sharing this one's estimator, probe memo and body memo.
    fn clone(&self) -> Self {
        Self {
            estimator: Rc::clone(&self.estimator),
            point: self.point.clone(),
            estimate: self.estimate,
            slots_point: self.slots_point.clone(),
            cfg: self.cfg,
            slots: self.slots.clone(),
            staged: self.staged.clone(),
            memo: self.memo.clone(),
            bodies: Rc::clone(&self.bodies),
        }
    }

    /// Copies `source` into `self`'s point, slot and staged buffers: a
    /// restart replay in `scd_search` resets its plan this way, and
    /// allocates only when a buffer outgrows every `N` it held before.
    fn clone_from(&mut self, source: &Self) {
        // Destructured, so a new field cannot be left out here.
        let Self {
            estimator,
            point,
            estimate,
            slots_point,
            cfg,
            slots,
            staged,
            memo,
            bodies,
        } = source;
        self.estimator.clone_from(estimator);
        self.point.clone_from(point);
        self.estimate = *estimate;
        self.slots_point.clone_from(slots_point);
        self.cfg = *cfg;
        self.slots.clone_from(slots);
        let (target, stage) = self.staged.get_mut();
        let (source_target, source_stage) = &*staged.borrow();
        target.clone_from(source_target);
        stage.clone_from(source_stage);
        self.memo.clone_from(memo);
        self.bodies.clone_from(bodies);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::EstimateCache;
    use crate::calibrate::calibrate_bundle;
    use codesign_dnn::bundle::{bundle_by_id, BundleId};
    use codesign_dnn::quant::Activation;
    use codesign_sim::device::pynq_z1;

    fn estimator_for(id: usize) -> HlsEstimator {
        let b = bundle_by_id(BundleId(id)).unwrap();
        let params = calibrate_bundle(&b, &pynq_z1()).unwrap();
        HlsEstimator::new(params, pynq_z1())
    }

    #[test]
    fn plan_matches_full_rebuild_on_construction() {
        for id in 1..=18 {
            let est = estimator_for(id);
            let b = bundle_by_id(BundleId(id)).unwrap();
            for reps in 1..=4 {
                let point = DesignPoint::initial(b, reps);
                let plan = EstimatePlan::new(&est, &point).unwrap();
                assert_eq!(
                    plan.estimate(),
                    est.estimate_point(&point).unwrap(),
                    "bundle {id} reps {reps}"
                );
            }
        }
    }

    #[test]
    fn probe_and_apply_move_match_full_rebuild() {
        let est = estimator_for(13);
        let b = bundle_by_id(BundleId(13)).unwrap();
        let point = DesignPoint::initial(b, 3);
        let mut plan = EstimatePlan::new(&est, &point).unwrap();
        for (coord, steps) in [
            (MoveCoord::Replications, 2),
            (MoveCoord::Expansion, -1),
            (MoveCoord::Downsampling, -2),
            (MoveCoord::Downsampling, 3),
            (MoveCoord::Replications, -3),
            (MoveCoord::Expansion, 4),
        ] {
            let mut target = plan.point().clone();
            coord.apply(&mut target, steps);
            let full = est.estimate_point(&target).unwrap();
            assert_eq!(plan.probe(&target).unwrap(), full, "{coord:?} x{steps}");
            assert_eq!(
                plan.apply_move(coord, steps).unwrap(),
                full,
                "{coord:?} x{steps}"
            );
            assert_eq!(plan.point(), &target);
        }
    }

    #[test]
    fn pf_probes_reuse_structure() {
        let est = estimator_for(13);
        let b = bundle_by_id(BundleId(13)).unwrap();
        let point = DesignPoint::initial(b, 4);
        let plan = EstimatePlan::new(&est, &point).unwrap();
        for pf in [4usize, 8, 16, 100, 256, 512] {
            let mut probe = point.clone();
            probe.parallel_factor = pf;
            assert_eq!(
                plan.probe(&probe).unwrap(),
                est.estimate_point(&probe).unwrap(),
                "pf {pf}"
            );
        }
    }

    #[test]
    fn cross_structure_commit_matches_restart() {
        // A commit to an arbitrary other point (SCD's random restart)
        // must behave like building a fresh plan.
        let est = estimator_for(1);
        let b = bundle_by_id(BundleId(1)).unwrap();
        let mut plan = EstimatePlan::new(&est, &DesignPoint::initial(b, 5)).unwrap();
        let mut restart = DesignPoint::initial(b, 2);
        restart.activation = Activation::Relu4;
        restart.parallel_factor = 64;
        let committed = plan.commit(&restart).unwrap();
        assert_eq!(committed, est.estimate_point(&restart).unwrap());
        assert_eq!(
            committed,
            EstimatePlan::new(&est, &restart).unwrap().estimate()
        );
    }

    #[test]
    fn invalid_targets_error_like_estimate_point() {
        let est = estimator_for(1);
        let b = bundle_by_id(BundleId(1)).unwrap();
        let point = DesignPoint::initial(b, 3);
        let mut plan = EstimatePlan::new(&est, &point).unwrap();
        let mut bad = point.clone();
        bad.parallel_factor = 3; // illegal rung
        assert_eq!(
            plan.probe(&bad).unwrap_err(),
            est.estimate_point(&bad).unwrap_err()
        );
        // A failed commit leaves the plan unchanged.
        assert!(plan.commit(&bad).is_err());
        assert_eq!(plan.point(), &point);
        assert_eq!(plan.estimate(), est.estimate_point(&point).unwrap());
    }

    #[test]
    fn probes_are_single_memoized_lookups() {
        let cache = Arc::new(EstimateCache::new());
        let est = estimator_for(13).with_cache(Arc::clone(&cache));
        let b = bundle_by_id(BundleId(13)).unwrap();
        let point = DesignPoint::initial(b, 3);
        let plan = EstimatePlan::new(&est, &point).unwrap();
        let target = point.with_replication_delta(1);
        plan.probe(&target).unwrap();
        plan.probe(&target).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        // estimate_point shares the same key space.
        est.estimate_point(&target).unwrap();
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn memo_hits_on_preloaded_keys_count_as_store_hits() {
        // The second probe is answered by the plan's memo; it must still
        // count as a hit served by the store, as a shared-cache hit does.
        let cache = Arc::new(EstimateCache::new());
        let est = estimator_for(13).with_cache(Arc::clone(&cache));
        let point = DesignPoint::initial(bundle_by_id(BundleId(13)).unwrap(), 3);
        let target = point.with_replication_delta(1);
        let mut key = KeyBuf::new();
        est.write_key(&target, &mut key);
        let stored = estimator_for(13).estimate_point(&target).unwrap();
        assert!(cache.preload(key.as_bytes(), stored));
        let plan = EstimatePlan::new(&est, &point).unwrap();
        assert_eq!(plan.probe(&target), Ok(stored));
        assert_eq!(plan.probe(&target), Ok(stored));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, cache.store_hits()), (2, 0, 2));
    }
}
