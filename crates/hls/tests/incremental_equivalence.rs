//! The incremental-estimation contract: an [`EstimatePlan`] walked
//! along random coordinate sequences is **bit-identical** — estimates
//! and errors alike — to a full `estimate_point` rebuild at every step.
//!
//! This is the property the co-design flow's determinism guarantee
//! leans on: the plan may only change *how fast* an estimate is
//! derived, never a single bit of it.

use codesign_dnn::bundle::{bundle_by_id, BundleId};
use codesign_dnn::quant::Activation;
use codesign_dnn::space::{DesignPoint, MAX_PARALLEL_FACTOR, PARALLEL_FACTOR_STEP};
use codesign_hls::calibrate::calibrate_bundle;
use codesign_hls::incremental::EstimatePlan;
use codesign_hls::model::HlsEstimator;
use codesign_sim::device::pynq_z1;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One random step away from `point`: a unit-or-multi move along one of
/// the three SCD coordinates, a parallel-factor rung change, a combined
/// move, or a full restart (what SCD does when every coordinate
/// saturates).
fn random_target(rng: &mut StdRng, point: &DesignPoint, bundle_id: usize) -> DesignPoint {
    let mut p = point.clone();
    match rng.random_range(0..6u8) {
        0 => p.move_replications(rng.random_range(-2isize..=2)),
        1 => p.move_expansion(rng.random_range(-3isize..=3)),
        2 => p.move_downsampling(rng.random_range(-2isize..=2)),
        3 => {
            let rungs = MAX_PARALLEL_FACTOR / PARALLEL_FACTOR_STEP;
            p.parallel_factor = PARALLEL_FACTOR_STEP * rng.random_range(1usize..=rungs);
        }
        4 => {
            // Restart: fresh structure, possibly a different arm.
            let b = bundle_by_id(BundleId(bundle_id)).unwrap();
            p = DesignPoint::initial(b, rng.random_range(1usize..=6));
            p.activation = Activation::ALL[rng.random_range(0usize..3)];
        }
        _ => {
            p.move_expansion(rng.random_range(-2isize..=2));
            p.move_downsampling(rng.random_range(-2isize..=2));
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_plan_walk_is_bit_identical_to_full_rebuild(
        bundle_id in 1usize..=18,
        seed in 0u64..u64::MAX / 2,
        walk_len in 4usize..20,
    ) {
        let bundle = bundle_by_id(BundleId(bundle_id)).unwrap();
        let params = calibrate_bundle(&bundle, &pynq_z1()).unwrap();
        let estimator = HlsEstimator::new(params, pynq_z1());
        let mut rng = StdRng::seed_from_u64(seed);

        let mut point = DesignPoint::initial(bundle, rng.random_range(1usize..=5));
        point.activation = Activation::ALL[rng.random_range(0usize..3)];
        let mut plan = EstimatePlan::new(&estimator, &point).unwrap();
        prop_assert_eq!(Ok(plan.estimate()), estimator.estimate_point(&point));

        for _step in 0..walk_len {
            let target = random_target(&mut rng, &point, bundle_id);
            let full = estimator.estimate_point(&target);
            let probed = plan.probe(&target);
            prop_assert_eq!(&probed, &full);
            // Commit most successful probes so the walk actually moves
            // and later diffs run against varied base points.
            if full.is_ok() && rng.random_bool(0.7) {
                let committed = plan.commit(&target);
                prop_assert_eq!(committed, full);
                point = target;
            }
        }
    }
}
