//! Round-trip property tests for the persistent estimate store: random
//! estimate records keyed by canonical `DesignPoint` encodings must
//! survive a persist → reopen → load cycle byte-for-byte.

use codesign_dnn::bundle::{bundle_by_id, BundleId};
use codesign_dnn::quant::Activation;
use codesign_dnn::space::{DesignPoint, CHANNEL_EXPANSION_FACTORS};
use codesign_hls::cache::EstimateCache;
use codesign_hls::model::Estimate;
use codesign_hls::store::EstimateStore;
use codesign_sim::report::ResourceUsage;
use codesign_store::TempDir;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Estimates keyed by canonical DesignPoint keys survive
    /// persist → reopen → load with bit-identical values, and every
    /// subsequent lookup is a store-attributed hit.
    #[test]
    fn prop_design_point_records_round_trip(
        bundle_id in 1usize..=18,
        reps in 1usize..=4,
        pf in 1usize..=8,
        expansion_idx in 0usize..4,
        activation_idx in 0usize..3,
        latency in 1u64..u64::MAX / 2,
        dsp in 0u64..1_000_000,
        lut in 0u64..10_000_000,
    ) {
        let bundle = bundle_by_id(BundleId(bundle_id)).unwrap();
        let mut point = DesignPoint::initial(bundle, reps);
        point.parallel_factor = pf;
        point.activation = Activation::ALL[activation_idx];
        for slot in point.expansion.iter_mut() {
            *slot = CHANNEL_EXPANSION_FACTORS[expansion_idx];
        }
        let key = point.canonical_key();
        let est = Estimate {
            latency_cycles: latency,
            resources: ResourceUsage { dsp, lut, ff: lut / 2, bram_18k: dsp / 4 },
        };

        let dir = TempDir::new("codesign_hls_store_prop").unwrap();
        let path = dir.join("estimates.log");

        let cold = EstimateCache::new();
        cold.get_or_insert_with(&key, || Ok(est)).unwrap();
        {
            let mut store = EstimateStore::open(&path).unwrap();
            prop_assert_eq!(store.persist_from(&cold).unwrap(), 1);
        }

        let warm = EstimateCache::new();
        let mut store = EstimateStore::open(&path).unwrap();
        prop_assert_eq!(store.stats().loaded, 1);
        prop_assert_eq!(store.load_into(&warm), 1);
        let reloaded = warm
            .get_or_insert_with(&key, || panic!("store must serve this key"))
            .unwrap();
        prop_assert_eq!(reloaded, est);
        prop_assert_eq!(warm.store_hits(), 1);

        // A *different* point must not alias the stored key.
        let other = point.with_replication_delta(1);
        if other.canonical_key() != key {
            let mut computed = false;
            let _ = warm.get_or_insert_with(&other.canonical_key(), || {
                computed = true;
                Ok(est)
            });
            prop_assert!(computed, "distinct point must miss the store");
        }
    }

    /// Many records per log: persist a whole cache, reload, and the
    /// snapshot of the warm cache equals the snapshot of the cold one.
    #[test]
    fn prop_multi_record_log_preserves_snapshot(
        n in 1usize..40,
        seed in 0u64..u64::MAX / 2,
    ) {
        let cold = EstimateCache::new();
        let mut state = seed | 1;
        for i in 0..n {
            // Cheap deterministic pseudo-random key/value material.
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key: Vec<u8> = state.to_le_bytes().iter().copied().chain([i as u8]).collect();
            let est = Estimate {
                latency_cycles: state >> 8,
                resources: ResourceUsage {
                    dsp: state % 4096,
                    lut: state % 100_000,
                    ff: state % 200_000,
                    bram_18k: state % 280,
                },
            };
            cold.get_or_insert_with(&key, || Ok(est)).unwrap();
        }

        let dir = TempDir::new("codesign_hls_store_prop").unwrap();
        let path = dir.join("estimates.log");
        {
            let mut store = EstimateStore::open(&path).unwrap();
            prop_assert_eq!(store.persist_from(&cold).unwrap(), cold.len());
        }
        let warm = EstimateCache::new();
        let mut store = EstimateStore::open(&path).unwrap();
        store.load_into(&warm);
        prop_assert_eq!(warm.snapshot_ok(), cold.snapshot_ok());
    }
}

/// A store log written before the cache's hash changed (one record: the
/// PYNQ-Z1 / Bundle 13 / N = 5 / PF 100 / `Relu4` estimate) must still
/// warm-start: its key bytes are the cache's canonical key, and the
/// lookup is served from the store without re-estimating.
#[test]
fn pinned_store_log_still_warm_starts() {
    use codesign_hls::calibrate::calibrate_bundle;
    use codesign_hls::model::HlsEstimator;
    use codesign_sim::device::pynq_z1;
    use std::sync::Arc;

    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/estimate_store_v1.log"
    );
    let dir = TempDir::new("codesign_hls_store_prop").unwrap();
    let path = dir.join("estimate_store_v1.log");
    std::fs::copy(fixture, &path).unwrap();

    let bundle = bundle_by_id(BundleId(13)).unwrap();
    let estimator = HlsEstimator::new(calibrate_bundle(&bundle, &pynq_z1()).unwrap(), pynq_z1());
    let mut point = DesignPoint::initial(bundle, 5);
    point.parallel_factor = 100;
    point.activation = Activation::Relu4;

    let cache = Arc::new(EstimateCache::new());
    let mut store = EstimateStore::open(&path).unwrap();
    assert_eq!(store.load_into(&cache), 1);
    let warm = estimator.clone().with_cache(Arc::clone(&cache));
    let served = warm.estimate_point(&point).unwrap();
    assert_eq!(served, estimator.estimate_point(&point).unwrap());
    assert_eq!(served.latency_cycles, 7_095_707);
    assert_eq!((cache.store_hits(), cache.stats().misses), (1, 0));
}
