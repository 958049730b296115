//! Worker-pool contract tests: pooled execution must be a pure
//! performance optimization — bit-identical results to the sequential
//! path at every worker count, across many reusing calls, with clean
//! shutdown semantics.

use codesign_parallel::{parallel_map, try_parallel_map, WorkerPool};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A deterministic, item-dependent payload that would expose any
/// index/thread mix-up.
fn mix(i: usize, x: u64) -> u64 {
    codesign_parallel::splitmix64((i as u64) << 32 | x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `parallel_map` through the pool returns the sequential result at
    /// every worker count.
    #[test]
    fn prop_map_matches_sequential(
        len in 0usize..300,
        salt in 0u64..1_000_000_000,
    ) {
        let items: Vec<u64> = (0..len as u64).map(|x| x ^ salt).collect();
        let seq: Vec<u64> = items.iter().enumerate().map(|(i, &x)| mix(i, x)).collect();
        for workers in [1, 2, 4, 8] {
            let par = parallel_map(&items, workers, |i, &x| mix(i, x));
            prop_assert_eq!(&par, &seq);
        }
    }

    /// `try_parallel_map` reports the same first error (or full result)
    /// as the sequential path at every worker count.
    #[test]
    fn prop_try_map_matches_sequential(
        len in 1usize..200,
        bad in 0usize..1000,
        fail in 0u8..2,
    ) {
        let items: Vec<u64> = (0..len as u64).collect();
        let bad_idx = bad % len;
        let fail = fail == 1;
        let f = |i: usize, &x: &u64| -> Result<u64, String> {
            if fail && i == bad_idx {
                Err(format!("bad {i}"))
            } else {
                Ok(mix(i, x))
            }
        };
        let seq: Result<Vec<u64>, String> = try_parallel_map(&items, 1, f);
        for workers in [2, 4, 8] {
            let par = try_parallel_map(&items, workers, f);
            prop_assert_eq!(&par, &seq);
        }
    }
}

/// Many small jobs back to back: the global pool must be reused (not
/// respawned), keep producing exact results, and stay healthy across
/// calls — the steady-state regime of proxy-training GEMM kernels.
#[test]
fn stress_many_small_jobs_reuse_the_pool() {
    let before = WorkerPool::global().worker_count();
    let mut expected_hits = 0usize;
    let hits = AtomicUsize::new(0);
    for round in 0..500usize {
        let items: Vec<u64> = (0..(round % 7 + 2) as u64).collect();
        expected_hits += items.len();
        let out = parallel_map(&items, 4, |i, &x| {
            hits.fetch_add(1, Ordering::Relaxed);
            mix(i, x)
        });
        let seq: Vec<u64> = items.iter().enumerate().map(|(i, &x)| mix(i, x)).collect();
        assert_eq!(out, seq, "round {round}");
    }
    assert_eq!(hits.load(Ordering::Relaxed), expected_hits);
    let after = WorkerPool::global().worker_count();
    assert!(
        after <= before.max(3),
        "pool kept growing across calls: {before} -> {after} workers"
    );
}

/// Fallible map jobs interleaved with map jobs on the same pool.
#[test]
fn stress_mixed_job_kinds() {
    for round in 0..200usize {
        let items: Vec<u64> = (0..257).map(|j| (round * 1000 + j) as u64).collect();
        let tried: Result<Vec<u64>, ()> = try_parallel_map(&items, 4, |i, &x| Ok(mix(i, x)));
        let seq: Vec<u64> = items.iter().enumerate().map(|(i, &x)| mix(i, x)).collect();
        assert_eq!(tried, Ok(seq), "round {round}");
        let items = [round as u64, 1, 2, 3];
        let mapped = parallel_map(&items, 3, |i, &x| mix(i, x));
        assert_eq!(
            mapped,
            items
                .iter()
                .enumerate()
                .map(|(i, &x)| mix(i, x))
                .collect::<Vec<_>>()
        );
    }
}

/// A private pool spawns helpers on demand, survives across calls, and
/// shuts down cleanly (threads joined, later jobs complete caller-only).
#[test]
fn private_pool_lifecycle() {
    let pool = WorkerPool::new();
    assert_eq!(pool.worker_count(), 0, "lazy: no workers before any job");
    let abort = std::sync::atomic::AtomicBool::new(false);
    let hits = AtomicUsize::new(0);
    for _ in 0..20 {
        pool.run_scoped(16, 3, &abort, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
    }
    assert_eq!(hits.load(Ordering::Relaxed), 20 * 16);
    assert_eq!(pool.worker_count(), 3, "grew once to the requested cap");
    pool.shutdown();
    assert_eq!(pool.worker_count(), 0, "shutdown joins every worker");
    // Post-shutdown jobs still complete — the caller always drives.
    pool.run_scoped(8, 3, &abort, &|_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 20 * 16 + 8);
    assert_eq!(pool.worker_count(), 0, "no workers respawn after shutdown");
}
