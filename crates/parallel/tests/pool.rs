//! Work-queue contract tests: parallel execution must be a pure
//! performance optimization — bit-identical results to the sequential
//! path at every worker count and across many calls, with item panics
//! reaching the caller and nested calls completing.

use codesign_parallel::{parallel_map, try_parallel_map};
use proptest::prelude::*;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A deterministic, item-dependent payload that would expose any
/// index/thread mix-up.
fn mix(i: usize, x: u64) -> u64 {
    codesign_parallel::splitmix64((i as u64) << 32 | x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `parallel_map` returns the sequential result at every worker
    /// count.
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

/// Many small jobs back to back keep producing exact results, every
/// item running exactly once per call.
#[test]
fn stress_many_small_jobs_reuse_the_pool() {
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
}

/// Fallible map jobs interleaved with map jobs.
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

/// A panicking item's own payload reaches the caller, and the next call
/// still runs every item.
#[test]
fn panics_propagate_to_the_caller() {
    let items: Vec<usize> = (0..16).collect();
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        parallel_map(&items, 3, |i, _| {
            if i == 5 {
                panic!("boom at {i}");
            }
        })
    }));
    let payload = result.expect_err("panic must reach the caller");
    let msg = payload.downcast_ref::<String>().expect("string payload");
    assert!(msg.contains("boom at 5"), "unexpected payload: {msg}");
    let hits = AtomicUsize::new(0);
    parallel_map(&items[..4], 3, |_, _| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 4);
}

/// A parallel call issued from inside a work item completes.
#[test]
fn nested_jobs_do_not_deadlock() {
    let total = AtomicUsize::new(0);
    parallel_map(&[(); 4], 4, |_, _| {
        parallel_map(&[(); 8], 4, |_, _| {
            total.fetch_add(1, Ordering::Relaxed);
        });
    });
    assert_eq!(total.load(Ordering::Relaxed), 32);
}
