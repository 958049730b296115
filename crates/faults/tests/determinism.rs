//! Property: a `FaultPlan` schedule is a pure function of its seed —
//! bit-identical across plan instances, across repeated evaluation, and
//! across the number of worker threads consulting it concurrently.

use codesign_faults::{FaultAction, FaultPlan};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Replays `calls` counter-mode decisions from `threads` worker
/// threads and returns how many of each action fired. The *assignment*
/// of decisions to threads is racy; the multiset of decisions must not
/// be.
fn concurrent_decisions(plan: &Arc<FaultPlan>, site: &str, calls: u64, threads: usize) -> [u64; 2] {
    let fired = Arc::new(AtomicU64::new(0));
    let proceeded = Arc::new(AtomicU64::new(0));
    let remaining = Arc::new(AtomicU64::new(calls));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let plan = Arc::clone(plan);
            let fired = Arc::clone(&fired);
            let proceeded = Arc::clone(&proceeded);
            let remaining = Arc::clone(&remaining);
            let site = site.to_string();
            std::thread::spawn(move || loop {
                if remaining
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                    .is_err()
                {
                    return;
                }
                match plan.decide(&site) {
                    FaultAction::FailIo => fired.fetch_add(1, Ordering::Relaxed),
                    FaultAction::Proceed => proceeded.fetch_add(1, Ordering::Relaxed),
                    other => panic!("io site produced {other:?}"),
                };
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("decision thread");
    }
    [
        fired.load(Ordering::Relaxed),
        proceeded.load(Ordering::Relaxed),
    ]
}

proptest! {
    #[test]
    fn prop_schedule_is_bit_identical_across_plans_and_runs(
        seed in 0u64..u64::MAX,
        rate_pct in 0u64..=100,
        n in 1u64..512,
    ) {
        let rate = rate_pct as f64 / 100.0;
        let spec = format!("seed={seed};store.append=io%{rate}");
        let a = FaultPlan::from_spec(&spec).unwrap();
        let b = FaultPlan::from_spec(&spec).unwrap();
        let schedule = a.schedule("store.append", n);
        prop_assert_eq!(&schedule, &b.schedule("store.append", n));
        // Re-evaluating the same plan never changes its answers.
        prop_assert_eq!(&schedule, &a.schedule("store.append", n));
        // decide_at agrees with the schedule entry-by-entry.
        for (k, action) in schedule.iter().enumerate() {
            prop_assert_eq!(a.decide_at("store.append", k as u64), *action);
        }
    }

    #[test]
    fn prop_schedule_is_worker_count_invariant(
        seed in 0u64..u64::MAX,
        rate_pct in 0u64..=100,
        calls in 1u64..256,
    ) {
        let rate = rate_pct as f64 / 100.0;
        let spec = format!("seed={seed};s=io%{rate}");
        let reference = FaultPlan::from_spec(&spec).unwrap();
        let expected_fired = reference
            .schedule("s", calls)
            .iter()
            .filter(|a| **a == FaultAction::FailIo)
            .count() as u64;
        for threads in [1usize, 2, 4] {
            let plan = FaultPlan::from_spec(&spec).unwrap();
            let [fired, proceeded] = concurrent_decisions(&plan, "s", calls, threads);
            prop_assert_eq!(fired, expected_fired);
            prop_assert_eq!(fired + proceeded, calls);
            prop_assert_eq!(plan.injected("s"), expected_fired);
        }
    }
}
