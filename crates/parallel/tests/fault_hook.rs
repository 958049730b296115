//! The work queue's `parallel.item` fault hook: injected panics take
//! the real panic-propagation path (caught per item, re-raised on the
//! calling thread), injected delays just slow items down, and with no
//! global plan installed the hook is a no-op.
//!
//! These tests share the process-global fault-plan slot, so they
//! serialize on a lock and always clear the plan before releasing it.

use codesign_parallel::parallel_map;
use std::panic::AssertUnwindSafe;
use std::sync::Mutex;

static GLOBAL_PLAN: Mutex<()> = Mutex::new(());

/// Poisoning here means another fault test panicked while holding the
/// slot — still safe to proceed, the winner always clears the plan.
fn hold_slot() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_PLAN
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn injected_item_panic_propagates_to_the_caller() {
    let _slot = hold_slot();
    let plan = codesign_faults::FaultPlan::from_spec("seed=21;parallel.item=panic@2").unwrap();
    codesign_faults::install_global(plan.clone());
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        parallel_map(&[1u64, 2, 3, 4, 5, 6], 3, |_, v| v * 2)
    }));
    codesign_faults::clear_global();
    let payload = result.expect_err("injected panic must reach the caller");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a message");
    assert!(
        msg.contains("injected fault: parallel.item"),
        "unexpected payload: {msg}"
    );
    assert_eq!(plan.injected("parallel.item"), 1);
}

#[test]
fn injected_delays_leave_results_bit_identical() {
    let _slot = hold_slot();
    let input: Vec<u64> = (0..64).collect();
    let reference = parallel_map(&input, 4, |i, v| v.wrapping_mul(31).wrapping_add(i as u64));
    let plan = codesign_faults::FaultPlan::from_spec("seed=9;parallel.item=delay(1)%0.5").unwrap();
    codesign_faults::install_global(plan.clone());
    let delayed = parallel_map(&input, 4, |i, v| v.wrapping_mul(31).wrapping_add(i as u64));
    codesign_faults::clear_global();
    assert_eq!(delayed, reference, "delays must not change merged output");
    assert!(plan.injected("parallel.item") > 0, "schedule never fired");
}

#[test]
fn later_calls_survive_an_injected_panic() {
    let _slot = hold_slot();
    let plan = codesign_faults::FaultPlan::from_spec("seed=4;parallel.item=panic@0").unwrap();
    codesign_faults::install_global(plan);
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        parallel_map(&[1u32, 2, 3], 2, |_, v| *v)
    }));
    codesign_faults::clear_global();
    assert!(result.is_err());
    // Fault-free calls afterwards run as before.
    let out = parallel_map(&[1u32, 2, 3], 2, |_, v| v + 1);
    assert_eq!(out, vec![2, 3, 4]);
}
