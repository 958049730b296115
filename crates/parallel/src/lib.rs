//! Deterministic parallelism primitives shared across the co-design
//! workspace.
//!
//! The co-design flow (Fig. 1) fans out twice per run: coarse Bundle
//! evaluation and the per-(Bundle, FPS-target) SCD searches, which
//! calibrate each Bundle on first use. This base crate provides the
//! primitives that make that fan-out *reproducible*:
//!
//! * [`try_parallel_map`] / [`parallel_map`] — a work queue over scoped
//!   threads that the call spawns and joins before it returns (so no
//!   thread outlives the call), whose results are merged **by item
//!   index**, so the output is byte-identical to a sequential run no
//!   matter how threads interleave;
//! * [`derive_seed`] — SplitMix64 seed splitting, giving every work item
//!   a private deterministic RNG stream derived from the flow's root
//!   seed instead of sharing one generator across threads.
//!
//! The [`Parallelism`] knob picks the worker count; `Fixed(1)` is the
//! legacy sequential path (which runs the exact same code, just inline,
//! without spawning a thread).
//!
//! The crate sits *below* `codesign-core` in the dependency graph;
//! `codesign-core` re-exports it as `codesign_core::parallel` for
//! compatibility.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::convert::Infallible;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// The hardware thread count (`available_parallelism`, at least 1),
/// resolved once per process: the call reads cgroup files on Linux,
/// and every `Parallelism::Auto` lookup would otherwise pay for it.
pub fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Worker-count knob of the co-design flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker per available hardware thread (the default).
    #[default]
    Auto,
    /// A fixed worker count; `Fixed(1)` is the sequential legacy path.
    Fixed(usize),
}

impl Parallelism {
    /// The effective worker count (at least 1); `Auto` is
    /// [`hardware_threads`].
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Auto => hardware_threads(),
            Parallelism::Fixed(n) => n.max(1),
        }
    }

    /// Reads the knob from an environment variable: a positive integer
    /// means `Fixed(n)`, anything else (unset, empty, `auto`) means
    /// [`Parallelism::Auto`].
    pub fn from_env(var: &str) -> Self {
        match std::env::var(var) {
            Ok(s) => s
                .trim()
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .map(Parallelism::Fixed)
                .unwrap_or(Parallelism::Auto),
            Err(_) => Parallelism::Auto,
        }
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parallelism::Auto => write!(f, "auto({})", self.threads()),
            Parallelism::Fixed(n) => write!(f, "{n}"),
        }
    }
}

/// SplitMix64 finalizer: a bijective avalanche mix over `u64`. The one
/// implementation lives in `codesign-faults`, which seeds its fault
/// schedules with it.
pub use codesign_faults::splitmix64;

/// Derives the seed of one work item from the flow's root seed and a
/// stable per-item stream id.
///
/// Both inputs pass through [`splitmix64`] so neighbouring stream ids
/// (0, 1, 2, …) land on statistically independent seeds; results depend
/// only on `(root, stream)`, never on which thread runs the item.
pub fn derive_seed(root: u64, stream: u64) -> u64 {
    splitmix64(root ^ splitmix64(stream))
}

/// Upper bound on the threads of one call (the caller included): the
/// worker count can arrive from outside the process, e.g. in an HTTP
/// request's `parallelism`.
const MAX_THREADS: usize = 64;

/// Maps `f` over `items` with up to `threads` workers, returning results
/// **in item order**.
///
/// A thin call to [`try_parallel_map`] whose items cannot fail; see it
/// for the execution model.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let Ok(out) = try_parallel_map(items, threads, |i, t| Ok::<U, Infallible>(f(i, t)));
    out
}

/// Maps the fallible `f` over `items` with up to `threads` workers,
/// returning the results **in item order** or the first error **in item
/// order**.
///
/// With `threads <= 1` (or fewer than two items) the closure runs inline
/// on the caller's thread — the legacy sequential path. Otherwise the
/// caller and up to `threads - 1` scoped helper threads (never more
/// threads than items, and at most 64) claim item indices from an atomic
/// counter; every result is merged by its index, so the output is
/// identical to the sequential one regardless of scheduling. The helpers
/// are joined before the call returns.
///
/// Once any worker observes an error or a panic, no new items are
/// claimed (in-flight items finish; their results are discarded),
/// matching the early return of a sequential loop. A panicking item's
/// own payload is re-raised on the caller.
pub fn try_parallel_map<T, U, E, F>(items: &[T], threads: usize, f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<U, E> + Sync,
{
    let threads = threads.min(MAX_THREADS).min(items.len());
    if threads <= 1 {
        // `collect` into `Result` short-circuits at the first error.
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    // One worker's claim loop: the finished items, or the payload of the
    // item that panicked. `abort` is checked *before* an index is
    // claimed, so a claimed item always runs to completion and fills its
    // slot — exactly the early-return shape of a sequential loop.
    let claim = || -> thread::Result<Vec<(usize, Result<U, E>)>> {
        let mut done = Vec::new();
        while !abort.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            // AssertUnwindSafe: on panic the call aborts and re-raises
            // the payload, discarding every partial result. The fault
            // hook sits inside the same unwind boundary so an injected
            // `parallel.item` panic takes exactly the path a real
            // work-item panic takes.
            let out = catch_unwind(AssertUnwindSafe(|| {
                codesign_faults::parallel_item_hook();
                f(i, item)
            }));
            if !matches!(out, Ok(Ok(_))) {
                abort.store(true, Ordering::Relaxed);
            }
            done.push((i, out?));
        }
        Ok(done)
    };
    let mut slots: Vec<Option<Result<U, E>>> = items.iter().map(|_| None).collect();
    thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(claim)).collect();
        let own = claim();
        // Each helper hands back its items, or the payload of the item
        // that panicked, through its join handle; the first payload met
        // is re-raised as it is (the scope then joins the other helpers).
        let joined = helpers.into_iter().map(|h| h.join().and_then(|done| done));
        for done in std::iter::once(own).chain(joined) {
            for (i, out) in done.unwrap_or_else(|payload| resume_unwind(payload)) {
                slots[i] = Some(out);
            }
        }
    });
    // Indices are claimed consecutively, so every slot before the first
    // error is filled, and `collect` stops at that error.
    slots
        .into_iter()
        .map(|slot| slot.expect("slot left empty without a preceding error"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_sequential_order() {
        let items: Vec<u64> = (0..100).collect();
        let seq = parallel_map(&items, 1, |i, &x| (i as u64) * 1000 + x * x);
        for threads in [2, 4, 8] {
            let par = parallel_map(&items, threads, |i, &x| (i as u64) * 1000 + x * x);
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_items() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn try_map_propagates_first_error() {
        let items: Vec<u32> = (0..50).collect();
        let out: Result<Vec<u32>, String> = try_parallel_map(&items, 4, |_, &x| {
            if x == 13 || x == 40 {
                Err(format!("bad {x}"))
            } else {
                Ok(x)
            }
        });
        assert_eq!(out.unwrap_err(), "bad 13", "first error in item order");
    }

    #[test]
    fn try_map_stops_claiming_after_an_error() {
        let items: Vec<u32> = (0..10_000).collect();
        let processed = AtomicUsize::new(0);
        let out: Result<Vec<u32>, &str> = try_parallel_map(&items, 4, |_, &x| {
            processed.fetch_add(1, Ordering::Relaxed);
            if x == 0 {
                Err("boom")
            } else {
                Ok(x)
            }
        });
        assert!(out.is_err());
        // In-flight items may finish after the error lands, but the
        // queue must not be drained to completion.
        assert!(
            processed.load(Ordering::Relaxed) < items.len(),
            "error did not short-circuit the work queue"
        );
    }

    #[test]
    fn derive_seed_is_stable_and_spreads() {
        // Pinned values: the determinism contract of the whole flow
        // rests on this function never changing silently.
        assert_eq!(derive_seed(2019, 0), derive_seed(2019, 0));
        let seeds: std::collections::HashSet<u64> =
            (0..1000).map(|s| derive_seed(2019, s)).collect();
        assert_eq!(seeds.len(), 1000, "stream collisions");
        assert_ne!(derive_seed(2019, 1), derive_seed(2020, 1));
    }

    #[test]
    fn parallelism_knob() {
        assert_eq!(Parallelism::Fixed(4).threads(), 4);
        assert_eq!(Parallelism::Fixed(0).threads(), 1);
        assert!(Parallelism::Auto.threads() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
        assert_eq!(Parallelism::Fixed(2).to_string(), "2");
    }

    #[test]
    fn parallelism_from_env() {
        std::env::set_var("CODESIGN_TEST_PAR_A", "3");
        assert_eq!(
            Parallelism::from_env("CODESIGN_TEST_PAR_A"),
            Parallelism::Fixed(3)
        );
        std::env::set_var("CODESIGN_TEST_PAR_B", "auto");
        assert_eq!(
            Parallelism::from_env("CODESIGN_TEST_PAR_B"),
            Parallelism::Auto
        );
        assert_eq!(
            Parallelism::from_env("CODESIGN_TEST_PAR_UNSET"),
            Parallelism::Auto
        );
    }
}
