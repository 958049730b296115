//! Deterministic pooled parallelism primitives shared across the
//! co-design workspace.
//!
//! Both halves of the methodology are embarrassingly parallel: the
//! co-design flow (Fig. 1) fans out coarse Bundle evaluation and the
//! per-(Bundle, FPS-target) SCD searches. This base crate provides the
//! primitives that make that fan-out *reproducible*:
//!
//! * [`parallel_map`] — a work queue over a persistent [`WorkerPool`]
//!   (long-lived threads, no per-call spawn cost, no external
//!   dependencies) whose results are merged **by item index**, so the
//!   output is byte-identical to a sequential run no matter how
//!   threads interleave;
//! * [`derive_seed`] — SplitMix64 seed splitting, giving every work item
//!   a private deterministic RNG stream derived from the flow's root
//!   seed instead of sharing one generator across threads.
//!
//! The [`Parallelism`] knob picks the worker count; `Fixed(1)` is the
//! legacy sequential path (which runs the exact same code, just inline,
//! without touching the pool).
//!
//! The crate sits *below* `codesign-nn` and `codesign-core` in the
//! dependency graph so both can share one work queue; `codesign-core`
//! re-exports it as `codesign_core::parallel` for compatibility.

#![deny(unsafe_code)] // `allow`ed only in `pool`'s lifetime-erased dispatch
#![warn(missing_docs)]

mod pool;

pub use pool::WorkerPool;

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// The hardware thread count (`available_parallelism`, at least 1),
/// resolved once per process: the call reads cgroup files on Linux,
/// and the flow and the NN kernels would otherwise pay for it on every
/// call.
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

/// SplitMix64 finalizer: a bijective avalanche mix over `u64`.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives the seed of one work item from the flow's root seed and a
/// stable per-item stream id.
///
/// Both inputs pass through [`splitmix64`] so neighbouring stream ids
/// (0, 1, 2, …) land on statistically independent seeds; results depend
/// only on `(root, stream)`, never on which thread runs the item.
pub fn derive_seed(root: u64, stream: u64) -> u64 {
    splitmix64(root ^ splitmix64(stream))
}

/// Maps `f` over `items` with up to `threads` pooled workers, returning
/// results **in item order**.
///
/// With `threads <= 1` (or fewer than two items) the closure runs inline
/// on the caller's thread — the legacy sequential path. Otherwise the
/// caller and up to `threads - 1` persistent [`WorkerPool`] helpers
/// claim item indices from an atomic counter and write results into
/// per-index slots, so the merged output is identical to the
/// sequential one regardless of scheduling. A panicking closure
/// propagates the panic to the caller.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let abort = AtomicBool::new(false);
    WorkerPool::global().run_scoped(items.len(), threads - 1, &abort, &|i| {
        let out = f(i, &items[i]);
        *slots[i].lock().expect("result slot") = Some(out);
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot")
                .expect("every item processed")
        })
        .collect()
}

/// Like [`parallel_map`] but for fallible work items: returns the first
/// error **in item order**. Once any worker observes an error, no new
/// items are claimed (in-flight items finish; their results are
/// discarded), matching the early return of a sequential loop.
pub fn try_parallel_map<T, U, E, F>(items: &[T], threads: usize, f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<U, E> + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        // `collect` into `Result` short-circuits at the first error.
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let abort = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Result<U, E>>>> = items.iter().map(|_| Mutex::new(None)).collect();
    // The pool checks `abort` *before* claiming an index, so a claimed
    // item always runs to completion and fills its slot — exactly the
    // early-return shape of a sequential loop.
    WorkerPool::global().run_scoped(items.len(), threads - 1, &abort, &|i| {
        let out = f(i, &items[i]);
        if out.is_err() {
            abort.store(true, Ordering::Relaxed);
        }
        *slots[i].lock().expect("result slot") = Some(out);
    });
    // Indices are claimed consecutively, so every slot before the first
    // error is filled; the scan below hits that error before any
    // unclaimed (None) slot.
    let mut out = Vec::with_capacity(items.len());
    for slot in slots {
        match slot.into_inner().expect("result slot") {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return Err(e),
            None => unreachable!("slot left empty without a preceding error"),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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
