//! Observation and cancellation for long-running co-design flows.
//!
//! [`CoDesignFlow::run`](crate::flow::CoDesignFlow::run) is a blocking
//! call that can take seconds to minutes; a serving layer (or an
//! interactive CLI) needs to see progress while it runs and to stop it
//! early. This module provides the two halves of that contract:
//!
//! * [`FlowObserver`] — a thread-safe progress-event sink. The flow
//!   calls [`FlowObserver::on_event`] at every stage transition and at
//!   every completed work item, from whichever worker thread finished
//!   the item. Events never influence results: the flow's bit-identical
//!   determinism guarantee is about its *output*, and observers only
//!   read.
//! * [`CancelToken`] — a cooperative cancellation flag, checked at
//!   work-item boundaries (never mid-kernel). Cancelling a flow makes
//!   [`run_observed`](crate::flow::CoDesignFlow::run_observed) return
//!   [`FlowError::Cancelled`](crate::flow::FlowError::Cancelled) after
//!   in-flight items finish; no new items start.
//!
//! Event *ordering within one stage* is a scheduling artifact (worker
//! threads race to finish items); the per-event `done`/`total` counters
//! are the monotone progress signal to surface to users.

use codesign_dnn::quant::Activation;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a [`CancelToken`] says to stop — or that it doesn't.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelState {
    /// Neither cancelled nor past a deadline: keep going.
    Live,
    /// A clone called [`cancel`](CancelToken::cancel). Takes precedence
    /// over a simultaneously expired deadline, so an operator's
    /// explicit stop is never reported as a timeout.
    Cancelled,
    /// The deadline set via [`set_deadline_in`](CancelToken::set_deadline_in)
    /// has passed.
    TimedOut,
}

#[derive(Debug)]
struct TokenInner {
    flag: AtomicBool,
    /// Zero point for `deadline_ns`, fixed at token creation.
    anchor: Instant,
    /// Deadline as nanoseconds past `anchor`; `u64::MAX` means none.
    deadline_ns: AtomicU64,
}

impl Default for TokenInner {
    fn default() -> Self {
        Self {
            flag: AtomicBool::new(false),
            anchor: Instant::now(),
            deadline_ns: AtomicU64::new(u64::MAX),
        }
    }
}

/// Cooperative cancellation handle for a co-design flow run, with an
/// optional deadline.
///
/// Clones share one flag: any clone can [`cancel`](CancelToken::cancel),
/// every clone observes it. The flow checks the token **between** work
/// items (one SCD search with its Bundle's calibration, one design
/// finalization), so cancellation — and deadline — latency is bounded
/// by the longest single work item, not the whole flow.
///
/// ```
/// use codesign_core::observe::CancelToken;
///
/// let token = CancelToken::new();
/// let handle = token.clone();
/// assert!(!token.is_cancelled());
/// handle.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl CancelToken {
    /// A fresh, un-cancelled token with no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Relaxed);
    }

    /// True once any clone has called [`cancel`](CancelToken::cancel).
    /// Deadline expiry is *not* reflected here — use
    /// [`state`](CancelToken::state) to see both.
    pub fn is_cancelled(&self) -> bool {
        self.inner.flag.load(Ordering::Relaxed)
    }

    /// Arms (or re-arms) a deadline `after` from now. The clock starts
    /// at this call, so a deadline set at submit time counts queue wait
    /// against the budget.
    pub fn set_deadline_in(&self, after: Duration) {
        let ns = self
            .inner
            .anchor
            .elapsed()
            .saturating_add(after)
            .as_nanos()
            .min(u64::MAX as u128 - 1) as u64;
        self.inner.deadline_ns.store(ns, Ordering::Relaxed);
    }

    /// True once an armed deadline has passed (always false when none
    /// is set).
    pub fn deadline_exceeded(&self) -> bool {
        let ns = self.inner.deadline_ns.load(Ordering::Relaxed);
        ns != u64::MAX && self.inner.anchor.elapsed().as_nanos() as u64 >= ns
    }

    /// The token's combined verdict; explicit cancellation wins over an
    /// expired deadline.
    pub fn state(&self) -> CancelState {
        if self.is_cancelled() {
            CancelState::Cancelled
        } else if self.deadline_exceeded() {
            CancelState::TimedOut
        } else {
            CancelState::Live
        }
    }
}

/// One progress event of a co-design flow run.
///
/// The schedule: `Started`, `BundlesSelected`, then the SCD stage's
/// events, then one `DesignFinalized` per design and `Finished`. A
/// Bundle is calibrated by the first of its SCD cells to run, so its
/// `BundleCalibrated` interleaves with the `ScdSearchFinished` events
/// of other Bundles, but always precedes every `ScdSearchFinished` of
/// its own Bundle.
///
/// Work-item events carry `done`/`total` pairs counting *completed*
/// items of their kind; `done` is unique per event but events may
/// arrive out of `done`-order when worker threads race.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowEvent {
    /// The flow started: configuration validated, caches wired.
    Started {
        /// Number of FPS targets to search for.
        targets: usize,
        /// Number of Bundles entering coarse evaluation.
        bundles: usize,
    },
    /// Coarse Bundle evaluation finished and Bundles were selected.
    BundlesSelected {
        /// Bundle ids surviving Pareto selection (paper: {1, 3, 13, 15, 17}).
        selected: Vec<usize>,
    },
    /// One selected Bundle's analytic model was calibrated, by the
    /// first of its SCD cells to run.
    BundleCalibrated {
        /// Bundle id whose estimator is now calibrated.
        bundle: usize,
        /// Calibrations completed so far.
        done: usize,
        /// Total calibrations this run: the Bundles with cells to
        /// search (on a resume, those with cells not yet on disk).
        total: usize,
    },
    /// One SCD search work item — a (FPS target, Bundle, quantization
    /// arm) cell — completed.
    ScdSearchFinished {
        /// FPS target of the finished cell.
        target_fps: f64,
        /// Bundle id of the finished cell.
        bundle: usize,
        /// Quantization arm of the finished cell.
        activation: Activation,
        /// In-window candidates the cell found.
        found: usize,
        /// SCD cells completed so far, cells restored from a
        /// checkpoint included.
        done: usize,
        /// Total SCD cells this run.
        total: usize,
    },
    /// One winning design was fully simulated and its C generated.
    DesignFinalized {
        /// FPS target the design was searched for.
        target_fps: f64,
        /// Estimated accuracy (IoU) of the design.
        accuracy: f64,
        /// Simulated single-frame latency in milliseconds.
        latency_ms: f64,
        /// Designs finalized so far.
        done: usize,
        /// Total designs to finalize.
        total: usize,
    },
    /// The flow completed successfully.
    Finished {
        /// Candidates that met some target band.
        candidates: usize,
        /// Designs published (one per satisfiable target).
        designs: usize,
    },
    /// The flow stopped early because its [`CancelToken`] fired.
    Cancelled,
    /// The flow stopped early because its [`CancelToken`]'s deadline
    /// passed.
    TimedOut,
}

/// A thread-safe sink for [`FlowEvent`]s.
///
/// Implementations must tolerate concurrent calls: work-item events are
/// emitted from the flow's worker threads as items complete. Closures
/// work directly:
///
/// ```
/// use codesign_core::observe::{FlowEvent, FlowObserver};
///
/// let sink = |event: &FlowEvent| println!("{event:?}");
/// FlowObserver::on_event(&sink, &FlowEvent::Cancelled);
/// ```
pub trait FlowObserver: Sync {
    /// Called once per event, possibly from a worker thread.
    fn on_event(&self, event: &FlowEvent);
}

/// The no-op observer behind the legacy blocking
/// [`run`](crate::flow::CoDesignFlow::run).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl FlowObserver for NullObserver {
    fn on_event(&self, _event: &FlowEvent) {}
}

impl<F: Fn(&FlowEvent) + Sync> FlowObserver for F {
    fn on_event(&self, event: &FlowEvent) {
        self(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_shares_state_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        b.cancel(); // idempotent
        assert!(a.is_cancelled());
    }

    #[test]
    fn deadlines_expire_and_cancel_wins() {
        let token = CancelToken::new();
        assert_eq!(token.state(), CancelState::Live);
        assert!(!token.deadline_exceeded());
        token.set_deadline_in(Duration::from_secs(3600));
        assert_eq!(token.state(), CancelState::Live);
        token.set_deadline_in(Duration::ZERO);
        assert!(token.deadline_exceeded());
        assert_eq!(token.state(), CancelState::TimedOut);
        // Deadline expiry does not masquerade as cancellation…
        assert!(!token.is_cancelled());
        // …and an explicit cancel outranks the expired deadline.
        token.cancel();
        assert_eq!(token.state(), CancelState::Cancelled);
        // Clones share the deadline too.
        let fresh = CancelToken::new();
        let clone = fresh.clone();
        fresh.set_deadline_in(Duration::ZERO);
        assert_eq!(clone.state(), CancelState::TimedOut);
    }

    #[test]
    fn closures_are_observers() {
        use std::sync::Mutex;
        let events = Mutex::new(Vec::new());
        let sink = |e: &FlowEvent| events.lock().unwrap().push(e.clone());
        sink.on_event(&FlowEvent::Cancelled);
        sink.on_event(&FlowEvent::Finished {
            candidates: 3,
            designs: 1,
        });
        let got = events.into_inner().unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], FlowEvent::Cancelled);
    }
}
