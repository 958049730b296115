//! Persistent worker pool behind the deterministic parallel primitives.
//!
//! Before this module existed, every [`crate::parallel_map`] call
//! spawned fresh OS threads through
//! `std::thread::scope`. That is correct but slow: a thread spawn costs
//! tens of microseconds, and the NN compute engine issues thousands of
//! small GEMM kernels per proxy-training run — the spawn cost alone
//! erased the parallel speedup (the committed `BENCH_proxy_train.json`
//! showed 4 workers *slower* than 1). The pool keeps a set of
//! long-lived worker threads parked on a condvar and hands them jobs
//! through a shared queue, so the steady-state cost of a parallel call
//! is a mutex lock and a few wakeups instead of thread creation.
//!
//! # Execution model
//!
//! A *job* is "run `f(i)` for every `i in 0..total`", where claiming an
//! index is one `fetch_add` on the job's atomic counter. The **caller
//! always participates**: it posts the job, drives the claim loop
//! itself, and then waits until every helper has left the job. This
//! has three consequences:
//!
//! * a job always completes even if the pool has zero idle workers (or
//!   was shut down) — helpers only ever *add* throughput;
//! * nested parallel calls cannot deadlock: a worker that issues a
//!   parallel call from inside a job simply drives the inner job to
//!   completion itself, borrowing idle helpers when there are any;
//! * determinism is untouched — which thread claims which index is as
//!   unordered as it was with scoped threads, and the primitives in
//!   [`crate`] still merge results **by item index**.
//!
//! A panicking work item is caught on the worker, recorded, and
//! re-raised on the caller's thread after the job drains, matching the
//! propagation behaviour of `std::thread::scope`.
//!
//! # Safety
//!
//! This is the one module in the crate allowed to use `unsafe`
//! (`#![deny(unsafe_code)]` everywhere else). Jobs borrow the caller's
//! stack (the closure and its captured slices), so the pointer stored
//! in the shared queue is lifetime-erased. Two rules keep it sound:
//!
//! * every [`Job`] field a helper can touch is immutable-after-post or
//!   interior-mutable (atomics / a mutex), so helpers only ever read
//!   plain fields through the shared pointer — no `&mut` aliasing
//!   exists anywhere;
//! * a job is only dereferenced either (a) under the queue lock, via a
//!   pointer still present in the queue, or (b) between a join
//!   (registered under the lock) and the matching leave (also under
//!   the lock). The posting caller removes the job from the queue and
//!   returns — allowing the job's storage to die — only after
//!   observing, under the lock, that no helper remains joined.

#![allow(unsafe_code)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Upper bound on pool threads, a backstop against pathological
/// `Parallelism::Fixed(huge)` requests; real worker counts come from
/// the caller's knob.
const MAX_POOL_THREADS: usize = 64;

/// One in-flight parallel call. Lives on the posting caller's stack;
/// shared with workers as a lifetime-erased pointer (see the module
/// docs for the aliasing discipline).
struct Job {
    /// Runs one work item. Lifetime-erased borrow of the caller's
    /// closure.
    run: *const (dyn Fn(usize) + Sync),
    /// Abort flag in the caller's frame: checked **before** claiming an
    /// index, so once it is set no new items start (in-flight items
    /// finish). `try_parallel_map` sets it on the first error; a panic
    /// sets it too.
    abort: *const AtomicBool,
    /// Next unclaimed item index.
    next: AtomicUsize,
    /// Total number of items.
    total: usize,
    /// Helpers currently inside the claim loop (updated under the
    /// queue lock).
    active: AtomicUsize,
    /// Helpers that ever joined (never exceeds `max_helpers`; updated
    /// under the queue lock).
    joined: AtomicUsize,
    /// Helper cap: requested worker count minus the caller itself.
    max_helpers: usize,
    /// First panic payload raised by a work item, re-raised by the
    /// caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job {
    /// Claims and runs items until the queue is drained or aborted.
    ///
    /// # Safety
    ///
    /// The job (and everything it borrows) must be alive for the whole
    /// call — i.e. the current thread is the posting caller or a
    /// helper registered per the module-docs invariant.
    unsafe fn drive(&self) {
        let run = &*self.run;
        let abort = &*self.abort;
        loop {
            if abort.load(Ordering::Relaxed) {
                break;
            }
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                break;
            }
            // AssertUnwindSafe: on panic the job aborts and the payload
            // is re-raised on the caller, which discards all partially
            // written per-item state — nothing broken is observed.
            // The fault hook sits inside the same unwind boundary so an
            // injected `parallel.item` panic takes exactly the path a
            // real work-item panic takes; with no global plan installed
            // it is a single relaxed atomic load.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                codesign_faults::pool_item_hook();
                run(i)
            })) {
                abort.store(true, Ordering::Relaxed);
                let mut slot = self.panic.lock().expect("panic slot");
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
    }

    /// True while the job still has unclaimed items and helper
    /// capacity — the queue-side test for "worth joining".
    fn wants_helpers(&self) -> bool {
        self.joined.load(Ordering::Relaxed) < self.max_helpers
            && self.next.load(Ordering::Relaxed) < self.total
    }
}

/// Queue entry: a lifetime-erased job pointer.
///
/// SAFETY: the pointee is kept alive by the posting caller per the
/// module-docs invariant, and every field helpers touch is either
/// read-only or interior-mutable, so sharing the pointer across
/// threads is sound.
#[derive(Clone, Copy, PartialEq, Eq)]
struct JobPtr(*const Job);
unsafe impl Send for JobPtr {}

struct PoolInner {
    /// Jobs with work left to hand out (callers remove their own job
    /// when it drains).
    jobs: Vec<JobPtr>,
    /// Worker threads spawned so far.
    workers: Vec<JoinHandle<()>>,
    shutdown: bool,
}

struct PoolShared {
    inner: Mutex<PoolInner>,
    /// Workers park here waiting for jobs (or shutdown).
    work_cv: Condvar,
    /// Posting callers park here waiting for their job to drain.
    done_cv: Condvar,
}

/// A persistent pool of worker threads executing the crate's parallel
/// primitives.
///
/// Most code never touches this type: [`parallel_map`] and friends run
/// on a process-wide pool ([`WorkerPool::global`]) that grows on demand
/// to the largest worker count ever requested and lives for the whole
/// process. Owning a `WorkerPool` directly is for tests and for
/// embedders that need [`WorkerPool::shutdown`] semantics.
///
/// [`parallel_map`]: crate::parallel_map
pub struct WorkerPool {
    shared: Arc<PoolShared>,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// Creates an empty pool; worker threads are spawned lazily as
    /// jobs request them.
    pub fn new() -> Self {
        Self {
            shared: Arc::new(PoolShared {
                inner: Mutex::new(PoolInner {
                    jobs: Vec::new(),
                    workers: Vec::new(),
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            }),
        }
    }

    /// The process-wide pool used by the crate's free functions.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(WorkerPool::new)
    }

    /// Number of worker threads currently alive (not counting callers,
    /// which always drive their own jobs).
    pub fn worker_count(&self) -> usize {
        self.shared.inner.lock().expect("pool lock").workers.len()
    }

    /// Runs `run(i)` for every `i in 0..total` with up to
    /// `max_helpers` pool workers assisting the calling thread.
    ///
    /// Blocks until every item has finished (or was skipped because
    /// `abort` got set). Re-raises the first work-item panic on this
    /// thread.
    pub fn run_scoped(
        &self,
        total: usize,
        max_helpers: usize,
        abort: &AtomicBool,
        run: &(dyn Fn(usize) + Sync),
    ) {
        debug_assert!(total > 0);
        let job = Job {
            // SAFETY: lifetime erasure only (`&'a dyn …` to a
            // `*const dyn …` whose implicit bound is `'static`); sound
            // because this function does not return before the job is
            // drained and unregistered, so the pointer is never used
            // past `'a`.
            run: unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(run)
            },
            abort: abort as *const _,
            next: AtomicUsize::new(0),
            total,
            active: AtomicUsize::new(0),
            joined: AtomicUsize::new(0),
            max_helpers: max_helpers.min(total.saturating_sub(1)),
            panic: Mutex::new(None),
        };
        let ptr = JobPtr(&job as *const Job);
        let wanted = job.max_helpers;
        if wanted > 0 {
            let mut inner = self.shared.inner.lock().expect("pool lock");
            if !inner.shutdown {
                // Grow the pool (once — spawned threads are reused for
                // every later job) up to the requested helper count.
                while inner.workers.len() < wanted.min(MAX_POOL_THREADS) {
                    let shared = Arc::clone(&self.shared);
                    let name = format!("codesign-pool-{}", inner.workers.len());
                    let handle = std::thread::Builder::new()
                        .name(name)
                        .spawn(move || worker_loop(shared))
                        .expect("spawn pool worker");
                    inner.workers.push(handle);
                }
            }
            inner.jobs.push(ptr);
            drop(inner);
            for _ in 0..wanted {
                self.shared.work_cv.notify_one();
            }
        }
        // The caller is always a participant; with zero helpers this is
        // simply the sequential loop.
        // SAFETY: `job` is alive for this whole function.
        unsafe { job.drive() };
        if wanted > 0 {
            let mut inner = self.shared.inner.lock().expect("pool lock");
            while job.active.load(Ordering::Relaxed) > 0 {
                inner = self.shared.done_cv.wait(inner).expect("pool lock");
            }
            if let Some(pos) = inner.jobs.iter().position(|j| *j == ptr) {
                inner.jobs.swap_remove(pos);
            }
        }
        // No helper can touch `job` anymore: it is out of the queue and
        // `active == 0` was observed under the lock.
        let payload = job.panic.lock().expect("panic slot").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Stops all worker threads and joins them.
    ///
    /// Safe to call at any time: jobs in flight still complete, because
    /// posting callers always drive their own work — shutdown only
    /// removes the helpers. Subsequent parallel calls on this pool run
    /// caller-only.
    pub fn shutdown(&self) {
        let workers = {
            let mut inner = self.shared.inner.lock().expect("pool lock");
            inner.shutdown = true;
            std::mem::take(&mut inner.workers)
        };
        self.shared.work_cv.notify_all();
        for handle in workers {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The parked-worker loop: wait for a job that wants helpers, join it
/// (under the queue lock), drive it (without the lock), leave it (under
/// the lock again), repeat until shutdown.
fn worker_loop(shared: Arc<PoolShared>) {
    let mut inner = shared.inner.lock().expect("pool lock");
    loop {
        if inner.shutdown {
            return;
        }
        // SAFETY: job pointers in the queue are alive while they remain
        // queued, and we only inspect them under the lock.
        let next_job = inner
            .jobs
            .iter()
            .copied()
            .find(|j| unsafe { (*j.0).wants_helpers() });
        match next_job {
            Some(ptr) => {
                // Join under the lock…
                // SAFETY: pointer taken from the queue under the lock.
                unsafe {
                    (*ptr.0).joined.fetch_add(1, Ordering::Relaxed);
                    (*ptr.0).active.fetch_add(1, Ordering::Relaxed);
                }
                drop(inner);
                // …work without it…
                // SAFETY: joined helper; the caller cannot free the job
                // until `active` drops back to 0, which happens below,
                // under the lock.
                unsafe { (*ptr.0).drive() };
                // …leave under the lock.
                inner = shared.inner.lock().expect("pool lock");
                // SAFETY: the posting caller frees the job only after
                // seeing `active == 0` under this lock, which cannot
                // happen before we release it.
                unsafe { (*ptr.0).active.fetch_sub(1, Ordering::Relaxed) };
                shared.done_cv.notify_all();
            }
            None => {
                inner = shared.work_cv.wait(inner).expect("pool lock");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_helper_job_runs_inline() {
        let pool = WorkerPool::new();
        let hits = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        pool.run_scoped(10, 0, &abort, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
        assert_eq!(pool.worker_count(), 0, "no helpers requested, none spawned");
    }

    #[test]
    fn helpers_spawn_once_and_survive() {
        let pool = WorkerPool::new();
        let abort = AtomicBool::new(false);
        for _ in 0..50 {
            let hits = AtomicUsize::new(0);
            pool.run_scoped(64, 3, &abort, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 64);
        }
        assert_eq!(pool.worker_count(), 3, "pool grew once, to the cap");
        pool.shutdown();
        assert_eq!(pool.worker_count(), 0);
    }

    #[test]
    fn jobs_complete_after_shutdown() {
        let pool = WorkerPool::new();
        pool.shutdown();
        let hits = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        pool.run_scoped(8, 4, &abort, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8, "caller-only completion");
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = WorkerPool::new();
        let abort = AtomicBool::new(false);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_scoped(16, 2, &abort, &|i| {
                if i == 5 {
                    panic!("boom at {i}");
                }
            });
        }));
        let payload = result.expect_err("panic must cross the pool");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("boom at 5"), "unexpected payload: {msg}");
        // The pool survives the panic and still runs jobs.
        let hits = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        pool.run_scoped(4, 2, &abort, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn nested_jobs_do_not_deadlock() {
        let pool = WorkerPool::global();
        let total = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        pool.run_scoped(4, 3, &abort, &|_| {
            let inner_abort = AtomicBool::new(false);
            pool.run_scoped(8, 3, &inner_abort, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }
}
