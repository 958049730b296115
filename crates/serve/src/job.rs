//! Job lifecycle and scheduling: a bounded admission queue feeding a
//! fixed pool of executor threads.
//!
//! Each submitted co-design request becomes a [`Job`] with its own
//! [`CancelToken`] and an append-only event log. Executors run jobs via
//! [`CoDesignFlow::run_observed`], pushing each progress event as an
//! NDJSON line; the HTTP layer streams those lines to clients as they
//! appear. Admission control is strict: when the queue holds
//! `max_queue` jobs, new submissions are rejected immediately instead
//! of queueing unboundedly. Cancelling a queued job removes it from the
//! queue on the spot, freeing its slot; cancelling a running job trips
//! its token, which the flow honours at the next work-item boundary.
//!
//! # The terminal transition
//!
//! Every way a job can end — completed, failed (a flow error or a
//! panic), cancelled (while queued, while running, or at shutdown) and
//! timed out (in the queue or in the flow) — goes through one function,
//! `end_job`, which commits it in this order:
//!
//! 1. the phase's `/metrics` counter (`panicked` and `failed` for a
//!    panic; `completed` and the latency sample for a completed job),
//!    so a client that sees the job terminal sees it counted;
//! 2. one terminal event line (`failed`, `cancelled` or `timed_out`;
//!    a completed job's terminal line is the flow's own `finished`);
//! 3. the phase, result and error, under one job lock, together with
//!    that line;
//! 4. retention, which may evict the oldest finished job;
//! 5. for a completed job only, the estimate-store persist — after the
//!    job is visible as terminal, so disk I/O never delays a result.
//!
//! `jobs_in_flight` counts jobs while their flow runs; a job that ends
//! before it starts is never in flight.
//!
//! `executors: 0` is a deliberate test knob — jobs are admitted but
//! never started, which makes queue-bound and cancellation semantics
//! deterministic to assert.

use crate::encode::{event_json, flow_result_body};
use crate::json::Json;
use crate::metrics::Metrics;
use codesign_core::flow::{CoDesignFlow, FlowConfig, FlowError, FlowOutput};
use codesign_core::observe::{CancelState, CancelToken, FlowEvent};
use codesign_faults::{FaultAction, FaultPlan};
use codesign_hls::cache::EstimateCache;
use codesign_hls::store::EstimateStore;
use codesign_store::LogError;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How many times a failed estimate-store persist is retried before
/// the store goes read-only degraded.
const PERSIST_RETRIES: u32 = 3;

/// Backoff before the first persist retry; it doubles per retry.
const PERSIST_BACKOFF: Duration = Duration::from_millis(10);

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum number of *queued* (admitted, not yet running) jobs.
    /// Submissions beyond this bound are rejected with
    /// [`SubmitError::QueueFull`].
    pub max_queue: usize,
    /// Number of executor threads. `0` admits jobs without ever running
    /// them — useful for deterministic admission/cancellation tests.
    pub executors: usize,
    /// Maximum number of *finished* (completed / failed / cancelled /
    /// timed-out) jobs retained for status and result queries. Beyond
    /// the bound the oldest finished job is evicted, and looking it up
    /// reports [`JobLookup::Expired`]. Bounds the scheduler's memory on
    /// a long-lived server — before this knob every job ever submitted
    /// was kept forever.
    pub max_finished: usize,
    /// Optional path of a persistent [`EstimateStore`] log. When set,
    /// the shared estimate cache is warm-started from the log at
    /// startup and new estimates are appended after each completed job,
    /// so a restarted server keeps its priced design points.
    pub store: Option<PathBuf>,
    /// Fault-injection plan consulted at the serve-layer sites
    /// (`serve.job.panic`, `serve.job.delay`, `serve.conn.drop`) and
    /// passed down to the estimate store's I/O sites. `None` — the
    /// production configuration — costs one `Option` check per site.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_queue: 16,
            executors: 2,
            max_finished: 64,
            store: None,
            faults: None,
        }
    }
}

/// What [`Scheduler::shutdown_with`] does to jobs still in the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownPolicy {
    /// Stop admitting, run every already-admitted job to completion,
    /// then stop. Degenerates to [`Cancel`](Self::Cancel) when the
    /// scheduler has no executors (nothing could ever drain the queue).
    Drain,
    /// Stop admitting and cancel everything: queued jobs are marked
    /// cancelled immediately, running jobs get their token tripped.
    Cancel,
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted, waiting for an executor.
    Queued,
    /// Executing on a worker thread.
    Running,
    /// Finished with a result.
    Completed,
    /// Finished with a flow error.
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
    /// Hit its deadline (queued wait counts) before finishing.
    TimedOut,
}

impl JobPhase {
    /// Wire name of the phase.
    pub fn as_str(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Completed => "completed",
            JobPhase::Failed => "failed",
            JobPhase::Cancelled => "cancelled",
            JobPhase::TimedOut => "timed_out",
        }
    }

    /// Whether the job has reached a final state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobPhase::Completed | JobPhase::Failed | JobPhase::Cancelled | JobPhase::TimedOut
        )
    }
}

#[derive(Debug)]
struct JobState {
    phase: JobPhase,
    /// NDJSON event lines, append-only.
    events: Vec<String>,
    /// Encoded result body, present iff `phase == Completed`.
    result: Option<String>,
    /// Flow error text, present iff `phase == Failed`.
    error: Option<String>,
}

/// One admitted co-design request.
#[derive(Debug)]
pub struct Job {
    /// Server-assigned id, dense from 1.
    pub id: u64,
    /// The validated flow configuration this job runs.
    pub config: FlowConfig,
    /// Cooperative cancellation token, shared with the running flow.
    /// Carries the job's deadline when one was requested: the clock
    /// starts at submit, so queue wait counts against the budget.
    pub cancel: CancelToken,
    submitted_at: Instant,
    state: Mutex<JobState>,
    cv: Condvar,
}

impl Job {
    fn new(id: u64, config: FlowConfig, deadline_ms: Option<u64>) -> Self {
        let cancel = CancelToken::new();
        if let Some(ms) = deadline_ms {
            cancel.set_deadline_in(Duration::from_millis(ms));
        }
        Self {
            id,
            config,
            cancel,
            submitted_at: Instant::now(),
            state: Mutex::new(JobState {
                phase: JobPhase::Queued,
                events: Vec::new(),
                result: None,
                error: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Current phase.
    pub fn phase(&self) -> JobPhase {
        self.state.lock().expect("job lock").phase
    }

    /// The encoded result body, if the job completed.
    pub fn result_body(&self) -> Option<String> {
        self.state.lock().expect("job lock").result.clone()
    }

    /// Appends one NDJSON event line and wakes any streaming readers.
    fn push_line(&self, line: String) {
        let mut state = self.state.lock().expect("job lock");
        state.events.push(line);
        self.cv.notify_all();
    }

    /// Blocks until the job reaches a terminal phase, up to `timeout`.
    /// Returns `None` on timeout.
    pub fn wait_terminal_for(&self, timeout: Duration) -> Option<JobPhase> {
        let state = self.state.lock().expect("job lock");
        let (state, _) = self
            .cv
            .wait_timeout_while(state, timeout, |s| !s.phase.is_terminal())
            .expect("job lock");
        Some(state.phase).filter(|phase| phase.is_terminal())
    }

    /// Returns event lines starting at index `from`, blocking until at
    /// least one new line exists or the job is terminal. The bool is
    /// `true` when the job is terminal and no further lines will come.
    pub fn events_from(&self, from: usize) -> (Vec<String>, bool) {
        let state = self.state.lock().expect("job lock");
        let state = self
            .cv
            .wait_while(state, |s| s.events.len() <= from && !s.phase.is_terminal())
            .expect("job lock");
        let lines = state.events[from.min(state.events.len())..].to_vec();
        (lines, state.phase.is_terminal())
    }

    /// The status document served by `GET /jobs/<id>`.
    pub fn status_json(&self) -> Json {
        let state = self.state.lock().expect("job lock");
        Json::Obj(vec![
            ("job_id".into(), Json::num(self.id as f64)),
            ("status".into(), Json::str(state.phase.as_str())),
            ("events".into(), Json::num(state.events.len() as f64)),
            ("result_ready".into(), Json::Bool(state.result.is_some())),
            (
                "error".into(),
                match &state.error {
                    Some(e) => Json::str(e.clone()),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity; retry later (HTTP 429).
    QueueFull {
        /// The configured bound that was hit.
        max_queue: usize,
    },
    /// The scheduler is shutting down.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { max_queue } => {
                write!(f, "queue full ({max_queue} jobs queued); retry later")
            }
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What [`Scheduler::cancel`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued: removed immediately, slot freed.
    DequeuedAndCancelled,
    /// The job was running: its token is tripped, the flow stops at the
    /// next work-item boundary.
    SignalledRunning,
    /// The job had already finished; nothing to do.
    AlreadyFinished(JobPhase),
}

/// Outcome of [`Scheduler::lookup`]: distinguishes a job that was
/// evicted from the bounded finished-job registry from an id that was
/// never issued, so the HTTP layer can report "expired" rather than a
/// bare "no such job".
#[derive(Debug, Clone)]
pub enum JobLookup {
    /// The job is still tracked (any phase).
    Found(Arc<Job>),
    /// The id was issued, but the finished job has since been evicted
    /// under [`ServeConfig::max_finished`].
    Expired,
    /// The id was never issued by this scheduler.
    Unknown,
}

struct Inner {
    queue: VecDeque<Arc<Job>>,
    jobs: HashMap<u64, Arc<Job>>,
    /// Terminal job ids in finish order — the eviction queue. Its
    /// length (and hence the number of terminal jobs held in `jobs`)
    /// never exceeds `max_finished`.
    finished: VecDeque<u64>,
    next_id: u64,
    shutdown: bool,
    /// With `shutdown`: executors run the queue dry before exiting
    /// instead of abandoning it.
    drain: bool,
}

/// The persistent estimate store plus its degradation state.
struct StoreState {
    store: Mutex<EstimateStore>,
    /// `Some(reason)` once persistence has been given up on: the store
    /// is read-only for the rest of the process (the warm-started cache
    /// keeps serving), and `/healthz` + `/metrics` report why. Sticky
    /// until restart — flapping storage should not flap the health
    /// signal.
    degraded: Mutex<Option<String>>,
    /// Individual persist attempts that failed (retries count).
    persist_failures: AtomicU64,
}

struct Shared {
    inner: Mutex<Inner>,
    queue_cv: Condvar,
    metrics: Metrics,
    cache: Arc<EstimateCache>,
    /// Persistent estimate log; `None` when running purely in memory.
    store: Option<StoreState>,
    max_queue: usize,
    max_finished: usize,
    /// Serve-layer fault-injection plan (`None` in production).
    faults: Option<Arc<FaultPlan>>,
}

impl Shared {
    /// Appends any new `Ok` cache entries to the persistent store,
    /// retrying with exponential backoff. Persistence failures never
    /// fail the job — the store is an accelerator, not a source of
    /// truth — but after the retry budget the store goes read-only
    /// degraded: no further writes are attempted, the cache keeps
    /// serving, and `/healthz` + `/metrics` carry the reason.
    fn persist_estimates(&self) {
        let Some(state) = &self.store else { return };
        if state.degraded.lock().expect("degraded lock").is_some() {
            return;
        }
        let mut store = state.store.lock().expect("store lock");
        let mut backoff = PERSIST_BACKOFF;
        let mut last_error = None;
        for attempt in 0..=PERSIST_RETRIES {
            // Retries resume from the failed record: everything already
            // appended is durable and tracked, so this never rewrites.
            match store.persist_from(&self.cache) {
                Ok(_) => return,
                Err(err) => {
                    state.persist_failures.fetch_add(1, Ordering::Relaxed);
                    last_error = Some(err);
                    if attempt < PERSIST_RETRIES {
                        thread::sleep(backoff);
                        backoff = backoff.saturating_mul(2);
                    }
                }
            }
        }
        let reason = match last_error {
            Some(err) => format!(
                "estimate store went read-only after {} failed persist attempts: {err}",
                PERSIST_RETRIES + 1
            ),
            None => "estimate store went read-only".to_string(),
        };
        *state.degraded.lock().expect("degraded lock") = Some(reason);
    }
}

/// The job scheduler: bounded admission queue + executor pool + job
/// registry. Cheap to share behind an `Arc`; all methods take `&self`.
pub struct Scheduler {
    shared: Arc<Shared>,
    executors: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts a scheduler with `config.executors` worker threads and a
    /// process-wide shared estimate cache (cached estimates are
    /// bit-identical to recomputed ones, so sharing across jobs never
    /// changes results). When `config.store` is set, the log is opened
    /// (recovering any torn tail) and every persisted estimate is
    /// preloaded into the shared cache before the first job runs.
    ///
    /// # Errors
    ///
    /// A [`LogError`] when the store path exists but is not a readable
    /// estimate-store log, on I/O failure opening it, and
    /// [`LogError::Io`] when an executor thread cannot be spawned; the
    /// executors already started are joined before the error returns.
    pub fn new(config: ServeConfig) -> Result<Self, LogError> {
        let cache = Arc::new(EstimateCache::new());
        let store = match &config.store {
            Some(path) => {
                let mut store = EstimateStore::open_with(path, config.faults.clone())?;
                store.load_into(&cache);
                Some(StoreState {
                    store: Mutex::new(store),
                    degraded: Mutex::new(None),
                    persist_failures: AtomicU64::new(0),
                })
            }
            None => None,
        };
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                finished: VecDeque::new(),
                next_id: 1,
                shutdown: false,
                drain: false,
            }),
            queue_cv: Condvar::new(),
            metrics: Metrics::default(),
            cache,
            store,
            max_queue: config.max_queue,
            max_finished: config.max_finished,
            faults: config.faults.clone(),
        });
        // Each handle joins the scheduler as soon as it exists, so a
        // failed spawn drops a scheduler whose `Drop` joins the rest.
        let mut scheduler = Self {
            shared: Arc::clone(&shared),
            executors: Mutex::new(Vec::with_capacity(config.executors)),
        };
        let executors = scheduler.executors.get_mut().expect("executor lock");
        for i in 0..config.executors {
            let shared = Arc::clone(&shared);
            let handle = thread::Builder::new()
                .name(format!("serve-exec-{i}"))
                .spawn(move || run_executor(&shared))?;
            executors.push(handle);
        }
        Ok(scheduler)
    }

    /// Server-wide counters.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The shared estimate cache all jobs run against.
    pub fn cache(&self) -> &Arc<EstimateCache> {
        &self.shared.cache
    }

    /// The configured admission bound.
    pub fn max_queue(&self) -> usize {
        self.shared.max_queue
    }

    /// Number of admitted jobs waiting for an executor.
    pub fn queue_depth(&self) -> usize {
        self.shared
            .inner
            .lock()
            .expect("scheduler lock")
            .queue
            .len()
    }

    /// Admits a job, or rejects it when the queue is at capacity. With
    /// a deadline, a job that has not finished `deadline_ms` after
    /// admission stops at the next work-item boundary as
    /// [`JobPhase::TimedOut`]; queue wait counts against the budget.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] at the bound,
    /// [`SubmitError::ShuttingDown`] after [`shutdown`](Self::shutdown).
    pub fn submit(
        &self,
        config: FlowConfig,
        deadline_ms: Option<u64>,
    ) -> Result<Arc<Job>, SubmitError> {
        let mut inner = self.shared.inner.lock().expect("scheduler lock");
        if inner.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if inner.queue.len() >= self.shared.max_queue {
            self.shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull {
                max_queue: self.shared.max_queue,
            });
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let job = Arc::new(Job::new(id, config, deadline_ms));
        inner.queue.push_back(Arc::clone(&job));
        inner.jobs.insert(id, Arc::clone(&job));
        self.shared
            .metrics
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        self.shared.queue_cv.notify_one();
        Ok(job)
    }

    /// Looks up a job by id, distinguishing evicted (expired) jobs from
    /// ids that were never issued. Ids are dense from 1, so an absent
    /// id below `next_id` must have been evicted.
    pub fn lookup(&self, id: u64) -> JobLookup {
        let inner = self.shared.inner.lock().expect("scheduler lock");
        match inner.jobs.get(&id) {
            Some(job) => JobLookup::Found(Arc::clone(job)),
            None if id >= 1 && id < inner.next_id => JobLookup::Expired,
            None => JobLookup::Unknown,
        }
    }

    /// Number of jobs currently held in the registry (queued, running,
    /// and retained finished jobs). Bounded by queue depth + executors
    /// + [`ServeConfig::max_finished`].
    pub fn tracked_jobs(&self) -> usize {
        self.shared.inner.lock().expect("scheduler lock").jobs.len()
    }

    /// The `/metrics` section describing the persistent estimate store,
    /// or `None` when the scheduler runs purely in memory.
    pub fn store_json(&self) -> Option<Json> {
        let state = self.shared.store.as_ref()?;
        let store = state.store.lock().expect("store lock");
        let stats = store.stats();
        let degraded = state.degraded.lock().expect("degraded lock");
        Some(Json::Obj(vec![
            ("path".into(), Json::str(store.path().display().to_string())),
            ("entries".into(), Json::num(store.len() as f64)),
            ("loaded".into(), Json::num(stats.loaded as f64)),
            ("persisted".into(), Json::num(stats.persisted as f64)),
            (
                "recovered_tail_bytes".into(),
                Json::num(stats.recovered_tail_bytes as f64),
            ),
            (
                "store_hits".into(),
                Json::num(self.shared.cache.store_hits() as f64),
            ),
            (
                "persist_failures".into(),
                Json::num(state.persist_failures.load(Ordering::Relaxed) as f64),
            ),
            (
                "degraded".into(),
                match degraded.as_ref() {
                    Some(reason) => Json::str(reason.clone()),
                    None => Json::Null,
                },
            ),
        ]))
    }

    /// The estimate store's sticky degraded reason, if any. `None` both
    /// for a healthy store and for a scheduler with no store at all.
    pub fn store_degraded(&self) -> Option<String> {
        let state = self.shared.store.as_ref()?;
        state.degraded.lock().expect("degraded lock").clone()
    }

    /// True once any shutdown has begun; submissions are rejected with
    /// [`SubmitError::ShuttingDown`] from that point on.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.inner.lock().expect("scheduler lock").shutdown
    }

    /// True when the scheduler is backed by a persistent estimate
    /// store (healthy or degraded).
    pub fn has_store(&self) -> bool {
        self.shared.store.is_some()
    }

    /// The fault plan injected via [`ServeConfig::faults`], if any.
    pub(crate) fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.shared.faults.as_ref()
    }

    /// Cancels a job. Queued jobs leave the queue immediately (their
    /// slot is freed for new submissions); running jobs stop
    /// cooperatively at the next work-item boundary. Returns `None` for
    /// unknown ids.
    pub fn cancel(&self, id: u64) -> Option<CancelOutcome> {
        let (job, was_queued) = {
            let mut inner = self.shared.inner.lock().expect("scheduler lock");
            let job = Arc::clone(inner.jobs.get(&id)?);
            let pos = inner.queue.iter().position(|j| j.id == id);
            if let Some(pos) = pos {
                inner.queue.remove(pos);
            }
            (job, pos.is_some())
        };
        if was_queued {
            job.cancel.cancel();
            end_job(&self.shared, &job, Ending::Cancelled);
            return Some(CancelOutcome::DequeuedAndCancelled);
        }
        let phase = job.phase();
        if phase.is_terminal() {
            return Some(CancelOutcome::AlreadyFinished(phase));
        }
        job.cancel.cancel();
        Some(CancelOutcome::SignalledRunning)
    }

    /// Stops the scheduler with [`ShutdownPolicy::Cancel`]: cancels
    /// every non-terminal job, wakes the executors, and joins them.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.shutdown_with(ShutdownPolicy::Cancel);
    }

    /// Begins shutdown under `policy` without joining: stops admission
    /// (new submissions get [`SubmitError::ShuttingDown`]), then either
    /// cancels everything ([`Cancel`](ShutdownPolicy::Cancel)) or
    /// leaves the queue for the executors to run dry
    /// ([`Drain`](ShutdownPolicy::Drain)). Idempotent — the first
    /// caller's policy wins. Safe to call from a request handler; the
    /// owning thread completes the stop with
    /// [`shutdown_with`](Self::shutdown_with).
    pub fn begin_shutdown(&self, policy: ShutdownPolicy) {
        // Drain needs executors to run the queue dry; without any, the
        // only way to terminate is to cancel.
        let policy = if self.executors.lock().expect("executor lock").is_empty() {
            ShutdownPolicy::Cancel
        } else {
            policy
        };
        let abandoned = {
            let mut inner = self.shared.inner.lock().expect("scheduler lock");
            if inner.shutdown {
                return;
            }
            inner.shutdown = true;
            match policy {
                ShutdownPolicy::Drain => {
                    inner.drain = true;
                    Vec::new()
                }
                ShutdownPolicy::Cancel => {
                    for job in inner.jobs.values() {
                        job.cancel.cancel();
                    }
                    inner.queue.drain(..).collect::<Vec<_>>()
                }
            }
        };
        for job in &abandoned {
            end_job(&self.shared, job, Ending::Cancelled);
        }
        self.shared.queue_cv.notify_all();
    }

    /// Stops the scheduler under `policy`: begins shutdown (if not
    /// already begun — the first policy wins), joins the executors, and
    /// persists + syncs the estimate store so every completed job's
    /// estimates are on stable storage before the call returns.
    /// Idempotent.
    pub fn shutdown_with(&self, policy: ShutdownPolicy) {
        self.begin_shutdown(policy);
        let handles = std::mem::take(&mut *self.executors.lock().expect("executor lock"));
        for handle in handles {
            let _ = handle.join();
        }
        // Final durability point. A degraded store skips the sync — it
        // is read-only by contract — but both paths release the
        // advisory writer lock: the executors are joined, so nothing
        // can persist again, and the owner may hold this scheduler
        // alive long after shutdown while something else (a restarted
        // server, an inspection tool) reopens the log.
        self.shared.persist_estimates();
        if let Some(state) = &self.shared.store {
            let mut store = state.store.lock().expect("store lock");
            if state.degraded.lock().expect("degraded lock").is_none() {
                let _ = store.sync();
            }
            store.unlock();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How a job ended: the input of [`end_job`].
enum Ending {
    /// The flow returned a result.
    Completed(FlowOutput),
    /// The flow returned an error other than a stop.
    Failed(String),
    /// The flow panicked; the text carries the payload.
    Panicked(String),
    /// Cancelled while queued, while running, or at shutdown.
    Cancelled,
    /// The deadline passed, in the queue or in the flow.
    TimedOut,
}

fn run_executor(shared: &Shared) {
    loop {
        let job = {
            let inner = shared.inner.lock().expect("scheduler lock");
            let mut inner = shared
                .queue_cv
                .wait_while(inner, |inner| !inner.shutdown && inner.queue.is_empty())
                .expect("scheduler lock");
            if inner.shutdown && !inner.drain {
                return;
            }
            let Some(job) = inner.queue.pop_front() else {
                return;
            };
            job
        };
        // A job whose deadline already passed while queued (or that was
        // cancelled between dequeue-check and here) ends without ever
        // running the flow.
        let ending = match job.cancel.state() {
            CancelState::TimedOut => Ending::TimedOut,
            CancelState::Cancelled => Ending::Cancelled,
            CancelState::Live => run_job(shared, &job),
        };
        end_job(shared, &job, ending);
    }
}

/// Runs a live job's flow, counted in `jobs_in_flight` while it runs.
fn run_job(shared: &Shared, job: &Job) -> Ending {
    let in_flight = &shared.metrics.jobs_in_flight;
    in_flight.fetch_add(1, Ordering::Relaxed);
    // No waiter waits for `Running`, so nothing is notified.
    job.state.lock().expect("job lock").phase = JobPhase::Running;
    // Serve-layer fault sites, keyed by the (dense, interleaving-
    // independent) job id so "which jobs fault" is a function of the
    // seed alone.
    let plan = shared.faults.as_deref();
    if let Some(FaultAction::Delay(d)) = plan.map(|p| p.decide_at("serve.job.delay", job.id)) {
        thread::sleep(d);
    }
    let flow = CoDesignFlow::new(job.config.clone()).with_estimate_cache(Arc::clone(&shared.cache));
    let observer = |event: &FlowEvent| {
        if let Some(line) = event_json(job.id, event) {
            job.push_line(line.encode());
        }
    };
    // Panic isolation: a panicking flow (injected or real) fails its
    // own job; the executor thread survives and keeps serving.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if plan.is_some_and(|p| p.decide_at("serve.job.panic", job.id) == FaultAction::Panic) {
            panic!("injected fault: serve.job.panic");
        }
        flow.run_observed(&observer, &job.cancel)
    }));
    in_flight.fetch_sub(1, Ordering::Relaxed);
    match outcome {
        Ok(Ok(out)) => Ending::Completed(out),
        Ok(Err(FlowError::Cancelled)) => Ending::Cancelled,
        Ok(Err(FlowError::DeadlineExceeded)) => Ending::TimedOut,
        Ok(Err(err)) => Ending::Failed(err.to_string()),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Ending::Panicked(format!("job panicked: {msg}"))
        }
    }
}

/// The one terminal transition. Every way a job ends comes through
/// here and is committed in the order the module docs give: metrics,
/// terminal line with phase, result and error, retention, persist.
fn end_job(shared: &Shared, job: &Job, ending: Ending) {
    let metrics = &shared.metrics;
    let (phase, result, error) = match ending {
        Ending::Completed(out) => {
            metrics.completed.fetch_add(1, Ordering::Relaxed);
            metrics.record_latency(job.submitted_at.elapsed().as_secs_f64() * 1e3);
            (JobPhase::Completed, Some(flow_result_body(&out)), None)
        }
        Ending::Failed(text) => {
            metrics.failed.fetch_add(1, Ordering::Relaxed);
            (JobPhase::Failed, None, Some(text))
        }
        Ending::Panicked(text) => {
            metrics.panicked.fetch_add(1, Ordering::Relaxed);
            metrics.failed.fetch_add(1, Ordering::Relaxed);
            (JobPhase::Failed, None, Some(text))
        }
        Ending::Cancelled => {
            metrics.cancelled.fetch_add(1, Ordering::Relaxed);
            (JobPhase::Cancelled, None, None)
        }
        Ending::TimedOut => {
            metrics.timed_out.fetch_add(1, Ordering::Relaxed);
            (JobPhase::TimedOut, None, None)
        }
    };
    let completed = phase == JobPhase::Completed;
    {
        let mut state = job.state.lock().expect("job lock");
        // A completed job's terminal line is the flow's own `finished`.
        if !completed {
            let mut fields = vec![
                ("job_id".to_string(), Json::num(job.id as f64)),
                ("event".to_string(), Json::str(phase.as_str())),
            ];
            if let Some(error) = &error {
                fields.push(("error".to_string(), Json::str(error)));
            }
            state.events.push(Json::Obj(fields).encode());
        }
        state.phase = phase;
        state.result = result;
        state.error = error;
        job.cv.notify_all();
    }
    {
        // Retention: evict the oldest finished jobs beyond the bound.
        let mut inner = shared.inner.lock().expect("scheduler lock");
        let Inner { jobs, finished, .. } = &mut *inner;
        finished.push_back(job.id);
        let excess = finished.len().saturating_sub(shared.max_finished);
        for oldest in finished.drain(..excess) {
            jobs.remove(&oldest);
        }
    }
    if completed {
        // Spill the estimates this job added, after the client can
        // already see it terminal: disk I/O must not delay a result.
        shared.persist_estimates();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_sim::device::pynq_z1;

    fn small_config() -> FlowConfig {
        FlowConfig {
            targets_fps: vec![15.0],
            candidates_per_bundle: 2,
            coarse_pf_sweep: vec![16],
            ..FlowConfig::for_device(pynq_z1())
        }
    }

    #[test]
    fn admission_control_pins_the_queue_bound() {
        let scheduler = Scheduler::new(ServeConfig {
            max_queue: 3,
            executors: 0,
            ..ServeConfig::default()
        })
        .unwrap();
        for _ in 0..3 {
            scheduler.submit(small_config(), None).unwrap();
        }
        assert_eq!(
            scheduler.submit(small_config(), None).map(|_| ()),
            Err(SubmitError::QueueFull { max_queue: 3 }),
            "submission 4 must be rejected at bound 3"
        );
        assert_eq!(scheduler.queue_depth(), 3);
        assert_eq!(scheduler.metrics().submitted.load(Ordering::Relaxed), 3);
        assert_eq!(scheduler.metrics().rejected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn cancelling_a_queued_job_frees_its_slot() {
        let scheduler = Scheduler::new(ServeConfig {
            max_queue: 1,
            executors: 0,
            ..ServeConfig::default()
        })
        .unwrap();
        let first = scheduler.submit(small_config(), None).unwrap();
        assert!(matches!(
            scheduler.submit(small_config(), None),
            Err(SubmitError::QueueFull { .. })
        ));
        assert_eq!(
            scheduler.cancel(first.id),
            Some(CancelOutcome::DequeuedAndCancelled)
        );
        assert_eq!(first.phase(), JobPhase::Cancelled);
        assert_eq!(scheduler.queue_depth(), 0);
        scheduler
            .submit(small_config(), None)
            .expect("cancelled job must free its queue slot");
        assert_eq!(scheduler.metrics().cancelled.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn executor_completes_jobs_and_matches_a_direct_run() {
        let scheduler = Scheduler::new(ServeConfig {
            max_queue: 4,
            executors: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let job = scheduler.submit(small_config(), None).unwrap();
        assert_eq!(
            job.wait_terminal_for(Duration::from_secs(120)),
            Some(JobPhase::Completed)
        );
        let direct = CoDesignFlow::new(small_config()).run().unwrap();
        assert_eq!(
            job.result_body().unwrap(),
            flow_result_body(&direct),
            "server job result must be byte-identical to a direct run"
        );
        let (lines, terminal) = job.events_from(0);
        assert!(terminal);
        assert!(lines.first().unwrap().contains("\"started\""));
        assert!(lines.last().unwrap().contains("\"finished\""));
        assert_eq!(scheduler.metrics().completed.load(Ordering::Relaxed), 1);
        assert_eq!(scheduler.metrics().latency_count(), 1);
        assert_eq!(
            scheduler.metrics().jobs_in_flight.load(Ordering::Relaxed),
            0
        );
    }

    #[test]
    fn invalid_configs_fail_the_job_not_the_executor() {
        let scheduler = Scheduler::new(ServeConfig {
            max_queue: 4,
            executors: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut config = FlowConfig::for_device(pynq_z1());
        config.targets_fps.clear();
        let job = scheduler.submit(config, None).unwrap();
        assert_eq!(
            job.wait_terminal_for(Duration::from_secs(60)),
            Some(JobPhase::Failed)
        );
        let status = job.status_json();
        assert!(status
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("targets_fps"));
        assert_eq!(scheduler.metrics().failed.load(Ordering::Relaxed), 1);
        // The executor survives a failed job and keeps serving.
        let ok = scheduler.submit(small_config(), None).unwrap();
        assert_eq!(
            ok.wait_terminal_for(Duration::from_secs(120)),
            Some(JobPhase::Completed)
        );
    }

    #[test]
    fn shutdown_cancels_queued_jobs_and_joins() {
        let scheduler = Scheduler::new(ServeConfig {
            max_queue: 4,
            executors: 0,
            ..ServeConfig::default()
        })
        .unwrap();
        let job = scheduler.submit(small_config(), None).unwrap();
        scheduler.shutdown();
        assert_eq!(job.phase(), JobPhase::Cancelled);
        assert_eq!(
            scheduler.submit(small_config(), None).map(|_| ()),
            Err(SubmitError::ShuttingDown)
        );
    }

    #[test]
    fn finished_job_retention_stays_bounded_under_load() {
        const MAX_FINISHED: usize = 8;
        const TOTAL: u64 = 2_000;
        let scheduler = Scheduler::new(ServeConfig {
            max_queue: 1,
            executors: 0,
            max_finished: MAX_FINISHED,
            ..ServeConfig::default()
        })
        .unwrap();
        // Thousands of submit+finish cycles. Before bounded retention
        // the jobs map grew by one Arc<Job> per cycle, forever.
        for n in 1..=TOTAL {
            let job = scheduler.submit(small_config(), None).unwrap();
            assert_eq!(job.id, n, "ids are dense from 1");
            assert_eq!(
                scheduler.cancel(job.id),
                Some(CancelOutcome::DequeuedAndCancelled)
            );
            assert!(
                scheduler.tracked_jobs() <= MAX_FINISHED + 1,
                "registry grew past the retention bound at job {n}: {}",
                scheduler.tracked_jobs()
            );
        }
        assert_eq!(scheduler.tracked_jobs(), MAX_FINISHED);

        // The newest MAX_FINISHED jobs are still queryable...
        for id in (TOTAL - MAX_FINISHED as u64 + 1)..=TOTAL {
            match scheduler.lookup(id) {
                JobLookup::Found(job) => assert_eq!(job.phase(), JobPhase::Cancelled),
                other => panic!("job {id} should be retained, got {other:?}"),
            }
        }
        // ...older issued ids are expired, distinct from never-issued.
        assert!(matches!(scheduler.lookup(1), JobLookup::Expired));
        assert!(matches!(
            scheduler.lookup(TOTAL - MAX_FINISHED as u64),
            JobLookup::Expired
        ));
        assert!(matches!(scheduler.lookup(0), JobLookup::Unknown));
        assert!(matches!(scheduler.lookup(TOTAL + 1), JobLookup::Unknown));
    }

    #[test]
    fn scheduler_warm_starts_from_a_store() {
        let dir = codesign_store::TempDir::new("codesign_serve_store").unwrap();
        let path = dir.join("warm.log");

        let config = ServeConfig {
            max_queue: 4,
            executors: 1,
            store: Some(path.clone()),
            ..ServeConfig::default()
        };
        // Cold run: completes a job and persists its estimates.
        let cold_body = {
            let scheduler = Scheduler::new(config.clone()).unwrap();
            let job = scheduler.submit(small_config(), None).unwrap();
            assert_eq!(
                job.wait_terminal_for(Duration::from_secs(120)),
                Some(JobPhase::Completed)
            );
            // Persistence happens after the job turns terminal (so
            // clients never wait on disk I/O) — poll for it.
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let store = scheduler.store_json().unwrap();
                if store.get("persisted").unwrap().as_uint().unwrap() > 0 {
                    assert_eq!(store.get("loaded").unwrap().as_uint(), Some(0));
                    break;
                }
                assert!(Instant::now() < deadline, "estimates never persisted");
                thread::sleep(Duration::from_millis(10));
            }
            job.result_body().unwrap()
        };

        // Warm run in a "restarted server": estimates load from disk,
        // lookups hit the store, and the result is byte-identical.
        let scheduler = Scheduler::new(config).unwrap();
        let store = scheduler.store_json().unwrap();
        assert!(store.get("loaded").unwrap().as_uint().unwrap() > 0);
        let job = scheduler.submit(small_config(), None).unwrap();
        assert_eq!(
            job.wait_terminal_for(Duration::from_secs(120)),
            Some(JobPhase::Completed)
        );
        assert_eq!(
            job.result_body().unwrap(),
            cold_body,
            "warm-started result must be byte-identical to the cold run"
        );
        let store = scheduler.store_json().unwrap();
        assert!(
            store.get("store_hits").unwrap().as_uint().unwrap() > 0,
            "warm run must hit preloaded estimates"
        );
        // Shutdown persists once more; a restarted server writes none
        // of what it loaded.
        scheduler.shutdown();
        let store = scheduler.store_json().unwrap();
        assert_eq!(store.get("persisted").unwrap().as_uint(), Some(0));
        assert_eq!(store.get("entries"), store.get("loaded"));
    }

    #[test]
    fn status_json_reflects_the_lifecycle() {
        let scheduler = Scheduler::new(ServeConfig {
            max_queue: 4,
            executors: 0,
            ..ServeConfig::default()
        })
        .unwrap();
        let job = scheduler.submit(small_config(), None).unwrap();
        let doc = job.status_json();
        assert_eq!(doc.get("job_id").unwrap().as_uint(), Some(job.id));
        assert_eq!(doc.get("status").unwrap().as_str(), Some("queued"));
        assert_eq!(doc.get("result_ready"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("error"), Some(&Json::Null));
    }

    /// The `/metrics` counters a terminal transition moves, by name.
    fn terminal_counters(m: &Metrics) -> [(&'static str, u64); 6] {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        [
            ("completed", load(&m.completed)),
            ("failed", load(&m.failed)),
            ("panicked", load(&m.panicked)),
            ("cancelled", load(&m.cancelled)),
            ("timed_out", load(&m.timed_out)),
            ("latency", m.latency_count()),
        ]
    }

    /// Waits for `job` to end and checks what its terminal transition
    /// committed: a stream that ends in its one terminal line; exactly
    /// the counters named in `moved` (the first names the phase) up by
    /// one since `before`; nothing in flight; the job retained.
    fn assert_ended(scheduler: &Scheduler, job: &Job, before: [(&str, u64); 6], moved: &str) {
        let phase = job.wait_terminal_for(Duration::from_secs(120)).unwrap();
        assert!(moved.starts_with(phase.as_str()), "{phase:?} for {moved}");
        let (lines, _) = job.events_from(0);
        let event = |line: &String| {
            let doc = crate::json::parse(line).unwrap();
            doc.get("event").and_then(Json::as_str).unwrap().to_string()
        };
        let events: Vec<String> = lines.iter().map(event).collect();
        let ends = ["finished", "failed", "cancelled", "timed_out"];
        let is_end = |e: &&String| ends.contains(&e.as_str());
        assert_eq!(events.iter().filter(is_end).count(), 1, "{events:?}");
        let last = match phase {
            JobPhase::Completed => "finished",
            _ => phase.as_str(),
        };
        assert_eq!(events.last().unwrap(), last);
        let after = terminal_counters(scheduler.metrics());
        for ((name, b), (_, a)) in before.iter().zip(after) {
            let expected = u64::from(moved.split(' ').any(|m| m == *name));
            assert_eq!(a - b, expected, "{name} for {moved}");
        }
        let in_flight = &scheduler.metrics().jobs_in_flight;
        assert_eq!(in_flight.load(Ordering::Relaxed), 0);
        // Retention follows the phase in the same transition.
        let deadline = Instant::now() + Duration::from_secs(30);
        let inner = &scheduler.shared.inner;
        while !inner.lock().unwrap().finished.contains(&job.id) {
            assert!(Instant::now() < deadline, "{phase:?}: never retained");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn every_ending_goes_through_one_terminal_transition() {
        // Job 3 on the running scheduler panics.
        let plan = FaultPlan::from_spec("seed=0;serve.job.panic=panic@3").unwrap();
        let config = |executors| ServeConfig {
            executors,
            faults: Some(Arc::clone(&plan)),
            ..ServeConfig::default()
        };
        let running = Scheduler::new(config(1)).unwrap();
        let before = terminal_counters(running.metrics());
        let job = running.submit(small_config(), None).unwrap();
        assert_ended(&running, &job, before, "completed latency");

        let mut invalid = FlowConfig::for_device(pynq_z1());
        invalid.targets_fps.clear();
        let before = terminal_counters(running.metrics());
        let job = running.submit(invalid, None).unwrap();
        assert_ended(&running, &job, before, "failed");

        let before = terminal_counters(running.metrics());
        let job = running.submit(small_config(), None).unwrap();
        assert_ended(&running, &job, before, "failed panicked");

        // A 0 ms deadline has passed before the executor dequeues the
        // job, so it times out in the queue, never running.
        let before = terminal_counters(running.metrics());
        let job = running.submit(small_config(), Some(0)).unwrap();
        assert_ended(&running, &job, before, "timed_out");
        assert_eq!(job.events_from(0).0.len(), 1);

        let idle = Scheduler::new(config(0)).unwrap();
        let before = terminal_counters(idle.metrics());
        let job = idle.submit(small_config(), None).unwrap();
        let cancelled = idle.cancel(job.id);
        assert_eq!(cancelled, Some(CancelOutcome::DequeuedAndCancelled));
        assert_ended(&idle, &job, before, "cancelled");
        assert_eq!(job.events_from(0).0.len(), 1);
    }
}
