//! The HTTP front end: accept loop, routing, and the streaming events
//! endpoint.
//!
//! # Wire protocol
//!
//! One request per connection, `Connection: close`. Endpoints:
//!
//! | Method | Path                  | Response |
//! |--------|-----------------------|----------|
//! | POST   | `/jobs`               | `202 {"job_id":N,"status":"queued"}`, `400` on bad request, `429` + `Retry-After` when the queue is full, `503` + `Retry-After` while shutting down. Body may carry `deadline_ms` alongside the flow fields. |
//! | GET    | `/jobs/<id>`          | `200` status document; `404` for unknown ids, with a distinct "expired" error for finished jobs evicted under the retention bound |
//! | GET    | `/jobs/<id>/events`   | `200` chunked NDJSON progress stream, one event per line, ends when the job finishes |
//! | POST   | `/jobs/<id>/cancel`   | `200 {"job_id":N,"cancel":"..."}` |
//! | GET    | `/jobs/<id>/result`   | `200` result body, `409` until completed |
//! | GET    | `/metrics`            | `200` counters + latency percentiles + cache stats + store health |
//! | GET    | `/healthz`            | `200` per-subsystem health: `{"ok":B,"status":"ok|degraded","subsystems":{...}}` |
//! | POST   | `/admin/shutdown`     | `200`, begins graceful shutdown (body: `{"policy":"drain"\|"cancel"}`, default drain) |
//!
//! Every error body is `{"error":"<message>"}`. Any request whose
//! request line or a header line passes 8 KiB, or that sends more than
//! 100 header lines, gets `431`.

use crate::http::{
    drain, read_request, write_json_response, write_json_response_with, ChunkedWriter,
    HeadersTooLarge, Request,
};
use crate::job::{CancelOutcome, JobLookup, Scheduler, ServeConfig, ShutdownPolicy, SubmitError};
use crate::json::Json;
use crate::request::job_request_from_body;
use codesign_faults::FaultAction;
use codesign_store::LogError;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

fn error_body(message: &str) -> String {
    Json::Obj(vec![("error".to_string(), Json::str(message))]).encode()
}

/// Suggested client back-off, in seconds, attached as `Retry-After` to
/// 429 (queue full) and 503 (shutting down) responses.
const RETRY_AFTER_SECS: u64 = 1;

/// Coordination between request handlers and the thread that owns the
/// [`Server`]: `POST /admin/shutdown` records the requested policy and
/// wakes [`Server::wait_shutdown_requested`].
struct ServerControl {
    requested: Mutex<Option<ShutdownPolicy>>,
    cv: Condvar,
}

impl ServerControl {
    fn new() -> Self {
        Self {
            requested: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// Records a shutdown request. The first policy wins; later
    /// requests are ignored (matching the scheduler's semantics).
    fn request(&self, policy: ShutdownPolicy) {
        let mut slot = self.requested.lock().unwrap();
        if slot.is_none() {
            *slot = Some(policy);
        }
        self.cv.notify_all();
    }

    fn wait(&self) -> ShutdownPolicy {
        let mut slot = self.requested.lock().unwrap();
        loop {
            if let Some(policy) = *slot {
                return policy;
            }
            slot = self.cv.wait(slot).unwrap();
        }
    }

    fn wait_timeout(&self, timeout: Duration) -> Option<ShutdownPolicy> {
        let mut slot = self.requested.lock().unwrap();
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(policy) = *slot {
                return Some(policy);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _) = self.cv.wait_timeout(slot, deadline - now).unwrap();
            slot = next;
        }
    }
}

/// A running job server bound to a local address.
///
/// Dropping (or [`shutdown`](Server::shutdown)) stops the accept loop,
/// cancels all jobs, and joins the executors.
pub struct Server {
    scheduler: Arc<Scheduler>,
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    control: Arc<ServerControl>,
}

impl Server {
    /// Binds an ephemeral port on localhost and starts serving.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn start(config: ServeConfig) -> io::Result<Self> {
        Self::bind("127.0.0.1:0", config)
    }

    /// Binds `addr` and starts serving.
    ///
    /// # Errors
    ///
    /// Propagates bind errors and a failed accept-loop spawn. A
    /// scheduler that cannot start surfaces with its cause: a
    /// filesystem or spawn failure (an estimate store that cannot be
    /// opened when [`ServeConfig::store`] is set, or an executor that
    /// cannot be spawned) as that I/O error, its kind kept; a store
    /// file that is not a valid log as `InvalidData` with its text.
    pub fn bind(addr: &str, config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let scheduler = Scheduler::new(config).map_err(|err| match err {
            LogError::Io(err) => err,
            err => io::Error::new(io::ErrorKind::InvalidData, err.to_string()),
        })?;
        let scheduler = Arc::new(scheduler);
        let stopping = Arc::new(AtomicBool::new(false));
        let control = Arc::new(ServerControl::new());
        let accept_thread = {
            let scheduler = Arc::clone(&scheduler);
            let stopping = Arc::clone(&stopping);
            let control = Arc::clone(&control);
            thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stopping.load(Ordering::Relaxed) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let scheduler = Arc::clone(&scheduler);
                        let control = Arc::clone(&control);
                        let _ = thread::Builder::new()
                            .name("serve-conn".to_string())
                            .spawn(move || handle_connection(stream, &scheduler, &control));
                    }
                })?
        };
        Ok(Self {
            scheduler,
            addr,
            stopping,
            accept_thread: Some(accept_thread),
            control,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scheduler behind this server (for in-process inspection).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// Blocks until a client requests shutdown via
    /// `POST /admin/shutdown`, returning the requested policy. The
    /// scheduler has already stopped admitting jobs by the time this
    /// returns; the caller finishes the job with
    /// [`shutdown_with`](Server::shutdown_with).
    pub fn wait_shutdown_requested(&self) -> ShutdownPolicy {
        self.control.wait()
    }

    /// [`wait_shutdown_requested`](Server::wait_shutdown_requested)
    /// with a timeout; `None` if no request arrived in time.
    pub fn wait_shutdown_requested_timeout(&self, timeout: Duration) -> Option<ShutdownPolicy> {
        self.control.wait_timeout(timeout)
    }

    /// Stops accepting connections, cancels all jobs, and joins the
    /// accept loop and executors. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown_with(ShutdownPolicy::Cancel);
    }

    /// Stops accepting connections, then shuts the scheduler down under
    /// `policy` ([`ShutdownPolicy::Drain`] finishes queued work first),
    /// persists the estimate store, and joins every thread. Idempotent;
    /// the first call's policy wins.
    pub fn shutdown_with(&mut self, policy: ShutdownPolicy) {
        if self.stopping.swap(true, Ordering::Relaxed) {
            return;
        }
        // Refuse new work before the listener closes so in-flight
        // submissions see 503 rather than a connection reset.
        self.scheduler.begin_shutdown(policy);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.scheduler.shutdown_with(policy);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(mut stream: TcpStream, scheduler: &Scheduler, control: &ServerControl) {
    // Fault site `serve.conn.drop`: sever the connection before reading
    // a byte, exactly what a flaky network or dying peer looks like.
    if let Some(plan) = scheduler.fault_plan() {
        if plan.decide("serve.conn.drop") == FaultAction::DropConnection {
            return;
        }
    }
    let request = match read_request(&mut stream) {
        Ok(Some(request)) => request,
        Ok(None) => return,
        Err(err) if HeadersTooLarge::is(&err) => {
            let _ = write_json_response(&mut stream, 431, &error_body(&err.to_string()));
            drain(&mut stream);
            return;
        }
        Err(err) => {
            let _ = write_json_response(&mut stream, 400, &error_body(&err.to_string()));
            return;
        }
    };
    let _ = route(&mut stream, &request, scheduler, control);
}

fn route(
    stream: &mut TcpStream,
    request: &Request,
    scheduler: &Scheduler,
    control: &ServerControl,
) -> io::Result<()> {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => submit_job(stream, request, scheduler),
        ("GET", ["jobs", id]) => with_job(stream, scheduler, id, |stream, _, job| {
            write_json_response(stream, 200, &job.status_json().encode())
        }),
        ("GET", ["jobs", id, "events"]) => with_job(stream, scheduler, id, |stream, _, job| {
            let mut writer = ChunkedWriter::start(stream, 200)?;
            let mut cursor = 0usize;
            loop {
                let (lines, terminal) = job.events_from(cursor);
                cursor += lines.len();
                for line in &lines {
                    writer.chunk(&format!("{line}\n"))?;
                }
                if terminal {
                    return writer.finish();
                }
            }
        }),
        ("POST", ["jobs", id, "cancel"]) => {
            with_job(stream, scheduler, id, |stream, scheduler, job| {
                let outcome = match scheduler.cancel(job.id) {
                    Some(CancelOutcome::DequeuedAndCancelled) => "cancelled",
                    Some(CancelOutcome::SignalledRunning) => "cancelling",
                    Some(CancelOutcome::AlreadyFinished(phase)) => phase.as_str(),
                    None => unreachable!("job was just looked up"),
                };
                let body = Json::Obj(vec![
                    ("job_id".to_string(), Json::num(job.id as f64)),
                    ("cancel".to_string(), Json::str(outcome)),
                ])
                .encode();
                write_json_response(stream, 200, &body)
            })
        }
        ("GET", ["jobs", id, "result"]) => with_job(stream, scheduler, id, |stream, _, job| {
            match job.result_body() {
                Some(body) => write_json_response(stream, 200, &body),
                None => {
                    let phase = job.phase();
                    write_json_response(
                        stream,
                        409,
                        &error_body(&format!("job is {}, result not available", phase.as_str())),
                    )
                }
            }
        }),
        ("GET", ["metrics"]) => {
            let body = scheduler
                .metrics()
                .to_json(
                    scheduler.queue_depth(),
                    scheduler.max_queue(),
                    scheduler.cache(),
                    scheduler.store_json(),
                )
                .encode();
            write_json_response(stream, 200, &body)
        }
        ("GET", ["healthz"]) => write_json_response(stream, 200, &healthz_body(scheduler)),
        ("POST", ["admin", "shutdown"]) => admin_shutdown(stream, request, scheduler, control),
        (_, ["jobs"])
        | (_, ["jobs", ..])
        | (_, ["metrics"])
        | (_, ["healthz"])
        | (_, ["admin", "shutdown"]) => {
            write_json_response(stream, 405, &error_body("method not allowed"))
        }
        _ => write_json_response(stream, 404, &error_body("no such endpoint")),
    }
}

/// Per-subsystem health document. The top-level `ok`/`status` roll up
/// the subsystems: a degraded store or a shutting-down scheduler makes
/// the whole server report degraded, so load balancers stop routing to
/// it while existing clients keep getting answers.
fn healthz_body(scheduler: &Scheduler) -> String {
    let shutting_down = scheduler.is_shutting_down();
    let store_degraded = scheduler.store_degraded();
    let scheduler_status = if shutting_down { "shutting_down" } else { "ok" };
    let store_status = match (scheduler.has_store(), &store_degraded) {
        (false, _) => "absent",
        (true, Some(_)) => "degraded",
        (true, None) => "ok",
    };
    let ok = !shutting_down && store_degraded.is_none();
    let mut store_fields = vec![("status".to_string(), Json::str(store_status))];
    if let Some(reason) = &store_degraded {
        store_fields.push(("reason".to_string(), Json::str(reason)));
    }
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(ok)),
        (
            "status".to_string(),
            Json::str(if ok { "ok" } else { "degraded" }),
        ),
        (
            "subsystems".to_string(),
            Json::Obj(vec![
                (
                    "scheduler".to_string(),
                    Json::Obj(vec![("status".to_string(), Json::str(scheduler_status))]),
                ),
                ("store".to_string(), Json::Obj(store_fields)),
            ]),
        ),
    ])
    .encode()
}

/// `POST /admin/shutdown`: stop admitting jobs under the requested
/// policy (body `{"policy":"drain"|"cancel"}`, default drain), answer
/// 200, and wake the thread blocked in
/// [`Server::wait_shutdown_requested`] to finish the join.
fn admin_shutdown(
    stream: &mut TcpStream,
    request: &Request,
    scheduler: &Scheduler,
    control: &ServerControl,
) -> io::Result<()> {
    let body = match request.body_text() {
        Ok(body) => body.trim(),
        Err(err) => return write_json_response(stream, 400, &error_body(&err)),
    };
    let policy = if body.is_empty() || body == "{}" {
        ShutdownPolicy::Drain
    } else {
        let doc = match crate::json::parse(body) {
            Ok(doc) => doc,
            Err(err) => {
                return write_json_response(
                    stream,
                    400,
                    &error_body(&format!("invalid JSON: {err}")),
                )
            }
        };
        match doc.get("policy").and_then(Json::as_str) {
            Some("drain") => ShutdownPolicy::Drain,
            Some("cancel") => ShutdownPolicy::Cancel,
            _ => {
                return write_json_response(
                    stream,
                    400,
                    &error_body("field `policy` must be \"drain\" or \"cancel\""),
                )
            }
        }
    };
    // Stop admissions *before* answering so a client that sees the 200
    // can rely on every later submission being refused with 503.
    scheduler.begin_shutdown(policy);
    let policy_str = match policy {
        ShutdownPolicy::Drain => "drain",
        ShutdownPolicy::Cancel => "cancel",
    };
    let body = Json::Obj(vec![
        ("shutdown".to_string(), Json::str("begun")),
        ("policy".to_string(), Json::str(policy_str)),
    ])
    .encode();
    let result = write_json_response(stream, 200, &body);
    control.request(policy);
    result
}

fn submit_job(stream: &mut TcpStream, request: &Request, scheduler: &Scheduler) -> io::Result<()> {
    let body = match request.body_text() {
        Ok(body) if !body.trim().is_empty() => body,
        Ok(_) => "{}",
        Err(err) => return write_json_response(stream, 400, &error_body(&err)),
    };
    let parsed = match job_request_from_body(body) {
        Ok(parsed) => parsed,
        Err(err) => return write_json_response(stream, 400, &error_body(&err)),
    };
    match scheduler.submit(parsed.config, parsed.deadline_ms) {
        Ok(job) => {
            let body = Json::Obj(vec![
                ("job_id".to_string(), Json::num(job.id as f64)),
                ("status".to_string(), Json::str(job.phase().as_str())),
            ])
            .encode();
            write_json_response(stream, 202, &body)
        }
        Err(err @ SubmitError::QueueFull { max_queue }) => {
            let body = Json::Obj(vec![
                ("error".to_string(), Json::str(err.to_string())),
                ("max_queue".to_string(), Json::num(max_queue as f64)),
            ])
            .encode();
            write_json_response_with(
                stream,
                429,
                &[("retry-after", RETRY_AFTER_SECS.to_string())],
                &body,
            )
        }
        Err(err @ SubmitError::ShuttingDown) => write_json_response_with(
            stream,
            503,
            &[("retry-after", RETRY_AFTER_SECS.to_string())],
            &error_body(&err.to_string()),
        ),
    }
}

fn with_job(
    stream: &mut TcpStream,
    scheduler: &Scheduler,
    id: &str,
    then: impl FnOnce(&mut TcpStream, &Scheduler, &crate::job::Job) -> io::Result<()>,
) -> io::Result<()> {
    let Ok(id) = id.parse::<u64>() else {
        return write_json_response(stream, 400, &error_body("job id must be an integer"));
    };
    match scheduler.lookup(id) {
        JobLookup::Found(job) => then(stream, scheduler, &job),
        JobLookup::Expired => write_json_response(
            stream,
            404,
            &error_body(&format!(
                "job {id} expired: finished jobs are retained up to the \
                 configured bound, and this one has been evicted"
            )),
        ),
        JobLookup::Unknown => {
            write_json_response(stream, 404, &error_body(&format!("no job {id}")))
        }
    }
}
