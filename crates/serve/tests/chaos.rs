//! Seeded chaos soak against a live server.
//!
//! A [`FaultPlan`] drives every failure in these tests, so each run is
//! reproducible from one seed: injected panics, disk write failures,
//! artificial latency, dropped connections, and expiring deadlines.
//! The invariants under chaos:
//!
//! 1. every submitted job reaches a terminal phase;
//! 2. `/metrics` and `/healthz` answer for the entire soak;
//! 3. the tracked-job set stays within the retention bound;
//! 4. every job the faults did *not* kill returns a result
//!    byte-identical to a no-faults direct run of the same seed.

use codesign_core::flow::{CoDesignFlow, FlowConfig};
use codesign_faults::{FaultAction, FaultPlan};
use codesign_hls::store::EstimateStore;
use codesign_serve::encode::flow_result_body;
use codesign_serve::job::ServeConfig;
use codesign_serve::json::{parse, Json};
use codesign_serve::{Client, Server, ShutdownPolicy};
use codesign_sim::device::pynq_z1;
use codesign_store::TempDir;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn body_for_seed(seed: u64) -> String {
    format!(
        r#"{{"targets_fps":[15.0],"candidates_per_bundle":2,"coarse_pf_sweep":[16],"seed":{seed}}}"#
    )
}

fn config_for_seed(seed: u64) -> FlowConfig {
    FlowConfig {
        targets_fps: vec![15.0],
        candidates_per_bundle: 2,
        coarse_pf_sweep: vec![16],
        seed,
        ..FlowConfig::for_device(pynq_z1())
    }
}

/// The no-faults ground truth: a direct in-process run, encoded by the
/// same encoder the server uses.
fn reference_body(seed: u64) -> String {
    flow_result_body(&CoDesignFlow::new(config_for_seed(seed)).run().unwrap())
}

/// A request over a different parallel-factor sweep, guaranteeing
/// design points (and so estimate-store keys) disjoint from
/// [`body_for_seed`] — used to force fresh persists against a
/// warm-started cache.
fn wide_body(seed: u64) -> String {
    format!(
        r#"{{"targets_fps":[15.0],"candidates_per_bundle":2,"coarse_pf_sweep":[32],"seed":{seed}}}"#
    )
}

fn wide_reference_body(seed: u64) -> String {
    let config = FlowConfig {
        coarse_pf_sweep: vec![32],
        ..config_for_seed(seed)
    };
    flow_result_body(&CoDesignFlow::new(config).run().unwrap())
}

/// Injected connection drops sever requests before the server reads a
/// byte, so a well-behaved client retries. These helpers are that
/// client.
fn submit_retry(client: &Client, body: &str) -> (u16, Json) {
    for _ in 0..100 {
        if let Ok(response) = client.submit(body) {
            return response;
        }
    }
    panic!("submit kept failing after 100 attempts");
}

fn post_retry(client: &Client, path: &str, body: &str) -> (u16, String) {
    for _ in 0..100 {
        if let Ok(response) = client.post(path, body) {
            return response;
        }
    }
    panic!("POST {path} kept failing after 100 attempts");
}

fn get_retry(client: &Client, path: &str) -> (u16, String) {
    let mut last = None;
    for _ in 0..100 {
        match client.get(path) {
            Ok(response) => return response,
            Err(err) => last = Some(err),
        }
    }
    panic!("GET {path} kept failing after 100 attempts: {last:?}");
}

fn events_retry(client: &Client, job_id: u64) -> Vec<String> {
    for _ in 0..100 {
        if let Ok(lines) = client.events(job_id) {
            return lines;
        }
    }
    panic!("events stream for job {job_id} kept failing after 100 attempts");
}

const TERMINAL: &[&str] = &["completed", "failed", "cancelled", "timed_out"];

#[test]
fn chaos_soak_reaches_terminal_states_and_preserves_faultfree_results() {
    const CLIENTS: usize = 3;
    const JOBS_PER_CLIENT: usize = 6;
    // Large enough that no job this soak inspects is evicted (eviction
    // semantics have their own tests); the boundedness assertion below
    // still pins the retention invariant.
    const MAX_FINISHED: usize = 32;
    let seeds = [11u64, 12];
    let dir = TempDir::new("codesign_serve_chaos").unwrap();
    let store_path = dir.join("soak.log");
    let plan = FaultPlan::from_spec(
        "seed=49374;serve.job.panic=panic%0.2;serve.job.delay=delay(5)%0.3;\
         serve.conn.drop=drop%0.15;store.append=io%0.05",
    )
    .unwrap();

    let mut server = Server::start(ServeConfig {
        max_queue: 32,
        executors: 2,
        max_finished: MAX_FINISHED,
        store: Some(store_path.clone()),
        faults: Some(Arc::clone(&plan)),
    })
    .expect("start server");
    let addr = server.addr();

    // `/metrics` must answer for the entire soak, faults and all.
    let stop_polling = Arc::new(AtomicBool::new(false));
    let metrics_thread = {
        let stop = Arc::clone(&stop_polling);
        thread::spawn(move || {
            let client = Client::new(addr);
            let mut polls = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let (status, body) = get_retry(&client, "/metrics");
                assert_eq!(status, 200, "metrics must answer under chaos: {body}");
                parse(&body).expect("metrics body stays valid JSON under chaos");
                polls += 1;
                thread::sleep(Duration::from_millis(2));
            }
            polls
        })
    };

    let client_threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            thread::spawn(move || {
                let client = Client::new(addr);
                let mut submitted = Vec::new();
                for j in 0..JOBS_PER_CLIENT {
                    let seed = seeds[(c + j) % seeds.len()];
                    let (status, doc) = submit_retry(&client, &body_for_seed(seed));
                    assert_eq!(status, 202, "admission failed: {}", doc.encode());
                    submitted.push((doc.get("job_id").unwrap().as_uint().unwrap(), seed));
                }
                let mut outcomes = Vec::new();
                for (id, seed) in submitted {
                    // Blocks until the job is terminal.
                    let lines = events_retry(&client, id);
                    let (status, body) = get_retry(&client, &format!("/jobs/{id}"));
                    assert_eq!(status, 200, "{body}");
                    let doc = parse(&body).unwrap();
                    let phase = doc.get("status").unwrap().as_str().unwrap().to_string();
                    let result = get_retry(&client, &format!("/jobs/{id}/result"));
                    outcomes.push((id, seed, phase, lines, result));
                }
                outcomes
            })
        })
        .collect();

    let references: Vec<(u64, String)> = seeds.iter().map(|&s| (s, reference_body(s))).collect();
    let client = Client::new(addr);
    let mut completed = 0usize;
    let mut panicked = 0usize;
    for handle in client_threads {
        for (id, seed, phase, lines, result) in handle.join().expect("client thread") {
            assert!(
                TERMINAL.contains(&phase.as_str()),
                "job {id} is not terminal: {phase}"
            );
            // Fault attribution is a pure function of the seed and the
            // dense job id, so the soak can predict exactly which jobs
            // the plan killed — regardless of thread interleaving.
            if plan.decide_at("serve.job.panic", id) == FaultAction::Panic {
                panicked += 1;
                assert_eq!(phase, "failed", "job {id} should have panicked");
                let last = lines.last().expect("terminal event line");
                assert!(last.contains("\"failed\""), "{last}");
                assert!(last.contains("job panicked"), "{last}");
                assert_eq!(result.0, 409, "a panicked job has no result");
            } else {
                completed += 1;
                assert_eq!(phase, "completed", "fault-free job {id} must complete");
                let (status, served) = result;
                assert_eq!(status, 200, "{served}");
                let expected = &references.iter().find(|(s, _)| *s == seed).unwrap().1;
                assert_eq!(
                    &served, expected,
                    "job {id} (seed {seed}): chaos changed a fault-free result"
                );
            }
        }
    }
    assert_eq!(completed + panicked, CLIENTS * JOBS_PER_CLIENT);
    assert!(completed > 0, "soak seed produced no fault-free jobs");
    assert!(
        panicked > 0,
        "soak seed injected no panics — pick a new seed"
    );

    stop_polling.store(true, Ordering::Relaxed);
    let polls = metrics_thread.join().expect("metrics thread");
    assert!(polls > 0, "metrics poller never ran");

    // The counters agree with the predicted fault schedule, and
    // retention kept the tracked-job set bounded. The plan still drops
    // connections here, so this read retries like every other one.
    let (status, body) = get_retry(&client, "/metrics");
    assert_eq!(status, 200, "metrics: {body}");
    let doc = parse(&body).expect("metrics body is JSON");
    assert_eq!(
        doc.get("submitted").unwrap().as_uint(),
        Some((CLIENTS * JOBS_PER_CLIENT) as u64)
    );
    assert_eq!(
        doc.get("completed").unwrap().as_uint(),
        Some(completed as u64)
    );
    assert_eq!(
        doc.get("panicked").unwrap().as_uint(),
        Some(panicked as u64)
    );
    assert_eq!(doc.get("failed").unwrap().as_uint(), Some(panicked as u64));
    assert!(server.scheduler().tracked_jobs() <= MAX_FINISHED);

    // Graceful shutdown over the wire: drain (nothing is queued), then
    // every later submission is refused with 503 + Retry-After.
    let (status, body) = post_retry(&client, "/admin/shutdown", r#"{"policy":"drain"}"#);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"drain\""), "{body}");
    let (status, doc) = submit_retry(&client, &body_for_seed(11));
    assert_eq!(status, 503, "submissions after shutdown must 503");
    assert!(doc.encode().contains("shutting down"), "{}", doc.encode());
    let (status, body) = get_retry(&client, "/healthz");
    assert_eq!(status, 200);
    let health = parse(&body).unwrap();
    assert_eq!(health.get("ok"), Some(&Json::Bool(false)));
    assert!(body.contains("shutting_down"), "{body}");

    let policy = server
        .wait_shutdown_requested_timeout(Duration::from_secs(10))
        .expect("admin shutdown must wake the owner");
    assert_eq!(policy, ShutdownPolicy::Drain);
    server.shutdown_with(policy);
}

#[test]
fn deadlines_expire_in_queue_and_report_timed_out() {
    // One executor; the plan pins job 1 on an injected delay, so job
    // 2's 1 ms deadline expires while it waits in the queue.
    let plan = FaultPlan::from_spec("seed=7;serve.job.delay=delay(120)@1").unwrap();
    let mut server = Server::start(ServeConfig {
        max_queue: 4,
        executors: 1,
        faults: Some(plan),
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = Client::new(server.addr());

    let first = client.submit_job(&body_for_seed(1)).expect("submit");
    let deadlined = r#"{"targets_fps":[15.0],"candidates_per_bundle":2,"coarse_pf_sweep":[16],"seed":2,"deadline_ms":1}"#;
    let second = client.submit_job(deadlined).expect("submit");

    let lines = client.events(second).expect("events");
    assert!(
        lines.last().unwrap().contains("\"timed_out\""),
        "stream must end with the timeout terminal: {lines:?}"
    );
    let (status, body) = client.get(&format!("/jobs/{second}")).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"timed_out\""), "{body}");
    let (status, _) = client.get(&format!("/jobs/{second}/result")).unwrap();
    assert_eq!(status, 409, "a timed-out job has no result");

    // The slow-but-deadline-free job is untouched.
    let (status, served) = client.wait_result(first).unwrap();
    assert_eq!(status, 200);
    assert_eq!(served, reference_body(1));

    let doc = client.metrics().unwrap();
    assert_eq!(doc.get("timed_out").unwrap().as_uint(), Some(1));
    assert_eq!(doc.get("completed").unwrap().as_uint(), Some(1));
    server.shutdown();
}

#[test]
fn injected_panic_fails_one_job_and_the_executor_survives() {
    let plan = FaultPlan::from_spec("seed=3;serve.job.panic=panic@1").unwrap();
    let mut server = Server::start(ServeConfig {
        max_queue: 4,
        executors: 1,
        faults: Some(plan),
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = Client::new(server.addr());

    let doomed = client.submit_job(&body_for_seed(5)).expect("submit");
    let healthy = client.submit_job(&body_for_seed(6)).expect("submit");

    let lines = client.events(doomed).expect("events");
    let last = lines.last().expect("terminal line");
    assert!(last.contains("\"failed\""), "{last}");
    assert!(last.contains("job panicked"), "{last}");
    let (status, body) = client.get(&format!("/jobs/{doomed}")).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("serve.job.panic"), "{body}");

    // Same executor thread, next job: byte-perfect service continues.
    let (status, served) = client.wait_result(healthy).unwrap();
    assert_eq!(status, 200);
    assert_eq!(served, reference_body(6));

    let doc = client.metrics().unwrap();
    assert_eq!(doc.get("panicked").unwrap().as_uint(), Some(1));
    assert_eq!(doc.get("failed").unwrap().as_uint(), Some(1));
    assert_eq!(doc.get("completed").unwrap().as_uint(), Some(1));
    server.shutdown();
}

#[test]
fn store_write_failures_degrade_to_read_only_while_serving_continues() {
    let dir = TempDir::new("codesign_serve_chaos").unwrap();
    let path = dir.join("degraded.log");
    let plan = FaultPlan::from_spec("seed=9;store.append=io%1").unwrap();
    let mut server = Server::start(ServeConfig {
        max_queue: 8,
        executors: 1,
        store: Some(path.clone()),
        faults: Some(plan),
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = Client::new(server.addr());

    // The job itself succeeds — persistence failures must never leak
    // into results.
    let first = client.submit_job(&body_for_seed(21)).expect("submit");
    let (status, served) = client.wait_result(first).unwrap();
    assert_eq!(status, 200);
    assert_eq!(served, reference_body(21));

    // Persistence runs after the client sees the job terminal; poll
    // until the exhausted retries flip the store read-only.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = client.get("/healthz").unwrap();
        assert_eq!(status, 200, "healthz must answer while degrading");
        let doc = parse(&body).unwrap();
        let store = doc.get("subsystems").unwrap().get("store").unwrap();
        if store.get("status").and_then(Json::as_str) == Some("degraded") {
            assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
            assert_eq!(doc.get("status").unwrap().as_str(), Some("degraded"));
            let reason = store.get("reason").unwrap().as_str().unwrap();
            assert!(reason.contains("read-only"), "{reason}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "store never reported degraded: {body}"
        );
        thread::sleep(Duration::from_millis(5));
    }

    // `/metrics` carries the same story.
    let doc = client.metrics().unwrap();
    let store = doc.get("estimate_store").unwrap();
    assert!(store.get("persist_failures").unwrap().as_uint().unwrap() >= 1);
    assert!(store
        .get("degraded")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("read-only"));

    // Degraded means read-only, not down: the next job still completes
    // byte-identically off the in-memory cache.
    let second = client.submit_job(&body_for_seed(22)).expect("submit");
    let (status, served) = client.wait_result(second).unwrap();
    assert_eq!(status, 200);
    assert_eq!(served, reference_body(22));
    server.shutdown();

    // And the on-disk log is still a readable (empty) store.
    let store = EstimateStore::open(&path).expect("store stays readable");
    assert!(store.is_empty());
}

#[test]
fn torn_tail_plus_write_failures_leave_store_readable_and_server_serving() {
    let dir = TempDir::new("codesign_serve_chaos").unwrap();
    let path = dir.join("torn.log");

    // Healthy first life: persist real estimates and shut down cleanly.
    {
        let mut server = Server::start(ServeConfig {
            max_queue: 4,
            executors: 1,
            store: Some(path.clone()),
            ..ServeConfig::default()
        })
        .expect("start server");
        let client = Client::new(server.addr());
        let id = client.submit_job(&body_for_seed(31)).expect("submit");
        let (status, _) = client.wait_result(id).unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }
    let persisted = EstimateStore::open(&path).expect("clean store").len();
    assert!(persisted > 0, "first life persisted nothing");

    // Crash: a torn half-record at the tail.
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    file.write_all(&[0x17, 0x00, 0x00, 0x00, 0xde, 0xad])
        .unwrap();
    drop(file);

    // Second life under a hostile disk: every append fails.
    let plan = FaultPlan::from_spec("seed=13;store.append=io%1").unwrap();
    let mut server = Server::start(ServeConfig {
        max_queue: 4,
        executors: 1,
        store: Some(path.clone()),
        faults: Some(plan),
        ..ServeConfig::default()
    })
    .expect("warm start over a torn tail");
    let client = Client::new(server.addr());

    // The torn tail was recovered, not fatal.
    let doc = client.metrics().unwrap();
    let store = doc.get("estimate_store").unwrap();
    assert_eq!(
        store.get("entries").unwrap().as_uint(),
        Some(persisted as u64)
    );
    assert!(
        store
            .get("recovered_tail_bytes")
            .unwrap()
            .as_uint()
            .unwrap()
            > 0
    );

    // A disjoint pf sweep forces new estimates → failed persists →
    // degraded — but the job itself completes byte-identically.
    let id = client.submit_job(&wide_body(32)).expect("submit");
    let (status, served) = client.wait_result(id).unwrap();
    assert_eq!(status, 200);
    assert_eq!(served, wide_reference_body(32));
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.scheduler().store_degraded().is_none() {
        assert!(Instant::now() < deadline, "store never degraded");
        thread::sleep(Duration::from_millis(5));
    }
    // Still serving after degradation.
    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("degraded"), "{body}");
    server.shutdown();

    // Third life: the log still opens and still holds every record the
    // healthy life wrote.
    let store = EstimateStore::open(&path).expect("store survives the chaos");
    assert_eq!(store.len(), persisted);
}
