//! End-to-end tests against a real server on an ephemeral port.
//!
//! The load-bearing guarantee: a job's result body, downloaded over
//! HTTP while other tenants run concurrently, is byte-identical to
//! running [`CoDesignFlow::run`] directly on the same configuration
//! and encoding it with the shared encoder. Sharing the process-wide
//! estimate cache across jobs must not change a single byte.

use codesign_core::flow::{CoDesignFlow, FlowConfig};
use codesign_serve::encode::flow_result_body;
use codesign_serve::job::ServeConfig;
use codesign_serve::json::{parse, Json};
use codesign_serve::{Client, Server};
use codesign_sim::device::pynq_z1;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;

fn small_body(seed: u64) -> String {
    format!(
        r#"{{"targets_fps":[15.0],"candidates_per_bundle":2,"coarse_pf_sweep":[16],"seed":{seed}}}"#
    )
}

fn small_config(seed: u64) -> FlowConfig {
    FlowConfig {
        targets_fps: vec![15.0],
        candidates_per_bundle: 2,
        coarse_pf_sweep: vec![16],
        seed,
        ..FlowConfig::for_device(pynq_z1())
    }
}

#[test]
fn concurrent_jobs_are_byte_identical_to_direct_runs() {
    let mut server = Server::start(ServeConfig {
        max_queue: 8,
        executors: 2,
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = server.addr();

    // Three tenants with different seeds, submitted concurrently so
    // jobs interleave on the executors and share the estimate cache.
    let seeds = [7u64, 8, 9];
    let handles: Vec<_> = seeds
        .map(|seed| {
            thread::spawn(move || {
                let client = Client::new(addr);
                let job_id = client.submit_job(&small_body(seed)).expect("submit");
                let (status, body) = client.wait_result(job_id).expect("result");
                (seed, status, body)
            })
        })
        .into_iter()
        .collect();
    for handle in handles {
        let (seed, status, served) = handle.join().expect("client thread");
        assert_eq!(status, 200, "seed {seed}: {served}");
        let direct = CoDesignFlow::new(small_config(seed)).run().unwrap();
        assert_eq!(
            served,
            flow_result_body(&direct),
            "seed {seed}: served result differs from a direct run"
        );
    }
    server.shutdown();
}

#[test]
fn event_stream_is_ordered_ndjson() {
    let mut server = Server::start(ServeConfig {
        max_queue: 4,
        executors: 1,
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = Client::new(server.addr());
    let job_id = client.submit_job(&small_body(1)).expect("submit");
    let lines = client.events(job_id).expect("events");
    assert!(
        lines.len() >= 3,
        "expected a full event schedule: {lines:?}"
    );
    for line in &lines {
        let doc = parse(line).expect("every event line is valid JSON");
        assert_eq!(doc.get("job_id").unwrap().as_uint(), Some(job_id));
    }
    assert!(lines.first().unwrap().contains("\"started\""));
    assert!(lines.last().unwrap().contains("\"finished\""));
    server.shutdown();
}

#[test]
fn full_queue_rejects_with_429_and_cancel_frees_the_slot() {
    // executors: 0 pins jobs in the queue, making admission
    // deterministic.
    let mut server = Server::start(ServeConfig {
        max_queue: 1,
        executors: 0,
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = Client::new(server.addr());

    let (status, doc) = client.submit(&small_body(1)).expect("submit");
    assert_eq!(status, 202);
    let first = doc.get("job_id").unwrap().as_uint().unwrap();

    let (status, doc) = client.submit(&small_body(2)).expect("submit");
    assert_eq!(status, 429, "queue of 1 must reject the second job");
    assert_eq!(doc.get("max_queue").unwrap().as_uint(), Some(1));

    let (status, doc) = client.cancel(first).expect("cancel");
    assert_eq!(status, 200);
    assert_eq!(doc.get("cancel").unwrap().as_str(), Some("cancelled"));

    // The cancelled job's slot is free again.
    let (status, _) = client.submit(&small_body(3)).expect("submit");
    assert_eq!(status, 202, "cancelling a queued job must free its slot");

    // The cancelled job is terminal, its stream ends with `cancelled`,
    // and its result returns 409.
    let (status, body) = client.get(&format!("/jobs/{first}")).expect("status");
    assert_eq!(status, 200);
    assert!(body.contains("\"cancelled\""), "{body}");
    let lines = client.events(first).expect("events");
    assert!(lines.last().unwrap().contains("\"cancelled\""));
    let (status, _) = client
        .get(&format!("/jobs/{first}/result"))
        .expect("result");
    assert_eq!(status, 409);
    server.shutdown();
}

#[test]
fn metrics_report_counters_latency_and_cache() {
    let mut server = Server::start(ServeConfig {
        max_queue: 4,
        executors: 1,
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = Client::new(server.addr());
    let job_id = client.submit_job(&small_body(5)).expect("submit");
    let (status, _) = client.wait_result(job_id).expect("result");
    assert_eq!(status, 200);

    let doc = client.metrics().expect("metrics");
    assert_eq!(doc.get("submitted").unwrap().as_uint(), Some(1));
    assert_eq!(doc.get("completed").unwrap().as_uint(), Some(1));
    assert_eq!(doc.get("queue_depth").unwrap().as_uint(), Some(0));
    assert_eq!(doc.get("max_queue").unwrap().as_uint(), Some(4));
    let latency = doc.get("job_latency_ms").unwrap();
    assert_eq!(latency.get("count").unwrap().as_uint(), Some(1));
    assert!(latency.get("p50").unwrap().as_num().unwrap() > 0.0);
    let cache = doc.get("estimate_cache").unwrap();
    assert!(cache.get("entries").unwrap().as_uint().unwrap() > 0);
    assert!(cache.get("hit_rate").unwrap().as_num().is_some());
    server.shutdown();
}

#[test]
fn evicted_jobs_return_a_distinct_expired_404() {
    let mut server = Server::start(ServeConfig {
        max_queue: 1,
        executors: 0,
        max_finished: 2,
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = Client::new(server.addr());

    // Finish (via cancel) more jobs than the retention bound holds.
    let mut ids = Vec::new();
    for seed in 0..5u64 {
        let (status, doc) = client.submit(&small_body(seed)).expect("submit");
        assert_eq!(status, 202);
        let id = doc.get("job_id").unwrap().as_uint().unwrap();
        let (status, _) = client.cancel(id).expect("cancel");
        assert_eq!(status, 200);
        ids.push(id);
    }

    // The two newest finished jobs are still queryable.
    for id in &ids[3..] {
        let (status, body) = client.get(&format!("/jobs/{id}")).expect("status");
        assert_eq!(status, 200, "{body}");
    }
    // Older ones are gone, with an error distinct from never-issued.
    let (status, body) = client.get(&format!("/jobs/{}", ids[0])).expect("status");
    assert_eq!(status, 404);
    assert!(body.contains("expired"), "{body}");
    let (status, body) = client.get("/jobs/999").expect("status");
    assert_eq!(status, 404);
    assert!(!body.contains("expired"), "{body}");
    server.shutdown();
}

#[test]
fn client_errors_get_client_status_codes() {
    let mut server = Server::start(ServeConfig {
        max_queue: 4,
        executors: 0,
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = Client::new(server.addr());

    let (status, body) = client.post("/jobs", r#"{"tarlets_fps":[10]}"#).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("unknown field"));

    let (status, body) = client.post("/jobs", r#"{"targets_fps":[]}"#).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("targets_fps"), "{body}");

    let (status, _) = client.get("/jobs/999").unwrap();
    assert_eq!(status, 404);

    let (status, _) = client.get("/jobs/not-a-number").unwrap();
    assert_eq!(status, 400);

    let (status, _) = client.post("/metrics", "").unwrap();
    assert_eq!(status, 405);

    let (status, _) = client.get("/nope").unwrap();
    assert_eq!(status, 404);

    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(parse(&body).unwrap().get("ok"), Some(&Json::Bool(true)));
    server.shutdown();
}

/// Request headers are bounded: a 64 KiB header line with no newline
/// and 101 header lines each get 431 — the line is read through an
/// 8 KiB cap, never buffered whole — while 100 headers still make a
/// request, and the server goes on answering.
#[test]
fn oversized_request_headers_get_431() {
    let mut server = Server::start(ServeConfig {
        max_queue: 4,
        executors: 0,
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = server.addr();
    let client = Client::new(addr);
    let job_id = client.submit_job(&small_body(3)).expect("submit");
    let raw = |request: &[u8]| -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request).expect("send");
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .expect("read the response");
        response
    };
    let headers = |count: usize| -> Vec<u8> {
        let mut request = String::from("GET /healthz HTTP/1.1\r\n");
        for i in 0..count {
            request.push_str(&format!("X-Header-{i}: v\r\n"));
        }
        request.push_str("\r\n");
        request.into_bytes()
    };
    let mut long_line = b"GET /healthz HTTP/1.1\r\nX-Long: ".to_vec();
    long_line.resize(long_line.len() + 64 * 1024, b'a');
    for request in [long_line, headers(101)] {
        let response = raw(&request);
        assert!(
            response.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            "{response}"
        );
    }
    assert!(raw(&headers(100)).starts_with("HTTP/1.1 200 "));
    let (status, _) = client.get(&format!("/jobs/{job_id}")).expect("job status");
    assert_eq!(status, 200);
    server.shutdown();
}

/// A store that cannot be opened keeps its I/O error kind: a path under
/// a missing directory is `NotFound`, not "invalid data".
#[test]
fn store_under_a_missing_directory_fails_bind_with_not_found() {
    let dir = codesign_store::TempDir::new("codesign_serve_missing").unwrap();
    let err = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            store: Some(dir.join("no-such-dir").join("estimates.log")),
            ..ServeConfig::default()
        },
    )
    .err()
    .expect("a store under a missing directory cannot open");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{err}");
}
