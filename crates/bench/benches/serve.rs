//! Job-server load bench: 1 / 4 / 16 concurrent clients submitting
//! small co-design flows over HTTP and waiting for their results.
//!
//! Each client submits a batch of jobs back-to-back; a request's
//! latency is submit → result downloaded, so it includes queueing,
//! flow execution, and the event stream. Because every job shares the
//! process-wide estimate cache, later jobs run mostly cache-hot — the
//! multi-tenant scenario the server exists for. Each concurrency level
//! is one arm measured with `codesign_bench::perf::measure`, one load
//! wave per sample; the warm-up wave of the first arm warms the cache.
//! Emits `BENCH_serve.json`: req/s over the median wave, plus p50/p99
//! latency of the last wave.

use codesign_bench::perf::{emit_bench_json, measure, BenchRecord};
use codesign_serve::job::ServeConfig;
use codesign_serve::metrics::percentile;
use codesign_serve::{Client, Server};
use std::net::SocketAddr;
use std::thread;
use std::time::Instant;

/// Concurrent client counts, per the acceptance checklist.
const CONCURRENCY: [usize; 3] = [1, 4, 16];

/// Jobs each client submits back-to-back.
const JOBS_PER_CLIENT: usize = 3;

/// A deliberately small flow so the bench measures the serving stack,
/// not minutes of search: one target, a narrow sweep, one worker per
/// job (concurrency comes from the job mix, not intra-job fan-out).
const REQUEST_BODY: &str =
    r#"{"targets_fps":[15.0],"candidates_per_bundle":2,"coarse_pf_sweep":[16],"parallelism":1}"#;

/// Runs one load wave and returns its per-request latencies in
/// milliseconds.
fn drive(addr: SocketAddr, concurrency: usize) -> Vec<f64> {
    let handles: Vec<_> = (0..concurrency)
        .map(|_| {
            thread::spawn(move || {
                let client = Client::new(addr);
                let mut latencies = Vec::with_capacity(JOBS_PER_CLIENT);
                for _ in 0..JOBS_PER_CLIENT {
                    let t0 = Instant::now();
                    let job_id = client.submit_job(REQUEST_BODY).expect("submit");
                    let (status, body) = client.wait_result(job_id).expect("result");
                    assert_eq!(status, 200, "result fetch failed: {body}");
                    assert!(body.contains("\"pareto\""), "result body has no pareto set");
                    latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                latencies
            })
        })
        .collect();
    let mut all = Vec::new();
    for handle in handles {
        all.extend(handle.join().expect("client thread"));
    }
    all
}

fn main() {
    let mut server = Server::start(ServeConfig {
        max_queue: 64,
        executors: 8,
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = server.addr();

    let mut records = Vec::new();
    for concurrency in CONCURRENCY {
        let wave = measure(5, || (), |()| drive(addr, concurrency));
        let jobs = (concurrency * JOBS_PER_CLIENT) as f64;
        let req_per_s = jobs / wave.timing.median.as_secs_f64().max(1e-9);
        records.push(
            BenchRecord::timing(&format!("serve_c{concurrency}"), wave.timing)
                .with_metric("jobs", jobs)
                .with_metric("req_per_s", req_per_s)
                .with_metric("p50_ms", percentile(&wave.output, 50.0).unwrap())
                .with_metric("p99_ms", percentile(&wave.output, 99.0).unwrap()),
        );
    }

    let metrics = Client::new(addr).metrics().expect("metrics");
    println!(
        "serve: server-side counters after load: {}",
        metrics.encode()
    );
    server.shutdown();
    emit_bench_json("serve", &records).expect("write BENCH_serve.json");
}
