//! `serve_tenants`: two closed-loop clients against an in-process job
//! server with a persistent estimate store.

use crate::flow::design_iou;
use crate::metrics::Report;
use crate::reference::{time_setup, CpuMeter};
use crate::stats::{mean, median, ms, percentile, process_cpu, timed, Agreement};
use crate::Run;
use codesign_core::parallel::derive_seed;
use codesign_core::CoDesignFlow;
use codesign_hls::cache::EstimateCache;
use codesign_hls::store::EstimateStore;
use codesign_serve::encode::flow_result_body;
use codesign_serve::json::Json;
use codesign_serve::request::flow_config_from_body;
use codesign_serve::{Client, ServeConfig, Server};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Closed-loop clients, one job outstanding each.
const CLIENTS: usize = 2;

/// Executor threads of the server.
const EXECUTORS: usize = 2;

/// Flow seeds in the request mix; set-up warms the cache with one job
/// per distinct request, two per seed.
const SERVE_SEEDS: usize = 8;

/// Every this many jobs of a client, one is the small request.
const SMALL_EVERY: usize = 4;

/// Load runs in rounds of this length; the reference kernel runs
/// between rounds, while the server is idle.
const ROUND: Duration = Duration::from_secs(1);

/// The distinct requests: for each flow seed, a small flow and the
/// paper-default flow (at indices `2 * seed` and `2 * seed + 1`), both
/// on one thread per job.
fn request_bodies(seeds: &[u64]) -> Vec<String> {
    let small = r#""targets_fps":[15],"candidates_per_bundle":2,"coarse_pf_sweep":[16]"#;
    seeds
        .iter()
        .flat_map(|seed| {
            [
                format!(r#"{{{small},"parallelism":1,"seed":{seed}}}"#),
                format!(r#"{{"parallelism":1,"seed":{seed}}}"#),
            ]
        })
        .collect()
}

/// Client-side timings of one served job, in milliseconds from submit.
struct JobTimes {
    submit: f64,
    first_event: f64,
    total: f64,
    result_fetch: f64,
    result_bytes: usize,
}

/// Streams `GET /jobs/<id>/events` to its end. Returns when the first
/// event line arrived and the last line of the stream.
fn stream_events(addr: SocketAddr, job_id: u64) -> io::Result<(Instant, String)> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "GET /jobs/{job_id}/events HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n"
    )?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if line.split_whitespace().nth(1) != Some("200") {
        return Err(io::Error::other(format!("events stream answered {line:?}")));
    }
    while {
        line.clear();
        reader.read_line(&mut line)? > 2
    } {}
    // Chunked body: the server writes one NDJSON line per chunk.
    let mut first = None;
    let mut last = Vec::new();
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let size = usize::from_str_radix(line.trim(), 16)
            .map_err(|_| io::Error::other(format!("bad chunk size {line:?}")))?;
        if size == 0 {
            break;
        }
        let mut chunk = vec![0; size + 2];
        reader.read_exact(&mut chunk)?;
        first.get_or_insert_with(Instant::now);
        chunk.truncate(size);
        last = chunk;
    }
    let first = first.ok_or_else(|| io::Error::other("empty events stream"))?;
    Ok((first, String::from_utf8_lossy(&last).into_owned()))
}

/// One served job: its timings and result body, or why it failed.
type Served = Result<(JobTimes, String), String>;

/// Submit → events → result for one request.
fn serve_one(addr: SocketAddr, body: &str) -> Served {
    let client = Client::new(addr);
    let start = Instant::now();
    let job_id = client.submit_job(body)?;
    let submit = ms(start.elapsed());
    let (first_event, last) = stream_events(addr, job_id).map_err(|e| e.to_string())?;
    if !last.contains(r#""event":"finished""#) {
        return Err(format!("job {job_id} ended with {last}"));
    }
    let fetch_start = Instant::now();
    let (status, result) = client
        .get(&format!("/jobs/{job_id}/result"))
        .map_err(|e| e.to_string())?;
    let end = Instant::now();
    if status != 200 {
        return Err(format!("result of job {job_id} answered {status}"));
    }
    let times = JobTimes {
        submit,
        first_event: ms(first_event - start),
        total: ms(end - start),
        result_fetch: ms(end - fetch_start),
        result_bytes: result.len(),
    };
    Ok((times, result))
}

/// A server with a fresh store log, its cache warmed by one job per
/// distinct request. Returns the first body served for each request.
fn start_warm(store: PathBuf, bodies: &[String]) -> Result<(Server, Vec<String>), String> {
    let server = Server::start(ServeConfig {
        executors: EXECUTORS,
        store: Some(store),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let results = bodies
        .iter()
        .map(|body| serve_one(server.addr(), body).map(|(_, result)| result))
        .collect::<Result<_, _>>()?;
    Ok((server, results))
}

/// The distinct request job `i` of `client` sends. The share of small
/// jobs is fixed, so that the latency median sits inside the
/// paper-default jobs' mode rather than between the two modes; the
/// workload seed draws each job's flow seed.
fn request(seed: u64, client: usize, i: usize, seeds: usize) -> usize {
    let flow_seed = derive_seed(seed, ((client as u64) << 32) | i as u64) % seeds as u64;
    let paper = !(i + client).is_multiple_of(SMALL_EVERY);
    2 * flow_seed as usize + usize::from(paper)
}

/// One round of closed-loop load: each client sends its next requests
/// until `end`. Returns each job's request index and outcome.
fn load_round(
    addr: SocketAddr,
    bodies: &[String],
    seed: u64,
    sent: &mut [usize],
    end: Instant,
) -> Vec<(usize, Served)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = sent
            .iter_mut()
            .enumerate()
            .map(|(client, sent)| {
                scope.spawn(move || {
                    let mut jobs = Vec::new();
                    while Instant::now() < end {
                        let i = request(seed, client, *sent, bodies.len() / 2);
                        *sent += 1;
                        jobs.push((i, serve_one(addr, &bodies[i])));
                    }
                    jobs
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// `store.open_ms` (open and load the log serve wrote) and
/// `store.persist_noop_ms` (persist a cache of that size with nothing
/// new to write).
fn probe_store(report: &mut Report, path: &Path) -> Result<(), String> {
    let mut open_ms = Vec::new();
    let mut noop_ms = Vec::new();
    for _ in 0..5 {
        let cache = EstimateCache::new();
        let (store, wall) = timed(|| {
            EstimateStore::open(path).map(|mut store| {
                store.load_into(&cache);
                store
            })
        });
        let mut store = store.map_err(|e| format!("store reopen: {e}"))?;
        open_ms.push(wall);
        let (written, wall) = timed(|| store.persist_from(&cache));
        if written.map_err(|e| e.to_string())? != 0 {
            return Err("a loaded store had new entries to persist".into());
        }
        noop_ms.push(wall);
    }
    report.set("store.open_ms", median(&open_ms));
    report.set("store.persist_noop_ms", median(&noop_ms));
    Ok(())
}

fn num(doc: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |d, key| d.get(key))
        .and_then(Json::as_num)
        .unwrap_or(0.0)
}

/// `serve_tenants`.
pub fn tenants(run: &Run<'_>) -> Result<Report, String> {
    let bodies = request_bodies(&run.flow_seeds(SERVE_SEEDS));
    let store_path = run.scratch.join("store.log");
    let mut report = Report::default();
    let ((mut server, first_results), setup) =
        time_setup(|| start_warm(store_path.clone(), &bodies))?;
    report.setup = Some(setup);
    if run.setup_only {
        return Ok(report);
    }
    let addr = server.addr();

    let mut meter = CpuMeter::default();
    let mut sent = [0; CLIENTS];
    let mut served = Vec::new();
    let mut wall = Duration::ZERO;
    while wall < run.seconds {
        let cpu_start = process_cpu()?;
        let round_start = Instant::now();
        let end = round_start + ROUND.min(run.seconds - wall);
        let round = load_round(addr, &bodies, run.seed, &mut sent, end);
        wall += round_start.elapsed();
        meter.account(round.len(), process_cpu()? - cpu_start)?;
        served.extend(round);
    }
    let metrics = Client::new(addr).metrics().map_err(|e| e.to_string());
    server.shutdown();
    let metrics = metrics?;

    let mut agreement = Agreement::new();
    for (i, result) in first_results.into_iter().enumerate() {
        agreement.observe(i, result);
    }
    let mut jobs = Vec::new();
    for (i, outcome) in served {
        report.attempted += 1;
        match outcome {
            Ok((times, result)) => {
                agreement.observe(i, result);
                jobs.push(times);
            }
            Err(_) => report.failed += 1,
        }
    }
    let pick = |f: fn(&JobTimes) -> f64| -> Vec<f64> { jobs.iter().map(f).collect() };
    let total_ms = pick(|t| t.total);
    report.record_ops("serve.job_p50_ms", &total_ms, &meter);

    // Served bodies must equal the encoding of a direct run.
    let mut ious = Vec::new();
    report.failed += agreement.verify(|&i| {
        let config = flow_config_from_body(&bodies[i])?;
        let out = CoDesignFlow::new(config).run().map_err(|e| e.to_string())?;
        ious.push(design_iou(&out));
        Ok::<_, String>(flow_result_body(&out))
    });
    report.set("quality_iou", mean(&ious));

    if run.trace {
        report.set("serve.jobs_per_s", jobs.len() as f64 / wall.as_secs_f64());
        report.set("serve.job_p90_ms", percentile(&total_ms, 90.0));
        report.set("serve.submit_ms", median(&pick(|t| t.submit)));
        report.set("serve.first_event_ms", median(&pick(|t| t.first_event)));
        report.set("serve.result_fetch_ms", median(&pick(|t| t.result_fetch)));
        report.set(
            "serve.result_bytes",
            median(&pick(|t| t.result_bytes as f64)),
        );
        let server_p50 = num(&metrics, &["job_latency_ms", "p50"]);
        report.set("serve.server_job_p50_ms", server_p50);
        report.set("serve.overhead_ms", median(&total_ms) - server_p50);
        report.set("serve.rejected", num(&metrics, &["rejected"]));
        let hits = num(&metrics, &["estimate_cache", "hits"]);
        let misses = num(&metrics, &["estimate_cache", "misses"]);
        report.set("hls.cache_lookups", hits + misses);
        report.set("hls.cache_misses", misses);
        report.set(
            "hls.cache_hit_rate",
            num(&metrics, &["estimate_cache", "hit_rate"]),
        );
        report.set(
            "store.entries",
            num(&metrics, &["estimate_store", "entries"]),
        );
        report.set(
            "store.persisted",
            num(&metrics, &["estimate_store", "persisted"]),
        );
        probe_store(&mut report, &store_path)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_is_seeded_with_a_fixed_share_of_small_jobs() {
        let order = |client| {
            (0..64)
                .map(|i| request(7, client, i, 8))
                .collect::<Vec<_>>()
        };
        let (a, b, other_client) = (order(0), order(0), order(1));
        assert_eq!(a, b);
        assert_ne!(a, other_client);
        assert!(a.iter().all(|&i| i < 16));
        assert_eq!(a.iter().filter(|&&i| i % 2 == 0).count(), 64 / SMALL_EVERY);
        for body in request_bodies(&[1, 2]) {
            flow_config_from_body(&body).expect("valid request body");
        }
    }
}
