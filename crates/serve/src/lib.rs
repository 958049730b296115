//! Co-design-as-a-service: a multi-tenant job server over the flow API.
//!
//! This crate turns [`codesign_core::flow::CoDesignFlow`] into a
//! long-running service. Clients POST co-design requests (device, FPS
//! targets, search knobs, seed, parallelism) as JSON; each request
//! becomes a [`job::Job`] on a bounded admission queue, executed by a
//! fixed pool of worker threads that run the flow with an observer and
//! a cancellation token. Progress events stream back as chunked NDJSON;
//! results are byte-stable JSON, byte-identical to encoding a direct
//! in-process [`run`](codesign_core::flow::CoDesignFlow::run) of the
//! same configuration.
//!
//! Everything rides on `std::net` — no async runtime, no external HTTP
//! stack — because determinism and a small test surface matter more
//! here than connection scale: a co-design job runs for seconds, so
//! thread-per-connection is the right cost model.
//!
//! # Quick start
//!
//! ```
//! use codesign_serve::client::Client;
//! use codesign_serve::job::ServeConfig;
//! use codesign_serve::server::Server;
//!
//! let mut server = Server::start(ServeConfig::default()).unwrap();
//! let client = Client::new(server.addr());
//! let job_id = client
//!     .submit_job(r#"{"targets_fps":[15.0],"candidates_per_bundle":2,"coarse_pf_sweep":[16]}"#)
//!     .unwrap();
//! let (status, result) = client.wait_result(job_id).unwrap();
//! assert_eq!(status, 200);
//! assert!(result.contains("\"pareto\""));
//! server.shutdown();
//! ```
//!
//! # Modules
//!
//! - [`json`] — ordered, byte-stable JSON codec (the workspace has no
//!   serialization dependency, so the wire format is hand-rolled).
//! - [`http`] — the `std::net` HTTP/1.1 subset the server speaks.
//! - [`request`] — wire JSON → validated [`FlowConfig`](codesign_core::flow::FlowConfig).
//! - [`encode`] — result and progress-event encodings.
//! - [`job`] — job lifecycle, bounded queue, executor pool, metrics.
//! - [`metrics`] — counters and latency percentiles for `/metrics`.
//! - [`server`] — accept loop and routing.
//! - [`client`] — blocking client for tests, benches, and demos.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod encode;
pub mod http;
pub mod job;
pub mod json;
pub mod metrics;
pub mod request;
pub mod server;

pub use client::Client;
pub use job::{
    CancelOutcome, Job, JobLookup, JobPhase, Scheduler, ServeConfig, ShutdownPolicy, SubmitError,
};
pub use request::JobRequest;
pub use server::Server;
