//! Auto-DNN: the hardware-oriented DNN search engine of the DAC'19
//! FPGA/DNN co-design methodology.
//!
//! This crate is the paper's primary contribution — the bottom-up,
//! hardware-aware DNN exploration that runs hand in hand with the
//! top-down accelerator generation of [`codesign_hls`]:
//!
//! * [`accuracy`] — accuracy oracles: a calibrated analytic model (the
//!   fast path used during search, reproducing the paper's reported
//!   accuracy landscape) and a proxy-training evaluator that really
//!   trains candidate networks on the synthetic detection task.
//! * [`pareto`] — Pareto-front selection over (latency, accuracy).
//! * [`evaluate`] — Co-Design Step 2: coarse-grained Bundle evaluation
//!   (both DNN-construction methods of Sec. 5.1.1, PF sweep, grouping
//!   by resource similarity) and fine-grained evaluation of activation
//!   variants (Sec. 5.1.2).
//! * [`search`] — Co-Design Step 3: DNN initialization (Sec. 5.2.1) and
//!   the Stochastic Coordinate Descent unit (Algorithm 1) updating the
//!   replication count `N`, channel expansion `Π` and down-sampling `X`
//!   under latency and resource constraints.
//! * [`pipeline`] — the co-design recipe of Fig. 1, written once as
//!   plain functions: coarse stage, SCD cell grid, calibration on
//!   first use, one SCD search per cell, merge, and finalization
//!   (full simulation + Auto-HLS generation). Every executor calls it.
//! * [`flow`] — the in-process executor of that recipe, configured
//!   configured by a plain struct ([`flow::FlowConfig`], checked by
//!   [`flow::FlowConfig::validate`]), with events, cancellation and stage checkpoints around it.
//! * [`observe`] — progress observation ([`observe::FlowObserver`])
//!   and cooperative cancellation ([`observe::CancelToken`]) for
//!   long-running flows; the surface the serving layer builds on.
//! * [`parallel`] — the deterministic work queue (scoped threads,
//!   joined before each call returns) and SplitMix64 seed-splitting
//!   that let the flow fan out across cores while staying
//!   bit-identical to a sequential run (a re-export of the
//!   `codesign-parallel` base crate).
//!
//! # Example
//!
//! ```no_run
//! use codesign_core::flow::{CoDesignFlow, FlowConfig};
//! use codesign_sim::device::pynq_z1;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = FlowConfig {
//!     targets_fps: vec![10.0, 15.0, 20.0],
//!     ..FlowConfig::for_device(pynq_z1())
//! };
//! // `run` validates the config first: a bad field is a typed error.
//! let out = CoDesignFlow::new(config).run()?;
//! for design in &out.summary().designs {
//!     println!("{design}");
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod checkpoint;
pub mod evaluate;
pub mod flow;
pub mod observe;
pub mod parallel;
pub mod pareto;
pub mod pipeline;
pub mod search;

pub use accuracy::{AccuracyModel, ProxyEvaluator};
pub use checkpoint::FlowCheckpoint;
pub use evaluate::{coarse_evaluate_parallel, select_bundles, BundleEvaluation};
pub use flow::{CoDesignFlow, FlowConfig, FlowOutput, FlowSummary};
pub use observe::{CancelState, CancelToken, FlowEvent, FlowObserver, NullObserver};
pub use parallel::{derive_seed, parallel_map, Parallelism};
pub use pareto::pareto_front;
pub use search::{random_search, scd_search, Candidate, ScdConfig};
