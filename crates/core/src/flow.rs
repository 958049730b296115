//! The overall co-design flow (paper Fig. 1).
//!
//! Wires the four key components together: Bundle / DNN analytic
//! modeling (Co-Design Step 1, via Auto-HLS calibration), Bundle
//! evaluation and selection (Step 2), and hardware-aware DNN search and
//! update (Step 3, SCD + Auto-HLS). Inputs are the target device,
//! resource constraints and performance targets; outputs are DNN models
//! *and* their FPGA accelerators (synthesizable C plus a synthesis-style
//! report).
//!
//! The recipe itself is written once, in [`crate::pipeline`]; this
//! module is its in-process executor, adding worker threads, progress
//! events, cancellation and a run directory of finished cells around it.
//!
//! A configuration is a plain [`FlowConfig`] struct, built by struct
//! update over [`FlowConfig::for_device`] (the paper's setup) and
//! checked by [`FlowConfig::validate`] (typed errors) before any run;
//! runs are observed and cancelled through
//! [`CoDesignFlow::run_observed`], and results are presented through
//! [`FlowOutput`]'s accessors and [`FlowOutput::summary`] — the same
//! presentation path the serving layer JSON-encodes.

use crate::accuracy::{AccuracyModel, ProxyEvaluator};
use crate::checkpoint::{CheckpointError, FlowCheckpoint, SweepSpec};
use crate::evaluate::BundleEvaluation;
use crate::observe::{CancelState, CancelToken, FlowEvent, FlowObserver, NullObserver};
use crate::parallel::{try_parallel_map, Parallelism};
use crate::pipeline;
use crate::search::Candidate;
use codesign_dnn::bundle::{enumerate_bundles, BundleId};
use codesign_dnn::quant::Activation;
use codesign_dnn::space::{
    is_legal_parallel_factor, DesignPoint, MAX_PARALLEL_FACTOR, PARALLEL_FACTOR_STEP,
};
use codesign_dnn::Dnn;
use codesign_hls::cache::EstimateCache;
use codesign_sim::device::FpgaDevice;
use codesign_sim::error::SimError;
use codesign_sim::report::{CacheStats, SimReport};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Configuration of a full co-design run.
///
/// Start from [`FlowConfig::for_device`] (the paper's experimental
/// setup) and override fields by struct update or assignment;
/// [`FlowConfig::validate`] checks the result, and every run calls it
/// first.
///
/// ```
/// use codesign_core::flow::FlowConfig;
/// use codesign_sim::device::pynq_z1;
///
/// let config = FlowConfig {
///     targets_fps: vec![15.0],
///     candidates_per_bundle: 2,
///     ..FlowConfig::for_device(pynq_z1())
/// };
/// config.validate().expect("paper defaults validate");
/// assert_eq!(config.clock_mhz, 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// Target FPGA device (resource constraints).
    pub device: FpgaDevice,
    /// Performance targets in frames per second at `clock_mhz` (the
    /// paper sets 10 / 15 / 20 FPS at 100 MHz).
    pub targets_fps: Vec<f64>,
    /// Accelerator clock for the targets.
    pub clock_mhz: f64,
    /// Half-width `Δ` of the `[target − Δ, target + Δ]` FPS acceptance
    /// window (Fig. 6).
    pub fps_tolerance: f64,
    /// Candidate DNNs `K` collected per Bundle per target.
    pub candidates_per_bundle: usize,
    /// Parallel-factor sweep of the coarse evaluation.
    pub coarse_pf_sweep: Vec<usize>,
    /// Replications of the method#2 evaluation DNNs.
    pub eval_replications: usize,
    /// Seed of the stochastic search.
    pub seed: u64,
    /// Worker-thread knob: Bundle evaluations and SCD searches (each
    /// Bundle calibrated by its first) fan out across up to this many
    /// threads (the caller and scoped helpers, joined before each stage
    /// ends), each work item with a private SplitMix64-derived seed.
    /// `Fixed(1)` is the sequential legacy path; results are
    /// bit-identical for any setting.
    pub parallelism: Parallelism,
}

impl FlowConfig {
    /// The paper's experimental setup on a given device: 10 / 15 / 20
    /// FPS targets at 100 MHz, Δ = 1.5 FPS, K = 5, coarse sweep
    /// PF ∈ {4, 8, 16}.
    pub fn for_device(device: FpgaDevice) -> Self {
        Self {
            device,
            targets_fps: vec![10.0, 15.0, 20.0],
            clock_mhz: 100.0,
            fps_tolerance: 1.5,
            candidates_per_bundle: 5,
            coarse_pf_sweep: vec![4, 8, 16],
            eval_replications: 3,
            seed: 2019,
            parallelism: Parallelism::Auto,
        }
    }

    /// Checks the configuration for values that would otherwise surface
    /// as downstream panics or degenerate searches.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidConfig`] naming the first offending
    /// field (see [`ConfigError`]).
    pub fn validate(&self) -> Result<(), FlowError> {
        if self.targets_fps.is_empty() {
            return Err(ConfigError::EmptyTargets.into());
        }
        for &fps in &self.targets_fps {
            if !fps.is_finite() || fps <= 0.0 {
                return Err(ConfigError::NonPositiveTarget { fps }.into());
            }
        }
        if !self.clock_mhz.is_finite() || self.clock_mhz <= 0.0 {
            return Err(ConfigError::NonPositiveClock {
                clock_mhz: self.clock_mhz,
            }
            .into());
        }
        if !self.fps_tolerance.is_finite() || self.fps_tolerance <= 0.0 {
            return Err(ConfigError::NonPositiveTolerance {
                fps_tolerance: self.fps_tolerance,
            }
            .into());
        }
        if self.candidates_per_bundle == 0 {
            return Err(ConfigError::ZeroCandidates.into());
        }
        if self.coarse_pf_sweep.is_empty() {
            return Err(ConfigError::EmptyPfSweep.into());
        }
        if self.coarse_pf_sweep.contains(&0) {
            return Err(ConfigError::ZeroPf.into());
        }
        if let Some(&pf) = self
            .coarse_pf_sweep
            .iter()
            .find(|&&pf| !is_legal_parallel_factor(pf))
        {
            return Err(ConfigError::PfOffLadder { pf }.into());
        }
        if self.eval_replications == 0 {
            return Err(ConfigError::ZeroReplications.into());
        }
        if let Err(e) = self.device.validate() {
            return Err(ConfigError::InvalidDevice {
                reason: e.to_string(),
            }
            .into());
        }
        Ok(())
    }
}

/// A finished design: the DNN model plus its FPGA implementation.
#[derive(Debug, Clone)]
pub struct DesignOutcome {
    /// FPS target this design was searched for.
    pub target_fps: f64,
    /// The winning design point.
    pub point: DesignPoint,
    /// The elaborated DNN.
    pub dnn: Dnn,
    /// Estimated accuracy (IoU).
    pub accuracy: f64,
    /// Simulated single-frame latency in milliseconds at the flow clock.
    pub latency_ms: f64,
    /// Simulated throughput at the flow clock.
    pub fps: f64,
    /// Full synthesis-style report from the Tile-Arch simulator.
    pub report: SimReport,
    /// Auto-HLS generated synthesizable C code.
    pub code: String,
    /// Measured quantized IoU of the winning design, when the flow was
    /// built with [`CoDesignFlow::with_measured_quantization`]: the
    /// design is proxy-trained and scored through the quantized
    /// inference engine under the scheme its activation implies (the
    /// real int8 integer path for `Relu4` / `Relu8`). `None` when
    /// measurement is disabled or the proxy evaluation failed.
    pub measured_iou: Option<f64>,
}

impl DesignOutcome {
    /// One presentation row for this design (the shape printed by the
    /// CLI examples and JSON-encoded by the serving layer).
    pub fn summary(&self) -> DesignSummary {
        DesignSummary {
            target_fps: self.target_fps,
            bundle: self.point.bundle.id().0,
            replications: self.point.n_replications,
            max_channels: self.point.realized_max_channels(),
            activation: self.point.activation,
            accuracy: self.accuracy,
            latency_ms: self.latency_ms,
            fps: self.fps,
        }
    }
}

/// Presentation row of one finished design.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSummary {
    /// FPS target the design was searched for.
    pub target_fps: f64,
    /// Bundle id the design replicates.
    pub bundle: usize,
    /// Replication count `N`.
    pub replications: usize,
    /// Widest realized channel count.
    pub max_channels: usize,
    /// Activation variant (fixes the quantization scheme).
    pub activation: Activation,
    /// Estimated accuracy (IoU).
    pub accuracy: f64,
    /// Simulated single-frame latency in milliseconds.
    pub latency_ms: f64,
    /// Simulated throughput in frames per second.
    pub fps: f64,
}

impl fmt::Display for DesignSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "target {:.0} FPS -> bundle {} x{}, max {} ch, {}: IoU {:.3}, {:.1} ms ({:.1} FPS)",
            self.target_fps,
            self.bundle,
            self.replications,
            self.max_channels,
            self.activation,
            self.accuracy,
            self.latency_ms,
            self.fps
        )
    }
}

/// One-glance summary of a whole co-design run: what
/// [`FlowOutput::summary`] returns, the CLI examples print, and the
/// serving layer JSON-encodes.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSummary {
    /// Bundle ids surviving the coarse Pareto selection.
    pub selected_bundles: Vec<usize>,
    /// Candidates that met some FPS target band.
    pub candidates: usize,
    /// Presentation rows of the published designs, one per satisfiable
    /// target.
    pub designs: Vec<DesignSummary>,
    /// Hit rate of the shared analytic-estimate cache over this run's
    /// lookups (cumulative when the cache is shared across runs).
    pub cache_hit_rate: f64,
}

impl fmt::Display for FlowSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "selected bundles {:?}; {} candidates met a target band; \
             estimate-cache hit rate {:.1}%",
            self.selected_bundles,
            self.candidates,
            self.cache_hit_rate * 100.0
        )?;
        for d in &self.designs {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Output of a full co-design run.
#[derive(Debug, Clone)]
pub struct FlowOutput {
    /// Coarse-evaluation records (Fig. 4 data).
    pub coarse: Vec<BundleEvaluation>,
    /// Bundles selected for exploration (the paper's {1, 3, 13, 15, 17}).
    pub selected_bundles: Vec<BundleId>,
    /// Every candidate that met some target (Fig. 6 bubbles), tagged
    /// with its target FPS.
    pub candidates: Vec<(f64, Candidate)>,
    /// Best design per FPS target (the paper's DNN1-3).
    pub designs: Vec<DesignOutcome>,
    /// Hit/miss counters of the shared analytic-estimate cache: how
    /// much of the search's modeling work was memoized.
    ///
    /// The bit-identical-output guarantee covers the search results
    /// (coarse records, selection, candidates, designs) and — for a
    /// run-private cache — the *total* lookup count here; the hit/miss
    /// split may shift by a few counts between runs when workers race
    /// to compute the same key, and a cache installed with
    /// [`CoDesignFlow::with_estimate_cache`] reports cumulative
    /// process-wide counters.
    pub cache_stats: CacheStats,
}

impl FlowOutput {
    /// Bundle ids surviving the coarse Pareto selection, as plain
    /// numbers (the paper's {1, 3, 13, 15, 17}).
    pub fn selected_bundle_ids(&self) -> Vec<usize> {
        self.selected_bundles.iter().map(|b| b.0).collect()
    }

    /// Number of candidates that met some target band.
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// Candidates collected for one FPS target, in deterministic search
    /// order.
    pub fn candidates_for(&self, target_fps: f64) -> impl Iterator<Item = &Candidate> + '_ {
        self.candidates
            .iter()
            .filter(move |(t, _)| *t == target_fps)
            .map(|(_, c)| c)
    }

    /// The highest-accuracy candidate for one FPS target (the one
    /// [`FlowOutput::designs`] publishes).
    pub fn best_candidate_for(&self, target_fps: f64) -> Option<&Candidate> {
        self.candidates_for(target_fps)
            .max_by(|a, b| a.accuracy.total_cmp(&b.accuracy))
    }

    /// The published design for one FPS target, when the target was
    /// satisfiable.
    pub fn design_for(&self, target_fps: f64) -> Option<&DesignOutcome> {
        self.designs.iter().find(|d| d.target_fps == target_fps)
    }

    /// The one-glance presentation summary: selection, candidate count,
    /// design rows, cache hit rate. CLI examples print its `Display`;
    /// the serving layer JSON-encodes its fields — one presentation
    /// path for both.
    pub fn summary(&self) -> FlowSummary {
        FlowSummary {
            selected_bundles: self.selected_bundle_ids(),
            candidates: self.candidate_count(),
            designs: self.designs.iter().map(DesignOutcome::summary).collect(),
            cache_hit_rate: self.cache_stats.hit_rate(),
        }
    }
}

/// A structurally invalid [`FlowConfig`], caught by
/// [`FlowConfig::validate`] before any search work starts.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `targets_fps` is empty — nothing to search for.
    EmptyTargets,
    /// An FPS target is non-positive or non-finite.
    NonPositiveTarget {
        /// The offending target.
        fps: f64,
    },
    /// `clock_mhz` is non-positive or non-finite.
    NonPositiveClock {
        /// The offending clock.
        clock_mhz: f64,
    },
    /// `fps_tolerance` is non-positive or non-finite (an empty
    /// acceptance window can never admit a candidate).
    NonPositiveTolerance {
        /// The offending tolerance.
        fps_tolerance: f64,
    },
    /// `candidates_per_bundle` is zero — every SCD cell would return
    /// nothing.
    ZeroCandidates,
    /// `coarse_pf_sweep` is empty — coarse evaluation would be skipped
    /// and no Bundle selected.
    EmptyPfSweep,
    /// `coarse_pf_sweep` contains a zero parallel factor.
    ZeroPf,
    /// `coarse_pf_sweep` contains a parallel factor off the legal
    /// ladder (a multiple of `PARALLEL_FACTOR_STEP` up to
    /// `MAX_PARALLEL_FACTOR`), which no accelerator is built with.
    PfOffLadder {
        /// The first offending parallel factor.
        pf: usize,
    },
    /// `eval_replications` is zero — method#2 evaluation DNNs cannot be
    /// built.
    ZeroReplications,
    /// The device description fails its own validation.
    InvalidDevice {
        /// The device's validation error.
        reason: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyTargets => write!(f, "targets_fps is empty"),
            ConfigError::NonPositiveTarget { fps } => {
                write!(f, "fps target {fps} is not positive and finite")
            }
            ConfigError::NonPositiveClock { clock_mhz } => {
                write!(f, "clock_mhz {clock_mhz} is not positive and finite")
            }
            ConfigError::NonPositiveTolerance { fps_tolerance } => {
                write!(
                    f,
                    "fps_tolerance {fps_tolerance} is not positive and finite"
                )
            }
            ConfigError::ZeroCandidates => write!(f, "candidates_per_bundle is zero"),
            ConfigError::EmptyPfSweep => write!(f, "coarse_pf_sweep is empty"),
            ConfigError::ZeroPf => write!(f, "coarse_pf_sweep contains a zero parallel factor"),
            ConfigError::PfOffLadder { pf } => write!(
                f,
                "coarse_pf_sweep value {pf} is off the parallel-factor ladder \
                 (multiples of {PARALLEL_FACTOR_STEP} up to {MAX_PARALLEL_FACTOR})"
            ),
            ConfigError::ZeroReplications => write!(f, "eval_replications is zero"),
            ConfigError::InvalidDevice { reason } => write!(f, "invalid device: {reason}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Errors of the co-design flow.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// A hardware-side step failed.
    Sim(SimError),
    /// The configuration failed [`FlowConfig::validate`].
    InvalidConfig(ConfigError),
    /// The run's [`CancelToken`] fired; the flow stopped at a work-item
    /// boundary.
    Cancelled,
    /// The run's [`CancelToken`] deadline passed; the flow stopped at a
    /// work-item boundary.
    DeadlineExceeded,
    /// The run's [`FlowCheckpoint`] directory could not be read or
    /// written, or its spec plans another selection.
    Checkpoint {
        /// Description of the underlying failure.
        reason: String,
    },
    /// The SCD stage ended without a result for the cell of this grid
    /// index: the run directory changed under the run, or an executor
    /// is at fault.
    MissingCell(usize),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Sim(e) => write!(f, "hardware step failed: {e}"),
            FlowError::InvalidConfig(e) => write!(f, "invalid flow config: {e}"),
            FlowError::Cancelled => write!(f, "flow cancelled"),
            FlowError::DeadlineExceeded => write!(f, "flow deadline exceeded"),
            FlowError::Checkpoint { reason } => write!(f, "checkpoint failed: {reason}"),
            FlowError::MissingCell(index) => write!(f, "SCD cell {index} has no result"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<SimError> for FlowError {
    fn from(e: SimError) -> Self {
        FlowError::Sim(e)
    }
}

impl From<ConfigError> for FlowError {
    fn from(e: ConfigError) -> Self {
        FlowError::InvalidConfig(e)
    }
}

impl From<CheckpointError> for FlowError {
    fn from(e: CheckpointError) -> Self {
        FlowError::Checkpoint {
            reason: e.to_string(),
        }
    }
}

/// The automatic co-design flow driver.
///
/// # Example
///
/// ```no_run
/// use codesign_core::flow::{CoDesignFlow, FlowConfig};
/// use codesign_sim::device::pynq_z1;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = FlowConfig::for_device(pynq_z1());
/// let out = CoDesignFlow::new(config).run()?;
/// println!("{}", out.summary());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CoDesignFlow {
    config: FlowConfig,
    cache: Option<Arc<EstimateCache>>,
    measured_quant: Option<ProxyEvaluator>,
}

impl CoDesignFlow {
    /// Creates a flow with the paper-calibrated accuracy model.
    pub fn new(config: FlowConfig) -> Self {
        Self {
            config,
            cache: None,
            measured_quant: None,
        }
    }

    /// Scores every finalized design with *measured* quantized accuracy
    /// on top of the analytic estimate: the winning point is
    /// proxy-trained with `eval` and its held-out IoU is measured
    /// through the quantized inference engine under the scheme the
    /// design's activation implies (`Relu4` / `Relu8` run the real int8
    /// integer path end-to-end). The result lands in
    /// [`DesignOutcome::measured_iou`]; search order and all other
    /// outputs are unchanged.
    pub fn with_measured_quantization(mut self, eval: ProxyEvaluator) -> Self {
        self.measured_quant = Some(eval);
        self
    }

    /// Installs a shared analytic-estimate cache instead of the
    /// run-private one.
    ///
    /// A long-running server passes one process-wide sharded
    /// [`EstimateCache`] here so concurrent flows on the same device
    /// reuse each other's modeling work. Sharing never changes results
    /// — cached estimates are bit-identical to recomputed ones — but
    /// [`FlowOutput::cache_stats`] then reports cumulative process-wide
    /// counters.
    pub fn with_estimate_cache(mut self, cache: Arc<EstimateCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// Runs the three co-design steps end to end (blocking, silent).
    ///
    /// This is a thin wrapper over [`run_observed`](Self::run_observed)
    /// with a no-op observer and a token nobody cancels — the legacy
    /// surface every pre-serving caller uses.
    ///
    /// With `parallelism > 1` the two parallel stages — coarse Bundle
    /// evaluation and the per-(Bundle, FPS-target, quantization-arm)
    /// SCD searches — fan out over the calling thread and scoped helper
    /// threads, which each stage joins before it returns. A Bundle is
    /// calibrated inside the SCD stage, by the first of its cells to
    /// run, and every later cell of it waits for and reuses that
    /// estimator. Every work item draws a private seed
    /// derived from [`FlowConfig::seed`] via SplitMix64 and results are
    /// merged in work-item order, so the output is **bit-identical** to
    /// a sequential run and independent of thread interleaving. One
    /// sharded [`EstimateCache`] is shared by all SCD searches — each
    /// search probes it through an incremental
    /// [`EstimatePlan`](codesign_hls::incremental::EstimatePlan), so
    /// parallel work items neither recompute nor contend on a single
    /// lock; its counters are reported in
    /// [`FlowOutput::cache_stats`].
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidConfig`] for a configuration that
    /// fails [`FlowConfig::validate`] and propagates simulator
    /// failures.
    pub fn run(&self) -> Result<FlowOutput, FlowError> {
        self.run_observed(&NullObserver, &CancelToken::new())
    }

    /// Runs the flow, streaming progress events into `observer` and
    /// checking `cancel` at every work-item boundary.
    ///
    /// Events are emitted from worker threads as items complete (see
    /// [`FlowEvent`] for the schedule); observing never changes
    /// results. Cancellation is cooperative: after `cancel` fires, no
    /// new work item starts, in-flight items finish, and the run
    /// returns [`FlowError::Cancelled`] (after emitting
    /// [`FlowEvent::Cancelled`]).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidConfig`] for an invalid
    /// configuration, [`FlowError::Cancelled`] when the token fired,
    /// and propagates simulator failures.
    pub fn run_observed(
        &self,
        observer: &dyn FlowObserver,
        cancel: &CancelToken,
    ) -> Result<FlowOutput, FlowError> {
        self.run_inner(observer, cancel, None)
    }

    /// Runs the flow against a run directory: after the coarse stage,
    /// the directory's spec pins the Bundle selection (or is written with
    /// one shard), every cell its segments hold is taken from disk, and
    /// only the missing cells are searched — each appended to segment 0
    /// as it finishes. Bundles calibrate on first use, so only the
    /// Bundles with missing cells are. The directory's files are
    /// deleted when the run finishes successfully.
    ///
    /// Resuming never changes results — the flow is deterministic, so a
    /// stored cell holds exactly what an uninterrupted run would have
    /// computed and the final output is bit-identical (see the
    /// `checkpoint` module docs). Open the directory with the same
    /// config via [`FlowCheckpoint::open`], which rejects mismatches.
    ///
    /// # Errors
    ///
    /// Everything [`run_observed`](Self::run_observed) returns, plus
    /// [`FlowError::Checkpoint`] when the spec plans another selection,
    /// or a segment cannot be read, written or synced.
    pub fn run_checkpointed(
        &self,
        checkpoint: &FlowCheckpoint,
        observer: &dyn FlowObserver,
        cancel: &CancelToken,
    ) -> Result<FlowOutput, FlowError> {
        self.run_inner(observer, cancel, Some(checkpoint))
    }

    /// [`run_with`](Self::run_with) on this process's threads, plus the
    /// terminal bookkeeping of the in-process entry points: the closing
    /// `Cancelled` / `TimedOut` event, and deleting the checkpoint of a
    /// successful run.
    fn run_inner(
        &self,
        observer: &dyn FlowObserver,
        cancel: &CancelToken,
        ckpt: Option<&FlowCheckpoint>,
    ) -> Result<FlowOutput, FlowError> {
        let result = self.run_with(ckpt, None, observer, cancel, |stage| {
            self.search_cells(stage, ckpt, observer, cancel)
        });
        match &result {
            Err(FlowError::Cancelled) => observer.on_event(&FlowEvent::Cancelled),
            Err(FlowError::DeadlineExceeded) => observer.on_event(&FlowEvent::TimedOut),
            // A leftover checkpoint means "interrupted run"; failing to
            // delete it only costs a redundant replay next time, so it
            // must not fail an otherwise-successful run.
            Ok(_) => {
                if let Some(c) = ckpt {
                    let _ = c.finish();
                }
            }
            Err(_) => {}
        }
        result
    }

    /// The [`pipeline`] recipe around its SCD stage, written once for
    /// every executor: validate the config, run the coarse stage, pin
    /// the plan in `ckpt` and read the cells it holds, let `search`
    /// compute the missing cells, then merge, finalize each target's
    /// winner and assemble the output. Progress events go to `observer`,
    /// and `cancel` is checked before the coarse stage and each design.
    ///
    /// `shards` is the shard count a run directory's plan asks for,
    /// clamped to the grid; `None` keeps a stored plan's count, or plans
    /// one shard. The in-process entry points search on this process's
    /// threads; the `codesign-shard` supervisor supplies its worker
    /// processes. Nothing here deletes the run directory.
    ///
    /// # Errors
    ///
    /// `search`'s own error unchanged; everything
    /// [`run_checkpointed`](Self::run_checkpointed) returns, converted
    /// into `E`; and [`FlowError::MissingCell`] when `search` left a
    /// cell without a result.
    pub fn run_with<E: From<FlowError> + From<CheckpointError>>(
        &self,
        ckpt: Option<&FlowCheckpoint>,
        shards: Option<usize>,
        observer: &dyn FlowObserver,
        cancel: &CancelToken,
        search: impl FnOnce(ScdStage<'_>) -> Result<(), E>,
    ) -> Result<FlowOutput, E> {
        self.config.validate()?;
        let cfg = &self.config;
        let cache = self
            .cache
            .clone()
            .unwrap_or_else(|| Arc::new(EstimateCache::new()));

        observer.on_event(&FlowEvent::Started {
            targets: cfg.targets_fps.len(),
            bundles: enumerate_bundles().len(),
        });

        live(cancel)?;
        let model = AccuracyModel::paper_calibrated();
        let (coarse, selected) = pipeline::coarse_stage(cfg, &model).map_err(FlowError::from)?;
        let cells = pipeline::cells(&cfg.targets_fps, &selected);
        // A run directory pins the plan, and hands back every cell
        // already on disk.
        let shards = shards.map(|n| n.clamp(1, cells.len().max(1)));
        let spec = ckpt.map(|c| c.plan(&selected, shards)).transpose()?;
        let mut found = ckpt.map_or(Ok(BTreeMap::new()), FlowCheckpoint::cells)?;
        observer.on_event(&FlowEvent::BundlesSelected {
            selected: selected.iter().map(|b| b.0).collect(),
        });
        search(ScdStage {
            cells: &cells,
            spec: spec.as_ref(),
            found: &mut found,
            cache: &cache,
        })?;

        let (candidates, best_per_target) = pipeline::merge(cfg, &cells, &found)?;
        let mut designs: Vec<DesignOutcome> = Vec::new();
        for (fps, best) in &best_per_target {
            live(cancel)?;
            let design = pipeline::finalize(cfg, *fps, best, self.measured_quant.as_ref())
                .map_err(FlowError::from)?;
            observer.on_event(&FlowEvent::DesignFinalized {
                target_fps: *fps,
                accuracy: design.accuracy,
                latency_ms: design.latency_ms,
                done: designs.len() + 1,
                total: best_per_target.len(),
            });
            designs.push(design);
        }

        observer.on_event(&FlowEvent::Finished {
            candidates: candidates.len(),
            designs: designs.len(),
        });
        Ok(FlowOutput {
            coarse,
            selected_bundles: selected,
            candidates,
            designs,
            cache_stats: cache.stats(),
        })
    }

    /// The in-process SCD stage: the missing cells on the calling thread
    /// and scoped helpers, with cancellation checked before each cell.
    /// Each Bundle is calibrated by the first of its cells to run, so
    /// only Bundles with missing cells are, and each cell is appended to
    /// `ckpt`'s segment 0 before its event.
    fn search_cells(
        &self,
        stage: ScdStage<'_>,
        ckpt: Option<&FlowCheckpoint>,
        observer: &dyn FlowObserver,
        cancel: &CancelToken,
    ) -> Result<(), FlowError> {
        let cfg = &self.config;
        let missing: Vec<&pipeline::Cell> = stage
            .cells
            .iter()
            .filter(|cell| !stage.found.contains_key(&cell.index))
            .collect();
        let model = AccuracyModel::paper_calibrated();
        let estimators = pipeline::Estimators::new(&cfg.device, Arc::clone(stage.cache));
        let to_calibrate: BTreeSet<BundleId> = missing.iter().map(|cell| cell.bundle).collect();
        let calibrated = AtomicUsize::new(0);
        // Each searched cell is recorded before its event, so
        // `done == total` means the whole grid is on disk.
        let searched = AtomicUsize::new(stage.cells.len() - missing.len());
        let computed = try_parallel_map(&missing, cfg.parallelism.threads(), |_, cell| {
            live(cancel)?;
            let estimator = estimators.get(cell.bundle, || {
                observer.on_event(&FlowEvent::BundleCalibrated {
                    bundle: cell.bundle.0,
                    done: calibrated.fetch_add(1, Ordering::Relaxed) + 1,
                    total: to_calibrate.len(),
                });
            })?;
            let cands = pipeline::run_cell(cfg, cell, estimator, &model);
            if let Some(c) = ckpt {
                c.record_cell(cell.index, &cands)?;
            }
            observer.on_event(&FlowEvent::ScdSearchFinished {
                target_fps: cell.fps,
                bundle: cell.bundle.0,
                activation: cell.activation,
                found: cands.len(),
                done: searched.fetch_add(1, Ordering::Relaxed) + 1,
                total: stage.cells.len(),
            });
            Ok::<_, FlowError>((cell.index, cands))
        });
        // One sync for the whole stage, whether it finished or not; the
        // stage's own error, if any, is the one reported.
        let synced = match ckpt {
            Some(c) if !missing.is_empty() => c.sync().map_err(CheckpointError::Io),
            _ => Ok(()),
        };
        stage.found.extend(computed?);
        synced?;
        Ok(())
    }
}

/// What the flow's SCD stage hands the executor that computes it.
pub struct ScdStage<'a> {
    /// The whole SCD grid, in cell-index order.
    pub cells: &'a [pipeline::Cell],
    /// The run directory's plan, for a run with one.
    pub spec: Option<&'a SweepSpec>,
    /// Every finished cell by grid index: on entry the cells the run
    /// directory holds; the executor adds the rest.
    pub found: &'a mut BTreeMap<usize, Vec<Candidate>>,
    /// The run's estimate cache, the one [`FlowOutput::cache_stats`]
    /// reports. Cells searched in other processes use caches of their
    /// own.
    pub cache: &'a Arc<EstimateCache>,
}

/// `Ok` while `cancel` has not fired.
fn live(cancel: &CancelToken) -> Result<(), FlowError> {
    match cancel.state() {
        CancelState::Cancelled => Err(FlowError::Cancelled),
        CancelState::TimedOut => Err(FlowError::DeadlineExceeded),
        CancelState::Live => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_sim::device::pynq_z1;
    use std::sync::Mutex;

    fn small_flow() -> CoDesignFlow {
        CoDesignFlow::new(FlowConfig {
            targets_fps: vec![15.0],
            candidates_per_bundle: 2,
            coarse_pf_sweep: vec![16],
            ..FlowConfig::for_device(pynq_z1())
        })
    }

    #[test]
    fn flow_produces_designs() {
        let out = small_flow().run().unwrap();
        assert_eq!(
            out.selected_bundles,
            vec![
                BundleId(1),
                BundleId(3),
                BundleId(13),
                BundleId(15),
                BundleId(17)
            ]
        );
        assert!(!out.candidates.is_empty());
        assert_eq!(out.designs.len(), 1);
        let d = &out.designs[0];
        assert!(d.code.contains("top_dnn"));
        assert!(d.accuracy > 0.4);
        assert!(
            pynq_z1().check_fit(&d.report.resources).is_ok(),
            "published design must fit the board: {}",
            d.report.resources
        );
    }

    #[test]
    fn flow_without_measurement_leaves_measured_iou_empty() {
        let out = small_flow().run().unwrap();
        assert!(out.designs.iter().all(|d| d.measured_iou.is_none()));
    }

    #[test]
    fn flow_measures_quantized_accuracy_when_asked() {
        use codesign_nn::TrainConfig;
        // A deliberately tiny proxy evaluator: finalize runs once per
        // design, and this test only cares that the measurement happens.
        let eval = ProxyEvaluator {
            train_samples: 8,
            eval_samples: 4,
            config: TrainConfig {
                epochs: 2,
                ..TrainConfig::default()
            },
            ..ProxyEvaluator::default()
        };
        let out = small_flow().with_measured_quantization(eval).run().unwrap();
        assert_eq!(out.designs.len(), 1);
        let measured = out.designs[0]
            .measured_iou
            .expect("measured quantized IoU must be recorded");
        assert!(
            (0.0..=1.0).contains(&measured),
            "IoU out of range: {measured}"
        );
    }

    #[test]
    fn design_latency_near_target() {
        let out = small_flow().run().unwrap();
        let d = &out.designs[0];
        // The search used analytic estimates; the full simulation must
        // land near the 15 FPS target (66.7 ms) within a loose band.
        assert!(
            (40.0..100.0).contains(&d.latency_ms),
            "latency {} ms way off the 66.7 ms target",
            d.latency_ms
        );
    }

    #[test]
    fn empty_targets_rejected() {
        let flow = CoDesignFlow::new(FlowConfig {
            targets_fps: vec![],
            ..FlowConfig::for_device(pynq_z1())
        });
        assert!(matches!(
            flow.run(),
            Err(FlowError::InvalidConfig(ConfigError::EmptyTargets))
        ));
    }

    #[test]
    fn validate_rejects_invalid_configs_with_typed_errors() {
        let err = |edit: fn(&mut FlowConfig)| {
            let mut config = FlowConfig::for_device(pynq_z1());
            edit(&mut config);
            match config.validate() {
                Err(FlowError::InvalidConfig(e)) => e,
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        };
        assert_eq!(err(|c| c.targets_fps = vec![]), ConfigError::EmptyTargets);
        assert_eq!(
            err(|c| c.targets_fps = vec![-1.0]),
            ConfigError::NonPositiveTarget { fps: -1.0 }
        );
        assert_eq!(
            err(|c| c.clock_mhz = 0.0),
            ConfigError::NonPositiveClock { clock_mhz: 0.0 }
        );
        assert!(matches!(
            err(|c| c.clock_mhz = f64::NAN),
            ConfigError::NonPositiveClock { clock_mhz } if clock_mhz.is_nan()
        ));
        assert_eq!(
            err(|c| c.fps_tolerance = -0.5),
            ConfigError::NonPositiveTolerance {
                fps_tolerance: -0.5
            }
        );
        assert_eq!(
            err(|c| c.candidates_per_bundle = 0),
            ConfigError::ZeroCandidates
        );
        assert_eq!(
            err(|c| c.coarse_pf_sweep = vec![]),
            ConfigError::EmptyPfSweep
        );
        assert_eq!(
            err(|c| c.coarse_pf_sweep = vec![16, 0]),
            ConfigError::ZeroPf
        );
        assert_eq!(
            err(|c| c.coarse_pf_sweep = vec![16, 6]),
            ConfigError::PfOffLadder { pf: 6 }
        );
        assert_eq!(
            err(|c| c.coarse_pf_sweep = vec![1_000_000_000]),
            ConfigError::PfOffLadder { pf: 1_000_000_000 }
        );
        assert_eq!(
            err(|c| c.eval_replications = 0),
            ConfigError::ZeroReplications
        );
    }

    #[test]
    fn flow_is_deterministic() {
        let a = small_flow().run().unwrap();
        let b = small_flow().run().unwrap();
        assert_eq!(a.selected_bundles, b.selected_bundles);
        assert_eq!(a.candidates.len(), b.candidates.len());
        assert_eq!(a.designs[0].point, b.designs[0].point);
    }

    #[test]
    fn parallel_flow_is_bit_identical_to_sequential() {
        let run_with = |threads: usize| {
            CoDesignFlow::new(FlowConfig {
                targets_fps: vec![15.0],
                candidates_per_bundle: 2,
                coarse_pf_sweep: vec![16],
                parallelism: Parallelism::Fixed(threads),
                ..FlowConfig::for_device(pynq_z1())
            })
            .run()
            .unwrap()
        };
        let seq = run_with(1);
        let par = run_with(4);
        assert_eq!(seq.coarse, par.coarse);
        assert_eq!(seq.selected_bundles, par.selected_bundles);
        assert_eq!(seq.candidates, par.candidates);
        assert_eq!(seq.designs.len(), par.designs.len());
        for (a, b) in seq.designs.iter().zip(&par.designs) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.report, b.report);
            assert_eq!(a.code, b.code, "generated C must be byte-stable");
        }
    }

    #[test]
    fn flow_reports_estimate_cache_hits() {
        let out = small_flow().run().unwrap();
        let stats = out.cache_stats;
        assert!(stats.total() > 0, "SCD never consulted the cache");
        assert!(
            stats.hit_rate() > 0.5,
            "estimate-cache hit rate {:.1}% too low ({stats})",
            stats.hit_rate() * 100.0
        );
    }

    #[test]
    fn observed_run_is_bit_identical_to_silent_run() {
        let silent = small_flow().run().unwrap();
        let events = Mutex::new(Vec::new());
        let sink = |e: &FlowEvent| events.lock().unwrap().push(e.clone());
        let observed = small_flow()
            .run_observed(&sink, &CancelToken::new())
            .unwrap();
        assert_eq!(silent.coarse, observed.coarse);
        assert_eq!(silent.selected_bundles, observed.selected_bundles);
        assert_eq!(silent.candidates, observed.candidates);
        assert_eq!(silent.designs.len(), observed.designs.len());
        for (a, b) in silent.designs.iter().zip(&observed.designs) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.code, b.code);
        }
    }

    #[test]
    fn observer_sees_the_full_event_schedule() {
        let events = Mutex::new(Vec::new());
        let sink = |e: &FlowEvent| events.lock().unwrap().push(e.clone());
        let out = small_flow()
            .run_observed(&sink, &CancelToken::new())
            .unwrap();
        let events = events.into_inner().unwrap();
        assert!(matches!(
            events.first(),
            Some(FlowEvent::Started {
                targets: 1,
                bundles: 18
            })
        ));
        let selected = events
            .iter()
            .find_map(|e| match e {
                FlowEvent::BundlesSelected { selected } => Some(selected.clone()),
                _ => None,
            })
            .expect("selection event");
        assert_eq!(selected, vec![1, 3, 13, 15, 17]);
        let calibrations = events
            .iter()
            .filter(|e| matches!(e, FlowEvent::BundleCalibrated { .. }))
            .count();
        assert_eq!(calibrations, 5, "one calibration event per bundle");
        let scd_cells: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                FlowEvent::ScdSearchFinished { done, total, .. } => {
                    assert_eq!(*total, 10); // 1 target x 5 bundles x 2 arms
                    Some(*done)
                }
                _ => None,
            })
            .collect();
        let mut sorted = scd_cells.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=10).collect::<Vec<_>>(), "done counts 1..=10");
        assert!(matches!(
            events.last(),
            Some(FlowEvent::Finished { designs: 1, .. })
        ));
        let finalized = events
            .iter()
            .filter(|e| matches!(e, FlowEvent::DesignFinalized { .. }))
            .count();
        assert_eq!(finalized, out.designs.len());
    }

    #[test]
    fn each_bundle_calibrates_once_before_its_cells_finish() {
        let env = Parallelism::from_env("CODESIGN_PARALLELISM");
        for parallelism in [Parallelism::Fixed(1), Parallelism::Fixed(4), env] {
            let events = Mutex::new(Vec::new());
            let sink = |e: &FlowEvent| events.lock().unwrap().push(e.clone());
            let config = FlowConfig {
                parallelism,
                ..small_flow().config().clone()
            };
            CoDesignFlow::new(config)
                .run_observed(&sink, &CancelToken::new())
                .unwrap();
            let (mut calibrated, mut done) = (Vec::new(), Vec::new());
            for event in events.into_inner().unwrap() {
                match event {
                    FlowEvent::BundleCalibrated { bundle, done: d, total } => {
                        assert_eq!(total, 5, "at {parallelism}");
                        calibrated.push(bundle);
                        done.push(d);
                    }
                    FlowEvent::ScdSearchFinished { bundle, .. } => assert!(
                        calibrated.contains(&bundle),
                        "at {parallelism}, a cell of Bundle {bundle} finished before its calibration"
                    ),
                    _ => {}
                }
            }
            calibrated.sort_unstable();
            assert_eq!(calibrated, [1, 3, 13, 15, 17], "at {parallelism}");
            done.sort_unstable();
            assert_eq!(done, [1, 2, 3, 4, 5], "at {parallelism}");
        }
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_work() {
        let token = CancelToken::new();
        token.cancel();
        let events = Mutex::new(Vec::new());
        let sink = |e: &FlowEvent| events.lock().unwrap().push(e.clone());
        let result = small_flow().run_observed(&sink, &token);
        assert!(matches!(result, Err(FlowError::Cancelled)));
        let events = events.into_inner().unwrap();
        // Started fires (config was valid), then the first checkpoint
        // trips and the terminal Cancelled event closes the stream.
        assert_eq!(events.last(), Some(&FlowEvent::Cancelled));
        assert!(!events
            .iter()
            .any(|e| matches!(e, FlowEvent::ScdSearchFinished { .. })));
    }

    #[test]
    fn expired_deadline_times_the_flow_out() {
        let token = CancelToken::new();
        token.set_deadline_in(std::time::Duration::ZERO);
        let events = Mutex::new(Vec::new());
        let sink = |e: &FlowEvent| events.lock().unwrap().push(e.clone());
        let result = small_flow().run_observed(&sink, &token);
        assert!(matches!(result, Err(FlowError::DeadlineExceeded)));
        let events = events.into_inner().unwrap();
        assert_eq!(events.last(), Some(&FlowEvent::TimedOut));
        assert!(!events
            .iter()
            .any(|e| matches!(e, FlowEvent::ScdSearchFinished { .. })));
        // An explicit cancel still outranks the expired deadline.
        let cancelled = CancelToken::new();
        cancelled.set_deadline_in(std::time::Duration::ZERO);
        cancelled.cancel();
        let result = small_flow().run_observed(&NullObserver, &cancelled);
        assert!(matches!(result, Err(FlowError::Cancelled)));
    }

    #[test]
    fn mid_run_cancellation_stops_at_a_work_item_boundary() {
        let token = CancelToken::new();
        let cancel_from_observer = token.clone();
        // Cancel as soon as the first SCD cell completes; the remaining
        // cells must never start.
        let seen = Mutex::new(Vec::new());
        let sink = move |e: &FlowEvent| {
            if matches!(e, FlowEvent::ScdSearchFinished { .. }) {
                cancel_from_observer.cancel();
            }
            seen.lock().unwrap().push(e.clone());
        };
        let result = small_flow().run_observed(&sink, &token);
        assert!(matches!(result, Err(FlowError::Cancelled)));
    }

    #[test]
    fn shared_cache_reuses_estimates_across_runs() {
        let cache = Arc::new(EstimateCache::new());
        let first = CoDesignFlow::new(small_flow().config().clone())
            .with_estimate_cache(Arc::clone(&cache))
            .run()
            .unwrap();
        let after_first = cache.stats();
        let second = CoDesignFlow::new(small_flow().config().clone())
            .with_estimate_cache(Arc::clone(&cache))
            .run()
            .unwrap();
        // Identical config => identical probes => the second run is
        // ~fully memoized (only racy-insert slack allowed) and results
        // are bit-identical to the run with a private cache.
        let after_second = cache.stats();
        assert!(after_second.hits > after_first.hits);
        assert_eq!(
            after_second.entries, after_first.entries,
            "second run added cache entries despite identical probes"
        );
        assert_eq!(first.candidates, second.candidates);
        let private = small_flow().run().unwrap();
        assert_eq!(first.candidates, private.candidates);
        assert_eq!(first.designs[0].code, private.designs[0].code);
    }

    #[test]
    fn summary_mirrors_designs() {
        let out = small_flow().run().unwrap();
        let summary = out.summary();
        assert_eq!(summary.selected_bundles, vec![1, 3, 13, 15, 17]);
        assert_eq!(summary.candidates, out.candidates.len());
        assert_eq!(summary.designs.len(), out.designs.len());
        let d = &out.designs[0];
        let row = &summary.designs[0];
        assert_eq!(row.bundle, d.point.bundle.id().0);
        assert_eq!(row.target_fps, d.target_fps);
        assert_eq!(row.accuracy, d.accuracy);
        assert!(summary.cache_hit_rate > 0.5);
        let text = summary.to_string();
        assert!(text.contains("selected bundles"));
        assert!(text.contains("bundle 13") || text.contains("bundle 1"));
    }

    #[test]
    fn accessors_agree_with_fields() {
        let out = small_flow().run().unwrap();
        assert_eq!(out.selected_bundle_ids(), vec![1, 3, 13, 15, 17]);
        assert_eq!(out.candidate_count(), out.candidates.len());
        assert_eq!(out.candidates_for(15.0).count(), out.candidates.len());
        assert_eq!(out.candidates_for(99.0).count(), 0);
        let best = out.best_candidate_for(15.0).expect("candidates exist");
        assert_eq!(best.point, out.designs[0].point);
        assert_eq!(
            out.design_for(15.0).map(|d| &d.point),
            Some(&out.designs[0].point)
        );
        assert!(out.design_for(99.0).is_none());
    }
}
