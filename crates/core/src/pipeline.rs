//! The co-design recipe (paper Fig. 1), written once.
//!
//! One driver,
//! [`CoDesignFlow::run_with`](crate::flow::CoDesignFlow::run_with),
//! calls steps 1, 2, 4 and 5 for every executor. Step 3 is what an
//! executor supplies: the in-process flow runs the missing cells on
//! scoped threads, and `codesign-shard` runs them in worker processes,
//! each calling [`run_cell`]:
//!
//! 1. [`coarse_stage`]: coarse Bundle evaluation over the PF sweep and
//!    Pareto selection at the largest PF (Co-Design Step 2).
//! 2. [`cells`]: the SCD work grid, one [`Cell`] per
//!    `(FPS target, selected Bundle, quantization arm)`.
//! 3. [`run_cell`] per cell: the SCD search of Algorithm 1 (Steps 1
//!    and 3), with the estimator [`Estimators::get`] hands it. That
//!    estimator is fitted ([`calibrate`]) by the first cell of its
//!    Bundle, on whichever thread or process runs that cell.
//! 4. [`merge`]: the candidates of every cell, and the most accurate
//!    one per target.
//! 5. [`finalize`]: full simulation and Auto-HLS codegen of each
//!    target's winner.
//!
//! The executors differ only in how step 3 is scheduled and persisted. Everything a result depends on lives here, so their
//! outputs are bit-identical by construction: each cell is seeded from
//! what it *is* (target index, Bundle, arm), never from when or where
//! it runs.

use crate::accuracy::{AccuracyModel, ProxyEvaluator};
use crate::evaluate::{coarse_evaluate_parallel, select_bundles, BundleEvaluation, EvalMethod};
use crate::flow::{DesignOutcome, FlowConfig, FlowError};
use crate::parallel::derive_seed;
use crate::search::{scd_search, Candidate, ScdConfig};
use codesign_dnn::builder::DnnBuilder;
use codesign_dnn::bundle::{bundle_by_id, enumerate_bundles, Bundle, BundleId, PAPER_BUNDLE_COUNT};
use codesign_dnn::quant::Activation;
use codesign_hls::cache::EstimateCache;
use codesign_hls::calibrate::{calibrate_bundle_with, CalibratedParams};
use codesign_hls::codegen::CodeGenerator;
use codesign_hls::model::HlsEstimator;
use codesign_sim::device::FpgaDevice;
use codesign_sim::error::SimError;
use codesign_sim::pipeline::{simulate, AccelConfig};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// The quantization arms every (target, Bundle) pair is searched under:
/// 16-bit (`Relu`) then 8-bit (`Relu4`). The scheme `Q` is a co-design
/// variable (Table 1), so both are searched and accuracy arbitrates.
pub const ARMS: [Activation; 2] = [Activation::Relu, Activation::Relu4];

/// One cell of the (target × Bundle × arm) SCD work grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Global index in the flattened grid (the merge key).
    pub index: usize,
    /// Index of the FPS target in `config.targets_fps`.
    pub ti: usize,
    /// The FPS target itself.
    pub fps: f64,
    /// The Bundle this cell searches.
    pub bundle: BundleId,
    /// Quantization-arm index into [`ARMS`] — part of the seed-stream
    /// id.
    pub arm: u64,
    /// The activation the arm index denotes.
    pub activation: Activation,
}

/// The SCD work grid: the nested `target → selected Bundle → arm` loop,
/// flattened in that order. Checkpoints and shard segments store one
/// record per cell, keyed by its index in this order, in whatever order
/// the cells finish.
pub fn cells(targets: &[f64], selected: &[BundleId]) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(targets.len() * selected.len() * ARMS.len());
    for (ti, &fps) in targets.iter().enumerate() {
        for &bundle in selected {
            for (arm, activation) in ARMS.into_iter().enumerate() {
                cells.push(Cell {
                    index: cells.len(),
                    ti,
                    fps,
                    bundle,
                    arm: arm as u64,
                    activation,
                });
            }
        }
    }
    cells
}

/// Co-Design Step 2: evaluates every Bundle over the config's PF sweep
/// (one work item per Bundle, `cfg.parallelism` workers) and selects
/// the Pareto Bundles among the evaluations at the largest PF.
///
/// # Errors
///
/// Propagates the first simulator failure in Bundle order.
pub fn coarse_stage(
    cfg: &FlowConfig,
    model: &AccuracyModel,
) -> Result<(Vec<BundleEvaluation>, Vec<BundleId>), SimError> {
    let coarse = coarse_evaluate_parallel(
        &enumerate_bundles(),
        &cfg.device,
        &cfg.coarse_pf_sweep,
        EvalMethod::Replicated {
            n: cfg.eval_replications,
        },
        model,
        cfg.clock_mhz,
        cfg.parallelism.threads(),
    )?;
    let max_pf = cfg.coarse_pf_sweep.iter().copied().max().unwrap_or(16);
    let at_max_pf: Vec<BundleEvaluation> = coarse
        .iter()
        .filter(|e| e.parallel_factor == max_pf)
        .cloned()
        .collect();
    let selected = select_bundles(&at_max_pf);
    Ok((coarse, selected))
}

/// Step 1: fits the analytic model of `bundle` on `device` in the
/// deployment PF regime. The overlap factors fitted at tiny PFs do not
/// transfer to the near-full-DSP designs the search emits, so the fit
/// runs at PF 96 over 1–4 replications. Deterministic per (Bundle,
/// device), which is what lets every executor calibrate on its own.
///
/// # Errors
///
/// Propagates simulator failures of the calibration runs.
pub fn calibrate(bundle: &Bundle, device: &FpgaDevice) -> Result<CalibratedParams, SimError> {
    calibrate_bundle_with(bundle, device, &[1, 2, 3, 4], 96)
}

/// The calibrated estimators of every enumerated Bundle on one device,
/// each fitted on first use and sharing one estimate cache.
pub struct Estimators {
    device: FpgaDevice,
    cache: Arc<EstimateCache>,
    slots: [OnceLock<Result<HlsEstimator, SimError>>; PAPER_BUNDLE_COUNT],
}

impl Estimators {
    /// No Bundle calibrated yet; every estimator will share `cache`.
    pub fn new(device: &FpgaDevice, cache: Arc<EstimateCache>) -> Self {
        Self {
            device: device.clone(),
            cache,
            slots: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Bundle `id`'s estimator. The first call for a Bundle fits it
    /// ([`calibrate`]) and then runs `on_calibrated`; concurrent calls
    /// wait for that fit, and every call gets the same estimator.
    ///
    /// # Errors
    ///
    /// The fit's simulator failure, to every caller.
    ///
    /// # Panics
    ///
    /// When `id` is outside the paper's enumeration.
    pub fn get(
        &self,
        id: BundleId,
        on_calibrated: impl FnOnce(),
    ) -> Result<&HlsEstimator, SimError> {
        let fitted = self.slots[id.0 - 1].get_or_init(|| {
            let params = calibrate(&bundle_by_id(id).expect("a slot's id"), &self.device)?;
            on_calibrated();
            let estimator = HlsEstimator::new(params, self.device.clone());
            Ok(estimator.with_cache(Arc::clone(&self.cache)))
        });
        fitted.as_ref().map_err(Clone::clone)
    }
}

/// Step 3 for one cell: the SCD search for the cell's Bundle and arm
/// against the cell's FPS target, with a latency window of
/// `fps_tolerance` FPS above the target.
///
/// `estimator` must be calibrated for the cell's Bundle on
/// `cfg.device`, as [`Estimators::get`] hands it out.
///
/// # Panics
///
/// When the cell names a Bundle id outside the paper's enumeration.
pub fn run_cell(
    cfg: &FlowConfig,
    cell: &Cell,
    estimator: &HlsEstimator,
    model: &AccuracyModel,
) -> Vec<Candidate> {
    let bundle = bundle_by_id(cell.bundle).expect("cells name enumerated Bundles");
    let target_ms = 1000.0 / cell.fps;
    // The stream id depends only on what the cell *is* (target, Bundle,
    // arm), never on scheduling.
    let stream = ((cell.ti as u64) << 32) | ((cell.bundle.0 as u64) << 8) | cell.arm;
    let scd = ScdConfig {
        latency_target_ms: target_ms,
        tolerance_ms: target_ms - 1000.0 / (cell.fps + cfg.fps_tolerance),
        clock_mhz: cfg.clock_mhz,
        candidates: cfg.candidates_per_bundle,
        max_iterations: 400,
        seed: derive_seed(cfg.seed, stream),
    };
    scd_search(&bundle, estimator, model, &scd, cell.activation)
}

/// A candidate tagged with the FPS target it was searched for.
pub type Tagged = (f64, Candidate);

/// Merges the per-cell results (`found[&cell.index]` belongs to `cell`)
/// into every candidate tagged with its target, in cell order, and the
/// most accurate candidate per target (the designs to finalize). An
/// entry of `found` whose index is not in `cells` is never read.
///
/// # Errors
///
/// [`FlowError::MissingCell`] for the first cell of `cells` without an
/// entry in `found`.
pub fn merge(
    cfg: &FlowConfig,
    cells: &[Cell],
    found: &BTreeMap<usize, Vec<Candidate>>,
) -> Result<(Vec<Tagged>, Vec<Tagged>), FlowError> {
    let mut candidates: Vec<Tagged> = Vec::new();
    let mut best_per_target: Vec<Tagged> = Vec::new();
    for (ti, &fps) in cfg.targets_fps.iter().enumerate() {
        let first = candidates.len();
        for cell in cells.iter().filter(|cell| cell.ti == ti) {
            let cands = found
                .get(&cell.index)
                .ok_or(FlowError::MissingCell(cell.index))?;
            candidates.extend(cands.iter().map(|c| (fps, c.clone())));
        }
        let best = candidates[first..]
            .iter()
            .max_by(|a, b| a.1.accuracy.total_cmp(&b.1.accuracy));
        best_per_target.extend(best.cloned());
    }
    Ok((candidates, best_per_target))
}

/// Finalizes a target's winner: full Tile-Arch simulation and Auto-HLS
/// code generation. With `measured`, the point is also proxy-trained
/// and its held-out IoU measured through the quantized engine under the
/// scheme its activation fixes; a failed measurement (unbuildable at
/// the proxy resolution) degrades to `None`, never to an error.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn finalize(
    cfg: &FlowConfig,
    target_fps: f64,
    candidate: &Candidate,
    measured: Option<&ProxyEvaluator>,
) -> Result<DesignOutcome, SimError> {
    let dnn = DnnBuilder::new()
        .build(&candidate.point)
        .expect("search candidates elaborate");
    let accel = AccelConfig::for_point(&candidate.point);
    let report = simulate(&dnn, &accel, &cfg.device)?;
    let code = CodeGenerator::new(accel).generate(&dnn);
    let latency_ms = report.latency_ms(cfg.clock_mhz);
    let measured_iou = measured.and_then(|eval| {
        let mut eval = eval.clone();
        eval.quantization = Some(candidate.point.activation.quantization());
        eval.evaluate(&candidate.point).ok()
    });
    Ok(DesignOutcome {
        target_fps,
        point: candidate.point.clone(),
        accuracy: candidate.accuracy,
        latency_ms,
        fps: 1000.0 / latency_ms,
        report,
        code,
        dnn,
        measured_iou,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_sim::device::pynq_z1;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn cells_follow_the_flow_item_order() {
        let selected = [BundleId(1), BundleId(3), BundleId(13)];
        let cells = cells(&[10.0, 15.0, 20.0], &selected);
        // 3 targets × 3 bundles × 2 arms.
        assert_eq!(cells.len(), 18);
        assert_eq!(cells[0].ti, 0);
        assert_eq!(cells[0].bundle, BundleId(1));
        assert_eq!(cells[0].arm, 0);
        assert_eq!(cells[0].activation, Activation::Relu);
        assert_eq!(cells[1].arm, 1);
        assert_eq!(cells[1].activation, Activation::Relu4);
        assert_eq!(cells[2].bundle, BundleId(3));
        assert_eq!(cells[6].ti, 1);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn merge_reports_a_missing_cell() {
        let cfg = FlowConfig::for_device(pynq_z1());
        let cells = cells(&cfg.targets_fps, &[BundleId(1)]);
        let found = (0..cells.len())
            .filter(|&i| i != 3)
            .map(|i| (i, Vec::new()))
            .collect();
        let merged = merge(&cfg, &cells, &found);
        assert_eq!(merged.err(), Some(FlowError::MissingCell(3)));
    }

    #[test]
    fn concurrent_first_uses_calibrate_a_bundle_once() {
        let device = pynq_z1();
        let estimators = Estimators::new(&device, Arc::new(EstimateCache::new()));
        let fits = AtomicUsize::new(0);
        let start = Barrier::new(4);
        let got: Vec<&HlsEstimator> = std::thread::scope(|s| {
            let calls: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let count = || {
                            fits.fetch_add(1, Ordering::Relaxed);
                        };
                        start.wait();
                        estimators.get(BundleId(13), count).unwrap()
                    })
                })
                .collect();
            calls.into_iter().map(|c| c.join().unwrap()).collect()
        });
        assert_eq!(fits.into_inner(), 1, "one fit for four first uses");
        let bundle = bundle_by_id(BundleId(13)).unwrap();
        let expected = calibrate(&bundle, &device).unwrap();
        for estimator in &got {
            assert_eq!(estimator.params(), &expected);
            assert!(std::ptr::eq(*estimator, got[0]), "one shared estimator");
        }
    }
}
