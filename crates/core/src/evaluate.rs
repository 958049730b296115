//! Co-Design Step 2: Bundle evaluation and selection.
//!
//! Coarse-grained evaluation (Sec. 5.1.1) captures a three-dimensional
//! feature — latency, resource, accuracy — for every Bundle candidate,
//! building small evaluation DNNs with either of the paper's two
//! methods: *method#1* (fixed head and tail, one Bundle replication in
//! the middle) or *method#2* (the Bundle replicated `n` times). Bundles
//! with similar resource usage (DSPs) are grouped and a Pareto curve is
//! drawn per group; Bundles on the curves with sufficient accuracy
//! potential are selected. Fine-grained evaluation (Sec. 5.1.2) then
//! sweeps replication counts and activation variants (`Relu` / `Relu4`
//! / `Relu8`) over the selected Bundles.

use crate::accuracy::AccuracyModel;
use crate::pareto::{pareto_front, ParetoPoint};
use codesign_dnn::builder::DnnBuilder;
use codesign_dnn::bundle::{Bundle, BundleId};
use codesign_dnn::quant::Activation;
use codesign_dnn::space::DesignPoint;
use codesign_sim::device::FpgaDevice;
use codesign_sim::error::SimError;
use codesign_sim::pipeline::{simulate, AccelConfig};
use codesign_sim::report::ResourceUsage;
use std::collections::BTreeMap;

/// How evaluation DNNs are constructed from a Bundle (Sec. 5.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMethod {
    /// method#1: fixed head and tail, one Bundle replication in the
    /// middle (with one channel expansion so ordering within the Bundle
    /// matters).
    FixedHeadTail,
    /// method#2: the Bundle replicated `n` times.
    Replicated {
        /// Number of replications.
        n: usize,
    },
}

/// Minimum estimated IoU for a Bundle to count as having "potential
/// accuracy contribution" (Sec. 4.2); spatial-context-free and
/// channel-mixing-free Bundles fall below it.
pub const MIN_ACCURACY: f64 = 0.45;

/// One coarse-evaluation record: a Bundle implemented at one parallel
/// factor.
#[derive(Debug, Clone, PartialEq)]
pub struct BundleEvaluation {
    /// The evaluated Bundle.
    pub bundle_id: BundleId,
    /// Parallel factor of the implementation.
    pub parallel_factor: usize,
    /// Simulated latency of the evaluation DNN in milliseconds.
    pub latency_ms: f64,
    /// Accelerator resource usage.
    pub resources: ResourceUsage,
    /// Estimated accuracy (IoU) of the evaluation DNN.
    pub accuracy: f64,
    /// Resource-similarity group (number of full-PF conv-engine
    /// equivalents of DSP demand); Pareto curves are drawn per group.
    pub dsp_group: usize,
}

/// Builds the evaluation design point for a Bundle under a method.
pub fn evaluation_point(bundle: &Bundle, method: EvalMethod, pf: usize) -> DesignPoint {
    let mut point = match method {
        EvalMethod::FixedHeadTail => {
            let mut p = DesignPoint::initial(*bundle, 1);
            // One channel expansion inside the middle Bundle so that IP
            // ordering (e.g. Bundle 13 vs 15) affects latency.
            p.expansion = vec![2.0];
            p
        }
        EvalMethod::Replicated { n } => DesignPoint::initial(*bundle, n.max(1)),
    };
    point.parallel_factor = pf;
    point
}

/// Coarse-grained evaluation of `bundles` on `device` across a parallel
/// factor sweep, fanned out over `threads` scoped threads (the caller
/// included, all joined before the call returns): each Bundle is one
/// work item and results are merged in Bundle order, so the output is
/// byte-identical for any `threads` (1 runs inline).
///
/// # Errors
///
/// Propagates the first simulator failure in Bundle order; Bundles
/// whose evaluation DNN cannot be elaborated are skipped (they cannot
/// be implemented at this input resolution at all).
pub fn coarse_evaluate_parallel(
    bundles: &[Bundle],
    device: &FpgaDevice,
    pf_sweep: &[usize],
    method: EvalMethod,
    model: &AccuracyModel,
    clock_mhz: f64,
    threads: usize,
) -> Result<Vec<BundleEvaluation>, SimError> {
    let builder = DnnBuilder::new().method1(matches!(method, EvalMethod::FixedHeadTail));
    let per_bundle = crate::parallel::try_parallel_map(bundles, threads, |_, bundle| {
        let mut rows = Vec::with_capacity(pf_sweep.len());
        for &pf in pf_sweep {
            let point = evaluation_point(bundle, method, pf);
            let Ok(dnn) = builder.build(&point) else {
                continue;
            };
            let cfg = AccelConfig::for_point(&point);
            let report = simulate(&dnn, &cfg, device)?;
            let engine_dsp = (pf.div_ceil(point.quantization().macs_per_dsp()) + 2) as f64;
            let dsp_group = (report.resources.dsp as f64 / engine_dsp).round() as usize;
            rows.push(BundleEvaluation {
                bundle_id: bundle.id(),
                parallel_factor: pf,
                latency_ms: report.latency_ms(clock_mhz),
                resources: report.resources,
                accuracy: model.estimate(&point, &dnn),
                dsp_group,
            });
        }
        Ok(rows)
    })?;
    Ok(per_bundle.into_iter().flatten().collect())
}

/// Selects the promising Bundles from a coarse evaluation: records are
/// grouped by resource similarity (`dsp_group`), low-potential records
/// (below [`MIN_ACCURACY`]) are dropped, a Pareto curve is drawn per
/// group, and the union of the curves is returned in ascending id order.
///
/// Pass records of a *single* parallel factor — mixing PFs would compare
/// different hardware operating points of the same Bundle against each
/// other.
pub fn select_bundles(evaluations: &[BundleEvaluation]) -> Vec<BundleId> {
    let mut groups: BTreeMap<usize, Vec<&BundleEvaluation>> = BTreeMap::new();
    for e in evaluations {
        if e.accuracy >= MIN_ACCURACY {
            groups.entry(e.dsp_group).or_default().push(e);
        }
    }
    let mut selected: Vec<BundleId> = Vec::new();
    for members in groups.values() {
        let points: Vec<ParetoPoint> = members
            .iter()
            .map(|e| ParetoPoint {
                latency_ms: e.latency_ms,
                accuracy: e.accuracy,
            })
            .collect();
        for i in pareto_front(&points) {
            selected.push(members[i].bundle_id);
        }
    }
    selected.sort();
    selected.dedup();
    selected
}

/// One fine-grained evaluation record (Sec. 5.1.2): a selected Bundle at
/// a given replication count and activation variant.
#[derive(Debug, Clone, PartialEq)]
pub struct FineEvaluation {
    /// The evaluated Bundle.
    pub bundle_id: BundleId,
    /// Activation variant (fixes the quantization scheme).
    pub activation: Activation,
    /// Bundle replications of the evaluation DNN.
    pub n_replications: usize,
    /// Simulated latency in milliseconds.
    pub latency_ms: f64,
    /// Estimated accuracy (IoU).
    pub accuracy: f64,
    /// Accelerator resource usage.
    pub resources: ResourceUsage,
}

/// Fine-grained evaluation: sweeps replication counts and all activation
/// variants for one Bundle.
///
/// # Errors
///
/// Propagates simulator failures; unbuildable sweep entries are skipped.
pub fn fine_evaluate(
    bundle: &Bundle,
    device: &FpgaDevice,
    model: &AccuracyModel,
    replications: std::ops::RangeInclusive<usize>,
    pf: usize,
    clock_mhz: f64,
) -> Result<Vec<FineEvaluation>, SimError> {
    let builder = DnnBuilder::new();
    let mut out = Vec::new();
    for n in replications {
        for act in Activation::ALL {
            let mut point = DesignPoint::initial(*bundle, n);
            point.parallel_factor = pf;
            point.activation = act;
            let Ok(dnn) = builder.build(&point) else {
                continue;
            };
            let cfg = AccelConfig::for_point(&point);
            let report = simulate(&dnn, &cfg, device)?;
            out.push(FineEvaluation {
                bundle_id: bundle.id(),
                activation: act,
                n_replications: n,
                latency_ms: report.latency_ms(clock_mhz),
                accuracy: model.estimate(&point, &dnn),
                resources: report.resources,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::bundle::enumerate_bundles;
    use codesign_sim::device::pynq_z1;

    fn run_coarse(method: EvalMethod) -> Vec<BundleEvaluation> {
        coarse_evaluate_parallel(
            &enumerate_bundles(),
            &pynq_z1(),
            &[16],
            method,
            &AccuracyModel::paper_calibrated(),
            100.0,
            1,
        )
        .unwrap()
    }

    #[test]
    fn paper_pareto_set_method2() {
        let evals = run_coarse(EvalMethod::Replicated { n: 3 });
        let selected = select_bundles(&evals);
        assert_eq!(
            selected,
            vec![
                BundleId(1),
                BundleId(3),
                BundleId(13),
                BundleId(15),
                BundleId(17)
            ],
            "evals: {:?}",
            evals
                .iter()
                .map(|e| (e.bundle_id.0, e.dsp_group, e.latency_ms, e.accuracy))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn paper_pareto_set_method1() {
        // The paper reports both construction methods select the same
        // Bundles (Fig. 4a vs 4b).
        let evals = run_coarse(EvalMethod::FixedHeadTail);
        let selected = select_bundles(&evals);
        assert_eq!(
            selected,
            vec![
                BundleId(1),
                BundleId(3),
                BundleId(13),
                BundleId(15),
                BundleId(17)
            ],
            "evals: {:?}",
            evals
                .iter()
                .map(|e| (e.bundle_id.0, e.dsp_group, e.latency_ms, e.accuracy))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn pf_sweep_changes_latency_not_accuracy() {
        let evals = coarse_evaluate_parallel(
            &enumerate_bundles()[..1],
            &pynq_z1(),
            &[4, 8, 16],
            EvalMethod::Replicated { n: 2 },
            &AccuracyModel::paper_calibrated(),
            100.0,
            1,
        )
        .unwrap();
        assert_eq!(evals.len(), 3);
        assert_eq!(evals[0].accuracy, evals[1].accuracy);
        assert_eq!(evals[1].accuracy, evals[2].accuracy);
        assert!(
            evals[0].latency_ms > evals[2].latency_ms,
            "PF16 faster than PF4"
        );
        assert!(evals[0].resources.dsp < evals[2].resources.dsp);
    }

    #[test]
    fn low_accuracy_bundles_never_selected() {
        let evals = run_coarse(EvalMethod::Replicated { n: 3 });
        let selected = select_bundles(&evals);
        for dropped in [2usize, 4, 5, 6] {
            assert!(
                !selected.contains(&BundleId(dropped)),
                "bundle {dropped} has no accuracy potential but was selected"
            );
        }
    }

    #[test]
    fn fine_evaluation_covers_all_variants() {
        let b = enumerate_bundles()[12];
        let fines = fine_evaluate(
            &b,
            &pynq_z1(),
            &AccuracyModel::paper_calibrated(),
            2..=4,
            16,
            100.0,
        )
        .unwrap();
        assert_eq!(fines.len(), 9); // 3 replication counts x 3 activations
                                    // Relu (16-bit) trades latency for accuracy against Relu4 (8-bit).
        let relu = fines
            .iter()
            .find(|f| f.activation == Activation::Relu && f.n_replications == 3)
            .unwrap();
        let relu4 = fines
            .iter()
            .find(|f| f.activation == Activation::Relu4 && f.n_replications == 3)
            .unwrap();
        assert!(relu.accuracy > relu4.accuracy);
        assert!(relu.latency_ms > relu4.latency_ms);
    }

    #[test]
    fn parallel_coarse_evaluation_is_byte_identical() {
        let sequential = run_coarse(EvalMethod::Replicated { n: 3 });
        for threads in [2usize, 4] {
            let parallel = coarse_evaluate_parallel(
                &enumerate_bundles(),
                &pynq_z1(),
                &[16],
                EvalMethod::Replicated { n: 3 },
                &AccuracyModel::paper_calibrated(),
                100.0,
                threads,
            )
            .unwrap();
            assert_eq!(sequential, parallel, "threads={threads}");
        }
    }

    #[test]
    fn selection_is_stable_across_eval_depth() {
        let a = select_bundles(&run_coarse(EvalMethod::Replicated { n: 2 }));
        let b = select_bundles(&run_coarse(EvalMethod::Replicated { n: 3 }));
        assert_eq!(a, b);
    }
}
