//! Auto-HLS sampling: fitting the analytic model coefficients.
//!
//! The paper determines α, β and Γ "for each Bundle using Auto-HLS
//! sampling" and φ, γ, `Lat_DM`, `Res_ctl` "through Auto-HLS sampling"
//! (Sec. 4.4). We reproduce that literally: a small set of sample
//! designs per Bundle is elaborated, pushed through the Tile-Arch
//! simulator (our stand-in for HLS synthesis + board measurement), and
//! the coefficients are obtained by least squares:
//!
//! * `α`, `β` — regression of observed group latency against sequential
//!   compute cycles (Eq. 3) and data-movement cycles, per Bundle;
//! * `φ` — scalar fit of the residual DNN latency against inter-bundle
//!   data movement;
//! * `γ` — is 1 (see [`CalibratedParams::gamma`]);
//! * `Γ` — is carried inside the resource model's buffer terms, which
//!   the simulator and the estimator share.
//!
//! Each sample's Eq. 3 compute and `Θ(Data)` come from the same group
//! pricing the estimator folds (`SlotBody::of` and `SlotTerms::derive`
//! in [`model`](crate::model)).

use crate::model::{SlotBody, SlotTerms};
use codesign_dnn::builder::DnnBuilder;
use codesign_dnn::bundle::Bundle;
use codesign_dnn::space::DesignPoint;
use codesign_sim::device::FpgaDevice;
use codesign_sim::error::SimError;
use codesign_sim::pipeline::{simulate, AccelConfig};

/// Coefficients of the analytic model for one Bundle, produced by
/// [`calibrate_bundle`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibratedParams {
    /// Compute-overlap factor `α` of Eq. 2 (how much of the sequential
    /// compute survives pipelining; below 1 for multi-IP Bundles).
    pub alpha: f64,
    /// Data-transfer exposure factor `β` of Eq. 2.
    pub beta: f64,
    /// Inter-bundle data-movement weight `φ` of Eq. 4.
    pub phi: f64,
    /// Control-overhead factor `γ` of Eq. 5 applied to fabric resources.
    ///
    /// Calibration sets it to 1: the paper fits it as the ratio of
    /// measured fabric usage to the modeled IP sum, but here the
    /// "measurement" is the simulator, whose resources are the model's
    /// own Eq. 1 rule (`codesign_sim::pipeline::resources_of`), so every
    /// sample's ratio is exactly 1. The field and Eq. 5's scaling stay
    /// for a calibration against a real board.
    pub gamma: f64,
    /// Parallel factor used during sampling (the estimator substitutes
    /// each design point's own PF at query time).
    pub parallel_factor: usize,
}

impl Default for CalibratedParams {
    /// Conservative defaults: no overlap (`α = 1`), full exposure
    /// (`β = 1`), unit weights.
    fn default() -> Self {
        Self {
            alpha: 1.0,
            beta: 1.0,
            phi: 1.0,
            gamma: 1.0,
            parallel_factor: 16,
        }
    }
}

/// Calibrates the analytic model for `bundle` on `device` using the
/// default sample set (replication counts 1-4 at PF 32).
///
/// # Errors
///
/// Returns [`SimError`] when no sample design can be elaborated and
/// simulated (e.g. an unusable device description).
pub fn calibrate_bundle(
    bundle: &Bundle,
    device: &FpgaDevice,
) -> Result<CalibratedParams, SimError> {
    calibrate_bundle_with(bundle, device, &[1, 2, 3, 4], 32)
}

/// Calibrates with an explicit sample plan: one sample design per entry
/// of `replication_samples`, all at parallel factor `pf`.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] when every sample fails to
/// elaborate, and propagates simulator errors otherwise.
pub fn calibrate_bundle_with(
    bundle: &Bundle,
    device: &FpgaDevice,
    replication_samples: &[usize],
    pf: usize,
) -> Result<CalibratedParams, SimError> {
    device.validate()?;
    let builder = DnnBuilder::new();

    // Regression samples: (sequential compute, data cycles, observed).
    let mut comp_obs: Vec<(f64, f64, f64)> = Vec::new();
    let mut phi_num = 0.0f64;
    let mut phi_den = 0.0f64;

    for &reps in replication_samples {
        let mut point = DesignPoint::initial(*bundle, reps);
        point.parallel_factor = pf;
        let Ok(dnn) = builder.build(&point) else {
            continue; // over-downsampled sample; skip
        };
        let cfg = AccelConfig::for_point(&point);
        let report = simulate(&dnn, &cfg, device)?;

        let groups = || dnn.layers().chunk_by(|a, b| a.bundle_rep == b.bundle_rep);
        debug_assert_eq!(groups().count(), report.layer_cycles.len());
        let mut est_total = 0.0f64;
        let mut inter_bytes = 0u64;
        for (group, observed) in groups().zip(&report.layer_cycles) {
            let terms = SlotTerms::derive(&SlotBody::of(group, &cfg)?, &cfg);
            let comp = terms.compute_cycles as f64;
            let data = terms.data_bytes as f64 / device.dram_bytes_per_cycle;
            comp_obs.push((comp, data, observed.total_cycles as f64));
            est_total += comp; // used below for the phi residual basis
            inter_bytes += terms.inter_bundle_bytes;
        }

        // phi: regress (observed total - compute part) on inter-bundle
        // data movement.
        let lat_dm = inter_bytes as f64 / device.dram_bytes_per_cycle;
        if lat_dm > 0.0 {
            let residual = (report.total_cycles as f64 - est_total).max(0.0);
            phi_num += residual * lat_dm;
            phi_den += lat_dm * lat_dm;
        }
    }

    if comp_obs.is_empty() {
        return Err(SimError::InvalidConfig {
            reason: format!("no calibration sample for {bundle} could be elaborated"),
        });
    }

    let (alpha, beta) = fit_two_term(&comp_obs);
    let phi = if phi_den > 0.0 {
        phi_num / phi_den
    } else {
        1.0
    };

    Ok(CalibratedParams {
        alpha,
        beta,
        phi,
        gamma: 1.0,
        parallel_factor: pf,
    })
}

/// Least-squares fit of `y ≈ a·x1 + b·x2` over samples `(x1, x2, y)`,
/// with coefficients clamped to non-negative values (a negative overlap
/// factor is physically meaningless).
fn fit_two_term(samples: &[(f64, f64, f64)]) -> (f64, f64) {
    let (mut s11, mut s12, mut s22, mut s1y, mut s2y) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(x1, x2, y) in samples {
        s11 += x1 * x1;
        s12 += x1 * x2;
        s22 += x2 * x2;
        s1y += x1 * y;
        s2y += x2 * y;
    }
    let det = s11 * s22 - s12 * s12;
    if det.abs() < 1e-9 {
        // Degenerate design matrix: fall back to a single-factor fit.
        let a = if s11 > 0.0 { s1y / s11 } else { 1.0 };
        return (a.max(0.0), 1.0);
    }
    let a = (s1y * s22 - s2y * s12) / det;
    let b = (s2y * s11 - s1y * s12) / det;
    (a.max(0.0), b.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::HlsEstimator;
    use codesign_dnn::bundle::{bundle_by_id, enumerate_bundles, BundleId};
    use codesign_sim::device::pynq_z1;

    #[test]
    fn fit_recovers_exact_linear_relation() {
        let samples: Vec<(f64, f64, f64)> = (1..20)
            .map(|i| {
                let x1 = i as f64;
                let x2 = (i * i) as f64;
                (x1, x2, 0.7 * x1 + 0.3 * x2)
            })
            .collect();
        let (a, b) = fit_two_term(&samples);
        assert!((a - 0.7).abs() < 1e-6, "a = {a}");
        assert!((b - 0.3).abs() < 1e-6, "b = {b}");
    }

    #[test]
    fn fit_clamps_negative_coefficients() {
        let samples = vec![(1.0, 1.0, -5.0), (2.0, 4.0, -10.0), (3.0, 9.0, -15.0)];
        let (a, b) = fit_two_term(&samples);
        assert!(a >= 0.0 && b >= 0.0);
    }

    #[test]
    fn degenerate_samples_fall_back() {
        // x2 identically zero -> singular normal equations.
        let samples = vec![(1.0, 0.0, 2.0), (2.0, 0.0, 4.0)];
        let (a, b) = fit_two_term(&samples);
        assert!((a - 2.0).abs() < 1e-9);
        assert_eq!(b, 1.0);
    }

    #[test]
    fn all_bundles_calibrate() {
        let device = pynq_z1();
        for b in enumerate_bundles() {
            let p = calibrate_bundle(&b, &device).unwrap_or_else(|e| panic!("{b}: {e}"));
            assert!(p.alpha > 0.0, "{b}: alpha={}", p.alpha);
            assert!(p.alpha <= 1.5, "{b}: alpha={}", p.alpha);
            assert!(p.gamma > 0.5 && p.gamma < 2.0, "{b}: gamma={}", p.gamma);
        }
    }

    #[test]
    fn calibrated_model_tracks_simulator() {
        // The whole point of sampling: analytic estimates should stay
        // within a modest factor of full simulation on unseen points.
        let device = pynq_z1();
        let b = bundle_by_id(BundleId(13)).unwrap();
        let params = calibrate_bundle(&b, &device).unwrap();
        let est = HlsEstimator::new(params, device.clone());

        let mut point = DesignPoint::initial(b, 5); // outside the 1-4 sample set
        point.parallel_factor = 32;
        let dnn = DnnBuilder::new().build(&point).unwrap();
        let sim = simulate(&dnn, &AccelConfig::for_point(&point), &device).unwrap();
        let analytic = est.estimate_point(&point).unwrap();

        let ratio = analytic.latency_cycles as f64 / sim.total_cycles as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "analytic/sim ratio {ratio} out of range"
        );
    }

    #[test]
    fn unusable_device_is_rejected() {
        let mut dev = pynq_z1();
        dev.dsp = 0;
        let b = bundle_by_id(BundleId(1)).unwrap();
        assert!(calibrate_bundle(&b, &dev).is_err());
    }

    #[test]
    fn empty_sample_plan_errors() {
        let b = bundle_by_id(BundleId(1)).unwrap();
        let err = calibrate_bundle_with(&b, &pynq_z1(), &[], 32).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }));
    }
}
