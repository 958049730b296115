//! Failure injection across crate boundaries: degenerate devices,
//! infeasible constraints and malformed designs must fail loudly with
//! typed errors, never silently succeed.

use codesign_core::accuracy::AccuracyModel;
use codesign_core::flow::{CoDesignFlow, FlowConfig, FlowError};
use codesign_core::search::{scd_search, ScdConfig};
use codesign_dnn::builder::DnnBuilder;
use codesign_dnn::bundle::{bundle_by_id, Bundle, BundleId};
use codesign_dnn::error::DnnError;
use codesign_dnn::quant::Activation;
use codesign_dnn::space::DesignPoint;
use codesign_hls::calibrate::calibrate_bundle;
use codesign_hls::model::HlsEstimator;
use codesign_sim::device::pynq_z1;
use codesign_sim::error::SimError;
use codesign_sim::pipeline::{simulate, synthesize, AccelConfig};

#[test]
fn zero_bandwidth_device_is_rejected_everywhere() {
    let mut dev = pynq_z1();
    dev.dram_bytes_per_cycle = 0.0;
    let b = bundle_by_id(BundleId(1)).unwrap();
    let point = DesignPoint::initial(b, 2);
    let dnn = DnnBuilder::new().build(&point).unwrap();
    assert!(matches!(
        simulate(&dnn, &AccelConfig::for_point(&point), &dev),
        Err(SimError::InvalidDevice { .. })
    ));
    assert!(calibrate_bundle(&b, &dev).is_err());
}

#[test]
fn empty_bundle_cannot_exist() {
    assert_eq!(
        Bundle::new(BundleId(1), vec![]).unwrap_err(),
        DnnError::EmptyBundle
    );
}

#[test]
fn over_downsampled_design_fails_at_elaboration() {
    let b = bundle_by_id(BundleId(3)).unwrap(); // conv5x5 needs 5x5 maps
    let mut point = DesignPoint::initial(b, 10);
    point.downsample = vec![true; 10];
    point.expansion = vec![1.0; 10];
    let err = DnnBuilder::new().build(&point).unwrap_err();
    assert!(matches!(err, DnnError::ShapeMismatch { .. }));
}

#[test]
fn oversized_accelerator_fails_synthesis_not_simulation() {
    let b = bundle_by_id(BundleId(10)).unwrap();
    let mut point = DesignPoint::initial(b, 3);
    point.parallel_factor = 512;
    let dnn = DnnBuilder::new().build(&point).unwrap();
    let cfg = AccelConfig::for_point(&point);
    // Simulation still reports numbers (the search needs estimates for
    // infeasible points)...
    let report = simulate(&dnn, &cfg, &pynq_z1()).unwrap();
    assert!(report.total_cycles > 0);
    // ...but synthesis enforces the budget.
    assert!(matches!(
        synthesize(&dnn, &cfg, &pynq_z1()),
        Err(SimError::ResourceOverflow { .. })
    ));
}

#[test]
fn scd_with_impossible_target_terminates_empty() {
    let b = bundle_by_id(BundleId(13)).unwrap();
    let params = calibrate_bundle(&b, &pynq_z1()).unwrap();
    let est = HlsEstimator::new(params, pynq_z1());
    let found = scd_search(
        &b,
        &est,
        &AccuracyModel::paper_calibrated(),
        &ScdConfig {
            latency_target_ms: 1e-6,
            tolerance_ms: 1e-7,
            candidates: 3,
            max_iterations: 60,
            ..ScdConfig::default()
        },
        Activation::Relu,
    );
    assert!(found.is_empty());
}

#[test]
fn flow_without_targets_errors() {
    use fpga_dnn_codesign::core::flow::ConfigError;
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
fn invalid_design_points_never_elaborate() {
    let b = bundle_by_id(BundleId(1)).unwrap();
    for mutation in [
        |p: &mut DesignPoint| p.parallel_factor = 7,
        |p: &mut DesignPoint| p.expansion[0] = 3.0,
        |p: &mut DesignPoint| p.base_channels = 0,
        |p: &mut DesignPoint| p.downsample.push(true),
    ] {
        let mut point = DesignPoint::initial(b, 3);
        mutation(&mut point);
        assert!(
            DnnBuilder::new().build(&point).is_err(),
            "mutated point elaborated: {point:?}"
        );
    }
}
