//! Quickstart: one trip around the co-design loop by hand.
//!
//! Builds the paper's Bundle 13 (`<dw-conv3x3 + conv1x1>`), elaborates a
//! DNN from it, estimates latency and resources with the calibrated
//! Auto-HLS model, runs the full Tile-Arch simulation, and prints the
//! first lines of the generated synthesizable C.
//!
//! Run with: `cargo run --example quickstart`

use fpga_dnn_codesign::core::accuracy::AccuracyModel;
use fpga_dnn_codesign::core::pipeline::calibrate;
use fpga_dnn_codesign::dnn::builder::DnnBuilder;
use fpga_dnn_codesign::dnn::bundle::{bundle_by_id, BundleId};
use fpga_dnn_codesign::dnn::space::DesignPoint;
use fpga_dnn_codesign::hls::codegen::CodeGenerator;
use fpga_dnn_codesign::hls::model::HlsEstimator;
use fpga_dnn_codesign::sim::device::pynq_z1;
use fpga_dnn_codesign::sim::pipeline::{simulate, AccelConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = pynq_z1();
    println!("target device: {device}");

    // 1. Pick a Bundle and a design point (Table 1 variables).
    let bundle = bundle_by_id(BundleId(13)).expect("bundle 13 exists");
    let mut point = DesignPoint::initial(bundle, 4);
    point.parallel_factor = 96;
    println!("design point:  {point}");

    // 2. Elaborate the DNN bottom-up (Bundle-Arch).
    let dnn = DnnBuilder::new().build(&point)?;
    println!(
        "elaborated:    {} layers, {:.0} MMAC/frame, {:.0} KB weights",
        dnn.layer_count(),
        dnn.total_macs() as f64 / 1e6,
        dnn.weight_bytes() as f64 / 1024.0
    );

    // 3. Fast analytic estimate (Auto-HLS model, Eqs. 1-5).
    let params = calibrate(&bundle, &device)?;
    let estimator = HlsEstimator::new(params, device.clone());
    let estimate = estimator.estimate_point(&point)?;
    println!(
        "analytic:      {:.1} ms @100 MHz, {}",
        estimate.latency_ms(100.0),
        estimate.resources
    );

    // 4. Full Tile-Arch simulation (the stand-in for HLS + board).
    let cfg = AccelConfig::for_point(&point);
    let report = simulate(&dnn, &cfg, &device)?;
    println!(
        "simulated:     {:.1} ms @100 MHz ({:.1} FPS), utilization {}",
        report.latency_ms(100.0),
        report.fps(100.0),
        report.utilization(&device.budget())
    );

    println!("\npipeline-group timeline:");
    print!("{}", report.gantt(48));

    // 5. Estimated task accuracy.
    let iou = AccuracyModel::paper_calibrated().estimate(&point, &dnn);
    println!("estimated IoU: {:.3}", iou);

    // 6. Auto-HLS code generation.
    let code = CodeGenerator::new(cfg).generate(&dnn);
    println!("\nfirst lines of the generated accelerator C:");
    for line in code.lines().take(12) {
        println!("  {line}");
    }
    println!("  ... ({} lines total)", code.lines().count());
    Ok(())
}
