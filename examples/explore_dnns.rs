//! Full co-design exploration: the paper's headline use case.
//!
//! Runs the automatic flow of Fig. 1 end to end on a PYNQ-Z1 — coarse
//! Bundle evaluation, Pareto selection, SCD search per FPS target —
//! and prints the explored candidates and the winning design per
//! target, like Fig. 6. The config is a struct update over the paper's
//! setup, which the run validates first; results go through the output
//! accessors, so this example and the job server share one
//! presentation path.
//!
//! Run with: `cargo run --release --example explore_dnns`

use fpga_dnn_codesign::core::flow::{CoDesignFlow, FlowConfig};
use fpga_dnn_codesign::sim::device::pynq_z1;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = FlowConfig {
        targets_fps: vec![10.0, 15.0, 20.0],
        candidates_per_bundle: 3,
        coarse_pf_sweep: vec![16],
        ..FlowConfig::for_device(pynq_z1())
    };
    let flow = CoDesignFlow::new(config);
    println!(
        "exploring DNNs for {:?} FPS targets at {} MHz on {}",
        flow.config().targets_fps,
        flow.config().clock_mhz,
        flow.config().device
    );

    let out = flow.run()?;
    println!(
        "\nbundles selected by coarse evaluation: {:?}",
        out.selected_bundle_ids()
    );
    println!(
        "candidates meeting a target band: {}",
        out.candidate_count()
    );

    println!(
        "\n{:>9} {:>20} {:>8} {:>9}",
        "target", "design", "FPS", "IoU(est)"
    );
    for &target in &flow.config().targets_fps {
        for c in out.candidates_for(target) {
            println!(
                "{:>9.0} {:>20} {:>8.1} {:>9.3}",
                target,
                format!("{} x{}", c.point.bundle.id(), c.point.n_replications),
                1000.0 / c.latency_ms,
                c.accuracy
            );
        }
    }

    println!("\n{}", out.summary());

    println!("resource utilization per winning design:");
    for d in &out.designs {
        println!(
            "  {:>4.0} FPS target -> {}",
            d.target_fps,
            d.report.utilization(&flow.config().device.budget()),
        );
    }
    Ok(())
}
