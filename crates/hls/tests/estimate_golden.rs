//! Golden analytic estimates for every Bundle.
//!
//! Pins `estimate_point` (latency cycles and the four resources, or the
//! error) for all 18 Bundles, both quantization arms and a spread of
//! (`N`, `PF`) points, each Bundle under its own default calibration on
//! PYNQ-Z1. A fresh [`EstimatePlan`] must agree with every row. The
//! flow goldens price only the Bundles the paper flow selects; this
//! table covers the rest. To update after an *intentional* model
//! change, run:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p codesign-hls --test estimate_golden
//! ```
//!
//! and review the diff of `tests/golden/estimates.txt`.

use codesign_dnn::bundle::enumerate_bundles;
use codesign_dnn::quant::Activation;
use codesign_dnn::space::DesignPoint;
use codesign_hls::calibrate::calibrate_bundle;
use codesign_hls::incremental::EstimatePlan;
use codesign_hls::model::HlsEstimator;
use codesign_sim::device::pynq_z1;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/estimates.txt");

/// (`N`, `PF`) points; with the initial down-sampling vector, `N = 7`
/// over-downsamples some Bundles, so error rows are pinned too.
const POINTS: [(usize, usize); 5] = [(1, 16), (2, 32), (4, 100), (6, 256), (7, 512)];

fn table() -> String {
    let mut out = String::new();
    for bundle in enumerate_bundles() {
        let estimator =
            HlsEstimator::new(calibrate_bundle(&bundle, &pynq_z1()).unwrap(), pynq_z1());
        for activation in [Activation::Relu, Activation::Relu4] {
            for (n, pf) in POINTS {
                let mut point = DesignPoint::initial(bundle, n);
                point.activation = activation;
                point.parallel_factor = pf;
                let row = format!("{} {activation} n={n} pf={pf}", bundle.id());
                let full = estimator.estimate_point(&point);
                let planned = EstimatePlan::new(&estimator, &point).map(|plan| plan.estimate());
                assert_eq!(planned, full, "{row}");
                let _ = match full {
                    Ok(e) => writeln!(out, "{row}: {e}"),
                    Err(e) => writeln!(out, "{row}: error: {e}"),
                };
            }
        }
    }
    out
}

#[test]
fn estimates_match_golden_file() {
    let table = table();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &table).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden file missing — regenerate with \
         UPDATE_GOLDEN=1 cargo test -p codesign-hls --test estimate_golden",
    );
    for (line, (got, want)) in table.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "row {} drifted", line + 1);
    }
    assert_eq!(table.lines().count(), golden.lines().count());
}
