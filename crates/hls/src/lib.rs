//! Auto-HLS: automatic FPGA accelerator generation.
//!
//! The paper's **Auto-HLS** engine (Sec. 5.2.3) turns a DNN produced by
//! Auto-DNN into a board-level FPGA design and feeds
//! latency / resource numbers back into the search. This crate
//! reproduces its three roles:
//!
//! * [`codegen`] — emits synthesizable HLS-style C for a DNN following
//!   the Tile-Arch template: one function call per layer IP with weight
//!   loading and tile buffering, ready for `#pragma HLS` toolflows.
//! * [`model`] — the analytic latency and resource models of the paper's
//!   Eqs. 1-5: `Res_bund = Σ Res_j + Γ`, `Lat_bund = α·Σ Comp_j +
//!   β·Θ(Data)/bw`, `Lat_DNN = Σ Lat_bund + φ·Lat_DM`, `Res_DNN =
//!   Res_bund + γ·Res_ctl`. They are written once, as a per-group
//!   pricing and a fold over the groups, on top of sim's tile geometry
//!   and Eq. 1 rule; a full estimate folds freshly priced groups.
//! * [`incremental`] — the incremental estimation engine: an
//!   [`incremental::EstimatePlan`] elaborates a design point once into
//!   per-pipeline-group terms and re-prices only what an SCD move
//!   touched, with the model's own pricing and fold, bit-identical to
//!   the full estimate.
//! * [`calibrate`] — determines the model coefficients α, β, φ per
//!   Bundle by *Auto-HLS sampling*: a handful of sample designs are run
//!   through the Tile-Arch simulator (the stand-in for HLS synthesis +
//!   board measurement) and the coefficients are fit by least squares
//!   (`Γ` sits in the shared buffer terms, and `γ` is 1 against the
//!   simulator).
//!
//! # Example
//!
//! ```
//! use codesign_dnn::{bundle, space::DesignPoint};
//! use codesign_sim::device::pynq_z1;
//! use codesign_hls::calibrate::calibrate_bundle;
//! use codesign_hls::model::HlsEstimator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bundle = bundle::enumerate_bundles()[12];
//! let device = pynq_z1();
//! let params = calibrate_bundle(&bundle, &device)?;
//! let estimator = HlsEstimator::new(params, device);
//! let point = DesignPoint::initial(bundle, 4);
//! let est = estimator.estimate_point(&point)?;
//! assert!(est.latency_cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod calibrate;
pub mod codegen;
pub mod incremental;
pub mod model;
pub mod store;

pub use cache::EstimateCache;
pub use calibrate::{calibrate_bundle, CalibratedParams};
pub use codegen::CodeGenerator;
pub use incremental::{EstimatePlan, MoveCoord};
pub use model::{Estimate, HlsEstimator};
pub use store::EstimateStore;
