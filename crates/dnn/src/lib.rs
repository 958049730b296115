//! DNN intermediate representation for FPGA/DNN co-design.
//!
//! This crate implements the *software half* of the co-design space from
//! the DAC'19 paper "FPGA/DNN Co-Design: An Efficient Design Methodology
//! for IoT Intelligence on the Edge" (Hao, Zhang, et al.):
//!
//! * [`layer`] — the DNN layer operators backed by configurable hardware
//!   IP templates (convolution, depth-wise convolution, pooling,
//!   normalization, activation) together with shape inference and
//!   MAC / parameter accounting.
//! * [`quant`] — quantization schemes. The paper couples the activation
//!   function choice (`Relu` / `Relu4` / `Relu8`) with the feature-map
//!   bit-width (16-bit / 8-bit), which in turn decides how many
//!   multiply-accumulate lanes a DSP slice can host.
//! * [`bundle`] — *Bundle-Arch*: the hardware-aware DNN building-block
//!   template (Fig. 2 of the paper) and the offline enumeration of the
//!   18 Bundle candidates used in the paper's experiments.
//! * [`space`] — the co-design space variables of Table 1: Bundle
//!   choice, replication count `N`, channel-expansion vector `Π`,
//!   down-sampling vector `X`, parallel factor `PF`, quantization `Q`.
//! * [`builder`] — bottom-up DNN construction: a [`space::DesignPoint`]
//!   is elaborated into a concrete [`Dnn`] with a stem, `N` Bundle
//!   replications, down-sampling spots, channel expansion and a
//!   bounding-box detection head.
//!
//! # Example
//!
//! ```
//! use codesign_dnn::{bundle, builder::DnnBuilder, space::DesignPoint};
//!
//! # fn main() -> Result<(), codesign_dnn::DnnError> {
//! // Bundle 13 of the paper: <dw-conv3x3 + conv1x1>.
//! let bundles = bundle::enumerate_bundles();
//! let point = DesignPoint::initial(bundles[12], 4);
//! let dnn = DnnBuilder::new().build(&point)?;
//! assert!(dnn.total_macs() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod bundle;
pub mod error;
pub mod layer;
pub mod quant;
pub mod space;

mod dnn;

pub use builder::DnnBuilder;
pub use bundle::{Bundle, BundleId};
pub use dnn::{Dnn, LayerInstance};
pub use error::DnnError;
pub use layer::{LayerOp, TensorShape};
pub use quant::{Activation, Quantization};
pub use space::DesignPoint;
