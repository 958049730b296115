//! From-scratch neural-network runtime.
//!
//! The co-design flow of the paper trains every candidate DNN to obtain
//! its accuracy (Fig. 1 includes a "DNN training framework" fed by
//! Auto-DNN). This crate is that substrate, built from scratch in Rust:
//!
//! * [`tensor`] — a dense `f32` tensor: one image is `C x H x W`, a
//!   mini-batch is `N x C x H x W`.
//! * [`layers`] — forward and backward passes for every operator in the
//!   co-design IP pool: convolution, depth-wise convolution, max / avg
//!   pooling, folded batch-norm (scale + bias), the `Relu` / `Relu4` /
//!   `Relu8` activations and global average pooling.
//! * [`engine`], [`gemm`] — the compute engine: direct (implicit-GEMM)
//!   convolution kernels with a batch's images as the vector lanes
//!   (the image-interleaved layout of [`network::Lanes`]: one pixel of a
//!   channel is one vector of eight images), reading patch rows straight
//!   from the interleaved buffers, register-blocked over output channels,
//!   with a bit-reproducibility contract (direct or naive — same bits).
//!   Training never computes the gradient of the network input.
//! * [`simd`] — runtime-dispatched micro-kernels: the convolution and
//!   layer kernels in a baseline and an AVX2 build, selected once per
//!   process from CPU feature detection (override with
//!   `CODESIGN_SIMD=scalar|avx2`; `sse2` is an alias of `scalar`).
//!   Every level preserves the canonical accumulation order, so the
//!   bit-reproducibility contract survives the dispatch.
//! * [`mod@reference`] — the retained naive convolution, max-pooling,
//!   activation and scale-bias loops the fast kernels are verified
//!   against.
//! * [`network`] — compiles a [`codesign_dnn::Dnn`] into an executable,
//!   trainable network of Bundle stages (a convolution and the
//!   scale-bias, activation and max pooling after it, run as one pass
//!   each way); SGD with momentum.
//! * [`quantized`] — post-training int8 / int16 quantized inference.
//!   Besides the fake-quantized float path that mirrors the
//!   accelerator's rounding, the Int8 scheme compiles to a real integer
//!   engine: `i8` codes end-to-end as integer-valued floats on the same
//!   lanes and lane kernels, whose sums over codes are exact, with one
//!   requantization epilogue per layer.
//! * [`train`] — the training loop: mini-batch SGD on a bounding-box
//!   regression loss, matching the paper's 20-epoch proxy training;
//!   executes whole stacked mini-batches on every engine.
//!
//! One image and a batch run the same code: every layer op, the
//! network's forward and backward passes and the training loop take
//! either rank, and row `i` of a batch's result is bit-identical to
//! image `i` run alone. Each op has one compute kernel, over the
//! interleaved layout; a lone image runs as a batch of one, in one lane
//! of eight.
//!
//! # Example
//!
//! ```
//! use codesign_dnn::{bundle, builder::DnnBuilder, space::DesignPoint, TensorShape};
//! use codesign_nn::network::Network;
//! use codesign_nn::tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let b = bundle::enumerate_bundles()[12];
//! let dnn = DnnBuilder::new()
//!     .input(TensorShape::new(3, 32, 64))
//!     .build(&DesignPoint::initial(b, 2))?;
//! let mut net = Network::from_dnn(&dnn, 42)?;
//! let image = Tensor::zeros(&[3, 32, 64]);
//! let boxes = net.forward(&image);
//! assert_eq!(boxes.len(), 4); // (cx, cy, w, h)
//! // A stacked batch runs the same code: one output row per image.
//! let batch = net.forward(&Tensor::stack(&[image.clone(), image]));
//! assert_eq!(batch.shape(), &[2, 4]);
//! assert_eq!(batch.image(1), boxes.data());
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the SIMD micro-kernels in [`simd`] are
// the one sanctioned `unsafe` island (std::arch intrinsics behind
// runtime feature detection); everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod gemm;
mod lanes;
pub mod layers;
pub mod network;
mod qengine;
pub mod quantized;
pub mod reference;
mod scratch;
#[allow(unsafe_code)]
pub mod simd;
pub mod tensor;
pub mod train;

pub use engine::Engine;
pub use network::Network;
pub use quantized::QuantizedNetwork;
pub use simd::SimdLevel;
pub use tensor::Tensor;
pub use train::{TrainConfig, Trainer};
