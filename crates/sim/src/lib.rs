//! Tile-Arch accelerator simulator.
//!
//! This crate is the *hardware half* of the co-design reproduction: a
//! deterministic, cycle-approximate model of the paper's **Tile-Arch**
//! accelerator template (Sec. 4.3) standing in for Vivado HLS plus a
//! physical PYNQ-Z1 board. It provides exactly what the co-design loop
//! consumes from the hardware side — latency in cycles, resource usage,
//! and power — through the same feedback interface the paper's Auto-HLS
//! sampling uses.
//!
//! * [`device`] — FPGA device descriptions (PYNQ-Z1, Ultra96) with
//!   DSP / LUT / FF / BRAM budgets and DRAM bandwidth.
//! * [`ip`] — configurable IP instances (conv, depth-wise conv, pooling,
//!   element-wise) with parallel factor `PF` and quantization `Q`,
//!   giving per-tile cycle counts and resource footprints.
//! * [`pipeline`] — the tile-based pipeline scheduler: layer-level IP
//!   reuse, tile-level IP reuse and tile-level pipelining, with on-chip
//!   buffers in BRAM and inter-Bundle traffic through DRAM.
//! * [`power`] — utilization-proportional power and energy model
//!   (calibrated against the paper's POWER-Z measurements in Table 2).
//! * [`report`] — synthesis-style reports: cycles, latency at a clock,
//!   resource usage and utilization.
//!
//! # Example
//!
//! ```
//! use codesign_dnn::{bundle, builder::DnnBuilder, space::DesignPoint};
//! use codesign_sim::{device::pynq_z1, pipeline::{AccelConfig, simulate}};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let b = bundle::enumerate_bundles()[12];
//! let point = DesignPoint::initial(b, 3);
//! let dnn = DnnBuilder::new().build(&point)?;
//! let cfg = AccelConfig::for_point(&point);
//! let report = simulate(&dnn, &cfg, &pynq_z1())?;
//! assert!(report.total_cycles > 0);
//! println!("latency @100MHz: {:.1} ms", report.latency_ms(100.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod error;
pub mod ip;
pub mod pipeline;
pub mod power;
pub mod report;

pub use device::FpgaDevice;
pub use error::SimError;
pub use ip::IpInstance;
pub use pipeline::{simulate, AccelConfig};
pub use power::PowerModel;
pub use report::{CacheStats, ResourceUsage, SimReport};
