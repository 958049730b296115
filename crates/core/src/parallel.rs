//! Deterministic work queue for the co-design flow.
//!
//! The implementation lives in the [`codesign_parallel`] base crate.
//! This module re-exports the whole surface under the historical
//! `codesign_core::parallel` path, so existing imports
//! (`codesign_core::parallel::Parallelism`, `parallel_map`,
//! `derive_seed`, …) keep compiling unchanged.

pub use codesign_parallel::*;
