//! Experiment harness regenerating every table and figure of the paper,
//! plus the perf harness behind the `cargo bench` targets.
//!
//! Each experiment is a pure function returning structured rows; the
//! `exp_*` binaries print the paper artifact next to the measured one:
//!
//! | Paper artifact | Function | Binary |
//! |---|---|---|
//! | Fig. 4(a) | [`experiments::fig4`] (method#1) | `exp_fig4` |
//! | Fig. 4(b) | [`experiments::fig4`] (method#2) | `exp_fig4` |
//! | Fig. 5 | [`experiments::fig5`] | `exp_fig5` |
//! | Fig. 6 | [`experiments::fig6`] | `exp_fig6` |
//! | Table 2 | [`experiments::table2`] | `exp_table2` |
//! | Sec. 6 ablation | [`experiments::ablation`] | `exp_ablation` |
//!
//! The benches time the hot paths, not the artifacts. Each is a plain
//! `fn main()` over [`perf::measure`] and writes one committed
//! `BENCH_<name>.json` (see [`perf`]):
//!
//! | Bench | Arms | Record |
//! |---|---|---|
//! | `scd_search` | incremental vs full-rebuild SCD probes, warm-cache probes, one search, a small flow at 1 and 4 workers | `BENCH_scd.json` |
//! | `proxy_train` | proxy training on the reference kernels vs the direct kernels at 1 and 4 workers | `BENCH_proxy_train.json` |
//! | `quant` | float vs fake-quantized vs int8 forward | `BENCH_quant.json` |
//! | `serve` | job-server load waves at 1, 4 and 16 clients | `BENCH_serve.json` |
//! | `persist` | cold flow vs store warm start vs checkpoint resume | `BENCH_persist.json` |
//!
//! The binaries read the worker-thread knob from the
//! `CODESIGN_PARALLELISM` environment variable (see
//! [`experiments::parallelism_from_env`]); flow results are
//! bit-identical for any setting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod designs;
pub mod experiments;
pub mod perf;

pub use designs::{dnn1_point, dnn2_point, dnn3_point};
