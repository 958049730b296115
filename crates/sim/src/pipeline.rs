//! The tile-based pipeline scheduler of Tile-Arch.
//!
//! The scheduler reproduces the three architectural features of the
//! paper's accelerator template (Sec. 4.3):
//!
//! * **Layer-level IP reuse** — the accelerator instantiates one IP per
//!   layer *type* and computes the DNN's layers sequentially on the
//!   folded structure, so resources are the union of the IP instances,
//!   not one engine per layer.
//! * **Tile-level IP reuse** — intermediate feature maps are split into
//!   tiles of a common size; an IP processes a layer tile by tile, and
//!   tiles flow between the IPs of consecutive layers through on-chip
//!   BRAM buffers without DRAM round-trips.
//! * **Tile-level pipelining** — tiles carry no cross-tile dependencies,
//!   so the IPs of a Bundle form a pipeline over the tile stream. The
//!   pipeline's makespan is that of the classic dependency recurrence
//!   `finish[s][t] = max(finish[s-1][t], finish[s][t-1]) + cycles[s]`,
//!   which the scheduler evaluates in closed form,
//!   `Σ cycles + (tiles − 1) · max cycles`, since every tile costs the
//!   same.
//!
//! Inter-Bundle traffic (Bundle inputs and outputs) goes through DRAM at
//! the device's bandwidth; intra-Bundle traffic stays in BRAM. Weights
//! stream in once per Bundle pass and half of the load is hidden behind
//! the previous group's compute (double buffering).
//!
//! Every design uses the same [`TILE_H`]` x `[`TILE_W`] tile. The tile
//! geometry ([`group_tiles`], [`layer_tile`], [`tile_elems`]) and the
//! Eq. 1 resource rule ([`resources_of`]) are written here once; the
//! analytic estimator in `codesign-hls` prices pipeline groups with the
//! same functions.

use crate::device::FpgaDevice;
use crate::error::SimError;
use crate::ip::{IpInstance, IpKind};
use crate::report::{LayerCycles, ResourceUsage, SimReport};
use codesign_dnn::layer::LayerOp;
use codesign_dnn::quant::Quantization;
use codesign_dnn::space::DesignPoint;
use codesign_dnn::{Dnn, LayerInstance, TensorShape};
use std::fmt::Write as _;

/// Spatial tile height of every design (on the post-stem 180x320
/// feature map a 10x20 tile yields an 18x16 tile grid; the tile is
/// sized so deep, channel-wide layers still fit the BRAM data buffers).
pub const TILE_H: usize = 10;
/// Spatial tile width of every design (see [`TILE_H`]).
pub const TILE_W: usize = 20;

/// Lane-balancing divisor for depth-wise engines: a depth-wise layer
/// performs `~out_channels/k^2` times less work than the point-wise
/// convolution it feeds, so Tile-Arch provisions the depth-wise engine
/// with `PF / DW_LANE_DIVISOR` lanes to balance the pipeline stages —
/// the "DNN-aware" accelerator optimization of the top-down flow.
pub const DW_LANE_DIVISOR: usize = 8;

/// Accelerator configuration: the hardware-side variables of Table 1
/// (shared parallel factor and quantization; the tile is the fixed
/// [`TILE_H`]` x `[`TILE_W`]).
///
/// # Example
///
/// ```
/// use codesign_sim::pipeline::AccelConfig;
/// use codesign_dnn::quant::Quantization;
///
/// let cfg = AccelConfig::new(64, Quantization::Int8);
/// assert_eq!(cfg.dw_parallel_factor(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccelConfig {
    /// Shared parallel factor of the convolution engines.
    pub pf: usize,
    /// Quantization scheme of weights and feature maps.
    pub quant: Quantization,
}

impl AccelConfig {
    /// Creates a configuration.
    pub fn new(pf: usize, quant: Quantization) -> Self {
        Self { pf, quant }
    }

    /// Derives the configuration from a design point (PF and activation
    /// / quantization are co-design variables).
    pub fn for_point(point: &DesignPoint) -> Self {
        Self::new(point.parallel_factor, point.quantization())
    }

    /// Lane count of the depth-wise engine after pipeline balancing.
    pub fn dw_parallel_factor(&self) -> usize {
        (self.pf / DW_LANE_DIVISOR).max(4)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a zero parallel factor.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.pf == 0 {
            return Err(SimError::InvalidConfig {
                reason: "zero parallel factor".into(),
            });
        }
        Ok(())
    }

    /// The IP instance serving a layer operator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedLayer`] for operators outside the
    /// IP pool.
    pub fn instance_for(&self, op: &LayerOp) -> Result<IpInstance, SimError> {
        Ok(self.instance_for_kind(IpKind::for_op(op)?))
    }

    /// The IP instance this configuration provisions for an IP template
    /// kind: full `PF` for convolution engines, the lane-balanced
    /// [`dw_parallel_factor`](Self::dw_parallel_factor) for depth-wise
    /// engines, and fixed LUT-level lanes for pooling / element-wise
    /// engines. [`instance_for`](Self::instance_for) delegates here, so
    /// resource accounting by layer and by kind can never disagree.
    pub fn instance_for_kind(&self, kind: IpKind) -> IpInstance {
        let pf = match kind {
            IpKind::Conv { .. } => self.pf,
            IpKind::DwConv { .. } => self.dw_parallel_factor(),
            IpKind::Pool | IpKind::Elementwise => 8,
        };
        IpInstance::new(kind, pf, self.quant)
    }
}

/// The tile grid of a pipeline group whose first layer reads `input`:
/// `(rows, columns)` of [`TILE_H`]` x `[`TILE_W`] tiles, at least one
/// each. Every layer of the group processes that many tiles.
pub fn group_tiles(input: TensorShape) -> (usize, usize) {
    (
        input.h.div_ceil(TILE_H).max(1),
        input.w.div_ceil(TILE_W).max(1),
    )
}

/// The tile `layer` computes inside a group tiled `(rows, columns)`
/// ways: its own output map split over the group's grid (a
/// down-sampling layer's tiles shrink with its map), at least 1x1.
pub fn layer_tile(layer: &LayerInstance, (rows, columns): (usize, usize)) -> (usize, usize) {
    let out = layer.output;
    (
        out.h.div_ceil(rows).clamp(1, out.h),
        out.w.div_ceil(columns).clamp(1, out.w),
    )
}

/// Elements of `layer`'s (input + output) tile: what the ping-pong data
/// buffers of Eq. 1 must hold for it.
pub fn tile_elems(layer: &LayerInstance) -> u64 {
    let tile = |s: TensorShape| TILE_H.min(s.h) * TILE_W.min(s.w) * s.c;
    (tile(layer.input) + tile(layer.output)) as u64
}

/// Bytes of one 18 Kbit BRAM block.
const BRAM_BLOCK_BYTES: u64 = 18 * 1024 / 8;

/// Number of 18 Kbit BRAM blocks needed to hold `bytes` bytes.
fn bram_blocks(bytes: u64) -> u64 {
    bytes.div_ceil(BRAM_BLOCK_BYTES)
}

/// BRAM blocks of the ping-pong tile data buffers: the largest
/// (input + output) tile footprint plus half a buffer of overlap — the
/// next tile streams into the half being drained, so the ping-pong
/// overhead is a factor 1.5, not a full second copy.
fn tile_buffer_blocks(max_tile_bytes: u64) -> u64 {
    bram_blocks(max_tile_bytes + max_tile_bytes / 2)
}

/// Control-logic overhead of the accelerator (the `Γ` term of Eq. 1):
/// FSMs, DMA descriptors and the multiplexers that grow with the number
/// of distinct IP instances.
fn control_overhead(distinct_ips: usize) -> ResourceUsage {
    ResourceUsage {
        dsp: 0,
        lut: 1_800 + 150 * distinct_ips as u64,
        ff: 2_500,
        bram_18k: 4,
    }
}

/// Eq. 1 without the control weight `γ` of Eq. 5: one IP instance per
/// distinct kind in `kinds` (layer-level reuse), the shared weight
/// buffer sized for the largest layer's `max_params` weights, the
/// ping-pong tile data buffers sized for the largest
/// [`tile_elems`] footprint, both at `cfg`'s quantization width, and
/// the control overhead `Γ`. [`accelerator_resources`] and the analytic
/// estimator in `codesign-hls` both price a design with it.
pub fn resources_of(
    kinds: &[IpKind],
    max_params: u64,
    max_tile_elems: u64,
    cfg: &AccelConfig,
) -> ResourceUsage {
    let qbytes = cfg.quant.bytes() as u64;
    let mut total = ResourceUsage::zero();
    for &kind in kinds {
        total += cfg.instance_for_kind(kind).resources();
    }
    total.bram_18k +=
        bram_blocks(max_params * qbytes) + tile_buffer_blocks(max_tile_elems * qbytes);
    total + control_overhead(kinds.len())
}

/// Computes the accelerator's total resource usage for a DNN
/// ([`resources_of`] over its layers).
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for an invalid `cfg` and
/// [`SimError::UnsupportedLayer`] for an operator outside the IP pool.
pub fn accelerator_resources(dnn: &Dnn, cfg: &AccelConfig) -> Result<ResourceUsage, SimError> {
    cfg.validate()?;
    let mut kinds: Vec<IpKind> = Vec::new();
    let mut max_params = 0;
    let mut max_tile_elems = 0;
    for layer in dnn.layers() {
        let kind = IpKind::for_op(&layer.op)?;
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
        max_params = max_params.max(layer.op.params(layer.input));
        max_tile_elems = max_tile_elems.max(tile_elems(layer));
    }
    Ok(resources_of(&kinds, max_params, max_tile_elems, cfg))
}

/// Makespan of `n_tiles` identical tiles through a pipeline whose stage
/// `s` takes `stage_cycles[s]` cycles per tile: the last stage's finish
/// time under `finish[s][t] = max(finish[s-1][t], finish[s][t-1]) + c[s]`.
///
/// Every tile costs the same, so the recurrence has the closed form
/// `Σ c + (n_tiles − 1) · max c`, exact in integers. By induction over
/// the stages: the finish times of one stage are its first tile's
/// finish plus `(t − 1)` times the slowest stage so far, because a
/// stage faster than its predecessor waits on it and a slower one is
/// back to back with itself. No stages or no tiles take no time.
fn tile_pipeline_makespan(stage_cycles: &[u64], n_tiles: u64) -> u64 {
    if n_tiles == 0 {
        return 0;
    }
    let sum: u64 = stage_cycles.iter().sum();
    let max = stage_cycles.iter().copied().max().unwrap_or(0);
    sum + (n_tiles - 1) * max
}

/// Simulates one inference of `dnn` on the Tile-Arch accelerator.
///
/// The report is produced even when the design overflows the device's
/// resources — the co-design loop needs estimates for infeasible points
/// too; use [`FpgaDevice::check_fit`] on `report.resources` to test
/// feasibility.
///
/// # Errors
///
/// Returns [`SimError::InvalidDevice`] / [`SimError::InvalidConfig`] for
/// unusable inputs and [`SimError::UnsupportedLayer`] when the DNN uses
/// an operator outside the IP pool.
pub fn simulate(dnn: &Dnn, cfg: &AccelConfig, device: &FpgaDevice) -> Result<SimReport, SimError> {
    device.validate()?;
    cfg.validate()?;
    let resources = accelerator_resources(dnn, cfg)?;
    let bw = device.dram_bytes_per_cycle;
    let qbytes = cfg.quant.bytes() as u64;

    let mut total_cycles: u64 = 0;
    let mut compute_cycles: u64 = 0;
    let mut exposed_memory: u64 = 0;
    let mut dram_bytes: u64 = 0;
    let mut ideal_mac_cycles: u64 = 0;
    let mut layer_cycles = Vec::new();
    let mut prev_group_compute: u64 = 0;
    let mut stage_cycles: Vec<u64> = Vec::new();

    // Pipeline groups: one per Bundle replication, with stem and head
    // layers forming their own groups.
    for group in dnn.layers().chunk_by(|a, b| a.bundle_rep == b.bundle_rep) {
        let first = group.first().expect("groups are non-empty");
        let last = group.last().expect("groups are non-empty");

        let in_shape = first.input;
        let out_shape = last.output;
        let grid = group_tiles(in_shape);
        let n_tiles = (grid.0 * grid.1) as u64;

        // Per-stage per-tile cycle cost. Stage 0 loads the input tile
        // from DRAM, the final stage writes the output tile back:
        // inter-Bundle traffic through DRAM, intra-Bundle through BRAM.
        let in_tile_bytes = (in_shape.elements() as u64 * qbytes).div_ceil(n_tiles);
        let out_tile_bytes = (out_shape.elements() as u64 * qbytes).div_ceil(n_tiles);
        stage_cycles.clear();
        stage_cycles.push((in_tile_bytes as f64 / bw).ceil() as u64);
        let mut group_weight_load: u64 = 0;
        let mut group_compute_per_tile: u64 = 0;
        for layer in group {
            let ip = cfg.instance_for(&layer.op)?;
            let (th, tw) = layer_tile(layer, grid);
            let cycles = ip.invocation_cycles(&layer.op, th, tw, layer.input.c, layer.output.c);
            stage_cycles.push(cycles);
            group_compute_per_tile += cycles;
            group_weight_load += ip.weight_load_cycles(&layer.op, layer.input, bw);
            // Ideal MAC-bound cycles, for DSP activity accounting.
            let lanes = match ip.kind {
                IpKind::Conv { .. } | IpKind::DwConv { .. } => ip.pf as u64,
                _ => 0,
            };
            if lanes > 0 {
                ideal_mac_cycles += layer.macs().div_ceil(lanes);
            }
        }
        stage_cycles.push((out_tile_bytes as f64 / bw).ceil() as u64);

        let pipeline_cycles = tile_pipeline_makespan(&stage_cycles, n_tiles);

        // Weight streaming: double-buffered, half hidden behind the
        // previous group's compute.
        let visible_weight_load = group_weight_load
            .saturating_sub(prev_group_compute / 2)
            .max(group_weight_load / 2);

        let group_total = pipeline_cycles + visible_weight_load;
        total_cycles += group_total;
        let group_compute = group_compute_per_tile * n_tiles;
        compute_cycles += group_compute;
        exposed_memory += group_total.saturating_sub(group_compute.min(group_total));
        dram_bytes +=
            in_tile_bytes * n_tiles + out_tile_bytes * n_tiles + group_weight_load * bw as u64;
        prev_group_compute = group_compute;

        let mut op = String::new();
        for (i, layer) in group.iter().enumerate() {
            let sep = if i == 0 { "" } else { " + " };
            let _ = write!(op, "{sep}{}", layer.op);
        }
        layer_cycles.push(LayerCycles {
            layer: layer_cycles.len(),
            op,
            compute_cycles: group_compute,
            memory_cycles: group_total.saturating_sub(group_compute.min(group_total)),
            total_cycles: group_total,
        });
    }

    let dsp_activity = if total_cycles == 0 {
        0.0
    } else {
        (ideal_mac_cycles as f64 / total_cycles as f64).min(1.0)
    };

    Ok(SimReport {
        total_cycles,
        compute_cycles,
        exposed_memory_cycles: exposed_memory,
        dram_bytes,
        resources,
        layer_cycles,
        dsp_activity,
    })
}

/// Simulates and additionally checks the design fits the device.
///
/// # Errors
///
/// In addition to [`simulate`]'s errors, returns
/// [`SimError::ResourceOverflow`] when the accelerator exceeds the
/// device budget.
pub fn synthesize(
    dnn: &Dnn,
    cfg: &AccelConfig,
    device: &FpgaDevice,
) -> Result<SimReport, SimError> {
    let report = simulate(dnn, cfg, device)?;
    device.check_fit(&report.resources)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{pynq_z1, ultra96};
    use codesign_dnn::builder::DnnBuilder;
    use codesign_dnn::bundle::{bundle_by_id, BundleId};
    use codesign_dnn::quant::Activation;
    use proptest::prelude::*;

    fn dnn_for(id: usize, reps: usize, pf: usize, act: Activation) -> Dnn {
        let b = bundle_by_id(BundleId(id)).unwrap();
        let mut p = DesignPoint::initial(b, reps);
        p.parallel_factor = pf;
        p.activation = act;
        DnnBuilder::new().build(&p).unwrap()
    }

    /// The tile-by-tile recurrence [`tile_pipeline_makespan`] replaces.
    fn makespan_by_recurrence(stage_cycles: &[u64], n_tiles: u64) -> u64 {
        let mut finish = vec![0u64; stage_cycles.len()];
        for _tile in 0..n_tiles {
            let mut prev_stage_finish = 0u64;
            for (s, &c) in stage_cycles.iter().enumerate() {
                finish[s] = prev_stage_finish.max(finish[s]) + c;
                prev_stage_finish = finish[s];
            }
        }
        finish.last().copied().unwrap_or(0)
    }

    #[test]
    fn makespan_edge_cases_match_recurrence() {
        let cases: [(&[u64], u64); 8] = [
            (&[], 4),
            (&[5, 9], 0),
            (&[7], 1),
            (&[7], 300),
            (&[0, 0, 0], 9),
            (&[3, 9, 9, 2], 256),
            (&[9, 3, 9], 2),
            (&[0, 4, 0], 1024),
        ];
        for (stages, n_tiles) in cases {
            assert_eq!(
                tile_pipeline_makespan(stages, n_tiles),
                makespan_by_recurrence(stages, n_tiles),
                "{stages:?} x {n_tiles}"
            );
        }
    }

    #[test]
    fn simulation_produces_positive_latency() {
        let dnn = dnn_for(13, 4, 64, Activation::Relu4);
        let cfg = AccelConfig::new(64, Quantization::Int8);
        let r = simulate(&dnn, &cfg, &pynq_z1()).unwrap();
        assert!(r.total_cycles > 0);
        assert!(r.latency_ms(100.0) > 0.0);
        assert!(r.dram_bytes > 0);
    }

    #[test]
    fn higher_pf_is_faster_and_bigger() {
        let slow_dnn = dnn_for(13, 4, 16, Activation::Relu4);
        let fast_dnn = dnn_for(13, 4, 128, Activation::Relu4);
        let slow = simulate(
            &slow_dnn,
            &AccelConfig::new(16, Quantization::Int8),
            &pynq_z1(),
        )
        .unwrap();
        let fast = simulate(
            &fast_dnn,
            &AccelConfig::new(128, Quantization::Int8),
            &pynq_z1(),
        )
        .unwrap();
        assert!(fast.total_cycles < slow.total_cycles);
        assert!(fast.resources.dsp > slow.resources.dsp);
    }

    #[test]
    fn int16_doubles_dsp_pressure() {
        let dnn8 = dnn_for(1, 3, 64, Activation::Relu4);
        let dnn16 = dnn_for(1, 3, 64, Activation::Relu);
        let r8 = simulate(&dnn8, &AccelConfig::new(64, Quantization::Int8), &pynq_z1()).unwrap();
        let r16 = simulate(
            &dnn16,
            &AccelConfig::new(64, Quantization::Int16),
            &pynq_z1(),
        )
        .unwrap();
        assert!(r16.resources.dsp > r8.resources.dsp);
        assert!(r16.dram_bytes > r8.dram_bytes);
    }

    #[test]
    fn deeper_dnn_takes_longer() {
        let cfg = AccelConfig::new(64, Quantization::Int8);
        let short = simulate(&dnn_for(13, 2, 64, Activation::Relu4), &cfg, &pynq_z1()).unwrap();
        let long = simulate(&dnn_for(13, 5, 64, Activation::Relu4), &cfg, &pynq_z1()).unwrap();
        assert!(long.total_cycles > short.total_cycles);
    }

    #[test]
    fn pipelining_beats_sequential_execution() {
        // The pipelined makespan must be below the sum of all stage
        // costs over all tiles (which is what a non-pipelined folded
        // design would pay).
        let dnn = dnn_for(13, 3, 64, Activation::Relu4);
        let cfg = AccelConfig::new(64, Quantization::Int8);
        let r = simulate(&dnn, &cfg, &pynq_z1()).unwrap();
        assert!(r.total_cycles < r.compute_cycles + r.dram_bytes);
    }

    #[test]
    fn zero_bandwidth_device_rejected() {
        let mut dev = pynq_z1();
        dev.dram_bytes_per_cycle = 0.0;
        let dnn = dnn_for(1, 2, 16, Activation::Relu);
        let err = simulate(&dnn, &AccelConfig::new(16, Quantization::Int16), &dev).unwrap_err();
        assert!(matches!(err, SimError::InvalidDevice { .. }));
    }

    #[test]
    fn zero_parallel_factor_rejected() {
        let dnn = dnn_for(1, 2, 16, Activation::Relu);
        let cfg = AccelConfig::new(0, Quantization::Int16);
        assert!(matches!(
            simulate(&dnn, &cfg, &pynq_z1()),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn synthesize_rejects_oversized_designs() {
        // PF 512 in int16 wants ~512 DSPs for the conv engine alone.
        let dnn = dnn_for(10, 4, 512, Activation::Relu);
        let cfg = AccelConfig::new(512, Quantization::Int16);
        let err = synthesize(&dnn, &cfg, &pynq_z1()).unwrap_err();
        assert!(matches!(err, SimError::ResourceOverflow { .. }));
    }

    #[test]
    fn bigger_device_fits_what_pynq_cannot() {
        let dnn = dnn_for(10, 2, 128, Activation::Relu);
        let cfg = AccelConfig::new(128, Quantization::Int16);
        assert!(synthesize(&dnn, &cfg, &pynq_z1()).is_err());
        assert!(synthesize(&dnn, &cfg, &ultra96()).is_ok());
    }

    #[test]
    fn dsp_activity_is_a_fraction() {
        let dnn = dnn_for(13, 4, 64, Activation::Relu4);
        let r = simulate(&dnn, &AccelConfig::new(64, Quantization::Int8), &pynq_z1()).unwrap();
        assert!(r.dsp_activity > 0.0 && r.dsp_activity <= 1.0);
    }

    #[test]
    fn group_breakdown_covers_model() {
        let dnn = dnn_for(13, 3, 64, Activation::Relu4);
        let r = simulate(&dnn, &AccelConfig::new(64, Quantization::Int8), &pynq_z1()).unwrap();
        // stem group + 3 bundle groups + head group.
        assert_eq!(r.layer_cycles.len(), 5);
    }

    #[test]
    fn group_labels_join_their_layers() {
        // A replication group's label joins its layers with " + ", and
        // the chart prints it cut to 28 columns.
        let dnn = dnn_for(13, 3, 64, Activation::Relu4);
        let r = simulate(&dnn, &AccelConfig::new(64, Quantization::Int8), &pynq_z1()).unwrap();
        assert_eq!(
            r.layer_cycles[1].op,
            "dw-conv3x3 + batchnorm + relu4 + conv1x1(32) + batchnorm + relu4 + max-pool2x2"
        );
        assert_eq!(
            r.gantt(60),
            "conv3x3(32) + batchnorm + re |##############################| 3140237 cyc\n\
             dw-conv3x3 + batchnorm + rel |####################| 2088132 cyc\n\
             dw-conv3x3 + batchnorm + rel |#####| 532964 cyc\n\
             dw-conv3x3 + batchnorm + rel |#####| 486923 cyc\n\
             conv1x1(4) + global-avg-pool |#| 47596 cyc\n"
        );
    }

    #[test]
    fn gantt_renders_one_bar_per_group() {
        let dnn = dnn_for(13, 3, 64, Activation::Relu4);
        let r = simulate(&dnn, &AccelConfig::new(64, Quantization::Int8), &pynq_z1()).unwrap();
        let chart = r.gantt(60);
        assert_eq!(chart.lines().count(), r.layer_cycles.len());
        assert!(chart.contains('#'));
        // Bars sum (approximately) to the requested width.
        let bar_cells: usize = chart.matches(['#', '-']).count();
        assert!((55..=70).contains(&bar_cells), "bar cells {bar_cells}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_closed_form_makespan_matches_recurrence(
            digits in prop::collection::vec(0u64..6, 1..12),
            scale in 0usize..3,
            n_tiles in 1u64..=1024,
        ) {
            // Small digits make zero stages and ties for the slowest
            // stage common; the scales reach real stage cycle counts.
            let unit = [1, 37, 100_003][scale];
            let stages: Vec<u64> = digits.iter().map(|d| d * unit).collect();
            prop_assert_eq!(
                tile_pipeline_makespan(&stages, n_tiles),
                makespan_by_recurrence(&stages, n_tiles)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_all_bundles_simulate(id in 1usize..=18, reps in 1usize..4) {
            let dnn = dnn_for(id, reps, 32, Activation::Relu4);
            let cfg = AccelConfig::new(32, Quantization::Int8);
            let r = simulate(&dnn, &cfg, &pynq_z1()).unwrap();
            prop_assert!(r.total_cycles > 0);
            prop_assert!(r.resources.dsp > 0);
        }

        #[test]
        fn prop_latency_monotone_in_bandwidth(id in 1usize..=18) {
            let dnn = dnn_for(id, 2, 32, Activation::Relu4);
            let cfg = AccelConfig::new(32, Quantization::Int8);
            let mut fast_dev = pynq_z1();
            fast_dev.dram_bytes_per_cycle *= 4.0;
            let slow = simulate(&dnn, &cfg, &pynq_z1()).unwrap();
            let fast = simulate(&dnn, &cfg, &fast_dev).unwrap();
            prop_assert!(fast.total_cycles <= slow.total_cycles);
        }

        #[test]
        fn prop_resources_independent_of_reps_weights_aside(reps in 1usize..5) {
            // Layer-level IP reuse: adding replications must not add IP
            // instances (only buffers may grow with wider layers).
            let a = accelerator_resources(
                &dnn_for(13, reps, 64, Activation::Relu4),
                &AccelConfig::new(64, Quantization::Int8),
            ).unwrap();
            let b = accelerator_resources(
                &dnn_for(13, reps + 1, 64, Activation::Relu4),
                &AccelConfig::new(64, Quantization::Int8),
            ).unwrap();
            prop_assert_eq!(a.dsp, b.dsp);
            prop_assert!(b.bram_18k >= a.bram_18k);
        }
    }
}
