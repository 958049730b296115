//! Synthesizable-C code generation.
//!
//! Auto-HLS "generates C code for FPGA accelerators, which can be
//! directly synthesized by HLS tools" (Sec. 5.2.3): since the IPs are
//! written in C, knowing the input / output dimensions of each IP and
//! feature map, it emits function calls for the IPs with the
//! corresponding weight-loading and data-buffering functions. The
//! generator here follows the same recipe and targets the Tile-Arch
//! template: a folded top function with one IP call per layer inside a
//! tile loop, ping-pong BRAM buffers, and `#pragma HLS` directives for
//! interfaces, pipelining and array partitioning.

use codesign_dnn::layer::LayerOp;
use codesign_dnn::quant::Quantization;
use codesign_dnn::Dnn;
use codesign_sim::pipeline::{group_tiles, AccelConfig, TILE_H, TILE_W};
use std::fmt::Write as _;

/// Generates HLS-style C for DNNs mapped onto Tile-Arch.
///
/// # Example
///
/// ```
/// use codesign_dnn::{bundle, builder::DnnBuilder, space::DesignPoint};
/// use codesign_sim::pipeline::AccelConfig;
/// use codesign_hls::CodeGenerator;
///
/// # fn main() -> Result<(), codesign_dnn::DnnError> {
/// let b = bundle::enumerate_bundles()[12];
/// let point = DesignPoint::initial(b, 2);
/// let dnn = DnnBuilder::new().build(&point)?;
/// let code = CodeGenerator::new(AccelConfig::for_point(&point)).generate(&dnn);
/// assert!(code.contains("#pragma HLS"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CodeGenerator {
    cfg: AccelConfig,
}

impl CodeGenerator {
    /// Creates a generator for the given accelerator configuration.
    pub fn new(cfg: AccelConfig) -> Self {
        Self { cfg }
    }

    fn data_type(&self) -> &'static str {
        match self.cfg.quant {
            Quantization::Int8 => "int8_t",
            Quantization::Int16 => "int16_t",
        }
    }

    /// Emits the full synthesizable C source for `dnn`: header comment,
    /// type definitions, IP prototypes, and the folded top function.
    pub fn generate(&self, dnn: &Dnn) -> String {
        let mut out = String::with_capacity(16 * 1024);
        self.emit_header(&mut out, dnn);
        self.emit_prototypes(&mut out);
        self.emit_top(&mut out, dnn);
        out
    }

    /// Emits the reusable IP library: the C bodies of the configurable
    /// IP templates (`IP_1 .. IP_m` of Table 1). The library is shared
    /// by every generated accelerator.
    pub fn generate_ip_library(&self) -> String {
        let dt = self.data_type();
        let pf = self.cfg.pf;
        let mut out = String::with_capacity(8 * 1024);
        let _ = writeln!(out, "// Tile-Arch IP library (auto-generated)");
        let _ = writeln!(out, "#include <stdint.h>");
        let _ = writeln!(out, "#include \"tile_arch.h\"\n");
        for k in [1usize, 3, 5] {
            let _ = writeln!(
                out,
                "void conv{k}x{k}_ip({dt} *in, {dt} *w, int32_t *bias, {dt} *out,\n\
                 \x20                int ci, int co, int th, int tw) {{\n\
                 #pragma HLS INLINE off\n\
                 \x20 for (int oc = 0; oc < co; ++oc) {{\n\
                 \x20   for (int y = 0; y < th; ++y) {{\n\
                 \x20     for (int x = 0; x < tw; ++x) {{\n\
                 #pragma HLS PIPELINE II=1\n\
                 \x20       int32_t acc = bias[oc];\n\
                 \x20       for (int ic = 0; ic < ci; ++ic) {{\n\
                 #pragma HLS UNROLL factor={pf}\n\
                 \x20         for (int dy = 0; dy < {k}; ++dy)\n\
                 \x20           for (int dx = 0; dx < {k}; ++dx)\n\
                 \x20             acc += (int32_t)in[IDX3(ic, y + dy, x + dx)] *\n\
                 \x20                    (int32_t)w[WIDX(oc, ic, dy, dx, {k})];\n\
                 \x20       }}\n\
                 \x20       out[IDX3(oc, y, x)] = SATURATE(acc >> QSHIFT);\n\
                 \x20     }}\n\
                 \x20   }}\n\
                 \x20 }}\n\
                 }}\n"
            );
        }
        for k in [3usize, 5, 7] {
            let _ = writeln!(
                out,
                "void dwconv{k}x{k}_ip({dt} *in, {dt} *w, int32_t *bias, {dt} *out,\n\
                 \x20                  int ci, int th, int tw) {{\n\
                 #pragma HLS INLINE off\n\
                 \x20 for (int c = 0; c < ci; ++c) {{\n\
                 #pragma HLS UNROLL factor={dwpf}\n\
                 \x20   for (int y = 0; y < th; ++y) {{\n\
                 \x20     for (int x = 0; x < tw; ++x) {{\n\
                 #pragma HLS PIPELINE II=1\n\
                 \x20       int32_t acc = bias[c];\n\
                 \x20       for (int dy = 0; dy < {k}; ++dy)\n\
                 \x20         for (int dx = 0; dx < {k}; ++dx)\n\
                 \x20           acc += (int32_t)in[IDX3(c, y + dy, x + dx)] *\n\
                 \x20                  (int32_t)w[DWIDX(c, dy, dx, {k})];\n\
                 \x20       out[IDX3(c, y, x)] = SATURATE(acc >> QSHIFT);\n\
                 \x20     }}\n\
                 \x20   }}\n\
                 \x20 }}\n\
                 }}\n",
                dwpf = self.cfg.dw_parallel_factor()
            );
        }
        let _ = writeln!(
            out,
            "void pool_ip({dt} *in, {dt} *out, int c, int th, int tw, int k, int is_max);\n\
             void bnorm_ip({dt} *buf, int32_t *scale, int32_t *shift, int c, int th, int tw);\n\
             void act_ip({dt} *buf, int c, int th, int tw, int clip);\n\
             void gap_ip({dt} *in, {dt} *out, int c, int th, int tw);"
        );
        out
    }

    /// Emits a C test bench for a generated accelerator: allocates DRAM
    /// images for feature maps and weights, loads a raw input frame,
    /// invokes `top_dnn` and prints the four box outputs — the harness
    /// an HLS C-simulation or a board smoke test would run.
    pub fn generate_testbench(&self, dnn: &Dnn) -> String {
        let qbytes = self.cfg.quant.bytes();
        let in_elems = dnn.input_shape().elements();
        let weight_bytes: u64 = dnn
            .layers()
            .iter()
            .map(|l| l.op.params(l.input) * qbytes as u64)
            .sum();
        // DRAM feature-map arena: input frame plus the largest
        // inter-group buffer (conservatively the peak activation).
        let fm_bytes = in_elems * qbytes + dnn.peak_activation_bytes() as usize;
        let out_ch = dnn.output_shape().c;
        let mut tb = String::with_capacity(2048);
        let _ = writeln!(
            tb,
            "// Test bench for {} (auto-generated)\n\
             #include <stdio.h>\n\
             #include <stdlib.h>\n\
             #include <stdint.h>\n\
             #include \"tile_arch.h\"\n\
             \n\
             typedef {} data_t;\n\
             \n\
             void top_dnn(volatile data_t *dram_fm, volatile data_t *dram_weights);\n\
             \n\
             int main(int argc, char **argv) {{\n\
             \x20 data_t *dram_fm = (data_t *)calloc({fm}, 1);\n\
             \x20 data_t *dram_weights = (data_t *)calloc({wb}, 1);\n\
             \x20 if (!dram_fm || !dram_weights) return 1;\n\
             \x20 if (argc > 1) {{\n\
             \x20   FILE *f = fopen(argv[1], \"rb\");\n\
             \x20   if (!f) return 2;\n\
             \x20   fread((void *)dram_fm, 1, {ib}, f);\n\
             \x20   fclose(f);\n\
             \x20 }}\n\
             \x20 if (argc > 2) {{\n\
             \x20   FILE *w = fopen(argv[2], \"rb\");\n\
             \x20   if (!w) return 3;\n\
             \x20   fread((void *)dram_weights, 1, {wb}, w);\n\
             \x20   fclose(w);\n\
             \x20 }}\n\
             \x20 top_dnn(dram_fm, dram_weights);\n\
             \x20 printf(\"box:\");\n\
             \x20 for (int i = 0; i < {oc}; ++i)\n\
             \x20   printf(\" %d\", (int)dram_fm[i]);\n\
             \x20 printf(\"\\n\");\n\
             \x20 free((void *)dram_fm);\n\
             \x20 free((void *)dram_weights);\n\
             \x20 return 0;\n\
             }}",
            dnn.name(),
            self.data_type(),
            fm = fm_bytes,
            wb = weight_bytes,
            ib = in_elems * qbytes,
            oc = out_ch,
        );
        tb
    }

    fn emit_header(&self, out: &mut String, dnn: &Dnn) {
        let _ = writeln!(
            out,
            "// ============================================================\n\
             // Auto-HLS generated accelerator\n\
             // model: {}\n\
             // template: Tile-Arch (folded, tile-pipelined)\n\
             // quantization: {}, PF: {}, tile: {}x{}\n\
             // layers: {}, MACs/frame: {}\n\
             // ============================================================",
            dnn.name(),
            self.cfg.quant,
            self.cfg.pf,
            TILE_H,
            TILE_W,
            dnn.layer_count(),
            dnn.total_macs(),
        );
        let _ = writeln!(out, "#include <stdint.h>");
        let _ = writeln!(out, "#include \"tile_arch.h\"\n");
        let _ = writeln!(out, "typedef {} data_t;\n", self.data_type());
        let _ = writeln!(out, "#define TILE_H {TILE_H}");
        let _ = writeln!(out, "#define TILE_W {TILE_W}\n");
    }

    fn emit_prototypes(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "void load_tile(volatile data_t *dram, data_t *bram, int bytes);\n\
             void store_tile(data_t *bram, volatile data_t *dram, int bytes);\n\
             void load_weights(volatile data_t *dram, data_t *wbuf, int bytes);"
        );
        for k in [1usize, 3, 5] {
            let _ = writeln!(
                out,
                "void conv{k}x{k}_ip(data_t *in, data_t *w, int32_t *bias, data_t *out, \
                 int ci, int co, int th, int tw);"
            );
        }
        for k in [3usize, 5, 7] {
            let _ = writeln!(
                out,
                "void dwconv{k}x{k}_ip(data_t *in, data_t *w, int32_t *bias, data_t *out, \
                 int ci, int th, int tw);"
            );
        }
        let _ = writeln!(
            out,
            "void pool_ip(data_t *in, data_t *out, int c, int th, int tw, int k, int is_max);\n\
             void bnorm_ip(data_t *buf, int32_t *scale, int32_t *shift, int c, int th, int tw);\n\
             void act_ip(data_t *buf, int c, int th, int tw, int clip);\n\
             void gap_ip(data_t *in, data_t *out, int c, int th, int tw);\n"
        );
    }

    fn emit_top(&self, out: &mut String, dnn: &Dnn) {
        let qbytes = self.cfg.quant.bytes();
        let _ = writeln!(out, "void top_dnn(volatile data_t *dram_fm,");
        let _ = writeln!(out, "             volatile data_t *dram_weights) {{");
        let _ = writeln!(
            out,
            "#pragma HLS INTERFACE m_axi port=dram_fm offset=slave bundle=gmem0\n\
             #pragma HLS INTERFACE m_axi port=dram_weights offset=slave bundle=gmem1\n\
             #pragma HLS INTERFACE s_axilite port=return\n"
        );
        // Ping-pong buffers sized for the largest tile footprint.
        let max_tile_elems = dnn
            .layers()
            .iter()
            .map(|l| {
                let th = TILE_H.min(l.input.h);
                let tw = TILE_W.min(l.input.w);
                th * tw * l.input.c
            })
            .max()
            .unwrap_or(0);
        let max_weight_elems = dnn
            .layers()
            .iter()
            .map(|l| l.op.params(l.input) as usize)
            .max()
            .unwrap_or(0);
        let _ = writeln!(out, "  static data_t buf_a[{max_tile_elems}];");
        let _ = writeln!(out, "  static data_t buf_b[{max_tile_elems}];");
        let _ = writeln!(out, "  static data_t wbuf[{max_weight_elems}];");
        let _ = writeln!(
            out,
            "#pragma HLS ARRAY_PARTITION variable=buf_a cyclic factor={pf} dim=1\n\
             #pragma HLS ARRAY_PARTITION variable=buf_b cyclic factor={pf} dim=1\n\
             #pragma HLS ARRAY_PARTITION variable=wbuf cyclic factor={pf} dim=1\n",
            pf = self.cfg.pf
        );

        let mut weight_offset: u64 = 0;
        let mut current_rep: Option<Option<usize>> = None;
        let mut ping = true;
        for (i, layer) in dnn.layers().iter().enumerate() {
            let key = Some(layer.bundle_rep);
            if current_rep != key {
                current_rep = key;
                match layer.bundle_rep {
                    Some(r) => {
                        let _ = writeln!(out, "  // ---- bundle replication {r} ----");
                    }
                    None if i == 0 => {
                        let _ = writeln!(out, "  // ---- stem ----");
                    }
                    None => {
                        let _ = writeln!(out, "  // ---- detection head ----");
                    }
                }
            }
            let (tiles_h, tiles_w) = group_tiles(layer.input);
            let th = layer.output.h.div_ceil(tiles_h).max(1);
            let tw = layer.output.w.div_ceil(tiles_w).max(1);
            let n_tiles = tiles_h * tiles_w;
            let (src, dst) = if ping {
                ("buf_a", "buf_b")
            } else {
                ("buf_b", "buf_a")
            };
            let _ = writeln!(
                out,
                "  // layer {i}: {} : {} -> {}",
                layer.op, layer.input, layer.output
            );
            let wbytes = layer.op.params(layer.input) * qbytes as u64;
            if wbytes > 0 {
                let _ = writeln!(
                    out,
                    "  load_weights(dram_weights + {weight_offset}, wbuf, {wbytes});"
                );
                weight_offset += wbytes;
            }
            let _ = writeln!(out, "  for (int t = 0; t < {n_tiles}; ++t) {{");
            let _ = writeln!(out, "#pragma HLS DATAFLOW");
            let call = match layer.op {
                LayerOp::Conv { k, out_channels } => {
                    ping = !ping;
                    format!(
                        "conv{k}x{k}_ip({src}, wbuf, (int32_t *)wbuf, {dst}, {}, {out_channels}, {th}, {tw});",
                        layer.input.c
                    )
                }
                LayerOp::DwConv { k } => {
                    ping = !ping;
                    format!(
                        "dwconv{k}x{k}_ip({src}, wbuf, (int32_t *)wbuf, {dst}, {}, {th}, {tw});",
                        layer.input.c
                    )
                }
                LayerOp::Pool { k, kind } => {
                    ping = !ping;
                    format!(
                        "pool_ip({src}, {dst}, {}, {th}, {tw}, {k}, {});",
                        layer.input.c,
                        matches!(kind, codesign_dnn::layer::PoolKind::Max) as u8
                    )
                }
                LayerOp::BatchNorm => format!(
                    "bnorm_ip({src}, (int32_t *)wbuf, (int32_t *)wbuf, {}, {th}, {tw});",
                    layer.input.c
                ),
                LayerOp::Activation { act } => format!(
                    "act_ip({src}, {}, {th}, {tw}, {});",
                    layer.input.c,
                    act.clip().map(|c| c as i32).unwrap_or(0)
                ),
                LayerOp::GlobalAvgPool => {
                    ping = !ping;
                    format!("gap_ip({src}, {dst}, {}, {th}, {tw});", layer.input.c)
                }
                // LayerOp is non-exhaustive; future operators must be
                // added to the IP pool before they can be generated.
                _ => format!("unsupported_ip(/* {} */);", layer.op),
            };
            let _ = writeln!(out, "    {call}");
            let _ = writeln!(out, "  }}");
        }
        let _ = writeln!(out, "}}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::builder::DnnBuilder;
    use codesign_dnn::bundle::{bundle_by_id, enumerate_bundles, BundleId};
    use codesign_dnn::space::DesignPoint;
    use proptest::prelude::*;

    fn code_for(id: usize, reps: usize) -> (Dnn, String) {
        let b = bundle_by_id(BundleId(id)).unwrap();
        let point = DesignPoint::initial(b, reps);
        let dnn = DnnBuilder::new().build(&point).unwrap();
        let code = CodeGenerator::new(AccelConfig::for_point(&point)).generate(&dnn);
        (dnn, code)
    }

    fn brace_balance(code: &str) -> i64 {
        code.chars()
            .map(|c| match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            })
            .sum()
    }

    #[test]
    fn braces_are_balanced() {
        let (_, code) = code_for(13, 3);
        assert_eq!(brace_balance(&code), 0);
    }

    #[test]
    fn one_call_per_layer() {
        let (dnn, code) = code_for(13, 3);
        let calls = code.matches("_ip(").count();
        // Prototypes also contain "_ip(": count only call sites, i.e.
        // lines inside the top function body (indented, ending in ';').
        let call_sites = code
            .lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_lowercase()))
            .filter(|l| l.contains("_ip(") && l.ends_with(';') && !l.contains("void"))
            .count();
        assert_eq!(call_sites, dnn.layer_count());
        assert!(calls >= call_sites);
    }

    #[test]
    fn contains_interface_and_pipeline_pragmas() {
        let (_, code) = code_for(1, 2);
        assert!(code.contains("#pragma HLS INTERFACE m_axi"));
        assert!(code.contains("#pragma HLS DATAFLOW"));
        assert!(code.contains("#pragma HLS ARRAY_PARTITION"));
    }

    #[test]
    fn weight_offsets_are_monotonic() {
        let (_, code) = code_for(13, 4);
        let offsets: Vec<u64> = code
            .lines()
            .filter(|l| l.trim_start().starts_with("load_weights(dram_weights + "))
            .map(|l| {
                l.split("dram_weights + ")
                    .nth(1)
                    .unwrap()
                    .split(',')
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert!(!offsets.is_empty());
        assert!(offsets.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn generation_is_deterministic() {
        let (_, a) = code_for(13, 3);
        let (_, b) = code_for(13, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn header_mentions_model_and_quant() {
        let (dnn, code) = code_for(13, 2);
        assert!(code.contains(dnn.name()));
        assert!(code.contains("quantization: int16"));
    }

    #[test]
    fn ip_library_has_all_templates() {
        let lib = CodeGenerator::new(AccelConfig::new(
            32,
            codesign_dnn::quant::Quantization::Int8,
        ))
        .generate_ip_library();
        for name in [
            "conv1x1_ip",
            "conv3x3_ip",
            "conv5x5_ip",
            "dwconv3x3_ip",
            "dwconv5x5_ip",
            "dwconv7x7_ip",
            "pool_ip",
            "act_ip",
        ] {
            assert!(lib.contains(name), "missing {name}");
        }
        assert_eq!(brace_balance(&lib), 0);
        assert!(lib.contains("int8_t"));
    }

    #[test]
    fn testbench_is_balanced_and_calls_top() {
        let b = bundle_by_id(BundleId(13)).unwrap();
        let point = DesignPoint::initial(b, 2);
        let dnn = DnnBuilder::new().build(&point).unwrap();
        let tb = CodeGenerator::new(AccelConfig::for_point(&point)).generate_testbench(&dnn);
        assert_eq!(brace_balance(&tb), 0);
        assert!(tb.contains("top_dnn(dram_fm, dram_weights);"));
        assert!(tb.contains("int main"));
        // Weight arena sized to the model's total weight bytes.
        let wb = dnn.weight_bytes();
        assert!(tb.contains(&format!("calloc({wb}, 1)")));
    }

    #[test]
    fn testbench_matches_quantization() {
        let b = bundle_by_id(BundleId(1)).unwrap();
        let mut point = DesignPoint::initial(b, 2);
        point.activation = codesign_dnn::quant::Activation::Relu4;
        let dnn = DnnBuilder::new().build(&point).unwrap();
        let tb = CodeGenerator::new(AccelConfig::for_point(&point)).generate_testbench(&dnn);
        assert!(tb.contains("typedef int8_t data_t;"));
    }

    #[test]
    fn bundle_markers_present() {
        let (_, code) = code_for(13, 3);
        assert!(code.contains("---- stem ----"));
        assert!(code.contains("---- bundle replication 0 ----"));
        assert!(code.contains("---- bundle replication 2 ----"));
        assert!(code.contains("---- detection head ----"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_all_bundles_generate_balanced_code(id in 1usize..=18, reps in 1usize..4) {
            let b = enumerate_bundles()[id - 1];
            let point = DesignPoint::initial(b, reps);
            let dnn = DnnBuilder::new().build(&point).unwrap();
            let code = CodeGenerator::new(AccelConfig::for_point(&point)).generate(&dnn);
            prop_assert_eq!(brace_balance(&code), 0);
            prop_assert!(code.contains("top_dnn"));
        }
    }
}
