//! Canonical bytes of a flow output — the determinism artifact.
//!
//! The crate's headline guarantee is that a sweep's result does not
//! depend on how many processes computed it or how many of them
//! crashed along the way. "Result" needs a precise definition to be
//! testable; this module provides it: a byte serialization of
//! everything a [`FlowOutput`] *decides* — the Bundle selection, every
//! Pareto candidate with its objectives, and every finalized design
//! including a checksum of its generated HLS code. Runtime artifacts
//! (cache statistics, wall-clock) are deliberately excluded: they
//! describe the run, not the answer.
//!
//! Tests and the CI smoke leg compare these bytes across 1-process,
//! N-process, and N-process-with-injected-crash runs; `cmp` on the
//! emitted files is the whole assertion.

use codesign_core::checkpoint::{encode_candidate, encode_evaluation, encode_point};
use codesign_core::FlowOutput;
use codesign_store::{fnv1a, ByteWriter};

/// Serializes the decision content of `output` canonically, with a
/// trailing FNV-1a checksum of everything before it.
pub fn canonical_output_bytes(output: &FlowOutput) -> Vec<u8> {
    let mut w = ByteWriter::new();

    w.put_len(output.coarse.len());
    for e in &output.coarse {
        encode_evaluation(&mut w, e);
    }

    w.put_len(output.selected_bundles.len());
    for id in &output.selected_bundles {
        w.put_varint(id.0 as u64);
    }

    w.put_len(output.candidates.len());
    for (target_fps, c) in &output.candidates {
        w.put_f64(*target_fps);
        encode_candidate(&mut w, c);
    }

    w.put_len(output.designs.len());
    for d in &output.designs {
        w.put_f64(d.target_fps);
        encode_point(&mut w, &d.point);
        w.put_f64(d.accuracy);
        w.put_f64(d.latency_ms);
        w.put_f64(d.fps);
        // The generated Auto-HLS source, by length + checksum: enough
        // to pin byte identity without embedding kilobytes of C++.
        w.put_len(d.code.len());
        w.put_u64(fnv1a(d.code.as_bytes()));
    }

    let checksum = fnv1a(w.as_bytes());
    w.put_u64(checksum);
    w.into_bytes()
}
