//! The run spec: the plan a run directory's cells belong to.
//!
//! A [`SweepSpec`] pins everything needed to reproduce any slice of the
//! SCD stage bit-for-bit: the [`FlowConfig`] (minus parallelism, which
//! never affects results), the Bundle selection the coarse stage
//! computed, and the shard count. It is written once to `spec.bin` in
//! the run directory; every later reader — a resumed checkpointed run,
//! a restarted supervisor, each shard worker — reads it back, and a
//! worker derives its cell range from its shard index alone.
//!
//! # Work grid
//!
//! The grid is the shared recipe's [`pipeline::cells`]: one
//! [`Cell`](crate::pipeline::Cell) per `FPS target × selected Bundle ×
//! quantization arm`, with global indices. Shard `i` of `S` owns the
//! contiguous range [`shard_range`]`(cells, S, i)`. Contiguity matters
//! for determinism only in that every cell is owned by exactly one
//! shard; the merge keys on the global cell index, so any partition
//! would produce the same bytes.
//!
//! # File format
//!
//! ```text
//! magic "CDSHSPC1" (8) | payload_len u32 LE | fnv1a(payload) u64 LE | payload
//! payload = encode_config | selected Bundle ids | shards | config_fingerprint
//! ```
//!
//! The config uses [`encode_config`], and its [`config_fingerprint`] is
//! re-verified on read so a worker can never run somebody else's
//! sweep. A Bundle id outside the paper's enumeration, and a shard
//! count of zero or above the grid's cell count, are typed
//! [`CodecError`]s: every reader indexes by them.

use super::{
    config_fingerprint, decode_config, encode_config, read_bundle, read_list, CheckpointError,
};
use crate::flow::FlowConfig;
use crate::pipeline::{self, Cell, ARMS};
use codesign_dnn::bundle::BundleId;
use codesign_store::{fnv1a, ByteReader, ByteWriter, CodecError};
use std::ops::Range;
use std::path::Path;

/// Magic bytes opening a `spec.bin`.
pub const SPEC_MAGIC: [u8; 8] = *b"CDSHSPC1";

/// File name of the spec inside a run directory.
pub const SPEC_FILE: &str = "spec.bin";

/// Everything a run needs to compute any shard of its SCD stage
/// deterministically.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// The flow configuration (parallelism is irrelevant to results;
    /// workers run their cells sequentially).
    pub config: FlowConfig,
    /// Bundles selected by the coarse stage, in selection order.
    pub selected: Vec<BundleId>,
    /// Total number of shards the grid is partitioned into.
    pub shards: usize,
}

impl SweepSpec {
    /// The flattened work grid, in the flow's cell order.
    pub fn cells(&self) -> Vec<Cell> {
        pipeline::cells(&self.config.targets_fps, &self.selected)
    }

    /// Global cell range owned by `shard`.
    pub fn shard_cells(&self, shard: usize) -> Range<usize> {
        shard_range(self.cells().len(), self.shards, shard)
    }

    /// Serializes the spec to its framed byte form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_config(&mut w, &self.config);
        w.put_len(self.selected.len());
        for id in &self.selected {
            w.put_varint(id.0 as u64);
        }
        w.put_varint(self.shards as u64);
        w.put_u64(config_fingerprint(&self.config));
        let payload = w.into_bytes();

        let mut framed = Vec::with_capacity(20 + payload.len());
        framed.extend_from_slice(&SPEC_MAGIC);
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        framed.extend_from_slice(&payload);
        framed
    }

    /// Parses a spec from its framed byte form, verifying frame
    /// checksum and config fingerprint.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Spec`] on a bad frame, [`CheckpointError::Codec`]
    /// on a truncated payload, an unknown Bundle id or an out-of-range
    /// shard count.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let spec_error = |reason: &str| CheckpointError::Spec(reason.into());
        if bytes.len() < 20 || bytes[..8] != SPEC_MAGIC {
            return Err(spec_error("not a sweep spec (bad magic)"));
        }
        let len = u32::from_le_bytes(bytes[8..12].try_into().expect("4")) as usize;
        let checksum = u64::from_le_bytes(bytes[12..20].try_into().expect("8"));
        let payload = bytes
            .get(20..20 + len)
            .ok_or_else(|| spec_error("truncated sweep spec"))?;
        if fnv1a(payload) != checksum {
            return Err(spec_error("sweep spec checksum mismatch"));
        }
        let mut r = ByteReader::new(payload);
        let spec = Self::decode_payload(&mut r)?;
        let stored = r.read_u64()?;
        r.finish()?;
        let actual = config_fingerprint(&spec.config);
        if stored != actual {
            return Err(CheckpointError::Spec(format!(
                "sweep spec fingerprint mismatch (stored {stored:#018x}, decoded {actual:#018x})"
            )));
        }
        Ok(spec)
    }

    fn decode_payload(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        // Workers run their cells sequentially, and parallelism never
        // affects results, so the spec carries none.
        let config = decode_config(r)?;
        let selected = read_list(r, |r| Ok(read_bundle(r)?.id()))?;
        let shards = r.read_varint()?;
        let cells = (config.targets_fps.len() * ARMS.len()).saturating_mul(selected.len());
        if shards == 0 || shards > cells.max(1) as u64 {
            return Err(CodecError::InvalidTag {
                what: "shard count",
                tag: shards,
            });
        }
        Ok(Self {
            config,
            selected,
            shards: shards as usize,
        })
    }

    /// Writes the spec to `dir/spec.bin` via temp + rename, so a crash
    /// mid-write never leaves a torn spec for a restart to refuse.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        let tmp = dir.join(format!("{SPEC_FILE}.tmp"));
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, dir.join(SPEC_FILE))
    }

    /// Reads the spec back from `dir/spec.bin`.
    ///
    /// # Errors
    ///
    /// I/O failures plus everything [`from_bytes`](Self::from_bytes)
    /// rejects.
    pub fn read(dir: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(dir.join(SPEC_FILE))?;
        Self::from_bytes(&bytes)
    }
}

/// Contiguous cell range of shard `shard` when `cells` cells are split
/// into `shards` near-equal parts (the first `cells % shards` shards
/// get one extra).
pub fn shard_range(cells: usize, shards: usize, shard: usize) -> Range<usize> {
    assert!(shard < shards, "shard {shard} out of range 0..{shards}");
    let lo = cells * shard / shards;
    let hi = cells * (shard + 1) / shards;
    lo..hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::tests::config;
    use crate::parallel::Parallelism;

    fn spec() -> SweepSpec {
        SweepSpec {
            config: FlowConfig {
                targets_fps: vec![10.0, 15.0, 20.0],
                parallelism: Parallelism::Fixed(1),
                ..config()
            },
            selected: vec![BundleId(1), BundleId(3), BundleId(13)],
            shards: 4,
        }
    }

    #[test]
    fn spec_round_trips_through_bytes() {
        let s = spec();
        let decoded = SweepSpec::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(decoded.config, s.config);
        assert_eq!(decoded.selected, s.selected);
        assert_eq!(decoded.shards, s.shards);
    }

    #[test]
    fn spec_bytes_are_pinned() {
        // Shard directories written before the config codec moved to
        // `codesign-core` must still resume: the payload checksum of
        // this fixed spec is frozen.
        let bytes = spec().to_bytes();
        assert_eq!(bytes.len(), 139);
        assert_eq!(
            u64::from_le_bytes(bytes[12..20].try_into().unwrap()),
            0xbab7_716c_cd81_f286
        );
    }

    #[test]
    fn corrupt_spec_is_rejected() {
        let s = spec();
        let mut bytes = s.to_bytes();
        // Flip one payload bit.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(SweepSpec::from_bytes(&bytes).is_err());
        // Truncations are rejected, never garbage-decoded.
        let whole = s.to_bytes();
        for keep in 0..whole.len() {
            assert!(SweepSpec::from_bytes(&whole[..keep]).is_err(), "cut {keep}");
        }
        // Every single-bit flip, header included: any outcome but a
        // panic.
        let mut flipped = whole.clone();
        for bit in 0..whole.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = SweepSpec::from_bytes(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn shard_ranges_partition_the_grid_exactly() {
        for cells in [0usize, 1, 5, 17, 18, 64] {
            for shards in [1usize, 2, 3, 4, 7, 16] {
                let mut covered = Vec::new();
                for s in 0..shards {
                    covered.extend(shard_range(cells, shards, s));
                }
                let expected: Vec<usize> = (0..cells).collect();
                assert_eq!(covered, expected, "cells={cells} shards={shards}");
            }
        }
    }
}
