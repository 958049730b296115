//! The sweep spec: what the supervisor tells its workers to compute.
//!
//! The spec and its `spec.bin` format live in
//! [`codesign_core::checkpoint`], which owns the run directory both
//! durable executors share; this module re-exports them under the
//! names the sharded search has always used, and pins their bytes.

pub use codesign_core::checkpoint::{shard_range, SweepSpec, SPEC_FILE, SPEC_MAGIC};
pub use codesign_core::pipeline::{Cell, ARMS};

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_core::flow::FlowConfig;
    use codesign_core::parallel::Parallelism;
    use codesign_dnn::bundle::BundleId;
    use codesign_sim::device::pynq_z1;

    fn spec() -> SweepSpec {
        SweepSpec {
            config: FlowConfig {
                targets_fps: vec![10.0, 15.0, 20.0],
                candidates_per_bundle: 2,
                coarse_pf_sweep: vec![16],
                parallelism: Parallelism::Fixed(1),
                ..FlowConfig::for_device(pynq_z1())
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
