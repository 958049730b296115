//! Per-worker result segments.
//!
//! Each shard's worker appends its finished cells to its own segment
//! log; the supervisor merges them by cell index. The segment format
//! lives in [`codesign_core::checkpoint`], next to the spec, because a
//! checkpointed in-process run writes the same segments; this module
//! re-exports it under the names the sharded search has always used.

pub use codesign_core::checkpoint::{open_segment, read_segment, segment_path};

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_core::checkpoint::encode_cell;
    use codesign_core::Candidate;
    use codesign_dnn::bundle::{bundle_by_id, BundleId};
    use codesign_dnn::quant::Activation;
    use codesign_dnn::space::DesignPoint;
    use codesign_hls::model::Estimate;
    use codesign_sim::report::ResourceUsage;
    use codesign_store::ByteWriter;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("codesign_shard_segment_tests")
            .join(format!(
                "{name}_{}_{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cell_record(index: usize, found: &[Candidate]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_cell(&mut w, index, found);
        w.into_bytes()
    }

    fn candidate(accuracy: f64) -> Candidate {
        Candidate {
            point: DesignPoint {
                bundle: bundle_by_id(BundleId(1)).unwrap(),
                n_replications: 2,
                downsample: vec![true, false],
                expansion: vec![1.0, 1.5],
                parallel_factor: 8,
                activation: Activation::Relu,
                base_channels: 24,
                max_channels: 96,
            },
            estimate: Estimate {
                latency_cycles: 1_000,
                resources: ResourceUsage::default(),
            },
            latency_ms: 40.0,
            accuracy,
        }
    }

    #[test]
    fn segment_records_round_trip_and_resume() {
        let dir = temp_dir("roundtrip");
        let path = segment_path(&dir, 3);
        {
            let (mut log, cells) = open_segment(&path).unwrap();
            assert!(cells.is_empty());
            log.append(&cell_record(7, &[candidate(0.5), candidate(0.6)]))
                .unwrap();
            log.append(&cell_record(8, &[])).unwrap();
            log.sync().unwrap();
        }
        let cells = read_segment(&path).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[&7].len(), 2);
        assert!((cells[&7][1].accuracy - 0.6).abs() < 1e-12);
        assert!(cells[&8].is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_on_resume() {
        let dir = temp_dir("torn");
        let path = segment_path(&dir, 0);
        {
            let (mut log, _) = open_segment(&path).unwrap();
            log.append(&cell_record(0, &[candidate(0.4)])).unwrap();
            log.sync().unwrap();
        }
        // Simulate a kill -9 mid-append: a frame header promising more
        // bytes than were ever written.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&100u32.to_le_bytes()).unwrap();
            f.write_all(&0xdead_beef_dead_beefu64.to_le_bytes())
                .unwrap();
            f.write_all(&[0xab; 10]).unwrap();
        }
        let (mut log, cells) = open_segment(&path).unwrap();
        assert_eq!(cells.len(), 1, "whole record survives, torn one does not");
        // The truncated log accepts new appends cleanly.
        log.append(&cell_record(1, &[candidate(0.7)])).unwrap();
        log.sync().unwrap();
        drop(log);
        let cells = read_segment(&path).unwrap();
        assert_eq!(cells.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
