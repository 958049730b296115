//! Golden SCD cells: every cell of the paper flow, cold and warm.
//!
//! Runs each of the paper flow's 30 SCD cells (PYNQ-Z1, 10/15/20 FPS,
//! the Bundles the coarse stage selects, both quantization arms) at
//! seeds 1 and 2019 through [`pipeline::run_cell`], twice: against a
//! fresh [`EstimateCache`], then against a cache preloaded from the
//! cold cache's [`EstimateCache::snapshot_ok`], as a warm-started flow
//! or server sees it. Each row pins an FNV-1a digest of the cell's
//! candidates in their checkpoint encoding and the cache's
//! `(lookups, hits, misses, store_hits)` after the run. So a change to
//! how the search probes, memoizes or replays must leave both what it
//! finds and every counted lookup as they are. To update after an
//! *intentional* change of the search, run:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p codesign-core --test scd_cells_golden
//! ```
//!
//! and review the diff of `tests/golden/scd_cells.txt`.

use codesign_core::accuracy::AccuracyModel;
use codesign_core::checkpoint::encode_cell;
use codesign_core::flow::FlowConfig;
use codesign_core::pipeline::{calibrate, cells, coarse_stage, run_cell, Cell};
use codesign_core::search::Candidate;
use codesign_core::Parallelism;
use codesign_dnn::bundle::bundle_by_id;
use codesign_hls::cache::EstimateCache;
use codesign_hls::model::HlsEstimator;
use codesign_sim::device::pynq_z1;
use codesign_store::{fnv1a, ByteWriter};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/scd_cells.txt");

/// One row: the cell, the digest of what it found, and the counts of
/// the cache it ran against.
fn row(out: &mut String, tag: &str, cell: &Cell, found: &[Candidate], cache: &EstimateCache) {
    let mut w = ByteWriter::new();
    encode_cell(&mut w, cell.index, found);
    let stats = cache.stats();
    let _ = writeln!(
        out,
        "{tag} cell={} candidates={:016x} lookups={} hits={} misses={} store_hits={}",
        cell.index,
        fnv1a(w.as_bytes()),
        stats.total(),
        stats.hits,
        stats.misses,
        cache.store_hits()
    );
}

fn table() -> String {
    let mut out = String::new();
    let model = AccuracyModel::paper_calibrated();
    for seed in [1, 2019] {
        let config = FlowConfig {
            seed,
            parallelism: Parallelism::Fixed(1),
            ..FlowConfig::for_device(pynq_z1())
        };
        let (_, selected) = coarse_stage(&config, &model).expect("coarse stage");
        let grid = cells(&config.targets_fps, &selected);
        assert_eq!(grid.len(), 30, "the paper flow has 30 SCD cells");
        let mut params = BTreeMap::new();
        for &id in &selected {
            let bundle = bundle_by_id(id).expect("selected Bundles exist");
            params.insert(id, calibrate(&bundle, &config.device).expect("calibrates"));
        }
        for cell in &grid {
            let run = |cache: &Arc<EstimateCache>| {
                let estimator = HlsEstimator::new(params[&cell.bundle], config.device.clone())
                    .with_cache(Arc::clone(cache));
                run_cell(&config, cell, &estimator, &model)
            };
            let cold = Arc::new(EstimateCache::new());
            row(
                &mut out,
                &format!("seed={seed} cold"),
                cell,
                &run(&cold),
                &cold,
            );
            let warm = Arc::new(EstimateCache::new());
            for (key, estimate) in cold.snapshot_ok() {
                warm.preload(&key, estimate);
            }
            row(
                &mut out,
                &format!("seed={seed} warm"),
                cell,
                &run(&warm),
                &warm,
            );
        }
    }
    out
}

#[test]
fn scd_cells_match_golden_file() {
    let table = table();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &table).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden file missing — regenerate with \
         UPDATE_GOLDEN=1 cargo test -p codesign-core --test scd_cells_golden",
    );
    for (line, (got, want)) in table.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "row {} drifted", line + 1);
    }
    assert_eq!(table.lines().count(), golden.lines().count());
}
