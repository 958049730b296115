//! A persistent, append-only store for analytic estimates.
//!
//! [`EstimateStore`] spills the [`EstimateCache`]'s `Ok` entries to a
//! [`RecordLog`] on disk and loads them back
//! on the next start, so a restarted server (or a rerun flow) skips the
//! closed-form re-derivation for every design point it has ever priced.
//!
//! # Record format
//!
//! One record per cache entry, encoded with the `codesign-store` codec:
//!
//! ```text
//! key bytes (varint length prefix)   — estimator salt + canonical
//!                                      DesignPoint encoding, verbatim
//! latency_cycles varint
//! dsp / lut / ff / bram_18k varints  — ResourceUsage
//! ```
//!
//! The key is the cache's own canonical key (see
//! [`cache`](crate::cache) module docs), so a loaded record is
//! byte-for-byte the entry the cache would have computed: warm-start
//! results are bit-identical to cold ones by construction. Cached
//! *errors* are never persisted — they are cheap to recompute and
//! pinning them would carry transient failures across restarts.
//!
//! # Crash safety
//!
//! Appends go through the record log's checksummed framing; a crash
//! mid-append loses at most the record being written, and the torn tail
//! is truncated on the next [`open`](EstimateStore::open). Each key is
//! written once: [`persist_from`](EstimateStore::persist_from) skips
//! every key already on disk, and the log's single-writer lock keeps a
//! second store off the file. A duplicate record written by other means
//! loads last write wins (every write of a key carries the same
//! deterministic value), and there is no compaction.

use crate::cache::{CacheStamp, EstimateCache};
use crate::model::Estimate;
use codesign_sim::report::ResourceUsage;
use codesign_store::{
    ByteReader, ByteWriter, CodecError, FaultPlan, LogError, RecordLog, StreamKind,
};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Counters describing a store's activity since it was opened.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records decoded from disk by [`EstimateStore::open`] (corrupt
    /// records are skipped, not counted).
    pub loaded: usize,
    /// Records appended by [`EstimateStore::persist_from`] since open.
    pub persisted: usize,
    /// Bytes of torn tail truncated during open (0 after a clean
    /// shutdown).
    pub recovered_tail_bytes: u64,
}

/// A disk-backed extension of the in-memory [`EstimateCache`].
///
/// Typical lifecycle: [`open`](Self::open) the log, play it into a
/// cache with [`load_into`](Self::load_into), run flows against that
/// cache, then [`persist_from`](Self::persist_from) after each run to
/// append the entries the run added. The store remembers which keys are
/// already on disk, so repeated `persist_from` calls append only new
/// work. It also remembers the cache's
/// [version stamp](crate::cache#version-stamp) as of its last
/// successful persist, so a persist after a run that added nothing
/// returns without scanning the cache: a no-op persist costs O(1)
/// however large the cache grows.
#[derive(Debug)]
pub struct EstimateStore {
    log: RecordLog,
    /// Value per key on disk (last write wins).
    live: BTreeMap<Vec<u8>, Estimate>,
    /// Stamp of a cache all of whose `Ok` entries, as the stamp counts
    /// them, are in `live`.
    stamp: Option<CacheStamp>,
    stats: StoreStats,
}

fn encode_record(key: &[u8], est: &Estimate) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(key.len() + 24);
    w.put_bytes(key);
    w.put_varint(est.latency_cycles);
    w.put_varint(est.resources.dsp);
    w.put_varint(est.resources.lut);
    w.put_varint(est.resources.ff);
    w.put_varint(est.resources.bram_18k);
    w.into_bytes()
}

fn decode_record(payload: &[u8]) -> Result<(Vec<u8>, Estimate), CodecError> {
    let mut r = ByteReader::new(payload);
    let key = r.read_bytes()?.to_vec();
    let est = Estimate {
        latency_cycles: r.read_varint()?,
        resources: ResourceUsage {
            dsp: r.read_varint()?,
            lut: r.read_varint()?,
            ff: r.read_varint()?,
            bram_18k: r.read_varint()?,
        },
    };
    r.finish()?;
    Ok((key, est))
}

impl EstimateStore {
    /// Opens (creating if absent) the store at `path`, recovering any
    /// torn tail and decoding every intact record.
    ///
    /// # Errors
    ///
    /// I/O failures, or a typed [`LogError`] when `path` exists but is
    /// not an estimate-store log (wrong magic, kind, or a future format
    /// version).
    pub fn open(path: &Path) -> Result<Self, LogError> {
        Self::open_with(path, None)
    }

    /// [`open`](Self::open) with a fault-injection plan for the
    /// underlying record log.
    ///
    /// # Errors
    ///
    /// Everything [`open`](Self::open) returns, plus injected I/O
    /// errors when `faults` is an active plan.
    pub fn open_with(path: &Path, faults: Option<Arc<FaultPlan>>) -> Result<Self, LogError> {
        let (log, raw_records, recovery) =
            RecordLog::open_with(path, StreamKind::EstimateStore, faults)?;
        let mut loaded = 0;
        let mut live = BTreeMap::new();
        for payload in &raw_records {
            // A record that framed and checksummed correctly but does
            // not decode is a schema mismatch within the same log
            // version — skip it rather than poison the whole store.
            if let Ok((key, est)) = decode_record(payload) {
                live.insert(key, est);
                loaded += 1;
            }
        }
        let stats = StoreStats {
            loaded,
            persisted: 0,
            recovered_tail_bytes: recovery.truncated_bytes,
        };
        Ok(Self {
            log,
            live,
            stamp: None,
            stats,
        })
    }

    /// Preloads every key on disk into `cache`, returning how many
    /// entries were actually inserted (keys already resident in the
    /// cache are left untouched). Idempotent: a second call into the
    /// same cache inserts nothing.
    ///
    /// Records the cache's [version stamp](crate::cache#version-stamp),
    /// so the first persist after a warm start skips the scan too, when
    /// the load leaves nothing unwritten: before it the cache had no
    /// `Ok` inserts at all or this store's stamp of it was current, and
    /// afterwards its insert count grew by exactly the entries the load
    /// inserted, so no other thread's insert raced it. An insert that is
    /// in its shard but not yet counted changes the stamp when it is
    /// counted, so the next persist still writes it.
    pub fn load_into(&mut self, cache: &EstimateCache) -> usize {
        let before = cache.stamp();
        let clean = before.ok_inserts == 0 || self.stamp == Some(before);
        let mut inserted = 0;
        for (key, est) in &self.live {
            if cache.preload(key, *est) {
                inserted += 1;
            }
        }
        let after = cache.stamp();
        if clean && after.ok_inserts == before.ok_inserts + inserted as u64 {
            self.stamp = Some(after);
        }
        inserted
    }

    /// Appends every `Ok` cache entry not yet on disk to the log,
    /// returning how many records were written. Entries are appended in
    /// sorted-key order, so the log contents are deterministic for a
    /// given cache state.
    ///
    /// The cache's [version stamp](crate::cache#version-stamp) is read
    /// *before* the snapshot: the cache counts an insert only once the
    /// entry is in its shard, so the snapshot holds every entry the
    /// stamp counts.
    /// When the stamp equals the one recorded by the last persist that
    /// succeeded, nothing new can be in the cache and the call returns
    /// `Ok(0)` without scanning it. The stamp is recorded only when the
    /// persist succeeds, so a retry after a failure scans again; every
    /// scan ends with a sync, so a retry after a failed sync reports
    /// success only once the records are on stable storage.
    ///
    /// # Errors
    ///
    /// Propagates append and sync I/O failures; records appended before
    /// the failure are kept and are not appended again.
    pub fn persist_from(&mut self, cache: &EstimateCache) -> io::Result<usize> {
        let stamp = cache.stamp();
        if self.stamp == Some(stamp) {
            return Ok(0);
        }
        let mut written = 0;
        for (key, est) in cache.snapshot_ok() {
            if self.live.contains_key(&key) {
                continue;
            }
            self.log.append(&encode_record(&key, &est))?;
            self.live.insert(key, est);
            written += 1;
        }
        // Sync even when nothing was written: a retry after a failed
        // sync has nothing left to append, but its records are unsynced.
        self.log.sync()?;
        self.stats.persisted += written;
        self.stamp = Some(stamp);
        Ok(written)
    }

    /// Forces every appended record to stable storage (`fsync`).
    /// [`persist_from`](Self::persist_from) already syncs before
    /// reporting success; this is for explicit durability points such
    /// as graceful shutdown.
    ///
    /// # Errors
    ///
    /// Propagates `fsync` failures (including injected ones).
    pub fn sync(&self) -> io::Result<()> {
        self.log.sync()
    }

    /// Releases the advisory single-writer lock without closing the
    /// store, so another process (or another handle in this one) may
    /// open the log. For graceful shutdown when the store handle
    /// outlives its final [`sync`](Self::sync); the caller must not
    /// persist afterwards. Idempotent.
    pub fn unlock(&mut self) {
        self.log.unlock();
    }

    /// Activity counters since open.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Number of distinct keys currently on disk.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// The file backing this store.
    pub fn path(&self) -> PathBuf {
        self.log.path().to_path_buf()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::EstimateError;
    use codesign_store::TempDir;

    fn est(cycles: u64) -> Estimate {
        Estimate {
            latency_cycles: cycles,
            resources: ResourceUsage {
                dsp: cycles + 1,
                lut: cycles * 3,
                ff: cycles * 5,
                bram_18k: cycles / 2,
            },
        }
    }

    #[test]
    fn record_round_trips() {
        let key = vec![9u8, 8, 7, 6, 5];
        let e = est(123_456_789);
        let (k2, e2) = decode_record(&encode_record(&key, &e)).unwrap();
        assert_eq!(k2, key);
        assert_eq!(e2, e);
    }

    #[test]
    fn persist_then_load_restores_cache_entries() {
        let dir = TempDir::new("codesign_hls_store").unwrap();
        let path = dir.join("round_trip.log");

        let cold = EstimateCache::new();
        for k in 0u8..20 {
            cold.get_or_insert_with(&[k, k + 1], || Ok(est(k as u64 * 10)))
                .unwrap();
        }
        {
            let mut store = EstimateStore::open(&path).unwrap();
            assert_eq!(store.persist_from(&cold).unwrap(), 20);
            // Second persist of the same cache appends nothing.
            assert_eq!(store.persist_from(&cold).unwrap(), 0);
        }

        let warm = EstimateCache::new();
        let mut store = EstimateStore::open(&path).unwrap();
        assert_eq!(store.stats().loaded, 20);
        assert_eq!(store.load_into(&warm), 20);
        assert_eq!(warm.len(), 20);
        // Every lookup is now a store-attributed hit with the exact
        // cold value.
        for k in 0u8..20 {
            let v = warm
                .get_or_insert_with(&[k, k + 1], || panic!("must hit"))
                .unwrap();
            assert_eq!(v, est(k as u64 * 10));
        }
        assert_eq!(warm.store_hits(), 20);
    }

    #[test]
    fn errors_are_not_persisted() {
        let dir = TempDir::new("codesign_hls_store").unwrap();
        let path = dir.join("errors.log");
        let cache = EstimateCache::new();
        cache.get_or_insert_with(&[1], || Ok(est(5))).unwrap();
        let _ = cache.get_or_insert_with(&[2], || {
            Err(EstimateError::Sim(
                codesign_sim::error::SimError::InvalidConfig {
                    reason: "transient".into(),
                },
            ))
        });
        let mut store = EstimateStore::open(&path).unwrap();
        assert_eq!(store.persist_from(&cache).unwrap(), 1);
    }

    #[test]
    fn truncated_log_recovers_all_prior_records() {
        let dir = TempDir::new("codesign_hls_store").unwrap();
        let path = dir.join("crash.log");
        let cache = EstimateCache::new();
        for k in 0u8..10 {
            cache
                .get_or_insert_with(&[k], || Ok(est(k as u64 + 100)))
                .unwrap();
        }
        {
            let mut store = EstimateStore::open(&path).unwrap();
            store.persist_from(&cache).unwrap();
        }
        // Simulate a crash mid-append: chop 5 bytes off the last record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let warm = EstimateCache::new();
        let mut store = EstimateStore::open(&path).unwrap();
        assert_eq!(store.stats().loaded, 9, "only the torn record is lost");
        assert!(store.stats().recovered_tail_bytes > 0);
        assert_eq!(store.load_into(&warm), 9);
        // The store can keep appending after recovery — including the
        // record that was torn.
        assert_eq!(store.persist_from(&cache).unwrap(), 1);
        drop(store);
        let mut reopened = EstimateStore::open(&path).unwrap();
        assert_eq!(reopened.stats().loaded, 10);
        assert_eq!(reopened.stats().recovered_tail_bytes, 0);
        let fresh = EstimateCache::new();
        assert_eq!(reopened.load_into(&fresh), 10);
    }

    #[test]
    fn injected_persist_failure_keeps_earlier_records_and_retries() {
        let dir = TempDir::new("codesign_hls_store").unwrap();
        let path = dir.join("inject.log");
        let cache = EstimateCache::new();
        for k in 0u8..6 {
            cache
                .get_or_insert_with(&[k], || Ok(est(k as u64 + 40)))
                .unwrap();
        }
        // store.append fails on the 4th call (indices 3..) — the first
        // three records land, the persist reports the failure, and the
        // already-written records survive a retry with a clean store.
        let plan = codesign_faults::FaultPlan::from_spec("seed=0;store.append=io@3").unwrap();
        {
            let mut store = EstimateStore::open_with(&path, Some(plan)).unwrap();
            let err = store.persist_from(&cache).unwrap_err();
            assert!(codesign_faults::is_injected(&err));
        }
        let mut store = EstimateStore::open(&path).unwrap();
        assert_eq!(store.stats().loaded, 3);
        // The retry appends only the records the failure dropped.
        assert_eq!(store.persist_from(&cache).unwrap(), 3);
        drop(store);
        let mut reopened = EstimateStore::open(&path).unwrap();
        assert_eq!(reopened.stats().loaded, 6);
        let fresh = EstimateCache::new();
        assert_eq!(reopened.load_into(&fresh), 6);
    }

    #[test]
    fn repeated_keys_load_once_and_are_not_rewritten() {
        let dir = TempDir::new("codesign_hls_store").unwrap();
        let path = dir.join("duplicates.log");
        // Each of 8 keys written twice through a raw log handle; the
        // second write of a key is the one that loads.
        {
            let (mut log, _, _) = RecordLog::open(&path, StreamKind::EstimateStore).unwrap();
            for pass in 0..2u64 {
                for k in 0u8..8 {
                    log.append(&encode_record(&[k], &est(k as u64 + pass * 100)))
                        .unwrap();
                }
            }
        }
        let mut store = EstimateStore::open(&path).unwrap();
        assert_eq!(store.stats().loaded, 16);
        assert_eq!(store.len(), 8);
        let cache = EstimateCache::new();
        assert_eq!(store.load_into(&cache), 8);
        for k in 0u8..8 {
            let v = cache
                .get_or_insert_with(&[k], || panic!("must hit"))
                .unwrap();
            assert_eq!(v, est(k as u64 + 100), "last write wins");
        }
        assert_eq!(store.persist_from(&cache).unwrap(), 0);
    }

    /// A cache with keys `[k]` for `k` in `keys`.
    fn cache_of(keys: std::ops::Range<u8>) -> EstimateCache {
        let cache = EstimateCache::new();
        for k in keys {
            cache
                .get_or_insert_with(&[k], || Ok(est(k as u64)))
                .unwrap();
        }
        cache
    }

    /// Records on disk at `path`, and how many distinct keys they hold.
    fn on_disk(path: &Path) -> (usize, usize) {
        let store = EstimateStore::open(path).unwrap();
        (store.stats().loaded, store.len())
    }

    #[test]
    fn stamp_skips_unchanged_cache_and_writes_new_entries_once() {
        let dir = TempDir::new("codesign_hls_store").unwrap();
        let path = dir.join("stamp_new.log");
        let cache = cache_of(0..5);
        let mut store = EstimateStore::open(&path).unwrap();
        assert_eq!(store.persist_from(&cache).unwrap(), 5);
        assert_eq!(store.stamp, Some(cache.stamp()));
        assert_eq!(store.persist_from(&cache).unwrap(), 0);
        cache.get_or_insert_with(&[7], || Ok(est(7))).unwrap();
        assert_ne!(
            store.stamp,
            Some(cache.stamp()),
            "an insert moves the stamp"
        );
        assert_eq!(store.persist_from(&cache).unwrap(), 1);
        assert_eq!(store.persist_from(&cache).unwrap(), 0);
        assert_eq!(store.stats().persisted, 6);
        drop(store);
        assert_eq!(on_disk(&path), (6, 6), "each entry written exactly once");
    }

    #[test]
    fn stamp_tells_caches_apart() {
        // Two caches with the same number of inserts but different
        // entries: a stamp without the cache's identity would take the
        // second for the first and write nothing.
        let dir = TempDir::new("codesign_hls_store").unwrap();
        let path = dir.join("stamp_identity.log");
        let first = cache_of(0..4);
        let second = cache_of(10..14);
        assert_eq!(first.stamp().ok_inserts, second.stamp().ok_inserts);
        let mut store = EstimateStore::open(&path).unwrap();
        assert_eq!(store.persist_from(&first).unwrap(), 4);
        assert_eq!(store.persist_from(&second).unwrap(), 4);
        drop(store);
        assert_eq!(on_disk(&path), (8, 8));
    }

    #[test]
    fn failed_persist_leaves_the_stamp_unset() {
        let dir = TempDir::new("codesign_hls_store").unwrap();
        let path = dir.join("stamp_failure.log");
        let cache = cache_of(0..6);
        let plan = codesign_faults::FaultPlan::from_spec("seed=0;store.append=io@3").unwrap();
        let mut store = EstimateStore::open_with(&path, Some(plan)).unwrap();
        let err = store.persist_from(&cache).unwrap_err();
        assert!(codesign_faults::is_injected(&err));
        assert_eq!(store.stamp, None);
        // The same handle's retry resumes from the failed record.
        assert_eq!(store.persist_from(&cache).unwrap(), 3);
        assert_eq!(store.stamp, Some(cache.stamp()));
        drop(store);
        assert_eq!(on_disk(&path), (6, 6));
    }

    #[test]
    fn load_into_stamps_only_a_cache_with_nothing_unwritten() {
        let dir = TempDir::new("codesign_hls_store").unwrap();
        let path = dir.join("stamp_load.log");
        EstimateStore::open(&path)
            .unwrap()
            .persist_from(&cache_of(0..5))
            .unwrap();

        // A fresh cache holds only what the store loaded into it.
        let fresh = EstimateCache::new();
        let mut store = EstimateStore::open(&path).unwrap();
        assert_eq!(store.load_into(&fresh), 5);
        assert_eq!(store.stamp, Some(fresh.stamp()));
        assert_eq!(store.persist_from(&fresh).unwrap(), 0);
        drop(store);

        // A cache with an entry of its own must still have it written.
        let held = cache_of(9..10);
        let mut store = EstimateStore::open(&path).unwrap();
        assert_eq!(store.load_into(&held), 5);
        assert_eq!(store.stamp, None);
        assert_eq!(store.persist_from(&held).unwrap(), 1);
        drop(store);
        assert_eq!(on_disk(&path), (6, 6));
    }

    #[test]
    fn load_into_skips_resident_keys() {
        let dir = TempDir::new("codesign_hls_store").unwrap();
        let path = dir.join("resident.log");
        let cache = EstimateCache::new();
        cache.get_or_insert_with(&[1], || Ok(est(1))).unwrap();
        {
            let mut store = EstimateStore::open(&path).unwrap();
            store.persist_from(&cache).unwrap();
        }
        let target = EstimateCache::new();
        target.get_or_insert_with(&[1], || Ok(est(1))).unwrap();
        let mut store = EstimateStore::open(&path).unwrap();
        assert_eq!(store.load_into(&target), 0, "key already resident");
        // A computed (non-preloaded) entry does not count store hits.
        target.get_or_insert_with(&[1], || Ok(est(1))).unwrap();
        assert_eq!(target.store_hits(), 0);
    }

    #[test]
    fn a_retry_after_a_failed_sync_syncs_again() {
        let dir = TempDir::new("codesign_hls_store").unwrap();
        let path = dir.join("sync_retry.log");
        let plan = codesign_faults::FaultPlan::from_spec("seed=0;store.sync=io@0,1").unwrap();
        let mut store = EstimateStore::open_with(&path, Some(plan.clone())).unwrap();
        let cache = cache_of(0..4);
        // Every record is appended, then the sync fails.
        assert!(store.persist_from(&cache).is_err());
        // The retry has nothing left to append, but its records are
        // still unsynced: it must sync, and so meets the second fault.
        assert!(store.persist_from(&cache).is_err());
        assert_eq!(store.persist_from(&cache).unwrap(), 0);
        assert_eq!(plan.injected("store.sync"), 2);
        drop(store);
    }
}
