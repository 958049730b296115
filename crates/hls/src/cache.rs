//! A shared, interior-mutable cache of analytic HLS estimates.
//!
//! The co-design search is embarrassingly parallel but extremely
//! repetitive: every SCD run probes unit moves around its current
//! design point, restarts revisit the same initial designs, and the
//! per-(Bundle, target) searches all start from the same few points.
//! Re-deriving the closed-form Eqs. 1-5 for each probe wastes most of
//! the flow's wall clock, so [`EstimateCache`] memoizes
//! [`HlsEstimator::estimate_point`](crate::model::HlsEstimator::estimate_point)
//! results (and, since the incremental engine landed, every
//! [`EstimatePlan::probe`](crate::incremental::EstimatePlan::probe))
//! behind an [`std::sync::Arc`]-shareable, thread-safe map.
//!
//! # Sharding
//!
//! The flow fans SCD work items out across worker threads, and every
//! probe that its search has not seen before consults this cache; a
//! single global `Mutex<HashMap>` would serialize them all. The map is
//! therefore split into [`DEFAULT_SHARDS`] independently locked shards.
//! Sharding is invisible to callers: a key lives in exactly one shard,
//! so hit/miss semantics, the deterministic total-lookup count, and the
//! byte-identical-output guarantee are unchanged from the single-lock
//! cache — only lock contention changes.
//!
//! The `hits`, `misses` and `store_hits` counters are per-thread
//! stripes, each on its own cache line, summed when read
//! ([`EstimateCache::stats`]). Counting a lookup writes only the
//! calling thread's line, so two cores counting at once never pass a
//! line between them.
//!
//! # Version stamp
//!
//! A cache's version stamp is `(cache id, Ok inserts)`: an id unique
//! within the process, and how many `Ok` entries were ever inserted, by
//! a lookup's miss or by [`EstimateCache::preload`]. The insert count is
//! a fourth stripe counter, summed when read, so counting an insert
//! writes no line shared across threads. It counts an entry only after
//! the entry is in its shard and the shard lock is released, so a reader
//! who sees the count include an insert and then locks that shard finds
//! the entry there. It never goes down, so an unchanged stamp means no
//! `Ok` entry was added since it was read. The persistent
//! [`EstimateStore`](crate::store::EstimateStore) compares stamps to skip
//! a persist that has nothing new to write.
//!
//! # Per-search memo
//!
//! Most SCD probes re-price a point the same search has already priced:
//! 91% of the paper flow's lookups at seed 1. A [`ProbeMemo`] answers
//! those without locking a shard. Each
//! [`EstimatePlan`](crate::incremental::EstimatePlan) over a cached
//! estimator owns one, shared by its clones, so one `scd_search` call
//! (its plan and its restart plans) has one memo, dropped when the
//! search ends. The contract that keeps the counters exact:
//!
//! * every memo entry was resolved through the shared cache by the same
//!   search, and holds the value and `preloaded` flag of the resident
//!   entry;
//! * the shared cache never evicts or clears;
//! * so a key the memo holds is resident in the cache, and a memo hit
//!   is exactly a cache hit. It is counted as one (and as a store hit
//!   when the entry was preloaded), on the calling thread's stripe.
//!
//! Hit, miss and store-hit counts are therefore the same as without
//! the memo. The memo holds at most one entry per distinct key its
//! search looked up, so it is bounded by the search's iteration budget.
//! It hashes keys with the cache's own seeded hash, and a memo miss
//! passes that hash on to the cache.
//!
//! # Restart replay
//!
//! A stuck SCD search restarts from `DesignPoint::initial(n)` for a
//! random depth `n`, and most restarts go to a depth the same search
//! has already restarted to (95% of the paper flow's at seed 1). What a
//! restart looks up is a function of the depth alone: the parallel-factor
//! ladder probes the same points in the same order, since each rung's
//! answer decides the next. So the first restart to a depth reads its
//! memo's [`ProbeTally`] before and after, and keeps the difference with
//! the restart's outcome; a repeat restart calls [`ProbeMemo::replay`]
//! instead of probing. The replay counts exactly the hits and store hits
//! its skipped probes would have counted:
//!
//! * every skipped probe is a key the same memo already served, so it
//!   would have been a memo hit — one cache hit, and no other effect on
//!   the memo, the shared cache or the search's plan;
//! * a memo hit counts a store hit exactly when its entry is preloaded,
//!   and the entry's flag is the one the first restart's lookup saw;
//! * so the replay adds the tally's lookups to the hits and its
//!   preloaded lookups to the store hits, on the calling thread's
//!   stripe, and the counters read the same as if the probes had run.
//!
//! # One hash per lookup
//!
//! A lookup hashes its key bytes exactly once, with a seeded
//! folded-multiply mix: each 16-byte chunk folds into the state with one
//! 64 × 64 → 128-bit multiply whose high and low halves are XORed
//! together, and a short tail is zero-padded into one last chunk (the
//! key length is mixed into the initial state, so padding cannot alias
//! `[1, 2, 3]` with `[1, 2, 3, 0]`). The 64-bit result picks the shard
//! (from bits 32 and up) and is also the shard map's own hash: the maps
//! store it beside each key and hash with a pass-through hasher, so the
//! in-map probe, the insert after a miss, and [`EstimateCache::preload`]
//! never hash the bytes again. The seeds come from
//! [`RandomState`] once per cache, so shard choice is stable within a
//! cache, while which keys collide depends on a secret drawn at run
//! time: a store log written beforehand cannot be crafted to pile its
//! keys onto one shard or one probe sequence. A collision would only
//! cost probe time: entries compare their full key bytes.
//!
//! # The canonical key
//!
//! Two design points must share a cache entry exactly when the analytic
//! model is guaranteed to produce the same estimate for both. The key is
//! therefore a *canonical byte encoding* of everything the model reads:
//!
//! * an **estimator salt** — the calibrated coefficients (`α`, `β`, `φ`,
//!   `γ` as IEEE-754 bit patterns; the calibration-time sampling PF is
//!   omitted because estimation always substitutes the design point's
//!   own PF), the device's DRAM bandwidth and resource budget, and the
//!   DNN builder's fingerprint (input resolution, stem kernel,
//!   construction method). Two estimators with different calibrations
//!   never alias.
//! * the **design point** — the exact word encoding of
//!   [`DesignPoint::encode_canonical`](codesign_dnn::space::DesignPoint::encode_canonical):
//!   Bundle skeleton, replication count `N`, the down-sampling vector
//!   `X` bit-packed into one word per 64 slots (slots `i` and `i + 64`
//!   occupy different words — the old single-word packing aliased
//!   them), the channel-expansion vector `Π` as f64 bit patterns
//!   (values come from the fixed
//!   [`CHANNEL_EXPANSION_FACTORS`](codesign_dnn::space::CHANNEL_EXPANSION_FACTORS)
//!   ladder, so bit patterns are exact), parallel factor `PF`,
//!   activation / quantization arm `Q`, and the base / max channel
//!   widths.
//!
//! Keys are full encodings rather than 64-bit digests so hash collisions
//! cannot silently return the wrong estimate. Lookups borrow the key as
//! `&[u8]` — hot paths build it in a stack-resident [`KeyBuf`] without
//! allocating, and only a cache *miss* copies it to the heap for
//! insertion. Determinism does
//! not depend on the cache at all — a hit returns byte-identical data to
//! what the analytic model would recompute, whether that recomputation
//! is the full rebuild of `estimate_point` or an incremental
//! [`EstimatePlan`](crate::incremental::EstimatePlan) fold — which is
//! why the flow can share one cache across any number of worker threads
//! and still produce bit-identical Pareto fronts.
//!
//! # Why seeds are split per work item
//!
//! Memoization alone does not make a parallel search reproducible: if
//! work items drew from one shared RNG, thread interleaving would decide
//! which item sees which random values. The flow therefore derives an
//! independent seed per (Bundle, FPS-target, activation) work item from
//! `FlowConfig::seed` with a SplitMix64 mix (see
//! `codesign_core::parallel::derive_seed`), so every item owns a private
//! deterministic stream and results are independent of scheduling.

use crate::model::{Estimate, EstimateError};
use codesign_sim::report::CacheStats;
use std::borrow::Borrow;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Default shard count of [`EstimateCache::new`]: enough to keep the
/// flow's worker threads (typically ≤ core count) off each other's
/// locks without bloating the empty cache.
pub const DEFAULT_SHARDS: usize = 16;

/// Counter stripes of one cache: a power of two, enough that the
/// flow's worker threads (typically ≤ core count) each get their own.
const STRIPES: usize = 16;

/// One thread's lookup and insert counters, alone on their cache line
/// (128 bytes covers adjacent-line prefetch too), so counting a lookup
/// never writes a line another core is counting on.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Stripe {
    hits: AtomicU64,
    misses: AtomicU64,
    store_hits: AtomicU64,
    /// New `Ok` entries this thread inserted (see
    /// [version stamp](crate::cache#version-stamp)).
    ok_inserts: AtomicU64,
}

/// The calling thread's stripe index: threads take indices round-robin
/// in the order they first count a lookup, so the helper threads one
/// parallel call spawns together get distinct stripes. Two threads
/// sharing a stripe would only cost speed: the counters are atomic.
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    INDEX.with(|&i| i)
}

/// A cache's version: which cache, and how many `Ok` entries had been
/// inserted into it when the stamp was read (see the
/// [module docs](crate::cache#version-stamp)). Two readings of one cache
/// are equal exactly when no `Ok` entry was inserted in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheStamp {
    cache: u64,
    pub(crate) ok_inserts: u64,
}

/// A resident cache value plus its provenance: entries inserted by
/// [`EstimateCache::preload`] (i.e. loaded from a persistent store) are
/// flagged so hits on them can be attributed to the store in metrics.
#[derive(Debug, Clone)]
struct CacheEntry {
    value: Result<Estimate, EstimateError>,
    preloaded: bool,
}

/// A resident key: its bytes plus the hash computed when it was first
/// looked up, so the shard map never hashes the bytes again.
#[derive(Debug)]
struct StoredKey {
    hash: u64,
    bytes: Box<[u8]>,
}

/// A key as the shard maps see it — resident ([`StoredKey`]) or borrowed
/// for a lookup (`(hash, &[u8])`). Maps are probed through
/// `&dyn KeyView`, which lets a borrowed key carry its precomputed hash.
trait KeyView {
    fn digest(&self) -> u64;
    fn bytes(&self) -> &[u8];
}

impl KeyView for StoredKey {
    fn digest(&self) -> u64 {
        self.hash
    }
    fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl KeyView for (u64, &[u8]) {
    fn digest(&self) -> u64 {
        self.0
    }
    fn bytes(&self) -> &[u8] {
        self.1
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for StoredKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

impl Hash for dyn KeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest());
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.digest() == other.digest() && self.bytes() == other.bytes()
    }
}

impl Eq for dyn KeyView + '_ {}

impl Hash for StoredKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialEq for StoredKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.bytes == other.bytes
    }
}

impl Eq for StoredKey {}

/// The shard maps' hasher: every key arrives already hashed (see
/// [`EstimateCache::hash`]), so it passes that one `u64` through. The
/// estimate plan's slot-body memo hashes its keys the same way.
#[derive(Default)]
pub(crate) struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("cache keys hash as their one precomputed u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

type ShardMap = HashMap<StoredKey, CacheEntry, BuildHasherDefault<PassThrough>>;

/// The low and high halves of the full 128-bit product, XORed.
pub(crate) fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// Two little-endian words of a 16-byte chunk.
fn words(chunk: &[u8]) -> (u64, u64) {
    let (a, b) = chunk.split_at(8);
    (
        u64::from_le_bytes(a.try_into().expect("8-byte half")),
        u64::from_le_bytes(b.try_into().expect("8-byte half")),
    )
}

/// A thread-safe, sharded memo table for analytic estimates, with
/// hit/miss counters and a [version stamp](crate::cache#version-stamp)
/// that changes exactly when a new `Ok` entry is inserted.
///
/// Attach one to an estimator via
/// [`HlsEstimator::with_cache`](crate::model::HlsEstimator::with_cache);
/// clone the [`Arc`] to share it across estimators and
/// threads. Each lookup hashes its key once (see the
/// [module docs](crate::cache#one-hash-per-lookup)) onto one of
/// [`shard_count`](Self::shard_count) independently locked maps, so
/// concurrent lookups from different SCD work items rarely contend.
///
/// # Example
///
/// ```
/// use codesign_dnn::{bundle, space::DesignPoint};
/// use codesign_hls::cache::EstimateCache;
/// use codesign_hls::calibrate::calibrate_bundle;
/// use codesign_hls::model::HlsEstimator;
/// use codesign_sim::device::pynq_z1;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let bundle = bundle::enumerate_bundles()[12];
/// let params = calibrate_bundle(&bundle, &pynq_z1())?;
/// let cache = Arc::new(EstimateCache::new());
/// let est = HlsEstimator::new(params, pynq_z1()).with_cache(cache.clone());
/// let point = DesignPoint::initial(bundle, 3);
/// let a = est.estimate_point(&point)?;
/// let b = est.estimate_point(&point)?; // served from the cache
/// assert_eq!(a, b);
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// # Ok(())
/// # }
/// ```
// The alignment keeps the fields every lookup reads (the shard table
// and the hash seeds) off the cache line of an `Arc<EstimateCache>`'s
// reference counts, which every estimator clone writes.
#[derive(Debug)]
#[repr(align(128))]
pub struct EstimateCache {
    shards: Box<[Mutex<ShardMap>]>,
    /// Per-cache secret of the key hash (see [`Self::hash`]).
    seeds: [u64; 2],
    /// Per-thread lookup counters, summed by [`Self::stats`].
    stripes: Box<[Stripe; STRIPES]>,
    /// This cache's half of its [`CacheStamp`], unique within the
    /// process.
    id: u64,
}

impl Default for EstimateCache {
    fn default() -> Self {
        Self::new()
    }
}

impl EstimateCache {
    /// Creates an empty cache with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Creates an empty cache with `shards` shards, rounded up to the
    /// next power of two (minimum 1). `with_shards(1)` reproduces the
    /// old single-lock cache exactly.
    pub fn with_shards(shards: usize) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let n = shards.max(1).next_power_of_two();
        let state = RandomState::new();
        Self {
            shards: (0..n).map(|_| Mutex::new(ShardMap::default())).collect(),
            seeds: [state.hash_one(0u64), state.hash_one(1u64)],
            stripes: Box::default(),
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The key's hash: one seeded folded multiply per 16-byte chunk,
    /// the tail zero-padded into one last chunk. Computed once per
    /// lookup; it selects the shard and is the shard map's hash too.
    fn hash(&self, key: &[u8]) -> u64 {
        let [s0, s1] = self.seeds;
        let mut h = s0 ^ key.len() as u64;
        let mut chunks = key.chunks_exact(16);
        for chunk in &mut chunks {
            let (a, b) = words(chunk);
            h = folded_multiply(h ^ a, s1 ^ b);
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 16];
            last[..tail.len()].copy_from_slice(tail);
            let (a, b) = words(&last);
            h = folded_multiply(h ^ a, s1 ^ b);
        }
        h
    }

    /// The shard owning a key of hash `hash`. It reads bits 32 and up:
    /// the maps index buckets by the low bits and tag them with the top
    /// seven, so the shard bits stay out of both.
    fn shard(&self, hash: u64) -> &Mutex<ShardMap> {
        &self.shards[((hash >> 32) as usize) & (self.shards.len() - 1)]
    }

    /// The calling thread's counter stripe.
    fn stripe(&self) -> &Stripe {
        &self.stripes[stripe_index()]
    }

    /// Counts a hit on an entry, attributing it to the store when the
    /// entry was preloaded.
    fn count_hit(&self, preloaded: bool) {
        let stripe = self.stripe();
        stripe.hits.fetch_add(1, Ordering::Relaxed);
        if preloaded {
            stripe.store_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts a new `Ok` entry. Called only after the entry is in its
    /// shard and the shard lock is released.
    ///
    /// `Relaxed` is enough: the shard mutex carries the entry. A reader
    /// whose load sees this count and who then locks the shard cannot
    /// take the lock before the inserter did, since the inserter's count
    /// would then happen after the load that read it. So the reader's
    /// lock follows the inserter's unlock and sees the entry.
    fn count_ok_insert(&self) {
        self.stripe().ok_inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Sums one counter over every thread's stripe.
    fn sum(&self, counter: impl Fn(&Stripe) -> &AtomicU64) -> u64 {
        self.stripes
            .iter()
            .map(|s| counter(s).load(Ordering::Relaxed))
            .sum()
    }

    /// Current hit/miss counters and entry count. The counters are
    /// per-thread stripes, summed here; a [`ProbeMemo`] hit counts as a
    /// hit (see the [module docs](crate::cache#per-search-memo)).
    ///
    /// The *total* lookup count is deterministic (one hit or miss per
    /// query); the hit/miss split can shift by a few counts between
    /// multi-threaded runs when two workers race to compute the same
    /// key (both count a miss, the insert is idempotent).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.sum(|s| &s.hits),
            misses: self.sum(|s| &s.misses),
            entries: self.len() as u64,
        }
    }

    /// The cache's version: its id and how many `Ok` entries were ever
    /// inserted into it. An entry is counted only once it is in its
    /// shard, so a snapshot taken after reading the stamp holds every
    /// entry the stamp counts.
    pub(crate) fn stamp(&self) -> CacheStamp {
        CacheStamp {
            cache: self.id,
            ok_inserts: self.sum(|s| &s.ok_inserts),
        }
    }

    /// Number of distinct entries resident across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").len())
            .sum()
    }

    /// True when no entry has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hits served by entries that were [`preload`](Self::preload)ed
    /// from a persistent store (a subset of `stats().hits`). This is
    /// the number the warm-start acceptance gate measures: how much of
    /// a run's lookup traffic the on-disk store actually absorbed.
    pub fn store_hits(&self) -> u64 {
        self.sum(|s| &s.store_hits)
    }

    /// Inserts an `Ok` estimate loaded from a persistent store, unless
    /// the key is already resident. Returns `true` if the entry was
    /// inserted. Counts neither a hit nor a miss — preloading is not
    /// lookup traffic — but hits later served by the entry increment
    /// [`store_hits`](Self::store_hits). An inserted entry advances the
    /// [version stamp](crate::cache#version-stamp).
    pub fn preload(&self, key: &[u8], value: Estimate) -> bool {
        let hash = self.hash(key);
        let inserted = match self
            .shard(hash)
            .lock()
            .expect("cache shard lock")
            .entry(StoredKey {
                hash,
                bytes: key.into(),
            }) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(CacheEntry {
                    value: Ok(value),
                    preloaded: true,
                });
                true
            }
        };
        if inserted {
            self.count_ok_insert();
        }
        inserted
    }

    /// All resident `Ok` entries as `(key, estimate)` pairs, sorted by
    /// key bytes so the snapshot order is deterministic regardless of
    /// shard layout or hash-map iteration order. Cached *errors* are
    /// excluded: they are cheap to recompute and persisting them would
    /// pin transient failures across restarts.
    pub fn snapshot_ok(&self) -> Vec<(Vec<u8>, Estimate)> {
        let mut entries: Vec<(Vec<u8>, Estimate)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard lock");
            for (key, entry) in shard.iter() {
                if let Ok(est) = &entry.value {
                    entries.push((key.bytes.to_vec(), *est));
                }
            }
        }
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Returns the cached result for `key`, computing and inserting it
    /// with `compute` on a miss. The key is borrowed — it is copied to
    /// the heap only when a miss inserts it.
    ///
    /// No lock is held while `compute` runs, so concurrent estimates
    /// proceed in parallel; two threads racing on the same key both
    /// compute the (deterministic) value and the insert is idempotent.
    pub fn get_or_insert_with(
        &self,
        key: &[u8],
        compute: impl FnOnce() -> Result<Estimate, EstimateError>,
    ) -> Result<Estimate, EstimateError> {
        self.lookup(self.hash(key), key, compute).value
    }

    /// [`get_or_insert_with`](Self::get_or_insert_with) for a key whose
    /// hash is already known. Returns the value together with the
    /// resident entry's `preloaded` flag.
    fn lookup(
        &self,
        hash: u64,
        key: &[u8],
        compute: impl FnOnce() -> Result<Estimate, EstimateError>,
    ) -> CacheEntry {
        let shard = self.shard(hash);
        if let Some(cached) = shard
            .lock()
            .expect("cache shard lock")
            .get(&(hash, key) as &dyn KeyView)
        {
            self.count_hit(cached.preloaded);
            return cached.clone();
        }
        let value = compute();
        self.stripe().misses.fetch_add(1, Ordering::Relaxed);
        // The shard guard is a temporary of the `match`, released
        // before the insert is counted.
        let (preloaded, inserted_ok) =
            match shard.lock().expect("cache shard lock").entry(StoredKey {
                hash,
                bytes: key.into(),
            }) {
                Entry::Occupied(resident) => (resident.get().preloaded, false),
                Entry::Vacant(slot) => {
                    slot.insert(CacheEntry {
                        value: value.clone(),
                        preloaded: false,
                    });
                    (false, value.is_ok())
                }
            };
        if inserted_ok {
            self.count_ok_insert();
        }
        CacheEntry { value, preloaded }
    }
}

/// A per-search front of one [`EstimateCache`]: every key the search
/// has resolved through the cache, with the resident entry's value and
/// `preloaded` flag (see the
/// [module docs](crate::cache#per-search-memo) for why a memo hit is
/// exactly a cache hit).
///
/// A memo hit takes no lock and writes only the calling thread's
/// counter stripe. The memo uses the cache's key hash, so a memo miss
/// hashes its key once for both tables.
#[derive(Debug)]
pub struct ProbeMemo {
    cache: Arc<EstimateCache>,
    entries: ShardMap,
    tally: ProbeTally,
}

/// Lookups a [`ProbeMemo`] has served, and how many of them an entry
/// preloaded from a store answered. The difference of two readings is
/// what a stretch of a search looked up, so a search can replay that
/// stretch's counts (see
/// [restart replay](crate::cache#restart-replay)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeTally {
    /// Lookups served.
    pub lookups: u64,
    /// Of those, lookups whose entry was preloaded.
    pub preloaded: u64,
}

impl ProbeTally {
    /// The lookups served after `earlier`, a reading of the same memo.
    pub fn since(self, earlier: ProbeTally) -> ProbeTally {
        ProbeTally {
            lookups: self.lookups - earlier.lookups,
            preloaded: self.preloaded - earlier.preloaded,
        }
    }

    fn add(&mut self, other: ProbeTally) {
        self.lookups += other.lookups;
        self.preloaded += other.preloaded;
    }
}

impl ProbeMemo {
    /// An empty memo in front of `cache`.
    pub fn new(cache: Arc<EstimateCache>) -> Self {
        Self {
            cache,
            entries: ShardMap::default(),
            tally: ProbeTally::default(),
        }
    }

    /// Every lookup this memo has served so far, replays included.
    pub fn tally(&self) -> ProbeTally {
        self.tally
    }

    /// Counts `tally` as memo hits, as if its lookups were made again:
    /// `tally.lookups` cache hits, `tally.preloaded` of them store hits.
    /// Exact when every one of those lookups would be a memo hit — a
    /// repeat of lookups this memo already served (see
    /// [restart replay](crate::cache#restart-replay)).
    pub fn replay(&mut self, tally: ProbeTally) {
        let stripe = self.cache.stripe();
        stripe.hits.fetch_add(tally.lookups, Ordering::Relaxed);
        stripe
            .store_hits
            .fetch_add(tally.preloaded, Ordering::Relaxed);
        self.tally.add(tally);
    }

    /// [`EstimateCache::get_or_insert_with`] through the memo: a key the
    /// memo holds is counted as a cache hit and answered from the memo;
    /// any other key is looked up in the cache and remembered.
    pub fn get_or_insert_with(
        &mut self,
        key: &[u8],
        compute: impl FnOnce() -> Result<Estimate, EstimateError>,
    ) -> Result<Estimate, EstimateError> {
        let hash = self.cache.hash(key);
        if let Some(entry) = self.entries.get(&(hash, key) as &dyn KeyView) {
            self.cache.count_hit(entry.preloaded);
            self.tally.add(ProbeTally {
                lookups: 1,
                preloaded: entry.preloaded.into(),
            });
            return entry.value.clone();
        }
        let entry = self.cache.lookup(hash, key, compute);
        self.tally.add(ProbeTally {
            lookups: 1,
            preloaded: entry.preloaded.into(),
        });
        let value = entry.value.clone();
        self.entries.insert(
            StoredKey {
                hash,
                bytes: key.into(),
            },
            entry,
        );
        value
    }
}

/// A cache-key assembly buffer that lives on the stack for typical keys
/// and spills to the heap only for very deep designs.
///
/// `estimate_point` used to heap-allocate a fresh `Vec<u8>` key per
/// probe; at millions of probes per search that allocation was pure
/// overhead. A `KeyBuf` holds up to [`KeyBuf::INLINE`] bytes inline —
/// enough for the estimator salt plus the canonical encoding of design
/// points with ten-plus replications — and transparently migrates to a
/// `Vec` beyond that.
#[derive(Debug)]
pub struct KeyBuf {
    len: usize,
    inline: [u8; KeyBuf::INLINE],
    spill: Vec<u8>,
}

impl KeyBuf {
    /// Inline capacity in bytes.
    pub const INLINE: usize = 256;

    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self {
            len: 0,
            inline: [0u8; Self::INLINE],
            spill: Vec::new(),
        }
    }

    /// Appends a `u64` in little-endian byte order: one fixed-size
    /// store into the inline buffer while it has room.
    pub fn push_u64(&mut self, v: u64) {
        let end = self.len + 8;
        if end <= Self::INLINE && self.spill.is_empty() {
            self.inline[self.len..end].copy_from_slice(&v.to_le_bytes());
            self.len = end;
        } else {
            self.extend(&v.to_le_bytes());
        }
    }

    /// Appends raw bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.spill.is_empty() {
            if self.len + bytes.len() <= Self::INLINE {
                self.inline[self.len..self.len + bytes.len()].copy_from_slice(bytes);
                self.len += bytes.len();
                return;
            }
            self.spill.reserve(self.len + bytes.len());
            self.spill.extend_from_slice(&self.inline[..self.len]);
        }
        self.spill.extend_from_slice(bytes);
    }

    /// The assembled key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Empties the buffer for reuse (keeps any heap capacity).
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }
}

impl Default for KeyBuf {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_sim::report::ResourceUsage;

    fn estimate(cycles: u64) -> Result<Estimate, EstimateError> {
        Ok(Estimate {
            latency_cycles: cycles,
            resources: ResourceUsage::zero(),
        })
    }

    #[test]
    fn hit_returns_first_inserted_value() {
        let cache = EstimateCache::new();
        let a = cache.get_or_insert_with(&[1, 2], || estimate(10));
        let b = cache.get_or_insert_with(&[1, 2], || estimate(99));
        assert_eq!(a, b, "second lookup must be served from the cache");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let cache = EstimateCache::new();
        let a = cache.get_or_insert_with(&[1], || estimate(10)).unwrap();
        let b = cache.get_or_insert_with(&[2], || estimate(20)).unwrap();
        assert_ne!(a.latency_cycles, b.latency_cycles);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn errors_are_cached_too() {
        let cache = EstimateCache::new();
        let err = || {
            Err(EstimateError::Sim(
                codesign_sim::error::SimError::InvalidConfig {
                    reason: "test".into(),
                },
            ))
        };
        assert!(cache.get_or_insert_with(&[7], err).is_err());
        assert!(cache.get_or_insert_with(&[7], || estimate(1)).is_err());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(EstimateCache::with_shards(0).shard_count(), 1);
        assert_eq!(EstimateCache::with_shards(1).shard_count(), 1);
        assert_eq!(EstimateCache::with_shards(5).shard_count(), 8);
        assert_eq!(EstimateCache::new().shard_count(), DEFAULT_SHARDS);
    }

    #[test]
    fn sharding_is_transparent() {
        // The same key sequence produces identical results and stats on
        // a 1-shard (the old single-lock layout) and a many-shard cache.
        let single = EstimateCache::with_shards(1);
        let sharded = EstimateCache::with_shards(16);
        for cache in [&single, &sharded] {
            for k in 0u8..32 {
                cache
                    .get_or_insert_with(&[k, k / 3], || estimate(k as u64))
                    .unwrap();
                cache
                    .get_or_insert_with(&[k, k / 3], || estimate(999))
                    .unwrap();
            }
        }
        assert_eq!(single.len(), sharded.len());
        assert_eq!(single.stats().hits, sharded.stats().hits);
        assert_eq!(single.stats().misses, sharded.stats().misses);
        for k in 0u8..32 {
            assert_eq!(
                single.get_or_insert_with(&[k, k / 3], || estimate(999)),
                sharded.get_or_insert_with(&[k, k / 3], || estimate(999)),
            );
        }
    }

    #[test]
    fn shared_across_threads() {
        use std::sync::Arc;
        let cache = Arc::new(EstimateCache::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for k in 0u8..16 {
                        cache
                            .get_or_insert_with(&[k], || estimate(k as u64))
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.len(), 16);
        let stats = cache.stats();
        assert_eq!(stats.total(), 64);
    }

    #[test]
    fn key_buf_stays_inline_then_spills() {
        let mut key = KeyBuf::new();
        for w in 0..(KeyBuf::INLINE as u64 / 8) {
            key.push_u64(w);
        }
        assert_eq!(key.as_bytes().len(), KeyBuf::INLINE);
        let inline_copy = key.as_bytes().to_vec();
        key.push_u64(0xDEAD_BEEF); // forces the spill path
        assert_eq!(key.as_bytes().len(), KeyBuf::INLINE + 8);
        assert_eq!(&key.as_bytes()[..KeyBuf::INLINE], &inline_copy[..]);
        assert_eq!(
            &key.as_bytes()[KeyBuf::INLINE..],
            &0xDEAD_BEEFu64.to_le_bytes()
        );
        key.clear();
        assert!(key.as_bytes().is_empty());
        key.push_u64(7);
        assert_eq!(key.as_bytes(), &7u64.to_le_bytes());
    }

    #[test]
    fn near_alias_keys_stay_distinct() {
        // Keys the chunked hash could plausibly confuse: trailing zero
        // bytes (the tail is zero-padded), bytes past the last full
        // word or chunk, and keys longer than KeyBuf::INLINE.
        let long: Vec<u8> = (0..KeyBuf::INLINE + 40).map(|i| i as u8).collect();
        let mut long_tail = long.clone();
        *long_tail.last_mut().unwrap() ^= 1;
        let mut long_head = long.clone();
        long_head[0] ^= 1;
        let nine: Vec<u8> = (1..=9).collect();
        let seventeen: Vec<u8> = (1..=17).collect();
        let keys: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![1, 2, 3],
            vec![1, 2, 3, 0],
            vec![1, 2, 3, 0, 0, 0, 0, 0],
            vec![1, 2, 3, 0, 0, 0, 0, 0, 0],
            nine.clone(),
            [&nine[..8], &[10]].concat(),
            seventeen.clone(),
            [&seventeen[..16], &[18]].concat(),
            [&seventeen[..], &[0]].concat(),
            long,
            long_tail,
            long_head,
        ];
        let n = keys.len() as u64;
        assert_eq!(
            keys.iter().collect::<std::collections::HashSet<_>>().len() as u64,
            n
        );
        for shards in [1, 16] {
            let cache = EstimateCache::with_shards(shards);
            for (i, key) in keys.iter().enumerate() {
                let got = cache.get_or_insert_with(key, || estimate(i as u64));
                assert_eq!(got, estimate(i as u64), "key {i} ({shards} shards)");
            }
            assert_eq!(cache.len() as u64, n);
            assert_eq!((cache.stats().hits, cache.stats().misses), (0, n));
            for (i, key) in keys.iter().enumerate() {
                let got = cache.get_or_insert_with(key, || estimate(999));
                assert_eq!(got, estimate(i as u64), "key {i} ({shards} shards)");
            }
            assert_eq!((cache.stats().hits, cache.stats().misses), (n, n));
            assert_eq!(cache.len() as u64, n);
        }
    }

    #[test]
    fn preload_skips_resident_keys() {
        let cache = EstimateCache::new();
        let est = estimate(5).unwrap();
        assert!(cache.preload(&[9, 9], est));
        assert!(!cache.preload(&[9, 9], estimate(6).unwrap()));
        assert_eq!(cache.get_or_insert_with(&[9, 9], || estimate(7)), Ok(est));
        assert_eq!((cache.stats().total(), cache.store_hits()), (1, 1));
    }

    #[test]
    fn stamp_counts_new_ok_entries_only() {
        let cache = Arc::new(EstimateCache::new());
        let inserts = || cache.stamp().ok_inserts;
        assert_eq!(inserts(), 0);
        cache.get_or_insert_with(&[1], || estimate(1)).unwrap();
        assert!(cache.preload(&[2], estimate(2).unwrap()));
        assert_eq!(inserts(), 2);
        // Hits, a resident preload and a cached error add nothing.
        cache.get_or_insert_with(&[1], || estimate(9)).unwrap();
        assert!(!cache.preload(&[2], estimate(9).unwrap()));
        let _ = cache.get_or_insert_with(&[3], || {
            Err(EstimateError::Sim(
                codesign_sim::error::SimError::InvalidConfig {
                    reason: "test".into(),
                },
            ))
        });
        assert_eq!(inserts(), 2);
        // Inserts on other threads are summed.
        std::thread::scope(|s| {
            for t in 0..3u8 {
                let cache = &cache;
                s.spawn(move || cache.get_or_insert_with(&[10 + t], || estimate(1)));
            }
        });
        assert_eq!(inserts(), 5);
        assert_ne!(cache.stamp(), EstimateCache::new().stamp());
    }

    #[test]
    fn memo_hits_count_as_cache_hits() {
        let cache = Arc::new(EstimateCache::new());
        let mut memo = ProbeMemo::new(Arc::clone(&cache));
        assert_eq!(memo.get_or_insert_with(&[3], || estimate(3)), estimate(3));
        // Answered by the memo: a hit, and the cache is not consulted.
        assert_eq!(memo.get_or_insert_with(&[3], || estimate(9)), estimate(3));
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
        // A fresh memo resolves the key through the cache: also a hit.
        let mut other = ProbeMemo::new(Arc::clone(&cache));
        assert_eq!(other.get_or_insert_with(&[3], || estimate(9)), estimate(3));
        assert_eq!((cache.stats().hits, cache.stats().misses), (2, 1));
        assert_eq!(
            (memo.entries.len(), other.entries.len(), cache.len()),
            (1, 1, 1)
        );
    }

    #[test]
    fn replay_counts_what_repeat_lookups_would() {
        // Two memos over two caches with the same preloaded entry: one
        // repeats its lookups, the other replays their tally.
        let caches = [
            Arc::new(EstimateCache::new()),
            Arc::new(EstimateCache::new()),
        ];
        let mut memos = caches.clone().map(ProbeMemo::new);
        for (cache, memo) in caches.iter().zip(&mut memos) {
            assert!(cache.preload(&[1], estimate(1).unwrap()));
            let before = memo.tally();
            for key in [[1], [2], [1]] {
                memo.get_or_insert_with(&key, || estimate(2)).unwrap();
            }
            let tally = memo.tally().since(before);
            assert_eq!(
                tally,
                ProbeTally {
                    lookups: 3,
                    preloaded: 2
                }
            );
        }
        let [repeated, replayed] = &mut memos;
        let tally = replayed.tally();
        for key in [[1], [2], [1]] {
            repeated.get_or_insert_with(&key, || estimate(9)).unwrap();
        }
        replayed.replay(tally);
        let counts = |c: &EstimateCache| (c.stats().hits, c.stats().misses, c.store_hits());
        assert_eq!(counts(&caches[0]), (5, 1, 4));
        assert_eq!(counts(&caches[1]), counts(&caches[0]));
        assert_eq!(repeated.tally(), replayed.tally());
    }

    #[test]
    fn counters_sum_over_threads() {
        let cache = Arc::new(EstimateCache::new());
        cache.get_or_insert_with(&[1], || estimate(1)).unwrap();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let mut memo = ProbeMemo::new(Arc::clone(&cache));
                    for _ in 0..5 {
                        memo.get_or_insert_with(&[1], || estimate(2)).unwrap();
                    }
                });
            }
        });
        assert_eq!((cache.stats().hits, cache.stats().misses), (15, 1));
    }

    #[test]
    fn shard_selection_is_deterministic() {
        // A key must always land in the same shard, and keys should
        // spread across shards rather than pile onto one.
        let cache = EstimateCache::with_shards(16);
        let mut used = std::collections::HashSet::new();
        for k in 0u64..64 {
            let key: Vec<u8> = k.to_le_bytes().into_iter().cycle().take(40).collect();
            let a = cache.shard(cache.hash(&key)) as *const _;
            let b = cache.shard(cache.hash(&key)) as *const _;
            assert_eq!(a, b, "shard choice must be stable");
            used.insert(a as usize);
        }
        assert!(
            used.len() > 4,
            "64 keys landed in only {} shards",
            used.len()
        );
    }
}
