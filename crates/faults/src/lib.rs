//! Deterministic fault injection for the co-design serving stack.
//!
//! A [`FaultPlan`] is a *seeded schedule of failures*: given one `u64`
//! seed and a set of named injection sites ("store.append",
//! "serve.job.panic", …), the plan decides — as a pure function of
//! `(seed, site, invocation index)` — whether the k-th operation at a
//! site fails, panics, is delayed, or proceeds. Because the decision
//! for index `k` never depends on thread timing, the schedule is
//! bit-identical across runs and across worker counts: chaos tests can
//! replay the exact same failure pattern from a single seed, and a
//! fault attributed to job `id` under one interleaving is attributed to
//! the same job under every other.
//!
//! # Injection sites
//!
//! Subsystems consult the plan at fixed, named *sites*:
//!
//! | site                | kind       | consulted by |
//! |---------------------|------------|--------------|
//! | `store.open`        | I/O error  | `RecordLog::open_with` |
//! | `store.append`      | I/O error  | `RecordLog::append` |
//! | `store.sync`        | I/O error  | `RecordLog::sync` |
//! | `serve.job.panic`   | panic      | the serve executor, keyed by job id |
//! | `serve.job.delay`   | latency    | the serve executor, keyed by job id |
//! | `serve.conn.drop`   | conn drop  | the HTTP accept path |
//! | `parallel.item`     | latency/panic | `codesign-parallel`'s threaded maps, per work item |
//! | `shard.worker.crash` | crash     | shard workers, keyed by shard index: abort mid-append on the first attempt, leaving a torn segment |
//! | `shard.worker.poison` | crash    | shard workers, keyed by shard index: abort on *every* attempt (poison-shard detection) |
//! | `shard.worker.hang` | hang       | shard workers, keyed by shard index: stop heartbeating and sleep until the lease reaper kills them |
//! | `shard.cell.delay`  | latency    | shard workers, keyed by global cell index, to widen crash windows in tests |
//!
//! A site not configured in the plan always proceeds, and a component
//! with no plan installed at all pays only an `Option`/relaxed-atomic
//! check — the production hot path is a no-op (pinned by bench parity
//! against the committed `BENCH_*.json`).
//!
//! # Two decision modes
//!
//! * [`FaultPlan::decide`] — advances a per-site atomic counter; the
//!   k-th *call* at the site gets decision `k`. Which thread observes
//!   which decision is racy, but the decision sequence itself is not.
//! * [`FaultPlan::decide_at`] — pure, keyed by a caller-supplied index
//!   (e.g. a job id). Use this when the fault must follow a stable
//!   identity rather than call order, so "which jobs panic" is a
//!   function of the seed alone.
//!
//! # Crossing process boundaries
//!
//! A plan can be written as a one-line *spec string*, parsed by
//! [`FaultPlan::from_spec`]. A supervisor hands its children the exact
//! schedule by forwarding the spec it was given, unchanged, through the
//! [`SPEC_ENV`] environment variable; each child parses it with
//! [`plan_from_env`]:
//!
//! ```text
//! seed=7;shard.worker.crash=panic@1,3;store.append=io%0.25;parallel.item=delay(50)%1
//! ```
//!
//! Each entry is `site=kind[(delay_ms)]` followed by either `@i1,i2`
//! (exact invocation indices) or `%rate` (seeded probability). Kinds
//! are `io`, `panic`, `delay`, and `drop`.
//!
//! This crate is dependency-free and sits at the bottom of the
//! workspace graph so store, parallel, core, and serve can all consume
//! it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// SplitMix64, a bijective avalanche mix over `u64`. It seeds the fault
/// schedules here and, through `codesign-parallel`'s re-export, every
/// work item of the flow.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over `bytes`, used to fold site names into the seed stream
/// (and re-exported by `codesign-store` as its record checksum).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What a consulted site should do for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultAction {
    /// No fault scheduled: run the real operation.
    Proceed,
    /// Fail the operation with an injected I/O error.
    FailIo,
    /// Panic (inside whatever isolation boundary the caller maintains).
    Panic,
    /// Sleep for the site's configured delay, then proceed.
    Delay(Duration),
    /// Drop the connection without reading or responding.
    DropConnection,
}

/// What kind of fault a site injects when its schedule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    IoError,
    Panic,
    Delay,
    DropConnection,
}

#[derive(Debug)]
struct Site {
    kind: FaultKind,
    /// Probability in `[0, 1]` that a given invocation index fires.
    rate: f64,
    /// When set, overrides `rate`: exactly these invocation indices
    /// fire. Used by tests that need a fault at a known position.
    at: Option<BTreeSet<u64>>,
    /// Sleep length for [`FaultKind::Delay`] sites.
    delay: Duration,
    /// Invocations seen by [`FaultPlan::decide`] (not `decide_at`).
    calls: AtomicU64,
    /// Faults actually injected at this site, either mode.
    injected: AtomicU64,
}

/// A seeded, thread-safe schedule of injected faults.
///
/// Parsed once from a spec string by [`FaultPlan::from_spec`] (the
/// grammar is in the module docs); the site set is immutable after
/// that, so concurrent [`decide`](Self::decide) calls contend only on
/// per-site atomic counters.
///
/// ```
/// use codesign_faults::{FaultAction, FaultPlan};
///
/// let plan = FaultPlan::from_spec("seed=42;store.append=io%0.5").unwrap();
/// // The schedule is a pure function of (seed, site, index):
/// let first: Vec<FaultAction> = (0..8).map(|k| plan.decide_at("store.append", k)).collect();
/// let again: Vec<FaultAction> = (0..8).map(|k| plan.decide_at("store.append", k)).collect();
/// assert_eq!(first, again);
/// // Unconfigured sites always proceed.
/// assert_eq!(plan.decide_at("store.sync", 0), FaultAction::Proceed);
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    sites: BTreeMap<String, Site>,
}

impl FaultPlan {
    /// The seed this plan's schedule derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Pure decision for invocation `index` at `site`: a function of
    /// `(seed, site, index)` only. Does not advance the site's call
    /// counter, so it is safe to both key real injections by stable ids
    /// and *predict* the schedule (e.g. "which job ids will panic")
    /// from test code without disturbing it.
    pub fn decide_at(&self, site: &str, index: u64) -> FaultAction {
        let Some(s) = self.sites.get(site) else {
            return FaultAction::Proceed;
        };
        let fired = match &s.at {
            Some(indices) => indices.contains(&index),
            None => self.fires(site, index, s.rate),
        };
        if !fired {
            return FaultAction::Proceed;
        }
        s.injected.fetch_add(1, Ordering::Relaxed);
        match s.kind {
            FaultKind::IoError => FaultAction::FailIo,
            FaultKind::Panic => FaultAction::Panic,
            FaultKind::Delay => FaultAction::Delay(s.delay),
            FaultKind::DropConnection => FaultAction::DropConnection,
        }
    }

    /// Counter-based decision: the k-th call at `site` (across all
    /// threads) gets the pure decision for index `k`. The *sequence* of
    /// decisions is deterministic; which caller observes which index is
    /// a scheduling artifact.
    pub fn decide(&self, site: &str) -> FaultAction {
        let Some(s) = self.sites.get(site) else {
            return FaultAction::Proceed;
        };
        let k = s.calls.fetch_add(1, Ordering::Relaxed);
        self.decide_at(site, k)
    }

    /// Counter-based I/O shim: `Ok(())` to proceed, or an injected
    /// [`io::Error`] (kind `Other`, message naming the site) when the
    /// schedule fires. Non-I/O site kinds are applied in place: delays
    /// sleep, panics panic.
    ///
    /// # Errors
    ///
    /// The injected error; never a real one.
    pub fn fail_io(&self, site: &str) -> io::Result<()> {
        match self.decide(site) {
            FaultAction::FailIo => Err(injected_io_error(site)),
            FaultAction::Panic => panic!("injected fault: {site}"),
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                Ok(())
            }
            FaultAction::Proceed | FaultAction::DropConnection => Ok(()),
        }
    }

    /// The first `n` decisions of a site's counter schedule, as pure
    /// data. `schedule(site, n)[k]` is exactly what the k-th
    /// [`decide`](Self::decide) call returns (modulo which thread gets
    /// it).
    pub fn schedule(&self, site: &str, n: u64) -> Vec<FaultAction> {
        (0..n).map(|k| self.decide_at(site, k)).collect()
    }

    /// Faults injected so far at `site` (both decision modes).
    pub fn injected(&self, site: &str) -> u64 {
        self.sites
            .get(site)
            .map(|s| s.injected.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Total faults injected across all sites.
    pub fn injected_total(&self) -> u64 {
        self.sites
            .values()
            .map(|s| s.injected.load(Ordering::Relaxed))
            .sum()
    }

    /// Whether the schedule fires for `(site, index)` at `rate`.
    fn fires(&self, site: &str, index: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let h = splitmix64(self.seed ^ splitmix64(fnv1a(site.as_bytes())) ^ splitmix64(index));
        // Top 53 bits → uniform in [0, 1), exactly representable.
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < rate
    }
}

/// Environment variable carrying a fault-plan spec string across a
/// process boundary (see [`FaultPlan::from_spec`] / [`plan_from_env`]).
pub const SPEC_ENV: &str = "CODESIGN_FAULT_SPEC";

/// A malformed fault-plan spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What was wrong, quoting the offending fragment.
    pub reason: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault spec: {}", self.reason)
    }
}

impl std::error::Error for SpecError {}

fn spec_err(reason: impl Into<String>) -> SpecError {
    SpecError {
        reason: reason.into(),
    }
}

impl FaultPlan {
    /// Parses a spec string (the grammar is in the module docs).
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the malformed fragment.
    pub fn from_spec(spec: &str) -> Result<Arc<FaultPlan>, SpecError> {
        let mut entries = spec.split(';');
        let head = entries.next().unwrap_or_default().trim();
        let seed: u64 = head
            .strip_prefix("seed=")
            .ok_or_else(|| spec_err(format!("must start with seed=<n>, got {head:?}")))?
            .parse()
            .map_err(|_| spec_err(format!("unparsable seed in {head:?}")))?;
        let mut sites = BTreeMap::new();
        for entry in entries {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (site, rest) = entry
                .split_once('=')
                .ok_or_else(|| spec_err(format!("entry {entry:?} missing '='")))?;
            if site.is_empty() {
                return Err(spec_err(format!("entry {entry:?} has an empty site name")));
            }
            let (kind_text, rate, at) = if let Some((k, idx)) = rest.split_once('@') {
                let indices = idx
                    .split(',')
                    .map(|i| i.trim().parse::<u64>())
                    .collect::<Result<BTreeSet<u64>, _>>()
                    .map_err(|_| spec_err(format!("unparsable index list in {entry:?}")))?;
                (k, 1.0, Some(indices))
            } else if let Some((k, r)) = rest.split_once('%') {
                let rate: f64 = r
                    .trim()
                    .parse()
                    .map_err(|_| spec_err(format!("unparsable rate in {entry:?}")))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(spec_err(format!("rate {rate} out of [0, 1] in {entry:?}")));
                }
                (k, rate, None)
            } else {
                (rest, 1.0, None)
            };
            let (kind_name, delay) = match kind_text.split_once('(') {
                Some((k, ms)) => {
                    let ms: u64 = ms
                        .strip_suffix(')')
                        .ok_or_else(|| spec_err(format!("unclosed delay in {entry:?}")))?
                        .trim()
                        .parse()
                        .map_err(|_| spec_err(format!("unparsable delay in {entry:?}")))?;
                    (k.trim(), Duration::from_millis(ms))
                }
                None => (kind_text.trim(), Duration::ZERO),
            };
            let kind = match kind_name {
                "io" => FaultKind::IoError,
                "panic" => FaultKind::Panic,
                "delay" => FaultKind::Delay,
                "drop" => FaultKind::DropConnection,
                other => {
                    return Err(spec_err(format!(
                        "unknown kind {other:?} in {entry:?} (expected io|panic|delay|drop)"
                    )))
                }
            };
            sites.insert(
                site.trim().to_string(),
                Site {
                    kind,
                    rate,
                    at,
                    delay,
                    calls: AtomicU64::new(0),
                    injected: AtomicU64::new(0),
                },
            );
        }
        Ok(Arc::new(FaultPlan { seed, sites }))
    }
}

/// Builds the plan described by the [`SPEC_ENV`] environment variable.
/// `Ok(None)` when the variable is unset or empty — the production
/// configuration.
///
/// # Errors
///
/// [`SpecError`] when the variable is set but malformed; callers
/// should fail loudly rather than silently run without faults.
pub fn plan_from_env() -> Result<Option<Arc<FaultPlan>>, SpecError> {
    match std::env::var(SPEC_ENV) {
        Ok(spec) if !spec.trim().is_empty() => FaultPlan::from_spec(&spec).map(Some),
        _ => Ok(None),
    }
}

/// The error every injected I/O fault carries. `io::ErrorKind::Other`
/// with a message naming the site, so logs and degraded-mode reasons
/// say exactly which schedule fired.
pub fn injected_io_error(site: &str) -> io::Error {
    io::Error::other(format!("injected fault: {site}"))
}

/// True when `err` was produced by [`injected_io_error`] — lets tests
/// distinguish scheduled faults from real disk trouble.
pub fn is_injected(err: &io::Error) -> bool {
    err.to_string().starts_with("injected fault: ")
}

// --- Process-global plan -------------------------------------------------
//
// Most injection points take the plan explicitly (the record log's
// `open_with`, the scheduler's `ServeConfig`). The work queue cannot:
// `parallel_map` is a free function called from inside the flow's
// stages with no plan to pass, so it consults a process-global slot
// instead. The slot is guarded by a relaxed `AtomicBool` checked
// *first*, so with no plan installed the per-item cost is one relaxed
// load — the no-op guarantee the benches pin.

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn global_slot() -> &'static Mutex<Option<Arc<FaultPlan>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<FaultPlan>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Installs `plan` as the process-global plan (replacing any previous
/// one). Test-only in spirit: production processes never install one.
pub fn install_global(plan: Arc<FaultPlan>) {
    *global_slot().lock().expect("fault plan slot") = Some(plan);
    ACTIVE.store(true, Ordering::Release);
}

/// Removes the process-global plan; hooks return to no-ops.
pub fn clear_global() {
    ACTIVE.store(false, Ordering::Release);
    *global_slot().lock().expect("fault plan slot") = None;
}

/// The currently installed process-global plan, if any. Fast `None`
/// when nothing is installed.
pub fn global() -> Option<Arc<FaultPlan>> {
    if !ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    global_slot().lock().expect("fault plan slot").clone()
}

/// The work queue's per-item hook (site `parallel.item`), run by every
/// item of a threaded `parallel_map` / `try_parallel_map` call: a
/// single relaxed atomic load when no global plan is installed;
/// otherwise an injected delay or panic per the schedule. Panics unwind
/// into the queue's existing per-item `catch_unwind`, which re-raises on
/// the caller — exactly the path a real work-item panic takes.
#[inline]
pub fn parallel_item_hook() {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    let Some(plan) = global() else { return };
    match plan.decide("parallel.item") {
        FaultAction::Delay(d) => std::thread::sleep(d),
        FaultAction::Panic => panic!("injected fault: parallel.item"),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconfigured_sites_always_proceed() {
        let plan = FaultPlan::from_spec("seed=7").unwrap();
        for k in 0..100 {
            assert_eq!(plan.decide_at("anything", k), FaultAction::Proceed);
        }
        assert_eq!(plan.decide("anything"), FaultAction::Proceed);
        assert!(plan.fail_io("anything").is_ok());
        assert_eq!(plan.injected_total(), 0);
    }

    #[test]
    fn rate_edges_are_exact() {
        let never = FaultPlan::from_spec("seed=1;s=io%0").unwrap();
        let always = FaultPlan::from_spec("seed=1;s=io%1").unwrap();
        for k in 0..200 {
            assert_eq!(never.decide_at("s", k), FaultAction::Proceed);
            assert_eq!(always.decide_at("s", k), FaultAction::FailIo);
        }
    }

    #[test]
    fn counter_mode_walks_the_pure_schedule() {
        let plan = FaultPlan::from_spec("seed=99;s=io%0.5").unwrap();
        let pure = plan.schedule("s", 64);
        let walked: Vec<FaultAction> = (0..64).map(|_| plan.decide("s")).collect();
        assert_eq!(walked, pure);
    }

    #[test]
    fn different_sites_get_different_schedules() {
        let plan = FaultPlan::from_spec("seed=5;a=io%0.5;b=io%0.5").unwrap();
        let a = plan.schedule("a", 256);
        let b = plan.schedule("b", 256);
        assert_ne!(a, b, "independent sites must not share a schedule");
    }

    #[test]
    fn rates_land_near_the_target_frequency() {
        let plan = FaultPlan::from_spec("seed=1234;s=io%0.25").unwrap();
        let fired = plan
            .schedule("s", 4096)
            .iter()
            .filter(|a| **a == FaultAction::FailIo)
            .count();
        let frac = fired as f64 / 4096.0;
        assert!(
            (0.2..0.3).contains(&frac),
            "rate 0.25 produced frequency {frac}"
        );
    }

    #[test]
    fn index_targeted_sites_fire_exactly_where_asked() {
        let plan = FaultPlan::from_spec("seed=0;s=io@0,3").unwrap();
        let schedule = plan.schedule("s", 5);
        assert_eq!(
            schedule,
            vec![
                FaultAction::FailIo,
                FaultAction::Proceed,
                FaultAction::Proceed,
                FaultAction::FailIo,
                FaultAction::Proceed,
            ]
        );
        assert_eq!(plan.injected("s"), 2);
    }

    #[test]
    fn injected_errors_are_recognizable() {
        let err = injected_io_error("store.append");
        assert!(is_injected(&err));
        assert!(err.to_string().contains("store.append"));
        assert!(!is_injected(&io::Error::other("disk on fire")));
    }

    #[test]
    fn injected_counters_track_fired_faults() {
        let plan = FaultPlan::from_spec("seed=3;s=io%1;d=delay(0)%1").unwrap();
        for _ in 0..5 {
            let _ = plan.fail_io("s");
        }
        assert_eq!(plan.injected("s"), 5);
        assert_eq!(plan.decide("d"), FaultAction::Delay(Duration::ZERO));
        assert_eq!(plan.injected_total(), 6);
    }

    #[test]
    fn spec_round_trips_schedules_exactly() {
        let spec = "seed=7;shard.worker.crash=panic@1,3;store.append=io%0.25;\
                    parallel.item=delay(50)%1;shard.cell.delay=delay(5)@0,2,4;\
                    serve.conn.drop=drop%0.125";
        let plan = FaultPlan::from_spec(spec).unwrap();
        assert_eq!(plan.seed(), 7);
        // The indices of `schedule(site, 256)` that fire, as a 256-bit
        // mask, each firing with `action`.
        let fired = |site: &str, action: FaultAction| {
            let mut mask = [0u64; 4];
            for (k, got) in plan.schedule(site, 256).into_iter().enumerate() {
                if got != FaultAction::Proceed {
                    assert_eq!(got, action, "{site} index {k}");
                    mask[k / 64] |= 1 << (k % 64);
                }
            }
            mask
        };
        let at = |indices: &[usize]| {
            let mut mask = [0u64; 4];
            for &k in indices {
                mask[k / 64] |= 1 << (k % 64);
            }
            mask
        };
        // `@` sites fire exactly at their listed indices.
        assert_eq!(fired("shard.worker.crash", FaultAction::Panic), at(&[1, 3]));
        assert_eq!(
            fired(
                "shard.cell.delay",
                FaultAction::Delay(Duration::from_millis(5))
            ),
            at(&[0, 2, 4])
        );
        // `%` sites: goldens of the seeded 256-call schedules.
        assert_eq!(
            fired("store.append", FaultAction::FailIo),
            [
                0x5000_108e_2040_8016,
                0x8011_8104_8331_00a7,
                0x0081_1004_b022_3900,
                0x4310_0490_8040_8007,
            ]
        );
        assert_eq!(
            fired("serve.conn.drop", FaultAction::DropConnection),
            [
                0x0082_8010_0840_0c40,
                0x2200_0900_0400_0000,
                0x6800_3008_0100_0000,
                0x0020_0088_0000_0101,
            ]
        );
        assert_eq!(
            fired(
                "parallel.item",
                FaultAction::Delay(Duration::from_millis(50))
            ),
            [u64::MAX; 4]
        );
        assert_eq!(fired("unconfigured.site", FaultAction::Proceed), [0; 4]);
    }

    #[test]
    fn handwritten_specs_parse() {
        let plan =
            FaultPlan::from_spec("seed=9; shard.worker.crash=panic@2 ;store.sync=io%0.5").unwrap();
        assert_eq!(plan.decide_at("shard.worker.crash", 2), FaultAction::Panic);
        assert_eq!(
            plan.decide_at("shard.worker.crash", 1),
            FaultAction::Proceed
        );
        // Bare kind means rate 1.0.
        let always = FaultPlan::from_spec("seed=0;s=io").unwrap();
        assert_eq!(always.decide_at("s", 123), FaultAction::FailIo);
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        for bad in [
            "",
            "seed=x",
            "nosite",
            "seed=1;entry-without-eq",
            "seed=1;s=frobnicate",
            "seed=1;s=io@x",
            "seed=1;s=io%2.0",
            "seed=1;s=delay(q)%1",
            "seed=1;s=delay(5%1",
            "seed=1;=io",
        ] {
            assert!(FaultPlan::from_spec(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn global_install_round_trips_and_clears() {
        // Serialized with a lock because other tests may run in
        // parallel in this binary — the global slot is process-wide.
        static GUARD: Mutex<()> = Mutex::new(());
        let _guard = GUARD.lock().unwrap();
        assert!(global().is_none());
        parallel_item_hook(); // no-op without a plan
        let plan = FaultPlan::from_spec("seed=11;parallel.item=delay(0)%1").unwrap();
        install_global(Arc::clone(&plan));
        assert!(global().is_some());
        parallel_item_hook();
        assert_eq!(plan.injected("parallel.item"), 1);
        clear_global();
        assert!(global().is_none());
    }
}
