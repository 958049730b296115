//! Co-Design Step 3: hardware-aware DNN search and update.
//!
//! Implements DNN initialization (Sec. 5.2.1) and the **Stochastic
//! Coordinate Descent (SCD) unit** of Algorithm 1. Given an initial
//! design, a latency target `Lat_targ`, a tolerance `ε` and a resource
//! cap, SCD repeatedly estimates the latency change of a unit move
//! along each of three coordinates — replication count `N`, channel
//! expansion `Π`, down-sampling `X` — picks one coordinate uniformly at
//! random, scales the move by `⌊|Lat_targ − Lat| / ΔLat⌋`, and applies
//! it if the resource estimate stays within budget. Designs landing
//! within `ε` of the target are collected as candidates.
//!
//! Since SCD probes differ from their predecessor by exactly one
//! coordinate, every probe is priced through the incremental
//! [`EstimatePlan`] — the DNN is elaborated once per accepted
//! trajectory, not once per probe — with results bit-identical to the
//! full analytic rebuild.
//!
//! A search walks back over the same few points most of the time: in
//! the paper flow at seed 1, 88% of its unit-move iterations stand on a
//! point it already stood on. What an iteration probes is a function of
//! the point it stands on and of the move it draws, so the search keeps
//! a graph of its points and the moves it made between them, and prices
//! each point's unit moves and each move once. A revisit replays the
//! lookup counts of those probes (the "Revisit replay" section of the
//! `codesign_hls::cache` module docs) and follows the recorded move, so
//! the results and every counted lookup are those of probing again.

use crate::accuracy::AccuracyModel;
use codesign_dnn::builder::DnnBuilder;
use codesign_dnn::bundle::Bundle;
use codesign_dnn::quant::Activation;
use codesign_dnn::space::{DesignPoint, MAX_PARALLEL_FACTOR, PARALLEL_FACTOR_STEP};
use codesign_hls::cache::{KeyBuf, KeyIds, ProbeTally};
use codesign_hls::incremental::{EstimatePlan, MoveCoord};
use codesign_hls::model::{Estimate, HlsEstimator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Configuration of one SCD run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScdConfig {
    /// Latency target in milliseconds (at `clock_mhz`).
    pub latency_target_ms: f64,
    /// Tolerance `ε` in milliseconds.
    pub tolerance_ms: f64,
    /// Clock used to convert cycles to milliseconds.
    pub clock_mhz: f64,
    /// Number of candidate DNNs `K` to collect.
    pub candidates: usize,
    /// Iteration budget (Algorithm 1 loops until `k = K`; the budget
    /// bounds runs whose target is unreachable).
    pub max_iterations: usize,
    /// RNG seed for the stochastic coordinate choice.
    pub seed: u64,
}

impl Default for ScdConfig {
    fn default() -> Self {
        Self {
            latency_target_ms: 100.0,
            tolerance_ms: 10.0,
            clock_mhz: 100.0,
            candidates: 4,
            max_iterations: 400,
            seed: 7,
        }
    }
}

/// A candidate design produced by SCD: within tolerance of the latency
/// target and inside the resource budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The design point.
    pub point: DesignPoint,
    /// Analytic estimate at collection time.
    pub estimate: Estimate,
    /// Latency in milliseconds at the run's clock.
    pub latency_ms: f64,
    /// Estimated accuracy (IoU).
    pub accuracy: f64,
}

/// Chooses the largest legal parallel factor whose accelerator still
/// fits the estimator's device (Sec. 5.2.1: "PF is set as the maximum
/// value that can fully utilize available resources").
///
/// The point's DNN is elaborated **once** into an [`EstimatePlan`]; the
/// ladder rungs are then priced by re-deriving the analytic terms under
/// each PF, since the parallel factor never changes layer shapes. (The
/// SCD loop itself calls [`choose_max_parallel_factor_with`] to reuse
/// its live plan instead of elaborating a fresh one.)
pub fn choose_max_parallel_factor(point: &DesignPoint, estimator: &HlsEstimator) -> usize {
    let Ok(plan) = EstimatePlan::new(estimator, point) else {
        // The point does not elaborate at all; no rung can fit.
        return PARALLEL_FACTOR_STEP;
    };
    choose_max_parallel_factor_with(&plan, &mut point.clone())
}

/// [`choose_max_parallel_factor`] probing through an existing plan —
/// `plan`'s base point need not equal `point`; the plan reuses whatever
/// structural prefix the two share. Each rung is probed on `point`
/// itself, whose PF is left at the returned rung.
pub fn choose_max_parallel_factor_with(plan: &EstimatePlan, point: &mut DesignPoint) -> usize {
    let estimator = plan.estimator();
    let mut fits_at = |pf: usize| -> bool {
        point.parallel_factor = pf;
        plan.probe(point)
            .map(|est| estimator.fits(&est))
            .unwrap_or(false)
    };
    // Legal PFs form the ladder STEP, 2·STEP, …, MAX (HLS
    // array-partition factors). Resource usage is monotone
    // non-decreasing in PF, so binary-search the largest rung that
    // fits — probing every rung, unlike the old fixed `-16` stride
    // that skipped values such as 8 between its probes.
    let (mut lo, mut hi) = (1usize, MAX_PARALLEL_FACTOR / PARALLEL_FACTOR_STEP);
    if fits_at(lo * PARALLEL_FACTOR_STEP) {
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if fits_at(mid * PARALLEL_FACTOR_STEP) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
    }
    point.parallel_factor = lo * PARALLEL_FACTOR_STEP;
    point.parallel_factor
}

/// Restart depths of the SCD unit: a stuck search restarts from
/// `DesignPoint::initial(n)` with `n` drawn from `1..=RESTART_DEPTHS`.
const RESTART_DEPTHS: usize = 6;

/// The most moves out of one node: a perturbation per coordinate and
/// direction in the target window, and outside it a scaled move per
/// coordinate or, when no unit move changes the latency, a restart per
/// depth.
const OUT_EDGES: usize = 6;
const _: () = assert!(RESTART_DEPTHS <= OUT_EDGES);

/// The three coordinates, in the order the search draws them.
const COORDS: [MoveCoord; 3] = [
    MoveCoord::Replications,
    MoveCoord::Expansion,
    MoveCoord::Downsampling,
];

/// A move the search has made once: the lookups it counted, and the
/// node it ended on (its own start when it stayed).
#[derive(Debug, Clone, Copy)]
struct Edge {
    lookups: ProbeTally,
    to: usize,
}

/// What the search does on a node. It depends on the node's estimate
/// alone, so it is settled on the first visit.
#[derive(Debug, Clone, Copy)]
enum Visits {
    /// Not stood on yet.
    New,
    /// In the target window, and so collected.
    Window,
    /// Outside the window: the unit moves that change the latency, and
    /// the lookups their probes counted.
    Moves {
        deltas: [(MoveCoord, isize, f64); 3],
        movable: usize,
        lookups: ProbeTally,
    },
}

/// A state of the search: the point it stands on and the estimate it
/// prices moves against. That is the point's own estimate, except after
/// a restart to a point that does not estimate, where the search keeps
/// the estimate it had.
#[derive(Debug)]
struct Node {
    point: DesignPoint,
    estimate: Estimate,
    visits: Visits,
    /// The moves made out of this node, by index: see [`OUT_EDGES`].
    edges: [Option<Edge>; OUT_EDGES],
}

/// The distinct states one search has been in and the moves it has made
/// between them. Both are bounded by the iteration budget.
#[derive(Debug, Default)]
struct Graph {
    ids: KeyIds,
    nodes: Vec<Node>,
}

impl Graph {
    /// The node of `point` priced at `estimate`, added if it is new.
    fn node(&mut self, point: &DesignPoint, estimate: Estimate) -> usize {
        let mut key = KeyBuf::new();
        point.encode_canonical(&mut |w| key.push_u64(w));
        let r = estimate.resources;
        for w in [estimate.latency_cycles, r.dsp, r.lut, r.ff, r.bram_18k] {
            key.push_u64(w);
        }
        let (id, new) = self.ids.id(key.as_bytes());
        if new {
            self.nodes.push(Node {
                point: point.clone(),
                estimate,
                visits: Visits::New,
                edges: [None; OUT_EDGES],
            });
        }
        id
    }

    /// Takes edge `edge` out of node `at`: the first time by running
    /// `step`, which probes through `plan` and returns the node the
    /// search moves to, and after that by replaying the lookups that
    /// run counted (see the `cache` module docs, "Revisit replay").
    fn follow(
        &mut self,
        plan: &mut EstimatePlan,
        at: usize,
        edge: usize,
        step: impl FnOnce(&mut EstimatePlan, &mut Self) -> usize,
    ) -> usize {
        if let Some(Edge { lookups, to }) = self.nodes[at].edges[edge] {
            plan.replay_probes(lookups);
            return to;
        }
        let before = plan.probe_tally();
        let to = step(plan, self);
        let lookups = plan.probe_tally().since(before);
        self.nodes[at].edges[edge] = Some(Edge { lookups, to });
        to
    }
}

/// Runs the SCD unit (Algorithm 1) for one Bundle under one
/// activation / quantization arm (the co-design variable `Q` of
/// Table 1).
///
/// Returns up to `cfg.candidates` designs whose estimated latency lies
/// within `ε` of the target under the resource budget of the
/// estimator's device. The run is deterministic for a given seed.
///
/// Every probe goes through one incremental [`EstimatePlan`] instead of
/// rebuilding a DNN per query: the plan elaborates the current point
/// once and re-derives only the pipeline groups a unit move touches,
/// bit-identical to the full model. The search keeps a graph of the
/// points it has stood on: a point's unit moves, and each move out of
/// it (restarts included), are probed on the first visit only. A later
/// visit replays the lookup counts of those probes and follows the
/// recorded move. So results and, estimator cache attached, every hit,
/// miss and store-hit count are those of probing on every iteration.
pub fn scd_search(
    bundle: &Bundle,
    estimator: &HlsEstimator,
    model: &AccuracyModel,
    cfg: &ScdConfig,
    activation: Activation,
) -> Vec<Candidate> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let builder = DnnBuilder::new();
    let mut candidates: Vec<Candidate> = Vec::new();

    // DNN initialization (Sec. 5.2.1) + maximum-PF selection. The run
    // owns ONE plan: PF-ladder selection, every probe, and every
    // restart reuse it — the initial elaboration here is the only
    // from-scratch one in the whole search.
    let mut point = DesignPoint::initial(*bundle, 3);
    point.activation = activation;
    let Ok(mut plan) = EstimatePlan::new(estimator, &point) else {
        return candidates;
    };
    choose_max_parallel_factor_with(&plan, &mut point);
    let Ok(est) = plan.probe(&point) else {
        return candidates;
    };
    plan.commit_probed(&point, est);
    let mut graph = Graph::default();
    let mut at = graph.node(&point, est);
    // Every probe target is written into this scratch point, so a probe
    // allocates nothing; only a new node copies it.
    let mut target = point;

    for _iter in 0..cfg.max_iterations {
        if candidates.len() >= cfg.candidates {
            break;
        }
        let node = &mut graph.nodes[at];
        let est = node.estimate;
        let lat = est.latency_ms(cfg.clock_mhz);
        let gap = cfg.latency_target_ms - lat;
        if gap.abs() < cfg.tolerance_ms && estimator.fits(&est) {
            // A node is collected on its first visit. An in-window node
            // holds its point's own estimate, so it is the only node of
            // its point, and the candidates are distinct.
            if let Visits::New = node.visits {
                node.visits = Visits::Window;
                let dnn = builder.build(&node.point).expect("estimated points build");
                candidates.push(Candidate {
                    accuracy: model.estimate(&node.point, &dnn),
                    point: node.point.clone(),
                    estimate: est,
                    latency_ms: lat,
                });
            }
            // Perturb to hunt for the next distinct candidate.
            let c = usize::from(rng.random_range(0..3u8));
            let up = rng.random_bool(0.5);
            at = graph.follow(&mut plan, at, 2 * c + usize::from(up), |plan, graph| {
                target.clone_from(&graph.nodes[at].point);
                COORDS[c].apply(&mut target, if up { 1 } else { -1 });
                let Ok(e2) = plan.probe(&target) else {
                    return at;
                };
                plan.commit_probed(&target, e2);
                graph.node(&target, e2)
            });
            continue;
        }

        let (deltas, movable) = match node.visits {
            Visits::Moves {
                deltas,
                movable,
                lookups,
            } => {
                plan.replay_probes(lookups);
                (deltas, movable)
            }
            _ => {
                // Unit moves in the direction that closes the gap:
                // positive gap (target above latency) means the design
                // may grow. Down-sampling acts inversely: more
                // down-sampling -> faster.
                let before = plan.probe_tally();
                let unit: isize = if gap > 0.0 { 1 } else { -1 };
                let mut deltas = [(MoveCoord::Replications, 0isize, 0.0f64); 3];
                let mut movable = 0;
                for (coord, dir) in COORDS.into_iter().zip([unit, unit, -unit]) {
                    target.clone_from(&node.point);
                    coord.apply(&mut target, dir);
                    if target == node.point {
                        continue; // saturated coordinate
                    }
                    if let Ok(e2) = plan.probe(&target) {
                        let dlat = e2.latency_ms(cfg.clock_mhz) - lat;
                        if dlat.abs() > f64::EPSILON {
                            deltas[movable] = (coord, dir, dlat);
                            movable += 1;
                        }
                    }
                }
                let lookups = plan.probe_tally().since(before);
                node.visits = Visits::Moves {
                    deltas,
                    movable,
                    lookups,
                };
                (deltas, movable)
            }
        };
        if movable == 0 {
            // No coordinate can move: restart from a fresh random depth.
            let n = rng.random_range(1..=RESTART_DEPTHS);
            at = graph.follow(&mut plan, at, n - 1, |plan, graph| {
                target = DesignPoint::initial(*bundle, n);
                target.activation = activation;
                // Rebase the plan on the restart structure first (no
                // cache interaction), so the PF-ladder rungs below are
                // pure term repricings instead of re-elaborating the
                // structural diff on every probe. On an unelaborable
                // restart the plan keeps its old base, the ladder falls
                // back to diff-probing, and the search keeps its
                // estimate.
                let _ = plan.commit(&target);
                choose_max_parallel_factor_with(plan, &mut target);
                let estimate = match plan.probe(&target) {
                    Ok(e2) => {
                        plan.commit_probed(&target, e2);
                        e2
                    }
                    Err(_) => est,
                };
                graph.node(&target, estimate)
            });
            continue;
        }

        // Pick one coordinate uniformly at random (the "stochastic" in
        // SCD) and scale the move: Δ = ⌊|Lat_targ − Lat| / ΔLat⌋.
        let k = rng.random_range(0..movable);
        at = graph.follow(&mut plan, at, k, |plan, graph| {
            let (coord, dir, dlat) = deltas[k];
            let steps = ((gap.abs() / dlat.abs()).floor() as isize).clamp(1, 4);
            target.clone_from(&graph.nodes[at].point);
            coord.apply(&mut target, dir * steps);
            let Ok(e2) = plan.probe(&target) else {
                return at;
            };
            if !estimator.fits(&e2) && e2.resources.dsp > est.resources.dsp {
                return at;
            }
            plan.commit_probed(&target, e2);
            graph.node(&target, e2)
        });
    }
    candidates
}

/// Random-search baseline for the SCD ablation: samples design points
/// uniformly from the coordinate domains (no descent, no latency-scaled
/// steps) under the same evaluation budget, and keeps those inside the
/// target window.
///
/// Exists to quantify what the SCD unit buys; see the `ablation_scd`
/// bench. Returns the candidates found and the number of estimator
/// evaluations spent.
pub fn random_search(
    bundle: &Bundle,
    estimator: &HlsEstimator,
    model: &AccuracyModel,
    cfg: &ScdConfig,
    activation: Activation,
) -> (Vec<Candidate>, usize) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let builder = DnnBuilder::new();
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut evaluations = 0usize;
    for _ in 0..cfg.max_iterations {
        if candidates.len() >= cfg.candidates {
            break;
        }
        let reps = rng.random_range(1..=8usize);
        let mut point = DesignPoint::initial(*bundle, reps);
        point.activation = activation;
        for slot in 0..reps {
            point.downsample[slot] = rng.random_bool(0.5);
            if slot > 0 {
                let ladder = codesign_dnn::space::CHANNEL_EXPANSION_FACTORS;
                point.expansion[slot] = ladder[rng.random_range(0..ladder.len())];
            }
        }
        point.parallel_factor = choose_max_parallel_factor(&point, estimator);
        evaluations += 1;
        let Ok(est) = estimator.estimate_point(&point) else {
            continue;
        };
        let lat = est.latency_ms(cfg.clock_mhz);
        if (cfg.latency_target_ms - lat).abs() < cfg.tolerance_ms && estimator.fits(&est) {
            let Ok(dnn) = builder.build(&point) else {
                continue;
            };
            let accuracy = model.estimate(&point, &dnn);
            let candidate = Candidate {
                point,
                estimate: est,
                latency_ms: lat,
                accuracy,
            };
            if seen.insert(candidate.point.canonical_key()) {
                candidates.push(candidate);
            }
        }
    }
    (candidates, evaluations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::bundle::{bundle_by_id, BundleId};
    use codesign_hls::cache::EstimateCache;
    use codesign_hls::calibrate::calibrate_bundle;
    use codesign_sim::device::pynq_z1;
    use std::sync::Arc;

    fn relu_search(b: &Bundle, est: &HlsEstimator, cfg: &ScdConfig) -> Vec<Candidate> {
        scd_search(
            b,
            est,
            &AccuracyModel::paper_calibrated(),
            cfg,
            Activation::Relu,
        )
    }

    fn estimator(id: usize) -> (Bundle, HlsEstimator) {
        let b = bundle_by_id(BundleId(id)).unwrap();
        let params = calibrate_bundle(&b, &pynq_z1()).unwrap();
        (b, HlsEstimator::new(params, pynq_z1()))
    }

    #[test]
    fn scd_hits_latency_target() {
        let (b, est) = estimator(13);
        let cfg = ScdConfig {
            latency_target_ms: 60.0,
            tolerance_ms: 8.0,
            candidates: 3,
            ..ScdConfig::default()
        };
        let found = relu_search(&b, &est, &cfg);
        assert!(!found.is_empty(), "no candidates found");
        for c in &found {
            assert!(
                (c.latency_ms - 60.0).abs() < 8.0,
                "candidate at {} ms misses the 60±8 ms window",
                c.latency_ms
            );
            assert!(est.fits(&c.estimate), "candidate exceeds the device");
            assert!(c.point.validate().is_ok());
        }
    }

    #[test]
    fn candidates_are_distinct() {
        let (b, est) = estimator(13);
        let cfg = ScdConfig {
            latency_target_ms: 80.0,
            tolerance_ms: 10.0,
            candidates: 4,
            ..ScdConfig::default()
        };
        let found = relu_search(&b, &est, &cfg);
        for i in 0..found.len() {
            for j in (i + 1)..found.len() {
                assert_ne!(found[i].point, found[j].point);
            }
        }
    }

    #[test]
    fn search_is_seed_deterministic() {
        let (b, est) = estimator(1);
        let cfg = ScdConfig {
            latency_target_ms: 70.0,
            tolerance_ms: 10.0,
            candidates: 2,
            seed: 11,
            ..ScdConfig::default()
        };
        let a = relu_search(&b, &est, &cfg);
        let b2 = relu_search(&b, &est, &cfg);
        assert_eq!(a, b2);
    }

    #[test]
    fn unreachable_target_returns_empty_within_budget() {
        let (b, est) = estimator(13);
        let cfg = ScdConfig {
            latency_target_ms: 0.001, // faster than anything buildable
            tolerance_ms: 0.0005,
            candidates: 1,
            max_iterations: 50,
            ..ScdConfig::default()
        };
        let found = relu_search(&b, &est, &cfg);
        assert!(found.is_empty());
    }

    #[test]
    fn restart_heavy_search_lookups_are_pinned() {
        // An unreachable target keeps SCD stuck, so most iterations end
        // in a random restart. Replaying repeat restarts must not change
        // a single cache lookup: totals and misses recorded before any
        // replay existed, one shared cache, single-threaded, both arms.
        let (b, est) = estimator(13);
        let cache = Arc::new(EstimateCache::new());
        let est = est.with_cache(Arc::clone(&cache));
        let cfg = ScdConfig {
            latency_target_ms: 1.0,
            tolerance_ms: 0.1,
            candidates: 4,
            max_iterations: 400,
            ..ScdConfig::default()
        };
        let model = AccuracyModel::paper_calibrated();
        for (arm, total, misses) in [(Activation::Relu, 1805, 95), (Activation::Relu4, 3890, 198)] {
            assert!(scd_search(&b, &est, &model, &cfg, arm).is_empty());
            let stats = cache.stats();
            assert_eq!((stats.total(), stats.misses), (total, misses), "{arm:?}");
        }
    }

    #[test]
    fn unelaborable_restart_lookups_are_pinned() {
        // Bundle 6 does not elaborate at N = 6, so a restart to that
        // depth finds no estimate: the search stands on the restart
        // point and prices its next moves against the estimate it had.
        // Totals recorded before revisits were replayed; staying put
        // instead would read (1994, 46).
        let b = bundle_by_id(BundleId(6)).unwrap();
        let params = crate::pipeline::calibrate(&b, &pynq_z1()).unwrap();
        let cache = Arc::new(EstimateCache::new());
        let est = HlsEstimator::new(params, pynq_z1()).with_cache(Arc::clone(&cache));
        let cfg = ScdConfig {
            latency_target_ms: 100.0,
            tolerance_ms: 100.0 - 1000.0 / 11.5,
            candidates: 5,
            seed: 1,
            ..ScdConfig::default()
        };
        assert!(relu_search(&b, &est, &cfg).is_empty());
        let stats = cache.stats();
        assert_eq!((stats.total(), stats.misses), (1900, 51));
    }

    #[test]
    fn scd_beats_random_search_on_hit_rate() {
        // The ablation claim: under an equal iteration budget, SCD finds
        // at least as many in-window candidates as uniform sampling.
        let (b, est) = estimator(13);
        let cfg = ScdConfig {
            latency_target_ms: 60.0,
            tolerance_ms: 5.0,
            candidates: 8,
            max_iterations: 120,
            ..ScdConfig::default()
        };
        let model = AccuracyModel::paper_calibrated();
        let scd = scd_search(&b, &est, &model, &cfg, Activation::Relu);
        let (random, _) = random_search(&b, &est, &model, &cfg, Activation::Relu);
        assert!(
            scd.len() >= random.len(),
            "SCD found {} candidates, random found {}",
            scd.len(),
            random.len()
        );
        assert!(!scd.is_empty());
    }

    #[test]
    fn random_search_candidates_are_valid() {
        let (b, est) = estimator(13);
        let cfg = ScdConfig {
            latency_target_ms: 60.0,
            tolerance_ms: 10.0,
            candidates: 3,
            max_iterations: 150,
            ..ScdConfig::default()
        };
        let (found, evals) = random_search(
            &b,
            &est,
            &AccuracyModel::paper_calibrated(),
            &cfg,
            Activation::Relu,
        );
        assert!(evals > 0);
        for c in &found {
            assert!((c.latency_ms - 60.0).abs() < 10.0);
            assert!(c.point.validate().is_ok());
        }
    }

    #[test]
    fn max_pf_fits_device() {
        let (b, est) = estimator(13);
        let point = DesignPoint::initial(b, 4);
        let pf = choose_max_parallel_factor(&point, &est);
        let mut probe = point;
        probe.parallel_factor = pf;
        let e = est.estimate_point(&probe).unwrap();
        assert!(est.fits(&e), "chosen PF {pf} does not fit");
        assert!(pf >= 16, "suspiciously small PF {pf}");
    }

    #[test]
    fn max_pf_is_tight_on_the_legal_ladder() {
        // The chosen PF must be *maximal*: the next legal rung (a
        // multiple of PARALLEL_FACTOR_STEP, not of some larger stride)
        // must not fit. The old `pf -= 16` probe could neither return
        // nor rule out intermediate rungs like 8.
        let (b, est) = estimator(13);
        let point = DesignPoint::initial(b, 4);
        let pf = choose_max_parallel_factor(&point, &est);
        assert_eq!(pf % PARALLEL_FACTOR_STEP, 0);
        if pf < MAX_PARALLEL_FACTOR {
            let mut next = point.clone();
            next.parallel_factor = pf + PARALLEL_FACTOR_STEP;
            let fits_next = est
                .estimate_point(&next)
                .map(|e| est.fits(&e))
                .unwrap_or(false);
            assert!(!fits_next, "PF {pf} is not maximal: {} also fits", pf + 4);
        }
    }

    #[test]
    fn max_pf_pinned_for_pynq_z1() {
        // Pin the exact PF the ladder probe picks for a known device and
        // design, so regressions in the estimator or the probe are loud.
        let (b, est) = estimator(13);
        let pf = choose_max_parallel_factor(&DesignPoint::initial(b, 4), &est);
        assert_eq!(pf, 100, "PF choice drifted for PYNQ-Z1 / Bundle 13 / N=4");
    }
}
