//! **repwf-map** — mapping heuristics for throughput maximization.
//!
//! Finding the mapping that maximizes throughput is NP-hard even without
//! replication (Benoit & Robert, JPDC 2008 — reference \[3\] of the paper);
//! the paper computes the throughput of a *given* mapping. This crate closes
//! the loop: it searches mapping space using `repwf-core`'s period oracle as
//! the objective, providing
//!
//! * [`greedy`] — a work-proportional greedy constructor,
//! * [`local_search`] — hill climbing over add/remove/move/swap moves,
//! * [`optimize`] — multi-start search combining both,
//! * [`annealing`] — simulated annealing over the same move set, for
//!   instances where hill climbing stalls in local optima,
//! * [`exact`] — deterministic parallel branch-and-bound for small
//!   instances: a certified optimum, bit-identical at any worker count
//!   (with [`enumerate`], the brute-force oracle its tests diff against).
//!
//! The oracle is [`evaluate`] / [`evaluate_with`]: it validates a
//! candidate, asks a `repwf_core::engine::PeriodEngine` for the period,
//! and transparently falls back to the `repwf-sim` discrete-event
//! simulator when the strict-model TPN exceeds the size cap — so the
//! search never dead-ends on large `lcm` replication patterns. The search
//! loops ([`local_search`], [`annealing::anneal`]) hold one
//! **warm-started** engine for their whole run: neighbor mappings of the
//! same shape re-solve on the shape-cached patch path (re-time + cost
//! re-weight + warm Howard — no TPN rebuild, no CSR build, no Tarjan
//! run), the oracle's incremental `M_ct` re-examines only the stages a
//! [`Move`] touched ([`Move::touched_stages`] and their neighbors), and
//! every TPN / solver buffer is reused across the thousands of oracle
//! calls.
//!
//! A subtlety worth noting (and property-tested): because replicas serve
//! data sets in **round-robin**, adding a slow processor to a stage can
//! *decrease* throughput — the slow replica handles the same share as the
//! fast ones. The local search therefore also considers removing replicas.
//!
//! # Quickstart
//!
//! ```
//! use repwf_core::model::{CommModel, Pipeline, Platform};
//! use repwf_map::{optimize, SearchOptions};
//!
//! // A skewed two-stage pipeline on four unit-speed processors: the
//! // optimum replicates the heavy stage three-fold.
//! let pipeline = Pipeline::new(vec![2.0, 9.0], vec![0.001]).unwrap();
//! let platform = Platform::uniform(4, 1.0, 1000.0);
//! let result = optimize(&pipeline, &platform, &SearchOptions::default());
//! assert_eq!(result.mapping.replicas(1), 3);
//! assert!((result.period - 3.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annealing;
pub mod enumerate;
pub mod exact;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use repwf_core::engine::{MappingOracle, PeriodEngine};
use repwf_core::model::{CommModel, Instance, Mapping, Pipeline, Platform, ProcId, StageId};
use repwf_core::period::{Method, PeriodError};

/// Options for the mapping search.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Communication model to optimize for.
    pub model: CommModel,
    /// Number of random restarts in [`optimize`].
    pub restarts: usize,
    /// Maximum local-search passes per restart.
    pub max_passes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions { model: CommModel::Overlap, restarts: 4, max_passes: 40, seed: 0 }
    }
}

/// A search outcome.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best mapping found.
    pub mapping: Mapping,
    /// Its per-data-set period.
    pub period: f64,
    /// Number of oracle evaluations spent.
    pub evaluations: usize,
}

/// Evaluates a candidate mapping through a [`MappingOracle`] session,
/// adding the simulator fallback for TPNs above the size cap; `None` when
/// the mapping is invalid or the oracle fails for another reason.
///
/// This is the search-loop oracle: the only clones on any path are in the
/// rare simulator fallback (which needs an owned [`Instance`]).
pub(crate) fn oracle_eval(
    oracle: &mut MappingOracle<'_>,
    mapping: &Mapping,
    model: CommModel,
) -> Option<f64> {
    match oracle.period(mapping, model, Method::Auto) {
        Ok(period) => Some(period),
        Err(PeriodError::Build(_)) => {
            // TPN too large: fall back to the simulator estimate.
            let inst = Instance::new(
                oracle.pipeline().clone(),
                oracle.platform().clone(),
                mapping.clone(),
            )
            .ok()?;
            let sim = repwf_sim::simulate(
                &inst,
                model,
                &repwf_sim::SimOptions { data_sets: 4000, record_ops: false },
            );
            Some(sim.exact_period(1e-9).unwrap_or_else(|| sim.period_estimate()))
        }
        Err(_) => None,
    }
}

/// Evaluates a candidate mapping; `None` when the mapping is invalid or the
/// oracle fails (e.g. TPN too large for the strict model).
///
/// One-shot convenience over [`evaluate_with`]: allocates a fresh engine
/// per call. The search loops keep a warm [`MappingOracle`] instead.
pub fn evaluate(
    pipeline: &Pipeline,
    platform: &Platform,
    mapping: &Mapping,
    model: CommModel,
) -> Option<f64> {
    evaluate_with(pipeline, platform, mapping, model, &mut PeriodEngine::new())
}

/// [`evaluate`] on a caller-owned [`PeriodEngine`]: repeated candidate
/// evaluations reuse the engine's TPN arena and Howard workspace (and its
/// warm-start policy and patch state, when enabled). Thin wrapper over a
/// [`MappingOracle`] borrowing the engine for the call, so the oracle's
/// parked shape arenas do not outlive it: a candidate of a new shape
/// rebuilds in a fresh arena. Search loops keep one oracle instead.
pub fn evaluate_with(
    pipeline: &Pipeline,
    platform: &Platform,
    mapping: &Mapping,
    model: CommModel,
    engine: &mut PeriodEngine,
) -> Option<f64> {
    let mut oracle = MappingOracle::with_engine(pipeline, platform, std::mem::take(engine));
    let out = oracle_eval(&mut oracle, mapping, model);
    *engine = oracle.into_engine();
    out
}

/// One in-place neighbor move over a [`Mapping`] — the search loops apply
/// a move, evaluate the mutated mapping through the oracle, and undo it,
/// so exploring a neighborhood never clones the assignment.
///
/// `Swap` preserves every per-stage replica count, so the period engine
/// evaluates it on the incremental patch path; the other three change a
/// count and trigger a TPN rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Map the (unused) processor `proc` onto `stage` (appended last in
    /// round-robin order).
    Add {
        /// Target stage.
        stage: StageId,
        /// Processor to map; must not appear in the mapping.
        proc: ProcId,
    },
    /// Unmap the replica at `slot` of `stage` (which must keep ≥ 1).
    Remove {
        /// Stage losing a replica.
        stage: StageId,
        /// Round-robin slot to remove.
        slot: usize,
    },
    /// Move the replica at `slot` of stage `from` to the end of stage `to`.
    Shift {
        /// Stage losing the replica (must keep ≥ 1).
        from: StageId,
        /// Round-robin slot to move.
        slot: usize,
        /// Stage receiving the replica.
        to: StageId,
    },
    /// Swap slot `si` of stage `i` with slot `sj` of stage `j`.
    Swap {
        /// First stage.
        i: StageId,
        /// Slot in the first stage.
        si: usize,
        /// Second stage.
        j: StageId,
        /// Slot in the second stage.
        sj: usize,
    },
}

impl Move {
    /// The stages whose processor lists change when this move is applied
    /// (one for `Add`/`Remove`, two otherwise). These are the stages the
    /// oracle's incremental `M_ct` detects as changed; it re-examines them
    /// plus their immediate neighbors, whose in/out-port times depend on
    /// the round-robin partners here — so an evaluation after a move
    /// recomputes at most six stages' cycle-times, not all of them.
    pub fn touched_stages(self) -> (StageId, Option<StageId>) {
        match self {
            Move::Add { stage, .. } | Move::Remove { stage, .. } => (stage, None),
            Move::Shift { from, to, .. } => (from, Some(to)),
            Move::Swap { i, j, .. } => (i, Some(j)),
        }
    }
}

/// The record needed to exactly invert an applied [`Move`]
/// (round-robin order is significant, so undo restores exact slots).
#[derive(Debug, Clone, Copy)]
pub struct AppliedMove {
    mv: Move,
    /// The processor displaced by `Remove`/`Shift` (unused otherwise).
    proc: ProcId,
}

/// Applies `mv` to `mapping` in place. Preconditions are those of the
/// underlying [`Mapping`] mutators (`Add` needs an unused processor,
/// `Remove`/`Shift` a stage with ≥ 2 replicas) — the move generators
/// below only produce satisfying moves.
pub fn apply_move(mapping: &mut Mapping, mv: Move) -> AppliedMove {
    let proc = match mv {
        Move::Add { stage, proc } => {
            mapping.push_replica(stage, proc);
            proc
        }
        Move::Remove { stage, slot } => mapping.remove_replica(stage, slot),
        Move::Shift { from, slot, to } => {
            let u = mapping.remove_replica(from, slot);
            mapping.push_replica(to, u);
            u
        }
        Move::Swap { i, si, j, sj } => {
            mapping.swap_replicas(i, si, j, sj);
            0
        }
    };
    AppliedMove { mv, proc }
}

/// Exactly inverts [`apply_move`].
pub fn undo_move(mapping: &mut Mapping, applied: AppliedMove) {
    match applied.mv {
        Move::Add { stage, .. } => {
            let last = mapping.replicas(stage) - 1;
            mapping.remove_replica(stage, last);
        }
        Move::Remove { stage, slot } => mapping.insert_replica(stage, slot, applied.proc),
        Move::Shift { from, slot, to } => {
            let last = mapping.replicas(to) - 1;
            let u = mapping.remove_replica(to, last);
            debug_assert_eq!(u, applied.proc);
            mapping.insert_replica(from, slot, u);
        }
        Move::Swap { i, si, j, sj } => mapping.swap_replicas(i, si, j, sj),
    }
}

/// Greedy constructor: processors (fastest first) are handed one by one to
/// the stage with the worst current computation bottleneck
/// `w_i / Σ_{u ∈ stage} Π_u` (a round-robin-oblivious proxy that is cheap
/// and surprisingly strong as a seed for local search).
pub fn greedy(pipeline: &Pipeline, platform: &Platform) -> Mapping {
    let n = pipeline.num_stages();
    let mut by_speed: Vec<usize> = (0..platform.num_procs()).collect();
    by_speed.sort_by(|&a, &b| platform.speed(b).partial_cmp(&platform.speed(a)).expect("finite"));
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut speed_sum = vec![0.0f64; n];
    // First give every stage its single fastest processor (feasibility).
    let mut it = by_speed.into_iter();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| pipeline.work(b).partial_cmp(&pipeline.work(a)).expect("finite"));
    for &i in &order {
        let u = it.next().expect("p >= n checked by caller");
        assignment[i].push(u);
        speed_sum[i] += platform.speed(u);
    }
    // Then hand out the rest to the current bottleneck stage.
    for u in it {
        let i = (0..n)
            .max_by(|&a, &b| {
                (pipeline.work(a) / speed_sum[a])
                    .partial_cmp(&(pipeline.work(b) / speed_sum[b]))
                    .expect("finite")
            })
            .expect("n >= 1");
        assignment[i].push(u);
        speed_sum[i] += platform.speed(u);
    }
    Mapping::new(assignment).expect("greedy builds valid mappings")
}

/// A uniformly random feasible mapping (each stage ≥ 1 processor; remaining
/// processors assigned to random stages or left unused with probability
/// `p_unused`).
pub fn random_mapping<R: Rng>(
    pipeline: &Pipeline,
    platform: &Platform,
    p_unused: f64,
    rng: &mut R,
) -> Mapping {
    let n = pipeline.num_stages();
    let p = platform.num_procs();
    let mut procs: Vec<usize> = (0..p).collect();
    for i in (1..p).rev() {
        let j = rng.gen_range(0..=i);
        procs.swap(i, j);
    }
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (k, &u) in procs.iter().enumerate() {
        if k < n {
            assignment[k].push(u);
        } else if rng.gen::<f64>() >= p_unused {
            assignment[rng.gen_range(0..n)].push(u);
        }
    }
    Mapping::new(assignment).expect("random mapping is valid")
}

/// Enumerates the neighborhood of `mapping` in the canonical order of the
/// hill climber: add-unused, remove, shift, swap. `counts` are the
/// per-stage replica counts of `mapping` (the pass-start snapshot).
fn neighborhood(counts: &[usize], used: &[bool], moves: &mut Vec<Move>) {
    let n = counts.len();
    let p = used.len();
    moves.clear();
    // add an unused processor to any stage
    for u in (0..p).filter(|&u| !used[u]) {
        for i in 0..n {
            moves.push(Move::Add { stage: i, proc: u });
        }
    }
    // remove a replica (keep ≥ 1)
    for (i, &c) in counts.iter().enumerate() {
        if c > 1 {
            for k in 0..c {
                moves.push(Move::Remove { stage: i, slot: k });
            }
        }
    }
    // move a replica to another stage
    for (i, &c) in counts.iter().enumerate() {
        if c > 1 {
            for k in 0..c {
                for j in 0..n {
                    if j != i {
                        moves.push(Move::Shift { from: i, slot: k, to: j });
                    }
                }
            }
        }
    }
    // swap two replicas across stages
    for i in 0..n {
        for j in (i + 1)..n {
            for k in 0..counts[i] {
                for l in 0..counts[j] {
                    moves.push(Move::Swap { i, si: k, j, sj: l });
                }
            }
        }
    }
}

/// Hill climbing from `start`: tries add-unused / remove / move / swap moves
/// until a full pass yields no improvement (or `max_passes` is hit).
///
/// The climb holds **one owned mapping** and explores each neighborhood by
/// applying a [`Move`], evaluating through a warm-started
/// [`MappingOracle`], and undoing it — no per-candidate assignment clone,
/// no per-candidate `Instance`, and swap candidates re-solve on the
/// engine's incremental patch path.
pub fn local_search(
    pipeline: &Pipeline,
    platform: &Platform,
    start: Mapping,
    opts: &SearchOptions,
) -> SearchResult {
    let p = platform.num_procs();
    // One warm-started oracle for the whole climb: same-shape neighbor
    // mappings re-solve from the previous Howard policy.
    let mut oracle = MappingOracle::new(pipeline, platform).warm_start(true);
    let mut current = start;
    let mut evals = 0usize;
    let mut best_period = match oracle_eval(&mut oracle, &current, opts.model) {
        Some(v) => {
            evals += 1;
            v
        }
        None => f64::INFINITY,
    };

    let mut moves: Vec<Move> = Vec::new();
    let mut used = vec![false; p];
    for _ in 0..opts.max_passes {
        let mut improved = false;
        // Pass-start snapshot: the whole neighborhood is generated from it,
        // even though `current` keeps improving the acceptance threshold.
        let counts = current.replica_counts();
        used.fill(false);
        for procs in current.assignment() {
            for &u in procs {
                used[u] = true;
            }
        }
        neighborhood(&counts, &used, &mut moves);

        let mut best_move: Option<Move> = None;
        for &mv in &moves {
            let applied = apply_move(&mut current, mv);
            let period = oracle_eval(&mut oracle, &current, opts.model);
            undo_move(&mut current, applied);
            let Some(period) = period else { continue };
            evals += 1;
            if period < best_period - 1e-12 {
                best_period = period;
                best_move = Some(mv);
                improved = true;
            }
        }
        // Commit the last improving candidate (the historical semantics of
        // the pass: later improvements overwrite earlier ones).
        if let Some(mv) = best_move {
            apply_move(&mut current, mv);
        }
        if !improved {
            break;
        }
    }
    SearchResult { mapping: current, period: best_period, evaluations: evals }
}

/// Multi-start optimization: greedy seed plus `restarts` random seeds, each
/// refined by [`local_search`]; returns the best result.
pub fn optimize(pipeline: &Pipeline, platform: &Platform, opts: &SearchOptions) -> SearchResult {
    assert!(platform.num_procs() >= pipeline.num_stages(), "need at least one processor per stage");
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut best = local_search(pipeline, platform, greedy(pipeline, platform), opts);
    for _ in 0..opts.restarts {
        let start = random_mapping(pipeline, platform, 0.3, &mut rng);
        let res = local_search(pipeline, platform, start, opts);
        if res.period < best.period {
            let evals = best.evaluations + res.evaluations;
            best = SearchResult { evaluations: evals, ..res };
        } else {
            best.evaluations += res.evaluations;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(works: Vec<f64>, speeds: Vec<f64>) -> (Pipeline, Platform) {
        let n = works.len();
        let pipeline = Pipeline::new(works, vec![0.001; n - 1]).unwrap();
        let p = speeds.len();
        let mut platform = Platform::uniform(p, 1.0, 1000.0);
        for (u, s) in speeds.into_iter().enumerate() {
            platform.set_speed(u, s);
        }
        (pipeline, platform)
    }

    #[test]
    fn greedy_replicates_heavy_stage() {
        let (pipe, plat) = setup(vec![1.0, 100.0], vec![1.0; 6]);
        let m = greedy(&pipe, &plat);
        assert!(m.replicas(1) > m.replicas(0), "{:?}", m.replica_counts());
    }

    #[test]
    fn greedy_assigns_fastest_to_heaviest() {
        let (pipe, plat) = setup(vec![10.0, 1.0], vec![1.0, 5.0]);
        let m = greedy(&pipe, &plat);
        assert_eq!(m.procs(0), &[1], "heaviest stage gets the fast processor");
    }

    #[test]
    fn local_search_improves_or_equals() {
        let (pipe, plat) = setup(vec![4.0, 9.0, 2.0], vec![1.0, 1.0, 2.0, 0.5, 1.5]);
        let start = Mapping::new(vec![vec![0], vec![1], vec![2]]).unwrap();
        let base = evaluate(&pipe, &plat, &start, CommModel::Overlap).unwrap();
        let res = local_search(&pipe, &plat, start, &SearchOptions::default());
        assert!(res.period <= base + 1e-12);
        assert!(res.evaluations > 0);
    }

    #[test]
    fn round_robin_slow_replica_can_hurt() {
        // One stage, fast proc (speed 10) + very slow proc (speed 0.1):
        // alone: period 1; with the slow replica round-robin: the slow one
        // needs 100 per data set it serves → period max(1, 100)/2 = 50.
        let pipeline = Pipeline::new(vec![10.0], vec![]).unwrap();
        let mut platform = Platform::uniform(2, 10.0, 1.0);
        platform.set_speed(1, 0.1);
        let solo = Mapping::new(vec![vec![0]]).unwrap();
        let both = Mapping::new(vec![vec![0, 1]]).unwrap();
        let p_solo = evaluate(&pipeline, &platform, &solo, CommModel::Overlap).unwrap();
        let p_both = evaluate(&pipeline, &platform, &both, CommModel::Overlap).unwrap();
        assert!(p_both > p_solo, "adding the slow replica must hurt: {p_both} vs {p_solo}");
        // And the local search discovers that leaving P1 unused is better.
        let res = local_search(&pipeline, &platform, both, &SearchOptions::default());
        assert!((res.period - p_solo).abs() < 1e-9, "search should drop the slow replica");
    }

    #[test]
    fn warm_engine_oracle_matches_fresh_oracle_bitwise() {
        // Strict model so the oracle really goes through the TPN + Howard
        // path: a warm engine fed a stream of candidate mappings must agree
        // bit-for-bit with fresh cold evaluations.
        let (pipe, plat) = setup(vec![4.0, 9.0], vec![1.0, 1.0, 2.0, 0.5, 1.5]);
        let mut engine = PeriodEngine::new().warm_start(true);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..12 {
            let m = random_mapping(&pipe, &plat, 0.3, &mut rng);
            let warm = evaluate_with(&pipe, &plat, &m, CommModel::Strict, &mut engine);
            let cold = evaluate(&pipe, &plat, &m, CommModel::Strict);
            match (warm, cold) {
                (Some(a), Some(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn oracle_mct_recomputes_only_stages_touched_by_a_move() {
        // A deep pipeline where swaps stay between stages 0 and 1: the
        // oracle's incremental M_ct must re-examine only the touched
        // stages and their neighbors (≤ 3 here), never all 8.
        let n = 8;
        let pipeline = Pipeline::new(vec![4.0; n], vec![0.5; n - 1]).unwrap();
        let mut platform = Platform::uniform(2 * n, 1.0, 10.0);
        for u in 0..2 * n {
            platform.set_speed(u, 1.0 + 0.05 * u as f64);
        }
        let mut mapping = Mapping::new((0..n).map(|i| vec![2 * i, 2 * i + 1]).collect()).unwrap();
        let mut oracle = MappingOracle::new(&pipeline, &platform).warm_start(true);
        oracle.compute(&mapping, CommModel::Strict, Method::FullTpn).unwrap();
        let after_first = oracle.mct_cache().stage_recomputes();
        assert_eq!(after_first, n as u64, "first evaluation recomputes every stage");
        let steps = 12u64;
        for k in 0..steps {
            let mv = Move::Swap { i: 0, si: (k % 2) as usize, j: 1, sj: ((k / 2) % 2) as usize };
            let (a, b) = mv.touched_stages();
            assert_eq!((a, b), (0, Some(1)));
            apply_move(&mut mapping, mv);
            oracle.compute(&mapping, CommModel::Strict, Method::FullTpn).unwrap();
        }
        // Touched stages {0, 1} dirty their neighborhood {0, 1, 2}: three
        // per-stage recomputations per evaluation, exactly.
        assert_eq!(
            oracle.mct_cache().stage_recomputes(),
            after_first + 3 * steps,
            "a swap between stages 0 and 1 must re-examine stages 0..=2 only"
        );
        // And the swaps all re-solved on the structurally-free patch path.
        let engine = oracle.into_engine();
        assert_eq!(engine.patched_solves(), steps);
        assert_eq!((engine.csr_builds(), engine.tarjan_runs()), (1, 1));
    }

    #[test]
    fn optimize_beats_or_matches_naive() {
        let (pipe, plat) = setup(vec![6.0, 6.0], vec![1.0, 1.0, 1.0, 1.0]);
        let res = optimize(&pipe, &plat, &SearchOptions::default());
        // Optimal: 2 replicas each → period 3 (comms negligible).
        assert!(res.period <= 3.0 + 1e-9, "got {}", res.period);
    }

    #[test]
    fn random_mapping_valid_under_many_seeds() {
        let (pipe, plat) = setup(vec![1.0, 2.0, 3.0], vec![1.0; 8]);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            let m = random_mapping(&pipe, &plat, 0.4, &mut rng);
            assert_eq!(m.num_stages(), 3);
            assert!(m.replica_counts().iter().all(|&c| c >= 1));
        }
    }
}
