//! Exact mapping optimization: deterministic parallel branch-and-bound.
//!
//! The mapping problem is NP-hard even without replication (Benoit &
//! Robert, JPDC 2008 — reference \[3\] of the paper), so the heuristics of
//! this crate come with no optimality guarantee. For small instances this
//! module closes that gap: [`solve`] searches the **entire** ordered
//! replica-assignment space — round-robin order within a stage's
//! processor list changes the period, so the space is ordered tuples, not
//! sets — and returns a certified optimum, or `None` when every mapping
//! is infeasible.
//!
//! # Bound hierarchy
//!
//! A search node is a *prefix*: stages `0..k` carry their final ordered
//! tuples, later stages are open. Each node is priced by the value of
//! [`MappingOracle::prefix_period_bound`], the maximum of two lower
//! bounds on the period of any completion:
//!
//! 1. **partial `M_ct`** — every cycle-time component the prefix already
//!    determines (`C_comp` of assigned replicas, `C_in`/`C_out` between
//!    assigned neighbors, via the round-robin partner averages of
//!    `repwf_core::cycle_time`), with unknown boundary components bounded
//!    by zero; valid for both [`CommModel`]s because the period is at
//!    least `M_ct`;
//! 2. **single-stage floors** for the open stages — stage `i` on `m`
//!    replicas has `M_ct ≥ w_i / (m · max Π)`, maximized over what the
//!    unused processors could still provide.
//!
//! A subtree is cut when its bound strictly exceeds the **incumbent**
//! period (never on equality — an equal-period mapping may win the
//! canonical tie-break), or when the bound is infinite (no feasible
//! completion exists).
//!
//! A node pays only for the stages its tuple touches. Term 1 is a maximum
//! of per-stage terms ([`repwf_core::cycle_time::prefix_stage_bound`]),
//! and closing stage `i` changes only the term of `i` and those of the
//! stages with an edge *into* `i` (whose `C_out` towards `i` is now
//! known) — on a chain, `i − 1`; on a fork/join, every branch feeding the
//! merge. Each search level keeps its row of terms; a node copies its
//! parent's row, recomputes those terms and folds the row in stage order,
//! so its bound has [`MappingOracle::prefix_period_bound`]'s bits (which
//! debug builds check at every node). A node is cut as soon as one
//! recomputed term alone exceeds the incumbent, since the bound is at
//! least each of its terms.
//!
//! Surviving leaves are evaluated **period-only**
//! ([`MappingOracle::period`]: no `M_ct` except where it is the period, no
//! `critical` description) through one warm [`MappingOracle`] per worker.
//! The enumeration closes the last stage at every tuple length, so
//! consecutive leaves alternate replica counts; the oracle parks an arena
//! per recently seen shape, and a leaf whose counts match one of them
//! re-solves on the shape-cached patch path.
//!
//! # Deterministic parallelism
//!
//! The tree is split into **statically-numbered subtree tasks** — one per
//! (stage-0 tuple length, stage-0 first processor) pair, the scheme Bobpp
//! uses for reproducible constraint-program search — executed over
//! `repwf_par`'s work-stealing executor with one oracle per worker.
//! Each task starts from a fresh oracle state (warm-start, patch and
//! `M_ct` caches reset in every arena, parked ones included; the arenas'
//! *allocations* are reused, never their answers) and its own incumbent,
//! so every task's result and counters are pure functions of its task id.
//! Task results are then folded **in task-index order**
//! ([`repwf_par::par_map_init_reduce`]) with the
//! associative best-period / lexicographic-mapping merge. The returned
//! optimum — period bits, mapping, and every [`ExactStats`] counter — is
//! therefore identical at 1, 2, or N workers.
//!
//! # Exactness discipline
//!
//! Unlike the heuristic oracle ([`crate::evaluate_with`]), `solve`
//! **never** falls back to the discrete-event simulator: a simulated
//! period is an estimate, and certifying one as optimal would be a lie.
//! A candidate whose strict-model TPN exceeds the size cap aborts the
//! search with [`ExactError::CandidateTooLarge`] instead.

use crate::enumerate::better_incumbent;
use repwf_core::cycle_time::prefix_stage_bound;
use repwf_core::engine::{MappingOracle, PeriodEngine};
use repwf_core::model::{CommModel, Mapping, Pipeline, Platform};
use repwf_core::period::{Method, PeriodError};
use repwf_core::tpn_build::{BuildError, BuildOptions};

/// Options for the exact search.
#[derive(Debug, Clone)]
pub struct ExactOptions {
    /// Communication model to optimize for.
    pub model: CommModel,
    /// Worker threads (the result is identical at any value).
    pub threads: usize,
    /// Known-achievable upper bound on the optimum (e.g. the *exactly
    /// re-evaluated* period of a heuristic mapping): subtrees bounded
    /// strictly above `b · (1 + INITIAL_BOUND_SLACK)` are pruned from the
    /// start. The slack absorbs the few ulps by which a mapping's solved
    /// period can fall below its own `M_ct` (its leaf's prefix bound), so
    /// a mapping that attains `b` is never pruned by it, and the result
    /// has period at most `b`. Must be attainable by some feasible
    /// mapping, otherwise [`ExactResult::best`] may come back `None` even
    /// though feasible mappings exist.
    pub initial_bound: Option<f64>,
    /// TPN transition cap for strict-model leaf evaluations; a leaf above
    /// it aborts with [`ExactError::CandidateTooLarge`].
    pub max_transitions: usize,
}

/// Relative widening of [`ExactOptions::initial_bound`] before it becomes
/// the first cutoff. The prefix bound at a leaf is that leaf's `M_ct`,
/// computed in a different rounding order from its period, and the two can
/// differ by an ulp with the period *below* `M_ct`; an unwidened initial
/// bound then prunes the very mapping it came from. Incumbents found by
/// the search are never widened, so a run without an initial bound is
/// unchanged.
const INITIAL_BOUND_SLACK: f64 = 1e-9;

impl Default for ExactOptions {
    fn default() -> Self {
        ExactOptions {
            model: CommModel::Overlap,
            threads: 1,
            initial_bound: None,
            max_transitions: BuildOptions::default().max_transitions,
        }
    }
}

/// Scheduling-independent search counters: every field is a sum of
/// per-task values, and each task is a pure function of its task id, so
/// the whole struct is bit-identical at any worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactStats {
    /// Statically-numbered subtree tasks the tree was split into.
    pub tasks: u64,
    /// Prefix nodes priced by the lower bound (stage-tuple completions,
    /// leaves included).
    pub nodes: u64,
    /// Subtrees cut because their bound exceeded the incumbent (or was
    /// infinite).
    pub pruned: u64,
    /// Leaves whose period the oracle computed.
    pub evaluated: u64,
    /// Leaves rejected as infeasible (validation failure).
    pub infeasible: u64,
}

impl ExactStats {
    fn absorb(&mut self, other: &ExactStats) {
        self.nodes += other.nodes;
        self.pruned += other.pruned;
        self.evaluated += other.evaluated;
        self.infeasible += other.infeasible;
    }
}

/// Why an exact search refused to answer.
#[derive(Debug, Clone, PartialEq)]
pub enum ExactError {
    /// A candidate's TPN exceeded the transition cap. The heuristic
    /// oracle would fall back to the simulator here; `exact` refuses —
    /// a simulated estimate cannot certify an optimum.
    CandidateTooLarge {
        /// The candidate that overflowed.
        mapping: Mapping,
        /// The underlying build failure (size and cap).
        error: BuildError,
    },
    /// The period solver failed on a candidate (numeric trouble).
    Analysis {
        /// The candidate that failed.
        mapping: Mapping,
        /// The solver's diagnosis.
        message: String,
    },
    /// The space has more leaves than a `u128` counts
    /// ([`search_space_size`] overflowed). Refused before any task
    /// starts: an exhaustive search of that size cannot finish.
    SpaceOverflow {
        /// Pipeline stages.
        stages: usize,
        /// Platform processors.
        procs: usize,
    },
}

impl std::fmt::Display for ExactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExactError::CandidateTooLarge { mapping, error } => write!(
                f,
                "exact search aborted: candidate {:?} needs a TPN above the cap ({error}); \
                 refusing the simulator fallback — an estimate cannot certify an optimum",
                mapping.assignment()
            ),
            ExactError::Analysis { mapping, message } => {
                write!(f, "exact search aborted on candidate {:?}: {message}", mapping.assignment())
            }
            ExactError::SpaceOverflow { stages, procs } => write!(
                f,
                "exact search refused: {stages} stages on {procs} processors have more \
                 ordered mappings than a u128 counts; an exhaustive search cannot finish"
            ),
        }
    }
}

impl std::error::Error for ExactError {}

/// The outcome of an exact search.
#[derive(Debug, Clone)]
pub struct ExactResult {
    /// The optimal mapping and its period — the lexicographically
    /// smallest assignment among period-optimal ones — or `None` when
    /// every mapping in the space is infeasible (or none attains
    /// [`ExactOptions::initial_bound`]).
    pub best: Option<(Mapping, f64)>,
    /// Scheduling-independent node/prune counters.
    pub stats: ExactStats,
    /// Total number of leaves in the search space
    /// ([`search_space_size`]). Always `Some` from [`solve`], which
    /// refuses an overflowing space with [`ExactError::SpaceOverflow`].
    pub space: Option<u128>,
}

/// Number of ordered replica assignments of `stages` stages onto `procs`
/// processors: each stage takes a nonempty ordered tuple, tuples are
/// disjoint, and processors may remain unused. `None` on `u128` overflow.
///
/// `f(0, a) = 1`, `f(k, a) = Σ_{m=1}^{a-(k-1)} P(a, m) · f(k-1, a-m)`
/// with `P(a, m)` the falling factorial — the `space` that `repwf bench`
/// pins next to the search counters.
pub fn search_space_size(stages: usize, procs: usize) -> Option<u128> {
    let mut f = vec![vec![0u128; procs + 1]; stages + 1];
    for cell in &mut f[0] {
        *cell = 1;
    }
    for k in 1..=stages {
        for a in 0..=procs {
            let mut total: u128 = 0;
            if a >= k {
                let mut perm: u128 = 1; // P(a, m), built incrementally
                for m in 1..=(a - (k - 1)) {
                    perm = perm.checked_mul((a - m + 1) as u128)?;
                    total = total.checked_add(perm.checked_mul(f[k - 1][a - m])?)?;
                }
            }
            f[k][a] = total;
        }
    }
    Some(f[stages][procs])
}

/// One task's subtree walk: owns the mutable prefix and the task-local
/// incumbent. Never shared across tasks — determinism comes from that.
struct Searcher<'a, 'o> {
    oracle: &'o mut MappingOracle<'a>,
    model: CommModel,
    n: usize,
    p: usize,
    /// The prefix under construction; stages past the current one are
    /// empty placeholders.
    assignment: Vec<Vec<usize>>,
    used: Vec<bool>,
    avail: usize,
    /// The leaf under evaluation, refilled in place from `assignment`;
    /// cloned only into the incumbent or an error.
    leaf: Mapping,
    /// `terms[i]`: the [`prefix_stage_bound`] terms of stages `0..=i` at
    /// the node that closed stage `i` with its current tuple; a deeper
    /// node starts from its parent's row.
    terms: Vec<Vec<f64>>,
    /// Task-local incumbent (no cross-task sharing: counters must be pure
    /// functions of the task id).
    best: Option<(Mapping, f64)>,
    /// Prune threshold: the incumbent's period, or the caller's
    /// `initial_bound` widened by [`INITIAL_BOUND_SLACK`], or `+∞`.
    cutoff: f64,
    stats: ExactStats,
}

impl Searcher<'_, '_> {
    /// The tuple of stage `i` is complete: price the prefix, prune or
    /// descend (evaluate when `i` is the last stage).
    fn close_stage(&mut self, i: usize) -> Result<(), ExactError> {
        self.stats.nodes += 1;
        let bound = self.prefix_bound(i);
        debug_assert!(
            {
                let prefix = &self.assignment[..=i];
                let reference = self.oracle.prefix_period_bound(prefix, &self.used, self.model);
                match bound {
                    Some(bound) => bound.to_bits() == reference.to_bits(),
                    None => reference > self.cutoff || reference.is_infinite(),
                }
            },
            "incremental prefix bound diverged from the reference at {:?}",
            &self.assignment[..=i]
        );
        // Strictly-greater only: an equal-period completion may still win
        // the canonical (lexicographic) tie-break. Infinite bound = no
        // feasible completion at all.
        if bound.is_none_or(|bound| bound > self.cutoff || bound.is_infinite()) {
            self.stats.pruned += 1;
            return Ok(());
        }
        if i + 1 == self.n {
            self.evaluate_leaf()
        } else {
            self.extend_stage(i + 1)
        }
    }

    /// [`MappingOracle::prefix_period_bound`] of the prefix `0..=i`, from
    /// the parent node's terms, or `None` as soon as one recomputed term
    /// alone prunes the node. Closing stage `i` adds its own term and
    /// changes the terms of the stages with an edge into `i` (their
    /// `C_out` towards `i` is now known); every other closed stage's term
    /// reads only tuples the parent already had. Each term is the same
    /// expression on the same operands as in the reference, folded in the
    /// same order, so the bound has the reference's bits; and the bound is
    /// at least each term, so a term that prunes (`> cutoff`, or `+∞`)
    /// means the bound prunes too. A pruned node's row is never read.
    fn prefix_bound(&mut self, i: usize) -> Option<f64> {
        let (pipeline, platform) = (self.oracle.pipeline(), self.oracle.platform());
        let cutoff = self.cutoff;
        let prunes = |term: f64| term > cutoff || term == f64::INFINITY;
        let prefix = &self.assignment[..=i];
        let (parents, rest) = self.terms.split_at_mut(i);
        let terms = &mut rest[0];
        terms.clear();
        if let Some(parent) = parents.last() {
            terms.extend_from_slice(parent);
        }
        let own = prefix_stage_bound(pipeline, platform, prefix, i, self.model);
        if prunes(own) {
            return None;
        }
        terms.push(own);
        for &e in pipeline.in_edges(i) {
            let src = pipeline.edge(e).0;
            terms[src] = prefix_stage_bound(pipeline, platform, prefix, src, self.model);
            if prunes(terms[src]) {
                return None;
            }
        }
        let partial = terms.iter().fold(0.0, |acc: f64, &t| acc.max(t));
        Some(self.oracle.complete_prefix_bound(partial, i + 1, &self.used))
    }

    /// Enumerates the ordered tuples of stage `i` in canonical order
    /// (prefixes before their extensions, processors in ascending id
    /// order), closing the stage at every nonempty length.
    fn extend_stage(&mut self, i: usize) -> Result<(), ExactError> {
        if !self.assignment[i].is_empty() {
            self.close_stage(i)?;
        }
        // Stages after `i` need one processor each; only extend while
        // that reserve survives.
        if self.avail > self.n - 1 - i {
            for u in 0..self.p {
                if !self.used[u] {
                    self.push(i, u);
                    self.extend_stage(i)?;
                    self.pop(i, u);
                }
            }
        }
        Ok(())
    }

    /// Completes stage 0 to exactly `m0` replicas (the task's fixed
    /// tuple length; the first element is fixed by the task id too).
    fn fill_stage0(&mut self, m0: usize) -> Result<(), ExactError> {
        if self.assignment[0].len() == m0 {
            return self.close_stage(0);
        }
        for u in 0..self.p {
            if !self.used[u] {
                self.push(0, u);
                self.fill_stage0(m0)?;
                self.pop(0, u);
            }
        }
        Ok(())
    }

    fn push(&mut self, i: usize, u: usize) {
        self.assignment[i].push(u);
        self.used[u] = true;
        self.avail -= 1;
    }

    fn pop(&mut self, i: usize, u: usize) {
        self.assignment[i].pop();
        self.used[u] = false;
        self.avail += 1;
    }

    /// Every stage has its tuple: evaluate exactly, **never** through the
    /// simulator fallback.
    fn evaluate_leaf(&mut self) -> Result<(), ExactError> {
        self.leaf.assign(&self.assignment).expect("search builds structurally valid mappings");
        let leaf = &self.leaf;
        match self.oracle.period(leaf, self.model, Method::Auto) {
            Ok(period) => {
                self.stats.evaluated += 1;
                let tie_break = period == self.cutoff
                    && self.best.as_ref().is_none_or(|(b, _)| leaf.assignment() < b.assignment());
                if period < self.cutoff || tie_break {
                    self.cutoff = period;
                    self.best = Some((leaf.clone(), period));
                }
                Ok(())
            }
            Err(PeriodError::Model(_)) => {
                self.stats.infeasible += 1;
                Ok(())
            }
            Err(PeriodError::Build(error)) => {
                Err(ExactError::CandidateTooLarge { mapping: leaf.clone(), error })
            }
            Err(e) => Err(ExactError::Analysis { mapping: leaf.clone(), message: e.to_string() }),
        }
    }
}

/// One subtree task's result (a pure function of the task id).
struct TaskOut {
    best: Option<(Mapping, f64)>,
    stats: ExactStats,
    err: Option<ExactError>,
}

/// Finds the throughput-optimal mapping by deterministic parallel
/// branch-and-bound (see the module docs for the bound hierarchy and the
/// determinism argument). Returns `best: None` when every mapping is
/// infeasible; errors when any candidate cannot be evaluated *exactly*,
/// or up front when the space overflows `u128`.
pub fn solve(
    pipeline: &Pipeline,
    platform: &Platform,
    opts: &ExactOptions,
) -> Result<ExactResult, ExactError> {
    let n = pipeline.num_stages();
    let p = platform.num_procs();
    let space = search_space_size(n, p);
    if space.is_none() {
        return Err(ExactError::SpaceOverflow { stages: n, procs: p });
    }
    if p < n {
        return Ok(ExactResult { best: None, stats: ExactStats::default(), space });
    }
    // Task (t): stage 0 gets a tuple of length `t / p + 1` starting with
    // processor `t % p` — numbered before execution, independent of the
    // schedule.
    let m0_max = p - (n - 1);
    let num_tasks = m0_max * p;
    let threads = opts.threads.max(1);
    let build = BuildOptions { labels: false, max_transitions: opts.max_transitions };

    let folded = repwf_par::par_map_init_reduce(
        threads,
        num_tasks,
        || {
            let engine = PeriodEngine::with_options(build.clone()).warm_start(true);
            MappingOracle::with_engine(pipeline, platform, engine)
        },
        |oracle, task| {
            // Fresh per-task oracle state over the worker's reused arenas
            // (its own and the parked shape slots): allocations are
            // cached, answers never are.
            oracle.reset_warm_start();
            oracle.reset_patch_state();
            let mut searcher = Searcher {
                oracle,
                model: opts.model,
                n,
                p,
                assignment: vec![Vec::new(); n],
                used: vec![false; p],
                avail: p,
                leaf: Mapping::new(Vec::new()).expect("the empty mapping is valid"),
                terms: vec![Vec::with_capacity(n); n],
                best: None,
                cutoff: opts
                    .initial_bound
                    .map_or(f64::INFINITY, |b| b * (1.0 + INITIAL_BOUND_SLACK)),
                stats: ExactStats::default(),
            };
            searcher.push(0, task % p);
            let err = searcher.fill_stage0(task / p + 1).err();
            TaskOut { best: searcher.best.take(), stats: searcher.stats, err }
        },
        TaskOut { best: None, stats: ExactStats::default(), err: None },
        // Index-ordered fold: best-period merge with the lexicographic
        // tie-break, first error (in task order) wins.
        |mut acc, _task, out| {
            acc.stats.absorb(&out.stats);
            if acc.err.is_none() {
                acc.err = out.err;
            }
            acc.best = better_incumbent(acc.best, out.best);
            acc
        },
    );
    if let Some(err) = folded.err {
        return Err(err);
    }
    let stats = ExactStats { tasks: num_tasks as u64, ..folded.stats };
    Ok(ExactResult { best: folded.best, stats, space })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quickstart() -> (Pipeline, Platform) {
        (Pipeline::new(vec![2.0, 9.0], vec![0.001]).unwrap(), Platform::uniform(4, 1.0, 1000.0))
    }

    #[test]
    fn quickstart_optimum_is_three_replicas_of_the_heavy_stage() {
        let (pipe, plat) = quickstart();
        let res = solve(&pipe, &plat, &ExactOptions::default()).unwrap();
        let (mapping, period) = res.best.expect("feasible");
        assert_eq!(mapping.replicas(1), 3);
        assert!((period - 3.0).abs() < 1e-9, "got {period}");
        assert_eq!(res.space, Some(search_space_size(2, 4).unwrap()));
        assert!(res.stats.pruned > 0, "{:?}", res.stats);
        assert!(res.stats.evaluated as u128 <= res.space.unwrap());
    }

    #[test]
    fn search_space_size_small_cases_by_hand() {
        // 1 stage, 2 procs: [0], [1], [0,1], [1,0].
        assert_eq!(search_space_size(1, 2), Some(4));
        // 2 stages, 2 procs: ([0],[1]) and ([1],[0]).
        assert_eq!(search_space_size(2, 2), Some(2));
        assert_eq!(search_space_size(2, 5), Some(980));
        assert_eq!(search_space_size(3, 3), Some(6));
        assert_eq!(search_space_size(2, 1), Some(0));
        assert_eq!(search_space_size(0, 3), Some(1));
    }

    #[test]
    fn overflowing_space_is_refused_before_any_task() {
        // Four stages overflow u128 from 32 processors on.
        assert!(search_space_size(4, 31).is_some());
        assert_eq!(search_space_size(4, 32), None);
        // Example C's shape: 4 stages on 64 processors.
        let pipe = Pipeline::new(vec![1.0; 4], vec![1.0; 3]).unwrap();
        let plat = Platform::uniform(64, 1.0, 1.0);
        let err = solve(&pipe, &plat, &ExactOptions::default()).unwrap_err();
        assert_eq!(err, ExactError::SpaceOverflow { stages: 4, procs: 64 });
        let msg = err.to_string();
        assert!(msg.contains("4 stages on 64 processors"), "{msg}");
    }

    #[test]
    fn too_few_processors_is_infeasible_not_an_error() {
        let pipe = Pipeline::new(vec![1.0, 1.0, 1.0], vec![1.0, 1.0]).unwrap();
        let plat = Platform::uniform(2, 1.0, 1.0);
        let res = solve(&pipe, &plat, &ExactOptions::default()).unwrap();
        assert!(res.best.is_none());
        assert_eq!(res.space, Some(0));
    }

    #[test]
    fn initial_bound_prunes_without_losing_the_optimum() {
        let (pipe, plat) = quickstart();
        let free = solve(&pipe, &plat, &ExactOptions::default()).unwrap();
        let (free_best, free_period) = free.best.unwrap();
        let bounded = solve(
            &pipe,
            &plat,
            &ExactOptions { initial_bound: Some(free_period), ..ExactOptions::default() },
        )
        .unwrap();
        let (bounded_best, bounded_period) = bounded.best.unwrap();
        assert_eq!(bounded_period.to_bits(), free_period.to_bits());
        assert_eq!(bounded_best, free_best);
        assert!(
            bounded.stats.evaluated <= free.stats.evaluated,
            "bound must not increase work: {:?} vs {:?}",
            bounded.stats,
            free.stats
        );
    }

    /// A strict draw whose heuristic mapping solves one ulp *below* its
    /// own `M_ct` (3.231512961522844 vs 3.2315129615228444): with that
    /// period as an unwidened initial bound, the leaf's prefix bound
    /// exceeds the cutoff and every leaf that reaches it is pruned.
    #[test]
    fn initial_bound_one_ulp_below_m_ct_still_finds_a_mapping() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use repwf_gen::sampler::sample_parts;
        use repwf_gen::{GenConfig, Range};

        let cfg = GenConfig {
            stages: 4,
            procs: 8,
            comp: Range::new(1.0, 10.0),
            comm: Range::new(1.0, 5.0),
        };
        let (pipe, plat, _) = sample_parts(&cfg, &mut StdRng::seed_from_u64(1));
        let heuristic = Mapping::new(vec![vec![7, 6], vec![2, 4], vec![1, 3, 5], vec![0]]).unwrap();
        let mut oracle = MappingOracle::new(&pipe, &plat);
        let period = oracle.period(&heuristic, CommModel::Strict, Method::Auto).unwrap();
        let opts = ExactOptions {
            model: CommModel::Strict,
            initial_bound: Some(period),
            ..ExactOptions::default()
        };
        let res = solve(&pipe, &plat, &opts).unwrap();
        let (_, best) = res.best.expect("the heuristic's own mapping attains the bound");
        assert!(best <= period, "{best} > {period}");
    }
}
