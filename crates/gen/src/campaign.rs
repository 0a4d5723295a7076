//! The parallel experiment campaign engine: period vs. `M_ct` on random
//! instances.
//!
//! Each experiment draws an instance, computes the critical-resource bound
//! `M_ct` and the actual period, and records whether a critical resource
//! exists (`P̂ = M_ct`) or not (`P̂ > M_ct`, the paper's surprising regime).
//!
//! # One runner
//!
//! Every campaign — `repwf campaign`, Table 2, shard files, supervised
//! units, benches — runs through [`run_spec`]:
//!
//! * **Static shape routing.** The replica counts are the RNG *prefix* of
//!   each seed's draw ([`crate::sampler::sample_replica_counts`]), so the
//!   runner recovers every seed's TPN shape without sampling an instance.
//!   Same-shape, in-cap seeds are grouped in first-occurrence order and
//!   cut into consecutive chunks sized by a transition budget. A chunk of
//!   two or more seeds pays **one** TPN build, one ratio-graph/CSR build
//!   and one Tarjan condensation and solves all its instances in one
//!   batched Howard pass ([`ShapeBatchSolver`]).
//! * **Solo seeds** run the per-instance engine
//!   ([`run_one_workflow_with`]): over-cap seeds (simulator fallback),
//!   path-count overflows, every overlap-model seed (the polynomial
//!   algorithm has no TPN to share) and one-seed chunks. Batching a
//!   single lane shares nothing.
//! * **Work stealing.** Chunks and solo seeds are the tasks of the
//!   [`repwf_par`] executor. Each worker owns one [`PeriodEngine`] and one
//!   [`ShapeBatchSolver`]; they cache allocations and structure, never
//!   answers. The engines run **cold**: with warm starts the reported
//!   witness could depend on which experiment a worker ran before, i.e.
//!   on the stealing schedule.
//! * **Seed-ordered delivery.** [`repwf_par::par_map_init_ordered`] hands
//!   each finished task's outcomes to a reorder buffer, and the sink sees
//!   every seed of the range exactly once, in increasing order. As in
//!   Bobpp's deterministic partitioning, tasks are numbered before they
//!   run and their results merge in a fixed order.
//!
//! Experiment `k` derives *all* of its randomness from
//! `StdRng::seed_from_u64(seed_base + k)`, and the batched lanes mirror the
//! solo solver step for step, so a campaign's [`CampaignResult`] and the
//! sequence its sink sees are bit-identical at any thread count and shard
//! layout (property-tested in `tests/batch_props.rs` against the serial
//! [`run_one_with`] oracle). Progress is the caller's fold over the sink:
//! [`CampaignAccum::push`] each outcome and render
//! [`CampaignAccum::progress`].

use crate::agg;
use crate::sampler::{sample_replica_counts, sample_workflow_parts, GenConfig, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use repwf_core::batch::ShapeBatchSolver;
use repwf_core::cycle_time::max_cycle_time_view;
use repwf_core::engine::PeriodEngine;
use repwf_core::model::{CommModel, Instance, InstanceView};
use repwf_core::paths::{mapping_num_paths, num_paths};
use repwf_core::period::{Method, PeriodError};
use repwf_core::tpn_build::{BuildError, BuildOptions};
use repwf_obs::CounterId;
use repwf_sim::{simulate, SimOptions};
use std::collections::HashMap;

/// How one experiment was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Exact analysis (polynomial algorithm or full TPN).
    Exact,
    /// The TPN exceeded the size cap; the period was estimated with the
    /// discrete-event simulator.
    Simulated,
}

/// Outcome of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOutcome {
    /// Seed used to draw the instance (reproducible).
    pub seed: u64,
    /// Critical-resource bound.
    pub mct: f64,
    /// Actual per-data-set period.
    pub period: f64,
    /// Resolution method.
    pub resolution: Resolution,
    /// Number of TPN rows `m` of the instance.
    pub num_paths: u128,
}

impl ExperimentOutcome {
    /// Relative gap `(P̂ − M_ct)/M_ct` (0 when a critical resource exists).
    ///
    /// Clamped at 0.0: float noise when the period sits exactly on `M_ct`
    /// — or a simulator-fallback estimate landing just *below* it — must
    /// never produce a negative gap (whose sign bit would out-rank every
    /// positive pattern in the bitwise streaming maximum), and a NaN from
    /// a degenerate draw clamps to 0.0 too. An infinite period passes
    /// through (visible in the CSV dump); the aggregates reject
    /// non-finite gaps separately.
    pub fn gap(&self) -> f64 {
        let g = (self.period - self.mct) / self.mct;
        if g > 0.0 {
            g
        } else {
            0.0
        }
    }

    /// True iff no resource is critical: the period strictly exceeds `M_ct`.
    pub fn no_critical_resource(&self, rel_tol: f64) -> bool {
        self.gap() > rel_tol
    }
}

/// Aggregated campaign result.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// All outcomes (one per experiment), in seed order.
    pub outcomes: Vec<ExperimentOutcome>,
}

impl CampaignResult {
    /// Number of experiments without a critical resource.
    pub fn count_no_critical(&self, rel_tol: f64) -> usize {
        self.outcomes.iter().filter(|o| o.no_critical_resource(rel_tol)).count()
    }

    /// Maximum relative gap over all experiments. Non-finite gaps (an
    /// infinite period from a degenerate draw) are skipped, matching
    /// [`CampaignAccum::max_gap`].
    pub fn max_gap(&self) -> f64 {
        agg::max_finite_gap(self.outcomes.iter().map(ExperimentOutcome::gap))
    }

    /// Number of experiments resolved by simulation fallback.
    pub fn count_simulated(&self) -> usize {
        self.outcomes.iter().filter(|o| o.resolution == Resolution::Simulated).count()
    }

    /// The associative aggregates of this result (at [`GAP_REL_TOL`]).
    pub fn accum(&self) -> CampaignAccum {
        let mut accum = CampaignAccum::new();
        for outcome in &self.outcomes {
            accum.push(outcome);
        }
        accum
    }
}

/// **Associative** campaign aggregates: what a shard can compute locally
/// and a merger can recombine without touching the outcomes again.
///
/// Every field folds through an operation that is associative and
/// commutative *bitwise* — integer sums and the guarded bit-pattern
/// maximum of [`max_gap`](CampaignAccum::max_gap) — so
/// `merge(accum(s_1), …, accum(s_N))` equals `accum(s_1 ∥ … ∥ s_N)`
/// **exactly**, for any grouping of the shards. This is the foundation of
/// the `repwf-dist` exact merger: aggregates of a sharded campaign are
/// bit-identical to the unsharded run at any `num_shards × threads`
/// combination. Order statistics (gap quantiles) deliberately do *not*
/// live here: they are not associative and are computed only after the
/// full merge, from the concatenated outcomes
/// ([`crate::stats::gap_quantiles`]).
///
/// The no-critical count is fixed at [`GAP_REL_TOL`] — the tolerance the
/// streaming aggregates and the CLI report use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignAccum {
    /// Experiments folded in.
    pub done: usize,
    /// Experiments without a critical resource (at [`GAP_REL_TOL`]).
    pub no_critical: usize,
    /// Experiments resolved by the simulator fallback.
    pub simulated: usize,
    /// Bit pattern of the maximum finite positive gap (see
    /// [`CampaignAccum::max_gap`]).
    max_gap_bits: u64,
}

impl CampaignAccum {
    /// The empty accumulator (the identity of [`merge`](Self::merge)).
    pub fn new() -> CampaignAccum {
        CampaignAccum { done: 0, no_critical: 0, simulated: 0, max_gap_bits: 0f64.to_bits() }
    }

    /// Folds one outcome in.
    pub fn push(&mut self, outcome: &ExperimentOutcome) {
        self.done += 1;
        self.no_critical += usize::from(outcome.no_critical_resource(GAP_REL_TOL));
        self.simulated += usize::from(outcome.resolution == Resolution::Simulated);
        self.max_gap_bits = agg::fold_max_gap_bits(self.max_gap_bits, outcome.gap());
    }

    /// Folds another accumulator in (associative, commutative, exact).
    pub fn merge(&mut self, other: &CampaignAccum) {
        self.done += other.done;
        self.no_critical += other.no_critical;
        self.simulated += other.simulated;
        self.max_gap_bits = self.max_gap_bits.max(other.max_gap_bits);
    }

    /// Maximum finite positive gap folded in so far (0.0 when none);
    /// equals [`CampaignResult::max_gap`] over the same outcomes.
    pub fn max_gap(&self) -> f64 {
        f64::from_bits(self.max_gap_bits)
    }

    /// Snapshots this accumulator as a [`Progress`] against a campaign
    /// of `total` experiments, so live runs (a sink folding outcomes in),
    /// resumed shards and merged partial campaigns report through one
    /// code path.
    pub fn progress(&self, total: usize) -> Progress {
        Progress {
            done: self.done,
            total,
            no_critical: self.no_critical,
            simulated: self.simulated,
            max_gap: self.max_gap(),
        }
    }
}

impl Default for CampaignAccum {
    fn default() -> Self {
        CampaignAccum::new()
    }
}

/// Relative-gap tolerance below which an experiment counts as having a
/// critical resource (shared by the streaming aggregates and Table 2).
pub const GAP_REL_TOL: f64 = 1e-7;

/// Default TPN size cap (max transitions) of campaign runs. Raised from
/// the historical `400_000` once strict TPNs of this size solved exactly
/// in reasonable time — instance families that used to fall back to the
/// discrete-event simulator now report [`Resolution::Exact`].
pub const DEFAULT_CAMPAIGN_CAP: usize = 2_000_000;

/// Progress snapshot of a campaign ([`CampaignAccum::progress`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Progress {
    /// Experiments finished so far.
    pub done: usize,
    /// Campaign size.
    pub total: usize,
    /// Finished experiments without a critical resource (at [`GAP_REL_TOL`]).
    pub no_critical: usize,
    /// Finished experiments resolved by the simulator fallback.
    pub simulated: usize,
    /// Maximum relative gap seen so far.
    pub max_gap: f64,
}

impl Progress {
    /// Fraction complete in `[0, 1]`; an empty campaign counts as done.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.done as f64 / self.total as f64
        }
    }

    /// One-line human summary, shared by the supervisor, `repwf dist
    /// status` and partial merges: experiments done (with the percentage
    /// when short of the campaign), the no-critical tally, the simulated
    /// tally (only when any experiment actually fell back to the
    /// simulator), and the running max gap.
    ///
    /// ```
    /// use repwf_gen::campaign::Progress;
    /// let p = Progress { done: 3, total: 4, no_critical: 1, simulated: 0, max_gap: 0.25 };
    /// assert_eq!(p.summary(), "3/4 experiments (75.0%), 1 no-critical, max gap 25.000%");
    /// let s = Progress { simulated: 2, ..p };
    /// assert_eq!(
    ///     s.summary(),
    ///     "3/4 experiments (75.0%), 1 no-critical, 2 simulated, max gap 25.000%",
    /// );
    /// ```
    pub fn summary(&self) -> String {
        let coverage = if self.done == self.total {
            format!("{}/{} experiments", self.done, self.total)
        } else {
            format!(
                "{}/{} experiments ({})",
                self.done,
                self.total,
                format_pct(self.done, self.total)
            )
        };
        let simulated = if self.simulated > 0 {
            format!(", {} simulated", self.simulated)
        } else {
            String::new()
        };
        format!(
            "{coverage}, {} no-critical{simulated}, max gap {:.3}%",
            self.no_critical,
            self.max_gap * 100.0
        )
    }
}

/// `done/total` as a percentage with one decimal (`"75.0%"`). An empty
/// total counts as complete (`"100.0%"`), matching [`Progress::fraction`]'s
/// empty-campaign convention. The one formatting rule shared by
/// [`Progress::summary`] and `repwf dist status`.
pub fn format_pct(done: usize, total: usize) -> String {
    let fraction = if total == 0 { 1.0 } else { done as f64 / total as f64 };
    format!("{:.1}%", fraction * 100.0)
}

/// Everything that determines a campaign's outcomes: the generator
/// configuration, the communication model, the TPN size cap and the seed
/// range. Two shard files belong to the same campaign iff their specs
/// agree **bitwise** (time ranges are compared as f64 bit patterns). The
/// precedence graph is not part of the spec: [`run_spec`] takes it
/// separately, and shard manifests describe chain campaigns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignSpec {
    /// Generator configuration (stages, procs, time ranges).
    pub cfg: GenConfig,
    /// Communication model.
    pub model: CommModel,
    /// Total experiment count of the campaign (all shards together).
    pub count: usize,
    /// Base seed; experiment `k` uses `seed_base + k`.
    pub seed_base: u64,
    /// TPN transition cap before simulator fallback.
    pub cap: usize,
}

/// Outcome sink of [`run_campaign_streamed`]: called in seed order.
pub type OutcomeSink<'a> = &'a (dyn Fn(&ExperimentOutcome) + Sync);

/// Runs one experiment (public for reuse by benches/tests).
///
/// One-shot convenience over [`run_one_with`]: allocates a fresh
/// [`PeriodEngine`] sized by `cap`.
pub fn run_one(cfg: &GenConfig, model: CommModel, seed: u64, cap: usize) -> ExperimentOutcome {
    run_one_with(cfg, model, seed, &mut engine_for_cap(cap))
}

/// A cold-start engine with the campaign build options (no labels, TPN
/// size cap `cap`).
pub fn engine_for_cap(cap: usize) -> PeriodEngine {
    PeriodEngine::with_options(BuildOptions { labels: false, max_transitions: cap })
}

/// Runs one experiment on a caller-owned engine (the size cap comes from
/// the engine's build options). The outcome is a pure function of
/// `(cfg, model, seed, engine options)` — the engine only contributes
/// reusable buffers, never state that leaks into the numbers. Running
/// seeds one by one through this function is the serial reference the
/// campaign runner is tested against.
pub fn run_one_with(
    cfg: &GenConfig,
    model: CommModel,
    seed: u64,
    engine: &mut PeriodEngine,
) -> ExperimentOutcome {
    run_one_workflow_with(cfg, &Topology::chain(cfg.stages), model, seed, engine)
}

/// [`run_one_with`] on an arbitrary series-parallel [`Topology`]. On
/// [`Topology::chain`] this *is* [`run_one_with`] (same RNG stream, same
/// bytes). This is the runner's solo path.
pub fn run_one_workflow_with(
    cfg: &GenConfig,
    topo: &Topology,
    model: CommModel,
    seed: u64,
    engine: &mut PeriodEngine,
) -> ExperimentOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    // The draw is evaluated through the borrowed-view oracle path: no
    // owned `Instance` is assembled unless the simulator fallback needs
    // one (and then by move, not clone). Consecutive same-shape draws on a
    // worker take the engine's incremental patch path — bit-transparent,
    // so outcomes stay a pure function of the seed regardless of the
    // work-stealing schedule.
    let (pipeline, platform, mapping) = sample_workflow_parts(cfg, topo, &mut rng);
    let method = match model {
        CommModel::Overlap => Method::Polynomial,
        CommModel::Strict => Method::FullTpn,
    };
    match engine.compute_mapping(&pipeline, &platform, &mapping, model, method) {
        Ok(report) => ExperimentOutcome {
            seed,
            mct: report.mct,
            period: report.period,
            resolution: Resolution::Exact,
            num_paths: report.num_paths,
        },
        Err(PeriodError::Build(BuildError::TooLarge { m, .. })) => {
            // Simulator fallback: long enough to pass the transient.
            let inst = Instance::new(pipeline, platform, mapping)
                .expect("generator produces valid instances");
            let (mct, _) = repwf_core::cycle_time::max_cycle_time(&inst, model);
            let data_sets = 20_000u64;
            let sim = simulate(&inst, model, &SimOptions { data_sets, record_ops: false });
            ExperimentOutcome {
                seed,
                mct,
                period: sim.exact_period(1e-9).unwrap_or_else(|| sim.period_estimate()),
                resolution: Resolution::Simulated,
                num_paths: m,
            }
        }
        Err(e) => panic!("experiment {seed} failed: {e}"),
    }
}

/// Runs the campaign `spec` on the precedence graph `topo` over `threads`
/// work-stealing workers, hands every outcome to `sink` **in seed order**,
/// and returns the outcomes it streamed (see the module docs for the
/// routing and the determinism guarantees).
///
/// The sink runs under the executor's reorder lock, on whichever worker
/// completed the prefix: keep it to an append or a fold, not a solve.
/// Because outcomes arrive strictly in seed order, a sink appending to a
/// file leaves a valid, resumable prefix whenever the process is killed.
pub fn run_spec(
    spec: &CampaignSpec,
    topo: &Topology,
    threads: usize,
    mut sink: impl FnMut(&ExperimentOutcome) + Send,
) -> CampaignResult {
    let (tasks, shapes) = route(spec, topo);
    repwf_obs::counter_add(CounterId::ShapeGroups, shapes as u64);
    let outcomes = repwf_par::par_map_init_ordered(
        threads,
        tasks.len(),
        spec.count,
        || (engine_for_cap(spec.cap), ShapeBatchSolver::new(spec.cap)),
        |(engine, solver), t| {
            let _span = repwf_obs::span!(Experiment);
            let k = match &tasks[t] {
                Task::Chunk(ks) if ks.len() > 1 => return solve_chunk(spec, topo, solver, ks),
                Task::Chunk(ks) => ks[0],
                Task::Solo(k) => *k,
            };
            repwf_obs::counter_add(CounterId::SoloExperiments, 1);
            let seed = spec.seed_base + u64::from(k);
            vec![(k as usize, run_one_workflow_with(&spec.cfg, topo, spec.model, seed, engine))]
        },
        |_, outcome| sink(outcome),
    );
    CampaignResult { outcomes }
}

/// [`run_spec`] on the chain topology, without a sink.
pub fn run_campaign_batched(
    cfg: &GenConfig,
    model: CommModel,
    count: usize,
    seed_base: u64,
    threads: usize,
    cap: usize,
) -> CampaignResult {
    run_campaign_streamed(cfg, model, count, seed_base, threads, cap, &|_| {})
}

/// [`run_spec`] on the chain topology, streaming to a shared sink.
pub fn run_campaign_streamed(
    cfg: &GenConfig,
    model: CommModel,
    count: usize,
    seed_base: u64,
    threads: usize,
    cap: usize,
    sink: OutcomeSink<'_>,
) -> CampaignResult {
    let spec = CampaignSpec { cfg: *cfg, model, count, seed_base, cap };
    run_spec(&spec, &Topology::chain(cfg.stages), threads, sink)
}

/// Campaign shape statistics, computed **statically from the spec** by
/// replaying only the replica-count RNG prefix of every seed (no instance
/// materialized, no experiment run): the number of distinct TPN shapes
/// the campaign draws, and the batch hit rate
/// `(count − distinct_shapes)/count` — the fraction of experiments that
/// ride a shape some earlier seed already paid the structural phase for.
///
/// Because the statistics depend only on `(cfg, count, seed_base)`, a
/// sharded campaign's merge report and the unsharded run report the same
/// values, whatever seed slices actually executed the experiments.
pub fn shape_stats(cfg: &GenConfig, count: usize, seed_base: u64) -> (usize, f64) {
    if count == 0 {
        return (0, 0.0);
    }
    let mut shapes = std::collections::HashSet::new();
    for k in 0..count {
        let mut rng = StdRng::seed_from_u64(seed_base + k as u64);
        shapes.insert(sample_replica_counts(cfg, &mut rng));
    }
    let distinct = shapes.len();
    (distinct, (count - distinct) as f64 / count as f64)
}

/// Structural-solve totals of the canonical batched campaign schedule
/// (see [`structural_stats`]). Kept because `perfbench` checks its replay
/// of the schedule against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StructuralStats {
    /// CSR adjacency builds (each followed by one Tarjan run): one
    /// structural phase per batch chunk.
    pub csr_builds: u64,
}

/// Replays the runner's static routing and returns the structural work of
/// that schedule **without cross-chunk cache reuse**: each chunk of a
/// shape group — a one-seed chunk included, which the runner solves
/// through the engine — pays one TPN/CSR/Tarjan structural phase; solo
/// seeds over the cap run the simulator fallback, which builds none of it.
///
/// Like [`shape_stats`], this depends only on
/// `(cfg, topo, model, count, seed_base, cap)` — never on the outcomes or
/// the thread schedule — so a sharded campaign's merge report and the
/// unsharded run report identical values and merged bytes stay identical
/// to unsharded bytes.
pub fn structural_stats_workflow(
    cfg: &GenConfig,
    topo: &Topology,
    model: CommModel,
    count: usize,
    seed_base: u64,
    cap: usize,
) -> StructuralStats {
    let spec = CampaignSpec { cfg: *cfg, model, count, seed_base, cap };
    let (tasks, _) = route(&spec, topo);
    let chunks = tasks.iter().filter(|t| matches!(t, Task::Chunk(_))).count() as u64;
    StructuralStats { csr_builds: chunks }
}

/// [`structural_stats_workflow`] on the linear chain topology — the shape
/// every `CampaignSpec`-driven campaign (CLI, shards, supervisor) runs.
pub fn structural_stats(
    cfg: &GenConfig,
    model: CommModel,
    count: usize,
    seed_base: u64,
    cap: usize,
) -> StructuralStats {
    structural_stats_workflow(cfg, &Topology::chain(cfg.stages), model, count, seed_base, cap)
}

/// Upper bound on transitions staged per batched chunk: chunks shrink for
/// big shapes so the per-worker cost planes and Howard columns stay
/// bounded (a pure function of the shape dimensions — deterministic).
const BATCH_TRANSITION_BUDGET: u128 = 1_000_000;
/// Instances per batched Howard pass for small shapes.
const MAX_BATCH: usize = 16;

/// One unit of campaign work: seed offsets into the campaign's range.
enum Task {
    /// Consecutive same-shape, in-cap seeds of one shape group.
    Chunk(Vec<u32>),
    /// A seed no shape group takes: over the size cap (simulator
    /// fallback), a path-count overflow, or an overlap-model seed.
    Solo(u32),
}

/// Routes the seeds of `spec` statically by replaying each seed's
/// replica-count RNG prefix. Solo seeds come first, in seed order; then
/// every shape group in first-occurrence order, cut into consecutive
/// chunks. Chunks of one shape stay adjacent so a worker that steals a
/// run of them keeps its [`ShapeBatchSolver`] structure cache hot.
/// Returns the tasks and the number of shape groups.
fn route(spec: &CampaignSpec, topo: &Topology) -> (Vec<Task>, usize) {
    if spec.model == CommModel::Overlap {
        return ((0..spec.count as u32).map(Task::Solo).collect(), 0);
    }
    let cols = (topo.stages + topo.num_edges()) as u128;
    let mut tasks = Vec::new();
    let mut group_of: HashMap<Vec<usize>, usize> = HashMap::new();
    // (transitions, members) per shape, in first-occurrence order.
    let mut groups: Vec<(u128, Vec<u32>)> = Vec::new();
    for k in 0..spec.count {
        let mut rng = StdRng::seed_from_u64(spec.seed_base + k as u64);
        let replicas = sample_replica_counts(&spec.cfg, &mut rng);
        match num_paths(&replicas).and_then(|m| m.checked_mul(cols)) {
            Some(t) if t <= spec.cap as u128 => {
                let g = *group_of.entry(replicas).or_insert_with(|| {
                    groups.push((t, Vec::new()));
                    groups.len() - 1
                });
                groups[g].1.push(k as u32);
            }
            _ => tasks.push(Task::Solo(k as u32)),
        }
    }
    let shapes = groups.len();
    for (transitions, members) in groups {
        let chunk = (BATCH_TRANSITION_BUDGET / transitions.max(1)).clamp(1, MAX_BATCH as u128);
        tasks.extend(members.chunks(chunk as usize).map(|c| Task::Chunk(c.to_vec())));
    }
    (tasks, shapes)
}

/// Solves a chunk of same-shape seeds in one batched Howard pass over one
/// shared structure; returns `(seed offset, outcome)` per seed.
fn solve_chunk(
    spec: &CampaignSpec,
    topo: &Topology,
    solver: &mut ShapeBatchSolver,
    ks: &[u32],
) -> Vec<(usize, ExperimentOutcome)> {
    repwf_obs::counter_add(CounterId::BatchChunks, 1);
    repwf_obs::counter_add(CounterId::BatchedExperiments, ks.len() as u64);
    // (seed, M_ct, path count) per staged instance.
    let mut metas: Vec<(u64, f64, u128)> = Vec::with_capacity(ks.len());
    for (q, &k) in ks.iter().enumerate() {
        let seed = spec.seed_base + u64::from(k);
        let mut rng = StdRng::seed_from_u64(seed);
        let (pipeline, platform, mapping) = sample_workflow_parts(&spec.cfg, topo, &mut rng);
        let view = InstanceView::new(&pipeline, &platform, &mapping)
            .expect("generator produces valid instances");
        if q == 0 {
            solver.begin(view, spec.model, ks.len()).expect("routed shapes fit the size cap");
        }
        let (mct, _) = max_cycle_time_view(view, spec.model);
        let m = mapping_num_paths(&mapping).expect("routed shapes have a path count");
        solver.stage(q, view);
        metas.push((seed, mct, m));
    }
    ks.iter()
        .zip(metas)
        .zip(solver.solve())
        .map(|((&k, (seed, mct, m)), res)| {
            let sol = res
                .unwrap_or_else(|e| panic!("experiment {seed} failed: {e}"))
                .expect("mapping TPNs always contain circuits");
            let outcome = ExperimentOutcome {
                seed,
                mct,
                period: sol.period / m as f64,
                resolution: Resolution::Exact,
                num_paths: m,
            };
            (k as usize, outcome)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::Range;
    use repwf_obs::counted;
    use repwf_obs::CounterId::{CsrBuilds, PatchedSolves, TarjanRuns};
    use std::sync::Mutex;

    fn small_cfg() -> GenConfig {
        GenConfig { stages: 2, procs: 7, comp: Range::constant(1.0), comm: Range::new(5.0, 10.0) }
    }

    fn mixed_cfg() -> GenConfig {
        GenConfig { stages: 3, procs: 9, comp: Range::new(5.0, 15.0), comm: Range::new(5.0, 15.0) }
    }

    /// The serial per-instance reference: [`run_one_with`] seed by seed on
    /// one engine.
    fn oracle(
        cfg: &GenConfig,
        model: CommModel,
        count: usize,
        seed_base: u64,
        cap: usize,
    ) -> CampaignResult {
        let mut engine = engine_for_cap(cap);
        CampaignResult {
            outcomes: (0..count)
                .map(|k| run_one_with(cfg, model, seed_base + k as u64, &mut engine))
                .collect(),
        }
    }

    #[test]
    fn outcomes_respect_lower_bound() {
        let res = run_campaign_batched(&small_cfg(), CommModel::Overlap, 20, 100, 4, 200_000);
        assert_eq!(res.outcomes.len(), 20);
        for o in &res.outcomes {
            assert!(o.period >= o.mct - 1e-9 * o.mct, "seed {}: {} < {}", o.seed, o.period, o.mct);
        }
    }

    #[test]
    fn reused_engine_matches_fresh_engines() {
        // The per-worker engine only contributes buffers: running many
        // seeds through one engine must reproduce fresh-engine runs bit
        // for bit.
        let cfg = small_cfg();
        let mut engine = engine_for_cap(200_000);
        for seed in 300..316 {
            let reused = run_one_with(&cfg, CommModel::Strict, seed, &mut engine);
            let fresh = run_one(&cfg, CommModel::Strict, seed, 200_000);
            assert_eq!(reused, fresh, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_given_seeds() {
        let a = run_campaign_batched(&small_cfg(), CommModel::Strict, 8, 7, 4, 200_000);
        let b = run_campaign_batched(&small_cfg(), CommModel::Strict, 8, 7, 2, 200_000);
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.seed, y.seed);
            assert!((x.period - y.period).abs() < 1e-12);
        }
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        // Stronger than the tolerance check above: the whole result must be
        // byte-for-byte equal for every thread count (the work-stealing
        // schedule must never leak into the numbers).
        let reference = run_campaign_batched(&small_cfg(), CommModel::Strict, 24, 900, 1, 200_000);
        for threads in [2, 3, 4, 16] {
            let other =
                run_campaign_batched(&small_cfg(), CommModel::Strict, 24, 900, threads, 200_000);
            assert_eq!(reference, other, "threads={threads}");
        }
    }

    fn outcome(mct: f64, period: f64) -> ExperimentOutcome {
        ExperimentOutcome { seed: 0, mct, period, resolution: Resolution::Simulated, num_paths: 4 }
    }

    #[test]
    fn period_below_mct_clamps_gap_through_the_aggregates() {
        // Regression: a simulator-fallback period just below M_ct (or
        // float noise at period ≈ M_ct) must aggregate as gap 0, not as a
        // negative bit pattern that out-ranks every real maximum.
        let below = outcome(1295.0 / 6.0, 1295.0 / 6.0 - 1e-9);
        assert_eq!(below.gap(), 0.0);
        assert!(!below.no_critical_resource(GAP_REL_TOL));
        let res = CampaignResult { outcomes: vec![below, outcome(100.0, 100.5)] };
        assert_eq!(res.count_no_critical(GAP_REL_TOL), 1);
        assert!((res.max_gap() - 0.005).abs() < 1e-12);

        // Degenerate draws must not poison the aggregates either.
        assert_eq!(outcome(100.0, f64::NAN).gap(), 0.0);
        let degenerate =
            CampaignResult { outcomes: vec![outcome(100.0, f64::INFINITY), outcome(100.0, 99.0)] };
        assert_eq!(degenerate.max_gap(), 0.0, "non-finite gaps are skipped");
    }

    #[test]
    fn streaming_maximum_rejects_degenerate_gaps() {
        // The accumulator a progress sink folds outcomes into: NaN,
        // infinite and below-M_ct periods never enter the running maximum.
        let mut accum = CampaignAccum::new();
        for period in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 99.0, 100.0] {
            accum.push(&outcome(100.0, period));
        }
        assert_eq!(accum.max_gap(), 0.0);
        accum.push(&outcome(100.0, 125.0));
        for period in [f64::NAN, f64::INFINITY, 110.0] {
            accum.push(&outcome(100.0, period));
        }
        assert_eq!(accum.max_gap(), 0.25);
    }

    #[test]
    fn accum_matches_result_aggregates_and_merges_associatively() {
        let res = run_campaign_batched(&small_cfg(), CommModel::Strict, 30, 40, 4, 200_000);
        let whole = res.accum();
        assert_eq!(whole.done, res.outcomes.len());
        assert_eq!(whole.no_critical, res.count_no_critical(GAP_REL_TOL));
        assert_eq!(whole.simulated, res.count_simulated());
        assert_eq!(whole.max_gap().to_bits(), res.max_gap().to_bits());

        // Any split of the outcome sequence, merged in any grouping, must
        // reproduce the whole-campaign accumulator exactly.
        for split in [1, 7, 15, 29] {
            for second_split in [split + 1, res.outcomes.len()] {
                let mut left = CampaignAccum::new();
                res.outcomes[..split].iter().for_each(|o| left.push(o));
                let mut mid = CampaignAccum::new();
                res.outcomes[split..second_split].iter().for_each(|o| mid.push(o));
                let mut right = CampaignAccum::new();
                res.outcomes[second_split..].iter().for_each(|o| right.push(o));

                let mut left_first = left;
                left_first.merge(&mid);
                left_first.merge(&right);
                let mut right_first = mid;
                right_first.merge(&right);
                let mut outer = left;
                outer.merge(&right_first);
                assert_eq!(left_first, whole, "split {split}/{second_split}");
                assert_eq!(outer, whole, "split {split}/{second_split}");
            }
        }

        // Degenerate outcomes stay excluded from the merged maximum.
        let mut degenerate = CampaignAccum::new();
        degenerate.push(&outcome(100.0, f64::INFINITY));
        assert_eq!(degenerate.max_gap(), 0.0);
        let mut merged = whole;
        merged.merge(&degenerate);
        assert_eq!(merged.max_gap().to_bits(), whole.max_gap().to_bits());
    }

    #[test]
    fn streamed_outcomes_arrive_in_seed_order_and_match_the_oracle() {
        let reference = oracle(&small_cfg(), CommModel::Strict, 18, 70, 200_000);
        for threads in [1, 3, 8] {
            let seen: Mutex<Vec<ExperimentOutcome>> = Mutex::new(Vec::new());
            let res = run_campaign_streamed(
                &small_cfg(),
                CommModel::Strict,
                18,
                70,
                threads,
                200_000,
                &|o| seen.lock().unwrap().push(o.clone()),
            );
            assert_eq!(res, reference, "threads={threads}");
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen, reference.outcomes, "sink must stream in seed order");
        }
    }

    #[test]
    fn gap_is_nonnegative_and_consistent() {
        let res = run_campaign_batched(&small_cfg(), CommModel::Strict, 10, 55, 4, 200_000);
        let n = res.count_no_critical(1e-7);
        assert!(n <= res.outcomes.len());
        if n > 0 {
            assert!(res.max_gap() > 0.0);
        }
    }

    #[test]
    fn simulation_fallback_engages_on_tiny_cap() {
        // Cap of 1 transition forces the simulator for any replicated draw.
        let res = run_campaign_batched(&mixed_cfg(), CommModel::Strict, 6, 3, 2, 1);
        assert!(res.count_simulated() > 0);
        for o in &res.outcomes {
            assert!(o.period >= o.mct - 1e-6 * o.mct);
        }
    }

    /// Runs a 12-draw campaign with the progress fold a CLI sink makes:
    /// one snapshot per outcome.
    fn progress_snapshots(model: CommModel) -> (CampaignResult, Vec<Progress>) {
        let spec =
            CampaignSpec { cfg: small_cfg(), model, count: 12, seed_base: 500, cap: 200_000 };
        let mut accum = CampaignAccum::new();
        let mut seen = Vec::new();
        let res = run_spec(&spec, &Topology::chain(2), 3, |o| {
            accum.push(o);
            seen.push(accum.progress(spec.count));
        });
        (res, seen)
    }

    fn assert_progress_streams_to_completion(model: CommModel) {
        let (res, seen) = progress_snapshots(model);
        assert_eq!(seen.len(), 12, "one snapshot per experiment");
        for (k, p) in seen.iter().enumerate() {
            assert_eq!((p.done, p.total), (k + 1, 12), "snapshots arrive in order");
        }
        let last = seen[11];
        assert_eq!(last.no_critical, res.count_no_critical(GAP_REL_TOL));
        assert_eq!(last.simulated, res.count_simulated());
        assert_eq!(last.max_gap.to_bits(), res.max_gap().to_bits());
    }

    #[test]
    fn progress_streams_to_completion() {
        // Overlap: every seed runs solo.
        assert_progress_streams_to_completion(CommModel::Overlap);
    }

    #[test]
    fn batched_progress_streams_one_snapshot_per_experiment() {
        // Strict: the 2x7 draws share six shapes, so chunks complete
        // several seeds at once and the reorder buffer releases them.
        assert_progress_streams_to_completion(CommModel::Strict);
    }

    #[test]
    fn accum_progress_matches_streaming_snapshots() {
        // A checkpoint-derived snapshot (accumulator over a prefix of the
        // outcomes) must equal the Progress a live sink reports at the
        // same point — one reporting path for live runs and
        // resumed/partial ones.
        let res = run_campaign_batched(&small_cfg(), CommModel::Strict, 20, 310, 4, 200_000);
        let mut accum = CampaignAccum::new();
        for (k, o) in res.outcomes.iter().enumerate() {
            accum.push(o);
            let p = accum.progress(res.outcomes.len());
            assert_eq!(p.done, k + 1);
            assert_eq!(p.total, 20);
            assert_eq!(p.no_critical, accum.no_critical);
            assert_eq!(p.simulated, accum.simulated);
            assert_eq!(p.max_gap.to_bits(), accum.max_gap().to_bits());
        }
        assert_eq!(accum.progress(20), res.accum().progress(20));
    }

    #[test]
    fn batched_campaign_is_byte_identical_across_thread_counts() {
        // Shape-batched scheduling must never leak into the numbers: same
        // bytes as the serial per-instance oracle, at any thread count,
        // for both models.
        for model in [CommModel::Strict, CommModel::Overlap] {
            let reference = oracle(&small_cfg(), model, 24, 900, 200_000);
            for threads in [1, 2, 4] {
                let batched = run_campaign_batched(&small_cfg(), model, 24, 900, threads, 200_000);
                assert_eq!(
                    batched.outcomes.len(),
                    reference.outcomes.len(),
                    "{model} threads={threads}"
                );
                for (b, r) in batched.outcomes.iter().zip(&reference.outcomes) {
                    assert_eq!(b.seed, r.seed, "{model} threads={threads}");
                    assert_eq!(b.resolution, r.resolution, "{model} seed {}", r.seed);
                    assert_eq!(b.num_paths, r.num_paths, "{model} seed {}", r.seed);
                    assert_eq!(b.mct.to_bits(), r.mct.to_bits(), "{model} seed {} mct", r.seed);
                    assert_eq!(
                        b.period.to_bits(),
                        r.period.to_bits(),
                        "{model} seed {} period",
                        r.seed
                    );
                }
            }
        }
    }

    #[test]
    fn batched_campaign_routes_simulator_era_seeds_through_the_solo_path() {
        // A tiny cap forces some draws over the size limit: the runner
        // must hand exactly those to the per-instance path (simulator
        // fallback) and still reproduce the oracle's bytes.
        // Cap of 60 transitions: draws with lcm ≤ 12 batch, the rest solo.
        let reference = oracle(&mixed_cfg(), CommModel::Strict, 12, 3, 60);
        assert!(reference.count_simulated() > 0, "cap must force some fallbacks");
        assert!(reference.count_simulated() < 12, "cap must leave some exact experiments");
        for threads in [1, 3] {
            let batched = run_campaign_batched(&mixed_cfg(), CommModel::Strict, 12, 3, threads, 60);
            assert_eq!(batched, reference, "threads={threads}");
        }
    }

    #[test]
    fn workflow_campaign_deterministic_and_batched_matches_unbatched() {
        // Fork/join campaign: the runner must agree byte-for-byte with the
        // serial per-instance path at any thread count, and every outcome
        // respects the M_ct lower bound.
        let cfg = GenConfig { stages: 4, ..mixed_cfg() };
        let topo = Topology::fork_join(2);
        assert_eq!(topo.stages, 4);
        let mut engine = engine_for_cap(200_000);
        let reference = CampaignResult {
            outcomes: (40..56)
                .map(|seed| {
                    run_one_workflow_with(&cfg, &topo, CommModel::Strict, seed, &mut engine)
                })
                .collect(),
        };
        for o in &reference.outcomes {
            assert!(o.period >= o.mct - 1e-9 * o.mct, "seed {}", o.seed);
        }
        let spec =
            CampaignSpec { cfg, model: CommModel::Strict, count: 16, seed_base: 40, cap: 200_000 };
        for threads in [1, 2, 3, 4] {
            let batched = run_spec(&spec, &topo, threads, |_| {});
            assert_eq!(batched, reference, "threads={threads}");
        }
    }

    #[test]
    fn chain_topology_campaign_is_byte_identical_to_legacy() {
        // The non-negotiable invariant at the campaign level: running the
        // chain topology through the workflow runner reproduces the legacy
        // chain experiments exactly.
        let cfg = small_cfg();
        let topo = Topology::chain(cfg.stages);
        for model in [CommModel::Strict, CommModel::Overlap] {
            let legacy = oracle(&cfg, model, 12, 77, 200_000);
            let spec = CampaignSpec { cfg, model, count: 12, seed_base: 77, cap: 200_000 };
            assert_eq!(run_spec(&spec, &topo, 2, |_| {}), legacy, "{model}");
        }
    }

    #[test]
    fn shape_stats_count_distinct_replica_draws() {
        let (distinct, hit_rate) = shape_stats(&small_cfg(), 24, 900);
        assert!((1..=24).contains(&distinct));
        // 2 stages / 7 procs: only 6 possible shapes, so 24 draws repeat.
        assert!(distinct <= 6);
        assert!((hit_rate - (24 - distinct) as f64 / 24.0).abs() < 1e-15);
        assert_eq!(shape_stats(&small_cfg(), 0, 900), (0, 0.0));
        // Purely spec-derived: identical on every call.
        assert_eq!(shape_stats(&small_cfg(), 24, 900), (distinct, hit_rate));
    }

    #[test]
    fn progress_fraction_and_summary_cover_partial_and_degenerate_cases() {
        let partial = Progress { done: 3, total: 4, no_critical: 1, simulated: 2, max_gap: 0.015 };
        assert!((partial.fraction() - 0.75).abs() < 1e-15);
        assert_eq!(
            partial.summary(),
            "3/4 experiments (75.0%), 1 no-critical, 2 simulated, max gap 1.500%"
        );

        let complete = Progress { done: 4, total: 4, no_critical: 0, simulated: 0, max_gap: 0.0 };
        assert!((complete.fraction() - 1.0).abs() < 1e-15);
        // No simulator fallback: the summary does not mention it at all.
        assert_eq!(complete.summary(), "4/4 experiments, 0 no-critical, max gap 0.000%");

        let empty = Progress { done: 0, total: 0, no_critical: 0, simulated: 0, max_gap: 0.0 };
        assert_eq!(empty.fraction(), 1.0, "an empty campaign counts as done");
    }

    #[test]
    fn format_pct_covers_zero_records_and_degraded_edges() {
        // 0 records of a non-empty campaign (every unit failed / nothing
        // checkpointed yet): 0.0%, never NaN.
        assert_eq!(format_pct(0, 8), "0.0%");
        // Empty campaign counts as done, matching `Progress::fraction`.
        assert_eq!(format_pct(0, 0), "100.0%");
        assert_eq!(format_pct(3, 4), "75.0%");
        assert_eq!(format_pct(4, 4), "100.0%");
        // `Progress::summary` routes through the same helper.
        let p = Progress { done: 0, total: 8, no_critical: 0, simulated: 0, max_gap: 0.0 };
        assert_eq!(p.summary(), "0/8 experiments (0.0%), 0 no-critical, max gap 0.000%");
    }

    #[test]
    fn structural_stats_replay_the_batched_routing() {
        let cfg = small_cfg();
        // Overlap: polynomial path, no structural work at all.
        assert_eq!(
            structural_stats(&cfg, CommModel::Overlap, 24, 900, 200_000),
            StructuralStats::default()
        );
        assert_eq!(
            structural_stats(&cfg, CommModel::Strict, 0, 900, 200_000),
            StructuralStats::default()
        );

        let stats = structural_stats(&cfg, CommModel::Strict, 24, 900, 200_000);
        let (distinct, _) = shape_stats(&cfg, 24, 900);
        // One structural phase per chunk: at least one chunk per in-cap
        // shape, at most one per experiment.
        assert!(stats.csr_builds >= distinct as u64);
        assert!(stats.csr_builds <= 24);
        // The run itself: Tarjan rides every CSR build, and reuse across
        // chunks never builds more than the replay derives.
        let (_, c) = counted(|| run_campaign_batched(&cfg, CommModel::Strict, 24, 900, 1, 200_000));
        assert_eq!(c[TarjanRuns], c[CsrBuilds]);
        assert!(c[CsrBuilds] >= distinct as u64 && c[CsrBuilds] <= stats.csr_builds, "{c:?}");
        assert_eq!(c[PatchedSolves], 0, "batched schedule never patches");
        // Purely spec-derived: identical on every call.
        assert_eq!(structural_stats(&cfg, CommModel::Strict, 24, 900, 200_000), stats);

        // A cap below every shape routes everything solo (simulator): no
        // structural work is derived.
        let all_solo = structural_stats(&cfg, CommModel::Strict, 24, 900, 1);
        assert_eq!(all_solo, StructuralStats::default());

        // One-seed chunks, which the runner solves through the engine,
        // still count as one structural phase each: a campaign of one
        // in-cap draw is one chunk.
        let single = structural_stats(&cfg, CommModel::Strict, 1, 900, 200_000);
        assert_eq!(single.csr_builds, 1);
        let (_, c) = counted(|| run_campaign_batched(&cfg, CommModel::Strict, 1, 900, 1, 200_000));
        assert_eq!((c[CsrBuilds], c[TarjanRuns]), (1, 1));
    }
}
