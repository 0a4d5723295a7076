//! Shape-batched period evaluation of mapped workflows.
//!
//! Campaign draws collapse into a handful of TPN *shapes*: the place
//! structure of a mapping's TPN is a pure function of the communication
//! model, the per-stage replica counts and the workflow's edge set, so
//! two instances with equal counts on the same precedence graph differ
//! only in firing times. A [`ShapeBatchSolver`] exploits
//! that end to end — one TPN build, one ratio-graph build, one CSR +
//! Tarjan condensation per shape, with per-instance firing-time planes
//! solved k at a time by the batched Howard kernel
//! (`maxplus::batch`, via [`tpn::analysis::PeriodBatch`]).
//!
//! Results are bit-for-bit those of a cold [`crate::engine::PeriodEngine`]
//! full-TPN solve per instance; `crates/gen`'s campaign property tests pin
//! the whole batched campaign byte-identical to the unbatched one.

use crate::model::{CommModel, InstanceView};
use crate::tpn_build::{build_tpn_view_into, transition_times_into, BuildError, BuildOptions};
use tpn::analysis::{AnalysisError, PeriodBatch, PeriodSolution};
use tpn::net::TimedEventGraph;

/// Canonical TPN shape of a mapped workflow: communication model,
/// per-stage replica counts, and the workflow's edge set — the three
/// inputs the place structure is a pure function of.
type Shape = (CommModel, Vec<usize>, Vec<(u32, u32)>);

/// Batched period solver for groups of same-shape instances.
///
/// Usage per group: [`ShapeBatchSolver::begin`] with the group's first
/// instance (builds or reuses the shared structure), then
/// [`ShapeBatchSolver::stage`] each instance's firing times, then
/// [`ShapeBatchSolver::solve`]. Hold one per worker thread and reuse
/// across groups — consecutive same-shape groups keep the whole
/// structural phase cached (counter-asserted in the tests).
#[derive(Debug, Clone)]
pub struct ShapeBatchSolver {
    opts: BuildOptions,
    net: TimedEventGraph,
    batch: PeriodBatch,
    times: Vec<f64>,
    /// Replica counts of the instance being probed.
    counts: Vec<usize>,
    /// The shape the arena net currently holds, if any.
    built: Option<Shape>,
    /// Structure token handed to the batch: bumped on every TPN build, so
    /// one token never names two structures.
    generation: u64,
    rows: usize,
}

impl ShapeBatchSolver {
    /// A solver whose TPN builds are capped at `max_transitions`
    /// (label-free nets, like the campaign engines).
    pub fn new(max_transitions: usize) -> Self {
        ShapeBatchSolver {
            opts: BuildOptions { labels: false, max_transitions },
            net: TimedEventGraph::new(),
            batch: PeriodBatch::new(),
            times: Vec::new(),
            counts: Vec::new(),
            built: None,
            generation: 0,
            rows: 0,
        }
    }

    /// Opens a batch of `k` instances shaped like `view` under `model`:
    /// builds the shared TPN structure unless the arena already holds
    /// this shape (model, per-stage replica counts, workflow edge set),
    /// and sizes the cost planes. Fails like an engine build would (size
    /// cap, path-count overflow).
    pub fn begin(
        &mut self,
        view: InstanceView<'_>,
        model: CommModel,
        k: usize,
    ) -> Result<(), BuildError> {
        view.mapping.replica_counts_into(&mut self.counts);
        let edges = view.pipeline.edges();
        let same = matches!(&self.built, Some((m, c, e))
            if *m == model && *c == self.counts && e[..] == *edges);
        if !same {
            self.built = None;
            let (rows, _cols) = {
                let _span = repwf_obs::span!(TpnBuild);
                build_tpn_view_into(view, model, &self.opts, &mut self.net)?
            };
            repwf_obs::counter_add(repwf_obs::CounterId::TpnBuilds, 1);
            self.rows = rows;
            self.generation += 1;
            self.built = Some((model, self.counts.clone(), edges.to_vec()));
        }
        self.batch.set_structure(&self.net, k, self.generation);
        Ok(())
    }

    /// Stages instance `q` of the open batch: recomputes its firing times
    /// from `view` (bit-identical to a fresh TPN build of `view`) straight
    /// into the cost planes. `view` must share the open batch's shape.
    pub fn stage(&mut self, q: usize, view: InstanceView<'_>) {
        transition_times_into(view, self.rows, &mut self.times);
        self.batch.stage(q, &self.times);
    }

    /// Solves every staged instance in one batched Howard pass. Results
    /// are in stage order; divide each period by
    /// [`ShapeBatchSolver::rows`] (the path count `m`) for the
    /// per-data-set period, exactly as the engine does.
    pub fn solve(&mut self) -> Vec<Result<Option<PeriodSolution>, AnalysisError>> {
        self.batch.solve()
    }

    /// Number of grid rows `m` of the open batch's shape.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PeriodEngine;
    use crate::model::{Instance, Mapping, Pipeline, Platform};
    use crate::period::Method;
    use repwf_obs::counted;
    use repwf_obs::CounterId::{CsrBuilds, TarjanRuns, TpnBuilds};

    /// Opens, stages and solves one batch of `group`, returning the
    /// per-data-set periods and the (TPN builds, CSR builds, Tarjan runs)
    /// it took.
    fn solve_group(
        solver: &mut ShapeBatchSolver,
        group: &[Instance],
        model: CommModel,
    ) -> (Vec<f64>, [u64; 3]) {
        let (periods, c) = counted(|| {
            solver.begin(group[0].view(), model, group.len()).unwrap();
            for (q, inst) in group.iter().enumerate() {
                solver.stage(q, inst.view());
            }
            let m = solver.rows() as f64;
            let solved = solver.solve();
            solved.into_iter().map(|res| res.unwrap().unwrap().period / m).collect()
        });
        (periods, [c[TpnBuilds], c[CsrBuilds], c[TarjanRuns]])
    }

    /// Same-shape family: replica counts fixed, processor slots rotated,
    /// heterogeneous speeds so every rotation has distinct times.
    fn rotated(k: usize) -> Instance {
        let pipeline = Pipeline::new(vec![5.0, 7.0, 4.0], vec![3.0, 2.0]).unwrap();
        let mut platform = Platform::uniform(6, 1.0, 1.0);
        for u in 0..6 {
            platform.set_speed(u, 1.0 + 0.2 * u as f64);
        }
        let procs: Vec<usize> = (0..6).map(|i| (i + k) % 6).collect();
        let mapping =
            Mapping::new(vec![procs[..2].to_vec(), procs[2..5].to_vec(), procs[5..].to_vec()])
                .unwrap();
        Instance::new(pipeline, platform, mapping).unwrap()
    }

    /// Different shape on the same platform (counts 3/2/1 instead of
    /// 2/3/1).
    fn other_shape() -> Instance {
        let pipeline = Pipeline::new(vec![5.0, 7.0, 4.0], vec![3.0, 2.0]).unwrap();
        let platform = Platform::uniform(6, 1.0, 1.0);
        let mapping = Mapping::new(vec![vec![0, 1, 2], vec![3, 4], vec![5]]).unwrap();
        Instance::new(pipeline, platform, mapping).unwrap()
    }

    #[test]
    fn batched_groups_match_cold_engine_bitwise_with_one_structural_phase() {
        for model in [CommModel::Strict, CommModel::Overlap] {
            let mut solver = ShapeBatchSolver::new(4_000_000);
            // Structural work of the solver so far (TPN, CSR, Tarjan).
            let mut work = [0; 3];
            let mut tally = |c: [u64; 3]| {
                work.iter_mut().zip(c).for_each(|(w, c)| *w += c);
                work
            };
            for round in 0..2 {
                let group: Vec<Instance> = (round * 3..round * 3 + 3).map(rotated).collect();
                let (periods, c) = solve_group(&mut solver, &group, model);
                for (q, (period, inst)) in periods.iter().zip(&group).enumerate() {
                    let reference =
                        PeriodEngine::new().compute(inst, model, Method::FullTpn).unwrap();
                    assert_eq!(
                        period.to_bits(),
                        reference.period.to_bits(),
                        "{model} round {round} q {q}"
                    );
                }
                // Two same-shape groups: one TPN build, one condensation.
                assert_eq!(tally(c), [1, 1, 1], "{model} round {round}");
            }
            // A different shape rebuilds exactly once more.
            let other = other_shape();
            let (periods, c) = solve_group(&mut solver, std::slice::from_ref(&other), model);
            let reference = PeriodEngine::new().compute(&other, model, Method::FullTpn).unwrap();
            assert_eq!(periods[0].to_bits(), reference.period.to_bits(), "{model}");
            assert_eq!(tally(c), [2, 2, 2], "{model}");
            // Back to the first shape: the arena holds the other one now,
            // so the whole structural phase runs again.
            let group: Vec<Instance> = (0..2).map(rotated).collect();
            let (periods, c) = solve_group(&mut solver, &group, model);
            for (period, inst) in periods.iter().zip(&group) {
                let reference = PeriodEngine::new().compute(inst, model, Method::FullTpn).unwrap();
                assert_eq!(period.to_bits(), reference.period.to_bits(), "{model}");
            }
            assert_eq!(tally(c), [3, 3, 3], "{model}");
        }
    }

    #[test]
    fn begin_respects_the_size_cap() {
        let inst = rotated(0);
        let mut solver = ShapeBatchSolver::new(4);
        match solver.begin(inst.view(), CommModel::Strict, 1) {
            Err(BuildError::TooLarge { .. }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }
}
