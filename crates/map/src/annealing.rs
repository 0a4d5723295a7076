//! Simulated annealing over mapping space.
//!
//! Hill climbing (the `local_search` of the crate root) stalls in local
//! minima created by the round-robin effect (adding one replica can hurt
//! until a second one is added). Annealing escapes them by occasionally
//! accepting worse mappings with temperature-controlled probability.

use crate::{apply_move, oracle_eval, undo_move, Move, SearchResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use repwf_core::engine::MappingOracle;
use repwf_core::model::{CommModel, Mapping, Pipeline, Platform};

/// Annealing parameters.
#[derive(Debug, Clone)]
pub struct AnnealOptions {
    /// Communication model.
    pub model: CommModel,
    /// Number of proposal steps.
    pub steps: usize,
    /// Initial temperature as a fraction of the starting period.
    pub t0_fraction: f64,
    /// Geometric cooling factor per step.
    pub cooling: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealOptions {
    fn default() -> Self {
        AnnealOptions {
            model: CommModel::Overlap,
            steps: 1500,
            t0_fraction: 0.3,
            cooling: 0.995,
            seed: 0,
        }
    }
}

/// Proposes a random neighbour [`Move`] (add / remove / move / swap). The
/// RNG draw sequence is the historical one, so annealing runs are
/// bit-compatible with the clone-per-proposal implementation this
/// replaced.
fn propose<R: Rng>(mapping: &Mapping, num_procs: usize, rng: &mut R) -> Option<Move> {
    let n = mapping.num_stages();
    let mut used = vec![false; num_procs];
    for i in 0..n {
        for &u in mapping.procs(i) {
            used[u] = true;
        }
    }
    let unused: Vec<usize> = (0..num_procs).filter(|&u| !used[u]).collect();
    match rng.gen_range(0..4) {
        0 if !unused.is_empty() => {
            // add an unused processor to a random stage
            let u = unused[rng.gen_range(0..unused.len())];
            Some(Move::Add { stage: rng.gen_range(0..n), proc: u })
        }
        1 => {
            // remove a random replica (keep ≥ 1 per stage)
            let i = rng.gen_range(0..n);
            if mapping.replicas(i) > 1 {
                Some(Move::Remove { stage: i, slot: rng.gen_range(0..mapping.replicas(i)) })
            } else {
                None
            }
        }
        2 => {
            // move a replica between stages
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            if i != j && mapping.replicas(i) > 1 {
                Some(Move::Shift { from: i, slot: rng.gen_range(0..mapping.replicas(i)), to: j })
            } else {
                None
            }
        }
        _ => {
            // swap replicas across two stages
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            if i == j {
                return None;
            }
            let si = rng.gen_range(0..mapping.replicas(i));
            let sj = rng.gen_range(0..mapping.replicas(j));
            Some(Move::Swap { i, si, j, sj })
        }
    }
}

/// Runs simulated annealing from `start`.
///
/// Holds **one owned mapping**: each proposal is applied in place,
/// evaluated through a warm-started [`MappingOracle`] (swap proposals —
/// the bulk of the walk — re-solve on the engine's shape-cached patch
/// path: no TPN rebuild, no CSR build, no Tarjan run, and the oracle's
/// incremental `M_ct` re-examines only the stages the proposal touched),
/// and undone on rejection. Only a new incumbent is ever cloned.
pub fn anneal(
    pipeline: &Pipeline,
    platform: &Platform,
    start: Mapping,
    opts: &AnnealOptions,
) -> SearchResult {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut evals = 0usize;
    // One warm-started oracle across all proposal evaluations: annealing
    // mostly proposes same-shape cost perturbations (swaps), the best case
    // for warm-started policy iteration.
    let mut oracle = MappingOracle::new(pipeline, platform).warm_start(true);
    let eval = |m: &Mapping, oracle: &mut MappingOracle<'_>, evals: &mut usize| -> Option<f64> {
        *evals += 1;
        oracle_eval(oracle, m, opts.model)
    };
    let mut current = start;
    let mut current_p = eval(&current, &mut oracle, &mut evals).unwrap_or(f64::INFINITY);
    let mut best = current.clone();
    let mut best_p = current_p;
    let mut temp = current_p.max(1e-9) * opts.t0_fraction;

    for _ in 0..opts.steps {
        temp *= opts.cooling;
        let Some(mv) = propose(&current, platform.num_procs(), &mut rng) else {
            continue;
        };
        let applied = apply_move(&mut current, mv);
        let Some(p) = eval(&current, &mut oracle, &mut evals) else {
            undo_move(&mut current, applied);
            continue;
        };
        let delta = p - current_p;
        if delta <= 0.0 || rng.gen::<f64>() < (-delta / temp.max(1e-12)).exp() {
            current_p = p;
            if p < best_p {
                best_p = p;
                best = current.clone();
            }
        } else {
            undo_move(&mut current, applied);
        }
    }
    SearchResult { mapping: best, period: best_p, evaluations: evals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{greedy, local_search, SearchOptions};

    fn setup() -> (Pipeline, Platform) {
        let pipeline = Pipeline::new(vec![8.0, 24.0, 8.0], vec![0.01, 0.01]).unwrap();
        let mut platform = Platform::uniform(9, 1.0, 100.0);
        for u in 0..9 {
            platform.set_speed(u, 1.0 + 0.1 * u as f64);
        }
        (pipeline, platform)
    }

    #[test]
    fn anneal_matches_or_beats_hill_climb() {
        let (pipe, plat) = setup();
        let hc = local_search(&pipe, &plat, greedy(&pipe, &plat), &SearchOptions::default());
        let an = anneal(
            &pipe,
            &plat,
            greedy(&pipe, &plat),
            &AnnealOptions { steps: 2500, seed: 3, ..Default::default() },
        );
        // Annealing is stochastic; require it to come within 10% of hill
        // climbing (it usually matches or beats it).
        assert!(an.period <= hc.period * 1.10, "anneal {} vs hc {}", an.period, hc.period);
    }

    #[test]
    fn propose_always_valid() {
        let (pipe, plat) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = greedy(&pipe, &plat);
        for _ in 0..500 {
            if let Some(mv) = propose(&m, plat.num_procs(), &mut rng) {
                apply_move(&mut m, mv);
                assert_eq!(m.num_stages(), pipe.num_stages());
                assert!(m.replica_counts().iter().all(|&c| c >= 1));
                // The mutated mapping still satisfies every structural
                // invariant `Mapping::new` enforces.
                assert!(Mapping::new(m.assignment().to_vec()).is_ok());
            }
        }
    }

    #[test]
    fn apply_undo_round_trips() {
        let (pipe, plat) = setup();
        let mut rng = StdRng::seed_from_u64(8);
        let mut m = greedy(&pipe, &plat);
        for _ in 0..500 {
            let reference = m.clone();
            if let Some(mv) = propose(&m, plat.num_procs(), &mut rng) {
                let applied = apply_move(&mut m, mv);
                undo_move(&mut m, applied);
                assert_eq!(m, reference, "undo must restore the exact mapping for {mv:?}");
            }
        }
    }
}
