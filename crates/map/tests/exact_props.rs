//! Property tests of the exact optimizer (the correctness spine of the
//! "exact" claim):
//!
//! * **Differential** — on random small instances (chains with `n ≤ 4`
//!   and two-branch fork/joins, `p ≤ 5`, both communication models,
//!   occasionally with a dead link), the
//!   branch-and-bound optimum is **bit-identical** to exhaustive
//!   enumeration's: same period bit pattern, same canonical mapping —
//!   including instances where every mapping is infeasible. Enumeration
//!   uses a cold oracle and no bounds, so it shares none of the machinery
//!   under test (pruning, warm starts, patched solves, task
//!   partitioning).
//! * **Determinism** — the exact solve at worker counts {1, 2, 4} is
//!   byte-identical: period bits, mapping, and every `ExactStats`
//!   counter (the counters are scheduling-independent by construction:
//!   per-task values summed over statically-numbered tasks).
//! * **Incremental bound** — the search prices each node from its
//!   parent's per-stage terms and, in builds with debug assertions (the
//!   test profile), checks every priced bound against
//!   `MappingOracle::prefix_period_bound` bit for bit (and, at a node cut
//!   by one term alone, that the reference cuts it too); random chains
//!   and fork/joins with dead links and dead processors drive that check
//!   through infinite bounds too.
//! * **Exactness discipline** — a strict-model candidate above the TPN
//!   transition cap aborts with the typed `CandidateTooLarge` error
//!   instead of silently certifying a simulator estimate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use repwf_core::model::{CommModel, Pipeline, Platform};
use repwf_gen::{GenConfig, Range, Topology};
use repwf_map::enumerate;
use repwf_map::exact::{search_space_size, solve, ExactError, ExactOptions};

/// Draws a random small instance: a chain of `stages` stages, or with
/// `fork_join` the four-stage two-branch fork/join (`stages` ignored),
/// whose split stage has two out-edges and whose merge stage two
/// in-edges. `dead_link` occasionally severs one processor pair so
/// infeasible leaves (validation failures in the enumerator,
/// infinite-bound prunes in the solver) are exercised too.
fn instance(
    seed: u64,
    stages: usize,
    extra_procs: usize,
    fork_join: bool,
    dead_link: bool,
) -> (Pipeline, Platform) {
    let topo = if fork_join { Topology::fork_join(2) } else { Topology::chain(stages) };
    let procs = (topo.stages + extra_procs).min(5);
    let cfg = GenConfig {
        stages: topo.stages,
        procs,
        comp: Range::new(1.0, 10.0),
        comm: Range::new(1.0, 5.0),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let (pipeline, mut platform, _mapping) =
        repwf_gen::sampler::sample_workflow_parts(&cfg, &topo, &mut rng);
    if dead_link {
        let u = rng.gen_range(0..procs);
        let v = rng.gen_range(0..procs);
        platform.set_bandwidth(u, v, 0.0);
    }
    (pipeline, platform)
}

fn model(strict: u8) -> CommModel {
    if strict == 0 {
        CommModel::Overlap
    } else {
        CommModel::Strict
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite 1: B&B optimum == brute-force optimum, bit for bit.
    #[test]
    fn exact_matches_enumeration(
        seed in 0u64..4096,
        stages in 1usize..=4,
        extra in 0usize..=3,
        strict in 0u8..2,
        dead in 0u8..4,
        fj in 0u8..3,
    ) {
        let (pipeline, platform) = instance(seed, stages, extra, fj == 0, dead == 0);
        let model = model(strict);
        let truth = enumerate::optimum(&pipeline, &platform, model).unwrap();
        let opts = ExactOptions { model, ..ExactOptions::default() };
        let res = solve(&pipeline, &platform, &opts).unwrap();

        // Enumeration must have covered the whole space…
        prop_assert_eq!(
            Some(truth.leaves as u128),
            search_space_size(pipeline.num_stages(), platform.num_procs())
        );
        prop_assert_eq!(res.space, Some(truth.leaves as u128));
        // …and branch-and-bound must never do more leaf work than it.
        prop_assert!(res.stats.evaluated <= truth.evaluated);

        match (&truth.best, &res.best) {
            (None, None) => {}
            (Some((tm, tp)), Some((em, ep))) => {
                prop_assert_eq!(tp.to_bits(), ep.to_bits());
                prop_assert_eq!(tm, em);
            }
            (t, e) => prop_assert!(false, "feasibility mismatch: enum {:?} vs exact {:?}", t, e),
        }
    }

    /// Satellite 2: worker counts {1, 2, 4} give byte-identical results —
    /// period bits, mapping, and all scheduling-independent counters.
    #[test]
    fn exact_is_identical_at_any_worker_count(
        seed in 0u64..4096,
        stages in 1usize..=4,
        extra in 0usize..=3,
        strict in 0u8..2,
        fj in 0u8..3,
    ) {
        let (pipeline, platform) = instance(seed, stages, extra, fj == 0, false);
        let solve_at = |threads| {
            let opts = ExactOptions { model: model(strict), threads, ..ExactOptions::default() };
            solve(&pipeline, &platform, &opts).unwrap()
        };
        let base = solve_at(1);
        for threads in [2usize, 4] {
            let run = solve_at(threads);
            match (&base.best, &run.best) {
                (None, None) => {}
                (Some((bm, bp)), Some((rm, rp))) => {
                    prop_assert_eq!(bp.to_bits(), rp.to_bits());
                    prop_assert_eq!(bm, rm);
                }
                (b, r) => prop_assert!(false, "feasibility mismatch: {:?} vs {:?}", b, r),
            }
            prop_assert_eq!(base.stats, run.stats);
            prop_assert_eq!(base.space, run.space);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every node the search prices passes the searcher's debug-build
    /// cross-check against the reference bound, and the optimum still
    /// matches enumeration's.
    #[test]
    fn incremental_bound_matches_the_reference_at_every_priced_node(
        seed in 0u64..4096,
        stages in 1usize..=4,
        extra in 0usize..=3,
        strict in 0u8..2,
        fj in 0u8..2,
        dead_proc in 0u8..3,
    ) {
        let (pipeline, mut platform) = instance(seed, stages, extra, fj == 0, true);
        if dead_proc == 0 {
            platform.set_speed(seed as usize % platform.num_procs(), 0.0);
        }
        let model = model(strict);
        let res = solve(&pipeline, &platform, &ExactOptions { model, ..ExactOptions::default() })
            .unwrap();
        let truth = enumerate::optimum(&pipeline, &platform, model).unwrap();
        match (&truth.best, &res.best) {
            (None, None) => {}
            (Some((tm, tp)), Some((em, ep))) => {
                prop_assert_eq!(tp.to_bits(), ep.to_bits());
                prop_assert_eq!(tm, em);
            }
            (t, e) => prop_assert!(false, "feasibility mismatch: enum {:?} vs exact {:?}", t, e),
        }
    }
}

/// Satellite 1 (edge): every mapping infeasible — all inter-processor
/// links dead. Both solvers must agree on `None` rather than erroring or
/// inventing a period.
#[test]
fn all_infeasible_instance_yields_none_from_both_solvers() {
    let pipeline = Pipeline::new(vec![2.0, 3.0], vec![1.0]).unwrap();
    let mut platform = Platform::uniform(3, 1.0, 1.0);
    for u in 0..3 {
        for v in 0..3 {
            platform.set_bandwidth(u, v, 0.0);
        }
    }
    for model in [CommModel::Overlap, CommModel::Strict] {
        let truth = enumerate::optimum(&pipeline, &platform, model).unwrap();
        assert!(truth.best.is_none());
        assert_eq!(truth.evaluated, 0);
        assert_eq!(truth.infeasible, truth.leaves);
        for threads in [1, 2, 4] {
            let opts = ExactOptions { model, threads, ..ExactOptions::default() };
            let res = solve(&pipeline, &platform, &opts).unwrap();
            assert!(res.best.is_none(), "model {model:?} threads {threads}");
            assert_eq!(res.stats.evaluated, 0, "dead links must be pruned, not evaluated");
        }
    }
}

/// Satellite 4: a strict-model candidate above the TPN cap must abort
/// with the typed error — never fall back to the simulator's estimate
/// (which `repwf_map::evaluate_with` would happily return).
#[test]
fn over_cap_strict_candidate_is_a_typed_refusal() {
    let pipeline = Pipeline::new(vec![2.0, 9.0], vec![0.5]).unwrap();
    let platform = Platform::uniform(4, 1.0, 10.0);
    let opts =
        ExactOptions { model: CommModel::Strict, max_transitions: 2, ..ExactOptions::default() };
    let err = solve(&pipeline, &platform, &opts).unwrap_err();
    match &err {
        ExactError::CandidateTooLarge { mapping, .. } => {
            assert!(!mapping.is_one_to_one(), "one-to-one solves bypass the TPN entirely");
        }
        other => panic!("expected CandidateTooLarge, got {other:?}"),
    }
    // The same search with a real cap succeeds — the refusal above was
    // about the cap, not the instance.
    let ok = solve(
        &pipeline,
        &platform,
        &ExactOptions { model: CommModel::Strict, ..ExactOptions::default() },
    )
    .unwrap();
    assert!(ok.best.is_some());
}
