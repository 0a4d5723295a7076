//! Pins the uncertified exact search on the paper's Example A and on the
//! fork/join fixture `ci/forkjoin.json`: with no initial bound, the
//! branch-and-bound optimum, every `ExactStats` counter and the size of
//! the ordered-assignment space are fixed values, identical at any
//! worker count.
//!
//! The counters are pure functions of the statically-numbered subtree
//! tasks, so any change to the bound, the enumeration order, the leaf
//! evaluation or the caches that leaks into the search shows up here as a
//! counter drift, even when the optimum itself survives.

use repwf_core::fixtures::example_a;
use repwf_core::model::{CommModel, Pipeline, Platform};
use repwf_map::exact::{solve, ExactOptions, ExactStats};

/// (model, optimum, counters) of Example A without an initial bound.
const PINNED: [(CommModel, f64, ExactStats); 2] = [
    (
        CommModel::Strict,
        68.0,
        ExactStats { tasks: 28, nodes: 79_852, pruned: 43_983, evaluated: 20_443, infeasible: 0 },
    ),
    (
        CommModel::Overlap,
        67.0,
        ExactStats { tasks: 28, nodes: 129_325, pruned: 62_015, evaluated: 38_175, infeasible: 0 },
    ),
];

/// Leaves of Example A's ordered replica-assignment space.
const SPACE: u128 = 162_120;

#[test]
fn example_a_optima_and_counters_are_pinned_at_every_thread_count() {
    let inst = example_a();
    for (model, optimum, stats) in PINNED {
        for threads in [1, 2, 4] {
            let opts = ExactOptions { model, threads, ..ExactOptions::default() };
            let res = solve(&inst.pipeline, &inst.platform, &opts).expect("exact solve succeeds");
            let (_, period) = res.best.expect("Example A has feasible mappings");
            assert_eq!(period.to_bits(), optimum.to_bits(), "{model} at {threads} threads");
            assert_eq!(res.stats, stats, "{model} at {threads} threads");
            assert_eq!(res.space, Some(SPACE), "{model} at {threads} threads");
        }
    }
}

/// The fork/join fixture `ci/forkjoin.json`: split stage 0 feeds stages
/// 1 and 2, which both feed the merge stage 3, on six processors.
fn forkjoin_fixture() -> (Pipeline, Platform) {
    let edges = vec![(0, 1, 2.0), (0, 2, 3.0), (1, 3, 1.0), (2, 3, 2.0)];
    let pipeline = Pipeline::from_edges(vec![4.0, 6.0, 5.0, 3.0], edges).unwrap();
    let mut platform = Platform::uniform(6, 1.0, 2.0);
    for (u, s) in [1.0, 1.5, 1.5, 2.0, 2.0, 1.0].into_iter().enumerate() {
        platform.set_speed(u, s);
    }
    (pipeline, platform)
}

/// The fork/join fixture's optima, canonical mappings and counters. A
/// bound that handles only the chain's predecessor (and not every stage
/// with an edge into the stage being closed) keeps the optima but moves
/// these counters.
#[test]
fn forkjoin_fixture_optima_mappings_and_counters_are_pinned() {
    let (pipeline, platform) = forkjoin_fixture();
    let pinned = [
        (
            CommModel::Overlap,
            2.5,
            vec![vec![0, 5], vec![1, 2], vec![3], vec![4]],
            ExactStats { tasks: 18, nodes: 7_183, pruned: 1_448, evaluated: 3_231, infeasible: 0 },
        ),
        (
            CommModel::Strict,
            4.5,
            vec![vec![0, 5], vec![3], vec![1, 2], vec![4]],
            ExactStats { tasks: 18, nodes: 12_116, pruned: 2_987, evaluated: 4_342, infeasible: 0 },
        ),
    ];
    for (model, optimum, mapping, stats) in pinned {
        for threads in [1, 4] {
            let opts = ExactOptions { model, threads, ..ExactOptions::default() };
            let res = solve(&pipeline, &platform, &opts).expect("exact solve succeeds");
            let (best, period) = res.best.expect("the fixture has feasible mappings");
            assert_eq!(period.to_bits(), f64::to_bits(optimum), "{model} at {threads} threads");
            assert_eq!(best.assignment(), &mapping[..], "{model} at {threads} threads");
            assert_eq!(res.stats, stats, "{model} at {threads} threads");
            assert_eq!(res.space, Some(10_440), "{model} at {threads} threads");
        }
    }
}
