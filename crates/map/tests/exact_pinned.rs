//! Pins the uncertified exact search on the paper's Example A: with no
//! initial bound, the branch-and-bound optimum, every `ExactStats`
//! counter and the size of the ordered-assignment space are fixed values,
//! identical at 1, 2 and 4 workers.
//!
//! The counters are pure functions of the statically-numbered subtree
//! tasks, so any change to the bound, the enumeration order, the leaf
//! evaluation or the caches that leaks into the search shows up here as a
//! counter drift, even when the optimum itself survives.

use repwf_core::fixtures::example_a;
use repwf_core::model::CommModel;
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
