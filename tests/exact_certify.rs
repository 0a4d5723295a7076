//! Certification regressions: the optimality gap `repwf map --certify`
//! reports — heuristic period vs. branch-and-bound optimum, **both
//! re-evaluated exactly** (never a simulator estimate) — pinned on the
//! paper's Example A and two Table 2-family instances.
//!
//! The gap is a derived quantity of two deterministic searches, so it is
//! reproducible to the bit; the assertions below pin it exactly. Two
//! invariants hold everywhere:
//!
//! * the gap is **never negative** — the exact search covers the same
//!   ordered-assignment space the heuristics move in, so a heuristic
//!   can never beat the certified optimum;
//! * on the quickstart instance annealing finds the optimum, so the gap
//!   is exactly zero.

use rand::rngs::StdRng;
use rand::SeedableRng;
use repwf_core::engine::MappingOracle;
use repwf_core::fixtures::example_a;
use repwf_core::model::{CommModel, Pipeline, Platform};
use repwf_core::period::Method;
use repwf_gen::sampler::sample_parts;
use repwf_gen::{GenConfig, Range};
use repwf_map::annealing::{anneal, AnnealOptions};
use repwf_map::exact::{solve, ExactOptions};
use repwf_map::{optimize, SearchOptions};

/// The `repwf map --certify` flow as a library call: heuristic (multi-
/// start local search + annealing), exact re-evaluation of its mapping,
/// branch-and-bound seeded with that bound, gap of exact periods.
fn certify(pipeline: &Pipeline, platform: &Platform, model: CommModel) -> (f64, f64) {
    let search = SearchOptions { model, ..SearchOptions::default() };
    let base = optimize(pipeline, platform, &search);
    let ann = AnnealOptions { model, ..AnnealOptions::default() };
    let refined = anneal(pipeline, platform, base.mapping.clone(), &ann);
    let heuristic = if refined.period < base.period { refined } else { base };

    let mut oracle = MappingOracle::new(pipeline, platform);
    let h_exact = oracle
        .compute(&heuristic.mapping, model, Method::Auto)
        .expect("heuristic mapping must re-evaluate exactly")
        .period;

    let opts = ExactOptions { model, initial_bound: Some(h_exact), ..ExactOptions::default() };
    let res = solve(pipeline, platform, &opts).expect("exact solve succeeds");
    let (_, optimum) = res.best.expect("a feasible heuristic implies a feasible optimum");
    ((h_exact - optimum) / optimum, optimum)
}

#[test]
fn example_a_certifies_with_zero_gap_under_both_models() {
    let inst = example_a();
    for model in [CommModel::Overlap, CommModel::Strict] {
        let (gap, optimum) = certify(&inst.pipeline, &inst.platform, model);
        assert!(gap >= 0.0, "negative gap under {model:?}");
        assert_eq!(gap.to_bits(), 0.0f64.to_bits(), "gap regressed under {model:?}: {gap}");
        let expected: f64 = if model == CommModel::Overlap { 67.0 } else { 68.0 };
        assert_eq!(optimum.to_bits(), expected.to_bits(), "optimum moved under {model:?}");
    }
}

#[test]
fn quickstart_anneal_finds_the_optimum_gap_is_exactly_zero() {
    let pipeline = Pipeline::new(vec![2.0, 9.0], vec![0.001]).unwrap();
    let platform = Platform::uniform(4, 1.0, 1000.0);
    let (gap, optimum) = certify(&pipeline, &platform, CommModel::Overlap);
    assert_eq!(gap.to_bits(), 0.0f64.to_bits(), "gap: {gap}");
    assert!((optimum - 3.0).abs() < 1e-9);
}

/// Two Table 2-family instances (the paper's experiment distributions,
/// scaled to exact-tractable size): family 1's heterogeneous
/// communicating pipelines and family 5's constant-computation shape.
#[test]
fn table2_family_instances_certify_with_pinned_gaps() {
    let families = [
        (
            GenConfig {
                stages: 3,
                procs: 5,
                comp: Range::new(5.0, 15.0),
                comm: Range::new(5.0, 15.0),
            },
            11u64,
        ),
        (
            GenConfig {
                stages: 2,
                procs: 5,
                comp: Range::constant(1.0),
                comm: Range::new(5.0, 10.0),
            },
            42u64,
        ),
    ];
    for (model, (cfg, seed)) in [CommModel::Overlap, CommModel::Strict].into_iter().zip(families) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (pipeline, platform, _mapping) = sample_parts(&cfg, &mut rng);
        let (gap, optimum) = certify(&pipeline, &platform, model);
        assert!(gap >= 0.0, "negative gap under {model:?}");
        assert!(optimum.is_finite() && optimum > 0.0);
        assert_eq!(gap.to_bits(), 0.0f64.to_bits(), "gap regressed under {model:?}: {gap}");
    }
}
