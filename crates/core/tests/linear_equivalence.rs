//! The tentpole's non-negotiable invariant, property-tested: on a
//! **linear** workflow, the series-parallel generalization must be
//! invisible. A chain built through the general [`Pipeline::from_edges`]
//! constructor and the same chain built through the legacy
//! [`Pipeline::new`] constructor must be indistinguishable — as values,
//! and through every downstream number: periods, incremental `M_ct`,
//! critical-resource descriptions, and the engine's patched solves and
//! the CSR builds / Tarjan runs along a warm neighbor walk, under both
//! communication models. "Identical" means bit-identical, not
//! approximately equal.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use repwf_core::engine::{MappingOracle, PeriodEngine};
use repwf_core::model::{CommModel, Instance, Mapping, Pipeline, Platform};
use repwf_core::period::Method;
use repwf_obs::counted;
use repwf_obs::CounterId::{CsrBuilds, TarjanRuns};

/// A deterministic heterogeneous platform with generic values (no ties).
fn platform(p: usize, rng: &mut StdRng) -> Platform {
    let mut platform = Platform::uniform(p, 1.0, 1.0);
    for u in 0..p {
        platform.set_speed(u, 0.6 + rng.gen::<f64>());
        for v in 0..p {
            platform.set_bandwidth(u, v, 0.4 + rng.gen::<f64>());
        }
    }
    platform
}

/// Shape-preserving swap between two random stages (the patch path).
fn random_swap(assignment: &mut [Vec<usize>], rng: &mut StdRng) {
    let n = assignment.len();
    let i = rng.gen_range(0..n);
    let j = rng.gen_range(0..n);
    if i != j {
        let ki = rng.gen_range(0..assignment[i].len());
        let kj = rng.gen_range(0..assignment[j].len());
        let (a, b) = (assignment[i][ki], assignment[j][kj]);
        assignment[i][ki] = b;
        assignment[j][kj] = a;
    }
}

/// Builds a random chain both ways and drives both oracles through the
/// identical mapping walk, asserting bit-identity at every step.
fn check_chain(model: CommModel, seed: u64, moves: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 2 + (seed as usize % 3); // 2..=4 stages
    let p = n + 3 + (seed as usize % 3);
    let works: Vec<f64> = (0..n).map(|_| 2.0 + 6.0 * rng.gen::<f64>()).collect();
    let files: Vec<f64> = (0..n - 1).map(|_| 1.0 + 3.0 * rng.gen::<f64>()).collect();

    let legacy = Pipeline::new(works.clone(), files.clone()).unwrap();
    let edges: Vec<(usize, usize, f64)> =
        files.iter().enumerate().map(|(k, &size)| (k, k + 1, size)).collect();
    let general = Pipeline::from_edges(works, edges).unwrap();

    // The values themselves are indistinguishable.
    assert_eq!(legacy, general, "seed {seed}: constructors disagree on the chain");
    assert!(general.is_linear());

    let platform = platform(p, &mut rng);
    let mut assignment: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    for u in n..p {
        assignment[rng.gen_range(0..n)].push(u);
    }

    let mut oracle_legacy = MappingOracle::new(&legacy, &platform).warm_start(true);
    let mut oracle_general = MappingOracle::new(&general, &platform).warm_start(true);
    // (CSR builds, Tarjan runs) of each oracle's solves.
    let (mut work_a, mut work_b) = ((0, 0), (0, 0));
    for step in 0..moves {
        random_swap(&mut assignment, &mut rng);
        let mapping = Mapping::new(assignment.clone()).expect("swaps preserve validity");
        let (a, c) = counted(|| oracle_legacy.compute(&mapping, model, Method::FullTpn).unwrap());
        work_a = (work_a.0 + c[CsrBuilds], work_a.1 + c[TarjanRuns]);
        let (b, c) = counted(|| oracle_general.compute(&mapping, model, Method::FullTpn).unwrap());
        work_b = (work_b.0 + c[CsrBuilds], work_b.1 + c[TarjanRuns]);
        assert_eq!(
            a.period.to_bits(),
            b.period.to_bits(),
            "{model} seed {seed} step {step}: legacy {} vs general {}",
            a.period,
            b.period
        );
        assert_eq!(a.mct.to_bits(), b.mct.to_bits(), "{model} seed {seed} step {step}");
        assert_eq!(a.num_paths, b.num_paths);
        assert_eq!(a.critical, b.critical, "{model} seed {seed} step {step}");

        // The simple-path periods must agree too (auto routing included).
        let inst_a = Instance::new(legacy.clone(), platform.clone(), mapping.clone()).unwrap();
        let inst_b = Instance::new(general.clone(), platform.clone(), mapping).unwrap();
        let pa = PeriodEngine::new().compute(&inst_a, model, Method::Auto).unwrap();
        let pb = PeriodEngine::new().compute(&inst_b, model, Method::Auto).unwrap();
        assert_eq!(pa.period.to_bits(), pb.period.to_bits());
        assert_eq!(pa.method, pb.method, "auto must route both chains identically");
    }

    // The engines took the exact same patch/rebuild decisions: the general
    // chain must not cost a single extra CSR build or Tarjan run.
    let (ea, eb) = (oracle_legacy.into_engine(), oracle_general.into_engine());
    assert!(ea.patched_solves() > 0, "{model} seed {seed}: walk never patched");
    assert_eq!(ea.patched_solves(), eb.patched_solves(), "{model} seed {seed}");
    assert_eq!(work_a, work_b, "{model} seed {seed}");
}

#[test]
fn chain_walks_are_bit_identical_across_constructors() {
    for model in [CommModel::Overlap, CommModel::Strict] {
        for seed in 0..4 {
            check_chain(model, seed, 24);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_chains_are_bit_identical_across_constructors(seed in 0u64..1024, strict in 0u8..2) {
        let model = if strict == 1 { CommModel::Strict } else { CommModel::Overlap };
        check_chain(model, seed, 8);
    }
}
