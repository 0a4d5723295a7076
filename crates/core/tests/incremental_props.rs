//! Property tests of the incremental mapping oracle: a warm, patch-enabled
//! engine fed a random walk of neighbor mappings must agree **bit for
//! bit** with a cold engine that rebuilds the TPN from scratch at every
//! step — for both communication models, across shape-preserving moves
//! (swaps: the patch path) and shape-changing moves (add/remove/shift: the
//! rebuild fallback), interleaved arbitrarily. The comparison covers the
//! period, the incremental `M_ct` (the oracle's `MctCache` vs. the cold
//! engine's full rescan) and the critical-resource description, and the
//! `repwf-obs` counters pin that every patched solve was structurally
//! free: zero CSR builds, zero Tarjan runs.
//!
//! "Bit for bit" is exact: the patched TPN and re-weighted cycle-ratio
//! graph are required to be indistinguishable from freshly built ones, and
//! warm starts recompute the reported ratio exactly from the witness
//! circuit (costs here are generic random values, so critical circuits are
//! unique and eps-ties do not arise).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use repwf_core::engine::{MappingOracle, PeriodEngine};
use repwf_core::model::{CommModel, Instance, Mapping, Pipeline, Platform};
use repwf_core::period::Method;
use repwf_obs::counted;
use repwf_obs::CounterId::{CsrBuilds, TarjanRuns};

/// A deterministic heterogeneous platform: every speed and bandwidth is a
/// distinct "generic" value, so no two circuits tie.
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

/// Applies one random neighbor move in place: mostly swaps (the patch
/// path), sometimes a shift/add/remove (shape change → rebuild fallback).
fn random_move(assignment: &mut [Vec<usize>], p: usize, rng: &mut StdRng) {
    let n = assignment.len();
    let used: Vec<usize> = assignment.iter().flatten().copied().collect();
    let unused: Vec<usize> = (0..p).filter(|u| !used.contains(u)).collect();
    match rng.gen_range(0..10) {
        // shift a replica between stages
        0 => {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            if i != j && assignment[i].len() > 1 {
                let k = rng.gen_range(0..assignment[i].len());
                let u = assignment[i].remove(k);
                assignment[j].push(u);
            }
        }
        // add an unused processor
        1 => {
            if let Some(&u) = unused.first() {
                assignment[rng.gen_range(0..n)].push(u);
            }
        }
        // remove a replica
        2 => {
            let i = rng.gen_range(0..n);
            if assignment[i].len() > 1 {
                let k = rng.gen_range(0..assignment[i].len());
                assignment[i].remove(k);
            }
        }
        // swap two slots (shape-preserving: the patch path)
        _ => {
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
    }
}

/// Runs a `moves`-step walk and checks every step bitwise against a cold
/// rebuild. Returns the number of patched solves the incremental engine
/// reported (so callers can assert the patch path was truly exercised).
fn check_walk(model: CommModel, seed: u64, moves: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 2 + (seed as usize % 2); // 2 or 3 stages
    let p = n + 3 + (seed as usize % 3);
    let pipeline = Pipeline::new(
        (0..n).map(|_| 2.0 + 6.0 * rng.gen::<f64>()).collect(),
        (0..n - 1).map(|_| 1.0 + 3.0 * rng.gen::<f64>()).collect(),
    )
    .unwrap();
    let platform = platform(p, &mut rng);
    // Base assignment: stage i starts with one replica, the rest sprinkled.
    let mut assignment: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    for u in n..p {
        assignment[rng.gen_range(0..n)].push(u);
    }

    let mut oracle = MappingOracle::new(&pipeline, &platform).warm_start(true);
    // CSR builds and Tarjan runs of the incremental solves.
    let (mut csr_builds, mut tarjan_runs) = (0, 0);
    for step in 0..moves {
        random_move(&mut assignment, p, &mut rng);
        let mapping = Mapping::new(assignment.clone()).expect("moves preserve validity");
        let (incremental, c) = counted(|| {
            oracle
                .compute(&mapping, model, Method::FullTpn)
                .expect("walk instances stay under the size cap")
        });
        csr_builds += c[CsrBuilds];
        tarjan_runs += c[TarjanRuns];
        let inst =
            Instance::new(pipeline.clone(), platform.clone(), mapping).expect("valid triple");
        let cold = PeriodEngine::new()
            .compute(&inst, model, Method::FullTpn)
            .expect("cold solve succeeds");
        assert_eq!(
            incremental.period.to_bits(),
            cold.period.to_bits(),
            "{model} seed {seed} step {step}: incremental {} vs cold {}",
            incremental.period,
            cold.period
        );
        assert_eq!(incremental.mct.to_bits(), cold.mct.to_bits());
        assert_eq!(incremental.num_paths, cold.num_paths);
        assert_eq!(incremental.critical, cold.critical, "{model} seed {seed} step {step}");
    }
    assert_eq!(oracle.mct_cache().evals(), moves as u64);
    let engine = oracle.into_engine();
    let patched = engine.patched_solves();
    assert!(patched > 0, "{model} seed {seed}: walk never exercised the patch path");
    // Every solve is a full-TPN solve; rebuild solves condense exactly
    // once, patched solves must not touch the structure at all.
    assert_eq!(
        csr_builds,
        moves as u64 - patched,
        "{model} seed {seed}: a patched solve built a CSR"
    );
    assert_eq!(
        tarjan_runs,
        moves as u64 - patched,
        "{model} seed {seed}: a patched solve ran Tarjan"
    );
    patched
}

/// ~1k-move deterministic walk per model (the satellite's headline check).
#[test]
fn thousand_move_walk_is_bit_identical_to_cold_rebuilds() {
    for model in [CommModel::Overlap, CommModel::Strict] {
        let mut patched = 0;
        for seed in 0..4 {
            patched += check_walk(model, seed, 250);
        }
        // Swaps dominate the move mix: most of the 1000 steps must patch.
        assert!(patched >= 500, "{model}: only {patched} patched solves in 1000 moves");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_walks_are_bit_identical_to_cold_rebuilds(seed in 0u64..1024, strict in 0u8..2) {
        let model = if strict == 1 { CommModel::Strict } else { CommModel::Overlap };
        check_walk(model, seed, 12);
    }
}
