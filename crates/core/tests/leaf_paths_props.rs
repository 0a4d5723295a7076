//! Property tests of the two cheap leaf-evaluation paths a mapping search
//! relies on:
//!
//! * **Theorem 1 through a reused scratch.** The engine's polynomial
//!   method folds the column walk over one pattern graph and one
//!   structure-cached workspace, keeping only the maximum. Its report
//!   must equal the one assembled from [`overlap_period_view`], which
//!   materializes every column: period bits, and the critical column by
//!   `Iterator::max_by`'s last-maximum rule. Uniform platforms, where
//!   many columns tie, are included on purpose.
//! * **Per-shape patch slots.** A [`MappingOracle`] walk made only of
//!   add/remove-replica moves changes the TPN shape at every step, so it
//!   can patch only by swapping a parked arena back in. Every step must
//!   stay bit-identical to a cold rebuild, the walk must patch when it
//!   revisits a shape, and the CSR builds and Tarjan runs must add up
//!   over every arena used, evicted ones included.
//! * **Session caches together.** A [`MappingOracle`] walk mixing add,
//!   remove, shift and swap moves on chains and SP DAGs, alternating the
//!   two models and the `Auto`/`Polynomial`/`FullTpn` methods, with
//!   occasional [`MappingOracle::reset_patch_state`] calls. The `M_ct`
//!   cache, the parked shape arenas, the per-edge column cache and the
//!   pattern slots are all live; every report must equal a fresh engine's
//!   on an owned [`Instance`].
//! * **Period-only evaluation.** [`MappingOracle::period`] runs the solve
//!   of [`MappingOracle::compute`] without the report around it. Two
//!   oracles fed the same candidates — one-to-one mappings, mappings on a
//!   dead link or processor, mappings naming a missing processor, strict
//!   nets above the transition cap, every method under both models — must
//!   agree bit for bit, errors included. The period-only oracle evaluates
//!   `M_ct` only for one-to-one candidates under `Auto`, so its `M_ct`
//!   cache skips most calls; its one-to-one periods must still equal a
//!   cold oracle's `M_ct`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use repwf_core::engine::{MappingOracle, PeriodEngine};
use repwf_core::model::{CommModel, Instance, Mapping, Pipeline, Platform};
use repwf_core::overlap_poly::{overlap_period_view, Bottleneck};
use repwf_core::period::Method;
use repwf_core::tpn_build::BuildOptions;
use repwf_obs::counted;
use repwf_obs::CounterId::{CsrBuilds, TarjanRuns};

/// Precedence graphs: chains and series-parallel DAGs (stage ids in
/// topological order, one source, one sink).
fn topology(k: usize) -> (usize, Vec<(usize, usize)>) {
    match k % 6 {
        0 => (2, vec![(0, 1)]),
        1 => (4, vec![(0, 1), (1, 2), (2, 3)]),
        2 => (4, vec![(0, 1), (0, 2), (1, 3), (2, 3)]),
        3 => (5, vec![(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
        4 => (7, vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)]),
        _ => (7, vec![(0, 1), (0, 5), (1, 2), (1, 3), (2, 4), (3, 4), (4, 6), (5, 6)]),
    }
}

/// A random instance on topology `k`. `uniform` draws equal works, equal
/// file sizes, unit speeds and unit bandwidths, so columns tie.
fn instance(seed: u64, k: usize, uniform: bool) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let (n, edges) = topology(k);
    let p = n + 1 + rng.gen_range(0..5usize);
    let mut draw = |lo: f64, hi: f64| if uniform { lo } else { lo + (hi - lo) * rng.gen::<f64>() };
    let works: Vec<f64> = (0..n).map(|_| draw(2.0, 8.0)).collect();
    let edges: Vec<(usize, usize, f64)> =
        edges.into_iter().map(|(a, b)| (a, b, draw(1.0, 4.0))).collect();
    let pipeline = Pipeline::from_edges(works, edges).unwrap();
    let mut platform = Platform::uniform(p, 1.0, 1.0);
    if !uniform {
        for u in 0..p {
            platform.set_speed(u, 0.6 + rng.gen::<f64>());
            for v in 0..p {
                platform.set_bandwidth(u, v, 0.4 + rng.gen::<f64>());
            }
        }
    }
    // Every stage gets one processor, the rest are sprinkled (some may
    // stay unused); processor order is shuffled.
    let mut procs: Vec<usize> = (0..p).collect();
    for i in (1..p).rev() {
        procs.swap(i, rng.gen_range(0..=i));
    }
    let mut assignment: Vec<Vec<usize>> = procs[..n].iter().map(|&u| vec![u]).collect();
    for &u in &procs[n..] {
        if rng.gen_range(0..4) > 0 {
            assignment[rng.gen_range(0..n)].push(u);
        }
    }
    Instance::new(pipeline, platform, Mapping::new(assignment).unwrap()).unwrap()
}

/// The engine's critical-column description of a walked bottleneck.
fn critical(b: &Bottleneck) -> String {
    match b {
        Bottleneck::Computation { stage, proc } => format!("computation S{stage} on P{proc}"),
        Bottleneck::Communication { file, residue, .. } => {
            format!("transfer of F{file}, component {residue}")
        }
    }
}

/// One engine, reused across a run of instances (its pattern scratch and
/// structure cache carry over), against the column-materializing walk.
/// Returns how many instances had tied critical columns.
fn check_overlap(seed: u64, uniform: bool) -> usize {
    let mut ties = 0;
    let mut engine = PeriodEngine::new();
    for k in 0..12 {
        let inst = instance(seed.wrapping_mul(31).wrapping_add(k as u64), k, uniform);
        let view = inst.view();
        let analysis = overlap_period_view(view);
        let report = engine.compute_view(view, CommModel::Overlap, Method::Polynomial).unwrap();
        assert_eq!(
            report.period.to_bits(),
            analysis.period.to_bits(),
            "seed {seed} topology {k}: engine {} vs walk {}",
            report.period,
            analysis.period
        );
        assert_eq!(report.critical, critical(&analysis.bottleneck), "seed {seed} topology {k}");
        let critical_columns =
            analysis.columns.iter().filter(|c| c.period == analysis.period).count();
        ties += usize::from(critical_columns > 1);
    }
    ties
}

#[test]
fn uniform_platforms_tie_and_the_engine_keeps_the_last_maximum() {
    let ties: usize = (0..16).map(|seed| check_overlap(seed, true)).sum();
    assert!(ties > 0, "no uniform instance tied: the last-maximum rule went untested");
}

/// Add/remove-replica moves only: every step changes the TPN shape.
fn shape_walk(model: CommModel, seed: u64, moves: usize) -> (u64, u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 2 + (seed as usize % 2);
    let p = n + 3 + (seed as usize % 3);
    let pipeline = Pipeline::new(
        (0..n).map(|_| 2.0 + 6.0 * rng.gen::<f64>()).collect(),
        (0..n - 1).map(|_| 1.0 + 3.0 * rng.gen::<f64>()).collect(),
    )
    .unwrap();
    let mut platform = Platform::uniform(p, 1.0, 1.0);
    for u in 0..p {
        platform.set_speed(u, 0.6 + rng.gen::<f64>());
        for v in 0..p {
            platform.set_bandwidth(u, v, 0.4 + rng.gen::<f64>());
        }
    }
    let mut assignment: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let mut oracle = MappingOracle::new(&pipeline, &platform).warm_start(true);
    let (mut csr_builds, mut tarjan_runs) = (0, 0);
    for step in 0..moves {
        let used: Vec<usize> = assignment.iter().flatten().copied().collect();
        let unused: Vec<usize> = (0..p).filter(|u| !used.contains(u)).collect();
        let shrinkable: Vec<usize> = (0..n).filter(|&i| assignment[i].len() > 1).collect();
        // p > n, so some processor is unused or some stage is replicated.
        if !unused.is_empty() && (shrinkable.is_empty() || rng.gen::<bool>()) {
            let i = rng.gen_range(0..n);
            assignment[i].push(unused[rng.gen_range(0..unused.len())]);
        } else {
            let i = shrinkable[rng.gen_range(0..shrinkable.len())];
            let k = rng.gen_range(0..assignment[i].len());
            assignment[i].remove(k);
        }
        let mapping = Mapping::new(assignment.clone()).unwrap();
        let (got, c) = counted(|| oracle.compute(&mapping, model, Method::FullTpn).unwrap());
        (csr_builds, tarjan_runs) = (csr_builds + c[CsrBuilds], tarjan_runs + c[TarjanRuns]);
        let inst = Instance::new(pipeline.clone(), platform.clone(), mapping).unwrap();
        let cold = PeriodEngine::new().compute(&inst, model, Method::FullTpn).unwrap();
        assert_eq!(got.period.to_bits(), cold.period.to_bits(), "{model} seed {seed} step {step}");
        assert_eq!(got.mct.to_bits(), cold.mct.to_bits(), "{model} seed {seed} step {step}");
        assert_eq!(got.critical, cold.critical, "{model} seed {seed} step {step}");
    }
    (oracle.into_engine().patched_solves(), csr_builds, tarjan_runs)
}

#[test]
fn add_remove_walks_patch_on_revisits_and_count_every_arena() {
    for model in [CommModel::Overlap, CommModel::Strict] {
        for seed in 0..4 {
            let moves = 120;
            let (patched, csr, tarjan) = shape_walk(model, seed, moves);
            // Every move changes a replica count, so each patch came from
            // a parked arena; a 120-move walk on at most 8 processors
            // revisits shapes many times.
            assert!(patched > 0, "{model} seed {seed}: revisited shapes never patched");
            assert_eq!(csr, moves as u64 - patched, "{model} seed {seed}: CSR builds");
            assert_eq!(tarjan, moves as u64 - patched, "{model} seed {seed}: Tarjan runs");
        }
    }
}

/// One random move on `assignment` in place: add an unused processor,
/// remove a replica, shift a replica to another stage, or swap two slots
/// (possibly within one stage, which reorders its round robin).
fn session_move(assignment: &mut [Vec<usize>], p: usize, rng: &mut StdRng) {
    let n = assignment.len();
    let used: Vec<usize> = assignment.iter().flatten().copied().collect();
    let unused: Vec<usize> = (0..p).filter(|u| !used.contains(u)).collect();
    let shrinkable: Vec<usize> = (0..n).filter(|&i| assignment[i].len() > 1).collect();
    match rng.gen_range(0..4) {
        0 if !unused.is_empty() => {
            let i = rng.gen_range(0..n);
            let slot = rng.gen_range(0..=assignment[i].len());
            assignment[i].insert(slot, unused[rng.gen_range(0..unused.len())]);
        }
        1 if !shrinkable.is_empty() => {
            let i = shrinkable[rng.gen_range(0..shrinkable.len())];
            let k = rng.gen_range(0..assignment[i].len());
            assignment[i].remove(k);
        }
        2 if !shrinkable.is_empty() => {
            let i = shrinkable[rng.gen_range(0..shrinkable.len())];
            let u = assignment[i].remove(rng.gen_range(0..assignment[i].len()));
            let j = rng.gen_range(0..n);
            let slot = rng.gen_range(0..=assignment[j].len());
            assignment[j].insert(slot, u);
        }
        _ => {
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let (si, sj) =
                (rng.gen_range(0..assignment[i].len()), rng.gen_range(0..assignment[j].len()));
            let (a, b) = (assignment[i][si], assignment[j][sj]);
            assignment[i][si] = b;
            assignment[j][sj] = a;
        }
    }
}

/// A session walk on topology `k` (see the module docs). Uniform
/// platforms tie columns on purpose; their oracle runs cold, since a warm
/// start may report the other member of an eps-level tie.
fn session_walk(seed: u64, k: usize, uniform: bool, steps: usize) {
    let inst = instance(seed, k, uniform);
    let (pipeline, platform) = (&inst.pipeline, &inst.platform);
    let p = platform.num_procs();
    let mut rng = StdRng::seed_from_u64(!seed);
    let mut assignment = inst.mapping.assignment().to_vec();
    let mut oracle = MappingOracle::new(pipeline, platform).warm_start(!uniform);
    use CommModel::{Overlap, Strict};
    for step in 0..steps {
        session_move(&mut assignment, p, &mut rng);
        if rng.gen_range(0..12) == 0 {
            oracle.reset_patch_state();
        }
        let mapping = Mapping::new(assignment.clone()).unwrap();
        // The middle pattern puts a strict solve between two overlap solves
        // of the same tuples.
        let calls: &[(CommModel, Method)] = match step % 3 {
            0 => &[(Overlap, Method::Auto)],
            1 => &[
                (Overlap, Method::Polynomial),
                (Strict, Method::Auto),
                (Overlap, Method::Polynomial),
            ],
            _ => &[(Strict, Method::FullTpn), (Overlap, Method::Auto)],
        };
        let owned = Instance::new(pipeline.clone(), platform.clone(), mapping.clone()).unwrap();
        for &(model, method) in calls {
            let got = oracle.compute(&mapping, model, method).unwrap();
            let fresh = PeriodEngine::new().compute(&owned, model, method).unwrap();
            let at = format!("seed {seed} topology {k} step {step} {model} {method}");
            assert_eq!(got.period.to_bits(), fresh.period.to_bits(), "{at}");
            assert_eq!(got.mct.to_bits(), fresh.mct.to_bits(), "{at}");
            assert_eq!(got.critical, fresh.critical, "{at}");
        }
    }
}

#[test]
fn session_walks_match_fresh_engines_on_every_topology() {
    for k in 0..6 {
        for uniform in [false, true] {
            session_walk(k as u64 * 7 + u64::from(uniform), k, uniform, 60);
        }
    }
}

/// A period-only walk on topology `k` (see the module docs): `by_period`
/// only ever calls [`MappingOracle::period`], `by_report` makes the same
/// solves through [`MappingOracle::compute`], so their warm starts,
/// parked arenas and column caches stay in step. Returns how many
/// feasible one-to-one periods were checked against a cold oracle.
fn period_only_walk(seed: u64, k: usize, steps: usize) -> usize {
    let inst = instance(seed, k, false);
    let pipeline = &inst.pipeline;
    let mut platform = inst.platform.clone();
    let p = platform.num_procs();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    platform.set_bandwidth(rng.gen_range(0..p), rng.gen_range(0..p), 0.0);
    if seed % 2 == 1 {
        platform.set_speed(rng.gen_range(0..p), 0.0);
    }
    let platform = &platform;
    // Small enough that some replicated strict (and full-TPN overlap)
    // candidates exceed it.
    let build = BuildOptions { labels: false, max_transitions: 40 };
    let oracle = || {
        let engine = PeriodEngine::with_options(build.clone()).warm_start(true);
        MappingOracle::with_engine(pipeline, platform, engine)
    };
    let (mut by_period, mut by_report) = (oracle(), oracle());
    let mut assignment = inst.mapping.assignment().to_vec();
    let mut one_to_one = 0;
    for step in 0..steps {
        session_move(&mut assignment, p, &mut rng);
        let candidate = match rng.gen_range(0..6) {
            0 => assignment.iter().map(|t| vec![t[0]]).collect(),
            1 => {
                let mut missing = assignment.clone();
                let i = rng.gen_range(0..missing.len());
                missing[i].push(p);
                missing
            }
            _ => assignment.clone(),
        };
        let mapping = Mapping::new(candidate).unwrap();
        for model in [CommModel::Overlap, CommModel::Strict] {
            for method in [Method::Auto, Method::Polynomial, Method::FullTpn] {
                let at = format!("seed {seed} topology {k} step {step} {model} {method}");
                let got = by_period.period(&mapping, model, method);
                let want = by_report.compute(&mapping, model, method).map(|r| r.period);
                match (got, want) {
                    (Ok(a), Ok(b)) => assert_eq!(a.to_bits(), b.to_bits(), "{at}"),
                    (a, b) => assert_eq!(a, b, "{at}"),
                }
            }
            if mapping.is_one_to_one() {
                let got = by_period.period(&mapping, model, Method::Auto);
                let cold =
                    MappingOracle::new(pipeline, platform).compute(&mapping, model, Method::Auto);
                if let (Ok(got), Ok(cold)) = (&got, &cold) {
                    assert_eq!(
                        got.to_bits(),
                        cold.mct.to_bits(),
                        "seed {seed} step {step} {model}"
                    );
                    one_to_one += 1;
                } else {
                    assert_eq!(got.err(), cold.err(), "seed {seed} step {step} {model}");
                }
                // Keep the two oracles' solve sequences in step.
                let _ = by_report.period(&mapping, model, Method::Auto);
            }
        }
    }
    one_to_one
}

#[test]
fn period_only_walks_match_reports_on_every_topology() {
    let one_to_one: usize = (0..6).map(|k| period_only_walk(k as u64 * 11 + 3, k, 60)).sum();
    assert!(one_to_one >= 12, "only {one_to_one} feasible one-to-one candidates");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn period_only_walks_are_bit_identical_to_reports(seed in 0u64..4096, k in 0usize..6) {
        period_only_walk(seed, k, 24);
    }

    #[test]
    fn engine_overlap_report_equals_the_materialized_walk(seed in 0u64..4096, uniform in 0u8..2) {
        check_overlap(seed, uniform == 1);
    }

    #[test]
    fn session_walks_are_bit_identical_to_fresh_engines(seed in 0u64..4096, k in 0usize..6, uniform in 0u8..2) {
        session_walk(seed, k, uniform == 1, 24);
    }

    #[test]
    fn add_remove_walks_are_bit_identical_to_cold_rebuilds(seed in 0u64..1024, strict in 0u8..2) {
        let model = if strict == 1 { CommModel::Strict } else { CommModel::Overlap };
        shape_walk(model, seed, 16);
    }
}
