//! Property tests of the structural invariants:
//! the `M_ct` lower bound, the one-to-one fast path, time-scaling,
//! round-robin monotonicity facts, and the one strongly connected
//! component of a large strict TPN.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use repwf_core::model::{CommModel, Instance, Mapping, Pipeline, Platform};
use repwf_core::paths::num_paths;
use repwf_core::period::{compute_period, Method};
use repwf_core::tpn_build::{build_tpn, BuildOptions};
use repwf_gen::campaign::DEFAULT_CAMPAIGN_CAP;
use repwf_gen::sampler::sample_replica_counts;
use repwf_gen::{sample_instance, GenConfig, Range};

fn cfg_strategy() -> impl Strategy<Value = (GenConfig, u64)> {
    (2usize..5, 0usize..6, 1u64..10_000).prop_map(|(stages, extra, seed)| {
        (
            GenConfig {
                stages,
                procs: stages + extra,
                comp: Range::new(5.0, 15.0),
                comm: Range::new(5.0, 15.0),
            },
            seed,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn period_at_least_mct((cfg, seed) in cfg_strategy()) {
        let inst = sample_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        for model in [CommModel::Overlap, CommModel::Strict] {
            let r = compute_period(&inst, model, Method::Auto).unwrap();
            prop_assert!(r.period >= r.mct - 1e-9 * r.mct, "{model}: {} < {}", r.period, r.mct);
        }
    }

    #[test]
    fn one_to_one_period_equals_mct((cfg, seed) in cfg_strategy()) {
        // Force a one-to-one mapping by truncating each stage to 1 replica.
        let inst = sample_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        let assignment: Vec<Vec<usize>> =
            inst.mapping.assignment().iter().map(|procs| vec![procs[0]]).collect();
        let one = Instance::new(
            inst.pipeline.clone(),
            inst.platform.clone(),
            Mapping::new(assignment).unwrap(),
        ).unwrap();
        for model in [CommModel::Overlap, CommModel::Strict] {
            // §2 of the paper: without replication, P = M_ct. Check the full
            // TPN agrees with the closed form.
            let full = compute_period(&one, model, Method::FullTpn).unwrap();
            prop_assert!(
                (full.period - full.mct).abs() <= 1e-9 * full.mct,
                "{model}: {} vs {}",
                full.period, full.mct
            );
        }
    }

    #[test]
    fn scaling_all_times_scales_period((cfg, seed) in cfg_strategy(), alpha in 0.25f64..4.0) {
        let inst = sample_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        // Scale works and files by alpha: every op time scales by alpha.
        let works: Vec<f64> = inst.pipeline.works().iter().map(|w| w * alpha).collect();
        let files: Vec<f64> = inst.pipeline.file_sizes().iter().map(|f| f * alpha).collect();
        let scaled = Instance::new(
            Pipeline::new(works, files).unwrap(),
            inst.platform.clone(),
            inst.mapping.clone(),
        ).unwrap();
        let base = compute_period(&inst, CommModel::Overlap, Method::Polynomial).unwrap();
        let after = compute_period(&scaled, CommModel::Overlap, Method::Polynomial).unwrap();
        prop_assert!(
            (after.period - alpha * base.period).abs() <= 1e-9 * after.period.max(1.0),
            "alpha {alpha}: {} vs {}",
            after.period, alpha * base.period
        );
    }

    #[test]
    fn speeding_a_link_never_hurts((cfg, seed) in cfg_strategy()) {
        let inst = sample_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        if inst.num_stages() < 2 {
            return Ok(());
        }
        let u = inst.mapping.procs(0)[0];
        let v = inst.mapping.procs(1)[0];
        let mut faster = inst.platform.clone();
        faster.set_bandwidth(u, v, inst.platform.bandwidth(u, v) * 10.0);
        let quick = Instance::new(inst.pipeline.clone(), faster, inst.mapping.clone()).unwrap();
        let base = compute_period(&inst, CommModel::Overlap, Method::Polynomial).unwrap();
        let after = compute_period(&quick, CommModel::Overlap, Method::Polynomial).unwrap();
        prop_assert!(after.period <= base.period + 1e-9 * base.period);
    }
}

#[test]
fn homogeneous_uniform_replication_formula() {
    // Fully homogeneous platform, stage replicated k-fold, negligible
    // comms: period = w / (k · Π).
    for k in 1..6 {
        let pipeline = Pipeline::new(vec![60.0], vec![]).unwrap();
        let platform = Platform::uniform(k, 2.0, 1.0);
        let mapping = Mapping::new(vec![(0..k).collect()]).unwrap();
        let inst = Instance::new(pipeline, platform, mapping).unwrap();
        let r = compute_period(&inst, CommModel::Overlap, Method::Auto).unwrap();
        assert!((r.period - 30.0 / k as f64).abs() < 1e-9, "k={k}: {}", r.period);
    }
}

#[test]
fn deadlock_free_by_construction() {
    // Mapping TPNs are live: analysis never reports a deadlock.
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..40 {
        let cfg = GenConfig {
            stages: 3,
            procs: 8,
            comp: Range::new(5.0, 15.0),
            comm: Range::new(5.0, 15.0),
        };
        let inst = sample_instance(&cfg, &mut rng);
        for model in [CommModel::Overlap, CommModel::Strict] {
            compute_period(&inst, model, Method::FullTpn).expect("live TPN");
        }
    }
}

#[test]
fn mapping_tpn_structural_bounds() {
    // Round-robin circuit places of a mapping TPN are 1-bounded; the
    // row-order (dataflow) places are structurally unbounded — that's the
    // unbounded-buffer abstraction the paper works in.
    let mut rng = StdRng::seed_from_u64(4242);
    for _ in 0..8 {
        let cfg = GenConfig {
            stages: 3,
            procs: 7,
            comp: Range::new(5.0, 15.0),
            comm: Range::new(5.0, 15.0),
        };
        let inst = sample_instance(&cfg, &mut rng);
        for model in [CommModel::Overlap, CommModel::Strict] {
            let built = repwf_core::tpn_build::build_tpn(
                &inst,
                model,
                &repwf_core::tpn_build::BuildOptions { labels: true, max_transitions: 100_000 },
            )
            .unwrap();
            let bounds = tpn::bounds::place_bounds(&built.net);
            for (b, place) in bounds.iter().zip(built.net.places()) {
                match model {
                    CommModel::Overlap => {
                        // Overlap: only the round-robin circuits throttle;
                        // dataflow (row) places buffer without bound.
                        if place.label.starts_with("row") {
                            assert_eq!(
                                *b, None,
                                "dataflow place {} must be unbounded",
                                place.label
                            );
                        } else {
                            assert_eq!(
                                *b,
                                Some(1),
                                "circuit place {} must be 1-bounded",
                                place.label
                            );
                        }
                    }
                    CommModel::Strict => {
                        // Strict: every operation sits on its processor's
                        // serialization circuit, so every place (row places
                        // included) is 1-bounded — the strict model admits
                        // no run-ahead at all.
                        assert_eq!(*b, Some(1), "strict place {} must be 1-bounded", place.label);
                    }
                }
            }
        }
    }
}

/// A strict TPN of a replicated chain is one strongly connected component,
/// so the period solve has nothing to share out per component and runs
/// sequentially at every size. Pinned on the draw of
/// `crates/gen/tests/cap_regression.rs`: the first seed of 2 stages on 733
/// processors whose strict TPN lands just over 400 000 transitions.
#[test]
fn strict_tpn_of_the_cap_regression_draw_is_one_component() {
    let cfg = GenConfig {
        stages: 2,
        procs: 733,
        comp: Range::new(5.0, 15.0),
        comm: Range::new(5.0, 15.0),
    };
    let transitions = |seed: u64| {
        let replicas = sample_replica_counts(&cfg, &mut StdRng::seed_from_u64(seed));
        num_paths(&replicas).unwrap() * 3
    };
    let seed = (0..500u64)
        .find(|&s| (400_001..=DEFAULT_CAMPAIGN_CAP as u128).contains(&transitions(s)))
        .expect("some balanced draw lands just over the old cap");
    let inst = sample_instance(&cfg, &mut StdRng::seed_from_u64(seed));
    let opts = BuildOptions { labels: false, max_transitions: DEFAULT_CAMPAIGN_CAP };
    let built = build_tpn(&inst, CommModel::Strict, &opts).unwrap();
    let graph = tpn::analysis::ratio_graph(&built.net);
    assert!(graph.num_vertices() > 400_000, "seed {seed}");
    let mut ws = maxplus::Workspace::new();
    assert_eq!(ws.scc(&graph).num_components(), 1, "seed {seed}");
}
