//! Property tests: the three period computations — Theorem 1 polynomial
//! algorithm, full-TPN critical cycle, and the independent discrete-event
//! simulator — agree on random instances.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use repwf_core::model::CommModel;
use repwf_core::period::{compute_period, Method};
use repwf_gen::{sample_instance, GenConfig, Range};
use repwf_sim::{simulate, SimOptions};

fn config_strategy() -> impl Strategy<Value = (GenConfig, u64)> {
    // Small instances so the full TPN stays cheap: m = lcm of replica
    // counts with at most 9 processors over 2–4 stages.
    (2usize..5, 0usize..6, 1u64..10_000, 0usize..3).prop_map(|(stages, extra, seed, shape)| {
        let comm = match shape {
            0 => Range::new(5.0, 15.0),
            1 => Range::new(10.0, 1000.0),
            _ => Range::new(5.0, 10.0),
        };
        let comp = if shape == 2 { Range::constant(1.0) } else { Range::new(5.0, 15.0) };
        (GenConfig { stages, procs: stages + extra, comp, comm }, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn polynomial_equals_full_tpn_overlap((cfg, seed) in config_strategy()) {
        let inst = sample_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        let poly = compute_period(&inst, CommModel::Overlap, Method::Polynomial).unwrap();
        let full = compute_period(&inst, CommModel::Overlap, Method::FullTpn).unwrap();
        prop_assert!(
            (poly.period - full.period).abs() <= 1e-9 * full.period.max(1.0),
            "poly {} vs tpn {} (replicas {:?}, seed {seed})",
            poly.period, full.period, inst.mapping.replica_counts()
        );
    }

    #[test]
    fn simulator_matches_analysis_both_models((cfg, seed) in config_strategy()) {
        let inst = sample_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        for model in [CommModel::Overlap, CommModel::Strict] {
            let exact = compute_period(&inst, model, Method::FullTpn).unwrap();
            let m = exact.num_paths as u64;
            let sim = simulate(&inst, model, &SimOptions { data_sets: (600 * m).max(3000), record_ops: false });
            let est = sim.exact_period(1e-9).unwrap_or_else(|| sim.period_estimate());
            prop_assert!(
                (est - exact.period).abs() <= 2e-3 * exact.period,
                "{model}: sim {est} vs analytic {} (replicas {:?}, seed {seed})",
                exact.period, inst.mapping.replica_counts()
            );
        }
    }

    #[test]
    fn tpn_simulation_method_matches_analysis((cfg, seed) in config_strategy()) {
        let inst = sample_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        for model in [CommModel::Overlap, CommModel::Strict] {
            let exact = compute_period(&inst, model, Method::FullTpn).unwrap();
            let sim = compute_period(&inst, model, Method::TpnSimulation).unwrap();
            prop_assert!(
                (sim.period - exact.period).abs() <= 2e-3 * exact.period,
                "{model}: tpn-sim {} vs analytic {}",
                sim.period, exact.period
            );
        }
    }

    #[test]
    fn howard_equals_lawler_on_mapping_tpns((cfg, seed) in config_strategy()) {
        let inst = sample_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        for model in [CommModel::Overlap, CommModel::Strict] {
            let built = repwf_core::tpn_build::build_tpn(
                &inst,
                model,
                &repwf_core::tpn_build::BuildOptions { labels: false, max_transitions: 500_000 },
            ).unwrap();
            let h = tpn::analysis::period(&built.net).unwrap().unwrap();
            let l = tpn::analysis::period_lawler(&built.net).unwrap().unwrap();
            prop_assert!(
                (h.period - l.period).abs() <= 1e-8 * h.period.max(1.0),
                "{model}: howard {} vs lawler {}",
                h.period, l.period
            );
        }
    }
}
