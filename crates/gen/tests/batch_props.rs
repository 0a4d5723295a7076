//! Campaign-runner determinism properties:
//!
//! * for random `(count, threads, model, seed_base)`, the shape-batched
//!   runner is **byte-identical** (every outcome field, floats compared
//!   by bit pattern) to the serial per-instance oracle — `run_one_with`
//!   seed by seed on one engine — so no schedule can hide in the
//!   comparison; mixed-shape draws exercise the grouped scheduling;
//! * with a tiny TPN size cap, simulator-era draws route through the
//!   per-instance fallback and the byte identity still holds — the runner
//!   must split every campaign into batchable and solo work without
//!   perturbing either side;
//! * the runner's sink sees each seed of the range exactly once, in
//!   strictly increasing order, whatever the thread count, model and cap.

use proptest::prelude::*;
use repwf_core::model::CommModel;
use repwf_gen::campaign::{
    engine_for_cap, run_campaign_batched, run_one_with, run_spec, CampaignResult, CampaignSpec,
};
use repwf_gen::{GenConfig, Range, Topology};

/// Mixed-shape configuration: 3 stages over 9 processors draw many
/// distinct replica-count vectors, so campaigns route into several batch
/// groups (plus singletons).
fn mixed_cfg() -> GenConfig {
    GenConfig { stages: 3, procs: 9, comp: Range::new(5.0, 15.0), comm: Range::new(5.0, 15.0) }
}

/// The serial per-instance reference.
fn oracle(spec: &CampaignSpec) -> CampaignResult {
    let mut engine = engine_for_cap(spec.cap);
    CampaignResult {
        outcomes: (0..spec.count)
            .map(|k| run_one_with(&spec.cfg, spec.model, spec.seed_base + k as u64, &mut engine))
            .collect(),
    }
}

/// Asserts full bitwise equality of two campaign results, field by field
/// (`PartialEq` on f64 would accept `-0.0 == 0.0`; the bit compare below
/// would not — and names the diverging seed when it fires).
fn assert_bitwise_eq(batched: &CampaignResult, reference: &CampaignResult, tag: &str) {
    assert_eq!(batched.outcomes.len(), reference.outcomes.len(), "{tag}");
    for (b, r) in batched.outcomes.iter().zip(&reference.outcomes) {
        assert_eq!(b.seed, r.seed, "{tag}");
        assert_eq!(b.resolution, r.resolution, "{tag} seed {}", r.seed);
        assert_eq!(b.num_paths, r.num_paths, "{tag} seed {}", r.seed);
        assert_eq!(b.mct.to_bits(), r.mct.to_bits(), "{tag} seed {} mct", r.seed);
        assert_eq!(b.period.to_bits(), r.period.to_bits(), "{tag} seed {} period", r.seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn batched_campaign_is_bitwise_the_unbatched_one(
        count in 0usize..22,
        threads in 1usize..5,
        seed_base in 1u64..5000,
    ) {
        let cfg = mixed_cfg();
        for model in [CommModel::Strict, CommModel::Overlap] {
            let spec = CampaignSpec { cfg, model, count, seed_base, cap: 200_000 };
            let batched =
                run_campaign_batched(&cfg, model, count, seed_base, threads, 200_000);
            assert_bitwise_eq(
                &batched,
                &oracle(&spec),
                &format!("{model} count={count} threads={threads} seeds={seed_base}"),
            );
        }
    }

    #[test]
    fn batched_campaign_matches_with_simulator_era_instances(
        count in 1usize..16,
        threads in 1usize..4,
        seed_base in 1u64..3000,
    ) {
        // Cap of 60 transitions: 3-stage draws build 5 columns, so shapes
        // with lcm > 12 overflow the cap and take the simulator fallback —
        // mixed batch/solo campaigns at nearly every draw.
        let cfg = mixed_cfg();
        let spec = CampaignSpec { cfg, model: CommModel::Strict, count, seed_base, cap: 60 };
        let batched =
            run_campaign_batched(&cfg, CommModel::Strict, count, seed_base, threads, 60);
        assert_bitwise_eq(
            &batched,
            &oracle(&spec),
            &format!("count={count} threads={threads} seeds={seed_base}"),
        );
    }

    #[test]
    fn the_sink_sees_every_seed_once_in_order_and_the_oracle_bits(
        count in 0usize..24,
        threads in 1usize..5,
        strict in 0usize..2,
        cap in (0usize..2).prop_map(|i| [60, 200_000][i]),
        seed_base in 1u64..5000,
    ) {
        let model = [CommModel::Overlap, CommModel::Strict][strict];
        let spec = CampaignSpec { cfg: mixed_cfg(), model, count, seed_base, cap };
        let mut seen = Vec::new();
        let res = run_spec(&spec, &Topology::chain(3), threads, |o| seen.push(o.seed));
        let tag = format!("{model} count={count} threads={threads} cap={cap} seeds={seed_base}");
        prop_assert_eq!(seen, (seed_base..seed_base + count as u64).collect::<Vec<_>>());
        assert_bitwise_eq(&res, &oracle(&spec), &tag);
    }
}
