//! Regression for the raised default campaign cap: a strict-model
//! instance family whose TPN lands just **over** the historical
//! `400_000`-transition cap used to fall back to the discrete-event
//! simulator; with [`DEFAULT_CAMPAIGN_CAP`] it resolves exactly through
//! the sequential Howard solve, and the exact period is bit-for-bit the
//! one a cap-lifted unbatched solve reports. The draw's strict ratio graph
//! is one strongly connected component, so no per-component fan-out could
//! help it; `tests/invariants.rs` pins that (this crate does not depend on
//! `maxplus`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use repwf_core::model::CommModel;
use repwf_core::paths::num_paths;
use repwf_gen::campaign::{run_one, Resolution, DEFAULT_CAMPAIGN_CAP};
use repwf_gen::sampler::sample_replica_counts;
use repwf_gen::{GenConfig, Range};

/// The historical default TPN size cap of campaign runs.
const OLD_CAP: usize = 400_000;

/// Two stages over 733 processors: 733 is prime, so the replica split
/// `(r, 733 − r)` is always coprime and `m = lcm = r(733 − r)` — balanced
/// draws put the strict TPN (3m transitions) just over the old cap.
fn cfg() -> GenConfig {
    GenConfig { stages: 2, procs: 733, comp: Range::new(5.0, 15.0), comm: Range::new(5.0, 15.0) }
}

/// Strict-model transitions of seed's draw, computed statically from the
/// replica RNG prefix (no instance materialized).
fn transitions(cfg: &GenConfig, seed: u64) -> u128 {
    let replicas = sample_replica_counts(cfg, &mut StdRng::seed_from_u64(seed));
    let cols = (2 * cfg.stages - 1) as u128;
    num_paths(&replicas).unwrap() * cols
}

#[test]
fn raised_default_cap_flips_former_simulator_fallbacks_to_exact() {
    let cfg = cfg();
    // First seed whose TPN lands in (OLD_CAP, DEFAULT_CAMPAIGN_CAP]: the
    // binomial replica split concentrates near 366/367, so one is close.
    let seed = (0..500u64)
        .find(|&s| {
            let t = transitions(&cfg, s);
            t > OLD_CAP as u128 && t <= DEFAULT_CAMPAIGN_CAP as u128
        })
        .expect("some balanced draw lands just over the old cap");

    // Under the old cap this exact seed was a simulator-era experiment.
    let old = run_one(&cfg, CommModel::Strict, seed, OLD_CAP);
    assert_eq!(old.resolution, Resolution::Simulated, "seed {seed}");

    // Under the new default it resolves exactly.
    let new = run_one(&cfg, CommModel::Strict, seed, DEFAULT_CAMPAIGN_CAP);
    assert_eq!(new.resolution, Resolution::Exact, "seed {seed}");
    assert_eq!(new.num_paths, old.num_paths, "same draw, same path count");
    assert!(
        new.period >= new.mct - 1e-9 * new.mct,
        "exact period respects the critical-resource bound"
    );

    // ... and the exact period is bit-for-bit a cap-lifted solve.
    let lifted = run_one(&cfg, CommModel::Strict, seed, 4_000_000);
    assert_eq!(lifted.resolution, Resolution::Exact);
    assert_eq!(new.period.to_bits(), lifted.period.to_bits(), "seed {seed}");
    assert_eq!(new.mct.to_bits(), lifted.mct.to_bits(), "seed {seed}");
}
