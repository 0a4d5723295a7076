//! Property test of the period solvers on extreme operation sizes: works,
//! file sizes, speeds and bandwidths drawn from {subnormal, 1e-300, 1,
//! 1e300, 1e308}. A quotient `w / Π` or `δ / b` of such values can
//! overflow to infinity, and sums of finite times can overflow too.
//!
//! The property: validation (`Instance::new`, `MappingOracle::validate`)
//! accepts and rejects the same instances with the same error, and every
//! `Method` under both models — through `compute_period` and through
//! `MappingOracle::compute` — returns `Ok` or a typed error. A panic
//! anywhere fails the test.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use repwf_core::engine::MappingOracle;
use repwf_core::model::{CommModel, Instance, Mapping, Pipeline, Platform};
use repwf_core::period::{compute_period, Method};

const EXTREMES: [f64; 5] = [5e-324, 1e-300, 1.0, 1e300, 1e308];

fn extreme(rng: &mut StdRng) -> f64 {
    EXTREMES[rng.gen_range(0..EXTREMES.len())]
}

/// A random chain of 1–3 stages on up to 6 processors with extreme sizes
/// and rates, and a random valid mapping.
fn instance_parts(seed: u64) -> (Pipeline, Platform, Mapping) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..4usize);
    let work = (0..n).map(|_| extreme(&mut rng)).collect();
    let files = (1..n).map(|_| extreme(&mut rng)).collect();
    let pipeline = Pipeline::new(work, files).expect("finite non-negative sizes");
    let p = rng.gen_range(n..7usize);
    let mut platform = Platform::uniform(p, 1.0, 1.0);
    for u in 0..p {
        platform.set_speed(u, extreme(&mut rng));
        for v in 0..p {
            platform.set_bandwidth(u, v, extreme(&mut rng));
        }
    }
    let mut procs: Vec<usize> = (0..p).collect();
    for i in (1..p).rev() {
        procs.swap(i, rng.gen_range(0..=i));
    }
    let mut assignment: Vec<Vec<usize>> = procs[..n].iter().map(|&u| vec![u]).collect();
    for &u in &procs[n..] {
        if rng.gen_bool(0.5) {
            assignment[rng.gen_range(0..n)].push(u);
        }
    }
    (pipeline, platform, Mapping::new(assignment).expect("distinct processors"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn extreme_times_give_ok_or_typed_errors(seed in 0u64..1_000_000_000) {
        let (pipeline, platform, mapping) = instance_parts(seed);
        let mut oracle = MappingOracle::new(&pipeline, &platform);
        let checked = Instance::new(pipeline.clone(), platform.clone(), mapping.clone());
        prop_assert_eq!(oracle.validate(&mapping), checked.as_ref().map(|_| ()).map_err(Clone::clone));
        for model in [CommModel::Overlap, CommModel::Strict] {
            for method in [Method::Auto, Method::FullTpn, Method::Polynomial] {
                let via_oracle = oracle.compute(&mapping, model, method);
                if let Ok(inst) = &checked {
                    let direct = compute_period(inst, model, method);
                    prop_assert!(direct.is_ok() == via_oracle.is_ok(), "{} {}", model, method);
                }
            }
        }
    }
}
