//! Extension experiment: weighted round-robin vs. the paper's uniform
//! round-robin.
//!
//! §2 of the paper notes that uniform round-robin "may lead to a load
//! imbalance: more data sets could be allocated to faster processors" but
//! keeps the uniform rule. `repwf_core::weighted` lifts the restriction;
//! this study quantifies what the rule costs: for a stage replicated on a
//! fast and a slow processor with speed ratio `ρ`, uniform round-robin is
//! dictated by the slow replica (period `w/(2·Π_slow)`) while the optimal
//! `⌈ρ⌉:1`-ish weighting balances busy times.

use repwf_core::model::{CommModel, Instance, Mapping, Pipeline, Platform};
use repwf_core::period::{compute_period, Method};
use repwf_core::tpn_build::BuildOptions;
use repwf_core::weighted::{simulate_weighted, weighted_period, WeightedAllocation};

fn instance(speed_ratio: f64) -> Instance {
    let pipeline = Pipeline::new(vec![12.0, 0.001], vec![0.001]).unwrap();
    let mut platform = Platform::uniform(3, 1.0, 1000.0);
    platform.set_speed(0, speed_ratio);
    platform.set_speed(1, 1.0);
    let mapping = Mapping::new(vec![vec![0, 1], vec![2]]).unwrap();
    Instance::new(pipeline, platform, mapping).unwrap()
}

fn main() {
    println!("stage of work 12 on two replicas (speeds ρ and 1), overlap one-port\n");
    println!(
        "{:>6} {:>12} {:>14} {:>14} {:>10} {:>12}",
        "ρ", "uniform RR", "weighted", "(pattern)", "gain", "sim check"
    );
    for ratio in [1.0f64, 1.5, 2.0, 3.0, 4.0] {
        let inst = instance(ratio);
        let uniform = compute_period(&inst, CommModel::Overlap, Method::FullTpn).unwrap().period;
        // try integer weightings k:1 for the fast replica, keep the best
        let mut best = (uniform, "1:1".to_string(), WeightedAllocation::round_robin(&inst));
        for k in 1..=6usize {
            let alloc = WeightedAllocation::proportional(&[vec![k, 1], vec![1]], &inst).unwrap();
            let p = weighted_period(&inst, &alloc, CommModel::Overlap, &BuildOptions::default())
                .unwrap();
            if p < best.0 {
                best = (p, format!("{k}:1"), alloc);
            }
        }
        let sim = simulate_weighted(&inst, &best.2, CommModel::Overlap, 8000);
        println!(
            "{:>6.1} {:>12.4} {:>14.4} {:>14} {:>9.1}% {:>12.4}",
            ratio,
            uniform,
            best.0,
            best.1,
            100.0 * (uniform / best.0 - 1.0),
            sim
        );
    }
    println!("\nuniform round-robin loses up to the full speed spread; the weighted");
    println!("extension recovers it while staying exactly analyzable via the same TPN.");
}
