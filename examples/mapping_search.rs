//! Closing the loop on the NP-hard mapping problem: use `repwf-map`'s
//! heuristics with the `repwf-core` period oracle to *find* a good mapping,
//! then audit it.
//!
//! The paper computes the throughput of a *given* mapping and cites the
//! NP-hardness of choosing one (Benoit & Robert 2008). This example builds
//! a skewed pipeline on a heterogeneous platform and compares
//!
//! * the naive one-to-one mapping,
//! * the greedy work-proportional constructor,
//! * multi-start local search,
//!
//! under the overlap one-port model.
//!
//! Run with: `cargo run --release -p repwf-bench --example mapping_search`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use repwf_core::model::{CommModel, Mapping, Pipeline, Platform};
use repwf_map::{evaluate, greedy, local_search, optimize, SearchOptions};

fn main() {
    let mut rng = StdRng::seed_from_u64(2009);
    // 5 stages, strongly skewed works; 14 processors with a 4x speed spread.
    let pipeline =
        Pipeline::new(vec![120.0, 900.0, 60.0, 400.0, 150.0], vec![30.0, 25.0, 25.0, 10.0])
            .expect("valid pipeline");
    let mut platform = Platform::uniform(14, 1.0, 50.0);
    for u in 0..14 {
        platform.set_speed(u, 1.0 + 3.0 * rng.gen::<f64>());
    }

    let model = CommModel::Overlap;
    let naive = Mapping::one_to_one((0..5).collect()).expect("valid");
    let p_naive = evaluate(&pipeline, &platform, &naive, model).expect("oracle");
    println!("one-to-one on P0..P4        : period {p_naive:>9.3}");

    let g = greedy(&pipeline, &platform);
    let p_greedy = evaluate(&pipeline, &platform, &g, model).expect("oracle");
    println!(
        "greedy constructor          : period {p_greedy:>9.3}  replicas {:?}",
        g.replica_counts()
    );

    let opts = SearchOptions { model, restarts: 6, max_passes: 60, seed: 7 };
    let refined = local_search(&pipeline, &platform, g.clone(), &opts);
    println!(
        "greedy + local search       : period {:>9.3}  replicas {:?}  ({} evals)",
        refined.period,
        refined.mapping.replica_counts(),
        refined.evaluations
    );

    let best = optimize(&pipeline, &platform, &opts);
    println!(
        "multi-start optimization    : period {:>9.3}  replicas {:?}  ({} evals)",
        best.period,
        best.mapping.replica_counts(),
        best.evaluations
    );
    println!("\nbest mapping:");
    for (i, procs) in best.mapping.assignment().iter().enumerate() {
        let speeds: Vec<String> =
            procs.iter().map(|&u| format!("P{u}(Π={:.2})", platform.speed(u))).collect();
        println!("  S{i}: {}", speeds.join(", "));
    }
    let speedup = p_naive / best.period;
    println!("\nthroughput gain over one-to-one: {speedup:.2}x");
    assert!(best.period <= p_greedy + 1e-9, "search never loses to its seed");
}
