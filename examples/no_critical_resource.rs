//! The paper's headline phenomenon, end to end: a mapping where the period
//! strictly exceeds EVERY resource's cycle-time, so all resources idle.
//!
//! Uses Example B (Fig. 6): under the overlap model, `M_ct = 258.33` (the
//! out-port of `P2`) yet the system's period is `291.67`. The example
//! verifies the gap three independent ways — Theorem 1's polynomial
//! algorithm, the full timed-Petri-net critical cycle, and discrete-event
//! simulation — then prints the per-resource idle fractions measured from
//! the simulated schedule.
//!
//! Run with: `cargo run --release -p repwf-bench --example no_critical_resource`

use repwf_core::cycle_time::cycle_times;
use repwf_core::fixtures::example_b;
use repwf_core::model::CommModel;
use repwf_core::period::{compute_period, Method};
use repwf_sim::gantt::build;
use repwf_sim::{simulate, SimOptions};

fn main() {
    let inst = example_b();
    let model = CommModel::Overlap;

    let poly = compute_period(&inst, model, Method::Polynomial).expect("polynomial");
    let tpn = compute_period(&inst, model, Method::FullTpn).expect("full TPN");
    let sim = simulate(&inst, model, &SimOptions { data_sets: 60_000, record_ops: false });
    let sim_est = sim.exact_period(1e-9).unwrap_or_else(|| sim.period_estimate());

    println!("Example B (S0 x3, S1 x4), overlap one-port\n");
    println!("M_ct (best possible)        : {:>9.4}", poly.mct);
    println!("period, Theorem 1           : {:>9.4}", poly.period);
    println!("period, full TPN (m = {:>2})   : {:>9.4}", tpn.num_paths, tpn.period);
    println!("period, simulation          : {:>9.4}", sim_est);
    assert!((poly.period - tpn.period).abs() < 1e-9);
    assert!((poly.period - sim_est).abs() < 1e-3 * poly.period);
    assert!(poly.period > poly.mct + 1.0, "the gap is real: no critical resource");
    println!(
        "\ngap: the system is {:.1}% slower than its busiest resource —",
        100.0 * (poly.period - poly.mct) / poly.mct
    );
    println!("round-robin interference prevents any resource from being saturated.\n");

    // Show it: idle fraction of every resource over three mid-stream
    // periods. (In the unbounded-buffer model the front-end CPUs may run
    // *ahead* of the stream — what "no critical resource" means formally is
    // that every resource's cycle-time is below the period, i.e. no
    // resource keeps up with zero slack at the data-set rate.)
    let sim = simulate(&inst, model, &SimOptions { data_sets: 1000, record_ops: true });
    let p_big = poly.period * tpn.num_paths as f64;
    let chart = build(&inst, model, &sim, 2.0 * p_big, 5.0 * p_big);
    println!("idle fractions over three mid-stream periods:");
    for &row in &chart.rows {
        println!(
            "  {:>12}: {:>5.1}% idle",
            format!("{row:?}"),
            100.0 * chart.idle_fraction(row, 2.0 * p_big)
        );
    }

    // And the cycle-time table that *predicts* the busiest resource.
    println!("\nper-resource cycle times (the max is M_ct):");
    for ct in cycle_times(&inst) {
        println!(
            "  P{} (S{}): C_in {:>8.3}  C_comp {:>8.3}  C_out {:>8.3}  -> C_exec {:>8.3}",
            ct.proc,
            ct.stage,
            ct.c_in,
            ct.c_comp,
            ct.c_out,
            ct.exec(model)
        );
    }
}
