//! The TPN substrate beyond workflows: a cyclic job-shop.
//!
//! The paper's TPN model "is the same flavor as what has been done to model
//! jobshops with static schedules" (Hillion & Proth 1989 — its reference
//! [8]). This example uses the `tpn` crate directly on a classical cyclic
//! job-shop: two machines, three parts per cycle with fixed routes, a
//! static processing order on each machine. The steady-state cycle time is
//! the maximum circuit ratio, and the structural bounds show that every
//! place is bounded.
//!
//! Parts (one of each enters per cycle):
//!   part A: M1 (3) then M2 (2)
//!   part B: M2 (4) then M1 (1)
//!   part C: M1 (2)
//! Machine orders per cycle: M1: A, C, B — M2: B, A.
//!
//! Run with: `cargo run --release -p repwf-bench --example jobshop`

use tpn::analysis::period;
use tpn::bounds::summary;
use tpn::net::TimedEventGraph;

fn main() {
    let mut net = TimedEventGraph::new();
    // operations (transitions)
    let a1 = net.add_transition(3.0, "A on M1");
    let a2 = net.add_transition(2.0, "A on M2");
    let b1 = net.add_transition(4.0, "B on M2");
    let b2 = net.add_transition(1.0, "B on M1");
    let c1 = net.add_transition(2.0, "C on M1");

    // part routes (one token = one part in flight between its operations;
    // the wrap place releases the next cycle's part)
    net.add_place(a1, a2, 0, "A route");
    net.add_place(a2, a1, 1, "A next part");
    net.add_place(b1, b2, 0, "B route");
    net.add_place(b2, b1, 1, "B next part");
    net.add_place(c1, c1, 1, "C next part");

    // machine schedules (static order, one token on the wrap-around)
    net.add_place(a1, c1, 0, "M1: A then C");
    net.add_place(c1, b2, 0, "M1: C then B");
    net.add_place(b2, a1, 1, "M1 wrap");
    net.add_place(b1, a2, 0, "M2: B then A");
    net.add_place(a2, b1, 1, "M2 wrap");

    let sol = period(&net).expect("live net").expect("cyclic net");
    println!("cyclic job-shop: 5 operations, 2 machines, 3 parts per cycle");
    println!(
        "cycle time = {:.2} (critical circuit: {} ops, {} tokens)",
        sol.period,
        sol.critical.len(),
        sol.tokens
    );
    print!("critical circuit:");
    for t in &sol.critical {
        print!(" [{}]", net.transition(*t).label);
    }
    println!();

    // Machine utilizations at the steady cycle time.
    let m1_busy = 3.0 + 1.0 + 2.0;
    let m2_busy = 2.0 + 4.0;
    println!("M1 utilization: {:.0}%", 100.0 * m1_busy / sol.period);
    println!("M2 utilization: {:.0}%", 100.0 * m2_busy / sol.period);

    // Structural bounds: every place of a closed job-shop is bounded.
    let s = summary(&net);
    println!(
        "place bounds: {} bounded (max {}), {} unbounded",
        s.bounded, s.max_bound, s.unbounded
    );
    assert_eq!(s.unbounded, 0, "closed system: all WIP is bounded");
}
