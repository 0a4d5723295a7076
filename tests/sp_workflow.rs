//! Series-parallel workflows end to end: the diamond's period pinned
//! against a hand-built timed event graph (the jobshop-style TPN-level
//! answer, constructed place by place without going through `tpn_build`),
//! the discrete-event simulator, and a fork/join campaign that must take
//! the mapping oracle's patch path.

use repwf_core::engine::PeriodEngine;
use repwf_core::model::{CommModel, Instance, Mapping, Pipeline, Platform};
use repwf_core::period::{compute_period, Method};
use repwf_gen::{engine_for_cap, run_one_workflow_with, GenConfig, Range, Topology};
use repwf_sim::{simulate, SimOptions};
use tpn::net::TimedEventGraph;

/// The diamond fixture: 0 → {1, 2} → 3, one replica per stage, one
/// processor per stage (speed 1), every link at bandwidth 10.
fn diamond() -> Instance {
    let pipeline = Pipeline::from_edges(
        vec![2.0, 50.0, 3.0, 4.0],
        vec![(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
    )
    .expect("valid diamond");
    let platform = Platform::uniform(4, 1.0, 10.0);
    let mapping = Mapping::new(vec![vec![0], vec![1], vec![2], vec![3]]).expect("valid mapping");
    Instance::new(pipeline, platform, mapping).expect("valid instance")
}

/// Builds the diamond's overlap one-port TPN by hand, jobshop-style: one
/// transition per computation and per transfer, a token-carrying self-loop
/// per processor, zero-token precedence places along each edge, and
/// token-carrying port-order circuits serializing the fork's two sends
/// (out-port of P0) and the join's two receives (in-port of P3).
#[test]
fn diamond_period_matches_handbuilt_tpn() {
    let mut net = TimedEventGraph::new();
    // computations: works [2, 50, 3, 4] on unit-speed processors
    let t0 = net.add_transition(2.0, "S0 on P0");
    let t1 = net.add_transition(50.0, "S1 on P1");
    let t2 = net.add_transition(3.0, "S2 on P2");
    let t3 = net.add_transition(4.0, "S3 on P3");
    // transfers: every file is 1.0 over bandwidth 10 → 0.1
    let x01 = net.add_transition(0.1, "F0: S0→S1");
    let x02 = net.add_transition(0.1, "F1: S0→S2");
    let x13 = net.add_transition(0.1, "F2: S1→S3");
    let x23 = net.add_transition(0.1, "F3: S2→S3");

    // processor reuse (one data set at a time per processor)
    for (t, who) in [(t0, "P0"), (t1, "P1"), (t2, "P2"), (t3, "P3")] {
        net.add_place(t, t, 1, format!("{who} reuse"));
    }
    // precedence along each edge: comp → transfer → comp, no tokens
    for (src, x, dst) in [(t0, x01, t1), (t0, x02, t2), (t1, x13, t3), (t2, x23, t3)] {
        net.add_place(src, x, 0, "produce");
        net.add_place(x, dst, 0, "consume");
    }
    // one-port serialization: P0's out-port alternates its two sends in
    // edge order, P3's in-port its two receives; the single-transfer ports
    // of P1/P2 are plain self-loops.
    net.add_place(x01, x02, 0, "P0 out: F0 then F1");
    net.add_place(x02, x01, 1, "P0 out wrap");
    net.add_place(x13, x23, 0, "P3 in: F2 then F3");
    net.add_place(x23, x13, 1, "P3 in wrap");
    for (x, who) in [(x01, "P1 in"), (x02, "P2 in"), (x13, "P1 out"), (x23, "P2 out")] {
        net.add_place(x, x, 1, format!("{who} wrap"));
    }

    let sol = tpn::analysis::period(&net).expect("live net").expect("cyclic net");
    // S1's computation dominates every circuit: the period is exactly 50.
    assert_eq!(sol.period, 50.0, "hand-built TPN period");

    // The model layer's TPN must give the same answer for the same
    // instance — and so must the discrete-event simulator.
    let inst = diamond();
    let report = compute_period(&inst, CommModel::Overlap, Method::FullTpn).expect("analysis");
    assert_eq!(report.period, sol.period, "tpn_build vs hand-built TPN");
    assert_eq!(report.num_paths, 1);
    let sim =
        simulate(&inst, CommModel::Overlap, &SimOptions { data_sets: 400, record_ops: false });
    let est = sim.exact_period(1e-9).expect("deterministic steady state");
    assert!((est - 50.0).abs() < 1e-9, "simulated {est}");
}

/// The strict model serializes the join's receives and the fork's sends
/// through the processors themselves; analysis and simulation must still
/// agree bit-for-bit on what that costs.
#[test]
fn diamond_strict_analysis_agrees_with_simulation() {
    let inst = diamond();
    let report = compute_period(&inst, CommModel::Strict, Method::FullTpn).expect("analysis");
    assert!(report.period >= 50.0, "strict can only be slower: {}", report.period);
    assert!(report.period >= report.mct - 1e-12);
    let sim = simulate(&inst, CommModel::Strict, &SimOptions { data_sets: 400, record_ops: false });
    let est = sim.exact_period(1e-9).expect("deterministic steady state");
    assert!((est - report.period).abs() < 1e-9, "sim {est} vs analysis {}", report.period);
}

/// A small fork/join campaign on one shared engine: consecutive draws
/// repeat TPN shapes, so the oracle's patched-solve path must engage
/// (patched solves > 0) while every outcome stays consistent with its
/// `M_ct` lower bound.
#[test]
fn forkjoin_campaign_engages_the_patch_path() {
    // 5 processors over 4 stages: only four possible replica-count
    // vectors, so consecutive draws repeat TPN shapes often.
    let cfg =
        GenConfig { stages: 4, procs: 5, comp: Range::new(5.0, 15.0), comm: Range::new(5.0, 15.0) };
    let topo = Topology::fork_join(2);
    assert_eq!(topo.stages, cfg.stages);
    let mut engine: PeriodEngine = engine_for_cap(400_000);
    for seed in 0..32u64 {
        let out = run_one_workflow_with(&cfg, &topo, CommModel::Strict, seed, &mut engine);
        assert!(out.period.is_finite() && out.period >= out.mct - 1e-9, "seed {seed}");
    }
    assert!(
        engine.patched_solves() > 0,
        "32 same-topology draws never took the patch path ({} csr builds)",
        engine.csr_builds()
    );
}
