//! Property tests of the zero-allocation engine: on random `RatioGraph`s,
//! every Howard path — cold, workspace-reused, structure-cached, warm,
//! per-SCC parallel and shape-batched — must agree **bit for bit**, and
//! Howard / Karp / Lawler must cross-validate.
//!
//! "Bit for bit" is not approximate agreement: every solver recomputes its
//! ratio exactly from a witness circuit, and on generic (random-cost)
//! graphs the critical circuit is unique, so the reused and warm-started
//! paths must land on the identical `f64`.
//!
//! The generator mixes **forced** vertices (exactly one in-component
//! out-edge) with choice vertices in every component, over several SCCs
//! with self-loops and parallel edges, so the solvers' choice index and
//! their λ-uniform skips are exercised on every shape they meet.

use maxplus::batch::{BatchScratch, CostPlanes};
use maxplus::graph::{CycleSolution, RatioGraph};
use maxplus::howard::max_cycle_ratio;
use maxplus::karp::max_cycle_ratio_karp;
use maxplus::lawler::max_cycle_ratio_lawler;
use maxplus::workspace::Workspace;
use proptest::prelude::*;
use proptest::strategy::Strategy;
use repwf_obs::counted;
use repwf_obs::CounterId::{CsrBuilds, TarjanRuns};

/// Most vertices a generated graph has.
const MAX_N: usize = 16;

/// Random live graphs of one to four strongly connected blocks of
/// consecutive vertices. Each block is a tokenized ring (a one-vertex
/// block is a self-loop). Extra edges inside a block add chords,
/// self-loops and parallel edges; extra edges between blocks always run
/// forward, so the blocks stay separate SCCs. A vertex drawn as forced
/// (about `forced` percent of them) takes no extra in-block edge, so it
/// keeps exactly one in-component out-edge — possibly next to forward
/// cross edges. Backward and self extras always carry a token so the
/// zero-token subgraph stays acyclic.
fn arb_live_graph() -> impl Strategy<Value = RatioGraph> {
    (
        proptest::collection::vec(0.1f64..100.0, 2..MAX_N),
        proptest::collection::vec(1usize..MAX_N, 0..4),
        (0u32..101, proptest::collection::vec(0u32..100, MAX_N..MAX_N + 1)),
        proptest::collection::vec(
            (0..MAX_N as u32, 0..MAX_N as u32, 0.1f64..100.0, 0u32..3),
            0..48,
        ),
    )
        .prop_map(|(ring, cuts, (forced, draw), extras)| {
            let n = ring.len();
            // block[v]: blocks are the runs between the (deduplicated) cuts.
            let mut block = vec![0usize; n];
            for v in 1..n {
                block[v] = block[v - 1] + usize::from(cuts.contains(&v));
            }
            let is_forced = |v: u32| draw[v as usize] < forced;
            let mut g = RatioGraph::new(n);
            for (v, cost) in ring.into_iter().enumerate() {
                // Close each block's ring: the last vertex of a block
                // points back to its first.
                let next = if v + 1 < n && block[v + 1] == block[v] {
                    v + 1
                } else {
                    block.iter().position(|&b| b == block[v]).expect("own block")
                };
                g.add_edge(v as u32, next as u32, cost, 1);
            }
            for (a, b, cost, tokens) in extras {
                let (mut a, mut b) = (a % n as u32, b % n as u32);
                if block[a as usize] > block[b as usize] {
                    std::mem::swap(&mut a, &mut b);
                }
                if block[a as usize] == block[b as usize] && is_forced(a) {
                    continue;
                }
                // Zero tokens only on strictly forward edges: zero-token
                // subgraph is a DAG, hence no deadlocked circuit.
                let tokens = if a >= b { tokens.max(1) } else { tokens };
                g.add_edge(a, b, cost, tokens);
            }
            g
        })
}

fn assert_bitwise(a: &CycleSolution, b: &CycleSolution, what: &str) -> Result<(), TestCaseError> {
    prop_assert!(a.ratio.to_bits() == b.ratio.to_bits(), "{}: {} vs {}", what, a.ratio, b.ratio);
    prop_assert_eq!(&a.cycle, &b.cycle);
    prop_assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    prop_assert_eq!(a.tokens, b.tokens);
    Ok(())
}

/// A same-shape cost perturbation of `g` (what a neighbor mapping in a
/// search typically produces).
fn perturb(g: &RatioGraph, factor: f64) -> RatioGraph {
    let mut out = RatioGraph::new(g.num_vertices());
    for e in g.edges() {
        out.add_edge(e.from, e.to, e.cost * factor + 0.013, e.tokens);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn workspace_reuse_is_bitwise_identical_to_cold(g in arb_live_graph()) {
        // One long-lived workspace fed the same graph repeatedly (after
        // having seen a different graph first, so buffers are truly dirty).
        let mut ws = Workspace::new();
        let warmup = perturb(&g, 3.7);
        ws.max_cycle_ratio(&warmup).expect("live by construction");
        let cold = max_cycle_ratio(&g).expect("live").expect("ring is a circuit");
        for round in 0..3 {
            let reused = ws.max_cycle_ratio(&g).expect("live").expect("cyclic");
            assert_bitwise(&reused, &cold, &format!("round {round}"))?;
        }
        // Structure-cached solves: the second call with the token is a
        // hit (choice index reused), cold and warm.
        for warm in [false, true] {
            let mut ws = Workspace::new();
            let (hit, c) = counted(|| {
                ws.max_cycle_ratio_cached(&warmup, 7, warm).expect("live");
                ws.max_cycle_ratio_cached(&g, 7, warm).expect("live").expect("cyclic")
            });
            prop_assert_eq!((c[CsrBuilds], c[TarjanRuns]), (1, 1));
            assert_bitwise(&hit, &cold, &format!("cached hit, warm={warm}"))?;
        }
        // Per-SCC parallel solves.
        for threads in [1, 2] {
            let par = Workspace::new().max_cycle_ratio_par(&g, threads);
            let par = par.expect("live").expect("cyclic");
            assert_bitwise(&par, &cold, &format!("par, threads={threads}"))?;
        }
        // Shape-batched lanes: the warm-up costs and this graph's.
        let mut planes = CostPlanes::new();
        planes.reset(2, g.num_edges());
        for (q, src) in [&warmup, &g].into_iter().enumerate() {
            for (c, e) in planes.plane_mut(q).iter_mut().zip(src.edges()) {
                *c = e.cost;
            }
        }
        let mut scratch = BatchScratch::new();
        let batch = Workspace::new().max_cycle_ratio_batch(&g, 1, &planes, &mut scratch);
        let warm_ref = max_cycle_ratio(&warmup).expect("live").expect("cyclic");
        for (q, reference) in [&warm_ref, &cold].into_iter().enumerate() {
            let lane = batch[q].as_ref().expect("live").as_ref().expect("cyclic");
            assert_bitwise(lane, reference, &format!("batch lane {q}"))?;
        }
    }

    #[test]
    fn warm_start_is_bitwise_identical_to_cold(g in arb_live_graph()) {
        // Warm-start the workspace on g, then solve a same-shape cost
        // perturbation warm: the ratio must equal the cold solve exactly.
        let mut ws = Workspace::new();
        ws.max_cycle_ratio(&g).expect("live");
        let neighbor = perturb(&g, 1.75);
        let warm = ws.max_cycle_ratio_warm(&neighbor).expect("live").expect("cyclic");
        let cold = max_cycle_ratio(&neighbor).expect("live").expect("cyclic");
        prop_assert!(warm.ratio.to_bits() == cold.ratio.to_bits(),
            "warm {} vs cold {}", warm.ratio, cold.ratio);
        // And warm-chaining back to the original also matches.
        let warm_back = ws.max_cycle_ratio_warm(&g).expect("live").expect("cyclic");
        let cold_back = max_cycle_ratio(&g).expect("live").expect("cyclic");
        prop_assert_eq!(warm_back.ratio.to_bits(), cold_back.ratio.to_bits());
    }

    #[test]
    fn howard_karp_lawler_cross_oracles(g in arb_live_graph()) {
        let h = max_cycle_ratio(&g).expect("live").expect("cyclic");
        let l = max_cycle_ratio_lawler(&g).expect("live").expect("cyclic");
        let k = max_cycle_ratio_karp(&g).expect("live").expect("cyclic");
        let tol = 1e-9 * h.ratio.abs().max(1.0);
        prop_assert!((h.ratio - l.ratio).abs() <= tol, "howard {} vs lawler {}", h.ratio, l.ratio);
        prop_assert!((h.ratio - k.ratio).abs() <= 1e-6 * h.ratio.abs().max(1.0),
            "howard {} vs karp {}", h.ratio, k.ratio);
    }
}
