//! Exhaustive simple-cycle enumeration, for validating the real algorithms.
//!
//! The maximum cycle ratio is always attained by a *simple* circuit (any
//! circuit decomposes into simple ones and the mediant inequality bounds the
//! combined ratio by the best part), so enumerating simple cycles on tiny
//! graphs gives a ground-truth oracle.

use crate::graph::{CycleSolution, RatioGraph, RatioGraphError};
use crate::howard::RatioResult;

/// Hard cap on vertices: enumeration is exponential.
pub const MAX_VERTICES: usize = 16;

/// Enumerates every simple circuit and returns the best ratio (exactly as in
/// [`crate::howard::max_cycle_ratio`]). Panics if the graph has more than
/// [`MAX_VERTICES`] vertices.
pub fn max_cycle_ratio_bruteforce(g: &RatioGraph) -> RatioResult {
    assert!(g.num_vertices() <= MAX_VERTICES, "brute force limited to {MAX_VERTICES} vertices");
    g.validate()?;
    let n = g.num_vertices();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, e) in g.edges().iter().enumerate() {
        adj[e.from as usize].push(i);
    }

    let mut best: Option<CycleSolution> = None;
    // Enumerate cycles whose minimum vertex is `root` to avoid duplicates.
    for root in 0..n as u32 {
        let mut path_v: Vec<u32> = vec![root];
        let mut path_e: Vec<usize> = Vec::new();
        let mut on_path = vec![false; n];
        on_path[root as usize] = true;
        // stack of edge-iterator positions per depth
        let mut pos: Vec<usize> = vec![0];
        while let Some(p) = pos.last_mut() {
            let v = *path_v.last().expect("path non-empty") as usize;
            if *p < adj[v].len() {
                let ei = adj[v][*p];
                *p += 1;
                let e = &g.edges()[ei];
                if e.to < root {
                    continue; // canonical form: root is the min vertex
                }
                if e.to == root {
                    // Found a cycle.
                    let mut cost = 0.0;
                    let mut tokens = 0u64;
                    for &k in path_e.iter().chain(std::iter::once(&ei)) {
                        let ek = &g.edges()[k];
                        cost += ek.cost;
                        tokens += u64::from(ek.tokens);
                    }
                    if tokens == 0 {
                        return Err(RatioGraphError::ZeroTokenCycle { cycle: path_v.clone() });
                    }
                    let ratio = cost / tokens as f64;
                    if best.as_ref().is_none_or(|b| ratio > b.ratio) {
                        best = Some(CycleSolution { ratio, cycle: path_v.clone(), cost, tokens });
                    }
                } else if !on_path[e.to as usize] {
                    on_path[e.to as usize] = true;
                    path_v.push(e.to);
                    path_e.push(ei);
                    pos.push(0);
                }
            } else {
                pos.pop();
                let v = path_v.pop().expect("path non-empty");
                on_path[v as usize] = false;
                path_e.pop();
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::howard::max_cycle_ratio;
    use crate::karp::max_cycle_ratio_karp;
    use crate::lawler::max_cycle_ratio_lawler;
    use proptest::prelude::*;

    #[test]
    fn triangle() {
        let mut g = RatioGraph::new(3);
        g.add_edge(0, 1, 1.0, 1);
        g.add_edge(1, 2, 2.0, 1);
        g.add_edge(2, 0, 6.0, 1);
        let sol = max_cycle_ratio_bruteforce(&g).unwrap().unwrap();
        assert!((sol.ratio - 3.0).abs() < 1e-12);
    }

    #[test]
    fn no_duplicate_counting_with_two_loops() {
        let mut g = RatioGraph::new(2);
        g.add_edge(0, 1, 1.0, 1);
        g.add_edge(1, 0, 1.0, 1);
        g.add_edge(1, 1, 5.0, 1);
        let sol = max_cycle_ratio_bruteforce(&g).unwrap().unwrap();
        assert!((sol.ratio - 5.0).abs() < 1e-12);
    }

    /// Random small graphs where every vertex has a tokened self-loop (so no
    /// deadlock is possible); the four oracles must agree.
    fn arb_graph() -> impl Strategy<Value = RatioGraph> {
        (2usize..7, proptest::collection::vec((0u32..7, 0u32..7, 0.0f64..50.0, 0u32..3), 1..20))
            .prop_map(|(n, raw)| {
                let mut g = RatioGraph::new(n);
                for v in 0..n as u32 {
                    g.add_edge(v, v, f64::from(v) + 1.0, 1);
                }
                for (a, b, c, t) in raw {
                    let (a, b) = (a % n as u32, b % n as u32);
                    // avoid creating zero-token self-loops
                    let t = if a == b && t == 0 { 1 } else { t };
                    g.add_edge(a, b, c, t);
                }
                g
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(120))]
        #[test]
        fn oracles_agree(g in arb_graph()) {
            let bf = max_cycle_ratio_bruteforce(&g);
            let hw = max_cycle_ratio(&g);
            let lw = max_cycle_ratio_lawler(&g);
            let kp = max_cycle_ratio_karp(&g);
            match bf {
                Ok(Some(b)) => {
                    let h = hw.unwrap().unwrap();
                    let l = lw.unwrap().unwrap();
                    let k = kp.unwrap().unwrap();
                    let tol = 1e-8 * b.ratio.abs().max(1.0);
                    prop_assert!((b.ratio - h.ratio).abs() <= tol, "bf {} vs howard {}", b.ratio, h.ratio);
                    prop_assert!((b.ratio - l.ratio).abs() <= tol, "bf {} vs lawler {}", b.ratio, l.ratio);
                    prop_assert!((b.ratio - k.ratio).abs() <= tol, "bf {} vs karp {}", b.ratio, k.ratio);
                }
                Ok(None) => {
                    prop_assert!(hw.unwrap().is_none());
                    prop_assert!(lw.unwrap().is_none());
                }
                Err(_) => {
                    prop_assert!(hw.is_err());
                    prop_assert!(lw.is_err());
                }
            }
        }

        #[test]
        fn howard_witness_is_real_cycle(g in arb_graph()) {
            if let Ok(Some(sol)) = max_cycle_ratio(&g) {
                // Every hop of the witness must be an actual edge, the
                // claimed totals must be self-consistent, and the ratio must
                // not exceed the true optimum.
                for i in 0..sol.cycle.len() {
                    let from = sol.cycle[i];
                    let to = sol.cycle[(i + 1) % sol.cycle.len()];
                    prop_assert!(
                        g.edges().iter().any(|e| e.from == from && e.to == to),
                        "witness hop {from}->{to} is not an edge"
                    );
                }
                prop_assert!(sol.tokens > 0);
                prop_assert!((sol.cost / sol.tokens as f64 - sol.ratio).abs() <= 1e-9 * sol.ratio.abs().max(1.0));
                let bf = max_cycle_ratio_bruteforce(&g).unwrap().unwrap();
                prop_assert!(sol.ratio <= bf.ratio + 1e-8 * bf.ratio.abs().max(1.0));
            }
        }
    }
}
