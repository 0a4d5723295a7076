//! Lawler's parametric search for the maximum cycle ratio.
//!
//! For a guess `λ`, re-weight every edge as `cost − λ·tokens`: the graph has
//! a strictly positive circuit iff the true maximum cycle ratio exceeds `λ`.
//! Binary search on `λ`, with a Bellman–Ford longest-path pass as the
//! positive-circuit oracle. Each time the oracle finds a circuit we snap `λ`
//! to that circuit's *exact* ratio, so the final answer is the exact ratio
//! of a real witness circuit, like [`crate::howard`].
//!
//! This is the cross-check implementation: slower than Howard's iteration
//! but with entirely independent logic, and with its own scratch (no
//! [`crate::workspace::Workspace`] involved).

use crate::graph::{CycleSolution, RatioGraph, RatioGraphError};
use crate::howard::RatioResult;

/// Computes the maximum cycle ratio by parametric search.
///
/// Semantics match [`crate::howard::max_cycle_ratio`]: `Ok(None)` for
/// acyclic graphs, `RatioGraphError::ZeroTokenCycle` for deadlocks.
pub fn max_cycle_ratio_lawler(g: &RatioGraph) -> RatioResult {
    g.validate()?;
    if g.num_edges() == 0 {
        return Ok(None);
    }
    if let Some(cycle) = zero_token_cycle(g) {
        return Err(RatioGraphError::ZeroTokenCycle { cycle });
    }

    let n = g.num_vertices();
    let mut dist = vec![0.0; n];
    let mut pred = vec![u32::MAX; n];
    let mut path = Vec::new();

    let cost_sum: f64 = g.edges().iter().map(|e| e.cost.abs()).sum::<f64>().max(1.0);
    let mut lo = -cost_sum; // below any cycle ratio
    let mut hi = cost_sum; // above any cycle ratio (tokens ≥ 1 per cycle)
    let mut best: Option<CycleSolution> = None;

    // First probe at `lo` decides whether any circuit exists at all.
    if !positive_cycle(g, lo, &mut dist, &mut pred, &mut path) {
        return Ok(None);
    }
    let sol = exact_solution(g, &path)?;
    lo = sol.ratio;
    best = pick_best(best, sol);

    let eps = cost_sum * 1e-13;
    while hi - lo > eps {
        let mid = 0.5 * (lo + hi);
        if positive_cycle(g, mid, &mut dist, &mut pred, &mut path) {
            let sol = exact_solution(g, &path)?;
            // The witness has ratio > mid; snap the lower bound to it.
            lo = sol.ratio.max(mid);
            best = pick_best(best, sol);
        } else {
            hi = mid;
        }
    }
    Ok(best)
}

/// Finds a circuit made of zero-token edges only (iterative coloring DFS
/// on the zero-token subgraph, out-edges in edge order), or `None`.
fn zero_token_cycle(g: &RatioGraph) -> Option<Vec<u32>> {
    let n = g.num_vertices();
    let mut zero_out: Vec<Vec<u32>> = vec![Vec::new(); n];
    for e in g.edges() {
        if e.tokens == 0 {
            zero_out[e.from as usize].push(e.to);
        }
    }
    let mut color = vec![0u8; n];
    let mut parent = vec![u32::MAX; n];
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if color[root as usize] != 0 {
            continue;
        }
        frames.push((root, 0));
        color[root as usize] = 1;
        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            let next = zero_out[v as usize].get(*pos).copied();
            *pos += 1;
            match next {
                Some(w) => match color[w as usize] {
                    0 => {
                        color[w as usize] = 1;
                        parent[w as usize] = v;
                        frames.push((w, 0));
                    }
                    1 => {
                        // Grey: found a cycle w → … → v → w.
                        let mut cycle = vec![w];
                        let mut u = v;
                        while u != w {
                            cycle.push(u);
                            u = parent[u as usize];
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    _ => {}
                },
                None => {
                    color[v as usize] = 2;
                    frames.pop();
                }
            }
        }
    }
    None
}

fn pick_best(best: Option<CycleSolution>, sol: CycleSolution) -> Option<CycleSolution> {
    match best {
        Some(b) if b.ratio >= sol.ratio => Some(b),
        _ => Some(sol),
    }
}

/// Exact ratio of a circuit found by the Lawler oracle, given as the
/// edge-index sequence.
fn exact_solution(g: &RatioGraph, cycle_edges: &[u32]) -> Result<CycleSolution, RatioGraphError> {
    let mut cost = 0.0;
    let mut tokens = 0u64;
    let mut cycle = Vec::with_capacity(cycle_edges.len());
    for &ei in cycle_edges {
        let e = &g.edges()[ei as usize];
        cost += e.cost;
        tokens += u64::from(e.tokens);
        cycle.push(e.from);
    }
    if tokens == 0 {
        return Err(RatioGraphError::ZeroTokenCycle { cycle });
    }
    Ok(CycleSolution { ratio: cost / tokens as f64, cycle, cost, tokens })
}

/// Bellman–Ford longest-path positive-circuit oracle for weights
/// `cost − λ·tokens`, reusing the caller's `dist` / `pred` buffers. On
/// success the positive circuit's edge indices are left in `cycle_out` and
/// `true` is returned.
fn positive_cycle(
    g: &RatioGraph,
    lambda: f64,
    dist: &mut [f64],
    pred: &mut [u32],
    cycle_out: &mut Vec<u32>,
) -> bool {
    let n = g.num_vertices();
    let edges = g.edges();
    dist.fill(0.0); // multi-source: all vertices at 0
    pred.fill(u32::MAX);

    let mut updated_vertex: Option<u32> = None;
    for round in 0..=n {
        let mut any = false;
        for (i, e) in edges.iter().enumerate() {
            let w = e.cost - lambda * f64::from(e.tokens);
            let cand = dist[e.from as usize] + w;
            if cand > dist[e.to as usize] + 1e-15 {
                dist[e.to as usize] = cand;
                pred[e.to as usize] = i as u32;
                any = true;
                if round == n {
                    updated_vertex = Some(e.to);
                    break;
                }
            }
        }
        if !any {
            return false;
        }
    }

    // A relaxation in round n ⇒ positive circuit reachable via predecessors.
    let Some(mut v) = updated_vertex else { return false };
    // Walk back n steps to guarantee we are inside the circuit.
    for _ in 0..n {
        v = edges[pred[v as usize] as usize].from;
    }
    let start = v;
    cycle_out.clear();
    loop {
        let ei = pred[v as usize];
        cycle_out.push(ei);
        v = edges[ei as usize].from;
        if v == start {
            break;
        }
    }
    cycle_out.reverse();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::howard::max_cycle_ratio;

    fn assert_agrees(g: &RatioGraph) {
        let h = max_cycle_ratio(g).unwrap();
        let l = max_cycle_ratio_lawler(g).unwrap();
        match (h, l) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert!(
                    (a.ratio - b.ratio).abs() <= 1e-9 * a.ratio.abs().max(1.0),
                    "howard {} vs lawler {}",
                    a.ratio,
                    b.ratio
                )
            }
            other => panic!("disagreement: {other:?}"),
        }
    }

    #[test]
    fn agrees_on_simple_cycle() {
        let mut g = RatioGraph::new(2);
        g.add_edge(0, 1, 3.0, 1);
        g.add_edge(1, 0, 5.0, 1);
        assert_agrees(&g);
        let sol = max_cycle_ratio_lawler(&g).unwrap().unwrap();
        assert!((sol.ratio - 4.0).abs() < 1e-12);
    }

    #[test]
    fn acyclic_none() {
        let mut g = RatioGraph::new(3);
        g.add_edge(0, 1, 10.0, 1);
        g.add_edge(1, 2, 10.0, 2);
        assert_eq!(max_cycle_ratio_lawler(&g).unwrap(), None);
    }

    #[test]
    fn deadlock_detected() {
        let mut g = RatioGraph::new(3);
        g.add_edge(0, 1, 1.0, 0);
        g.add_edge(1, 2, 1.0, 0);
        g.add_edge(2, 0, 1.0, 0);
        assert!(matches!(max_cycle_ratio_lawler(&g), Err(RatioGraphError::ZeroTokenCycle { .. })));
    }

    #[test]
    fn agrees_on_mixed_graph() {
        let mut g = RatioGraph::new(4);
        g.add_edge(0, 1, 4.0, 1);
        g.add_edge(1, 0, 6.0, 0);
        g.add_edge(1, 2, 5.0, 1);
        g.add_edge(2, 3, 2.5, 0);
        g.add_edge(3, 0, 3.0, 2);
        g.add_edge(3, 3, 1.0, 1);
        assert_agrees(&g);
    }

    #[test]
    fn zero_token_edges_inside_ok_cycles() {
        // zero-token edges exist but every circuit has a token
        let mut g = RatioGraph::new(3);
        g.add_edge(0, 1, 2.0, 0);
        g.add_edge(1, 2, 2.0, 0);
        g.add_edge(2, 0, 2.0, 1);
        let sol = max_cycle_ratio_lawler(&g).unwrap().unwrap();
        assert!((sol.ratio - 6.0).abs() < 1e-12);
    }
}
