//! Karp's algorithm for the **maximum cycle mean**, plus the token-expansion
//! reduction from cycle *ratio* to cycle *mean*.
//!
//! The paper invokes "Karp's algorithm" to find critical cycles of the
//! per-communication pattern graphs (appendix A, step 4). Karp's theorem
//! computes `max_C Σcost(C)/|C|` — the mean counts *edges*, not tokens — in
//! `O(V·E)`. To apply it to a token-weighted event graph we expand the graph
//! so that every edge carries exactly one token (multi-token edges become
//! chains; zero-token edges are contracted through their acyclic subgraph).
//! [`max_cycle_ratio_karp`] packages the reduction; it matches Howard and
//! Lawler on every valid input and serves as a third independent oracle.
//!
//! # Memory bound
//!
//! Karp's recurrence `D_k(v) = max over edges (u,v) of D_{k−1}(u) + cost`
//! only ever consults the previous row, but the final formula
//! `λ* = max_v min_k (D_n(v) − D_k(v)) / (n − k)` consults **every** row —
//! which is why textbook implementations (and this crate, before the
//! zero-allocation engine rework) keep the full `(n+1) × n` table: **O(V²)**
//! doubles, 128 MB for a 4 000-vertex SCC and unusable beyond that. This
//! implementation instead runs the DP twice over two rolling rows — pass
//! A computes `D_n`, pass B replays rows `0..n−1` folding the running
//! minimum — trading 2× time for **O(V)** memory. The
//! `large_scc_runs_in_linear_memory` test below pins this bound on an
//! instance whose dense table would be ~128 MB.

use crate::graph::{CycleSolution, Edge, RatioGraph};
use crate::howard::RatioResult;
use crate::workspace::Workspace;

/// Maximum cycle mean (`Σcost / #edges`) of `g`, ignoring token counts.
///
/// Returns `None` for acyclic graphs. `O(V·E)` time, **`O(V)` memory**
/// (rolling rows; see the module docs).
pub fn max_cycle_mean(g: &RatioGraph) -> Option<f64> {
    g.validate().ok()?;
    let n = g.num_vertices();
    let mut ws = Workspace::new();
    let scc = ws.scc(g);
    let mut comp = vec![0u32; n];
    for c in 0..scc.num_components() {
        for &v in scc.members(c) {
            comp[v as usize] = c as u32;
        }
    }
    // In-component edges per component; a component without one is an
    // acyclic singleton.
    let mut by_comp: Vec<Vec<u32>> = vec![Vec::new(); scc.num_components()];
    let edges = g.edges();
    for (i, e) in edges.iter().enumerate() {
        let c = comp[e.from as usize];
        if c == comp[e.to as usize] {
            by_comp[c as usize].push(i as u32);
        }
    }
    let mut row_prev = vec![f64::NEG_INFINITY; n];
    let mut row_cur = vec![f64::NEG_INFINITY; n];
    let mut row_last = vec![f64::NEG_INFINITY; n];
    let mut inner_min = vec![f64::INFINITY; n];
    let mut best: Option<f64> = None;
    for (c, comp_edges) in by_comp.iter().enumerate() {
        if comp_edges.is_empty() {
            continue;
        }
        let m = karp_component(
            edges,
            scc.members(c),
            comp_edges,
            &mut row_prev,
            &mut row_cur,
            &mut row_last,
            &mut inner_min,
        );
        best = Some(best.map_or(m, |b: f64| b.max(m)));
    }
    best
}

/// Maximum cycle **ratio** via Karp, using the token-expansion reduction.
///
/// Every circuit of the expanded graph corresponds to a circuit of `g` with
/// `#edges = Σtokens`, so Karp's cycle mean on the expansion equals the cycle
/// ratio on `g`. The expansion can be quadratic in size; use for validation
/// and small graphs (Howard is the production algorithm).
pub fn max_cycle_ratio_karp(g: &RatioGraph) -> RatioResult {
    g.validate()?;
    // 1. Split multi-token edges into unit-token chains.
    let mut next = g.num_vertices() as u32;
    let mut extra = 0usize;
    for e in g.edges() {
        match e.tokens {
            0 | 1 => {}
            t => extra += (t - 1) as usize,
        }
    }
    let total = g.num_vertices() + extra;
    let mut unit_edges: Vec<(u32, u32, f64, u32)> = Vec::new();
    for e in g.edges() {
        if e.tokens <= 1 {
            unit_edges.push((e.from, e.to, e.cost, e.tokens));
        } else {
            // from → d1 → d2 → … → to, cost on the first hop, 1 token each.
            let mut prev = e.from;
            for i in 0..e.tokens {
                let target = if i + 1 == e.tokens {
                    e.to
                } else {
                    let d = next;
                    next += 1;
                    d
                };
                let cost = if i == 0 { e.cost } else { 0.0 };
                unit_edges.push((prev, target, cost, 1));
                prev = target;
            }
        }
    }
    let mut unit = RatioGraph::with_capacity(total, unit_edges.len());
    for (f, t, c, tok) in unit_edges {
        unit.add_edge(f, t, c, tok);
    }

    // 2. Contract zero-token edges: the zero-token subgraph must be acyclic
    //    (otherwise: deadlock). Build the "token graph" H whose vertices are
    //    the token-edge targets and whose edge a ⇒ b exists when b's token
    //    edge starts at a vertex reachable from a via zero-token edges;
    //    the H-edge weight folds in the longest zero-token path.
    let n = unit.num_vertices();
    let mut zero_adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    let mut token_edges: Vec<usize> = Vec::new();
    for (i, e) in unit.edges().iter().enumerate() {
        if e.tokens == 0 {
            zero_adj[e.from as usize].push((e.to, e.cost));
        } else {
            token_edges.push(i);
        }
    }
    if token_edges.is_empty() {
        // No token anywhere: either acyclic (fine) or deadlock.
        return match crate::lawler::max_cycle_ratio_lawler(g) {
            Ok(None) => Ok(None),
            other => other,
        };
    }
    // Topological order of the zero-token subgraph (cycle ⇒ deadlock).
    let topo = match topo_order(n, &zero_adj) {
        Some(t) => t,
        None => {
            // Delegate exact witness extraction to Lawler's detector.
            return crate::lawler::max_cycle_ratio_lawler(g);
        }
    };

    // H-vertex h = index into token_edges; H-edge h1 → h2 with weight
    // cost(e2) + longest zero-token path from target(e1) to source(e2).
    let k = token_edges.len();
    let mut h = RatioGraph::new(k);
    // longest zero-token path from a source vertex to every vertex: DAG DP.
    let mut by_source: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (hi, &ei) in token_edges.iter().enumerate() {
        by_source[unit.edges()[ei].from as usize].push(hi);
    }
    let mut dist = vec![f64::NEG_INFINITY; n];
    for (h1, &e1i) in token_edges.iter().enumerate() {
        let start = unit.edges()[e1i].to as usize;
        dist.fill(f64::NEG_INFINITY);
        dist[start] = 0.0;
        for &v in &topo {
            let dv = dist[v as usize];
            if dv == f64::NEG_INFINITY {
                continue;
            }
            for &(w, c) in &zero_adj[v as usize] {
                if dv + c > dist[w as usize] {
                    dist[w as usize] = dv + c;
                }
            }
        }
        for v in 0..n {
            if dist[v] == f64::NEG_INFINITY {
                continue;
            }
            for &h2 in &by_source[v] {
                let e2 = &unit.edges()[token_edges[h2]];
                h.add_edge(h1 as u32, h2 as u32, dist[v] + e2.cost, 1);
            }
        }
    }

    match max_cycle_mean(&h) {
        None => Ok(None),
        Some(ratio) => Ok(Some(CycleSolution {
            ratio,
            // Witness extraction through the reduction is intricate; this
            // oracle is for value cross-checking, so report an empty path.
            cycle: Vec::new(),
            cost: ratio,
            tokens: 1,
        })),
    }
}

/// Karp on one component with **two rolling rows** instead of the full
/// `(n+1) × n` table: pass A computes `D_n`, pass B replays the DP keeping
/// the running `min_k (D_n(v) − D_k(v)) / (n − k)`. Time doubles, memory
/// drops from O(V²) to O(V).
fn karp_component(
    edges: &[Edge],
    members: &[u32],
    comp_edges: &[u32],
    row_prev: &mut Vec<f64>,
    row_cur: &mut Vec<f64>,
    row_last: &mut [f64],
    inner_min: &mut [f64],
) -> f64 {
    let nc = members.len();
    let src = members[0] as usize;

    // Pass A: D_nc from the fixed source (vertex 0 of the component).
    for &v in members {
        row_prev[v as usize] = f64::NEG_INFINITY;
    }
    row_prev[src] = 0.0;
    for _ in 1..=nc {
        for &v in members {
            row_cur[v as usize] = f64::NEG_INFINITY;
        }
        relax(edges, comp_edges, row_prev, row_cur);
        std::mem::swap(row_prev, row_cur);
    }
    for &v in members {
        row_last[v as usize] = row_prev[v as usize];
    }

    // Pass B: replay rows 0..nc−1, folding the inner minimum as each row
    // materializes.
    for &v in members {
        inner_min[v as usize] = f64::INFINITY;
        row_prev[v as usize] = f64::NEG_INFINITY;
    }
    row_prev[src] = 0.0;
    for k in 0..nc {
        for &v in members {
            let vi = v as usize;
            if row_last[vi] > f64::NEG_INFINITY && row_prev[vi] > f64::NEG_INFINITY {
                let cand = (row_last[vi] - row_prev[vi]) / (nc - k) as f64;
                if cand < inner_min[vi] {
                    inner_min[vi] = cand;
                }
            }
        }
        for &v in members {
            row_cur[v as usize] = f64::NEG_INFINITY;
        }
        relax(edges, comp_edges, row_prev, row_cur);
        std::mem::swap(row_prev, row_cur);
    }

    let mut best = f64::NEG_INFINITY;
    for &v in members {
        if row_last[v as usize] > f64::NEG_INFINITY {
            best = best.max(inner_min[v as usize]);
        }
    }
    best
}

fn relax(edges: &[Edge], comp_edges: &[u32], prev: &[f64], cur: &mut [f64]) {
    for &ei in comp_edges {
        let e = &edges[ei as usize];
        let p = prev[e.from as usize];
        if p > f64::NEG_INFINITY {
            let cand = p + e.cost;
            if cand > cur[e.to as usize] {
                cur[e.to as usize] = cand;
            }
        }
    }
}

/// Kahn topological sort; `None` if the graph has a cycle.
fn topo_order(n: usize, adj: &[Vec<(u32, f64)>]) -> Option<Vec<u32>> {
    let mut indeg = vec![0u32; n];
    for outs in adj {
        for &(w, _) in outs {
            indeg[w as usize] += 1;
        }
    }
    let mut queue: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(v);
        for &(w, _) in &adj[v as usize] {
            indeg[w as usize] -= 1;
            if indeg[w as usize] == 0 {
                queue.push(w);
            }
        }
    }
    if order.len() == n {
        Some(order)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RatioGraphError;
    use crate::howard::max_cycle_ratio;

    #[test]
    fn mean_simple_triangle() {
        let mut g = RatioGraph::new(3);
        g.add_edge(0, 1, 1.0, 1);
        g.add_edge(1, 2, 2.0, 1);
        g.add_edge(2, 0, 6.0, 1);
        let m = max_cycle_mean(&g).unwrap();
        assert!((m - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mean_prefers_heavier_loop() {
        let mut g = RatioGraph::new(2);
        g.add_edge(0, 0, 1.0, 1);
        g.add_edge(0, 1, 0.0, 1);
        g.add_edge(1, 1, 10.0, 1);
        let m = max_cycle_mean(&g).unwrap();
        assert!((m - 10.0).abs() < 1e-12);
    }

    #[test]
    fn mean_acyclic_none() {
        let mut g = RatioGraph::new(2);
        g.add_edge(0, 1, 3.0, 1);
        assert_eq!(max_cycle_mean(&g), None);
    }

    #[test]
    fn ratio_reduction_matches_howard_unit_tokens() {
        let mut g = RatioGraph::new(3);
        g.add_edge(0, 1, 1.0, 1);
        g.add_edge(1, 2, 2.0, 1);
        g.add_edge(2, 0, 6.0, 1);
        let k = max_cycle_ratio_karp(&g).unwrap().unwrap();
        let h = max_cycle_ratio(&g).unwrap().unwrap();
        assert!((k.ratio - h.ratio).abs() < 1e-9);
    }

    #[test]
    fn ratio_reduction_matches_howard_mixed_tokens() {
        let mut g = RatioGraph::new(4);
        g.add_edge(0, 1, 4.0, 1);
        g.add_edge(1, 0, 6.0, 0);
        g.add_edge(1, 2, 5.0, 1);
        g.add_edge(2, 3, 2.5, 0);
        g.add_edge(3, 0, 3.0, 2);
        g.add_edge(3, 3, 1.0, 1);
        let k = max_cycle_ratio_karp(&g).unwrap().unwrap();
        let h = max_cycle_ratio(&g).unwrap().unwrap();
        assert!((k.ratio - h.ratio).abs() < 1e-9, "{} vs {}", k.ratio, h.ratio);
    }

    #[test]
    fn ratio_reduction_detects_deadlock() {
        let mut g = RatioGraph::new(2);
        g.add_edge(0, 1, 1.0, 0);
        g.add_edge(1, 0, 2.0, 0);
        assert!(matches!(max_cycle_ratio_karp(&g), Err(RatioGraphError::ZeroTokenCycle { .. })));
    }

    #[test]
    fn large_scc_runs_in_linear_memory() {
        // Regression for the O(V²) row table: one 4 000-vertex SCC. The
        // dense `(n+1) × n` table would allocate ~128 MB here; the rolling
        // rows keep it at a few O(V) vectors. Ring costs 0,1,…,n−1 plus a
        // heavy shortcut loop 0→1→0 of mean (0 + 500)/2.
        let n: usize = 4_000;
        let mut g = RatioGraph::new(n);
        for v in 0..n as u32 {
            g.add_edge(v, (v + 1) % n as u32, f64::from(v), 1);
        }
        g.add_edge(1, 0, 500.0, 1);
        let ring_mean = (0..n).map(|v| v as f64).sum::<f64>() / n as f64;
        let loop_mean = (0.0 + 500.0) / 2.0;
        let expect = ring_mean.max(loop_mean);
        let m = max_cycle_mean(&g).unwrap();
        assert!((m - expect).abs() < 1e-9 * expect, "{m} vs {expect}");
    }

    #[test]
    fn rolling_rows_match_on_multi_scc_graphs() {
        // Two separate SCCs plus a bridge: per-component rolling rows must
        // reproduce the per-component dense result (means 2 and 7).
        let mut g = RatioGraph::new(5);
        g.add_edge(0, 1, 1.0, 1);
        g.add_edge(1, 0, 3.0, 1);
        g.add_edge(1, 2, 100.0, 1); // bridge (no circuit)
        g.add_edge(2, 3, 5.0, 1);
        g.add_edge(3, 4, 7.0, 1);
        g.add_edge(4, 2, 9.0, 1);
        let m = max_cycle_mean(&g).unwrap();
        assert!((m - 7.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_multi_token_self_loop() {
        let mut g = RatioGraph::new(1);
        g.add_edge(0, 0, 9.0, 3);
        let k = max_cycle_ratio_karp(&g).unwrap().unwrap();
        assert!((k.ratio - 3.0).abs() < 1e-12);
    }
}
