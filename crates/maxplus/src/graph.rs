//! The doubly-weighted digraph shared by all cycle-ratio algorithms.
//!
//! Every edge carries a real **cost** (in a timed event graph: the firing
//! time contributed by the edge's source transition) and an integer **token
//! count** (the marking of the place the edge represents). The quantity of
//! interest is the maximum over directed circuits of `Σcost / Σtokens`.

use std::fmt;

/// An edge of a [`RatioGraph`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source vertex.
    pub from: u32,
    /// Target vertex.
    pub to: u32,
    /// Real cost accumulated when traversing the edge (must be finite).
    pub cost: f64,
    /// Token count (a.k.a. transit time) of the edge.
    pub tokens: u32,
}

/// A directed graph with `(cost, tokens)` edge weights, in CSR-ish adjacency
/// form (edge list plus per-vertex out-edge index ranges built on demand).
#[derive(Debug, Clone, Default)]
pub struct RatioGraph {
    n: usize,
    edges: Vec<Edge>,
}

/// Errors produced by cycle-ratio analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RatioGraphError {
    /// The graph contains a circuit whose total token count is zero.
    ///
    /// For a timed event graph this is a deadlock: the circuit can never
    /// fire, so no steady-state period exists.
    ZeroTokenCycle {
        /// A witness circuit, as a vertex sequence (first vertex repeated at
        /// the end is *not* included).
        cycle: Vec<u32>,
    },
    /// An edge referenced a vertex `>= n`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u32,
    },
    /// An edge cost was non-finite.
    NonFiniteCost,
    /// An iterative algorithm failed to converge (should not happen on
    /// well-formed inputs; reported rather than looping forever).
    NoConvergence,
}

impl fmt::Display for RatioGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RatioGraphError::ZeroTokenCycle { cycle } => {
                write!(f, "zero-token (deadlocked) circuit through vertices {cycle:?}")
            }
            RatioGraphError::VertexOutOfRange { vertex } => {
                write!(f, "edge endpoint {vertex} out of range")
            }
            RatioGraphError::NonFiniteCost => write!(f, "edge cost is not finite"),
            RatioGraphError::NoConvergence => write!(f, "cycle-ratio iteration did not converge"),
        }
    }
}

impl std::error::Error for RatioGraphError {}

/// The result of a maximum-cycle-ratio computation.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleSolution {
    /// The maximum cycle ratio `Σcost / Σtokens`, computed exactly from the
    /// witness circuit (not from a numeric tolerance).
    pub ratio: f64,
    /// A witness critical circuit as a vertex sequence `v0 → v1 → … → v0`
    /// (the closing vertex is not repeated).
    pub cycle: Vec<u32>,
    /// Total cost along the witness circuit.
    pub cost: f64,
    /// Total token count along the witness circuit (always ≥ 1).
    pub tokens: u64,
}

impl RatioGraph {
    /// Creates an empty graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        RatioGraph { n, edges: Vec::new() }
    }

    /// Creates an empty graph with `n` vertices and room for `cap` edges.
    pub fn with_capacity(n: usize, cap: usize) -> Self {
        RatioGraph { n, edges: Vec::with_capacity(cap) }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Resets the graph to `n` vertices and no edges, **keeping the edge
    /// buffer's capacity** — the arena primitive behind
    /// `tpn::analysis::ratio_graph_into` and the period engine's reuse.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.edges.clear();
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a directed edge. Endpoints must be `< n`; `cost` must be finite.
    pub fn add_edge(&mut self, from: u32, to: u32, cost: f64, tokens: u32) {
        debug_assert!((from as usize) < self.n && (to as usize) < self.n);
        debug_assert!(cost.is_finite());
        self.edges.push(Edge { from, to, cost, tokens });
    }

    /// All edges, in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Overwrites the cost of edge `idx` (insertion order) in place,
    /// leaving endpoints and tokens untouched — the delta-update primitive
    /// behind `tpn::analysis::period_patched_with`, which re-weights a
    /// structurally unchanged graph instead of rebuilding it.
    pub fn set_edge_cost(&mut self, idx: usize, cost: f64) {
        debug_assert!(cost.is_finite());
        self.edges[idx].cost = cost;
    }

    /// Validates endpoints and costs.
    pub fn validate(&self) -> Result<(), RatioGraphError> {
        for e in &self.edges {
            if (e.from as usize) >= self.n {
                return Err(RatioGraphError::VertexOutOfRange { vertex: e.from });
            }
            if (e.to as usize) >= self.n {
                return Err(RatioGraphError::VertexOutOfRange { vertex: e.to });
            }
            if !e.cost.is_finite() {
                return Err(RatioGraphError::NonFiniteCost);
            }
        }
        Ok(())
    }

    /// Builds the CSR adjacency: returns `(offsets, edge_indices)` such that
    /// the out-edges of vertex `v` are `edge_indices[offsets[v]..offsets[v+1]]`
    /// (indices into [`RatioGraph::edges`]).
    pub fn adjacency(&self) -> (Vec<u32>, Vec<u32>) {
        let mut offsets = vec![0u32; self.n + 1];
        for e in &self.edges {
            offsets[e.from as usize + 1] += 1;
        }
        for i in 0..self.n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut idx = vec![0u32; self.edges.len()];
        for (i, e) in self.edges.iter().enumerate() {
            let c = &mut cursor[e.from as usize];
            idx[*c as usize] = i as u32;
            *c += 1;
        }
        (offsets, idx)
    }

    /// Restriction of the graph to a vertex subset: returns the subgraph and
    /// the mapping `old vertex → new vertex` (dense renumbering).
    ///
    /// Edges with either endpoint outside the subset are dropped.
    pub fn restrict(&self, keep: &[u32]) -> (RatioGraph, Vec<Option<u32>>) {
        let mut map: Vec<Option<u32>> = vec![None; self.n];
        for (new, &old) in keep.iter().enumerate() {
            map[old as usize] = Some(new as u32);
        }
        let mut sub = RatioGraph::new(keep.len());
        for e in &self.edges {
            if let (Some(f), Some(t)) = (map[e.from as usize], map[e.to as usize]) {
                sub.add_edge(f, t, e.cost, e.tokens);
            }
        }
        (sub, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacency_groups_out_edges() {
        let mut g = RatioGraph::new(3);
        g.add_edge(0, 1, 1.0, 0);
        g.add_edge(2, 0, 2.0, 1);
        g.add_edge(0, 2, 3.0, 0);
        let (off, idx) = g.adjacency();
        assert_eq!(off, vec![0, 2, 2, 3]);
        let outs0: Vec<u32> = idx[off[0] as usize..off[1] as usize].to_vec();
        assert_eq!(outs0, vec![0, 2]);
    }

    #[test]
    fn restrict_keeps_internal_edges() {
        let mut g = RatioGraph::new(4);
        g.add_edge(0, 1, 1.0, 1);
        g.add_edge(1, 2, 1.0, 1);
        g.add_edge(2, 0, 1.0, 1);
        g.add_edge(3, 0, 9.0, 1);
        let (sub, map) = g.restrict(&[0, 1, 2]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 3);
        assert_eq!(map[3], None);
    }

    #[test]
    fn validate_catches_bad_vertex() {
        let mut g = RatioGraph::new(1);
        g.edges.push(Edge { from: 0, to: 5, cost: 1.0, tokens: 0 });
        assert!(matches!(g.validate(), Err(RatioGraphError::VertexOutOfRange { vertex: 5 })));
    }
}
