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
//! but with entirely independent logic. The solver lives in
//! [`crate::workspace`], borrowing its Bellman–Ford distance/predecessor
//! arrays and the zero-token-subgraph DFS state from a caller-owned
//! [`Workspace`] so repeated cross-checks do not allocate.

use crate::graph::RatioGraph;
#[cfg(test)]
use crate::graph::RatioGraphError;
use crate::howard::RatioResult;
use crate::workspace::Workspace;

/// Computes the maximum cycle ratio by parametric search.
///
/// Semantics match [`crate::howard::max_cycle_ratio`]: `Ok(None)` for
/// acyclic graphs, `RatioGraphError::ZeroTokenCycle` for deadlocks.
///
/// One-shot convenience over [`Workspace::max_cycle_ratio_lawler`].
pub fn max_cycle_ratio_lawler(g: &RatioGraph) -> RatioResult {
    Workspace::new().max_cycle_ratio_lawler(g)
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
