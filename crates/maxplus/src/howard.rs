//! Howard's policy iteration for the **maximum cycle ratio**.
//!
//! Given a [`RatioGraph`], computes
//! `λ* = max over circuits C of Σcost(C) / Σtokens(C)` together with a
//! witness circuit. This is the algorithm the paper relies on to evaluate
//! critical cycles of timed event graphs (the authors used the ERS/GreatSPN
//! tools; Howard's iteration computes the same quantity and is the fastest
//! known method in practice).
//!
//! The implementation is the classic multi-chain policy iteration:
//! repeatedly (1) evaluate the current policy — a choice of one out-edge per
//! vertex — by finding the cycles of the policy's functional graph, and
//! (2) improve the policy, first by cycle-ratio value, then by potential.
//! Both improvement tests use a small relative tolerance; the returned ratio
//! is always recomputed *exactly* from the witness circuit, so tolerances
//! only affect how long the search runs, not the reported value.
//!
//! The solver itself lives in [`crate::workspace`]: one kernel that runs
//! per SCC on a shared CSR adjacency and borrows every scratch vector from
//! a caller-owned [`Workspace`], which makes repeated solves
//! allocation-free and enables warm-started iteration
//! ([`Workspace::max_cycle_ratio_cached`]); shape batches
//! ([`crate::batch`]) run the same kernel lane after lane. The kernel
//! iterates on the **contracted
//! choice graph**: a *forced* vertex (one in-component out-edge) can never
//! change policy, so each chain of forced vertices between two *choice
//! vertices* (two or more such edges) becomes one edge carrying the
//! chain's cost and token sums, and policy evaluation and both
//! improvement phases visit choice vertices only. Cycle roots, every λ
//! and the witness (extracted on the expanded graph) are those of a
//! solver that walks every vertex; only potentials change their float
//! association, which can move a decision only on a near-tie inside the
//! eps band. Rounds in which every policy cycle has the same λ skip the
//! λ-improvement sweep, which cannot improve anything then. The
//! [`crate::workspace`] docs give the argument. This module keeps the
//! simple one-shot entry point.

use crate::graph::RatioGraph;
use crate::graph::{CycleSolution, RatioGraphError};
use crate::workspace::Workspace;

/// Result alias for cycle-ratio computations.
pub type RatioResult = Result<Option<CycleSolution>, RatioGraphError>;

/// Computes the maximum cycle ratio of `g` with Howard's policy iteration.
///
/// Returns `Ok(None)` when the graph has no circuit at all, and
/// [`RatioGraphError::ZeroTokenCycle`] when a circuit with zero total tokens
/// exists (a deadlocked event graph has no finite period).
///
/// One-shot convenience: allocates a fresh [`Workspace`] per call. Hot
/// loops (campaigns, mapping searches) should hold a [`Workspace`] — or a
/// `repwf_core::engine::PeriodEngine` — and reuse it instead.
pub fn max_cycle_ratio(g: &RatioGraph) -> RatioResult {
    Workspace::new().max_cycle_ratio(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_cycle() {
        let g = RatioGraph::new(3);
        assert_eq!(max_cycle_ratio(&g).unwrap(), None);
    }

    #[test]
    fn dag_has_no_cycle() {
        let mut g = RatioGraph::new(3);
        g.add_edge(0, 1, 5.0, 1);
        g.add_edge(1, 2, 5.0, 1);
        assert_eq!(max_cycle_ratio(&g).unwrap(), None);
    }

    #[test]
    fn self_loop() {
        let mut g = RatioGraph::new(1);
        g.add_edge(0, 0, 7.5, 3);
        let sol = max_cycle_ratio(&g).unwrap().unwrap();
        assert!((sol.ratio - 2.5).abs() < 1e-12);
        assert_eq!(sol.cycle, vec![0]);
    }

    #[test]
    fn picks_worse_of_two_loops() {
        let mut g = RatioGraph::new(2);
        g.add_edge(0, 0, 2.0, 1); // ratio 2
        g.add_edge(1, 1, 9.0, 2); // ratio 4.5
        g.add_edge(0, 1, 0.0, 0);
        let sol = max_cycle_ratio(&g).unwrap().unwrap();
        assert!((sol.ratio - 4.5).abs() < 1e-12);
    }

    #[test]
    fn zero_token_cycle_is_deadlock() {
        let mut g = RatioGraph::new(2);
        g.add_edge(0, 1, 1.0, 0);
        g.add_edge(1, 0, 1.0, 0);
        match max_cycle_ratio(&g) {
            Err(RatioGraphError::ZeroTokenCycle { cycle }) => assert_eq!(cycle.len(), 2),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn mixed_token_counts() {
        // Cycle A: 0→1→0, cost 10, tokens 1 → ratio 10.
        // Cycle B: 0→1→2→0, cost 12, tokens 4 → ratio 3.
        let mut g = RatioGraph::new(3);
        g.add_edge(0, 1, 4.0, 1);
        g.add_edge(1, 0, 6.0, 0);
        g.add_edge(1, 2, 5.0, 1);
        g.add_edge(2, 0, 3.0, 2);
        let sol = max_cycle_ratio(&g).unwrap().unwrap();
        assert!((sol.ratio - 10.0).abs() < 1e-12);
        assert_eq!(sol.tokens, 1);
    }

    #[test]
    fn disconnected_components() {
        let mut g = RatioGraph::new(4);
        g.add_edge(0, 1, 1.0, 1);
        g.add_edge(1, 0, 1.0, 1); // ratio 1
        g.add_edge(2, 3, 30.0, 2);
        g.add_edge(3, 2, 10.0, 2); // ratio 10
        let sol = max_cycle_ratio(&g).unwrap().unwrap();
        assert!((sol.ratio - 10.0).abs() < 1e-12);
        assert!(sol.cycle.contains(&2) && sol.cycle.contains(&3));
    }

    #[test]
    fn parallel_edges_choose_max() {
        let mut g = RatioGraph::new(2);
        g.add_edge(0, 1, 1.0, 1);
        g.add_edge(0, 1, 8.0, 1);
        g.add_edge(1, 0, 1.0, 1);
        let sol = max_cycle_ratio(&g).unwrap().unwrap();
        assert!((sol.ratio - 4.5).abs() < 1e-12);
    }

    #[test]
    fn witness_ratio_is_consistent() {
        let mut g = RatioGraph::new(3);
        g.add_edge(0, 1, 2.0, 1);
        g.add_edge(1, 2, 3.0, 0);
        g.add_edge(2, 0, 4.0, 2);
        let sol = max_cycle_ratio(&g).unwrap().unwrap();
        assert!((sol.cost / sol.tokens as f64 - sol.ratio).abs() < 1e-12);
        assert!((sol.ratio - 3.0).abs() < 1e-12);
    }

    #[test]
    fn witness_uses_global_vertex_ids() {
        // The deadlock witness must be reported in the caller's vertex ids
        // even when the cycle lives in a later component.
        let mut g = RatioGraph::new(5);
        g.add_edge(0, 1, 1.0, 1); // acyclic prefix
        g.add_edge(3, 4, 1.0, 1);
        g.add_edge(4, 3, 2.0, 1);
        let sol = max_cycle_ratio(&g).unwrap().unwrap();
        assert!(sol.cycle.contains(&3) && sol.cycle.contains(&4));
    }
}
