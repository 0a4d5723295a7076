//! Structural place bounds of an event graph.
//!
//! In an event graph every circuit's token count is invariant, so the
//! maximum number of tokens a place `p = (a → b)` can ever hold equals the
//! *minimum* total marking over circuits through `p`:
//!
//! ```text
//! bound(p) = M₀(p) + min-token path weight from b back to a
//! ```
//!
//! (`∞` if `b` cannot reach `a`: the place is structurally unbounded — in
//! the workflow TPNs this is exactly the row-order places, whose buffers
//! the paper's unbounded-buffer model lets grow; the round-robin circuit
//! places are all 1-bounded.) Computed with one Dijkstra per place over
//! token weights.

use crate::net::TimedEventGraph;
use std::collections::BinaryHeap;

/// The bound of every place: `None` = structurally unbounded.
pub fn place_bounds(net: &TimedEventGraph) -> Vec<Option<u64>> {
    let n = net.num_transitions();
    // adjacency by place: edge pre → post with weight tokens
    let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
    for p in net.places() {
        adj[p.pre.0 as usize].push((p.post.0, u64::from(p.tokens)));
    }
    // group places by (post, pre) need: run Dijkstra from each distinct
    // source `post`; reuse distances for all places sharing it.
    let mut dist_cache: std::collections::BTreeMap<u32, Vec<u64>> =
        std::collections::BTreeMap::new();
    let mut out = Vec::with_capacity(net.num_places());
    for p in net.places() {
        let src = p.post.0;
        let dist = dist_cache.entry(src).or_insert_with(|| dijkstra(&adj, src, n));
        let d = dist[p.pre.0 as usize];
        out.push(if d == u64::MAX { None } else { Some(u64::from(p.tokens) + d) });
    }
    out
}

/// Min-token distance from `src` to every transition.
fn dijkstra(adj: &[Vec<(u32, u64)>], src: u32, n: usize) -> Vec<u64> {
    let mut dist = vec![u64::MAX; n];
    dist[src as usize] = 0;
    // max-heap on Reverse(distance)
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = BinaryHeap::new();
    heap.push(std::cmp::Reverse((0, src)));
    while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for &(w, c) in &adj[v as usize] {
            let nd = d + c;
            if nd < dist[w as usize] {
                dist[w as usize] = nd;
                heap.push(std::cmp::Reverse((nd, w)));
            }
        }
    }
    dist
}

/// Summary of the boundedness structure of a net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundsSummary {
    /// Places with a finite bound, with the maximum such bound.
    pub bounded: usize,
    /// The largest finite bound (0 when no place is bounded).
    pub max_bound: u64,
    /// Structurally unbounded places.
    pub unbounded: usize,
}

/// Computes the summary.
pub fn summary(net: &TimedEventGraph) -> BoundsSummary {
    let bounds = place_bounds(net);
    let mut s = BoundsSummary { bounded: 0, max_bound: 0, unbounded: 0 };
    for b in bounds {
        match b {
            Some(v) => {
                s.bounded += 1;
                s.max_bound = s.max_bound.max(v);
            }
            None => s.unbounded += 1,
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marking::TokenGame;
    use crate::net::{PlaceId, TimedEventGraph};

    #[test]
    fn ring_places_bounded_by_total() {
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(1.0, "a");
        let b = net.add_transition(1.0, "b");
        net.add_place(a, b, 2, "ab");
        net.add_place(b, a, 1, "ba");
        let bounds = place_bounds(&net);
        assert_eq!(bounds, vec![Some(3), Some(3)]);
    }

    #[test]
    fn forward_place_unbounded() {
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(1.0, "a");
        let b = net.add_transition(1.0, "b");
        net.add_place(a, a, 1, "self-a");
        net.add_place(b, b, 1, "self-b");
        net.add_place(a, b, 0, "forward");
        let bounds = place_bounds(&net);
        assert_eq!(bounds[0], Some(1));
        assert_eq!(bounds[1], Some(1));
        assert_eq!(bounds[2], None, "no return path: buffer can grow forever");
    }

    #[test]
    fn tighter_circuit_wins() {
        // Place ab sits on two circuits: a→b→a (1 token) and a→b→c→a (3).
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(1.0, "a");
        let b = net.add_transition(1.0, "b");
        let c = net.add_transition(1.0, "c");
        net.add_place(a, b, 0, "ab");
        net.add_place(b, a, 1, "ba");
        net.add_place(b, c, 1, "bc");
        net.add_place(c, a, 2, "ca");
        let bounds = place_bounds(&net);
        assert_eq!(bounds[0], Some(1), "min circuit through ab has 1 token");
    }

    #[test]
    fn bound_never_violated_by_token_game() {
        // Random-ish play on a two-circuit net: markings stay within bounds.
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(1.0, "a");
        let b = net.add_transition(1.0, "b");
        let c = net.add_transition(1.0, "c");
        net.add_place(a, b, 1, "ab");
        net.add_place(b, a, 1, "ba");
        net.add_place(b, c, 2, "bc");
        net.add_place(c, b, 0, "cb");
        let bounds = place_bounds(&net);
        let mut game = TokenGame::new(&net);
        let mut state = 11usize;
        for _ in 0..300 {
            let enabled = game.enabled_transitions();
            assert!(!enabled.is_empty());
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            game.fire(enabled[state % enabled.len()]);
            for (i, bound) in bounds.iter().enumerate() {
                if let Some(bv) = bound {
                    assert!(
                        game.marking().tokens(crate::net::PlaceId(i as u32)) <= *bv,
                        "place {i} exceeded bound {bv}"
                    );
                }
            }
        }
    }

    #[test]
    fn summary_counts() {
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(1.0, "a");
        let b = net.add_transition(1.0, "b");
        net.add_place(a, a, 2, "sa");
        net.add_place(a, b, 0, "fwd");
        let s = summary(&net);
        assert_eq!(s, BoundsSummary { bounded: 1, max_bound: 2, unbounded: 1 });
    }

    #[test]
    fn workflow_circuit_places_are_one_bounded() {
        // All round-robin circuit places of a mapping TPN are 1-bounded;
        // the row-order (dataflow) places are unbounded. Small hand net
        // mimicking one column with two replicas:
        let mut net = TimedEventGraph::new();
        let r0 = net.add_transition(2.0, "row0");
        let r1 = net.add_transition(2.0, "row1");
        let next0 = net.add_transition(1.0, "next0");
        net.add_place(r0, r1, 0, "rr chain");
        net.add_place(r1, r0, 1, "rr wrap");
        net.add_place(r0, next0, 0, "dataflow");
        net.add_place(next0, next0, 1, "self");
        let bounds = place_bounds(&net);
        assert_eq!(bounds[0], Some(1));
        assert_eq!(bounds[1], Some(1));
        assert_eq!(bounds[2], None);
    }

    #[test]
    fn place_id_type_alias_consistency() {
        // place_bounds output indexes line up with PlaceId order.
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(1.0, "a");
        let p0 = net.add_place(a, a, 4, "self");
        assert_eq!(p0, PlaceId(0));
        assert_eq!(place_bounds(&net)[0], Some(4));
    }
}
