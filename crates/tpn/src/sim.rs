//! Exact earliest-firing simulation of a timed event graph.
//!
//! Under earliest-firing semantics a TEG is a deterministic max-plus linear
//! system: the `k`-th firing start of transition `t` is
//!
//! ```text
//! x_t(k) = max over input places p = (s → t, M_p tokens) of
//!          { x_s(k − M_p) + τ_s   if k ≥ M_p,   0 otherwise }
//! ```
//!
//! (an initial token is available at time 0; a produced token becomes
//! available a firing-duration `τ_s` after the producer starts). Simulating
//! the recurrence for enough firings exposes the steady-state regime, which
//! is eventually periodic: `x_t(k + c) = x_t(k) + c·P` for the cyclicity `c`.
//! This gives an estimator of the period that is completely independent of
//! the critical-cycle analysis, and the firing schedule itself yields Gantt
//! charts (paper Figures 7 and 12).

use crate::net::TimedEventGraph;

/// The earliest firing schedule of a net: `start[t][k]` is the start time of
/// the `k`-th firing (0-indexed) of transition `t`.
#[derive(Debug, Clone)]
pub struct FiringSchedule {
    /// `start[t]` is the vector of firing start times of transition `t`.
    pub start: Vec<Vec<f64>>,
    /// Firing durations copied from the net (`start[t][k] + duration[t]` is
    /// the completion time).
    pub duration: Vec<f64>,
}

impl FiringSchedule {
    /// Number of firings simulated per transition.
    pub fn num_firings(&self) -> usize {
        self.start.first().map_or(0, Vec::len)
    }

    /// Estimates the per-firing period of transition `t` over the window of
    /// the last `window` firings: `(x(K−1) − x(K−1−window)) / window`.
    pub fn period_estimate(&self, t: usize, window: usize) -> f64 {
        let xs = &self.start[t];
        let k = xs.len();
        assert!(window > 0 && window < k, "window must be within the simulated range");
        (xs[k - 1] - xs[k - 1 - window]) / window as f64
    }

    /// Checks exact linear periodicity with cyclicity `c` over the last
    /// firings: verifies `x(k+c) − x(k)` is the same (within `tol`) for all
    /// transitions and the last few `k`; returns the common increment `c·P`
    /// divided by `c` (i.e. the exact period) if so.
    pub fn exact_period(&self, c: usize, tol: f64) -> Option<f64> {
        let k = self.num_firings();
        if k < 2 * c + 1 {
            return None;
        }
        let mut val: Option<f64> = None;
        for xs in &self.start {
            for j in (k - c - 2)..(k - c) {
                let inc = (xs[j + c] - xs[j]) / c as f64;
                match val {
                    None => val = Some(inc),
                    Some(v) if (v - inc).abs() <= tol * v.abs().max(1.0) => {}
                    _ => return None,
                }
            }
        }
        val
    }
}

/// Simulates `k` firings of every transition under earliest-firing semantics.
///
/// Within one firing index, `x_t(k)` depends on `x_s(k)` across every
/// zero-token place `s → t`, so transitions are evaluated in a topological
/// order of the zero-token subgraph (acyclic for any live event graph —
/// a zero-token circuit is a deadlock, and the function panics on one).
///
/// Time is `O(k · places)`; memory `O(k · transitions)`.
pub fn simulate(net: &TimedEventGraph, k: usize) -> FiringSchedule {
    let n = net.num_transitions();
    let inputs = net.input_places();
    let mut start = vec![vec![0.0f64; k]; n];
    let duration: Vec<f64> = net.transitions().iter().map(|t| t.firing_time).collect();

    // Topological order of the zero-token dependences.
    let mut indeg = vec![0u32; n];
    let mut zero_out: Vec<Vec<u32>> = vec![Vec::new(); n];
    for p in net.places() {
        if p.tokens == 0 {
            zero_out[p.pre.0 as usize].push(p.post.0);
            indeg[p.post.0 as usize] += 1;
        }
    }
    let mut order: Vec<u32> = (0..n as u32).filter(|&t| indeg[t as usize] == 0).collect();
    let mut head = 0;
    while head < order.len() {
        let v = order[head];
        head += 1;
        for &w in &zero_out[v as usize] {
            indeg[w as usize] -= 1;
            if indeg[w as usize] == 0 {
                order.push(w);
            }
        }
    }
    assert_eq!(
        order.len(),
        n,
        "zero-token circuit: the net deadlocks and has no earliest-firing schedule"
    );

    for firing in 0..k {
        for &t in &order {
            let t = t as usize;
            let mut ready = 0.0f64;
            for &pi in &inputs[t] {
                let p = &net.places()[pi as usize];
                let m = p.tokens as usize;
                if firing >= m {
                    let s = p.pre.0 as usize;
                    let cand = start[s][firing - m] + duration[s];
                    if cand > ready {
                        ready = cand;
                    }
                }
            }
            start[t][firing] = ready;
        }
    }
    FiringSchedule { start, duration }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::period;
    use crate::net::TimedEventGraph;

    fn ping_pong(ta: f64, tb: f64) -> TimedEventGraph {
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(ta, "a");
        let b = net.add_transition(tb, "b");
        net.add_place(a, b, 1, "ab");
        net.add_place(b, a, 1, "ba");
        net
    }

    #[test]
    fn schedule_matches_hand_computation() {
        // a: 3, b: 5, one token in each direction.
        // x_a(0) = 0 (initial tokens), x_b(0) = 0.
        // x_a(1) = x_b(0)+5 = 5; x_b(1) = x_a(0)+3 = 3.
        // x_a(2) = x_b(1)+5 = 8; x_b(2) = x_a(1)+3 = 8.
        let s = simulate(&ping_pong(3.0, 5.0), 3);
        assert_eq!(s.start[0], vec![0.0, 5.0, 8.0]);
        assert_eq!(s.start[1], vec![0.0, 3.0, 8.0]);
    }

    #[test]
    fn simulated_period_matches_analysis() {
        let net = ping_pong(3.0, 5.0);
        let s = simulate(&net, 200);
        let p = period(&net).unwrap().unwrap().period;
        let est = s.period_estimate(0, 50);
        assert!((est - p).abs() < 1e-9, "est {est} vs analytic {p}");
        // The critical circuit carries 2 tokens, so firing increments
        // alternate (5, 3, 5, 3, …): the schedule is periodic of cyclicity 2.
        assert_eq!(s.exact_period(1, 1e-9), None);
        let exact = s.exact_period(2, 1e-9).unwrap();
        assert!((exact - p).abs() < 1e-9);
    }

    #[test]
    fn cyclicity_two_system() {
        // Two parallel servers fed round-robin by a fast source: the firing
        // increments alternate, but over cyclicity 2 the period is exact.
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(1.0, "a");
        let b = net.add_transition(10.0, "b");
        let c = net.add_transition(4.0, "c");
        // a -> b -> a (tokens 1 each way), a -> c -> a (tokens 2 one way)
        net.add_place(a, b, 0, "ab");
        net.add_place(b, a, 1, "ba");
        net.add_place(a, c, 0, "ac");
        net.add_place(c, a, 2, "ca");
        let p = period(&net).unwrap().unwrap().period;
        let s = simulate(&net, 400);
        let est = s.period_estimate(0, 100);
        assert!((est - p).abs() < 1e-6, "est {est} vs analytic {p}");
    }

    #[test]
    fn source_transition_fires_at_zero() {
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(2.0, "a");
        let b = net.add_transition(1.0, "b");
        net.add_place(a, b, 0, "ab");
        // `a` has no inputs: fires at 0 every time (lint flags this).
        let s = simulate(&net, 4);
        assert_eq!(s.start[0], vec![0.0; 4]);
        assert_eq!(s.start[1], vec![2.0; 4]);
        assert_eq!(net.lint().len(), 1);
    }

    #[test]
    fn multi_token_place_skews_start() {
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(5.0, "a");
        net.add_place(a, a, 3, "self");
        let s = simulate(&net, 7);
        // 3 tokens: firings 0..3 start at 0; firing k starts at x(k-3)+5.
        assert_eq!(s.start[0], vec![0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 10.0]);
    }

    #[test]
    fn zero_token_place_against_index_order() {
        // Regression: a zero-token place whose pre has a HIGHER id than its
        // post must still be honoured within the same firing index.
        let mut net = TimedEventGraph::new();
        let early = net.add_transition(1.0, "early"); // id 0
        let late = net.add_transition(5.0, "late"); // id 1
                                                    // late feeds early with 0 tokens; each has a recycling self-loop.
        net.add_place(late, early, 0, "back");
        net.add_place(early, early, 1, "sa");
        net.add_place(late, late, 1, "sb");
        let s = simulate(&net, 4);
        // early(k) = late(k) + 5 = 5k + 5; with the stale-read bug it
        // would start at 0.
        assert_eq!(s.start[1], vec![0.0, 5.0, 10.0, 15.0]);
        assert_eq!(s.start[0], vec![5.0, 10.0, 15.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "deadlocks")]
    fn zero_token_circuit_panics() {
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(1.0, "a");
        let b = net.add_transition(1.0, "b");
        net.add_place(a, b, 0, "ab");
        net.add_place(b, a, 0, "ba");
        let _ = simulate(&net, 2);
    }
}
