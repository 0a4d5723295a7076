//! Steady-state analysis of timed event graphs.
//!
//! After a transient, every transition of a live TEG fires exactly once per
//! period `P`, and `P` equals the maximum over circuits of
//! `Σ firing times / Σ tokens` (Baccelli, Cohen, Olsder, Quadrat,
//! *Synchronization and Linearity*, 1992 — reference \[2\] of the paper).
//! This module bridges the net to the `maxplus` cycle-ratio algorithms and
//! maps the critical circuit back to transitions.

use crate::net::{TimedEventGraph, TransitionId};
use maxplus::graph::RatioGraph;
use maxplus::graph::RatioGraphError;
use maxplus::howard::max_cycle_ratio;
use maxplus::lawler::max_cycle_ratio_lawler;

/// The steady-state period of a net, with its critical circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodSolution {
    /// The period: maximum cycle ratio of the net. One firing of every
    /// transition per `period` time units in steady state.
    pub period: f64,
    /// Transitions of a critical circuit, in circuit order.
    pub critical: Vec<TransitionId>,
    /// Total firing time along the critical circuit.
    pub cost: f64,
    /// Total tokens along the critical circuit.
    pub tokens: u64,
}

/// Errors from period analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The net deadlocks: some circuit carries no token.
    Deadlock {
        /// Transitions of a deadlocked circuit.
        circuit: Vec<TransitionId>,
    },
    /// Numerical failure in the underlying solver.
    Numeric(String),
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::Deadlock { circuit } => {
                write!(f, "deadlocked (token-free) circuit through {} transitions", circuit.len())
            }
            AnalysisError::Numeric(msg) => write!(f, "numeric failure: {msg}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Builds the cycle-ratio view of a net: one vertex per transition, one edge
/// per place (`pre → post`) carrying the *pre* transition's firing time as
/// cost and the place's marking as tokens.
///
/// Along any circuit each transition contributes its firing time exactly
/// once (as the `pre` of the next place), so circuit cost = Σ firing times.
pub fn ratio_graph(net: &TimedEventGraph) -> RatioGraph {
    let mut g = RatioGraph::with_capacity(net.num_transitions(), net.num_places());
    ratio_graph_into(net, &mut g);
    g
}

/// [`ratio_graph`] into a caller-owned graph: resets `g` and rebuilds it
/// in place, reusing its edge buffer (no allocation once the buffer has
/// grown to the largest net seen).
pub fn ratio_graph_into(net: &TimedEventGraph, g: &mut RatioGraph) {
    g.reset(net.num_transitions());
    for p in net.places() {
        g.add_edge(p.pre.0, p.post.0, net.transition(p.pre).firing_time, p.tokens);
    }
}

/// Reusable scratch for repeated period computations: the cycle-ratio view
/// of the net plus the `maxplus` solver workspace. Hold one per solver
/// thread and feed it to [`period_with`]; every buffer — the ratio graph,
/// the CSR adjacency, Tarjan's stacks, Howard's policy arrays — is reused
/// across calls, and the converged policy enables warm-started iteration.
#[derive(Debug, Clone, Default)]
pub struct PeriodScratch {
    graph: RatioGraph,
    ws: maxplus::Workspace,
    // Place indices grouped by *pre* transition (CSR layout): the edges of
    // `graph` whose cost must change when that transition is re-timed.
    // Built lazily on the first patched solve after a rebuild (the place
    // structure is intact in the net, so it can always be derived there).
    pre_offsets: Vec<u32>,
    pre_places: Vec<u32>,
    pre_valid: bool,
    // Structure generation of `graph`: bumped on every rebuild
    // ([`period_with`]) and handed to the workspace as its structure
    // token, so patched solves ([`period_patched_with`]) — which only
    // re-weight edges — reuse the cached CSR adjacency and Tarjan
    // condensation of the rebuild solve (zero CSR builds, zero Tarjan
    // runs on the patch path).
    structure_gen: u64,
}

impl PeriodScratch {
    /// Creates an empty scratch (no allocation until the first solve).
    pub fn new() -> Self {
        PeriodScratch::default()
    }

    /// Forgets the warm-start policy of the previous solve.
    pub fn clear_warm_start(&mut self) {
        self.ws.clear_warm_start();
    }

    fn build_pre_index(&mut self, net: &TimedEventGraph) {
        let n = net.num_transitions();
        self.pre_offsets.clear();
        self.pre_offsets.resize(n + 1, 0);
        for p in net.places() {
            self.pre_offsets[p.pre.0 as usize + 1] += 1;
        }
        for i in 0..n {
            self.pre_offsets[i + 1] += self.pre_offsets[i];
        }
        let mut cursor: Vec<u32> = self.pre_offsets[..n].to_vec();
        self.pre_places.clear();
        self.pre_places.resize(net.num_places(), 0);
        for (i, p) in net.places().iter().enumerate() {
            let c = &mut cursor[p.pre.0 as usize];
            self.pre_places[*c as usize] = i as u32;
            *c += 1;
        }
        self.pre_valid = true;
    }
}

/// Computes the period of the net reusing `scratch` across calls.
///
/// With `warm` set, Howard's policy iteration starts from the converged
/// policy of the previous solve whenever the graph shape matches — the
/// intended mode for evaluating families of related nets (neighbor
/// mappings in a search). The result is identical either way on generic
/// inputs: the ratio is recomputed exactly from the witness circuit; only
/// the search path differs. When distinct circuits tie for critical within
/// the solver's eps (~1e-12 relative), the reported witness — and its last
/// bits — may differ.
pub fn period_with(
    net: &TimedEventGraph,
    scratch: &mut PeriodScratch,
    warm: bool,
) -> Result<Option<PeriodSolution>, AnalysisError> {
    ratio_graph_into(net, &mut scratch.graph);
    // The place structure may have changed: the patch index of any previous
    // net no longer applies, and the solver must not reuse a condensation
    // computed for the old structure.
    scratch.pre_valid = false;
    scratch.structure_gen = scratch.structure_gen.wrapping_add(1);
    solve(scratch, warm)
}

/// Incremental variant of [`period_with`]: instead of rebuilding the
/// cycle-ratio view, re-weights the edges fed by the `changed` transitions
/// with their current firing times and re-solves.
///
/// **Caller contract:** the last rebuild solve on this `scratch`
/// ([`period_with`]) must have been for a net with the *identical place
/// structure* (same `pre`/`post`/`tokens` per place, in order) — only
/// firing times may differ, and every transition whose time differs from
/// that last solve must be listed in `changed` (duplicates and unchanged
/// entries are harmless). Under that contract the patched graph is
/// bit-for-bit the graph a full rebuild would produce, so the result — and,
/// with `warm`, the whole solver trajectory — is identical to the
/// rebuild path. The contract is upheld by
/// `repwf_core::engine::PeriodEngine`, which only patches when the mapping
/// change provably preserves the TPN shape.
pub fn period_patched_with(
    net: &TimedEventGraph,
    scratch: &mut PeriodScratch,
    warm: bool,
    changed: &[TransitionId],
) -> Result<Option<PeriodSolution>, AnalysisError> {
    assert_eq!(
        scratch.graph.num_vertices(),
        net.num_transitions(),
        "patched solve requires a scratch graph built from this net"
    );
    assert_eq!(
        scratch.graph.num_edges(),
        net.num_places(),
        "patched solve requires a scratch graph built from this net"
    );
    if !scratch.pre_valid {
        scratch.build_pre_index(net);
    }
    for &t in changed {
        let time = net.transition(t).firing_time;
        let (a, b) = (
            scratch.pre_offsets[t.0 as usize] as usize,
            scratch.pre_offsets[t.0 as usize + 1] as usize,
        );
        for &place in &scratch.pre_places[a..b] {
            scratch.graph.set_edge_cost(place as usize, time);
        }
    }
    solve(scratch, warm)
}

/// Every solve, whatever the net's size, runs the workspace's cached
/// sequential Howard. A strict TPN of a replicated chain is one strongly
/// connected component (pinned in `tests/invariants.rs` on a draw of
/// over 400 000 transitions), so a per-component fan-out would have
/// nothing to share out.
fn solve(scratch: &mut PeriodScratch, warm: bool) -> Result<Option<PeriodSolution>, AnalysisError> {
    // Always present the structure generation as the workspace's token:
    // the rebuild solve records it, and every patched solve until the next
    // rebuild hits the cached CSR + condensation (the workspace drops the
    // cache itself on a solve error).
    convert(scratch.ws.max_cycle_ratio_cached(&scratch.graph, scratch.structure_gen, warm))
}

/// Shape-batched period analysis: stages the firing-time planes of `k`
/// nets sharing one place structure and solves them over one shared
/// condensation ([`maxplus::Workspace::max_cycle_ratio_batch`]).
///
/// The caller names each structure with a `key`; consecutive batches under
/// the same key (and dimensions) reuse the staged ratio-graph structure
/// *and* the solver's cached CSR + Tarjan condensation — one structural
/// phase per shape, however many instances flow through. Results are
/// bit-for-bit those of a cold [`period_with`] per instance.
#[derive(Debug, Clone, Default)]
pub struct PeriodBatch {
    graph: RatioGraph,
    ws: maxplus::Workspace,
    planes: maxplus::batch::CostPlanes,
    /// Per place (edge insertion order): the *pre* transition whose firing
    /// time is that edge's cost.
    pre: Vec<u32>,
    have: Option<(u64, usize, usize)>,
    key: u64,
    k: usize,
}

impl PeriodBatch {
    /// Creates an empty batch scratch (no allocation until first use).
    pub fn new() -> Self {
        PeriodBatch::default()
    }

    /// Stages the shared structure of the next batch: `net` supplies the
    /// place structure (its firing times are irrelevant — per-instance
    /// times arrive via [`PeriodBatch::stage`]), `k` the number of
    /// instances, and `key` the caller's canonical shape token. A repeated
    /// `(key, dims)` skips the ratio-graph rebuild here and the CSR +
    /// condensation work inside the solve.
    pub fn set_structure(&mut self, net: &TimedEventGraph, k: usize, key: u64) {
        let dims = (key, net.num_transitions(), net.num_places());
        if self.have != Some(dims) {
            ratio_graph_into(net, &mut self.graph);
            self.pre.clear();
            self.pre.extend(net.places().iter().map(|p| p.pre.0));
            self.have = Some(dims);
            self.key = key;
        }
        self.k = k;
        self.planes.reset(k, self.graph.num_edges());
    }

    /// Stages instance `q`'s firing times (`times[t]` = firing time of
    /// transition `t`, as produced by one TPN build of this structure).
    pub fn stage(&mut self, q: usize, times: &[f64]) {
        let plane = self.planes.plane_mut(q);
        for (c, &t) in plane.iter_mut().zip(&self.pre) {
            *c = times[t as usize];
        }
    }

    /// Solves every staged instance in one batched pass. Results are in
    /// stage order, each bit-for-bit equal to a cold [`period_with`] on
    /// the net with that instance's firing times.
    pub fn solve(&mut self) -> Vec<Result<Option<PeriodSolution>, AnalysisError>> {
        self.ws
            .max_cycle_ratio_batch(&self.graph, self.key, &self.planes)
            .into_iter()
            .map(convert)
            .collect()
    }
}

fn convert(
    res: Result<Option<maxplus::CycleSolution>, RatioGraphError>,
) -> Result<Option<PeriodSolution>, AnalysisError> {
    match res {
        Ok(None) => Ok(None),
        Ok(Some(sol)) => Ok(Some(PeriodSolution {
            period: sol.ratio,
            critical: sol.cycle.into_iter().map(TransitionId).collect(),
            cost: sol.cost,
            tokens: sol.tokens,
        })),
        Err(RatioGraphError::ZeroTokenCycle { cycle }) => {
            Err(AnalysisError::Deadlock { circuit: cycle.into_iter().map(TransitionId).collect() })
        }
        Err(e) => Err(AnalysisError::Numeric(e.to_string())),
    }
}

/// Computes the period of the net (Howard's iteration). `Ok(None)` when the
/// net has no circuit at all (pure pipeline: unbounded throughput).
pub fn period(net: &TimedEventGraph) -> Result<Option<PeriodSolution>, AnalysisError> {
    convert(max_cycle_ratio(&ratio_graph(net)))
}

/// Same as [`period`] but via Lawler's parametric search — an independent
/// cross-check of the Howard result.
pub fn period_lawler(net: &TimedEventGraph) -> Result<Option<PeriodSolution>, AnalysisError> {
    convert(max_cycle_ratio_lawler(&ratio_graph(net)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use repwf_obs::counted;
    use repwf_obs::CounterId::{CsrBuilds, TarjanRuns};

    /// Runs `f`, adding its CSR builds and Tarjan runs on this thread to
    /// `acc`.
    fn tally<R>(acc: &mut (u64, u64), f: impl FnOnce() -> R) -> R {
        let (r, c) = counted(f);
        acc.0 += c[CsrBuilds];
        acc.1 += c[TarjanRuns];
        r
    }

    #[test]
    fn ping_pong_period() {
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(3.0, "a");
        let b = net.add_transition(5.0, "b");
        net.add_place(a, b, 1, "ab");
        net.add_place(b, a, 1, "ba");
        let sol = period(&net).unwrap().unwrap();
        assert!((sol.period - 4.0).abs() < 1e-12);
        assert_eq!(sol.tokens, 2);
        assert_eq!(sol.critical.len(), 2);
    }

    #[test]
    fn self_loop_resource() {
        // A single resource with a recycling token: period = firing time.
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(7.0, "a");
        net.add_place(a, a, 1, "self");
        let sol = period(&net).unwrap().unwrap();
        assert!((sol.period - 7.0).abs() < 1e-12);
    }

    #[test]
    fn acyclic_unbounded() {
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(1.0, "a");
        let b = net.add_transition(1.0, "b");
        net.add_place(a, b, 0, "ab");
        assert_eq!(period(&net).unwrap(), None);
    }

    #[test]
    fn deadlock_reported() {
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(1.0, "a");
        let b = net.add_transition(1.0, "b");
        net.add_place(a, b, 0, "ab");
        net.add_place(b, a, 0, "ba");
        match period(&net) {
            Err(AnalysisError::Deadlock { circuit }) => assert_eq!(circuit.len(), 2),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn howard_and_lawler_agree() {
        // 3-transition chain with a slow feedback loop.
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(2.0, "a");
        let b = net.add_transition(4.0, "b");
        let c = net.add_transition(6.0, "c");
        net.add_place(a, b, 0, "ab");
        net.add_place(b, c, 0, "bc");
        net.add_place(c, a, 2, "ca");
        net.add_place(b, b, 1, "bb");
        let h = period(&net).unwrap().unwrap();
        let l = period_lawler(&net).unwrap().unwrap();
        assert!((h.period - l.period).abs() < 1e-9);
        assert!((h.period - 6.0).abs() < 1e-12); // cycle abc: 12/2 = 6 > bb: 4
    }

    #[test]
    fn period_with_scratch_matches_one_shot() {
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(2.0, "a");
        let b = net.add_transition(4.0, "b");
        let c = net.add_transition(6.0, "c");
        net.add_place(a, b, 0, "ab");
        net.add_place(b, c, 0, "bc");
        net.add_place(c, a, 2, "ca");
        net.add_place(b, b, 1, "bb");
        let reference = period(&net).unwrap().unwrap();
        let mut scratch = PeriodScratch::new();
        for warm in [false, true, true] {
            let sol = period_with(&net, &mut scratch, warm).unwrap().unwrap();
            assert_eq!(sol.period.to_bits(), reference.period.to_bits());
            assert_eq!(sol.critical, reference.critical);
        }
    }

    #[test]
    fn scratch_survives_net_rebuilds() {
        // The arena flow of the period engine: clear + rebuild the same net
        // buffer with different timings, solving warm each time.
        let mut net = TimedEventGraph::new();
        let mut scratch = PeriodScratch::new();
        for k in 1..=5u32 {
            net.clear();
            let a = net.add_transition(f64::from(k), "a");
            let b = net.add_transition(2.0 * f64::from(k), "b");
            net.add_place(a, b, 1, "ab");
            net.add_place(b, a, 1, "ba");
            let sol = period_with(&net, &mut scratch, true).unwrap().unwrap();
            assert!((sol.period - 1.5 * f64::from(k)).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn patched_solve_matches_rebuild_bitwise() {
        // Same structure, re-timed transitions: the patched path must equal
        // a full rebuild bit for bit, warm or cold.
        let build = |net: &mut TimedEventGraph, ta: f64, tb: f64| {
            net.clear();
            let a = net.add_transition(ta, "a");
            let b = net.add_transition(tb, "b");
            let c = net.add_transition(6.0, "c");
            net.add_place(a, b, 0, "ab");
            net.add_place(b, c, 0, "bc");
            net.add_place(c, a, 2, "ca");
            net.add_place(b, b, 1, "bb");
        };
        let mut net = TimedEventGraph::new();
        let mut patched = PeriodScratch::new();
        let mut rebuilt = PeriodScratch::new();
        // (CSR builds, Tarjan runs) of each scratch's solves.
        let (mut patched_work, mut rebuilt_work) = ((0, 0), (0, 0));
        build(&mut net, 2.0, 4.0);
        for warm in [false, true] {
            let a = tally(&mut patched_work, || period_with(&net, &mut patched, warm));
            let b = tally(&mut rebuilt_work, || period_with(&net, &mut rebuilt, warm));
            let (a, b) = (a.unwrap().unwrap(), b.unwrap().unwrap());
            assert_eq!(a.period.to_bits(), b.period.to_bits());
            for k in 1..=4u32 {
                let (ta, tb) = (2.0 + f64::from(k), 4.0 + 0.5 * f64::from(k));
                net.patch(TransitionId(0), ta);
                net.patch(TransitionId(1), tb);
                let p = tally(&mut patched_work, || {
                    period_patched_with(
                        &net,
                        &mut patched,
                        warm,
                        &[TransitionId(0), TransitionId(1)],
                    )
                })
                .unwrap()
                .unwrap();
                let r = tally(&mut rebuilt_work, || period_with(&net, &mut rebuilt, warm))
                    .unwrap()
                    .unwrap();
                assert_eq!(p.period.to_bits(), r.period.to_bits(), "warm={warm} k={k}");
                assert_eq!(p.critical, r.critical);
                assert_eq!(p.tokens, r.tokens);
            }
        }
        // The patched scratch solved 10 times but only its 2 rebuild
        // solves touched the structure; the rebuilding scratch condensed
        // on every one of its 10 solves.
        assert_eq!(patched_work, (2, 2));
        assert_eq!(rebuilt_work, (10, 10));
    }

    #[test]
    fn errored_solve_is_not_reused_by_the_next_patched_solve() {
        // A deadlocked net errors through both entry points; the failed
        // solve must leave no cached condensation behind, so the patched
        // retry condenses again instead of reusing stale state.
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(1.0, "a");
        let b = net.add_transition(1.0, "b");
        net.add_place(a, b, 0, "ab");
        net.add_place(b, a, 0, "ba");
        let mut scratch = PeriodScratch::new();
        assert!(matches!(
            period_with(&net, &mut scratch, true),
            Err(AnalysisError::Deadlock { .. })
        ));
        let (res, c) = counted(|| period_patched_with(&net, &mut scratch, true, &[a]));
        assert!(matches!(res, Err(AnalysisError::Deadlock { .. })));
        assert_eq!(c[CsrBuilds], 1, "error must invalidate the cache");
        // The scratch recovers fully once the net is live.
        net.clear();
        let a = net.add_transition(3.0, "a");
        let b = net.add_transition(5.0, "b");
        net.add_place(a, b, 1, "ab");
        net.add_place(b, a, 1, "ba");
        let sol = period_with(&net, &mut scratch, true).unwrap().unwrap();
        assert!((sol.period - 4.0).abs() < 1e-12);
    }

    #[test]
    fn patched_solves_skip_csr_and_tarjan() {
        // The headline counter check at this layer: after the rebuild
        // solve, a run of patched solves performs zero CSR builds and zero
        // Tarjan runs, warm or cold.
        for warm in [false, true] {
            let mut net = TimedEventGraph::new();
            let a = net.add_transition(2.0, "a");
            let b = net.add_transition(4.0, "b");
            net.add_place(a, b, 1, "ab");
            net.add_place(b, a, 1, "ba");
            let mut scratch = PeriodScratch::new();
            let mut work = (0, 0);
            tally(&mut work, || period_with(&net, &mut scratch, warm)).unwrap();
            assert_eq!(work, (1, 1));
            for k in 1..=8u32 {
                net.patch(a, 2.0 + f64::from(k));
                tally(&mut work, || period_patched_with(&net, &mut scratch, warm, &[a])).unwrap();
            }
            assert_eq!(work, (1, 1), "warm={warm}: patched solves must be structurally free");
        }
    }

    #[test]
    fn patch_returns_previous_time_and_updates() {
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(3.0, "a");
        net.add_place(a, a, 1, "self");
        assert_eq!(net.patch(a, 9.0), 3.0);
        let sol = period(&net).unwrap().unwrap();
        assert!((sol.period - 9.0).abs() < 1e-12);
    }

    fn firing_times(net: &TimedEventGraph) -> Vec<f64> {
        (0..net.num_transitions() as u32)
            .map(|t| net.transition(TransitionId(t)).firing_time)
            .collect()
    }

    #[test]
    fn period_batch_matches_cold_period_with_bitwise() {
        // One structure (chain + feedback + self-loop), k re-timed
        // instances per batch, two batches under one key: every result
        // must equal a cold rebuild solve bit for bit, and the second
        // batch must not condense again.
        let build = |net: &mut TimedEventGraph, ta: f64, tb: f64| {
            net.clear();
            let a = net.add_transition(ta, "a");
            let b = net.add_transition(tb, "b");
            let c = net.add_transition(6.0, "c");
            net.add_place(a, b, 0, "ab");
            net.add_place(b, c, 0, "bc");
            net.add_place(c, a, 2, "ca");
            net.add_place(b, b, 1, "bb");
        };
        let mut net = TimedEventGraph::new();
        let mut batch = PeriodBatch::new();
        let mut reference = PeriodScratch::new();
        let mut work = (0, 0);
        for round in 0..2 {
            build(&mut net, 1.0, 1.0);
            tally(&mut work, || batch.set_structure(&net, 3, 42));
            let mut solo = Vec::new();
            for q in 0..3 {
                let (ta, tb) = (1.0 + f64::from(round) + q as f64, 4.0 + 0.5 * q as f64);
                build(&mut net, ta, tb);
                batch.stage(q, &firing_times(&net));
                solo.push(period_with(&net, &mut reference, false).unwrap().unwrap());
            }
            let solved = tally(&mut work, || batch.solve());
            for (q, (b, s)) in solved.iter().zip(&solo).enumerate() {
                let b = b.as_ref().unwrap().as_ref().unwrap();
                assert_eq!(b.period.to_bits(), s.period.to_bits(), "round {round} q {q}");
                assert_eq!(b.critical, s.critical, "round {round} q {q}");
                assert_eq!(b.cost.to_bits(), s.cost.to_bits(), "round {round} q {q}");
                assert_eq!(b.tokens, s.tokens, "round {round} q {q}");
            }
            assert_eq!(work, (1, 1), "round {round}: one structural phase per shape");
        }
    }

    #[test]
    fn period_batch_reports_deadlock_per_instance() {
        // A structure whose only circuit is token-free deadlocks every
        // instance with the same error `period` reports.
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(1.0, "a");
        let b = net.add_transition(2.0, "b");
        net.add_place(a, b, 0, "ab");
        net.add_place(b, a, 0, "ba");
        let mut batch = PeriodBatch::new();
        batch.set_structure(&net, 2, 7);
        batch.stage(0, &[1.0, 2.0]);
        batch.stage(1, &[3.0, 4.0]);
        for res in batch.solve() {
            match res {
                Err(AnalysisError::Deadlock { circuit }) => assert_eq!(circuit.len(), 2),
                other => panic!("expected deadlock, got {other:?}"),
            }
        }
    }

    #[test]
    fn critical_cost_token_consistency() {
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(2.0, "a");
        let b = net.add_transition(10.0, "b");
        net.add_place(a, b, 1, "ab");
        net.add_place(b, a, 2, "ba");
        let sol = period(&net).unwrap().unwrap();
        assert!((sol.cost / sol.tokens as f64 - sol.period).abs() < 1e-12);
    }
}
