//! Shape-batched Howard: k same-structure instances per policy-iteration
//! pass.
//!
//! Campaign experiments draw thousands of instances that collapse into a
//! handful of graph *shapes* — identical `from`/`to`/`tokens` per edge
//! index, different costs. Solving them one by one repeats the CSR build,
//! the Tarjan condensation and (worse) the pointer-chasing part of every
//! Howard pass per instance. This module amortizes all of that across a
//! batch:
//!
//! * **One structural phase per shape.** [`Workspace::max_cycle_ratio_batch`]
//!   shares the workspace's structure cache with the solo cached solve: a
//!   matching `(token, n, ne)` signature skips the CSR build and the
//!   condensation entirely, and a full batch re-arms the cache for the
//!   next one.
//! * **SoA cost planes.** Callers stage per-instance edge costs in a
//!   [`CostPlanes`] arena (`plane(q)[e]`, edge-insertion order). The solve
//!   transposes them once into an **interleaved CSR-order** array
//!   (`cost[pos·k + q]`), so the hot improvement loops walk the shared
//!   `targets`/`token_counts` arrays exactly once per pass while the
//!   per-instance inner loop over `q` streams k contiguous lanes — the
//!   auto-vectorizable layout.
//! * **Lock-step rounds.** Each policy-iteration round evaluates every
//!   still-active instance, then runs the phase-1 λ-improvement as one
//!   choice-vertex/edge sweep with per-instance policy columns. Instances
//!   converge (or fail) independently; finished lanes are masked out.
//! * **Choice vertices, per lane.** The choice index of the shared
//!   condensation (see [`crate::workspace`]) serves every lane: phase 1
//!   and phase 2 visit only the members with two or more in-component
//!   out-edges. A lane whose last evaluation found every policy cycle at
//!   the bit-identical λ is *λ-uniform*: it is left out of that round's
//!   phase-1 sweep and goes straight to phase 2, which skips its
//!   `λ[w] < λ[v] − eps` filter — exactly what the solo solver does for
//!   that instance in that round.
//!
//! Results are **bit-for-bit** those of the solo solvers: per instance
//! `q`, the batched iteration performs the same floating-point operations
//! in the same order as [`Workspace::max_cycle_ratio`] on a graph whose
//! edge costs equal plane `q` (property-tested below). Warm starts stay
//! off, matching the campaign engines' cold-solve discipline.

use crate::graph::{CycleSolution, RatioGraph, RatioGraphError};
use crate::howard::RatioResult;
use crate::workspace::{ChoiceIndex, Csr, Workspace};

/// Per-instance edge-cost planes for a batched solve, stored as one flat
/// structure-of-arrays arena: plane `q` is `data[q·ne .. (q+1)·ne]`,
/// indexed by **edge insertion order** (the same order as
/// [`RatioGraph::edges`]).
#[derive(Debug, Clone, Default)]
pub struct CostPlanes {
    k: usize,
    ne: usize,
    data: Vec<f64>,
}

impl CostPlanes {
    /// An empty arena (no allocation until [`CostPlanes::reset`]).
    pub fn new() -> Self {
        CostPlanes::default()
    }

    /// Resizes to `k` planes of `ne` edges each, zero-filled, reusing the
    /// backing buffer.
    pub fn reset(&mut self, k: usize, ne: usize) {
        self.k = k;
        self.ne = ne;
        self.data.clear();
        self.data.resize(k * ne, 0.0);
    }

    /// Number of instance planes.
    pub fn num_instances(&self) -> usize {
        self.k
    }

    /// Edges per plane.
    pub fn num_edges(&self) -> usize {
        self.ne
    }

    /// The cost plane of instance `q` (edge-insertion order).
    pub fn plane(&self, q: usize) -> &[f64] {
        &self.data[q * self.ne..(q + 1) * self.ne]
    }

    /// Mutable cost plane of instance `q` — stage the instance's edge
    /// costs here before solving.
    pub fn plane_mut(&mut self, q: usize) -> &mut [f64] {
        &mut self.data[q * self.ne..(q + 1) * self.ne]
    }
}

/// Reusable scratch for [`Workspace::max_cycle_ratio_batch`]: the
/// interleaved cost mirror, the per-vertex-per-instance policy/value
/// columns and the per-instance round bookkeeping. Create once per worker
/// and reuse — buffers grow to the largest `(n, ne, k)` seen.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// Interleaved CSR-order costs: `cost[pos·k + q]`.
    cost: Vec<f64>,
    /// Policy columns: `policy[v·k + q]` is a CSR position.
    policy: Vec<u32>,
    lambda: Vec<f64>,
    potential: Vec<f64>,
    /// Per-instance improvement tolerance of the current component.
    eps: Vec<f64>,
    /// Per-active-lane best CSR position / best value (init + phase 1).
    best_p: Vec<u32>,
    best_f: Vec<f64>,
    /// Per-instance flags and counters. `uniform[q]`: every policy cycle
    /// of lane `q` had the same λ in the last evaluation.
    done: Vec<bool>,
    changed: Vec<bool>,
    uniform: Vec<bool>,
    iters: Vec<usize>,
    /// Active-lane index list of the current round, and its lanes that
    /// take part in the phase-1 sweep (those not λ-uniform).
    act: Vec<u32>,
    sweep: Vec<u32>,
    /// Shared scalar walk scratch (policy evaluation, witness extraction).
    state: Vec<u8>,
    walk_pos: Vec<u32>,
    path: Vec<u32>,
}

impl BatchScratch {
    /// An empty scratch (no allocation until the first solve).
    pub fn new() -> Self {
        BatchScratch::default()
    }

    fn prepare(&mut self, k: usize, n: usize, ne: usize) {
        self.cost.clear();
        self.cost.resize(ne * k, 0.0);
        self.policy.clear();
        self.policy.resize(n * k, u32::MAX);
        self.lambda.clear();
        self.lambda.resize(n * k, f64::NEG_INFINITY);
        self.potential.clear();
        self.potential.resize(n * k, 0.0);
        self.eps.clear();
        self.eps.resize(k, 0.0);
        self.best_p.clear();
        self.best_p.resize(k, u32::MAX);
        self.best_f.clear();
        self.best_f.resize(k, 0.0);
        self.done.clear();
        self.done.resize(k, false);
        self.changed.clear();
        self.changed.resize(k, false);
        self.uniform.clear();
        self.uniform.resize(k, false);
        self.iters.clear();
        self.iters.resize(k, 0);
        self.act.clear();
        self.sweep.clear();
        self.state.clear();
        self.state.resize(n, 0);
        self.walk_pos.clear();
        self.walk_pos.resize(n, 0);
        self.path.clear();
    }
}

impl Workspace {
    /// Solves the maximum cycle ratio of `k` instances sharing one graph
    /// structure in a single batched pass.
    ///
    /// `g` supplies the structure (`from`/`to`/`tokens` per edge, in
    /// insertion order; its own costs are ignored), `planes` the
    /// per-instance edge costs, and `structure` the same shape token
    /// contract as [`Workspace::max_cycle_ratio_cached`] — a repeated
    /// token with matching dimensions skips the CSR build and the Tarjan
    /// condensation entirely.
    ///
    /// Returns one [`RatioResult`] per instance, in plane order, each
    /// **bit-for-bit** equal to `Workspace::max_cycle_ratio` on the graph
    /// with that plane's costs (including error values and the
    /// first-failing-component semantics). A failed instance never stalls
    /// the others: its lane is masked out and the rest of the batch
    /// completes; the structure cache is only re-armed when every
    /// instance succeeded.
    pub fn max_cycle_ratio_batch(
        &mut self,
        g: &RatioGraph,
        structure: u64,
        planes: &CostPlanes,
        scratch: &mut BatchScratch,
    ) -> Vec<RatioResult> {
        let k = planes.num_instances();
        let n = g.num_vertices();
        let ne = g.num_edges();
        assert_eq!(planes.num_edges(), ne, "cost planes must cover every edge of the graph");
        if k == 0 {
            return Vec::new();
        }
        let _span = repwf_obs::span!(BatchSolve);
        repwf_obs::counter_add(repwf_obs::CounterId::BatchedPasses, 1);
        repwf_obs::counter_add(repwf_obs::CounterId::BatchedLanes, k as u64);

        // Per-instance validation, mirroring `RatioGraph::validate` with
        // the instance's own costs: same error variant, same edge-order
        // precedence as a solo solve on that instance's graph.
        let mut failed: Vec<Option<RatioGraphError>> = vec![None; k];
        let mut best: Vec<Option<CycleSolution>> = Vec::with_capacity(k);
        best.resize_with(k, || None);
        for (q, slot) in failed.iter_mut().enumerate() {
            *slot = validate_plane(g, planes.plane(q)).err();
        }

        if failed.iter().all(Option::is_some) {
            return failed.into_iter().map(|e| Err(e.expect("all lanes failed"))).collect();
        }

        self.batch_prepare(g, structure);
        let max_iters = 64 + 8 * n + ne;
        let (csr, comp_offsets, comp_vertices, index) = self.batch_parts();
        scratch.prepare(k, n, ne);

        // Transpose the planes into interleaved CSR order: one gather per
        // CSR position, k contiguous writes.
        for (pos, &ei) in csr.edge_indices().iter().enumerate() {
            for q in 0..k {
                scratch.cost[pos * k + q] = planes.data[q * ne + ei as usize];
            }
        }

        for c in 0..comp_offsets.len() - 1 {
            if failed.iter().all(Option::is_some) {
                break;
            }
            let members =
                &comp_vertices[comp_offsets[c] as usize..comp_offsets[c + 1] as usize];
            if !index.is_cyclic(members) {
                continue;
            }
            batch_component(
                csr,
                index,
                members,
                index.choices(c),
                k,
                max_iters,
                scratch,
                &mut failed,
                &mut best,
            );
        }

        let all_ok = failed.iter().all(Option::is_none);
        if all_ok {
            self.batch_commit(structure, n, ne);
        }
        failed
            .into_iter()
            .zip(best)
            .map(|(err, sol)| match err {
                Some(e) => Err(e),
                None => Ok(sol),
            })
            .collect()
    }
}

/// `RatioGraph::validate` with the costs of one plane substituted for the
/// graph's own: identical error variants and edge-order precedence.
fn validate_plane(g: &RatioGraph, plane: &[f64]) -> Result<(), RatioGraphError> {
    let n = g.num_vertices();
    for (e, &cost) in g.edges().iter().zip(plane) {
        if (e.from as usize) >= n {
            return Err(RatioGraphError::VertexOutOfRange { vertex: e.from });
        }
        if (e.to as usize) >= n {
            return Err(RatioGraphError::VertexOutOfRange { vertex: e.to });
        }
        if !cost.is_finite() {
            return Err(RatioGraphError::NonFiniteCost);
        }
    }
    Ok(())
}

/// Lock-step Howard on one strongly connected component for every lane
/// that has not yet failed. Mirrors `howard_component` per lane exactly:
/// per-component eps scale, cold max-cost policy init (last on ties),
/// evaluate / λ-improve / potential-improve rounds over the choice
/// vertices, the per-lane λ-uniform skips, witness extraction — the only
/// difference is the iteration *schedule* (lanes advance together), which
/// per lane performs the identical operation sequence.
#[allow(clippy::too_many_arguments)]
fn batch_component(
    csr: &Csr,
    index: &ChoiceIndex,
    members: &[u32],
    choices: &[u32],
    k: usize,
    max_iters: usize,
    scratch: &mut BatchScratch,
    failed: &mut [Option<RatioGraphError>],
    best: &mut [Option<CycleSolution>],
) {
    let to = csr.targets();
    let tokens = csr.token_counts();
    let BatchScratch {
        cost,
        policy,
        lambda,
        potential,
        eps,
        best_p,
        best_f,
        done,
        changed,
        uniform,
        iters,
        act,
        sweep,
        state,
        walk_pos,
        path,
    } = scratch;
    let cost = &cost[..];

    // Lanes participating in this component: everything not yet failed.
    act.clear();
    act.extend((0..k as u32).filter(|&q| failed[q as usize].is_none()));
    if act.is_empty() {
        return;
    }

    // One sweep over every member's in-component edges: per-lane
    // improvement tolerance scaled to THIS component's costs (same fold as
    // the solo solver: max(1.0, |cost|) · 1e-12) and the cold policy
    // init (max-cost in-component edge, last one on ties).
    for &q in act.iter() {
        eps[q as usize] = 1.0;
    }
    for &vu in members {
        let v = vu as usize;
        for (j, _) in act.iter().enumerate() {
            best_p[j] = u32::MAX;
            best_f[j] = f64::NEG_INFINITY;
        }
        for &p in index.edges(vu) {
            let pi = p as usize;
            let lanes = &cost[pi * k..pi * k + k];
            for (j, &q) in act.iter().enumerate() {
                let qi = q as usize;
                let c = lanes[qi];
                eps[qi] = eps[qi].max(c.abs());
                if c >= best_f[j] {
                    best_f[j] = c;
                    best_p[j] = p;
                }
            }
        }
        for (j, &q) in act.iter().enumerate() {
            debug_assert!(best_p[j] != u32::MAX, "SCC vertex must have an in-component out-edge");
            policy[v * k + q as usize] = best_p[j];
        }
    }
    for &q in act.iter() {
        let qi = q as usize;
        eps[qi] *= 1e-12;
        done[qi] = false;
        iters[qi] = 0;
    }

    loop {
        // Re-derive the active set: lanes still iterating this component.
        act.clear();
        act.extend(
            (0..k as u32).filter(|&q| failed[q as usize].is_none() && !done[q as usize]),
        );
        if act.is_empty() {
            return;
        }

        // Iteration budget, identical to the solo `for _ in 0..max_iters`.
        for &q in act.iter() {
            let qi = q as usize;
            if iters[qi] >= max_iters {
                failed[qi] = Some(RatioGraphError::NoConvergence);
                done[qi] = true;
            }
        }
        act.retain(|&q| !done[q as usize]);
        if act.is_empty() {
            return;
        }

        // Evaluate every active lane's policy (scalar walk per lane over
        // the shared state/path scratch).
        for &q in act.iter() {
            let qi = q as usize;
            match evaluate_policy_lane(
                csr, members, k, qi, cost, policy, lambda, potential, state, walk_pos, path,
            ) {
                Ok(u) => uniform[qi] = u,
                Err(e) => {
                    failed[qi] = Some(e);
                    done[qi] = true;
                }
            }
        }
        act.retain(|&q| !done[q as usize]);
        if act.is_empty() {
            return;
        }

        // Phase 1 (λ-improvement), one choice-vertex/edge sweep for the
        // lanes that are not λ-uniform (a uniform lane cannot improve, as
        // in the solo solver): the shared `targets` array is walked once,
        // the inner loop streams the swept cost/λ lanes.
        for &q in act.iter() {
            changed[q as usize] = false;
        }
        sweep.clear();
        sweep.extend(act.iter().filter(|&&q| !uniform[q as usize]));
        if !sweep.is_empty() {
            for &vu in choices {
                let v = vu as usize;
                for (j, &q) in sweep.iter().enumerate() {
                    let qi = q as usize;
                    let bp = policy[v * k + qi];
                    best_p[j] = bp;
                    best_f[j] = lambda[to[bp as usize] as usize * k + qi];
                }
                for &p in index.edges(vu) {
                    let w = to[p as usize] as usize;
                    let lam = &lambda[w * k..w * k + k];
                    for (j, &q) in sweep.iter().enumerate() {
                        let qi = q as usize;
                        let l = lam[qi];
                        if l > best_f[j] + eps[qi] {
                            best_f[j] = l;
                            best_p[j] = p;
                        }
                    }
                }
                for (j, &q) in sweep.iter().enumerate() {
                    let qi = q as usize;
                    if best_p[j] != policy[v * k + qi] {
                        policy[v * k + qi] = best_p[j];
                        changed[qi] = true;
                    }
                }
            }
        }

        // Phase 2 (potential improvement) and convergence, per lane that
        // saw no λ-improvement this round; λ-improved lanes go straight to
        // the next round, like the solo solver's `continue`.
        repwf_obs::counter_add(repwf_obs::CounterId::HowardItersBatched, act.len() as u64);
        for &q in act.iter() {
            let qi = q as usize;
            iters[qi] += 1;
            if changed[qi] {
                continue;
            }
            let mut improved = false;
            for &vu in choices {
                let v = vu as usize;
                let cur = policy[v * k + qi] as usize;
                let cur_val = cost[cur * k + qi]
                    - lambda[v * k + qi] * f64::from(tokens[cur])
                    + potential[to[cur] as usize * k + qi];
                let mut bp = policy[v * k + qi];
                let mut bv = cur_val;
                for &p in index.edges(vu) {
                    let pi = p as usize;
                    let w = to[pi] as usize;
                    if !uniform[qi] && lambda[w * k + qi] < lambda[v * k + qi] - eps[qi] {
                        continue;
                    }
                    let val = cost[pi * k + qi]
                        - lambda[v * k + qi] * f64::from(tokens[pi])
                        + potential[w * k + qi];
                    if val > bv + eps[qi] {
                        bv = val;
                        bp = p;
                    }
                }
                if bp != policy[v * k + qi] {
                    policy[v * k + qi] = bp;
                    improved = true;
                }
            }
            if !improved {
                // Converged: extract this lane's witness. A previous
                // lane's extraction left mark-3 states behind on the
                // shared array — reset members to the post-evaluation
                // value the solo extractor sees.
                for &vv in members {
                    state[vv as usize] = 2;
                }
                let sol = extract_witness_lane(csr, members, k, qi, cost, policy, lambda, state);
                if best[qi].as_ref().is_none_or(|b| sol.ratio > b.ratio) {
                    best[qi] = Some(sol);
                }
                done[qi] = true;
            }
        }
    }
}

/// `evaluate_policy` for one lane: identical walk, cycle-ratio and
/// back-substitution arithmetic, reading the lane's policy/λ/potential
/// columns and interleaved costs; returns whether the lane's policy cycles
/// all have the bit-identical λ.
#[allow(clippy::too_many_arguments)]
fn evaluate_policy_lane(
    csr: &Csr,
    members: &[u32],
    k: usize,
    q: usize,
    cost: &[f64],
    policy: &[u32],
    lambda: &mut [f64],
    potential: &mut [f64],
    state: &mut [u8],
    walk_pos: &mut [u32],
    path: &mut Vec<u32>,
) -> Result<bool, RatioGraphError> {
    let to = csr.targets();
    let tok = csr.token_counts();
    let mut first_lam: Option<u64> = None;
    let mut uniform = true;
    // 0 = unvisited, 1 = on current walk, 2 = finished.
    for &v in members {
        state[v as usize] = 0;
    }
    for &start in members {
        if state[start as usize] != 0 {
            continue;
        }
        path.clear();
        let mut u = start;
        while state[u as usize] == 0 {
            state[u as usize] = 1;
            walk_pos[u as usize] = path.len() as u32;
            path.push(u);
            u = to[policy[u as usize * k + q] as usize];
        }

        let settle_from = if state[u as usize] == 1 {
            let pos = walk_pos[u as usize] as usize;
            let cycle = &path[pos..];
            let mut c = 0.0;
            let mut t: u64 = 0;
            for &v in cycle {
                let p = policy[v as usize * k + q] as usize;
                c += cost[p * k + q];
                t += u64::from(tok[p]);
            }
            if t == 0 {
                return Err(RatioGraphError::ZeroTokenCycle { cycle: cycle.to_vec() });
            }
            let lam = c / t as f64;
            uniform &= *first_lam.get_or_insert(lam.to_bits()) == lam.to_bits();
            lambda[u as usize * k + q] = lam;
            potential[u as usize * k + q] = 0.0;
            for i in (1..cycle.len()).rev() {
                let v = cycle[i] as usize;
                let p = policy[v * k + q] as usize;
                lambda[v * k + q] = lam;
                potential[v * k + q] = cost[p * k + q] - lam * f64::from(tok[p])
                    + potential[to[p] as usize * k + q];
                state[v] = 2;
            }
            state[u as usize] = 2;
            pos
        } else {
            path.len()
        };

        for i in (0..settle_from).rev() {
            let v = path[i] as usize;
            let p = policy[v * k + q] as usize;
            lambda[v * k + q] = lambda[to[p] as usize * k + q];
            potential[v * k + q] = cost[p * k + q]
                - lambda[v * k + q] * f64::from(tok[p])
                + potential[to[p] as usize * k + q];
            state[v] = 2;
        }
    }
    Ok(uniform)
}

/// `extract_witness` for one lane: same later-wins max-λ start vertex,
/// same walk/collection order. The caller resets the members' shared
/// `state` to 2 beforehand.
#[allow(clippy::too_many_arguments)]
fn extract_witness_lane(
    csr: &Csr,
    members: &[u32],
    k: usize,
    q: usize,
    cost: &[f64],
    policy: &[u32],
    lambda: &[f64],
    state: &mut [u8],
) -> CycleSolution {
    let to = csr.targets();
    let tok = csr.token_counts();
    let mut start = members[0];
    for &v in &members[1..] {
        if lambda[v as usize * k + q] >= lambda[start as usize * k + q] {
            start = v;
        }
    }
    let mut u = start;
    while state[u as usize] != 3 {
        state[u as usize] = 3;
        u = to[policy[u as usize * k + q] as usize];
    }
    let mut cycle = Vec::new();
    let mut c = 0.0;
    let mut t: u64 = 0;
    let first = u;
    loop {
        cycle.push(u);
        let p = policy[u as usize * k + q] as usize;
        c += cost[p * k + q];
        t += u64::from(tok[p]);
        u = to[p];
        if u == first {
            break;
        }
    }
    debug_assert!(t > 0, "converged policy cycle must carry tokens");
    CycleSolution { ratio: c / t as f64, cycle, cost: c, tokens: t }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A small deterministic pseudo-random stream (the vendored `rand` is
    /// not a dependency of this crate).
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 11
        }
        fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * (self.next() % 1_000_003) as f64 / 1_000_003.0
        }
    }

    /// A multi-SCC structure: three cycles with chords, DAG cross edges
    /// and one acyclic vertex.
    fn structure() -> RatioGraph {
        let mut g = RatioGraph::new(10);
        // SCC A: 0→1→2→0 plus chord 1→0.
        g.add_edge(0, 1, 0.0, 1);
        g.add_edge(1, 2, 0.0, 0);
        g.add_edge(2, 0, 0.0, 1);
        g.add_edge(1, 0, 0.0, 1);
        // SCC B: self-loop at 3.
        g.add_edge(3, 3, 0.0, 2);
        // SCC C: 4→5→6→7→4 with chords 5→4 and 6→4.
        g.add_edge(4, 5, 0.0, 1);
        g.add_edge(5, 6, 0.0, 0);
        g.add_edge(6, 7, 0.0, 1);
        g.add_edge(7, 4, 0.0, 1);
        g.add_edge(5, 4, 0.0, 1);
        g.add_edge(6, 4, 0.0, 2);
        // Cross edges and the acyclic tail 8 → 9.
        g.add_edge(2, 4, 0.0, 0);
        g.add_edge(3, 5, 0.0, 1);
        g.add_edge(8, 9, 0.0, 0);
        g.add_edge(0, 8, 0.0, 1);
        g
    }

    fn with_costs(structure: &RatioGraph, costs: &[f64]) -> RatioGraph {
        let mut g = structure.clone();
        for (i, &c) in costs.iter().enumerate() {
            g.set_edge_cost(i, c);
        }
        g
    }

    fn solo_results(structure: &RatioGraph, planes: &CostPlanes) -> Vec<RatioResult> {
        (0..planes.num_instances())
            .map(|q| Workspace::new().max_cycle_ratio(&with_costs(structure, planes.plane(q))))
            .collect()
    }

    fn assert_bitwise_eq(batch: &[RatioResult], solo: &[RatioResult]) {
        assert_eq!(batch.len(), solo.len());
        for (q, (b, s)) in batch.iter().zip(solo).enumerate() {
            match (b, s) {
                (Ok(Some(bs)), Ok(Some(ss))) => {
                    assert_eq!(bs.ratio.to_bits(), ss.ratio.to_bits(), "lane {q} ratio");
                    assert_eq!(bs.cost.to_bits(), ss.cost.to_bits(), "lane {q} cost");
                    assert_eq!(bs.tokens, ss.tokens, "lane {q} tokens");
                    assert_eq!(bs.cycle, ss.cycle, "lane {q} cycle");
                }
                (b, s) => assert_eq!(b, s, "lane {q}"),
            }
        }
    }

    #[test]
    fn batch_matches_solo_bitwise_on_random_planes() {
        let structure = structure();
        let ne = structure.num_edges();
        let mut rng = Lcg(42);
        let mut planes = CostPlanes::new();
        let k = 7;
        planes.reset(k, ne);
        for q in 0..k {
            for c in planes.plane_mut(q) {
                *c = rng.f64_in(-5.0, 50.0);
            }
        }
        let mut ws = Workspace::new();
        let mut scratch = BatchScratch::new();
        let batch = ws.max_cycle_ratio_batch(&structure, 1, &planes, &mut scratch);
        assert_bitwise_eq(&batch, &solo_results(&structure, &planes));
    }

    #[test]
    fn repeated_batches_hit_the_structure_cache() {
        let structure = structure();
        let ne = structure.num_edges();
        let mut rng = Lcg(7);
        let mut ws = Workspace::new();
        let mut scratch = BatchScratch::new();
        let mut planes = CostPlanes::new();
        for round in 0..4 {
            planes.reset(3, ne);
            for q in 0..3 {
                for c in planes.plane_mut(q) {
                    *c = rng.f64_in(0.0, 10.0);
                }
            }
            let batch = ws.max_cycle_ratio_batch(&structure, 99, &planes, &mut scratch);
            assert_bitwise_eq(&batch, &solo_results(&structure, &planes));
            assert_eq!(
                (ws.csr_builds(), ws.tarjan_runs()),
                (1, 1),
                "round {round}: repeat batches with one token must not rebuild"
            );
        }
        // Token miss: rebuilds once.
        planes.reset(1, ne);
        ws.max_cycle_ratio_batch(&structure, 100, &planes, &mut scratch);
        assert_eq!((ws.csr_builds(), ws.tarjan_runs()), (2, 2));
    }

    #[test]
    fn failed_lanes_error_like_solo_and_do_not_stall_the_batch() {
        let structure = structure();
        let ne = structure.num_edges();
        let mut rng = Lcg(3);
        let mut planes = CostPlanes::new();
        planes.reset(4, ne);
        for q in 0..4 {
            for c in planes.plane_mut(q) {
                *c = rng.f64_in(1.0, 9.0);
            }
        }
        // Lane 1: a non-finite cost (validation error, like solo). A solo
        // reference graph cannot even be built with a NaN cost
        // (`set_edge_cost` debug-asserts finiteness), so the failed lane
        // is checked against the validator's error directly and the
        // healthy lanes against their solo solves.
        planes.plane_mut(1)[5] = f64::NAN;
        let mut ws = Workspace::new();
        let mut scratch = BatchScratch::new();
        let batch = ws.max_cycle_ratio_batch(&structure, 5, &planes, &mut scratch);
        assert_eq!(batch[1], Err(RatioGraphError::NonFiniteCost));
        for q in [0, 2, 3] {
            let solo = Workspace::new().max_cycle_ratio(&with_costs(&structure, planes.plane(q)));
            assert_bitwise_eq(&batch[q..q + 1], &[solo]);
        }
        // A failed lane leaves the cache cold: same token rebuilds.
        let builds = ws.csr_builds();
        planes.plane_mut(1)[5] = 2.0;
        let batch = ws.max_cycle_ratio_batch(&structure, 5, &planes, &mut scratch);
        assert_eq!(ws.csr_builds(), builds + 1, "errored batch must clear the cache");
        assert_bitwise_eq(&batch, &solo_results(&structure, &planes));
    }

    #[test]
    fn zero_token_deadlock_reports_per_lane() {
        // 0→1→0 all zero tokens: every lane deadlocks with the same
        // witness circuit the solo solver reports.
        let mut structure = RatioGraph::new(2);
        structure.add_edge(0, 1, 0.0, 0);
        structure.add_edge(1, 0, 0.0, 0);
        let mut planes = CostPlanes::new();
        planes.reset(2, 2);
        planes.plane_mut(0).copy_from_slice(&[1.0, 2.0]);
        planes.plane_mut(1).copy_from_slice(&[4.0, 3.0]);
        let mut ws = Workspace::new();
        let mut scratch = BatchScratch::new();
        let batch = ws.max_cycle_ratio_batch(&structure, 1, &planes, &mut scratch);
        assert_bitwise_eq(&batch, &solo_results(&structure, &planes));
        assert!(matches!(batch[0], Err(RatioGraphError::ZeroTokenCycle { .. })));
    }

    #[test]
    fn empty_batch_and_acyclic_graph() {
        let structure = structure();
        let mut ws = Workspace::new();
        let mut scratch = BatchScratch::new();
        let planes = CostPlanes::new();
        assert!(ws
            .max_cycle_ratio_batch(&RatioGraph::new(3), 1, &planes, &mut scratch)
            .is_empty());
        // Acyclic graph: every lane resolves Ok(None).
        let mut dag = RatioGraph::new(3);
        dag.add_edge(0, 1, 0.0, 1);
        dag.add_edge(1, 2, 0.0, 1);
        let mut p2 = CostPlanes::new();
        p2.reset(2, 2);
        p2.plane_mut(0).copy_from_slice(&[1.0, 2.0]);
        p2.plane_mut(1).copy_from_slice(&[3.0, 4.0]);
        let batch = ws.max_cycle_ratio_batch(&dag, 2, &p2, &mut scratch);
        assert_eq!(batch, vec![Ok(None), Ok(None)]);
        let _ = structure;
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn batch_is_bitwise_solo_on_random_graphs(
            seed in 0u64..1_000_000,
            n in 2usize..12,
            extra in 0usize..20,
            k in 1usize..9,
            blocks in 1usize..4,
            forced in 0u64..101,
        ) {
            // Random structure: `blocks` rings of consecutive vertices
            // (guaranteed SCC work; a one-vertex ring is a self-loop) plus
            // `extra` random edges — chords, self-loops and parallel
            // edges — with random token counts and at least one token per
            // ring. About `forced` percent of the vertices take no extra
            // edge, so components mix forced and choice vertices.
            let mut rng = Lcg(seed.wrapping_mul(2654435761).wrapping_add(1));
            let block_of = |v: usize| v * blocks / n;
            let mut structure = RatioGraph::new(n);
            for v in 0..n {
                let next = if v + 1 < n && block_of(v + 1) == block_of(v) {
                    v + 1
                } else {
                    (0..n).find(|&u| block_of(u) == block_of(v)).expect("own block")
                };
                structure.add_edge(v as u32, next as u32, 0.0, 1);
            }
            let is_forced: Vec<bool> = (0..n).map(|_| rng.next() % 100 < forced).collect();
            for _ in 0..extra {
                let from = (rng.next() as usize % n) as u32;
                let to = (rng.next() as usize % n) as u32;
                let tokens = (rng.next() % 3) as u32;
                if is_forced[from as usize] {
                    continue;
                }
                structure.add_edge(from, to, 0.0, tokens);
            }
            let ne = structure.num_edges();
            let mut planes = CostPlanes::new();
            planes.reset(k, ne);
            for q in 0..k {
                for c in planes.plane_mut(q) {
                    *c = rng.f64_in(-20.0, 100.0);
                }
            }
            let mut ws = Workspace::new();
            let mut scratch = BatchScratch::new();
            let batch = ws.max_cycle_ratio_batch(&structure, seed, &planes, &mut scratch);
            assert_bitwise_eq(&batch, &solo_results(&structure, &planes));
        }
    }
}
