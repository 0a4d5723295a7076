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
//!   that instance in that round. Both phases sweep the choice vertices
//!   once with the lanes inside; no lane reads another lane's columns, so
//!   the interchange keeps every lane's operation order.
//!
//! * **Cached evaluation plans.** Policy evaluation splits into a *plan*
//!   and a *replay*. The plan is the walk order: the policy cycles, each
//!   with its root and its vertices in cycle order, then the other
//!   vertices in the order the walk settles them. It is a pure function
//!   of the condensation and of the lane's policy at the component's
//!   choice vertices (a forced vertex has one in-component edge, so its
//!   policy never varies). The replay redoes the lane's float work from
//!   the plan as straight-line code: the cycle sums from each root,
//!   `λ = c / t`, the cycle back-substitution, the tail back-substitution
//!   and the λ-uniform flag. Each workspace keeps the plans of its
//!   current condensation in one flat arena (`PlanStore`), keyed by
//!   (component, choice-vertex policy): a lane whose key is cached replays
//!   the plan, any other lane walks and records it. In a strict campaign
//!   most evaluations replay, across lanes and across the chunks of one
//!   shape.
//!
//! Why a replay is exact: the walk visits vertices in an order that
//! depends on the policy only, never on costs, so a plan recorded on one
//! lane is the walk of every lane, in every chunk, whose policy has the
//! same key. Every λ and potential the walk writes is one fixed
//! expression of values written before it; the replay evaluates the same
//! expression on the same operands in the same order, so it writes the
//! same bits, and the λ-uniform flag compares the same λs in the same
//! order. Only successful walks are recorded: a zero-token cycle fails
//! on the same structure whatever the costs, so it is never replayed and
//! its lane walks into the same error. The store caches structure, never
//! answers, and every CSR rebuild (hence every condensation, including
//! the same-token rebuild after an errored batch) clears it, so results,
//! iteration counts and errors are the same at any thread count and any
//! chunking.
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
    /// Per-swept-lane best CSR position / best value (init, phases 1
    /// and 2).
    best_p: Vec<u32>,
    best_f: Vec<f64>,
    /// Per-instance flags and counters. `uniform[q]`: every policy cycle
    /// of lane `q` had the same λ in the last evaluation.
    done: Vec<bool>,
    changed: Vec<bool>,
    uniform: Vec<bool>,
    iters: Vec<usize>,
    /// Active-lane index list of the current round, and its lanes that
    /// take part in the phase-1 sweep (those not λ-uniform), then in the
    /// phase-2 sweep (those phase 1 did not change).
    act: Vec<u32>,
    sweep: Vec<u32>,
    /// Shared scalar walk scratch (policy evaluation, witness extraction).
    state: Vec<u8>,
    walk_pos: Vec<u32>,
    path: Vec<u32>,
    /// The current lane's plan key (its policy at the component's choice
    /// vertices) and the plan its walk records.
    key: Vec<u32>,
    record: PlanRecord,
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

/// Bytes of plan store (arena and index together) one workspace fills at
/// most per condensation.
const PLAN_BUDGET_BYTES: usize = 48 << 10;

/// The largest number a plan word holds. A condensation with more
/// vertices or edges records no plans.
const WORD_MAX: usize = u16::MAX as usize;

/// Index slot marking an empty entry.
const EMPTY_SLOT: u32 = u32::MAX;

/// Cached policy-evaluation plans of one condensation (see the module
/// docs), keyed by (component, policy at the component's choice vertices).
///
/// One flat arena of `u16` words holds the entries back to back. An entry
/// is its key — the component index, then the CSR position each choice
/// vertex's policy takes, in choice order — followed by its plan:
///
/// * the number of policy cycles, then per cycle its length `L`, its
///   token sum `t` and its `L` vertices in cycle order from the root;
/// * the number of tail segments, then per segment its length and its
///   vertices in the order the walk settles them. A segment is the tail
///   of one walk, settled backwards: its first vertex's policy successor
///   was settled before the segment, and every later vertex's successor
///   is the vertex before it.
///
/// A plan holds vertex ids only: a replaying lane's policy matches the
/// key at the choice vertices, and a forced vertex has one in-component
/// edge, so the lane's own policy column gives every vertex's CSR
/// position. A cycle whose token sum does not fit a word is walked and
/// never recorded. An open-addressing index maps key hashes to entry
/// offsets. Arena and index together stay within the byte budget; a
/// store that filled up without a single hit stops hashing too.
#[derive(Debug, Clone)]
pub(crate) struct PlanStore {
    words: Vec<u16>,
    /// No plans for this condensation: it is too large for a word, or
    /// not fitted yet.
    off: bool,
    /// `(key hash, entry word offset)`, [`EMPTY_SLOT`] offset when free.
    /// A power-of-two length, at most half full.
    slots: Vec<(u32, u32)>,
    entries: usize,
    budget: usize,
    full: bool,
    hits: u64,
    misses: u64,
}

impl Default for PlanStore {
    fn default() -> Self {
        PlanStore {
            words: Vec::new(),
            off: true,
            slots: Vec::new(),
            entries: 0,
            budget: PLAN_BUDGET_BYTES,
            full: false,
            hits: 0,
            misses: 0,
        }
    }
}

/// What a plan-store probe found for a lane's key.
enum Probe {
    /// A cached plan: it starts at this arena word offset.
    Hit(usize),
    /// No plan; record one under this key hash.
    Miss(u32),
    /// The store is off: walk without recording.
    Off,
}

impl PlanStore {
    /// Forgets every plan: the condensation they describe is gone.
    pub(crate) fn clear(&mut self) {
        self.words.clear();
        self.off = true;
        self.slots.clear();
        self.entries = 0;
        self.full = false;
        self.hits = 0;
        self.misses = 0;
    }

    /// Plans replayed and plans walked since the last [`PlanStore::clear`].
    #[cfg(test)]
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Sets the store's byte budget (tests exhaust it on small graphs).
    #[cfg(test)]
    pub(crate) fn set_budget(&mut self, bytes: usize) {
        self.budget = bytes;
    }

    /// Bytes the arena and the index hold.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        2 * self.words.len() + std::mem::size_of::<(u32, u32)>() * self.slots.len()
    }

    /// Turns the store on for a condensation of `n` vertices and `ne`
    /// edges, unless a word cannot hold their ids.
    fn fit(&mut self, n: usize, ne: usize) {
        self.off = n.max(ne) > WORD_MAX;
    }

    /// Looks up the plan of component `c` under lane `q`'s policy at the
    /// component's `choices`, building the key in `key`.
    fn probe(
        &mut self,
        c: usize,
        choices: &[u32],
        policy: &[u32],
        k: usize,
        q: usize,
        key: &mut Vec<u32>,
    ) -> Probe {
        if self.off || (self.full && self.hits == 0) {
            return Probe::Off;
        }
        key.clear();
        key.push(c as u32);
        key.extend(choices.iter().map(|&v| policy[v as usize * k + q]));
        let hash = key_hash(key);
        if !self.slots.is_empty() {
            let mask = self.slots.len() - 1;
            let mut i = hash as usize & mask;
            loop {
                let (h, at) = self.slots[i];
                if at == EMPTY_SLOT {
                    break;
                }
                let at = at as usize;
                let entry = &self.words[at..];
                if h == hash && key.iter().zip(entry).all(|(&x, &w)| x == u32::from(w)) {
                    self.hits += 1;
                    return Probe::Hit(at + key.len());
                }
                i = (i + 1) & mask;
            }
        }
        self.misses += 1;
        if self.full {
            Probe::Off
        } else {
            Probe::Miss(hash)
        }
    }

    /// Stores the plan `rec` under `key` (with hash `hash`), unless a
    /// token sum does not fit a word, or the entry, with the index grown
    /// to take it, would overrun the byte budget: then the store is full
    /// for the rest of the condensation.
    fn insert(&mut self, hash: u32, key: &[u32], rec: &PlanRecord) {
        if rec.max_tokens > WORD_MAX as u64 {
            return;
        }
        let size = key.len() + 2 + rec.cycles.len() + rec.tail.len();
        let grow = 2 * (self.entries + 1) > self.slots.len();
        let new_slots = if grow { (2 * self.slots.len()).max(64) } else { self.slots.len() };
        let slot_bytes = std::mem::size_of::<(u32, u32)>() * new_slots;
        if 2 * (self.words.len() + size) + slot_bytes > self.budget {
            self.full = true;
            return;
        }
        if grow {
            self.grow(new_slots);
        }
        // One reservation for every word the budget leaves room for: the
        // arena never reallocates, and pages it has not reached yet cost
        // no memory.
        self.words.reserve_exact(self.budget / 2 - self.words.len());
        let at = self.words.len() as u32;
        self.words.extend(key.iter().map(|&x| x as u16));
        self.words.push(rec.num_cycles as u16);
        self.words.extend(rec.cycles.iter().map(|&x| x as u16));
        self.words.push(rec.num_segments as u16);
        self.words.extend(rec.tail.iter().map(|&x| x as u16));
        self.place(hash, at);
        self.entries += 1;
    }

    /// Resizes the index to `len` slots and re-places every entry.
    fn grow(&mut self, len: usize) {
        let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY_SLOT); len]);
        for (h, at) in old {
            if at != EMPTY_SLOT {
                self.place(h, at);
            }
        }
    }

    fn place(&mut self, h: u32, at: u32) {
        let mask = self.slots.len() - 1;
        let mut i = h as usize & mask;
        while self.slots[i].1 != EMPTY_SLOT {
            i = (i + 1) & mask;
        }
        self.slots[i] = (h, at);
    }
}

/// FNV-1a over the key words, finished with a 64-bit mix whose high half
/// is the hash.
fn key_hash(key: &[u32]) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in key {
        h = (h ^ u64::from(w)).wrapping_mul(0x0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    ((h ^ (h >> 33)) >> 32) as u32
}

/// The plan a policy walk records, in [`PlanStore`]'s layout: `cycles`
/// holds the cycle records and `tail` the tail segments; `max_tokens` is
/// the largest token sum, which must fit a word.
#[derive(Debug, Clone, Default)]
struct PlanRecord {
    num_cycles: usize,
    cycles: Vec<u32>,
    num_segments: usize,
    tail: Vec<u32>,
    max_tokens: u64,
}

impl PlanRecord {
    fn clear(&mut self) {
        self.num_cycles = 0;
        self.cycles.clear();
        self.num_segments = 0;
        self.tail.clear();
        self.max_tokens = 0;
    }

    /// Records a policy cycle (vertices from the root) with token sum `t`.
    fn push_cycle(&mut self, cycle: &[u32], t: u64) {
        self.max_tokens = self.max_tokens.max(t);
        self.num_cycles += 1;
        self.cycles.extend([cycle.len() as u32, t.min(u64::from(u32::MAX)) as u32]);
        self.cycles.extend_from_slice(cycle);
    }

    /// Records a walk's tail `path` (in walk order), settled backwards.
    fn push_segment(&mut self, path: &[u32]) {
        self.num_segments += 1;
        self.tail.push(path.len() as u32);
        self.tail.extend(path.iter().rev());
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
        let (csr, comp_offsets, comp_vertices, index, plans) = self.batch_parts();
        plans.fit(n, ne);
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
            let members = &comp_vertices[comp_offsets[c] as usize..comp_offsets[c + 1] as usize];
            if !index.is_cyclic(members) {
                continue;
            }
            batch_component(
                csr,
                index,
                plans,
                c,
                members,
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
/// per lane performs the identical operation sequence. A lane whose
/// choice-vertex policy has a cached plan replays it instead of walking.
#[allow(clippy::too_many_arguments)]
fn batch_component(
    csr: &Csr,
    index: &ChoiceIndex,
    plans: &mut PlanStore,
    c: usize,
    members: &[u32],
    k: usize,
    max_iters: usize,
    scratch: &mut BatchScratch,
    failed: &mut [Option<RatioGraphError>],
    best: &mut [Option<CycleSolution>],
) {
    let to = csr.targets();
    let tokens = csr.token_counts();
    let choices = index.choices(c);
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
        key,
        record,
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
        act.extend((0..k as u32).filter(|&q| failed[q as usize].is_none() && !done[q as usize]));
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

        // Evaluate every active lane's policy: replay its cached plan, or
        // walk it (scalar, over the shared state/path scratch) and record
        // the plan for the lanes and chunks that reach the same policy.
        for &q in act.iter() {
            let qi = q as usize;
            let probe = plans.probe(c, choices, policy, k, qi, key);
            if let Probe::Hit(at) = probe {
                let plan = &plans.words[at..];
                uniform[qi] = replay_plan_lane(csr, plan, k, qi, cost, policy, lambda, potential);
                continue;
            }
            record.clear();
            let rec = match probe {
                Probe::Miss(_) => Some(&mut *record),
                _ => None,
            };
            match evaluate_policy_lane(
                csr, members, k, qi, cost, policy, lambda, potential, state, walk_pos, path, rec,
            ) {
                Ok(u) => {
                    uniform[qi] = u;
                    if let Probe::Miss(hash) = probe {
                        plans.insert(hash, key, record);
                    }
                }
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

        // Phase 2 (potential improvement) for the lanes that saw no
        // λ-improvement this round — λ-improved lanes go straight to the
        // next round, like the solo solver's `continue`. Same sweep shape
        // as phase 1: no lane reads another lane's columns, so running the
        // lanes inside the vertex loop keeps every lane's operation order.
        repwf_obs::counter_add(repwf_obs::CounterId::HowardItersBatched, act.len() as u64);
        sweep.clear();
        for &q in act.iter() {
            let qi = q as usize;
            iters[qi] += 1;
            if !changed[qi] {
                sweep.push(q);
            }
        }
        for &vu in choices {
            let v = vu as usize;
            let lam_v = &lambda[v * k..v * k + k];
            for (j, &q) in sweep.iter().enumerate() {
                let qi = q as usize;
                let cur = policy[v * k + qi];
                let cu = cur as usize;
                best_p[j] = cur;
                best_f[j] = cost[cu * k + qi] - lam_v[qi] * f64::from(tokens[cu])
                    + potential[to[cu] as usize * k + qi];
            }
            for &p in index.edges(vu) {
                let pi = p as usize;
                let w = to[pi] as usize;
                let t = f64::from(tokens[pi]);
                let cst = &cost[pi * k..pi * k + k];
                let lam_w = &lambda[w * k..w * k + k];
                let pot_w = &potential[w * k..w * k + k];
                for (j, &q) in sweep.iter().enumerate() {
                    let qi = q as usize;
                    if !uniform[qi] && lam_w[qi] < lam_v[qi] - eps[qi] {
                        continue;
                    }
                    let val = cst[qi] - lam_v[qi] * t + pot_w[qi];
                    if val > best_f[j] + eps[qi] {
                        best_f[j] = val;
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

        // Converged lanes: extract the witness.
        for &q in sweep.iter() {
            let qi = q as usize;
            if changed[qi] {
                continue;
            }
            let sol = extract_witness_lane(csr, members, k, qi, cost, policy, lambda, state, path);
            if best[qi].as_ref().is_none_or(|b| sol.ratio > b.ratio) {
                best[qi] = Some(sol);
            }
            done[qi] = true;
        }
    }
}

/// `evaluate_policy` for one lane: identical walk, cycle-ratio and
/// back-substitution arithmetic, reading the lane's policy/λ/potential
/// columns and interleaved costs; returns whether the lane's policy cycles
/// all have the bit-identical λ. With `rec`, it also records the walk's
/// plan (see [`PlanStore`]); a plan is only kept when the walk succeeds.
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
    mut rec: Option<&mut PlanRecord>,
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
            if let Some(rec) = rec.as_deref_mut() {
                rec.push_cycle(cycle, t);
            }
            let lam = c / t as f64;
            uniform &= *first_lam.get_or_insert(lam.to_bits()) == lam.to_bits();
            lambda[u as usize * k + q] = lam;
            potential[u as usize * k + q] = 0.0;
            for i in (1..cycle.len()).rev() {
                let v = cycle[i] as usize;
                let p = policy[v * k + q] as usize;
                lambda[v * k + q] = lam;
                potential[v * k + q] =
                    cost[p * k + q] - lam * f64::from(tok[p]) + potential[to[p] as usize * k + q];
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
            potential[v * k + q] = cost[p * k + q] - lambda[v * k + q] * f64::from(tok[p])
                + potential[to[p] as usize * k + q];
            state[v] = 2;
        }
        if let Some(rec) = rec.as_deref_mut().filter(|_| settle_from > 0) {
            rec.push_segment(&path[..settle_from]);
        }
    }
    Ok(uniform)
}

/// Replays a recorded plan (see [`PlanStore`]) on lane `q`: the float work
/// of [`evaluate_policy_lane`] — the cycle sums from each root, `λ = c / t`,
/// the cycle back-substitution, then the tail back-substitution in settle
/// order — without the walk. Returns the λ-uniform flag.
///
/// Every value is computed by the walk's expression from the same
/// operands: a cycle reads only its own vertices, and a tail vertex reads
/// its policy successor, which a cycle or an earlier tail entry settled.
/// Doing all cycles before all tails therefore writes the walk's bits.
/// Along a cycle or a segment the successor is the vertex settled just
/// before, so its λ and potential are carried in registers instead of
/// being read back from the columns; `pot += c − λ·t` is the walk's
/// `(c − λ·t) + pot`, since IEEE addition commutes.
#[allow(clippy::too_many_arguments)]
fn replay_plan_lane(
    csr: &Csr,
    plan: &[u16],
    k: usize,
    q: usize,
    cost: &[f64],
    policy: &[u32],
    lambda: &mut [f64],
    potential: &mut [f64],
) -> bool {
    let to = csr.targets();
    let tok = csr.token_counts();
    let word = |i: usize| usize::from(plan[i]);
    let pol = |v: usize| policy[v * k + q] as usize;
    let mut first_lam: Option<u64> = None;
    let mut uniform = true;
    let mut at = 1;
    for _ in 0..word(0) {
        let len = word(at);
        let t = word(at + 1);
        let cycle = at + 2..at + 2 + len;
        at += 2 + len;
        let mut c = 0.0;
        for i in cycle.clone() {
            c += cost[pol(word(i)) * k + q];
        }
        let lam = c / t as f64;
        uniform &= *first_lam.get_or_insert(lam.to_bits()) == lam.to_bits();
        // The root's potential is 0; walking the cycle backwards, each
        // vertex's successor is the one settled just before.
        let u = word(cycle.start);
        lambda[u * k + q] = lam;
        potential[u * k + q] = 0.0;
        let mut pot = 0.0;
        for i in (cycle.start + 1..cycle.end).rev() {
            let v = word(i);
            let p = pol(v);
            pot += cost[p * k + q] - lam * f64::from(tok[p]);
            lambda[v * k + q] = lam;
            potential[v * k + q] = pot;
        }
    }
    let num_segments = word(at);
    at += 1;
    for _ in 0..num_segments {
        let len = word(at);
        let segment = at + 1..at + 1 + len;
        at += 1 + len;
        let w = to[pol(word(segment.start))] as usize;
        let lam = lambda[w * k + q];
        let mut pot = potential[w * k + q];
        for i in segment {
            let v = word(i);
            let p = pol(v);
            pot += cost[p * k + q] - lam * f64::from(tok[p]);
            lambda[v * k + q] = lam;
            potential[v * k + q] = pot;
        }
    }
    uniform
}

/// `extract_witness` for one lane: same later-wins max-λ start vertex,
/// same walk/collection order. No member may hold the mark 3 on entry
/// (a replayed evaluation leaves `state` as it was); the vertices this
/// walk marks are noted in `path` and unmarked again on exit.
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
    path: &mut Vec<u32>,
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
    path.clear();
    while state[u as usize] != 3 {
        state[u as usize] = 3;
        path.push(u);
        u = to[policy[u as usize * k + q] as usize];
    }
    for &v in path.iter() {
        state[v as usize] = 2;
    }
    // `u` is the first vertex the walk met twice: the cycle is the walk
    // from `u` on, in policy order.
    let from = path.iter().position(|&v| v == u).expect("the walk reached a marked vertex");
    let cycle = path[from..].to_vec();
    let mut c = 0.0;
    let mut t: u64 = 0;
    for &v in &cycle {
        let p = policy[v as usize * k + q] as usize;
        c += cost[p * k + q];
        t += u64::from(tok[p]);
    }
    debug_assert!(t > 0, "converged policy cycle must carry tokens");
    CycleSolution { ratio: c / t as f64, cycle, cost: c, tokens: t }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use repwf_obs::counted;
    use repwf_obs::CounterId::{CsrBuilds, TarjanRuns};

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
        // CSR builds and Tarjan runs over the rounds so far.
        let mut built = [0, 0];
        for round in 0..4 {
            planes.reset(3, ne);
            for q in 0..3 {
                for c in planes.plane_mut(q) {
                    *c = rng.f64_in(0.0, 10.0);
                }
            }
            let (batch, c) =
                counted(|| ws.max_cycle_ratio_batch(&structure, 99, &planes, &mut scratch));
            assert_bitwise_eq(&batch, &solo_results(&structure, &planes));
            built[0] += c[CsrBuilds];
            built[1] += c[TarjanRuns];
            assert_eq!(
                built,
                [1, 1],
                "round {round}: repeat batches with one token must not rebuild"
            );
        }
        // Token miss: rebuilds once.
        planes.reset(1, ne);
        let (_, c) = counted(|| ws.max_cycle_ratio_batch(&structure, 100, &planes, &mut scratch));
        assert_eq!((c[CsrBuilds], c[TarjanRuns]), (1, 1));
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
        planes.plane_mut(1)[5] = 2.0;
        let (batch, c) = counted(|| ws.max_cycle_ratio_batch(&structure, 5, &planes, &mut scratch));
        assert_eq!(c[CsrBuilds], 1, "errored batch must clear the cache");
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
        assert!(ws.max_cycle_ratio_batch(&RatioGraph::new(3), 1, &planes, &mut scratch).is_empty());
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

    /// Random structure: `blocks` rings of consecutive vertices
    /// (guaranteed SCC work; a one-vertex ring is a self-loop) plus
    /// `extra` random edges — chords, self-loops and parallel edges — with
    /// random token counts (zero-token circuits included) and at least
    /// one token per ring. About `forced` percent of the vertices take no
    /// extra edge, so components mix forced and choice vertices, and a
    /// ring without extra edges is a component with no choice vertex.
    fn random_structure(
        rng: &mut Lcg,
        n: usize,
        extra: usize,
        blocks: usize,
        forced: u64,
    ) -> RatioGraph {
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
        structure
    }

    /// Reference results: a solo solve per lane, except that a lane with
    /// a non-finite cost (which no solo graph can hold) must fail
    /// validation.
    fn reference_results(structure: &RatioGraph, planes: &CostPlanes) -> Vec<RatioResult> {
        (0..planes.num_instances())
            .map(|q| {
                let plane = planes.plane(q);
                if plane.iter().all(|c| c.is_finite()) {
                    Workspace::new().max_cycle_ratio(&with_costs(structure, plane))
                } else {
                    Err(RatioGraphError::NonFiniteCost)
                }
            })
            .collect()
    }

    /// Stages `k` lanes drawn from `patterns` cost patterns: each lane is
    /// one pattern scaled edge by edge by up to ±0.1 %, so lanes share
    /// policies (and plans) but not values. With `nan`, about one lane in
    /// eight gets a NaN cost.
    fn patterned_planes(
        rng: &mut Lcg,
        patterns: &[Vec<f64>],
        k: usize,
        nan: bool,
        planes: &mut CostPlanes,
    ) {
        let ne = patterns[0].len();
        planes.reset(k, ne);
        for q in 0..k {
            let pattern = &patterns[rng.next() as usize % patterns.len()];
            for (c, &base) in planes.plane_mut(q).iter_mut().zip(pattern) {
                *c = base * (1.0 + rng.f64_in(-1e-3, 1e-3));
            }
            if nan && rng.next() % 8 == 0 {
                planes.plane_mut(q)[rng.next() as usize % ne] = f64::NAN;
            }
        }
    }

    /// The final policy, λ and potential columns of two batch scratches
    /// (`len` entries each) are bitwise equal: a replayed evaluation writes
    /// exactly what the walk writes, also where no result reads it.
    fn assert_same_columns(a: &BatchScratch, b: &BatchScratch, len: usize) {
        assert_eq!(a.policy[..len], b.policy[..len], "policy columns");
        for (i, (x, y)) in a.lambda[..len].iter().zip(&b.lambda[..len]).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "λ column entry {i}");
        }
        for (i, (x, y)) in a.potential[..len].iter().zip(&b.potential[..len]).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "potential column entry {i}");
        }
    }

    #[test]
    fn plans_replay_across_lanes_and_chunks() {
        let structure = structure();
        let ne = structure.num_edges();
        let mut rng = Lcg(11);
        let patterns: Vec<Vec<f64>> =
            (0..2).map(|_| (0..ne).map(|_| rng.f64_in(1.0, 30.0)).collect()).collect();
        let mut ws = Workspace::new();
        let mut scratch = BatchScratch::new();
        let mut planes = CostPlanes::new();
        let mut walked = 0;
        for round in 0..5 {
            patterned_planes(&mut rng, &patterns, 6, false, &mut planes);
            let batch = ws.max_cycle_ratio_batch(&structure, 3, &planes, &mut scratch);
            assert_bitwise_eq(&batch, &reference_results(&structure, &planes));
            let (hits, misses) = ws.plan_store().stats();
            assert!(misses >= walked, "round {round}: the store was cleared");
            walked = misses;
            assert!(hits > 0, "round {round}: no plan replayed ({misses} walked)");
        }
        // The plans outlive chunks: later rounds walk (almost) nothing new.
        let (hits, misses) = ws.plan_store().stats();
        assert!(hits > 3 * misses, "{hits} replayed vs {misses} walked");
        // A token change condenses another structure and forgets them.
        planes.reset(1, ne);
        planes.plane_mut(0).copy_from_slice(&patterns[0]);
        ws.max_cycle_ratio_batch(&structure, 4, &planes, &mut scratch);
        let (hits, misses) = ws.plan_store().stats();
        assert_eq!(hits, 0, "a rebuilt condensation starts with no plans");
        assert!(misses > 0);
    }

    /// Vertex ids and CSR positions past one byte: plans of a 300-vertex,
    /// 400-edge structure replay bit for bit, columns included.
    #[test]
    fn plans_of_a_large_structure_replay() {
        let mut rng = Lcg(17);
        let structure = random_structure(&mut rng, 300, 100, 3, 60);
        let (n, ne) = (structure.num_vertices(), structure.num_edges());
        assert!(ne > 255, "{ne} edges");
        let pattern: Vec<f64> = (0..ne).map(|_| rng.f64_in(-20.0, 100.0)).collect();
        let mut ws = Workspace::new();
        let mut scratch = BatchScratch::new();
        let mut planes = CostPlanes::new();
        for round in 0..4 {
            let k = 6;
            patterned_planes(&mut rng, std::slice::from_ref(&pattern), k, false, &mut planes);
            let batch = ws.max_cycle_ratio_batch(&structure, 21, &planes, &mut scratch);
            let mut fresh_scratch = BatchScratch::new();
            let fresh =
                Workspace::new().max_cycle_ratio_batch(&structure, 21, &planes, &mut fresh_scratch);
            assert_bitwise_eq(&batch, &fresh);
            assert_same_columns(&scratch, &fresh_scratch, n * k);
            assert_bitwise_eq(&batch, &reference_results(&structure, &planes));
            let (hits, misses) = ws.plan_store().stats();
            assert!(hits > 0, "round {round}: no plan replayed ({misses} walked)");
        }
    }

    /// The bytes of the plan index once it holds its first entry.
    const FIRST_INDEX_BYTES: usize = 64 * std::mem::size_of::<(u32, u32)>();

    #[test]
    fn a_full_plan_store_stops_recording_and_stays_exact() {
        let structure = structure();
        let ne = structure.num_edges();
        let mut rng = Lcg(5);
        let patterns: Vec<Vec<f64>> =
            (0..3).map(|_| (0..ne).map(|_| rng.f64_in(-5.0, 40.0)).collect()).collect();
        for budget in [0, FIRST_INDEX_BYTES + 24, FIRST_INDEX_BYTES + 80, FIRST_INDEX_BYTES + 180] {
            let mut ws = Workspace::new();
            let mut scratch = BatchScratch::new();
            let mut planes = CostPlanes::new();
            for round in 0..4 {
                patterned_planes(&mut rng, &patterns, 5, false, &mut planes);
                // The budget survives the condensation of the first round.
                ws.plan_store().set_budget(budget);
                let batch = ws.max_cycle_ratio_batch(&structure, 8, &planes, &mut scratch);
                assert_bitwise_eq(&batch, &reference_results(&structure, &planes));
                let store = ws.plan_store();
                assert!(store.bytes() <= budget, "budget {budget}, round {round}");
                if (1..FIRST_INDEX_BYTES + 100).contains(&budget) {
                    assert!(store.full && store.stats().0 > 0, "budget {budget} filled, replays");
                }
                if budget == 0 {
                    assert_eq!(
                        store.stats(),
                        (0, 1),
                        "an empty store that never hit stops hashing"
                    );
                }
            }
        }
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
            let mut rng = Lcg(seed.wrapping_mul(2654435761).wrapping_add(1));
            let structure = random_structure(&mut rng, n, extra, blocks, forced);
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

        /// Cached plans replay bit for bit. Lanes drawn from a few cost
        /// patterns repeat their policies, so one workspace solving many
        /// batches under one token replays plans across lanes and chunks;
        /// every batch must equal a fresh workspace's batch and the solo
        /// solver, errors included (NaN lanes, zero-token cycles). In the
        /// middle of the run the workspace solves another structure under
        /// another token, and every errored batch forces a same-token
        /// rebuild. `budget` 0–2 shrinks the plan store so it fills up
        /// mid-run.
        #[test]
        fn cached_plans_replay_bitwise_across_batches(
            seed in 0u64..1_000_000,
            n in 2usize..12,
            extra in 0usize..20,
            blocks in 1usize..4,
            forced in 0u64..101,
            patterns in 1usize..4,
            budget in 0usize..4,
        ) {
            let mut rng = Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(7));
            let structure = random_structure(&mut rng, n, extra, blocks, forced);
            let other = structure_other(&mut rng);
            let ne = structure.num_edges();
            let patterns: Vec<Vec<f64>> = (0..patterns)
                .map(|_| (0..ne).map(|_| rng.f64_in(-20.0, 100.0)).collect())
                .collect();
            let mut ws = Workspace::new();
            let mut scratch = BatchScratch::new();
            let mut planes = CostPlanes::new();
            let mut hits = 0;
            let mut replayable = false;
            for round in 0..8 {
                if round == 4 {
                    let mut p = CostPlanes::new();
                    p.reset(3, other.num_edges());
                    for q in 0..3 {
                        for c in p.plane_mut(q) {
                            *c = rng.f64_in(0.0, 10.0);
                        }
                    }
                    let batch = ws.max_cycle_ratio_batch(&other, seed ^ 1, &p, &mut scratch);
                    assert_bitwise_eq(&batch, &reference_results(&other, &p));
                }
                let k = 1 + rng.next() as usize % 8;
                patterned_planes(&mut rng, &patterns, k, true, &mut planes);
                if budget < 3 {
                    let bytes = [0, FIRST_INDEX_BYTES + 32, FIRST_INDEX_BYTES + 128][budget];
                    ws.plan_store().set_budget(bytes);
                }
                let batch = ws.max_cycle_ratio_batch(&structure, seed, &planes, &mut scratch);
                let mut fresh_scratch = BatchScratch::new();
                let fresh = Workspace::new().max_cycle_ratio_batch(
                    &structure,
                    seed,
                    &planes,
                    &mut fresh_scratch,
                );
                assert_bitwise_eq(&batch, &fresh);
                if !fresh_scratch.policy.is_empty() {
                    // (Empty: every lane failed validation before any solve.)
                    assert_same_columns(&scratch, &fresh_scratch, n * k);
                }
                assert_bitwise_eq(&batch, &reference_results(&structure, &planes));
                hits += ws.plan_store().stats().0;
                replayable |= batch.iter().filter(|r| matches!(r, Ok(Some(_)))).count() > 1;
            }
            if budget == 3 && replayable && patterns.len() == 1 {
                prop_assert!(hits > 0, "no plan replayed");
            }
        }
    }

    /// A second structure for the token change: two rings joined by a
    /// cross edge, with random chords.
    fn structure_other(rng: &mut Lcg) -> RatioGraph {
        let mut g = RatioGraph::new(5);
        g.add_edge(0, 1, 0.0, 1);
        g.add_edge(1, 0, 0.0, 1);
        g.add_edge(2, 3, 0.0, 0);
        g.add_edge(3, 4, 0.0, 1);
        g.add_edge(4, 2, 0.0, 2);
        g.add_edge(1, 2, 0.0, 1);
        for _ in 0..3 {
            let from = 2 + (rng.next() % 3) as u32;
            let to = 2 + (rng.next() % 3) as u32;
            g.add_edge(from, to, 0.0, 1 + (rng.next() % 2) as u32);
        }
        g
    }
}
