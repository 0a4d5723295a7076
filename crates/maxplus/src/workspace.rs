//! Reusable scratch arenas for the cycle-ratio algorithms.
//!
//! The paper's campaigns, gap studies and mapping searches evaluate the
//! maximum cycle ratio of thousands of slightly-different graphs. A
//! one-shot solve allocates every vector it needs on every call; for a
//! hot loop that cost dominates the arithmetic. A [`Workspace`] owns all
//! of that scratch — the [`Csr`] adjacency, the Tarjan stacks and the
//! Howard policy/value arrays — so a solve is **allocation-free after the
//! first call** (buffers are resized once and then reused; only error
//! paths and the returned witness allocate). The Karp and Lawler oracles
//! ([`crate::karp`], [`crate::lawler`]) keep their own scratch.
//!
//! On top of buffer reuse, the workspace supports **warm-started** policy
//! iteration: [`Workspace::max_cycle_ratio_warm`] seeds Howard's iteration
//! with the converged policy of the previous solve whenever the graph
//! shape matches, which typically converges in one or two policy
//! evaluations on the neighbor-mapping graphs produced by local search and
//! annealing. Warm starts change the *search path*, not the result: the
//! returned ratio is always recomputed exactly from the witness circuit.
//! The only caveat: when two distinct circuits tie for critical within the
//! solver's eps tolerance (~1e-12 relative — measure zero for generic
//! random costs, property-tested bit-for-bit on such inputs), a warm start
//! may settle on the other member of the tie and report its bit pattern.
//!
//! Every solve works per strongly connected component directly on the
//! global vertex ids, slicing the shared CSR and filtering edges by
//! component id (Howard reads the filtered positions from the choice
//! index below) — no per-SCC subgraph is ever materialized (the old
//! implementation re-allocated a restricted [`RatioGraph`] per component).
//!
//! The top reuse tier is the **structure cache**:
//! [`Workspace::max_cycle_ratio_cached`] takes a caller-supplied structure
//! token and, when it matches the token of the previous successful cached
//! solve (and the graph dimensions agree), skips the CSR construction *and*
//! Tarjan's condensation entirely — only the structure-of-arrays cost
//! mirror is refreshed from the graph's (possibly re-weighted) edge list
//! before jumping straight into (optionally warm-started) Howard. This is
//! what makes a shape-preserving patched oracle call structurally free:
//! the whole per-solve cost is one cost sweep plus the policy iterations.
//! The cache is invalidated on any token or dimension miss, on a solve
//! error, and whenever another call rebuilds the CSR; the `csr_builds` /
//! `tarjan_runs` counters of `repwf-obs` let the test suite assert
//! (through `repwf_obs::counted`) that patched solves really skip the
//! structural work.
//!
//! The CSR keeps the edge data in **structure-of-arrays** form
//! ([`Csr::targets`] / [`Csr::costs`] / [`Csr::token_counts`], one entry
//! per CSR position): the Howard improvement loops — the hottest code in
//! every campaign — stream three contiguous arrays per vertex range
//! instead of gathering `Edge` structs through the edge-index indirection.
//!
//! **Howard on choice vertices.** A *forced* vertex has exactly one
//! in-component out-edge; 51–67 % of the vertices of a strict-model TPN
//! ratio graph are forced (by size: 66.7 % at 2 stages on 7 processors,
//! 51.3 % at 20 on 30). Right after Tarjan, the condensation step records
//! a **choice index**: every vertex's in-component out-edges as CSR
//! positions, and per component the members with at least two of them
//! (the *choice vertices*), in member order. The index is part of the
//! condensation, so it lives exactly as long as the structure token does:
//! structure hits — patched solves, pattern slots, batch chunks — reuse it,
//! and the `csr_builds` / `tarjan_runs` counters keep their meaning. Cold initialization, the warm keep and the eps fold still visit
//! every member (a forced vertex's max-cost edge is its only edge); the
//! two improvement phases visit the choice vertices only. Policy
//! evaluation also reports whether every policy cycle it found has the
//! bit-identical λ; in such a **λ-uniform** round the phase-1 sweep and
//! phase 2's `λ[w] < λ[v] − eps` filter are skipped.
//!
//! Neither skip changes the iteration sequence, because each drops only
//! comparisons that cannot succeed (eps ≥ 0; the argument holds for ±∞
//! and NaN too, where the comparisons are false):
//!
//! * *Forced vertex `v`* with policy edge `p`, its only in-component edge.
//!   Phase 1 tests `λ[to[p]] > λ[to[p]] + eps`; phase 2 recomputes the
//!   current value by the same expression from the same operands and tests
//!   `val > val + eps`. Both are false, so `policy[v]` and the round's
//!   `changed` flag stay as they were.
//! * *λ-uniform round.* Every member copies the λ of the policy cycle it
//!   reaches, so all members hold the same λ. Phase 1's test compares that
//!   value with itself plus eps and fails everywhere: the sweep would
//!   change nothing and fall through to phase 2. Phase 2's filter compares
//!   it with itself minus eps and never fires.
//!
//! Every round therefore makes the same policy changes and the same number
//! of rounds runs (`max_iters` and the `NoConvergence` budget are
//! unchanged): ratios, witnesses, errors and iteration counters are bit
//! for bit those of a solver that sweeps every vertex.

use crate::batch::PlanStore;
use crate::graph::{CycleSolution, RatioGraph, RatioGraphError};
use crate::howard::RatioResult;

/// Compressed sparse row adjacency of a [`RatioGraph`]: out-edges of vertex
/// `v` are `edge_indices()[offsets()[v]..offsets()[v+1]]`, preserving the
/// insertion order of [`RatioGraph::add_edge`].
///
/// Besides the index view, the build materializes a **structure-of-arrays
/// mirror** of the edge list in CSR order — [`Csr::targets`],
/// [`Csr::costs`], [`Csr::token_counts`] — so the Howard improvement loops
/// stream three contiguous arrays instead of gathering 24-byte `Edge`
/// structs through an index indirection.
///
/// Built into owned buffers so repeated builds on same-sized graphs do not
/// allocate.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    offsets: Vec<u32>,
    eidx: Vec<u32>,
    cursor: Vec<u32>,
    // SoA mirror of the edge list in CSR order (index = CSR position).
    to: Vec<u32>,
    cost: Vec<f64>,
    tokens: Vec<u32>,
}

impl Csr {
    /// Creates an empty CSR.
    pub fn new() -> Self {
        Csr::default()
    }

    /// (Re)builds the adjacency of `g`, reusing the internal buffers.
    pub fn build(&mut self, g: &RatioGraph) {
        let n = g.num_vertices();
        let ne = g.num_edges();
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for e in g.edges() {
            self.offsets[e.from as usize + 1] += 1;
        }
        for i in 0..n {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.offsets[..n]);
        self.eidx.clear();
        self.eidx.resize(ne, 0);
        self.to.clear();
        self.to.resize(ne, 0);
        self.cost.clear();
        self.cost.resize(ne, 0.0);
        self.tokens.clear();
        self.tokens.resize(ne, 0);
        for (i, e) in g.edges().iter().enumerate() {
            let c = &mut self.cursor[e.from as usize];
            let pos = *c as usize;
            self.eidx[pos] = i as u32;
            self.to[pos] = e.to;
            self.cost[pos] = e.cost;
            self.tokens[pos] = e.tokens;
            *c += 1;
        }
    }

    /// Per-vertex offsets into [`Csr::edge_indices`] (length `n + 1`).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Edge indices grouped by source vertex.
    pub fn edge_indices(&self) -> &[u32] {
        &self.eidx
    }

    /// Out-edge indices of vertex `v`.
    pub fn out_edges(&self, v: u32) -> &[u32] {
        &self.eidx[self.range(v)]
    }

    /// The CSR position range of vertex `v`'s out-edges (indexes
    /// [`Csr::targets`] / [`Csr::costs`] / [`Csr::token_counts`]).
    pub fn range(&self, v: u32) -> std::ops::Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }

    /// Edge target vertices in CSR order.
    pub fn targets(&self) -> &[u32] {
        &self.to
    }

    /// Edge costs in CSR order.
    pub fn costs(&self) -> &[f64] {
        &self.cost
    }

    /// Edge token counts in CSR order.
    pub fn token_counts(&self) -> &[u32] {
        &self.tokens
    }

    /// Re-reads every edge cost of `g` into the structure-of-arrays cost
    /// mirror, leaving offsets, edge indices, targets and token counts
    /// untouched. Only valid when `g` is structurally identical to the
    /// graph this CSR was last [built](Csr::build) from (same vertex count
    /// and the same `from`/`to`/`tokens` per edge index) — the cheap
    /// re-weighting step of a shape-cached solve.
    pub fn refresh_costs(&mut self, g: &RatioGraph) {
        let edges = g.edges();
        debug_assert_eq!(
            edges.len(),
            self.cost.len(),
            "cost refresh requires an unchanged edge set"
        );
        for (pos, &ei) in self.eidx.iter().enumerate() {
            self.cost[pos] = edges[ei as usize].cost;
        }
    }
}

/// A view of an SCC decomposition stored in a [`Workspace`].
#[derive(Debug, Clone, Copy)]
pub struct SccView<'a> {
    comp_offsets: &'a [u32],
    comp_vertices: &'a [u32],
}

impl<'a> SccView<'a> {
    /// Number of components. Ids are in reverse topological order of the
    /// condensation (Tarjan's numbering).
    pub fn num_components(&self) -> usize {
        self.comp_offsets.len().saturating_sub(1)
    }

    /// Vertices of component `c`.
    pub fn members(&self, c: usize) -> &'a [u32] {
        let (a, b) = (self.comp_offsets[c] as usize, self.comp_offsets[c + 1] as usize);
        &self.comp_vertices[a..b]
    }
}

/// The **choice index** of a condensation: every vertex's in-component
/// out-edges as CSR positions, and per component the members that have a
/// choice (≥ 2 in-component out-edges). Built by [`Workspace::condense`]
/// right after Tarjan, so it lives exactly as long as the condensation
/// and is reused by every structure hit (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct ChoiceIndex {
    /// `edges[offsets[v]..offsets[v + 1]]` are the CSR positions of `v`'s
    /// out-edges whose target lies in `v`'s component, in CSR order.
    offsets: Vec<u32>,
    edges: Vec<u32>,
    /// `choices[choice_offsets[c]..choice_offsets[c + 1]]` are the members
    /// of component `c` with at least two in-component out-edges, in
    /// member order.
    choice_offsets: Vec<u32>,
    choices: Vec<u32>,
}

impl ChoiceIndex {
    /// Indexes the condensation `(comp, comp_offsets, comp_vertices)` of
    /// `csr`. Both lists are compacted branch-free: every candidate is
    /// written, and the length advances only past the kept ones.
    fn build(&mut self, csr: &Csr, comp: &[u32], comp_offsets: &[u32], comp_vertices: &[u32]) {
        let to = csr.targets();
        self.offsets.clear();
        self.offsets.push(0);
        self.edges.clear();
        self.edges.resize(to.len(), 0);
        let mut len = 0;
        for (v, &c) in comp.iter().enumerate() {
            for p in csr.range(v as u32) {
                self.edges[len] = p as u32;
                len += usize::from(comp[to[p] as usize] == c);
            }
            self.offsets.push(len as u32);
        }
        self.edges.truncate(len);
        self.choice_offsets.clear();
        self.choice_offsets.push(0);
        self.choices.clear();
        self.choices.resize(comp_vertices.len(), 0);
        let mut len = 0;
        for w in comp_offsets.windows(2) {
            for &v in &comp_vertices[w[0] as usize..w[1] as usize] {
                self.choices[len] = v;
                len += usize::from(self.offsets[v as usize + 1] - self.offsets[v as usize] >= 2);
            }
            self.choice_offsets.push(len as u32);
        }
        self.choices.truncate(len);
    }

    /// CSR positions of `v`'s in-component out-edges.
    pub(crate) fn edges(&self, v: u32) -> &[u32] {
        &self.edges[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// The choice vertices of component `c`.
    pub(crate) fn choices(&self, c: usize) -> &[u32] {
        &self.choices[self.choice_offsets[c] as usize..self.choice_offsets[c + 1] as usize]
    }

    /// True iff the component with these members contains a circuit: it
    /// has two or more members, or its one member has a self-loop.
    pub(crate) fn is_cyclic(&self, members: &[u32]) -> bool {
        members.len() > 1 || !self.edges(members[0]).is_empty()
    }
}

/// Owned scratch state of Howard's solver.
///
/// Create once, then call [`Workspace::max_cycle_ratio`] (or the warm /
/// cached / parallel variants) as many times as needed; buffers grow to the
/// largest graph seen and are reused afterwards.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    csr: Csr,
    // SCC decomposition (flat: no Vec<Vec<_>>).
    comp: Vec<u32>,
    comp_offsets: Vec<u32>,
    comp_vertices: Vec<u32>,
    /// In-component edges and choice vertices of the condensation above.
    choice: ChoiceIndex,
    /// Batched policy-evaluation plans over the CSR above (see
    /// [`crate::batch`]); every CSR rebuild forgets them.
    plans: PlanStore,
    // Tarjan scratch.
    index: Vec<u32>,
    lowlink: Vec<u32>,
    on_stack: Vec<bool>,
    vstack: Vec<u32>,
    frames: Vec<(u32, u32)>,
    // Howard policy iteration. `policy[v]` is a CSR *position* (an index
    // into the SoA arrays of `csr`), always inside `csr.range(v)`.
    policy: Vec<u32>,
    lambda: Vec<f64>,
    potential: Vec<f64>,
    state: Vec<u8>,
    walk_pos: Vec<u32>,
    path: Vec<u32>,
    /// `(num_vertices, num_edges)` of the graph the converged `policy`
    /// belongs to; `None` until a solve completes.
    warm_sig: Option<(usize, usize)>,
    /// `(structure token, num_vertices, num_edges)` of the graph whose CSR
    /// adjacency and Tarjan condensation are currently cached; `None`
    /// whenever the cached arrays may not describe the next graph (after a
    /// solve error, a token/dimension miss, or any other solver rebuilding
    /// the CSR). See [`Workspace::max_cycle_ratio_cached`].
    struct_sig: Option<(u64, usize, usize)>,
}

impl Workspace {
    /// Creates an empty workspace (no allocation until the first solve).
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Computes the SCC decomposition of `g` into the workspace buffers and
    /// returns a borrowed view (no per-call allocation after warm-up).
    pub fn scc(&mut self, g: &RatioGraph) -> SccView<'_> {
        self.condense(g);
        SccView { comp_offsets: &self.comp_offsets, comp_vertices: &self.comp_vertices }
    }

    /// (Re)builds the CSR adjacency of `g`, counting the build and
    /// forgetting the structure cache (the cached condensation may no
    /// longer describe the CSR contents).
    fn rebuild_csr(&mut self, g: &RatioGraph) {
        let _span = repwf_obs::span!(CsrBuild);
        self.struct_sig = None;
        self.csr.build(g);
        self.plans.clear();
        repwf_obs::counter_add(repwf_obs::CounterId::CsrBuilds, 1);
    }

    /// CSR build + Tarjan condensation into the workspace buffers.
    fn condense(&mut self, g: &RatioGraph) {
        self.rebuild_csr(g);
        let _span = repwf_obs::span!(Tarjan);
        tarjan_flat(
            g,
            &self.csr,
            &mut self.index,
            &mut self.lowlink,
            &mut self.on_stack,
            &mut self.vstack,
            &mut self.frames,
            &mut self.comp,
            &mut self.comp_offsets,
            &mut self.comp_vertices,
        );
        self.choice.build(&self.csr, &self.comp, &self.comp_offsets, &self.comp_vertices);
        repwf_obs::counter_add(repwf_obs::CounterId::TarjanRuns, 1);
    }

    /// Howard's policy iteration with cold-started (deterministic) policy
    /// initialization. Semantics match [`crate::howard::max_cycle_ratio`];
    /// only the allocation behavior differs.
    pub fn max_cycle_ratio(&mut self, g: &RatioGraph) -> RatioResult {
        self.howard(g, false, None)
    }

    /// Howard's policy iteration seeded with the converged policy of the
    /// previous solve when the graph shape (vertex and edge counts) matches
    /// and the stored policy is still structurally valid; falls back to the
    /// cold initialization per vertex otherwise.
    ///
    /// The result is the same as [`Workspace::max_cycle_ratio`] — the ratio
    /// is recomputed exactly from the witness circuit; see the module docs
    /// for the eps-level-tie caveat — and on families of related graphs
    /// (neighbor mappings in a search) convergence is typically immediate.
    pub fn max_cycle_ratio_warm(&mut self, g: &RatioGraph) -> RatioResult {
        self.howard(g, true, None)
    }

    /// Howard's policy iteration with a **shape-cached** structural phase:
    /// when `structure` equals the token of the previous successful cached
    /// solve and the vertex/edge counts match, the CSR adjacency and the
    /// Tarjan condensation are reused as-is — only the structure-of-arrays
    /// cost mirror is refreshed from `g` ([`Csr::refresh_costs`]) before
    /// policy iteration starts. Zero CSR builds, zero Tarjan runs on a hit.
    ///
    /// **Token contract:** two calls presenting the same token and the
    /// same dimensions must present *structurally identical* graphs — the
    /// same `from`/`to`/`tokens` for every edge index, in the same
    /// insertion order; only edge costs may differ. The caller owns that
    /// guarantee (`tpn::analysis::PeriodScratch` bumps a generation
    /// counter on every ratio-graph rebuild). The cache is dropped on any
    /// miss, on a solve error, and whenever another call on this
    /// workspace rebuilds the CSR, so a violated contract can only result
    /// from re-using a token for a structurally different graph.
    ///
    /// Results are bit-for-bit those of [`Workspace::max_cycle_ratio`] /
    /// [`Workspace::max_cycle_ratio_warm`] on the same graph: the cached
    /// arrays are exactly what a rebuild would produce.
    pub fn max_cycle_ratio_cached(
        &mut self,
        g: &RatioGraph,
        structure: u64,
        warm: bool,
    ) -> RatioResult {
        self.howard(g, warm, Some(structure))
    }

    /// Forgets the stored policy: the next warm call behaves like a cold
    /// one.
    pub fn clear_warm_start(&mut self) {
        self.warm_sig = None;
    }

    /// Forgets the cached structure: the next
    /// [`Workspace::max_cycle_ratio_cached`] call builds the CSR and
    /// condenses, whatever token it presents.
    pub fn clear_structure_cache(&mut self) {
        self.struct_sig = None;
    }

    /// Structural phase of a batched solve (see [`crate::batch`]): checks
    /// the structure cache exactly like [`Workspace::max_cycle_ratio_cached`]
    /// and condenses on a miss. Both signatures are invalidated until
    /// [`Workspace::batch_commit`] re-arms the structure cache — the warm
    /// policy is never reusable after a batch (converged policies live in
    /// the batch scratch columns, not in `self.policy`). Unlike the solo
    /// path, a structure *hit* does not refresh the CSR cost mirror: batched
    /// Howard reads costs from its own interleaved planes, never from
    /// [`Csr::costs`].
    pub(crate) fn batch_prepare(&mut self, g: &RatioGraph, structure: u64) {
        let n = g.num_vertices();
        let ne = g.num_edges();
        let structure_ok = self.struct_sig == Some((structure, n, ne));
        self.warm_sig = None;
        self.struct_sig = None;
        if !structure_ok {
            self.condense(g);
        }
    }

    /// Re-arms the structure cache after a fully successful batched solve.
    pub(crate) fn batch_commit(&mut self, structure: u64, n: usize, ne: usize) {
        self.struct_sig = Some((structure, n, ne));
    }

    /// The shared read-only structural arrays a batched solve iterates
    /// over — `(csr, component offsets, component vertices, choice index)`
    /// — and the condensation's plan store.
    pub(crate) fn batch_parts(&mut self) -> (&Csr, &[u32], &[u32], &ChoiceIndex, &mut PlanStore) {
        (&self.csr, &self.comp_offsets, &self.comp_vertices, &self.choice, &mut self.plans)
    }

    /// The plan store of the current condensation.
    #[cfg(test)]
    pub(crate) fn plan_store(&mut self) -> &mut PlanStore {
        &mut self.plans
    }

    /// Howard's policy iteration with **per-SCC parallelism**: after one
    /// (sequential) CSR build + Tarjan condensation, the cyclic components
    /// are solved as independent tasks on the [`repwf_par`] work-stealing
    /// pool — each worker runs the ordinary cold `howard_component` on
    /// its own full-size scratch arrays over the shared read-only CSR —
    /// and the per-component witnesses are folded **in condensation
    /// order** on the calling thread.
    ///
    /// Results are bit-for-bit those of [`Workspace::max_cycle_ratio`] at
    /// any `threads` (including the first-error-in-component-order
    /// semantics on failing inputs): component solves touch only member
    /// vertices, so the sequential solve's shared scratch never couples
    /// components, and the fold below replays its exact comparison
    /// sequence. Warm starts and the structure cache are disabled (both
    /// signatures cleared): the converged policies live in worker-local
    /// scratch, not in this workspace.
    ///
    /// This is the solve path for huge condensation-limited graphs — the
    /// over-cap strict-model TPNs that previously fell back to simulation.
    pub fn max_cycle_ratio_par(&mut self, g: &RatioGraph, threads: usize) -> RatioResult {
        g.validate()?;
        let n = g.num_vertices();
        let ne = g.num_edges();
        self.warm_sig = None;
        self.condense(g); // also clears struct_sig (rebuild_csr)
        let max_iters = 64 + 8 * n + ne;

        let csr = &self.csr;
        let choice = &self.choice;
        let comp_offsets = &self.comp_offsets[..];
        let comp_vertices = &self.comp_vertices[..];
        let members_of = |c: usize| -> &[u32] {
            &comp_vertices[comp_offsets[c] as usize..comp_offsets[c + 1] as usize]
        };
        let cyclic: Vec<u32> = (0..comp_offsets.len() - 1)
            .filter(|&c| choice.is_cyclic(members_of(c)))
            .map(|c| c as u32)
            .collect();

        // Per-worker scratch: full-size global-vertex-id arrays, exactly
        // what `howard_component` expects. Initial values are irrelevant —
        // every member entry is written (cold policy init, policy
        // evaluation) before it is read.
        struct ParScratch {
            policy: Vec<u32>,
            lambda: Vec<f64>,
            potential: Vec<f64>,
            state: Vec<u8>,
            walk_pos: Vec<u32>,
            path: Vec<u32>,
        }
        let results = repwf_par::par_map_init(
            threads,
            cyclic.len(),
            || ParScratch {
                policy: vec![u32::MAX; n],
                lambda: vec![f64::NEG_INFINITY; n],
                potential: vec![0.0; n],
                state: vec![0; n],
                walk_pos: vec![0; n],
                path: Vec::new(),
            },
            |s, i| {
                let c = cyclic[i] as usize;
                howard_component(
                    csr,
                    choice,
                    members_of(c),
                    choice.choices(c),
                    false,
                    &mut s.policy,
                    &mut s.lambda,
                    &mut s.potential,
                    &mut s.state,
                    &mut s.walk_pos,
                    &mut s.path,
                    max_iters,
                )
            },
        );

        let mut best: Option<CycleSolution> = None;
        for r in results {
            let sol = r?;
            if best.as_ref().is_none_or(|b| sol.ratio > b.ratio) {
                best = Some(sol);
            }
        }
        Ok(best)
    }

    fn howard(&mut self, g: &RatioGraph, warm: bool, structure: Option<u64>) -> RatioResult {
        let _span = repwf_obs::span!(Solve);
        g.validate()?;
        let n = g.num_vertices();
        let ne = g.num_edges();
        let warm_ok = warm && self.warm_sig == Some((n, ne)) && self.policy.len() == n;
        repwf_obs::counter_add(
            if warm_ok {
                repwf_obs::CounterId::HowardSolvesWarm
            } else {
                repwf_obs::CounterId::HowardSolvesCold
            },
            1,
        );
        let structure_ok = structure.is_some() && self.struct_sig == structure.map(|t| (t, n, ne));
        // Invalidate until this solve completes (an early error must not
        // leave a half-updated policy — or a condensation of unknown
        // provenance — marked reusable).
        self.warm_sig = None;
        self.struct_sig = None;
        if structure_ok {
            // Structure hit: the CSR and condensation describe `g` already;
            // only the costs may have been re-weighted since.
            self.csr.refresh_costs(g);
        } else {
            self.condense(g);
        }

        if !warm_ok {
            self.policy.clear();
            self.policy.resize(n, u32::MAX);
        }
        self.lambda.clear();
        self.lambda.resize(n, f64::NEG_INFINITY);
        self.potential.clear();
        self.potential.resize(n, 0.0);
        self.state.clear();
        self.state.resize(n, 0);
        self.walk_pos.clear();
        self.walk_pos.resize(n, 0);

        // Generous bound: each iteration strictly improves (λ, x); policies
        // are finite. Guards against floating-point livelock.
        let max_iters = 64 + 8 * n + ne;

        let Workspace {
            csr,
            comp_offsets,
            comp_vertices,
            choice,
            policy,
            lambda,
            potential,
            state,
            walk_pos,
            path,
            ..
        } = self;

        let mut best: Option<CycleSolution> = None;
        for c in 0..comp_offsets.len() - 1 {
            let members = &comp_vertices[comp_offsets[c] as usize..comp_offsets[c + 1] as usize];
            if !choice.is_cyclic(members) {
                continue;
            }
            let sol = howard_component(
                csr,
                choice,
                members,
                choice.choices(c),
                warm_ok,
                policy,
                lambda,
                potential,
                state,
                walk_pos,
                path,
                max_iters,
            )?;
            if best.as_ref().is_none_or(|b| sol.ratio > b.ratio) {
                best = Some(sol);
            }
        }
        self.warm_sig = Some((n, ne));
        if let Some(token) = structure {
            self.struct_sig = Some((token, n, ne));
        }
        Ok(best)
    }
}

/// Iterative Tarjan into flat component arrays (no recursion, no
/// per-component `Vec`, safe for graphs with hundreds of thousands of
/// vertices). Component ids are in reverse topological order of the
/// condensation.
#[allow(clippy::too_many_arguments)]
fn tarjan_flat(
    g: &RatioGraph,
    csr: &Csr,
    index: &mut Vec<u32>,
    lowlink: &mut Vec<u32>,
    on_stack: &mut Vec<bool>,
    vstack: &mut Vec<u32>,
    frames: &mut Vec<(u32, u32)>,
    comp: &mut Vec<u32>,
    comp_offsets: &mut Vec<u32>,
    comp_vertices: &mut Vec<u32>,
) {
    let n = g.num_vertices();
    const UNSET: u32 = u32::MAX;
    index.clear();
    index.resize(n, UNSET);
    lowlink.clear();
    lowlink.resize(n, 0);
    on_stack.clear();
    on_stack.resize(n, false);
    vstack.clear();
    frames.clear();
    comp.clear();
    comp.resize(n, UNSET);
    comp_offsets.clear();
    comp_offsets.push(0);
    comp_vertices.clear();

    let targets = csr.targets();
    let mut next_index = 0u32;
    for root in 0..n as u32 {
        if index[root as usize] != UNSET {
            continue;
        }
        frames.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        vstack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            let vi = v as usize;
            let outs = &targets[csr.range(v)];
            if (*pos as usize) < outs.len() {
                let w = outs[*pos as usize];
                *pos += 1;
                let wi = w as usize;
                if index[wi] == UNSET {
                    index[wi] = next_index;
                    lowlink[wi] = next_index;
                    next_index += 1;
                    vstack.push(w);
                    on_stack[wi] = true;
                    frames.push((w, 0));
                } else if on_stack[wi] {
                    lowlink[vi] = lowlink[vi].min(index[wi]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    let pi = parent as usize;
                    lowlink[pi] = lowlink[pi].min(lowlink[vi]);
                }
                if lowlink[vi] == index[vi] {
                    let cid = (comp_offsets.len() - 1) as u32;
                    loop {
                        let w = vstack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp[w as usize] = cid;
                        comp_vertices.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp_offsets.push(comp_vertices.len() as u32);
                }
            }
        }
    }
}

/// Howard's iteration on one strongly connected component, operating on
/// global vertex ids. Edge data is read from the CSR's structure-of-arrays
/// mirror (`targets`/`costs`/`token_counts`) at the in-component positions
/// of the choice index, so no loop gathers component ids; `policy` holds
/// CSR positions. The improvement phases visit only `choices` (see the
/// module docs for why the iteration sequence is unchanged).
#[allow(clippy::too_many_arguments)]
fn howard_component(
    csr: &Csr,
    index: &ChoiceIndex,
    members: &[u32],
    choices: &[u32],
    warm_ok: bool,
    policy: &mut [u32],
    lambda: &mut [f64],
    potential: &mut [f64],
    state: &mut [u8],
    walk_pos: &mut [u32],
    path: &mut Vec<u32>,
    max_iters: usize,
) -> Result<CycleSolution, RatioGraphError> {
    let to = csr.targets();
    let cost = csr.costs();
    let tokens = csr.token_counts();

    // One sweep over every member's in-component edges folds the
    // improvement tolerance and sets the initial policy.
    //
    // The tolerance is scaled to THIS component's costs: a huge-cost
    // component elsewhere in the graph must not inflate eps here and
    // suppress genuine improvements (per-SCC scale, as in the historical
    // per-subgraph implementation).
    //
    // Policy: one in-component out-edge per vertex. Cold start picks the
    // max-cost edge (last one on ties, mirroring the historical `max_by`);
    // warm start keeps the previous policy edge when it is still an
    // in-component edge of this vertex (same-shape graphs produce identical
    // CSR layouts, so a kept position denotes the structurally same edge
    // as in the prior solve).
    let mut scale = 1.0f64;
    for &vu in members {
        let v = vu as usize;
        let edges = index.edges(vu);
        let keep = warm_ok && edges.contains(&policy[v]);
        let mut best_p = u32::MAX;
        let mut best_cost = f64::NEG_INFINITY;
        for &p in edges {
            let c = cost[p as usize];
            scale = scale.max(c.abs());
            if c >= best_cost {
                best_cost = c;
                best_p = p;
            }
        }
        debug_assert!(best_p != u32::MAX, "SCC vertex must have an in-component out-edge");
        if !keep {
            policy[v] = best_p;
        }
    }
    let eps = scale * 1e-12;

    for iter in 0..max_iters {
        let uniform =
            evaluate_policy(csr, members, policy, lambda, potential, state, walk_pos, path)?;

        // Phase 1: improve by cycle-ratio value. With one λ everywhere no
        // edge can beat the policy edge by more than eps: skipped.
        let mut changed = false;
        if !uniform {
            for &vu in choices {
                let v = vu as usize;
                let mut best_p = policy[v];
                let mut best_l = lambda[to[best_p as usize] as usize];
                for &p in index.edges(vu) {
                    let l = lambda[to[p as usize] as usize];
                    if l > best_l + eps {
                        best_l = l;
                        best_p = p;
                    }
                }
                if best_p != policy[v] {
                    policy[v] = best_p;
                    changed = true;
                }
            }
            if changed {
                continue;
            }
        }

        // Phase 2: improve by potential among edges of (near-)equal value.
        for &vu in choices {
            let v = vu as usize;
            let cur = policy[v] as usize;
            let cur_val =
                cost[cur] - lambda[v] * f64::from(tokens[cur]) + potential[to[cur] as usize];
            let mut best_p = policy[v];
            let mut best_val = cur_val;
            for &p in index.edges(vu) {
                let pi = p as usize;
                let w = to[pi] as usize;
                if !uniform && lambda[w] < lambda[v] - eps {
                    continue;
                }
                let val = cost[pi] - lambda[v] * f64::from(tokens[pi]) + potential[w];
                if val > best_val + eps {
                    best_val = val;
                    best_p = p;
                }
            }
            if best_p != policy[v] {
                policy[v] = best_p;
                changed = true;
            }
        }
        if !changed {
            repwf_obs::counter_add(
                if warm_ok {
                    repwf_obs::CounterId::HowardItersWarm
                } else {
                    repwf_obs::CounterId::HowardItersCold
                },
                iter as u64 + 1,
            );
            return extract_witness(csr, members, policy, lambda, state);
        }
    }
    Err(RatioGraphError::NoConvergence)
}

/// Evaluates a policy on one component: for every member vertex, the ratio
/// of the policy cycle it reaches (`lambda`) and a potential solving
/// `x[v] = cost − λ·tokens + x[π(v)]` along policy edges, rooted at an
/// arbitrary vertex of each policy cycle. Returns whether every policy
/// cycle has the bit-identical λ (then every member's λ is that value).
#[allow(clippy::too_many_arguments)]
fn evaluate_policy(
    csr: &Csr,
    members: &[u32],
    policy: &[u32],
    lambda: &mut [f64],
    potential: &mut [f64],
    state: &mut [u8],
    walk_pos: &mut [u32],
    path: &mut Vec<u32>,
) -> Result<bool, RatioGraphError> {
    let to = csr.targets();
    let cost = csr.costs();
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
            u = to[policy[u as usize] as usize];
        }

        let settle_from = if state[u as usize] == 1 {
            // New policy cycle: path[pos..] are its vertices in order.
            let pos = walk_pos[u as usize] as usize;
            let cycle = &path[pos..];
            let mut c = 0.0;
            let mut t: u64 = 0;
            for &v in cycle {
                let p = policy[v as usize] as usize;
                c += cost[p];
                t += u64::from(tok[p]);
            }
            if t == 0 {
                return Err(RatioGraphError::ZeroTokenCycle { cycle: cycle.to_vec() });
            }
            let lam = c / t as f64;
            uniform &= *first_lam.get_or_insert(lam.to_bits()) == lam.to_bits();
            // Root the potential at the cycle entry point `u = cycle[0]`.
            lambda[u as usize] = lam;
            potential[u as usize] = 0.0;
            for i in (1..cycle.len()).rev() {
                let v = cycle[i] as usize;
                let p = policy[v] as usize;
                lambda[v] = lam;
                potential[v] = cost[p] - lam * f64::from(tok[p]) + potential[to[p] as usize];
                state[v] = 2;
            }
            state[u as usize] = 2;
            pos
        } else {
            // Reached an already-settled vertex; the whole path hangs off it.
            path.len()
        };

        // Settle the tail of the walk (path[..settle_from]) backwards.
        for i in (0..settle_from).rev() {
            let v = path[i] as usize;
            let p = policy[v] as usize;
            lambda[v] = lambda[to[p] as usize];
            potential[v] = cost[p] - lambda[v] * f64::from(tok[p]) + potential[to[p] as usize];
            state[v] = 2;
        }
    }
    Ok(uniform)
}

/// Extracts the critical circuit of the converged policy: follow the policy
/// from the member with maximal λ until a vertex repeats. Reuses `state`
/// (all members are at 2 after evaluation) with mark value 3.
fn extract_witness(
    csr: &Csr,
    members: &[u32],
    policy: &[u32],
    lambda: &[f64],
    state: &mut [u8],
) -> Result<CycleSolution, RatioGraphError> {
    let to = csr.targets();
    let cost = csr.costs();
    let tok = csr.token_counts();
    let mut start = members[0];
    for &v in &members[1..] {
        if lambda[v as usize] >= lambda[start as usize] {
            start = v;
        }
    }
    let mut u = start;
    while state[u as usize] != 3 {
        state[u as usize] = 3;
        u = to[policy[u as usize] as usize];
    }
    // `u` is on the cycle; walk it once more to collect it.
    let mut cycle = Vec::new();
    let mut c = 0.0;
    let mut t: u64 = 0;
    let first = u;
    loop {
        cycle.push(u);
        let p = policy[u as usize] as usize;
        c += cost[p];
        t += u64::from(tok[p]);
        u = to[p];
        if u == first {
            break;
        }
    }
    debug_assert!(t > 0, "converged policy cycle must carry tokens");
    Ok(CycleSolution { ratio: c / t as f64, cycle, cost: c, tokens: t })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::howard::max_cycle_ratio;
    use repwf_obs::counted;
    use repwf_obs::CounterId::{CsrBuilds, TarjanRuns};

    fn diamond() -> RatioGraph {
        let mut g = RatioGraph::new(4);
        g.add_edge(0, 1, 4.0, 1);
        g.add_edge(1, 0, 6.0, 0);
        g.add_edge(1, 2, 5.0, 1);
        g.add_edge(2, 3, 2.5, 0);
        g.add_edge(3, 0, 3.0, 2);
        g.add_edge(3, 3, 1.0, 1);
        g
    }

    #[test]
    fn csr_matches_adjacency() {
        let g = diamond();
        let mut csr = Csr::new();
        csr.build(&g);
        let (off, idx) = g.adjacency();
        assert_eq!(csr.offsets(), &off[..]);
        assert_eq!(csr.edge_indices(), &idx[..]);
    }

    fn unit_graph(n: usize, edges: &[(u32, u32)]) -> RatioGraph {
        let mut g = RatioGraph::new(n);
        for &(a, b) in edges {
            g.add_edge(a, b, 0.0, 0);
        }
        g
    }

    #[test]
    fn scc_single_cycle_is_one_component() {
        let g = unit_graph(3, &[(0, 1), (1, 2), (2, 0)]);
        let mut ws = Workspace::new();
        let scc = ws.scc(&g);
        assert_eq!(scc.num_components(), 1);
        assert_eq!(scc.members(0).len(), 3);
    }

    #[test]
    fn scc_dag_gives_singletons() {
        let g = unit_graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut ws = Workspace::new();
        let scc = ws.scc(&g);
        assert_eq!(scc.num_components(), 4);
        // No self-loops, so singletons cannot hold a circuit.
        assert!((0..scc.num_components()).all(|c| scc.members(c).len() == 1));
    }

    #[test]
    fn scc_two_cycles_bridge() {
        // 0↔1 and 2↔3 joined by 1→2.
        let g = unit_graph(4, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]);
        let mut ws = Workspace::new();
        let scc = ws.scc(&g);
        assert_eq!(scc.num_components(), 2);
        let sizes: Vec<usize> = (0..scc.num_components()).map(|c| scc.members(c).len()).collect();
        assert_eq!(sizes, vec![2, 2]);
        // components partition all vertices
        let mut seen = [false; 4];
        for c in 0..scc.num_components() {
            for &v in scc.members(c) {
                assert!(!seen[v as usize]);
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn scc_deep_chain_no_stack_overflow() {
        // 100k-vertex path plus a closing edge: one big SCC, iteratively.
        let n = 100_000;
        let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i as u32, i as u32 + 1)).collect();
        edges.push((n as u32 - 1, 0));
        let g = unit_graph(n, &edges);
        let mut ws = Workspace::new();
        assert_eq!(ws.scc(&g).num_components(), 1);
    }

    #[test]
    fn workspace_howard_matches_free_function_bitwise() {
        let mut ws = Workspace::new();
        let g = diamond();
        let a = max_cycle_ratio(&g).unwrap().unwrap();
        let b = ws.max_cycle_ratio(&g).unwrap().unwrap();
        assert_eq!(a.ratio.to_bits(), b.ratio.to_bits());
        assert_eq!(a.cycle, b.cycle);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.tokens, b.tokens);
    }

    #[test]
    fn reuse_across_different_sizes() {
        let mut ws = Workspace::new();
        for n in [2usize, 7, 3, 12] {
            let mut g = RatioGraph::new(n);
            for v in 0..n as u32 {
                g.add_edge(v, (v + 1) % n as u32, 1.0 + v as f64, 1);
            }
            let cold = max_cycle_ratio(&g).unwrap().unwrap();
            let reused = ws.max_cycle_ratio(&g).unwrap().unwrap();
            assert_eq!(cold.ratio.to_bits(), reused.ratio.to_bits());
        }
    }

    #[test]
    fn warm_start_same_graph_is_bitwise_identical() {
        let mut ws = Workspace::new();
        let g = diamond();
        let cold = ws.max_cycle_ratio(&g).unwrap().unwrap();
        let warm = ws.max_cycle_ratio_warm(&g).unwrap().unwrap();
        assert_eq!(cold.ratio.to_bits(), warm.ratio.to_bits());
        assert_eq!(cold.cycle, warm.cycle);
    }

    #[test]
    fn warm_start_across_cost_perturbations() {
        let mut ws = Workspace::new();
        let g = diamond();
        ws.max_cycle_ratio(&g).unwrap();
        // Same shape, different costs: warm must equal a cold solve.
        let mut g2 = RatioGraph::new(4);
        for e in g.edges() {
            g2.add_edge(e.from, e.to, e.cost * 1.75 + 0.1, e.tokens);
        }
        let warm = ws.max_cycle_ratio_warm(&g2).unwrap().unwrap();
        let cold = max_cycle_ratio(&g2).unwrap().unwrap();
        assert_eq!(warm.ratio.to_bits(), cold.ratio.to_bits());
    }

    #[test]
    fn warm_start_shape_mismatch_falls_back() {
        let mut ws = Workspace::new();
        let g = diamond();
        ws.max_cycle_ratio(&g).unwrap();
        let mut small = RatioGraph::new(2);
        small.add_edge(0, 1, 3.0, 1);
        small.add_edge(1, 0, 5.0, 1);
        let warm = ws.max_cycle_ratio_warm(&small).unwrap().unwrap();
        assert!((warm.ratio - 4.0).abs() < 1e-12);
    }

    #[test]
    fn warm_after_deadlock_error_is_safe() {
        let mut ws = Workspace::new();
        let mut bad = RatioGraph::new(2);
        bad.add_edge(0, 1, 1.0, 0);
        bad.add_edge(1, 0, 1.0, 0);
        assert!(ws.max_cycle_ratio(&bad).is_err());
        // The failed solve must not leave a warm signature behind.
        let g = diamond();
        let warm = ws.max_cycle_ratio_warm(&g).unwrap().unwrap();
        let cold = max_cycle_ratio(&g).unwrap().unwrap();
        assert_eq!(warm.ratio.to_bits(), cold.ratio.to_bits());
    }

    #[test]
    fn eps_is_scaled_per_component() {
        // Regression: a huge-|cost| component must not inflate the
        // improvement tolerance of a small-cost component elsewhere in the
        // graph. With a global eps of ~1.0 (scale 1e12 · 1e-12), the 10.4
        // cycle below is within eps of the 10.0 one and policy iteration
        // would stop at 10.0.
        let mut g = RatioGraph::new(4);
        g.add_edge(0, 0, -1e12, 1); // component A: enormous cost scale
                                    // Component B: two cycles through vertex 1 with close ratios.
        g.add_edge(1, 1, 10.0, 1); // ratio 10.0
        g.add_edge(1, 2, 10.4, 1);
        g.add_edge(2, 1, 10.4, 1); // ratio 10.4
        let sol = Workspace::new().max_cycle_ratio(&g).unwrap().unwrap();
        assert!((sol.ratio - 10.4).abs() < 1e-9, "got {}", sol.ratio);
        let cross = crate::lawler::max_cycle_ratio_lawler(&g).unwrap().unwrap();
        assert!((sol.ratio - cross.ratio).abs() < 1e-9);
    }

    #[test]
    fn cached_solve_skips_csr_and_tarjan_and_matches_bitwise() {
        let mut ws = Workspace::new();
        let mut g = diamond();
        let (first, c) = counted(|| ws.max_cycle_ratio_cached(&g, 7, true).unwrap().unwrap());
        assert_eq!(first.ratio.to_bits(), max_cycle_ratio(&g).unwrap().unwrap().ratio.to_bits());
        assert_eq!((c[CsrBuilds], c[TarjanRuns]), (1, 1));
        // Re-weight every edge in place (structure untouched): the cached
        // solve must skip CSR + Tarjan and still match a cold solve bit
        // for bit.
        for k in 0..6 {
            for (i, c) in [4.0, 6.0, 5.0, 2.5, 3.0, 1.0].iter().enumerate() {
                g.set_edge_cost(i, c * (1.3 + 0.1 * f64::from(k)));
            }
            let (cached, c) = counted(|| ws.max_cycle_ratio_cached(&g, 7, true).unwrap().unwrap());
            assert_eq!((c[CsrBuilds], c[TarjanRuns]), (0, 0), "hits must not rebuild");
            let cold = max_cycle_ratio(&g).unwrap().unwrap();
            assert_eq!(cached.ratio.to_bits(), cold.ratio.to_bits(), "k={k}");
            assert_eq!(cached.cycle, cold.cycle);
        }
    }

    #[test]
    fn cached_solve_token_or_dimension_miss_rebuilds() {
        let mut ws = Workspace::new();
        let g = diamond();
        let mut small = RatioGraph::new(2);
        small.add_edge(0, 1, 3.0, 1);
        small.add_edge(1, 0, 5.0, 1);
        let (sol, c) = counted(|| {
            ws.max_cycle_ratio_cached(&g, 1, false).unwrap();
            // Token miss: same graph, different token.
            ws.max_cycle_ratio_cached(&g, 2, false).unwrap();
            // Dimension miss: same token, different graph size.
            ws.max_cycle_ratio_cached(&small, 2, false).unwrap().unwrap()
        });
        assert_eq!(c[CsrBuilds], 3);
        assert!((sol.ratio - 4.0).abs() < 1e-12);
    }

    #[test]
    fn cached_solve_error_clears_structure_cache() {
        let mut ws = Workspace::new();
        let mut bad = RatioGraph::new(2);
        bad.add_edge(0, 1, 1.0, 0);
        bad.add_edge(1, 0, 1.0, 0);
        assert!(ws.max_cycle_ratio_cached(&bad, 9, false).is_err());
        // Same token and dimensions again: the failed solve must not have
        // recorded a reusable structure, so this call rebuilds.
        let (res, c) = counted(|| ws.max_cycle_ratio_cached(&bad, 9, false));
        assert!(res.is_err());
        assert_eq!(c[CsrBuilds], 1, "errored solve must clear the cache");
        // And the workspace stays fully usable.
        let g = diamond();
        let sol = ws.max_cycle_ratio_cached(&g, 10, true).unwrap().unwrap();
        assert_eq!(sol.ratio.to_bits(), max_cycle_ratio(&g).unwrap().unwrap().ratio.to_bits());
    }

    #[test]
    fn other_solvers_invalidate_structure_cache() {
        let mut ws = Workspace::new();
        let g = diamond();
        ws.max_cycle_ratio_cached(&g, 4, false).unwrap();
        // A plain condensation rebuilds the CSR: the cached structure
        // may no longer describe it.
        let (_, c) = counted(|| {
            ws.scc(&g);
        });
        assert!(c[CsrBuilds] > 0);
        let (_, c) = counted(|| ws.max_cycle_ratio_cached(&g, 4, false).unwrap());
        assert_eq!(c[CsrBuilds], 1, "cache must not survive a foreign rebuild");
    }

    /// Multiple SCCs of varying size plus acyclic glue, so the parallel
    /// solver actually has independent component tasks to distribute.
    fn multi_scc() -> RatioGraph {
        let mut g = RatioGraph::new(11);
        g.add_edge(0, 1, 2.0, 1);
        g.add_edge(1, 2, 7.5, 0);
        g.add_edge(2, 0, 1.25, 1);
        g.add_edge(1, 0, 3.0, 1);
        g.add_edge(3, 3, 9.0, 2);
        g.add_edge(4, 5, 4.0, 1);
        g.add_edge(5, 6, 6.0, 0);
        g.add_edge(6, 7, 0.5, 1);
        g.add_edge(7, 4, 8.0, 1);
        g.add_edge(6, 4, 2.5, 2);
        g.add_edge(2, 4, 1.0, 0);
        g.add_edge(3, 5, 5.0, 1);
        g.add_edge(8, 9, 1.0, 0);
        g.add_edge(9, 10, 2.0, 1);
        g
    }

    #[test]
    fn parallel_solve_matches_sequential_bitwise_at_every_thread_count() {
        for g in [diamond(), multi_scc()] {
            let seq = Workspace::new().max_cycle_ratio(&g).unwrap().unwrap();
            for threads in [1, 2, 4] {
                let mut ws = Workspace::new();
                let par = ws.max_cycle_ratio_par(&g, threads).unwrap().unwrap();
                assert_eq!(par.ratio.to_bits(), seq.ratio.to_bits(), "threads={threads}");
                assert_eq!(par.cost.to_bits(), seq.cost.to_bits(), "threads={threads}");
                assert_eq!(par.tokens, seq.tokens, "threads={threads}");
                assert_eq!(par.cycle, seq.cycle, "threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_solve_matches_sequential_on_errors_and_acyclic() {
        // Two deadlocked components: the error must be the sequential
        // solver's (first failing component in condensation order).
        let mut g = RatioGraph::new(4);
        g.add_edge(0, 1, 1.0, 0);
        g.add_edge(1, 0, 2.0, 0);
        g.add_edge(2, 3, 3.0, 0);
        g.add_edge(3, 2, 4.0, 0);
        let seq = Workspace::new().max_cycle_ratio(&g).unwrap_err();
        for threads in [1, 2, 4] {
            let par = Workspace::new().max_cycle_ratio_par(&g, threads).unwrap_err();
            assert_eq!(par, seq, "threads={threads}");
        }
        // Acyclic graph: Ok(None) everywhere.
        let mut dag = RatioGraph::new(3);
        dag.add_edge(0, 1, 1.0, 1);
        dag.add_edge(1, 2, 2.0, 1);
        for threads in [1, 2, 4] {
            assert_eq!(Workspace::new().max_cycle_ratio_par(&dag, threads).unwrap(), None);
        }
    }

    #[test]
    fn parallel_solve_leaves_caches_cold_for_next_cached_solve() {
        // A parallel solve must not poison the warm/structure caches: a
        // following cached solve with a fresh token rebuilds and matches.
        let g = multi_scc();
        let mut ws = Workspace::new();
        ws.max_cycle_ratio_par(&g, 2).unwrap();
        let cached = ws.max_cycle_ratio_cached(&g, 77, false).unwrap().unwrap();
        let cold = Workspace::new().max_cycle_ratio(&g).unwrap().unwrap();
        assert_eq!(cached.ratio.to_bits(), cold.ratio.to_bits());
    }
}
