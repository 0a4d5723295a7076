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
//! iteration: [`Workspace::max_cycle_ratio_cached`] with `warm` seeds
//! Howard's iteration with the converged policy of the previous solve
//! whenever the graph shape matches, which typically converges in one or
//! two policy evaluations on the neighbor-mapping graphs produced by local
//! search and annealing. Warm starts change the *search path*, not the
//! result: the returned ratio is always recomputed exactly from the witness
//! circuit. The only caveat: when two distinct circuits tie for critical
//! within the solver's eps tolerance (~1e-12 relative — measure zero for
//! generic random costs, property-tested bit-for-bit on such inputs), a
//! warm start may settle on the other member of the tie and report its bit
//! pattern.
//!
//! **One kernel.** Every Howard solve of this crate — cold, warm, cached
//! and each lane of a shape batch ([`crate::batch`]) — runs the same
//! per-component kernel, which reads edge costs from the CSR's cost
//! mirror: refreshed from the graph for a solo solve, copied from the
//! lane's cost plane for a batch. Components are solved one after another
//! in condensation order.
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
//! **Howard on the contracted choice graph.** A *forced* vertex has
//! exactly one in-component out-edge; 51–67 % of the vertices of a
//! strict-model TPN ratio graph are forced (by size: 66.7 % at 2 stages on
//! 7 processors, 51.3 % at 20 on 30). A forced vertex never changes
//! policy, so the kernel iterates on the *choice vertices* only (those
//! with two or more in-component out-edges; a lone circuit, which has
//! none, keeps its first member as one). A **chain** is the path an
//! in-component edge of a choice vertex starts: through forced vertices
//! only, up to the next choice vertex, its *end*. Contracting every chain
//! to one edge leaves the **choice graph**, whose edges carry the chain's
//! cost and token sums.
//!
//! Right after Tarjan, the condensation step of a Howard solve records
//! the **choice index**: every vertex's in-component out-edges as CSR
//! positions, each forced vertex's edge, the choice vertices per
//! component, and the end and token sum of the chain each edge starts (a
//! plain [`Workspace::scc`] builds none). It is part of the condensation,
//! so it lives exactly as long as the structure token does: structure
//! hits — patched solves, pattern slots, batch chunks — reuse it, and the
//! `csr_builds` / `tarjan_runs` counters keep their meaning. Costs belong
//! to a solve, so each solve sums the chain costs once, from the CSR's
//! cost mirror. Policy evaluation and both improvement phases see only
//! choice vertices. Policies stay CSR positions, so warm starts keep their
//! meaning.
//!
//! **What stays as on the expanded graph.** Evaluation roots every policy
//! cycle where a walk of *every* member in member order would: at the
//! vertex where the first member of the cycle's basin enters the cycle
//! (which may be a forced vertex). The index lists the choice vertices in
//! that walk order, each with its *feeder*, the first member that reaches
//! it through forced vertices only; evaluation finds the entry where the
//! feeder's forced path merges with the chain into the cycle. A cycle's λ is its expanded circuit's cost sum from that
//! root, in circuit order, over its token sum: the bits of a solver that
//! walks every member. Forced members take the λ of their chain's end.
//! So every λ, every λ-uniform flag, every phase-1 comparison, the
//! witness's start (the member with maximal λ, the later one on ties), the
//! expanded circuit it sums and the errors (`max_iters` stays on the
//! expanded sizes; a zero-token cycle is reported as the member walk finds
//! it) are those of the expanded solver under the same policy.
//!
//! **What changes: only potentials change their float association.** A
//! choice vertex's potential is `C − λ·T + x[end]` over its whole chain
//! instead of one such step per forced vertex, with the same root, so it
//! equals the expanded solver's potential in exact arithmetic and differs
//! from it by rounding only. A phase-2 comparison `val > best + eps`
//! therefore decides as the expanded solver's unless the two sides differ
//! by less than that rounding from the eps threshold, which happens only
//! on near-ties inside the eps band; phase 1 and the filter `λ[w] < λ[v] −
//! eps` read λs and decide exactly alike. The same policies thus give the
//! same witness, bit for bit. The pins hold this: every `ci/` reference,
//! `table2 --full`, the campaign documents and counters, and the witness
//! digests of `tests/witness_digest.rs` are those of the uncontracted
//! kernel. Where nearly every circuit ties, the path can change: on a
//! family whose times are all equal (4 stages on 16 processors, comp and
//! comm 1), 26 of the draws with seeds 1 to 3 000 run a different number
//! of rounds, with the same ratio bits and witnesses; that family's digest
//! pins the round counts too.
//!
//! Policy evaluation also reports whether every policy cycle it found has
//! the bit-identical λ; in such a **λ-uniform** round the phase-1 sweep
//! and phase 2's `λ[w] < λ[v] − eps` filter are skipped. Neither that nor
//! leaving out forced vertices changes a decision, because each drops
//! only comparisons that cannot succeed (eps ≥ 0; the argument holds for
//! ±∞ and NaN too, where the comparisons are false):
//!
//! * *Forced vertex `v`* with policy edge `p`, its only in-component edge.
//!   Phase 1 would test `λ[to[p]] > λ[to[p]] + eps` and phase 2
//!   `val > val + eps`: both false, so `policy[v]` and the round's
//!   `changed` flag stay as they were.
//! * *λ-uniform round.* Every member copies the λ of the policy cycle it
//!   reaches, so all members hold the same λ. Phase 1's test compares that
//!   value with itself plus eps and fails everywhere: the sweep would
//!   change nothing and fall through to phase 2. Phase 2's filter compares
//!   it with itself minus eps and never fires.

use crate::batch::{validate_plane, CostPlanes};
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

/// No vertex, or no edge: the `forced_edge` of a choice vertex, the
/// `feeder` of a vertex nothing has reached yet, the `end` of a chain not
/// yet followed.
const NONE: u32 = u32::MAX;

/// The **choice index** of a condensation: every vertex's in-component
/// out-edges as CSR positions, per component the members that have a
/// choice (≥ 2 in-component out-edges), and the **chains** that contract
/// the other, *forced* members away. Built by [`Workspace::condense`]
/// right after Tarjan on the Howard paths only, so it lives exactly as
/// long as the condensation and is reused by every structure hit (see
/// the module docs).
#[derive(Debug, Clone, Default)]
struct ChoiceIndex {
    /// `edges[offsets[v]..offsets[v + 1]]` are the CSR positions of `v`'s
    /// out-edges whose target lies in `v`'s component, in CSR order.
    offsets: Vec<u32>,
    edges: Vec<u32>,
    /// Per vertex, the CSR position of its one in-component edge when it
    /// is forced, and `NONE` otherwise (for a choice vertex in
    /// particular).
    forced_edge: Vec<u32>,
    /// `choices[choice_offsets[c]..choice_offsets[c + 1]]` are the members
    /// of component `c` with at least two in-component out-edges; a cyclic
    /// component without one (a lone circuit) has its first member here
    /// instead. They are listed in *walk order*: by the first member, in
    /// member order, that reaches each through forced vertices only (its
    /// `feeder`, possibly itself).
    choice_offsets: Vec<u32>,
    choices: Vec<u32>,
    feeder: Vec<u32>,
    /// `forced[forced_offsets[c]..forced_offsets[c + 1]]` are the other
    /// members of cyclic component `c`, each after the forced vertex its
    /// edge leads to (if any).
    forced_offsets: Vec<u32>,
    forced: Vec<u32>,
    /// Indexed by the CSR position `p` of an in-component edge: the
    /// choice vertex the chain starting with `p` ends at, and the chain's
    /// token sum (exact: a sum of integers below 2^53). One more entry,
    /// at `ne`, is the sentinel of [`ChoiceIndex::link`].
    end: Vec<u32>,
    tokens: Vec<f64>,
}

impl ChoiceIndex {
    /// Indexes the condensation `(comp, comp_offsets, comp_vertices)` of
    /// `csr`: one pass in vertex order lists the in-component edges
    /// (compacted branch-free: every candidate is written, and the length
    /// advances only past the kept ones) and marks the forced vertices,
    /// then [`ChoiceIndex::build_chains`] follows the chains.
    fn build(&mut self, csr: &Csr, comp: &[u32], comp_offsets: &[u32], comp_vertices: &[u32]) {
        let to = csr.targets();
        let ne = to.len();
        self.offsets.clear();
        self.offsets.push(0);
        self.edges.clear();
        self.edges.resize(ne, 0);
        self.forced_edge.clear();
        self.forced_edge.resize(comp.len(), NONE);
        // `end` marks the chains not followed yet (see `build_chains`);
        // every other entry read later is written first.
        self.end.resize(ne + 1, NONE);
        self.tokens.resize(ne + 1, 0.0);
        self.tokens[ne] = -0.0;
        let mut len = 0;
        for (v, &c) in comp.iter().enumerate() {
            let first = len;
            for p in csr.range(v as u32) {
                self.edges[len] = p as u32;
                len += usize::from(comp[to[p] as usize] == c);
            }
            self.offsets.push(len as u32);
            if len - first == 1 {
                let q = self.edges[first];
                self.forced_edge[v] = q;
                self.end[q as usize] = NONE;
            }
        }
        self.edges.truncate(len);
        self.build_chains(csr, comp_offsets, comp_vertices);
    }

    /// Follows the chains of every cyclic component, then walks its
    /// members in member order to fill the chain end and token sum of
    /// every in-component edge and list its choice vertices in walk order
    /// with their feeders (see the field docs).
    ///
    /// A forced member whose chain is not known yet starts a walk through
    /// forced vertices that stops at a choice vertex or at a forced vertex
    /// whose chain is known; the walk's vertices then take their chains
    /// from there, back to front, so each forced vertex is walked once. A
    /// walk ends: a circuit of forced vertices has no edge leaving it, so
    /// it is a lone circuit, whose first member is made a choice vertex
    /// first. The member pass then reads the chain behind each edge's
    /// target at [`ChoiceIndex::link`]; it refills a forced member's edge
    /// with the values the walk gave it.
    fn build_chains(&mut self, csr: &Csr, comp_offsets: &[u32], comp_vertices: &[u32]) {
        let (to, tok) = (csr.targets(), csr.token_counts());
        let ne = to.len();
        let Self {
            offsets,
            edges,
            forced_edge,
            choice_offsets,
            choices,
            feeder,
            forced_offsets,
            forced,
            end,
            tokens,
        } = self;
        // Only the previous choice vertices hold a feeder.
        for &h in choices.iter() {
            feeder[h as usize] = NONE;
        }
        feeder.resize(forced_edge.len(), NONE);
        choices.clear();
        choice_offsets.clear();
        choice_offsets.push(0);
        forced.clear();
        forced_offsets.clear();
        forced_offsets.push(0);
        let cyclic = |members: &[u32]| {
            let m = members[0] as usize;
            members.len() > 1 || offsets[m + 1] > offsets[m]
        };
        for w in comp_offsets.windows(2) {
            let members = &comp_vertices[w[0] as usize..w[1] as usize];
            if cyclic(members) && members.iter().all(|&m| forced_edge[m as usize] != NONE) {
                // A lone circuit: its first member stands in as the choice.
                forced_edge[members[0] as usize] = NONE;
            }
        }
        let forced_edge = &forced_edge[..];
        for w in comp_offsets.windows(2) {
            let members = &comp_vertices[w[0] as usize..w[1] as usize];
            // The one member of an acyclic component has no edge to walk.
            let members = if cyclic(members) { members } else { &[] };
            for &m in members {
                let q = forced_edge[m as usize];
                if q == NONE || end[q as usize] != NONE {
                    continue;
                }
                let first = forced.len();
                let mut v = m as usize;
                while forced_edge[v] != NONE && end[forced_edge[v] as usize] == NONE {
                    forced.push(v as u32);
                    v = to[forced_edge[v] as usize] as usize;
                }
                let (e, mut t) = match forced_edge[v] {
                    NONE => (v as u32, -0.0),
                    r => (end[r as usize], tokens[r as usize]),
                };
                for &f in forced[first..].iter().rev() {
                    let r = forced_edge[f as usize] as usize;
                    t += f64::from(tok[r]);
                    end[r] = e;
                    tokens[r] = t;
                }
                forced[first..].reverse();
            }
            for &m in members {
                let m = m as usize;
                for &p in &edges[offsets[m] as usize..offsets[m + 1] as usize] {
                    let (p, w) = (p as usize, to[p as usize]);
                    let r = forced_edge[w as usize];
                    let s = (r as usize).min(ne);
                    end[p] = if r == NONE { w } else { end[s] };
                    tokens[p] = f64::from(tok[p]) + tokens[s];
                }
                let q = forced_edge[m];
                let head = if q == NONE { m } else { end[q as usize] as usize };
                // The member that first reaches `head` becomes its feeder.
                if feeder[head] == NONE {
                    feeder[head] = m as u32;
                    choices.push(head as u32);
                }
            }
            choice_offsets.push(choices.len() as u32);
            forced_offsets.push(forced.len() as u32);
        }
    }

    /// CSR positions of `v`'s in-component out-edges.
    fn edges(&self, v: u32) -> &[u32] {
        &self.edges[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// The choice vertices of component `c`.
    fn choices(&self, c: usize) -> &[u32] {
        &self.choices[self.choice_offsets[c] as usize..self.choice_offsets[c + 1] as usize]
    }

    /// Chain ends by CSR position (see the field docs).
    fn ends(&self) -> &[u32] {
        &self.end
    }

    /// Chain token sums by CSR position.
    fn chain_tokens(&self) -> &[f64] {
        &self.tokens
    }

    /// The forced members of component `c`, each after its successor.
    fn forced(&self, c: usize) -> &[u32] {
        &self.forced[self.forced_offsets[c] as usize..self.forced_offsets[c + 1] as usize]
    }

    /// Where the sums of the chain behind vertex `w` are kept: at its
    /// edge's CSR position when it is forced; at the sentinel position
    /// `ne` when it is a choice vertex, whose chain is empty. The sentinel
    /// holds −0.0, which leaves every sum it is added to bit-identical.
    fn link(&self, w: u32) -> usize {
        (self.forced_edge[w as usize] as usize).min(self.end.len() - 1)
    }

    /// The first vertex two forced paths to the same choice vertex share,
    /// starting at `a` and at `b` (either may be that choice vertex): the
    /// longer path is advanced by the difference in length, then both in
    /// step until they meet.
    fn merge(&self, to: &[u32], mut a: u32, mut b: u32) -> u32 {
        if a == b {
            return a;
        }
        let step = |v: u32| to[self.forced_edge[v as usize] as usize];
        let length = |mut v: u32| {
            let mut len = 0;
            while self.forced_edge[v as usize] != NONE {
                v = step(v);
                len += 1;
            }
            len
        };
        let (la, lb) = (length(a), length(b));
        for _ in lb..la {
            a = step(a);
        }
        for _ in la..lb {
            b = step(b);
        }
        while a != b {
            a = step(a);
            b = step(b);
        }
        a
    }

    /// The CSR position `v` leaves by under `policy`: its policy edge
    /// when it is a choice vertex, its one in-component edge when it is
    /// forced (a forced vertex keeps no policy).
    fn next(&self, policy: &[u32], v: u32) -> usize {
        match self.forced_edge[v as usize] {
            NONE => policy[v as usize] as usize,
            q => q as usize,
        }
    }

    /// True iff the component with these members contains a circuit: it
    /// has two or more members, or its one member has a self-loop.
    fn is_cyclic(&self, members: &[u32]) -> bool {
        members.len() > 1 || !self.edges(members[0]).is_empty()
    }
}

/// A walk's mark of a vertex it has not reached.
const UNSEEN: u32 = 0;
/// A walk's mark of a settled vertex; a vertex on the current walk holds
/// its position on it plus one instead.
const SETTLED: u32 = u32::MAX;
/// The witness walk's mark (see [`extract_witness`]).
const ON_WITNESS: u32 = u32::MAX - 1;

/// Howard's per-vertex columns over global vertex ids, and the walk
/// scratch of policy evaluation and witness extraction (`mark` holds the
/// walks' marks, `path` a walk of at most `n` vertices). `policy[v]` of a
/// choice vertex is a CSR *position* (an index into the SoA arrays of the
/// CSR), always inside `csr.range(v)`.
#[derive(Debug, Clone, Default)]
struct Columns {
    policy: Vec<u32>,
    lambda: Vec<f64>,
    potential: Vec<f64>,
    mark: Vec<u32>,
    path: Vec<u32>,
}

impl Columns {
    /// Sizes every column to `n` vertices and resets it; `keep_policy`
    /// keeps the policy of the previous solve for a warm start.
    fn reset(&mut self, n: usize, keep_policy: bool) {
        if !keep_policy {
            self.policy.clear();
            self.policy.resize(n, u32::MAX);
        }
        self.lambda.clear();
        self.lambda.resize(n, f64::NEG_INFINITY);
        self.potential.clear();
        self.potential.resize(n, 0.0);
        self.mark.clear();
        self.mark.resize(n, UNSEEN);
        self.path.clear();
        self.path.resize(n, 0);
    }
}

/// Owned scratch state of Howard's solver.
///
/// Create once, then call [`Workspace::max_cycle_ratio`] (or the cached /
/// batched variants) as many times as needed; buffers grow to
/// the largest graph seen and are reused afterwards.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    csr: Csr,
    // SCC decomposition (flat: no Vec<Vec<_>>).
    comp: Vec<u32>,
    comp_offsets: Vec<u32>,
    comp_vertices: Vec<u32>,
    /// In-component edges and choice vertices of the condensation above.
    choice: ChoiceIndex,
    // Tarjan scratch.
    index: Vec<u32>,
    lowlink: Vec<u32>,
    vstack: Vec<u32>,
    frames: Vec<(u32, u32)>,
    cols: Columns,
    /// The current solve's chain cost sums, by CSR position, and the
    /// sentinel of [`ChoiceIndex::link`].
    chain_cost: Vec<f64>,
    /// A copy of `cols` after each lane of the last batch.
    #[cfg(test)]
    lane_columns: Vec<Columns>,
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

/// Generous policy-iteration bound: each iteration strictly improves
/// (λ, x) and policies are finite. Guards against floating-point livelock.
fn max_iters(n: usize, ne: usize) -> usize {
    64 + 8 * n + ne
}

impl Workspace {
    /// Creates an empty workspace (no allocation until the first solve).
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Computes the SCC decomposition of `g` into the workspace buffers and
    /// returns a borrowed view (no per-call allocation after warm-up).
    /// Builds no choice index: only the Howard solves read one.
    pub fn scc(&mut self, g: &RatioGraph) -> SccView<'_> {
        self.rebuild_csr(g);
        let _span = repwf_obs::span!(Tarjan);
        self.tarjan(g);
        SccView { comp_offsets: &self.comp_offsets, comp_vertices: &self.comp_vertices }
    }

    /// (Re)builds the CSR adjacency of `g`, counting the build and
    /// forgetting the structure cache (the cached condensation may no
    /// longer describe the CSR contents).
    fn rebuild_csr(&mut self, g: &RatioGraph) {
        let _span = repwf_obs::span!(CsrBuild);
        self.struct_sig = None;
        self.csr.build(g);
        repwf_obs::counter_add(repwf_obs::CounterId::CsrBuilds, 1);
    }

    /// Tarjan's condensation of the CSR into the workspace buffers.
    fn tarjan(&mut self, g: &RatioGraph) {
        tarjan_flat(
            g,
            &self.csr,
            &mut self.index,
            &mut self.lowlink,
            &mut self.vstack,
            &mut self.frames,
            &mut self.comp,
            &mut self.comp_offsets,
            &mut self.comp_vertices,
        );
        repwf_obs::counter_add(repwf_obs::CounterId::TarjanRuns, 1);
    }

    /// CSR build, Tarjan condensation and its choice index: the
    /// structural phase of every Howard solve.
    fn condense(&mut self, g: &RatioGraph) {
        self.rebuild_csr(g);
        let _span = repwf_obs::span!(Tarjan);
        self.tarjan(g);
        self.choice.build(&self.csr, &self.comp, &self.comp_offsets, &self.comp_vertices);
    }

    /// Howard's policy iteration with cold-started (deterministic) policy
    /// initialization. Semantics match [`crate::howard::max_cycle_ratio`];
    /// only the allocation behavior differs.
    pub fn max_cycle_ratio(&mut self, g: &RatioGraph) -> RatioResult {
        self.howard(g, false, None)
    }

    /// Howard's policy iteration with a **shape-cached** structural phase:
    /// when `structure` equals the token of the previous successful cached
    /// solve and the vertex/edge counts match, the CSR adjacency and the
    /// Tarjan condensation are reused as-is — only the structure-of-arrays
    /// cost mirror is refreshed from `g` ([`Csr::refresh_costs`]) before
    /// policy iteration starts. Zero CSR builds, zero Tarjan runs on a hit.
    ///
    /// With `warm`, the iteration is seeded with the converged policy of
    /// the previous solve when the graph shape (vertex and edge counts)
    /// matches; each vertex whose stored policy edge is no longer one of
    /// its in-component edges falls back to the cold initialization. A
    /// fresh token gives a warm solve on a rebuilt structure.
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
    /// Results are bit-for-bit those of [`Workspace::max_cycle_ratio`] on
    /// the same graph (for warm solves, see the module docs for the
    /// eps-level-tie caveat): the cached arrays are exactly what a rebuild
    /// would produce.
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

    /// Solves the maximum cycle ratio of `k` instances sharing one graph
    /// structure over a single condensation (see [`crate::batch`]).
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
    /// the others: the remaining lanes still run; the structure cache is
    /// only re-armed when every instance succeeded, and the warm policy is
    /// never reusable after a batch (lanes start cold).
    pub fn max_cycle_ratio_batch(
        &mut self,
        g: &RatioGraph,
        structure: u64,
        planes: &CostPlanes,
    ) -> Vec<RatioResult> {
        let k = planes.num_instances();
        let n = g.num_vertices();
        let ne = g.num_edges();
        assert_eq!(planes.num_edges(), ne, "cost planes must cover every edge of the graph");
        #[cfg(test)]
        self.lane_columns.clear();
        if k == 0 {
            return Vec::new();
        }
        let _span = repwf_obs::span!(BatchSolve);
        repwf_obs::counter_add(repwf_obs::CounterId::BatchedPasses, 1);
        repwf_obs::counter_add(repwf_obs::CounterId::BatchedLanes, k as u64);

        // Per-instance validation, mirroring `RatioGraph::validate` with
        // the instance's own costs: same error variant, same edge-order
        // precedence as a solo solve on that instance's graph.
        let valid: Vec<Result<(), RatioGraphError>> =
            (0..k).map(|q| validate_plane(g, planes.plane(q))).collect();
        if valid.iter().all(Result::is_err) {
            return valid.into_iter().map(|r| r.map(|()| None)).collect();
        }

        // The structure cache works as in `howard`, except that each lane
        // copies its own plane into the CSR cost mirror. A later cached
        // hit refreshes the mirror from its graph.
        let structure_ok = self.struct_sig == Some((structure, n, ne));
        self.warm_sig = None;
        self.struct_sig = None;
        if !structure_ok {
            self.condense(g);
        }
        self.cols.reset(n, false);
        let mut results = Vec::with_capacity(k);
        for (q, v) in valid.into_iter().enumerate() {
            results.push(v.and_then(|()| {
                let plane = planes.plane(q);
                for (cost, &ei) in self.csr.cost.iter_mut().zip(&self.csr.eidx) {
                    *cost = plane[ei as usize];
                }
                self.solve_components(true, false)
            }));
            #[cfg(test)]
            self.lane_columns.push(self.cols.clone());
        }
        if results.iter().all(Result::is_ok) {
            self.struct_sig = Some((structure, n, ne));
        }
        results
    }

    /// The policy, λ and potential columns lane `q` of the last batch
    /// left behind; `None` when the batch ran no lane.
    #[cfg(test)]
    pub(crate) fn lane_columns(&self, q: usize) -> Option<(&[u32], &[f64], &[f64])> {
        let cols = self.lane_columns.get(q)?;
        Some((&cols.policy, &cols.lambda, &cols.potential))
    }

    /// The policy, λ and potential columns the last solve left behind.
    #[cfg(test)]
    pub(crate) fn columns(&self) -> (&[u32], &[f64], &[f64]) {
        (&self.cols.policy, &self.cols.lambda, &self.cols.potential)
    }

    fn howard(&mut self, g: &RatioGraph, warm: bool, structure: Option<u64>) -> RatioResult {
        let _span = repwf_obs::span!(Solve);
        g.validate()?;
        let n = g.num_vertices();
        let ne = g.num_edges();
        let warm_ok = warm && self.warm_sig == Some((n, ne)) && self.cols.policy.len() == n;
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
        self.cols.reset(n, warm_ok);
        let best = self.solve_components(false, warm_ok)?;
        self.warm_sig = Some((n, ne));
        if let Some(token) = structure {
            self.struct_sig = Some((token, n, ne));
        }
        Ok(best)
    }

    /// Runs `howard_component` on every cyclic component of the current
    /// condensation and folds the witnesses in condensation order; the
    /// first failing component's error wins. A batch lane counts its
    /// rounds as batched.
    fn solve_components(&mut self, batched: bool, warm_ok: bool) -> RatioResult {
        use repwf_obs::CounterId::{HowardItersBatched, HowardItersCold, HowardItersWarm};
        let Workspace { csr, comp_offsets, comp_vertices, choice, cols, chain_cost, .. } = self;
        let max_iters = max_iters(csr.offsets().len() - 1, csr.targets().len());
        let ne = csr.targets().len();
        chain_cost.resize(ne + 1, 0.0);
        chain_cost[ne] = -0.0;
        let iters = match (batched, warm_ok) {
            (true, _) => HowardItersBatched,
            (false, true) => HowardItersWarm,
            (false, false) => HowardItersCold,
        };
        let mut best: Option<CycleSolution> = None;
        for c in 0..comp_offsets.len() - 1 {
            let members = &comp_vertices[comp_offsets[c] as usize..comp_offsets[c + 1] as usize];
            if !choice.is_cyclic(members) {
                continue;
            }
            let sol = howard_component(
                csr, choice, c, members, warm_ok, iters, cols, chain_cost, max_iters,
            )?;
            if best.as_ref().is_none_or(|b| sol.ratio > b.ratio) {
                best = Some(sol);
            }
        }
        Ok(best)
    }
}

/// Iterative Tarjan into flat component arrays (no recursion, no
/// per-component `Vec`, safe for graphs with hundreds of thousands of
/// vertices). Component ids are in reverse topological order of the
/// condensation. A frame holds a vertex and the CSR position of its next
/// edge to scan; a visited vertex without a component yet is exactly one
/// on the vertex stack.
#[allow(clippy::too_many_arguments)]
fn tarjan_flat(
    g: &RatioGraph,
    csr: &Csr,
    index: &mut Vec<u32>,
    lowlink: &mut Vec<u32>,
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
    vstack.clear();
    frames.clear();
    comp.clear();
    comp.resize(n, UNSET);
    comp_offsets.clear();
    comp_offsets.push(0);
    comp_vertices.clear();

    let (offsets, targets) = (csr.offsets(), csr.targets());
    let mut next_index = 0u32;
    let mut visit = |v: u32, index: &mut [u32], lowlink: &mut [u32], vstack: &mut Vec<u32>| {
        index[v as usize] = next_index;
        lowlink[v as usize] = next_index;
        next_index += 1;
        vstack.push(v);
        (v, offsets[v as usize])
    };
    for root in 0..n as u32 {
        if index[root as usize] != UNSET {
            continue;
        }
        frames.push(visit(root, index, lowlink, vstack));
        while let Some(&(v, mut pos)) = frames.last() {
            let vi = v as usize;
            // Scan `v`'s edges up to the first unvisited target.
            let mut child = None;
            while pos < offsets[vi + 1] {
                let w = targets[pos as usize];
                pos += 1;
                let wi = w as usize;
                if index[wi] == UNSET {
                    child = Some(w);
                    break;
                }
                if comp[wi] == UNSET {
                    lowlink[vi] = lowlink[vi].min(index[wi]);
                }
            }
            if let Some(w) = child {
                let top = frames.len() - 1;
                frames[top].1 = pos;
                frames.push(visit(w, index, lowlink, vstack));
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                let pi = parent as usize;
                lowlink[pi] = lowlink[pi].min(lowlink[vi]);
            }
            if lowlink[vi] == index[vi] {
                let cid = (comp_offsets.len() - 1) as u32;
                loop {
                    let w = vstack.pop().expect("tarjan stack underflow");
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

/// Howard's iteration on component `c`, operating on global vertex ids:
/// the one policy-iteration kernel of this crate, run on the component's
/// contracted choice graph (see the module docs). It reads edge costs
/// from the CSR's cost mirror, and `cols.policy` holds CSR positions.
/// Each solve first sums the chain costs into `chain_cost` by CSR
/// position; policy evaluation and both improvement phases then visit the
/// choice vertices only, reading chain sums and ends, and the witness is
/// extracted on the expanded graph. On convergence the rounds run are
/// added to the `iters` counter.
#[allow(clippy::too_many_arguments)]
fn howard_component(
    csr: &Csr,
    index: &ChoiceIndex,
    c: usize,
    members: &[u32],
    warm_ok: bool,
    iters: repwf_obs::CounterId,
    cols: &mut Columns,
    chain_cost: &mut [f64],
    max_iters: usize,
) -> Result<CycleSolution, RatioGraphError> {
    let (to, cost) = (csr.targets(), csr.costs());
    let choices = index.choices(c);

    // One sweep over the component's forced edges, then one over its
    // choice vertices' in-component edges, folds the improvement
    // tolerance, sums each chain's costs (successors first) and sets the
    // initial policy.
    //
    // The tolerance is scaled to THIS component's costs: a huge-cost
    // component elsewhere in the graph must not inflate eps here and
    // suppress genuine improvements (per-SCC scale, as in the historical
    // per-subgraph implementation). Every in-component edge is a choice
    // vertex's or a forced vertex's, so the fold sees them all.
    //
    // Policy: one in-component out-edge per choice vertex. Cold start
    // picks the max-cost edge (last one on ties, mirroring the historical
    // `max_by`); warm start keeps the previous policy edge when it is
    // still an in-component edge of this vertex (same-shape graphs produce
    // identical CSR layouts, so a kept position denotes the structurally
    // same edge as in the prior solve).
    let mut scale = 1.0f64;
    for &f in index.forced(c) {
        let q = index.forced_edge[f as usize] as usize;
        scale = scale.max(cost[q].abs());
        chain_cost[q] = cost[q] + chain_cost[index.link(to[q])];
    }
    for &vu in choices {
        let v = vu as usize;
        let edges = index.edges(vu);
        let keep = warm_ok && edges.contains(&cols.policy[v]);
        let mut best_p = u32::MAX;
        let mut best_cost = f64::NEG_INFINITY;
        for &p in edges {
            let c = cost[p as usize];
            scale = scale.max(c.abs());
            if c >= best_cost {
                best_cost = c;
                best_p = p;
            }
            chain_cost[p as usize] = cost[p as usize] + chain_cost[index.link(to[p as usize])];
        }
        if !keep {
            cols.policy[v] = best_p;
        }
    }
    let eps = scale * 1e-12;
    let (end, tokens) = (index.ends(), index.chain_tokens());
    let chain_cost = &chain_cost[..];
    let graph = ChoiceGraph { csr, index, chain_cost };

    for iter in 0..max_iters {
        let Some(uniform) = evaluate_policy(&graph, choices, cols) else {
            return Err(zero_token_cycle(csr, index, members, cols));
        };
        // Slices, not the `Vec` fields: a store through one field could
        // otherwise move another's pointer, and every access reloads it.
        let (policy, lambda, potential) =
            (&mut cols.policy[..], &cols.lambda[..], &cols.potential[..]);

        // Phase 1: improve by cycle-ratio value. With one λ everywhere no
        // edge can beat the policy edge by more than eps: skipped.
        let mut changed = false;
        if !uniform {
            for &vu in choices {
                let v = vu as usize;
                let mut best_p = policy[v];
                let mut best_l = lambda[end[best_p as usize] as usize];
                for &p in index.edges(vu) {
                    let l = lambda[end[p as usize] as usize];
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
            let cur_val = chain_cost[cur] - lambda[v] * tokens[cur] + potential[end[cur] as usize];
            let mut best_p = policy[v];
            let mut best_val = cur_val;
            for &p in index.edges(vu) {
                let pi = p as usize;
                let w = end[pi] as usize;
                if !uniform && lambda[w] < lambda[v] - eps {
                    continue;
                }
                let val = chain_cost[pi] - lambda[v] * tokens[pi] + potential[w];
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
            repwf_obs::counter_add(iters, iter as u64 + 1);
            return Ok(extract_witness(csr, index, c, members, cols));
        }
    }
    Err(RatioGraphError::NoConvergence)
}

/// One component's contracted choice graph under the costs of one solve:
/// the CSR (whose cost mirror holds the raw edge costs), and the chain
/// cost sums that policy evaluation and the improvement phases read.
#[derive(Clone, Copy)]
struct ChoiceGraph<'a> {
    csr: &'a Csr,
    index: &'a ChoiceIndex,
    /// Chain cost sums by CSR position.
    chain_cost: &'a [f64],
}

impl ChoiceGraph<'_> {
    /// The root a walk of every member in member order gives the policy
    /// cycle `path[pos..]` that a walk from `path[0]` found: the vertex at
    /// which the path from `path[0]`'s feeder, the first member of the
    /// cycle's basin, enters the cycle on the expanded graph. That path
    /// enters through the last chain before the cycle, or through the
    /// feeder's own forced path when `path[0]` is on the cycle, and it
    /// meets the cycle where it merges with the chain into `path[pos]`.
    fn root(&self, policy: &[u32], path: &[u32], pos: usize) -> u32 {
        let (to, index) = (self.csr.targets(), self.index);
        let into_cycle = to[policy[path[path.len() - 1] as usize] as usize];
        let feeder = index.feeder[path[0] as usize];
        let from = match pos {
            0 if feeder == path[0] => return path[0],
            0 => feeder,
            _ => to[policy[path[pos - 1] as usize] as usize],
        };
        index.merge(to, from, into_cycle)
    }

    /// Settles the policy cycle `cycle` (choice vertices in policy order,
    /// token sum `t`) rooted at `root`, which is `cycle[0]` or a forced
    /// vertex on the chain into it, and returns its λ. λ is the cost sum
    /// of the expanded circuit from `root`, in circuit order, over `t`: the
    /// bits a walk of the expanded graph computes. The root's potential is
    /// 0; the choice vertex before it takes the cost and token sums of the
    /// edges from it to the root, and the others follow back along the
    /// cycle by `x[v] = C − λ·T + x[end]`.
    fn settle_cycle(
        &self,
        policy: &[u32],
        cycle: &[u32],
        root: u32,
        t: f64,
        lambda: &mut [f64],
        potential: &mut [f64],
    ) -> f64 {
        let (to, tok, cost) = (self.csr.targets(), self.csr.token_counts(), self.csr.costs());
        let index = self.index;
        let mut c = 0.0;
        let mut v = root;
        loop {
            let p = index.next(policy, v);
            c += cost[p];
            v = to[p];
            if v == root {
                break;
            }
        }
        let lam = c / t;
        let (end, tokens) = (index.ends(), index.chain_tokens());
        let k = cycle.len();
        let vertex = |i: usize| cycle[i] as usize;
        let first = if root as usize == vertex(0) { 0 } else { k - 1 };
        let u = vertex(first);
        lambda[u] = lam;
        potential[u] = if first == 0 {
            0.0
        } else {
            // The sums of the edges from `u` to the forced root.
            let (mut part_c, mut part_t) = (0.0, 0.0);
            let mut v = u as u32;
            while v != root {
                let p = index.next(policy, v);
                part_c += cost[p];
                part_t += f64::from(tok[p]);
                v = to[p];
            }
            part_c - lam * part_t
        };
        // The other vertices, back along the cycle from the one before `u`.
        let rest = if first == 0 { 1..k } else { 0..k - 1 };
        for i in rest.rev() {
            let v = vertex(i);
            let p = policy[v] as usize;
            lambda[v] = lam;
            potential[v] = self.chain_cost[p] - lam * tokens[p] + potential[end[p] as usize];
        }
        lam
    }
}

/// Evaluates a policy on one component's contracted choice graph: for
/// every choice vertex, the ratio of the policy cycle it reaches
/// (`lambda`) and a potential solving `x[v] = C − λ·T + x[end]` along
/// policy chains (`C`, `T` and `end` the chain cost sum, token sum and
/// end of the policy edge). Walks start at the choice vertices in walk
/// order, so each policy cycle is found from the first member of its
/// basin and rooted where a walk of every member roots it (see
/// [`ChoiceGraph::settle_cycle`]). Returns whether every policy cycle has
/// the bit-identical λ (then every choice vertex's λ is that value), or
/// `None` when a policy cycle carries no token.
fn evaluate_policy(graph: &ChoiceGraph, choices: &[u32], cols: &mut Columns) -> Option<bool> {
    let (to, tok) = (graph.index.ends(), graph.index.chain_tokens());
    let cost = graph.chain_cost;
    let Columns { policy, lambda, potential, mark, path } = cols;
    // Slices, not the `Vec` fields (see `howard_component`).
    let (policy, lambda, potential) = (&policy[..], &mut lambda[..], &mut potential[..]);
    let (mark, walk) = (&mut mark[..], &mut path[..]);
    let mut first_lam: Option<u64> = None;
    let mut uniform = true;
    for &v in choices {
        mark[v as usize] = UNSEEN;
    }
    for &start in choices {
        if mark[start as usize] != UNSEEN {
            continue;
        }
        let mut len = 0;
        let mut u = start;
        while mark[u as usize] == UNSEEN {
            walk[len] = u;
            len += 1;
            mark[u as usize] = len as u32;
            u = to[policy[u as usize] as usize];
        }
        let path = &walk[..len];

        let settle_from = if mark[u as usize] != SETTLED {
            // New policy cycle: path[pos..] are its vertices in order.
            let pos = mark[u as usize] as usize - 1;
            let cycle = &path[pos..];
            let t: f64 = cycle.iter().map(|&v| tok[policy[v as usize] as usize]).sum();
            if t == 0.0 {
                return None;
            }
            let root = graph.root(policy, path, pos);
            let lam = graph.settle_cycle(policy, cycle, root, t, lambda, potential);
            uniform &= *first_lam.get_or_insert(lam.to_bits()) == lam.to_bits();
            for &v in cycle {
                mark[v as usize] = SETTLED;
            }
            pos
        } else {
            // Reached an already-settled vertex; the whole path hangs off it.
            path.len()
        };

        // Settle the tail of the walk (path[..settle_from]) backwards. Its
        // last vertex leads to `u`, and each other one to the vertex
        // settled just before it, so their λ and potential are carried
        // (`pot += C − λ·T` is `(C − λ·T) + pot`: IEEE addition commutes).
        let (lam, mut pot) = (lambda[u as usize], potential[u as usize]);
        for &v in path[..settle_from].iter().rev() {
            let p = policy[v as usize] as usize;
            pot += cost[p] - lam * tok[p];
            lambda[v as usize] = lam;
            potential[v as usize] = pot;
            mark[v as usize] = SETTLED;
        }
    }
    Some(uniform)
}

/// The zero-token circuit the policy in `cols` holds, reported as a walk
/// of every member would: members are walked in order along the expanded
/// graph, and the first policy circuit found without a token is returned
/// from the vertex where the walk entered it.
fn zero_token_cycle(
    csr: &Csr,
    index: &ChoiceIndex,
    members: &[u32],
    cols: &mut Columns,
) -> RatioGraphError {
    let (to, tok) = (csr.targets(), csr.token_counts());
    let Columns { policy, mark, path: walk, .. } = cols;
    for &v in members {
        mark[v as usize] = UNSEEN;
    }
    for &start in members {
        if mark[start as usize] != UNSEEN {
            continue;
        }
        let mut len = 0;
        let mut u = start;
        while mark[u as usize] == UNSEEN {
            walk[len] = u;
            len += 1;
            mark[u as usize] = len as u32;
            u = to[index.next(policy, u)];
        }
        let path = &walk[..len];
        if mark[u as usize] != SETTLED {
            let cycle = &path[mark[u as usize] as usize - 1..];
            if cycle.iter().all(|&v| tok[index.next(policy, v)] == 0) {
                return RatioGraphError::ZeroTokenCycle { cycle: cycle.to_vec() };
            }
        }
        for &v in path.iter() {
            mark[v as usize] = SETTLED;
        }
    }
    unreachable!("the evaluation found a policy circuit without tokens")
}

/// Extracts the critical circuit of the converged policy on the expanded
/// graph: follow the policy from the member with maximal λ (the later one
/// on ties) until a vertex repeats, and sum the circuit from that vertex.
/// A forced member takes the λ of its chain's end, written here. No
/// member may hold the mark `ON_WITNESS` on entry; the vertices this walk
/// marks are noted in `path` and marked `SETTLED` again on exit.
fn extract_witness(
    csr: &Csr,
    index: &ChoiceIndex,
    c: usize,
    members: &[u32],
    cols: &mut Columns,
) -> CycleSolution {
    let (to, tok, cost) = (csr.targets(), csr.token_counts(), csr.costs());
    let Columns { policy, lambda, mark, path: walk, .. } = cols;
    let (policy, lambda, mark) = (&policy[..], &mut lambda[..], &mut mark[..]);
    for &f in index.forced(c) {
        lambda[f as usize] = lambda[index.end[index.forced_edge[f as usize] as usize] as usize];
    }
    let mut start = members[0];
    for &v in &members[1..] {
        if lambda[v as usize] >= lambda[start as usize] {
            start = v;
        }
    }
    let mut u = start;
    let mut len = 0;
    while mark[u as usize] != ON_WITNESS {
        mark[u as usize] = ON_WITNESS;
        walk[len] = u;
        len += 1;
        u = to[index.next(policy, u)];
    }
    let path = &walk[..len];
    for &v in path {
        mark[v as usize] = SETTLED;
    }
    // `u` is the first vertex the walk met twice: the cycle is the walk
    // from `u` on, in policy order.
    let from = path.iter().position(|&v| v == u).expect("the walk reached a marked vertex");
    let cycle = path[from..].to_vec();
    let mut c = 0.0;
    let mut t: u64 = 0;
    for &v in &cycle {
        let p = index.next(policy, v);
        c += cost[p];
        t += u64::from(tok[p]);
    }
    debug_assert!(t > 0, "converged policy cycle must carry tokens");
    CycleSolution { ratio: c / t as f64, cycle, cost: c, tokens: t }
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
        let warm = ws.max_cycle_ratio_cached(&g, 1, true).unwrap().unwrap();
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
        let warm = ws.max_cycle_ratio_cached(&g2, 1, true).unwrap().unwrap();
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
        let warm = ws.max_cycle_ratio_cached(&small, 1, true).unwrap().unwrap();
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
        let warm = ws.max_cycle_ratio_cached(&g, 1, true).unwrap().unwrap();
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
}
