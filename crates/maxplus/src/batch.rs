//! Shape-batched Howard: k same-structure instances over one condensation.
//!
//! Campaign experiments draw thousands of instances that collapse into a
//! handful of graph *shapes* — identical `from`/`to`/`tokens` per edge
//! index, different costs. Solving them one by one repeats the CSR build,
//! the Tarjan condensation and (worse) the pointer-chasing walk of every
//! policy evaluation per instance. This module amortizes all of that
//! across a batch:
//!
//! * **One structural phase per shape.**
//!   [`Workspace::max_cycle_ratio_batch`](crate::Workspace::max_cycle_ratio_batch)
//!   shares the workspace's structure cache with the solo cached solve: a
//!   matching `(token, n, ne)` signature skips the CSR build and the
//!   condensation entirely, and a full batch re-arms the cache for the
//!   next one.
//! * **Cost planes, one lane after another.** Callers stage per-instance
//!   edge costs in a [`CostPlanes`] arena (`plane(q)[e]`, edge-insertion
//!   order). Each lane's plane is copied into one CSR-order cost vector
//!   the workspace owns, and the lane runs the crate's one Howard kernel
//!   (see [`crate::workspace`]) over the shared condensation and its
//!   choice index — the same kernel, in the same operation order, as a
//!   cold solo solve of that instance. The lane's chain cost sums are
//!   taken from that vector once per lane.
//! * **Cached evaluation plans.** Policy evaluation, which walks the
//!   contracted choice graph, splits into a *plan* and a *replay*. The
//!   plan is the walk order: the policy cycles, each with its expanded
//!   root, its token sum and its choice vertices in cycle order, then the
//!   other choice vertices in the order the walk settles them. It is a
//!   pure function of the condensation and of the lane's policy at the
//!   component's choice vertices (forced vertices keep no policy). The
//!   replay redoes the lane's float work from the plan as straight-line
//!   code: each cycle's λ and potentials by the walk's own cycle step,
//!   the tail back-substitution and the λ-uniform flag. Each workspace
//!   keeps the plans of its current condensation in one flat arena
//!   (`PlanStore`), keyed by (component, choice-vertex policy): before
//!   each evaluation the kernel probes the store, replays a cached plan,
//!   and otherwise walks and records the plan. Later lanes of a batch, and later chunks of the
//!   same shape, replay the plans of earlier ones; in a strict campaign
//!   most evaluations replay. Solo and per-SCC parallel solves run the
//!   same kernel with no store.
//!
//! Why a replay is exact: the walk visits vertices in an order, and roots
//! cycles at vertices, that depend on the policy only, never on costs, so
//! a plan recorded on one lane is the walk of every lane, in every chunk,
//! whose policy has the same key. Every λ and potential the walk writes
//! is one fixed expression of values written before it; the replay
//! evaluates the same expression on the same operands in the same order,
//! so it writes the same bits, and the λ-uniform flag compares the same
//! λs in the same order. Only successful walks are recorded: a zero-token
//! cycle fails on the same structure whatever the costs, so it is never
//! replayed and its lane walks into the same error. The store caches
//! structure, never answers, and every CSR rebuild (hence every
//! condensation, including the same-token rebuild after an errored batch)
//! clears it, so results, iteration counts and errors are the same at any
//! thread count and any chunking.
//!
//! Results are **bit-for-bit** those of the solo solvers: per instance
//! `q`, the batched solve performs the same floating-point operations in
//! the same order as
//! [`Workspace::max_cycle_ratio`](crate::Workspace::max_cycle_ratio) on a
//! graph whose edge costs equal plane `q` (property-tested below). Warm
//! starts stay off, matching the campaign engines' cold-solve discipline.

use crate::graph::{RatioGraph, RatioGraphError};
use crate::workspace::{evaluate_policy, ChoiceGraph, Columns};

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
///   token sum `t`, its expanded root and its `L` choice vertices in
///   cycle order;
/// * the number of tail segments, then per segment its length and its
///   vertices in the order the walk settles them. A segment is the tail
///   of one walk, settled backwards: its first vertex's policy successor
///   was settled before the segment, and every later vertex's successor
///   is the vertex before it.
///
/// A plan holds vertex ids only: a replaying lane's policy matches the
/// key at the choice vertices, so the lane's own policy column gives
/// every choice vertex's CSR position, and forced vertices keep none. A
/// cycle whose token sum does not fit a word is walked and never
/// recorded. An open-addressing index maps key hashes to entry offsets.
/// Arena and index together stay within the byte budget; a store that
/// filled up in a batch without a single hit stops hashing too (see
/// [`PlanStore::begin_batch`]).
#[derive(Debug, Clone)]
pub(crate) struct PlanStore {
    words: Vec<u16>,
    /// No plans for this condensation: it is too large for a word, it
    /// filled up without a hit, or no batch has begun on it yet.
    off: bool,
    /// `(key hash, entry word offset)`, [`EMPTY_SLOT`] offset when free.
    /// A power-of-two length, at most half full.
    slots: Vec<(u32, u32)>,
    entries: usize,
    budget: usize,
    full: bool,
    hits: u64,
    misses: u64,
    /// Scratch: the key of the last probe and the plan its walk records.
    key: Vec<u32>,
    record: PlanRecord,
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
            key: Vec::new(),
            record: PlanRecord::default(),
        }
    }
}

/// What a plan-store probe found for a policy's key.
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

    /// Readies the store for a batch over a condensation of `n` vertices
    /// and `ne` edges. It stays off when a word cannot hold their ids, or
    /// when it filled up in an earlier batch without a single replay:
    /// hashing would then only cost time. The rule looks at whole
    /// batches, because lanes run one after another: a first lane can
    /// fill the store before a later lane of the same batch could replay.
    pub(crate) fn begin_batch(&mut self, n: usize, ne: usize) {
        self.off = n.max(ne) > WORD_MAX || (self.full && self.hits == 0);
    }

    /// Evaluates the policy in `cols` on component `c` of `graph` (with
    /// these `choices`): replays the cached plan of that policy, or walks
    /// it and records its plan. Same result, same columns and the same
    /// `None` as the walk alone (see the module docs).
    pub(crate) fn evaluate(
        &mut self,
        graph: &ChoiceGraph,
        c: usize,
        choices: &[u32],
        cols: &mut Columns,
    ) -> Option<bool> {
        match self.probe(c, choices, &cols.policy) {
            Probe::Hit(at) => Some(replay_plan(graph, &self.words[at..], cols)),
            Probe::Miss(hash) => {
                self.record.clear();
                let uniform = evaluate_policy(graph, choices, cols, Some(&mut self.record))?;
                self.insert(hash);
                Some(uniform)
            }
            Probe::Off => evaluate_policy(graph, choices, cols, None),
        }
    }

    /// Looks up the plan of component `c` under `policy` at the
    /// component's `choices`, building the key in `self.key`.
    fn probe(&mut self, c: usize, choices: &[u32], policy: &[u32]) -> Probe {
        // A full store without entries can never replay.
        if self.off || (self.full && self.entries == 0) {
            return Probe::Off;
        }
        let key = &mut self.key;
        key.clear();
        key.push(c as u32);
        key.extend(choices.iter().map(|&v| policy[v as usize]));
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

    /// Stores the recorded plan under the probed key (with hash `hash`),
    /// unless a token sum does not fit a word, or the entry, with the
    /// index grown to take it, would overrun the byte budget: then the
    /// store is full for the rest of the condensation.
    fn insert(&mut self, hash: u32) {
        let rec = &self.record;
        if rec.max_tokens > WORD_MAX as f64 {
            return;
        }
        let size = self.key.len() + 2 + rec.cycles.len() + rec.tail.len();
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
        let rec = &self.record;
        self.words.extend(self.key.iter().map(|&x| x as u16));
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
pub(crate) struct PlanRecord {
    num_cycles: usize,
    cycles: Vec<u32>,
    num_segments: usize,
    tail: Vec<u32>,
    max_tokens: f64,
}

impl PlanRecord {
    fn clear(&mut self) {
        self.num_cycles = 0;
        self.cycles.clear();
        self.num_segments = 0;
        self.tail.clear();
        self.max_tokens = 0.0;
    }

    /// Records a policy cycle (choice vertices in policy order) with
    /// token sum `t` and expanded root `root`.
    pub(crate) fn push_cycle(&mut self, cycle: &[u32], t: f64, root: u32) {
        self.max_tokens = self.max_tokens.max(t);
        self.num_cycles += 1;
        self.cycles.extend([cycle.len() as u32, t.min(f64::from(u32::MAX)) as u32, root]);
        self.cycles.extend_from_slice(cycle);
    }

    /// Records a walk's tail `path` (in walk order), settled backwards.
    pub(crate) fn push_segment(&mut self, path: &[u32]) {
        self.num_segments += 1;
        self.tail.push(path.len() as u32);
        self.tail.extend(path.iter().rev());
    }
}

/// `RatioGraph::validate` with the costs of one plane substituted for the
/// graph's own: identical error variants and edge-order precedence.
pub(crate) fn validate_plane(g: &RatioGraph, plane: &[f64]) -> Result<(), RatioGraphError> {
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

/// Replays a recorded plan (see [`PlanStore`]) on the policy in `cols`:
/// the float work of [`evaluate_policy`] — each cycle settled from its
/// recorded root, then the tail back-substitution in settle order —
/// without the walk. Returns the λ-uniform flag.
///
/// Every value is computed by the walk's expression from the same
/// operands: a cycle reads only its own vertices (and the chains between
/// them), and a tail vertex reads its policy successor, which a cycle or
/// an earlier tail entry settled. Doing all cycles before all tails
/// therefore writes the walk's bits. Along a segment the successor is the
/// vertex settled just before, so its λ and potential are carried in
/// registers instead of being read back from the columns; `pot += C − λ·T`
/// is the walk's `(C − λ·T) + pot`, since IEEE addition commutes.
fn replay_plan(graph: &ChoiceGraph, plan: &[u16], cols: &mut Columns) -> bool {
    let (to, tok) = (graph.index.ends(), graph.index.chain_tokens());
    let cost = graph.chain_cost;
    let (policy, lambda, potential) =
        (&cols.policy[..], &mut cols.lambda[..], &mut cols.potential[..]);
    let word = |i: usize| usize::from(plan[i]);
    let pol = |v: usize| policy[v] as usize;
    let mut first_lam: Option<u64> = None;
    let mut uniform = true;
    let mut at = 1;
    for _ in 0..word(0) {
        let len = word(at);
        let t = f64::from(plan[at + 1]);
        let root = u32::from(plan[at + 2]);
        let cycle = &plan[at + 3..at + 3 + len];
        at += 3 + len;
        let lam = graph.settle_cycle(policy, cycle, root, t, lambda, potential);
        uniform &= *first_lam.get_or_insert(lam.to_bits()) == lam.to_bits();
    }
    let num_segments = word(at);
    at += 1;
    for _ in 0..num_segments {
        let len = word(at);
        let segment = at + 1..at + 1 + len;
        at += 1 + len;
        let w = to[pol(word(segment.start))] as usize;
        let lam = lambda[w];
        let mut pot = potential[w];
        for i in segment {
            let v = word(i);
            let p = pol(v);
            pot += cost[p] - lam * tok[p];
            lambda[v] = lam;
            potential[v] = pot;
        }
    }
    uniform
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::howard::RatioResult;
    use crate::Workspace;
    use proptest::prelude::*;
    use repwf_obs::counted;
    use repwf_obs::CounterId::{
        CsrBuilds, HowardItersBatched, HowardItersCold, HowardItersWarm, TarjanRuns,
    };

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
        let batch = ws.max_cycle_ratio_batch(&structure, 1, &planes);
        assert_bitwise_eq(&batch, &solo_results(&structure, &planes));
    }

    #[test]
    fn repeated_batches_hit_the_structure_cache() {
        let structure = structure();
        let ne = structure.num_edges();
        let mut rng = Lcg(7);
        let mut ws = Workspace::new();
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
            let (batch, c) = counted(|| ws.max_cycle_ratio_batch(&structure, 99, &planes));
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
        let (_, c) = counted(|| ws.max_cycle_ratio_batch(&structure, 100, &planes));
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
        let batch = ws.max_cycle_ratio_batch(&structure, 5, &planes);
        assert_eq!(batch[1], Err(RatioGraphError::NonFiniteCost));
        for q in [0, 2, 3] {
            let solo = Workspace::new().max_cycle_ratio(&with_costs(&structure, planes.plane(q)));
            assert_bitwise_eq(&batch[q..q + 1], &[solo]);
        }
        // A failed lane leaves the cache cold: same token rebuilds.
        planes.plane_mut(1)[5] = 2.0;
        let (batch, c) = counted(|| ws.max_cycle_ratio_batch(&structure, 5, &planes));
        assert_eq!(c[CsrBuilds], 1, "errored batch must clear the cache");
        assert_bitwise_eq(&batch, &solo_results(&structure, &planes));
    }

    #[test]
    fn batched_rounds_are_counted_as_the_solo_cold_rounds() {
        let structure = structure();
        let ne = structure.num_edges();
        let mut rng = Lcg(29);
        let mut planes = CostPlanes::new();
        let k = 6;
        planes.reset(k, ne);
        for q in 0..k {
            for c in planes.plane_mut(q) {
                *c = rng.f64_in(-5.0, 50.0);
            }
        }
        let mut cold = 0;
        for q in 0..k {
            let g = with_costs(&structure, planes.plane(q));
            let (_, c) = counted(|| Workspace::new().max_cycle_ratio(&g));
            cold += c[HowardItersCold];
        }
        assert!(cold > k as u64, "every lane iterates at least once per cyclic component");
        let (batch, c) = counted(|| Workspace::new().max_cycle_ratio_batch(&structure, 1, &planes));
        assert_bitwise_eq(&batch, &solo_results(&structure, &planes));
        assert_eq!(c[HowardItersBatched], cold);
        assert_eq!((c[HowardItersCold], c[HowardItersWarm]), (0, 0));
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
        let batch = ws.max_cycle_ratio_batch(&structure, 1, &planes);
        assert_bitwise_eq(&batch, &solo_results(&structure, &planes));
        assert!(matches!(batch[0], Err(RatioGraphError::ZeroTokenCycle { .. })));
    }

    #[test]
    fn empty_batch_and_acyclic_graph() {
        let structure = structure();
        let mut ws = Workspace::new();
        let planes = CostPlanes::new();
        assert!(ws.max_cycle_ratio_batch(&RatioGraph::new(3), 1, &planes).is_empty());
        // Acyclic graph: every lane resolves Ok(None).
        let mut dag = RatioGraph::new(3);
        dag.add_edge(0, 1, 0.0, 1);
        dag.add_edge(1, 2, 0.0, 1);
        let mut p2 = CostPlanes::new();
        p2.reset(2, 2);
        p2.plane_mut(0).copy_from_slice(&[1.0, 2.0]);
        p2.plane_mut(1).copy_from_slice(&[3.0, 4.0]);
        let batch = ws.max_cycle_ratio_batch(&dag, 2, &p2);
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

    /// Two sets of policy, λ and potential columns are bitwise equal.
    fn assert_same_columns(
        (pa, la, xa): (&[u32], &[f64], &[f64]),
        (pb, lb, xb): (&[u32], &[f64], &[f64]),
        what: &str,
    ) {
        assert_eq!(pa, pb, "{what}: policy column");
        assert_eq!((la.len(), xa.len()), (lb.len(), xb.len()), "{what}: column lengths");
        for (i, (x, y)) in la.iter().zip(lb).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: λ column entry {i}");
        }
        for (i, (x, y)) in xa.iter().zip(xb).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: potential column entry {i}");
        }
    }

    /// The final policy, λ and potential columns of every lane of the last
    /// batch on `ws` equal those of the same batch on the fresh workspace
    /// `fresh`, bit for bit, and those of every successful lane equal a
    /// solo walk's: a replayed evaluation writes exactly what the walk
    /// writes, also where no result reads it. (An errored lane stops
    /// mid-solve and keeps the previous lane's entries elsewhere, so only
    /// the fresh batch is a reference for it.)
    fn assert_lane_columns(
        ws: &Workspace,
        fresh: &Workspace,
        structure: &RatioGraph,
        planes: &CostPlanes,
    ) {
        for q in 0..planes.num_instances() {
            let (Some(cols), Some(fresh_cols)) = (ws.lane_columns(q), fresh.lane_columns(q)) else {
                // Every lane failed validation, so no lane ran.
                assert!(ws.lane_columns(q).is_none() && fresh.lane_columns(q).is_none());
                continue;
            };
            assert_same_columns(cols, fresh_cols, &format!("lane {q} vs a fresh batch"));
            let plane = planes.plane(q);
            if plane.iter().all(|c| c.is_finite()) {
                let mut solo = Workspace::new();
                if solo.max_cycle_ratio(&with_costs(structure, plane)).is_ok() {
                    assert_same_columns(cols, solo.columns(), &format!("lane {q} vs a solo walk"));
                }
            }
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
        let mut planes = CostPlanes::new();
        let mut walked = 0;
        for round in 0..5 {
            patterned_planes(&mut rng, &patterns, 6, false, &mut planes);
            let batch = ws.max_cycle_ratio_batch(&structure, 3, &planes);
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
        ws.max_cycle_ratio_batch(&structure, 4, &planes);
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
        let ne = structure.num_edges();
        assert!(ne > 255, "{ne} edges");
        let pattern: Vec<f64> = (0..ne).map(|_| rng.f64_in(-20.0, 100.0)).collect();
        let mut ws = Workspace::new();
        let mut planes = CostPlanes::new();
        for round in 0..4 {
            let k = 6;
            patterned_planes(&mut rng, std::slice::from_ref(&pattern), k, false, &mut planes);
            let batch = ws.max_cycle_ratio_batch(&structure, 21, &planes);
            let mut fresh_ws = Workspace::new();
            let fresh = fresh_ws.max_cycle_ratio_batch(&structure, 21, &planes);
            assert_bitwise_eq(&batch, &fresh);
            assert_lane_columns(&ws, &fresh_ws, &structure, &planes);
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
            let mut planes = CostPlanes::new();
            for round in 0..4 {
                patterned_planes(&mut rng, &patterns, 5, false, &mut planes);
                // The budget survives the condensation of the first round.
                ws.plan_store().set_budget(budget);
                let batch = ws.max_cycle_ratio_batch(&structure, 8, &planes);
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
            let batch = ws.max_cycle_ratio_batch(&structure, seed, &planes);
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
                    let batch = ws.max_cycle_ratio_batch(&other, seed ^ 1, &p);
                    assert_bitwise_eq(&batch, &reference_results(&other, &p));
                }
                let k = 1 + rng.next() as usize % 8;
                patterned_planes(&mut rng, &patterns, k, true, &mut planes);
                if budget < 3 {
                    let bytes = [0, FIRST_INDEX_BYTES + 32, FIRST_INDEX_BYTES + 128][budget];
                    ws.plan_store().set_budget(bytes);
                }
                let batch = ws.max_cycle_ratio_batch(&structure, seed, &planes);
                let mut fresh_ws = Workspace::new();
                let fresh = fresh_ws.max_cycle_ratio_batch(&structure, seed, &planes);
                assert_bitwise_eq(&batch, &fresh);
                assert_lane_columns(&ws, &fresh_ws, &structure, &planes);
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
