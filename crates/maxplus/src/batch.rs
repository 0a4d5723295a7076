//! Shape-batched Howard: k same-structure instances over one condensation.
//!
//! Campaign experiments draw thousands of instances that collapse into a
//! handful of graph *shapes* — identical `from`/`to`/`tokens` per edge
//! index, different costs. Solving them one by one repeats the CSR build
//! and the Tarjan condensation (with its choice index) per instance. This
//! module amortizes that structural phase across a batch:
//!
//! * **One structural phase per shape.**
//!   [`Workspace::max_cycle_ratio_batch`](crate::Workspace::max_cycle_ratio_batch)
//!   shares the workspace's structure cache with the solo cached solve: a
//!   matching `(token, n, ne)` signature skips the CSR build and the
//!   condensation entirely, and a full batch re-arms the cache for the
//!   next one.
//! * **Cost planes, one lane after another.** Callers stage per-instance
//!   edge costs in a [`CostPlanes`] arena (`plane(q)[e]`, edge-insertion
//!   order). Each lane's plane is copied into the CSR's cost mirror, and
//!   the lane runs the crate's one Howard kernel (see [`crate::workspace`])
//!   over the shared condensation and its choice index — the same kernel,
//!   in the same operation order, as a cold solo solve of that instance.
//!
//! Results are **bit-for-bit** those of the solo solvers: per instance
//! `q`, the batched solve performs the same floating-point operations in
//! the same order as
//! [`Workspace::max_cycle_ratio`](crate::Workspace::max_cycle_ratio) on a
//! graph whose edge costs equal plane `q` (property-tested below). Warm
//! starts stay off, matching the campaign engines' cold-solve discipline.

use crate::graph::{RatioGraph, RatioGraphError};

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
    /// policies but not values. With `nan`, about one lane in
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
    /// solo walk's: a lane on a reused condensation writes exactly what a
    /// solo solve writes, also where no result reads it. (An errored lane stops
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

        /// Lanes stay bitwise across batches on one workspace. Lanes drawn
        /// from a few cost patterns repeat their policies; one workspace
        /// solves many batches under one token, reusing its condensation
        /// across chunks, and every batch must equal a fresh workspace's
        /// batch and the solo solver, errors included (NaN lanes,
        /// zero-token cycles), with the same columns. In the middle of the
        /// run the workspace solves another structure under another token,
        /// and every errored batch forces a same-token rebuild.
        #[test]
        fn cached_plans_replay_bitwise_across_batches(
            seed in 0u64..1_000_000,
            n in 2usize..12,
            extra in 0usize..20,
            blocks in 1usize..4,
            forced in 0u64..101,
            patterns in 1usize..4,
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
                let batch = ws.max_cycle_ratio_batch(&structure, seed, &planes);
                let mut fresh_ws = Workspace::new();
                let fresh = fresh_ws.max_cycle_ratio_batch(&structure, seed, &planes);
                assert_bitwise_eq(&batch, &fresh);
                assert_lane_columns(&ws, &fresh_ws, &structure, &planes);
                assert_bitwise_eq(&batch, &reference_results(&structure, &planes));
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
