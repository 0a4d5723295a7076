//! Random instance generation with times uniform in configured ranges.
//!
//! The paper draws processor speeds and link bandwidths so that computation
//! and communication times fall uniformly within the Table 2 ranges. The
//! `w/Π` model cannot produce independently-uniform per-pair times, so we
//! use a shape-preserving scheme: with heterogeneity factor
//! `s = min(2, hi/lo)`, draw speeds `Π_u ~ U(1, s)` and works
//! `w_k ~ U(lo·s, hi)`; every resulting time `w_k/Π_u` then lies in
//! `[lo, hi]` (same construction for bandwidths and file sizes).

use rand::Rng;
use repwf_core::model::{Instance, Mapping, Pipeline, Platform};

/// An inclusive time range `[lo, hi]` (use `lo == hi` for constant times,
/// e.g. the paper's "computation times = 1" rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Range {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Range {
    /// A constant range.
    pub const fn constant(v: f64) -> Self {
        Range { lo: v, hi: v }
    }

    /// A proper range.
    pub const fn new(lo: f64, hi: f64) -> Self {
        Range { lo, hi }
    }

    fn heterogeneity(&self) -> f64 {
        (self.hi / self.lo).min(2.0)
    }

    fn sample_speed<R: Rng>(&self, rng: &mut R) -> f64 {
        let s = self.heterogeneity();
        if s <= 1.0 {
            1.0
        } else {
            rng.gen_range(1.0..=s)
        }
    }

    fn sample_size<R: Rng>(&self, rng: &mut R) -> f64 {
        let s = self.heterogeneity();
        let lo = self.lo * s;
        if lo >= self.hi {
            self.hi
        } else {
            rng.gen_range(lo..=self.hi)
        }
    }
}

/// Configuration of the generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenConfig {
    /// Number of pipeline stages `n`.
    pub stages: usize,
    /// Number of processors `p` (all of them get mapped: the paper draws
    /// the per-stage replica counts randomly, using the whole platform).
    pub procs: usize,
    /// Computation-time range.
    pub comp: Range,
    /// Communication-time range.
    pub comm: Range,
}

/// A precedence topology shared by every draw of a campaign: the stage
/// count plus the series-parallel edge set. The generator draws a fresh
/// instance *on* this fixed graph — replica counts, sizes, speeds and
/// bandwidths vary per seed, the precedence structure does not (so the
/// static shape-routing of the batched runner keeps working: the TPN shape
/// of a draw is still a pure function of its replica-count RNG prefix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Number of stages `n`.
    pub stages: usize,
    /// Precedence edges `(src, dst)`; must form a two-terminal
    /// series-parallel DAG (validated by `Pipeline::from_edges` on the
    /// first draw).
    pub edges: Vec<(usize, usize)>,
}

impl Topology {
    /// The linear chain `S_0 → S_1 → … → S_{n-1}` — the classic pipeline.
    pub fn chain(n: usize) -> Topology {
        Topology { stages: n, edges: (0..n.saturating_sub(1)).map(|k| (k, k + 1)).collect() }
    }

    /// A fork/join: a split stage, `branches` parallel stages, a merge
    /// stage (`branches + 2` stages total).
    pub fn fork_join(branches: usize) -> Topology {
        assert!(branches >= 1, "need at least one branch");
        let sink = branches + 1;
        let mut edges = Vec::with_capacity(2 * branches);
        for b in 1..=branches {
            edges.push((0, b));
            edges.push((b, sink));
        }
        Topology { stages: branches + 2, edges }
    }

    /// Number of precedence edges (= files drawn per instance).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// True iff this is the chain topology on its stage count.
    pub fn is_chain(&self) -> bool {
        *self == Topology::chain(self.stages)
    }
}

/// Draws a random instance: random replica counts (every stage ≥ 1
/// processor, all `p` processors used), heterogeneous speeds/bandwidths and
/// stage/file sizes per the range scheme above.
pub fn sample_instance<R: Rng>(cfg: &GenConfig, rng: &mut R) -> Instance {
    let (pipeline, platform, mapping) = sample_parts(cfg, rng);
    Instance::new(pipeline, platform, mapping).expect("generator produces valid instances")
}

/// [`sample_instance`] as loose parts: the campaign engine evaluates the
/// draw through the borrowed-view oracle path
/// (`PeriodEngine::compute_mapping`), which needs no owned [`Instance`] at
/// all; the parts are only assembled (by move, not clone) when the
/// simulator fallback requires ownership.
pub fn sample_parts<R: Rng>(cfg: &GenConfig, rng: &mut R) -> (Pipeline, Platform, Mapping) {
    sample_workflow_parts(cfg, &Topology::chain(cfg.stages), rng)
}

/// [`sample_instance`] on an arbitrary series-parallel topology.
pub fn sample_workflow_instance<R: Rng>(
    cfg: &GenConfig,
    topo: &Topology,
    rng: &mut R,
) -> Instance {
    let (pipeline, platform, mapping) = sample_workflow_parts(cfg, topo, rng);
    Instance::new(pipeline, platform, mapping).expect("generator produces valid instances")
}

/// [`sample_parts`] generalized to any series-parallel [`Topology`]:
/// edge sizes are drawn in `topo.edges` order, one per edge, where the
/// chain drew one per stage boundary. On [`Topology::chain`] the RNG
/// stream and the resulting parts are exactly those of [`sample_parts`] —
/// the chain *is* this function.
pub fn sample_workflow_parts<R: Rng>(
    cfg: &GenConfig,
    topo: &Topology,
    rng: &mut R,
) -> (Pipeline, Platform, Mapping) {
    assert_eq!(cfg.stages, topo.stages, "topology stage count must match the GenConfig");
    let replicas = sample_replica_counts(cfg, rng);
    // Shuffle processor identities so stage/processor correlation is random.
    let mut procs: Vec<usize> = (0..cfg.procs).collect();
    for i in (1..procs.len()).rev() {
        let j = rng.gen_range(0..=i);
        procs.swap(i, j);
    }
    let mut assignment = Vec::with_capacity(cfg.stages);
    let mut next = 0;
    for &m in &replicas {
        assignment.push(procs[next..next + m].to_vec());
        next += m;
    }

    let works: Vec<f64> = (0..cfg.stages).map(|_| cfg.comp.sample_size(rng)).collect();
    let edges: Vec<(usize, usize, f64)> = topo
        .edges
        .iter()
        .map(|&(src, dst)| (src, dst, cfg.comm.sample_size(rng)))
        .collect();
    let pipeline = Pipeline::from_edges(works, edges).expect("generator topologies are valid");

    let mut platform = Platform::uniform(cfg.procs, 1.0, 1.0);
    for u in 0..cfg.procs {
        platform.set_speed(u, cfg.comp.sample_speed(rng));
    }
    for u in 0..cfg.procs {
        for v in 0..cfg.procs {
            platform.set_bandwidth(u, v, cfg.comm.sample_speed(rng));
        }
    }

    let mapping = Mapping::new(assignment).expect("generator produces valid mappings");
    (pipeline, platform, mapping)
}

/// The per-stage replica counts of a draw — the **prefix** of the RNG
/// stream [`sample_parts`] consumes: every stage starts at one processor
/// and the remaining `p − n` are sprinkled uniformly.
///
/// Because it is the prefix, the canonical TPN *shape* of seed `k`
/// (communication model aside, the place structure is a pure function of
/// these counts) can be recovered by replaying just these draws on a fresh
/// `StdRng::seed_from_u64(seed)` — no pipeline, platform or mapping
/// materialized. This is the static shape-routing primitive of the
/// batched campaign runner and of the `distinct_shapes` report statistics.
pub fn sample_replica_counts<R: Rng>(cfg: &GenConfig, rng: &mut R) -> Vec<usize> {
    assert!(cfg.stages >= 1 && cfg.procs >= cfg.stages, "need at least one proc per stage");
    let mut replicas = vec![1usize; cfg.stages];
    for _ in 0..cfg.procs - cfg.stages {
        let k = rng.gen_range(0..cfg.stages);
        replicas[k] += 1;
    }
    replicas
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> GenConfig {
        GenConfig {
            stages: 4,
            procs: 11,
            comp: Range::new(5.0, 15.0),
            comm: Range::new(5.0, 15.0),
        }
    }

    #[test]
    fn uses_every_processor_once() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let inst = sample_instance(&cfg(), &mut rng);
            let total: usize = inst.mapping.replica_counts().iter().sum();
            assert_eq!(total, 11);
            let mut seen = [false; 11];
            for i in 0..inst.num_stages() {
                for &u in inst.mapping.procs(i) {
                    assert!(!seen[u]);
                    seen[u] = true;
                }
            }
        }
    }

    #[test]
    fn times_within_ranges() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let inst = sample_instance(&cfg(), &mut rng);
            for i in 0..inst.num_stages() {
                for &u in inst.mapping.procs(i) {
                    let t = inst.comp_time(i, u);
                    assert!((5.0 - 1e-9..=15.0 + 1e-9).contains(&t), "comp time {t}");
                }
            }
            for i in 0..inst.num_stages() - 1 {
                for &u in inst.mapping.procs(i) {
                    for &v in inst.mapping.procs(i + 1) {
                        let t = inst.comm_time(i, u, v);
                        assert!((5.0 - 1e-9..=15.0 + 1e-9).contains(&t), "comm time {t}");
                    }
                }
            }
        }
    }

    #[test]
    fn constant_comp_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = GenConfig {
            stages: 2,
            procs: 7,
            comp: Range::constant(1.0),
            comm: Range::new(5.0, 10.0),
        };
        let inst = sample_instance(&cfg, &mut rng);
        for i in 0..2 {
            for &u in inst.mapping.procs(i) {
                assert!((inst.comp_time(i, u) - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn replica_prefix_matches_full_draw() {
        // The shape-routing contract: replaying only the prefix on a fresh
        // seeded RNG reproduces exactly the replica counts of the full
        // draw with that seed.
        for seed in 0..20 {
            let counts = sample_replica_counts(&cfg(), &mut StdRng::seed_from_u64(seed));
            let (_, _, mapping) = sample_parts(&cfg(), &mut StdRng::seed_from_u64(seed));
            assert_eq!(counts, mapping.replica_counts(), "seed {seed}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = sample_instance(&cfg(), &mut StdRng::seed_from_u64(42));
        let b = sample_instance(&cfg(), &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn every_stage_has_a_processor() {
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = GenConfig {
            stages: 10,
            procs: 10, // tight: exactly one each
            comp: Range::new(5.0, 15.0),
            comm: Range::new(5.0, 15.0),
        };
        let inst = sample_instance(&cfg, &mut rng);
        assert!(inst.mapping.is_one_to_one());
    }
}
