//! Per-resource cycle-times and the `M_ct` lower bound.
//!
//! The *cycle-time* `C_exec(u)` of a processor is the average time per data
//! set it spends busy, in steady state. For the overlap model the
//! sub-resources (one in-port per in-edge, CPU, one out-port per out-edge)
//! work concurrently, so `C_exec = max(max_e C_in(e), C_comp, max_e
//! C_out(e))`; for the strict model they serialize:
//! `C_exec = Σ_e C_in(e) + C_comp + Σ_e C_out(e)`. On a linear chain (one in-edge, one
//! out-edge) both reduce to the paper's `max(C_in, C_comp, C_out)` /
//! `C_in + C_comp + C_out`. The maximum cycle-time
//! `M_ct = max_u C_exec(u)` is a lower bound of the period for both models,
//! and *equals* the period when no stage is replicated.
//!
//! All quantities are **per data set** (the paper's normalization: a
//! processor replicated `m_i`-fold only serves every `m_i`-th data set, so
//! its raw busy time is divided by the global data-set rate).
//!
//! The round-robin partners of a replica on an edge come from
//! [`partner_residues`] as an iterator, not a list: the exact mapping
//! search prices every branch-and-bound node with the per-stage terms of
//! [`prefix_cycle_bound`] ([`prefix_stage_bound`]), which walk the
//! partners once per replica per edge, and the walk allocates nothing.

use crate::model::{CommModel, Instance, InstanceView, ProcId, StageId};

/// The cycle-time decomposition of one mapped processor.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleTime {
    /// The processor.
    pub proc: ProcId,
    /// The stage it runs.
    pub stage: StageId,
    /// Its position in the stage's round-robin order.
    pub replica_index: usize,
    /// Total per-data-set reception time `C_in`, summed over in-edges
    /// (0 for the source stage).
    pub c_in: f64,
    /// Average per-data-set computation time `C_comp`.
    pub c_comp: f64,
    /// Total per-data-set emission time `C_out`, summed over out-edges
    /// (0 for the sink stage).
    pub c_out: f64,
    /// Largest single in-edge average — the busiest in-port. Equals
    /// [`CycleTime::c_in`] on a chain (at most one in-edge).
    pub c_in_peak: f64,
    /// Largest single out-edge average — the busiest out-port. Equals
    /// [`CycleTime::c_out`] on a chain (at most one out-edge).
    pub c_out_peak: f64,
}

impl CycleTime {
    /// `C_exec` under the given communication model. Overlap: each port
    /// works concurrently, so the busiest single port bounds the rate;
    /// strict: every transfer serializes with the computation.
    pub fn exec(&self, model: CommModel) -> f64 {
        match model {
            CommModel::Overlap => self.c_in_peak.max(self.c_comp).max(self.c_out_peak),
            CommModel::Strict => self.c_in + self.c_comp + self.c_out,
        }
    }
}

/// The set of sender replicas of the edge's source stage that feed
/// replica `β` of its destination stage (round-robin compatibility: rows
/// `j ≡ β (mod m_cur)` have sender `j mod m_prev`), together with how
/// often the full sender cycle repeats.
///
/// Returns `(sender_indices, period L = lcm(m_prev, m_i))`: over `L`
/// consecutive data sets, replica `β` receives `L/m_i` files, one from each
/// sender the iterator yields, in round-robin order `(β + k·m_i) mod
/// m_prev` for `k = 0, 1, …`. Every caller sums the partners' transfer
/// times in that order, which fixes the bits of each cycle time.
pub fn partner_residues(
    m_prev: usize,
    m_cur: usize,
    beta: usize,
) -> (impl Iterator<Item = usize>, u64) {
    let l = replica_lcm(m_prev, m_cur).expect("small lcm");
    let count = l / m_cur;
    ((0..count).map(move |k| (beta + k * m_cur) % m_prev), l as u64)
}

/// `lcm(a, b)` of two replica counts in `usize`, `None` on overflow: the
/// integer [`crate::paths::lcm`] gives, without its `u128` divisions.
/// [`partner_residues`] runs once per replica per edge on every
/// branch-and-bound node and every `M_ct`.
fn replica_lcm(a: usize, b: usize) -> Option<usize> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    let (mut x, mut y) = (a, b);
    while y != 0 {
        (x, y) = (y, x % y);
    }
    (a / x).checked_mul(b)
}

/// Computes the cycle-time decomposition of the replicas of one stage into
/// a caller-owned buffer (cleared first) — the per-stage primitive behind
/// [`cycle_times_view`] and the incremental [`MctCache`]. A stage's
/// decomposition depends only on its own processor list and those of its
/// DAG neighbors (the round-robin partners on its in- and out-edges).
pub fn stage_cycle_times_into(v: InstanceView<'_>, i: StageId, out: &mut Vec<CycleTime>) {
    out.clear();
    out.extend((0..v.mapping.procs(i).len()).map(|beta| replica_cycle_time(v, i, beta)));
}

/// The cycle-time decomposition of replica `beta` of stage `i`.
fn replica_cycle_time(v: InstanceView<'_>, i: StageId, beta: usize) -> CycleTime {
    let wf = v.pipeline;
    let procs = v.mapping.procs(i);
    let m_i = procs.len();
    let u = procs[beta];
    let c_comp = v.comp_time(i, u) / m_i as f64;
    let mut c_in = 0.0f64;
    let mut c_in_peak = 0.0f64;
    for &e in wf.in_edges(i) {
        let (src, _) = wf.edge(e);
        let prev = v.mapping.procs(src);
        let (senders, l) = partner_residues(prev.len(), m_i, beta);
        let total: f64 = senders.map(|a| v.comm_time(e, prev[a], u)).sum();
        let avg = total / l as f64;
        c_in += avg;
        c_in_peak = c_in_peak.max(avg);
    }
    let mut c_out = 0.0f64;
    let mut c_out_peak = 0.0f64;
    for &e in wf.out_edges(i) {
        let (_, dst) = wf.edge(e);
        let next = v.mapping.procs(dst);
        let (receivers, l) = partner_residues(next.len(), m_i, beta);
        let total: f64 = receivers.map(|b| v.comm_time(e, u, next[b])).sum();
        let avg = total / l as f64;
        c_out += avg;
        c_out_peak = c_out_peak.max(avg);
    }
    CycleTime { proc: u, stage: i, replica_index: beta, c_in, c_comp, c_out, c_in_peak, c_out_peak }
}

/// Lower bound on the `M_ct` (hence on the period) of **any completion**
/// of a partially-assigned mapping: stages `0..prefix.len()` carry their
/// final ordered replica tuples, later stages are still open. (Stage ids
/// are a topological order, so every in-edge of a prefix stage comes from
/// another prefix stage.)
///
/// Every cycle-time component that is already determined by the prefix —
/// `C_comp` of every assigned replica, `C_in` on every in-edge,
/// `C_out` on out-edges whose destination is inside the prefix — is
/// computed exactly as [`stage_cycle_times_into`] would; components that
/// depend on an unassigned neighbor (out-edges crossing the prefix
/// boundary) are bounded below by `0`, which is valid under both models
/// (`max` over fewer terms, `sum` with dropped non-negative terms). The
/// result therefore never exceeds the `M_ct` of any full mapping
/// extending the prefix, and equals it bit-for-bit when `prefix` covers
/// the whole workflow.
///
/// An invalid prefix resource (zero/negative speed or bandwidth) yields an
/// infinite bound: every completion inherits the invalid resource and is
/// rejected by validation, so callers may prune such prefixes outright.
///
/// The bound is the `f64::max` fold, in stage order from `0.0`, of the
/// per-stage terms of [`prefix_stage_bound`]. A search that closes the
/// stages one by one keeps those terms: closing stage `i` changes only
/// the terms of `i` and of the stages with an edge into `i`.
pub fn prefix_cycle_bound(
    pipeline: &crate::model::Pipeline,
    platform: &crate::model::Platform,
    prefix: &[Vec<ProcId>],
    model: CommModel,
) -> f64 {
    (0..prefix.len())
        .map(|i| prefix_stage_bound(pipeline, platform, prefix, i, model))
        .fold(0.0, f64::max)
}

/// Stage `i`'s term of [`prefix_cycle_bound`]: the largest `C_exec` of
/// its replicas over the components the prefix determines (`0.0` folded
/// in first). It reads the tuples of `i`, of the sources of its in-edges
/// and of the destinations of its out-edges inside the prefix, and
/// nothing else.
pub fn prefix_stage_bound(
    pipeline: &crate::model::Pipeline,
    platform: &crate::model::Platform,
    prefix: &[Vec<ProcId>],
    i: StageId,
    model: CommModel,
) -> f64 {
    let k = prefix.len();
    let procs = &prefix[i];
    let m_i = procs.len();
    let mut worst = 0.0f64;
    for (beta, &u) in procs.iter().enumerate() {
        let c_comp = pipeline.work(i) / platform.speed(u) / m_i as f64;
        let mut c_in = 0.0f64;
        let mut c_in_peak = 0.0f64;
        for &e in pipeline.in_edges(i) {
            let (src, _) = pipeline.edge(e);
            let prev = &prefix[src];
            let (senders, l) = partner_residues(prev.len(), m_i, beta);
            let total: f64 =
                senders.map(|a| pipeline.file(e) / platform.bandwidth(prev[a], u)).sum();
            let avg = total / l as f64;
            c_in += avg;
            c_in_peak = c_in_peak.max(avg);
        }
        // Out-edges crossing the prefix boundary have unknown partners:
        // bound their contribution by 0.
        let mut c_out = 0.0f64;
        let mut c_out_peak = 0.0f64;
        for &e in pipeline.out_edges(i) {
            let (_, dst) = pipeline.edge(e);
            if dst >= k {
                continue;
            }
            let next = &prefix[dst];
            let (receivers, l) = partner_residues(next.len(), m_i, beta);
            let total: f64 =
                receivers.map(|b| pipeline.file(e) / platform.bandwidth(u, next[b])).sum();
            let avg = total / l as f64;
            c_out += avg;
            c_out_peak = c_out_peak.max(avg);
        }
        let ct = CycleTime {
            proc: u,
            stage: i,
            replica_index: beta,
            c_in,
            c_comp,
            c_out,
            c_in_peak,
            c_out_peak,
        };
        worst = worst.max(ct.exec(model));
    }
    worst
}

/// Computes the cycle-time decomposition of every mapped processor of a
/// borrowed view.
pub fn cycle_times_view(v: InstanceView<'_>) -> Vec<CycleTime> {
    let n = v.num_stages();
    let mut out = Vec::new();
    let mut stage = Vec::new();
    for i in 0..n {
        stage_cycle_times_into(v, i, &mut stage);
        out.append(&mut stage);
    }
    out
}

/// Computes the cycle-time decomposition of every mapped processor.
pub fn cycle_times(inst: &Instance) -> Vec<CycleTime> {
    cycle_times_view(inst.view())
}

/// The maximum cycle-time `M_ct` of a borrowed view and the processor
/// attaining it (the last maximum in stage-major slot order). Folds the
/// replicas one by one, allocating nothing.
pub fn max_cycle_time_view(v: InstanceView<'_>, model: CommModel) -> (f64, CycleTime) {
    let best = (0..v.num_stages())
        .flat_map(|i| (0..v.mapping.procs(i).len()).map(move |beta| replica_cycle_time(v, i, beta)))
        .max_by(|a, b| a.exec(model).partial_cmp(&b.exec(model)).expect("finite cycle times"))
        .expect("instance has at least one stage and processor");
    (best.exec(model), best)
}

/// The maximum cycle-time `M_ct` and the processor attaining it.
pub fn max_cycle_time(inst: &Instance, model: CommModel) -> (f64, CycleTime) {
    max_cycle_time_view(inst.view(), model)
}

/// Incremental `M_ct` tracker for a mapping search: caches the per-stage
/// cycle-time decompositions and, on each call, recomputes only the stages
/// whose processor lists changed since the previous call — plus their
/// DAG neighbors (in-edge sources and out-edge destinations), whose
/// `C_in`/`C_out` depend on the partners there. On a chain, a swap move
/// touches two stages, so an evaluation re-examines at most six of them
/// instead of rescanning every mapped processor.
///
/// **Contract:** one cache serves one fixed pipeline/platform pair (the
/// [`crate::engine::MappingOracle`] session guarantee) — only the
/// *mapping* may vary between calls. The communication model may vary
/// freely: the cached decompositions are model-independent.
///
/// Results are bit-for-bit those of [`max_cycle_time_view`], including the
/// tie-breaking choice of the critical processor (the *last* maximum in
/// stage-major slot order, matching `Iterator::max_by`); debug builds
/// cross-check every call against the full rescan.
#[derive(Debug, Clone, Default)]
pub struct MctCache {
    /// Cached per-stage decompositions (slot-major), valid for `prev`.
    times: Vec<Vec<CycleTime>>,
    /// The per-stage processor lists the cache was computed against.
    prev: Vec<Vec<ProcId>>,
    /// Scratch: which stages' processor lists changed since `prev`.
    changed: Vec<bool>,
    /// Total per-stage recomputations performed (diagnostics: tests assert
    /// locality through this).
    stage_recomputes: u64,
    /// Total evaluations served.
    evals: u64,
}

impl MctCache {
    /// An empty cache (the first evaluation recomputes every stage).
    pub fn new() -> Self {
        MctCache::default()
    }

    /// Drops every cached decomposition: the next call recomputes all
    /// stages. Required if the pipeline or platform behind the views ever
    /// changes (see the type-level contract).
    pub fn invalidate(&mut self) {
        self.prev.clear();
        self.times.clear();
    }

    /// Number of per-stage recomputations performed over the cache's
    /// lifetime. A full rescan costs `num_stages` of these; a cached
    /// evaluation after a swap costs at most six. Kept beside the
    /// `mct_stage_recomputes` counter because `perfbench` reads it.
    pub fn stage_recomputes(&self) -> u64 {
        self.stage_recomputes
    }

    /// Number of evaluations served. Kept beside the `mct_evals` counter
    /// because `perfbench` reads it.
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// The maximum cycle-time `M_ct` of `v` and the processor attaining
    /// it, recomputing only the stages touched since the previous call.
    pub fn max_cycle_time(&mut self, v: InstanceView<'_>, model: CommModel) -> (f64, CycleTime) {
        self.evals += 1;
        let n = v.num_stages();
        let full = self.prev.len() != n;
        if full {
            self.prev.resize(n, Vec::new());
            self.times.resize(n, Vec::new());
        }
        self.changed.clear();
        self.changed.resize(n, false);
        for i in 0..n {
            self.changed[i] = full || self.prev[i][..] != *v.mapping.procs(i);
        }
        let wf = v.pipeline;
        let mut recomputed = 0u64;
        for i in 0..n {
            let dirty = self.changed[i]
                || wf.in_edges(i).iter().any(|&e| self.changed[wf.edge(e).0])
                || wf.out_edges(i).iter().any(|&e| self.changed[wf.edge(e).1]);
            if dirty {
                stage_cycle_times_into(v, i, &mut self.times[i]);
                self.stage_recomputes += 1;
                recomputed += 1;
            }
            if self.changed[i] {
                self.prev[i].clear();
                self.prev[i].extend_from_slice(v.mapping.procs(i));
            }
        }
        repwf_obs::counter_add(repwf_obs::CounterId::MctEvals, 1);
        repwf_obs::counter_add(repwf_obs::CounterId::MctStageRecomputes, recomputed);
        repwf_obs::counter_add(repwf_obs::CounterId::MctStageHits, n as u64 - recomputed);
        // Scan in the exact order of `max_cycle_time_view` (stage-major,
        // slot order), keeping the LAST maximum on ties like
        // `Iterator::max_by` — bit-identical winner, bit-identical value.
        let mut best: Option<&CycleTime> = None;
        for stage in &self.times {
            for ct in stage {
                if best.is_none_or(|b| ct.exec(model) >= b.exec(model)) {
                    best = Some(ct);
                }
            }
        }
        let best = best.expect("instance has at least one stage and processor").clone();
        let out = (best.exec(model), best);
        debug_assert!(
            {
                let (m, who) = max_cycle_time_view(v, model);
                m.to_bits() == out.0.to_bits() && who == out.1
            },
            "incremental M_ct diverged from the full rescan"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Mapping, Pipeline, Platform};

    /// Example-B-like shape: stage 0 on 3 procs, stage 1 on 4 procs.
    fn b_like() -> Instance {
        let pipeline = Pipeline::new(vec![300.0, 400.0], vec![1.0]).unwrap();
        let mut platform = Platform::uniform(7, 1.0, 1.0);
        // Make each link distinguishable: b(u,v) = 1/(100·(u+1) + v) so that
        // comm time = 100(u+1) + v.
        for u in 0..3 {
            for v in 3..7 {
                platform.set_bandwidth(u, v, 1.0 / (100.0 * (u as f64 + 1.0) + v as f64));
            }
        }
        let mapping = Mapping::new(vec![vec![0, 1, 2], vec![3, 4, 5, 6]]).unwrap();
        Instance::new(pipeline, platform, mapping).unwrap()
    }

    #[test]
    fn partner_residues_all_pairs_when_coprime() {
        // m_prev = 3 senders, m_cur = 4 receivers: receiver β hears from all
        // 3 senders over L = 12 data sets.
        let (senders, l) = partner_residues(3, 4, 0);
        assert_eq!(l, 12);
        assert_eq!(senders.collect::<Vec<_>>(), vec![0, 1, 2]);
        let (senders, _) = partner_residues(3, 4, 1);
        assert_eq!(senders.collect::<Vec<_>>(), vec![1, 2, 0]);
    }

    #[test]
    fn partner_residues_with_gcd() {
        // m_prev = 4, m_cur = 6, gcd 2: receiver β only hears senders of the
        // same parity.
        let (senders, l) = partner_residues(4, 6, 0);
        assert_eq!(l, 12);
        assert_eq!(senders.collect::<Vec<_>>(), vec![0, 2]);
        let (senders, _) = partner_residues(4, 6, 1);
        assert_eq!(senders.collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn replica_lcm_is_the_u128_lcm() {
        use crate::paths::lcm;
        for a in 0..=64usize {
            for b in 0..=64usize {
                let wide = lcm(a as u128, b as u128).map(|l| l as usize);
                assert_eq!(replica_lcm(a, b), wide, "lcm({a}, {b})");
            }
        }
        for (a, b) in [(4096, 4095), (4095, 4094), (1 << 20, 3 << 19), (usize::MAX, 1)] {
            let wide = lcm(a as u128, b as u128).map(|l| l as usize);
            assert_eq!(replica_lcm(a, b), wide, "lcm({a}, {b})");
        }
        // Overflow is `None` where the u128 value does not fit a usize.
        assert_eq!(replica_lcm(usize::MAX, usize::MAX - 1), None);
    }

    #[test]
    fn comp_time_divided_by_replicas() {
        let inst = b_like();
        let cts = cycle_times(&inst);
        let p0 = cts.iter().find(|c| c.proc == 0).unwrap();
        assert!((p0.c_comp - 100.0).abs() < 1e-12); // 300 work / 3 replicas
        let p3 = cts.iter().find(|c| c.proc == 3).unwrap();
        assert!((p3.c_comp - 100.0).abs() < 1e-12); // 400 / 4
    }

    #[test]
    fn out_port_averages_over_receivers() {
        let inst = b_like();
        let cts = cycle_times(&inst);
        // P0 (sender index 0) sends rows j ≡ 0 mod 3: receivers j mod 4 =
        // 0,3,2,1 → all four links 103,104,105,106: sum 418 over L=12.
        let p0 = cts.iter().find(|c| c.proc == 0).unwrap();
        assert!((p0.c_out - 418.0 / 12.0).abs() < 1e-12);
        assert_eq!(p0.c_in, 0.0);
    }

    #[test]
    fn in_port_averages_over_senders() {
        let inst = b_like();
        let cts = cycle_times(&inst);
        // P3 (receiver index 0) hears from senders 0,1,2: links 103, 203, 303
        // → sum 609 over L=12.
        let p3 = cts.iter().find(|c| c.proc == 3).unwrap();
        assert!((p3.c_in - 609.0 / 12.0).abs() < 1e-12);
        assert_eq!(p3.c_out, 0.0);
    }

    #[test]
    fn strict_sums_overlap_maxes() {
        let inst = b_like();
        let cts = cycle_times(&inst);
        let p0 = cts.iter().find(|c| c.proc == 0).unwrap();
        assert!((p0.exec(CommModel::Strict) - (100.0 + 418.0 / 12.0)).abs() < 1e-12);
        assert!((p0.exec(CommModel::Overlap) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn mct_cache_matches_full_rescan_under_random_mutations() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let n = 4;
        let p = 9;
        let pipeline =
            Pipeline::new((0..n).map(|_| 1.0 + 9.0 * rng.gen::<f64>()).collect(), vec![1.0; n - 1])
                .unwrap();
        let mut platform = Platform::uniform(p, 1.0, 1.0);
        for u in 0..p {
            platform.set_speed(u, 0.5 + rng.gen::<f64>());
            for v in 0..p {
                platform.set_bandwidth(u, v, 0.3 + rng.gen::<f64>());
            }
        }
        let mut assignment: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        for u in n..p {
            assignment[rng.gen_range(0..n)].push(u);
        }
        let mut cache = MctCache::new();
        for step in 0..200 {
            // Random in-place mutation: usually a swap, sometimes a shift.
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if i != j {
                if rng.gen_range(0..4) == 0 && assignment[i].len() > 1 {
                    let k = rng.gen_range(0..assignment[i].len());
                    let u = assignment[i].remove(k);
                    assignment[j].push(u);
                } else {
                    let ki = rng.gen_range(0..assignment[i].len());
                    let kj = rng.gen_range(0..assignment[j].len());
                    let (a, b) = (assignment[i][ki], assignment[j][kj]);
                    assignment[i][ki] = b;
                    assignment[j][kj] = a;
                }
            }
            let mapping = Mapping::new(assignment.clone()).unwrap();
            let view = InstanceView::new(&pipeline, &platform, &mapping).unwrap();
            // Alternate the model call-to-call: the cached decompositions
            // are model-independent and must serve both.
            let model = if step % 2 == 0 { CommModel::Strict } else { CommModel::Overlap };
            let (inc, who_inc) = cache.max_cycle_time(view, model);
            let (cold, who_cold) = max_cycle_time_view(view, model);
            assert_eq!(inc.to_bits(), cold.to_bits(), "step {step}");
            assert_eq!(who_inc, who_cold, "step {step}");
        }
        assert_eq!(cache.evals(), 200);
        assert!(
            cache.stage_recomputes() < 200 * n as u64,
            "cache never skipped a stage: {} recomputes",
            cache.stage_recomputes()
        );
    }

    #[test]
    fn mct_cache_recomputes_only_touched_stages() {
        // 8 stages, two replicas each; swapping between stages 0 and 1
        // must re-examine exactly stages 0, 1 and 2.
        let n = 8;
        let pipeline = Pipeline::new(vec![4.0; n], vec![1.0; n - 1]).unwrap();
        let mut platform = Platform::uniform(2 * n, 1.0, 1.0);
        for u in 0..2 * n {
            platform.set_speed(u, 1.0 + 0.05 * u as f64);
        }
        let mut assignment: Vec<Vec<usize>> = (0..n).map(|i| vec![2 * i, 2 * i + 1]).collect();
        let mut cache = MctCache::new();
        let view = |a: &[Vec<usize>]| Mapping::new(a.to_vec()).unwrap();
        let m0 = view(&assignment);
        cache.max_cycle_time(
            InstanceView::new(&pipeline, &platform, &m0).unwrap(),
            CommModel::Strict,
        );
        assert_eq!(cache.stage_recomputes(), n as u64, "first call recomputes everything");
        for k in 0..10u64 {
            assignment[0].swap(0, 1);
            assignment[1].swap(0, 1);
            let (a, b) = (assignment[0][0], assignment[1][0]);
            assignment[0][0] = b;
            assignment[1][0] = a;
            let m = view(&assignment);
            cache.max_cycle_time(
                InstanceView::new(&pipeline, &platform, &m).unwrap(),
                CommModel::Strict,
            );
            assert_eq!(
                cache.stage_recomputes(),
                n as u64 + 3 * (k + 1),
                "swap between stages 0 and 1 must touch stages 0..=2 only"
            );
        }
        // A stage-count change forces a full recompute.
        cache.invalidate();
        cache.max_cycle_time(
            InstanceView::new(&pipeline, &platform, &view(&assignment)).unwrap(),
            CommModel::Overlap,
        );
        assert_eq!(cache.stage_recomputes(), n as u64 + 30 + n as u64);
    }

    #[test]
    fn prefix_bound_full_prefix_equals_mct_bitwise() {
        let inst = b_like();
        for model in [CommModel::Overlap, CommModel::Strict] {
            let (mct, _) = max_cycle_time(&inst, model);
            let bound = prefix_cycle_bound(
                &inst.pipeline,
                &inst.platform,
                inst.mapping.assignment(),
                model,
            );
            assert_eq!(bound.to_bits(), mct.to_bits(), "{model:?}");
        }
    }

    #[test]
    fn prefix_bound_never_exceeds_any_completion() {
        // Prefix = stage 0 only; every way of mapping stage 1 onto the
        // remaining processors must have M_ct (and hence period) at or
        // above the prefix bound.
        let inst = b_like();
        let prefix = vec![vec![0usize, 1, 2]];
        for model in [CommModel::Overlap, CommModel::Strict] {
            let bound = prefix_cycle_bound(&inst.pipeline, &inst.platform, &prefix, model);
            for procs in [vec![3], vec![4, 3], vec![6, 5, 4], vec![3, 4, 5, 6], vec![5]] {
                let mapping = Mapping::new(vec![prefix[0].clone(), procs]).unwrap();
                let v = InstanceView::new(&inst.pipeline, &inst.platform, &mapping).unwrap();
                let (mct, _) = max_cycle_time_view(v, model);
                assert!(bound <= mct + 1e-15, "{model:?}: bound {bound} vs mct {mct}");
            }
        }
    }

    #[test]
    fn prefix_bound_infinite_on_invalid_prefix_link() {
        let inst = b_like();
        let mut platform = inst.platform.clone();
        platform.set_bandwidth(0, 3, 0.0);
        let prefix = vec![vec![0usize], vec![3]];
        let bound = prefix_cycle_bound(&inst.pipeline, &platform, &prefix, CommModel::Overlap);
        assert!(bound.is_infinite(), "zero-bandwidth prefix link must blow the bound up");
    }

    #[test]
    fn mct_picks_max() {
        let inst = b_like();
        // P2's links are 301..306-ish, the largest: it should be critical
        // under both models.
        let (_, who) = max_cycle_time(&inst, CommModel::Strict);
        assert_eq!(who.proc, 2);
        let (mct, _) = max_cycle_time(&inst, CommModel::Overlap);
        // P2 out: links 303+304+305+306 = 1218 over 12 = 101.5 > comp 100.
        assert!((mct - 1218.0 / 12.0).abs() < 1e-12);
    }
}
