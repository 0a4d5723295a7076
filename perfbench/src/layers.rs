//! Per-layer replay: times the public function of each layer, called from
//! here, on a workload's own inputs. Nothing inside the library is
//! instrumented for this; the library's own telemetry counters are read
//! separately (see `main.rs`).
//!
//! Four replays, each over the inputs of the workload's first measured
//! pass:
//!
//! * **draws** (every campaign workload): each experiment's instance is
//!   sampled once and handed, in seed order, to every per-draw layer: the
//!   `M_ct` bound, the per-instance engine, and either the overlap
//!   polynomial or the strict TPN chain (timing plane, TPN build, ratio
//!   graph, CSR, Tarjan, Howard on a structure hit);
//! * **batched** (strict sub-campaigns): the shape-batched runner's
//!   routing, staging and batched Howard passes, call for call;
//! * **shards** (`shard_merge`): shard writes against the same campaign
//!   with a no-op sink, shard reads, merge and record encoding;
//! * **oracle** (`map_exact`): the mapping oracle on a same-shape swap
//!   walk of Example A, patched and rebuilt, and the prefix bound.

use crate::workloads::{shard_spec, Bench, SubCampaign, CAP, NUM_SHARDS};
use maxplus::workspace::Csr;
use maxplus::{RatioGraph, Workspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use repwf_core::batch::ShapeBatchSolver;
use repwf_core::cycle_time::max_cycle_time_view;
use repwf_core::engine::MappingOracle;
use repwf_core::model::{CommModel, InstanceView, Mapping};
use repwf_core::overlap_poly::overlap_period_view;
use repwf_core::paths::{mapping_num_paths, num_paths};
use repwf_core::period::Method;
use repwf_core::tpn_build::{build_tpn_view_into, transition_times_into, BuildOptions};
use repwf_dist::shard::{outcome_line, read_shard};
use repwf_dist::{merge_paths, ShardManifest};
use repwf_gen::campaign::{engine_for_cap, run_campaign_streamed, shape_stats, structural_stats};
use repwf_gen::sampler::{sample_parts, sample_replica_counts};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;
use tpn::analysis::ratio_graph_into;
use tpn::net::TimedEventGraph;

/// Total time and call count of one public function.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timer {
    ns: u128,
    calls: u64,
}

impl Timer {
    /// Calls `f` once, adding its wall time.
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = black_box(f());
        self.ns += t.elapsed().as_nanos();
        self.calls += 1;
        out
    }

    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }

    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Mean microseconds per call (0 when never called).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 * 1e-3 / self.calls as f64
        }
    }
}

/// Per-draw layer times, in seed order.
#[derive(Debug, Default)]
pub struct DrawLayers {
    pub sample: Timer,
    pub mct: Timer,
    pub engine: Timer,
    pub overlap_poly: Timer,
    pub stage: Timer,
    pub tpn_build: Timer,
    pub ratio_graph: Timer,
    pub csr: Timer,
    /// `Workspace::scc`: a CSR build followed by Tarjan.
    pub scc: Timer,
    pub howard: Timer,
    /// Transitions over every TPN built.
    pub transitions: u64,
    /// Engine solves that took the patch path, and all engine solves.
    pub patched: u64,
    pub solves: u64,
}

impl DrawLayers {
    /// Tarjan alone: `Workspace::scc` minus the CSR build it starts with.
    pub fn tarjan_us(&self) -> f64 {
        (self.scc.mean_us() - self.csr.mean_us()).max(0.0)
    }
}

/// Replays every draw of `subs` through each per-draw layer. Fails if the
/// Howard period of a draw differs from the engine's.
pub fn replay_draws(subs: &[SubCampaign]) -> Result<DrawLayers, String> {
    let mut l = DrawLayers::default();
    let opts = BuildOptions {
        labels: false,
        max_transitions: CAP,
    };
    let mut net = TimedEventGraph::new();
    let mut graph = RatioGraph::new(0);
    let mut csr = Csr::new();
    let mut ws = Workspace::new();
    let mut times = Vec::new();
    let mut token = 0u64;
    for sub in subs {
        // One engine per sub-campaign, as a single worker of the
        // per-instance runner holds.
        let mut engine = engine_for_cap(CAP);
        let method = match sub.model {
            CommModel::Overlap => Method::Polynomial,
            CommModel::Strict => Method::FullTpn,
        };
        for k in 0..sub.count as u64 {
            let seed = sub.seed_base + k;
            let mut rng = StdRng::seed_from_u64(seed);
            let (pipeline, platform, mapping) = l.sample.time(|| sample_parts(&sub.cfg, &mut rng));
            let view = InstanceView::new(&pipeline, &platform, &mapping)
                .map_err(|e| format!("seed {seed}: {e}"))?;
            l.mct.time(|| max_cycle_time_view(view, sub.model));
            let report = l
                .engine
                .time(|| engine.compute_mapping(&pipeline, &platform, &mapping, sub.model, method))
                .map_err(|e| format!("seed {seed}: {e}"))?;
            match sub.model {
                CommModel::Overlap => {
                    l.overlap_poly.time(|| overlap_period_view(view));
                }
                CommModel::Strict => {
                    let rows = mapping_num_paths(&mapping)
                        .ok_or_else(|| format!("seed {seed}: path count overflows"))?;
                    l.stage
                        .time(|| transition_times_into(view, rows as usize, &mut times));
                    l.tpn_build
                        .time(|| build_tpn_view_into(view, CommModel::Strict, &opts, &mut net))
                        .map_err(|e| format!("seed {seed}: {e}"))?;
                    l.transitions += net.num_transitions() as u64;
                    l.ratio_graph.time(|| ratio_graph_into(&net, &mut graph));
                    l.csr.time(|| csr.build(&graph));
                    l.scc.time(|| ws.scc(&graph).num_components());
                    // The first cached solve condenses; the second hits
                    // the structure cache and runs Howard alone.
                    token += 1;
                    black_box(ws.max_cycle_ratio_cached(&graph, token, false))
                        .map_err(|e| format!("seed {seed}: {e}"))?;
                    let sol = l
                        .howard
                        .time(|| ws.max_cycle_ratio_cached(&graph, token, false))
                        .map_err(|e| format!("seed {seed}: {e}"))?
                        .ok_or_else(|| format!("seed {seed}: no circuit"))?;
                    let period = sol.ratio / rows as f64;
                    if period.to_bits() != report.period.to_bits() {
                        return Err(format!(
                            "seed {seed}: Howard period {period} differs from the engine's {}",
                            report.period
                        ));
                    }
                }
            }
        }
        l.patched += engine.patched_solves();
        l.solves += sub.count as u64;
    }
    Ok(l)
}

/// Seconds of the per-instance runner's public calls over `subs`: sampling
/// and one engine solve per draw, one engine per sub-campaign in seed
/// order, as a single worker of `run_campaign_with` or
/// `run_campaign_streamed` makes them.
pub fn replay_per_instance(subs: &[SubCampaign]) -> Result<f64, String> {
    let mut calls = Timer::default();
    for sub in subs {
        let mut engine = engine_for_cap(CAP);
        let method = match sub.model {
            CommModel::Overlap => Method::Polynomial,
            CommModel::Strict => Method::FullTpn,
        };
        for seed in sub.seed_base..sub.seed_base + sub.count as u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (pipeline, platform, mapping) = calls.time(|| sample_parts(&sub.cfg, &mut rng));
            calls
                .time(|| engine.compute_mapping(&pipeline, &platform, &mapping, sub.model, method))
                .map_err(|e| format!("seed {seed}: {e}"))?;
        }
    }
    Ok(calls.secs())
}

/// The shape-batched runner's layers, call for call.
#[derive(Debug, Default)]
pub struct BatchLayers {
    /// Replica-count replay and shape grouping of every seed.
    pub route: Timer,
    pub sample: Timer,
    pub mct: Timer,
    /// `ShapeBatchSolver::begin`: the TPN build on a new shape.
    pub begin: Timer,
    /// `ShapeBatchSolver::stage`: the timing plane of one draw.
    pub stage: Timer,
    /// `ShapeBatchSolver::solve`: one batched Howard pass per chunk.
    pub solve: Timer,
    pub groups: u64,
    pub draws: u64,
    pub lanes: u64,
}

impl BatchLayers {
    /// Seconds over every call of the batched path.
    pub fn total_secs(&self) -> f64 {
        [
            self.route,
            self.sample,
            self.mct,
            self.begin,
            self.stage,
            self.solve,
        ]
        .iter()
        .map(Timer::secs)
        .sum()
    }
}

/// Transitions staged per batched chunk, and instances per chunk: the
/// chunking rule of `run_campaign_batched`, which keeps its own copy
/// private. [`replay_batched`] checks its groups and chunks against the
/// library's public `shape_stats` and `structural_stats`, so a change of
/// the rule there fails the replay instead of timing another schedule.
const BATCH_TRANSITION_BUDGET: u128 = 1_000_000;
const MAX_BATCH: u128 = 16;

/// Replays the shape-batched runner over the strict sub-campaigns. Fails
/// if its shape groups or chunks differ in number from the library's.
pub fn replay_batched(subs: &[SubCampaign]) -> Result<BatchLayers, String> {
    let mut l = BatchLayers::default();
    let mut solver = ShapeBatchSolver::new(CAP);
    for sub in subs.iter().filter(|s| s.model == CommModel::Strict) {
        let cols = (2 * sub.cfg.stages - 1) as u128;
        // (transitions, member offsets) per shape, first occurrence first.
        let groups = l.route.time(|| {
            let mut group_of: HashMap<Vec<usize>, usize> = HashMap::new();
            let mut groups: Vec<(u128, Vec<u64>)> = Vec::new();
            for k in 0..sub.count as u64 {
                let mut rng = StdRng::seed_from_u64(sub.seed_base + k);
                let replicas = sample_replica_counts(&sub.cfg, &mut rng);
                let t = num_paths(&replicas).and_then(|m| m.checked_mul(cols));
                if let Some(t) = t.filter(|&t| t <= CAP as u128) {
                    let g = *group_of.entry(replicas).or_insert_with(|| {
                        groups.push((t, Vec::new()));
                        groups.len() - 1
                    });
                    groups[g].1.push(k);
                }
            }
            groups
        });
        // Every draw here is within the cap, so the library's shape count
        // covers the same draws as the groups.
        let (shapes, _) = shape_stats(&sub.cfg, sub.count, sub.seed_base);
        if groups.len() != shapes {
            return Err(format!(
                "seeds {}..: {} shape groups replayed, the library counts {shapes}",
                sub.seed_base,
                groups.len()
            ));
        }
        l.groups += groups.len() as u64;
        l.draws += sub.count as u64;
        let mut chunks = 0;
        for (transitions, members) in groups {
            let chunk = (BATCH_TRANSITION_BUDGET / transitions.max(1)).clamp(1, MAX_BATCH);
            for ks in members.chunks(chunk as usize) {
                chunks += 1;
                for (q, &k) in ks.iter().enumerate() {
                    let seed = sub.seed_base + k;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let (pipeline, platform, mapping) =
                        l.sample.time(|| sample_parts(&sub.cfg, &mut rng));
                    let view = InstanceView::new(&pipeline, &platform, &mapping)
                        .map_err(|e| format!("seed {seed}: {e}"))?;
                    if q == 0 {
                        l.begin
                            .time(|| solver.begin(view, CommModel::Strict, ks.len()))
                            .map_err(|e| format!("seed {seed}: {e}"))?;
                    }
                    l.mct.time(|| max_cycle_time_view(view, CommModel::Strict));
                    l.stage.time(|| solver.stage(q, view));
                }
                let solved = l.solve.time(|| solver.solve());
                l.lanes += ks.len() as u64;
                if let Some(e) = solved.iter().find_map(|r| r.as_ref().err()) {
                    return Err(format!("batched solve: {e}"));
                }
            }
        }
        let want = structural_stats(&sub.cfg, CommModel::Strict, sub.count, sub.seed_base, CAP);
        if chunks != want.csr_builds {
            return Err(format!(
                "seeds {}..: {chunks} batch chunks replayed, the library makes {}",
                sub.seed_base, want.csr_builds
            ));
        }
    }
    Ok(l)
}

/// The shard layers of one round trip, repeated `reps` times.
#[derive(Debug, Default)]
pub struct ShardLayers {
    pub encode: Timer,
    pub read: Timer,
    pub merge: Timer,
    /// Median seconds of writing the shards, and of the same streamed
    /// campaign with a no-op sink.
    pub write_s: f64,
    pub streamed_s: f64,
    pub bytes: u64,
    pub results: u64,
}

/// Writes, reads and merges the shards of the campaign at `base`, and runs
/// the same seed ranges with a no-op sink for comparison.
pub fn replay_shards(
    bench: &Bench,
    base: u64,
    threads: usize,
    reps: usize,
) -> Result<ShardLayers, String> {
    let spec = shard_spec(base);
    let mut l = ShardLayers::default();
    let mut writes = Vec::new();
    let mut streamed = Vec::new();
    for _ in 0..reps {
        let paths = bench.fresh_shard_paths()?;
        let t = Instant::now();
        for (i, path) in paths.iter().enumerate() {
            repwf_dist::run_shard(&spec, i, NUM_SHARDS, threads, path, None)
                .map_err(|e| e.to_string())?;
        }
        writes.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        for i in 0..NUM_SHARDS {
            let plan = ShardManifest::new(spec, i, NUM_SHARDS)
                .map_err(|e| e.to_string())?
                .plan;
            black_box(run_campaign_streamed(
                &spec.cfg,
                spec.model,
                plan.shard_count(),
                plan.seed_start(),
                threads,
                spec.cap,
                &|o| {
                    black_box(o);
                },
            ));
        }
        streamed.push(t.elapsed().as_secs_f64());

        for path in &paths {
            l.read
                .time(|| read_shard(path))
                .map_err(|e| e.to_string())?;
        }
        let merged = l
            .merge
            .time(|| merge_paths(&paths))
            .map_err(|e| e.to_string())?;
        for o in &merged.result.outcomes {
            l.encode.time(|| outcome_line(o));
        }
        l.bytes = paths
            .iter()
            .map(|p| {
                std::fs::metadata(p)
                    .map(|m| m.len())
                    .map_err(|e| e.to_string())
            })
            .sum::<Result<u64, String>>()?;
        l.results = merged.result.outcomes.len() as u64;
    }
    l.write_s = crate::median(&mut writes);
    l.streamed_s = crate::median(&mut streamed);
    Ok(l)
}

/// Mapping-oracle layers on a swap walk of Example A.
#[derive(Debug, Default)]
pub struct OracleLayers {
    pub patched: Timer,
    pub rebuild: Timer,
    pub prefix_bound: Timer,
    /// `MctCache` stage hits over stage evaluations on the patched walk.
    pub mct_hit_rate: f64,
}

/// Strict-model oracle calls on a `steps`-long walk of processor swaps
/// from Example A's mapping. Every swap keeps the replica counts, so each
/// call after the first may take the patch path; the rebuild walk forces
/// the full path on the same mappings and must agree with it.
pub fn replay_oracle(bench: &Bench, seed: u64, steps: usize) -> Result<OracleLayers, String> {
    let inst = bench.example_a();
    let (pipeline, platform) = (&inst.pipeline, &inst.platform);
    let model = CommModel::Strict;
    let p = platform.num_procs();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current: Vec<Vec<usize>> = inst.mapping.assignment().to_vec();
    let mut walk = Vec::with_capacity(steps);
    for _ in 0..steps {
        let slots: Vec<(usize, usize)> = current
            .iter()
            .enumerate()
            .flat_map(|(i, procs)| (0..procs.len()).map(move |s| (i, s)))
            .collect();
        let (i, si) = slots[rng.gen_range(0..slots.len())];
        let u = rng.gen_range(0..p);
        match slots.iter().find(|&&(j, sj)| current[j][sj] == u) {
            Some(&(j, sj)) => {
                let v = current[i][si];
                current[i][si] = u;
                current[j][sj] = v;
            }
            None => current[i][si] = u,
        }
        walk.push(Mapping::new(current.clone()).map_err(|e| e.to_string())?);
    }

    let mut l = OracleLayers::default();
    let mut oracle = MappingOracle::new(pipeline, platform).warm_start(true);
    let mut periods = Vec::with_capacity(steps);
    for m in &walk {
        let r = l
            .patched
            .time(|| oracle.compute(m, model, Method::Auto))
            .map_err(|e| e.to_string())?;
        periods.push(r.period);
        // Every proper prefix, with the processors it has taken.
        let mut used = vec![false; p];
        for k in 1..m.num_stages() {
            for &u in m.procs(k - 1) {
                used[u] = true;
            }
            l.prefix_bound
                .time(|| oracle.prefix_period_bound(&m.assignment()[..k], &used, model));
        }
    }
    let cache = oracle.mct_cache();
    let stage_evals = cache.evals() * pipeline.num_stages() as u64;
    l.mct_hit_rate = 1.0 - cache.stage_recomputes() as f64 / stage_evals.max(1) as f64;
    if oracle.engine_mut().patched_solves() == 0 {
        return Err("the swap walk never took the patch path".to_string());
    }

    let mut oracle = MappingOracle::new(pipeline, platform).warm_start(true);
    for (m, &want) in walk.iter().zip(&periods) {
        oracle.engine_mut().reset_patch_state();
        let r = l
            .rebuild
            .time(|| oracle.compute(m, model, Method::Auto))
            .map_err(|e| e.to_string())?;
        if (r.period - want).abs() > 1e-9 * want {
            return Err(format!(
                "{:?}: rebuilt period {} vs patched {want}",
                m.assignment(),
                r.period
            ));
        }
    }
    Ok(l)
}
