//! Stochastic platforms — the paper's stated future work.
//!
//! The paper closes with: *"This paper was focused on static platforms,
//! opening the way to future work on finding good schedules on dynamic
//! platforms, whose speeds and bandwidths are modeled by random
//! variables."* This module implements that extension for the evaluation
//! side: every operation's duration is multiplied by an independent random
//! factor, the earliest-start schedule is simulated, and the steady-state
//! period is estimated with confidence intervals over replications.
//!
//! Two classical facts become observable in the output:
//!
//! * with zero noise the estimate equals the deterministic period;
//! * by Jensen's inequality on the `max` recursions, mean-preserving noise
//!   can only *increase* the expected period (stochastic timed event graphs
//!   are slower than their fluid limits) — property-tested below.

use crate::runner::{SimOptions, SimResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use repwf_core::model::{CommModel, Instance};

/// A noise law for operation durations (multiplicative, mean 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Noise {
    /// No noise: durations are deterministic.
    None,
    /// Uniform on `[1−a, 1+a]`, `0 ≤ a < 1`.
    Uniform {
        /// half-width of the relative jitter
        amplitude: f64,
    },
    /// Two-point "degraded mode": with probability `p` the operation runs
    /// `slow`× slower, otherwise at a compensating faster rate so the mean
    /// stays 1 (models transient platform contention).
    Degraded {
        /// probability of the degraded mode
        p: f64,
        /// slowdown factor of the degraded mode (> 1)
        slow: f64,
    },
}

impl Noise {
    fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        match *self {
            Noise::None => 1.0,
            Noise::Uniform { amplitude } => {
                debug_assert!((0.0..1.0).contains(&amplitude));
                1.0 + amplitude * (2.0 * rng.gen::<f64>() - 1.0)
            }
            Noise::Degraded { p, slow } => {
                debug_assert!(slow > 1.0 && (0.0..1.0).contains(&p));
                if rng.gen::<f64>() < p {
                    slow
                } else {
                    // mean-preserving: p·slow + (1−p)·fast = 1
                    (1.0 - p * slow) / (1.0 - p)
                }
            }
        }
    }
}

/// Result of a stochastic evaluation.
#[derive(Debug, Clone)]
pub struct StochasticEstimate {
    /// Mean per-data-set period over the replications.
    pub mean: f64,
    /// Sample standard deviation over the replications.
    pub std_dev: f64,
    /// Per-replication estimates.
    pub samples: Vec<f64>,
}

impl StochasticEstimate {
    /// Half-width of a ~95% normal confidence interval for the mean.
    pub fn ci95(&self) -> f64 {
        1.96 * self.std_dev / (self.samples.len() as f64).sqrt()
    }
}

/// Reusable scratch of the stochastic replication engine: the per-resource
/// clocks and the completion-time trace. One per worker thread
/// (`repwf_par::par_map_init`): replications reuse the buffers instead of
/// re-allocating a `data_sets`-sized vector each.
#[derive(Debug, Clone, Default)]
pub struct ReplicationScratch {
    cpu: Vec<f64>,
    inp: Vec<Vec<f64>>,
    outp: Vec<Vec<f64>>,
    edge_end: Vec<f64>,
    completion: Vec<f64>,
}

impl ReplicationScratch {
    /// Creates an empty scratch (no allocation until the first run).
    pub fn new() -> Self {
        ReplicationScratch::default()
    }
}

/// Simulates the mapped workflow with noisy operation durations.
///
/// Identical recurrences to [`crate::runner::simulate`], except every
/// operation duration is multiplied by a fresh sample of `noise`.
pub fn simulate_noisy(
    inst: &Instance,
    model: CommModel,
    noise: Noise,
    opts: &SimOptions,
    seed: u64,
) -> SimResult {
    let n = inst.num_stages();
    let mut scratch = ReplicationScratch::new();
    noisy_completions(inst, model, noise, opts, seed, &mut scratch);
    let window = repwf_core::paths::instance_num_paths(inst)
        .map(|m| if m > opts.data_sets as u128 / 4 { 1 } else { m as u64 })
        .unwrap_or(1);
    SimResult {
        completion: scratch.completion,
        ops: Vec::new(),
        window,
        m_last: inst.mapping.replicas(n - 1),
    }
}

/// Runs one noisy replication into `scratch` (clocks reset, completion
/// trace overwritten in place).
fn noisy_completions(
    inst: &Instance,
    model: CommModel,
    noise: Noise,
    opts: &SimOptions,
    seed: u64,
    scratch: &mut ReplicationScratch,
) {
    let n = inst.num_stages();
    let p = inst.platform.num_procs();
    let wf = &inst.pipeline;
    let num_edges = wf.num_edges();
    let mut rng = StdRng::seed_from_u64(seed);
    scratch.cpu.clear();
    scratch.cpu.resize(p, 0.0);
    // Per-edge port clocks (one slot per replica); inner buffers are kept
    // allocated across replications.
    scratch.inp.resize_with(num_edges, Vec::new);
    scratch.outp.resize_with(num_edges, Vec::new);
    for (e, ports) in scratch.inp.iter_mut().enumerate() {
        ports.clear();
        ports.resize(inst.mapping.replicas(wf.edge(e).1), 0.0);
    }
    for (e, ports) in scratch.outp.iter_mut().enumerate() {
        ports.clear();
        ports.resize(inst.mapping.replicas(wf.edge(e).0), 0.0);
    }
    scratch.edge_end.clear();
    scratch.edge_end.resize(num_edges, 0.0);
    scratch.completion.clear();
    scratch.completion.reserve(opts.data_sets as usize);
    let ReplicationScratch { cpu, inp, outp, edge_end, completion } = scratch;

    for d in 0..opts.data_sets {
        let mut finish = 0.0f64;
        for i in 0..n {
            let u = inst.proc_for(i, d);
            let mut ready = 0.0f64;
            for &e in wf.in_edges(i) {
                ready = ready.max(edge_end[e]);
            }
            let ct = inst.comp_time(i, u) * noise.sample(&mut rng);
            let start = ready.max(cpu[u]);
            let end = start + ct;
            cpu[u] = end;
            finish = end;
            for &e in wf.out_edges(i) {
                let dst = wf.edge(e).1;
                let v = inst.proc_for(dst, d);
                let alpha = (d % inst.mapping.replicas(i) as u64) as usize;
                let beta = (d % inst.mapping.replicas(dst) as u64) as usize;
                let tt = inst.comm_time(e, u, v) * noise.sample(&mut rng);
                let start = match model {
                    CommModel::Overlap => end.max(outp[e][alpha]).max(inp[e][beta]),
                    CommModel::Strict => end.max(cpu[u]).max(cpu[v]),
                };
                let tend = start + tt;
                match model {
                    CommModel::Overlap => {
                        outp[e][alpha] = tend;
                        inp[e][beta] = tend;
                    }
                    CommModel::Strict => {
                        cpu[u] = tend;
                        cpu[v] = tend;
                    }
                }
                edge_end[e] = tend;
            }
        }
        completion.push(finish);
    }
}

/// Estimates the expected steady-state period under `noise` over
/// `replications` independent runs (sequentially; see
/// [`estimate_period_par`] for the multi-core variant).
pub fn estimate_period(
    inst: &Instance,
    model: CommModel,
    noise: Noise,
    data_sets: u64,
    replications: usize,
    seed: u64,
) -> StochasticEstimate {
    estimate_period_par(inst, model, noise, data_sets, replications, seed, 1)
}

/// [`estimate_period`] over `threads` work-stealing workers.
///
/// Replication `k` uses seed `seed + k` regardless of scheduling, so the
/// estimate is bit-identical at every thread count.
pub fn estimate_period_par(
    inst: &Instance,
    model: CommModel,
    noise: Noise,
    data_sets: u64,
    replications: usize,
    seed: u64,
    threads: usize,
) -> StochasticEstimate {
    let m_last = inst.mapping.replicas(inst.num_stages() - 1);
    let opts = SimOptions { data_sets, record_ops: false };
    let samples: Vec<f64> =
        repwf_par::par_map_init(threads, replications, ReplicationScratch::new, |scratch, k| {
            noisy_completions(inst, model, noise, &opts, seed + k as u64, scratch);
            crate::runner::sustainable_period(&scratch.completion, m_last)
        });
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = if samples.len() > 1 {
        samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64
    } else {
        0.0
    };
    StochasticEstimate { mean, std_dev: var.sqrt(), samples }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repwf_core::model::{Mapping, Pipeline, Platform};
    use repwf_core::period::{compute_period, Method};

    fn inst() -> Instance {
        let pipeline = Pipeline::new(vec![6.0, 9.0], vec![3.0]).unwrap();
        let platform = Platform::uniform(4, 1.0, 1.0);
        let mapping = Mapping::new(vec![vec![0], vec![1, 2, 3]]).unwrap();
        Instance::new(pipeline, platform, mapping).unwrap()
    }

    #[test]
    fn zero_noise_matches_deterministic() {
        let i = inst();
        for model in [CommModel::Overlap, CommModel::Strict] {
            let exact = compute_period(&i, model, Method::FullTpn).unwrap().period;
            let est = estimate_period(&i, model, Noise::None, 4000, 2, 1);
            assert!((est.mean - exact).abs() < 2e-3 * exact, "{model}: {} vs {exact}", est.mean);
            assert!(est.std_dev < 1e-9, "deterministic runs must agree exactly");
        }
    }

    #[test]
    fn mean_preserving_noise_slows_the_system() {
        // Jensen: E[max] ≥ max of means — noise can only hurt throughput.
        // The effect needs *coupled* resources (when a single bottleneck
        // dominates, its long-run rate is a plain i.i.d. average and the
        // expected period equals the deterministic one), so balance the
        // instance: comp0 = comp1 = out-port = 6 per data set.
        let pipeline = Pipeline::new(vec![6.0, 18.0], vec![6.0]).unwrap();
        let platform = Platform::uniform(4, 1.0, 1.0);
        let mapping = Mapping::new(vec![vec![0], vec![1, 2, 3]]).unwrap();
        let i = Instance::new(pipeline, platform, mapping).unwrap();
        let base = compute_period(&i, CommModel::Overlap, Method::Polynomial).unwrap().period;
        assert!((base - 6.0).abs() < 1e-9);
        for noise in [Noise::Uniform { amplitude: 0.5 }, Noise::Degraded { p: 0.1, slow: 5.0 }] {
            let est = estimate_period(&i, CommModel::Overlap, noise, 6000, 8, 7);
            assert!(
                est.mean > base + est.ci95(),
                "{noise:?}: stochastic mean {} not above deterministic {base} (ci {})",
                est.mean,
                est.ci95()
            );
        }
    }

    #[test]
    fn more_noise_more_slowdown() {
        let i = inst();
        let small =
            estimate_period(&i, CommModel::Strict, Noise::Uniform { amplitude: 0.1 }, 5000, 6, 3);
        let large =
            estimate_period(&i, CommModel::Strict, Noise::Uniform { amplitude: 0.8 }, 5000, 6, 3);
        assert!(large.mean > small.mean, "{} vs {}", large.mean, small.mean);
    }

    #[test]
    fn noise_samples_have_mean_one() {
        let mut rng = StdRng::seed_from_u64(5);
        for noise in [Noise::Uniform { amplitude: 0.7 }, Noise::Degraded { p: 0.2, slow: 3.0 }] {
            let n = 200_000;
            let mean: f64 = (0..n).map(|_| noise.sample(&mut rng)).sum::<f64>() / n as f64;
            assert!((mean - 1.0).abs() < 5e-3, "{noise:?}: mean {mean}");
        }
    }

    #[test]
    fn ci_shrinks_with_replications() {
        let i = inst();
        let few =
            estimate_period(&i, CommModel::Overlap, Noise::Uniform { amplitude: 0.4 }, 1500, 4, 9);
        let many =
            estimate_period(&i, CommModel::Overlap, Noise::Uniform { amplitude: 0.4 }, 1500, 16, 9);
        assert!(many.ci95() < few.ci95() + 1e-12);
    }
}
