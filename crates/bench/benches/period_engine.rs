//! Benchmarks the zero-allocation period engine against the one-shot API:
//! cold solves vs. engine (arena) reuse vs. warm-started policy iteration,
//! plus the campaign and annealing kernels built on top of it. The
//! `repwf bench` subcommand runs the same kernels and records them in
//! `BENCH_period.json`; this criterion target is for interactive digging.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use repwf_core::engine::{MappingOracle, PeriodEngine};
use repwf_core::model::{CommModel, Instance, Mapping, Pipeline, Platform};
use repwf_core::period::{compute_period_with, Method};
use repwf_core::tpn_build::BuildOptions;
use repwf_gen::campaign::{run_campaign_batched, DEFAULT_CAMPAIGN_CAP};
use repwf_gen::{GenConfig, Range};
use repwf_map::annealing::{anneal, AnnealOptions};
use repwf_map::greedy;

/// Strict-model instance with `m = lcm(4,5,3) = 60` TPN rows (300
/// transitions) — the same workload `repwf bench` times.
fn instance() -> Instance {
    let pipeline = Pipeline::new(vec![5.0, 7.0, 3.0], vec![2.0, 2.0]).unwrap();
    let mut platform = Platform::uniform(12, 1.0, 1.0);
    for u in 0..12 {
        platform.set_speed(u, 1.0 + 0.07 * u as f64);
    }
    let mapping =
        Mapping::new(vec![(0..4).collect(), (4..9).collect(), (9..12).collect()]).unwrap();
    Instance::new(pipeline, platform, mapping).unwrap()
}

fn bench_period_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("period_engine");
    let inst = instance();
    let opts = BuildOptions { labels: false, ..BuildOptions::default() };

    group.bench_function("cold", |b| {
        b.iter(|| {
            compute_period_with(&inst, CommModel::Strict, Method::FullTpn, &opts).unwrap()
        })
    });

    let mut engine = PeriodEngine::new();
    group.bench_function("engine_reuse", |b| {
        b.iter(|| engine.compute(&inst, CommModel::Strict, Method::FullTpn).unwrap())
    });

    let mut warm = PeriodEngine::new().warm_start(true);
    group.bench_function("warm_start", |b| {
        b.iter(|| warm.compute(&inst, CommModel::Strict, Method::FullTpn).unwrap())
    });
    group.finish();
}

fn bench_campaign_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_kernel");
    let cfg = GenConfig {
        stages: 2,
        procs: 7,
        comp: Range::constant(1.0),
        comm: Range::new(5.0, 10.0),
    };
    let count = 96;
    group.throughput(Throughput::Elements(count as u64));
    for threads in [1usize, repwf_par::max_threads().min(8)] {
        group.bench_with_input(BenchmarkId::new("strict", threads), &threads, |b, &t| {
            b.iter(|| run_campaign_batched(&cfg, CommModel::Strict, count, 2009, t, DEFAULT_CAMPAIGN_CAP))
        });
    }
    group.finish();
}

fn bench_annealing_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("annealing_kernel");
    let pipeline = Pipeline::new(vec![8.0, 24.0, 8.0], vec![0.5, 0.5]).unwrap();
    let mut platform = Platform::uniform(9, 1.0, 10.0);
    for u in 0..9 {
        platform.set_speed(u, 1.0 + 0.1 * u as f64);
    }
    let start = greedy(&pipeline, &platform);
    let opts = AnnealOptions {
        model: CommModel::Strict,
        steps: 200,
        seed: 2009,
        ..AnnealOptions::default()
    };
    group.sample_size(10);
    group.bench_function("strict_200_steps", |b| {
        b.iter(|| anneal(&pipeline, &platform, start.clone(), &opts))
    });
    group.finish();
}

/// The `neighbor_eval` kernel of `repwf bench`: a shape-preserving swap
/// walk evaluated cold one-shot (fresh engine + owned `Instance` per
/// candidate) vs. through one incremental `MappingOracle` session
/// (borrowed evaluation, warm starts, TPN patching).
fn bench_neighbor_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("neighbor_eval");
    let inst = instance();
    let steps = 32usize;
    let walk: Vec<Mapping> = {
        let mut assignment = inst.mapping.assignment().to_vec();
        let counts: Vec<usize> = assignment.iter().map(Vec::len).collect();
        (0..steps)
            .map(|t| {
                let i = t % (counts.len() - 1);
                let j = i + 1;
                let (si, sj) = (t % counts[i], (t / 2) % counts[j]);
                let (a, b) = (assignment[i][si], assignment[j][sj]);
                assignment[i][si] = b;
                assignment[j][sj] = a;
                Mapping::new(assignment.clone()).unwrap()
            })
            .collect()
    };
    group.throughput(Throughput::Elements(steps as u64));
    group.bench_function("cold_one_shot", |b| {
        b.iter(|| {
            for m in &walk {
                repwf_map::evaluate(&inst.pipeline, &inst.platform, m, CommModel::Strict).unwrap();
            }
        })
    });
    let mut oracle = MappingOracle::new(&inst.pipeline, &inst.platform).warm_start(true);
    group.bench_function("incremental_oracle", |b| {
        b.iter(|| {
            for m in &walk {
                oracle.compute(m, CommModel::Strict, Method::Auto).unwrap();
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_period_engine,
    bench_campaign_kernel,
    bench_annealing_kernel,
    bench_neighbor_eval
);
criterion_main!(benches);
