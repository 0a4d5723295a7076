//! Benchmarks the distributed-campaign round trip of `repwf-dist`: the
//! same campaign run unsharded in-process vs. as 3 seed-range shards
//! streamed to NDJSON files and recombined by the exact merger. The
//! `repwf bench` subcommand times the same pair as its
//! `campaign_shard_merge` kernel and gates the derived
//! `shard_merge_efficiency` index; this criterion target is for
//! interactive digging (e.g. how the NDJSON encode/parse and merge
//! validation scale with the campaign size).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use repwf_core::model::CommModel;
use repwf_dist::{merge_paths, run_shard, CampaignSpec};
use repwf_gen::campaign::{run_spec, DEFAULT_CAMPAIGN_CAP};
use repwf_gen::{GenConfig, Range, Topology};
use std::path::PathBuf;

fn spec(count: usize) -> CampaignSpec {
    CampaignSpec {
        cfg: GenConfig {
            stages: 2,
            procs: 7,
            comp: Range::constant(1.0),
            comm: Range::new(5.0, 10.0),
        },
        model: CommModel::Strict,
        count,
        seed_base: 2009,
        cap: DEFAULT_CAMPAIGN_CAP,
    }
}

fn bench_shard_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_shard_merge");
    let dir = std::env::temp_dir().join(format!("repwf-shard-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for &count in &[96usize, 384] {
        let spec = spec(count);
        group.throughput(Throughput::Elements(count as u64));
        group.bench_with_input(
            BenchmarkId::new("unsharded", count),
            &spec,
            |b, spec| {
                b.iter(|| {
                    let res = run_spec(spec, &Topology::chain(spec.cfg.stages), 2, |_| {});
                    assert_eq!(res.outcomes.len(), spec.count);
                })
            },
        );
        let paths: Vec<PathBuf> =
            (0..3).map(|i| dir.join(format!("c{count}-s{i}.ndjson"))).collect();
        group.bench_with_input(
            BenchmarkId::new("sharded_3x_plus_merge", count),
            &spec,
            |b, spec| {
                b.iter(|| {
                    for path in &paths {
                        let _ = std::fs::remove_file(path);
                    }
                    for (i, path) in paths.iter().enumerate() {
                        run_shard(spec, i, 3, 2, path, None).expect("shard runs");
                    }
                    let merged = merge_paths(&paths).expect("shards merge");
                    assert_eq!(merged.result.outcomes.len(), spec.count);
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("merge_only", count),
            &spec,
            |b, spec| {
                for (i, path) in paths.iter().enumerate() {
                    let _ = std::fs::remove_file(path);
                    run_shard(spec, i, 3, 2, path, None).expect("shard runs");
                }
                b.iter(|| {
                    let merged = merge_paths(&paths).expect("shards merge");
                    assert_eq!(merged.result.outcomes.len(), spec.count);
                })
            },
        );
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_shard_merge);
criterion_main!(benches);
