//! `repwf bench` — the tracked work-counter gate of the period engine.
//!
//! Runs the hot kernels of the reproduction — single-instance period
//! solves (cold / engine-reused / warm-started), TPN construction on a
//! chain and a fork/join DAG, the campaign (per-instance oracle and
//! batched runner), annealing over mapping space, the neighbor-move
//! oracle (cold one-shot vs. incremental), the shape-cached patched
//! solve vs. a forced rebuild, the sharded campaign with its exact
//! merge, and the exact branch-and-bound optimizer — each **once, on one
//! thread**, inside [`repwf_obs::counted`], and writes the nonzero work
//! counters of every kernel to `BENCH_period.json` (schema
//! `repwf-bench/v2`), next to the integers that size its work (TPN
//! transitions and places, annealing evaluations, the B&B statistics and
//! search space).
//!
//! These counts are exact: they depend neither on the clock nor on the
//! schedule, so `--check BASELINE` demands equality for every
//! `(kernel, name)` pair in both directions, and one extra Howard round
//! or fsync fails it. Wall-time claims belong to perfbench's paired
//! protocol (`perfbench/`), not to this gate.

use crate::json::{parse, Json, JsonValue};
use crate::opts::Opts;
use repwf_core::engine::{MappingOracle, PeriodEngine};
use repwf_core::model::{CommModel, Instance, Mapping, Pipeline, Platform};
use repwf_core::period::{compute_period_with, Method};
use repwf_core::tpn_build::{build_tpn, BuildOptions};
use repwf_dist::{merge_paths, run_shard};
use repwf_gen::campaign::{
    engine_for_cap, run_one_with, run_spec, CampaignResult, CampaignSpec, DEFAULT_CAMPAIGN_CAP,
};
use repwf_gen::{GenConfig, Range, Topology};
use repwf_map::annealing::{anneal, AnnealOptions};
use repwf_map::exact::{solve, ExactOptions};
use repwf_map::greedy;
use repwf_obs::{counted, CounterId, Counts};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

const HELP: &str = "\
repwf bench — count the work of the tracked kernels and emit BENCH_period.json

OPTIONS:
  --out PATH         where to write the JSON report (default: BENCH_period.json)
  --check BASELINE   fail unless every kernel count equals the baseline's;
                     BASELINE must not be the --out file (exit 2 before any
                     kernel runs)
";

const SCHEMA: &str = "repwf-bench/v2";

/// Campaign and annealing seed.
const SEED: u64 = 2009;

/// The `(name, count)` pairs of one kernel, in report order.
type Entries = Vec<(&'static str, u64)>;

/// A report read back from JSON: every kernel with its counts.
type Kernels = Vec<(String, Vec<(String, u64)>)>;

/// The nonzero registry counters in `counts`, then the nonzero `extra`
/// integers that size the kernel's work.
fn entries(counts: &Counts, extra: &[(&'static str, u64)]) -> Entries {
    CounterId::ALL
        .iter()
        .map(|&id| (id.name(), counts[id]))
        .chain(extra.iter().copied())
        .filter(|&(_, v)| v > 0)
        .collect()
}

/// The single-instance workload: 3 stages replicated 4/5/3 on 12
/// heterogeneous processors — `m = lcm(4,5,3) = 60` TPN rows, 300
/// transitions under the strict model.
fn bench_instance() -> Instance {
    let pipeline = Pipeline::new(vec![5.0, 7.0, 3.0], vec![2.0, 2.0]).unwrap();
    let mut platform = Platform::uniform(12, 1.0, 1.0);
    for u in 0..12 {
        platform.set_speed(u, 1.0 + 0.07 * u as f64);
    }
    let mapping =
        Mapping::new(vec![(0..4).collect(), (4..9).collect(), (9..12).collect()]).unwrap();
    Instance::new(pipeline, platform, mapping).unwrap()
}

pub fn run(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["--out", "--check"], &["--help"])?;
    if opts.has("--help") {
        print!("{HELP}");
        return Ok(());
    }
    let out_path = opts.get("--out").unwrap_or("BENCH_period.json").to_string();
    // The baseline is read and validated before any kernel runs.
    let baseline = match opts.get("--check") {
        Some(path) => {
            if same_file(Path::new(&out_path), Path::new(path)) {
                return Err(format!(
                    "--out {out_path} and --check {path} are the same file: the report would \
                     overwrite the baseline before the check reads it; write the report elsewhere \
                     (e.g. --out BENCH_new.json)"
                ));
            }
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
            Some((path, read_report(&text).map_err(|e| format!("baseline {path}: {e}"))?))
        }
        None => None,
    };

    let report = run_kernels()?;
    let doc = Json::Obj(vec![
        ("schema", Json::str(SCHEMA)),
        (
            "kernels",
            Json::Obj(
                report
                    .iter()
                    .map(|(kernel, entries)| {
                        let counts = entries.iter().map(|&(n, v)| (n, Json::UInt(v.into())));
                        (*kernel, Json::Obj(counts.collect()))
                    })
                    .collect(),
            ),
        ),
    ]);
    let rendered = doc.to_string_pretty();
    std::fs::write(&out_path, &rendered).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    for (kernel, entries) in &report {
        let counts: Vec<String> = entries.iter().map(|(n, v)| format!("{n} {v}")).collect();
        eprintln!("  {kernel:26} {}", counts.join(", "));
    }
    eprintln!("report written to {out_path}");

    if let Some((path, baseline)) = baseline {
        let current = read_report(&rendered).expect("the report reads back");
        let lines = mismatches(&baseline, &current);
        if !lines.is_empty() {
            return Err(format!(
                "{} count(s) differ from baseline {path}:\n  {}",
                lines.len(),
                lines.join("\n  ")
            ));
        }
        let pairs: usize = current.iter().map(|(_, e)| e.len()).sum();
        eprintln!("check against {path}: OK ({pairs} counts of {} kernels equal)", current.len());
    }
    Ok(())
}

/// Runs every kernel once and returns its counts, in run order. Panics
/// only on a broken invariant (a period that is not bit-equal to its
/// reference, a runner that disagrees with the oracle, ...).
fn run_kernels() -> Result<Vec<(&'static str, Entries)>, String> {
    let mut report = Vec::new();
    let strict = CommModel::Strict;

    // --- single-instance period solves (strict, full TPN) ---
    //
    // The engine and warm-start kernels measure reuse: each solves once
    // to fill its arena and is counted on the second call.
    let inst = bench_instance();
    let build_opts = BuildOptions { labels: false, ..BuildOptions::default() };
    let (cold, counts) =
        counted(|| compute_period_with(&inst, strict, Method::FullTpn, &build_opts));
    let reference = cold.map_err(|e| format!("bench instance failed to solve: {e}"))?.period;
    report.push(("period_full_tpn_cold", entries(&counts, &[])));
    for (name, mut engine) in [
        ("period_full_tpn_engine", PeriodEngine::new()),
        ("period_full_tpn_warm", PeriodEngine::new().warm_start(true)),
    ] {
        let mut solve = || {
            let r = engine.compute(&inst, strict, Method::FullTpn).expect("solves");
            assert_eq!(r.period.to_bits(), reference.to_bits(), "{name}");
        };
        solve();
        report.push((name, entries(&counted(solve).1, &[])));
    }

    // --- strict TPN of a replicated fork/join diamond (4 stages + 4
    // edges = 8 columns) next to a 4-stage chain (7 columns) with the
    // same replica counts on the same platform ---
    let dag = Pipeline::from_edges(
        vec![5.0, 7.0, 3.0, 4.0],
        vec![(0, 1, 2.0), (0, 2, 2.0), (1, 3, 1.5), (2, 3, 1.5)],
    )
    .unwrap();
    let chain = Pipeline::new(vec![5.0, 7.0, 3.0, 4.0], vec![2.0, 2.0, 1.5]).unwrap();
    for (name, wf, cols) in [("tpn_build_chain", chain, 7), ("tpn_build_dag", dag, 8)] {
        let mapping =
            Mapping::new(vec![vec![0], (1..5).collect(), (5..10).collect(), (10..12).collect()])
                .unwrap();
        let wf_inst = Instance::new(wf, inst.platform.clone(), mapping).unwrap();
        let (built, counts) = counted(|| build_tpn(&wf_inst, strict, &build_opts));
        let built = built.expect("builds");
        assert_eq!(built.cols, cols, "{name}");
        let size = [
            ("transitions", built.net.num_transitions() as u64),
            ("places", built.net.num_places() as u64),
        ];
        report.push((name, entries(&counts, &size)));
    }

    // --- the campaign (strict model, the paper's gap regime): the
    // serial per-instance oracle (`run_one_with` seed by seed on one
    // engine) and the campaign runner on the same draws ---
    let cfg =
        GenConfig { stages: 2, procs: 7, comp: Range::constant(1.0), comm: Range::new(5.0, 10.0) };
    let count = 2048;
    let spec =
        CampaignSpec { cfg, model: strict, count, seed_base: SEED, cap: DEFAULT_CAMPAIGN_CAP };
    let topology = Topology::chain(cfg.stages);
    let (campaign, counts) = counted(|| {
        let mut engine = engine_for_cap(spec.cap);
        let outcomes =
            (0..count).map(|k| run_one_with(&cfg, strict, SEED + k as u64, &mut engine)).collect();
        CampaignResult { outcomes }
    });
    report.push(("campaign_oracle_1t", entries(&counts, &[])));
    let (runner, counts) = counted(|| run_spec(&spec, &topology, 1, |_| {}));
    assert_eq!(runner, campaign, "campaign runner must match the per-instance oracle");
    report.push(("campaign_strict_1t", entries(&counts, &[])));
    // Outside the counters, which see the calling thread only: the bytes
    // must not depend on the thread count.
    assert_eq!(run_spec(&spec, &topology, 2, |_| {}), campaign, "campaign runner at 2 threads");

    // --- annealing over mapping space (warm-engine oracle) ---
    let pipeline = Pipeline::new(vec![8.0, 24.0, 8.0], vec![0.5, 0.5]).unwrap();
    let mut platform = Platform::uniform(9, 1.0, 10.0);
    for u in 0..9 {
        platform.set_speed(u, 1.0 + 0.1 * u as f64);
    }
    let anneal_opts =
        AnnealOptions { model: strict, steps: 1200, seed: SEED, ..Default::default() };
    let (annealed, counts) =
        counted(|| anneal(&pipeline, &platform, greedy(&pipeline, &platform), &anneal_opts));
    assert!(annealed.period.is_finite());
    report
        .push(("anneal_strict", entries(&counts, &[("evaluations", annealed.evaluations as u64)])));

    // --- neighbor-move oracle: a deterministic swap walk over the bench
    // instance's mapping. Every step keeps the per-stage replica counts,
    // so the incremental oracle takes the engine's patch path, while the
    // cold one-shot pays a fresh engine and a full TPN build per step ---
    let walk: Vec<Mapping> = {
        let mut assignment: Vec<Vec<usize>> = inst.mapping.assignment().to_vec();
        let sizes: Vec<usize> = assignment.iter().map(Vec::len).collect();
        (0..128)
            .map(|t| {
                let i = t % (sizes.len() - 1);
                let (si, sj) = (t % sizes[i], (t / 2) % sizes[i + 1]);
                let (a, b) = (assignment[i][si], assignment[i + 1][sj]);
                assignment[i][si] = b;
                assignment[i + 1][sj] = a;
                Mapping::new(assignment.clone()).expect("swaps preserve validity")
            })
            .collect()
    };
    let (reference_walk, counts) = counted(|| {
        let eval = |m| repwf_map::evaluate(&inst.pipeline, &inst.platform, m, strict);
        walk.iter().map(|m| eval(m).expect("walk mappings evaluate")).collect::<Vec<f64>>()
    });
    report.push(("neighbor_eval_cold", entries(&counts, &[])));
    let mut oracle = MappingOracle::new(&inst.pipeline, &inst.platform).warm_start(true);
    let ((), counts) = counted(|| {
        for (m, want) in walk.iter().zip(&reference_walk) {
            let p = oracle.compute(m, strict, Method::Auto).expect("walk evaluates").period;
            assert_eq!(p.to_bits(), want.to_bits());
        }
    });
    let patched = counts[CounterId::PatchedSolves];
    assert!(patched > 0, "neighbor walk must exercise the patch path (got {patched})");
    report.push(("neighbor_eval_incremental", entries(&counts, &[])));

    // --- the same walk through a shape-cached engine, and through one
    // that forgets its patch state before every call (TPN, ratio graph,
    // CSR and condensation rebuilt each time). The pinned counts hold the
    // patched walk to one CSR build and one Tarjan run ---
    for (name, rebuild) in [("solve_patched", false), ("solve_rebuild", true)] {
        let mut engine = PeriodEngine::new().warm_start(true);
        let ((), counts) = counted(|| {
            for (m, want) in walk.iter().zip(&reference_walk) {
                if rebuild {
                    engine.reset_patch_state();
                }
                let r = engine
                    .compute_mapping(&inst.pipeline, &inst.platform, m, strict, Method::FullTpn)
                    .expect("walk mappings solve");
                assert_eq!(r.period.to_bits(), want.to_bits(), "{name}");
            }
        });
        report.push((name, entries(&counts, &[])));
    }

    // --- the campaign as 3 NDJSON seed-range shards and an exact merge
    // (manifests, seed coverage, checksums), fsyncs included ---
    let shard_dir = std::env::temp_dir().join(format!("repwf-bench-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&shard_dir);
    std::fs::create_dir_all(&shard_dir)
        .map_err(|e| format!("cannot create {}: {e}", shard_dir.display()))?;
    let shard_paths: Vec<PathBuf> =
        (0..3).map(|i| shard_dir.join(format!("s{i}.ndjson"))).collect();
    let (merged, counts) = counted(|| {
        for (i, path) in shard_paths.iter().enumerate() {
            run_shard(&spec, i, 3, 1, path, None)?;
        }
        merge_paths(&shard_paths)
    });
    let _ = std::fs::remove_dir_all(&shard_dir);
    let merged = merged.map_err(|e| format!("bench shards: {e}"))?;
    assert_eq!(merged.result, campaign, "sharded+merged campaign must be exact");
    report.push(("campaign_shard_merge", entries(&counts, &[])));

    // --- exact branch-and-bound on 3 stages over 6 processors (strict:
    // 12 720 ordered assignments), next to a 400-step annealing run on
    // the same instance ---
    let exact_pipeline = Pipeline::new(vec![6.0, 15.0, 9.0], vec![0.5, 0.5]).unwrap();
    let mut exact_platform = Platform::uniform(6, 1.0, 10.0);
    for u in 0..6 {
        exact_platform.set_speed(u, 1.0 + 0.15 * u as f64);
    }
    let exact_opts = ExactOptions { model: strict, threads: 1, ..ExactOptions::default() };
    let (exact, counts) = counted(|| solve(&exact_pipeline, &exact_platform, &exact_opts));
    let exact = exact.map_err(|e| format!("bench exact search: {e}"))?;
    let (_, optimum) = exact.best.as_ref().expect("bench exact instance is feasible");
    let space = exact.space.and_then(|s| u64::try_from(s).ok()).expect("bench space fits u64");
    let exact_anneal = anneal(
        &exact_pipeline,
        &exact_platform,
        greedy(&exact_pipeline, &exact_platform),
        &AnnealOptions { model: strict, steps: 400, seed: SEED, ..Default::default() },
    );
    assert!(exact_anneal.period >= *optimum, "annealing cannot beat the certified optimum");
    let s = exact.stats;
    let stats = [
        ("tasks", s.tasks),
        ("nodes", s.nodes),
        ("pruned", s.pruned),
        ("evaluated", s.evaluated),
        ("infeasible", s.infeasible),
        ("space", space),
        ("anneal_evaluations", exact_anneal.evaluations as u64),
    ];
    report.push(("exact_bnb_strict", entries(&counts, &stats)));
    Ok(report)
}

/// Reads a `repwf-bench/v2` report. Every kernel lists at least one
/// count, each a JSON integer in `0..=u64::MAX`, and no kernel or name
/// appears twice; the error says which rule a document breaks.
fn read_report(text: &str) -> Result<Kernels, String> {
    let doc = parse(text).map_err(|e| format!("does not parse: {e}"))?;
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(SCHEMA) => {}
        Some(other) => {
            return Err(format!(
                "schema is {other}, this build reads {SCHEMA}; re-record it with \
                 `repwf bench --out FILE`"
            ))
        }
        None => return Err("no schema".to_string()),
    }
    let Some(JsonValue::Obj(kernels)) = doc.get("kernels") else {
        return Err("no kernels object".to_string());
    };
    let mut out: Kernels = Vec::new();
    for (kernel, body) in kernels {
        if out.iter().any(|(k, _)| k == kernel) {
            return Err(format!("kernel {kernel} appears twice"));
        }
        let JsonValue::Obj(fields) = body else {
            return Err(format!("kernel {kernel} is not an object of counts"));
        };
        if fields.is_empty() {
            return Err(format!("kernel {kernel} lists no counts"));
        }
        let mut counts: Vec<(String, u64)> = Vec::new();
        for (name, value) in fields {
            if counts.iter().any(|(n, _)| n == name) {
                return Err(format!("{kernel}.{name} appears twice"));
            }
            let count = match value {
                JsonValue::UInt(n) => u64::try_from(*n)
                    .map_err(|_| format!("{kernel}.{name} is {n}, above u64::MAX"))?,
                JsonValue::Num(x) => {
                    return Err(format!("{kernel}.{name} is {x}, not a non-negative integer"))
                }
                _ => return Err(format!("{kernel}.{name} is not a number")),
            };
            counts.push((name.clone(), count));
        }
        out.push((kernel.clone(), counts));
    }
    Ok(out)
}

/// One line `kernel.name: baseline X, current Y` per pair whose count
/// differs or that only one side lists (shown as `absent`). Every kernel
/// lists a count, so a missing or extra kernel shows here too.
fn mismatches(baseline: &Kernels, current: &Kernels) -> Vec<String> {
    fn flat(kernels: &Kernels) -> BTreeMap<(&str, &str), u64> {
        let pairs =
            kernels.iter().flat_map(|(k, counts)| counts.iter().map(move |(n, v)| (k, n, v)));
        pairs.map(|(k, n, &v)| ((k.as_str(), n.as_str()), v)).collect()
    }
    let (old, new) = (flat(baseline), flat(current));
    let show = |v: Option<&u64>| v.map_or("absent".to_string(), u64::to_string);
    let keys: BTreeSet<&(&str, &str)> = old.keys().chain(new.keys()).collect();
    keys.into_iter()
        .filter(|key| old.get(*key) != new.get(*key))
        .map(|key @ (k, n)| {
            format!("{k}.{n}: baseline {}, current {}", show(old.get(key)), show(new.get(key)))
        })
        .collect()
}

/// Whether `a` and `b` name the same file, whether or not it exists yet:
/// each resolves to its canonical parent directory plus its file name, so
/// `BENCH_period.json`, `./BENCH_period.json` and an absolute path agree.
fn same_file(a: &Path, b: &Path) -> bool {
    fn resolve(p: &Path) -> Option<PathBuf> {
        let dir = match p.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        Some(std::fs::canonicalize(dir).ok()?.join(p.file_name()?))
    }
    match (resolve(a), resolve(b)) {
        (Some(x), Some(y)) => x == y,
        _ => a == b,
    }
}
