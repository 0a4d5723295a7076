//! `repwf bench` — the tracked benchmark suite of the period engine.
//!
//! Times the hot kernels of the reproduction — single-instance
//! period solves (cold / engine-reused / warm-started), the parallel
//! campaign, annealing over mapping space, the neighbor-move oracle
//! (incremental patched solves vs. cold one-shot evaluations), the
//! shape-cached patched solve vs. a forced full rebuild, and the exact
//! branch-and-bound optimizer — and writes the
//! results to `BENCH_period.json` so the perf trajectory of the
//! repository is recorded in-tree and CI can compare runs against the
//! committed baseline.
//!
//! Two kinds of numbers are reported:
//!
//! * `benchmarks` — absolute wall-clock timings (µs/solve, experiments/s),
//!   best-of-chunks to shrug off scheduler noise. Machine-dependent;
//!   informational, for tracking trends on a fixed box.
//! * `indices` — **dimensionless speedup ratios** (engine vs. cold, warm
//!   vs. cold, N-thread vs. 1-thread campaign). Mostly machine-independent;
//!   these are what `--check` gates on, so a laptop baseline does not fail
//!   a CI runner on raw clock speed.

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
use repwf_obs::CounterId;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const HELP: &str = "\
repwf bench — run the tracked benchmark suite and emit BENCH_period.json

OPTIONS:
  --quick            small workloads (CI smoke; same schema, fewer iters)
  --out PATH         where to write the JSON report (default: BENCH_period.json)
  --threads K        parallel-campaign worker threads (default: min(8, hardware))
  --seed S           campaign/annealing base seed (default: 2009)
  --check BASELINE   compare speedup indices against a committed baseline
                     and fail on regression; BASELINE must not be the
                     --out file (exit 2 before any kernel runs)
  --tolerance F      allowed relative index regression for --check (default: 0.30)
  --json             also print the report to stdout
";

/// One timed kernel: `elements` abstract work items per iteration.
struct BenchLine {
    name: &'static str,
    iters: usize,
    elements: u64,
    total: Duration,
    /// Best observed per-iteration time (seconds) over the timing chunks —
    /// the statistic `per_iter_us`, `throughput` and the speedup indices
    /// are derived from. "Best of N chunks" is robust against noisy-
    /// neighbor spikes on shared CI runners, where a mean over one short
    /// window is not.
    best_per_iter_s: f64,
}

impl BenchLine {
    fn per_iter_us(&self) -> f64 {
        self.best_per_iter_s * 1e6
    }

    fn throughput(&self) -> f64 {
        self.elements as f64 / self.best_per_iter_s.max(1e-12)
    }
}

/// Times `iters` runs of `f` in up to 5 chunks (after one warm-up call,
/// which pays the arena growth we want to exclude) and keeps the best
/// chunk's per-iteration time.
fn time_kernel<F: FnMut()>(name: &'static str, iters: usize, elements: u64, mut f: F) -> BenchLine {
    f(); // warm-up
    let chunks = iters.clamp(1, 5);
    let mut total = Duration::ZERO;
    let mut best_per_iter_s = f64::INFINITY;
    let mut done = 0usize;
    for c in 0..chunks {
        let k = iters / chunks + usize::from(c < iters % chunks);
        if k == 0 {
            continue;
        }
        let start = Instant::now();
        for _ in 0..k {
            f();
        }
        let d = start.elapsed();
        total += d;
        best_per_iter_s = best_per_iter_s.min(d.as_secs_f64() / k as f64);
        done += k;
    }
    BenchLine { name, iters: done, elements, total, best_per_iter_s }
}

/// The single-instance workload: 3 stages replicated 4/5/3 on 12
/// heterogeneous processors — `m = lcm(4,5,3) = 60` TPN rows, 300
/// transitions under the strict model. Large enough that the solve
/// dominates, small enough for thousands of iterations.
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
    let opts = Opts::parse(
        args,
        &["--out", "--threads", "--seed", "--check", "--tolerance"],
        &["--quick", "--json", "--help"],
    )?;
    if opts.has("--help") {
        print!("{HELP}");
        return Ok(());
    }
    let quick = opts.has("--quick");
    let out_path = opts.get("--out").unwrap_or("BENCH_period.json").to_string();
    let hw = repwf_par::max_threads();
    let threads = opts.get_or("--threads", hw.min(8))?;
    let seed = opts.get_or("--seed", 2009u64)?;
    let tolerance: f64 = opts.get_or("--tolerance", 0.30)?;
    if let Some(baseline) = opts.get("--check") {
        if same_file(Path::new(&out_path), Path::new(baseline)) {
            return Err(format!(
                "--out {out_path} and --check {baseline} are the same file: the report would \
                 overwrite the baseline before the check reads it; write the report elsewhere \
                 (e.g. --out BENCH_new.json)"
            ));
        }
    }

    let mut lines: Vec<BenchLine> = Vec::new();

    // --- kernel 1: single-instance period solves (strict, full TPN) ---
    let inst = bench_instance();
    let build_opts = BuildOptions { labels: false, ..BuildOptions::default() };
    let period_iters = if quick { 200 } else { 1000 };

    let reference = compute_period_with(&inst, CommModel::Strict, Method::FullTpn, &build_opts)
        .map_err(|e| format!("bench instance failed to solve: {e}"))?;
    lines.push(time_kernel("period_full_tpn_cold", period_iters, 1, || {
        let r = compute_period_with(&inst, CommModel::Strict, Method::FullTpn, &build_opts)
            .expect("solves");
        assert_eq!(r.period.to_bits(), reference.period.to_bits());
    }));

    let mut engine = PeriodEngine::new();
    lines.push(time_kernel("period_full_tpn_engine", period_iters, 1, || {
        let r = engine.compute(&inst, CommModel::Strict, Method::FullTpn).expect("solves");
        assert_eq!(r.period.to_bits(), reference.period.to_bits());
    }));

    let mut warm_engine = PeriodEngine::new().warm_start(true);
    lines.push(time_kernel("period_full_tpn_warm", period_iters, 1, || {
        let r = warm_engine.compute(&inst, CommModel::Strict, Method::FullTpn).expect("solves");
        assert_eq!(r.period.to_bits(), reference.period.to_bits());
    }));

    // --- kernel 1b: SP-DAG TPN build vs an equivalent-size chain ---
    //
    // The series-parallel grid generalizes the chain's `2n-1` columns to
    // `n + E` per-stage/per-edge columns. This kernel builds the strict
    // TPN of a replicated fork/join diamond (4 stages + 4 edges = 8
    // columns) next to a 4-stage chain on the *same* platform with the
    // same replica counts (7 columns), and `dag_build_parity` is the
    // per-build time ratio chain/DAG — a structural-overhead gauge that
    // sits just under 1 (the diamond carries one extra column). A drop
    // means DAG grid construction got more expensive *relative to* the
    // chain path it generalizes.
    let dag_inst = {
        let wf = Pipeline::from_edges(
            vec![5.0, 7.0, 3.0, 4.0],
            vec![(0, 1, 2.0), (0, 2, 2.0), (1, 3, 1.5), (2, 3, 1.5)],
        )
        .unwrap();
        let mapping =
            Mapping::new(vec![vec![0], (1..5).collect(), (5..10).collect(), (10..12).collect()])
                .unwrap();
        Instance::new(wf, inst.platform.clone(), mapping).unwrap()
    };
    let chain_inst = {
        let wf = Pipeline::new(vec![5.0, 7.0, 3.0, 4.0], vec![2.0, 2.0, 1.5]).unwrap();
        let mapping =
            Mapping::new(vec![vec![0], (1..5).collect(), (5..10).collect(), (10..12).collect()])
                .unwrap();
        Instance::new(wf, inst.platform.clone(), mapping).unwrap()
    };
    let build_iters = if quick { 200 } else { 1000 };
    lines.push(time_kernel("tpn_build_chain", build_iters, 1, || {
        let built = build_tpn(&chain_inst, CommModel::Strict, &build_opts).expect("builds");
        assert_eq!(built.cols, 7);
    }));
    lines.push(time_kernel("tpn_build_dag", build_iters, 1, || {
        let built = build_tpn(&dag_inst, CommModel::Strict, &build_opts).expect("builds");
        assert_eq!(built.cols, 8);
    }));

    // --- kernel 2: the campaign (strict model, the paper's gap regime) ---
    //
    // One spec through the serial per-instance oracle (`run_one_with`
    // seed by seed on one engine) and through the campaign runner at 1
    // and at `--threads` threads. `campaign_batched_speedup` is oracle vs
    // runner, both on one thread: the structural work (TPN build,
    // ratio-graph/CSR build, Tarjan condensation) that shape groups
    // amortize plus the batched Howard lanes, with no thread scaling in
    // it, so it is gated normally. `campaign_parallel_speedup` is the
    // runner at N threads vs 1 thread.
    let cfg =
        GenConfig { stages: 2, procs: 7, comp: Range::constant(1.0), comm: Range::new(5.0, 10.0) };
    // Large enough that a batched run lasts milliseconds: thread start-up
    // must not dominate the parallel index.
    let campaign_count = if quick { 512 } else { 2048 };
    let campaign_reps = if quick { 3 } else { 5 };
    let spec = CampaignSpec {
        cfg,
        model: CommModel::Strict,
        count: campaign_count,
        seed_base: seed,
        cap: DEFAULT_CAMPAIGN_CAP,
    };
    let chain = Topology::chain(cfg.stages);
    let oracle = || {
        let mut engine = engine_for_cap(spec.cap);
        CampaignResult {
            outcomes: (0..campaign_count)
                .map(|k| run_one_with(&cfg, spec.model, seed + k as u64, &mut engine))
                .collect(),
        }
    };
    lines.push(time_kernel("campaign_oracle_1t", campaign_reps, campaign_count as u64, || {
        assert_eq!(oracle().outcomes.len(), campaign_count);
    }));
    for (name, k) in [("campaign_strict_1t", 1), ("campaign_strict_nt", threads)] {
        lines.push(time_kernel(name, campaign_reps, campaign_count as u64, || {
            assert_eq!(run_spec(&spec, &chain, k, |_| {}).outcomes.len(), campaign_count);
        }));
    }
    // Outside the timer: the runner must be *byte-identical* to the
    // oracle, not merely the right length.
    let reference = oracle();
    assert_eq!(
        run_spec(&spec, &chain, threads, |_| {}),
        reference,
        "campaign runner must match the per-instance oracle"
    );

    // --- kernel 3: annealing over mapping space (warm-engine oracle) ---
    let pipeline = Pipeline::new(vec![8.0, 24.0, 8.0], vec![0.5, 0.5]).unwrap();
    let mut platform = Platform::uniform(9, 1.0, 10.0);
    for u in 0..9 {
        platform.set_speed(u, 1.0 + 0.1 * u as f64);
    }
    let anneal_steps = if quick { 200 } else { 1200 };
    let anneal_opts = AnnealOptions {
        model: CommModel::Strict,
        steps: anneal_steps,
        seed,
        ..AnnealOptions::default()
    };
    let start_mapping = greedy(&pipeline, &platform);
    let mut anneal_evals = 0u64;
    let anneal_line = time_kernel("anneal_strict", 2, 1, || {
        let res = anneal(&pipeline, &platform, start_mapping.clone(), &anneal_opts);
        anneal_evals = res.evaluations as u64;
        assert!(res.period.is_finite());
    });
    let anneal_line = BenchLine { elements: anneal_evals.max(1), ..anneal_line };
    lines.push(anneal_line);

    // --- kernel 4: neighbor-move oracle (incremental vs cold one-shot) ---
    //
    // A deterministic swap walk over the bench instance's mapping: every
    // step preserves the per-stage replica counts, so the incremental
    // oracle evaluates it on the engine's patch path (re-time + re-weight
    // + warm solve), while the cold one-shot pays a fresh engine, an owned
    // `Instance` (three clones) and a full TPN build per candidate — the
    // exact cost a mapping search used to pay per neighbor.
    let neighbor_steps = if quick { 32 } else { 128 };
    let walk: Vec<Mapping> = {
        let mut assignment: Vec<Vec<usize>> = inst.mapping.assignment().to_vec();
        let counts: Vec<usize> = assignment.iter().map(Vec::len).collect();
        (0..neighbor_steps)
            .map(|t| {
                let i = t % (counts.len() - 1);
                let j = i + 1;
                let (si, sj) = (t % counts[i], (t / 2) % counts[j]);
                let (a, b) = (assignment[i][si], assignment[j][sj]);
                assignment[i][si] = b;
                assignment[j][sj] = a;
                Mapping::new(assignment.clone()).expect("swaps preserve validity")
            })
            .collect()
    };
    let reference_walk: Vec<f64> = walk
        .iter()
        .map(|m| {
            repwf_map::evaluate(&inst.pipeline, &inst.platform, m, CommModel::Strict)
                .expect("walk mappings evaluate")
        })
        .collect();
    lines.push(time_kernel("neighbor_eval_cold", 2, neighbor_steps as u64, || {
        for (m, &reference) in walk.iter().zip(&reference_walk) {
            let p = repwf_map::evaluate(&inst.pipeline, &inst.platform, m, CommModel::Strict)
                .expect("walk mappings evaluate");
            assert_eq!(p.to_bits(), reference.to_bits());
        }
    }));
    let mut oracle = MappingOracle::new(&inst.pipeline, &inst.platform).warm_start(true);
    lines.push(time_kernel("neighbor_eval_incremental", 2, neighbor_steps as u64, || {
        for (m, &reference) in walk.iter().zip(&reference_walk) {
            let p = oracle
                .compute(m, CommModel::Strict, Method::Auto)
                .expect("walk mappings evaluate")
                .period;
            assert_eq!(p.to_bits(), reference.to_bits());
        }
    }));
    let patched = oracle.into_engine().patched_solves();
    assert!(patched > 0, "neighbor walk must exercise the patch path (got {patched})");

    // --- kernel 5: shape-cached patched solve vs forced full rebuild ---
    //
    // The same swap walk through the same engine configuration; the only
    // difference is that the rebuild engine forgets its patch state before
    // every call, so each solve pays the TPN rebuild, the ratio-graph
    // rebuild, the CSR construction and the Tarjan condensation that a
    // shape-preserving patched solve (re-time + cost re-weight + warm
    // Howard) skips entirely. The ratio is `patched_solve_speedup` — the
    // price of the structural work the shape cache eliminates.
    let solve_reps = if quick { 3 } else { 8 };
    let mut patched_engine = PeriodEngine::new().warm_start(true);
    lines.push(time_kernel("solve_patched", solve_reps, neighbor_steps as u64, || {
        for (m, &reference) in walk.iter().zip(&reference_walk) {
            let r = patched_engine
                .compute_mapping(
                    &inst.pipeline,
                    &inst.platform,
                    m,
                    CommModel::Strict,
                    Method::FullTpn,
                )
                .expect("walk mappings solve");
            assert_eq!(r.period.to_bits(), reference.to_bits());
        }
    }));
    let mut rebuild_engine = PeriodEngine::new().warm_start(true);
    lines.push(time_kernel("solve_rebuild", solve_reps, neighbor_steps as u64, || {
        for (m, &reference) in walk.iter().zip(&reference_walk) {
            rebuild_engine.reset_patch_state();
            let r = rebuild_engine
                .compute_mapping(
                    &inst.pipeline,
                    &inst.platform,
                    m,
                    CommModel::Strict,
                    Method::FullTpn,
                )
                .expect("walk mappings solve");
            assert_eq!(r.period.to_bits(), reference.to_bits());
        }
    }));
    assert_eq!(rebuild_engine.patched_solves(), 0, "rebuild engine must never patch");

    // --- kernel 6: sharded campaign + exact merge vs the unsharded run ---
    //
    // The full `repwf-dist` round trip: the campaign runs as 3 seed-range
    // shards streamed to NDJSON files, which the exact merger validates
    // (manifests, seed coverage, checksums) and recombines. The
    // `shard_merge_efficiency` index is the throughput of that round trip
    // relative to the unsharded N-thread campaign — the price of the
    // ordered streaming writes, the NDJSON encode/parse and the merge
    // validation. It sits below (but near) 1; a drop means the
    // distributed path got more expensive relative to the in-process one.
    let shard_dir = std::env::temp_dir().join(format!("repwf-bench-shards-{}", std::process::id()));
    std::fs::create_dir_all(&shard_dir)
        .map_err(|e| format!("cannot create {}: {e}", shard_dir.display()))?;
    let shard_paths: Vec<PathBuf> =
        (0..3).map(|i| shard_dir.join(format!("s{i}.ndjson"))).collect();
    lines.push(time_kernel("campaign_shard_merge", campaign_reps, campaign_count as u64, || {
        for path in &shard_paths {
            let _ = std::fs::remove_file(path);
        }
        for (i, path) in shard_paths.iter().enumerate() {
            run_shard(&spec, i, 3, threads, path, None).expect("bench shard runs");
        }
        let merged = merge_paths(&shard_paths).expect("bench shards merge");
        assert_eq!(merged.result.outcomes.len(), campaign_count);
    }));
    // Outside the timer: the merged result must be *exactly* the
    // unsharded campaign, not merely the right length.
    let merged = merge_paths(&shard_paths).expect("bench shards merge");
    assert_eq!(merged.result, reference, "sharded+merged campaign must be exact");
    let _ = std::fs::remove_dir_all(&shard_dir);

    // --- kernel 7: exact branch-and-bound vs annealing ---
    //
    // A dedicated small instance (3 stages on 6 processors, strict model:
    // 12720 ordered assignments) solved to certified optimality, next to
    // a fixed-length annealing run on the same instance. Both the
    // workload and the two derived indices are **independent of --quick
    // and --threads**: the B&B counters are scheduling-independent by
    // construction and the anneal comparison uses a pinned step count, so
    // `exact_prune_ratio` (fraction of the space the bounds discharged)
    // and `exact_vs_anneal_nodes` (anneal oracle calls per exact leaf
    // solve) are exactly reproducible everywhere.
    let exact_pipeline = Pipeline::new(vec![6.0, 15.0, 9.0], vec![0.5, 0.5]).unwrap();
    let mut exact_platform = Platform::uniform(6, 1.0, 10.0);
    for u in 0..6 {
        exact_platform.set_speed(u, 1.0 + 0.15 * u as f64);
    }
    let exact_opts = ExactOptions { model: CommModel::Strict, threads, ..ExactOptions::default() };
    let exact_reps = if quick { 1 } else { 3 };
    let mut exact_res = None;
    let exact_line = time_kernel("exact_bnb_strict", exact_reps, 1, || {
        exact_res =
            Some(solve(&exact_pipeline, &exact_platform, &exact_opts).expect("bench exact"));
    });
    let exact_res = exact_res.expect("exact kernel ran");
    let exact_space = exact_res.space.expect("bench exact space fits u128");
    lines.push(BenchLine { elements: exact_res.stats.evaluated.max(1), ..exact_line });
    let anneal_vs_exact_opts = AnnealOptions {
        model: CommModel::Strict,
        steps: 400, // pinned: the index must not depend on --quick
        seed,
        ..AnnealOptions::default()
    };
    let exact_anneal = anneal(
        &exact_pipeline,
        &exact_platform,
        greedy(&exact_pipeline, &exact_platform),
        &anneal_vs_exact_opts,
    );
    let (_, exact_optimum) = exact_res.best.as_ref().expect("bench exact instance is feasible");
    assert!(exact_anneal.period >= *exact_optimum, "annealing cannot beat the certified optimum");
    let exact_prune_ratio = 1.0 - exact_res.stats.evaluated as f64 / exact_space as f64;
    let exact_vs_anneal_nodes = exact_anneal.evaluations as f64 / exact_res.stats.evaluated as f64;

    // After the last timed kernel, so no timing ever runs with telemetry
    // on: kernel 5's patched walk, replayed on a fresh warm engine, must
    // condense once and then skip CSR builds and Tarjan runs.
    let (_, counts) = repwf_obs::counted(|| {
        let mut engine = PeriodEngine::new().warm_start(true);
        for m in &walk {
            engine
                .compute_mapping(
                    &inst.pipeline,
                    &inst.platform,
                    m,
                    CommModel::Strict,
                    Method::FullTpn,
                )
                .expect("walk mappings solve");
        }
    });
    assert_eq!(
        (counts[CounterId::CsrBuilds], counts[CounterId::TarjanRuns]),
        (1, 1),
        "patched solves must skip CSR builds and Tarjan runs"
    );

    // --- dimensionless indices (what --check gates on) ---
    let per_iter = |name: &str| {
        lines.iter().find(|l| l.name == name).map(BenchLine::per_iter_us).expect("kernel ran")
    };
    let indices: Vec<(&'static str, f64)> = vec![
        (
            "engine_reuse_speedup",
            per_iter("period_full_tpn_cold") / per_iter("period_full_tpn_engine"),
        ),
        ("warm_start_speedup", per_iter("period_full_tpn_cold") / per_iter("period_full_tpn_warm")),
        ("dag_build_parity", per_iter("tpn_build_chain") / per_iter("tpn_build_dag")),
        (
            "campaign_parallel_speedup",
            per_iter("campaign_strict_1t") / per_iter("campaign_strict_nt"),
        ),
        (
            "campaign_batched_speedup",
            per_iter("campaign_oracle_1t") / per_iter("campaign_strict_1t"),
        ),
        (
            "neighbor_eval_speedup",
            per_iter("neighbor_eval_cold") / per_iter("neighbor_eval_incremental"),
        ),
        ("patched_solve_speedup", per_iter("solve_rebuild") / per_iter("solve_patched")),
        (
            "shard_merge_efficiency",
            per_iter("campaign_strict_nt") / per_iter("campaign_shard_merge"),
        ),
        ("exact_prune_ratio", exact_prune_ratio),
        ("exact_vs_anneal_nodes", exact_vs_anneal_nodes),
    ];

    // --- report ---
    let doc = Json::Obj(vec![
        ("schema", Json::str("repwf-bench/v1")),
        ("quick", Json::Bool(quick)),
        ("threads", Json::UInt(threads as u128)),
        // Hardware parallelism of the recording box: `--check` uses this
        // (with `threads`) to decide whether thread-scaling indices are
        // comparable at all.
        ("cores", Json::UInt(hw as u128)),
        ("seed", Json::UInt(u128::from(seed))),
        (
            "benchmarks",
            Json::Arr(
                lines
                    .iter()
                    .map(|l| {
                        Json::Obj(vec![
                            ("name", Json::str(l.name)),
                            ("iters", Json::UInt(l.iters as u128)),
                            ("elements", Json::UInt(u128::from(l.elements))),
                            ("total_s", Json::Num(l.total.as_secs_f64())),
                            ("per_iter_us", Json::Num(l.per_iter_us())),
                            ("throughput_per_s", Json::Num(l.throughput())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "indices",
            Json::Arr(
                indices
                    .iter()
                    .map(|&(name, value)| {
                        Json::Obj(vec![("name", Json::str(name)), ("value", Json::Num(value))])
                    })
                    .collect(),
            ),
        ),
    ]);
    let rendered = doc.to_string_pretty();
    std::fs::write(&out_path, &rendered).map_err(|e| format!("cannot write {out_path}: {e}"))?;

    // Human summary on stderr (stdout stays clean for --json consumers).
    eprintln!("benchmarks ({}):", if quick { "quick" } else { "full" });
    for l in &lines {
        eprintln!(
            "  {:24} {:>10.1} us/iter  {:>12.1} elem/s",
            l.name,
            l.per_iter_us(),
            l.throughput()
        );
    }
    for (name, value) in &indices {
        eprintln!("  {name:24} {value:>10.3}x");
    }
    eprintln!("report written to {out_path}");

    if opts.has("--json") {
        print!("{rendered}");
    }

    if let Some(baseline_path) = opts.get("--check") {
        let gated = check_against_baseline(baseline_path, &indices, tolerance, quick, threads, hw)?;
        eprintln!(
            "check against {baseline_path}: OK ({gated} indices gated, tolerance {:.0}%)",
            tolerance * 100.0
        );
    }
    Ok(())
}

/// Indices that measure **thread scaling**: their value is a property of
/// the `threads` setting and the machine's core count as much as of the
/// code. Comparing them across different `--threads` settings gates on an
/// apples-to-oranges number, so `--check` skips them — with a notice
/// naming each skipped index and why — when the baseline's recorded
/// `threads` differs from this run's. A differing **core** count alone
/// only draws a notice: the gate is one-directional (it fails only on
/// regression), so a baseline recorded at `--threads 2` on a small box
/// still gates a bigger runner at `--threads 2`, where the speedup can
/// only come out higher. `shard_merge_efficiency` belongs here too: its
/// numerator (the N-thread campaign) scales with cores while its
/// denominator is partly serial (ordered NDJSON writes + merge scan), so
/// the ratio itself is a function of the parallelism settings.
const THREAD_SCALING_INDICES: &[&str] = &["campaign_parallel_speedup", "shard_merge_efficiency"];

/// What a baseline comparison concluded, before any of it is printed:
/// the notices to surface (skips with their reason, setting mismatches),
/// the regression lines, and how many indices were actually compared.
/// Separated from I/O so the skip/compare policy is unit-testable on
/// synthetic baseline documents.
#[derive(Debug)]
struct CheckOutcome {
    notices: Vec<String>,
    regressions: Vec<String>,
    compared: usize,
}

/// Compares the dimensionless indices of this run against the baseline
/// report in `text` (diagnostics cite it as `label`). A baseline index
/// with no counterpart in the current run is an error — a renamed index
/// must not turn the gate into a vacuous pass. Mismatched `quick`
/// settings produce a notice (the comparison still runs — the indices
/// are dimensionless, but workload sizes affect their noise);
/// [`THREAD_SCALING_INDICES`] are skipped with a per-index notice when
/// the recorded `threads` differs, and compared with a notice when only
/// the core count differs.
fn compare_indices(
    text: &str,
    label: &str,
    indices: &[(&'static str, f64)],
    tolerance: f64,
    quick: bool,
    threads: usize,
    cores: usize,
) -> Result<CheckOutcome, String> {
    let baseline = parse(text).map_err(|e| format!("baseline {label} does not parse: {e}"))?;
    if baseline.get("schema").and_then(JsonValue::as_str) != Some("repwf-bench/v1") {
        return Err(format!("baseline {label} has an unknown schema"));
    }
    let mut notices = Vec::new();
    if baseline.get("quick") != Some(&JsonValue::Bool(quick)) {
        notices.push(format!(
            "warning: baseline {label} was recorded with quick={}, this run has quick={quick}",
            matches!(baseline.get("quick"), Some(JsonValue::Bool(true)))
        ));
    }
    let baseline_threads = baseline.get("threads").and_then(JsonValue::as_f64).map(|x| x as usize);
    let baseline_cores = baseline.get("cores").and_then(JsonValue::as_f64).map(|x| x as usize);
    if baseline_threads.is_some_and(|t| t != threads) {
        notices.push(format!(
            "warning: baseline {label} used {} campaign threads, this run uses {threads}",
            baseline_threads.unwrap_or(0),
        ));
    }
    let baseline_indices = baseline
        .get("indices")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("baseline {label} has no indices array"))?;

    let mut regressions = Vec::new();
    let mut compared = 0usize;
    for entry in baseline_indices {
        let name = entry
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("baseline {label}: index entry without a name"))?;
        let old = entry
            .get("value")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("baseline {label}: index {name} has no value"))?;
        if THREAD_SCALING_INDICES.contains(&name) {
            let threads_differ = baseline_threads.is_some_and(|t| t != threads);
            let cores_differ = baseline_cores.is_some_and(|c| c != cores);
            if threads_differ {
                // Not comparable at all across --threads settings: skip,
                // naming the index and the reason.
                notices.push(format!(
                    "notice: skipping thread-scaling index {name}: baseline recorded at \
                     threads={}, this run at threads={threads} — regenerate {label} with \
                     --threads {threads} to gate it",
                    baseline_threads.map_or("?".to_string(), |t| t.to_string()),
                ));
                continue;
            }
            if cores_differ {
                // Same --threads on different hardware: the one-directional
                // gate still applies (more cores can only raise the
                // speedup), but say so rather than compare silently.
                notices.push(format!(
                    "notice: comparing thread-scaling index {name} across core counts \
                     (baseline cores={}, this run cores={cores}); the gate fails only on \
                     regression",
                    baseline_cores.map_or("unrecorded".to_string(), |c| c.to_string()),
                ));
            }
        }
        let Some(&(_, new)) = indices.iter().find(|(n, _)| *n == name) else {
            return Err(format!(
                "baseline index {name} is not produced by this bench build — \
                 regenerate {label} (the gate must not pass vacuously)"
            ));
        };
        compared += 1;
        if new < old * (1.0 - tolerance) {
            // One line per regressed index with both values: a failing
            // gate must be diagnosable from the message alone.
            regressions.push(format!(
                "{name}: current {new:.3}x vs baseline {old:.3}x ({:+.1}%)",
                100.0 * (new - old) / old
            ));
        }
    }
    if compared == 0 {
        return Err(format!("baseline {label} contains no comparable indices"));
    }
    Ok(CheckOutcome { notices, regressions, compared })
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

/// [`compare_indices`] against a baseline file: surfaces every notice on
/// stderr (skips included, even when the check then fails), and errors on
/// any regression beyond `tolerance`. Returns how many indices were
/// actually gated.
fn check_against_baseline(
    baseline_path: &str,
    indices: &[(&'static str, f64)],
    tolerance: f64,
    quick: bool,
    threads: usize,
    cores: usize,
) -> Result<usize, String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let outcome = compare_indices(&text, baseline_path, indices, tolerance, quick, threads, cores)?;
    for notice in &outcome.notices {
        eprintln!("{notice}");
    }
    if outcome.regressions.is_empty() {
        Ok(outcome.compared)
    } else {
        Err(format!(
            "performance regression beyond {:.0}% tolerance:\n  {}",
            tolerance * 100.0,
            outcome.regressions.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic baseline document with the given parallelism settings
    /// and index values.
    fn baseline(threads: usize, cores: usize, indices: &[(&str, f64)]) -> String {
        let entries: Vec<String> =
            indices.iter().map(|(n, v)| format!("{{\"name\": \"{n}\", \"value\": {v}}}")).collect();
        format!(
            "{{\"schema\": \"repwf-bench/v1\", \"quick\": true, \"threads\": {threads}, \
             \"cores\": {cores}, \"benchmarks\": [], \"indices\": [{}]}}",
            entries.join(", ")
        )
    }

    #[test]
    fn thread_mismatch_skips_scaling_indices_by_name_with_the_reason() {
        // Baseline at threads=2, run at threads=1: both thread-scaling
        // indices skip (absurd baseline values must NOT fail the gate),
        // the plain index still gates, and each skip notice names the
        // index, both settings and the regeneration command.
        let text = baseline(
            2,
            4,
            &[
                ("campaign_parallel_speedup", 10_000.0),
                ("shard_merge_efficiency", 10_000.0),
                ("warm_start_speedup", 1.0),
            ],
        );
        let current = [
            ("campaign_parallel_speedup", 1.0),
            ("shard_merge_efficiency", 0.9),
            ("warm_start_speedup", 1.05),
        ];
        let out = compare_indices(&text, "B.json", &current, 0.3, true, 1, 4).unwrap();
        assert_eq!(out.compared, 1, "only the non-scaling index is gated");
        assert!(out.regressions.is_empty(), "{:?}", out.regressions);
        for name in ["campaign_parallel_speedup", "shard_merge_efficiency"] {
            let notice = out
                .notices
                .iter()
                .find(|n| n.contains(&format!("skipping thread-scaling index {name}")))
                .unwrap_or_else(|| panic!("no skip notice for {name}: {:?}", out.notices));
            assert!(notice.contains("threads=2"), "{notice}");
            assert!(notice.contains("threads=1"), "{notice}");
            assert!(notice.contains("--threads 1"), "{notice}");
        }
    }

    #[test]
    fn core_mismatch_alone_compares_scaling_indices_with_a_notice() {
        // Same --threads on different hardware: the one-directional gate
        // still catches a real regression — a 1-core baseline recorded at
        // --threads 2 gates a 2-core runner instead of being skipped.
        let text = baseline(2, 1, &[("campaign_parallel_speedup", 1.0)]);
        let improved = [("campaign_parallel_speedup", 1.8)];
        let out = compare_indices(&text, "B.json", &improved, 0.3, true, 2, 2).unwrap();
        assert_eq!(out.compared, 1, "core mismatch must not skip");
        assert!(out.regressions.is_empty());
        assert!(
            out.notices.iter().any(|n| n.contains(
                "comparing thread-scaling index campaign_parallel_speedup across core counts"
            )),
            "{:?}",
            out.notices
        );

        let regressed = [("campaign_parallel_speedup", 0.5)];
        let out = compare_indices(&text, "B.json", &regressed, 0.3, true, 2, 2).unwrap();
        assert_eq!(out.regressions.len(), 1);
        assert!(out.regressions[0].contains("campaign_parallel_speedup"), "{:?}", out.regressions);
    }

    #[test]
    fn matched_settings_gate_everything_and_name_regressions() {
        let text =
            baseline(2, 1, &[("campaign_batched_speedup", 2.0), ("engine_reuse_speedup", 3.0)]);
        let current = [("campaign_batched_speedup", 1.0), ("engine_reuse_speedup", 3.1)];
        let out = compare_indices(&text, "B.json", &current, 0.3, true, 2, 1).unwrap();
        assert_eq!(out.compared, 2);
        assert_eq!(out.regressions.len(), 1);
        assert!(
            out.regressions[0]
                .contains("campaign_batched_speedup: current 1.000x vs baseline 2.000x"),
            "{:?}",
            out.regressions
        );
        assert!(out.notices.is_empty(), "{:?}", out.notices);
    }

    #[test]
    fn renamed_and_empty_baselines_cannot_pass_vacuously() {
        let text = baseline(1, 1, &[("no_such_index", 1.0)]);
        let err = compare_indices(&text, "B.json", &[("real", 1.0)], 0.3, true, 1, 1).unwrap_err();
        assert!(err.contains("no_such_index"), "{err}");

        let text = baseline(2, 1, &[("campaign_parallel_speedup", 1.0)]);
        let err = compare_indices(&text, "B.json", &[], 0.3, true, 1, 1).unwrap_err();
        assert!(err.contains("no comparable indices"), "{err}");
    }
}
