//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <campaign_reuse|table2_paper|shard_merge|map_exact>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Drives the library's public entry points from this one process with
//! as many threads as the machine has cores. An untraced run (`--trace 0`)
//! prints the end-to-end metrics; a traced run (`--trace 1`) prints the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `README.md` beside this crate for the workloads and the metric map.

mod layers;
mod workloads;

use repwf_obs::CounterId;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Bench, PassOut, Workload, DEFAULT_SEED};

/// Measured set-ups of an untraced run, spread evenly over its measured
/// passes; `setup_s` is their 90th percentile.
const SETUPS: usize = 20;
/// Passes every timed phase runs at least, however short `--seconds`.
const MIN_PASSES: usize = 3;
/// Seconds of unmeasured passes between set-up and measurement: the
/// first second or so of a busy process runs markedly slower on shared
/// virtual machines.
const SETTLE_S: f64 = 2.0;
/// Steps of the oracle swap walk on Example A.
const ORACLE_STEPS: usize = 2000;
/// Shard round trips the shard-layer replay takes the median of.
const SHARD_REPS: usize = 3;
/// A campaign workload whose replayed layers explain less than this share
/// of a single-threaded pass is flagged.
const MIN_COVERAGE: f64 = 0.9;
/// Alternations of a single-threaded pass and its replay for the coverage
/// gauge.
const COVERAGE_ROUNDS: usize = 3;
/// The registry counters reported per traced pass, with their metric names.
const OBS_COUNTERS: [(CounterId, &str); 7] = [
    (CounterId::CsrBuilds, "obs.csr_builds"),
    (CounterId::TarjanRuns, "obs.tarjan_runs"),
    (CounterId::HowardItersCold, "obs.howard_iters_cold"),
    (CounterId::HowardItersWarm, "obs.howard_iters_warm"),
    (CounterId::HowardItersBatched, "obs.howard_iters_batched"),
    (CounterId::PatchedSolves, "obs.patched_solves"),
    (CounterId::BatchChunks, "obs.batch_chunks"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::CampaignReuse,
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    // JSON has no NaN or infinity; a gauge with no base reads 0.
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Operations attempted and failed: passes, and replay steps of a traced
/// run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn pass(&mut self, what: &str, out: &PassOut) {
        self.attempted += 1;
        if let Some(e) = &out.error {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}: {e}");
        }
    }

    /// Runs one replay step, counting an `Err` or a panic as a failure.
    fn op<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.failed += 1;
                eprintln!("perfbench: FAILED {what}: {e}");
                None
            }
            Err(_) => {
                self.failed += 1;
                eprintln!("perfbench: FAILED {what}: panic");
                None
            }
        }
    }
}

/// Median of `v` (0 when empty), sorting in place.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated quantile of `v`, sorting in place.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Passes `0, 1, 2, …` until `seconds` have gone by, and at least
/// `min_passes`. Pass `k` runs once on each entry of `threads`, back to
/// back, so the thread counts are compared under the same machine state.
fn run_passes<const N: usize>(
    bench: &Bench,
    threads: [usize; N],
    seconds: f64,
    min_passes: usize,
    tally: &mut Tally,
) -> [Vec<PassOut>; N] {
    let start = Instant::now();
    let mut outs: [Vec<PassOut>; N] = std::array::from_fn(|_| Vec::new());
    let mut k = 0;
    while (k as usize) < min_passes || start.elapsed().as_secs_f64() < seconds {
        for (outs, &t) in outs.iter_mut().zip(&threads) {
            let out = bench.pass(k, t);
            tally.pass(&format!("pass {k} on {t} threads"), &out);
            outs.push(out);
        }
        k += 1;
    }
    outs
}

/// Median over the passes both runs made without error of
/// `a[k].secs / b[k].secs`: pass `k` has the same inputs in every run.
fn paired_ratio(a: &[PassOut], b: &[PassOut]) -> f64 {
    let mut ratios: Vec<f64> = a
        .iter()
        .zip(b)
        .filter(|(x, y)| x.error.is_none() && y.error.is_none())
        .map(|(x, y)| x.secs / y.secs)
        .collect();
    median(&mut ratios)
}

/// Seconds of the passes that succeeded.
fn good_secs(outs: &[PassOut]) -> Vec<f64> {
    outs.iter()
        .filter(|o| o.error.is_none())
        .map(|o| o.secs)
        .collect()
}

/// Builds the workload's inputs and runs the checked warm-up pass; exits
/// the process if the inputs cannot be built.
fn set_up(args: &Args, scratch: &Path, threads: usize, tally: &mut Tally) -> Bench {
    let bench = Bench::new(args.workload, args.seed, scratch).unwrap_or_else(|e| {
        eprintln!("perfbench: set-up failed: {e}");
        let _ = std::fs::remove_dir_all(scratch);
        std::process::exit(1);
    });
    tally.pass("warm-up pass at the default seed", &bench.warm_up(threads));
    bench
}

/// End-to-end metrics of an untraced run: passes until `args.seconds` have
/// gone by, with [`SETUPS`] timed set-ups spread evenly between them, so
/// that set-up and passes see the same machine states. The median pass
/// time and the throughput are printed but not reported as metrics: see
/// `README.md`.
fn end_to_end(
    bench: &mut Bench,
    args: &Args,
    scratch: &Path,
    threads: usize,
    tally: &mut Tally,
) -> Vec<Metric> {
    let start = Instant::now();
    let mut outs = Vec::new();
    let mut setups = Vec::with_capacity(SETUPS);
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        // Set-up `i` is due `i / SETUPS` of the way through; any left when
        // the time is up run before the last passes.
        let setup_due =
            setups.len() < SETUPS && elapsed >= args.seconds * setups.len() as f64 / SETUPS as f64;
        if setup_due {
            bench.cleanup();
            let t = Instant::now();
            *bench = set_up(args, scratch, threads, tally);
            setups.push(t.elapsed().as_secs_f64());
        } else if outs.len() < MIN_PASSES || elapsed < args.seconds {
            let k = outs.len() as u64;
            let out = bench.pass(k, threads);
            tally.pass(&format!("pass {k} on {threads} threads"), &out);
            outs.push(out);
        } else {
            break;
        }
    }
    let mut secs = good_secs(&outs);
    let results: usize = outs
        .iter()
        .filter(|o| o.error.is_none())
        .map(|o| o.results)
        .sum();
    let busy: f64 = outs.iter().map(|o| o.secs).sum();
    let p90 = quantile(&mut secs, 0.9);
    println!(
        "passes: {} ({} good), median {} s, {} results per second of pass time",
        outs.len(),
        secs.len(),
        median(&mut secs),
        results as f64 / busy
    );
    vec![
        metric("pass_p90_s", p90, "s"),
        metric("setup_s", quantile(&mut setups, 0.9), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric(
            "success_frac",
            1.0 - tally.failed as f64 / tally.attempted as f64,
            "frac",
        ),
    ]
}

/// Per-layer metrics of a traced run: untraced passes on every core and on
/// one, the layer replays and the coverage gauge, then untraced passes
/// once more and right after them the same passes with the telemetry
/// registry on.
fn per_layer(bench: &Bench, args: &Args, threads: usize, tally: &mut Tally) -> Vec<Metric> {
    let w = bench.workload;
    let [outs_n, outs_1] = run_passes(bench, [threads, 1], 0.4 * args.seconds, MIN_PASSES, tally);

    let subs = bench.sub_campaigns(0);
    let draws = tally
        .op("draw replay", || layers::replay_draws(&subs))
        .unwrap_or_default();
    let batched = tally
        .op("batched replay", || layers::replay_batched(&subs))
        .unwrap_or_default();
    let shards = match w {
        Workload::ShardMerge => tally
            .op("shard replay", || {
                layers::replay_shards(bench, bench.base(0), threads, SHARD_REPS)
            })
            .unwrap_or_default(),
        _ => layers::ShardLayers::default(),
    };
    let oracle = match w {
        Workload::MapExact => tally
            .op("oracle replay", || {
                layers::replay_oracle(bench, args.seed, ORACLE_STEPS)
            })
            .unwrap_or_default(),
        _ => layers::OracleLayers::default(),
    };
    let exact = outs_n
        .iter()
        .find(|o| o.error.is_none())
        .map_or(&[][..], |o| &o.exact[..]);

    // Coverage: the replayed calls of the workload's path over pass 0's
    // inputs against pass 0 on one thread, alternated so that both sides
    // see the same machine state; the median of the ratios. Shard encoding
    // and the merge (which reads the shards itself) come from the shard
    // replay above.
    let sink = 1e-6 * (shards.encode.mean_us() * shards.results as f64 + shards.merge.mean_us());
    let mut ratios = Vec::new();
    for _ in 0..COVERAGE_ROUNDS * usize::from(w.is_campaign()) {
        let single = bench.pass(0, 1);
        tally.pass("pass 0 on 1 thread", &single);
        let replayed = tally.op("path replay", || match w {
            Workload::CampaignReuse => layers::replay_batched(&subs).map(|l| l.total_secs()),
            _ => layers::replay_per_instance(&subs),
        });
        if let (None, Some(replayed)) = (&single.error, replayed) {
            ratios.push((replayed + sink) / single.secs);
        }
    }
    let coverage = median(&mut ratios);

    // Telemetry cannot be turned off again once on, so the overhead gauge
    // cannot alternate: untraced passes, then the same passes traced, each
    // with the registry counters its library calls added.
    let [outs_u] = run_passes(bench, [threads], 0.2 * args.seconds, MIN_PASSES, tally);
    repwf_obs::enable();
    let [outs_t] = run_passes(bench, [threads], 0.0, outs_u.len(), tally);
    println!(
        "passes: {} on {threads} threads and on 1 thread, {} traced",
        outs_n.len(),
        outs_t.len()
    );
    if w.is_campaign() && coverage < MIN_COVERAGE {
        println!(
            "FLAG layers.coverage_frac {coverage:.3} < {MIN_COVERAGE} on {}: {:.1}% of a \
             single-threaded pass is not attributed to any replayed layer",
            w.name(),
            100.0 * (1.0 - coverage)
        );
    }

    let sum_stat = |f: fn(&repwf_map::exact::ExactResult) -> u64| -> f64 {
        exact.iter().map(f).sum::<u64>() as f64
    };
    let space: f64 = exact.iter().filter_map(|r| r.space).map(|s| s as f64).sum();
    let per = |n: u64, d: u64| n as f64 / d as f64;
    let mut m = vec![
        metric("gen.sample_us", draws.sample.mean_us(), "us"),
        metric("gen.route_ms", batched.route.secs() * 1e3, "ms"),
        metric("gen.shape_groups", batched.groups as f64, "count"),
        metric(
            "gen.batch_hit_rate",
            per(batched.draws - batched.groups, batched.draws),
            "frac",
        ),
        metric("core.stage_us", draws.stage.mean_us(), "us"),
        metric(
            "core.batch_solve_us_per_lane",
            batched.solve.secs() * 1e6 / batched.lanes as f64,
            "us",
        ),
        metric("core.tpn_build_us", draws.tpn_build.mean_us(), "us"),
        metric(
            "core.tpn_transitions",
            per(draws.transitions, draws.tpn_build.calls()),
            "count",
        ),
        metric("core.mct_us", draws.mct.mean_us(), "us"),
        metric("core.overlap_poly_us", draws.overlap_poly.mean_us(), "us"),
        metric("core.engine_solve_us", draws.engine.mean_us(), "us"),
        metric(
            "core.patched_frac",
            per(draws.patched, draws.solves),
            "frac",
        ),
        metric("core.oracle_patched_us", oracle.patched.mean_us(), "us"),
        metric("core.oracle_rebuild_us", oracle.rebuild.mean_us(), "us"),
        metric("core.prefix_bound_us", oracle.prefix_bound.mean_us(), "us"),
        metric("core.mct_cache_hit_rate", oracle.mct_hit_rate, "frac"),
        metric("tpn.ratio_graph_us", draws.ratio_graph.mean_us(), "us"),
        metric("maxplus.csr_build_us", draws.csr.mean_us(), "us"),
        metric("maxplus.tarjan_us", draws.tarjan_us(), "us"),
        metric("maxplus.howard_us", draws.howard.mean_us(), "us"),
        metric("dist.encode_us", shards.encode.mean_us(), "us"),
        metric(
            "dist.shard_bytes_per_result",
            per(shards.bytes, shards.results),
            "B",
        ),
        metric(
            "dist.sink_overhead_frac",
            (shards.write_s - shards.streamed_s) / shards.write_s,
            "frac",
        ),
        metric("dist.read_shard_ms", shards.read.mean_us() * 1e-3, "ms"),
        metric("dist.merge_ms", shards.merge.mean_us() * 1e-3, "ms"),
        metric("map.nodes", sum_stat(|r| r.stats.nodes), "count"),
        metric("map.pruned", sum_stat(|r| r.stats.pruned), "count"),
        metric("map.evaluated", sum_stat(|r| r.stats.evaluated), "count"),
        metric(
            "map.prune_ratio",
            1.0 - sum_stat(|r| r.stats.evaluated) / space,
            "frac",
        ),
        metric("par.speedup_vs_1t", paired_ratio(&outs_1, &outs_n), "x"),
        metric(
            "obs.overhead_frac",
            paired_ratio(&outs_t, &outs_u) - 1.0,
            "frac",
        ),
    ];
    for (id, name) in OBS_COUNTERS {
        let sum: u64 = outs_t.iter().map(|o| o.counters[id.index()]).sum();
        m.push(metric(name, sum as f64 / outs_t.len() as f64, "count"));
    }
    m.push(metric("layers.coverage_frac", coverage, "frac"));
    m
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a digest of the sources the benchmark builds from, so a result
/// names its code even in a checkout without git metadata.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench/src"] {
        walk(&root.join(dir), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"].map(|f| root.join(f)));
    files.sort();
    let mut sum = repwf_dist::shard::Checksum::new();
    for f in &files {
        if let (Ok(bytes), Ok(rel)) = (std::fs::read(f), f.strip_prefix(root)) {
            sum.update(rel.to_string_lossy().as_bytes());
            sum.update(&bytes);
        }
    }
    sum.hex()
}

/// The git revision of the working directory, when it is a repository.
fn git_revision() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let rev = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (out.status.success() && !rev.is_empty()).then_some(rev)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc;
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    println!(
        "env: nproc={nproc} threads={threads} profile={} git={} source-fnv64={}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_revision().as_deref().unwrap_or("none"),
        source_digest(&cwd),
    );
    println!(
        "run: workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );

    let scratch = cwd
        .join(".perfbench_tmp")
        .join(std::process::id().to_string());
    let mut tally = Tally::default();
    // A first set-up, then unmeasured passes until the process runs at
    // steady speed.
    let mut bench = set_up(&args, &scratch, threads, &mut tally);
    run_passes(&bench, [threads], SETTLE_S, MIN_PASSES, &mut tally);

    let metrics = if args.trace {
        per_layer(&bench, &args, threads, &mut tally)
    } else {
        end_to_end(&mut bench, &args, &scratch, threads, &mut tally)
    };
    bench.cleanup();
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(cwd.join(".perfbench_tmp"));

    for m in &metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_checks_errors_and_panics_count_as_failed_operations() {
        let mut tally = Tally::default();
        tally.pass("clean pass", &PassOut::default());
        let failed = PassOut {
            error: Some("optimum 69, pinned 68".to_string()),
            ..PassOut::default()
        };
        tally.pass("failed check", &failed);
        assert_eq!(tally.op("ok", || Ok(1)), Some(1));
        assert_eq!(tally.op("err", || Err::<(), _>("bad".to_string())), None);
        assert_eq!(
            tally.op("panic", || -> Result<(), String> { panic!("boom") }),
            None
        );
        assert_eq!((tally.attempted, tally.failed), (5, 3));
    }
}
