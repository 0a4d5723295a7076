//! `repwf campaign` — random-experiment campaign on the work-stealing
//! engine, optionally as one shard of a distributed run.
//!
//! The JSON output deliberately excludes `--threads`: results are
//! bit-identical at every thread count, and scripted consumers may diff
//! runs across machines. With `--shard I/N --out F` the command runs only
//! the `I`-th deterministic seed slice and streams it to an NDJSON shard
//! file (resumable after a kill); `--range OFF+LEN --out F` runs an
//! explicit slice instead (the command merge diagnostics print for
//! coverage gaps); `repwf merge` recombines shard files into output
//! byte-identical to the unsharded `--json` document.
//!
//! With `--supervise --dir D` the command becomes an **elastic worker**
//! of a shared campaign directory: claim units via lease files, resume
//! dead workers' checkpoints, retry with backoff, split stragglers —
//! run it from as many hosts as you like (see the README's "Distributed
//! campaigns" section). The merged result stays byte-identical.

use crate::json::Json;
use crate::opts::{model_name, parse_model, parse_range, parse_threads, Opts};
use crate::progress::Throttle;
use repwf_dist::report::campaign_doc;
use repwf_dist::shard::{run_range, run_shard_opts, ShardRunOptions};
use repwf_dist::supervise::ClaimOutcome;
use repwf_dist::{merge_paths, supervise, CampaignSpec, FaultPlan, ShardPlan, SuperviseOptions};
use repwf_gen::campaign::{
    run_spec, shape_stats, CampaignAccum, CampaignResult, DEFAULT_CAMPAIGN_CAP, GAP_REL_TOL,
};
use repwf_gen::{GenConfig, Range, Topology};
use std::io::Write as _;
use std::time::Duration;

const HELP: &str = "\
repwf campaign — run random experiments comparing the period against M_ct

OPTIONS:
  --stages N         pipeline stages (default: 2)
  --procs P          processors, all mapped (default: 7)
  --comp LO..HI|V    computation-time range (default: 1)
  --comm LO..HI|V    communication-time range (default: 5..10)
  --count N          number of experiments (default: 100)
  --seed S           base seed; experiment k uses S+k (default: 2009)
  --threads K        worker threads (default: hardware)
  --cap N            TPN transition cap before simulator fallback (default: 2000000)
  --model M          overlap | strict (default: strict)
  --csv PATH         write per-experiment outcomes as CSV
  --hist             print an ASCII histogram of the positive gaps
  --trace FILE       write an NDJSON span/counter trace (repwf-trace/v1);
                     never changes this command's stdout bytes
  --metrics          append a telemetry counter table; with --json the
                     table goes to stderr and the JSON document carries no
                     metrics, so it stays byte-identical to `repwf merge`
  --json             structured output (identical at any --threads)

DISTRIBUTED (see also `repwf merge` and `repwf dist status`):
  --shard I/N        run only shard I of N (deterministic seed slice);
                     requires --out. Re-running resumes a killed shard.
  --range OFF+LEN    run the explicit seed slice OFF..OFF+LEN instead of
                     an I/N fraction (the command merge prints to fill a
                     coverage gap); requires --out
  --out PATH         stream the shard as NDJSON to PATH (with --shard/--range)
  --flush-every N    checkpoint flush cadence in records (default: 64); a
                     kill loses at most N-1 records past the last flush
  --supervise        run as an elastic supervisor worker on a shared
                     campaign directory until the campaign completes;
                     requires --dir. Run from any number of hosts.
  --dir PATH         the shared campaign directory (with --supervise)
  --workers N        supervisor worker loops to run in this process (default: 1)
  --units N          initial claim units to pin on a fresh campaign dir
                     (default: 8; later workers adopt the pinned value)
  --lease-timeout S  seconds without a heartbeat before a worker's lease
                     counts as dead and its unit is taken over (default: 10)
  --retries N        attempts per claim unit before it is reported
                     degraded instead of retried (default: 4); retries
                     wait out an exponential backoff with deterministic
                     seeded jitter
  --owner NAME       worker identity recorded in leases (default: host-pid)
";

pub fn run(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &[
            "--stages",
            "--procs",
            "--comp",
            "--comm",
            "--count",
            "--seed",
            "--threads",
            "--cap",
            "--model",
            "--csv",
            "--shard",
            "--out",
            "--range",
            "--flush-every",
            "--dir",
            "--workers",
            "--units",
            "--lease-timeout",
            "--retries",
            "--owner",
            "--trace",
        ],
        &["--json", "--hist", "--help", "--supervise", "--metrics"],
    )?;
    if opts.has("--help") {
        print!("{HELP}");
        return Ok(());
    }
    let stages = opts.get_or("--stages", 2usize)?;
    let procs = opts.get_or("--procs", 7usize)?;
    if stages == 0 || procs < stages {
        return Err(format!("need 1 <= stages <= procs (got {stages} stages, {procs} procs)"));
    }
    let comp = parse_range(opts.get("--comp").unwrap_or("1"))?;
    let comm = parse_range(opts.get("--comm").unwrap_or("5..10"))?;
    let count = opts.get_or("--count", 100usize)?;
    let seed = opts.get_or("--seed", 2009u64)?;
    let threads = parse_threads(&opts)?;
    let cap = opts.get_or("--cap", DEFAULT_CAMPAIGN_CAP)?;
    // Strict is the model where the paper actually found gaps.
    let model = if opts.get("--model").is_some() {
        parse_model(&opts)?
    } else {
        repwf_core::model::CommModel::Strict
    };

    let spec = CampaignSpec {
        cfg: GenConfig { stages, procs, comp, comm },
        model,
        count,
        seed_base: seed,
        cap,
    };

    let obs = crate::obsctl::init(&opts, "campaign")?;
    if opts.has("--supervise") {
        return run_supervised(&opts, &spec, threads, obs);
    }
    if opts.get("--shard").is_some() || opts.get("--range").is_some() || opts.get("--out").is_some()
    {
        return run_sharded(&opts, &spec, threads, obs);
    }

    let mut accum = CampaignAccum::new();
    let throttle = Throttle::new();
    let res = run_spec(&spec, &Topology::chain(stages), threads, |outcome| {
        accum.push(outcome);
        if !throttle.due(accum.done, count) {
            return;
        }
        let p = accum.progress(count);
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r{}/{} experiments  (no-critical {}, simulated {})",
            p.done, p.total, p.no_critical, p.simulated
        );
        if p.done == p.total {
            let _ = writeln!(err);
        }
    });

    let metrics = obs.finish()?;

    if let Some(path) = opts.get("--csv") {
        std::fs::write(path, repwf_gen::stats::outcomes_csv(&res))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("CSV written to {path}");
    }

    if opts.has("--json") {
        // The campaign document itself stays metrics-free: it must be
        // byte-identical to a `repwf merge` of the same campaign, traced
        // or not, at any thread count. `--metrics` reports on stderr.
        print!("{}", campaign_doc(&spec, &res).to_string_pretty());
        if let Some(snap) = &metrics {
            eprint!("{}", crate::obsctl::metrics_table(snap));
        }
    } else {
        print_summary(&spec, &res, opts.has("--hist"));
        if let Some(snap) = &metrics {
            crate::obsctl::print_metrics(snap);
        }
    }
    Ok(())
}

/// The shard writer options shared by shard, range and supervise modes:
/// the flush cadence and any `REPWF_FAULT` injection from the
/// environment (deterministic chaos testing).
fn shard_run_options(opts: &Opts) -> Result<ShardRunOptions, String> {
    Ok(ShardRunOptions {
        flush_every: opts.get_or("--flush-every", 0usize)?,
        fault: FaultPlan::from_env().map_err(|e| e.to_string())?,
    })
}

/// Shard mode: run (or resume) one deterministic seed slice into an
/// NDJSON shard file.
fn run_sharded(
    opts: &Opts,
    spec: &CampaignSpec,
    threads: usize,
    obs: crate::obsctl::Obs,
) -> Result<(), String> {
    let out =
        opts.get("--out").ok_or("--shard/--range needs --out PATH (the NDJSON shard file)")?;
    if opts.get("--csv").is_some() {
        return Err("--csv is not available in shard mode — merge first \
             (`repwf merge <shards...> --csv ...`)"
            .to_string());
    }
    if opts.has("--hist") {
        return Err("--hist is not available in shard mode — merge first".to_string());
    }
    if opts.get("--shard").is_some() && opts.get("--range").is_some() {
        return Err("--shard and --range are mutually exclusive".to_string());
    }
    let run_opts = shard_run_options(opts)?;
    let path = std::path::Path::new(out);
    let throttle = Throttle::new();
    let progress = |label: String| {
        let throttle = &throttle;
        move |done: usize, total: usize| {
            if !throttle.due(done, total) {
                return;
            }
            let mut err = std::io::stderr().lock();
            let _ = write!(err, "\r{done}/{total} experiments ({label})");
            if done == total {
                let _ = writeln!(err);
            }
        }
    };

    let summary = if let Some(raw) = opts.get("--range") {
        let (offset, len) = parse_range_slice(raw)?;
        let cb = progress(format!("range {offset}+{len}"));
        run_range(spec, offset, len, threads, path, Some(&cb), &run_opts)
            .map_err(|e| e.to_string())?
    } else {
        let (shard_index, num_shards) = match opts.get("--shard") {
            Some(raw) => ShardPlan::parse_fraction(raw)?,
            None => (0, 1),
        };
        let cb = progress(format!("shard {shard_index}/{num_shards}"));
        run_shard_opts(spec, shard_index, num_shards, threads, path, Some(&cb), &run_opts)
            .map_err(|e| e.to_string())?
    };
    // Shard stdout (and the shard file) are machine artifacts: the
    // metrics table goes to stderr alongside the progress line.
    if let Some(snap) = obs.finish()? {
        eprint!("{}", crate::obsctl::metrics_table(&snap));
    }
    let plan = summary.manifest.plan;
    if opts.has("--json") {
        let mut fields = vec![
            ("shard_index", Json::UInt(plan.shard_index as u128)),
            ("num_shards", Json::UInt(plan.num_shards as u128)),
        ];
        if let Some((offset, len)) = plan.range_slice() {
            fields = vec![
                ("range_offset", Json::UInt(offset as u128)),
                ("range_len", Json::UInt(len as u128)),
            ];
        }
        fields.extend([
            ("seed_start", Json::UInt(u128::from(plan.seed_start()))),
            ("seed_end", Json::UInt(u128::from(plan.seed_end()))),
            ("resumed", Json::UInt(summary.resumed as u128)),
            ("ran", Json::UInt(summary.ran as u128)),
            ("out", Json::str(out)),
        ]);
        print!("{}", Json::Obj(fields).to_string_pretty());
    } else if let Some((offset, len)) = plan.range_slice() {
        println!(
            "range {offset}+{len}: seeds {}..{} -> {out} \
             ({} resumed from checkpoint, {} computed)",
            plan.seed_start(),
            plan.seed_end(),
            summary.resumed,
            summary.ran,
        );
        println!("merge with: repwf merge <files tiling the campaign> --json");
    } else {
        println!(
            "shard {}/{}: seeds {}..{} -> {out} \
             ({} resumed from checkpoint, {} computed)",
            plan.shard_index,
            plan.num_shards,
            plan.seed_start(),
            plan.seed_end(),
            summary.resumed,
            summary.ran,
        );
        println!("merge with: repwf merge <all {} shard files> --json", plan.num_shards);
    }
    Ok(())
}

/// Parses the `--range` designator `OFF+LEN`.
fn parse_range_slice(raw: &str) -> Result<(usize, usize), String> {
    let (off, len) = raw
        .split_once('+')
        .ok_or_else(|| format!("invalid range designator {raw:?} (expected OFF+LEN)"))?;
    let off: usize = off.parse().map_err(|_| format!("invalid range offset {off:?} in {raw:?}"))?;
    let len: usize = len.parse().map_err(|_| format!("invalid range length {len:?} in {raw:?}"))?;
    Ok((off, len))
}

/// Supervise mode: run `--workers` elastic worker loops against the
/// shared campaign directory until the campaign completes (then merge
/// and report exactly like an unsharded run) or degrades.
fn run_supervised(
    opts: &Opts,
    spec: &CampaignSpec,
    threads: usize,
    obs: crate::obsctl::Obs,
) -> Result<(), String> {
    let dir =
        opts.get("--dir").ok_or("--supervise needs --dir PATH (the shared campaign directory)")?;
    if opts.get("--csv").is_some() || opts.has("--hist") {
        return Err("--csv/--hist are not available with --supervise — the merged \
                    output is printed when the campaign completes"
            .to_string());
    }
    let dir = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let workers = opts.get_or("--workers", 1usize)?.max(1);
    let timeout = opts.get_or("--lease-timeout", 10.0f64)?;
    if !timeout.is_finite() || timeout <= 0.0 {
        return Err("--lease-timeout must be positive seconds".to_string());
    }
    let owner = match opts.get("--owner") {
        Some(o) => o.to_string(),
        None => format!("host-{}", std::process::id()),
    };
    let fault = FaultPlan::from_env().map_err(|e| e.to_string())?;
    let retries = opts.get_or("--retries", 0u32)?;
    let mut retry = repwf_dist::lease::RetryPolicy::default();
    if retries > 0 {
        retry.max_attempts = retries;
    }
    let base = SuperviseOptions {
        threads: threads.div_ceil(workers).max(1),
        units: opts.get_or("--units", 0usize)?,
        lease_timeout: Duration::from_secs_f64(timeout),
        flush_every: opts.get_or("--flush-every", 0usize)?,
        retry,
        ..SuperviseOptions::default()
    };

    let dir_ref: &std::path::Path = &dir;
    let summaries = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let worker_opts = SuperviseOptions {
                    owner: if workers == 1 { owner.clone() } else { format!("{owner}-w{w}") },
                    // The injected fault goes to one worker: one kill, not
                    // one per loop (chaos CI counts recoveries).
                    fault: if w == 0 { fault.clone() } else { None },
                    ..base.clone()
                };
                scope.spawn(move || supervise(dir_ref, spec, &worker_opts))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect::<Vec<_>>()
    });

    // Workers are done (or degraded): close the trace before reporting.
    if let Some(snap) = obs.finish()? {
        eprint!("{}", crate::obsctl::metrics_table(&snap));
    }

    let mut complete: Option<repwf_dist::SuperviseSummary> = None;
    for summary in summaries {
        let summary = summary.map_err(|e| e.to_string())?;
        for claim in &summary.claims {
            let how = match &claim.outcome {
                ClaimOutcome::Completed => "completed".to_string(),
                ClaimOutcome::Lost => "lost (taken over)".to_string(),
                ClaimOutcome::Faulted(m) => format!("faulted: {m}"),
            };
            eprintln!(
                "[{}] r{}-{} attempt {}{}: resumed {}, ran {}, {how} \
                 (backoff waited {:?})",
                summary.owner,
                claim.offset,
                claim.declared,
                claim.attempt,
                if claim.takeover { " (takeover)" } else { "" },
                claim.resumed,
                claim.ran,
                claim.backoff,
            );
        }
        for (offset, level) in &summary.splits {
            eprintln!(
                "[{}] split straggler unit r{offset}-{level} at seed boundary",
                summary.owner
            );
        }
        if summary.complete {
            complete = Some(summary);
        } else {
            for d in &summary.degraded {
                eprintln!(
                    "[{}] DEGRADED: unit at offset {} (len {}) exhausted {} attempts",
                    summary.owner, d.offset, d.len, d.attempts
                );
            }
        }
    }

    let Some(summary) = complete else {
        return Err(format!(
            "campaign degraded: some units exhausted their retry budget; inspect with \
             `repwf dist status --dir {}`, re-run the printed --range commands, or merge \
             what exists with `repwf merge {}/*.ndjson --allow-partial`",
            dir.display(),
            dir.display(),
        ));
    };

    let merged = merge_paths(&summary.files).map_err(|e| e.to_string())?;
    if opts.has("--json") {
        print!("{}", campaign_doc(&merged.spec, &merged.result).to_string_pretty());
    } else {
        eprintln!(
            "campaign complete: {} units merged — {}",
            summary.files.len(),
            merged.accum.progress(merged.spec.count).summary()
        );
        print_summary(&merged.spec, &merged.result, false);
    }
    Ok(())
}

/// Human-readable campaign summary (shared with `repwf merge`).
pub(crate) fn print_summary(spec: &CampaignSpec, res: &CampaignResult, hist: bool) {
    let accum = res.accum();
    let count = spec.count;
    let no_critical = accum.no_critical;
    let max_gap_pct = accum.max_gap() * 100.0;
    println!(
        "{model_name} model, {stages} stages on {procs} procs, comp {} comm {}",
        range_text(spec.cfg.comp),
        range_text(spec.cfg.comm),
        model_name = model_name(spec.model),
        stages = spec.cfg.stages,
        procs = spec.cfg.procs,
    );
    println!(
        "experiments        : {count} (seeds {}..{})",
        spec.seed_base,
        spec.seed_base + count as u64
    );
    let (distinct_shapes, batch_hit_rate) = shape_stats(&spec.cfg, count, spec.seed_base);
    println!(
        "distinct shapes     : {distinct_shapes} (batch hit rate {:.1}%)",
        batch_hit_rate * 100.0
    );
    println!(
        "no critical resource: {no_critical} ({:.2}%)",
        100.0 * no_critical as f64 / count.max(1) as f64
    );
    println!("max gap             : {max_gap_pct:.3}%");
    println!("simulator fallback  : {}", accum.simulated);
    if hist {
        let gaps: Vec<f64> = res
            .outcomes
            .iter()
            .filter(|o| o.no_critical_resource(GAP_REL_TOL))
            .map(|o| o.gap() * 100.0)
            .collect();
        if gaps.is_empty() {
            println!("\n(no positive gaps to plot)");
        } else {
            println!("\ngap distribution (% over M_ct):");
            print!("{}", repwf_gen::stats::histogram(&gaps, 10, 50));
        }
    }
}

fn range_text(r: Range) -> String {
    if r.lo == r.hi {
        format!("{}", r.lo)
    } else {
        format!("{}..{}", r.lo, r.hi)
    }
}
