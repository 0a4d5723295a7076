//! `repwf map` — optimize the mapping of a pipeline onto a platform
//! (heuristic, exact, or both with an optimality-gap certificate).

use crate::json::Json;
use crate::opts::{load_instance, model_name, parse_model, parse_threads, Opts};
use repwf_core::engine::{MappingOracle, PeriodEngine};
use repwf_core::model::{CommModel, Mapping, Pipeline, Platform};
use repwf_core::period::{Method, PeriodError};
use repwf_core::tpn_build::BuildOptions;
use repwf_map::annealing::{anneal, AnnealOptions};
use repwf_map::exact::{search_space_size, solve, ExactError, ExactOptions, ExactResult};
use repwf_map::{optimize, SearchOptions, SearchResult};

const HELP: &str = "\
repwf map — find a mapping that maximizes throughput

By default runs the heuristic pipeline (multi-start local search refined
by simulated annealing). `--exact` instead runs the deterministic
parallel branch-and-bound and returns a *certified* optimum — identical
bits at any --threads value. `--certify` runs both and reports the
heuristic's optimality gap (the heuristic mapping is re-evaluated
exactly first, so the gap never compares against a simulator estimate).

OPTIONS:
  --example a|b|c    paper fixture; its mapping is ignored (default: a)
  --file PATH        instance in the repwf text format (mapping ignored)
  --workflow PATH    series-parallel workflow JSON (mapping ignored)
  --model M          overlap | strict (default: overlap)
  --steps N          annealing steps for the heuristic (default: 1500)
  --seed S           heuristic RNG seed (default: 0)
  --exact            certified optimum by branch-and-bound (small n, p!);
                     a space that overflows u128 is refused (exit 2)
  --certify          heuristic + exact + optimality gap
  --cap N            TPN transition cap for exact evaluations
                     (default: 4000000); an over-cap candidate is a hard
                     error — exact never falls back to the simulator
  --threads K        workers for the exact search (default: all cores;
                     the result does not depend on this)
  --trace FILE       write an NDJSON span/counter trace (repwf-trace/v1);
                     never changes this command's stdout bytes
  --metrics          append a telemetry counter table (or a \"metrics\"
                     object with --json)
  --json             structured output (independent of --threads)
";

/// Re-evaluates `mapping` exactly (no simulator fallback) so the gap is a
/// statement about true periods. `Ok(None)` means infeasible.
fn exact_period_of(
    pipeline: &Pipeline,
    platform: &Platform,
    mapping: &Mapping,
    model: CommModel,
    cap: usize,
) -> Result<Option<f64>, String> {
    let build = BuildOptions { labels: false, max_transitions: cap };
    let engine = PeriodEngine::with_options(build);
    let mut oracle = MappingOracle::with_engine(pipeline, platform, engine);
    match oracle.compute(mapping, model, Method::Auto) {
        Ok(r) => Ok(Some(r.period)),
        Err(PeriodError::Model(_)) => Ok(None),
        Err(PeriodError::Build(e)) => Err(format!(
            "cannot certify: the heuristic mapping needs a TPN above the cap ({e}); \
             raise --cap"
        )),
        Err(e) => Err(e.to_string()),
    }
}

fn mapping_json(mapping: &Mapping) -> Json {
    Json::Arr(
        mapping
            .assignment()
            .iter()
            .map(|procs| Json::Arr(procs.iter().map(|&u| Json::UInt(u as u128)).collect()))
            .collect(),
    )
}

fn heuristic_json(h: &SearchResult) -> Json {
    Json::Obj(vec![
        ("period", Json::Num(h.period)),
        ("throughput", Json::Num(1.0 / h.period)),
        ("evaluations", Json::UInt(h.evaluations as u128)),
        ("mapping", mapping_json(&h.mapping)),
    ])
}

fn exact_json(res: &ExactResult) -> Json {
    let mut fields = vec![("feasible", Json::Bool(res.best.is_some()))];
    if let Some((mapping, period)) = &res.best {
        fields.push(("period", Json::Num(*period)));
        fields.push(("throughput", Json::Num(1.0 / *period)));
        fields.push(("mapping", mapping_json(mapping)));
    }
    fields.push(("tasks", Json::UInt(res.stats.tasks as u128)));
    fields.push(("nodes", Json::UInt(res.stats.nodes as u128)));
    fields.push(("pruned", Json::UInt(res.stats.pruned as u128)));
    fields.push(("evaluated", Json::UInt(res.stats.evaluated as u128)));
    fields.push(("infeasible", Json::UInt(res.stats.infeasible as u128)));
    if let Some(space) = res.space {
        fields.push(("space", Json::UInt(space)));
        if space > 0 {
            fields
                .push(("prune_ratio", Json::Num(1.0 - res.stats.evaluated as f64 / space as f64)));
        }
    }
    Json::Obj(fields)
}

fn print_mapping(label: &str, mapping: &Mapping) {
    println!("{label:<20}: {:?}", mapping.assignment());
}

pub fn run(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &[
            "--example",
            "--file",
            "--workflow",
            "--model",
            "--steps",
            "--seed",
            "--cap",
            "--threads",
            "--trace",
        ],
        &["--exact", "--certify", "--json", "--metrics", "--help"],
    )?;
    if opts.has("--help") {
        print!("{HELP}");
        return Ok(());
    }
    let obs = crate::obsctl::init(&opts, "map")?;
    let inst = load_instance(&opts)?;
    let (pipeline, platform) = (&inst.pipeline, &inst.platform);
    let model = parse_model(&opts)?;
    let steps = opts.get_or("--steps", AnnealOptions::default().steps)?;
    let seed = opts.get_or("--seed", 0u64)?;
    let cap = opts.get_or("--cap", BuildOptions::default().max_transitions)?;
    let threads = parse_threads(&opts)?;
    let certify = opts.has("--certify");
    let run_exact = opts.has("--exact") || certify;
    let run_heuristic = certify || !opts.has("--exact");
    let mode = if certify {
        "certify"
    } else if run_exact {
        "exact"
    } else {
        "heuristic"
    };

    // `solve` refuses an overflowing space itself; checking first spares
    // `--certify` a heuristic run whose bound nothing would use.
    let (stages, procs) = (pipeline.num_stages(), platform.num_procs());
    if run_exact && search_space_size(stages, procs).is_none() {
        return Err(ExactError::SpaceOverflow { stages, procs }.to_string());
    }

    // Heuristic: multi-start local search, refined by annealing from its
    // incumbent; keep whichever is better.
    let heuristic = if run_heuristic {
        let search = SearchOptions { model, seed, ..SearchOptions::default() };
        let base = optimize(pipeline, platform, &search);
        let ann = AnnealOptions { model, steps, seed, ..AnnealOptions::default() };
        let refined = anneal(pipeline, platform, base.mapping.clone(), &ann);
        let evaluations = base.evaluations + refined.evaluations;
        let mut best = if refined.period < base.period { refined } else { base };
        best.evaluations = evaluations;
        Some(best)
    } else {
        None
    };

    // Certification re-evaluates the heuristic mapping *exactly* before
    // using it: as the exact search's initial bound, and as the gap's
    // numerator. A simulator estimate must never enter either role.
    let heuristic_exact_period = match (certify, &heuristic) {
        (true, Some(h)) => {
            if !h.period.is_finite() {
                return Err(
                    "heuristic found no feasible mapping; run --exact to prove (in)feasibility"
                        .to_string(),
                );
            }
            exact_period_of(pipeline, platform, &h.mapping, model, cap)?
        }
        _ => None,
    };

    let exact = if run_exact {
        let eopts = ExactOptions {
            model,
            threads,
            initial_bound: heuristic_exact_period,
            max_transitions: cap,
        };
        Some(solve(pipeline, platform, &eopts).map_err(|e| e.to_string())?)
    } else {
        None
    };

    // gap = (P̂_heuristic − P̂_opt) / P̂_opt, both sides exact periods.
    let gap = match (&heuristic_exact_period, &exact) {
        (Some(h), Some(res)) => {
            let (_, opt) = res
                .best
                .as_ref()
                .ok_or("internal error: exact found nothing despite a feasible heuristic")?;
            Some((h - opt) / opt)
        }
        _ => None,
    };
    let metrics = obs.finish()?;

    if opts.has("--json") {
        let mut fields = vec![("model", Json::str(model_name(model))), ("mode", Json::str(mode))];
        if let Some(h) = &heuristic {
            fields.push(("heuristic", heuristic_json(h)));
        }
        if let Some(h) = heuristic_exact_period {
            fields.push(("heuristic_exact_period", Json::Num(h)));
        }
        if let Some(res) = &exact {
            fields.push(("exact", exact_json(res)));
        }
        if let Some(gap) = gap {
            fields.push(("gap", Json::Num(gap)));
        }
        if let Some(snap) = &metrics {
            fields.push(("metrics", crate::obsctl::metrics_json(snap)));
        }
        print!("{}", Json::Obj(fields).to_string_pretty());
        return Ok(());
    }

    println!("model               : {}", model_name(model));
    println!("mode                : {mode}");
    if let Some(h) = &heuristic {
        println!("heuristic period    : {:.6}  ({} evaluations)", h.period, h.evaluations);
        print_mapping("heuristic mapping", &h.mapping);
    }
    if let Some(res) = &exact {
        match &res.best {
            Some((mapping, period)) => {
                println!("exact period        : {period:.6}");
                print_mapping("exact mapping", mapping);
            }
            None => println!("exact               : no feasible mapping exists"),
        }
        println!(
            "search              : {} evaluated / {} pruned / {} nodes over {} tasks{}",
            res.stats.evaluated,
            res.stats.pruned,
            res.stats.nodes,
            res.stats.tasks,
            match res.space {
                Some(space) => format!(" (space {space})"),
                None => String::new(),
            }
        );
    }
    if let Some(gap) = gap {
        println!("optimality gap      : {:.6}%", gap * 100.0);
    }
    if let Some(snap) = &metrics {
        crate::obsctl::print_metrics(snap);
    }
    Ok(())
}
