//! `repwf` — the unified command-line interface of the workspace.
//!
//! One binary replaces the grab-bag of one-off binaries in `repwf-bench`
//! for the everyday flows, with `--json` structured output for scripting:
//!
//! ```text
//! repwf period    [--example a|b|c | --file F] [--model M] [--method X] [--json]
//! repwf simulate  [--example a|b|c | --file F] [--model M] [--data-sets N] [--json]
//! repwf campaign  --stages N --procs P [--comp LO..HI] [--comm LO..HI]
//!                 [--count N] [--seed S] [--threads K] [--model M] [--json]
//!                 [--shard I/N --out F.ndjson | --range OFF+LEN --out F.ndjson
//!                  | --supervise --dir D [--workers N] [--units N]]
//! repwf map       [--example a|b|c | --file F] [--model M] [--exact | --certify]
//!                 [--steps N] [--seed S] [--cap N] [--threads K] [--json]
//! repwf merge     <shard.ndjson>... [--csv F] [--json] [--allow-partial]
//! repwf dist      status --dir D [--lease-timeout S] [--json]
//! repwf trace     report FILE.ndjson [--min-coverage F] [--json]
//! repwf bench     [--out F] [--check BASELINE]
//! repwf table2    [--scale F | --full] [--threads K] [--seed S] [--csv F] [--json]
//!                 [--trace F] [--metrics]
//! repwf gantt     <a-strict|a-overlap|b-overlap> [--periods K] [--svg F]
//! repwf dot       <overlap|strict|overlap-critical|strict-critical|subtpn-a-f1|subtpn-b-f0> [-o F]
//! ```
//!
//! Campaign results are **bit-identical at every `--threads` value**: each
//! experiment is seeded from its own index on the work-stealing engine —
//! and at every shard count: `repwf merge` of `campaign --shard I/N` files
//! reproduces the unsharded `--json` document byte for byte.

mod commands;
mod obsctl;
mod opts;
mod progress;

use repwf_dist::json;

use std::process::ExitCode;

const USAGE: &str = "\
repwf — throughput of replicated workflows (ICPP 2009 reproduction)

USAGE: repwf <COMMAND> [OPTIONS]

COMMANDS:
  period     compute the steady-state period P̂ of an instance
  simulate   estimate the period with the discrete-event simulator
  campaign   run a random-experiment campaign (period vs. M_ct),
             optionally as one shard of a distributed run (--shard I/N,
             --range OFF+LEN) or as an elastic fault-tolerant supervisor
             worker on a shared directory (--supervise --dir D)
  map        optimize the mapping (heuristic, --exact B&B, or --certify
             both with the heuristic's optimality gap)
  merge      recombine campaign shard files (byte-identical to unsharded;
             --allow-partial tolerates gaps and reports them)
  dist       inspect distributed campaign state (dist status --dir D)
  trace      summarize an NDJSON telemetry trace (trace report FILE;
             traces come from --trace on period/map/campaign/table2)
  table2     reproduce the paper's Table 2 experiment families
  bench      count the work of the tracked kernels (emits BENCH_period.json;
             --check fails on any count that differs from a baseline)
  gantt      render the paper's Gantt figures (ASCII / SVG)
  dot        emit a TPN figure as Graphviz DOT
  help       show this message

Common options:
  --example a|b|c   use a paper fixture (default: a)
  --file PATH       read an instance in the repwf text format
  --model M         overlap | strict (default: overlap, except campaign
                    which defaults to strict — the model with gaps)
  --json            machine-readable output on stdout
Run `repwf <COMMAND> --help` for command-specific options.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match command {
        "period" => commands::period::run(rest),
        "simulate" => commands::simulate::run(rest),
        "campaign" => commands::campaign::run(rest),
        "map" => commands::map::run(rest),
        "merge" => commands::merge::run(rest),
        "dist" => commands::dist::run(rest),
        "trace" => commands::trace::run(rest),
        "bench" => commands::bench::run(rest),
        "table2" => commands::table2::run(rest),
        "gantt" => commands::gantt::run(rest),
        "dot" => commands::dot::run(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("repwf {command}: {message}");
            ExitCode::from(2)
        }
    }
}
