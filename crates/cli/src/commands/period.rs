//! `repwf period` — steady-state period of one instance.

use crate::json::Json;
use crate::opts::{load_instance, model_name, parse_method, parse_model, Opts};
use repwf_core::period::compute_period_with;
use repwf_core::tpn_build::BuildOptions;

const HELP: &str = "\
repwf period — compute the steady-state period P̂ (and throughput 1/P̂)

OPTIONS:
  --example a|b|c    paper fixture (default: a)
  --file PATH        instance in the repwf text format
  --workflow PATH    series-parallel workflow instance in JSON
  --model M          overlap | strict (default: overlap)
  --method X         auto | polynomial | full-tpn (default: auto)
  --cap N            TPN transition cap for full-tpn (default: 400000)
  --trace FILE       write an NDJSON span/counter trace (repwf-trace/v1);
                     never changes this command's stdout bytes
  --metrics          append a telemetry counter table (or a \"metrics\"
                     object with --json)
  --json             structured output
";

pub fn run(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &["--example", "--file", "--workflow", "--model", "--method", "--cap", "--trace"],
        &["--json", "--metrics", "--help"],
    )?;
    if opts.has("--help") {
        print!("{HELP}");
        return Ok(());
    }
    let obs = crate::obsctl::init(&opts, "period")?;
    let inst = load_instance(&opts)?;
    let model = parse_model(&opts)?;
    let method = parse_method(&opts)?;
    let cap = opts.get_or("--cap", 400_000usize)?;
    let build = BuildOptions { labels: false, max_transitions: cap };
    let report = compute_period_with(&inst, model, method, &build).map_err(|e| e.to_string())?;
    let metrics = obs.finish()?;

    if opts.has("--json") {
        let mut fields = vec![
            ("model", Json::str(model_name(model))),
            ("method", Json::str(report.method.to_string())),
            ("period", Json::Num(report.period)),
            ("mct", Json::Num(report.mct)),
            ("throughput", Json::Num(report.throughput())),
            ("num_paths", Json::UInt(report.num_paths)),
            ("has_critical_resource", Json::Bool(report.has_critical_resource(1e-9))),
            ("critical", Json::str(report.critical.clone())),
        ];
        if let Some(snap) = &metrics {
            fields.push(("metrics", crate::obsctl::metrics_json(snap)));
        }
        print!("{}", Json::Obj(fields).to_string_pretty());
    } else {
        println!("model               : {}", model_name(model));
        println!("method              : {}", report.method);
        println!("period P̂           : {:.6}", report.period);
        println!("throughput 1/P̂     : {:.6}", report.throughput());
        println!("M_ct lower bound    : {:.6}", report.mct);
        println!("paths m             : {}", report.num_paths);
        println!(
            "critical resource   : {}",
            if report.has_critical_resource(1e-9) {
                report.critical.as_str()
            } else {
                "NONE — every resource idles each period"
            }
        );
        if let Some(snap) = &metrics {
            crate::obsctl::print_metrics(snap);
        }
    }
    Ok(())
}
