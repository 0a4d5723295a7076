//! `repwf table2` — the paper's Table 2 experiment families.

use crate::json::Json;
use crate::opts::{model_name, parse_threads, Opts};
use crate::progress::Throttle;
use repwf_gen::campaign::{CampaignAccum, DEFAULT_CAMPAIGN_CAP};
use repwf_gen::table2::{format_results, run_row_with, table2_rows, to_csv, RowResult};
use std::io::Write as _;

const HELP: &str = "\
repwf table2 — reproduce Table 2 (count of mappings without critical resource)

OPTIONS:
  --scale F          fraction of the paper's 5152 experiments (default: 0.1)
  --full             shorthand for --scale 1
  --threads K        worker threads (default: hardware)
  --seed S           base seed (default: 20090301)
  --cap N            TPN transition cap before simulator fallback (default: 2000000)
  --csv PATH         also write the rows as CSV
  --trace FILE       write an NDJSON span/counter trace (repwf-trace/v1);
                     never changes this command's stdout bytes
  --metrics          append a telemetry counter table; with --json the
                     table goes to stderr and the document is unchanged
  --json             structured output (identical at any --threads)

Progress lines go to stderr only when it is a terminal; the per-row
summary lines always do.
";

pub fn run(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &["--scale", "--threads", "--seed", "--cap", "--csv", "--trace"],
        &["--full", "--json", "--help", "--metrics"],
    )?;
    if opts.has("--help") {
        print!("{HELP}");
        return Ok(());
    }
    let scale = if opts.has("--full") { 1.0 } else { opts.get_or("--scale", 0.1f64)? };
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(format!("--scale must be in (0, 1], got {scale}"));
    }
    let threads = parse_threads(&opts)?;
    let seed = opts.get_or("--seed", 20_090_301u64)?;
    let cap = opts.get_or("--cap", DEFAULT_CAMPAIGN_CAP)?;

    let obs = crate::obsctl::init(&opts, "table2")?;
    let rows = table2_rows();
    let mut results = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let t0 = std::time::Instant::now();
        let total = row.experiments(scale);
        let mut accum = CampaignAccum::new();
        let throttle = Throttle::new();
        let res = run_row_with(row, scale, seed + 10_000_000 * i as u64, threads, cap, |outcome| {
            accum.push(outcome);
            if throttle.due(accum.done, total) {
                let _ = write!(
                    std::io::stderr().lock(),
                    "\rrow {}/{}: {}/{} experiments",
                    i + 1,
                    rows.len(),
                    accum.done,
                    total
                );
            }
        });
        eprintln!(
            "\rrow {}/{}: {} experiments in {:.1}s ({} no-critical, {} simulated)",
            i + 1,
            rows.len(),
            res.total,
            t0.elapsed().as_secs_f64(),
            res.no_critical,
            res.simulated
        );
        results.push(res);
    }
    let metrics = obs.finish()?;

    if let Some(path) = opts.get("--csv") {
        std::fs::write(path, to_csv(&results)).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("CSV written to {path}");
    }

    if opts.has("--json") {
        let rows_json: Vec<Json> = results.iter().map(row_json).collect();
        let total: usize = results.iter().map(|r| r.total).sum();
        let doc = Json::Obj(vec![
            ("scale", Json::Num(scale)),
            ("seed", Json::UInt(u128::from(seed))),
            ("total_experiments", Json::UInt(total as u128)),
            ("rows", Json::Arr(rows_json)),
        ]);
        print!("{}", doc.to_string_pretty());
        if let Some(snap) = &metrics {
            eprint!("{}", crate::obsctl::metrics_table(snap));
        }
    } else {
        println!("\nTable 2 (scale {scale}):\n");
        print!("{}", format_results(&results));
        let total: usize = results.iter().map(|r| r.total).sum();
        let sim: usize = results.iter().map(|r| r.simulated).sum();
        println!("\ntotal experiments: {total} ({sim} resolved by simulation fallback)");
        if let Some(snap) = &metrics {
            crate::obsctl::print_metrics(snap);
        }
    }
    Ok(())
}

fn row_json(r: &RowResult) -> Json {
    let sizes: Vec<Json> = r
        .row
        .sizes
        .iter()
        .map(|&(s, p)| {
            Json::Obj(vec![("stages", Json::UInt(s as u128)), ("procs", Json::UInt(p as u128))])
        })
        .collect();
    Json::Obj(vec![
        ("model", Json::str(model_name(r.row.model))),
        ("sizes", Json::Arr(sizes)),
        (
            "comp",
            Json::Obj(vec![("lo", Json::Num(r.row.comp.lo)), ("hi", Json::Num(r.row.comp.hi))]),
        ),
        (
            "comm",
            Json::Obj(vec![("lo", Json::Num(r.row.comm.lo)), ("hi", Json::Num(r.row.comm.hi))]),
        ),
        ("total", Json::UInt(r.total as u128)),
        ("no_critical", Json::UInt(r.no_critical as u128)),
        ("max_gap_pct", Json::Num(r.max_gap_pct)),
        ("simulated", Json::UInt(r.simulated as u128)),
        ("paper_no_critical", Json::UInt(r.row.paper_no_critical as u128)),
        ("paper_total", Json::UInt(r.row.paper_count as u128)),
    ])
}
