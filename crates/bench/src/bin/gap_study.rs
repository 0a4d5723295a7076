//! Ablation study beyond Table 2: how the period / `M_ct` gap depends on
//! the replication structure (strict one-port model).
//!
//! Table 2 only counts *whether* a gap exists. This study sweeps the
//! platform size (hence the typical replication factor) for fixed 3-stage
//! pipelines and reports, per size: the fraction of instances without a
//! critical resource, and the mean/max relative gap. It quantifies the
//! intuition behind the paper's examples — gaps appear once several stages
//! are replicated with interfering round-robin orders, and grow with the
//! interference, then wash out when times are strongly heterogeneous.
//!
//! Usage: `gap_study [--per-size N] [--threads K]`

use repwf_core::model::CommModel;
use repwf_gen::campaign::{run_spec, CampaignSpec, DEFAULT_CAMPAIGN_CAP};
use repwf_gen::sampler::{GenConfig, Range, Topology};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut per_size = 400usize;
    let mut threads = repwf_par::max_threads();
    let mut k = 1;
    while k < args.len() {
        match args[k].as_str() {
            "--per-size" => {
                k += 1;
                per_size = args[k].parse().expect("--per-size N");
            }
            "--threads" => {
                k += 1;
                threads = args[k].parse().expect("--threads K");
            }
            other => panic!("unknown argument {other}"),
        }
        k += 1;
    }

    println!("strict one-port, 3-stage pipelines, computation times = 1, comm 5..10");
    println!(
        "{:>7} {:>10} {:>16} {:>12} {:>12}",
        "procs", "runs", "no-crit (frac)", "mean gap%", "max gap%"
    );
    for procs in [3usize, 5, 7, 9, 12, 15, 18] {
        let cfg =
            GenConfig { stages: 3, procs, comp: Range::constant(1.0), comm: Range::new(5.0, 10.0) };
        let spec = CampaignSpec {
            cfg,
            model: CommModel::Strict,
            count: per_size,
            seed_base: 777,
            cap: DEFAULT_CAMPAIGN_CAP,
        };
        let res = run_spec(&spec, &Topology::chain(cfg.stages), threads, |_| {});
        let no_crit = res.count_no_critical(repwf_gen::campaign::GAP_REL_TOL);
        let gaps: Vec<f64> = res
            .outcomes
            .iter()
            .filter(|o| o.no_critical_resource(repwf_gen::campaign::GAP_REL_TOL))
            .map(|o| o.gap() * 100.0)
            .collect();
        let mean_gap =
            if gaps.is_empty() { 0.0 } else { gaps.iter().sum::<f64>() / gaps.len() as f64 };
        println!(
            "{:>7} {:>10} {:>8} ({:>5.2}%) {:>12.2} {:>12.2}",
            procs,
            res.outcomes.len(),
            no_crit,
            100.0 * no_crit as f64 / res.outcomes.len() as f64,
            mean_gap,
            res.max_gap() * 100.0
        );
    }
    println!("\n(one-to-one platforms — procs = stages — can never show a gap;");
    println!("interference needs at least two replicated neighbouring stages)");
}
