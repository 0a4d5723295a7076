//! Verifies every numeric claim of the paper against this implementation
//! and prints a paper-vs-measured table.

use repwf_core::cycle_time::max_cycle_time;
use repwf_core::fixtures::{example_a, example_b, example_c};
use repwf_core::model::CommModel;
use repwf_core::overlap_poly::pattern_info;
use repwf_core::paths::instance_num_paths;
use repwf_core::period::{compute_period, Method};
use repwf_sim::{simulate, SimOptions};

struct Check {
    what: &'static str,
    paper: String,
    measured: String,
    ok: bool,
}

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

fn main() {
    let mut checks: Vec<Check> = Vec::new();
    let a = example_a();
    let b = example_b();
    let c = example_c();

    // §2/Table 1: path structure.
    checks.push(Check {
        what: "Example A: number of paths m (Prop. 1)",
        paper: "6".into(),
        measured: format!("{}", instance_num_paths(&a).unwrap()),
        ok: instance_num_paths(&a) == Some(6),
    });

    // §4.1: Example A overlap.
    let ra = compute_period(&a, CommModel::Overlap, Method::Polynomial).unwrap();
    checks.push(Check {
        what: "Example A overlap: period (P0 out-port critical)",
        paper: "189".into(),
        measured: format!("{:.4}", ra.period),
        ok: close(ra.period, 189.0, 1e-6) && ra.has_critical_resource(1e-9),
    });

    // §4.2: Example A strict.
    let (mct_s, who) = max_cycle_time(&a, CommModel::Strict);
    let rs = compute_period(&a, CommModel::Strict, Method::FullTpn).unwrap();
    checks.push(Check {
        what: "Example A strict: M_ct at P2",
        paper: "215.8".into(),
        measured: format!("{:.4} at P{}", mct_s, who.proc),
        ok: close(mct_s, 1295.0 / 6.0, 1e-6) && who.proc == 2,
    });
    checks.push(Check {
        what: "Example A strict: period > M_ct (no critical resource)",
        paper: "230.7".into(),
        measured: format!("{:.4}", rs.period),
        ok: close(rs.period, 1384.0 / 6.0, 1e-6) && !rs.has_critical_resource(1e-9),
    });

    // §4.1: Example B overlap.
    let rb = compute_period(&b, CommModel::Overlap, Method::Polynomial).unwrap();
    checks.push(Check {
        what: "Example B overlap: M_ct (P2 out-port)",
        paper: "258.3".into(),
        measured: format!("{:.4}", rb.mct),
        ok: close(rb.mct, 3100.0 / 12.0, 1e-6),
    });
    checks.push(Check {
        what: "Example B overlap: period (no critical resource)",
        paper: "291.7".into(),
        measured: format!("{:.4}", rb.period),
        ok: close(rb.period, 3500.0 / 12.0, 1e-6) && !rb.has_critical_resource(1e-9),
    });

    // Appendix A / Fig. 13: Example C decomposition.
    let info = pattern_info(&c.mapping.replica_counts(), 1);
    checks.push(Check {
        what: "Example C: F1 decomposition (p, u, v, c, m)",
        paper: "(3, 7, 9, 55, 10395)".into(),
        measured: format!(
            "({}, {}, {}, {}, {})",
            info.g,
            info.u,
            info.v,
            info.c.unwrap(),
            info.m.unwrap()
        ),
        ok: info.g == 3
            && info.u == 7
            && info.v == 9
            && info.c == Some(55)
            && info.m == Some(10395),
    });

    // Cross-method agreement (engine self-check on the fixtures).
    // Completions of a replicated last stage legitimately finish out of
    // order, so the window estimator converges as O(1/window): give it a
    // long run and a 0.1% tolerance.
    for (name, inst) in [("Example A", &a), ("Example B", &b)] {
        for model in [CommModel::Overlap, CommModel::Strict] {
            let exact = compute_period(inst, model, Method::FullTpn).unwrap();
            let sim = simulate(inst, model, &SimOptions { data_sets: 60_000, record_ops: false });
            let est = sim.exact_period(1e-9).unwrap_or_else(|| sim.period_estimate());
            checks.push(Check {
                what: Box::leak(
                    format!("{name} {model}: TPN analysis vs discrete-event simulation")
                        .into_boxed_str(),
                ),
                paper: format!("{:.4}", exact.period),
                measured: format!("{est:.4}"),
                ok: close(est, exact.period, 1e-3 * exact.period),
            });
        }
    }

    println!("{:<58} {:>22} {:>22} {:>5}", "check", "paper", "measured", "ok");
    let mut all_ok = true;
    for ch in &checks {
        all_ok &= ch.ok;
        println!(
            "{:<58} {:>22} {:>22} {:>5}",
            ch.what,
            ch.paper,
            ch.measured,
            if ch.ok { "yes" } else { "NO" }
        );
    }
    if !all_ok {
        std::process::exit(1);
    }
    println!("\nall {} checks pass", checks.len());
}
