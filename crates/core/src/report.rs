//! Consolidated human-readable analysis of an instance, used by the
//! `analyze` CLI and the examples.

use crate::cycle_time::cycle_times;
use crate::latency::latency_report;
use crate::model::{CommModel, Instance};
use crate::overlap_poly::{overlap_period, Bottleneck};
use crate::paths::instance_num_paths;
use crate::period::{compute_period, Method, PeriodError};
use std::fmt::Write as _;

/// Renders the full analysis of an instance as text: mapping summary,
/// per-resource cycle times, periods under both models, the overlap-model
/// column breakdown and the latency profile.
pub fn render(inst: &Instance) -> Result<String, PeriodError> {
    let mut out = String::new();
    let n = inst.num_stages();
    let _ = writeln!(out, "== workflow ==");
    for i in 0..n {
        let procs: Vec<String> = inst.mapping.procs(i).iter().map(|u| format!("P{u}")).collect();
        let _ = writeln!(
            out,
            "  S{i}: work {:>10.3}  on {} ({} replicas)",
            inst.pipeline.work(i),
            procs.join(", "),
            inst.mapping.replicas(i)
        );
        if i + 1 < n {
            let _ = writeln!(out, "       file F{i}: {:>10.3}", inst.pipeline.file(i));
        }
    }
    let m = instance_num_paths(inst);
    let _ = writeln!(
        out,
        "  paths m = {}",
        m.map(|m| m.to_string()).unwrap_or_else(|| "overflow".into())
    );

    let _ = writeln!(out, "\n== per-resource cycle times (per data set) ==");
    let _ = writeln!(
        out,
        "  {:<5} {:<6} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "proc", "stage", "C_in", "C_comp", "C_out", "exec(ovl)", "exec(strict)"
    );
    for ct in cycle_times(inst) {
        let _ = writeln!(
            out,
            "  P{:<4} S{:<5} {:>10.3} {:>10.3} {:>10.3} {:>12.3} {:>12.3}",
            ct.proc,
            ct.stage,
            ct.c_in,
            ct.c_comp,
            ct.c_out,
            ct.exec(CommModel::Overlap),
            ct.exec(CommModel::Strict)
        );
    }

    for model in [CommModel::Overlap, CommModel::Strict] {
        let r = compute_period(inst, model, Method::Auto)?;
        let _ = writeln!(out, "\n== {model} ==");
        let _ =
            writeln!(out, "  period      {:>12.4}   (throughput {:.6})", r.period, r.throughput());
        let _ = writeln!(out, "  M_ct        {:>12.4}", r.mct);
        let _ = writeln!(
            out,
            "  critical    {} ({})",
            r.critical,
            if r.has_critical_resource(1e-9) {
                "critical resource"
            } else {
                "NO critical resource"
            }
        );
    }

    let _ = writeln!(out, "\n== overlap column breakdown (Theorem 1) ==");
    let analysis = overlap_period(inst);
    for col in &analysis.columns {
        let tag = match &col.bottleneck {
            Bottleneck::Computation { stage, proc } => format!("S{stage} on P{proc}"),
            Bottleneck::Communication { file, residue, .. } => {
                format!("F{file} component {residue}")
            }
        };
        let marker =
            if (col.period - analysis.period).abs() < 1e-12 { "  <= critical" } else { "" };
        let _ = writeln!(out, "  {:<24} {:>12.4}{}", tag, col.period, marker);
    }

    let lat = latency_report(inst, 1024);
    let _ = writeln!(out, "\n== unloaded latency over {} paths ==", lat.paths);
    let _ = writeln!(
        out,
        "  min {:.3} / mean {:.3} / max {:.3} (worst path: data sets ≡ {} mod m)",
        lat.min, lat.mean, lat.max, lat.argmax
    );

    let p_overlap = compute_period(inst, CommModel::Overlap, Method::Auto)?.period;
    let findings = crate::diagnose::diagnose(inst, CommModel::Overlap, Some(p_overlap));
    if !findings.is_empty() {
        let _ = writeln!(out, "\n== diagnostics ==");
        for d in findings {
            let _ = writeln!(out, "  - {d}");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{example_a, example_b};

    #[test]
    fn report_contains_key_numbers() {
        let text = render(&example_a()).unwrap();
        assert!(text.contains("189.0000"), "overlap period");
        assert!(text.contains("230.6667"), "strict period");
        assert!(text.contains("NO critical resource"), "strict gap");
        assert!(text.contains("paths m = 6"));
    }

    #[test]
    fn report_marks_critical_column() {
        let text = render(&example_b()).unwrap();
        assert!(text.contains("<= critical"));
        assert!(text.contains("F0 component"));
    }

    #[test]
    fn report_handles_single_stage() {
        use crate::model::{Instance, Mapping, Pipeline, Platform};
        let inst = Instance::new(
            Pipeline::new(vec![8.0], vec![]).unwrap(),
            Platform::uniform(2, 2.0, 1.0),
            Mapping::new(vec![vec![0, 1]]).unwrap(),
        )
        .unwrap();
        let text = render(&inst).unwrap();
        assert!(text.contains("2 replicas"));
        assert!(text.contains("2.0000"), "period 8/(2·2)");
    }
}
