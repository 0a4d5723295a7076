//! Gantt-chart extraction and rendering (paper Figures 7 and 12).
//!
//! The chart lays resources out as rows — `P0`, `P0 out`, `P1 in`, `P1`, …
//! exactly like the paper's figures — and operations as labelled bars.
//! Rendering targets are plain text (terminal) and standalone SVG.

use crate::runner::{Op, OpKind, Resource, SimResult};
use repwf_core::model::{CommModel, Instance};
use std::fmt::Write as _;

/// One bar of the chart.
#[derive(Debug, Clone, PartialEq)]
pub struct Bar {
    /// Row resource.
    pub resource: Resource,
    /// Data set the operation serves.
    pub data_set: u64,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
    /// Short label, e.g. `S1 (4)` or `F0 (7)`.
    pub label: String,
}

/// A Gantt chart: an ordered list of resource rows and their bars.
#[derive(Debug, Clone)]
pub struct Gantt {
    /// Rows in display order (paper order: per processor — in-port, CPU,
    /// out-port — only the rows that exist for the model).
    pub rows: Vec<Resource>,
    /// All bars.
    pub bars: Vec<Bar>,
    /// Time horizon (max end).
    pub horizon: f64,
}

/// Builds a Gantt chart from a recorded simulation, keeping operations whose
/// interval intersects `[t0, t1)`.
pub fn build(inst: &Instance, model: CommModel, sim: &SimResult, t0: f64, t1: f64) -> Gantt {
    assert!(!sim.ops.is_empty(), "simulate with record_ops = true to build a Gantt chart");
    let mut bars = Vec::new();
    let mut push = |resource: Resource, op: &Op, label: String| {
        if op.end > t0 && op.start < t1 {
            bars.push(Bar { resource, data_set: op.data_set, start: op.start, end: op.end, label });
        }
    };
    for op in &sim.ops {
        match op.kind {
            OpKind::Compute { stage } => {
                let u = proc_of_compute(inst, stage, op.data_set);
                push(Resource::Cpu(u), op, format!("S{stage}({})", op.data_set));
            }
            OpKind::Transfer { file, from, to } => match model {
                CommModel::Overlap => {
                    push(Resource::OutPort(from), op, format!("F{file}({})", op.data_set));
                    push(Resource::InPort(to), op, format!("F{file}({})", op.data_set));
                }
                CommModel::Strict => {
                    push(Resource::Cpu(from), op, format!("F{file}({})→", op.data_set));
                    push(Resource::Cpu(to), op, format!("→F{file}({})", op.data_set));
                }
            },
        }
    }

    // Display order: processors in stage order; per proc: in, cpu, out.
    // Port rows exist only where the stage actually receives or sends
    // (sources have no in-port, sinks no out-port). A stage with several
    // in- or out-edges shares one display row per processor side.
    let mut rows = Vec::new();
    for i in 0..inst.num_stages() {
        let wf = &inst.pipeline;
        for &u in inst.mapping.procs(i) {
            if model == CommModel::Overlap && !wf.in_edges(i).is_empty() {
                rows.push(Resource::InPort(u));
            }
            rows.push(Resource::Cpu(u));
            if model == CommModel::Overlap && !wf.out_edges(i).is_empty() {
                rows.push(Resource::OutPort(u));
            }
        }
    }
    let horizon = bars.iter().map(|b| b.end).fold(t0, f64::max).min(t1);
    Gantt { rows, bars, horizon }
}

fn proc_of_compute(inst: &Instance, stage: usize, data_set: u64) -> usize {
    inst.proc_for(stage, data_set)
}

fn row_name(r: Resource) -> String {
    match r {
        Resource::InPort(u) => format!("P{u} in"),
        Resource::Cpu(u) => format!("P{u}"),
        Resource::OutPort(u) => format!("P{u} out"),
    }
}

impl Gantt {
    /// Renders as fixed-width ASCII art, `width` characters of timeline.
    pub fn to_ascii(&self, width: usize) -> String {
        let t0 = self.bars.iter().map(|b| b.start).fold(f64::INFINITY, f64::min).max(0.0);
        let span = (self.horizon - t0).max(1e-9);
        let scale = width as f64 / span;
        let mut out = String::new();
        let name_w = self.rows.iter().map(|&r| row_name(r).len()).max().unwrap_or(4).max(4);
        let header = format!("{t0:.0} .. {:.0}", self.horizon);
        let _ = writeln!(out, "{:name_w$} |{header}|", "time");
        for &row in &self.rows {
            let mut line = vec![b' '; width];
            for b in self.bars.iter().filter(|b| b.resource == row) {
                let s = (((b.start - t0) * scale).floor() as usize).min(width.saturating_sub(1));
                let e = (((b.end - t0) * scale).ceil() as usize).clamp(s + 1, width);
                let glyph = match row {
                    Resource::Cpu(_) => b'#',
                    Resource::InPort(_) => b'<',
                    Resource::OutPort(_) => b'>',
                };
                for cell in &mut line[s..e] {
                    *cell = glyph;
                }
            }
            let _ = writeln!(
                out,
                "{:name_w$} |{}|",
                row_name(row),
                String::from_utf8(line).expect("ascii")
            );
        }
        out
    }

    /// Renders as a standalone SVG document.
    pub fn to_svg(&self) -> String {
        let t0 = self.bars.iter().map(|b| b.start).fold(f64::INFINITY, f64::min).max(0.0);
        let span = (self.horizon - t0).max(1e-9);
        let (w, row_h, left) = (1000.0, 22.0, 70.0);
        let h = row_h * self.rows.len() as f64 + 30.0;
        let scale = (w - left - 10.0) / span;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" font-family=\"monospace\" font-size=\"10\">"
        );
        for (k, &row) in self.rows.iter().enumerate() {
            let y = 20.0 + k as f64 * row_h;
            let _ = writeln!(s, "<text x=\"2\" y=\"{}\">{}</text>", y + row_h * 0.7, row_name(row));
            let _ = writeln!(
                s,
                "<line x1=\"{left}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"#ccc\"/>",
                y + row_h,
                w - 5.0,
                y + row_h
            );
            for b in self.bars.iter().filter(|b| b.resource == row) {
                let x = left + (b.start - t0) * scale;
                let bw = ((b.end - b.start) * scale).max(1.0);
                let fill = match row {
                    Resource::Cpu(_) => "#7aa6da",
                    Resource::InPort(_) => "#b9ca4a",
                    Resource::OutPort(_) => "#e78c45",
                };
                let _ = writeln!(
                    s,
                    "<rect x=\"{x:.2}\" y=\"{:.2}\" width=\"{bw:.2}\" height=\"{:.2}\" fill=\"{fill}\" stroke=\"#333\" stroke-width=\"0.5\"><title>{} [{:.1}, {:.1}]</title></rect>",
                    y + 2.0,
                    row_h - 4.0,
                    b.label,
                    b.start,
                    b.end
                );
                if bw > 28.0 {
                    let _ = writeln!(
                        s,
                        "<text x=\"{:.2}\" y=\"{:.2}\" font-size=\"8\">{}</text>",
                        x + 2.0,
                        y + row_h * 0.65,
                        b.label
                    );
                }
            }
        }
        let _ = writeln!(s, "</svg>");
        s
    }

    /// Idle fraction of a resource over `[t0, horizon]`: 1 − busy/span.
    /// The paper's "no critical resource" situation means every resource has
    /// a strictly positive idle fraction in steady state.
    pub fn idle_fraction(&self, resource: Resource, t0: f64) -> f64 {
        let span = (self.horizon - t0).max(1e-12);
        let busy: f64 = self
            .bars
            .iter()
            .filter(|b| b.resource == resource)
            .map(|b| (b.end.min(self.horizon) - b.start.max(t0)).max(0.0))
            .sum();
        1.0 - (busy / span).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{simulate, SimOptions};
    use repwf_core::model::{Mapping, Pipeline, Platform};

    fn small() -> Instance {
        let pipeline = Pipeline::new(vec![4.0, 6.0], vec![2.0]).unwrap();
        let platform = Platform::uniform(3, 1.0, 1.0);
        let mapping = Mapping::new(vec![vec![0], vec![1, 2]]).unwrap();
        Instance::new(pipeline, platform, mapping).unwrap()
    }

    fn chart(model: CommModel) -> Gantt {
        let inst = small();
        let sim = simulate(&inst, model, &SimOptions { data_sets: 40, record_ops: true });
        build(&inst, model, &sim, 0.0, 200.0)
    }

    #[test]
    fn overlap_rows_include_ports() {
        let g = chart(CommModel::Overlap);
        assert!(g.rows.contains(&Resource::OutPort(0)));
        assert!(g.rows.contains(&Resource::InPort(1)));
        assert!(!g.rows.contains(&Resource::InPort(0)), "first stage receives nothing");
    }

    #[test]
    fn strict_rows_are_cpus_only() {
        let g = chart(CommModel::Strict);
        assert!(g.rows.iter().all(|r| matches!(r, Resource::Cpu(_))));
    }

    #[test]
    fn ascii_has_all_rows() {
        let g = chart(CommModel::Overlap);
        let art = g.to_ascii(100);
        assert!(art.contains("P0 out"));
        assert!(art.contains("P1 in"));
        assert!(art.lines().count() >= g.rows.len());
    }

    #[test]
    fn svg_is_well_formed_enough() {
        let g = chart(CommModel::Overlap);
        let svg = g.to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.matches("<rect").count() > 10);
    }

    #[test]
    fn cpu_bars_do_not_overlap() {
        let g = chart(CommModel::Strict);
        for &row in &g.rows {
            let mut bars: Vec<&Bar> = g.bars.iter().filter(|b| b.resource == row).collect();
            bars.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
            for w in bars.windows(2) {
                // Transfers appear on both procs; same-time shared bars are
                // identical intervals, which is fine — check non-crossing.
                assert!(w[1].start >= w[0].end - 1e-9 || (w[1].start == w[0].start));
            }
        }
    }

    #[test]
    fn idle_fraction_bounds() {
        let g = chart(CommModel::Overlap);
        for &r in &g.rows {
            let f = g.idle_fraction(r, 0.0);
            assert!((0.0..=1.0).contains(&f), "idle {f}");
        }
    }
}
