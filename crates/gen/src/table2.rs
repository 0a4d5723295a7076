//! The twelve experiment families of the paper's Table 2.
//!
//! Each row fixes (sizes, computation range, communication range, model)
//! and reports how many of the experiments have **no** critical resource.
//! Rows pairing two platform sizes ("(10, 20) and (10, 30)") split their
//! experiment count evenly between the two sizes, matching the paper's
//! grand total of 5152 experiments.

use crate::campaign::{run_spec, CampaignAccum, CampaignSpec, ExperimentOutcome};
use crate::sampler::{GenConfig, Range, Topology};
use repwf_core::model::CommModel;
use std::fmt::Write as _;

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Communication model.
    pub model: CommModel,
    /// `(stages, procs)` pairs the row aggregates.
    pub sizes: Vec<(usize, usize)>,
    /// Computation-time range.
    pub comp: Range,
    /// Communication-time range.
    pub comm: Range,
    /// Total experiment count of the row in the paper.
    pub paper_count: usize,
    /// The paper's reported `#no-critical / total` numerator.
    pub paper_no_critical: usize,
    /// The paper's reported maximum gap (`None` when no case was found).
    pub paper_max_gap_pct: Option<f64>,
}

impl Table2Row {
    /// Experiments the row runs at a `scale` fraction of the paper's
    /// count: the same number (at least one) for each of its sizes.
    pub fn experiments(&self, scale: f64) -> usize {
        self.per_size(scale) * self.sizes.len()
    }

    fn per_size(&self, scale: f64) -> usize {
        ((self.paper_count as f64 * scale / self.sizes.len() as f64).round() as usize).max(1)
    }
}

/// The twelve rows of Table 2 (six per model), in paper order.
pub fn table2_rows() -> Vec<Table2Row> {
    let mut rows = Vec::new();
    for (model, data) in [
        (
            CommModel::Overlap,
            [(0usize, None), (0, None), (0, None), (0, None), (0, None), (0, None)],
        ),
        (
            CommModel::Strict,
            [
                (14usize, Some(9.0)),
                (0, None),
                (5, Some(7.0)),
                (0, None),
                (10, Some(3.0)),
                (0, None),
            ],
        ),
    ] {
        type RowSpec = (Vec<(usize, usize)>, Range, Range, usize);
        let specs: [RowSpec; 6] = [
            (vec![(10, 20), (10, 30)], Range::new(5.0, 15.0), Range::new(5.0, 15.0), 220),
            (vec![(10, 20), (10, 30)], Range::new(10.0, 1000.0), Range::new(10.0, 1000.0), 220),
            (vec![(20, 30)], Range::new(5.0, 15.0), Range::new(5.0, 15.0), 68),
            (vec![(20, 30)], Range::new(10.0, 1000.0), Range::new(10.0, 1000.0), 68),
            (vec![(2, 7), (3, 7)], Range::constant(1.0), Range::new(5.0, 10.0), 1000),
            (vec![(2, 7), (3, 7)], Range::constant(1.0), Range::new(10.0, 50.0), 1000),
        ];
        for (k, (sizes, comp, comm, count)) in specs.into_iter().enumerate() {
            rows.push(Table2Row {
                model,
                sizes,
                comp,
                comm,
                paper_count: count,
                paper_no_critical: data[k].0,
                paper_max_gap_pct: data[k].1,
            });
        }
    }
    rows
}

/// Result of re-running one row.
#[derive(Debug, Clone)]
pub struct RowResult {
    /// The row specification.
    pub row: Table2Row,
    /// Experiments actually run.
    pub total: usize,
    /// Experiments without a critical resource.
    pub no_critical: usize,
    /// Maximum relative gap in percent.
    pub max_gap_pct: f64,
    /// Experiments resolved by the simulator fallback.
    pub simulated: usize,
}

/// Runs one row at a `scale` fraction of the paper's count (≥ 1 experiment
/// per size), distributing seeds deterministically.
pub fn run_row(
    row: &Table2Row,
    scale: f64,
    seed_base: u64,
    threads: usize,
    cap: usize,
) -> RowResult {
    run_row_with(row, scale, seed_base, threads, cap, |_| {})
}

/// [`run_row`] handing every outcome to `sink`: size sub-campaign by size
/// sub-campaign, each in seed order.
pub fn run_row_with(
    row: &Table2Row,
    scale: f64,
    seed_base: u64,
    threads: usize,
    cap: usize,
    mut sink: impl FnMut(&ExperimentOutcome) + Send,
) -> RowResult {
    let mut accum = CampaignAccum::new();
    for (k, &(stages, procs)) in row.sizes.iter().enumerate() {
        let spec = CampaignSpec {
            cfg: GenConfig { stages, procs, comp: row.comp, comm: row.comm },
            model: row.model,
            count: row.per_size(scale),
            seed_base: seed_base + 1_000_000 * k as u64,
            cap,
        };
        run_spec(&spec, &Topology::chain(stages), threads, |outcome| {
            accum.push(outcome);
            sink(outcome);
        });
    }
    RowResult {
        row: row.clone(),
        total: accum.done,
        no_critical: accum.no_critical,
        max_gap_pct: accum.max_gap() * 100.0,
        simulated: accum.simulated,
    }
}

/// Formats row results as an aligned console table mirroring Table 2.
pub fn format_results(results: &[RowResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<22} {:<12} {:<12} {:>14} {:>10} {:>10}",
        "model", "sizes", "comp", "comm", "no-crit/total", "max gap%", "paper"
    );
    for r in results {
        let sizes =
            r.row.sizes.iter().map(|&(s, p)| format!("({s},{p})")).collect::<Vec<_>>().join("+");
        let model = match r.row.model {
            CommModel::Overlap => "overlap",
            CommModel::Strict => "strict",
        };
        let paper = format!("{}/{}", r.row.paper_no_critical, r.row.paper_count);
        let _ = writeln!(
            out,
            "{:<8} {:<22} {:<12} {:<12} {:>14} {:>10.2} {:>10}",
            model,
            sizes,
            format!("{}..{}", r.row.comp.lo, r.row.comp.hi),
            format!("{}..{}", r.row.comm.lo, r.row.comm.hi),
            format!("{}/{}", r.no_critical, r.total),
            r.max_gap_pct,
            paper
        );
    }
    out
}

/// Formats row results as CSV.
pub fn to_csv(results: &[RowResult]) -> String {
    let mut out = String::from(
        "model,sizes,comp_lo,comp_hi,comm_lo,comm_hi,total,no_critical,max_gap_pct,simulated,paper_no_critical,paper_total\n",
    );
    for r in results {
        let sizes =
            r.row.sizes.iter().map(|&(s, p)| format!("{s}x{p}")).collect::<Vec<_>>().join("+");
        let model = match r.row.model {
            CommModel::Overlap => "overlap",
            CommModel::Strict => "strict",
        };
        let _ = writeln!(
            out,
            "{model},{sizes},{},{},{},{},{},{},{:.4},{},{},{}",
            r.row.comp.lo,
            r.row.comp.hi,
            r.row.comm.lo,
            r.row.comm.hi,
            r.total,
            r.no_critical,
            r.max_gap_pct,
            r.simulated,
            r.row.paper_no_critical,
            r.row.paper_count
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_rows_totalling_5152() {
        let rows = table2_rows();
        assert_eq!(rows.len(), 12);
        let total: usize = rows.iter().map(|r| r.paper_count).sum();
        assert_eq!(total, 5152);
        // No overlap-model case without critical resource was found in the
        // paper, all reported cases are strict.
        assert!(rows
            .iter()
            .filter(|r| r.model == CommModel::Overlap)
            .all(|r| r.paper_no_critical == 0));
        let strict_cases: usize =
            rows.iter().filter(|r| r.model == CommModel::Strict).map(|r| r.paper_no_critical).sum();
        assert_eq!(strict_cases, 14 + 5 + 10);
    }

    #[test]
    fn tiny_row_run_smoke() {
        let rows = table2_rows();
        // Smallest strict row at 1% scale: a handful of (2,7)/(3,7) runs.
        let r = run_row(&rows[10], 0.004, 42, 2, 100_000);
        assert!(r.total >= 2);
        assert!(r.no_critical <= r.total);
        let txt = format_results(std::slice::from_ref(&r));
        assert!(txt.contains("strict"));
        let csv = to_csv(&[r]);
        assert!(csv.lines().count() == 2);
    }
}
