//! Outcome statistics: quantiles, histograms and per-experiment dumps for
//! campaign results.

use crate::campaign::CampaignResult;
use std::fmt::Write as _;

/// Basic order statistics of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantiles {
    /// Smallest value.
    pub min: f64,
    /// 25th percentile.
    pub q25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q75: f64,
    /// Largest value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Computes quantiles of a non-empty sample (linear interpolation).
pub fn quantiles(sample: &[f64]) -> Quantiles {
    assert!(!sample.is_empty(), "empty sample");
    let mut s = sample.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let at = |q: f64| -> f64 {
        let pos = q * (s.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        s[lo] * (1.0 - frac) + s[hi] * frac
    };
    Quantiles {
        min: s[0],
        q25: at(0.25),
        median: at(0.5),
        q75: at(0.75),
        max: s[s.len() - 1],
        mean: s.iter().sum::<f64>() / s.len() as f64,
    }
}

/// An ASCII histogram of a sample over `bins` equal-width bins.
pub fn histogram(sample: &[f64], bins: usize, width: usize) -> String {
    assert!(bins >= 1 && !sample.is_empty());
    let min = sample.iter().copied().fold(f64::INFINITY, f64::min);
    let max = sample.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    let mut counts = vec![0usize; bins];
    for &v in sample {
        let k = (((v - min) / span) * bins as f64) as usize;
        counts[k.min(bins - 1)] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (k, &c) in counts.iter().enumerate() {
        let lo = min + span * k as f64 / bins as f64;
        let hi = min + span * (k + 1) as f64 / bins as f64;
        let bar = "#".repeat(c * width / peak);
        let _ = writeln!(out, "[{lo:>10.3}, {hi:>10.3}) {c:>6} {bar}");
    }
    out
}

/// Per-experiment CSV dump of a campaign (seed, m, M_ct, period, gap).
pub fn outcomes_csv(res: &CampaignResult) -> String {
    let mut out = String::from("seed,num_paths,mct,period,gap,resolution\n");
    for o in &res.outcomes {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{:?}",
            o.seed,
            o.num_paths,
            o.mct,
            o.period,
            o.gap(),
            o.resolution
        );
    }
    out
}

/// Gap distribution of a campaign (only experiments with a strictly
/// positive **finite** gap), or `None` when nothing survives — either
/// every experiment had a critical resource, or the only positive gaps
/// were non-finite (degenerate draws: an infinite simulator-fallback
/// period yields gap ∞, which would otherwise reach [`quantiles`]' sort
/// and poison — or, combined with NaN, panic — the order statistics).
pub fn gap_quantiles(res: &CampaignResult, rel_tol: f64) -> Option<Quantiles> {
    let gaps: Vec<f64> = res
        .outcomes
        .iter()
        .filter(|o| o.no_critical_resource(rel_tol))
        .map(|o| o.gap())
        .filter(|&g| crate::agg::countable_gap(g))
        .collect();
    if gaps.is_empty() {
        None
    } else {
        Some(quantiles(&gaps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign_batched;
    use crate::sampler::{GenConfig, Range};
    use repwf_core::model::CommModel;

    #[test]
    fn quantiles_of_known_sample() {
        let q = quantiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(q.min, 1.0);
        assert_eq!(q.median, 3.0);
        assert_eq!(q.max, 5.0);
        assert_eq!(q.mean, 3.0);
        assert_eq!(q.q25, 2.0);
        assert_eq!(q.q75, 4.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let q = quantiles(&[0.0, 10.0]);
        assert_eq!(q.median, 5.0);
        assert_eq!(q.q25, 2.5);
    }

    #[test]
    fn histogram_shape() {
        let sample = [1.0, 1.1, 1.2, 9.0];
        let h = histogram(&sample, 2, 20);
        let lines: Vec<&str> = h.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("     3"));
        assert!(lines[1].contains("     1"));
    }

    #[test]
    fn histogram_constant_sample() {
        let h = histogram(&[2.0, 2.0, 2.0], 3, 10);
        assert_eq!(h.lines().count(), 3);
    }

    #[test]
    fn gap_quantiles_filter_non_finite_gaps() {
        use crate::campaign::{ExperimentOutcome, Resolution};
        let outcome = |mct: f64, period: f64| ExperimentOutcome {
            seed: 0,
            mct,
            period,
            resolution: Resolution::Simulated,
            num_paths: 2,
        };
        // Only non-finite positive gaps: nothing survives the filter.
        let degenerate =
            CampaignResult { outcomes: vec![outcome(10.0, f64::INFINITY), outcome(10.0, 10.0)] };
        assert_eq!(gap_quantiles(&degenerate, 1e-7), None);
        // Mixed: the order statistics come from the finite gaps alone.
        let mixed = CampaignResult {
            outcomes: vec![outcome(10.0, f64::INFINITY), outcome(10.0, 11.0), outcome(10.0, 12.0)],
        };
        let q = gap_quantiles(&mixed, 1e-7).expect("finite gaps survive");
        assert!((q.min - 0.1).abs() < 1e-12);
        assert!((q.max - 0.2).abs() < 1e-12);
        assert!(q.mean.is_finite());
    }

    #[test]
    fn campaign_csv_and_gaps() {
        let cfg = GenConfig {
            stages: 2,
            procs: 7,
            comp: Range::constant(1.0),
            comm: Range::new(5.0, 10.0),
        };
        let res = run_campaign_batched(&cfg, CommModel::Strict, 40, 1, 4, 200_000);
        let csv = outcomes_csv(&res);
        assert_eq!(csv.lines().count(), 41);
        assert!(csv.starts_with("seed,"));
        if let Some(q) = gap_quantiles(&res, 1e-7) {
            assert!(q.min > 0.0);
            assert!(q.max >= q.median && q.median >= q.min);
        }
    }
}
