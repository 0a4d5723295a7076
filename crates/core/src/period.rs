//! The unified period-computation API.
//!
//! Every method returns the **per-data-set period** `P̂` (the paper reports
//! all its numbers in this normalization; the raw TPN critical-cycle ratio
//! is `m·P̂` since all `m` rows complete per TPN period).

use crate::model::{CommModel, Instance, ModelError};
use crate::tpn_build::{BuildError, BuildOptions};
use std::fmt;
use tpn::analysis::AnalysisError;

/// How to compute the period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Method {
    /// Pick automatically: `M_ct` fast path for one-to-one mappings, the
    /// Theorem 1 polynomial algorithm for the overlap model, the full TPN
    /// for the strict model.
    #[default]
    Auto,
    /// Build the full `m × (2n−1)` TPN and run Howard's iteration. Exact
    /// for both models; cost grows with `m = lcm(m_0,…,m_{n−1})`.
    FullTpn,
    /// Theorem 1 polynomial algorithm. **Overlap model only.**
    Polynomial,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Method::Auto => write!(f, "auto"),
            Method::FullTpn => write!(f, "full-tpn"),
            Method::Polynomial => write!(f, "polynomial"),
        }
    }
}

/// Result of a period computation.
#[derive(Debug, Clone)]
pub struct PeriodReport {
    /// Per-data-set period `P̂` (inverse of the throughput).
    pub period: f64,
    /// Maximum resource cycle-time `M_ct` (per data set) — always ≤ `period`.
    pub mct: f64,
    /// Communication model analyzed.
    pub model: CommModel,
    /// Method actually used (after `Auto` resolution).
    pub method: Method,
    /// Number of distinct data-set paths `m` (TPN row count).
    pub num_paths: u128,
    /// Human-readable description of the critical resource / circuit.
    pub critical: String,
}

impl PeriodReport {
    /// Throughput `ρ = 1/P̂` in data sets per time unit.
    pub fn throughput(&self) -> f64 {
        1.0 / self.period
    }

    /// True iff some resource is critical: the period equals `M_ct` (within
    /// `rel_tol`). When false the mapping exhibits the paper's surprising
    /// regime where *every* resource idles during each period.
    pub fn has_critical_resource(&self, rel_tol: f64) -> bool {
        self.period - self.mct <= rel_tol * self.mct.abs().max(f64::MIN_POSITIVE)
    }
}

/// Errors from [`compute_period`].
#[derive(Debug, Clone, PartialEq)]
pub enum PeriodError {
    /// The (pipeline, platform, mapping) triple failed validation — only
    /// produced by the mapping-oracle entry points
    /// ([`crate::engine::PeriodEngine::compute_mapping`],
    /// [`crate::engine::MappingOracle`]), which validate candidates
    /// instead of requiring a pre-validated [`Instance`].
    Model(ModelError),
    /// TPN construction failed (too large / overflow).
    Build(BuildError),
    /// TPN analysis failed (deadlock cannot happen for well-formed
    /// mappings; numeric trouble is reported).
    Analysis(String),
    /// [`Method::Polynomial`] requested for the strict model, which has no
    /// known polynomial algorithm (open problem per the paper).
    PolynomialNeedsOverlap,
}

impl fmt::Display for PeriodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeriodError::Model(e) => write!(f, "{e}"),
            PeriodError::Build(e) => write!(f, "{e}"),
            PeriodError::Analysis(e) => write!(f, "{e}"),
            PeriodError::PolynomialNeedsOverlap => {
                write!(f, "the polynomial method only applies to the overlap one-port model")
            }
        }
    }
}

impl std::error::Error for PeriodError {}

impl From<BuildError> for PeriodError {
    fn from(e: BuildError) -> Self {
        PeriodError::Build(e)
    }
}

impl From<ModelError> for PeriodError {
    fn from(e: ModelError) -> Self {
        PeriodError::Model(e)
    }
}

impl From<AnalysisError> for PeriodError {
    fn from(e: AnalysisError) -> Self {
        PeriodError::Analysis(e.to_string())
    }
}

/// Computes the per-data-set period of a mapped workflow.
pub fn compute_period(
    inst: &Instance,
    model: CommModel,
    method: Method,
) -> Result<PeriodReport, PeriodError> {
    compute_period_with(inst, model, method, &BuildOptions { labels: false, ..Default::default() })
}

/// [`compute_period`] with explicit TPN build options (labels, size cap).
///
/// One-shot convenience: builds a fresh [`crate::engine::PeriodEngine`]
/// per call. Hot loops (campaigns, mapping searches) should hold an engine
/// and reuse it — same results, no per-call allocation.
pub fn compute_period_with(
    inst: &Instance,
    model: CommModel,
    method: Method,
    opts: &BuildOptions,
) -> Result<PeriodReport, PeriodError> {
    crate::engine::PeriodEngine::with_options(opts.clone()).compute(inst, model, method)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Mapping, Pipeline, Platform};

    fn inst(replicas: &[usize], work: f64, file: f64) -> Instance {
        let n = replicas.len();
        let pipeline = Pipeline::new(vec![work; n], vec![file; n - 1]).unwrap();
        let p: usize = replicas.iter().sum();
        let platform = Platform::uniform(p, 1.0, 1.0);
        let mut next = 0;
        let assignment: Vec<Vec<usize>> = replicas
            .iter()
            .map(|&m| {
                let procs: Vec<usize> = (next..next + m).collect();
                next += m;
                procs
            })
            .collect();
        Instance::new(pipeline, platform, Mapping::new(assignment).unwrap()).unwrap()
    }

    #[test]
    fn one_to_one_fast_path() {
        let i = inst(&[1, 1], 4.0, 9.0);
        for model in [CommModel::Overlap, CommModel::Strict] {
            let r = compute_period(&i, model, Method::Auto).unwrap();
            assert!(r.has_critical_resource(1e-9));
            let expected = match model {
                CommModel::Overlap => 9.0,      // max(4, 9)
                CommModel::Strict => 4.0 + 9.0, // sender: comp + send
            };
            assert!((r.period - expected).abs() < 1e-12, "{model}: {}", r.period);
        }
    }

    #[test]
    fn methods_agree_overlap() {
        let i = inst(&[2, 3], 5.0, 4.0);
        let poly = compute_period(&i, CommModel::Overlap, Method::Polynomial).unwrap();
        let full = compute_period(&i, CommModel::Overlap, Method::FullTpn).unwrap();
        assert!((poly.period - full.period).abs() < 1e-9, "{} vs {}", poly.period, full.period);
    }

    #[test]
    fn strict_full_tpn_runs() {
        let i = inst(&[2, 3], 5.0, 4.0);
        let full = compute_period(&i, CommModel::Strict, Method::FullTpn).unwrap();
        assert!(full.period >= full.mct - 1e-9);
    }

    #[test]
    fn polynomial_rejects_strict() {
        let i = inst(&[2, 2], 1.0, 1.0);
        assert!(matches!(
            compute_period(&i, CommModel::Strict, Method::Polynomial),
            Err(PeriodError::PolynomialNeedsOverlap)
        ));
    }

    #[test]
    fn strict_at_least_overlap() {
        // The strict model serializes more: its period can never beat the
        // overlap model on the same instance.
        let i = inst(&[2, 3, 2], 3.0, 2.0);
        let ov = compute_period(&i, CommModel::Overlap, Method::Auto).unwrap();
        let st = compute_period(&i, CommModel::Strict, Method::Auto).unwrap();
        assert!(st.period >= ov.period - 1e-9);
    }

    #[test]
    fn throughput_is_inverse() {
        let i = inst(&[1, 2], 4.0, 1.0);
        let r = compute_period(&i, CommModel::Overlap, Method::Auto).unwrap();
        assert!((r.throughput() * r.period - 1.0).abs() < 1e-12);
    }
}
