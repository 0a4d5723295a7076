//! Exhaustive enumeration of the replica-assignment space — the **test
//! oracle** for [`crate::exact`].
//!
//! This module exists so the branch-and-bound solver has something
//! independent to be differentially tested against: it walks the same
//! canonically-ordered space (per-stage ordered tuples, prefixes before
//! extensions, processors in ascending id order) but evaluates **every**
//! leaf with a cold oracle — no bounds, no pruning, no warm starts, no
//! parallelism. It is exponentially slow by design; use it only on tiny
//! instances (the property suite stays at `n ≤ 4`, `p ≤ 5`) and never
//! from production paths — [`crate::exact::solve`] returns the same
//! optimum with pruning.

use crate::exact::ExactError;
use repwf_core::engine::MappingOracle;
use repwf_core::model::{CommModel, Mapping, Pipeline, Platform};
use repwf_core::period::{Method, PeriodError};

/// The outcome of exhaustive enumeration.
#[derive(Debug, Clone)]
pub struct EnumResult {
    /// The optimal mapping and period under the same canonical tie-break
    /// as [`crate::exact::solve`] (lexicographically smallest assignment
    /// among period-optimal ones), or `None` if every leaf is infeasible.
    pub best: Option<(Mapping, f64)>,
    /// Leaves visited (equals [`crate::exact::search_space_size`]).
    pub leaves: u64,
    /// Leaves whose period was computed (feasible ones).
    pub evaluated: u64,
    /// Leaves rejected as infeasible.
    pub infeasible: u64,
}

/// Merges two incumbents: smaller period wins; on an exact period tie the
/// lexicographically smaller assignment wins. Associative and
/// commutative (periods are compared exactly, assignments totally), so
/// any fold order yields the same answer — `exact` relies on this for
/// its deterministic task merge.
pub(crate) fn better_incumbent(
    a: Option<(Mapping, f64)>,
    b: Option<(Mapping, f64)>,
) -> Option<(Mapping, f64)> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(x), Some(y)) => {
            if y.1 < x.1 || (y.1 == x.1 && y.0.assignment() < x.0.assignment()) {
                Some(y)
            } else {
                Some(x)
            }
        }
    }
}

struct Walker<'a> {
    oracle: MappingOracle<'a>,
    model: CommModel,
    n: usize,
    p: usize,
    assignment: Vec<Vec<usize>>,
    used: Vec<bool>,
    avail: usize,
    result: EnumResult,
}

impl Walker<'_> {
    fn stage(&mut self, i: usize) -> Result<(), ExactError> {
        if !self.assignment[i].is_empty() {
            if i + 1 == self.n {
                self.leaf()?;
            } else {
                self.stage(i + 1)?;
            }
        }
        if self.avail > self.n - 1 - i {
            for u in 0..self.p {
                if !self.used[u] {
                    self.assignment[i].push(u);
                    self.used[u] = true;
                    self.avail -= 1;
                    self.stage(i)?;
                    self.avail += 1;
                    self.used[u] = false;
                    self.assignment[i].pop();
                }
            }
        }
        Ok(())
    }

    fn leaf(&mut self) -> Result<(), ExactError> {
        self.result.leaves += 1;
        let mapping = Mapping::new(self.assignment.clone())
            .expect("enumeration builds structurally valid mappings");
        match self.oracle.compute(&mapping, self.model, Method::Auto) {
            Ok(r) => {
                self.result.evaluated += 1;
                self.result.best =
                    better_incumbent(self.result.best.take(), Some((mapping, r.period)));
                Ok(())
            }
            Err(PeriodError::Model(_)) => {
                self.result.infeasible += 1;
                Ok(())
            }
            Err(PeriodError::Build(error)) => Err(ExactError::CandidateTooLarge { mapping, error }),
            Err(e) => Err(ExactError::Analysis { mapping, message: e.to_string() }),
        }
    }
}

/// Computes the true optimum by brute force (see the module docs for why
/// this exists and when not to use it). Shares [`crate::exact::solve`]'s
/// exactness discipline: a leaf that would need the simulator fallback
/// aborts with [`ExactError::CandidateTooLarge`].
pub fn optimum(
    pipeline: &Pipeline,
    platform: &Platform,
    model: CommModel,
) -> Result<EnumResult, ExactError> {
    let n = pipeline.num_stages();
    let p = platform.num_procs();
    let mut walker = Walker {
        oracle: MappingOracle::new(pipeline, platform),
        model,
        n,
        p,
        assignment: vec![Vec::new(); n],
        used: vec![false; p],
        avail: p,
        result: EnumResult { best: None, leaves: 0, evaluated: 0, infeasible: 0 },
    };
    if p >= n {
        walker.stage(0)?;
    }
    Ok(walker.result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::search_space_size;

    #[test]
    fn leaf_count_matches_the_closed_form() {
        let pipe = Pipeline::new(vec![3.0, 5.0], vec![0.5]).unwrap();
        let plat = Platform::uniform(4, 1.0, 10.0);
        let res = optimum(&pipe, &plat, CommModel::Overlap).unwrap();
        assert_eq!(res.leaves as u128, search_space_size(2, 4).unwrap());
        assert_eq!(res.leaves, res.evaluated + res.infeasible);
    }

    #[test]
    fn tie_break_picks_the_lexicographically_smaller_assignment() {
        let a = Mapping::new(vec![vec![0], vec![1]]).unwrap();
        let b = Mapping::new(vec![vec![1], vec![0]]).unwrap();
        let merged = better_incumbent(Some((b.clone(), 2.0)), Some((a.clone(), 2.0)));
        assert_eq!(merged.unwrap().0, a);
        let merged = better_incumbent(Some((a.clone(), 2.0)), Some((b, 3.0)));
        assert_eq!(merged.unwrap().0, a);
    }
}
