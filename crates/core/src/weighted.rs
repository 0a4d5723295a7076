//! Weighted (non-uniform) round-robin allocation — an extension.
//!
//! §2 of the paper notes that plain round-robin "may lead to a load
//! imbalance: more data sets could be allocated to faster processors", but
//! enforces uniform round-robin because all prior work does. This module
//! lifts the restriction while keeping everything analyzable: each stage
//! gets a periodic **allocation pattern** — a finite word over its replica
//! indices, e.g. `[0, 0, 1]` sends data sets `0, 1 (mod 3)` to replica 0
//! and data set `2 (mod 3)` to replica 1. Uniform round-robin is the
//! special case `[0, 1, …, m_i − 1]`.
//!
//! The timed-Petri-net model survives intact: the grid now has
//! `m = lcm(L_0, …, L_{n−1})` rows (patterns replace residues in
//! Proposition 1), and each resource's circuit chains *its* rows in
//! increasing order. The critical-cycle characterization and the
//! earliest-firing simulator carry over unchanged; only the Theorem 1
//! pattern decomposition is specific to uniform round-robin, so weighted
//! instances are analyzed through the full TPN (or the simulator).

use crate::model::{CommModel, Instance, ProcId};
use crate::paths::lcm;
use crate::tpn_build::{BuildError, BuildOptions, BuiltTpn};
use std::fmt;
use tpn::net::{TimedEventGraph, TransitionId};

/// A periodic allocation: `patterns[i]` is the word of replica indices for
/// stage `i` (indices into `mapping.procs(i)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedAllocation {
    patterns: Vec<Vec<usize>>,
}

/// Validation errors for allocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocationError {
    /// Pattern count must equal the stage count.
    StageCountMismatch {
        /// patterns provided
        patterns: usize,
        /// stages in the mapping
        stages: usize,
    },
    /// A pattern is empty.
    EmptyPattern(usize),
    /// A pattern references a replica index ≥ `m_i`.
    BadReplica {
        /// the stage
        stage: usize,
        /// the offending replica index
        replica: usize,
    },
    /// A replica is never used by its stage's pattern (it would idle
    /// forever; remove it from the mapping instead).
    UnusedReplica {
        /// the stage
        stage: usize,
        /// the never-scheduled replica
        replica: usize,
    },
}

impl fmt::Display for AllocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocationError::StageCountMismatch { patterns, stages } => {
                write!(f, "{patterns} patterns for {stages} stages")
            }
            AllocationError::EmptyPattern(i) => write!(f, "empty pattern for stage {i}"),
            AllocationError::BadReplica { stage, replica } => {
                write!(f, "stage {stage}: replica index {replica} out of range")
            }
            AllocationError::UnusedReplica { stage, replica } => {
                write!(f, "stage {stage}: replica {replica} never scheduled")
            }
        }
    }
}

impl std::error::Error for AllocationError {}

impl WeightedAllocation {
    /// Validates patterns against an instance's mapping.
    pub fn new(patterns: Vec<Vec<usize>>, inst: &Instance) -> Result<Self, AllocationError> {
        if patterns.len() != inst.num_stages() {
            return Err(AllocationError::StageCountMismatch {
                patterns: patterns.len(),
                stages: inst.num_stages(),
            });
        }
        for (i, pat) in patterns.iter().enumerate() {
            if pat.is_empty() {
                return Err(AllocationError::EmptyPattern(i));
            }
            let m_i = inst.mapping.replicas(i);
            for &r in pat {
                if r >= m_i {
                    return Err(AllocationError::BadReplica { stage: i, replica: r });
                }
            }
            for r in 0..m_i {
                if !pat.contains(&r) {
                    return Err(AllocationError::UnusedReplica { stage: i, replica: r });
                }
            }
        }
        Ok(WeightedAllocation { patterns })
    }

    /// The uniform round-robin allocation of an instance (pattern
    /// `[0, 1, …, m_i−1]` per stage).
    pub fn round_robin(inst: &Instance) -> Self {
        WeightedAllocation {
            patterns: (0..inst.num_stages())
                .map(|i| (0..inst.mapping.replicas(i)).collect())
                .collect(),
        }
    }

    /// Weight-proportional allocation: replica `r` of stage `i` appears
    /// `weights[i][r]` times, spread as evenly as possible (largest-
    /// remainder spacing keeps bursts short).
    pub fn proportional(weights: &[Vec<usize>], inst: &Instance) -> Result<Self, AllocationError> {
        let mut patterns = Vec::with_capacity(weights.len());
        for w in weights {
            let total: usize = w.iter().sum();
            let mut pat = Vec::with_capacity(total);
            // Interleave by a simple earliest-deadline scheme.
            let mut credit: Vec<f64> = vec![0.0; w.len()];
            for _ in 0..total {
                for (r, &wr) in w.iter().enumerate() {
                    credit[r] += wr as f64 / total as f64;
                }
                let r = (0..w.len())
                    .max_by(|&a, &b| credit[a].partial_cmp(&credit[b]).expect("finite"))
                    .expect("non-empty weights");
                credit[r] -= 1.0;
                pat.push(r);
            }
            patterns.push(pat);
        }
        WeightedAllocation::new(
            patterns,
            &Instance {
                pipeline: inst.pipeline.clone(),
                platform: inst.platform.clone(),
                mapping: inst.mapping.clone(),
            },
        )
    }

    /// Pattern of stage `i`.
    pub fn pattern(&self, i: usize) -> &[usize] {
        &self.patterns[i]
    }

    /// The number of TPN rows: `lcm` of the pattern lengths.
    pub fn num_rows(&self) -> Option<u128> {
        self.patterns.iter().try_fold(1u128, |acc, p| lcm(acc, p.len() as u128))
    }

    /// Processor serving stage `i` of data set `d`.
    pub fn proc_for(&self, inst: &Instance, i: usize, d: u64) -> ProcId {
        let pat = &self.patterns[i];
        inst.mapping.procs(i)[pat[(d % pat.len() as u64) as usize]]
    }
}

/// Builds the full TPN of a weighted-allocation mapping. Structure follows
/// `tpn_build` exactly, with "rows of replica β" generalized to "rows whose
/// pattern entry selects β".
pub fn build_weighted_tpn(
    inst: &Instance,
    alloc: &WeightedAllocation,
    model: CommModel,
    opts: &BuildOptions,
) -> Result<BuiltTpn, BuildError> {
    let n = inst.num_stages();
    let m = alloc.num_rows().ok_or(BuildError::PathCountOverflow)?;
    let cols = (2 * n - 1) as u128;
    let transitions = m.checked_mul(cols).ok_or(BuildError::PathCountOverflow)?;
    if transitions > opts.max_transitions as u128 {
        return Err(BuildError::TooLarge { m, transitions, cap: opts.max_transitions });
    }
    let (rows, cols) = (m as usize, cols as usize);
    let proc_at = |i: usize, j: usize| -> ProcId {
        let pat = alloc.pattern(i);
        inst.mapping.procs(i)[pat[j % pat.len()]]
    };

    let mut net = TimedEventGraph::with_capacity(rows * cols, rows * cols * 3);
    for j in 0..rows {
        for c in 0..cols {
            let i = c / 2;
            if c % 2 == 0 {
                let u = proc_at(i, j);
                let label = if opts.labels { format!("S{i}/P{u} r{j}") } else { String::new() };
                net.add_transition(inst.comp_time(i, u), label);
            } else {
                let u = proc_at(i, j);
                let v = proc_at(i + 1, j);
                let label =
                    if opts.labels { format!("F{i}:P{u}>P{v} r{j}") } else { String::new() };
                net.add_transition(inst.comm_time(i, u, v), label);
            }
        }
    }
    let at = |j: usize, c: usize| TransitionId((j * cols + c) as u32);
    for j in 0..rows {
        for c in 0..cols - 1 {
            net.add_place(at(j, c), at(j, c + 1), 0, String::new());
        }
    }
    let rows_of = |i: usize, beta: usize| -> Vec<usize> {
        (0..rows).filter(|&j| alloc.pattern(i)[j % alloc.pattern(i).len()] == beta).collect()
    };
    let circuit = |net: &mut TimedEventGraph, group: &[usize], c_from: usize, c_to: usize| {
        for w in 0..group.len() {
            let (a, b) = (group[w], group[(w + 1) % group.len()]);
            let tokens = u32::from(w + 1 == group.len());
            net.add_place(at(a, c_from), at(b, c_to), tokens, String::new());
        }
    };
    match model {
        CommModel::Overlap => {
            for i in 0..n {
                for beta in 0..inst.mapping.replicas(i) {
                    let group = rows_of(i, beta);
                    circuit(&mut net, &group, 2 * i, 2 * i);
                    if i + 1 < n {
                        circuit(&mut net, &group, 2 * i + 1, 2 * i + 1); // out-port
                    }
                    if i > 0 {
                        circuit(&mut net, &group, 2 * i - 1, 2 * i - 1); // in-port
                    }
                }
            }
        }
        CommModel::Strict => {
            for i in 0..n {
                let last_col = if i + 1 == n { 2 * i } else { 2 * i + 1 };
                let first_col = if i == 0 { 0 } else { 2 * i - 1 };
                for beta in 0..inst.mapping.replicas(i) {
                    let group = rows_of(i, beta);
                    circuit(&mut net, &group, last_col, first_col);
                }
            }
        }
    }
    Ok(BuiltTpn { net, rows, cols })
}

/// Per-data-set period of a weighted allocation, via the full TPN.
pub fn weighted_period(
    inst: &Instance,
    alloc: &WeightedAllocation,
    model: CommModel,
    opts: &BuildOptions,
) -> Result<f64, crate::period::PeriodError> {
    let built = build_weighted_tpn(inst, alloc, model, opts)?;
    let sol = tpn::analysis::period(&built.net)
        .map_err(|e| crate::period::PeriodError::Analysis(e.to_string()))?
        .expect("weighted TPNs contain circuits");
    Ok(sol.period / built.rows as f64)
}

/// Direct earliest-start simulation under a weighted allocation (mirrors
/// `repwf-sim`'s recurrences); returns the sustainable period estimate.
pub fn simulate_weighted(
    inst: &Instance,
    alloc: &WeightedAllocation,
    model: CommModel,
    data_sets: u64,
) -> f64 {
    let n = inst.num_stages();
    let p = inst.platform.num_procs();
    let mut cpu = vec![0.0f64; p];
    let mut inp = vec![0.0f64; p];
    let mut outp = vec![0.0f64; p];
    let mut completion = Vec::with_capacity(data_sets as usize);
    for d in 0..data_sets {
        let mut ready = 0.0f64;
        for i in 0..n {
            let u = alloc.proc_for(inst, i, d);
            let start = ready.max(cpu[u]);
            let end = start + inst.comp_time(i, u);
            cpu[u] = end;
            ready = end;
            if i + 1 < n {
                let v = alloc.proc_for(inst, i + 1, d);
                let tt = inst.comm_time(i, u, v);
                let start = match model {
                    CommModel::Overlap => ready.max(outp[u]).max(inp[v]),
                    CommModel::Strict => ready.max(cpu[u]).max(cpu[v]),
                };
                let end = start + tt;
                match model {
                    CommModel::Overlap => {
                        outp[u] = end;
                        inp[v] = end;
                    }
                    CommModel::Strict => {
                        cpu[u] = end;
                        cpu[v] = end;
                    }
                }
                ready = end;
            }
        }
        completion.push(ready);
    }
    // Sustainable rate: worst per-class slope, classes = last-stage pattern.
    let l = alloc.pattern(n - 1).len();
    let d = completion.len();
    let mut worst = 0.0f64;
    for r in 0..l.min(d / 4) {
        let hi = r + ((d - 1 - r) / l) * l;
        let steps = (hi - r) / l;
        let lo = r + (steps / 3) * l;
        if hi > lo {
            worst = worst.max((completion[hi] - completion[lo]) / (hi - lo) as f64);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Mapping, Pipeline, Platform};
    use crate::period::{compute_period, Method};

    /// One stage on a fast and a slow processor; negligible second stage so
    /// the pipeline is valid.
    fn skewed() -> Instance {
        let pipeline = Pipeline::new(vec![12.0, 0.001], vec![0.001]).unwrap();
        let mut platform = Platform::uniform(3, 1.0, 1000.0);
        platform.set_speed(0, 2.0); // fast: comp 6
        platform.set_speed(1, 1.0); // slow: comp 12
        let mapping = Mapping::new(vec![vec![0, 1], vec![2]]).unwrap();
        Instance::new(pipeline, platform, mapping).unwrap()
    }

    #[test]
    fn validation() {
        let inst = skewed();
        assert!(WeightedAllocation::new(vec![vec![0, 1]], &inst).is_err(), "stage count");
        assert!(matches!(
            WeightedAllocation::new(vec![vec![0, 5], vec![0]], &inst),
            Err(AllocationError::BadReplica { .. })
        ));
        assert!(matches!(
            WeightedAllocation::new(vec![vec![0, 0], vec![0]], &inst),
            Err(AllocationError::UnusedReplica { stage: 0, replica: 1 })
        ));
        assert!(matches!(
            WeightedAllocation::new(vec![vec![], vec![0]], &inst),
            Err(AllocationError::EmptyPattern(0))
        ));
        assert!(WeightedAllocation::new(vec![vec![0, 1, 0], vec![0]], &inst).is_ok());
    }

    #[test]
    fn uniform_pattern_matches_plain_round_robin() {
        let inst = skewed();
        let alloc = WeightedAllocation::round_robin(&inst);
        for model in [CommModel::Overlap, CommModel::Strict] {
            let plain = compute_period(&inst, model, Method::FullTpn).unwrap().period;
            let weighted = weighted_period(&inst, &alloc, model, &BuildOptions::default()).unwrap();
            assert!((plain - weighted).abs() < 1e-9 * plain, "{model}: {plain} vs {weighted}");
        }
    }

    #[test]
    fn weighting_the_fast_replica_helps() {
        // Plain RR: the slow replica (12 per data set it serves, every 2nd)
        // dictates 6 per data set. Pattern [0,0,1]: fast serves 2/3 at 6
        // each (circuit: 12 per 3 datasets = 4), slow serves 1/3 (12 per 3
        // = 4): period 4 < 6.
        let inst = skewed();
        let rr = compute_period(&inst, CommModel::Overlap, Method::FullTpn).unwrap().period;
        let alloc = WeightedAllocation::new(vec![vec![0, 0, 1], vec![0]], &inst).unwrap();
        let weighted =
            weighted_period(&inst, &alloc, CommModel::Overlap, &BuildOptions::default()).unwrap();
        assert!((rr - 6.0005).abs() < 1e-2, "plain RR {rr}");
        assert!((weighted - 4.0005).abs() < 1e-2, "weighted {weighted}");
        assert!(weighted < rr);
    }

    #[test]
    fn proportional_builder_spreads_work() {
        let inst = skewed();
        let alloc = WeightedAllocation::proportional(&[vec![2, 1], vec![1]], &inst).unwrap();
        assert_eq!(alloc.pattern(0).len(), 3);
        assert_eq!(alloc.pattern(0).iter().filter(|&&r| r == 0).count(), 2);
        // earliest-deadline interleave spreads the two fast slots apart
        assert_eq!(alloc.pattern(0), &[0, 1, 0]);
    }

    #[test]
    fn tpn_and_simulation_agree_on_weighted() {
        let inst = skewed();
        let alloc = WeightedAllocation::new(vec![vec![0, 0, 1], vec![0]], &inst).unwrap();
        for model in [CommModel::Overlap, CommModel::Strict] {
            let analytic = weighted_period(&inst, &alloc, model, &BuildOptions::default()).unwrap();
            let sim = simulate_weighted(&inst, &alloc, model, 6000);
            assert!(
                (analytic - sim).abs() < 2e-3 * analytic,
                "{model}: tpn {analytic} vs sim {sim}"
            );
        }
    }

    #[test]
    fn optimal_weighting_balances_speeds() {
        // comp times 6 (fast) and 12 (slow): weights 2:1 equalize busy time.
        // Any heavier skew over-loads the fast replica's circuit.
        let inst = skewed();
        let best = WeightedAllocation::new(vec![vec![0, 0, 1], vec![0]], &inst).unwrap();
        let too_much = WeightedAllocation::new(vec![vec![0, 0, 0, 1], vec![0]], &inst).unwrap();
        let p_best =
            weighted_period(&inst, &best, CommModel::Overlap, &BuildOptions::default()).unwrap();
        let p_skew =
            weighted_period(&inst, &too_much, CommModel::Overlap, &BuildOptions::default())
                .unwrap();
        assert!(p_best < p_skew, "{p_best} vs {p_skew}");
    }

    #[test]
    fn weighted_rows_lcm() {
        let inst = skewed();
        let alloc = WeightedAllocation::new(vec![vec![0, 1, 0], vec![0, 0]], &inst).unwrap();
        assert_eq!(alloc.num_rows(), Some(6));
        let built = build_weighted_tpn(&inst, &alloc, CommModel::Overlap, &BuildOptions::default())
            .unwrap();
        assert_eq!(built.rows, 6);
        assert!(built.net.lint().is_empty());
    }
}
