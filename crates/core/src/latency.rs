//! Path latency of a mapping.
//!
//! The period measures throughput; the other metric of the pipelined-
//! workflow literature the paper builds on (Subhlok & Vondran; Vydyanathan
//! et al. — references [11, 12, 14, 15]) is **latency**: the traversal
//! time of a single data set. With replication, different data sets follow
//! different paths (Proposition 1), so latency is per-path. On a chain it
//! is the plain sum
//!
//! ```text
//! L(j) = Σ_i  w_i / Π_{proc(i, j)}  +  Σ_i δ_i / b_{proc(i,j), proc(i+1,j)}
//! ```
//!
//! and on a series-parallel workflow the longest-path recurrence over the
//! DAG (a stage starts when its slowest in-edge transfer lands), which
//! reduces to the sum on chains bit-for-bit.
//!
//! This module computes unloaded (contention-free) path latencies and their
//! distribution over the `m` paths; steady-state *sojourn* times under load
//! come from `repwf-sim`'s clocked-arrival mode.

use crate::model::{Instance, InstanceView};
use crate::paths::{mapping_num_paths, path_of_view};

/// Latency statistics over the distinct paths of a mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyReport {
    /// Number of distinct paths sampled (= `m` when it fits the budget).
    pub paths: u64,
    /// Minimum unloaded latency over the sampled paths.
    pub min: f64,
    /// Maximum unloaded latency.
    pub max: f64,
    /// Mean unloaded latency (uniform over paths = long-run mean over data
    /// sets, since paths repeat cyclically).
    pub mean: f64,
    /// Index (data-set residue) of a path attaining the maximum.
    pub argmax: u64,
}

/// Unloaded latency of the path taken by data set `j`.
///
/// Under the overlap model the three phases of consecutive operations
/// cannot overlap *for a single data set* (they are data-dependent), so the
/// unloaded latency is the plain sum under both communication models; the
/// distinction only matters under contention.
pub fn path_latency(inst: &Instance, j: u128) -> f64 {
    path_latency_view(inst.view(), j)
}

/// [`path_latency`] on a borrowed view.
pub fn path_latency_view(view: InstanceView<'_>, j: u128) -> f64 {
    let path = path_of_view(view, j);
    let wf = view.pipeline;
    let n = path.len();
    // Longest-path DP in topological (stage-id) order: a stage is ready
    // when its slowest in-edge transfer lands. On a chain this folds to
    // the historical left-to-right sum with identical association.
    let mut finish = vec![0.0f64; n];
    for (i, &u) in path.iter().enumerate() {
        let mut ready = 0.0f64;
        for &e in wf.in_edges(i) {
            let (src, _) = wf.edge(e);
            ready = ready.max(finish[src] + view.comm_time(e, path[src], u));
        }
        finish[i] = ready + view.comp_time(i, u);
    }
    finish[n - 1]
}

/// Latency statistics over up to `budget` of the `m` distinct paths
/// (all of them when `m ≤ budget`; a uniform stride sample otherwise).
pub fn latency_report(inst: &Instance, budget: u64) -> LatencyReport {
    let view = inst.view();
    let m = mapping_num_paths(view.mapping).unwrap_or(u128::MAX);
    let count = m.min(budget as u128).max(1);
    let stride = (m / count).max(1);
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    let mut argmax = 0u64;
    for k in 0..count {
        let j = k * stride;
        let l = path_latency_view(view, j);
        if l > max {
            max = l;
            argmax = j as u64;
        }
        min = min.min(l);
        sum += l;
    }
    LatencyReport { paths: count as u64, min, max, mean: sum / count as f64, argmax }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Mapping, Pipeline, Platform};

    fn inst() -> Instance {
        // Two stages; second replicated on a fast and a slow processor.
        let pipeline = Pipeline::new(vec![4.0, 12.0], vec![2.0]).unwrap();
        let mut platform = Platform::uniform(3, 1.0, 1.0);
        platform.set_speed(1, 2.0); // fast replica
        platform.set_speed(2, 0.5); // slow replica
        let mapping = Mapping::new(vec![vec![0], vec![1, 2]]).unwrap();
        Instance::new(pipeline, platform, mapping).unwrap()
    }

    #[test]
    fn per_path_latency_values() {
        let i = inst();
        // Path 0: P0 → P1: 4 + 2 + 12/2 = 12. Path 1: P0 → P2: 4 + 2 + 24 = 30.
        assert!((path_latency(&i, 0) - 12.0).abs() < 1e-12);
        assert!((path_latency(&i, 1) - 30.0).abs() < 1e-12);
        assert!((path_latency(&i, 2) - 12.0).abs() < 1e-12, "paths repeat mod m");
    }

    #[test]
    fn report_over_all_paths() {
        let i = inst();
        let r = latency_report(&i, 100);
        assert_eq!(r.paths, 2);
        assert!((r.min - 12.0).abs() < 1e-12);
        assert!((r.max - 30.0).abs() < 1e-12);
        assert!((r.mean - 21.0).abs() < 1e-12);
        assert_eq!(r.argmax, 1);
    }

    #[test]
    fn budget_sampling() {
        let i = inst();
        let r = latency_report(&i, 1);
        assert_eq!(r.paths, 1);
        assert!((r.min - r.max).abs() < 1e-12);
    }

    #[test]
    fn one_to_one_has_single_latency() {
        let pipeline = Pipeline::new(vec![3.0, 5.0], vec![1.0]).unwrap();
        let platform = Platform::uniform(2, 1.0, 1.0);
        let mapping = Mapping::one_to_one(vec![0, 1]).unwrap();
        let i = Instance::new(pipeline, platform, mapping).unwrap();
        let r = latency_report(&i, 16);
        assert_eq!(r.paths, 1);
        assert!((r.min - 9.0).abs() < 1e-12);
    }

    #[test]
    fn latency_at_least_sum_of_fastest_ops() {
        // Sanity on a replicated middle stage: every path's latency is at
        // least the sum over stages of the fastest replica's time.
        let i = inst();
        let floor: f64 = 4.0 + 2.0 + 6.0;
        let r = latency_report(&i, 100);
        assert!(r.min >= floor - 1e-12);
    }
}
