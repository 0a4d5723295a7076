//! Clocked arrivals: the operational meaning of the period.
//!
//! The paper defines the period `P` as the interval at which "a new data
//! set enters the system" sustainably. This module simulates exactly that
//! regime: data set `d` is *released* at time `d·T` and no operation of it
//! may start earlier. Two facts make the definition operational, and both
//! are property-tested here:
//!
//! * if `T ≥ P̂` (at or above the computed period), every queue in the
//!   system stays **bounded** and sojourn times converge;
//! * if `T < P̂`, work backs up: the backlog (number of released but
//!   unfinished data sets) grows without bound and sojourn times diverge.
//!
//! The module also tracks per-link buffer occupancy (files produced but not
//! yet consumed), quantifying the memory the unbounded-buffer abstraction
//! of the TPN model actually requires at a given input rate.

use repwf_core::model::{CommModel, Instance};

/// Result of a clocked-arrival simulation.
#[derive(Debug, Clone)]
pub struct ClockedResult {
    /// Sojourn time (completion − release) of every data set.
    pub sojourn: Vec<f64>,
    /// Maximum backlog observed: released-but-unfinished data sets, sampled
    /// at release instants.
    pub max_backlog: u64,
    /// Per-edge maximum buffer occupancy: data sets whose source-stage
    /// output exists on the edge but whose destination-stage computation
    /// has not started. Indexed by workflow edge id (on a chain, edge `i`
    /// is the stage-`i`/`i+1` boundary).
    pub max_buffer: Vec<u64>,
}

impl ClockedResult {
    /// Mean sojourn over the last third of the run.
    pub fn tail_sojourn(&self) -> f64 {
        let d = self.sojourn.len();
        let tail = &self.sojourn[d - d / 3..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

/// Simulates `data_sets` arrivals with inter-arrival time `t` (data set `d`
/// released at `d·t`).
pub fn simulate_clocked(
    inst: &Instance,
    model: CommModel,
    t: f64,
    data_sets: u64,
) -> ClockedResult {
    let n = inst.num_stages();
    let p = inst.platform.num_procs();
    let wf = &inst.pipeline;
    let num_edges = wf.num_edges();
    let mut cpu = vec![0.0f64; p];
    // Per-edge send/receive port clocks (overlap model), one per replica —
    // the same one-port discipline as the free-running simulator.
    let mut outp: Vec<Vec<f64>> =
        (0..num_edges).map(|e| vec![0.0f64; inst.mapping.replicas(wf.edge(e).0)]).collect();
    let mut inp: Vec<Vec<f64>> =
        (0..num_edges).map(|e| vec![0.0f64; inst.mapping.replicas(wf.edge(e).1)]).collect();
    let mut edge_end = vec![0.0f64; num_edges];
    let mut completion: Vec<f64> = Vec::with_capacity(data_sets as usize);
    let mut sojourn = Vec::with_capacity(data_sets as usize);
    // start time of the consuming compute per data set, for buffer tracking:
    // we keep, per edge, the times the file became ready and the times it
    // was consumed, and count occupancy by merging (two-pointer).
    let mut produced: Vec<Vec<f64>> = vec![Vec::new(); num_edges];
    let mut consumed: Vec<Vec<f64>> = vec![Vec::new(); num_edges];

    for d in 0..data_sets {
        let release = d as f64 * t;
        let mut finish = release;
        for i in 0..n {
            let u = inst.proc_for(i, d);
            let mut ready = release;
            for &e in wf.in_edges(i) {
                ready = ready.max(edge_end[e]);
            }
            let ct = inst.comp_time(i, u);
            let start = ready.max(cpu[u]);
            for &e in wf.in_edges(i) {
                consumed[e].push(start);
            }
            let end = start + ct;
            cpu[u] = end;
            finish = end;
            for &e in wf.out_edges(i) {
                let dst = wf.edge(e).1;
                let v = inst.proc_for(dst, d);
                let alpha = (d % inst.mapping.replicas(i) as u64) as usize;
                let beta = (d % inst.mapping.replicas(dst) as u64) as usize;
                let tt = inst.comm_time(e, u, v);
                let start = match model {
                    CommModel::Overlap => end.max(outp[e][alpha]).max(inp[e][beta]),
                    CommModel::Strict => end.max(cpu[u]).max(cpu[v]),
                };
                let tend = start + tt;
                match model {
                    CommModel::Overlap => {
                        outp[e][alpha] = tend;
                        inp[e][beta] = tend;
                    }
                    CommModel::Strict => {
                        cpu[u] = tend;
                        cpu[v] = tend;
                    }
                }
                produced[e].push(tend);
                edge_end[e] = tend;
            }
        }
        completion.push(finish);
        sojourn.push(finish - release);
    }

    // Backlog at release instants: released d+1 data sets; completed =
    // completions ≤ release time. Completions are near-sorted; count via
    // sorted copy.
    let mut sorted = completion.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let mut max_backlog = 0u64;
    let mut done = 0usize;
    for d in 0..data_sets {
        let now = d as f64 * t;
        while done < sorted.len() && sorted[done] <= now {
            done += 1;
        }
        max_backlog = max_backlog.max(d + 1 - done as u64);
    }

    // Buffer occupancy per boundary: files produced before time x minus
    // files consumed before x, maximized over event times.
    let mut max_buffer = Vec::with_capacity(n.saturating_sub(1));
    for (prod, cons) in produced.iter_mut().zip(consumed.iter_mut()) {
        prod.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        cons.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut ci = 0usize;
        let mut occ: i64 = 0;
        let mut best: i64 = 0;
        for &tp in prod.iter() {
            while ci < cons.len() && cons[ci] <= tp {
                occ -= 1;
                ci += 1;
            }
            occ += 1;
            best = best.max(occ);
        }
        max_buffer.push(best.max(0) as u64);
    }

    ClockedResult { sojourn, max_backlog, max_buffer }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repwf_core::model::{Mapping, Pipeline, Platform};
    use repwf_core::period::{compute_period, Method};

    fn inst() -> Instance {
        let pipeline = Pipeline::new(vec![6.0, 18.0], vec![3.0]).unwrap();
        let platform = Platform::uniform(4, 1.0, 1.0);
        let mapping = Mapping::new(vec![vec![0], vec![1, 2, 3]]).unwrap();
        Instance::new(pipeline, platform, mapping).unwrap()
    }

    /// Maximum sojourn over the last third of the run.
    fn tail_max(r: &ClockedResult) -> f64 {
        let d = r.sojourn.len();
        r.sojourn[d - d / 3..].iter().copied().fold(0.0, f64::max)
    }

    #[test]
    fn at_period_backlog_bounded() {
        let i = inst();
        for model in [CommModel::Overlap, CommModel::Strict] {
            let p = compute_period(&i, model, Method::Auto).unwrap().period;
            let short = simulate_clocked(&i, model, p * 1.0001, 500);
            let long = simulate_clocked(&i, model, p * 1.0001, 4000);
            assert!(
                long.max_backlog <= short.max_backlog + 2,
                "{model}: backlog grows ({} -> {})",
                short.max_backlog,
                long.max_backlog
            );
            assert!(tail_max(&long) <= tail_max(&short) * 1.5 + 1.0, "{model}: sojourn diverges");
        }
    }

    #[test]
    fn below_period_backlog_diverges() {
        let i = inst();
        for model in [CommModel::Overlap, CommModel::Strict] {
            let p = compute_period(&i, model, Method::Auto).unwrap().period;
            let short = simulate_clocked(&i, model, p * 0.9, 500);
            let long = simulate_clocked(&i, model, p * 0.9, 4000);
            assert!(
                long.max_backlog as f64 > short.max_backlog as f64 * 3.0,
                "{model}: backlog should diverge ({} -> {})",
                short.max_backlog,
                long.max_backlog
            );
        }
    }

    #[test]
    fn sojourn_at_least_unloaded_latency() {
        let i = inst();
        let lat = repwf_core::latency::latency_report(&i, 100);
        let p = compute_period(&i, CommModel::Overlap, Method::Auto).unwrap().period;
        let res = simulate_clocked(&i, CommModel::Overlap, p * 1.01, 600);
        for (d, &s) in res.sojourn.iter().enumerate() {
            assert!(s >= lat.min - 1e-9, "data set {d}: sojourn {s} below min latency");
        }
    }

    #[test]
    fn slow_arrivals_give_unloaded_latency() {
        // With huge inter-arrival times, no contention: sojourn = unloaded
        // path latency exactly.
        let i = inst();
        let res = simulate_clocked(&i, CommModel::Overlap, 1e6, 12);
        for d in 0..12u64 {
            let expected = repwf_core::latency::path_latency(&i, u128::from(d));
            assert!(
                (res.sojourn[d as usize] - expected).abs() < 1e-9,
                "data set {d}: {} vs {expected}",
                res.sojourn[d as usize]
            );
        }
        assert_eq!(res.max_backlog, 1);
    }

    #[test]
    fn buffer_occupancy_tracked() {
        let i = inst();
        let p = compute_period(&i, CommModel::Overlap, Method::Auto).unwrap().period;
        let res = simulate_clocked(&i, CommModel::Overlap, p, 2000);
        assert_eq!(res.max_buffer.len(), 1);
        // At the sustainable rate the boundary buffer is small and bounded.
        assert!(res.max_buffer[0] <= 8, "buffer {:?}", res.max_buffer);
    }
}
