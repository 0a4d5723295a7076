//! The data-set-level earliest-start simulator.

use repwf_core::model::{CommModel, Instance};

/// Which physical (sub-)resource an operation occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// A processor's input port (overlap model only).
    InPort(usize),
    /// A processor's compute unit (overlap), or the whole processor (strict).
    Cpu(usize),
    /// A processor's output port (overlap model only).
    OutPort(usize),
}

impl Resource {
    /// The processor the resource belongs to.
    pub fn proc(&self) -> usize {
        match *self {
            Resource::InPort(u) | Resource::Cpu(u) | Resource::OutPort(u) => u,
        }
    }
}

/// Kind of simulated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Computation of a stage.
    Compute {
        /// the stage
        stage: usize,
    },
    /// Transfer of file `F_file` between two processors.
    Transfer {
        /// index of the transferred file (= workflow edge id)
        file: usize,
        /// sending processor
        from: usize,
        /// receiving processor
        to: usize,
    },
}

/// One scheduled operation (recorded only when
/// [`SimOptions::record_ops`] is set).
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// The data set the operation belongs to.
    pub data_set: u64,
    /// What the operation is.
    pub kind: OpKind,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
}

/// Simulation options.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Number of data sets to push through the system.
    pub data_sets: u64,
    /// Record the full operation log (for Gantt charts). Memory is
    /// `O(data_sets · stages)` when set.
    pub record_ops: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions { data_sets: 2000, record_ops: false }
    }
}

/// Simulation outcome.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Completion time of every data set (completions of different replicas
    /// may land out of order).
    pub completion: Vec<f64>,
    /// Operation log (empty unless requested).
    pub ops: Vec<Op>,
    /// Number of distinct paths `m` used for exact-periodicity windows
    /// (clamped to 1 when `lcm` dwarfs the simulated horizon).
    pub window: u64,
    /// Replication factor of the last stage (completion classes).
    pub m_last: usize,
}

impl SimResult {
    /// Steady-state **sustainable** per-data-set period.
    ///
    /// With unbounded buffers the simulated system free-runs: when the
    /// round-robin structure decouples into independent chains (e.g.
    /// `gcd(m_i, m_{i+1}) > 1` components), fast chains run ahead of slow
    /// ones and the raw completion rate overestimates what a clocked input
    /// stream can sustain. The paper's period is the *sustainable* one —
    /// the rate of the slowest chain — so the estimator measures the
    /// asymptotic completion slope of each last-stage replica (data sets
    /// `d ≡ r (mod m_last)` all complete on replica `r`) and reports the
    /// worst, expressed per data set.
    pub fn period_estimate(&self) -> f64 {
        sustainable_period(&self.completion, self.m_last)
    }

    /// Checks exact periodicity with the natural cyclicity (`window` data
    /// sets): `C(d + w) − C(d)` constant over the tail. Returns the exact
    /// per-data-set period if the regime is reached.
    pub fn exact_period(&self, rel_tol: f64) -> Option<f64> {
        let w = self.window.max(1) as usize;
        let d = self.completion.len();
        if d < 3 * w + 2 {
            return None;
        }
        let mut value: Option<f64> = None;
        for k in (d - 2 * w - 1)..(d - w) {
            let inc = (self.completion[k + w] - self.completion[k]) / w as f64;
            match value {
                None => value = Some(inc),
                Some(v) if (v - inc).abs() <= rel_tol * v.abs().max(1.0) => {}
                _ => return None,
            }
        }
        value
    }
}

/// [`SimResult::period_estimate`] over a raw completion-time slice: the
/// worst asymptotic completion slope over the `m_last` last-stage replica
/// classes.
fn sustainable_period(completion: &[f64], m_last: usize) -> f64 {
    let d = completion.len();
    let l = m_last.max(1);
    assert!(d >= 4 * l, "need at least 4 data sets per last-stage replica");
    let mut worst = 0.0f64;
    for r in 0..l {
        let hi = r + ((d - 1 - r) / l) * l;
        let steps = (hi - r) / l;
        // Slope over the last two thirds of the class, in class steps.
        let lo = r + (steps / 3) * l;
        let slope = (completion[hi] - completion[lo]) / (hi - lo) as f64;
        worst = worst.max(slope);
    }
    worst
}

/// Runs the simulation.
///
/// Stages are visited in topological (stage-id) order per data set; a stage
/// is ready once every in-edge transfer has landed. Under the overlap model
/// each edge owns its own send/receive port pair per replica — the one-port
/// discipline of the TPN, where a stage's distinct out-edges occupy distinct
/// port columns. On a linear chain this is the classic per-processor
/// three-clock recurrence, bit for bit.
pub fn simulate(inst: &Instance, model: CommModel, opts: &SimOptions) -> SimResult {
    let n = inst.num_stages();
    let p = inst.platform.num_procs();
    let wf = &inst.pipeline;
    let num_edges = wf.num_edges();
    let d_total = opts.data_sets;

    // Per-resource "free from" clocks: whole processors, plus (overlap
    // only) one send and one receive port per edge per replica.
    let mut cpu = vec![0.0f64; p];
    let mut outp: Vec<Vec<f64>> =
        (0..num_edges).map(|e| vec![0.0f64; inst.mapping.replicas(wf.edge(e).0)]).collect();
    let mut inp: Vec<Vec<f64>> =
        (0..num_edges).map(|e| vec![0.0f64; inst.mapping.replicas(wf.edge(e).1)]).collect();

    // Per-edge transfer-end times of the data set in flight. Every edge's
    // source precedes its destination, so a slot is always written before
    // it is read within one data set.
    let mut edge_end = vec![0.0f64; num_edges];

    let mut completion = Vec::with_capacity(d_total as usize);
    let mut ops = Vec::new();

    for d in 0..d_total {
        let mut finish = 0.0f64;
        for i in 0..n {
            let u = inst.proc_for(i, d);
            // --- computation of stage i on u ---
            let mut ready = 0.0f64;
            for &e in wf.in_edges(i) {
                ready = ready.max(edge_end[e]);
            }
            let ct = inst.comp_time(i, u);
            let start = ready.max(cpu[u]);
            let end = start + ct;
            cpu[u] = end;
            if opts.record_ops {
                ops.push(Op { data_set: d, kind: OpKind::Compute { stage: i }, start, end });
            }
            finish = end;
            // --- transfers along the out-edges, in edge order ---
            for &e in wf.out_edges(i) {
                let dst = wf.edge(e).1;
                let v = inst.proc_for(dst, d);
                let alpha = (d % inst.mapping.replicas(i) as u64) as usize;
                let beta = (d % inst.mapping.replicas(dst) as u64) as usize;
                let tt = inst.comm_time(e, u, v);
                let start = match model {
                    CommModel::Overlap => end.max(outp[e][alpha]).max(inp[e][beta]),
                    // Strict: the transfer holds both whole processors, so
                    // same-row sends serialize through `cpu[u]`.
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
                if opts.record_ops {
                    ops.push(Op {
                        data_set: d,
                        kind: OpKind::Transfer { file: e, from: u, to: v },
                        start,
                        end: tend,
                    });
                }
                edge_end[e] = tend;
            }
        }
        completion.push(finish);
    }

    let window = repwf_core::paths::instance_num_paths(inst)
        .map(|m| if m > d_total as u128 / 4 { 1 } else { m as u64 })
        .unwrap_or(1);
    let m_last = inst.mapping.replicas(n - 1);
    SimResult { completion, ops, window, m_last }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repwf_core::model::{Mapping, Pipeline, Platform};
    use repwf_core::period::{compute_period, Method};

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
    fn single_stage_round_robin() {
        // 2 replicas, work 10: one completion every 5 in steady state.
        let i = inst(&[2], 10.0, 0.0);
        let r = simulate(&i, CommModel::Overlap, &SimOptions { data_sets: 100, record_ops: false });
        assert!((r.period_estimate() - 5.0).abs() < 1e-9);
        assert!((r.exact_period(1e-9).unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn matches_tpn_overlap() {
        let i = inst(&[2, 3], 5.0, 4.0);
        let analytic = compute_period(&i, CommModel::Overlap, Method::Polynomial).unwrap();
        let r = simulate(&i, CommModel::Overlap, &SimOptions { data_sets: 600, record_ops: false });
        let est = r.exact_period(1e-9).unwrap_or_else(|| r.period_estimate());
        assert!((est - analytic.period).abs() < 1e-6, "sim {est} vs analytic {}", analytic.period);
    }

    #[test]
    fn matches_tpn_strict() {
        let i = inst(&[2, 3], 5.0, 4.0);
        let analytic = compute_period(&i, CommModel::Strict, Method::FullTpn).unwrap();
        let r = simulate(&i, CommModel::Strict, &SimOptions { data_sets: 600, record_ops: false });
        let est = r.exact_period(1e-9).unwrap_or_else(|| r.period_estimate());
        assert!((est - analytic.period).abs() < 1e-6, "sim {est} vs analytic {}", analytic.period);
    }

    #[test]
    fn completions_monotone_per_replica() {
        // Completions of different replicas can legitimately land out of
        // order, but the data sets served by the SAME last-stage replica
        // (indices d, d + m_{n-1}, …) must complete in order.
        let i = inst(&[1, 2, 3], 3.0, 2.0);
        let m_last = 3;
        for model in [CommModel::Overlap, CommModel::Strict] {
            let r = simulate(&i, model, &SimOptions { data_sets: 200, record_ops: false });
            for d in 0..r.completion.len() - m_last {
                assert!(r.completion[d + m_last] >= r.completion[d] - 1e-12);
            }
        }
    }

    #[test]
    fn ops_recorded_and_disjoint_per_resource() {
        let i = inst(&[1, 2], 4.0, 3.0);
        let r = simulate(&i, CommModel::Overlap, &SimOptions { data_sets: 50, record_ops: true });
        assert_eq!(r.ops.len(), 50 * 3); // compute, transfer, compute per data set
                                         // CPU of proc 0 must never overlap itself.
        let mut cpu0: Vec<(f64, f64)> = r
            .ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Compute { stage: 0 }))
            .map(|o| (o.start, o.end))
            .collect();
        cpu0.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in cpu0.windows(2) {
            assert!(w[1].0 >= w[0].1 - 1e-12, "CPU busy intervals overlap");
        }
    }

    #[test]
    fn strict_never_faster_than_overlap() {
        let i = inst(&[2, 2, 2], 6.0, 5.0);
        let ov =
            simulate(&i, CommModel::Overlap, &SimOptions { data_sets: 400, record_ops: false });
        let st = simulate(&i, CommModel::Strict, &SimOptions { data_sets: 400, record_ops: false });
        assert!(st.period_estimate() >= ov.period_estimate() - 1e-9);
    }

    #[test]
    fn diamond_matches_tpn_both_models() {
        // Fork/join: S0 → {S1, S2} → S3, middle stages replicated.
        let pipeline = Pipeline::from_edges(
            vec![4.0, 6.0, 5.0, 3.0],
            vec![(0, 1, 2.0), (0, 2, 3.0), (1, 3, 1.0), (2, 3, 2.0)],
        )
        .unwrap();
        let platform = Platform::uniform(6, 1.0, 1.0);
        let mapping = Mapping::new(vec![vec![0], vec![1, 2], vec![3, 4], vec![5]]).unwrap();
        let i = Instance::new(pipeline, platform, mapping).unwrap();
        for model in [CommModel::Overlap, CommModel::Strict] {
            let analytic = compute_period(&i, model, Method::FullTpn).unwrap();
            let r = simulate(&i, model, &SimOptions { data_sets: 600, record_ops: false });
            let est = r.exact_period(1e-9).unwrap_or_else(|| r.period_estimate());
            assert!(
                (est - analytic.period).abs() < 1e-6,
                "{model}: sim {est} vs analytic {}",
                analytic.period
            );
        }
    }

    #[test]
    fn period_at_least_mct() {
        let i = inst(&[3, 2], 7.0, 2.0);
        for model in [CommModel::Overlap, CommModel::Strict] {
            let (mct, _) = repwf_core::cycle_time::max_cycle_time(&i, model);
            let r = simulate(&i, model, &SimOptions { data_sets: 500, record_ops: false });
            assert!(r.period_estimate() >= mct - 1e-6);
        }
    }
}
