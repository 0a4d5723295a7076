//! Theorem 1: the polynomial algorithm for the **overlap one-port** model.
//!
//! In the overlap TPN every place is either forward (dataflow) or stays
//! within a column, so every circuit lives in a single column and the period
//! is the worst column — this holds for series-parallel workflows too,
//! because ports are per *edge* and each edge owns one column. Computation
//! columns are trivial (one circuit per processor). For the communication
//! column of an edge with `m_i` sender replicas and `m_{i+1}` receiver
//! replicas (on a chain, file `F_i` between stages `i` and `i+1`), the
//! sub-TPN is a circulant graph on the `m` rows with steps `+m_i`
//! (out-port circuits) and `+m_{i+1}` (in-port circuits).
//! Writing `g = gcd(m_i, m_{i+1})`, `u = m_i/g`, `v = m_{i+1}/g`:
//!
//! * rows split into `g` connected components (residues mod `g`);
//! * inside a component, reindexing rows by `q = (j−ρ)/g` gives steps `+u`
//!   and `+v` on `Z_{m/g}`, and transfer times are periodic in `q mod uv` —
//!   the component is `c = m / lcm(m_i, m_{i+1})` copies of a single `u×v`
//!   **pattern** (the paper's Figures 13/14);
//! * a circuit taking `a` sender-steps and `b` receiver-steps has token
//!   count `(a·u + b·v)·g/m`, so on the pattern quotient the critical ratio
//!   becomes a cycle-ratio problem with integer edge weights `u` and `v`:
//!
//! ```text
//! P̂_col(ρ) = (1/g) · max over circuits of the pattern of Σtime / Σweight
//! ```
//!
//! solved by Howard's iteration on `u·v` vertices and `2·u·v` edges. The
//! full TPN (of possibly astronomical row count `m`) is never materialized;
//! the overall complexity is `O(Σ_i poly(m_i·m_{i+1}))` as in the paper.
//!
//! The equivalence with the full-TPN analysis is property-tested in
//! `crates/core/tests` and the workspace integration tests.

use crate::cycle_time::{cycle_times, max_cycle_time};
use crate::model::{CommModel, Instance, InstanceView, ProcId, StageId};
use crate::paths::gcd;
use maxplus::graph::{CycleSolution, RatioGraph};
use maxplus::Workspace;
use std::fmt;

/// The bottleneck of an overlap-model mapping.
#[derive(Debug, Clone, PartialEq)]
pub enum Bottleneck {
    /// A computation: stage `stage` on processor `proc`.
    Computation {
        /// the stage
        stage: StageId,
        /// the processor
        proc: ProcId,
    },
    /// A communication column: the critical circuit of one pattern of the
    /// transfer on edge `file` (on a chain, edge `i` is file `F_i`).
    Communication {
        /// id of the edge whose file is transferred
        file: usize,
        /// residue class (connected component) mod `gcd(m_i, m_{i+1})`
        residue: usize,
        /// rows (data-set indices mod `lcm(m_i, m_{i+1})`) of the critical
        /// pattern circuit
        pattern_rows: Vec<u64>,
    },
}

impl fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bottleneck::Computation { stage, proc } => write!(f, "computation of S{stage} on P{proc}"),
            Bottleneck::Communication { file, residue, .. } => {
                write!(f, "transfer of F{file} (component {residue})")
            }
        }
    }
}

/// Per-column period contributions of the overlap analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnPeriod {
    /// What the column is.
    pub bottleneck: Bottleneck,
    /// The column's contribution to the per-data-set period.
    pub period: f64,
}

/// The full result of the Theorem 1 algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapAnalysis {
    /// The per-data-set period `P̂` (inverse throughput).
    pub period: f64,
    /// The critical column.
    pub bottleneck: Bottleneck,
    /// Every column's contribution (computation columns flattened to one
    /// entry per processor).
    pub columns: Vec<ColumnPeriod>,
}

/// The decomposition constants of one communication column
/// (paper Figures 11/13/14; Example C: `(g,u,v,c) = (3,7,9,55)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternInfo {
    /// `g = gcd(m_i, m_{i+1})`: number of connected components.
    pub g: usize,
    /// `u = m_i / g`: pattern rows (senders per component).
    pub u: usize,
    /// `v = m_{i+1} / g`: pattern columns (receivers per component).
    pub v: usize,
    /// `c = m / lcm(m_i, m_{i+1})`: patterns per component (`None` if `m`
    /// overflows).
    pub c: Option<u128>,
    /// `m = lcm(m_0,…,m_{n−1})` (`None` on overflow).
    pub m: Option<u128>,
}

/// Computes the pattern decomposition constants for the chain
/// communication `F_i` between adjacent stages `i` and `i+1` (a
/// convenience over explicit replica slices; DAG callers derive the same
/// constants from an edge's endpoint replica counts).
pub fn pattern_info(replicas: &[usize], i: usize) -> PatternInfo {
    assert!(i + 1 < replicas.len());
    let (mi, mn) = (replicas[i], replicas[i + 1]);
    let g = gcd(mi as u128, mn as u128) as usize;
    let m = crate::paths::num_paths(replicas);
    let l = (mi / g) as u128 * mn as u128; // lcm(m_i, m_{i+1})
    PatternInfo { g, u: mi / g, v: mn / g, c: m.map(|m| m / l), m }
}

/// Builds the pattern cycle-ratio graph for the transfer on edge `e`,
/// residue `rho`: `u·v` vertices `q` (rows `j = rho + g·q` of the
/// component), a sender-step edge `q → q+u (mod uv)` of token-weight `u`
/// and a receiver-step edge `q → q+v (mod uv)` of token-weight `v`, both
/// carrying the transfer time of row `j` as cost. On a chain, edge `i` is
/// the communication `F_i` between stages `i` and `i+1`.
pub fn pattern_graph(inst: &Instance, e: usize, rho: usize) -> RatioGraph {
    pattern_graph_view(inst.view(), e, rho)
}

/// [`pattern_graph`] on a borrowed view.
pub fn pattern_graph_view(view: InstanceView<'_>, e: usize, rho: usize) -> RatioGraph {
    let mut graph = RatioGraph::default();
    pattern_graph_into(view, e, rho, &mut graph);
    graph
}

/// [`pattern_graph_view`] into a caller-owned graph (reset and refilled in
/// place, reusing its edge buffer). Returns the pattern's `(u, v)`: edge
/// endpoints and token weights are a pure function of that pair, only the
/// costs depend on the processors.
fn pattern_graph_into(
    view: InstanceView<'_>,
    e: usize,
    rho: usize,
    graph: &mut RatioGraph,
) -> (usize, usize) {
    let (src, dst) = view.pipeline.edge(e);
    let procs_s = view.mapping.procs(src);
    let procs_r = view.mapping.procs(dst);
    let (mi, mn) = (procs_s.len(), procs_r.len());
    let g = gcd(mi as u128, mn as u128) as usize;
    let (u, v) = (mi / g, mn / g);
    let nv = u * v;
    graph.reset(nv);
    for q in 0..nv {
        let j = rho + g * q; // a representative row of this pattern cell
        let sender = procs_s[j % mi];
        let receiver = procs_r[j % mn];
        let t = view.comm_time(e, sender, receiver);
        graph.add_edge(q as u32, ((q + u) % nv) as u32, t, u as u32);
        graph.add_edge(q as u32, ((q + v) % nv) as u32, t, v as u32);
    }
    (u, v)
}

/// Reusable buffers of the Theorem 1 walker: one pattern graph, refilled
/// per residue, and a solver workspace dedicated to pattern graphs.
///
/// Every pattern solve presents `(u, v)` as the workspace's structure
/// token ([`maxplus::Workspace::max_cycle_ratio_cached`]): the pattern's
/// edges and token weights depend on nothing else, so consecutive
/// patterns of the same `(u, v)` (the `g` residues of one column, or the
/// same column of neighbor mappings) skip the CSR build and Tarjan's
/// condensation. The workspace solves nothing but pattern graphs, so its
/// tokens never meet the generation tokens of a TPN solver's scratch.
/// Results are bit-for-bit those of a fresh one-shot solve.
#[derive(Debug, Clone, Default)]
pub(crate) struct OverlapScratch {
    graph: RatioGraph,
    ws: Workspace,
}

impl OverlapScratch {
    /// Forgets the cached pattern structure: the next pattern solve builds
    /// its CSR and condenses, whatever `(u, v)` it has.
    pub(crate) fn clear_structure_cache(&mut self) {
        self.ws.clear_structure_cache();
    }

    /// Edge `e`'s communication column: the first residue attaining the
    /// maximum over the `g` components, its period contribution and its
    /// pattern circuit (`None`, with residue 0 and a `−∞` period, only if
    /// no residue compared above `−∞`).
    fn comm_column(
        &mut self,
        view: InstanceView<'_>,
        e: usize,
    ) -> (ColumnId, f64, Option<CycleSolution>) {
        let (src, dst) = view.pipeline.edge(e);
        let mi = view.mapping.replicas(src);
        let mn = view.mapping.replicas(dst);
        let g = gcd(mi as u128, mn as u128) as usize;
        let (mut residue, mut period, mut witness) = (0, f64::NEG_INFINITY, None);
        for rho in 0..g {
            let (u, v) = pattern_graph_into(view, e, rho, &mut self.graph);
            let token = ((u as u64) << 32) | v as u64;
            let sol = self
                .ws
                .max_cycle_ratio_cached(&self.graph, token, false)
                .expect("pattern graph is well-formed")
                .expect("pattern graph always has circuits");
            let p = sol.ratio / g as f64;
            if p > period {
                (residue, period, witness) = (rho, p, Some(sol));
            }
        }
        (ColumnId::Communication { file: e, residue, g }, period, witness)
    }
}

/// One column of the overlap TPN as [`walk_columns`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColumnId {
    /// Stage `stage` on processor `proc`.
    Computation { stage: StageId, proc: ProcId },
    /// The critical residue of the transfer on edge `file`, whose pattern
    /// rows are `residue + g·q` for the reported circuit vertices `q`.
    Communication { file: usize, residue: usize, g: usize },
}

/// The Theorem 1 column walk: calls `visit(column, period, circuit)` for
/// every computation column (one per mapped processor, stage-major, empty
/// circuit) and then every communication column (edge order, the critical
/// residue's pattern circuit), reusing `scratch` for every pattern solve.
/// Both [`overlap_period_view`] and the period engine's polynomial method
/// are folds over this walk.
pub(crate) fn walk_columns(
    view: InstanceView<'_>,
    scratch: &mut OverlapScratch,
    mut visit: impl FnMut(ColumnId, f64, &[u32]),
) {
    // Computation columns: processor u of stage i serves every m_i-th data
    // set; its circuit contributes comp_time / m_i.
    for i in 0..view.num_stages() {
        let m_i = view.mapping.replicas(i);
        for &u in view.mapping.procs(i) {
            let period = view.comp_time(i, u) / m_i as f64;
            visit(ColumnId::Computation { stage: i, proc: u }, period, &[]);
        }
    }
    // Communication columns, one per edge (chain: edge i is F_i).
    for e in 0..view.pipeline.num_edges() {
        let (id, period, witness) = scratch.comm_column(view, e);
        visit(id, period, witness.as_ref().map_or(&[], |sol| &sol.cycle));
    }
}

/// A walked column as a public [`ColumnPeriod`] (pattern circuit vertices
/// mapped back to component rows).
fn column_period(id: ColumnId, period: f64, cycle: &[u32]) -> ColumnPeriod {
    let bottleneck = match id {
        ColumnId::Computation { stage, proc } => Bottleneck::Computation { stage, proc },
        ColumnId::Communication { file, residue, g } => Bottleneck::Communication {
            file,
            residue,
            pattern_rows: cycle.iter().map(|&q| (residue + g * q as usize) as u64).collect(),
        },
    };
    ColumnPeriod { bottleneck, period }
}

/// Runs the full Theorem 1 analysis: the per-data-set period of the mapping
/// under the **overlap one-port** model, in time polynomial in the
/// replication factors (never in `m`).
pub fn overlap_period(inst: &Instance) -> OverlapAnalysis {
    overlap_period_view(inst.view())
}

/// [`overlap_period`] on a borrowed view: every column with its
/// contribution, and the critical one (the last maximum in walk order).
/// The period engine folds the same walk without materializing columns.
pub fn overlap_period_view(view: InstanceView<'_>) -> OverlapAnalysis {
    let mut columns = Vec::new();
    walk_columns(view, &mut OverlapScratch::default(), |id, period, cycle| {
        columns.push(column_period(id, period, cycle));
    });
    let best = columns
        .iter()
        .max_by(|a, b| a.period.partial_cmp(&b.period).expect("finite periods"))
        .expect("at least one column")
        .clone();
    OverlapAnalysis { period: best.period, bottleneck: best.bottleneck, columns }
}

/// Sanity relation used in tests and reports: the overlap period is at least
/// the maximum cycle-time.
pub fn gap_to_mct(inst: &Instance, analysis: &OverlapAnalysis) -> f64 {
    let (mct, _) = max_cycle_time(inst, CommModel::Overlap);
    analysis.period - mct
}

/// Convenience: `M_ct` from per-resource cycle times (overlap model).
pub fn overlap_mct(inst: &Instance) -> f64 {
    cycle_times(inst)
        .iter()
        .map(|c| c.exec(CommModel::Overlap))
        .fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Mapping, Pipeline, Platform};

    fn chain_instance(replicas: &[usize], work: f64, file: f64) -> Instance {
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
    fn pattern_info_example_c() {
        let info = pattern_info(&[5, 21, 27, 11], 1);
        assert_eq!(info.g, 3);
        assert_eq!(info.u, 7);
        assert_eq!(info.v, 9);
        assert_eq!(info.m, Some(10395));
        assert_eq!(info.c, Some(55));
    }

    #[test]
    fn one_to_one_is_max_resource() {
        let inst = chain_instance(&[1, 1, 1], 4.0, 2.0);
        let a = overlap_period(&inst);
        // comp 4 per stage, comm 2 per link; overlap: max = 4.
        assert!((a.period - 4.0).abs() < 1e-12);
        assert!(matches!(a.bottleneck, Bottleneck::Computation { .. }));
    }

    #[test]
    fn replication_divides_compute() {
        let inst = chain_instance(&[1, 4], 8.0, 0.5);
        let a = overlap_period(&inst);
        // Stage 1: 8/4 = 2; stage 0: 8; comm: sender port (0.5·4)/4 = 0.5.
        assert!((a.period - 8.0).abs() < 1e-12);
    }

    #[test]
    fn sender_port_becomes_bottleneck() {
        // One fast source feeding 3 receivers of a heavy stage: the source's
        // out-port serializes all transfers.
        let inst = chain_instance(&[1, 3], 0.1, 5.0);
        let a = overlap_period(&inst);
        // Out-port: three transfers of 5 per 3 data sets ⇒ 5 per data set.
        assert!((a.period - 5.0).abs() < 1e-12, "period {}", a.period);
        assert!(matches!(a.bottleneck, Bottleneck::Communication { file: 0, .. }));
    }

    #[test]
    fn homogeneous_coprime_fanout() {
        // 2 senders → 3 receivers, all transfer times 6. Sender port: each
        // sends 3 files per 6 data sets: 3 busy units per data set... i.e.
        // (6·3)/6 = 3. Receiver port: (6·2)/6 = 2. P̂ = 3.
        let inst = chain_instance(&[2, 3], 0.0, 6.0);
        let a = overlap_period(&inst);
        assert!((a.period - 3.0).abs() < 1e-12, "period {}", a.period);
    }

    #[test]
    fn components_are_independent() {
        // m_i = m_{i+1} = 2 (g = 2): component ρ has its single link only.
        let mut inst = chain_instance(&[2, 2], 0.0, 1.0);
        // link P0→P2 slow (time 9), P1→P3 fast (1); cross links unused.
        inst.platform.set_bandwidth(0, 2, 1.0 / 9.0);
        let a = overlap_period(&inst);
        // Component 0: transfer 9 every 2 data sets → 4.5.
        assert!((a.period - 4.5).abs() < 1e-12, "period {}", a.period);
        match &a.bottleneck {
            Bottleneck::Communication { residue, .. } => assert_eq!(*residue, 0),
            other => panic!("wrong bottleneck {other:?}"),
        }
    }

    #[test]
    fn mct_is_lower_bound() {
        let inst = chain_instance(&[3, 4], 2.0, 7.0);
        let a = overlap_period(&inst);
        assert!(gap_to_mct(&inst, &a) >= -1e-9);
    }

    #[test]
    fn single_stage_no_comm() {
        let inst = chain_instance(&[3], 9.0, 0.0);
        let a = overlap_period(&inst);
        assert!((a.period - 3.0).abs() < 1e-12);
    }
}
