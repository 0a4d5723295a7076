//! The application / platform / mapping model (§2 of the paper).

use std::fmt;

/// Index of a processor on the platform.
pub type ProcId = usize;
/// Index of a stage of the pipeline.
pub type StageId = usize;
/// Index of a precedence edge (a transferred file) of a workflow.
pub type EdgeId = usize;

/// The two communication models of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommModel {
    /// **Overlap one-port**: a processor simultaneously receives, computes
    /// and sends (three independent sub-resources), each port serializing
    /// its own transfers.
    Overlap,
    /// **Strict one-port**: receive, compute and send are mutually
    /// exclusive on a processor.
    Strict,
}

impl fmt::Display for CommModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommModel::Overlap => write!(f, "overlap one-port"),
            CommModel::Strict => write!(f, "strict one-port"),
        }
    }
}

/// Validation errors for [`Pipeline`], [`Mapping`] and [`Instance`].
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A pipeline needs at least one stage.
    EmptyPipeline,
    /// `files.len()` must equal `work.len() − 1`.
    FileCountMismatch {
        /// number of stages
        stages: usize,
        /// number of inter-stage files provided
        files: usize,
    },
    /// Stage works and file sizes must be finite and non-negative.
    InvalidSize(f64),
    /// Every stage must be mapped onto at least one processor.
    UnmappedStage(StageId),
    /// A processor may execute at most one stage (and appear once in it).
    ProcessorReused(ProcId),
    /// A mapped processor does not exist on the platform.
    UnknownProcessor(ProcId),
    /// A platform description names more processors than
    /// [`MAX_PROCS`]: its `p × p` bandwidth matrix is not allocated.
    TooManyProcessors {
        /// processors described
        procs: usize,
        /// the bound
        max: usize,
    },
    /// Processor speeds must be positive and finite.
    InvalidSpeed {
        /// the processor with the invalid speed
        proc: ProcId,
        /// the offending value
        speed: f64,
    },
    /// A bandwidth used by the mapping must be positive and finite.
    InvalidBandwidth {
        /// sending processor
        from: ProcId,
        /// receiving processor
        to: ProcId,
        /// the offending value
        bandwidth: f64,
    },
    /// An operation time overflows although its size and its resource are
    /// each valid: `w_i / Π_u` of a mapped stage, or `δ_e / b_{u,v}` of a
    /// file over a used link, is not finite.
    TimeOverflow {
        /// The stage computed, or the source stage of the transferred file.
        stage: StageId,
        /// `Some(e)` for the transfer of edge `e` over link `from → to`;
        /// `None` for the computation of `stage` on processor `from`.
        edge: Option<EdgeId>,
        /// The computing or sending processor.
        from: ProcId,
        /// The receiving processor (`from` for a computation).
        to: ProcId,
    },
    /// Stage/mapping length mismatch.
    StageCountMismatch {
        /// stages in the pipeline
        pipeline: usize,
        /// stages in the mapping
        mapping: usize,
    },
    /// An edge must go from a lower to a higher stage id (stage ids are a
    /// topological order) and both endpoints must exist.
    InvalidEdge {
        /// source stage
        from: StageId,
        /// destination stage
        to: StageId,
    },
    /// Every stage except the source needs an in-edge and every stage
    /// except the sink needs an out-edge.
    DisconnectedStage(StageId),
    /// The precedence graph must reduce to the single source→sink edge
    /// under series-parallel reduction (merge parallel edges, contract
    /// degree-(1,1) internal stages).
    NotSeriesParallel,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptyPipeline => write!(f, "pipeline has no stage"),
            ModelError::FileCountMismatch { stages, files } => {
                write!(f, "{stages} stages need {} files, got {files}", stages - 1)
            }
            ModelError::InvalidSize(v) => write!(f, "invalid stage/file size {v}"),
            ModelError::UnmappedStage(s) => write!(f, "stage {s} is mapped to no processor"),
            ModelError::ProcessorReused(p) => {
                write!(f, "processor {p} is assigned more than one stage slot")
            }
            ModelError::UnknownProcessor(p) => write!(f, "processor {p} not on the platform"),
            ModelError::TooManyProcessors { procs, max } => {
                write!(f, "{procs} processors exceed the supported maximum of {max}")
            }
            ModelError::InvalidSpeed { proc, speed } => {
                write!(f, "processor {proc} has invalid speed {speed}")
            }
            ModelError::InvalidBandwidth { from, to, bandwidth } => {
                write!(f, "link {from}->{to} has invalid bandwidth {bandwidth}")
            }
            ModelError::TimeOverflow { stage, edge: None, from, .. } => {
                let what = "computation time work/speed overflows";
                write!(f, "stage {stage} on processor {from}: {what}")
            }
            ModelError::TimeOverflow { edge: Some(e), from, to, .. } => {
                write!(f, "edge {e} over link {from}->{to}: transfer time size/bandwidth overflows")
            }
            ModelError::StageCountMismatch { pipeline, mapping } => {
                write!(f, "pipeline has {pipeline} stages but mapping covers {mapping}")
            }
            ModelError::InvalidEdge { from, to } => {
                write!(f, "invalid edge {from}->{to} (need from < to < num_stages)")
            }
            ModelError::DisconnectedStage(s) => {
                write!(f, "stage {s} is disconnected (missing an in- or out-edge)")
            }
            ModelError::NotSeriesParallel => {
                write!(f, "precedence graph is not two-terminal series-parallel")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// A series-parallel streaming application: stage `S_k` costs `work[k]`
/// FLOP; precedence edge `e = (src, dst)` carries a file of `files[e]`
/// bytes from `S_src` to `S_dst`. Stage ids are required to be a
/// topological order (`src < dst` on every edge), stage `0` is the single
/// source and stage `n − 1` the single sink, and the precedence graph must
/// be two-terminal **series-parallel** ([`Workflow::from_edges`] validates
/// this by SP reduction).
///
/// The paper's linear chain is the special case built by
/// [`Workflow::new`]; [`Pipeline`] is a type alias for it, so every chain
/// call site and every SP-DAG call site share one code path.
#[derive(Debug, Clone, PartialEq)]
pub struct Workflow {
    work: Vec<f64>,
    /// `files[e]` is the size of the file carried by edge `e`.
    files: Vec<f64>,
    /// Edge endpoints `(src, dst)`, sorted by `(src, dst)`.
    edges: Vec<(u32, u32)>,
    /// Per-stage in-edge ids, ascending.
    ins: Vec<Vec<EdgeId>>,
    /// Per-stage out-edge ids, ascending.
    outs: Vec<Vec<EdgeId>>,
}

/// The linear special case of [`Workflow`] — what the paper calls a
/// replicated pipeline. A thin alias: no call site keeps a parallel
/// chain-only code path.
pub type Pipeline = Workflow;

impl Workflow {
    /// Builds a linear pipeline of `work.len()` stages with
    /// `work.len() − 1` inter-stage files (edge `k` goes `S_k → S_{k+1}`
    /// and carries `files[k]`).
    pub fn new(work: Vec<f64>, files: Vec<f64>) -> Result<Self, ModelError> {
        if work.is_empty() {
            return Err(ModelError::EmptyPipeline);
        }
        if files.len() != work.len() - 1 {
            return Err(ModelError::FileCountMismatch { stages: work.len(), files: files.len() });
        }
        for &v in work.iter().chain(files.iter()) {
            if !v.is_finite() || v < 0.0 {
                return Err(ModelError::InvalidSize(v));
            }
        }
        let edges = (0..work.len().saturating_sub(1)).map(|k| (k as u32, k as u32 + 1)).collect();
        Ok(Workflow::assemble(work, files, edges))
    }

    /// Builds a series-parallel workflow from explicit precedence edges
    /// `(src, dst, file_size)`. Edges are sorted by `(src, dst)` (ties
    /// keep input order); the sorted position is the edge's [`EdgeId`],
    /// which is also its index in [`Workflow::file_sizes`]. Validates the
    /// SP-DAG shape: topologically ordered ids, single source/sink,
    /// connected interior, series-parallel reducible.
    pub fn from_edges(
        work: Vec<f64>,
        edges: Vec<(StageId, StageId, f64)>,
    ) -> Result<Self, ModelError> {
        if work.is_empty() {
            return Err(ModelError::EmptyPipeline);
        }
        let n = work.len();
        for &v in work.iter() {
            if !v.is_finite() || v < 0.0 {
                return Err(ModelError::InvalidSize(v));
            }
        }
        let mut sorted = edges;
        sorted.sort_by_key(|&(s, d, _)| (s, d));
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(sorted.len());
        let mut files: Vec<f64> = Vec::with_capacity(sorted.len());
        for (s, d, size) in sorted {
            if s >= d || d >= n {
                return Err(ModelError::InvalidEdge { from: s, to: d });
            }
            if !size.is_finite() || size < 0.0 {
                return Err(ModelError::InvalidSize(size));
            }
            pairs.push((s as u32, d as u32));
            files.push(size);
        }
        // Interior connectivity. `src < dst` already makes stage 0 the
        // only possible source and stage n−1 the only possible sink.
        let mut in_deg = vec![0usize; n];
        let mut out_deg = vec![0usize; n];
        for &(s, d) in &pairs {
            out_deg[s as usize] += 1;
            in_deg[d as usize] += 1;
        }
        for (i, (&din, &dout)) in in_deg.iter().zip(out_deg.iter()).enumerate() {
            if (i > 0 && din == 0) || (i + 1 < n && dout == 0) {
                return Err(ModelError::DisconnectedStage(i));
            }
        }
        if !is_series_parallel(n, &pairs) {
            return Err(ModelError::NotSeriesParallel);
        }
        Ok(Workflow::assemble(work, files, pairs))
    }

    fn assemble(work: Vec<f64>, files: Vec<f64>, edges: Vec<(u32, u32)>) -> Self {
        let n = work.len();
        let mut ins = vec![Vec::new(); n];
        let mut outs = vec![Vec::new(); n];
        for (e, &(s, d)) in edges.iter().enumerate() {
            outs[s as usize].push(e);
            ins[d as usize].push(e);
        }
        Workflow { work, files, edges, ins, outs }
    }

    /// Number of stages `n`.
    pub fn num_stages(&self) -> usize {
        self.work.len()
    }

    /// Number of precedence edges `E` (chain: `n − 1`).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Work (FLOP) of stage `k`.
    pub fn work(&self, k: StageId) -> f64 {
        self.work[k]
    }

    /// Size (bytes) of the file carried by edge `e` (on a chain, edge `k`
    /// is the file `F_k` produced by stage `k`).
    pub fn file(&self, e: EdgeId) -> f64 {
        self.files[e]
    }

    /// Endpoints `(src, dst)` of edge `e`.
    pub fn edge(&self, e: EdgeId) -> (StageId, StageId) {
        let (s, d) = self.edges[e];
        (s as usize, d as usize)
    }

    /// All edge endpoints, sorted by `(src, dst)`.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Ids of the edges into stage `i`, ascending (chain: `[i − 1]`).
    pub fn in_edges(&self, i: StageId) -> &[EdgeId] {
        &self.ins[i]
    }

    /// Ids of the edges out of stage `i`, ascending (chain: `[i]`).
    pub fn out_edges(&self, i: StageId) -> &[EdgeId] {
        &self.outs[i]
    }

    /// True iff the workflow is the linear chain `S_0 → … → S_{n−1}`.
    pub fn is_linear(&self) -> bool {
        self.edges.len() == self.work.len() - 1
            && self
                .edges
                .iter()
                .enumerate()
                .all(|(e, &(s, d))| s as usize == e && d as usize == e + 1)
    }

    /// All stage works.
    pub fn works(&self) -> &[f64] {
        &self.work
    }

    /// All file sizes, indexed by [`EdgeId`].
    pub fn file_sizes(&self) -> &[f64] {
        &self.files
    }
}

/// Two-terminal series-parallel recognition by the classic reduction:
/// repeatedly merge parallel edges and contract internal stages with
/// in-degree 1 and out-degree 1; the graph is SP iff a single
/// source→sink edge remains.
fn is_series_parallel(n: usize, edges: &[(u32, u32)]) -> bool {
    if n == 1 {
        return edges.is_empty();
    }
    let mut multi: std::collections::BTreeMap<(u32, u32), usize> =
        std::collections::BTreeMap::new();
    for &e in edges {
        *multi.entry(e).or_insert(0) += 1;
    }
    loop {
        let mut changed = false;
        for count in multi.values_mut() {
            if *count > 1 {
                *count = 1;
                changed = true;
            }
        }
        let mut in_deg = vec![0usize; n];
        let mut out_deg = vec![0usize; n];
        for (&(s, d), &c) in &multi {
            out_deg[s as usize] += c;
            in_deg[d as usize] += c;
        }
        let contract = (1..n - 1).find(|&v| in_deg[v] == 1 && out_deg[v] == 1).map(|v| v as u32);
        if let Some(v) = contract {
            let (&(s, _), _) = multi.iter().find(|(&(_, d), _)| d == v).expect("in-edge");
            let (&(_, d), _) = multi.iter().find(|(&(s2, _), _)| s2 == v).expect("out-edge");
            multi.remove(&(s, v));
            multi.remove(&(v, d));
            *multi.entry((s, d)).or_insert(0) += 1;
            changed = true;
        }
        if !changed {
            break;
        }
    }
    multi.len() == 1 && multi.get(&(0, n as u32 - 1)) == Some(&1)
}

/// The most processors a platform read from outside input may have: its
/// `p × p` bandwidth matrix then takes 128 MiB. Readers check
/// [`Platform::check_num_procs`] before allocating.
pub const MAX_PROCS: usize = 4096;

/// A fully heterogeneous platform: processor speeds and a full bandwidth
/// matrix (links may be logical, e.g. through a central switch).
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    speeds: Vec<f64>,
    /// Row-major `p × p`; `bandwidth[u][v]` is the bandwidth of
    /// `link(u → v)`. Diagonal unused.
    bandwidth: Vec<f64>,
}

impl Platform {
    /// A platform with the given speeds and bandwidth matrix (row-major,
    /// `speeds.len()²` entries).
    pub fn new(speeds: Vec<f64>, bandwidth: Vec<f64>) -> Self {
        assert_eq!(bandwidth.len(), speeds.len() * speeds.len(), "bandwidth must be p×p");
        Platform { speeds, bandwidth }
    }

    /// A homogeneous platform: `p` processors of speed `speed`, all links of
    /// bandwidth `bw`.
    pub fn uniform(p: usize, speed: f64, bw: f64) -> Self {
        Platform { speeds: vec![speed; p], bandwidth: vec![bw; p * p] }
    }

    /// Number of processors `p`.
    pub fn num_procs(&self) -> usize {
        self.speeds.len()
    }

    /// Rejects a processor count above [`MAX_PROCS`] — the check a reader
    /// of untrusted input runs before [`Platform::uniform`] allocates the
    /// `p²` bandwidth matrix.
    pub fn check_num_procs(p: usize) -> Result<(), ModelError> {
        if p > MAX_PROCS {
            return Err(ModelError::TooManyProcessors { procs: p, max: MAX_PROCS });
        }
        Ok(())
    }

    /// Speed `Π_u`.
    pub fn speed(&self, u: ProcId) -> f64 {
        self.speeds[u]
    }

    /// Bandwidth `b_{u,v}`.
    pub fn bandwidth(&self, u: ProcId, v: ProcId) -> f64 {
        self.bandwidth[u * self.speeds.len() + v]
    }

    /// Sets one link's bandwidth.
    pub fn set_bandwidth(&mut self, u: ProcId, v: ProcId, bw: f64) {
        let p = self.speeds.len();
        self.bandwidth[u * p + v] = bw;
    }

    /// Sets one processor's speed.
    pub fn set_speed(&mut self, u: ProcId, speed: f64) {
        self.speeds[u] = speed;
    }
}

/// A mapping of stages to processors. `assignment[i]` lists the `m_i`
/// processors running stage `S_i`, **in round-robin order**: data set `j` of
/// stage `i` is processed by `assignment[i][j mod m_i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    assignment: Vec<Vec<ProcId>>,
}

impl Mapping {
    /// Builds a mapping; checks that every stage has at least one processor
    /// and no processor appears twice (a processor executes at most one
    /// stage — rule enforced by the paper).
    pub fn new(assignment: Vec<Vec<ProcId>>) -> Result<Self, ModelError> {
        check_assignment(&assignment)?;
        Ok(Mapping { assignment })
    }

    /// Replaces the assignment in place, reusing this mapping's buffers:
    /// the same checks and the same errors as [`Mapping::new`], and on an
    /// error the mapping is left unchanged. A search that evaluates one
    /// candidate per leaf refills a single mapping instead of building one.
    pub fn assign(&mut self, assignment: &[Vec<ProcId>]) -> Result<(), ModelError> {
        check_assignment(assignment)?;
        assignment.clone_into(&mut self.assignment);
        Ok(())
    }

    /// One-to-one mapping: stage `i` on processor `procs[i]`.
    pub fn one_to_one(procs: Vec<ProcId>) -> Result<Self, ModelError> {
        Mapping::new(procs.into_iter().map(|p| vec![p]).collect())
    }

    /// Number of stages covered.
    pub fn num_stages(&self) -> usize {
        self.assignment.len()
    }

    /// Replication factor `m_i`.
    pub fn replicas(&self, i: StageId) -> usize {
        self.assignment[i].len()
    }

    /// The processors of stage `i`, in round-robin order.
    pub fn procs(&self, i: StageId) -> &[ProcId] {
        &self.assignment[i]
    }

    /// All replication factors `(m_0, …, m_{n−1})`.
    pub fn replica_counts(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.replica_counts_into(&mut out);
        out
    }

    /// Writes the replication factors into `out` (cleared first) — the
    /// allocation-free form of [`Mapping::replica_counts`] for callers
    /// that snapshot counts in a hot loop (the period engine's shape
    /// signature, the search loops' pass snapshots).
    pub fn replica_counts_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.assignment.iter().map(Vec::len));
    }

    /// True iff no stage is replicated (`m_i = 1` for all `i`).
    pub fn is_one_to_one(&self) -> bool {
        self.assignment.iter().all(|a| a.len() == 1)
    }

    /// The underlying assignment.
    pub fn assignment(&self) -> &[Vec<ProcId>] {
        &self.assignment
    }

    // --- in-place neighbor moves -------------------------------------
    //
    // The mapping searches (`repwf-map`) explore thousands of neighbor
    // mappings per second; rebuilding a `Mapping` (and re-running the
    // `Mapping::new` duplicate scan) per candidate dominated the cheap
    // moves. These mutators apply one move in place and are exactly
    // invertible, so a search applies a move, evaluates, and undoes it.
    // Each preserves the structural invariants (every stage non-empty, no
    // processor in two slots): violating a precondition panics — the
    // check is O(Σ m_i), negligible next to the period solve that follows
    // every move, and a silent invariant break would poison every
    // downstream consumer that trusts a `Mapping`.

    /// Appends `u` as the last replica of stage `i`. Panics if `u` already
    /// appears anywhere in the mapping. Inverse:
    /// [`Mapping::remove_replica`] at the last slot.
    pub fn push_replica(&mut self, i: StageId, u: ProcId) {
        assert!(
            self.assignment.iter().all(|procs| !procs.contains(&u)),
            "processor {u} is already mapped"
        );
        self.assignment[i].push(u);
    }

    /// Removes and returns the replica at `slot` of stage `i`, shifting
    /// later slots down. Panics if stage `i` has fewer than two replicas
    /// (a stage may never become empty). Inverse:
    /// [`Mapping::insert_replica`] at the same slot.
    pub fn remove_replica(&mut self, i: StageId, slot: usize) -> ProcId {
        assert!(self.assignment[i].len() > 1, "stage {i} must keep >= 1 replica");
        self.assignment[i].remove(slot)
    }

    /// Inserts `u` at `slot` of stage `i` (round-robin order matters, so
    /// undo must restore the exact slot, not append). Panics if `u`
    /// already appears anywhere in the mapping.
    pub fn insert_replica(&mut self, i: StageId, slot: usize, u: ProcId) {
        assert!(
            self.assignment.iter().all(|procs| !procs.contains(&u)),
            "processor {u} is already mapped"
        );
        self.assignment[i].insert(slot, u);
    }

    /// Swaps the processors of slot `si` of stage `i` and slot `sj` of
    /// stage `j`. Self-inverse; always preserves validity.
    pub fn swap_replicas(&mut self, i: StageId, si: usize, j: StageId, sj: usize) {
        let a = self.assignment[i][si];
        let b = self.assignment[j][sj];
        self.assignment[i][si] = b;
        self.assignment[j][sj] = a;
    }
}

/// The structural checks behind [`Mapping::new`] and [`Mapping::assign`],
/// in stage-major slot order: the first empty stage or the first repeated
/// processor, whichever the scan meets first. Processor ids below 256, the
/// common case, are tracked in a stack bitmap, so the check allocates
/// nothing; a mapping naming a larger id is checked by sorting
/// `(id, position)` pairs, which finds the same first repeat.
fn check_assignment(assignment: &[Vec<ProcId>]) -> Result<(), ModelError> {
    const SMALL: usize = 256;
    if assignment.iter().flatten().all(|&p| p < SMALL) {
        let mut seen = [0u64; SMALL / 64];
        for (i, procs) in assignment.iter().enumerate() {
            if procs.is_empty() {
                return Err(ModelError::UnmappedStage(i));
            }
            for &p in procs {
                let (word, bit) = (p / 64, 1u64 << (p % 64));
                if seen[word] & bit != 0 {
                    return Err(ModelError::ProcessorReused(p));
                }
                seen[word] |= bit;
            }
        }
        return Ok(());
    }
    let mut slots: Vec<(ProcId, usize)> = assignment.iter().flatten().copied().zip(0..).collect();
    slots.sort_unstable();
    // Sorted by (id, position): the second element of an equal-id window
    // is a repeat, and the earliest such position is the scan's first one.
    let first_repeat =
        slots.windows(2).filter(|w| w[0].0 == w[1].0).map(|w| (w[1].1, w[1].0)).min();
    let mut end = 0;
    for (i, procs) in assignment.iter().enumerate() {
        if procs.is_empty() {
            return Err(ModelError::UnmappedStage(i));
        }
        end += procs.len();
        if let Some((_, p)) = first_repeat.filter(|&(pos, _)| pos < end) {
            return Err(ModelError::ProcessorReused(p));
        }
    }
    Ok(())
}

/// A validated (pipeline, platform, mapping) triple — the input of every
/// throughput algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// The application.
    pub pipeline: Pipeline,
    /// The platform.
    pub platform: Platform,
    /// The mapping.
    pub mapping: Mapping,
}

impl Instance {
    /// Bundles and cross-validates the three components: stage counts agree,
    /// mapped processors exist, speeds of used processors and bandwidths of
    /// used links are positive and finite.
    pub fn new(
        pipeline: Pipeline,
        platform: Platform,
        mapping: Mapping,
    ) -> Result<Self, ModelError> {
        InstanceView { pipeline: &pipeline, platform: &platform, mapping: &mapping }.validate()?;
        Ok(Instance { pipeline, platform, mapping })
    }

    /// The borrowed view of this instance — what the throughput algorithms
    /// actually consume. Free to construct; see [`InstanceView`].
    pub fn view(&self) -> InstanceView<'_> {
        InstanceView { pipeline: &self.pipeline, platform: &self.platform, mapping: &self.mapping }
    }

    /// Number of stages `n`.
    pub fn num_stages(&self) -> usize {
        self.pipeline.num_stages()
    }

    /// Computation time of stage `i` on processor `u`: `w_i / Π_u`.
    pub fn comp_time(&self, i: StageId, u: ProcId) -> f64 {
        self.view().comp_time(i, u)
    }

    /// Transfer time of the file carried by edge `e` over `link(u → v)`:
    /// `δ_e / b_{u,v}` (on a chain, edge `i` is the file `F_i`).
    pub fn comm_time(&self, e: EdgeId, u: ProcId, v: ProcId) -> f64 {
        self.view().comm_time(e, u, v)
    }

    /// The processor handling stage `i` of data set `j`
    /// (round-robin: `procs_i[j mod m_i]`).
    pub fn proc_for(&self, i: StageId, data_set: u64) -> ProcId {
        self.view().proc_for(i, data_set)
    }
}

/// A **borrowed** (pipeline, platform, mapping) triple — the zero-cost
/// sibling of [`Instance`].
///
/// Mapping searches evaluate thousands of candidate mappings against one
/// fixed pipeline/platform pair; building an owned [`Instance`] per
/// candidate means three deep clones per oracle call. A view borrows all
/// three components instead, offers the same accessors, and validates the
/// same invariants ([`InstanceView::validate`] is exactly the check behind
/// [`Instance::new`]). `repwf_core::engine::PeriodEngine::compute_view`
/// and the session-style `MappingOracle` consume views directly.
#[derive(Debug, Clone, Copy)]
pub struct InstanceView<'a> {
    /// The application.
    pub pipeline: &'a Pipeline,
    /// The platform.
    pub platform: &'a Platform,
    /// The mapping.
    pub mapping: &'a Mapping,
}

impl<'a> From<&'a Instance> for InstanceView<'a> {
    fn from(inst: &'a Instance) -> Self {
        inst.view()
    }
}

impl<'a> InstanceView<'a> {
    /// Bundles and validates a borrowed triple (same checks as
    /// [`Instance::new`], no clones).
    pub fn new(
        pipeline: &'a Pipeline,
        platform: &'a Platform,
        mapping: &'a Mapping,
    ) -> Result<Self, ModelError> {
        let view = InstanceView { pipeline, platform, mapping };
        view.validate()?;
        Ok(view)
    }

    /// Cross-validates the three components: stage counts agree, mapped
    /// processors exist, speeds of used processors and bandwidths of used
    /// links are positive and finite, and so is every operation time they
    /// give (a subnormal speed or bandwidth can make `w / Π` or `δ / b`
    /// overflow).
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.pipeline.num_stages() != self.mapping.num_stages() {
            return Err(ModelError::StageCountMismatch {
                pipeline: self.pipeline.num_stages(),
                mapping: self.mapping.num_stages(),
            });
        }
        for i in 0..self.mapping.num_stages() {
            for &u in self.mapping.procs(i) {
                if u >= self.platform.num_procs() {
                    return Err(ModelError::UnknownProcessor(u));
                }
                let s = self.platform.speed(u);
                if !(s.is_finite() && s > 0.0) {
                    return Err(ModelError::InvalidSpeed { proc: u, speed: s });
                }
                if !(self.pipeline.work(i) / s).is_finite() {
                    return Err(ModelError::TimeOverflow { stage: i, edge: None, from: u, to: u });
                }
            }
        }
        // Every sender/receiver pair that the round-robin can produce on
        // some precedence edge must have a usable link.
        for e in 0..self.pipeline.num_edges() {
            let (src, dst) = self.pipeline.edge(e);
            for &u in self.mapping.procs(src) {
                for &v in self.mapping.procs(dst) {
                    let b = self.platform.bandwidth(u, v);
                    if !(b.is_finite() && b > 0.0) {
                        return Err(ModelError::InvalidBandwidth { from: u, to: v, bandwidth: b });
                    }
                    if !(self.pipeline.file(e) / b).is_finite() {
                        let (stage, edge) = (src, Some(e));
                        return Err(ModelError::TimeOverflow { stage, edge, from: u, to: v });
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of stages `n`.
    pub fn num_stages(&self) -> usize {
        self.pipeline.num_stages()
    }

    /// Computation time of stage `i` on processor `u`: `w_i / Π_u`.
    pub fn comp_time(&self, i: StageId, u: ProcId) -> f64 {
        self.pipeline.work(i) / self.platform.speed(u)
    }

    /// Transfer time of the file carried by edge `e` over `link(u → v)`:
    /// `δ_e / b_{u,v}` (on a chain, edge `i` is the file `F_i`).
    pub fn comm_time(&self, e: EdgeId, u: ProcId, v: ProcId) -> f64 {
        self.pipeline.file(e) / self.platform.bandwidth(u, v)
    }

    /// The processor handling stage `i` of data set `j`
    /// (round-robin: `procs_i[j mod m_i]`).
    pub fn proc_for(&self, i: StageId, data_set: u64) -> ProcId {
        let procs = self.mapping.procs(i);
        procs[(data_set % procs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Instance {
        let pipeline = Pipeline::new(vec![4.0, 6.0], vec![2.0]).unwrap();
        let platform = Platform::uniform(3, 2.0, 1.0);
        let mapping = Mapping::new(vec![vec![0], vec![1, 2]]).unwrap();
        Instance::new(pipeline, platform, mapping).unwrap()
    }

    #[test]
    fn pipeline_validation() {
        assert_eq!(Pipeline::new(vec![], vec![]), Err(ModelError::EmptyPipeline));
        assert!(matches!(
            Pipeline::new(vec![1.0, 2.0], vec![]),
            Err(ModelError::FileCountMismatch { .. })
        ));
        assert!(matches!(
            Pipeline::new(vec![1.0, f64::NAN], vec![1.0]),
            Err(ModelError::InvalidSize(_))
        ));
        assert!(Pipeline::new(vec![5.0], vec![]).is_ok());
    }

    #[test]
    fn chain_from_edges_matches_new() {
        let a = Pipeline::new(vec![3.0, 5.0, 7.0], vec![2.0, 4.0]).unwrap();
        let b = Workflow::from_edges(vec![3.0, 5.0, 7.0], vec![(0, 1, 2.0), (1, 2, 4.0)]).unwrap();
        assert_eq!(a, b);
        assert!(a.is_linear());
        assert_eq!(a.num_edges(), 2);
        assert_eq!(a.edge(0), (0, 1));
        assert_eq!(a.edge(1), (1, 2));
        assert_eq!(a.in_edges(0), &[] as &[EdgeId]);
        assert_eq!(a.in_edges(1), &[0]);
        assert_eq!(a.out_edges(1), &[1]);
        assert_eq!(a.out_edges(2), &[] as &[EdgeId]);
        assert_eq!(a.file_sizes(), &[2.0, 4.0]);
    }

    #[test]
    fn fork_join_diamond_is_valid() {
        let wf = Workflow::from_edges(
            vec![1.0, 2.0, 3.0, 4.0],
            // Deliberately unsorted input: edges get sorted by (src, dst).
            vec![(2, 3, 30.0), (0, 1, 10.0), (1, 3, 40.0), (0, 2, 20.0)],
        )
        .unwrap();
        assert!(!wf.is_linear());
        assert_eq!(wf.num_edges(), 4);
        assert_eq!(wf.edges(), &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(wf.file_sizes(), &[10.0, 20.0, 40.0, 30.0]);
        assert_eq!(wf.out_edges(0), &[0, 1]);
        assert_eq!(wf.in_edges(3), &[2, 3]);
        assert_eq!(wf.in_edges(1), &[0]);
        assert_eq!(wf.out_edges(2), &[3]);
    }

    #[test]
    fn parallel_edges_are_series_parallel() {
        let wf = Workflow::from_edges(vec![1.0, 1.0], vec![(0, 1, 3.0), (0, 1, 5.0)]).unwrap();
        assert_eq!(wf.num_edges(), 2);
        assert_eq!(wf.edges(), &[(0, 1), (0, 1)]);
    }

    #[test]
    fn non_sp_graph_rejected() {
        // The "W" graph (N-graph): 0→1, 0→2, 1→2, 1→3, 2→3 is a DAG with a
        // single source/sink but is not two-terminal series-parallel.
        assert_eq!(
            Workflow::from_edges(
                vec![1.0; 4],
                vec![(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
            ),
            Err(ModelError::NotSeriesParallel)
        );
    }

    #[test]
    fn from_edges_validation_errors() {
        assert_eq!(Workflow::from_edges(vec![], vec![]), Err(ModelError::EmptyPipeline));
        assert_eq!(
            Workflow::from_edges(vec![1.0, 1.0], vec![(1, 0, 1.0)]),
            Err(ModelError::InvalidEdge { from: 1, to: 0 })
        );
        assert_eq!(
            Workflow::from_edges(vec![1.0, 1.0], vec![(0, 2, 1.0)]),
            Err(ModelError::InvalidEdge { from: 0, to: 2 })
        );
        assert_eq!(
            Workflow::from_edges(vec![1.0, 1.0, 1.0], vec![(0, 2, 1.0)]),
            Err(ModelError::DisconnectedStage(1))
        );
        assert!(matches!(
            Workflow::from_edges(vec![1.0, 1.0], vec![(0, 1, f64::NAN)]),
            Err(ModelError::InvalidSize(_))
        ));
        // Single stage: no edges is the (trivially SP) empty workflow.
        assert!(Workflow::from_edges(vec![5.0], vec![]).is_ok());
    }

    #[test]
    fn fork_join_validate_checks_edge_links() {
        let wf = Workflow::from_edges(
            vec![1.0; 4],
            vec![(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
        )
        .unwrap();
        let mut platform = Platform::uniform(4, 1.0, 1.0);
        // Break the 0→2 branch link: used by edge (0, 2), not by any
        // chain-adjacent pair.
        platform.set_bandwidth(0, 2, 0.0);
        let mapping = Mapping::new(vec![vec![0], vec![1], vec![2], vec![3]]).unwrap();
        assert!(matches!(
            Instance::new(wf, platform, mapping),
            Err(ModelError::InvalidBandwidth { from: 0, to: 2, .. })
        ));
    }

    #[test]
    fn mapping_rejects_reuse() {
        assert_eq!(Mapping::new(vec![vec![0], vec![0, 1]]), Err(ModelError::ProcessorReused(0)));
        assert_eq!(Mapping::new(vec![vec![0], vec![]]), Err(ModelError::UnmappedStage(1)));
    }

    #[test]
    fn instance_cross_checks() {
        let pipeline = Pipeline::new(vec![1.0, 1.0], vec![1.0]).unwrap();
        let platform = Platform::uniform(2, 1.0, 1.0);
        let mapping = Mapping::new(vec![vec![0], vec![5]]).unwrap();
        assert_eq!(
            Instance::new(pipeline.clone(), platform.clone(), mapping),
            Err(ModelError::UnknownProcessor(5))
        );
        let mapping3 = Mapping::new(vec![vec![0]]).unwrap();
        assert!(matches!(
            Instance::new(pipeline, platform, mapping3),
            Err(ModelError::StageCountMismatch { .. })
        ));
    }

    #[test]
    fn zero_bandwidth_on_used_link_rejected() {
        let pipeline = Pipeline::new(vec![1.0, 1.0], vec![1.0]).unwrap();
        let mut platform = Platform::uniform(2, 1.0, 1.0);
        platform.set_bandwidth(0, 1, 0.0);
        let mapping = Mapping::new(vec![vec![0], vec![1]]).unwrap();
        assert!(matches!(
            Instance::new(pipeline, platform, mapping),
            Err(ModelError::InvalidBandwidth { from: 0, to: 1, .. })
        ));
    }

    #[test]
    fn zero_bandwidth_on_unused_link_ok() {
        let pipeline = Pipeline::new(vec![1.0, 1.0], vec![1.0]).unwrap();
        let mut platform = Platform::uniform(3, 1.0, 1.0);
        platform.set_bandwidth(2, 0, 0.0); // proc 2 unused
        let mapping = Mapping::new(vec![vec![0], vec![1]]).unwrap();
        assert!(Instance::new(pipeline, platform, mapping).is_ok());
    }

    #[test]
    fn overflowing_operation_times_are_typed_errors() {
        // Every size, speed and bandwidth is valid on its own; the
        // quotients overflow to infinity.
        let pipeline = Pipeline::new(vec![22.0, 0.0], vec![1.0]).unwrap();
        let mapping = Mapping::new(vec![vec![0], vec![1]]).unwrap();
        let mut slow = Platform::uniform(2, 1.0, 1.0);
        slow.set_speed(0, 5e-324);
        assert_eq!(
            Instance::new(pipeline.clone(), slow.clone(), mapping.clone()),
            Err(ModelError::TimeOverflow { stage: 0, edge: None, from: 0, to: 0 })
        );
        // A zero work on the same subnormal speed takes no time.
        slow.set_speed(0, 1.0);
        slow.set_speed(1, 5e-324);
        assert!(Instance::new(pipeline.clone(), slow, mapping.clone()).is_ok());
        let mut thin = Platform::uniform(2, 1.0, 1.0);
        thin.set_bandwidth(0, 1, 1e-310);
        let err = Instance::new(pipeline, thin, mapping).unwrap_err();
        assert_eq!(err, ModelError::TimeOverflow { stage: 0, edge: Some(0), from: 0, to: 1 });
        let diagnosis = "edge 0 over link 0->1: transfer time size/bandwidth overflows";
        assert_eq!(err.to_string(), diagnosis);
    }

    #[test]
    fn times() {
        let inst = small();
        assert_eq!(inst.comp_time(0, 0), 2.0); // 4 / 2
        assert_eq!(inst.comm_time(0, 0, 1), 2.0); // 2 / 1
    }

    #[test]
    fn round_robin_assignment() {
        let inst = small();
        assert_eq!(inst.proc_for(1, 0), 1);
        assert_eq!(inst.proc_for(1, 1), 2);
        assert_eq!(inst.proc_for(1, 2), 1);
    }

    #[test]
    fn view_validates_like_instance_new() {
        let pipeline = Pipeline::new(vec![1.0, 1.0], vec![1.0]).unwrap();
        let mut platform = Platform::uniform(3, 1.0, 1.0);
        platform.set_bandwidth(0, 1, 0.0);
        for assignment in [vec![vec![0], vec![1]], vec![vec![0], vec![9]], vec![vec![0], vec![2]]] {
            let mapping = Mapping::new(assignment).unwrap();
            let via_view = InstanceView::new(&pipeline, &platform, &mapping).map(|_| ());
            let via_instance =
                Instance::new(pipeline.clone(), platform.clone(), mapping).map(|_| ());
            assert_eq!(via_view, via_instance);
        }
    }

    #[test]
    fn view_accessors_match_instance() {
        let inst = small();
        let view = inst.view();
        assert_eq!(view.num_stages(), inst.num_stages());
        assert_eq!(view.comp_time(0, 0), inst.comp_time(0, 0));
        assert_eq!(view.comm_time(0, 0, 1), inst.comm_time(0, 0, 1));
        assert_eq!(view.proc_for(1, 2), inst.proc_for(1, 2));
    }

    #[test]
    fn in_place_moves_round_trip() {
        let mut m = Mapping::new(vec![vec![0], vec![1, 2]]).unwrap();
        m.push_replica(0, 3);
        assert_eq!(m.procs(0), &[0, 3]);
        m.swap_replicas(0, 1, 1, 0);
        assert_eq!(m.procs(0), &[0, 1]);
        assert_eq!(m.procs(1), &[3, 2]);
        let u = m.remove_replica(1, 0);
        assert_eq!(u, 3);
        m.insert_replica(1, 0, u);
        assert_eq!(m.procs(1), &[3, 2]);
        // Invariants hold after every move (validated by reconstruction).
        assert!(Mapping::new(m.assignment().to_vec()).is_ok());
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn push_replica_rejects_duplicates() {
        let mut m = Mapping::new(vec![vec![0], vec![1]]).unwrap();
        m.push_replica(1, 0);
    }

    #[test]
    #[should_panic(expected = "must keep")]
    fn remove_replica_rejects_emptying_a_stage() {
        let mut m = Mapping::new(vec![vec![0], vec![1]]).unwrap();
        m.remove_replica(0, 0);
    }

    #[test]
    fn one_to_one_detection() {
        let inst = small();
        assert!(!inst.mapping.is_one_to_one());
        let m = Mapping::one_to_one(vec![3, 7]).unwrap();
        assert!(m.is_one_to_one());
        assert_eq!(m.replica_counts(), vec![1, 1]);
    }

    /// The `BTreeSet` scan `Mapping::new` used before the bitmap: the
    /// reference for which error a malformed assignment reports.
    fn reference_check(assignment: &[Vec<ProcId>]) -> Result<(), ModelError> {
        let mut seen = std::collections::BTreeSet::new();
        for (i, procs) in assignment.iter().enumerate() {
            if procs.is_empty() {
                return Err(ModelError::UnmappedStage(i));
            }
            for &p in procs {
                if !seen.insert(p) {
                    return Err(ModelError::ProcessorReused(p));
                }
            }
        }
        Ok(())
    }

    #[test]
    fn assign_matches_new_and_the_reference_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(14);
        let mut reused = Mapping::new(vec![vec![0]]).unwrap();
        let mut errors = [0usize; 2];
        for case in 0..4000 {
            // Small id ranges make repeats likely; every fourth case
            // shifts some ids past the bitmap to take the sorting path.
            let ids: usize = rng.gen_range(2..24);
            let base = [0, 300, 0, usize::MAX - 100][case % 4];
            let assignment: Vec<Vec<ProcId>> = (0..rng.gen_range(0..6))
                .map(|_| {
                    let len = if rng.gen_range(0..12) == 0 { 0 } else { rng.gen_range(1..5) };
                    (0..len)
                        .map(|_| rng.gen_range(0..ids) + if rng.gen() { base } else { 0 })
                        .collect()
                })
                .collect();
            let before = reused.clone();
            let fresh = Mapping::new(assignment.clone());
            let refilled = reused.assign(&assignment).map(|()| reused.clone());
            assert_eq!(fresh, refilled, "case {case}: {assignment:?}");
            assert_eq!(
                fresh.as_ref().err(),
                reference_check(&assignment).err().as_ref(),
                "case {case}"
            );
            match fresh {
                Ok(m) => assert_eq!(m.assignment(), &assignment[..]),
                Err(e) => {
                    assert_eq!(reused, before, "a failed assign must leave the mapping unchanged");
                    errors[usize::from(matches!(e, ModelError::ProcessorReused(_)))] += 1;
                }
            }
        }
        assert!(errors[0] > 50 && errors[1] > 50, "both error kinds exercised: {errors:?}");
    }

    #[test]
    fn processor_reused_names_the_first_repeat_in_stage_major_order() {
        for big in [0, 5000] {
            let a = vec![vec![big + 3, big + 1], vec![big + 2, big + 3, big + 1]];
            assert_eq!(Mapping::new(a), Err(ModelError::ProcessorReused(big + 3)));
            let a = vec![vec![big + 1, big + 2, big + 1], vec![big + 2]];
            assert_eq!(Mapping::new(a), Err(ModelError::ProcessorReused(big + 1)));
            // An empty stage met before the first repeat wins, and after it
            // loses.
            let a = vec![vec![big + 1], vec![], vec![big + 1]];
            assert_eq!(Mapping::new(a), Err(ModelError::UnmappedStage(1)));
            let a = vec![vec![big + 1, big + 1], vec![]];
            assert_eq!(Mapping::new(a), Err(ModelError::ProcessorReused(big + 1)));
        }
    }
}
