//! The zero-allocation period engine.
//!
//! Every headline experiment of the paper — the Table 2 campaigns, the gap
//! studies, annealing over mapping space — reduces to evaluating the
//! max-plus period of thousands of slightly-different event graphs. The
//! free-function API ([`crate::period::compute_period`]) pays full
//! construction cost each time: a fresh TPN (transitions, places, labels),
//! a fresh cycle-ratio graph, fresh Tarjan/Howard scratch. A
//! [`PeriodEngine`] owns all of that as arenas:
//!
//! * the **TPN build arena** — one [`TimedEventGraph`] cleared and rebuilt
//!   in place per call ([`crate::tpn_build::build_tpn_into`]);
//! * the **solver scratch** — a [`tpn::analysis::PeriodScratch`] holding
//!   the ratio-graph edge buffer and the `maxplus::Workspace` (CSR
//!   adjacency, SCC arrays, Howard policy/value vectors);
//! * the **Theorem 1 scratch** — an `OverlapScratch` holding one
//!   pattern graph, refilled per residue, and a small LRU of workspaces
//!   dedicated to pattern graphs, the **pattern slots**. Each pattern
//!   solve presents `(u, v)` as its structure token, which fixes the
//!   pattern's edges and token weights, and runs in the slot caching
//!   that token, so a `(u, v)` seen recently skips the CSR build and
//!   Tarjan's condensation even when other pairs came in between. Since
//!   the structure depends on `(u, v)` alone, the slots are sound in any
//!   engine. The polynomial method folds the column walk of
//!   [`crate::overlap_poly`] down to its maximum and never materializes
//!   the column list;
//!
//! so a `compute` call, on either method, is allocation-free once the
//! buffers have grown to the largest instance seen (modulo labels, if
//! enabled, the solver's witness circuit and the description in the
//! report).
//!
//! # Borrowed instances and the mapping oracle
//!
//! Every evaluation path also exists on a **borrowed**
//! [`InstanceView`] ([`PeriodEngine::compute_view`]): a mapping search
//! never clones pipeline/platform/mapping into an owned [`Instance`] per
//! candidate. The session type for that use case is [`MappingOracle`]:
//! it borrows the pair once, precomputes the platform validity tables,
//! and evaluates candidate mappings by reference.
//!
//! There is one solve path. [`MappingOracle::period`] returns its period
//! alone; [`PeriodEngine::compute_view`] and [`MappingOracle::compute`]
//! are a report layer over the same solve that adds `M_ct` (evaluated
//! first, as always) and the `critical` description of the witness. A
//! search that reads only the period skips both: `M_ct` is evaluated
//! only where it *is* the period (`Method::Auto` on a one-to-one
//! mapping).
//!
//! # Incremental (patched) solves
//!
//! A neighbor mapping with **unchanged per-stage replica counts** (e.g. a
//! swap of two replica slots) produces a TPN with the identical place
//! structure — only firing times differ. The engine detects this
//! (label-free arenas only) and takes the patch path: re-time transitions
//! in place ([`crate::tpn_build::retime_tpn_into`]), re-weight the edges
//! of the cycle-ratio graph fed by the changed transitions
//! (`tpn::analysis::period_patched_with`), and re-solve — no TPN rebuild,
//! no ratio-graph rebuild. The solve itself is **shape-cached**: the
//! engine's shape signature is threaded down to the `maxplus::Workspace`
//! as a structure token, so a patched solve also skips the CSR
//! construction and Tarjan's condensation entirely (zero CSR builds, zero
//! Tarjan runs — the tests assert it on the `repwf-obs` counters through
//! `repwf_obs::counted`) and jumps straight to warm Howard after one cost
//! sweep. The patched state is bit-for-bit what a rebuild would
//! produce, so results (and warm-started solver trajectories) are
//! identical to the cold path; this is pinned by the property tests in
//! `crates/core/tests/incremental_props.rs`. Changes that alter any
//! replica count (add/remove/move a replica) or the communication model
//! fall back to the full rebuild transparently, and any errored call
//! drops both the patch precondition and the cached condensation.
//!
//! # Per-shape patch slots
//!
//! An exact search closes the last stage at every tuple length, so
//! consecutive leaves alternate replica counts and a single arena would
//! almost never patch. A [`MappingOracle`] therefore parks the arenas of
//! the few most recently left shapes (net, solver scratch and shape, a
//! fixed small LRU). A candidate whose replica counts match a parked
//! arena swaps it in and patches; a miss parks the current arena and
//! rebuilds in the least recently used one. The slots belong to the
//! oracle, not to [`PeriodEngine`]: campaign engines keep a single arena
//! and park nothing. [`MappingOracle::reset_patch_state`] and
//! [`MappingOracle::reset_warm_start`] reach every slot.
//!
//! On top of the solver, [`MappingOracle`] keeps the `M_ct` side
//! incremental too: a per-session [`MctCache`] caches per-stage
//! cycle-times and re-examines only the stages a candidate actually
//! changed (plus their round-robin partners), instead of rescanning every
//! mapped processor per oracle call.
//!
//! # Per-edge column cache
//!
//! Under Theorem 1 every circuit of the overlap TPN lives in one column,
//! so a communication column is a pure function of its edge's file size,
//! the platform and the edge's two ordered processor tuples. A
//! [`MappingOracle`] pins the first two, so it remembers, per edge, the
//! last sender and receiver tuples it solved and the column's
//! `(residue, period)`. A polynomial solve whose candidate keeps an
//! edge's tuples reuses that column bit for bit and solves none of its
//! patterns; the engine's last-maximum fold and the `critical` string are
//! unchanged. Like the `M_ct` cache and the shape slots, the column cache
//! belongs to the oracle: campaign engines never see it,
//! [`MappingOracle::reset_patch_state`] clears it together with the
//! pattern slots, and [`MappingOracle::into_engine`] drops it.
//!
//! # Warm starts
//!
//! With [`PeriodEngine::warm_start`] enabled, Howard's policy iteration is
//! seeded with the converged policy of the *previous* solve whenever the
//! graph shape matches — which is exactly what happens when a mapping
//! search evaluates neighbor mappings of the same shape, where typically
//! only edge costs change. Warm starts change the search path, not the
//! reported period (recomputed exactly from the witness circuit; on
//! eps-level ties between distinct critical circuits — measure zero for
//! generic costs — the reported witness, and hence the last bits of the
//! ratio, may come from the other member of the tie).
//!
//! Warm starts are deliberately **off by default**: the campaign engine
//! keeps one engine per worker thread, and with warm starts the *witness
//! circuit* (not the period) could depend on which experiment a worker ran
//! previously, i.e. on the work-stealing schedule. Cold-per-call engines
//! keep every output a pure function of the experiment seed, preserving
//! the bit-identical-at-any-thread-count guarantee. Sequential searches
//! (`repwf_map::local_search`, `repwf_map::annealing`) enable warm starts.

use crate::cycle_time::{max_cycle_time_view, prefix_cycle_bound, CycleTime, MctCache};
use crate::model::{
    CommModel, Instance, InstanceView, Mapping, ModelError, Pipeline, Platform, ProcId, StageId,
};
use crate::overlap_poly::{walk_columns, ColumnCache, ColumnId, OverlapScratch};
use crate::paths::mapping_num_paths;
use crate::period::{Method, PeriodError, PeriodReport};
use crate::tpn_build::{build_tpn_view_into, retime_tpn_into, BuildError, BuildOptions};
use std::cmp::Ordering;
use tpn::analysis::PeriodScratch;
use tpn::net::{TimedEventGraph, TransitionId};

/// The shape of the TPN currently held in a [`PeriodEngine`]'s arena: the
/// place structure is a pure function of the communication model, the
/// per-stage replica counts and the workflow's edge set, so two mappings
/// with equal counts on the same precedence graph produce structurally
/// identical nets that differ only in firing times — the precondition for
/// the patch path. (On a chain the edge set is implied by the stage
/// count, so this is the historical model + replica-counts signature.)
#[derive(Debug, Clone, PartialEq)]
struct TpnShape {
    model: CommModel,
    replicas: Vec<usize>,
    edges: Vec<(u32, u32)>,
}

impl TpnShape {
    fn matches(&self, model: CommModel, view: InstanceView<'_>) -> bool {
        self.model == model
            && self.replicas.len() == view.mapping.num_stages()
            && self
                .replicas
                .iter()
                .zip(view.mapping.assignment())
                .all(|(&r, procs)| r == procs.len())
            && self.edges[..] == *view.pipeline.edges()
    }
}

/// A full-TPN arena: the net, the solver scratch built from it, and the
/// shape they hold when it is known to be patchable (`None` forces a full
/// rebuild). A [`PeriodEngine`] works in one; a [`MappingOracle`] parks
/// more of them, one per recently seen shape ([`ShapeSlots`]).
#[derive(Debug, Clone, Default)]
struct Arena {
    net: TimedEventGraph,
    scratch: PeriodScratch,
    shape: Option<TpnShape>,
}

/// Label-free arenas a [`MappingOracle`] parks beside its engine's own:
/// the most recently left shapes.
const SHAPE_SLOTS: usize = 8;

/// A mapping session's parked arenas, least recently used first (see
/// [`ShapeSlots::select`]).
#[derive(Debug, Clone, Default)]
struct ShapeSlots {
    parked: Vec<Arena>,
}

impl ShapeSlots {
    /// Prepares `current` for a full-TPN solve of `view` that its own
    /// shape cannot patch. If a parked arena holds the candidate's shape,
    /// it becomes `current` (the old one is parked as most recently used)
    /// and `true` is returned: the caller patches. Otherwise a shaped
    /// `current` is parked and replaced by the least recently used arena
    /// once every slot is taken (a fresh one before), and `false` tells
    /// the caller to rebuild.
    fn select(&mut self, current: &mut Arena, model: CommModel, view: InstanceView<'_>) -> bool {
        let hit = self
            .parked
            .iter()
            .position(|a| a.shape.as_ref().is_some_and(|s| s.matches(model, view)));
        let incoming = match hit {
            Some(k) => self.parked.remove(k),
            None if current.shape.is_none() => return false,
            None if self.parked.len() < SHAPE_SLOTS => Arena::default(),
            None => self.parked.remove(0),
        };
        self.parked.push(std::mem::replace(current, incoming));
        hit.is_some()
    }
}

/// The incremental state of a [`MappingOracle`] session, threaded into
/// the engine's solves. The `M_ct` and column caches are sound only
/// because the session pins one pipeline/platform pair, and campaign
/// engines keep a single arena, so none of it lives in [`PeriodEngine`].
#[derive(Debug, Clone, Default)]
struct Session {
    /// Per-stage cycle-times: a move re-examines only the stages it
    /// touched (and their neighbors).
    mct: MctCache,
    /// Arenas of recently left TPN shapes: a candidate whose replica
    /// counts match one of them patches instead of rebuilding.
    slots: ShapeSlots,
    /// The last Theorem 1 column solved per edge: a candidate that keeps
    /// an edge's two tuples reuses its column.
    columns: ColumnCache,
}

/// A solve's period and how it was obtained: everything the report
/// layer ([`PeriodEngine::compute_view`], [`MappingOracle::compute`])
/// adds `M_ct` and the `critical` description to, and all that
/// [`MappingOracle::period`] reads the period from.
struct Solved {
    period: f64,
    /// The method actually used (`Auto` only on the one-to-one shortcut).
    method: Method,
    num_paths: u128,
    witness: Witness,
}

/// What the period of a [`Solved`] is attained by.
enum Witness {
    /// One-to-one mapping under `Auto`: the critical resource.
    Resource { proc: ProcId, stage: StageId },
    /// The Theorem 1 column attaining the period (the last maximum).
    Column(ColumnId),
    /// The critical circuit of the net still held in the engine's arena.
    Circuit(Vec<TransitionId>),
}

/// `M_ct` and the processor attaining it, through the session's
/// incremental cache when there is one.
fn session_mct(
    view: InstanceView<'_>,
    model: CommModel,
    cache: Option<&mut MctCache>,
) -> (f64, CycleTime) {
    let _span = repwf_obs::span!(Mct);
    match cache {
        Some(cache) => cache.max_cycle_time(view, model),
        None => max_cycle_time_view(view, model),
    }
}

/// Reusable period solver: owns the TPN build arena and the max-plus
/// workspace, and optionally warm-starts Howard's iteration across calls.
///
/// ```
/// use repwf_core::engine::PeriodEngine;
/// use repwf_core::model::{CommModel, Instance, Mapping, Pipeline, Platform};
/// use repwf_core::period::Method;
///
/// let pipeline = Pipeline::new(vec![10.0, 20.0], vec![4.0]).unwrap();
/// let platform = Platform::uniform(3, 1.0, 1.0);
/// let mapping = Mapping::new(vec![vec![0], vec![1, 2]]).unwrap();
/// let inst = Instance::new(pipeline, platform, mapping).unwrap();
///
/// let mut engine = PeriodEngine::new();
/// for _ in 0..3 {
///     // Repeated evaluations reuse every internal buffer.
///     let r = engine.compute(&inst, CommModel::Strict, Method::FullTpn).unwrap();
///     assert!(r.period >= r.mct - 1e-9);
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PeriodEngine {
    opts: BuildOptions,
    warm: bool,
    /// The full-TPN arena solves run in.
    arena: Arena,
    /// Pattern graph and workspace of the polynomial (Theorem 1) method.
    overlap: OverlapScratch,
    /// Reusable buffer of re-timed transition ids for the patch path.
    changed: Vec<TransitionId>,
    /// How many full-TPN solves took the incremental patch path.
    patched_solves: u64,
}

impl PeriodEngine {
    /// An engine with the hot-path defaults: no labels, default size cap,
    /// cold starts.
    pub fn new() -> Self {
        PeriodEngine {
            opts: BuildOptions { labels: false, ..BuildOptions::default() },
            ..PeriodEngine::default()
        }
    }

    /// An engine with explicit TPN build options (labels, size cap).
    pub fn with_options(opts: BuildOptions) -> Self {
        PeriodEngine { opts, ..PeriodEngine::default() }
    }

    /// Enables/disables warm-started policy iteration (builder-style).
    /// See the module docs for when this is safe to turn on.
    pub fn warm_start(mut self, on: bool) -> Self {
        self.warm = on;
        self
    }

    /// The TPN build options this engine applies.
    pub fn options(&self) -> &BuildOptions {
        &self.opts
    }

    /// Forgets the warm-start policy of the previous solve (the next call
    /// behaves like a cold one even when warm starts are enabled).
    pub fn reset_warm_start(&mut self) {
        self.arena.scratch.clear_warm_start();
    }

    /// Number of full-TPN solves that took the incremental patch path
    /// (shape-preserving mapping change: firing times re-timed in place,
    /// cycle-ratio graph re-weighted, no rebuild). Kept beside the
    /// `patched_solves` counter because `perfbench` reads it.
    pub fn patched_solves(&self) -> u64 {
        self.patched_solves
    }

    /// Forgets the patch precondition: the next full-TPN solve rebuilds
    /// the arena net, the ratio graph and the condensation from scratch,
    /// and every pattern slot forgets its structure, so each `(u, v)`
    /// condenses again (results are unaffected — the patched state is
    /// always bit-for-bit a rebuild). Used by the tracked benches to price
    /// the rebuild path.
    pub fn reset_patch_state(&mut self) {
        self.arena.shape = None;
        self.overlap.clear_structure_cache();
    }

    /// Computes the per-data-set period of a mapped workflow, reusing the
    /// engine's arenas. Results are identical to
    /// [`crate::period::compute_period_with`] with the same options.
    pub fn compute(
        &mut self,
        inst: &Instance,
        model: CommModel,
        method: Method,
    ) -> Result<PeriodReport, PeriodError> {
        self.compute_view(inst.view(), model, method)
    }

    /// [`PeriodEngine::compute`] on a **borrowed** [`InstanceView`] — no
    /// owned `Instance` (and hence no pipeline/platform/mapping clone) is
    /// ever required. The view is trusted the same way `compute` trusts a
    /// validated `Instance`; use [`PeriodEngine::compute_mapping`] or a
    /// [`MappingOracle`] for unvalidated candidates.
    pub fn compute_view(
        &mut self,
        view: InstanceView<'_>,
        model: CommModel,
        method: Method,
    ) -> Result<PeriodReport, PeriodError> {
        self.compute_session(view, model, method, None)
    }

    /// [`PeriodEngine::compute_view`] with a [`MappingOracle`]'s session
    /// state: its incremental [`MctCache`], its parked shape arenas and its
    /// column cache. The report layer over [`PeriodEngine::solve_session`]:
    /// it evaluates `M_ct` first, then solves, then describes the witness.
    fn compute_session(
        &mut self,
        view: InstanceView<'_>,
        model: CommModel,
        method: Method,
        mut session: Option<&mut Session>,
    ) -> Result<PeriodReport, PeriodError> {
        let (mct, who) = session_mct(view, model, session.as_deref_mut().map(|s| &mut s.mct));
        let solved = self.solve_session(view, model, method, session, Some((mct, &who)))?;
        let critical = match solved.witness {
            Witness::Resource { proc, stage } => format!("P{proc} (S{stage})"),
            Witness::Column(ColumnId::Computation { stage, proc }) => {
                format!("computation S{stage} on P{proc}")
            }
            Witness::Column(ColumnId::Communication { file, residue, .. }) => {
                format!("transfer of F{file}, component {residue}")
            }
            Witness::Circuit(circuit) if self.opts.labels => {
                let net = &self.arena.net;
                let names: Vec<&str> =
                    circuit.iter().take(8).map(|&t| net.transition(t).label.as_str()).collect();
                format!("cycle[{}]: {}", circuit.len(), names.join(" -> "))
            }
            Witness::Circuit(circuit) => format!("cycle of {} transitions", circuit.len()),
        };
        Ok(PeriodReport {
            period: solved.period,
            mct,
            model,
            method: solved.method,
            num_paths: solved.num_paths,
            critical,
        })
    }

    /// The one solve behind [`PeriodEngine::compute_view`],
    /// [`MappingOracle::compute`] and [`MappingOracle::period`]: the
    /// period and what explains it, without `M_ct` unless the period *is*
    /// `M_ct` (`Auto` on a one-to-one mapping), where `known_mct` is used
    /// when the caller already has it. Any errored call — build failure,
    /// solver failure, method mismatch — forgets the patch precondition,
    /// so the next solve rebuilds cold.
    fn solve_session(
        &mut self,
        view: InstanceView<'_>,
        model: CommModel,
        method: Method,
        session: Option<&mut Session>,
        known_mct: Option<(f64, &CycleTime)>,
    ) -> Result<Solved, PeriodError> {
        let res = self.solve_impl(view, model, method, session, known_mct);
        if res.is_err() {
            self.arena.shape = None;
        }
        res
    }

    fn solve_impl(
        &mut self,
        view: InstanceView<'_>,
        model: CommModel,
        method: Method,
        session: Option<&mut Session>,
        known_mct: Option<(f64, &CycleTime)>,
    ) -> Result<Solved, PeriodError> {
        let (mct_cache, slots, columns) = match session {
            Some(Session { mct, slots, columns }) => (Some(mct), Some(slots), Some(columns)),
            None => (None, None, None),
        };
        let m = mapping_num_paths(view.mapping).ok_or(BuildError::PathCountOverflow)?;

        let resolved = match method {
            Method::Auto => {
                if view.mapping.is_one_to_one() {
                    // No replication: the period is dictated by the critical
                    // resource (§2 of the paper; also [3]).
                    let (period, proc, stage) = match known_mct {
                        Some((mct, who)) => (mct, who.proc, who.stage),
                        None => {
                            let (mct, who) = session_mct(view, model, mct_cache);
                            (mct, who.proc, who.stage)
                        }
                    };
                    return Ok(Solved {
                        period,
                        method: Method::Auto,
                        num_paths: 1,
                        witness: Witness::Resource { proc, stage },
                    });
                }
                match model {
                    CommModel::Overlap => Method::Polynomial,
                    CommModel::Strict => Method::FullTpn,
                }
            }
            m => m,
        };

        match resolved {
            Method::Polynomial => {
                if model != CommModel::Overlap {
                    return Err(PeriodError::PolynomialNeedsOverlap);
                }
                // The last maximum in walk order, as `Iterator::max_by`
                // picks it over `overlap_period_view`'s columns.
                let mut best: Option<(ColumnId, f64)> = None;
                walk_columns(view, &mut self.overlap, columns, |id, period, _| {
                    let replace = best.is_none_or(|(_, b)| {
                        b.partial_cmp(&period).expect("finite periods") != Ordering::Greater
                    });
                    if replace {
                        best = Some((id, period));
                    }
                });
                let (id, period) = best.expect("at least one column");
                Ok(Solved {
                    period,
                    method: Method::Polynomial,
                    num_paths: m,
                    witness: Witness::Column(id),
                })
            }
            Method::FullTpn => {
                // Shape-preserving change (same model, same per-stage
                // replica counts, label-free arena): patch firing times and
                // re-weight the cycle-ratio graph in place instead of
                // clearing and rebuilding both. The patched state is
                // bit-for-bit what a rebuild would produce, so results —
                // including warm-started solver trajectories — are
                // identical to the cold path. A session also patches when
                // one of its parked arenas holds the candidate's shape.
                let patchable = !self.opts.labels
                    && (self.arena.shape.as_ref().is_some_and(|s| s.matches(model, view))
                        || slots.is_some_and(|s| s.select(&mut self.arena, model, view)));
                let Arena { net, scratch, shape } = &mut self.arena;
                let solved = if patchable {
                    self.patched_solves += 1;
                    repwf_obs::counter_add(repwf_obs::CounterId::PatchedSolves, 1);
                    {
                        let _span = repwf_obs::span!(Retime);
                        retime_tpn_into(view, net, &mut self.changed);
                    }
                    repwf_obs::counter_add(repwf_obs::CounterId::Retimes, 1);
                    tpn::analysis::period_patched_with(net, scratch, self.warm, &self.changed)
                } else {
                    // Reuse the previous shape's buffers for the new
                    // signature (the take also drops the stale patch
                    // precondition before the arena is overwritten).
                    let (mut replicas, mut edges) =
                        shape.take().map(|s| (s.replicas, s.edges)).unwrap_or_default();
                    {
                        let _span = repwf_obs::span!(TpnBuild);
                        build_tpn_view_into(view, model, &self.opts, net)?;
                    }
                    repwf_obs::counter_add(repwf_obs::CounterId::TpnBuilds, 1);
                    let res = tpn::analysis::period_with(net, scratch, self.warm);
                    if res.is_ok() && !self.opts.labels {
                        view.mapping.replica_counts_into(&mut replicas);
                        edges.clear();
                        edges.extend_from_slice(view.pipeline.edges());
                        *shape = Some(TpnShape { model, replicas, edges });
                    }
                    res
                };
                // On error `solve_session` forgets the patch state (and
                // the workspace already dropped its structure cache).
                let sol = solved
                    .map_err(PeriodError::from)?
                    .expect("mapping TPNs always contain circuits");
                Ok(Solved {
                    period: sol.period / m as f64,
                    method: Method::FullTpn,
                    num_paths: m,
                    witness: Witness::Circuit(sol.critical),
                })
            }
            Method::Auto => unreachable!("Auto resolved above"),
        }
    }

    /// Evaluates an **unvalidated** candidate mapping against a borrowed
    /// pipeline/platform pair: validates the triple (no clones) and
    /// computes its period. This is the free-standing form of the
    /// [`MappingOracle`] session; hot search loops should prefer the
    /// oracle, which validates the platform tables once.
    pub fn compute_mapping(
        &mut self,
        pipeline: &Pipeline,
        platform: &Platform,
        mapping: &Mapping,
        model: CommModel,
        method: Method,
    ) -> Result<PeriodReport, PeriodError> {
        let view = InstanceView::new(pipeline, platform, mapping)?;
        self.compute_view(view, model, method)
    }
}

/// A session-style mapping oracle: borrows one pipeline/platform pair,
/// validates the platform **once** (per-processor speed and per-link
/// bandwidth validity tables), and then evaluates candidate [`Mapping`]s
/// by reference — no per-call `Instance` construction, no clones.
///
/// This is the object a mapping search holds for its whole run: combined
/// with the engine's warm starts and the TPN patch path, evaluating a
/// neighbor mapping costs a re-time + incremental solve instead of three
/// deep clones, a full validation pass, a TPN rebuild and a cold solve.
///
/// ```
/// use repwf_core::engine::MappingOracle;
/// use repwf_core::model::{CommModel, Mapping, Pipeline, Platform};
/// use repwf_core::period::Method;
///
/// let pipeline = Pipeline::new(vec![10.0, 20.0], vec![4.0]).unwrap();
/// let platform = Platform::uniform(3, 1.0, 1.0);
/// let mut oracle = MappingOracle::new(&pipeline, &platform).warm_start(true);
/// let a = Mapping::new(vec![vec![0], vec![1, 2]]).unwrap();
/// let b = Mapping::new(vec![vec![1], vec![0, 2]]).unwrap();
/// let ra = oracle.compute(&a, CommModel::Strict, Method::FullTpn).unwrap();
/// let rb = oracle.compute(&b, CommModel::Strict, Method::FullTpn).unwrap(); // patched solve
/// assert!(ra.period > 0.0 && rb.period > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct MappingOracle<'a> {
    pipeline: &'a Pipeline,
    platform: &'a Platform,
    engine: PeriodEngine,
    /// `speeds[u]`: how to validate processor `u` (its speed, and the
    /// computation times `w / Π_u` it may give).
    speeds: Vec<Resource>,
    /// `links[u·p + v]`: how to validate link `u → v` (its bandwidth, and
    /// the transfer times `δ / b_{u,v}` it may give).
    links: Vec<Resource>,
    /// Incremental state across candidate evaluations (`M_ct` cache,
    /// parked shape arenas, column cache).
    session: Session,
}

impl<'a> MappingOracle<'a> {
    /// An oracle with a fresh hot-path engine (no labels, cold starts —
    /// call [`MappingOracle::warm_start`] for sequential searches).
    pub fn new(pipeline: &'a Pipeline, platform: &'a Platform) -> Self {
        MappingOracle::with_engine(pipeline, platform, PeriodEngine::new())
    }

    /// An oracle wrapping a caller-configured engine (build options, warm
    /// starts, previously grown arenas — all carried over).
    pub fn with_engine(
        pipeline: &'a Pipeline,
        platform: &'a Platform,
        engine: PeriodEngine,
    ) -> Self {
        let p = platform.num_procs();
        let max_work = pipeline.works().iter().fold(0.0, |m: f64, &w| m.max(w));
        let max_file = pipeline.file_sizes().iter().fold(0.0, |m: f64, &d| m.max(d));
        let speeds = (0..p).map(|u| Resource::classify(platform.speed(u), max_work)).collect();
        let links = (0..p * p)
            .map(|k| Resource::classify(platform.bandwidth(k / p, k % p), max_file))
            .collect();
        MappingOracle { pipeline, platform, engine, speeds, links, session: Session::default() }
    }

    /// Enables/disables warm-started policy iteration on the owned engine
    /// (builder-style). See the module docs for when this is safe.
    pub fn warm_start(mut self, on: bool) -> Self {
        self.engine = self.engine.warm_start(on);
        self
    }

    /// The borrowed pipeline.
    pub fn pipeline(&self) -> &'a Pipeline {
        self.pipeline
    }

    /// The borrowed platform.
    pub fn platform(&self) -> &'a Platform {
        self.platform
    }

    /// The owned engine (e.g. to reset warm-start state between phases).
    /// Resets made through it reach the engine's own arena only; the
    /// oracle's [`MappingOracle::reset_warm_start`] and
    /// [`MappingOracle::reset_patch_state`] also reach the parked ones.
    pub fn engine_mut(&mut self) -> &mut PeriodEngine {
        &mut self.engine
    }

    /// Releases the engine (its own arena stays warm for the next oracle;
    /// the parked shape arenas and the column cache are dropped, the
    /// arenas' counters stay in the engine's totals).
    pub fn into_engine(self) -> PeriodEngine {
        self.engine
    }

    /// Forgets the warm-start policy of every arena, parked ones included:
    /// the next solve of any shape starts cold.
    pub fn reset_warm_start(&mut self) {
        self.engine.reset_warm_start();
        for arena in &mut self.session.slots.parked {
            arena.scratch.clear_warm_start();
        }
    }

    /// Forgets every incremental state of the session: the patch
    /// precondition of the engine's arena and of every parked one, the
    /// engine's pattern structures, the cached `M_ct` decompositions and
    /// the cached Theorem 1 columns. The next evaluation of any shape
    /// rebuilds; the allocations are kept. Together with
    /// [`MappingOracle::reset_warm_start`] this makes what follows a pure
    /// function of the candidates, whatever the oracle evaluated before.
    pub fn reset_patch_state(&mut self) {
        self.engine.reset_patch_state();
        for arena in &mut self.session.slots.parked {
            arena.shape = None;
        }
        self.session.mct.invalidate();
        self.session.columns.invalidate();
    }

    /// The oracle's incremental `M_ct` cache (diagnostics: its counters
    /// let tests assert that a move re-examined only the stages it
    /// touched).
    pub fn mct_cache(&self) -> &MctCache {
        &self.session.mct
    }

    /// Lower bound on the period of **any feasible completion** of a
    /// partially-assigned mapping — the pruning oracle of the exact
    /// branch-and-bound search (`repwf_map::exact`).
    ///
    /// `prefix` holds the final ordered replica tuples of stages
    /// `0..prefix.len()`; `used[u]` marks the processors already taken
    /// (including everything in `prefix`). The bound is the maximum of two
    /// terms, both cheap and both valid under either [`CommModel`]:
    ///
    /// 1. the **partial `M_ct`** of the prefix
    ///    ([`prefix_cycle_bound`]): every cycle-time component already
    ///    determined by the prefix, with unknown boundary components
    ///    bounded by `0` — never above the `M_ct` (≤ period) of any
    ///    completion;
    /// 2. the **single-stage floor** of each open stage `i`: a stage
    ///    mapped on `m` replicas has `M_ct ≥ w_i / (m · max_u Π_u)`, and
    ///    any completion can give stage `i` at most
    ///    `avail − (open_stages − 1)` of the `avail` unused processors
    ///    (every other open stage needs at least one), none faster than
    ///    the fastest unused speed.
    ///
    /// Returns `f64::INFINITY` when no completion can be feasible (too few
    /// processors left, or an invalid resource baked into the prefix) —
    /// safe to prune unconditionally.
    ///
    /// The exact search prices its nodes incrementally instead (per-stage
    /// [`crate::cycle_time::prefix_stage_bound`] terms, then
    /// [`MappingOracle::complete_prefix_bound`]), bit for bit this value;
    /// this function stays the reference.
    pub fn prefix_period_bound(
        &self,
        prefix: &[Vec<usize>],
        used: &[bool],
        model: CommModel,
    ) -> f64 {
        let partial = prefix_cycle_bound(self.pipeline, self.platform, prefix, model);
        self.complete_prefix_bound(partial, prefix.len(), used)
    }

    /// Term 2 of [`MappingOracle::prefix_period_bound`] folded into term
    /// 1: `partial` is the partial `M_ct` ([`prefix_cycle_bound`]) of a
    /// prefix of `k` stages, and the single-stage floors of the open
    /// stages `k..n` given the free processors of `used` are `f64::max`ed
    /// into it (`f64::INFINITY` when too few processors are left).
    pub fn complete_prefix_bound(&self, partial: f64, k: usize, used: &[bool]) -> f64 {
        let n = self.pipeline.num_stages();
        let mut bound = partial;
        if k < n {
            let mut avail = 0usize;
            let mut s_max = 0.0f64;
            for (u, &taken) in used.iter().enumerate() {
                if !taken {
                    avail += 1;
                    s_max = s_max.max(self.platform.speed(u));
                }
            }
            let open = n - k;
            if avail < open {
                return f64::INFINITY;
            }
            let m_max = (avail - (open - 1)) as f64;
            for i in k..n {
                bound = bound.max(self.pipeline.work(i) / (m_max * s_max));
            }
        }
        bound
    }

    /// Validates a candidate against the borrowed pair — exactly the
    /// accept/reject (and error) behavior of [`Instance::new`], but from
    /// the precomputed per-processor/per-link tables: an operation time is
    /// only divided out on a resource that some size overflows.
    pub fn validate(&self, mapping: &Mapping) -> Result<(), ModelError> {
        let p = self.platform.num_procs();
        if self.pipeline.num_stages() != mapping.num_stages() {
            return Err(ModelError::StageCountMismatch {
                pipeline: self.pipeline.num_stages(),
                mapping: mapping.num_stages(),
            });
        }
        for i in 0..mapping.num_stages() {
            for &u in mapping.procs(i) {
                if u >= p {
                    return Err(ModelError::UnknownProcessor(u));
                }
                let speed = || self.platform.speed(u);
                match self.speeds[u] {
                    Resource::Safe => {}
                    Resource::Invalid => {
                        return Err(ModelError::InvalidSpeed { proc: u, speed: speed() })
                    }
                    Resource::CheckTime => {
                        if !(self.pipeline.work(i) / speed()).is_finite() {
                            let (stage, edge) = (i, None);
                            return Err(ModelError::TimeOverflow { stage, edge, from: u, to: u });
                        }
                    }
                }
            }
        }
        for e in 0..self.pipeline.num_edges() {
            let (src, dst) = self.pipeline.edge(e);
            for &u in mapping.procs(src) {
                for &v in mapping.procs(dst) {
                    let bandwidth = || self.platform.bandwidth(u, v);
                    match self.links[u * p + v] {
                        Resource::Safe => {}
                        Resource::Invalid => {
                            return Err(ModelError::InvalidBandwidth {
                                from: u,
                                to: v,
                                bandwidth: bandwidth(),
                            })
                        }
                        Resource::CheckTime => {
                            if !(self.pipeline.file(e) / bandwidth()).is_finite() {
                                return Err(ModelError::TimeOverflow {
                                    stage: src,
                                    edge: Some(e),
                                    from: u,
                                    to: v,
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Validates `mapping` and computes its period report. Results are
    /// bit-identical to building an [`Instance`] and calling
    /// [`PeriodEngine::compute`] on this oracle's engine.
    pub fn compute(
        &mut self,
        mapping: &Mapping,
        model: CommModel,
        method: Method,
    ) -> Result<PeriodReport, PeriodError> {
        self.validate(mapping)?;
        let view = InstanceView { pipeline: self.pipeline, platform: self.platform, mapping };
        self.engine.compute_session(view, model, method, Some(&mut self.session))
    }

    /// Validates `mapping` and computes its period only: bit for bit
    /// [`MappingOracle::compute`]'s `period`, with the same errors, from
    /// the same solve, without the report around it. `M_ct` is evaluated
    /// only where it *is* the period (`Method::Auto` on a one-to-one
    /// mapping), and no `critical` description is formatted. The session
    /// state stays sound across skipped `M_ct` evaluations: the `M_ct`
    /// cache compares each stage's processor list with the one it last
    /// computed, not with the previous call's.
    ///
    /// This is the objective of the mapping searches
    /// (`repwf_map::exact`, the heuristics), which read nothing else.
    pub fn period(
        &mut self,
        mapping: &Mapping,
        model: CommModel,
        method: Method,
    ) -> Result<f64, PeriodError> {
        self.validate(mapping)?;
        let view = InstanceView { pipeline: self.pipeline, platform: self.platform, mapping };
        let solved = self.engine.solve_session(view, model, method, Some(&mut self.session), None);
        solved.map(|s| s.period)
    }
}

/// How [`MappingOracle::validate`] checks one processor or link, decided
/// once per oracle from its speed (bandwidth) and the largest stage work
/// (file size). Division by a positive value is monotone in the
/// numerator, so when the largest size gives a finite time over the
/// resource, every size does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resource {
    /// Not positive and finite: a mapping that uses it is rejected.
    Invalid,
    /// Every operation time over it is finite.
    Safe,
    /// Some operation time over it overflows: divide the operation's own size.
    CheckTime,
}

impl Resource {
    fn classify(rate: f64, max_size: f64) -> Resource {
        if !(rate.is_finite() && rate > 0.0) {
            Resource::Invalid
        } else if (max_size / rate).is_finite() {
            Resource::Safe
        } else {
            Resource::CheckTime
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Mapping, Pipeline, Platform};
    use crate::period::compute_period_with;
    use repwf_obs::counted;
    use repwf_obs::CounterId::{CsrBuilds, TarjanRuns};

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
    fn engine_matches_free_function_bitwise() {
        let opts = BuildOptions { labels: false, ..BuildOptions::default() };
        let mut engine = PeriodEngine::with_options(opts.clone());
        for replicas in [&[2usize, 3][..], &[1, 2, 2], &[3, 2]] {
            let i = inst(replicas, 5.0, 4.0);
            for model in [CommModel::Overlap, CommModel::Strict] {
                for method in [Method::Auto, Method::FullTpn] {
                    let a = compute_period_with(&i, model, method, &opts).unwrap();
                    let b = engine.compute(&i, model, method).unwrap();
                    assert_eq!(a.period.to_bits(), b.period.to_bits(), "{model} {method}");
                    assert_eq!(a.mct.to_bits(), b.mct.to_bits());
                    assert_eq!(a.num_paths, b.num_paths);
                }
            }
        }
    }

    #[test]
    fn warm_engine_is_bit_identical_to_cold() {
        let mut cold = PeriodEngine::new();
        let mut warm = PeriodEngine::new().warm_start(true);
        // Same-shape instances with varying costs: the warm path actually
        // reuses the previous policy here.
        for k in 1..=6 {
            let i = inst(&[2, 3], 4.0 + k as f64, 3.0 + 0.5 * k as f64);
            let a = cold.compute(&i, CommModel::Strict, Method::FullTpn).unwrap();
            let b = warm.compute(&i, CommModel::Strict, Method::FullTpn).unwrap();
            assert_eq!(a.period.to_bits(), b.period.to_bits(), "k={k}");
        }
    }

    #[test]
    fn engine_reports_build_errors() {
        let i = inst(&[4, 5, 7, 9], 1.0, 1.0); // m = 1260
        let mut engine =
            PeriodEngine::with_options(BuildOptions { labels: false, max_transitions: 100 });
        match engine.compute(&i, CommModel::Strict, Method::FullTpn) {
            Err(PeriodError::Build(BuildError::TooLarge { m, .. })) => assert_eq!(m, 1260),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // The engine stays usable after an error.
        let ok = inst(&[2, 3], 5.0, 4.0);
        assert!(engine.compute(&ok, CommModel::Strict, Method::FullTpn).is_ok());
    }

    /// A swap-heavy family: same replica counts (2, 3) on 5 processors,
    /// candidate k rotates which processors occupy which slots.
    fn swapped(k: usize) -> Instance {
        let pipeline = Pipeline::new(vec![5.0, 7.0], vec![3.0]).unwrap();
        let mut platform = Platform::uniform(5, 1.0, 1.0);
        for u in 0..5 {
            platform.set_speed(u, 1.0 + 0.2 * u as f64);
        }
        let procs: Vec<usize> = (0..5).map(|i| (i + k) % 5).collect();
        let mapping = Mapping::new(vec![procs[..2].to_vec(), procs[2..].to_vec()]).unwrap();
        Instance::new(pipeline, platform, mapping).unwrap()
    }

    #[test]
    fn patched_solves_match_cold_rebuild_bitwise() {
        for model in [CommModel::Overlap, CommModel::Strict] {
            let mut incremental = PeriodEngine::new().warm_start(true);
            for k in 0..8 {
                let i = swapped(k);
                let a = incremental.compute(&i, model, Method::FullTpn).unwrap();
                let b = PeriodEngine::new().compute(&i, model, Method::FullTpn).unwrap();
                assert_eq!(a.period.to_bits(), b.period.to_bits(), "{model} k={k}");
                assert_eq!(a.critical, b.critical);
            }
            // All but the first solve share the shape: 7 patched solves.
            assert_eq!(incremental.patched_solves(), 7, "{model}");
        }
    }

    #[test]
    fn patched_solves_skip_csr_and_tarjan() {
        // The tentpole acceptance check: after the first (rebuild) solve,
        // every shape-preserving solve performs zero CSR builds and zero
        // Tarjan runs — the structure cache serves the condensation.
        for model in [CommModel::Overlap, CommModel::Strict] {
            let mut engine = PeriodEngine::new().warm_start(true);
            let (_, c) = counted(|| engine.compute(&swapped(0), model, Method::FullTpn).unwrap());
            assert_eq!((c[CsrBuilds], c[TarjanRuns]), (1, 1), "{model}");
            let (_, c) = counted(|| {
                for k in 1..8 {
                    engine.compute(&swapped(k), model, Method::FullTpn).unwrap();
                }
            });
            assert_eq!(engine.patched_solves(), 7, "{model}");
            assert_eq!(
                (c[CsrBuilds], c[TarjanRuns]),
                (0, 0),
                "{model}: patched solves must not rebuild CSR or rerun Tarjan"
            );
        }
    }

    #[test]
    fn errored_solve_clears_patch_state_and_rebuilds_cold() {
        // An errored call — even one that leaves the arenas untouched,
        // like a method/model mismatch — must drop the patch precondition
        // AND the cached condensation, so the next call rebuilds cold.
        let mut engine = PeriodEngine::new().warm_start(true);
        let a = swapped(0);
        let (_, c) = counted(|| {
            engine.compute(&a, CommModel::Strict, Method::FullTpn).unwrap();
            engine.compute(&swapped(1), CommModel::Strict, Method::FullTpn).unwrap();
        });
        assert_eq!(engine.patched_solves(), 1);
        assert_eq!(c[CsrBuilds], 1);
        assert!(matches!(
            engine.compute(&a, CommModel::Strict, Method::Polynomial),
            Err(PeriodError::PolynomialNeedsOverlap)
        ));
        let before = engine.patched_solves();
        let (r, c) =
            counted(|| engine.compute(&swapped(2), CommModel::Strict, Method::FullTpn).unwrap());
        assert_eq!(engine.patched_solves(), before, "errored solve must force a rebuild");
        assert_eq!(c[CsrBuilds], 1);
        let cold =
            PeriodEngine::new().compute(&swapped(2), CommModel::Strict, Method::FullTpn).unwrap();
        assert_eq!(r.period.to_bits(), cold.period.to_bits());
        // And the engine patches again from the fresh state.
        engine.compute(&swapped(3), CommModel::Strict, Method::FullTpn).unwrap();
        assert_eq!(engine.patched_solves(), before + 1);
    }

    #[test]
    fn reset_patch_state_forces_full_rebuild() {
        let mut engine = PeriodEngine::new().warm_start(true);
        let (r, c) = counted(|| {
            engine.compute(&swapped(0), CommModel::Strict, Method::FullTpn).unwrap();
            engine.reset_patch_state();
            engine.compute(&swapped(1), CommModel::Strict, Method::FullTpn).unwrap()
        });
        assert_eq!(engine.patched_solves(), 0);
        assert_eq!(c[CsrBuilds], 2);
        let cold =
            PeriodEngine::new().compute(&swapped(1), CommModel::Strict, Method::FullTpn).unwrap();
        assert_eq!(r.period.to_bits(), cold.period.to_bits());
    }

    #[test]
    fn oracle_mct_cache_matches_rescan_and_stays_local() {
        let pipeline = Pipeline::new(vec![5.0, 7.0], vec![3.0]).unwrap();
        let mut platform = Platform::uniform(5, 1.0, 2.0);
        for u in 0..5 {
            platform.set_speed(u, 1.0 + 0.2 * u as f64);
        }
        let mut oracle = MappingOracle::new(&pipeline, &platform).warm_start(true);
        for k in 0..6 {
            let i = swapped(k);
            let r = oracle.compute(&i.mapping, CommModel::Strict, Method::FullTpn).unwrap();
            let (mct, _) = crate::cycle_time::max_cycle_time_view(
                InstanceView::new(&pipeline, &platform, &i.mapping).unwrap(),
                CommModel::Strict,
            );
            assert_eq!(r.mct.to_bits(), mct.to_bits(), "k={k}");
        }
        assert_eq!(oracle.mct_cache().evals(), 6);
        // 2 stages: even a full recompute is 2 stages; the first eval pays
        // 2, the rest at most 2 each — just pin that the cache is live.
        assert!(oracle.mct_cache().stage_recomputes() >= 2);
    }

    #[test]
    fn oracle_column_cache_reuses_unchanged_edges_until_reset() {
        let pipeline = Pipeline::new(vec![5.0, 7.0, 6.0], vec![3.0, 2.0]).unwrap();
        let mut platform = Platform::uniform(7, 1.0, 1.0);
        for u in 0..7 {
            platform.set_speed(u, 1.0 + 0.1 * u as f64);
            for v in 0..7 {
                platform.set_bandwidth(u, v, 0.5 + 0.07 * ((u * 7 + v) % 11) as f64);
            }
        }
        // Edge 0 joins 2 and 3 replicas, edge 1 joins 3 and 1: one pattern
        // each (g = 1). `b` changes edge 1's receiver tuple only.
        let a = Mapping::new(vec![vec![0, 1], vec![2, 3, 4], vec![5]]).unwrap();
        let b = Mapping::new(vec![vec![0, 1], vec![2, 3, 4], vec![6]]).unwrap();
        let check = |oracle: &mut MappingOracle<'_>, m: &Mapping, solves: u64| {
            let r = oracle.compute(m, CommModel::Overlap, Method::Polynomial).unwrap();
            let inst = Instance::new(pipeline.clone(), platform.clone(), m.clone()).unwrap();
            let cold =
                PeriodEngine::new().compute(&inst, CommModel::Overlap, Method::Polynomial).unwrap();
            assert_eq!(r.period.to_bits(), cold.period.to_bits());
            assert_eq!(r.critical, cold.critical);
            assert_eq!(oracle.engine.overlap.pattern_solves(), solves, "{m:?}");
        };
        let mut oracle = MappingOracle::new(&pipeline, &platform);
        check(&mut oracle, &a, 2);
        check(&mut oracle, &a, 2);
        // A strict solve in between leaves the columns alone.
        oracle.compute(&a, CommModel::Strict, Method::FullTpn).unwrap();
        check(&mut oracle, &a, 2);
        check(&mut oracle, &b, 3);
        check(&mut oracle, &a, 4);
        oracle.reset_patch_state();
        check(&mut oracle, &a, 6);
        // The cache belongs to the oracle: a new one re-solves every column.
        let engine = oracle.into_engine();
        let mut oracle = MappingOracle::with_engine(&pipeline, &platform, engine);
        check(&mut oracle, &a, 8);
        // A bare engine never caches columns.
        let mut engine = oracle.into_engine();
        let view = InstanceView::new(&pipeline, &platform, &a).unwrap();
        engine.compute_view(view, CommModel::Overlap, Method::Polynomial).unwrap();
        engine.compute_view(view, CommModel::Overlap, Method::Polynomial).unwrap();
        assert_eq!(engine.overlap.pattern_solves(), 12);
    }

    #[test]
    fn prefix_period_bound_is_a_true_lower_bound() {
        let pipeline = Pipeline::new(vec![5.0, 7.0], vec![3.0]).unwrap();
        let mut platform = Platform::uniform(5, 1.0, 1.0);
        for u in 0..5 {
            platform.set_speed(u, 1.0 + 0.2 * u as f64);
        }
        let mut oracle = MappingOracle::new(&pipeline, &platform);
        for model in [CommModel::Overlap, CommModel::Strict] {
            let prefix = vec![vec![0usize, 1]];
            let mut used = vec![false; 5];
            (used[0], used[1]) = (true, true);
            let bound = oracle.prefix_period_bound(&prefix, &used, model);
            assert!(bound.is_finite() && bound > 0.0);
            for rest in [vec![2], vec![3, 4], vec![4, 2, 3]] {
                let m = Mapping::new(vec![prefix[0].clone(), rest]).unwrap();
                let p = oracle.compute(&m, model, Method::Auto).unwrap().period;
                assert!(bound <= p + 1e-12, "{model:?}: bound {bound} vs period {p}");
            }
            // Every processor taken but a stage still open: no completion.
            assert!(oracle.prefix_period_bound(&prefix, &[true; 5], model).is_infinite());
        }
    }

    #[test]
    fn shape_change_falls_back_to_rebuild() {
        let mut engine = PeriodEngine::new();
        let a = inst(&[2, 3], 5.0, 4.0);
        let b = inst(&[3, 2], 5.0, 4.0); // different replica counts
        engine.compute(&a, CommModel::Strict, Method::FullTpn).unwrap();
        let before = engine.patched_solves();
        let rb = engine.compute(&b, CommModel::Strict, Method::FullTpn).unwrap();
        assert_eq!(engine.patched_solves(), before, "shape changed: must rebuild");
        let cold = PeriodEngine::new().compute(&b, CommModel::Strict, Method::FullTpn).unwrap();
        assert_eq!(rb.period.to_bits(), cold.period.to_bits());
    }

    #[test]
    fn oracle_matches_instance_engine_bitwise() {
        let pipeline = Pipeline::new(vec![5.0, 7.0], vec![3.0]).unwrap();
        let platform = Platform::uniform(5, 1.0, 2.0);
        let mut oracle = MappingOracle::new(&pipeline, &platform).warm_start(true);
        for k in 0..6 {
            let i = swapped(k);
            let r = oracle.compute(&i.mapping, CommModel::Strict, Method::FullTpn).unwrap();
            let cold = PeriodEngine::new()
                .compute(
                    &Instance::new(pipeline.clone(), platform.clone(), i.mapping.clone()).unwrap(),
                    CommModel::Strict,
                    Method::FullTpn,
                )
                .unwrap();
            assert_eq!(r.period.to_bits(), cold.period.to_bits(), "k={k}");
        }
    }

    #[test]
    fn oracle_validates_like_instance_new() {
        use crate::model::ModelError;
        let pipeline = Pipeline::new(vec![1.0, 1.0], vec![1.0]).unwrap();
        let mut platform = Platform::uniform(3, 1.0, 1.0);
        platform.set_bandwidth(0, 1, 0.0);
        let mut oracle = MappingOracle::new(&pipeline, &platform);
        let bad_link = Mapping::new(vec![vec![0], vec![1]]).unwrap();
        let unknown = Mapping::new(vec![vec![0], vec![9]]).unwrap();
        let ok = Mapping::new(vec![vec![0], vec![2]]).unwrap();
        for (mapping, _name) in [(&bad_link, "bad link"), (&unknown, "unknown"), (&ok, "ok")] {
            let via_oracle = oracle.compute(mapping, CommModel::Overlap, Method::Auto);
            let via_instance = Instance::new(pipeline.clone(), platform.clone(), mapping.clone());
            match (via_oracle, via_instance) {
                (Ok(_), Ok(_)) => {}
                (Err(PeriodError::Model(a)), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("oracle {a:?} vs instance {b:?}"),
            }
        }
        assert!(matches!(oracle.validate(&unknown), Err(ModelError::UnknownProcessor(9))));
    }

    #[test]
    fn oracle_rejects_overflowing_times_like_instance_new() {
        // Processor 0 and link 0→1 overflow for the large sizes but not
        // for the small ones, so the oracle must divide the operation's
        // own size; processor 2 and link 2→1 are safe for every size.
        let pipeline = Pipeline::new(vec![1.0, 1e10, 1.0], vec![1e10, 1.0]).unwrap();
        let mut platform = Platform::uniform(4, 1.0, 1.0);
        platform.set_speed(0, 1e-300);
        platform.set_bandwidth(0, 1, 1e-300);
        platform.set_bandwidth(1, 0, 1e-300);
        let mut oracle = MappingOracle::new(&pipeline, &platform);
        let cases = [
            vec![vec![0], vec![1], vec![2]], // link 0→1 carries the 1e10 file
            vec![vec![2], vec![0], vec![3]], // processor 0 computes the 1e10 work
            vec![vec![2], vec![1], vec![0]], // 1/1e-300 is finite
            vec![vec![2, 3], vec![1], vec![0]],
            vec![vec![3], vec![1], vec![0]], // link 1→0 carries the 1.0 file
        ];
        let mut errors = 0;
        for assignment in cases {
            let mapping = Mapping::new(assignment).unwrap();
            let via_instance = Instance::new(pipeline.clone(), platform.clone(), mapping.clone());
            let expected = via_instance.map(|_| ());
            errors += usize::from(expected.is_err());
            assert_eq!(oracle.validate(&mapping), expected, "{mapping:?}");
            match (oracle.compute(&mapping, CommModel::Strict, Method::Auto), expected) {
                (Ok(_), Ok(())) => {}
                (Err(PeriodError::Model(a)), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("oracle {a:?} vs instance {b:?}"),
            }
        }
        assert_eq!(errors, 2);
    }
}
