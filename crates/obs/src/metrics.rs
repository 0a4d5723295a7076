//! Typed counter/histogram registry with lock-free per-worker shards.
//!
//! Every worker thread that records a metric gets its own `Shard` of relaxed
//! atomics (no cross-thread contention on the hot path). Shards register in a
//! global list on first use; when a worker thread exits (scoped `repwf-par`
//! threads die at the end of each `par_map*` call) its shard is folded into a
//! retired accumulator so the registry never grows without bound. A
//! [`MetricsSnapshot`] is the plain-data union of the retired accumulator and
//! every live shard, and merges associatively/commutatively — the same
//! discipline as `CampaignAccum` in `repwf-gen`.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, LazyLock, Mutex};

/// Identifiers for every counter the stack records. Fixed at compile time so
/// shards are flat arrays and snapshot merges are branch-free loops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterId {
    /// Full TPN constructions (`build_tpn_view_into`).
    TpnBuilds,
    /// In-place TPN retimings on the shape-preserving patch path.
    Retimes,
    /// Oracle solves that took the patched (no CSR, no Tarjan) path.
    PatchedSolves,
    /// CSR adjacency rebuilds in the max-plus workspace.
    CsrBuilds,
    /// Flat Tarjan condensations.
    TarjanRuns,
    /// Howard solves started without a reusable policy (cold).
    HowardSolvesCold,
    /// Howard solves that warm-started from a prior same-shape policy.
    HowardSolvesWarm,
    /// Policy-iteration rounds across cold solves.
    HowardItersCold,
    /// Policy-iteration rounds across warm solves.
    HowardItersWarm,
    /// Policy-iteration rounds across batched (multi-lane) solves.
    HowardItersBatched,
    /// Batched Howard passes (one condensation, k instances).
    BatchedPasses,
    /// Total instance lanes streamed through batched passes.
    BatchedLanes,
    /// `MctCache` evaluations.
    MctEvals,
    /// Stages whose cycle times had to be recomputed by `MctCache`.
    MctStageRecomputes,
    /// Stages served from the `MctCache` without recomputation.
    MctStageHits,
    /// Distinct shape groups routed by the batched campaign scheduler.
    ShapeGroups,
    /// Batch chunks of two or more seeds solved (each one batched Howard
    /// task).
    BatchChunks,
    /// Experiments solved inside batch chunks.
    BatchedExperiments,
    /// Experiments solved per instance: over the cap, overlap model, or
    /// the only seed of their chunk.
    SoloExperiments,
    /// Supervisor lease claims (fresh units).
    LeaseClaims,
    /// Supervisor lease heartbeats.
    LeaseHeartbeats,
    /// Supervisor takeovers of reclaimable leases.
    LeaseTakeovers,
    /// Straggler unit splits.
    LeaseSplits,
    /// Unit retries after a failed attempt.
    LeaseRetries,
    /// `sync_data` calls on shard, marker and pin files.
    Fsyncs,
}

pub const NUM_COUNTERS: usize = 25;

impl CounterId {
    pub const ALL: [CounterId; NUM_COUNTERS] = [
        CounterId::TpnBuilds,
        CounterId::Retimes,
        CounterId::PatchedSolves,
        CounterId::CsrBuilds,
        CounterId::TarjanRuns,
        CounterId::HowardSolvesCold,
        CounterId::HowardSolvesWarm,
        CounterId::HowardItersCold,
        CounterId::HowardItersWarm,
        CounterId::HowardItersBatched,
        CounterId::BatchedPasses,
        CounterId::BatchedLanes,
        CounterId::MctEvals,
        CounterId::MctStageRecomputes,
        CounterId::MctStageHits,
        CounterId::ShapeGroups,
        CounterId::BatchChunks,
        CounterId::BatchedExperiments,
        CounterId::SoloExperiments,
        CounterId::LeaseClaims,
        CounterId::LeaseHeartbeats,
        CounterId::LeaseTakeovers,
        CounterId::LeaseSplits,
        CounterId::LeaseRetries,
        CounterId::Fsyncs,
    ];

    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            CounterId::TpnBuilds => "tpn_builds",
            CounterId::Retimes => "retimes",
            CounterId::PatchedSolves => "patched_solves",
            CounterId::CsrBuilds => "csr_builds",
            CounterId::TarjanRuns => "tarjan_runs",
            CounterId::HowardSolvesCold => "howard_solves_cold",
            CounterId::HowardSolvesWarm => "howard_solves_warm",
            CounterId::HowardItersCold => "howard_iters_cold",
            CounterId::HowardItersWarm => "howard_iters_warm",
            CounterId::HowardItersBatched => "howard_iters_batched",
            CounterId::BatchedPasses => "batched_passes",
            CounterId::BatchedLanes => "batched_lanes",
            CounterId::MctEvals => "mct_evals",
            CounterId::MctStageRecomputes => "mct_stage_recomputes",
            CounterId::MctStageHits => "mct_stage_hits",
            CounterId::ShapeGroups => "shape_groups",
            CounterId::BatchChunks => "batch_chunks",
            CounterId::BatchedExperiments => "batched_experiments",
            CounterId::SoloExperiments => "solo_experiments",
            CounterId::LeaseClaims => "lease_claims",
            CounterId::LeaseHeartbeats => "lease_heartbeats",
            CounterId::LeaseTakeovers => "lease_takeovers",
            CounterId::LeaseSplits => "lease_splits",
            CounterId::LeaseRetries => "lease_retries",
            CounterId::Fsyncs => "fsyncs",
        }
    }
}

/// Identifiers for every timed span. One entry per instrumented phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanId {
    /// Whole CLI command, install-to-finish (depth 0 on the main thread).
    Command,
    /// Full TPN construction.
    TpnBuild,
    /// In-place TPN retime (patch path).
    Retime,
    /// CSR adjacency rebuild.
    CsrBuild,
    /// Flat Tarjan condensation.
    Tarjan,
    /// Per-instance Howard cycle-ratio solve.
    Solve,
    /// Batched multi-lane Howard pass.
    BatchSolve,
    /// `M_ct` lower-bound evaluation.
    Mct,
    /// One campaign task (a batch chunk or a solo experiment) on a worker.
    Experiment,
}

pub const NUM_SPANS: usize = 9;

impl SpanId {
    pub const ALL: [SpanId; NUM_SPANS] = [
        SpanId::Command,
        SpanId::TpnBuild,
        SpanId::Retime,
        SpanId::CsrBuild,
        SpanId::Tarjan,
        SpanId::Solve,
        SpanId::BatchSolve,
        SpanId::Mct,
        SpanId::Experiment,
    ];

    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            SpanId::Command => "command",
            SpanId::TpnBuild => "tpn_build",
            SpanId::Retime => "retime",
            SpanId::CsrBuild => "csr_build",
            SpanId::Tarjan => "tarjan",
            SpanId::Solve => "solve",
            SpanId::BatchSolve => "batch_solve",
            SpanId::Mct => "mct",
            SpanId::Experiment => "experiment",
        }
    }
}

/// Log2 nanosecond histogram resolution: bucket `i` holds durations in
/// `[2^(i-1), 2^i)` ns (bucket 0 holds 0–1 ns). 40 buckets reach ~18 minutes.
pub const NUM_BUCKETS: usize = 40;

#[inline]
pub fn bucket_of(dur_ns: u64) -> usize {
    ((64 - dur_ns.leading_zeros()) as usize).min(NUM_BUCKETS - 1)
}

struct ShardSpan {
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; NUM_BUCKETS],
}

impl ShardSpan {
    fn new() -> Self {
        ShardSpan {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// One worker thread's private slice of the registry. All relaxed atomics:
/// only the owning thread writes, snapshots read racily (monotonic counters,
/// so a racy read is merely slightly stale, never wrong).
pub(crate) struct Shard {
    counters: [AtomicU64; NUM_COUNTERS],
    spans: [ShardSpan; NUM_SPANS],
}

impl Shard {
    fn new() -> Self {
        Shard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            spans: std::array::from_fn(|_| ShardSpan::new()),
        }
    }

    fn drain_into(&self, snap: &mut MetricsSnapshot) {
        for (i, c) in self.counters.iter().enumerate() {
            snap.counters[i] += c.load(Relaxed);
        }
        for (i, s) in self.spans.iter().enumerate() {
            let dst = &mut snap.spans[i];
            dst.count += s.count.load(Relaxed);
            dst.sum_ns += s.sum_ns.load(Relaxed);
            dst.min_ns = dst.min_ns.min(s.min_ns.load(Relaxed));
            dst.max_ns = dst.max_ns.max(s.max_ns.load(Relaxed));
            for (j, b) in s.buckets.iter().enumerate() {
                dst.buckets[j] += b.load(Relaxed);
            }
        }
    }
}

static REGISTRY: Mutex<Vec<Arc<Shard>>> = Mutex::new(Vec::new());
static RETIRED: LazyLock<Mutex<MetricsSnapshot>> =
    LazyLock::new(|| Mutex::new(MetricsSnapshot::new()));

struct ShardHandle(Arc<Shard>);

impl ShardHandle {
    fn new() -> Self {
        let shard = Arc::new(Shard::new());
        REGISTRY.lock().unwrap().push(Arc::clone(&shard));
        ShardHandle(shard)
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        // Fold this thread's totals into the retired accumulator and drop the
        // registry entry so repeated `par_map` calls don't leak shards.
        let mut retired = RETIRED.lock().unwrap();
        self.0.drain_into(&mut retired);
        drop(retired);
        REGISTRY.lock().unwrap().retain(|s| !Arc::ptr_eq(s, &self.0));
    }
}

thread_local! {
    static SHARD: ShardHandle = ShardHandle::new();
}

pub(crate) fn add(id: CounterId, n: u64) {
    let ok = SHARD
        .try_with(|h| {
            h.0.counters[id.index()].fetch_add(n, Relaxed);
        })
        .is_ok();
    if !ok {
        // Thread is tearing down its TLS; fold straight into the accumulator.
        RETIRED.lock().unwrap().counters[id.index()] += n;
    }
}

pub(crate) fn record_span(id: SpanId, dur_ns: u64) {
    let record = |s: &ShardSpan| {
        s.count.fetch_add(1, Relaxed);
        s.sum_ns.fetch_add(dur_ns, Relaxed);
        s.min_ns.fetch_min(dur_ns, Relaxed);
        s.max_ns.fetch_max(dur_ns, Relaxed);
        s.buckets[bucket_of(dur_ns)].fetch_add(1, Relaxed);
    };
    let ok = SHARD.try_with(|h| record(&h.0.spans[id.index()])).is_ok();
    if !ok {
        let mut retired = RETIRED.lock().unwrap();
        let dst = &mut retired.spans[id.index()];
        dst.count += 1;
        dst.sum_ns += dur_ns;
        dst.min_ns = dst.min_ns.min(dur_ns);
        dst.max_ns = dst.max_ns.max(dur_ns);
        dst.buckets[bucket_of(dur_ns)] += 1;
    }
}

/// The calling thread's counters, as its shard holds them now (zeros while
/// the thread tears down its TLS).
pub(crate) fn thread_counters() -> [u64; NUM_COUNTERS] {
    SHARD
        .try_with(|h| std::array::from_fn(|i| h.0.counters[i].load(Relaxed)))
        .unwrap_or([0; NUM_COUNTERS])
}

/// Counter increments of one [`crate::counted`] call, indexed by
/// [`CounterId`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts(pub [u64; NUM_COUNTERS]);

impl std::ops::Index<CounterId> for Counts {
    type Output = u64;

    fn index(&self, id: CounterId) -> &u64 {
        &self.0[id.index()]
    }
}

/// Union of the retired accumulator and every live shard.
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = RETIRED.lock().unwrap().clone();
    for shard in REGISTRY.lock().unwrap().iter() {
        shard.drain_into(&mut snap);
    }
    snap
}

/// Aggregated statistics for one span kind. `min_ns == u64::MAX` iff
/// `count == 0` (the identity element for `merge`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanStat {
    pub count: u64,
    pub sum_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub buckets: [u64; NUM_BUCKETS],
}

impl Default for SpanStat {
    fn default() -> Self {
        SpanStat { count: 0, sum_ns: 0, min_ns: u64::MAX, max_ns: 0, buckets: [0; NUM_BUCKETS] }
    }
}

impl SpanStat {
    /// Mean duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Plain-data metrics totals. `merge` is associative and commutative with
/// `MetricsSnapshot::new()` as identity, so snapshots taken per worker, per
/// shard, or per process can be folded in any grouping and order and produce
/// identical totals — property-tested in `tests/metrics_props.rs`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: [u64; NUM_COUNTERS],
    pub spans: [SpanStat; NUM_SPANS],
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsSnapshot {
    pub fn new() -> Self {
        MetricsSnapshot {
            counters: [0; NUM_COUNTERS],
            spans: std::array::from_fn(|_| SpanStat::default()),
        }
    }

    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.index()]
    }

    pub fn span(&self, id: SpanId) -> &SpanStat {
        &self.spans[id.index()]
    }

    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0) && self.spans.iter().all(|s| s.count == 0)
    }

    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += *b;
        }
        for (a, b) in self.spans.iter_mut().zip(other.spans.iter()) {
            a.count += b.count;
            a.sum_ns += b.sum_ns;
            a.min_ns = a.min_ns.min(b.min_ns);
            a.max_ns = a.max_ns.max(b.max_ns);
            for (x, y) in a.buckets.iter_mut().zip(b.buckets.iter()) {
                *x += *y;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_indices_match_all_order() {
        for (i, id) in CounterId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
        for (i, id) in SpanId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn merge_identity_and_accumulation() {
        let mut a = MetricsSnapshot::new();
        a.counters[CounterId::CsrBuilds.index()] = 3;
        a.spans[SpanId::Solve.index()] = SpanStat {
            count: 2,
            sum_ns: 100,
            min_ns: 40,
            max_ns: 60,
            buckets: {
                let mut b = [0; NUM_BUCKETS];
                b[bucket_of(40)] += 1;
                b[bucket_of(60)] += 1;
                b
            },
        };
        let mut id = MetricsSnapshot::new();
        id.merge(&a);
        assert_eq!(id, a);

        let mut b = MetricsSnapshot::new();
        b.counters[CounterId::CsrBuilds.index()] = 4;
        b.spans[SpanId::Solve.index()] =
            SpanStat { count: 1, sum_ns: 10, min_ns: 10, max_ns: 10, buckets: [0; NUM_BUCKETS] };
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.counter(CounterId::CsrBuilds), 7);
        let s = ab.span(SpanId::Solve);
        assert_eq!((s.count, s.sum_ns, s.min_ns, s.max_ns), (3, 110, 10, 60));
    }
}
