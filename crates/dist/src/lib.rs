//! **repwf-dist** — sharded, resumable, merge-exact campaign execution
//! across processes and hosts.
//!
//! The paper's headline experiments are large randomized campaigns
//! (thousands of sampled pipeline/platform instances per Table 2 point).
//! Since experiment `k` derives *all* of its randomness from
//! `seed_base + k`, the seed space partitions deterministically — the
//! same property that makes campaign results bit-identical at any thread
//! count also makes them bit-identical at any **process and host count**,
//! if the decomposition is fixed up front (the approach of Bobpp-style
//! deterministic work decomposition). This crate supplies that
//! decomposition and the machinery around it:
//!
//! * [`plan::ShardPlan`] — contiguous deterministic partition of a
//!   campaign's seed range into `num_shards` shards. Pure arithmetic:
//!   every party (shard runners on different hosts, the merger, tests)
//!   derives the same ranges from `(seed_base, count, num_shards)`.
//! * [`manifest::ShardManifest`] — a serialized JSON header pinning the
//!   generator config, communication model, TPN cap and seed range, so a
//!   shard file is **self-describing** and verifiable at merge time;
//!   mismatched manifests are diagnosed field by field, never silently
//!   accepted.
//! * [`shard`] — the streaming NDJSON shard writer: one record per
//!   [`repwf_gen::ExperimentOutcome`] (f64s as exact bit patterns),
//!   appended **in seed order** while the campaign runs shape-batched and
//!   multi-threaded (via the seed-ordered sink of
//!   [`repwf_gen::campaign::run_spec`]), plus a footer with the
//!   record count and a checksum. **Checkpoint/resume**: on restart,
//!   [`shard::run_shard`] re-opens a partial file, validates the prefix,
//!   truncates a torn trailing line and continues from the first missing
//!   seed — converging to the same bytes as an uninterrupted run.
//! * [`merge`] — the **exact merger**: validates that the shard files
//!   tile the campaign's seed range exactly (missing, duplicate and
//!   foreign shards are errors), concatenates outcomes in seed order and
//!   recombines the associative [`repwf_gen::CampaignAccum`] aggregates.
//!   The merged [`report::campaign_doc`] JSON is **byte-identical** to
//!   the unsharded `repwf campaign --json` output for any
//!   `num_shards × threads` combination (property-tested in
//!   `tests/shard_props.rs` and pinned end-to-end by the CLI tests and
//!   the CI `shard-smoke` job).
//! * [`report`] — the campaign JSON document builder shared by
//!   `repwf campaign --json` and `repwf merge --json` (sharing one
//!   builder is what makes "byte-identical" a structural guarantee
//!   rather than a test-enforced coincidence), and [`json`] — the
//!   dependency-free JSON writer/parser it builds on (moved here from
//!   the CLI; the parser keeps integer tokens exact up to u128, which
//!   the bit-pattern round-trip relies on).
//!
//! # Workflow
//!
//! ```text
//! host A $ repwf campaign --count 9000 --shard 0/3 --out s0.ndjson
//! host B $ repwf campaign --count 9000 --shard 1/3 --out s1.ndjson
//! host C $ repwf campaign --count 9000 --shard 2/3 --out s2.ndjson
//!     ... copy the .ndjson files anywhere ...
//!        $ repwf merge s0.ndjson s1.ndjson s2.ndjson --json
//!        # == repwf campaign --count 9000 --json, byte for byte
//! ```
//!
//! A killed shard is simply re-run with the same command line; completed
//! experiments are validated and skipped, not recomputed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod json;
pub mod lease;
pub mod manifest;
pub mod merge;
pub mod plan;
pub mod report;
pub mod shard;
pub mod supervise;

pub use fault::FaultPlan;
pub use lease::{LeaseInfo, LeaseProgress};
pub use manifest::{CampaignSpec, ShardManifest};
pub use merge::{merge_paths, merge_paths_partial, MergeReport, MergedCampaign};
pub use plan::ShardPlan;
pub use shard::{
    read_shard, run_range, run_shard, run_shard_opts, ShardRunOptions, ShardRunSummary,
};
pub use supervise::{status, supervise, SuperviseOptions, SuperviseSummary};

/// Errors of the distributed campaign subsystem.
///
/// Every variant carries a human-readable diagnosis: the CLI surfaces
/// these verbatim, and the merge/resume paths are required to *diagnose*
/// inconsistent inputs (mismatched manifests, missing or duplicate
/// seeds, torn files) rather than silently accept them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// Filesystem failure (open/read/write/truncate).
    Io(String),
    /// Invalid shard plan or option values (e.g. `--shard 3/3`).
    Plan(String),
    /// A shard file violates the NDJSON shard format beyond a torn tail:
    /// unparseable interior line, out-of-order seed, bad checksum.
    Corrupt {
        /// Offending file.
        path: String,
        /// What exactly is wrong, with a line number where possible.
        reason: String,
    },
    /// A shard file's manifest disagrees with the expected campaign
    /// (different config, model, cap, seed range or shard layout).
    ManifestMismatch {
        /// Offending file.
        path: String,
        /// First differing field, with both values.
        reason: String,
    },
    /// The set of shard files does not tile the campaign exactly
    /// (missing or duplicate shard indices, or an incomplete shard).
    ShardSet(String),
    /// An **injected** fault fired (deterministic chaos testing): the
    /// worker behaved exactly as a killed process would — valid
    /// checkpoint prefix on disk, nothing merged — and reports it here
    /// instead of dying, so in-process tests can assert on the recovery.
    Fault(String),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Io(m) => write!(f, "i/o error: {m}"),
            DistError::Plan(m) => write!(f, "invalid shard plan: {m}"),
            DistError::Corrupt { path, reason } => {
                write!(f, "corrupt shard file {path}: {reason}")
            }
            DistError::ManifestMismatch { path, reason } => {
                write!(f, "manifest mismatch in {path}: {reason}")
            }
            DistError::ShardSet(m) => write!(f, "inconsistent shard set: {m}"),
            DistError::Fault(m) => write!(f, "injected fault: {m}"),
        }
    }
}

impl std::error::Error for DistError {}
