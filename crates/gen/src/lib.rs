//! **repwf-gen** — random instance generation and the paper's experiment
//! campaign (§5, Table 2).
//!
//! The paper's experimental section draws thousands of random (pipeline,
//! platform, mapping) triples and asks one question per draw: *does some
//! resource's cycle-time dictate the period* (`P̂ = M_ct`), or does the
//! round-robin interference of replicated stages push the period strictly
//! above every resource's load (`P̂ > M_ct`)? This crate reproduces that
//! pipeline end to end:
//!
//! * [`sampler`] — draws random instances with computation/communication
//!   times uniform in configured ranges, exactly like the paper's setup
//!   ("all relevant parameters … randomly chosen uniformly within the
//!   ranges indicated in Table 2"). The `w/Π` model cannot produce
//!   independently-uniform per-pair times, so a shape-preserving
//!   speed/size decomposition is used (see [`sampler::Range`]).
//! * [`campaign`] — the parallel experiment engine. One runner,
//!   [`campaign::run_spec`], routes seeds by TPN shape, solves same-shape
//!   chunks in batched Howard passes and the rest per instance on the
//!   [`repwf_par`] **work-stealing** executor; each experiment is seeded
//!   from its own index, so campaign results are **bit-identical at every
//!   thread count**. Strict-model instances whose TPN exceeds the size cap
//!   fall back to the discrete-event simulator
//!   ([`campaign::Resolution::Simulated`]). The runner hands every outcome
//!   to a sink **in seed order** while running multi-threaded, and the
//!   associative [`campaign::CampaignAccum`] makes the aggregates
//!   mergeable **exactly** — the two hooks the `repwf-dist` crate builds
//!   its sharded (multi-process / multi-host) campaigns on. Progress is a
//!   fold over the sink ([`campaign::CampaignAccum::progress`]).
//! * [`table2`] — the twelve experiment families of Table 2 with the
//!   paper's counts (5152 experiments total), runnable at any scale, with
//!   console/CSV reporters.
//! * [`stats`] — quantiles, ASCII histograms and per-experiment CSV dumps
//!   for campaign post-processing.
//!
//! # Quickstart
//!
//! ```
//! use repwf_core::model::CommModel;
//! use repwf_gen::{run_spec, CampaignSpec, GenConfig, Range, Topology};
//!
//! // 40 experiments from the paper's hardest family: 2 stages over 7
//! // processors, unit computations, communications uniform in [5, 10].
//! let cfg = GenConfig {
//!     stages: 2,
//!     procs: 7,
//!     comp: Range::constant(1.0),
//!     comm: Range::new(5.0, 10.0),
//! };
//! let spec = CampaignSpec { cfg, model: CommModel::Strict, count: 40, seed_base: 1, cap: 200_000 };
//! let mut seeds = Vec::new();
//! let res = run_spec(&spec, &Topology::chain(cfg.stages), 4, |o| seeds.push(o.seed));
//! assert_eq!(res.outcomes.len(), 40);
//! // The sink saw every seed once, in order, whatever the thread count.
//! assert_eq!(seeds, (1..41).collect::<Vec<u64>>());
//! // Some draws exhibit the paper's headline regime: no critical resource.
//! let surprising = res.count_no_critical(1e-7);
//! assert!(surprising <= 40);
//! ```
//!
//! The `repwf` CLI (`crates/cli`) exposes this engine as
//! `repwf campaign` / `repwf table2`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agg;
pub mod campaign;
pub mod sampler;
pub mod stats;
pub mod table2;

pub use campaign::{
    engine_for_cap, run_campaign_streamed, run_one_workflow_with, run_spec, CampaignAccum,
    CampaignResult, CampaignSpec, ExperimentOutcome, Progress,
};
pub use sampler::{sample_instance, sample_workflow_instance, GenConfig, Range, Topology};
pub use table2::{table2_rows, Table2Row};
