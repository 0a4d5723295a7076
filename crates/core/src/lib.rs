//! **repwf-core** — computing the throughput of replicated workflows on
//! heterogeneous platforms.
//!
//! This crate reproduces the system of Benoit, Gallet, Gaujal and Robert,
//! *“Computing the throughput of replicated workflows on heterogeneous
//! platforms”* (ICPP 2009 / LIP RR-2009-08): given a linear-chain streaming
//! application, a fully heterogeneous platform and a mapping that may
//! *replicate* stages over several processors (served in round-robin), it
//! computes the steady-state **period** `P̂` — the time between two
//! consecutive data-set completions — and hence the throughput `1/P̂`.
//!
//! * [`model`] — pipelines, platforms, mappings and the validated
//!   [`model::Instance`] they form.
//! * [`cycle_time`] — per-resource cycle-times and the `M_ct` lower bound
//!   (the period of non-replicated mappings).
//! * [`paths`] — Proposition 1: the `m = lcm(m_0,…,m_{n−1})` distinct paths
//!   followed by the input data.
//! * [`tpn_build`] — §3 of the paper: the timed-Petri-net model of a mapping
//!   for both communication models.
//! * [`overlap_poly`] — Theorem 1: the polynomial algorithm for the
//!   overlap one-port model (no TPN of size `m` ever materialized).
//! * [`period`] — the unified period-computation API.
//! * [`engine`] — the reusable, zero-allocation [`engine::PeriodEngine`]
//!   (TPN build arena + max-plus workspace + warm-started Howard) for hot
//!   loops that evaluate many related instances.
//! * [`batch`] — the shape-batched [`batch::ShapeBatchSolver`]: one TPN
//!   build + one condensation per shape, k instances per Howard pass.
//! * [`fixtures`] — the paper's Examples A, B and C.
//!
//! # Quickstart
//!
//! ```
//! use repwf_core::model::{CommModel, Instance, Mapping, Pipeline, Platform};
//! use repwf_core::period::{compute_period, Method};
//!
//! // Two stages; the second is twice as heavy and replicated on two procs.
//! let pipeline = Pipeline::new(vec![10.0, 20.0], vec![4.0]).unwrap();
//! let platform = Platform::uniform(3, 1.0, 1.0); // speeds 1, bandwidths 1
//! let mapping = Mapping::new(vec![vec![0], vec![1, 2]]).unwrap();
//! let inst = Instance::new(pipeline, platform, mapping).unwrap();
//! let report = compute_period(&inst, CommModel::Overlap, Method::Auto).unwrap();
//! // Stage 1 takes 20 time units but two processors alternate: 10 per data
//! // set. Stage 0 needs 10 and the file transfer 4: the period is 10.
//! assert!((report.period - 10.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cycle_time;
pub mod engine;
pub mod fixtures;
pub mod latency;
pub mod model;
pub mod overlap_poly;
pub mod paths;
pub mod period;
pub mod textfmt;
pub mod tpn_build;

pub use engine::PeriodEngine;
pub use model::{CommModel, Instance, Mapping, ModelError, Pipeline, Platform, ProcId, StageId};
pub use period::{compute_period, Method, PeriodReport};
