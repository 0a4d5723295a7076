//! Maximum-cycle-ratio solvers: Howard, with Lawler/Karp oracles.
//!
//! This crate provides the algorithmic substrate used to analyze timed event
//! graphs (a.k.a. timed Petri nets with the event-graph property): the
//! steady-state period of such a system equals the **maximum cycle ratio**
//!
//! ```text
//! λ* = max over circuits C of (Σ_e cost(e)) / (Σ_e tokens(e))
//! ```
//!
//! over a doubly-weighted digraph in which every edge carries a real *cost*
//! (a transition firing time) and an integer *token count*.
//!
//! # Contents
//!
//! * [`graph`] — the doubly-weighted digraph [`graph::RatioGraph`] shared by
//!   all cycle algorithms.
//! * [`workspace`] — reusable [`workspace::Workspace`] arenas (CSR
//!   adjacency, iterative Tarjan SCCs, Howard scratch) making repeated
//!   solves allocation-free, with warm-started policy iteration and the
//!   crate's one Howard kernel.
//! * [`batch`] — shape-batched Howard: one CSR build + condensation
//!   amortized over k same-structure instances given as cost planes,
//!   solved lane after lane by that kernel.
//! * [`howard`] — Howard's policy iteration for the maximum cycle ratio
//!   (primary algorithm; exact, returns a witness cycle).
//! * [`lawler`] — Lawler's parametric binary search (cross-check oracle).
//! * [`karp`] — Karp's maximum cycle *mean* algorithm (token-uniform graphs;
//!   cross-check oracle through a token expansion).
//! * [`bruteforce`] — exhaustive simple-cycle enumeration for validation on
//!   tiny graphs.
//!
//! The three oracles share no code with Howard and keep their own scratch;
//! they exist for the tests that cross-check Howard against them (through
//! `tpn::analysis::period_lawler` on whole nets).
//!
//! # Example
//!
//! ```
//! use maxplus::graph::RatioGraph;
//! use maxplus::howard::max_cycle_ratio;
//!
//! // Two-node system: each node hands work to the other; the round trip
//! // costs 3.0 + 5.0 and recycles 2 tokens, so the period is 4.0.
//! let mut g = RatioGraph::new(2);
//! g.add_edge(0, 1, 3.0, 1);
//! g.add_edge(1, 0, 5.0, 1);
//! let sol = max_cycle_ratio(&g).unwrap().expect("graph has a cycle");
//! assert!((sol.ratio - 4.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bruteforce;
pub mod graph;
pub mod howard;
pub mod karp;
pub mod lawler;
pub mod workspace;

pub use graph::{CycleSolution, RatioGraph, RatioGraphError};
pub use howard::max_cycle_ratio;
pub use workspace::Workspace;
