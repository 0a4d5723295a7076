//! Timed Petri nets with the **event-graph property**.
//!
//! A timed event graph (TEG) is a Petri net in which every place has exactly
//! one input and one output transition — the class used by the paper to
//! model replicated-workflow mappings. This crate provides:
//!
//! * [`net`] — the net itself ([`net::TimedEventGraph`]): transitions with
//!   firing times, places with token markings, labels, sub-net extraction.
//! * [`analysis`] — steady-state period via maximum cycle ratio (Howard's
//!   iteration from the `maxplus` crate), with the critical circuit mapped
//!   back to transitions.
//! * [`bounds`] — structural place bounds (the most tokens a place can
//!   ever hold).
//! * [`marking`] — the untimed token game: enabling, firing and circuit
//!   token counts.
//! * [`dot`] — Graphviz export (used to regenerate the paper's Figures 3–5
//!   and 8–10).
//!
//! # Example
//!
//! ```
//! use tpn::net::TimedEventGraph;
//!
//! // A two-transition ping-pong: t0 feeds t1, t1 feeds back to t0.
//! let mut net = TimedEventGraph::new();
//! let t0 = net.add_transition(3.0, "t0");
//! let t1 = net.add_transition(5.0, "t1");
//! net.add_place(t0, t1, 1, "p01");
//! net.add_place(t1, t0, 1, "p10");
//! let period = tpn::analysis::period(&net).unwrap().unwrap();
//! assert!((period.period - 4.0).abs() < 1e-12); // (3+5)/2 tokens
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod bounds;
pub mod dot;
pub mod marking;
pub mod net;

pub use analysis::{period, PeriodSolution};
pub use net::{PlaceId, TimedEventGraph, TransitionId};
