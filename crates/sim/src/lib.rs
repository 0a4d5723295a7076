//! **repwf-sim** — discrete-event simulation of replicated-workflow
//! schedules.
//!
//! This simulator executes the mapped workflow *directly* — data set by data
//! set, resource by resource — without ever constructing the timed Petri
//! net. It therefore provides an independent check of the TPN analysis
//! (`repwf-core`), scales to instances whose TPN would be astronomically
//! large (`m = lcm(m_i)` never appears: memory is `O(resources)`), and
//! records the operation log from which the paper's Gantt charts (Figs. 7
//! and 12) are regenerated.
//!
//! # Semantics
//!
//! Earliest-start execution under the paper's rules:
//!
//! * replicated stages serve data sets in strict round-robin order;
//! * every resource performs its operations in data-set order (the TPN's
//!   round-robin circuits), so a resource is modelled by a single
//!   "free-from" clock;
//! * a file transfer occupies the sender's out-port **and** the receiver's
//!   in-port for its whole duration (overlap model), or both processors
//!   entirely (strict model).
//!
//! ```
//! use repwf_core::model::{CommModel, Instance, Mapping, Pipeline, Platform};
//! use repwf_sim::{simulate, SimOptions};
//!
//! let pipeline = Pipeline::new(vec![10.0, 20.0], vec![4.0]).unwrap();
//! let platform = Platform::uniform(3, 1.0, 1.0);
//! let mapping = Mapping::new(vec![vec![0], vec![1, 2]]).unwrap();
//! let inst = Instance::new(pipeline, platform, mapping).unwrap();
//! let res = simulate(&inst, CommModel::Overlap, &SimOptions::default());
//! assert!((res.period_estimate() - 10.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clocked;
pub mod gantt;
pub mod runner;

pub use runner::{simulate, Op, OpKind, Resource, SimOptions, SimResult};
