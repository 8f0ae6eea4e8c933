//! Partition planning for PICO cooperative CNN inference.
//!
//! This crate implements the paper's cost model (Sec. III-B, Eqs. 2–11)
//! and every parallelization strategy it evaluates (Sec. V-A):
//!
//! * [`LayerWise`] — MoDNN-style per-layer scatter/gather (LW),
//! * [`EarlyFused`] — DeepThings-style early fused layers (EFL),
//! * [`OptimalFused`] — AOFL-style optimally fused layers (OFL),
//! * [`PicoPlanner`] — the paper's contribution: dynamic-programming
//!   pipeline construction (Algorithm 1) plus greedy adaptation to a
//!   heterogeneous cluster (Algorithm 2),
//! * [`BfsOptimal`] — exhaustive optimal search, tractable only on toy
//!   models (Table II, Fig. 13).
//!
//! All planners implement the [`Planner`] trait and produce a [`Plan`]:
//! an ordered list of [`Stage`]s, each owning a contiguous model
//! [`Segment`](pico_model::Segment) and a set of per-device feature-map
//! row [`Assignment`]s.
//!
//! # Example
//!
//! ```
//! use pico_model::zoo;
//! use pico_partition::{Cluster, CostParams, PicoPlanner, PlanRequest, Planner};
//!
//! let model = zoo::vgg16().features();
//! let cluster = Cluster::pi_cluster(8, 1.0); // 8 Raspberry Pis @ 1 GHz
//! let params = CostParams::wifi_50mbps();
//! let plan = PicoPlanner::default().plan(&PlanRequest::new(&model, &cluster, &params))?;
//! let metrics = params.cost_model(&model).evaluate(&plan, &cluster);
//! assert!(metrics.period <= metrics.latency);
//! # Ok::<(), pico_partition::PlanError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bfs;
pub mod block_parallel;
pub mod churn;
mod cost;
mod device;
pub mod diag;
mod error;
mod fused;
pub mod grid;
mod grid_fused;
mod interleaved;
mod layer_wise;
pub mod memory;
pub mod pareto;
mod pico;
mod plan;
mod planner;
pub mod redundancy;
mod request;
pub mod symbolic;

pub use bfs::BfsOptimal;
pub use churn::{ChurnEpoch, ChurnError, ChurnEvent, ChurnKind, ChurnMembership, ClusterSchedule};
pub use cost::{CostModel, CostParams, PlanMetrics, StageCost, StageTable};
pub use device::{Cluster, Device, FLOPS_PER_CYCLE};
pub use diag::{structural_diagnostics, Code, Diagnostic, Severity};
pub use error::PlanError;
pub use fused::{EarlyFused, OptimalFused};
pub use grid_fused::GridFused;
pub use interleaved::Interleaved;
pub use layer_wise::LayerWise;
pub use pico::{balance_rows, PicoPlanner};
pub use plan::{Assignment, ExecutionMode, Plan, Scheme, Stage};
pub use planner::Planner;
pub use request::PlanRequest;
