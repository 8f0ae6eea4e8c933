//! Discrete-event simulation of PICO plans on an edge cluster.
//!
//! The paper's testbed experiments (Figs. 8–11, Table I) run real
//! hardware; this crate is the simulation substitute: it executes a
//! [`Plan`](pico_partition::Plan) over a task arrival stream using the
//! paper's own cost model for stage service times, and reports the same
//! quantities the paper measures — average inference latency (waiting +
//! processing), throughput, per-device utilization and redundancy.
//!
//! Components:
//!
//! * [`Arrivals`] — Poisson task streams (Sec. V-A "tasks arrive
//!   following a Poisson distribution"), closed-loop saturation streams
//!   (max-throughput measurement), and explicit traces;
//! * [`Simulation`] — deterministic pipeline/queue simulation;
//! * [`mdone`] — the Theorem 2 analytic M/D/1 latency;
//! * [`Ewma`] / [`InterArrivalEstimator`] / [`WorkloadEstimator`] — the
//!   shared Eq. 15 workload trackers (one module, every consumer);
//! * [`AdaptiveScheduler`] — APICO's scheme switching (Sec. IV-C);
//! * [`ReplanKernel`] / [`FleetSim`] — the fleet re-planning hysteresis
//!   kernel (shared bit-for-bit with the live `pico-serve` controller)
//!   and the batch-server loop run with it as switch source;
//! * [`workload`] — phase/burst/diurnal arrival generators for the
//!   "dynamic workload" scenarios that motivate APICO;
//! * [`serve_policy`] — admission control and adaptive micro-batching
//!   shared with the `pico-serve` front-end, plus [`BatchServer`], the
//!   one batch-server loop (generic over its server's clock, intake and
//!   switch source, and over how a batch executes) that [`ServeSim`],
//!   [`FleetSim`], `pico-serve`'s replayer and its live server all run.
//!
//! # Example
//!
//! ```
//! use pico_model::zoo;
//! use pico_partition::{Cluster, CostParams, PicoPlanner, PlanRequest, Planner};
//! use pico_sim::{Arrivals, Simulation};
//!
//! let model = zoo::vgg16().features();
//! let cluster = Cluster::pi_cluster(8, 1.0);
//! let params = CostParams::wifi_50mbps();
//! let plan = PicoPlanner::default().plan(&PlanRequest::new(&model, &cluster, &params))?;
//!
//! let sim = Simulation::new(&model, &cluster, &params);
//! let report = sim.run(&plan, &Arrivals::closed_loop(100));
//! assert_eq!(report.completed, 100);
//! assert!(report.throughput > 0.0);
//! # Ok::<(), pico_partition::PlanError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod arrival;
mod band;
mod des;
mod estimator;
pub mod mdone;
mod metrics;
mod replan;
pub mod serve_policy;
pub mod workload;

pub use adaptive::{AdaptiveScheduler, SchedulerDecision};
pub use arrival::Arrivals;
pub use band::WorkloadBand;
pub use des::{Simulation, StationProfile};
pub use estimator::{Ewma, InterArrivalEstimator, WorkloadEstimator};
pub use metrics::{DeviceStat, SimReport};
pub use replan::{
    FleetSim, ReplanCandidate, ReplanKernel, ReplanPolicy, ReplanVerdict, SwitchRecord,
};
pub use serve_policy::{
    AdaptiveBatcher, AdmissionLedger, BatchPolicy, BatchServer, Due, Intake, RejectReason,
    ServeSim, ServeSimReport, ServiceProfile, SwitchSource, TenantPolicy, TenantServeStat,
    TraceServer,
};
