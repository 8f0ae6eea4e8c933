//! # pico-serve — multi-tenant serving front-end
//!
//! A dependency-light task-intake layer in front of the pipelined
//! runtime, reproducing the *serving* side of the paper's edge-cluster
//! story: many tenants submit single-task inference requests, and the
//! cluster must (a) bound each tenant's backlog, (b) batch adaptively
//! as load shifts (the Eq. 15 EWMA idea applied to inter-arrival
//! gaps), and (c) switch parallel schemes under load *without dropping
//! work* — the APICO warm swap, gated by the static switch-pair audit
//! (PA305–PA307).
//!
//! Every serving decision lives in `pico_sim::serve_policy`, and so
//! does the one serving loop, [`pico_sim::BatchServer::run_epoch`];
//! this crate adds the two ways to drive it against the real pipeline.
//! Both go through one epoch loop: a fresh pipeline per epoch, each
//! batch executed on it (bit-exact outputs), and every switch the loop
//! returns put through the audit gate before the next epoch starts.
//!
//! * [`Replayer`] — the **deterministic** front-end: a scripted trace
//!   is the loop's server ([`pico_sim::TraceServer`], the one the
//!   simulation mirrors also run), so time is virtual (priced by the
//!   plan's analytic cost model) and runs are reproducible.
//! * [`ServeHandle`] — the **live** front-end: the loop runs on a
//!   server thread on wall time and, when idle, blocks on a bounded
//!   wake-up channel. Callers submit from any thread and get typed
//!   backpressure ([`ServeError::QueueFull`] /
//!   [`ServeError::TenantOverBudget`]) instead of blocking: admission
//!   runs on the caller's thread, against the intake the loop composes
//!   from, behind one lock. A warm swap ([`ServeHandle::swap`]) takes
//!   effect at the next batch boundary, as in the replay.
//!
//! Both can also run **adaptively**: armed with a cached
//! [`FleetFrontier`] (see [`fleet_frontier`]), the
//! [`pico_sim::ReplanKernel`] hysteresis controller is the loop's
//! switch source — it watches the admitted-arrival λ estimate and
//! switches plans through the same audit-gated commit at a batch
//! boundary: [`Replayer::run_adaptive`] in virtual time,
//! [`ServeHandle::spawn_adaptive`] live.
//!
//! ```
//! use pico_model::zoo;
//! use pico_partition::Cluster;
//! use pico_partition::CostParams;
//! use pico_serve::{build_script, Replayer, ReplayScript, ScriptSpec};
//! use pico_tensor::Engine;
//!
//! let model = zoo::toy(4);
//! let cluster = Cluster::pi_cluster(4, 1.0);
//! let params = CostParams::default();
//! let spec = ScriptSpec { tasks: 12, ..ScriptSpec::default() };
//! let script = build_script(&model, &cluster, &params, ReplayScript::Steady, &spec).unwrap();
//! let engine = Engine::with_seed(&model, 1);
//! let outcome = Replayer::new(&model, &cluster, &params, &engine, script.config)
//!     .run(&script.initial, &script.events)
//!     .unwrap();
//! assert_eq!(outcome.completed.len() + outcome.rejections.len(), 12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod front;
mod replay;
mod request;
mod server;
mod state;

pub use config::ServeConfig;
pub use error::ServeError;
pub use front::{CompletedTask, Rejection, ReplayOutcome, Replayer, ServeEvent};
pub use replay::{build_script, fleet_frontier, ReplayPlan, ReplayScript, ScriptSpec};
pub use request::ServeRequest;
pub use server::{ServeHandle, ServeOutcome, ServeTicket};

// Re-export the policy types a caller needs to configure the front-end
// without importing the simulator or fleet crates directly.
pub use pico_fleet::{FleetEntry, FleetFrontier};
pub use pico_sim::{
    BatchPolicy, RejectReason, ReplanPolicy, SwitchRecord, TenantPolicy, TenantServeStat,
};
