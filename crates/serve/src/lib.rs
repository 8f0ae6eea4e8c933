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
//! Every serving decision lives in `pico_sim::serve_policy`; this crate
//! adds the two ways to drive it against the real pipeline:
//!
//! * [`Replayer`] — the **deterministic** front-end: a scripted trace
//!   runs through [`pico_sim::BatchServer`] — the one batch-server loop
//!   the simulation mirrors also run — in virtual time (priced by the
//!   plan's analytic cost model), with `ExecutionSession::submit` as
//!   its executor, so every batch still executes on the real threaded
//!   pipeline, outputs are bit-exact, and runs are reproducible.
//! * [`ServeHandle`] — the **live** front-end: a server thread owns the
//!   runtime; callers submit from any thread and get typed
//!   backpressure ([`ServeError::QueueFull`] /
//!   [`ServeError::TenantOverBudget`]) instead of blocking. It obeys
//!   the loop's feeding rule — free server + anything queued ⇒ a batch
//!   of up to the adaptive target, composed, accounted and re-planned
//!   by the same ledger and kernel methods — and differs only in its
//!   clock: wall time, woken by a bounded control channel.
//!
//! Both can also run **adaptively**: armed with a cached
//! [`FleetFrontier`] (see [`fleet_frontier`]), the
//! [`pico_sim::ReplanKernel`] hysteresis controller watches the
//! admitted-arrival λ estimate and switches plans through the same
//! audit-gated commit at an epoch boundary —
//! [`Replayer::run_adaptive`] in virtual time,
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
pub use state::ServeState;

// Re-export the policy types a caller needs to configure the front-end
// without importing the simulator or fleet crates directly.
pub use pico_fleet::{FleetEntry, FleetFrontier};
pub use pico_sim::{
    BatchPolicy, RejectReason, ReplanPolicy, SwitchRecord, TenantPolicy, TenantServeStat,
};
