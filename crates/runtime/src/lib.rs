//! Multi-threaded pipelined inference runtime.
//!
//! Executes a [`Plan`](pico_partition::Plan) the way the paper's C++
//! framework does (Fig. 6): each stage has a coordinator that takes
//! feature maps from its input queue, **splits** them into per-device
//! tiles, **scatters** to device workers, **gathers** their outputs,
//! **stitches** them, and forwards to the next stage. Stages and device
//! workers are real OS threads connected by channels, so pipelined plans
//! genuinely overlap work on different tasks.
//!
//! The runtime's contract with the rest of the workspace:
//!
//! * **Correctness** — the pipeline's outputs are bit-identical to
//!   single-device inference with the same engine (validated in tests);
//! * **Mechanics** — queues, split/stitch, and stage concurrency are
//!   real; wall-clock fidelity to the Raspberry Pi testbed is the
//!   simulator's job (`pico-sim`), not this crate's. An optional
//!   [`Throttle`] stretches each stage to cost-model proportions —
//!   worker compute per Eq. 5–6, the stage's summed transfers per
//!   Eq. 8 — which makes relative speedups observable on a laptop.
//! * **Failure injection** — [`RuntimeBuilder::leaves`] takes the
//!   `(device, from_task)` departures of a [`ClusterSchedule`] epoch
//!   (the same slice the simulator's `with_failures` takes); without a
//!   recovery policy the error surfaces from [`PipelineRuntime::run`]
//!   instead of hanging the pipeline, and simultaneous failures are all
//!   reported ([`RuntimeError::Multiple`]).
//! * **Degraded-mode execution** — with a [`RecoveryPolicy`], failures
//!   are detected (explicit worker errors or response timeouts), the
//!   dead worker's shard is retried on a surviving device of the same
//!   stage, and a stage that loses every worker triggers a re-plan over
//!   the surviving cluster; the run resumes and the report carries
//!   [`RunReport::failures`] and [`RunReport::degraded_plan`].
//! * **Observability** — attach a [`pico_telemetry::Recorder`] via
//!   [`PipelineRuntime::builder`] and every scatter/compute/stitch step
//!   emits spans; [`RunReport::stage_stats`] is a derived view over
//!   those same timestamps, so trace and report can never disagree.
//!   With the default no-op recorder the serving path performs no
//!   telemetry clock reads, locks, or allocations.
//!
//! # Example
//!
//! ```
//! use pico_model::zoo;
//! use pico_partition::{Cluster, CostParams, PicoPlanner, PlanRequest, Planner};
//! use pico_runtime::PipelineRuntime;
//! use pico_tensor::{Engine, Tensor};
//!
//! let model = zoo::mnist_toy();
//! let cluster = Cluster::pi_cluster(4, 1.0);
//! let params = CostParams::wifi_50mbps();
//! let plan = PicoPlanner::default().plan(&PlanRequest::new(&model, &cluster, &params))?;
//!
//! let engine = Engine::with_seed(&model, 1);
//! let runtime = PipelineRuntime::new(&model, &plan, &engine);
//! let inputs = vec![Tensor::random(model.input_shape(), 2)];
//! let report = runtime.run(inputs.clone()).unwrap();
//! assert_eq!(report.outputs[0], engine.infer(&inputs[0]).unwrap());
//! # Ok::<(), pico_partition::PlanError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
mod fault;
mod runtime;
mod throttle;
pub mod topology;

pub use builder::RuntimeBuilder;
pub use error::RuntimeError;
pub use fault::{FailureRecord, RecoveryPolicy};
// Churn is modelled one layer down so the simulator can share it; the
// runtime consumes an epoch's departures via `RuntimeBuilder::leaves`.
pub use pico_partition::{
    ChurnEpoch, ChurnError, ChurnEvent, ChurnKind, ChurnMembership, ClusterSchedule,
};
pub use runtime::{
    ExecutionSession, PipelineRuntime, RunReport, StageStat, TaskTiming, DEFAULT_CHANNEL_CAPACITY,
};
pub use throttle::Throttle;
pub use topology::{channel_topology, ChannelEdge, ChannelKind, ChannelTopology};
