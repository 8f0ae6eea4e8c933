//! # PICO — Pipelined Cooperative CNN Inference for IoT Edge Clusters
//!
//! A from-scratch Rust reproduction of *"Towards Efficient Inference:
//! Adaptively Cooperate in Heterogeneous IoT Edge Cluster"* (ICDCS
//! 2021): split a CNN into pipeline stages across a cluster of weak,
//! heterogeneous edge devices, partition feature maps with overlapping
//! halos inside each stage, and adaptively switch between pipelined and
//! fused one-stage execution as the workload changes.
//!
//! This crate is the facade over the workspace:
//!
//! | Crate | Re-exported as | Provides |
//! |---|---|---|
//! | `pico-model` | [`model`] | CNN layer graphs, model zoo, FLOPs/receptive-field analysis |
//! | `pico-tensor` | [`tensor`] | CHW f32 engine with bit-exact halo split/stitch |
//! | `pico-partition` | [`partition`] | cost model + LW/EFL/OFL/PICO/BFS planners |
//! | `pico-sim` | [`sim`] | arrival streams, queueing simulation, M/D/1, APICO |
//! | `pico-fleet` | [`fleet`] | Pareto plan frontiers, concurrent plan cache, re-planning glue |
//! | `pico-audit` | [`audit`] | multi-pass plan diagnostics engine (`pico audit`) |
//! | `pico-runtime` | [`runtime`] | threaded Fig.-6 pipeline executor |
//! | `pico-telemetry` | [`telemetry`] | structured spans/counters/histograms, Chrome traces |
//! | `pico-core` | [`core`] | the [`Pico`] one-stop facade |
//! | `pico-bench` | [`bench`] | paper figures/tables + the `pico bench` micro-benchmark suites |
//!
//! # Quickstart
//!
//! ```
//! use pico::prelude::*;
//!
//! // VGG16's feature extractor on eight 1 GHz Raspberry-Pi-class
//! // devices behind a 50 Mbps WiFi AP — the paper's testbed.
//! let pico = Pico::new(zoo::vgg16().features(), Cluster::pi_cluster(8, 1.0));
//!
//! let plan = pico.plan()?;                       // PICO pipeline
//! let metrics = pico.predict(&plan);             // Eqs. 10/11
//! let report = pico.simulate(&plan, &Arrivals::closed_loop(50));
//! assert!(report.throughput > 0.0);
//! assert!(metrics.period <= metrics.latency);
//! # Ok::<(), pico::partition::PlanError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pico_audit as audit;
pub use pico_bench as bench;
pub use pico_core as core;
pub use pico_fleet as fleet;
pub use pico_model as model;
pub use pico_partition as partition;
pub use pico_runtime as runtime;
pub use pico_serve as serve;
pub use pico_sim as sim;
pub use pico_telemetry as telemetry;
pub use pico_tensor as tensor;

pub use pico_core::Pico;

/// Everything most programs need, one `use` away.
pub mod prelude {
    pub use pico_audit::{AuditConfig, AuditReport, Auditor};
    pub use pico_core::{ChurnReport, ChurnRunError, EpochRecord, Pico};
    pub use pico_fleet::{CacheKey, ClusterSignature, FleetConfig, FleetFrontier, PlanCache};
    pub use pico_model::{zoo, Model, Rows, Segment, Shape};
    pub use pico_partition::{
        BfsOptimal, ChurnEpoch, ChurnError, ChurnEvent, ChurnKind, ChurnMembership, Cluster,
        ClusterSchedule, Code, CostParams, Device, Diagnostic, EarlyFused, GridFused, Interleaved,
        LayerWise, OptimalFused, PicoPlanner, Plan, PlanRequest, Planner, Scheme, Severity,
    };
    pub use pico_runtime::{
        FailureRecord, PipelineRuntime, RecoveryPolicy, RunReport, RuntimeBuilder, RuntimeError,
        Throttle,
    };
    pub use pico_serve::{
        BatchPolicy, Replayer, ServeConfig, ServeError, ServeHandle, ServeRequest, TenantPolicy,
    };
    pub use pico_sim::{AdaptiveScheduler, Arrivals, ReplanPolicy, Simulation};
    pub use pico_telemetry::{names, Ctx, Event, EventKind, Recorder, TraceSummary};
    pub use pico_tensor::{Engine, EngineBackend, Scratch, Tensor};
}
