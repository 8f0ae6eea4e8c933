//! Fleet planning for PICO: Pareto plan frontiers, a concurrent plan
//! cache, and the glue that lets a serving cluster re-plan itself as
//! the workload drifts.
//!
//! The paper's adaptive scheduler (Sec. IV-C) picks between schemes as
//! the EWMA workload estimate moves; this crate scales that idea from
//! "two precomputed plans inside a simulator" to a serving fleet:
//!
//! * [`FleetFrontier`] — sweep every planner over a `(model, cluster)`
//!   deployment, audit each plan deeply over its own sustainable-λ band
//!   (Theorem 2), keep the Pareto set under
//!   `(period, latency, resident memory)`, and precompute the
//!   `PA305`–`PA307` switch-pair audit matrix over the survivors;
//! * [`PlanCache`] — a sharded, read-optimized map from
//!   [`CacheKey`] (model fingerprint × order-canonical cluster
//!   signature × workload band) to built frontiers, with hit/miss/evict
//!   telemetry and deterministic FIFO eviction;
//! * [`FleetFrontier::kernel`] — the bridge to the re-planning
//!   controller: the `ReplanKernel` is the switch source of the one
//!   batch-server loop (`pico_sim::BatchServer`) that `pico-serve`'s
//!   deterministic replayer, its live server and `pico-sim`'s
//!   [`FleetSim`](pico_sim::FleetSim) mirror all run, so all three
//!   make their switch decisions by the same code.
//!
//! # Example
//!
//! ```
//! use pico_fleet::{CacheKey, FleetConfig, FleetFrontier, PlanCache};
//! use pico_model::zoo;
//! use pico_partition::{Cluster, CostParams};
//! use pico_sim::WorkloadBand;
//! use pico_telemetry::Recorder;
//!
//! let model = zoo::mnist_toy();
//! let cluster = Cluster::pi_cluster(4, 1.0);
//! let params = CostParams::wifi_50mbps();
//!
//! let key = CacheKey::new(&model, &cluster, &params, WorkloadBand::point(0.0));
//! let cache = PlanCache::new(16);
//! let frontier = cache.get_or_build(key, &Recorder::noop(), || {
//!     FleetFrontier::build(&model, &cluster, &params, FleetConfig::default())
//! })?;
//! // Every entry carries its price and its sustainable-λ band.
//! assert!(!frontier.entries().is_empty());
//! let fastest = &frontier.entries()[frontier.max_throughput()];
//! assert!(fastest.band.hi > 0.0);
//! # Ok::<(), pico_fleet::FleetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod frontier;
mod key;

pub use cache::{CacheStats, PlanCache, GLOBAL_CACHE_CAPACITY};
pub use frontier::{FleetConfig, FleetEntry, FleetError, FleetFrontier};
pub use key::{CacheKey, ClusterSignature, ModelFingerprint};
