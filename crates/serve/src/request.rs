use std::sync::Arc;

use pico_fleet::FleetFrontier;
use pico_sim::{BatchPolicy, ReplanPolicy, TenantPolicy};
use pico_telemetry::Recorder;
use pico_tensor::EngineBackend;

use crate::ServeConfig;

/// Everything a serving front-end is given. Construct with
/// [`ServeRequest::new`] and chain `with_*` setters — the same builder
/// idiom as `pico_partition::PlanRequest`.
///
/// ```
/// use pico_serve::ServeRequest;
/// use pico_sim::{BatchPolicy, TenantPolicy};
///
/// let req = ServeRequest::new()
///     .with_tenants(vec![TenantPolicy::default(); 2])
///     .with_batch(BatchPolicy {
///         max_batch: 4,
///         ..BatchPolicy::default()
///     })
///     .with_engine_seed(7);
/// assert_eq!(req.config().tenants.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ServeRequest {
    config: ServeConfig,
    recorder: Recorder,
    engine_seed: u64,
    backend: EngineBackend,
    adaptive: Option<(Arc<FleetFrontier>, ReplanPolicy)>,
}

impl Default for ServeRequest {
    fn default() -> Self {
        ServeRequest::new()
    }
}

impl ServeRequest {
    /// A single-tenant request with default policies and a no-op
    /// recorder.
    pub fn new() -> Self {
        ServeRequest {
            config: ServeConfig::default(),
            recorder: Recorder::noop(),
            engine_seed: 1,
            backend: EngineBackend::default(),
            adaptive: None,
        }
    }

    /// Arms live re-planning: the server starts on `frontier`'s
    /// cheapest entry and lets the hysteresis kernel switch plans as
    /// the admitted-arrival λ estimate drifts (each switch still gated
    /// by the PA305–PA307 audit). `Pico::serve` and
    /// [`crate::ServeHandle::spawn_adaptive`] serve an armed request
    /// adaptively; [`crate::ServeHandle::spawn`] refuses one.
    pub fn with_adaptive(mut self, frontier: Arc<FleetFrontier>, policy: ReplanPolicy) -> Self {
        self.adaptive = Some((frontier, policy));
        self
    }

    /// Replaces the batching policy.
    pub fn with_batch(mut self, batch: BatchPolicy) -> Self {
        self.config.batch = batch;
        self
    }

    /// Replaces the tenant set; tenant ids are indices into `tenants`.
    pub fn with_tenants(mut self, tenants: Vec<TenantPolicy>) -> Self {
        self.config.tenants = tenants;
        self
    }

    /// Attaches a telemetry recorder (admission, batching, and swap
    /// events flow into it alongside the runtime's own spans).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Seed for the synthetic-weight engine the server thread builds.
    pub fn with_engine_seed(mut self, seed: u64) -> Self {
        self.engine_seed = seed;
        self
    }

    /// Compute backend of the engine the server thread builds (the
    /// engine's default unless set; `Pico::serve` sets the
    /// deployment's `Pico::with_backend` override here).
    pub fn with_backend(mut self, backend: EngineBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The assembled configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The attached recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The engine seed.
    pub fn engine_seed(&self) -> u64 {
        self.engine_seed
    }

    /// The engine backend.
    pub fn backend(&self) -> EngineBackend {
        self.backend
    }

    /// The armed re-planning setup, if any.
    pub fn adaptive(&self) -> Option<&(Arc<FleetFrontier>, ReplanPolicy)> {
        self.adaptive.as_ref()
    }
}
