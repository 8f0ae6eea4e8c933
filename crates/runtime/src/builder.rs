use pico_model::Model;
use pico_partition::Plan;
use pico_telemetry::Recorder;
use pico_tensor::{Engine, EngineBackend};

use crate::fault::RecoveryPolicy;
use crate::{PipelineRuntime, Throttle};

/// Configures a [`PipelineRuntime`] with named setters instead of the
/// old positional `with_*` chain.
///
/// ```
/// use pico_partition::{Cluster, CostParams, PicoPlanner, PlanRequest, Planner};
/// use pico_runtime::PipelineRuntime;
/// use pico_telemetry::Recorder;
/// use pico_tensor::Engine;
///
/// let model = pico_model::zoo::mnist_toy();
/// let cluster = Cluster::pi_cluster(4, 1.0);
/// let plan = PicoPlanner
///     .plan(&PlanRequest::new(&model, &cluster, &CostParams::wifi_50mbps()))
///     .unwrap();
/// let engine = Engine::with_seed(&model, 7);
/// let runtime = PipelineRuntime::builder(&model, &plan, &engine)
///     .recorder(Recorder::in_memory())
///     .channel_capacity(4)
///     .build();
/// # let _ = runtime;
/// ```
#[derive(Debug)]
pub struct RuntimeBuilder<'a> {
    model: &'a Model,
    plan: &'a Plan,
    engine: &'a Engine<'a>,
    throttle: Option<Throttle>,
    leaves: Vec<(usize, usize)>,
    recovery: Option<RecoveryPolicy>,
    recorder: Recorder,
    channel_capacity: Option<usize>,
    backend: Option<EngineBackend>,
}

impl<'a> RuntimeBuilder<'a> {
    pub(crate) fn new(model: &'a Model, plan: &'a Plan, engine: &'a Engine<'a>) -> Self {
        RuntimeBuilder {
            model,
            plan,
            engine,
            throttle: None,
            leaves: Vec::new(),
            recovery: None,
            recorder: Recorder::noop(),
            channel_capacity: None,
            backend: None,
        }
    }

    /// Telemetry sink for the run. Defaults to [`Recorder::noop`],
    /// which keeps the hot loop free of clock reads, locks, and
    /// allocations.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Sleeps each stage to its cost-model duration (Eq. 9): workers to
    /// their compute time, the stage coordinator to the stage's summed
    /// transfer time (Eq. 8), so wall-clock behaviour follows the
    /// analytic model (Sec. III).
    pub fn throttle(mut self, throttle: Throttle) -> Self {
        self.throttle = Some(throttle);
        self
    }

    /// Bounds every inter-stage queue to `capacity` in-flight tasks
    /// (backpressure). The default is
    /// [`DEFAULT_CHANNEL_CAPACITY`](crate::DEFAULT_CHANNEL_CAPACITY) —
    /// deep enough to approximate the paper's infinite-queue
    /// assumption, while keeping every queue bounded.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero: a zero-capacity rendezvous queue
    /// would deadlock the scatter-then-gather coordinators.
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "channel capacity must be at least 1");
        self.channel_capacity = Some(capacity);
        self
    }

    /// Injects departures: each `(device, from_task)` entry makes the
    /// device's workers error instead of computing on every task whose
    /// index is `>= from_task`. This is a churn epoch's
    /// [`leaves`](pico_partition::ChurnEpoch::leaves) — script
    /// departures with a [`ClusterSchedule`](pico_partition::ClusterSchedule)
    /// and pass the epoch's slice here. Entries accumulate across calls.
    pub fn leaves(mut self, leaves: &[(usize, usize)]) -> Self {
        self.leaves.extend_from_slice(leaves);
        self
    }

    /// Installs a [`RecoveryPolicy`]: device failures are detected and
    /// retried on surviving workers, and a stage that loses every
    /// worker triggers a degraded re-plan instead of failing the run.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Overrides the compute backend for every worker, forking the
    /// engine once at build time (weights are shared with the
    /// original; see [`Engine::fork_backend`]).
    pub fn backend(mut self, backend: EngineBackend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Builds the runtime.
    ///
    /// # Panics
    ///
    /// Panics if the plan's stages do not tile the model contiguously
    /// (run [`Plan::validate`] first when the plan comes from outside
    /// this workspace).
    pub fn build(self) -> PipelineRuntime<'a> {
        PipelineRuntime::validate_plan_shape(self.model, self.plan);
        // The fork is created once here, outside any worker thread, so
        // scoped workers can simply borrow it — and an Int8 fork pays
        // its one-time weight quantization up front, not on the serving
        // path.
        let fork = self.backend.map(|b| self.engine.fork_backend(b));
        PipelineRuntime {
            model: self.model,
            plan: self.plan,
            engine: self.engine,
            fork,
            throttle: self.throttle,
            leaves: self.leaves,
            recovery: self.recovery,
            recorder: self.recorder,
            channel_capacity: self.channel_capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pico_partition::{Cluster, CostParams, PicoPlanner, PlanRequest, Planner};

    #[test]
    fn builder_defaults_are_noop() {
        let m = pico_model::zoo::mnist_toy();
        let c = Cluster::pi_cluster(4, 1.0);
        let plan = PicoPlanner
            .plan(&PlanRequest::new(&m, &c, &CostParams::wifi_50mbps()))
            .unwrap();
        let engine = Engine::with_seed(&m, 1);
        let rt = PipelineRuntime::builder(&m, &plan, &engine).build();
        assert!(!rt.recorder.is_enabled());
        assert!(rt.throttle.is_none());
        assert!(rt.leaves.is_empty());
        assert!(rt.recovery.is_none());
        assert!(rt.channel_capacity.is_none());
    }

    #[test]
    fn leaves_accumulate_across_calls() {
        let m = pico_model::zoo::mnist_toy();
        let c = Cluster::pi_cluster(4, 1.0);
        let plan = PicoPlanner
            .plan(&PlanRequest::new(&m, &c, &CostParams::wifi_50mbps()))
            .unwrap();
        let engine = Engine::with_seed(&m, 1);
        let rt = PipelineRuntime::builder(&m, &plan, &engine)
            .leaves(&[(2, 0)])
            .leaves(&[(3, 5)])
            .build();
        assert_eq!(rt.leaves, vec![(2, 0), (3, 5)]);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_rejected() {
        let m = pico_model::zoo::mnist_toy();
        let c = Cluster::pi_cluster(4, 1.0);
        let plan = PicoPlanner
            .plan(&PlanRequest::new(&m, &c, &CostParams::wifi_50mbps()))
            .unwrap();
        let engine = Engine::with_seed(&m, 1);
        let _ = PipelineRuntime::builder(&m, &plan, &engine).channel_capacity(0);
    }
}
