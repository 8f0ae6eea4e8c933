//! High-level facade for PICO cooperative inference.
//!
//! [`Pico`] bundles a model, a cluster, and the environment parameters,
//! and exposes one-call access to everything the workspace can do:
//! planning with any strategy, analytic prediction, queueing simulation,
//! adaptive scheduling, and real threaded execution.
//!
//! # Example
//!
//! ```
//! use pico_core::Pico;
//! use pico_model::zoo;
//! use pico_partition::Cluster;
//! use pico_sim::Arrivals;
//!
//! let pico = Pico::new(zoo::vgg16().features(), Cluster::pi_cluster(8, 1.0));
//! let plan = pico.plan()?;
//! let metrics = pico.predict(&plan);
//!
//! // Simulated saturation run: throughput approaches 1 / period.
//! let report = pico.simulate(&plan, &Arrivals::closed_loop(100));
//! assert!(report.throughput <= 1.0 / metrics.period * 1.01);
//! # Ok::<(), pico_partition::PlanError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use pico_fleet::{FleetFrontier, PlanCache};
use pico_model::Model;
use pico_partition::{
    BfsOptimal, Cluster, CostParams, EarlyFused, LayerWise, OptimalFused, PicoPlanner, Plan,
    PlanError, PlanMetrics, PlanRequest, Planner, Scheme,
};
use pico_runtime::{PipelineRuntime, RunReport, RuntimeBuilder, RuntimeError};
use pico_serve::{ServeError, ServeHandle, ServeRequest};
use pico_sim::{AdaptiveScheduler, Arrivals, SchedulerDecision, SimReport, Simulation};
use pico_telemetry::Recorder;
use pico_tensor::{Engine, EngineBackend, Tensor};

mod churn;

pub use churn::{ChurnReport, ChurnRunError, EpochRecord};

/// One-stop entry point: a model deployed on a cluster under given
/// network conditions.
#[derive(Debug, Clone)]
pub struct Pico {
    model: Model,
    cluster: Cluster,
    params: CostParams,
    recorder: Recorder,
    backend: Option<EngineBackend>,
    cache: Option<Arc<PlanCache>>,
}

impl Pico {
    /// Creates a deployment with the paper's default environment
    /// (50 Mbps WiFi, no latency limit).
    pub fn new(model: Model, cluster: Cluster) -> Self {
        Pico {
            model,
            cluster,
            params: CostParams::wifi_50mbps(),
            recorder: Recorder::noop(),
            backend: None,
            cache: None,
        }
    }

    /// Uses a dedicated plan cache for churn re-admission instead of
    /// the process-global one — tests and multi-deployment hosts get
    /// exact, isolated hit/miss/invalidation accounting.
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The dedicated plan cache, when one was set.
    pub(crate) fn cache(&self) -> Option<&PlanCache> {
        self.cache.as_deref()
    }

    /// Overrides the environment parameters.
    pub fn with_params(mut self, params: CostParams) -> Self {
        self.params = params;
        self
    }

    /// Overrides the compute backend every engine this deployment
    /// builds will run, the live server's included (the default is the
    /// engine's own default, [`EngineBackend::Simd`]: the host's vector
    /// kernel, or the scalar one where it has none).
    pub fn with_backend(mut self, backend: EngineBackend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Builds a synthetic-weight engine for this deployment, applying
    /// the configured backend.
    pub fn engine(&self, seed: u64) -> Engine<'_> {
        let engine = Engine::with_seed(&self.model, seed);
        match self.backend {
            Some(backend) => engine.with_backend(backend),
            None => engine,
        }
    }

    /// Attaches a telemetry recorder: every plan, simulation, and
    /// execution made through this deployment emits structured events
    /// into it. The default is [`Recorder::noop`], which costs nothing.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The attached telemetry recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The deployed model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The environment parameters.
    pub fn params(&self) -> CostParams {
        self.params
    }

    /// The configured backend override, if any.
    pub fn backend(&self) -> Option<EngineBackend> {
        self.backend
    }

    /// Plans with the paper's PICO pipeline strategy.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::LatencyInfeasible`] when a configured
    /// `T_lim` cannot be met.
    pub fn plan(&self) -> Result<Plan, PlanError> {
        self.plan_with(&PicoPlanner)
    }

    /// Plans with an arbitrary strategy.
    ///
    /// # Errors
    ///
    /// Propagates the planner's error.
    pub fn plan_with<P: Planner>(&self, planner: &P) -> Result<Plan, PlanError> {
        let req = PlanRequest::new(&self.model, &self.cluster, &self.params)
            .with_recorder(self.recorder.clone());
        planner.plan(&req)
    }

    /// Plans with every strategy the paper compares (LW, EFL, OFL,
    /// PICO), skipping any that fail. BFS is excluded — it is only
    /// tractable on toy models; use [`Pico::plan_with`] and
    /// [`BfsOptimal`] explicitly for those.
    pub fn plan_all(&self) -> Vec<Plan> {
        let planners: Vec<Box<dyn Planner>> = vec![
            Box::new(LayerWise::new()),
            Box::new(EarlyFused::new()),
            Box::new(OptimalFused::new()),
            Box::new(PicoPlanner::new()),
        ];
        planners
            .iter()
            .filter_map(|p| self.plan_with(p).ok())
            .collect()
    }

    /// Analytic period/latency prediction (Eqs. 10/11) for a plan.
    pub fn predict(&self, plan: &Plan) -> PlanMetrics {
        self.params
            .cost_model(&self.model)
            .evaluate(plan, &self.cluster)
    }

    /// Simulates a plan over an arrival stream.
    pub fn simulate(&self, plan: &Plan, arrivals: &Arrivals) -> SimReport {
        Simulation::new(&self.model, &self.cluster, &self.params)
            .with_recorder(self.recorder.clone())
            .run(plan, arrivals)
    }

    /// Runs APICO: the adaptive scheduler picking between the PICO
    /// pipeline and the OFL one-stage scheme per the estimated workload
    /// (EWMA window `window` seconds, smoothing `beta`).
    ///
    /// # Errors
    ///
    /// Propagates planning errors for either candidate.
    pub fn run_adaptive(
        &self,
        arrivals: &Arrivals,
        window: f64,
        beta: f64,
    ) -> Result<(SimReport, Vec<SchedulerDecision>), PlanError> {
        let pico = self.plan()?;
        let ofl = self.plan_with(&OptimalFused::new())?;
        let sim = Simulation::new(&self.model, &self.cluster, &self.params)
            .with_recorder(self.recorder.clone());
        let mut sched = AdaptiveScheduler::new(&sim, vec![pico, ofl], window, beta);
        Ok(sched.run(&sim, arrivals))
    }

    /// Starts a threaded runtime for `plan` on this deployment's model,
    /// with the deployment's recorder already attached. Add a
    /// [`Throttle`](pico_runtime::Throttle), scripted
    /// [`leaves`](RuntimeBuilder::leaves) or a
    /// [`RecoveryPolicy`](pico_runtime::RecoveryPolicy) on the
    /// returned builder; `engine` usually comes from
    /// [`Pico::engine`].
    pub fn runtime<'a>(&'a self, plan: &'a Plan, engine: &'a Engine<'a>) -> RuntimeBuilder<'a> {
        PipelineRuntime::builder(&self.model, plan, engine).recorder(self.recorder.clone())
    }

    /// Executes a plan for real on threads, with synthetic weights from
    /// `seed`. Outputs are whatever the engine computes; compare them
    /// against `self.engine(seed).infer(..)` to check the split/stitch.
    ///
    /// # Errors
    ///
    /// Propagates runtime failures (bad input, failed device).
    pub fn execute(
        &self,
        plan: &Plan,
        inputs: Vec<Tensor>,
        seed: u64,
    ) -> Result<RunReport, RuntimeError> {
        let engine = self.engine(seed);
        self.runtime(plan, &engine).build().run(inputs)
    }

    /// Human-readable description of a plan.
    pub fn describe(&self, plan: &Plan) -> String {
        let metrics = self.predict(plan);
        let mut out = format!(
            "{} plan: {} stage(s), period {:.3}s ({:.2} tasks/s), latency {:.3}s\n",
            plan.scheme,
            plan.stage_count(),
            metrics.period,
            metrics.throughput(),
            metrics.latency,
        );
        for (i, stage) in plan.stages.iter().enumerate() {
            let cost = &metrics.stage_costs[i];
            let names: Vec<String> = stage
                .assignments
                .iter()
                .filter(|a| !a.rows.is_empty())
                .map(|a| format!("d{}:{}", a.device, a.rows))
                .collect();
            out.push_str(&format!(
                "  stage {i}: units {} | comp {:.3}s + comm {:.3}s | {}\n",
                stage.segment,
                cost.comp,
                cost.comm,
                names.join(" ")
            ));
        }
        out
    }

    /// Traces the period/latency Pareto frontier (Eq. 1's trade-off)
    /// with `steps` latency-limit samples.
    pub fn frontier(&self, steps: usize) -> Vec<pico_partition::pareto::FrontierPoint> {
        pico_partition::pareto::frontier(&self.model, &self.cluster, &self.params, steps)
    }

    /// Starts a live multi-tenant serving front-end on this deployment.
    /// A request armed with [`ServeRequest::with_adaptive`] is served
    /// adaptively on the frontier it carries (see
    /// [`ServeHandle::spawn_adaptive`]); any other runs the PICO
    /// pipeline plan. Tasks are submitted through the returned
    /// [`ServeHandle`]; plans can be warm-swapped (audit-gated,
    /// drain-first) while it runs.
    ///
    /// The deployment's recorder (see [`Pico::with_recorder`]) receives
    /// the serving telemetry; a recorder set on `request` is ignored.
    /// The server's engine runs the deployment's backend (see
    /// [`Pico::with_backend`]) when one is set, and the request's
    /// otherwise.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a malformed request config or
    /// re-planning policy, [`ServeError::Planning`] when the initial
    /// plan cannot be built.
    pub fn serve(&self, request: &ServeRequest) -> Result<ServeHandle, ServeError> {
        let mut request = request.clone().with_recorder(self.recorder.clone());
        if let Some(backend) = self.backend {
            request = request.with_backend(backend);
        }
        let (model, cluster) = (self.model.clone(), self.cluster.clone());
        if request.adaptive().is_some() {
            return ServeHandle::spawn_adaptive(model, cluster, self.params, &request);
        }
        let plan = self.plan().map_err(|e| ServeError::Planning {
            detail: e.to_string(),
        })?;
        ServeHandle::spawn(model, cluster, self.params, plan, &request)
    }

    /// The deployment's Pareto plan frontier, fetched from (or built
    /// into) the process-global fleet plan cache: every audit-validated
    /// plan with its price, sustainable-λ band, and the precomputed
    /// switch-audit matrix.
    ///
    /// # Errors
    ///
    /// [`ServeError::Planning`] when no candidate plan survives the
    /// deep audit for this deployment.
    pub fn fleet_frontier(&self) -> Result<Arc<FleetFrontier>, ServeError> {
        pico_serve::fleet_frontier(&self.model, &self.cluster, &self.params, &self.recorder)
    }

    /// Convenience: the exhaustive-optimal planner for toy models.
    pub fn bfs_planner() -> BfsOptimal {
        BfsOptimal::new()
    }

    /// The scheme labels the paper compares, in its order.
    pub fn paper_schemes() -> [Scheme; 4] {
        [
            Scheme::LayerWise,
            Scheme::EarlyFused,
            Scheme::OptimalFused,
            Scheme::Pico,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pico_model::zoo;
    use pico_runtime::RecoveryPolicy;
    use pico_sim::ReplanPolicy;

    fn deployment() -> Pico {
        Pico::new(zoo::vgg16().features(), Cluster::pi_cluster(8, 1.0))
    }

    #[test]
    fn plan_and_predict() {
        let pico = deployment();
        let plan = pico.plan().unwrap();
        let metrics = pico.predict(&plan);
        assert!(metrics.period > 0.0 && metrics.period <= metrics.latency);
    }

    #[test]
    fn plan_all_yields_four_schemes() {
        let plans = deployment().plan_all();
        assert_eq!(plans.len(), 4);
        let schemes: Vec<Scheme> = plans.iter().map(|p| p.scheme).collect();
        assert_eq!(schemes, Pico::paper_schemes());
    }

    #[test]
    fn simulate_headline_comparison() {
        // PICO throughput beats each one-stage scheme on 8 devices.
        let pico = deployment();
        let plans = pico.plan_all();
        let arrivals = Arrivals::closed_loop(64);
        let mut by_scheme = std::collections::HashMap::new();
        for plan in &plans {
            by_scheme.insert(plan.scheme, pico.simulate(plan, &arrivals).throughput);
        }
        let pico_tp = by_scheme[&Scheme::Pico];
        for s in [Scheme::LayerWise, Scheme::EarlyFused, Scheme::OptimalFused] {
            assert!(
                pico_tp > by_scheme[&s],
                "{s}: {} vs {}",
                by_scheme[&s],
                pico_tp
            );
        }
    }

    #[test]
    fn adaptive_runs() {
        let pico = deployment();
        let ofl = pico.plan_with(&OptimalFused::new()).unwrap();
        let period = pico.predict(&ofl).period;
        let arrivals = Arrivals::poisson(0.5 / period, 200.0 * period, 11);
        let (report, decisions) = pico.run_adaptive(&arrivals, 5.0 * period, 0.4).unwrap();
        assert!(report.completed > 0);
        assert!(!decisions.is_empty());
    }

    #[test]
    fn execute_matches_single_device_inference() {
        let pico = Pico::new(zoo::mnist_toy(), Cluster::pi_cluster(3, 1.0));
        let plan = pico.plan().unwrap();
        let input = Tensor::random(pico.model().input_shape(), 5);
        let report = pico.execute(&plan, vec![input.clone()], 77).unwrap();
        assert_eq!(report.outputs, vec![pico.engine(77).infer(&input).unwrap()]);
    }

    #[test]
    fn backend_override_flows_through_facade_bit_exactly() {
        let base = Pico::new(zoo::mnist_toy(), Cluster::pi_cluster(3, 1.0));
        let plan = base.plan().unwrap();
        let inputs = vec![Tensor::random(base.model().input_shape(), 41)];
        let reference = base.execute(&plan, inputs.clone(), 23).unwrap();
        // SIMD preserves the scalar addition chains, so the
        // facade-level override must be bit-identical end to end.
        let simd = base.clone().with_backend(EngineBackend::Simd);
        assert_eq!(simd.backend(), Some(EngineBackend::Simd));
        let report = simd.execute(&plan, inputs, 23).unwrap();
        assert_eq!(report.outputs, reference.outputs);
    }

    #[test]
    fn resilient_execution_survives_mid_stream_failure() {
        let pico = Pico::new(zoo::mnist_toy(), Cluster::pi_cluster(4, 1.0));
        let plan = pico.plan().unwrap();
        let inputs: Vec<Tensor> = (0..4)
            .map(|i| Tensor::random(pico.model().input_shape(), 60 + i))
            .collect();
        let reference = pico.execute(&plan, inputs.clone(), 13).unwrap();
        // Kill a stage-0 device after it served the first task.
        let victim = plan.stages[0].assignments[0].device;
        let engine = pico.engine(13);
        let report = pico
            .runtime(&plan, &engine)
            .leaves(&[(victim, 1)])
            .recovery(RecoveryPolicy::new(pico.cluster().clone(), pico.params()))
            .build()
            .run(inputs)
            .unwrap();
        assert_eq!(report.outputs, reference.outputs);
        assert!(report.failures.iter().any(|f| f.device == victim));
    }

    #[test]
    fn serve_runs_the_deployment_backend() {
        // An int8 deployment is served in int8, not in the engine's
        // default f32: the server's outputs are exactly the facade
        // engine's under the same override.
        let pico = Pico::new(zoo::mnist_toy(), Cluster::pi_cluster(3, 1.0))
            .with_backend(EngineBackend::Int8);
        let seed = 19;
        let inputs: Vec<Tensor> = (0..3)
            .map(|i| Tensor::random(pico.model().input_shape(), 60 + i))
            .collect();
        let handle = pico
            .serve(&ServeRequest::new().with_engine_seed(seed))
            .unwrap();
        let tickets: Vec<_> = inputs
            .iter()
            .map(|x| handle.submit(0, x.clone()).unwrap())
            .collect();
        let served: Vec<Tensor> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        handle.shutdown().unwrap();
        let int8 = pico.engine(seed);
        let f32_default = Engine::with_seed(pico.model(), seed);
        for (x, out) in inputs.iter().zip(&served) {
            assert_eq!(out, &int8.infer(x).unwrap());
            assert_ne!(out, &f32_default.infer(x).unwrap());
        }
    }

    #[test]
    fn recorder_observes_plan_and_execution() {
        let rec = Recorder::in_memory();
        let pico =
            Pico::new(zoo::mnist_toy(), Cluster::pi_cluster(3, 1.0)).with_recorder(rec.clone());
        let plan = pico.plan().unwrap();
        let inputs = vec![Tensor::random(pico.model().input_shape(), 8)];
        pico.execute(&plan, inputs, 8).unwrap();
        let events = rec.snapshot();
        use pico_telemetry::names;
        assert!(events.iter().any(|e| e.name == names::PLAN));
        assert!(events.iter().any(|e| e.name == names::STAGE_BUSY));
        assert!(events.iter().any(|e| e.name == names::COMPUTE));
        assert!(events.iter().any(|e| e.name == names::TASKS_COMPLETED));
    }

    #[test]
    fn fleet_frontier_is_cached_and_nonempty() {
        let pico = Pico::new(zoo::mnist_toy(), Cluster::pi_cluster(4, 1.0));
        let a = pico.fleet_frontier().unwrap();
        let b = pico.fleet_frontier().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert!(!a.entries().is_empty());
    }

    /// The request decides how `serve` serves it: an armed one re-plans
    /// on the frontier it carries once load leaves the cheapest plan's
    /// band, an unarmed one stays on its plan under the same load.
    #[test]
    fn serve_follows_the_request_armed_or_not() {
        let pico = Pico::new(zoo::mnist_toy(), Cluster::pi_cluster(4, 1.0));
        // No hysteresis, and a window boundary between any two distinct
        // arrivals: a burst is judged while it lands.
        let policy = ReplanPolicy {
            margin: 0.0,
            consecutive: 1,
            window: 1e-6,
            ..ReplanPolicy::default()
        };
        let armed = ServeRequest::new().with_adaptive(pico.fleet_frontier().unwrap(), policy);
        let input = Tensor::random(pico.model().input_shape(), 21);
        for (request, adaptive) in [(armed, true), (ServeRequest::new(), false)] {
            let handle = pico.serve(&request).unwrap();
            for _ in 0..3 {
                let burst: Vec<_> = (0..12)
                    .map(|_| handle.submit(0, input.clone()).unwrap())
                    .collect();
                for ticket in burst {
                    ticket.wait().unwrap();
                }
            }
            let outcome = handle.shutdown().unwrap();
            assert_eq!(outcome.per_tenant[0].completed, 36);
            assert_eq!(outcome.per_tenant[0].rejected, 0);
            assert_eq!(
                outcome.swaps > 0,
                adaptive,
                "adaptive={adaptive}: {outcome:?}"
            );
        }
    }

    #[test]
    fn describe_mentions_stages_and_devices() {
        let pico = deployment();
        let plan = pico.plan().unwrap();
        let text = pico.describe(&plan);
        assert!(text.contains("PICO plan"));
        assert!(text.contains("stage 0"));
        assert!(text.contains("d"));
    }

    #[test]
    fn frontier_through_facade() {
        let pico = deployment();
        let points = pico.frontier(8);
        assert!(!points.is_empty());
        assert!(points
            .windows(2)
            .all(|w| w[1].latency <= w[0].latency + 1e-9));
    }

    #[test]
    fn t_lim_flows_through_builder() {
        let pico = deployment();
        let base = pico.predict(&pico.plan().unwrap());
        let constrained = pico
            .clone()
            .with_params(CostParams::wifi_50mbps().with_t_lim(base.latency * 2.0));
        let plan = constrained.plan().unwrap();
        assert!(constrained.predict(&plan).latency <= base.latency * 2.0 + 1e-9);
    }
}
