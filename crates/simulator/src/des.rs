use pico_model::rng::SplitMix64;
use pico_model::{Model, Rows};
use pico_partition::{redundancy, Assignment, Cluster, CostParams, ExecutionMode, Plan, Stage};
use pico_telemetry::{names, Ctx, Recorder};

use crate::{Arrivals, SimReport};

/// One service station of the queueing network: a pipeline stage (or a
/// whole sequential plan collapsed into one station).
#[derive(Debug, Clone)]
pub(crate) struct Station {
    /// Deterministic service time per task (Eq. 9 stage cost).
    pub service: f64,
    /// Per-task device compute times `(device_id, seconds)`.
    pub busy_per_task: Vec<(usize, f64)>,
}

/// A public snapshot of one service station: what the DES will charge
/// per task, exposed so static analysis (the `pico-audit` deep passes)
/// can reason about the same queueing network the simulator executes.
#[derive(Debug, Clone, PartialEq)]
pub struct StationProfile {
    /// Originating stage for pipelined plans; `None` for the single
    /// collapsed station of a sequential plan.
    pub stage: Option<usize>,
    /// Deterministic service time per task (Eq. 9 stage cost).
    pub service: f64,
    /// Per-task device compute times `(device_id, seconds)`.
    pub busy_per_task: Vec<(usize, f64)>,
}

/// Deterministic queueing simulation of plans over arrival streams.
///
/// Service times come from the paper's cost model; stages serve tasks
/// FIFO one at a time. Because service is deterministic and routing is a
/// fixed chain, per-stage "next free" clocks reproduce the exact
/// discrete-event trajectory without an event heap.
#[derive(Debug, Clone)]
pub struct Simulation<'a> {
    model: &'a Model,
    cluster: &'a Cluster,
    params: CostParams,
    /// Optional straggler model: per-(task, stage) service times are
    /// multiplied by `1 + Exp(1) * jitter` (mean factor `1 + jitter`).
    jitter: Option<(f64, u64)>,
    /// Scripted failures `(device, from_task)`: the device is gone for
    /// every task whose index is `>= from_task`.
    failures: Vec<(usize, usize)>,
    /// Telemetry sink; event timestamps are **virtual** (simulation)
    /// time, not wall clock.
    recorder: Recorder,
}

impl<'a> Simulation<'a> {
    /// Creates a simulation environment.
    pub fn new(model: &'a Model, cluster: &'a Cluster, params: &CostParams) -> Self {
        Simulation {
            model,
            cluster,
            params: *params,
            jitter: None,
            failures: Vec::new(),
            recorder: Recorder::noop(),
        }
    }

    /// Scripts device failures into the simulation: each `(device,
    /// from_task)` entry removes the device for every task whose index
    /// is `>= from_task`. Surviving devices of an affected stage absorb
    /// its rows (redistributed evenly, the cost model pricing the
    /// degraded stage); a stage with no survivor drops every remaining
    /// task it is offered. Each failure emits a `device_failed` instant
    /// stamped in virtual time, so simulated failover traces line up
    /// with the runtime's.
    ///
    /// The slice is a churn epoch's
    /// [`leaves`](pico_partition::ChurnEpoch::leaves), the same one
    /// the threaded runtime takes through `RuntimeBuilder::leaves`;
    /// construct the `Simulation` over that epoch's cluster.
    pub fn with_failures(mut self, failures: &[(usize, usize)]) -> Self {
        self.failures.extend_from_slice(failures);
        self
    }

    /// Enables straggler jitter: each (task, stage) service time is
    /// stretched by an independent `1 + Exp(1) * jitter` factor —
    /// deterministic cost models never capture the OS hiccups and WiFi
    /// retransmits real Pis suffer.
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is negative or not finite.
    pub fn with_jitter(mut self, jitter: f64, seed: u64) -> Self {
        assert!(jitter.is_finite() && jitter >= 0.0, "jitter must be >= 0");
        self.jitter = Some((jitter, seed));
        self
    }

    /// Attaches a telemetry recorder. Every station visit emits a
    /// `sim_service` span and every completed task a
    /// `queue_delay_observed` sample — all stamped in **virtual**
    /// simulation seconds, so traces line up with the queueing analysis
    /// rather than the host's wall clock.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The model under simulation.
    pub fn model(&self) -> &'a Model {
        self.model
    }

    /// The cluster under simulation.
    pub fn cluster(&self) -> &'a Cluster {
        self.cluster
    }

    /// The environment parameters.
    pub fn params(&self) -> CostParams {
        self.params
    }

    /// The attached telemetry recorder (no-op unless set via
    /// [`with_recorder`](Simulation::with_recorder)).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Collapses a plan into service stations.
    ///
    /// * Pipelined plans: one station per stage (disjoint devices run
    ///   concurrently).
    /// * Sequential plans: a single station whose service time is the
    ///   whole traversal — the cluster serves one task at a time.
    pub(crate) fn stations(&self, plan: &Plan) -> Vec<Station> {
        let cm = self.params.cost_model(self.model);
        let per_stage: Vec<Station> = plan
            .stages
            .iter()
            .map(|stage| {
                let cost = cm.stage_cost(stage, self.cluster);
                let busy = stage
                    .assignments
                    .iter()
                    .filter(|a| !a.is_empty())
                    .map(|a| {
                        let d = self
                            .cluster
                            .device(a.device)
                            .expect("plan validated against this cluster");
                        (a.device, cm.comp_time_of(d, stage.segment, a))
                    })
                    .collect();
                Station {
                    service: cost.total(),
                    busy_per_task: busy,
                }
            })
            .collect();
        match plan.mode {
            ExecutionMode::Pipelined => per_stage,
            ExecutionMode::Sequential => {
                let service = per_stage.iter().map(|s| s.service).sum();
                let mut busy: std::collections::BTreeMap<usize, f64> =
                    std::collections::BTreeMap::new();
                for s in &per_stage {
                    for (d, t) in &s.busy_per_task {
                        *busy.entry(*d).or_insert(0.0) += t;
                    }
                }
                vec![Station {
                    service,
                    busy_per_task: busy.into_iter().collect(),
                }]
            }
        }
    }

    /// The queueing-network view of a plan, as the DES will execute it:
    /// one [`StationProfile`] per service station, in visit order. This
    /// is the bridge static analysis uses — `pico-audit`'s
    /// queue-stability pass certifies Theorem 2 against exactly the
    /// service times the simulator would run.
    pub fn station_profiles(&self, plan: &Plan) -> Vec<StationProfile> {
        let pipelined = plan.mode == ExecutionMode::Pipelined;
        self.stations(plan)
            .into_iter()
            .enumerate()
            .map(|(i, s)| StationProfile {
                stage: if pipelined { Some(i) } else { None },
                service: s.service,
                busy_per_task: s.busy_per_task,
            })
            .collect()
    }

    /// Per-device compute seconds one task costs under `plan`, summed
    /// across stations, ascending device id.
    pub fn device_busy_per_task(&self, plan: &Plan) -> Vec<(usize, f64)> {
        let mut by_device: std::collections::BTreeMap<usize, f64> =
            std::collections::BTreeMap::new();
        for s in self.stations(plan) {
            for (d, t) in s.busy_per_task {
                *by_device.entry(d).or_insert(0.0) += t;
            }
        }
        by_device.into_iter().collect()
    }

    /// Statically predicted per-device utilization at arrival rate
    /// `lambda` (tasks/s): `ρ_d = λ · b_d`, clamped to 1, where `b_d`
    /// is [`device_busy_per_task`](Simulation::device_busy_per_task).
    /// At a stable rate this is what [`run`](Simulation::run) converges
    /// to over a long horizon — asserted within 5% by the deep-audit
    /// cross-check tests.
    pub fn predicted_device_utilization(&self, plan: &Plan, lambda: f64) -> Vec<(usize, f64)> {
        self.device_busy_per_task(plan)
            .into_iter()
            .map(|(d, b)| (d, (lambda * b).min(1.0)))
            .collect()
    }

    /// Per-device redundancy ratios of a plan, by device id.
    pub(crate) fn redundancy_by_device(
        &self,
        plan: &Plan,
    ) -> std::collections::BTreeMap<usize, f64> {
        redundancy::plan_work(self.model, plan)
            .into_iter()
            .map(|w| (w.device, w.redundancy_ratio()))
            .collect()
    }

    /// Rebuilds the plan's stations with `failed` devices removed: a
    /// stage's surviving devices split its whole row span evenly (the
    /// simulated analogue of the runtime retrying a dead worker's shard
    /// on survivors; grid column splits collapse to row strips). `None`
    /// marks a station whose stage has no survivor left.
    fn degraded_stations(&self, plan: &Plan, failed: &[usize]) -> Vec<Option<Station>> {
        let stages: Vec<Option<Stage>> = plan
            .stages
            .iter()
            .map(|stage| {
                let survivors: Vec<&Assignment> = stage
                    .assignments
                    .iter()
                    .filter(|a| !a.is_empty() && !failed.contains(&a.device))
                    .collect();
                if survivors.is_empty() {
                    return None;
                }
                let live = stage.assignments.iter().filter(|a| !a.is_empty());
                let lo = live.clone().map(|a| a.rows.start).min().unwrap_or(0);
                let hi = live.map(|a| a.rows.end).max().unwrap_or(0);
                let total = hi - lo;
                let n = survivors.len();
                let mut cursor = lo;
                let redistributed = survivors
                    .iter()
                    .enumerate()
                    .map(|(i, a)| {
                        let take = total / n + usize::from(i < total % n);
                        let rows = Rows::new(cursor, cursor + take);
                        cursor += take;
                        Assignment::new(a.device, rows)
                    })
                    .collect();
                Some(Stage::new(stage.segment, redistributed))
            })
            .collect();
        if stages.iter().all(|s| s.is_some()) {
            let degraded = Plan::new(
                plan.scheme,
                plan.mode,
                stages.into_iter().flatten().collect(),
            );
            return self.stations(&degraded).into_iter().map(Some).collect();
        }
        match plan.mode {
            // One collapsed station: losing any stage loses the chain.
            ExecutionMode::Sequential => vec![None],
            ExecutionMode::Pipelined => {
                let cm = self.params.cost_model(self.model);
                stages
                    .into_iter()
                    .map(|opt| {
                        opt.map(|stage| {
                            let cost = cm.stage_cost(&stage, self.cluster);
                            let busy = stage
                                .assignments
                                .iter()
                                .filter(|a| !a.is_empty())
                                .map(|a| {
                                    let d = self
                                        .cluster
                                        .device(a.device)
                                        .expect("plan validated against this cluster");
                                    (a.device, cm.comp_time_of(d, stage.segment, a))
                                })
                                .collect();
                            Station {
                                service: cost.total(),
                                busy_per_task: busy,
                            }
                        })
                    })
                    .collect()
            }
        }
    }

    /// Runs `plan` over `arrivals` and reports latency, throughput,
    /// utilization, and redundancy.
    ///
    /// Closed-loop streams admit each task the moment the first station
    /// frees up (saturation); open-loop streams queue tasks at their
    /// arrival times. With [`with_failures`](Simulation::with_failures),
    /// stations degrade as their devices die; a task offered to a
    /// stage with no survivor is dropped (it never completes, and
    /// [`SimReport::completed`] falls short of the offered count).
    pub fn run(&self, plan: &Plan, arrivals: &Arrivals) -> SimReport {
        let mut stations: Vec<Option<Station>> =
            self.stations(plan).into_iter().map(Some).collect();
        let mut failed_now: Vec<usize> = Vec::new();
        let mut free = vec![0.0f64; stations.len()];
        let mut busy: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
        for d in self.cluster.devices() {
            busy.insert(d.id, 0.0);
        }
        let mut latencies = Vec::new();
        let mut last_completion: f64 = 0.0;
        let mut rng = self
            .jitter
            .map(|(j, seed)| (j, SplitMix64::seed_from_u64(seed)));
        let rec = &self.recorder;
        let enabled = rec.is_enabled();

        // Applies every scripted failure whose from_task has been
        // reached, emitting device_failed instants in virtual time and
        // rebuilding the degraded stations.
        let update_regime = |task: usize,
                             now: f64,
                             stations: &mut Vec<Option<Station>>,
                             failed_now: &mut Vec<usize>| {
            let newly: Vec<usize> = self
                .failures
                .iter()
                .filter(|(d, from)| task >= *from && !failed_now.contains(d))
                .map(|(d, _)| *d)
                .collect();
            if newly.is_empty() {
                return;
            }
            for d in newly {
                if enabled {
                    rec.instant_at(
                        names::DEVICE_FAILED,
                        Ctx::default().on_device(d).for_task(task),
                        now,
                        0.0,
                    );
                }
                failed_now.push(d);
            }
            failed_now.sort_unstable();
            *stations = self.degraded_stations(plan, failed_now);
        };

        let mut admit = |task: usize,
                         arrival: f64,
                         stations: &[Option<Station>],
                         free: &mut Vec<f64>,
                         busy: &mut std::collections::BTreeMap<usize, f64>|
         -> Option<f64> {
            let mut t = arrival;
            let mut waited = 0.0;
            for (s, slot) in stations.iter().enumerate() {
                let station = slot.as_ref()?;
                let stretch = match &mut rng {
                    Some((j, r)) => {
                        let u: f64 = r.range_f64(f64::EPSILON..1.0);
                        1.0 + (-u.ln()) * *j
                    }
                    None => 1.0,
                };
                let start = t.max(free[s]);
                waited += start - t;
                let done = start + station.service * stretch;
                if enabled {
                    rec.span_at(
                        names::SIM_SERVICE,
                        Ctx::stage(s).for_task(task),
                        start,
                        done,
                        station.service * stretch,
                        0,
                    );
                }
                free[s] = done;
                t = done;
                for (d, dt) in &station.busy_per_task {
                    *busy.get_mut(d).expect("device pre-registered") += dt * stretch;
                }
            }
            if enabled {
                rec.observe_at(
                    names::QUEUE_DELAY_OBSERVED,
                    Ctx::default().for_task(task),
                    t,
                    waited,
                );
            }
            Some(t)
        };

        match arrivals.times() {
            Some(times) => {
                for (task, a) in times.into_iter().enumerate() {
                    update_regime(task, a, &mut stations, &mut failed_now);
                    if let Some(done) = admit(task, a, &stations, &mut free, &mut busy) {
                        latencies.push(done - a);
                        last_completion = last_completion.max(done);
                    }
                }
            }
            None => {
                let count = match arrivals {
                    Arrivals::ClosedLoop { count } => *count,
                    _ => unreachable!("only closed-loop streams lack times"),
                };
                for task in 0..count {
                    let a = free[0];
                    update_regime(task, a, &mut stations, &mut failed_now);
                    if let Some(done) = admit(task, a, &stations, &mut free, &mut busy) {
                        latencies.push(done - a);
                        last_completion = last_completion.max(done);
                    }
                }
            }
        }

        let red = self.redundancy_by_device(plan);
        let raw: Vec<(usize, f64, f64)> = busy
            .into_iter()
            .map(|(d, b)| (d, b, red.get(&d).copied().unwrap_or(0.0)))
            .collect();
        SimReport::from_raw(&latencies, last_completion, &raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pico_model::zoo;
    use pico_partition::{CostParams, EarlyFused, OptimalFused, PicoPlanner, PlanRequest, Planner};

    fn setup() -> (Model, Cluster, CostParams) {
        (
            zoo::vgg16().features(),
            Cluster::pi_cluster(8, 1.0),
            CostParams::wifi_50mbps(),
        )
    }

    #[test]
    fn closed_loop_throughput_matches_period() {
        let (m, c, p) = setup();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let metrics = p.cost_model(&m).evaluate(&plan, &c);
        let sim = Simulation::new(&m, &c, &p);
        let report = sim.run(&plan, &Arrivals::closed_loop(200));
        // Steady-state throughput converges to 1/period (pipeline fill
        // is amortized over 200 tasks).
        let expected = 1.0 / metrics.period;
        assert!(
            (report.throughput - expected).abs() / expected < 0.05,
            "sim {} analytic {expected}",
            report.throughput
        );
    }

    #[test]
    fn sequential_plan_is_single_server() {
        let (m, c, p) = setup();
        let plan = OptimalFused.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let metrics = p.cost_model(&m).evaluate(&plan, &c);
        let sim = Simulation::new(&m, &c, &p);
        let report = sim.run(&plan, &Arrivals::closed_loop(50));
        assert!((report.throughput - 1.0 / metrics.latency).abs() * metrics.latency < 0.05);
        // With no queueing gaps every task's latency is the service time.
        assert!((report.avg_latency - metrics.latency).abs() < 1e-9);
    }

    #[test]
    fn light_load_latency_is_service_time() {
        let (m, c, p) = setup();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let metrics = p.cost_model(&m).evaluate(&plan, &c);
        let sim = Simulation::new(&m, &c, &p);
        // Arrivals far apart: no waiting.
        let gap = metrics.latency * 10.0;
        let trace = Arrivals::trace((0..20).map(|i| i as f64 * gap).collect());
        let report = sim.run(&plan, &trace);
        assert!((report.avg_latency - metrics.latency).abs() < 1e-9);
    }

    #[test]
    fn overload_grows_queue() {
        let (m, c, p) = setup();
        let plan = OptimalFused.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let metrics = p.cost_model(&m).evaluate(&plan, &c);
        let sim = Simulation::new(&m, &c, &p);
        // 2x the sustainable rate: waiting time grows linearly.
        let rate = 2.0 / metrics.period;
        let trace = Arrivals::trace((0..100).map(|i| i as f64 / rate).collect());
        let report = sim.run(&plan, &trace);
        assert!(report.max_latency > 20.0 * metrics.latency);
        assert!(report.avg_latency > report.p50_latency * 0.5);
    }

    #[test]
    fn poisson_latency_tracks_mdone() {
        let (m, c, p) = setup();
        let plan = OptimalFused.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let metrics = p.cost_model(&m).evaluate(&plan, &c);
        let sim = Simulation::new(&m, &c, &p);
        let lambda = 0.5 / metrics.period;
        let report = sim.run(
            &plan,
            &Arrivals::poisson(lambda, 4000.0 * metrics.period, 42),
        );
        // Theorem 2's prediction counts one extra service period; both
        // values must be within ~20% for a one-stage scheme at ρ=0.5.
        let analytic = crate::mdone::avg_latency(metrics.period, metrics.latency, lambda);
        let lower = metrics.latency; // service alone
        assert!(report.avg_latency > lower);
        assert!(
            report.avg_latency < analytic * 1.2,
            "sim {} analytic {analytic}",
            report.avg_latency
        );
    }

    #[test]
    fn pico_keeps_latency_stable_under_load_where_ofl_blows_up() {
        // The Fig. 10/11 story.
        let (m, c, p) = setup();
        let sim = Simulation::new(&m, &c, &p);
        let pico = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let ofl = OptimalFused.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let ofl_metrics = p.cost_model(&m).evaluate(&ofl, &c);
        // Load = 120% of OFL's capacity, sustainable for PICO.
        let lambda = 1.2 / ofl_metrics.period;
        let horizon = 600.0 * ofl_metrics.period;
        let arrivals = Arrivals::poisson(lambda, horizon, 7);
        let r_pico = sim.run(&pico, &arrivals);
        let r_ofl = sim.run(&ofl, &arrivals);
        assert!(
            r_pico.avg_latency < r_ofl.avg_latency / 2.0,
            "pico {} ofl {}",
            r_pico.avg_latency,
            r_ofl.avg_latency
        );
    }

    #[test]
    fn utilization_bounded_and_busy_positive() {
        let (m, c, p) = setup();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let sim = Simulation::new(&m, &c, &p);
        let report = sim.run(&plan, &Arrivals::closed_loop(100));
        assert_eq!(report.device_stats.len(), 8);
        for d in &report.device_stats {
            assert!((0.0..=1.0).contains(&d.utilization));
            assert!((0.0..=1.0).contains(&d.redundancy));
        }
        assert!(report.avg_utilization() > 0.3);
    }

    #[test]
    fn jitter_raises_latency_and_preserves_completions() {
        let (m, c, p) = setup();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let metrics = p.cost_model(&m).evaluate(&plan, &c);
        let arrivals = Arrivals::poisson(0.5 / metrics.period, 300.0 * metrics.period, 4);
        let clean = Simulation::new(&m, &c, &p).run(&plan, &arrivals);
        let noisy = Simulation::new(&m, &c, &p)
            .with_jitter(0.3, 9)
            .run(&plan, &arrivals);
        assert_eq!(clean.completed, noisy.completed);
        assert!(
            noisy.avg_latency > clean.avg_latency,
            "noisy {} clean {}",
            noisy.avg_latency,
            clean.avg_latency
        );
        // Mean stretch 1.3: average latency should grow by a bounded
        // factor, not explode (the load stays below capacity).
        assert!(noisy.avg_latency < clean.avg_latency * 4.0);
    }

    #[test]
    fn zero_jitter_equals_deterministic() {
        let (m, c, p) = setup();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let arrivals = Arrivals::closed_loop(40);
        let a = Simulation::new(&m, &c, &p).run(&plan, &arrivals);
        let b = Simulation::new(&m, &c, &p)
            .with_jitter(0.0, 1)
            .run(&plan, &arrivals);
        assert_eq!(a, b);
    }

    #[test]
    fn recorder_captures_virtual_time_services() {
        let (m, c, p) = setup();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let rec = Recorder::in_memory();
        let sim = Simulation::new(&m, &c, &p).with_recorder(rec.clone());
        let n = 10;
        let report = sim.run(&plan, &Arrivals::closed_loop(n));
        let events = rec.snapshot();
        // One begin + one end per (task, station) visit.
        let services = events
            .iter()
            .filter(|e| e.name == names::SIM_SERVICE)
            .count();
        assert_eq!(services, 2 * n * plan.stage_count());
        // One waiting-time sample per completed task, stamped in
        // virtual time (non-negative, bounded by the makespan).
        let waits: Vec<_> = events
            .iter()
            .filter(|e| e.name == names::QUEUE_DELAY_OBSERVED)
            .collect();
        assert_eq!(waits.len(), n);
        let makespan = report.completed as f64 / report.throughput;
        assert!(waits
            .iter()
            .all(|e| e.value >= 0.0 && e.ts <= makespan * 1.01));
    }

    /// A device from a stage that has at least one other live device,
    /// so failing it degrades the stage instead of losing it.
    fn victim_in_shared_stage(plan: &Plan) -> usize {
        plan.stages
            .iter()
            .find_map(|st| {
                let live: Vec<_> = st.assignments.iter().filter(|a| !a.is_empty()).collect();
                (live.len() >= 2).then(|| live[0].device)
            })
            .expect("pico plan has a multi-device stage")
    }

    #[test]
    fn departed_device_lowers_throughput_but_keeps_completions() {
        let (m, c, p) = setup();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let victim = victim_in_shared_stage(&plan);
        let clean = Simulation::new(&m, &c, &p).run(&plan, &Arrivals::closed_loop(100));
        let degraded = Simulation::new(&m, &c, &p)
            .with_failures(&[(victim, 0)])
            .run(&plan, &Arrivals::closed_loop(100));
        // Survivors absorb the dead device's rows: nothing is dropped,
        // but the degraded stage is slower so throughput falls.
        assert_eq!(degraded.completed, clean.completed);
        assert!(
            degraded.throughput < clean.throughput,
            "degraded {} clean {}",
            degraded.throughput,
            clean.throughput
        );
    }

    #[test]
    fn stage_with_no_survivor_drops_remaining_tasks() {
        let (m, c, p) = setup();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        // Kill every stage-0 device from task 5 on: tasks 0..5 complete,
        // everything after is offered to a stage with no survivor.
        let outage: Vec<(usize, usize)> = plan.stages[0]
            .assignments
            .iter()
            .filter(|a| !a.is_empty())
            .map(|a| (a.device, 5))
            .collect();
        let report = Simulation::new(&m, &c, &p)
            .with_failures(&outage)
            .run(&plan, &Arrivals::closed_loop(20));
        assert_eq!(report.completed, 5);
    }

    #[test]
    fn failure_emits_virtual_time_instant() {
        let (m, c, p) = setup();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let metrics = p.cost_model(&m).evaluate(&plan, &c);
        let victim = victim_in_shared_stage(&plan);
        let rec = Recorder::in_memory();
        let gap = metrics.latency * 10.0;
        let trace = Arrivals::trace((0..6).map(|i| i as f64 * gap).collect());
        Simulation::new(&m, &c, &p)
            .with_failures(&[(victim, 3)])
            .with_recorder(rec.clone())
            .run(&plan, &trace);
        let events = rec.snapshot();
        let fails: Vec<_> = events
            .iter()
            .filter(|e| e.name == names::DEVICE_FAILED)
            .collect();
        assert_eq!(fails.len(), 1, "one failure, one instant");
        assert_eq!(fails[0].ctx.device.get(), Some(victim as u32));
        assert_eq!(fails[0].ctx.task.get(), Some(3));
        // Stamped at the affected task's arrival, in virtual seconds.
        assert!((fails[0].ts - 3.0 * gap).abs() < 1e-9, "ts {}", fails[0].ts);
    }

    #[test]
    fn degraded_simulation_is_deterministic() {
        let (m, c, p) = setup();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let victim = victim_in_shared_stage(&plan);
        let run = || {
            Simulation::new(&m, &c, &p)
                .with_failures(&[(victim, 2)])
                .run(&plan, &Arrivals::closed_loop(40))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn efl_has_higher_redundancy_than_pico() {
        let (m, c, p) = setup();
        let sim = Simulation::new(&m, &c, &p);
        let efl = EarlyFused::new()
            .plan(&PlanRequest::new(&m, &c, &p))
            .unwrap();
        let pico = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let r_efl = sim.run(&efl, &Arrivals::closed_loop(50));
        let r_pico = sim.run(&pico, &Arrivals::closed_loop(50));
        assert!(
            r_efl.avg_redundancy() > r_pico.avg_redundancy(),
            "efl {} pico {}",
            r_efl.avg_redundancy(),
            r_pico.avg_redundancy()
        );
    }
}
