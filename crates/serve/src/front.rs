use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::mpsc::SyncSender;

use pico_audit::Auditor;
use pico_fleet::FleetFrontier;
use pico_model::Model;
use pico_partition::{Cluster, CostParams, Plan};
use pico_runtime::{ExecutionSession, PipelineRuntime, RuntimeError};
use pico_sim::{
    BatchServer, ReplanKernel, ReplanPolicy, ServiceProfile, SwitchRecord, SwitchSource,
    TenantServeStat, TraceServer,
};
use pico_telemetry::{names, Ctx, Recorder};
use pico_tensor::{Engine, Tensor};

use crate::{ServeConfig, ServeError};

/// One event of a serving trace, in virtual time.
#[derive(Debug, Clone)]
pub enum ServeEvent {
    /// A tenant's task arrives at virtual time `t`.
    Arrival {
        /// Virtual arrival time in seconds.
        t: f64,
        /// Submitting tenant.
        tenant: usize,
        /// The task input.
        input: Tensor,
    },
    /// A warm swap to `plan` is requested: the first batch that would
    /// start at or after `t` instead drains the pipeline, the switch
    /// pair is audited, and serving resumes under the new plan.
    Swap {
        /// Virtual request time in seconds.
        t: f64,
        /// The plan to swap to.
        plan: Plan,
    },
}

/// One served task in a [`ReplayOutcome`].
#[derive(Debug, Clone)]
pub struct CompletedTask {
    /// Index of the task among the trace's arrivals (0-based).
    pub seq: usize,
    /// Owning tenant.
    pub tenant: usize,
    /// The pipeline's output — bit-identical to single-device
    /// inference on the same engine.
    pub output: Tensor,
    /// Virtual completion time of the task's batch.
    pub finished_at: f64,
}

/// One rejected task in a [`ReplayOutcome`].
#[derive(Debug, Clone)]
pub struct Rejection {
    /// Index of the task among the trace's arrivals (0-based).
    pub seq: usize,
    /// Offering tenant.
    pub tenant: usize,
    /// The typed admission error.
    pub error: ServeError,
}

/// Everything a deterministic replay produced.
#[derive(Debug, Clone, Default)]
pub struct ReplayOutcome {
    /// Served tasks in completion order.
    pub completed: Vec<CompletedTask>,
    /// Rejected tasks in arrival order.
    pub rejections: Vec<Rejection>,
    /// Size of every submitted micro-batch, in submission order.
    pub batch_sizes: Vec<usize>,
    /// Admission/completion counts per tenant.
    pub per_tenant: Vec<TenantServeStat>,
    /// Warm swaps performed.
    pub swaps: u64,
    /// Audit-error messages of refused swaps (serving continued on the
    /// old plan).
    pub swap_rejections: Vec<String>,
    /// Serving epochs (plan generations, including the first).
    pub epochs: u64,
    /// Virtual time the last batch completed.
    pub makespan: f64,
}

impl ReplayOutcome {
    /// Mean submitted batch size (0 when no batch ran).
    pub fn mean_batch(&self) -> f64 {
        if self.batch_sizes.is_empty() {
            return 0.0;
        }
        self.batch_sizes.iter().sum::<usize>() as f64 / self.batch_sizes.len() as f64
    }

    /// Largest submitted batch (0 when no batch ran).
    pub fn max_batch(&self) -> usize {
        self.batch_sizes.iter().copied().max().unwrap_or(0)
    }

    /// Smallest submitted batch (0 when no batch ran).
    pub fn min_batch(&self) -> usize {
        self.batch_sizes.iter().copied().min().unwrap_or(0)
    }
}

/// Deterministic replay driver: feeds a scripted [`ServeEvent`] trace
/// through the *real* pipeline (every batch executes on the threaded
/// runtime) while admission, batching, and swap decisions run in
/// virtual time — so two replays of the same trace make bit-identical
/// decisions and produce bit-identical outputs.
///
/// The decisions are [`pico_sim::BatchServer`]'s, the same loop the
/// simulation mirrors and the live server run; the replayer supplies
/// the trace as its server ([`pico_sim::TraceServer`]) and
/// `ExecutionSession::submit_owned` as its executor.
pub struct Replayer<'a> {
    deployment: Deployment<'a>,
    config: ServeConfig,
}

impl<'a> Replayer<'a> {
    /// Creates a replayer with a no-op recorder.
    pub fn new(
        model: &'a Model,
        cluster: &'a Cluster,
        params: &'a CostParams,
        engine: &'a Engine<'a>,
        config: ServeConfig,
    ) -> Self {
        Replayer {
            deployment: Deployment {
                model,
                cluster,
                params,
                engine,
                rec: Recorder::noop(),
            },
            config,
        }
    }

    /// Attaches a telemetry recorder; admission/batch/swap events are
    /// recorded at their *virtual* timestamps.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.deployment.rec = recorder;
        self
    }

    /// Replays `events` (sorted by time) starting under `plan0`. A
    /// scripted [`ServeEvent::Swap`] drains the pipeline at the first
    /// batch boundary at or after its time, audits the switch pair, and
    /// resumes under the new plan (or the old one, if refused).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a malformed config or an
    /// unsorted, non-finite, or out-of-range trace,
    /// [`ServeError::Runtime`] if the pipeline fails mid-replay.
    pub fn run(&self, plan0: &Plan, events: &[ServeEvent]) -> Result<ReplayOutcome, ServeError> {
        self.config.validated()?;
        let (trace, scripted) = Trace::parse(events, self.config.tenants.len(), Vec::new())?;
        let switches = Switches {
            scripted,
            kernel: None,
        };
        let initial = (self.deployment.profile(plan0), Cow::Borrowed(plan0));
        let (outcome, _) = self.replay(&trace, switches, None, initial)?;
        Ok(outcome)
    }

    /// Replays `events` (arrivals only, time-sorted) under the fleet's
    /// re-planning controller instead of a fixed plan: serving starts
    /// on the frontier's cheapest entry, every admitted arrival feeds
    /// the hysteresis kernel's λ estimator, and when the kernel decides
    /// to switch the current epoch drains, the switch pair is audited
    /// (PA305–PA307), and serving resumes under the new plan — the
    /// APICO adaptive loop in deterministic virtual time.
    ///
    /// Returns the outcome plus the committed switch schedule. The
    /// kernel is shared policy: [`pico_sim::FleetSim`] fed the same
    /// admitted arrivals reproduces the identical schedule in virtual
    /// time.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a malformed config or policy,
    /// a scripted [`ServeEvent::Swap`] (the controller owns switching
    /// here), or an unsorted, non-finite, or out-of-range trace;
    /// [`ServeError::Runtime`] if the pipeline fails mid-replay.
    pub fn run_adaptive(
        &self,
        frontier: &FleetFrontier,
        policy: ReplanPolicy,
        events: &[ServeEvent],
    ) -> Result<(ReplayOutcome, Vec<SwitchRecord>), ServeError> {
        self.config.validated()?;
        let mut violations = policy.violations();
        if events.iter().any(|e| matches!(e, ServeEvent::Swap { .. })) {
            violations.push("scripted swap: adaptive replay switches plans itself".to_owned());
        }
        let (trace, _) = Trace::parse(events, self.config.tenants.len(), violations)?;
        let first = frontier.cheapest();
        let switches = Switches {
            scripted: VecDeque::new(),
            kernel: Some(frontier.kernel(first, policy)),
        };
        let entry = &frontier.entries()[first];
        let initial = (entry.profile(), Cow::Borrowed(&entry.plan));
        self.replay(&trace, switches, Some(frontier), initial)
    }

    /// Serves `trace` through the epoch loop, executing each batch on
    /// the real pipeline, and collects what a replay reports.
    fn replay(
        &self,
        trace: &Trace<'_>,
        switches: Switches<'_>,
        frontier: Option<&FleetFrontier>,
        initial: (ServiceProfile, Cow<'_, Plan>),
    ) -> Result<(ReplayOutcome, Vec<SwitchRecord>), ServeError> {
        let config = &self.config;
        let mut server = TraceServer::new(
            config.batch,
            config.tenants.clone(),
            &trace.arrivals,
            switches,
        );
        let mut completed = Vec::new();
        let execute = |sess: &mut ExecutionSession, batch: Vec<(usize, usize)>, finished_at| {
            let inputs = batch.iter().map(|&(_, seq)| trace.inputs[seq].clone());
            let outputs = sess.submit_owned(inputs.collect())?;
            let served = batch.into_iter().zip(outputs);
            completed.extend(served.map(|((tenant, seq), output)| CompletedTask {
                seq,
                tenant,
                output,
                finished_at,
            }));
            Ok(|| {})
        };
        let run = serve(&mut server, &self.deployment, frontier, initial, execute)?;
        let rejections = server.rejections().iter();
        let rejections = rejections
            .map(|&(seq, tenant, reason)| Rejection {
                seq,
                tenant,
                error: ServeError::from_reject(tenant, reason),
            })
            .collect();
        let report = server.into_report(run.swaps);
        let outcome = ReplayOutcome {
            completed,
            rejections,
            batch_sizes: report.batch_sizes,
            per_tenant: report.per_tenant,
            swaps: run.swaps,
            swap_rejections: run.refusals,
            epochs: run.epochs,
            makespan: report.makespan,
        };
        Ok((outcome, run.switches))
    }
}

/// A validated trace's arrivals: what the batch-server loop consumes
/// (times and tenants) and, index-aligned, the task inputs.
struct Trace<'e> {
    arrivals: Vec<(f64, usize)>,
    inputs: Vec<&'e Tensor>,
}

impl<'e> Trace<'e> {
    /// The one trace validator: every event time finite and
    /// non-decreasing, every tenant known. Splits the arrivals from the
    /// scripted swaps; `violations` carries what the caller already
    /// found wrong, reported together.
    fn parse(
        events: &'e [ServeEvent],
        tenants: usize,
        mut violations: Vec<String>,
    ) -> Result<(Self, VecDeque<(f64, Swap<'e>)>), ServeError> {
        let mut trace = Trace {
            arrivals: Vec::new(),
            inputs: Vec::new(),
        };
        let mut swaps = VecDeque::new();
        let mut last_t = f64::NEG_INFINITY;
        for e in events {
            let t = match e {
                ServeEvent::Arrival { t, .. } | ServeEvent::Swap { t, .. } => *t,
            };
            if !t.is_finite() {
                violations.push(format!("event time {t} is not finite"));
            } else {
                if t < last_t {
                    violations.push(format!("trace is unsorted at t={t}"));
                }
                last_t = t;
            }
            match e {
                ServeEvent::Arrival { tenant, input, .. } => {
                    if *tenant >= tenants {
                        violations.push(format!("arrival for unknown tenant {tenant}"));
                    }
                    trace.arrivals.push((t, *tenant));
                    trace.inputs.push(input);
                }
                ServeEvent::Swap { plan, .. } => {
                    let plan = Cow::Borrowed(plan);
                    swaps.push_back((t, Swap { plan, reply: None }));
                }
            }
        }
        if violations.is_empty() {
            Ok((trace, swaps))
        } else {
            Err(ServeError::InvalidConfig { violations })
        }
    }
}

/// A serving run's fixed context: the deployment, the engine its
/// pipelines run on, and where its events go.
pub(crate) struct Deployment<'a> {
    pub(crate) model: &'a Model,
    pub(crate) cluster: &'a Cluster,
    pub(crate) params: &'a CostParams,
    pub(crate) engine: &'a Engine<'a>,
    pub(crate) rec: Recorder,
}

impl Deployment<'_> {
    /// What the cost model charges a batch under `plan`.
    pub(crate) fn profile(&self, plan: &Plan) -> ServiceProfile {
        let metrics = self
            .params
            .cost_model(self.model)
            .evaluate(plan, self.cluster);
        ServiceProfile {
            latency: metrics.latency,
            period: metrics.period,
        }
    }
}

/// A scripted swap: the plan asked for and, live, the caller waiting
/// on the audit's verdict.
pub(crate) struct Swap<'p> {
    pub(crate) plan: Cow<'p, Plan>,
    pub(crate) reply: Option<SyncSender<Result<(), ServeError>>>,
}

/// Where a serving run's plan switches come from: scripted swaps — the
/// replayer's trace, or `ServeHandle::swap` live — and, when the run is
/// armed, the re-planning kernel.
pub(crate) struct Switches<'p> {
    pub(crate) scripted: VecDeque<(f64, Swap<'p>)>,
    pub(crate) kernel: Option<ReplanKernel>,
}

/// A switch the loop returned at a batch boundary.
pub(crate) enum Switch<'p> {
    Scripted(Swap<'p>),
    Replan(SwitchRecord),
}

impl<'p> SwitchSource for Switches<'p> {
    type Switch = Switch<'p>;

    fn admitted(&mut self, t: f64, rec: &Recorder) {
        if let Some(kernel) = &mut self.kernel {
            kernel.admitted(t, rec);
        }
    }

    fn due(&mut self, start: f64) -> Option<Switch<'p>> {
        if let Some(swap) = self.scripted.due(start) {
            return Some(Switch::Scripted(swap));
        }
        self.kernel.as_mut()?.due(start).map(Switch::Replan)
    }
}

/// What a serving run did across its epochs.
#[derive(Debug, Default)]
pub(crate) struct Run {
    pub(crate) epochs: u64,
    pub(crate) batches: u64,
    pub(crate) swaps: u64,
    /// The kernel's committed decisions.
    pub(crate) switches: Vec<SwitchRecord>,
    /// Audit-error messages of refused switches.
    pub(crate) refusals: Vec<String>,
}

/// The one epoch loop, for the replayer and the live server alike:
/// serves epoch after epoch on a fresh pipeline — `server` decides,
/// `execute` runs each batch on the epoch's session — and puts every
/// switch the loop returns through [`commit_switch`], installing its
/// target on approval and telling the kernel or the waiting caller.
/// `frontier` resolves the kernel's decisions when the run is armed.
pub(crate) fn serve<'p, B, D: FnOnce()>(
    server: &mut B,
    deployment: &Deployment<'_>,
    frontier: Option<&FleetFrontier>,
    initial: (ServiceProfile, Cow<'_, Plan>),
    mut execute: impl FnMut(
        &mut ExecutionSession,
        Vec<(usize, B::Task)>,
        f64,
    ) -> Result<D, RuntimeError>,
) -> Result<Run, ServeError>
where
    B: BatchServer<Switches = Switches<'p>>,
{
    let (mut profile, mut plan) = initial;
    let mut run = Run::default();
    loop {
        run.epochs += 1;
        let mut completed = 0u64;
        let runtime = PipelineRuntime::builder(deployment.model, &plan, deployment.engine)
            .recorder(deployment.rec.clone())
            .build();
        let (switch, _report) = runtime.session(|sess| {
            server.run_epoch(profile, &deployment.rec, |batch, done_at| {
                let size = batch.len() as u64;
                let deliver = execute(sess, batch, done_at)?;
                run.batches += 1;
                completed += size;
                Ok(deliver)
            })
        })?;
        let Some((switch, at)) = switch else {
            return Ok(run);
        };
        let (next, replan, reply) = match switch {
            Switch::Scripted(swap) => (
                (deployment.profile(&swap.plan), swap.plan),
                None,
                swap.reply,
            ),
            Switch::Replan(record) => {
                // Only an armed run stages re-plans, and an armed run
                // passes the frontier its kernel indexes.
                let Some(entry) = frontier.and_then(|f| f.entries().get(record.to)) else {
                    let violations = vec![format!("re-plan to unknown entry {}", record.to)];
                    return Err(ServeError::InvalidConfig { violations });
                };
                (
                    (entry.profile(), Cow::Borrowed(&entry.plan)),
                    Some(record),
                    None,
                )
            }
        };
        let drained = (run.epochs - 1, at, completed);
        let verdict = commit_switch(deployment, &plan, &next.1, replan.as_ref(), drained);
        if replan.is_some() {
            // Under the live lock; the audit ran outside it.
            server.with(|_, switches| match (&mut switches.kernel, &verdict) {
                (Some(kernel), Ok(())) => _ = kernel.committed(),
                (Some(kernel), Err(_)) => kernel.rejected(),
                (None, _) => {}
            });
        }
        match &verdict {
            Ok(()) => {
                (profile, plan) = next;
                run.swaps += 1;
                run.switches.extend(replan);
            }
            Err(errors) => run.refusals.extend(errors.iter().cloned()),
        }
        if let Some(reply) = reply {
            let _ = reply.send(verdict.map_err(|errors| ServeError::SwapRejected { errors }));
        }
    }
}

/// The audit gate every plan switch passes at an epoch boundary,
/// scripted or λ-driven, replayed or live: the pair is audited
/// (PA305–PA307). An approved switch records that `epoch` drained at
/// `at` after completing `completed` tasks and — for a kernel decision
/// — the λ that drove it; a refused one returns the audit's messages.
fn commit_switch(
    deployment: &Deployment<'_>,
    current: &Plan,
    next: &Plan,
    replan: Option<&SwitchRecord>,
    (epoch, at, completed): (u64, f64, u64),
) -> Result<(), Vec<String>> {
    let auditor =
        Auditor::new(deployment.model, deployment.cluster).with_params(*deployment.params);
    let report = auditor.audit_switch_pair(current, next);
    if !report.is_executable() {
        return Err(report.errors().map(|d| d.message.clone()).collect());
    }
    let rec = &deployment.rec;
    let epoch = usize::try_from(epoch).unwrap_or(usize::MAX);
    rec.instant_at(names::SWAP_DRAINED, Ctx::stage(epoch), at, completed as f64);
    if let Some(record) = replan {
        let to = Ctx::stage(record.to);
        rec.instant_at(names::REPLAN_TRIGGERED, to, at, record.lambda);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_script, ReplayScript, ScriptSpec};
    use pico_model::zoo;

    /// A NaN compares false against everything, so a sortedness check
    /// alone lets it through; both entry points must name it instead.
    #[test]
    fn non_finite_event_times_are_refused_by_both_entry_points() {
        let model = zoo::toy(4);
        let cluster = Cluster::pi_cluster(4, 1.0);
        let params = CostParams::default();
        let spec = ScriptSpec {
            tasks: 6,
            ..ScriptSpec::default()
        };
        let rp = build_script(&model, &cluster, &params, ReplayScript::Steady, &spec).unwrap();
        let engine = Engine::with_seed(&model, 1);
        let replayer = Replayer::new(&model, &cluster, &params, &engine, rp.config.clone());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut events = rp.events.clone();
            if let ServeEvent::Arrival { t, .. } = &mut events[3] {
                *t = bad;
            }
            let scripted = replayer.run(&rp.initial, &events).map(|_| ());
            let adaptive = replayer
                .run_adaptive(&rp.frontier, ReplanPolicy::default(), &events)
                .map(|_| ());
            for (entry, result) in [("run", scripted), ("run_adaptive", adaptive)] {
                match result {
                    Err(ServeError::InvalidConfig { violations }) => assert!(
                        violations.iter().any(|v| v.contains("not finite")),
                        "{entry}({bad}): {violations:?}"
                    ),
                    other => panic!("{entry}({bad}): expected InvalidConfig, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn adaptive_replay_refuses_a_scripted_swap() {
        let model = zoo::toy(4);
        let cluster = Cluster::pi_cluster(4, 1.0);
        let params = CostParams::default();
        let spec = ScriptSpec {
            tasks: 6,
            ..ScriptSpec::default()
        }
        .with_midtrace_swap();
        let rp = build_script(&model, &cluster, &params, ReplayScript::Steady, &spec).unwrap();
        let engine = Engine::with_seed(&model, 1);
        let result = Replayer::new(&model, &cluster, &params, &engine, rp.config.clone())
            .run_adaptive(&rp.frontier, ReplanPolicy::default(), &rp.events);
        match result {
            Err(ServeError::InvalidConfig { violations }) => {
                assert!(violations.iter().any(|v| v.contains("scripted swap")));
            }
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        }
    }
}
