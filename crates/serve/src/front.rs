use std::collections::VecDeque;

use pico_audit::Auditor;
use pico_fleet::FleetFrontier;
use pico_model::Model;
use pico_partition::{Cluster, CostParams, Plan};
use pico_runtime::PipelineRuntime;
use pico_sim::{
    BatchServer, ReplanKernel, ReplanPolicy, ServiceProfile, SwitchRecord, SwitchSource,
    TenantServeStat,
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
/// simulation mirrors run; the replayer only supplies the executor
/// (`ExecutionSession::submit`) and the audit gate at each switch.
pub struct Replayer<'a> {
    model: &'a Model,
    cluster: &'a Cluster,
    params: &'a CostParams,
    engine: &'a Engine<'a>,
    config: ServeConfig,
    recorder: Recorder,
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
            model,
            cluster,
            params,
            engine,
            config,
            recorder: Recorder::noop(),
        }
    }

    /// Attaches a telemetry recorder; admission/batch/swap events are
    /// recorded at their *virtual* timestamps.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
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
        let (trace, mut swaps) = Trace::parse(events, self.config.tenants.len(), Vec::new())?;
        let cost = self.params.cost_model(self.model);
        let mut replay = Replay::new(self, &trace);
        let mut current = plan0;
        loop {
            let metrics = cost.evaluate(current, self.cluster);
            let profile = ServiceProfile {
                latency: metrics.latency,
                period: metrics.period,
            };
            let Some(next) = replay.epoch(current, profile, &mut swaps)? else {
                break;
            };
            if replay.commit(current, next, None) {
                current = next;
            }
        }
        Ok(replay.finish())
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
        let mut kernel = frontier.kernel(frontier.cheapest(), policy);
        let mut switches: Vec<SwitchRecord> = Vec::new();
        let mut replay = Replay::new(self, &trace);
        loop {
            let entry = &frontier.entries()[kernel.current()];
            let Some(record) = replay.epoch(&entry.plan, entry.profile(), &mut kernel)? else {
                break;
            };
            let next = &frontier.entries()[record.to].plan;
            // A refusal is unreachable while the kernel only proposes
            // matrix-approved targets; the gate stays so a frontier/audit
            // drift degrades to "no switch" instead of a wrong plan.
            if replay.commit(&entry.plan, next, Some((&mut kernel, record.lambda))) {
                switches.push(record);
            }
        }
        Ok((replay.finish(), switches))
    }
}

/// A validated trace's arrivals: what the batch-server loop consumes
/// (times and tenants) and, index-aligned, the task inputs.
struct Trace<'e> {
    arrivals: Vec<(f64, usize)>,
    inputs: Vec<&'e Tensor>,
}

/// Scripted swap requests, `(request time, target)` in trace order.
type Swaps<'e> = VecDeque<(f64, &'e Plan)>;

impl<'e> Trace<'e> {
    /// The one trace validator: every event time finite and
    /// non-decreasing, every tenant known. Splits the arrivals from the
    /// scripted swaps; `violations` carries what the caller already
    /// found wrong, reported together.
    fn parse(
        events: &'e [ServeEvent],
        tenants: usize,
        mut violations: Vec<String>,
    ) -> Result<(Self, Swaps<'e>), ServeError> {
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
                ServeEvent::Swap { plan, .. } => swaps.push_back((t, plan)),
            }
        }
        if violations.is_empty() {
            Ok((trace, swaps))
        } else {
            Err(ServeError::InvalidConfig { violations })
        }
    }
}

/// One replay in flight: the shared loop's state plus what only a
/// replay collects (outputs, audit refusals, epoch counts).
struct Replay<'r> {
    replayer: &'r Replayer<'r>,
    auditor: Auditor<'r>,
    trace: &'r Trace<'r>,
    server: BatchServer<'r>,
    outcome: ReplayOutcome,
    /// Tasks the current epoch has completed so far.
    epoch_completed: u64,
}

impl<'r> Replay<'r> {
    fn new(replayer: &'r Replayer<'r>, trace: &'r Trace<'r>) -> Self {
        let config = &replayer.config;
        Replay {
            replayer,
            auditor: Auditor::new(replayer.model, replayer.cluster).with_params(*replayer.params),
            trace,
            server: BatchServer::new(config.batch, config.tenants.clone(), &trace.arrivals),
            outcome: ReplayOutcome::default(),
            epoch_completed: 0,
        }
    }

    /// Serves one epoch under `plan` on a fresh pipeline: the shared
    /// loop decides, `ExecutionSession::submit` executes. Returns the
    /// switch that ended the epoch, or `None` when the trace is served.
    fn epoch<S: SwitchSource>(
        &mut self,
        plan: &Plan,
        profile: ServiceProfile,
        source: &mut S,
    ) -> Result<Option<S::Switch>, ServeError> {
        self.outcome.epochs += 1;
        self.epoch_completed = 0;
        let rec = &self.replayer.recorder;
        let runtime = PipelineRuntime::builder(self.replayer.model, plan, self.replayer.engine)
            .recorder(rec.clone())
            .build();
        let (server, inputs) = (&mut self.server, &self.trace.inputs);
        let (completed, epoch_completed) = (&mut self.outcome.completed, &mut self.epoch_completed);
        let (end, _report) = runtime.session(|sess| {
            server.run_epoch(source, profile, rec, |tasks, finished_at| {
                let batch: Vec<Tensor> =
                    tasks.iter().map(|&(_, seq)| inputs[seq].clone()).collect();
                let outputs = sess.submit(&batch)?;
                for (&(tenant, seq), output) in tasks.iter().zip(outputs) {
                    completed.push(CompletedTask {
                        seq,
                        tenant,
                        output,
                        finished_at,
                    });
                }
                *epoch_completed += tasks.len() as u64;
                Ok(())
            })
        })?;
        Ok(end)
    }

    /// Puts the drained epoch's switch through the audit gate; `true`
    /// when `next` was installed.
    fn commit(
        &mut self,
        current: &Plan,
        next: &Plan,
        replan: Option<(&mut ReplanKernel, f64)>,
    ) -> bool {
        let drained = Drained {
            epoch: self.outcome.epochs - 1,
            at: self.server.free_at(),
            completed: self.epoch_completed,
        };
        let rec = &self.replayer.recorder;
        match commit_switch(&self.auditor, rec, current, next, replan, drained) {
            Ok(()) => {
                self.outcome.swaps += 1;
                true
            }
            Err(errors) => {
                self.outcome.swap_rejections.extend(errors);
                false
            }
        }
    }

    fn finish(mut self) -> ReplayOutcome {
        let rejections = self.server.rejections().iter();
        self.outcome.rejections = rejections
            .map(|&(seq, tenant, reason)| Rejection {
                seq,
                tenant,
                error: ServeError::from_reject(tenant, reason),
            })
            .collect();
        let report = self.server.into_report(self.outcome.swaps);
        self.outcome.batch_sizes = report.batch_sizes;
        self.outcome.per_tenant = report.per_tenant;
        self.outcome.makespan = report.makespan;
        self.outcome
    }
}

/// The epoch a switch drains: its index, when it drained (virtual time
/// in a replay, wall time live), and how many tasks it completed.
pub(crate) struct Drained {
    pub(crate) epoch: u64,
    pub(crate) at: f64,
    pub(crate) completed: u64,
}

/// The audit gate every plan switch passes at an epoch boundary,
/// scripted or λ-driven, replayed or live: the pair is audited
/// (PA305–PA307); on approval the kernel — when the switch was its
/// decision, `replan` names it and the λ that drove it — is told
/// `committed` and the drain is recorded; on refusal it is told
/// `rejected` and the audit's error messages come back.
pub(crate) fn commit_switch(
    auditor: &Auditor<'_>,
    rec: &Recorder,
    current: &Plan,
    next: &Plan,
    replan: Option<(&mut ReplanKernel, f64)>,
    drained: Drained,
) -> Result<(), Vec<String>> {
    let report = auditor.audit_switch_pair(current, next);
    if !report.is_executable() {
        if let Some((kernel, _)) = replan {
            kernel.rejected();
        }
        return Err(report.errors().map(|d| d.message.clone()).collect());
    }
    let epoch = usize::try_from(drained.epoch).unwrap_or(usize::MAX);
    let triggered = replan.map(|(kernel, lambda)| (kernel.committed(), lambda));
    rec.instant_at(
        names::SWAP_DRAINED,
        Ctx::stage(epoch),
        drained.at,
        drained.completed as f64,
    );
    if let Some((to, lambda)) = triggered {
        rec.instant_at(names::REPLAN_TRIGGERED, Ctx::stage(to), drained.at, lambda);
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
