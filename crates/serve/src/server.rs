use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use pico_audit::Auditor;
use pico_fleet::FleetFrontier;
use pico_model::Model;
use pico_partition::{Cluster, CostParams, Plan};
use pico_runtime::{ExecutionSession, PipelineRuntime, RuntimeError};
use pico_sim::{ReplanKernel, SwitchRecord, TenantServeStat};
use pico_telemetry::{names, Ctx};
use pico_tensor::{Engine, Tensor};

use crate::front::{commit_switch, Drained};
use crate::state::{enter, QueuedTask, ServeState};
use crate::{ServeError, ServeRequest};

/// Control messages from handles to the server thread. The channel is
/// bounded (lint rule 8: no unbounded channels in the serving path);
/// nudges are best-effort and may be dropped when one is already
/// pending — the flush tick picks up the slack.
enum Ctrl {
    Nudge,
    Swap(Plan, SyncSender<Result<(), ServeError>>),
    Close,
}

enum EpochExit {
    Close,
    Swap(Plan, SyncSender<Result<(), ServeError>>),
    /// The re-planning kernel wants this switch: the epoch has drained
    /// and the audited swap happens at the epoch boundary.
    Replan(SwitchRecord),
}

/// Final accounting returned by [`ServeHandle::shutdown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Admission/completion counts per tenant (indexed by tenant id).
    pub per_tenant: Vec<TenantServeStat>,
    /// Batches submitted to the pipeline.
    pub batches: u64,
    /// Warm swaps performed.
    pub swaps: u64,
    /// Serving epochs (plan generations, including the first).
    pub epochs: u64,
}

/// A claim on one submitted task's eventual output.
pub struct ServeTicket {
    rx: Receiver<Result<Tensor, ServeError>>,
}

impl ServeTicket {
    /// Blocks until the task's batch completes and returns its output.
    ///
    /// # Errors
    ///
    /// [`ServeError::Runtime`] if the pipeline failed executing the
    /// batch, [`ServeError::Closed`] if the front-end shut down before
    /// the task was served.
    pub fn wait(self) -> Result<Tensor, ServeError> {
        self.rx.recv().map_err(|_| ServeError::Closed)?
    }
}

/// Handle to a live serving front-end: submit tasks, request warm
/// swaps, and shut down gracefully. Admission control runs on the
/// calling thread, so a full queue is a synchronous typed error —
/// never a blocked caller.
pub struct ServeHandle {
    state: Arc<ServeState>,
    ctrl: SyncSender<Ctrl>,
    thread: Option<JoinHandle<Result<ServeOutcome, ServeError>>>,
}

impl ServeHandle {
    /// Spawns a server thread owning `model`/`cluster` and serving
    /// `plan` until shut down or warm-swapped.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when the request's config has
    /// violations (the PA401 conditions).
    pub fn spawn(
        model: Model,
        cluster: Cluster,
        params: CostParams,
        plan: Plan,
        request: &ServeRequest,
    ) -> Result<ServeHandle, ServeError> {
        request.config().validated()?;
        Ok(Self::spawn_on(model, cluster, params, plan, None, request))
    }

    /// Spawns a *self-re-planning* server over the fleet frontier armed
    /// via [`ServeRequest::with_adaptive`]: serving starts on the
    /// frontier's cheapest entry, every admission feeds the hysteresis
    /// kernel's λ estimator, and when the kernel decides to switch the
    /// server drains the pipeline, audits the switch pair
    /// (PA305–PA307), and resumes under the new plan — no task is
    /// dropped across the swap. Manual [`swap`](Self::swap) requests
    /// still work and go through the same gate.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when the config or re-planning
    /// policy has violations, or when the request was not armed with
    /// [`ServeRequest::with_adaptive`].
    pub fn spawn_adaptive(
        model: Model,
        cluster: Cluster,
        params: CostParams,
        request: &ServeRequest,
    ) -> Result<ServeHandle, ServeError> {
        request.config().validated()?;
        let Some((frontier, policy)) = request.adaptive() else {
            return Err(ServeError::InvalidConfig {
                violations: vec![
                    "adaptive spawn needs ServeRequest::with_adaptive(frontier, policy)".to_owned(),
                ],
            });
        };
        let violations = policy.violations();
        if !violations.is_empty() {
            return Err(ServeError::InvalidConfig { violations });
        }
        let initial = frontier.cheapest();
        let plan = frontier.entries()[initial].plan.clone();
        let adaptive = Some((frontier.kernel(initial, *policy), Arc::clone(frontier)));
        Ok(Self::spawn_on(
            model, cluster, params, plan, adaptive, request,
        ))
    }

    /// The one spawn body: a fixed-plan server, or — given the kernel
    /// and the frontier it indexes — a self-re-planning one.
    fn spawn_on(
        model: Model,
        cluster: Cluster,
        params: CostParams,
        plan: Plan,
        adaptive: Option<(ReplanKernel, Arc<FleetFrontier>)>,
        request: &ServeRequest,
    ) -> ServeHandle {
        let state = Arc::new(ServeState::new(request, adaptive));
        // Depth 2: one pending nudge plus room for a control message.
        let (ctrl_tx, ctrl_rx) = sync_channel(2);
        let thread_state = Arc::clone(&state);
        let seed = request.engine_seed();
        let tick = request.flush_interval();
        let thread = std::thread::spawn(move || {
            run_server(
                model,
                cluster,
                params,
                plan,
                seed,
                tick,
                thread_state,
                ctrl_rx,
            )
        });
        ServeHandle {
            state,
            ctrl: ctrl_tx,
            thread: Some(thread),
        }
    }

    /// Offers one task for `tenant`. Admission is decided immediately:
    /// a typed rejection ([`ServeError::QueueFull`] /
    /// [`ServeError::TenantOverBudget`]) surfaces backpressure to the
    /// caller; on admission the returned ticket resolves to the output
    /// once the task's micro-batch completes.
    pub fn submit(&self, tenant: usize, input: Tensor) -> Result<ServeTicket, ServeError> {
        let rx = self.state.admit(tenant, input)?;
        match self.ctrl.try_send(Ctrl::Nudge) {
            Ok(()) | Err(TrySendError::Full(_)) => {}
            Err(TrySendError::Disconnected(_)) => return Err(ServeError::Closed),
        }
        Ok(ServeTicket { rx })
    }

    /// Requests a warm swap to `plan`: the server drains the current
    /// pipeline (no admitted task is dropped), audits the switch pair
    /// (PA305–PA307), and either swaps or keeps serving on the old
    /// plan. Blocks until the verdict.
    ///
    /// # Errors
    ///
    /// [`ServeError::SwapRejected`] with the audit errors, or
    /// [`ServeError::Closed`] if the server is gone.
    pub fn swap(&self, plan: Plan) -> Result<(), ServeError> {
        let (tx, rx) = sync_channel(1);
        self.ctrl
            .send(Ctrl::Swap(plan, tx))
            .map_err(|_| ServeError::Closed)?;
        rx.recv().map_err(|_| ServeError::Closed)?
    }

    /// Stops intake, drains every queued task through the pipeline,
    /// and returns the final accounting.
    pub fn shutdown(mut self) -> Result<ServeOutcome, ServeError> {
        self.state.open.store(false, Ordering::Release);
        let _ = self.ctrl.send(Ctrl::Close);
        match self.thread.take() {
            Some(handle) => handle.join().map_err(|_| ServeError::Closed)?,
            None => Err(ServeError::Closed),
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        if let Some(handle) = self.thread.take() {
            self.state.open.store(false, Ordering::Release);
            let _ = self.ctrl.send(Ctrl::Close);
            let _ = handle.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_server(
    model: Model,
    cluster: Cluster,
    params: CostParams,
    mut plan: Plan,
    engine_seed: u64,
    tick: Duration,
    state: Arc<ServeState>,
    ctrl: Receiver<Ctrl>,
) -> Result<ServeOutcome, ServeError> {
    let engine = Engine::with_seed(&model, engine_seed);
    let auditor = Auditor::new(&model, &cluster).with_params(params);
    let mut epochs = 0u64;
    let mut swaps = 0u64;
    let mut batches = 0u64;
    loop {
        epochs += 1;
        let mut epoch_completed = 0u64;
        let runtime = PipelineRuntime::builder(&model, &plan, &engine)
            .recorder(state.rec.clone())
            .build();
        let session = runtime.session(|sess| loop {
            let msg = ctrl.recv_timeout(tick);
            // A nudge batches only once the backlog reaches the adaptive
            // target; the flush tick and every exit drain it.
            let force = !matches!(msg, Ok(Ctrl::Nudge));
            pump(sess, &state, &mut batches, &mut epoch_completed, force)?;
            match msg {
                Ok(Ctrl::Swap(next, reply)) => return Ok(EpochExit::Swap(next, reply)),
                Ok(Ctrl::Close) | Err(RecvTimeoutError::Disconnected) => {
                    return Ok(EpochExit::Close)
                }
                Ok(Ctrl::Nudge) | Err(RecvTimeoutError::Timeout) => {
                    if let Some(record) = state.replan_due() {
                        pump(sess, &state, &mut batches, &mut epoch_completed, true)?;
                        return Ok(EpochExit::Replan(record));
                    }
                }
            }
        });
        let exit = match session {
            Ok((exit, _report)) => exit,
            Err(e) => {
                state.open.store(false, Ordering::Release);
                fail_queued(&state, &e);
                return Err(e.into());
            }
        };
        let drained = Drained {
            epoch: epochs - 1,
            at: state.now(),
            completed: epoch_completed,
        };
        match exit {
            EpochExit::Close => break,
            EpochExit::Swap(next, reply) => {
                let verdict = commit_switch(&auditor, &state.rec, &plan, &next, None, drained);
                if verdict.is_ok() {
                    plan = next;
                    swaps += 1;
                }
                let _ = reply.send(verdict.map_err(|errors| ServeError::SwapRejected { errors }));
            }
            EpochExit::Replan(record) => {
                // Only an armed server takes this exit.
                let Some((kernel, fleet)) = &state.replan else {
                    continue;
                };
                let mut kernel = enter(kernel.lock());
                let next = &fleet.entries()[record.to].plan;
                let replan = Some((&mut *kernel, record.lambda));
                // A refusal is unreachable while the kernel only proposes
                // matrix-approved targets; it degrades to "no switch".
                if commit_switch(&auditor, &state.rec, &plan, next, replan, drained).is_ok() {
                    plan = next.clone();
                    swaps += 1;
                }
            }
        }
    }
    let per_tenant = enter(state.ledger.lock()).stats();
    Ok(ServeOutcome {
        per_tenant,
        batches,
        swaps,
        epochs,
    })
}

/// Forms and submits micro-batches while they are warranted: always
/// when `force` (flush tick, drain, shutdown), otherwise only once the
/// backlog reaches the adaptive target.
fn pump(
    sess: &mut ExecutionSession,
    state: &ServeState,
    batches: &mut u64,
    completed: &mut u64,
    force: bool,
) -> Result<(), RuntimeError> {
    loop {
        let target = enter(state.batcher.lock()).target().max(1);
        let mut ledger = enter(state.ledger.lock());
        let total = ledger.total_queued();
        if total == 0 || (!force && total < target) {
            return Ok(());
        }
        let order = ledger.compose(target);
        let mut tasks: Vec<(usize, QueuedTask)> = Vec::with_capacity(order.len());
        for t in order {
            let Some(task) = enter(state.queues[t].lock()).pop_front() else {
                // Unreachable while admit holds the ledger lock across
                // its queue push; recover by undoing the claim.
                ledger.complete(t, 1);
                continue;
            };
            tasks.push((t, task));
        }
        drop(ledger);
        if tasks.is_empty() {
            return Ok(());
        }
        let n = tasks.len() as u64;
        let inputs: Vec<Tensor> = tasks.iter().map(|(_, qt)| qt.input.clone()).collect();
        state.rec.observe_at(
            names::BATCH_FORMED,
            Ctx::default(),
            state.now(),
            inputs.len() as f64,
        );
        let outputs = match sess.submit(&inputs) {
            Ok(outputs) => outputs,
            Err(e) => {
                for (_, qt) in tasks {
                    let _ = qt.reply.try_send(Err(ServeError::Runtime(e.clone())));
                }
                return Err(e);
            }
        };
        let mut ledger = enter(state.ledger.lock());
        for ((t, qt), out) in tasks.into_iter().zip(outputs) {
            ledger.complete(t, 1);
            let _ = qt.reply.try_send(Ok(out));
        }
        drop(ledger);
        *batches += 1;
        *completed += n;
    }
}

/// Delivers a terminal error to every still-queued task after a
/// pipeline failure, so no ticket hangs.
fn fail_queued(state: &ServeState, e: &RuntimeError) {
    for queue in &state.queues {
        let mut queue = enter(queue.lock());
        while let Some(task) = queue.pop_front() {
            let _ = task.reply.try_send(Err(ServeError::Runtime(e.clone())));
        }
    }
}
