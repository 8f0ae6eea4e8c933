use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use pico_audit::Auditor;
use pico_fleet::FleetFrontier;
use pico_model::Model;
use pico_partition::{Cluster, CostParams, Plan};
use pico_runtime::{ExecutionSession, PipelineRuntime, RuntimeError};
use pico_sim::{ReplanKernel, SwitchRecord, TenantServeStat};
use pico_telemetry::{names, Ctx};
use pico_tensor::{Engine, Tensor};

use crate::front::{commit_switch, Drained};
use crate::state::{enter, ServeState};
use crate::{ServeError, ServeRequest};

/// Control messages from handles to the server thread. The channel is
/// bounded (lint rule 8: no unbounded channels in the serving path), so
/// a nudge is dropped when the channel is full — and no wake-up is lost
/// by it: `admit` pushes the task under the ledger lock *before* the
/// `try_send`, and `Full` means a message the server has not yet
/// received is still ahead of us; it pumps after receiving that one,
/// and that pump sees the push.
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
    /// The server is work-conserving: the batch forms as soon as the
    /// pipeline is free, so on an idle server this is one traversal.
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
        let thread = std::thread::spawn(move || {
            run_server(model, cluster, params, plan, seed, thread_state, ctrl_rx)
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

fn run_server(
    model: Model,
    cluster: Cluster,
    params: CostParams,
    mut plan: Plan,
    engine_seed: u64,
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
            // Every admit nudges and the kernel stages a switch only
            // inside admit, so there is nothing to poll between messages.
            let msg = ctrl.recv();
            pump(sess, &state, &mut batches, &mut epoch_completed)?;
            match msg {
                Ok(Ctrl::Swap(next, reply)) => return Ok(EpochExit::Swap(next, reply)),
                Ok(Ctrl::Close) | Err(_) => return Ok(EpochExit::Close),
                Ok(Ctrl::Nudge) => {
                    if let Some(record) = state.replan_due() {
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

/// The feeding rule, the mirror's (`BatchServer::run_epoch`): whenever
/// the server is free and anything is queued it composes a batch of up
/// to the adaptive target — never waiting for the target to fill — and
/// returns once the queues are empty.
fn pump(
    sess: &mut ExecutionSession,
    state: &ServeState,
    batches: &mut u64,
    completed: &mut u64,
) -> Result<(), RuntimeError> {
    loop {
        let target = enter(state.batcher.lock()).target().max(1);
        let mut ledger = enter(state.ledger.lock());
        let order = ledger.compose(target);
        // Inputs move into the pipeline; what stays behind answers the
        // ticket, on success or failure.
        let mut inputs: Vec<Tensor> = Vec::with_capacity(order.len());
        let mut replies = Vec::with_capacity(order.len());
        for t in order {
            let Some(task) = enter(state.queues[t].lock()).pop_front() else {
                // Unreachable while admit holds the ledger lock across
                // its queue push; recover by undoing the claim.
                ledger.complete(t, 1);
                continue;
            };
            inputs.push(task.input);
            replies.push((t, task.reply));
        }
        drop(ledger);
        if replies.is_empty() {
            return Ok(());
        }
        let n = replies.len();
        state
            .rec
            .observe_at(names::BATCH_FORMED, Ctx::default(), state.now(), n as f64);
        let outputs = match sess.submit_owned(inputs) {
            Ok(outputs) => outputs,
            Err(e) => {
                for (_, reply) in replies {
                    let _ = reply.try_send(Err(ServeError::Runtime(e.clone())));
                }
                return Err(e);
            }
        };
        let mut ledger = enter(state.ledger.lock());
        for ((t, reply), out) in replies.into_iter().zip(outputs) {
            ledger.complete(t, 1);
            let _ = reply.try_send(Ok(out));
        }
        drop(ledger);
        *batches += 1;
        *completed += n as u64;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fleet_frontier, ReplanPolicy, TenantPolicy};
    use pico_model::zoo;
    use pico_sim::{ServeSim, ServiceProfile};
    use pico_telemetry::Recorder;

    fn deployment() -> (Model, Cluster, CostParams, Arc<FleetFrontier>) {
        let model = zoo::mnist_toy();
        let cluster = Cluster::pi_cluster(4, 1.0);
        let params = CostParams::wifi_50mbps();
        let frontier = fleet_frontier(&model, &cluster, &params, &Recorder::noop()).unwrap();
        (model, cluster, params, frontier)
    }

    /// The feeding rule itself, with no thread and no clock in the way:
    /// three admissions too close together to lower the target from its
    /// maximum, one `pump`, one batch of three — and the mirror takes
    /// the same batch from the same arrivals.
    #[test]
    fn pump_takes_what_is_queued_without_waiting_for_the_target() {
        let (model, _, _, frontier) = deployment();
        let plan = &frontier.entries()[frontier.cheapest()].plan;
        let engine = Engine::with_seed(&model, 3);
        let rec = Recorder::in_memory();
        let request = ServeRequest::new()
            .with_tenants(vec![TenantPolicy::default(); 2])
            .with_recorder(rec.clone());
        let state = ServeState::new(&request, None);
        let runtime = PipelineRuntime::builder(&model, plan, &engine).build();

        let inputs: Vec<Tensor> = (0..3)
            .map(|k| Tensor::random(model.input_shape(), 40 + k))
            .collect();
        let (mut batches, mut completed) = (0u64, 0u64);
        let (tickets, _report) = runtime
            .session(|sess| {
                let tickets: Vec<_> = inputs
                    .iter()
                    .enumerate()
                    .map(|(k, input)| state.admit(k % 2, input.clone()).unwrap())
                    .collect();
                let target = enter(state.batcher.lock()).target();
                assert_eq!(target, 8, "back-to-back admits leave the target at max");
                pump(sess, &state, &mut batches, &mut completed)?;
                Ok(tickets)
            })
            .unwrap();

        assert_eq!((batches, completed), (1, 3));
        let formed: Vec<f64> = rec
            .snapshot()
            .iter()
            .filter(|e| e.name == names::BATCH_FORMED)
            .map(|e| e.value)
            .collect();
        assert_eq!(formed, [3.0]);
        for (ticket, input) in tickets.into_iter().zip(&inputs) {
            let out = ticket.try_recv().expect("pump resolved every ticket");
            assert_eq!(out.unwrap().data(), engine.infer(input).unwrap().data());
        }
        let ledger = enter(state.ledger.lock());
        assert_eq!(ledger.total_queued(), 0);
        assert_eq!(ledger.in_flight(0) + ledger.in_flight(1), 0);
        drop(ledger);

        let profile = ServiceProfile {
            latency: 0.1,
            period: 0.02,
        };
        let mirror = ServeSim::new(request.config().batch, request.config().tenants.clone()).run(
            &[(0.0, 0), (0.0, 1), (0.0, 0)],
            profile,
            None,
        );
        assert_eq!(mirror.batch_sizes, [3]);
    }

    /// A switch staged in the kernel is committed on the very next
    /// admit's nudge — nothing polls for it, and `Close` does not look.
    #[test]
    fn armed_server_commits_a_staged_switch_on_the_next_nudge() {
        let (model, cluster, params, frontier) = deployment();
        let to = frontier
            .swap_target(frontier.cheapest())
            .expect("mnist_toy x pi4 has a switchable pair");
        let request =
            ServeRequest::new().with_adaptive(Arc::clone(&frontier), ReplanPolicy::default());
        let handle = ServeHandle::spawn_adaptive(model.clone(), cluster, params, &request).unwrap();
        {
            let (kernel, _) = handle.state.replan.as_ref().unwrap();
            enter(kernel.lock()).propose(to, 0.0);
        }
        let input = Tensor::random(model.input_shape(), 8);
        let before = handle.submit(0, input.clone()).unwrap().wait().unwrap();
        // The server is mid-switch or already past it; either way the
        // next task is served, under the new plan, bit-identically.
        let after = handle.submit(0, input).unwrap().wait().unwrap();
        assert_eq!(before.data(), after.data());
        let outcome = handle.shutdown().unwrap();
        assert_eq!((outcome.swaps, outcome.epochs), (1, 2));
        let stat = outcome.per_tenant[0];
        assert_eq!((stat.admitted, stat.completed, stat.rejected), (2, 2, 0));
    }
}
