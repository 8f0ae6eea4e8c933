use std::borrow::Cow;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use pico_fleet::FleetFrontier;
use pico_model::Model;
use pico_partition::{Cluster, CostParams, Plan};
use pico_runtime::ExecutionSession;
use pico_sim::{BatchServer, Intake, ReplanKernel, TenantServeStat};
use pico_telemetry::Recorder;
use pico_tensor::{Engine, Tensor};

use crate::front::{serve, Deployment, Switches};
use crate::state::{QueuedTask, ServeState};
use crate::{ServeError, ServeRequest};

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
    /// Wakes an idle server thread; carries no data (see [`Live`]).
    wake: SyncSender<()>,
    thread: Option<JoinHandle<Result<ServeOutcome, ServeError>>>,
}

impl ServeHandle {
    /// Spawns a server thread owning `model`/`cluster` and serving
    /// `plan` until shut down or warm-swapped.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when the request's config has
    /// violations (the PA401 conditions), or when the request is armed
    /// with [`ServeRequest::with_adaptive`] — serve that with
    /// [`spawn_adaptive`](Self::spawn_adaptive).
    pub fn spawn(
        model: Model,
        cluster: Cluster,
        params: CostParams,
        plan: Plan,
        request: &ServeRequest,
    ) -> Result<ServeHandle, ServeError> {
        request.config().validated()?;
        if request.adaptive().is_some() {
            let violations = vec!["armed request: serve it with spawn_adaptive".to_owned()];
            return Err(ServeError::InvalidConfig { violations });
        }
        Ok(Self::spawn_on(model, cluster, params, plan, None, request))
    }

    /// Spawns a *self-re-planning* server over the fleet frontier armed
    /// via [`ServeRequest::with_adaptive`]: serving starts on the
    /// frontier's cheapest entry, every admission feeds the hysteresis
    /// kernel's λ estimator, and when the kernel decides to switch, the
    /// server drains the pipeline at the next batch boundary, audits
    /// the switch pair (PA305–PA307), and resumes under the new plan —
    /// no task is dropped across the swap. Manual [`swap`](Self::swap)
    /// requests still work and go through the same gate.
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
        let (kernel, frontier) = adaptive.unzip();
        let state = Arc::new(ServeState::new(request, model.input_shape(), kernel));
        // Depth 1: a full channel already holds a wake-up the server has
        // not yet taken.
        let (wake, woken) = sync_channel(1);
        let thread_state = Arc::clone(&state);
        let (seed, backend) = (request.engine_seed(), request.backend());
        let thread = std::thread::spawn(move || {
            let engine = Engine::with_seed(&model, seed).with_backend(backend);
            let deployment = Deployment {
                model: &model,
                cluster: &cluster,
                params: &params,
                engine: &engine,
                rec: thread_state.rec.clone(),
            };
            serve_live(&deployment, &thread_state, plan, frontier.as_deref(), woken)
        });
        ServeHandle {
            state,
            wake,
            thread: Some(thread),
        }
    }

    /// Offers one task for `tenant`. Admission is decided immediately:
    /// a typed rejection ([`ServeError::QueueFull`] /
    /// [`ServeError::TenantOverBudget`], or [`ServeError::BadInput`]
    /// for a tensor not shaped like the model's input) surfaces to the
    /// caller; on admission the returned ticket resolves to the output
    /// once the task's micro-batch completes.
    pub fn submit(&self, tenant: usize, input: Tensor) -> Result<ServeTicket, ServeError> {
        let rx = self.state.admit(tenant, input)?;
        self.nudge()?;
        Ok(ServeTicket { rx })
    }

    /// Requests a warm swap to `plan`: at the next batch boundary the
    /// server drains the current pipeline (no admitted task is
    /// dropped), audits the switch pair (PA305–PA307), and either swaps
    /// or keeps serving on the old plan. Blocks until the verdict.
    ///
    /// # Errors
    ///
    /// [`ServeError::SwapRejected`] with the audit errors, or
    /// [`ServeError::Closed`] if the server is gone.
    pub fn swap(&self, plan: Plan) -> Result<(), ServeError> {
        let rx = self.state.request_swap(plan)?;
        self.nudge()?;
        rx.recv().map_err(|_| ServeError::Closed)?
    }

    /// Stops intake, drains every queued task through the pipeline,
    /// and returns the final accounting.
    pub fn shutdown(mut self) -> Result<ServeOutcome, ServeError> {
        self.state.close();
        let _ = self.nudge();
        match self.thread.take() {
            Some(handle) => handle.join().map_err(|_| ServeError::Closed)?,
            None => Err(ServeError::Closed),
        }
    }

    /// Wakes the server after a change to the shared state. A full
    /// channel drops the nudge without losing the wake-up: the change
    /// was made under the lock *before* this `try_send`, and "full"
    /// means a wake-up the server has not yet taken is still ahead; the
    /// server looks at the state after taking it.
    fn nudge(&self) -> Result<(), ServeError> {
        match self.wake.try_send(()) {
            Ok(()) | Err(TrySendError::Full(())) => Ok(()),
            Err(TrySendError::Disconnected(())) => Err(ServeError::Closed),
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        if let Some(handle) = self.thread.take() {
            self.state.close();
            let _ = self.nudge();
            let _ = handle.join();
        }
    }
}

/// The live [`BatchServer`]: the clock is wall time, the intake
/// and switches sit behind the state's one lock, and an idle server
/// blocks on the bounded wake-up channel.
struct Live<'s> {
    state: &'s ServeState,
    woken: Receiver<()>,
}

impl BatchServer for Live<'_> {
    type Task = QueuedTask;
    type Switches = Switches<'static>;

    fn wait(&mut self, _rec: &Recorder) -> Option<f64> {
        let desk = self.state.lock();
        if desk.intake.ledger().total_queued() == 0 {
            if !desk.open {
                return None;
            }
            drop(desk);
            // Anything that changes the state after the look above
            // nudges, so this returns for it (see `ServeHandle::nudge`).
            self.woken.recv().ok()?;
        }
        Some(self.state.now())
    }

    fn with<R>(
        &mut self,
        f: impl FnOnce(&mut Intake<QueuedTask>, &mut Switches<'static>) -> R,
    ) -> R {
        let mut desk = self.state.lock();
        let desk = &mut *desk;
        f(&mut desk.intake, &mut desk.switches)
    }
}

/// The server thread's body: the epoch loop over [`Live`] until
/// intake is closed and drained. After a pipeline failure every queued
/// ticket gets the error.
fn serve_live(
    deployment: &Deployment<'_>,
    state: &ServeState,
    plan: Plan,
    frontier: Option<&FleetFrontier>,
    woken: Receiver<()>,
) -> Result<ServeOutcome, ServeError> {
    let initial = (deployment.profile(&plan), Cow::Owned(plan));
    let execute = |sess: &mut ExecutionSession, batch: Vec<(usize, QueuedTask)>, _| {
        // Inputs move into the pipeline; what stays behind answers the
        // tickets, on success or failure.
        let (inputs, replies): (Vec<Tensor>, Vec<_>) = batch
            .into_iter()
            .map(|(_, task)| (task.input, task.reply))
            .unzip();
        match sess.submit_owned(inputs) {
            Ok(outputs) => Ok(move || {
                for (reply, output) in replies.into_iter().zip(outputs) {
                    let _ = reply.try_send(Ok(output));
                }
            }),
            Err(e) => {
                for reply in replies {
                    let _ = reply.try_send(Err(ServeError::Runtime(e.clone())));
                }
                Err(e)
            }
        }
    };
    let mut live = Live { state, woken };
    let run = serve(&mut live, deployment, frontier, initial, execute);
    match run {
        Ok(run) => Ok(ServeOutcome {
            per_tenant: state.lock().intake.ledger().stats(),
            batches: run.batches,
            swaps: run.swaps,
            epochs: run.epochs,
        }),
        Err(e) => {
            // Stop intake, answer every queued ticket, and drop pending
            // swaps (their callers see `Closed`).
            let mut desk = state.lock();
            desk.open = false;
            for task in desk.intake.abandon() {
                let _ = task.reply.try_send(Err(e.clone()));
            }
            desk.switches.scripted.clear();
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fleet_frontier, ReplanPolicy, TenantPolicy};
    use pico_model::{zoo, Shape};
    use pico_sim::{ServeSim, ServiceProfile};
    use pico_telemetry::clock::wall_now;
    use pico_telemetry::names;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    fn deployment() -> (Model, Cluster, CostParams, Arc<FleetFrontier>) {
        let model = zoo::mnist_toy();
        let cluster = Cluster::pi_cluster(4, 1.0);
        let params = CostParams::wifi_50mbps();
        let frontier = fleet_frontier(&model, &cluster, &params, &Recorder::noop()).unwrap();
        (model, cluster, params, frontier)
    }

    /// The frontier's cheapest plan and the plan it may warm-swap to.
    fn swap_pair(frontier: &FleetFrontier) -> (Plan, Plan) {
        let from = frontier.cheapest();
        let to = frontier
            .swap_target(from)
            .expect("mnist_toy x pi4 has a switchable pair");
        let plan = |i: usize| frontier.entries()[i].plan.clone();
        (plan(from), plan(to))
    }

    /// Runs the live server's body on the calling thread over `state`,
    /// which the caller has already filled and closed: no thread and no
    /// wake-up in the way.
    fn serve_here(model: &Model, state: &ServeState, plan: Plan, seed: u64) -> ServeOutcome {
        let (cluster, params) = (Cluster::pi_cluster(4, 1.0), CostParams::wifi_50mbps());
        let engine = Engine::with_seed(model, seed);
        let deployment = Deployment {
            model,
            cluster: &cluster,
            params: &params,
            engine: &engine,
            rec: state.rec.clone(),
        };
        let (_wake, woken) = sync_channel(1);
        serve_live(&deployment, state, plan, None, woken).unwrap()
    }

    fn recorded(rec: &Recorder, name: &str) -> Vec<f64> {
        let events = rec.snapshot();
        events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.value)
            .collect()
    }

    /// The feeding rule itself, with no thread and no clock in the way:
    /// three admissions too close together to lower the target from its
    /// maximum, one pass of the loop, one batch of three — and the
    /// mirror takes the same batch from the same arrivals.
    #[test]
    fn the_loop_takes_what_is_queued_without_waiting_for_the_target() {
        let (model, _, _, frontier) = deployment();
        let plan = frontier.entries()[frontier.cheapest()].plan.clone();
        let engine = Engine::with_seed(&model, 3);
        let rec = Recorder::in_memory();
        let request = ServeRequest::new()
            .with_tenants(vec![TenantPolicy::default(); 2])
            .with_recorder(rec.clone());
        let state = ServeState::new(&request, model.input_shape(), None);

        let inputs: Vec<Tensor> = (0..3)
            .map(|k| Tensor::random(model.input_shape(), 40 + k))
            .collect();
        let tickets: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(k, input)| state.admit(k % 2, input.clone()).unwrap())
            .collect();
        let target = state.lock().intake.batcher().target();
        assert_eq!(target, 8, "back-to-back admits leave the target at max");
        state.close();
        let outcome = serve_here(&model, &state, plan, 3);

        let completed: u64 = outcome.per_tenant.iter().map(|t| t.completed).sum();
        assert_eq!((outcome.batches, completed), (1, 3));
        assert_eq!(recorded(&rec, names::BATCH_FORMED), [3.0]);
        for (ticket, input) in tickets.into_iter().zip(&inputs) {
            let out = ticket.try_recv().expect("the loop resolved every ticket");
            assert_eq!(out.unwrap().data(), engine.infer(input).unwrap().data());
        }
        let desk = state.lock();
        let ledger = desk.intake.ledger();
        assert_eq!(ledger.total_queued(), 0);
        assert_eq!(ledger.in_flight(0) + ledger.in_flight(1), 0);
        drop(desk);

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

    /// A swap requested with a backlog queued is taken at the very first
    /// batch boundary — the epoch it ends served nothing — and the whole
    /// backlog is served, bit-exactly, under the new plan.
    #[test]
    fn a_staged_swap_lands_at_the_first_batch_boundary() {
        let (model, _, _, frontier) = deployment();
        let (plan, next) = swap_pair(&frontier);
        let engine = Engine::with_seed(&model, 6);
        let rec = Recorder::in_memory();
        let request = ServeRequest::new().with_recorder(rec.clone());
        let state = ServeState::new(&request, model.input_shape(), None);
        let inputs: Vec<Tensor> = (0..16)
            .map(|k| Tensor::random(model.input_shape(), 60 + k))
            .collect();
        let tickets: Vec<_> = inputs
            .iter()
            .map(|input| state.admit(0, input.clone()).unwrap())
            .collect();
        let verdict = state.request_swap(next).unwrap();
        state.close();
        let outcome = serve_here(&model, &state, plan, 6);

        assert_eq!(verdict.try_recv().unwrap(), Ok(()));
        assert_eq!(recorded(&rec, names::SWAP_DRAINED), [0.0]);
        assert_eq!((outcome.swaps, outcome.epochs), (1, 2));
        for (ticket, input) in tickets.into_iter().zip(&inputs) {
            let out = ticket
                .try_recv()
                .expect("the second epoch served the backlog");
            assert_eq!(out.unwrap().data(), engine.infer(input).unwrap().data());
        }
        let stat = outcome.per_tenant[0];
        assert_eq!((stat.admitted, stat.completed, stat.rejected), (16, 16, 0));
    }

    /// A switch staged in the kernel is committed at the batch boundary
    /// the very next admit's nudge opens — nothing polls for it.
    #[test]
    fn armed_server_commits_a_staged_switch_on_the_next_nudge() {
        let (model, cluster, params, frontier) = deployment();
        let to = frontier
            .swap_target(frontier.cheapest())
            .expect("mnist_toy x pi4 has a switchable pair");
        let request =
            ServeRequest::new().with_adaptive(Arc::clone(&frontier), ReplanPolicy::default());
        let handle = ServeHandle::spawn_adaptive(model.clone(), cluster, params, &request).unwrap();
        if let Some(kernel) = &mut handle.state.lock().switches.kernel {
            kernel.propose(to, 0.0);
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

    /// A warm swap under closed-loop load — 16 requests outstanding over
    /// two tenants, so the queues never run dry — returns while the load
    /// is still running, not once it stops.
    #[test]
    fn a_swap_under_closed_loop_load_does_not_wait_for_the_load_to_stop() {
        let (model, cluster, params, frontier) = deployment();
        let (plan, next) = swap_pair(&frontier);
        let request = ServeRequest::new()
            .with_tenants(vec![TenantPolicy::default(); 2])
            .with_engine_seed(2);
        let handle = ServeHandle::spawn(model.clone(), cluster, params, plan, &request).unwrap();
        let input = Tensor::random(model.input_shape(), 9);
        let expect = Engine::with_seed(&model, 2).infer(&input).unwrap();
        let swapped = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let load = scope.spawn(|| {
                let deadline = wall_now() + Duration::from_secs(10);
                let mut pending = VecDeque::new();
                let mut k = 0usize;
                let stopped_by_swap = loop {
                    if swapped.load(Ordering::Acquire) {
                        break true;
                    }
                    if wall_now() >= deadline {
                        break false;
                    }
                    while pending.len() < 16 {
                        pending.push_back(handle.submit(k % 2, input.clone()).unwrap());
                        k += 1;
                    }
                    let ticket: ServeTicket = pending.pop_front().unwrap();
                    assert_eq!(ticket.wait().unwrap().data(), expect.data());
                };
                for ticket in pending {
                    assert_eq!(ticket.wait().unwrap().data(), expect.data());
                }
                stopped_by_swap
            });
            std::thread::sleep(Duration::from_millis(100));
            handle.swap(next).unwrap();
            swapped.store(true, Ordering::Release);
            assert!(
                load.join().unwrap(),
                "the swap returned only after the load generator gave up"
            );
        });
        let outcome = handle.shutdown().unwrap();
        assert_eq!((outcome.swaps, outcome.epochs), (1, 2));
        for t in &outcome.per_tenant {
            assert_eq!((t.completed, t.rejected), (t.admitted, 0));
        }
    }

    /// A tensor of the wrong shape is refused at `submit`, before the
    /// ledger sees it, and the batch it would have poisoned is served.
    #[test]
    fn a_malformed_input_is_refused_at_submit_and_harms_no_tenant() {
        let (model, cluster, params, frontier) = deployment();
        let (plan, _) = swap_pair(&frontier);
        let request = ServeRequest::new()
            .with_tenants(vec![TenantPolicy::default(); 2])
            .with_engine_seed(4);
        let handle = ServeHandle::spawn(model.clone(), cluster, params, plan, &request).unwrap();
        let input = Tensor::random(model.input_shape(), 10);
        let expect = Engine::with_seed(&model, 4).infer(&input).unwrap();

        let first = handle.submit(0, input.clone()).unwrap();
        match handle.submit(1, Tensor::random(Shape::new(1, 3, 3), 11)) {
            Err(ServeError::BadInput { tenant: 1, detail }) => assert!(detail.contains("1x3x3")),
            Err(other) => panic!("expected BadInput, got {other:?}"),
            Ok(_) => panic!("expected BadInput, got a ticket"),
        }
        let second = handle.submit(0, input).unwrap();
        assert_eq!(first.wait().unwrap().data(), expect.data());
        assert_eq!(second.wait().unwrap().data(), expect.data());
        let outcome = handle.shutdown().unwrap();
        for t in &outcome.per_tenant {
            assert_eq!((t.completed, t.rejected), (t.admitted, 0));
        }
        assert_eq!(outcome.per_tenant[0].admitted, 2);
        assert_eq!(outcome.per_tenant[1].admitted, 0);
    }

    /// The request decides how it is served: a fixed-plan spawn refuses
    /// an armed request rather than ignore its frontier.
    #[test]
    fn fixed_plan_spawn_refuses_an_armed_request() {
        let (model, cluster, params, frontier) = deployment();
        let (plan, _) = swap_pair(&frontier);
        let armed = ServeRequest::new().with_adaptive(frontier, ReplanPolicy::default());
        match ServeHandle::spawn(model, cluster, params, plan, &armed) {
            Err(ServeError::InvalidConfig { violations }) => {
                assert!(violations.iter().any(|v| v.contains("spawn_adaptive")));
            }
            Err(other) => panic!("expected InvalidConfig, got {other:?}"),
            Ok(_) => panic!("expected InvalidConfig, got a handle"),
        }
    }
}
