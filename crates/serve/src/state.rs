use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, LockResult, Mutex, PoisonError};
use std::time::Instant;

use pico_fleet::FleetFrontier;
use pico_sim::{AdaptiveBatcher, AdmissionLedger, ReplanKernel, SwitchRecord, SwitchSource};
use pico_telemetry::{clock, names, Ctx, Recorder};
use pico_tensor::Tensor;

use crate::{ServeError, ServeRequest};

/// Enters a lock whether or not an earlier holder panicked: one
/// panicking submitter must not wedge the other tenants, nor keep
/// shutdown from reaching the queues to fail the tasks left in them.
pub(crate) fn enter<G>(guard: LockResult<G>) -> G {
    guard.unwrap_or_else(PoisonError::into_inner)
}

/// One admitted task waiting in a tenant queue: its input and the
/// channel its output (or failure) is delivered on.
pub(crate) struct QueuedTask {
    pub(crate) input: Tensor,
    pub(crate) reply: SyncSender<Result<Tensor, ServeError>>,
}

/// Intake state shared (via `Arc`) between every [`crate::ServeHandle`]
/// clone and the server thread: admission happens on the *caller's*
/// thread against this state, so backpressure is a synchronous typed
/// error, never a blocked submit.
pub struct ServeState {
    pub(crate) ledger: Mutex<AdmissionLedger>,
    pub(crate) batcher: Mutex<AdaptiveBatcher>,
    pub(crate) queues: Vec<Mutex<VecDeque<QueuedTask>>>,
    pub(crate) open: AtomicBool,
    pub(crate) rec: Recorder,
    pub(crate) started: Instant,
    /// Live re-planning: callers feed the shared hysteresis kernel on
    /// their own thread (inside [`ServeState::admit`]); the server
    /// thread commits the decision it stages at its next drain point,
    /// installing the plan of the frontier entry the kernel indexes.
    pub(crate) replan: Option<(Mutex<ReplanKernel>, Arc<FleetFrontier>)>,
}

impl ServeState {
    pub(crate) fn new(
        request: &ServeRequest,
        adaptive: Option<(ReplanKernel, Arc<FleetFrontier>)>,
    ) -> Self {
        let config = request.config();
        let queues = config
            .tenants
            .iter()
            .map(|_| Mutex::new(VecDeque::new()))
            .collect();
        ServeState {
            ledger: Mutex::new(AdmissionLedger::new(config.tenants.clone())),
            batcher: Mutex::new(AdaptiveBatcher::new(config.batch)),
            queues,
            open: AtomicBool::new(true),
            rec: request.recorder().clone(),
            started: clock::wall_now(),
            replan: adaptive.map(|(kernel, fleet)| (Mutex::new(kernel), fleet)),
        }
    }

    /// The switch decision the kernel holds that the server thread has
    /// not yet committed or rejected, if any.
    pub(crate) fn replan_due(&self) -> Option<SwitchRecord> {
        let (kernel, _) = self.replan.as_ref()?;
        enter(kernel.lock()).due(self.now())
    }

    /// Seconds since the front-end started — the telemetry timebase.
    pub(crate) fn now(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Admission on the caller's thread: typed rejection or a receiver
    /// for the eventual output. The ledger lock covers the queue push,
    /// so ledger counts and queue lengths can never disagree.
    pub(crate) fn admit(
        &self,
        tenant: usize,
        input: Tensor,
    ) -> Result<Receiver<Result<Tensor, ServeError>>, ServeError> {
        if !self.open.load(Ordering::Acquire) {
            return Err(ServeError::Closed);
        }
        if tenant >= self.queues.len() {
            return Err(ServeError::UnknownTenant {
                tenant,
                tenants: self.queues.len(),
            });
        }
        let t = self.now();
        let mut ledger = enter(self.ledger.lock());
        match ledger.offer(tenant) {
            Ok(depth) => {
                let (tx, rx) = sync_channel(1);
                enter(self.queues[tenant].lock()).push_back(QueuedTask { input, reply: tx });
                drop(ledger);
                enter(self.batcher.lock()).observe_arrival(t);
                if let Some((kernel, _)) = &self.replan {
                    enter(kernel.lock()).admitted(t, &self.rec);
                }
                self.rec
                    .instant_at(names::TASK_ADMITTED, Ctx::tenant(tenant), t, depth as f64);
                Ok(rx)
            }
            Err(reason) => {
                let depth = ledger.queued(tenant);
                drop(ledger);
                self.rec
                    .instant_at(names::TASK_REJECTED, Ctx::tenant(tenant), t, depth as f64);
                Err(ServeError::from_reject(tenant, reason))
            }
        }
    }
}
