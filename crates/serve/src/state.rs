use std::borrow::Cow;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{LockResult, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use pico_model::Shape;
use pico_partition::Plan;
use pico_sim::{Intake, ReplanKernel};
use pico_telemetry::{clock, Ctx, Recorder};
use pico_tensor::Tensor;

use crate::front::{Swap, Switches};
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

/// What the live server's one lock guards: the intake the loop composes
/// from, the switch source (manual swaps and, when armed, the kernel),
/// and whether intake is still open.
pub(crate) struct Desk {
    pub(crate) intake: Intake<QueuedTask>,
    pub(crate) switches: Switches<'static>,
    pub(crate) open: bool,
}

/// Intake state shared (via `Arc`) between a [`crate::ServeHandle`] and
/// its server thread: admission happens on the *caller's* thread
/// against this state, so backpressure is a synchronous typed error,
/// never a blocked submit.
pub(crate) struct ServeState {
    desk: Mutex<Desk>,
    tenants: usize,
    input_shape: Shape,
    pub(crate) rec: Recorder,
    started: Instant,
}

impl ServeState {
    pub(crate) fn new(
        request: &ServeRequest,
        input_shape: Shape,
        kernel: Option<ReplanKernel>,
    ) -> Self {
        let config = request.config();
        let desk = Desk {
            intake: Intake::new(config.batch, config.tenants.clone()),
            switches: Switches {
                scripted: Default::default(),
                kernel,
            },
            open: true,
        };
        ServeState {
            desk: Mutex::new(desk),
            tenants: config.tenants.len(),
            input_shape,
            rec: request.recorder().clone(),
            started: clock::wall_now(),
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Desk> {
        enter(self.desk.lock())
    }

    /// Seconds since the front-end started — the telemetry timebase.
    pub(crate) fn now(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Admission on the caller's thread: typed rejection or a receiver
    /// for the eventual output. The intake's one admission path runs
    /// under the lock, so ledger counts and queue lengths never
    /// disagree and arrival times reach the batcher in order.
    pub(crate) fn admit(
        &self,
        tenant: usize,
        input: Tensor,
    ) -> Result<Receiver<Result<Tensor, ServeError>>, ServeError> {
        let mut desk = self.lock();
        if !desk.open {
            return Err(ServeError::Closed);
        }
        if tenant >= self.tenants {
            let tenants = self.tenants;
            return Err(ServeError::UnknownTenant { tenant, tenants });
        }
        if input.shape() != self.input_shape {
            let detail = format!("expected {}, got {}", self.input_shape, input.shape());
            return Err(ServeError::BadInput { tenant, detail });
        }
        let (reply, rx) = sync_channel(1);
        let task = QueuedTask { input, reply };
        let Desk {
            intake, switches, ..
        } = &mut *desk;
        let t = self.now();
        intake
            .admit(tenant, task, t, Ctx::tenant(tenant), switches, &self.rec)
            .map(|_| rx)
            .map_err(|reason| ServeError::from_reject(tenant, reason))
    }

    /// Queues a warm swap to `plan` for the next batch boundary; the
    /// receiver hears the audit's verdict.
    pub(crate) fn request_swap(
        &self,
        plan: Plan,
    ) -> Result<Receiver<Result<(), ServeError>>, ServeError> {
        let mut desk = self.lock();
        if !desk.open {
            return Err(ServeError::Closed);
        }
        let (reply, rx) = sync_channel(1);
        let swap = Swap {
            plan: Cow::Owned(plan),
            reply: Some(reply),
        };
        desk.switches.scripted.push_back((self.now(), swap));
        Ok(rx)
    }

    /// Stops intake; the server drains what is queued, then exits.
    pub(crate) fn close(&self) {
        self.lock().open = false;
    }
}
