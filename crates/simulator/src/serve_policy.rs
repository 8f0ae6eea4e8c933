//! Serving-policy primitives shared by the live `pico-serve` front-end
//! and every virtual-time driver.
//!
//! The serving layer makes three decisions — admit or reject a task,
//! how many queued tasks to batch into the pipeline, and when a tenant
//! has exhausted its budget — and APICO (Sec. IV-C) adds a fourth: when
//! to switch plans. All four live here, once:
//!
//! * [`BatchPolicy`] / [`AdaptiveBatcher`] — micro-batch sizing from an
//!   EWMA of observed inter-arrival gaps (the same Eq. 15 smoothing the
//!   APICO switcher uses for λ);
//! * [`TenantPolicy`] / [`AdmissionLedger`] — per-tenant bounded queues
//!   and in-flight budgets with typed [`RejectReason`]s, plus the
//!   round-robin batch composition every server uses;
//! * [`Intake`] — the ledger, the batcher and the per-tenant FIFOs as
//!   one value, with the one admission function;
//! * [`BatchServer`] — the batch-server recurrence itself, the only
//!   serving loop: honour a due switch at the batch boundary, compose,
//!   and price the batch at `latency + (B − 1) · period`. Each
//!   implementor supplies its clock, how arrivals arrive and an idle
//!   server waits, and a [`SwitchSource`]; [`TraceServer`] is the
//!   virtual-time one, the live server in `pico-serve` the wall-clock
//!   one;
//! * [`ServeSim`] — the loop with price-only execution and at most one
//!   scripted swap.

use std::collections::VecDeque;
use std::convert::Infallible;

use pico_telemetry::{names, Ctx, Recorder};

use crate::InterArrivalEstimator;

/// Knobs for adaptive micro-batching.
///
/// The batcher targets a batch that fills roughly `target_delay`
/// seconds of arrivals: with smoothed inter-arrival gap `g`, the target
/// batch is `clamp(target_delay / g, min_batch, max_batch)`. Under
/// light load the gap is large and batches shrink to `min_batch`
/// (latency-biased); under bursts the gap collapses and batches grow
/// toward `max_batch` (throughput-biased).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Smallest batch ever submitted (≥ 1).
    pub min_batch: usize,
    /// Largest batch ever submitted (≥ `min_batch`).
    pub max_batch: usize,
    /// Seconds of arrivals one batch should absorb (> 0).
    pub target_delay: f64,
    /// EWMA smoothing factor for the inter-arrival gap, in `(0, 1]`.
    pub beta: f64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            min_batch: 1,
            max_batch: 8,
            target_delay: 0.05,
            beta: 0.3,
        }
    }
}

impl BatchPolicy {
    /// Every way this policy is malformed, as human-readable sentences
    /// (empty when valid). The serve front-end maps a non-empty list to
    /// audit code `PA401`.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.min_batch == 0 {
            v.push("min_batch must be at least 1".to_owned());
        }
        if self.max_batch < self.min_batch {
            v.push(format!(
                "max_batch ({}) is below min_batch ({})",
                self.max_batch, self.min_batch
            ));
        }
        if !(self.target_delay > 0.0 && self.target_delay.is_finite()) {
            v.push(format!(
                "target_delay ({}) must be positive and finite",
                self.target_delay
            ));
        }
        if !(self.beta > 0.0 && self.beta <= 1.0) {
            v.push(format!("beta ({}) must be in (0, 1]", self.beta));
        }
        v
    }
}

/// Chooses the batch size from observed arrivals.
///
/// Feed every *admitted* arrival's timestamp through
/// [`observe_arrival`](Self::observe_arrival); read the current target
/// with [`target`](Self::target). Timestamps are caller-supplied
/// virtual times, so replays are bit-reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveBatcher {
    policy: BatchPolicy,
    estimator: InterArrivalEstimator,
}

impl AdaptiveBatcher {
    /// Creates a batcher for `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the policy has [`violations`](BatchPolicy::violations).
    pub fn new(policy: BatchPolicy) -> Self {
        let violations = policy.violations();
        assert!(violations.is_empty(), "invalid BatchPolicy: {violations:?}");
        AdaptiveBatcher {
            policy,
            estimator: InterArrivalEstimator::new(policy.beta),
        }
    }

    /// Records an admitted arrival at absolute time `t` (non-decreasing
    /// across calls) and folds the inter-arrival gap into the EWMA.
    pub fn observe_arrival(&mut self, t: f64) {
        self.estimator.observe_arrival(t);
    }

    /// The current target batch size. Before two arrivals have been
    /// observed there is no gap estimate and the target is `min_batch`.
    pub fn target(&self) -> usize {
        let Some(gap) = self.estimator.smoothed_gap() else {
            return self.policy.min_batch;
        };
        if gap <= 0.0 {
            return self.policy.max_batch;
        }
        let raw = (self.policy.target_delay / gap).round() as usize;
        raw.clamp(self.policy.min_batch, self.policy.max_batch)
    }

    /// The smoothed inter-arrival gap in seconds, if one exists yet.
    pub fn smoothed_gap(&self) -> Option<f64> {
        self.estimator.smoothed_gap()
    }

    /// The underlying shared gap estimator — the same λ signal the
    /// fleet re-planning kernel consumes.
    pub fn estimator(&self) -> &InterArrivalEstimator {
        &self.estimator
    }
}

/// Per-tenant admission limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Most tasks a tenant may have *queued* (waiting, not yet batched).
    pub queue_capacity: usize,
    /// Most tasks a tenant may have admitted-but-incomplete (queued
    /// plus in a batch currently executing).
    pub in_flight_budget: usize,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            queue_capacity: 16,
            in_flight_budget: 32,
        }
    }
}

impl TenantPolicy {
    /// Malformed-policy sentences (empty when valid); maps to `PA401`.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.queue_capacity == 0 {
            v.push("queue_capacity must be at least 1".to_owned());
        }
        if self.in_flight_budget == 0 {
            v.push("in_flight_budget must be at least 1".to_owned());
        }
        v
    }

    /// True when the in-flight budget can never bind: at most
    /// `queue_capacity + max_batch` tasks can be admitted-but-incomplete
    /// at once, so a budget at or above that bound is dead
    /// configuration. The serve front-end maps this to warning `PA402`.
    pub fn budget_shadowed(&self, max_batch: usize) -> bool {
        self.in_flight_budget >= self.queue_capacity + max_batch
    }
}

/// Why a submission was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's queue already holds `capacity` waiting tasks.
    QueueFull {
        /// The bound that was hit.
        capacity: usize,
    },
    /// Admitting would push the tenant past its in-flight budget.
    OverBudget {
        /// The bound that was hit.
        budget: usize,
    },
}

#[derive(Debug, Clone, Copy, Default)]
struct TenantAccount {
    queued: usize,
    in_flight: usize,
    stat: TenantServeStat,
}

/// Bookkeeping for admission control: one account per tenant, held by
/// every [`Intake`].
#[derive(Debug, Clone)]
pub struct AdmissionLedger {
    policies: Vec<TenantPolicy>,
    accounts: Vec<TenantAccount>,
    /// Where the next batch's round-robin composition resumes.
    cursor: usize,
}

impl AdmissionLedger {
    /// Creates a ledger with one account per entry of `policies`.
    ///
    /// # Panics
    ///
    /// Panics if `policies` is empty or any policy has violations.
    pub fn new(policies: Vec<TenantPolicy>) -> Self {
        assert!(!policies.is_empty(), "need at least one tenant");
        for (i, p) in policies.iter().enumerate() {
            let violations = p.violations();
            assert!(
                violations.is_empty(),
                "invalid TenantPolicy for tenant {i}: {violations:?}"
            );
        }
        let accounts = vec![TenantAccount::default(); policies.len()];
        AdmissionLedger {
            policies,
            accounts,
            cursor: 0,
        }
    }

    /// Offers one task for `tenant`. On admission returns the queue
    /// depth *after* enqueueing; on rejection returns why and charges
    /// the rejection counter.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range — the caller owns tenant-id
    /// validation (`ServeError::UnknownTenant` in the front-end).
    pub fn offer(&mut self, tenant: usize) -> Result<usize, RejectReason> {
        let policy = self.policies[tenant];
        let acct = &mut self.accounts[tenant];
        if acct.queued >= policy.queue_capacity {
            acct.stat.rejected += 1;
            return Err(RejectReason::QueueFull {
                capacity: policy.queue_capacity,
            });
        }
        if acct.queued + acct.in_flight >= policy.in_flight_budget {
            acct.stat.rejected += 1;
            return Err(RejectReason::OverBudget {
                budget: policy.in_flight_budget,
            });
        }
        acct.queued += 1;
        acct.stat.admitted += 1;
        Ok(acct.queued)
    }

    /// Moves `n` of `tenant`'s queued tasks into a forming batch.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` tasks are queued.
    pub fn take(&mut self, tenant: usize, n: usize) {
        let acct = &mut self.accounts[tenant];
        assert!(acct.queued >= n, "take({n}) exceeds queued {}", acct.queued);
        acct.queued -= n;
        acct.in_flight += n;
    }

    /// Composes the next batch: moves up to `want` queued tasks (fewer
    /// when fewer are queued) into flight, one per tenant in round-robin
    /// order, resuming where the previous batch left off so no tenant
    /// is starved. Returns the owning tenant of each batch slot; the
    /// caller pops that tenant's own FIFO once per slot.
    pub fn compose(&mut self, want: usize) -> Vec<usize> {
        let want = want.min(self.total_queued());
        let mut order = Vec::with_capacity(want);
        while order.len() < want {
            let tenant = self.cursor % self.accounts.len();
            self.cursor += 1;
            if self.accounts[tenant].queued > 0 {
                self.take(tenant, 1);
                order.push(tenant);
            }
        }
        order
    }

    /// Retires `n` of `tenant`'s in-flight tasks as completed.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` tasks are in flight.
    pub fn complete(&mut self, tenant: usize, n: usize) {
        let acct = &mut self.accounts[tenant];
        assert!(
            acct.in_flight >= n,
            "complete({n}) exceeds in-flight {}",
            acct.in_flight
        );
        acct.in_flight -= n;
        acct.stat.completed += n as u64;
    }

    /// Tasks currently queued for `tenant`.
    pub fn queued(&self, tenant: usize) -> usize {
        self.accounts[tenant].queued
    }

    /// Tasks currently in flight for `tenant`.
    pub fn in_flight(&self, tenant: usize) -> usize {
        self.accounts[tenant].in_flight
    }

    /// Tasks queued across all tenants.
    pub fn total_queued(&self) -> usize {
        self.accounts.iter().map(|a| a.queued).sum()
    }

    /// Admission/completion counts per tenant, indexed by tenant id.
    pub fn stats(&self) -> Vec<TenantServeStat> {
        self.accounts.iter().map(|a| a.stat).collect()
    }
}

/// What one serving epoch's pipeline costs: a batch of `B` tasks
/// occupies the server for `latency + (B − 1) · period` seconds (first
/// task traverses all stages, then the pipeline emits one task per
/// period).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceProfile {
    /// Single-task pipeline traversal time (Eq. 11).
    pub latency: f64,
    /// Steady-state inter-completion time (Eq. 10).
    pub period: f64,
}

impl ServiceProfile {
    /// Time to serve a batch of `batch` tasks.
    pub fn batch_time(&self, batch: usize) -> f64 {
        assert!(batch > 0, "batch must be non-empty");
        self.latency + (batch - 1) as f64 * self.period
    }
}

/// Per-tenant outcome counts, as the [`AdmissionLedger`] keeps them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantServeStat {
    /// Tasks admitted into the queue.
    pub admitted: u64,
    /// Tasks rejected (queue full or over budget).
    pub rejected: u64,
    /// Tasks served to completion.
    pub completed: u64,
}

/// Aggregate result of a [`ServeSim`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSimReport {
    /// One row per tenant, indexed by tenant id.
    pub per_tenant: Vec<TenantServeStat>,
    /// Size of every batch submitted, in submission order.
    pub batch_sizes: Vec<usize>,
    /// Mean sojourn (arrival → batch completion) over completed tasks.
    pub mean_sojourn: f64,
    /// Virtual time the last batch completed (0 when nothing ran).
    pub makespan: f64,
    /// Plan swaps performed mid-run.
    pub swaps: u64,
}

impl ServeSimReport {
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

    /// Tasks completed across all tenants.
    pub fn completed(&self) -> u64 {
        self.per_tenant.iter().map(|t| t.completed).sum()
    }

    /// Tasks rejected across all tenants.
    pub fn rejected(&self) -> u64 {
        self.per_tenant.iter().map(|t| t.rejected).sum()
    }
}

/// Where plan switches come from: a queue of scripted requests, or the
/// re-planning kernel ([`crate::ReplanKernel`]). Every
/// [`BatchServer`] names one.
pub trait SwitchSource {
    /// What a due switch hands back: enough to name the target plan.
    type Switch;

    /// Sees every admitted arrival's timestamp — the λ signal.
    fn admitted(&mut self, _t: f64, _rec: &Recorder) {}

    /// The switch to honour before the batch starting at `start` forms.
    fn due(&mut self, start: f64) -> Option<Self::Switch>;
}

/// Scripted swap requests, `(request time, target)` by ascending time;
/// empty serves under a fixed plan. A request comes due at the first
/// batch boundary at or after its time (the in-service batch finishes
/// first, like the live warm swap) and is consumed when reported.
impl<T> SwitchSource for VecDeque<(f64, T)> {
    type Switch = T;

    fn due(&mut self, start: f64) -> Option<T> {
        self.pop_front_if(|(at, _)| start >= *at)
            .map(|(_, target)| target)
    }
}

/// The executor of the simulation mirrors: the batch is only priced.
pub(crate) fn price_only(_: Vec<(usize, usize)>, _: f64) -> Result<fn(), Infallible> {
    Ok(|| {})
}

/// What admission and the serving loop share: the [`AdmissionLedger`],
/// the [`AdaptiveBatcher`] and one FIFO of tasks per tenant, kept in
/// step. A virtual-time server owns it; the live server keeps it behind
/// its one lock, where admission runs on the submitting thread.
#[derive(Debug)]
pub struct Intake<T> {
    ledger: AdmissionLedger,
    batcher: AdaptiveBatcher,
    queues: Vec<VecDeque<T>>,
}

impl<T> Intake<T> {
    /// An empty intake with one FIFO per entry of `tenants`.
    ///
    /// # Panics
    ///
    /// Panics when a policy has violations or `tenants` is empty.
    pub fn new(batch: BatchPolicy, tenants: Vec<TenantPolicy>) -> Self {
        Intake {
            queues: tenants.iter().map(|_| VecDeque::new()).collect(),
            ledger: AdmissionLedger::new(tenants),
            batcher: AdaptiveBatcher::new(batch),
        }
    }

    /// The one admission path: offers `task` for `tenant`, arrived at
    /// `t`. An admitted task joins its tenant's FIFO and feeds the
    /// batcher and `switches`; either verdict is recorded at `t` under
    /// `ctx`. Returns the queue depth after enqueueing, or why not.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn admit(
        &mut self,
        tenant: usize,
        task: T,
        t: f64,
        ctx: Ctx,
        switches: &mut impl SwitchSource,
        rec: &Recorder,
    ) -> Result<usize, RejectReason> {
        match self.ledger.offer(tenant) {
            Ok(depth) => {
                self.queues[tenant].push_back(task);
                self.batcher.observe_arrival(t);
                switches.admitted(t, rec);
                rec.instant_at(names::TASK_ADMITTED, ctx, t, depth as f64);
                Ok(depth)
            }
            Err(reason) => {
                let depth = self.ledger.queued(tenant);
                rec.instant_at(names::TASK_REJECTED, ctx, t, depth as f64);
                Err(reason)
            }
        }
    }

    /// The admission accounting.
    pub fn ledger(&self) -> &AdmissionLedger {
        &self.ledger
    }

    /// The batch sizer.
    pub fn batcher(&self) -> &AdaptiveBatcher {
        &self.batcher
    }

    /// Empties every FIFO without serving its tasks — the backlog of a
    /// server that stopped on a pipeline failure.
    pub fn abandon(&mut self) -> impl Iterator<Item = T> + '_ {
        self.queues.iter_mut().flat_map(|q| q.drain(..))
    }
}

/// The batch-server recurrence every server runs (paper
/// Sec. IV-C: estimate λ at admission, drain, switch scheme at the next
/// batch boundary): [`run_epoch`](Self::run_epoch), written once. An
/// implementor supplies only what differs: its clock, how arrivals reach
/// the [`Intake`] and how an idle server waits ([`wait`](Self::wait)),
/// where the intake and the [`SwitchSource`] live ([`with`](Self::with))
/// and what it keeps per batch ([`formed`](Self::formed)). State
/// persists across `run_epoch` calls, so a caller that swaps plans (and
/// pipelines) between epochs resumes exactly where it drained.
pub trait BatchServer {
    /// What a tenant FIFO holds for one admitted task.
    type Task;
    /// Where plan switches come from.
    type Switches: SwitchSource;

    /// Waits until work may be queued, admits what arrived by then, and
    /// returns that batch boundary's time; `None` once none will come.
    fn wait(&mut self, rec: &Recorder) -> Option<f64>;

    /// Runs `f` on the intake and the switch source.
    fn with<R>(&mut self, f: impl FnOnce(&mut Intake<Self::Task>, &mut Self::Switches) -> R) -> R;

    /// A batch formed and is priced to complete at `done_at`.
    fn formed(&mut self, _batch: &[(usize, Self::Task)], _done_at: f64) {}

    /// Serves under `profile` until nothing more will come (`None`) or
    /// a switch is due at a batch boundary (`Some`, with the boundary's
    /// time): the caller installs or refuses it and calls again. Each
    /// batch takes up to the batcher's target, round-robin across
    /// tenants, and is priced at `latency + (B − 1) · period`.
    /// `execute` runs it — `(tenant, task)` slots in composition order,
    /// and that price — and returns how to hand the results over, which
    /// runs once the ledger has retired the batch.
    ///
    /// # Errors
    ///
    /// The first error `execute` returns.
    fn run_epoch<D: FnOnce(), E>(
        &mut self,
        profile: ServiceProfile,
        rec: &Recorder,
        mut execute: impl FnMut(Vec<(usize, Self::Task)>, f64) -> Result<D, E>,
    ) -> Result<Option<Due<Self>>, E> {
        while let Some(start) = self.wait(rec) {
            // The one switching checkpoint: every server drains and
            // swaps here, so they agree on every switch's virtual time.
            let batch = self.with(|intake, switches| match switches.due(start) {
                Some(switch) => Err(switch),
                None => {
                    let order = intake.ledger.compose(intake.batcher.target());
                    let tasks = order.into_iter().map(|tenant| {
                        let task = intake.queues[tenant].pop_front();
                        (tenant, task.expect("ledger and queues agree"))
                    });
                    Ok(tasks.collect::<Vec<_>>())
                }
            });
            let batch = match batch {
                Err(switch) => return Ok(Some((switch, start))),
                // Woken with nothing queued (live): wait again.
                Ok(batch) if batch.is_empty() => continue,
                Ok(batch) => batch,
            };
            let size = batch.len();
            rec.observe_at(names::BATCH_FORMED, Ctx::default(), start, size as f64);
            let done_at = start + profile.batch_time(size);
            self.formed(&batch, done_at);
            let tenants: Vec<usize> = batch.iter().map(|&(tenant, _)| tenant).collect();
            let deliver = execute(batch, done_at)?;
            self.with(|intake, _| {
                for tenant in tenants {
                    intake.ledger.complete(tenant, 1);
                }
                deliver();
            });
        }
        Ok(None)
    }
}

/// A switch [`BatchServer::run_epoch`] found due, and the time of the
/// batch boundary it was due at.
pub type Due<B> = (<<B as BatchServer>::Switches as SwitchSource>::Switch, f64);

/// The virtual-time server: a [`BatchServer`] over a sorted arrival
/// trace. Its clock is when the server next falls idle; an idle server
/// jumps to the next arrival, and everything landing while a batch is
/// in service queues up (or is rejected) before the next one forms.
#[derive(Debug)]
pub struct TraceServer<'a, S> {
    arrivals: &'a [(f64, usize)],
    /// Admitted arrival indices per tenant, FIFO.
    intake: Intake<usize>,
    switches: S,
    /// Index of the next arrival not yet offered.
    next: usize,
    /// When the server next falls idle; the makespan once drained.
    free_at: f64,
    batch_sizes: Vec<usize>,
    rejections: Vec<(usize, usize, RejectReason)>,
    sojourn_sum: f64,
}

impl<'a, S> TraceServer<'a, S> {
    /// Creates an idle server at virtual time 0 over `arrivals` —
    /// `(time, tenant)` pairs sorted by time — switching per `switches`.
    ///
    /// # Panics
    ///
    /// Panics when a policy has violations, `tenants` is empty, or
    /// `arrivals` holds a non-finite time or is unsorted. An arrival
    /// naming an unknown tenant panics when it is offered.
    pub fn new(
        batch: BatchPolicy,
        tenants: Vec<TenantPolicy>,
        arrivals: &'a [(f64, usize)],
        switches: S,
    ) -> Self {
        assert!(
            arrivals.iter().all(|a| a.0.is_finite())
                && arrivals.windows(2).all(|w| w[0].0 <= w[1].0),
            "arrival times must be finite and sorted"
        );
        TraceServer {
            arrivals,
            intake: Intake::new(batch, tenants),
            switches,
            next: 0,
            free_at: 0.0,
            batch_sizes: Vec::new(),
            rejections: Vec::new(),
            sojourn_sum: 0.0,
        }
    }

    /// Rejected arrivals as `(arrival index, tenant, reason)`, in
    /// arrival order.
    pub fn rejections(&self) -> &[(usize, usize, RejectReason)] {
        &self.rejections
    }

    /// The run's aggregate result; the caller counted the `swaps` it
    /// installed.
    pub fn into_report(self, swaps: u64) -> ServeSimReport {
        // Nothing completed means nothing summed: 0 / 1.
        let completed: usize = self.batch_sizes.iter().sum();
        ServeSimReport {
            per_tenant: self.intake.ledger.stats(),
            mean_sojourn: self.sojourn_sum / completed.max(1) as f64,
            batch_sizes: self.batch_sizes,
            makespan: self.free_at,
            swaps,
        }
    }
}

impl<S: SwitchSource> BatchServer for TraceServer<'_, S> {
    type Task = usize;
    type Switches = S;

    fn wait(&mut self, rec: &Recorder) -> Option<f64> {
        if self.intake.ledger.total_queued() == 0 {
            let &(t, _) = self.arrivals.get(self.next)?;
            if self.free_at < t {
                self.free_at = t;
            }
        }
        while let Some(&(t, tenant)) = self.arrivals.get(self.next) {
            if t > self.free_at {
                break;
            }
            let seq = self.next;
            self.next += 1;
            let ctx = Ctx::tenant(tenant).for_task(seq);
            if let Err(reason) = self
                .intake
                .admit(tenant, seq, t, ctx, &mut self.switches, rec)
            {
                self.rejections.push((seq, tenant, reason));
            }
        }
        Some(self.free_at)
    }

    fn with<R>(&mut self, f: impl FnOnce(&mut Intake<usize>, &mut S) -> R) -> R {
        f(&mut self.intake, &mut self.switches)
    }

    fn formed(&mut self, batch: &[(usize, usize)], done_at: f64) {
        // Sojourns are summed tenant-major, as this mirror always has,
        // so `mean_sojourn` keeps its bits.
        let mut slots = batch.to_vec();
        slots.sort_by_key(|&(tenant, _)| tenant);
        for (_, seq) in slots {
            self.sojourn_sum += done_at - self.arrivals[seq].0;
        }
        self.batch_sizes.push(batch.len());
        self.free_at = done_at;
    }
}

/// Deterministic discrete-event mirror of the serving front-end: the
/// [`BatchServer`] loop over a [`TraceServer`] with price-only
/// execution and at most one scripted swap.
#[derive(Debug, Clone)]
pub struct ServeSim {
    pub(crate) batch: BatchPolicy,
    pub(crate) tenants: Vec<TenantPolicy>,
}

impl ServeSim {
    /// Creates a simulator over the given policies.
    ///
    /// # Panics
    ///
    /// Panics when any policy has violations or `tenants` is empty.
    pub fn new(batch: BatchPolicy, tenants: Vec<TenantPolicy>) -> Self {
        // Building an intake validates both policies.
        let _ = Intake::<usize>::new(batch, tenants.clone());
        ServeSim { batch, tenants }
    }

    /// Runs the mirror over `arrivals` — `(time, tenant)` pairs sorted
    /// by time — serving with `profile`. When `swap` is given, the
    /// first batch that would *start* at or after the swap time instead
    /// drains and every later batch is priced with the new profile.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` is unsorted, holds a non-finite time, or
    /// names an unknown tenant.
    pub fn run(
        &self,
        arrivals: &[(f64, usize)],
        profile: ServiceProfile,
        swap: Option<(f64, ServiceProfile)>,
    ) -> ServeSimReport {
        let swap: VecDeque<_> = swap.into_iter().collect();
        let mut server = TraceServer::new(self.batch, self.tenants.clone(), arrivals, swap);
        let (mut active, mut swaps) = (profile, 0);
        while let Ok(Some((next, _))) = server.run_epoch(active, &Recorder::noop(), price_only) {
            active = next;
            swaps += 1;
        }
        server.into_report(swaps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> ServiceProfile {
        ServiceProfile {
            latency: 0.1,
            period: 0.02,
        }
    }

    #[test]
    fn batcher_targets_min_under_light_load_and_max_under_burst() {
        let mut b = AdaptiveBatcher::new(BatchPolicy {
            min_batch: 1,
            max_batch: 8,
            target_delay: 0.05,
            beta: 0.5,
        });
        assert_eq!(b.target(), 1);
        // Sparse arrivals: 1-second gaps → target stays at min.
        for k in 0..5 {
            b.observe_arrival(k as f64);
        }
        assert_eq!(b.target(), 1);
        // Burst: 1 ms gaps → target saturates at max.
        for k in 0..50 {
            b.observe_arrival(5.0 + k as f64 * 0.001);
        }
        assert_eq!(b.target(), 8);
    }

    #[test]
    fn batcher_interpolates_between_bounds() {
        let mut b = AdaptiveBatcher::new(BatchPolicy {
            min_batch: 1,
            max_batch: 16,
            target_delay: 0.1,
            beta: 1.0, // track the newest gap exactly
        });
        b.observe_arrival(0.0);
        b.observe_arrival(0.025); // gap 25 ms → 0.1/0.025 = 4
        assert_eq!(b.target(), 4);
    }

    #[test]
    fn batcher_delegation_matches_legacy_inline_ewma() {
        // Regression for the estimator dedup: the batcher used to carry
        // its own (gap EWMA, last_arrival) pair; after delegating to the
        // shared InterArrivalEstimator its gaps and targets must be
        // bit-identical to the legacy inline algorithm.
        let policy = BatchPolicy {
            min_batch: 1,
            max_batch: 16,
            target_delay: 0.1,
            beta: 0.3,
        };
        let mut b = AdaptiveBatcher::new(policy);
        let mut legacy_gap = crate::Ewma::new(policy.beta);
        let mut legacy_last: Option<f64> = None;
        let times = [0.0, 0.2, 0.21, 0.21, 0.9, 0.95, 1.0, 3.0, 3.001];
        for &t in &times {
            b.observe_arrival(t);
            if let Some(prev) = legacy_last {
                legacy_gap.update((t - prev).max(0.0));
            }
            legacy_last = Some(t);
            let legacy_target = match legacy_gap.value() {
                None => policy.min_batch,
                Some(g) if g <= 0.0 => policy.max_batch,
                Some(g) => ((policy.target_delay / g).round() as usize)
                    .clamp(policy.min_batch, policy.max_batch),
            };
            assert_eq!(b.smoothed_gap(), legacy_gap.value());
            assert_eq!(b.target(), legacy_target);
            assert_eq!(b.estimator().last_arrival(), legacy_last);
        }
    }

    #[test]
    fn policy_violations_are_reported() {
        let bad = BatchPolicy {
            min_batch: 0,
            max_batch: 0,
            target_delay: 0.0,
            beta: 2.0,
        };
        assert_eq!(bad.violations().len(), 3); // max>=min holds when both 0
        assert!(BatchPolicy::default().violations().is_empty());
        assert!(TenantPolicy::default().violations().is_empty());
        assert_eq!(
            TenantPolicy {
                queue_capacity: 0,
                in_flight_budget: 0,
            }
            .violations()
            .len(),
            2
        );
    }

    #[test]
    fn budget_shadowing_detected() {
        let p = TenantPolicy {
            queue_capacity: 4,
            in_flight_budget: 12,
        };
        assert!(p.budget_shadowed(8)); // 12 >= 4 + 8
        assert!(!p.budget_shadowed(9));
    }

    #[test]
    fn ledger_rejects_exactly_at_bounds() {
        let mut l = AdmissionLedger::new(vec![TenantPolicy {
            queue_capacity: 2,
            in_flight_budget: 3,
        }]);
        assert_eq!(l.offer(0), Ok(1));
        assert_eq!(l.offer(0), Ok(2));
        assert_eq!(l.offer(0), Err(RejectReason::QueueFull { capacity: 2 }));
        // Drain the queue into a batch: queue frees, budget now binds.
        l.take(0, 2);
        assert_eq!(l.offer(0), Ok(1));
        assert_eq!(l.offer(0), Err(RejectReason::OverBudget { budget: 3 }));
        l.complete(0, 2);
        assert_eq!(l.offer(0), Ok(2));
        let stat = l.stats()[0];
        assert_eq!((stat.admitted, stat.rejected, stat.completed), (4, 2, 2));
    }

    #[test]
    fn steady_stream_completes_everything_without_rejection() {
        let sim = ServeSim::new(BatchPolicy::default(), vec![TenantPolicy::default(); 2]);
        let arrivals: Vec<(f64, usize)> = (0..40).map(|k| (k as f64 * 0.2, k % 2)).collect();
        let report = sim.run(&arrivals, profile(), None);
        assert_eq!(report.completed(), 40);
        assert_eq!(report.rejected(), 0);
        assert_eq!(report.per_tenant[0].completed, 20);
        assert_eq!(report.per_tenant[1].completed, 20);
        // The server is always idle when the next task lands, so every
        // sojourn is exactly one pipeline traversal (up to fp rounding
        // in the mean).
        assert!((report.mean_sojourn - profile().latency).abs() < 1e-9);
    }

    #[test]
    fn burst_grows_batches_and_overload_rejects_at_queue_bound() {
        // The batcher only observes *admitted* arrivals, so the queue
        // must be deep enough for a burst to actually reach the EWMA —
        // with a shallow queue, admissions are throttled to the service
        // rate and the gap estimate never collapses.
        let tenants = vec![TenantPolicy {
            queue_capacity: 32,
            in_flight_budget: 64,
        }];
        let sim = ServeSim::new(BatchPolicy::default(), tenants);
        // Quiet phase then a dense burst far faster than the server.
        let mut arrivals: Vec<(f64, usize)> = (0..5).map(|k| (k as f64, 0)).collect();
        arrivals.extend((0..200).map(|k| (10.0 + k as f64 * 0.001, 0)));
        let report = sim.run(&arrivals, profile(), None);
        // Quiet phase serves singletons; the burst fills batches.
        assert_eq!(report.batch_sizes[0], 1);
        assert!(report.max_batch() >= 4, "batches {:?}", report.batch_sizes);
        assert!(report.rejected() > 0);
        assert_eq!(
            report.completed() + report.rejected(),
            arrivals.len() as u64
        );
    }

    #[test]
    fn swap_drains_current_batch_and_switches_pricing() {
        let sim = ServeSim::new(
            BatchPolicy::default(),
            vec![TenantPolicy {
                queue_capacity: 64,
                in_flight_budget: 64,
            }],
        );
        let arrivals: Vec<(f64, usize)> = (0..30).map(|k| (k as f64 * 0.05, 0)).collect();
        let fast = ServiceProfile {
            latency: 0.05,
            period: 0.01,
        };
        let report = sim.run(&arrivals, profile(), Some((0.7, fast)));
        assert_eq!(report.swaps, 1);
        assert_eq!(report.completed(), 30);
        assert_eq!(report.rejected(), 0);
        let base = sim.run(&arrivals, profile(), None);
        // Swapping to a faster plan mid-run finishes no later.
        assert!(report.makespan <= base.makespan + 1e-9);
    }

    #[test]
    fn mirror_is_deterministic() {
        let sim = ServeSim::new(BatchPolicy::default(), vec![TenantPolicy::default(); 3]);
        let arrivals: Vec<(f64, usize)> = (0..60).map(|k| (k as f64 * 0.017, k % 3)).collect();
        let a = sim.run(&arrivals, profile(), None);
        let b = sim.run(&arrivals, profile(), None);
        assert_eq!(a, b);
    }
}
