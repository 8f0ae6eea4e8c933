use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::time::{Duration, Instant};

#[cfg(test)]
use pico_model::Rows;
use pico_model::{Model, Region2, Segment};
use pico_partition::{PicoPlanner, Plan, PlanRequest, Planner};
use pico_telemetry::{names, Ctx, Recorder};
use pico_tensor::{Engine, Scratch, Tensor};

use crate::fault::{backoff, FailureRecord, RecoveryPolicy, MAX_RETRIES};
use crate::{RuntimeBuilder, RuntimeError, Throttle};

/// Completion record for one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskTiming {
    /// Task index (submission order).
    pub task: usize,
    /// Seconds from run start to this task's final stitch.
    pub completed_at: f64,
}

/// Measured behaviour of one stage over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageStat {
    /// Stage index.
    pub stage: usize,
    /// Tasks the stage processed.
    pub tasks: usize,
    /// Wall-clock seconds spent from scatter to stitch, summed over
    /// tasks (the stage's busy time; the bottleneck stage has the
    /// largest value).
    pub busy_secs: f64,
}

/// Outcome of a pipeline run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Final feature maps, in task order.
    pub outputs: Vec<Tensor>,
    /// Per-task completion times, in task order. Empty for session
    /// reports: a session keeps no per-task log (see
    /// [`ExecutionSession::completed`] for its count).
    pub timings: Vec<TaskTiming>,
    /// Per-stage busy accounting (ascending stage index).
    ///
    /// This is a *derived view* over the run's telemetry: each entry
    /// sums exactly the `(begin, end)` timestamp pairs that the stage's
    /// coordinator records as `stage_busy` spans, in the same order —
    /// so a trace recorded alongside the run reconciles with these
    /// numbers to the last bit (a property test in the workspace root
    /// asserts `==`, not approximate equality). After a degraded
    /// re-plan the stats keep accumulating by stage index, so the
    /// reconciliation holds across plan switches too.
    pub stage_stats: Vec<StageStat>,
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Device failures observed during the run (empty when nothing
    /// failed). A populated list alongside a full set of `outputs`
    /// means the run survived the outage.
    pub failures: Vec<FailureRecord>,
    /// The plan installed by the last degraded re-plan, when a stage
    /// lost every worker and the recovery policy re-planned over the
    /// surviving cluster. `None` when the original plan served the
    /// whole stream.
    pub degraded_plan: Option<Plan>,
}

impl RunReport {
    /// The stage that accumulated the most busy time — the measured
    /// pipeline bottleneck.
    pub fn bottleneck_stage(&self) -> Option<usize> {
        self.stage_stats
            .iter()
            .max_by(|a, b| a.busy_secs.total_cmp(&b.busy_secs))
            .map(|s| s.stage)
    }

    /// Completed tasks per wall-clock second of a
    /// [`run`](PipelineRuntime::run) report (a session report keeps no
    /// per-task log, so it reads zero), or `None` when the wall
    /// duration is zero (trivially small streams on coarse clocks): a
    /// rate over a zero-length window is undefined, and returning a
    /// sentinel `0.0` invites division at call sites.
    pub fn throughput(&self) -> Option<f64> {
        let secs = self.elapsed.as_secs_f64();
        (secs > 0.0).then(|| self.timings.len() as f64 / secs)
    }

    /// Mean busy seconds per task of the bottleneck stage — the
    /// measured pipeline period (Sec. III: period = max stage time).
    /// `None` when no stage processed a task.
    pub fn measured_period(&self) -> Option<f64> {
        self.stage_stats
            .iter()
            .filter(|s| s.tasks > 0)
            .map(|s| s.busy_secs / s.tasks as f64)
            .max_by(f64::total_cmp)
    }
}

/// Inter-stage queue depth used when
/// [`RuntimeBuilder::channel_capacity`](crate::RuntimeBuilder::channel_capacity)
/// is not set. Every queue in the runtime is bounded (an unbounded
/// queue under a sustained overload is an out-of-memory kill deferred,
/// not avoided — and `cargo xtask lint` rule 8 bans unbounded channels
/// here); this default is deep enough that well-provisioned streams
/// never feel the bound.
pub const DEFAULT_CHANNEL_CAPACITY: usize = 64;

/// A message flowing between stages: a task's feature map, or the error
/// that killed it.
type StageMsg = Result<(usize, Tensor), RuntimeError>;

/// A work order to a device worker: compute `shard` of `task` from the
/// given input tile. Any worker of a stage can serve any shard of that
/// stage, which is what lets a dead worker's shard be retried on a
/// survivor with the output regions — and therefore the stitched
/// result — unchanged.
struct WorkUnit {
    task: usize,
    shard: usize,
    tile: Tensor,
    /// The buffer of this worker's last shard output, back from the
    /// stitch for its scratch pool (empty when there is none).
    spare: Vec<f32>,
}

/// A worker's answer: which task and shard, the input tile's buffer
/// (for the coordinator's next scatter), and the computed tile or the
/// error that killed it.
struct DoneMsg {
    task: usize,
    shard: usize,
    tile: Vec<f32>,
    result: Result<Tensor, RuntimeError>,
}

/// The buffers a worker's last task left with its coordinator, parked
/// until that worker's next work unit. Holding at most one of each
/// bounds the ring: a survivor serving two shards of a task keeps one
/// and drops the other.
#[derive(Default)]
struct Slot {
    /// The last scatter tile's buffer, which the next tile is sliced
    /// into.
    tile: Vec<f32>,
    /// The last shard output's buffer, which rides back on the next
    /// work unit.
    spare: Vec<f32>,
}

/// One worker's precomputed share of a stage.
#[derive(Debug, Clone)]
struct WorkerSpec {
    device: usize,
    seg: Segment,
    /// Output region this worker produces (full-width for strips).
    out_region: Region2,
    /// Input region (of the stage's input map) this worker needs.
    in_region: Region2,
    /// FLOPs per task (for throttling and telemetry).
    flops: f64,
    /// Bytes moved per task (for throttling and telemetry).
    comm_bytes: usize,
}

/// Per-stage communication volumes, precomputed for telemetry.
#[derive(Debug, Clone, Copy)]
struct StageComm {
    /// Bytes scattered to workers per task (sum of input tiles).
    scatter_bytes: u64,
    /// Of those, bytes beyond the exact input map — halo redundancy.
    halo_bytes: u64,
    /// Bytes of the stitched output map per task.
    output_bytes: u64,
}

/// What a driven pipeline hands back once it has drained.
struct Drained {
    stage_stats: Vec<StageStat>,
    failures: Vec<FailureRecord>,
    dead_devices: Vec<usize>,
}

/// The per-stage serving loop — split, scatter, gather, stitch — plus
/// failure detection (worker errors and response timeouts) and shard
/// retry on surviving workers when a recovery policy is installed.
struct StageCoordinator<'p> {
    stage: usize,
    work_tx: Vec<SyncSender<WorkUnit>>,
    done_rx: Vec<Receiver<DoneMsg>>,
    in_regions: Vec<Region2>,
    devices: Vec<usize>,
    comm: StageComm,
    /// The stage's throttled transfer time per task (zero unthrottled).
    transfer: Duration,
    rec: Recorder,
    enabled: bool,
    start: Instant,
    recovery: Option<&'p RecoveryPolicy>,
    dead: Vec<bool>,
    failures: Vec<FailureRecord>,
    /// Per-worker parked buffers (see [`Slot`]).
    slots: Vec<Slot>,
    /// The task's gathered shard outputs, reused task after task, and
    /// the worker that computed each.
    tiles: Vec<Tensor>,
    owners: Vec<usize>,
    /// The buffer the next task's map is stitched into, allocated while
    /// the previous map was still here (see `serve`).
    next_map: Vec<f32>,
}

/// What a coordinator hands back through its join handle.
struct CoordOutcome {
    stat: StageStat,
    failures: Vec<FailureRecord>,
    dead_devices: Vec<usize>,
}

impl StageCoordinator<'_> {
    /// Classifies worker `w` as dead: records the failure and emits the
    /// `device_failed` instant. Idempotent per worker.
    fn mark_dead(&mut self, w: usize, task: usize, cause: String) {
        if self.dead[w] {
            return;
        }
        self.dead[w] = true;
        self.slots[w] = Slot::default();
        let device = self.devices[w];
        if self.enabled {
            self.rec.instant_at(
                names::DEVICE_FAILED,
                Ctx::stage(self.stage).on_device(device).for_task(task),
                self.start.elapsed().as_secs_f64(),
                0.0,
            );
        }
        self.failures.push(FailureRecord {
            device,
            stage: self.stage,
            task,
            cause,
        });
    }

    /// Slices shard `shard`'s input tile out of `fmap` into worker `w`'s
    /// parked tile buffer and sends it, with the worker's parked output
    /// buffer, as one work unit. `Ok(false)` when the worker's channel
    /// is closed.
    fn send_unit(
        &mut self,
        w: usize,
        task: usize,
        shard: usize,
        fmap: &Tensor,
    ) -> Result<bool, RuntimeError> {
        let slot = &mut self.slots[w];
        let tile =
            fmap.slice_region_into(self.in_regions[shard], std::mem::take(&mut slot.tile))?;
        let spare = std::mem::take(&mut slot.spare);
        let unit = WorkUnit {
            task,
            shard,
            tile,
            spare,
        };
        Ok(self.work_tx[w].send(unit).is_ok())
    }

    /// Parks a returned tile buffer with the live worker that sent it.
    fn park_tile(&mut self, w: usize, tile: Vec<f32>) {
        if !self.dead[w] {
            self.slots[w].tile = tile;
        }
    }

    /// Parks every gathered shard output's buffer with the live worker
    /// that computed it, emptying `tiles` for the next task.
    fn park_outputs(&mut self) {
        for (t, &w) in self.tiles.drain(..).zip(&self.owners) {
            if !self.dead[w] {
                self.slots[w].spare = t.into_vec();
            }
        }
        self.owners.clear();
    }

    /// Emits the per-task scatter span and halo instant (first scatter
    /// of a task only — retries re-send tiles but the task's logical
    /// scatter already happened).
    fn record_scatter(&self, task: usize, begin: f64) {
        if !self.enabled {
            return;
        }
        let ctx = Ctx::stage(self.stage).for_task(task);
        self.rec.span_at(
            names::SCATTER,
            ctx,
            begin,
            self.start.elapsed().as_secs_f64(),
            0.0,
            self.comm.scatter_bytes,
        );
        if self.comm.halo_bytes > 0 {
            self.rec.record(
                pico_telemetry::Event::instant(
                    self.start.elapsed().as_secs_f64(),
                    names::HALO_EXCHANGE,
                    ctx,
                )
                .with_bytes(self.comm.halo_bytes),
            );
        }
    }

    /// Legacy (no recovery) task processing: shard `i` goes to worker
    /// `i`, and any worker error fails the task. Unlike the pre-fault
    /// gather loop, *every* error is kept, so a multi-device outage
    /// reports all of its casualties instead of only the first.
    fn process_task_legacy(
        &mut self,
        task: usize,
        fmap: &Tensor,
        begin: f64,
    ) -> Result<(), RuntimeError> {
        for w in 0..self.work_tx.len() {
            if !self.send_unit(w, task, w, fmap)? {
                return Err(RuntimeError::ChannelClosed { stage: self.stage });
            }
        }
        self.record_scatter(task, begin);
        let mut errors = Vec::new();
        for w in 0..self.done_rx.len() {
            match self.done_rx[w].recv() {
                Ok(done) => {
                    debug_assert_eq!(done.task, task);
                    self.park_tile(w, done.tile);
                    match done.result {
                        Ok(out) => {
                            self.tiles.push(out);
                            self.owners.push(w);
                        }
                        Err(e) => errors.push(e),
                    }
                }
                Err(_) => errors.push(RuntimeError::ChannelClosed { stage: self.stage }),
            }
        }
        if errors.is_empty() {
            Ok(())
        } else if errors.len() == 1 {
            Err(errors.remove(0))
        } else {
            Err(RuntimeError::Multiple { errors })
        }
    }

    /// Fault-tolerant task processing: shards of dead workers are
    /// rerouted to survivors; worker errors, disconnects, and (when
    /// configured) response timeouts classify a worker as dead; between
    /// rounds the coordinator backs off exponentially up to the retry
    /// cap. Errs with [`RuntimeError::StageLost`] when no worker
    /// survives to serve the task.
    fn process_task_retry(
        &mut self,
        task: usize,
        fmap: &Tensor,
        begin: f64,
        task_timeout: Option<Duration>,
    ) -> Result<(), RuntimeError> {
        let w_count = self.work_tx.len();
        // Each finished shard's output and the worker that computed it.
        let mut results: Vec<Option<(usize, Tensor)>> = (0..w_count).map(|_| None).collect();
        let mut round = 0usize;
        loop {
            let pending: Vec<usize> = (0..w_count).filter(|&i| results[i].is_none()).collect();
            if pending.is_empty() {
                break;
            }
            let alive: Vec<usize> = (0..w_count).filter(|&i| !self.dead[i]).collect();
            if alive.is_empty() || round > MAX_RETRIES {
                return Err(RuntimeError::StageLost {
                    stage: self.stage,
                    task,
                });
            }
            if round > 0 {
                std::thread::sleep(backoff(round));
            }
            // Route: a shard stays on its home worker while that worker
            // is alive, otherwise round-robins over the survivors.
            let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); w_count];
            for (i, &shard) in pending.iter().enumerate() {
                let w = if !self.dead[shard] {
                    shard
                } else {
                    alive[i % alive.len()]
                };
                if self.enabled && (round > 0 || self.dead[shard]) {
                    self.rec.instant_at(
                        names::TASK_RETRIED,
                        Ctx::stage(self.stage)
                            .on_device(self.devices[w])
                            .for_task(task),
                        self.start.elapsed().as_secs_f64(),
                        round as f64,
                    );
                }
                assigned[w].push(shard);
            }
            // Scatter this round's work units. Worker channels are
            // sized to the stage's worker count, so even one survivor
            // holding every rerouted shard cannot deadlock the
            // scatter-then-gather.
            let mut sent = vec![0usize; w_count];
            for (w, shards) in assigned.iter().enumerate() {
                for &shard in shards {
                    if self.dead[w] {
                        break;
                    }
                    if !self.send_unit(w, task, shard, fmap)? {
                        self.mark_dead(w, task, "worker channel closed".to_owned());
                    } else {
                        sent[w] += 1;
                    }
                }
            }
            if round == 0 {
                self.record_scatter(task, begin);
            }
            // Gather. A worker that errs, hangs past the timeout, or
            // disconnects is marked dead; its unfinished shards stay
            // pending for the next round.
            for (w, &n_sent) in sent.iter().enumerate() {
                let mut expect = n_sent;
                while expect > 0 && !self.dead[w] {
                    let msg = match task_timeout {
                        Some(t) => match self.done_rx[w].recv_timeout(t) {
                            Ok(m) => Some(m),
                            Err(RecvTimeoutError::Timeout) => {
                                self.mark_dead(w, task, format!("no response within {t:?}"));
                                None
                            }
                            Err(RecvTimeoutError::Disconnected) => {
                                self.mark_dead(w, task, "worker channel closed".to_owned());
                                None
                            }
                        },
                        None => match self.done_rx[w].recv() {
                            Ok(m) => Some(m),
                            Err(_) => {
                                self.mark_dead(w, task, "worker channel closed".to_owned());
                                None
                            }
                        },
                    };
                    let Some(done) = msg else { break };
                    debug_assert_eq!(done.task, task);
                    expect -= 1;
                    self.park_tile(w, done.tile);
                    match done.result {
                        Ok(out) => results[done.shard] = Some((w, out)),
                        Err(e) => self.mark_dead(w, task, e.to_string()),
                    }
                }
            }
            round += 1;
        }
        for (w, out) in results.into_iter().flatten() {
            self.tiles.push(out);
            self.owners.push(w);
        }
        Ok(())
    }

    /// The serving loop: processes tasks from `rx_in` until the channel
    /// drains (or the stage is lost), forwarding stitched outputs — and
    /// errors — to `tx_out`. `seed_tasks`/`seed_busy` carry the running
    /// totals across re-plan attempts; they must seed the accumulators
    /// *before* serving so the additions happen in span begin order —
    /// the exact order `TraceSummary::stage_busy` sums in — keeping the
    /// reconciliation bit-exact (float addition is not associative).
    fn serve(
        mut self,
        rx_in: Receiver<StageMsg>,
        tx_out: SyncSender<StageMsg>,
        seed_tasks: usize,
        seed_busy: f64,
    ) -> CoordOutcome {
        let mut tasks_done = seed_tasks;
        let mut busy_secs = seed_busy;
        while let Ok(msg) = rx_in.recv() {
            let (task, fmap) = match msg {
                Ok(pair) => pair,
                Err(e) => {
                    let _ = tx_out.send(Err(e));
                    continue;
                }
            };
            // The same begin/end pair feeds busy_secs AND the
            // stage_busy span: RunReport.stage_stats is a derived view
            // of the trace by construction.
            let begin = self.start.elapsed().as_secs_f64();
            let gathered = match self.recovery {
                Some(policy) => self.process_task_retry(task, &fmap, begin, policy.task_timeout),
                None => self.process_task_legacy(task, &fmap, begin),
            };
            drop(fmap);
            let stitched = gathered.and_then(|()| {
                // Eq. 8: the stage's members share one link, so their
                // transfers add up, once per task.
                if !self.transfer.is_zero() {
                    std::thread::sleep(self.transfer);
                }
                let stitch_from = if self.enabled {
                    self.start.elapsed().as_secs_f64()
                } else {
                    0.0
                };
                // Stitch (strips and grids) into the buffer allocated a
                // task ago, and allocate the next before this map leaves:
                // a map the consumer frees is then never the newest block
                // of this thread's heap, so a batch of them freed at once
                // leaves a hole the next batch reuses, not a free heap top
                // that glibc hands back to the kernel and the next batch
                // faults in again page by page.
                let out =
                    Tensor::stitch_tiles_into(&self.tiles, std::mem::take(&mut self.next_map))?;
                self.next_map = Vec::with_capacity(out.data().len());
                Ok((stitch_from, out))
            });
            // Every shard buffer heads back toward the worker that
            // filled it, whether or not the task survived.
            self.park_outputs();
            match stitched {
                Ok((stitch_from, out)) => {
                    let end = self.start.elapsed().as_secs_f64();
                    tasks_done += 1;
                    busy_secs += end - begin;
                    if self.enabled {
                        let ctx = Ctx::stage(self.stage).for_task(task);
                        self.rec.span_at(
                            names::STITCH,
                            ctx,
                            stitch_from,
                            end,
                            0.0,
                            self.comm.output_bytes,
                        );
                        self.rec.span_at(names::STAGE_BUSY, ctx, begin, end, 0.0, 0);
                        self.rec.count_at(
                            names::BYTES_MOVED,
                            Ctx::stage(self.stage),
                            end,
                            (self.comm.scatter_bytes + self.comm.output_bytes) as f64,
                        );
                    }
                    if tx_out.send(Ok((task, out))).is_err() {
                        break;
                    }
                }
                Err(e @ RuntimeError::StageLost { .. }) => {
                    // Nothing left to serve with: tell downstream (the
                    // marker reaches the sink in task order, after every
                    // earlier completed task) and stop serving.
                    let _ = tx_out.send(Err(e));
                    break;
                }
                Err(e) => {
                    let _ = tx_out.send(Err(e));
                }
            }
        }
        CoordOutcome {
            stat: StageStat {
                stage: self.stage,
                tasks: tasks_done,
                busy_secs,
            },
            failures: self.failures,
            dead_devices: self
                .dead
                .iter()
                .zip(&self.devices)
                .filter(|(d, _)| **d)
                .map(|(_, dev)| *dev)
                .collect(),
        }
    }
}

/// The Fig. 6 stage workflow as real threads (see the crate docs).
#[derive(Debug)]
pub struct PipelineRuntime<'a> {
    pub(crate) model: &'a Model,
    pub(crate) plan: &'a Plan,
    pub(crate) engine: &'a Engine<'a>,
    /// Backend override (`RuntimeBuilder::backend`), forked from
    /// `engine` at build time.
    pub(crate) fork: Option<Engine<'a>>,
    pub(crate) throttle: Option<Throttle>,
    /// Scripted departures `(device, from_task)`
    /// (`RuntimeBuilder::leaves`).
    pub(crate) leaves: Vec<(usize, usize)>,
    pub(crate) recovery: Option<RecoveryPolicy>,
    pub(crate) recorder: Recorder,
    pub(crate) channel_capacity: Option<usize>,
}

impl<'a> PipelineRuntime<'a> {
    /// Creates a runtime for a plan with default extras (no throttle,
    /// no telemetry, default-bounded queues). Use
    /// [`builder`](PipelineRuntime::builder) to configure those.
    ///
    /// # Panics
    ///
    /// Panics if the plan's stages do not tile the model contiguously
    /// (run [`Plan::validate`] first when the plan comes from outside
    /// this workspace).
    pub fn new(model: &'a Model, plan: &'a Plan, engine: &'a Engine<'a>) -> Self {
        Self::builder(model, plan, engine).build()
    }

    /// Starts a [`RuntimeBuilder`]: named setters for the optional
    /// extras (telemetry recorder, throttle, queue capacity, failure
    /// injection, recovery policy) instead of positional arguments.
    pub fn builder(model: &'a Model, plan: &'a Plan, engine: &'a Engine<'a>) -> RuntimeBuilder<'a> {
        RuntimeBuilder::new(model, plan, engine)
    }

    pub(crate) fn validate_plan_shape(model: &Model, plan: &Plan) {
        let mut cursor = 0;
        for stage in &plan.stages {
            assert_eq!(
                stage.segment.start, cursor,
                "plan stages must tile the model contiguously"
            );
            cursor = stage.segment.end;
        }
        assert_eq!(cursor, model.len(), "plan must cover the whole model");
    }

    /// Precomputes every stage's worker shares for `plan`.
    fn worker_specs(&self, plan: &Plan) -> Vec<Vec<WorkerSpec>> {
        plan.stages
            .iter()
            .map(|stage| {
                let in_shape = self.model.unit_input_shape(stage.segment.start);
                let out_shape = self.model.unit_output_shape(stage.segment.end - 1);
                stage
                    .assignments
                    .iter()
                    .filter(|a| !a.is_empty())
                    .map(|a| {
                        let out_region = a.region(out_shape.width);
                        let in_region = self.model.segment_input_region(stage.segment, out_region);
                        let flops = self.model.segment_region_flops(stage.segment, out_region);
                        WorkerSpec {
                            device: a.device,
                            seg: stage.segment,
                            out_region,
                            in_region,
                            flops,
                            comm_bytes: in_region.bytes(in_shape.channels)
                                + out_region.bytes(out_shape.channels),
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Per-stage communication volumes for telemetry.
    fn stage_comm(&self, plan: &Plan, specs: &[Vec<WorkerSpec>]) -> Vec<StageComm> {
        plan.stages
            .iter()
            .zip(specs)
            .map(|(stage, workers)| {
                let in_shape = self.model.unit_input_shape(stage.segment.start);
                let out_shape = self.model.unit_output_shape(stage.segment.end - 1);
                let scatter: usize = workers
                    .iter()
                    .map(|w| w.in_region.bytes(in_shape.channels))
                    .sum();
                let exact = Region2::full(in_shape.height, in_shape.width).bytes(in_shape.channels);
                StageComm {
                    scatter_bytes: scatter as u64,
                    halo_bytes: scatter.saturating_sub(exact) as u64,
                    output_bytes: Region2::full(out_shape.height, out_shape.width)
                        .bytes(out_shape.channels) as u64,
                }
            })
            .collect()
    }

    /// Pushes `inputs` through the pipeline and waits for all outputs.
    ///
    /// Without a recovery policy, the first failure aborts the run;
    /// with one (see [`RuntimeBuilder::recovery`]), failed devices are
    /// detected, their shards retried on surviving workers, and a stage
    /// that loses every worker triggers a degraded re-plan over the
    /// surviving cluster before the stream resumes — the report then
    /// carries the [`failures`](RunReport::failures) and the installed
    /// [`degraded_plan`](RunReport::degraded_plan).
    ///
    /// # Errors
    ///
    /// Returns the [`RuntimeError`] that stopped the stream: a failed
    /// device or halo/shape mismatch (without a policy;
    /// [`RuntimeError::Multiple`] lists simultaneous worker failures),
    /// a bad input, or [`RuntimeError::RecoveryFailed`] when degraded
    /// re-planning could not produce a plan. Remaining in-flight tasks
    /// are discarded.
    pub fn run(&self, inputs: Vec<Tensor>) -> Result<RunReport, RuntimeError> {
        let expect = self.model.input_shape();
        for (task, input) in inputs.iter().enumerate() {
            if input.shape() != expect {
                return Err(RuntimeError::BadInput {
                    task,
                    detail: format!("expected {expect}, got {}", input.shape()),
                });
            }
        }
        let start = pico_telemetry::clock::wall_now();
        let mut outputs: Vec<Tensor> = Vec::with_capacity(inputs.len());
        let mut timings = Vec::with_capacity(inputs.len());
        let mut stage_stats: Vec<StageStat> = Vec::new();
        let mut failures = Vec::new();
        let mut excluded: Vec<usize> = Vec::new();
        let mut degraded: Option<Plan> = None;
        // The supervisor loop: one pass of the stream per plan, re-
        // planning over the surviving cluster whenever a stage loses
        // every worker.
        loop {
            let done = outputs.len();
            let plan = degraded.as_ref().unwrap_or(self.plan);
            // Inputs are cloned on the way in: the originals stay here,
            // in case a re-plan has to replay the uncompleted tail.
            let ((completed, stopped), drained) = self.drive(
                plan,
                done,
                start,
                self.recovery.as_ref(),
                &stage_stats,
                |sess| {
                    sess.pump(inputs[done..].iter().cloned(), |task, completed_at| {
                        timings.push(TaskTiming { task, completed_at });
                    })
                },
            )?;
            outputs.extend(completed);
            // Pass stats are cumulative (seeded from the running
            // totals), so they replace rather than add.
            for st in drained.stage_stats {
                if let Some(existing) = stage_stats.iter_mut().find(|e| e.stage == st.stage) {
                    *existing = st;
                } else {
                    stage_stats.push(st);
                }
            }
            stage_stats.sort_by_key(|s| s.stage);
            failures.extend(drained.failures);
            let (stage, task, policy) = match (stopped, &self.recovery) {
                (None, _) => break,
                (Some(RuntimeError::StageLost { stage, task }), Some(policy)) => {
                    (stage, task, policy)
                }
                (Some(e), _) => return Err(e),
            };
            let before = excluded.len();
            for d in drained.dead_devices {
                if !excluded.contains(&d) {
                    excluded.push(d);
                }
            }
            excluded.sort_unstable();
            if excluded.len() == before {
                // No new casualty to exclude — re-planning would loop
                // on the same plan, so surface the loss instead.
                return Err(RuntimeError::StageLost { stage, task });
            }
            let next = PlanRequest::new(self.model, &policy.cluster, &policy.params)
                .with_excluded_devices(&excluded)
                .and_then(|req| PicoPlanner.plan(&req))
                .map_err(|source| RuntimeError::RecoveryFailed {
                    excluded: excluded.clone(),
                    source,
                })?;
            Self::validate_plan_shape(self.model, &next);
            if self.recorder.is_enabled() {
                self.recorder.instant_at(
                    names::PLAN_DEGRADED,
                    Ctx::default().for_task(outputs.len()),
                    start.elapsed().as_secs_f64(),
                    excluded.len() as f64,
                );
            }
            degraded = Some(next);
        }
        Ok(RunReport {
            outputs,
            timings,
            stage_stats,
            elapsed: start.elapsed(),
            failures,
            degraded_plan: degraded,
        })
    }

    /// Opens a submittable execution session over this runtime's plan:
    /// the stage pipeline is spawned once and stays warm while `f`
    /// pushes any number of [`ExecutionSession::submit`] batches
    /// through it — the serving-layer alternative to the one-shot
    /// [`run`](Self::run), which needs the whole stream up front.
    ///
    /// When `f` returns, the pipeline drains (every submitted task has
    /// already been handed back by `submit`, so nothing is in flight)
    /// and the session's [`RunReport`] carries the per-stage accounting.
    /// Its `outputs` and `timings` are empty: outputs were returned
    /// batch-by-batch to the caller, and a session that serves for as
    /// long as a server runs keeps no per-task log
    /// ([`ExecutionSession::completed`] counts its tasks).
    ///
    /// Sessions run without a recovery policy — a failed device
    /// surfaces as an error from `submit` (departures injected with
    /// [`RuntimeBuilder::leaves`](crate::RuntimeBuilder::leaves) are
    /// honoured); degraded re-planning across submissions is the
    /// serving layer's job, which can drain one session and open the
    /// next under a new plan.
    ///
    /// # Errors
    ///
    /// Propagates the first [`RuntimeError`] returned by `f`, or a
    /// [`RuntimeError::ChannelClosed`] if a stage coordinator
    /// panicked.
    pub fn session<R>(
        &self,
        f: impl FnOnce(&mut ExecutionSession) -> Result<R, RuntimeError>,
    ) -> Result<(R, RunReport), RuntimeError> {
        let start = pico_telemetry::clock::wall_now();
        let (value, drained) = self.drive(self.plan, 0, start, None, &[], f)?;
        Ok((
            value?,
            RunReport {
                outputs: Vec::new(),
                timings: Vec::new(),
                stage_stats: drained.stage_stats,
                elapsed: start.elapsed(),
                failures: drained.failures,
                degraded_plan: None,
            },
        ))
    }

    /// The one pipeline lifecycle behind [`run`](Self::run) and
    /// [`session`](Self::session): spawns `plan`'s stages on a thread
    /// scope, hands `f` a session whose task numbering starts at
    /// `base`, then closes both ends of the pipeline and joins every
    /// coordinator as it drains. With a recovery policy, worker
    /// failures are absorbed per stage; `prior_stats` seeds each
    /// stage's accounting so busy-time sums stay bit-exact with the
    /// telemetry across re-plans.
    fn drive<R>(
        &self,
        plan: &Plan,
        base: usize,
        start: Instant,
        recovery: Option<&RecoveryPolicy>,
        prior_stats: &[StageStat],
        f: impl FnOnce(&mut ExecutionSession) -> R,
    ) -> Result<(R, Drained), RuntimeError> {
        let specs = self.worker_specs(plan);
        let comm = self.stage_comm(plan, &specs);
        std::thread::scope(|scope| {
            let (feeder, sink, coord_handles) =
                self.spawn_stages(scope, &specs, &comm, start, recovery, prior_stats);
            let mut session = ExecutionSession {
                feeder,
                sink,
                expect_shape: self.model.input_shape(),
                stage_count: specs.len(),
                next_task: base,
                completed: 0,
                rec: self.recorder.clone(),
                enabled: self.recorder.is_enabled(),
                start,
            };
            let value = f(&mut session);
            let ExecutionSession { feeder, sink, .. } = session;
            // Closing both endpoints starts the channel-close cascade;
            // coordinators exit as their inputs drain and hand back the
            // per-stage accounting.
            drop(feeder);
            drop(sink);
            let mut drained = Drained {
                stage_stats: Vec::with_capacity(coord_handles.len()),
                failures: Vec::new(),
                dead_devices: Vec::new(),
            };
            for (s, h) in coord_handles.into_iter().enumerate() {
                let outcome = h
                    .join()
                    .map_err(|_| RuntimeError::ChannelClosed { stage: s })?;
                drained.stage_stats.push(outcome.stat);
                drained.failures.extend(outcome.failures);
                drained.dead_devices.extend(outcome.dead_devices);
            }
            Ok((value, drained))
        })
    }

    /// Spawns every stage's workers and coordinator onto `scope`, wired
    /// with bounded inter-stage queues. Returns the stage-0 feeder, the
    /// final-stage sink, and the coordinator join handles; every other
    /// channel endpoint is owned by the one thread that uses it, so the
    /// pipeline drains (and the coordinators exit) as soon as both
    /// returned endpoints go.
    fn spawn_stages<'env, 'scope>(
        &'env self,
        scope: &'scope std::thread::Scope<'scope, 'env>,
        specs: &'env [Vec<WorkerSpec>],
        comm: &[StageComm],
        start: Instant,
        recovery: Option<&'env RecoveryPolicy>,
        prior_stats: &[StageStat],
    ) -> (
        SyncSender<StageMsg>,
        Receiver<StageMsg>,
        Vec<std::thread::ScopedJoinHandle<'scope, CoordOutcome>>,
    ) {
        let stage_count = specs.len();
        let rec = &self.recorder;
        let enabled = rec.is_enabled();
        let engine = self.fork.as_ref().unwrap_or(self.engine);
        let throttle = self.throttle.as_ref();
        // Inter-stage queues: queue i feeds stage i; the last feeds the
        // collector. Always bounded: the default depth approximates the
        // paper's infinite-queue assumption for well-provisioned
        // streams, while `channel_capacity` tightens it for
        // backpressure experiments. Each stage opens the queue it
        // writes, and `rx_in` carries its read end to the next one.
        let queue_cap = self.channel_capacity.unwrap_or(DEFAULT_CHANNEL_CAPACITY);
        let (feeder, mut rx_in) = sync_channel::<StageMsg>(queue_cap);

        // Coordinators hand their stats back through join handles —
        // no shared mutex on the serving path.
        let mut coord_handles = Vec::with_capacity(stage_count);

        for (s, workers) in specs.iter().enumerate() {
            // Scatter/gather channels, sized to the worker count so
            // one survivor can hold every rerouted shard of a task
            // without blocking the coordinator.
            let fan = workers.len().max(1);
            let mut work_tx: Vec<SyncSender<WorkUnit>> = Vec::new();
            let mut done_rx: Vec<Receiver<DoneMsg>> = Vec::new();
            for spec in workers.iter() {
                let (wtx, wrx) = sync_channel::<WorkUnit>(fan);
                let (dtx, drx) = sync_channel::<DoneMsg>(fan);
                work_tx.push(wtx);
                done_rx.push(drx);
                let device = spec.device;
                // The first task this device's scripted departure
                // applies to, if it has one.
                let leaves_at = self
                    .leaves
                    .iter()
                    .filter(|(d, _)| *d == device)
                    .map(|(_, from)| *from)
                    .min();
                let rec = rec.clone();
                scope.spawn(move || {
                    // One scratch pool per worker thread: the fast
                    // backend reuses its im2col and output buffers
                    // across the whole task stream, and each unit brings
                    // back the buffer of the output before.
                    let mut scratch = Scratch::new();
                    while let Ok(WorkUnit {
                        task,
                        shard,
                        tile,
                        spare,
                    }) = wrx.recv()
                    {
                        scratch.give(spare);
                        let spec = &workers[shard];
                        let t0 = pico_telemetry::clock::wall_now();
                        let begin_ts = if enabled {
                            start.elapsed().as_secs_f64()
                        } else {
                            0.0
                        };
                        let result = if leaves_at.is_some_and(|from| task >= from) {
                            Err(RuntimeError::DeviceFailed {
                                device,
                                task,
                                cause: "injected failure".to_owned(),
                            })
                        } else {
                            engine
                                .infer_region2_with(&mut scratch, spec.seg, spec.out_region, &tile)
                                .map_err(RuntimeError::from)
                        };
                        // Compute only: the stage's transfers are paid
                        // once, summed, by its coordinator.
                        if let Some(th) = throttle {
                            let target = th.compute_duration(device, spec.flops);
                            let spent = t0.elapsed();
                            if target > spent {
                                std::thread::sleep(target - spent);
                            }
                        }
                        if enabled {
                            rec.span_at(
                                names::COMPUTE,
                                Ctx::stage(s).on_device(device).for_task(task),
                                begin_ts,
                                start.elapsed().as_secs_f64(),
                                spec.flops,
                                spec.comm_bytes as u64,
                            );
                        }
                        // The input tile's buffer goes back to be sliced
                        // into again.
                        let done = DoneMsg {
                            task,
                            shard,
                            tile: tile.into_vec(),
                            result,
                        };
                        if dtx.send(done).is_err() {
                            break;
                        }
                    }
                });
            }

            let prior = prior_stats.iter().find(|st| st.stage == s);
            let seed_tasks = prior.map_or(0, |st| st.tasks);
            let seed_busy = prior.map_or(0.0, |st| st.busy_secs);
            let coordinator = StageCoordinator {
                stage: s,
                work_tx,
                done_rx,
                in_regions: workers.iter().map(|w| w.in_region).collect(),
                devices: workers.iter().map(|w| w.device).collect(),
                comm: comm[s],
                transfer: throttle.map_or(Duration::ZERO, |th| {
                    th.transfer_duration(workers.iter().map(|w| w.comm_bytes).sum())
                }),
                rec: rec.clone(),
                enabled,
                start,
                recovery,
                dead: vec![false; workers.len()],
                failures: Vec::new(),
                slots: workers.iter().map(|_| Slot::default()).collect(),
                tiles: Vec::with_capacity(workers.len()),
                owners: Vec::with_capacity(workers.len()),
                next_map: Vec::new(),
            };
            let (tx_out, rx_out) = sync_channel::<StageMsg>(queue_cap);
            let rx_stage = std::mem::replace(&mut rx_in, rx_out);
            coord_handles.push(
                scope.spawn(move || coordinator.serve(rx_stage, tx_out, seed_tasks, seed_busy)),
            );
        }

        (feeder, rx_in, coord_handles)
    }
}

/// A live pipeline accepting task batches, handed to the closure of
/// [`PipelineRuntime::session`]. Stage threads stay warm between
/// submissions, so a serving layer can trickle micro-batches through
/// without paying a pipeline spawn per batch.
pub struct ExecutionSession {
    feeder: SyncSender<StageMsg>,
    sink: Receiver<StageMsg>,
    expect_shape: pico_model::Shape,
    stage_count: usize,
    next_task: usize,
    completed: usize,
    rec: Recorder,
    enabled: bool,
    start: Instant,
}

impl ExecutionSession {
    /// Pushes one batch through the pipeline and waits for all of its
    /// outputs (in submission order). Feeding and collecting are
    /// interleaved — once the stage-0 queue pushes back, an output is
    /// drained before the next tile is offered — so a batch larger than
    /// the bounded queues cannot deadlock the session.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadInput`] if a tensor does not match
    /// the model's input shape (the batch is rejected before anything
    /// is fed), or the first error the pipeline surfaces (failed
    /// device, halo/shape mismatch, closed channel). After an error the
    /// session is poisoned: completed outputs of the failed batch are
    /// discarded and further submissions will keep erroring.
    pub fn submit(&mut self, inputs: &[Tensor]) -> Result<Vec<Tensor>, RuntimeError> {
        self.submit_owned(inputs.to_vec())
    }

    /// [`submit`](Self::submit) for a caller that can give its inputs
    /// away: each tensor moves into the stage-0 queue as it is, so the
    /// batch is fed without a copy. Same errors, same poisoning.
    pub fn submit_owned(&mut self, inputs: Vec<Tensor>) -> Result<Vec<Tensor>, RuntimeError> {
        for (i, input) in inputs.iter().enumerate() {
            if input.shape() != self.expect_shape {
                return Err(RuntimeError::BadInput {
                    task: self.next_task + i,
                    detail: format!("expected {}, got {}", self.expect_shape, input.shape()),
                });
            }
        }
        match self.pump(inputs.into_iter(), |_, _| {}) {
            (outputs, None) => Ok(outputs),
            (_, Some(e)) => Err(e),
        }
    }

    /// The one feed/collect loop: offers `inputs` (numbered on from
    /// [`submitted`](Self::submitted)) to stage 0 until its queue
    /// pushes back, then collects one output in task order, and so on
    /// until every task is back. Each output's task index and
    /// completion time (seconds since the pipeline started) go to
    /// `done` as it arrives: [`PipelineRuntime::run`] logs them, a
    /// session drops them. Returns the outputs completed in order,
    /// plus the error that stopped the stream early, if any — a
    /// [`RuntimeError::StageLost`] then means "lost at task t" with
    /// every earlier task in the prefix.
    fn pump(
        &mut self,
        inputs: impl ExactSizeIterator<Item = Tensor>,
        mut done: impl FnMut(usize, f64),
    ) -> (Vec<Tensor>, Option<RuntimeError>) {
        let base = self.next_task;
        let total = inputs.len();
        self.next_task += total;
        let mut outputs = Vec::with_capacity(total);
        let mut feed = Some(inputs.enumerate().map(|(i, input)| Ok((base + i, input))));
        let mut pending: Option<StageMsg> = None;
        while outputs.len() < total {
            while let Some(msg) = pending
                .take()
                .or_else(|| feed.as_mut().and_then(Iterator::next))
            {
                match self.feeder.try_send(msg) {
                    Ok(()) => {}
                    Err(TrySendError::Full(msg)) => {
                        pending = Some(msg);
                        break;
                    }
                    // Stage 0 stopped serving; why it stopped is
                    // already on its way to the sink.
                    Err(TrySendError::Disconnected(_)) => {
                        feed = None;
                        break;
                    }
                }
            }
            match self.sink.recv() {
                Ok(Ok((task, out))) => {
                    debug_assert_eq!(task, base + outputs.len());
                    let completed_at = self.start.elapsed().as_secs_f64();
                    if self.enabled {
                        self.rec.count_at(
                            names::TASKS_COMPLETED,
                            Ctx::default(),
                            completed_at,
                            1.0,
                        );
                    }
                    self.completed += 1;
                    done(task, completed_at);
                    outputs.push(out);
                }
                Ok(Err(e)) => return (outputs, Some(e)),
                Err(_) => {
                    let stage = self.stage_count;
                    return (outputs, Some(RuntimeError::ChannelClosed { stage }));
                }
            }
        }
        (outputs, None)
    }

    /// Tasks submitted so far (the next task index).
    pub fn submitted(&self) -> usize {
        self.next_task
    }

    /// Tasks whose outputs have been handed back so far.
    pub fn completed(&self) -> usize {
        self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pico_model::zoo;
    use pico_partition::{Cluster, CostParams, Device, EarlyFused, LayerWise, OptimalFused};

    fn setup() -> (Model, Cluster, CostParams) {
        (
            zoo::mnist_toy(),
            Cluster::pi_cluster(4, 1.0),
            CostParams::wifi_50mbps(),
        )
    }

    fn outputs_match_reference(plan: &Plan, model: &Model, tasks: usize) {
        let engine = Engine::with_seed(model, 9);
        let runtime = PipelineRuntime::new(model, plan, &engine);
        let inputs: Vec<Tensor> = (0..tasks)
            .map(|i| Tensor::random(model.input_shape(), 100 + i as u64))
            .collect();
        let report = runtime.run(inputs.clone()).unwrap();
        assert_eq!(report.outputs.len(), tasks);
        for (i, input) in inputs.iter().enumerate() {
            let reference = engine.infer(input).unwrap();
            assert_eq!(report.outputs[i], reference, "task {i} diverged");
        }
        // Completions are ordered.
        assert!(report
            .timings
            .windows(2)
            .all(|w| w[0].completed_at <= w[1].completed_at));
    }

    #[test]
    fn pico_pipeline_outputs_match_single_device() {
        let (m, c, p) = setup();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        outputs_match_reference(&plan, &m, 4);
    }

    #[test]
    fn every_scheme_executes_correctly() {
        let (m, c, p) = setup();
        for plan in [
            LayerWise.plan(&PlanRequest::new(&m, &c, &p)).unwrap(),
            EarlyFused::new()
                .plan(&PlanRequest::new(&m, &c, &p))
                .unwrap(),
            OptimalFused.plan(&PlanRequest::new(&m, &c, &p)).unwrap(),
        ] {
            outputs_match_reference(&plan, &m, 2);
        }
    }

    #[test]
    fn heterogeneous_plan_executes_correctly() {
        let m = zoo::mnist_toy();
        let c = Cluster::paper_heterogeneous_6();
        let p = CostParams::wifi_50mbps();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        outputs_match_reference(&plan, &m, 3);
    }

    #[test]
    fn graph_model_executes_correctly() {
        // Residual blocks through the real pipeline.
        let m = pico_model::Model::new(
            "graphlet",
            pico_model::Shape::new(4, 24, 24),
            vec![
                pico_model::Layer::conv("stem", pico_model::ConvSpec::square(4, 8, 3, 1, 1)).into(),
                pico_model::Unit::Block(pico_model::Block::residual(
                    "res",
                    vec![
                        pico_model::Layer::conv("a", pico_model::ConvSpec::square(8, 8, 3, 1, 1)),
                        pico_model::Layer::conv("b", pico_model::ConvSpec::square(8, 8, 3, 1, 1)),
                    ],
                    vec![],
                )),
            ],
        )
        .unwrap();
        let c = Cluster::pi_cluster(4, 1.0);
        let p = CostParams::wifi_50mbps();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        outputs_match_reference(&plan, &m, 2);
    }

    #[test]
    fn departed_device_surfaces_error() {
        let (m, c, p) = setup();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let victim = plan.stages[0].assignments[0].device;
        let engine = Engine::with_seed(&m, 1);
        let runtime = PipelineRuntime::builder(&m, &plan, &engine)
            .leaves(&[(victim, 0)])
            .build();
        let err = runtime
            .run(vec![Tensor::random(m.input_shape(), 1)])
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::DeviceFailed { device, .. } if device == victim),
            "got {err}"
        );
    }

    /// A two-device single-stage plan with a deterministic shard layout
    /// for fault tests: device 0 takes the top half, device 1 the rest.
    fn two_worker_single_stage(m: &Model) -> Plan {
        let h = m.output_shape().height;
        Plan::new(
            pico_partition::Scheme::Pico,
            pico_partition::ExecutionMode::Pipelined,
            vec![pico_partition::Stage::new(
                Segment::new(0, m.len()),
                vec![
                    pico_partition::Assignment::new(0, Rows::new(0, h / 2)),
                    pico_partition::Assignment::new(1, Rows::new(h / 2, h)),
                ],
            )],
        )
    }

    /// Asserts `outputs` equal single-device inference to the bit.
    fn assert_bit_exact(engine: &Engine, inputs: &[Tensor], outputs: &[Tensor]) {
        assert_eq!(outputs.len(), inputs.len());
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (i, (input, out)) in inputs.iter().zip(outputs).enumerate() {
            let reference = engine.infer(input).unwrap();
            assert_eq!(out.region(), reference.region(), "task {i}");
            assert_eq!(bits(out), bits(&reference), "task {i} diverged");
        }
    }

    #[test]
    fn recycled_buffers_leak_nothing_into_warm_batches() {
        // Every task after the first slices into a tile buffer that
        // held the previous task's tile and computes into an output
        // buffer that held an earlier output: distinct inputs per task
        // make any stale element show.
        let m = zoo::mnist_toy();
        let plan = two_worker_single_stage(&m);
        let engine = Engine::with_seed(&m, 21);
        let inputs: Vec<Tensor> = (0..12)
            .map(|i| Tensor::random(m.input_shape(), 500 + i))
            .collect();
        let (outputs, _) = PipelineRuntime::new(&m, &plan, &engine)
            .session(|sess| {
                let mut outputs = Vec::new();
                for batch in inputs.chunks(3) {
                    outputs.extend(sess.submit_owned(batch.to_vec())?);
                }
                Ok(outputs)
            })
            .unwrap();
        assert_bit_exact(&engine, &inputs, &outputs);

        // The retry path: device 1 leaves at task 5, and its shard
        // moves onto device 0, whose parked buffers now serve both.
        let runtime = PipelineRuntime::builder(&m, &plan, &engine)
            .leaves(&[(1, 5)])
            .recovery(RecoveryPolicy::new(
                Cluster::pi_cluster(2, 1.0),
                CostParams::wifi_50mbps(),
            ))
            .build();
        let report = runtime.run(inputs.clone()).unwrap();
        assert_eq!(report.failures.len(), 1);
        assert!(report.degraded_plan.is_none());
        assert_bit_exact(&engine, &inputs, &report.outputs);
    }

    #[test]
    fn simultaneous_failures_all_reported() {
        // Regression for the old gather loop, which kept only the first
        // error (`failure.or(Some(e))`): two devices failing on the
        // same task must both appear in the surfaced error.
        let m = zoo::mnist_toy();
        let plan = two_worker_single_stage(&m);
        let engine = Engine::with_seed(&m, 1);
        let runtime = PipelineRuntime::builder(&m, &plan, &engine)
            .leaves(&[(0, 0), (1, 0)])
            .build();
        let err = runtime
            .run(vec![Tensor::random(m.input_shape(), 1)])
            .unwrap_err();
        match err {
            RuntimeError::Multiple { errors } => {
                assert_eq!(errors.len(), 2, "both casualties reported");
                let mut devices: Vec<usize> = errors
                    .iter()
                    .map(|e| match e {
                        RuntimeError::DeviceFailed { device, .. } => *device,
                        other => panic!("expected DeviceFailed, got {other}"),
                    })
                    .collect();
                devices.sort_unstable();
                assert_eq!(devices, vec![0, 1]);
            }
            other => panic!("expected Multiple, got {other}"),
        }
    }

    #[test]
    fn retry_on_survivor_keeps_outputs_bit_exact() {
        // Device 1 dies from task 1 on; its shard is rerouted to device
        // 0, and every output stays bit-identical to the single-device
        // reference.
        let m = zoo::mnist_toy();
        let plan = two_worker_single_stage(&m);
        let engine = Engine::with_seed(&m, 5);
        let rec = Recorder::in_memory();
        let runtime = PipelineRuntime::builder(&m, &plan, &engine)
            .leaves(&[(1, 1)])
            .recovery(RecoveryPolicy::new(
                Cluster::pi_cluster(2, 1.0),
                CostParams::wifi_50mbps(),
            ))
            .recorder(rec.clone())
            .build();
        let inputs: Vec<Tensor> = (0..4).map(|i| Tensor::random(m.input_shape(), i)).collect();
        let report = runtime.run(inputs.clone()).unwrap();
        for (i, input) in inputs.iter().enumerate() {
            assert_eq!(
                report.outputs[i],
                engine.infer(input).unwrap(),
                "task {i} diverged"
            );
        }
        // The stage survivor absorbed the work: no re-plan needed.
        assert!(report.degraded_plan.is_none());
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].device, 1);
        assert_eq!(report.failures[0].task, 1);
        let events = rec.snapshot();
        assert!(events.iter().any(|e| e.name == names::DEVICE_FAILED));
        assert!(events.iter().any(|e| e.name == names::TASK_RETRIED));
        assert!(!events.iter().any(|e| e.name == names::PLAN_DEGRADED));
    }

    #[test]
    fn lost_stage_triggers_degraded_replan() {
        // A 2-stage pipeline, one device per stage: killing stage 0's
        // only device forces a re-plan over the surviving cluster.
        let m = zoo::mnist_toy();
        let h = m.output_shape().height;
        let mid = m.len() / 2;
        let plan = Plan::new(
            pico_partition::Scheme::Pico,
            pico_partition::ExecutionMode::Pipelined,
            vec![
                pico_partition::Stage::new(
                    Segment::new(0, mid),
                    vec![pico_partition::Assignment::new(
                        0,
                        Rows::full(m.unit_output_shape(mid - 1).height),
                    )],
                ),
                pico_partition::Stage::new(
                    Segment::new(mid, m.len()),
                    vec![pico_partition::Assignment::new(1, Rows::full(h))],
                ),
            ],
        );
        let engine = Engine::with_seed(&m, 6);
        let rec = Recorder::in_memory();
        let runtime = PipelineRuntime::builder(&m, &plan, &engine)
            .leaves(&[(0, 2)])
            .recovery(RecoveryPolicy::new(
                Cluster::pi_cluster(2, 1.0),
                CostParams::wifi_50mbps(),
            ))
            .recorder(rec.clone())
            .build();
        let inputs: Vec<Tensor> = (0..5).map(|i| Tensor::random(m.input_shape(), i)).collect();
        let report = runtime.run(inputs.clone()).unwrap();
        for (i, input) in inputs.iter().enumerate() {
            assert_eq!(
                report.outputs[i],
                engine.infer(input).unwrap(),
                "task {i} diverged"
            );
        }
        let degraded = report.degraded_plan.as_ref().expect("re-planned");
        for stage in &degraded.stages {
            for a in &stage.assignments {
                assert_ne!(a.device, 0, "dead device still assigned");
            }
        }
        assert!(report.failures.iter().any(|f| f.device == 0));
        assert!(rec
            .snapshot()
            .iter()
            .any(|e| e.name == names::PLAN_DEGRADED));
    }

    #[test]
    fn exhausted_cluster_is_a_typed_recovery_error() {
        // Both devices of a single-stage plan die: nothing survives, so
        // the re-plan fails with the plan error chained.
        let m = zoo::mnist_toy();
        let plan = two_worker_single_stage(&m);
        let engine = Engine::with_seed(&m, 2);
        let runtime = PipelineRuntime::builder(&m, &plan, &engine)
            .leaves(&[(0, 0), (1, 0)])
            .recovery(RecoveryPolicy::new(
                Cluster::pi_cluster(2, 1.0),
                CostParams::wifi_50mbps(),
            ))
            .build();
        let err = runtime
            .run(vec![Tensor::random(m.input_shape(), 3)])
            .unwrap_err();
        match err {
            RuntimeError::RecoveryFailed { excluded, source } => {
                assert_eq!(excluded, vec![0, 1]);
                assert!(matches!(
                    source,
                    pico_partition::PlanError::ClusterExhausted { .. }
                ));
            }
            other => panic!("expected RecoveryFailed, got {other}"),
        }
    }

    #[test]
    fn stalled_worker_detected_by_timeout() {
        // Device 1 is a throttled straggler, re-clocked so its shard
        // sleeps ~1.2 s — well past the timeout — while device 0 sleeps
        // ~0.5 ms: the coordinator classifies device 1 dead via
        // recv_timeout and reroutes, keeping outputs exact. A tiny
        // model keeps healthy compute far below the timeout even in
        // unoptimized builds.
        let m = pico_model::Model::new(
            "tiny",
            pico_model::Shape::new(2, 8, 8),
            vec![pico_model::Layer::conv("a", pico_model::ConvSpec::square(2, 2, 3, 1, 1)).into()],
        )
        .unwrap();
        let plan = two_worker_single_stage(&m);
        let engine = Engine::with_seed(&m, 8);
        let c = Cluster::new(vec![
            Device::from_frequency(0, 1.0),
            Device::from_frequency(1, 1.0 / 2400.0),
        ]);
        let h = m.output_shape().height;
        let model_time = c
            .device(0)
            .unwrap()
            .compute_time(m.segment_flops(Segment::new(0, m.len()), Rows::full(h)));
        // Free network: the throttle sleeps compute only.
        let throttle = Throttle::new(c, CostParams::new(1e15), 1e-3 / model_time);
        let runtime = PipelineRuntime::builder(&m, &plan, &engine)
            .throttle(throttle)
            .recovery(
                RecoveryPolicy::new(Cluster::pi_cluster(2, 1.0), CostParams::wifi_50mbps())
                    // Generous relative to healthy compute (low
                    // milliseconds even under parallel test load) but
                    // well under the straggler's sleep.
                    .with_task_timeout(Duration::from_millis(400)),
            )
            .build();
        let inputs: Vec<Tensor> = (0..2).map(|i| Tensor::random(m.input_shape(), i)).collect();
        let report = runtime.run(inputs.clone()).unwrap();
        for (i, input) in inputs.iter().enumerate() {
            assert_eq!(report.outputs[i], engine.infer(input).unwrap());
        }
        assert_eq!(report.failures.len(), 1);
        assert!(
            report.failures[0].cause.contains("no response"),
            "cause: {}",
            report.failures[0].cause
        );
    }

    #[test]
    fn backend_override_runs_simd_bit_exactly() {
        // A whole-run Simd override must reproduce the f32 reference
        // outputs exactly.
        use pico_tensor::EngineBackend;
        let (m, c, p) = setup();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let engine = Engine::with_seed(&m, 3);
        let runtime = PipelineRuntime::builder(&m, &plan, &engine)
            .backend(EngineBackend::Simd)
            .build();
        let inputs: Vec<Tensor> = (0..3).map(|i| Tensor::random(m.input_shape(), i)).collect();
        let report = runtime.run(inputs.clone()).unwrap();
        let oracle = engine.fork_backend(EngineBackend::Reference);
        for (i, input) in inputs.iter().enumerate() {
            assert_eq!(report.outputs[i], oracle.infer(input).unwrap());
        }
    }

    #[test]
    fn bad_input_rejected_before_spawning() {
        let (m, c, p) = setup();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let engine = Engine::with_seed(&m, 1);
        let runtime = PipelineRuntime::new(&m, &plan, &engine);
        let bad = Tensor::random(pico_model::Shape::new(3, 8, 8), 0);
        assert!(matches!(
            runtime.run(vec![bad]),
            Err(RuntimeError::BadInput { task: 0, .. })
        ));
    }

    #[test]
    fn empty_input_list_is_fine() {
        let (m, c, p) = setup();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let engine = Engine::with_seed(&m, 1);
        let report = PipelineRuntime::new(&m, &plan, &engine)
            .run(vec![])
            .unwrap();
        assert!(report.outputs.is_empty());
        assert!(report.failures.is_empty());
        assert!(report.degraded_plan.is_none());
        assert_eq!(report.throughput().unwrap_or(0.0), 0.0);
        assert_eq!(report.measured_period(), None);
    }

    #[test]
    #[should_panic(expected = "cover the whole model")]
    fn truncated_plan_panics() {
        let (m, c, p) = setup();
        let mut plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        plan.stages.pop();
        if plan.stages.is_empty() {
            panic!("plan must cover the whole model"); // degenerate case
        }
        let engine = Engine::with_seed(&m, 1);
        let _ = PipelineRuntime::new(&m, &plan, &engine);
    }

    #[test]
    fn throttled_pipeline_still_correct_and_ordered() {
        let (m, c, p) = setup();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let engine = Engine::with_seed(&m, 2);
        // A very small scale keeps the test fast while exercising the
        // sleep path.
        let throttle = Throttle::new(c.clone(), p, 1e-7);
        let runtime = PipelineRuntime::builder(&m, &plan, &engine)
            .throttle(throttle)
            .build();
        let inputs: Vec<Tensor> = (0..3).map(|i| Tensor::random(m.input_shape(), i)).collect();
        let report = runtime.run(inputs.clone()).unwrap();
        for (i, input) in inputs.iter().enumerate() {
            assert_eq!(report.outputs[i], engine.infer(input).unwrap());
        }
    }

    #[test]
    fn throughput_is_none_when_wall_duration_is_zero() {
        // Regression: a completed-but-instant report used to claim a
        // throughput of 0.0 tasks/s — a lie that call sites divided by.
        let report = RunReport {
            outputs: Vec::new(),
            timings: vec![TaskTiming {
                task: 0,
                completed_at: 0.0,
            }],
            stage_stats: Vec::new(),
            elapsed: Duration::ZERO,
            failures: Vec::new(),
            degraded_plan: None,
        };
        assert_eq!(report.throughput(), None);
        let nonzero = RunReport {
            elapsed: Duration::from_millis(500),
            ..report
        };
        assert_eq!(nonzero.throughput(), Some(2.0));
    }

    #[test]
    fn session_batches_are_bit_exact_and_accounted() {
        let (m, c, p) = setup();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let engine = Engine::with_seed(&m, 11);
        let runtime = PipelineRuntime::new(&m, &plan, &engine);
        let inputs: Vec<Tensor> = (0..5)
            .map(|i| Tensor::random(m.input_shape(), 300 + i as u64))
            .collect();
        let (outputs, report) = runtime
            .session(|sess| {
                let mut all = sess.submit(&inputs[..2])?;
                assert_eq!(sess.submitted(), 2);
                assert_eq!(sess.completed(), 2);
                all.extend(sess.submit(&inputs[2..4])?);
                all.extend(sess.submit(&[])?);
                all.extend(sess.submit(&inputs[4..])?);
                assert_eq!(sess.completed(), inputs.len());
                Ok(all)
            })
            .unwrap();
        assert_eq!(outputs.len(), inputs.len());
        for (input, out) in inputs.iter().zip(&outputs) {
            assert_eq!(out, &engine.infer(input).unwrap());
        }
        // The session report's stage accounting covers every task; the
        // outputs went out batch-by-batch and no per-task log is kept.
        assert!(report.outputs.is_empty());
        assert!(report.timings.is_empty());
        for st in &report.stage_stats {
            assert_eq!(st.tasks, inputs.len(), "stage {}", st.stage);
        }
    }

    #[test]
    fn session_batch_larger_than_queue_capacity_drains() {
        // submit() interleaves feeding and collecting, so a batch much
        // deeper than the bounded inter-stage queues must not deadlock.
        let (m, c, p) = setup();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let engine = Engine::with_seed(&m, 13);
        let runtime = PipelineRuntime::builder(&m, &plan, &engine)
            .channel_capacity(1)
            .build();
        let inputs: Vec<Tensor> = (0..6)
            .map(|i| Tensor::random(m.input_shape(), 700 + i as u64))
            .collect();
        let (outputs, _report) = runtime.session(|sess| sess.submit(&inputs)).unwrap();
        for (input, out) in inputs.iter().zip(&outputs) {
            assert_eq!(out, &engine.infer(input).unwrap());
        }
    }

    #[test]
    fn session_surfaces_injected_failure_from_submit() {
        let (m, c, p) = setup();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let victim = plan.stages[0].assignments[0].device;
        let engine = Engine::with_seed(&m, 1);
        let runtime = PipelineRuntime::builder(&m, &plan, &engine)
            .leaves(&[(victim, 0)])
            .build();
        let err = runtime
            .session(|sess| sess.submit(&[Tensor::random(m.input_shape(), 1)]))
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::DeviceFailed { device, .. } if device == victim),
            "got {err}"
        );
    }

    #[test]
    fn departure_applies_from_its_task_on() {
        // `(1, 2)`: device 1 serves tasks 0 and 1 and dies on task 2.
        let m = zoo::mnist_toy();
        let plan = two_worker_single_stage(&m);
        let engine = Engine::with_seed(&m, 4);
        let runtime = PipelineRuntime::builder(&m, &plan, &engine)
            .leaves(&[(1, 2)])
            .build();
        let inputs: Vec<Tensor> = (0..3).map(|i| Tensor::random(m.input_shape(), i)).collect();
        let err = runtime
            .session(|sess| {
                let served = sess.submit(&inputs[..2])?;
                for (input, out) in inputs.iter().zip(&served) {
                    assert_eq!(out, &engine.infer(input).unwrap());
                }
                sess.submit(&inputs[2..])
            })
            .unwrap_err();
        assert!(
            matches!(
                err,
                RuntimeError::DeviceFailed {
                    device: 1,
                    task: 2,
                    ..
                }
            ),
            "got {err}"
        );
    }

    #[test]
    fn bounded_queues_still_drain_the_pipeline() {
        let (m, c, p) = setup();
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
        let engine = Engine::with_seed(&m, 7);
        let runtime = PipelineRuntime::builder(&m, &plan, &engine)
            .channel_capacity(1)
            .build();
        let inputs: Vec<Tensor> = (0..5).map(|i| Tensor::random(m.input_shape(), i)).collect();
        let report = runtime.run(inputs.clone()).unwrap();
        for (i, input) in inputs.iter().enumerate() {
            assert_eq!(report.outputs[i], engine.infer(input).unwrap());
        }
    }

    /// Two single-conv stages, one device each: every scatter/gather
    /// channel is one deep.
    fn two_stage_chain() -> (Model, Plan) {
        let m = pico_model::Model::new(
            "small",
            pico_model::Shape::new(4, 12, 12),
            vec![
                pico_model::Layer::conv("a", pico_model::ConvSpec::square(4, 4, 3, 1, 1)).into(),
                pico_model::Layer::conv("b", pico_model::ConvSpec::square(4, 4, 3, 1, 1)).into(),
            ],
        )
        .unwrap();
        let h = m.output_shape().height;
        let plan = Plan::new(
            pico_partition::Scheme::Pico,
            pico_partition::ExecutionMode::Pipelined,
            vec![
                pico_partition::Stage::new(
                    Segment::new(0, 1),
                    vec![pico_partition::Assignment::new(0, Rows::full(h))],
                ),
                pico_partition::Stage::new(
                    Segment::new(1, 2),
                    vec![pico_partition::Assignment::new(1, Rows::full(h))],
                ),
            ],
        );
        (m, plan)
    }

    #[test]
    fn every_inter_stage_queue_has_the_configured_depth() {
        // Regression: the queues after stage 0 were once sized by the
        // stage's worker count instead of `channel_capacity`. With the
        // sink unread, a 2-stage pipeline absorbs exactly one full
        // queue per hop (feeder, stage 0 -> 1, sink) plus the one task
        // each coordinator holds while its output queue is full.
        let (m, plan) = two_stage_chain();
        let engine = Engine::with_seed(&m, 5);
        let depth = 8;
        let runtime = PipelineRuntime::builder(&m, &plan, &engine)
            .channel_capacity(depth)
            .build();
        let stages = plan.stage_count();
        let buffered = (stages + 1) * depth;
        let input = Tensor::random(m.input_shape(), 1);
        let ((), report) = runtime
            .session(|sess| {
                // Slowness can only delay acceptance, never add to it:
                // wait long for the queues to fill, then briefly for
                // one task too many.
                let mut accepted = 0usize;
                let mut deadline = Instant::now() + Duration::from_secs(20);
                while Instant::now() < deadline {
                    match sess.feeder.try_send(Ok((accepted, input.clone()))) {
                        Ok(()) => {
                            accepted += 1;
                            if accepted == buffered + stages {
                                deadline = Instant::now() + Duration::from_millis(300);
                            }
                        }
                        Err(TrySendError::Full(_)) => std::thread::sleep(Duration::from_millis(1)),
                        Err(TrySendError::Disconnected(_)) => panic!("pipeline went away"),
                    }
                }
                assert_eq!(accepted, buffered + stages);
                for task in 0..accepted {
                    let (got, _) = sess.sink.recv().unwrap()?;
                    assert_eq!(got, task);
                }
                Ok(())
            })
            .unwrap();
        for st in &report.stage_stats {
            assert_eq!(st.tasks, buffered + stages, "stage {}", st.stage);
        }
    }

    #[test]
    fn pipeline_overlaps_stage_sleeps() {
        // Stage overlap is observable even on a single-core host: with
        // a throttle whose sleeps dominate compute, N tasks through a
        // 2-stage pipeline take ~(N+1) * stage_time, not the sequential
        // 2N * stage_time.
        let (m, plan) = two_stage_chain();
        let c = Cluster::pi_cluster(2, 1.0);
        // Effectively free network: the throttle should sleep for
        // compute only, and both stages sleep equally long.
        let p = CostParams::new(1e15);
        let h = m.output_shape().height;
        let engine = Engine::with_seed(&m, 2);
        // Scale so each stage sleeps ~40 ms (compute is microseconds).
        let stage_flops = m.segment_flops(Segment::new(0, 1), Rows::full(h));
        let device_time = c.device(0).unwrap().compute_time(stage_flops);
        let scale = 0.04 / device_time;
        let throttle = Throttle::new(c.clone(), p, scale);
        let runtime = PipelineRuntime::builder(&m, &plan, &engine)
            .throttle(throttle)
            .build();
        let n = 6;
        let inputs: Vec<Tensor> = (0..n).map(|i| Tensor::random(m.input_shape(), i)).collect();
        let report = runtime.run(inputs).unwrap();
        let elapsed = report.elapsed.as_secs_f64();
        // Sequential floor would be ~2 * n * 0.04 = 0.48 s; pipelined is
        // ~(n + 1) * 0.04 = 0.28 s. Assert we beat the sequential floor
        // with margin for scheduling noise under parallel test load.
        assert!(
            elapsed < 0.44,
            "elapsed {elapsed}s suggests no stage overlap"
        );
        assert!(elapsed > 0.20, "elapsed {elapsed}s is impossibly fast");
    }
}

#[cfg(test)]
mod stage_stat_tests {
    use super::*;
    use pico_model::zoo;
    use pico_partition::{Cluster, CostParams, PicoPlanner, PlanRequest, Planner};
    use pico_telemetry::TraceSummary;

    #[test]
    fn stage_stats_count_every_task() {
        let m = zoo::mnist_toy();
        let c = Cluster::pi_cluster(4, 1.0);
        let plan = PicoPlanner
            .plan(&PlanRequest::new(&m, &c, &CostParams::wifi_50mbps()))
            .unwrap();
        let engine = Engine::with_seed(&m, 3);
        let n: usize = 5;
        let inputs: Vec<Tensor> = (0..n)
            .map(|i| Tensor::random(m.input_shape(), i as u64))
            .collect();
        let report = PipelineRuntime::new(&m, &plan, &engine)
            .run(inputs)
            .unwrap();
        assert_eq!(report.stage_stats.len(), plan.stage_count());
        for st in &report.stage_stats {
            assert_eq!(st.tasks, n, "stage {}", st.stage);
            assert!(st.busy_secs > 0.0);
        }
        assert!(report.bottleneck_stage().is_some());
        assert!(report.throughput().unwrap() > 0.0);
        assert!(report.measured_period().unwrap() > 0.0);
    }

    #[test]
    fn recorded_spans_reconcile_exactly_with_stage_stats() {
        // The contract behind "stage_stats is a derived view": each
        // stage's busy_secs equals the sum of its stage_busy span
        // durations — exactly, not approximately, because both come
        // from the same timestamp pairs in the same order.
        let m = zoo::mnist_toy();
        let c = Cluster::pi_cluster(4, 1.0);
        let plan = PicoPlanner
            .plan(&PlanRequest::new(&m, &c, &CostParams::wifi_50mbps()))
            .unwrap();
        let engine = Engine::with_seed(&m, 4);
        let rec = Recorder::in_memory();
        let runtime = PipelineRuntime::builder(&m, &plan, &engine)
            .recorder(rec.clone())
            .build();
        let inputs: Vec<Tensor> = (0..4).map(|i| Tensor::random(m.input_shape(), i)).collect();
        let report = runtime.run(inputs).unwrap();

        let summary = TraceSummary::from_events(&rec.snapshot());
        let derived = summary.stage_busy();
        assert_eq!(derived.len(), report.stage_stats.len());
        for (stat, (stage, busy)) in report.stage_stats.iter().zip(derived) {
            assert_eq!(stat.stage as u32, stage);
            assert_eq!(stat.busy_secs, busy, "stage {stage} diverged");
        }
        assert_eq!(summary.tasks_completed, 4.0);
        // Worker compute spans carry flops/bytes payloads.
        assert!(summary.stages.iter().any(|s| s.flops > 0.0));
    }

    #[test]
    fn spans_reconcile_across_a_degraded_replan() {
        // The reconciliation law survives a mid-stream re-plan: stats
        // are seeded across attempts, so the per-stage busy sums still
        // equal the trace's span sums bit-for-bit.
        let m = zoo::mnist_toy();
        let h = m.output_shape().height;
        let mid = m.len() / 2;
        let plan = Plan::new(
            pico_partition::Scheme::Pico,
            pico_partition::ExecutionMode::Pipelined,
            vec![
                pico_partition::Stage::new(
                    Segment::new(0, mid),
                    vec![pico_partition::Assignment::new(
                        0,
                        Rows::full(m.unit_output_shape(mid - 1).height),
                    )],
                ),
                pico_partition::Stage::new(
                    Segment::new(mid, m.len()),
                    vec![pico_partition::Assignment::new(1, Rows::full(h))],
                ),
            ],
        );
        let engine = Engine::with_seed(&m, 11);
        let rec = Recorder::in_memory();
        let runtime = PipelineRuntime::builder(&m, &plan, &engine)
            .leaves(&[(0, 2)])
            .recovery(crate::RecoveryPolicy::new(
                Cluster::pi_cluster(2, 1.0),
                CostParams::wifi_50mbps(),
            ))
            .recorder(rec.clone())
            .build();
        let inputs: Vec<Tensor> = (0..5).map(|i| Tensor::random(m.input_shape(), i)).collect();
        let report = runtime.run(inputs).unwrap();
        assert!(report.degraded_plan.is_some());
        let summary = TraceSummary::from_events(&rec.snapshot());
        for (stat, (stage, busy)) in report.stage_stats.iter().zip(summary.stage_busy()) {
            assert_eq!(stat.stage as u32, stage);
            assert_eq!(stat.busy_secs, busy, "stage {stage} diverged");
        }
        assert_eq!(summary.tasks_completed, 5.0);
    }

    #[test]
    fn throttled_bottleneck_matches_cost_model() {
        // With a dominant throttle, the measured bottleneck stage is the
        // cost model's max-cost stage.
        let m = zoo::mnist_toy();
        let c = Cluster::pi_cluster(4, 1.0);
        let params = CostParams::wifi_50mbps();
        let plan = PicoPlanner
            .plan(&PlanRequest::new(&m, &c, &params))
            .unwrap();
        if plan.stage_count() < 2 {
            return;
        }
        let cm = params.cost_model(&m);
        let metrics = cm.evaluate(&plan, &c);
        let analytic_bottleneck = metrics
            .stage_costs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total().partial_cmp(&b.1.total()).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        let engine = Engine::with_seed(&m, 3);
        // Scale chosen so sleeps (~tens of ms) dominate real compute.
        let throttle = Throttle::new(c.clone(), params, 1.0);
        let inputs: Vec<Tensor> = (0..4).map(|i| Tensor::random(m.input_shape(), i)).collect();
        let report = PipelineRuntime::builder(&m, &plan, &engine)
            .throttle(throttle)
            .build()
            .run(inputs)
            .unwrap();
        assert_eq!(report.bottleneck_stage(), Some(analytic_bottleneck));
    }
}
