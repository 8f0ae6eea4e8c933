//! The four workloads. Each is one `run`: cold construction and a
//! *fixed* warm-up (together `setup_s`), then — when a window length is
//! given — the timed window, then teardown.
//!
//! Harness-side preparation (input pools, reference outputs, arrival
//! schedules, the churn walk) happens in `prepare`, before and outside
//! anything that is timed: the program under test only ever sees the
//! generated inputs.

use std::sync::Arc;
use std::time::Instant;

use pico_audit::Auditor;
use pico_core::Pico;
use pico_fleet::{CacheKey, ClusterSignature, FleetConfig, FleetFrontier, PlanCache};
use pico_model::{zoo, Model};
use pico_partition::{Cluster, CostParams, Device, PicoPlanner, Plan, PlanRequest, Planner};
use pico_runtime::PipelineRuntime;
use pico_serve::{ServeRequest, TenantPolicy};
use pico_sim::WorkloadBand;
use pico_telemetry::Recorder;
use pico_tensor::{Engine, EngineBackend, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::load::{
    open_loop, open_schedule, Arrival, ClosedLoop, Meter, Pool, Sample, Stop, Window, VERIFY_EVERY,
};
use crate::spans::{Span, Tracer, NO_SPAN};
use crate::stats::Fnv;

/// Seed of the synthetic weights. Fixed: `--seed` varies what is
/// *offered* to the program (inputs, schedule, churn), not the program.
pub const ENGINE_SEED: u64 = 1;

/// Distinct generated inputs per run.
const INPUT_POOL: usize = 8;

/// Tenants of the two serve workloads.
const TENANTS: usize = 2;

/// A workload's identity and fixed sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop on a ≈ 0.6 ms model: serve/runtime overhead dominates.
    ServeClosedTiny,
    /// Closed loop of 4-task batches on AlexNet: tensor dominates.
    PipelineClosedAlexnet,
    /// Open loop at ≈ 10 % load on the same tiny model: latency is the
    /// adaptive batcher's wait for batch-mates, not compute.
    ServeOpenTiny,
    /// Control plane only: plan-cache churn on ResNet-34 × 8 devices.
    ReplanChurn,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::ServeClosedTiny,
        Kind::PipelineClosedAlexnet,
        Kind::ServeOpenTiny,
        Kind::ReplanChurn,
    ];

    /// The frozen name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeClosedTiny => "serve_closed_tiny",
            Kind::PipelineClosedAlexnet => "pipeline_closed_alexnet",
            Kind::ServeOpenTiny => "serve_open_tiny",
            Kind::ReplanChurn => "replan_churn",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Why the workload exists (one line, shown by `--list`).
    pub fn why(self) -> &'static str {
        match self {
            Kind::ServeClosedTiny => {
                "closed loop, 16 outstanding over 2 tenants, Pico::serve on toy(1) x 2 devices: \
                 the tensor work is under half of a ~0.6 ms op, so serve admission/batching and \
                 runtime scatter/stitch/hand-off dominate"
            }
            Kind::PipelineClosedAlexnet => {
                "closed loop, one 4-task batch in flight, ExecutionSession::submit on alexnet x 2 \
                 devices (2 stages, simd): tensor GEMM is ~90 % of the op, serve is bypassed"
            }
            Kind::ServeOpenTiny => {
                "open loop, seeded Poisson schedule at 200 rps (~10 % of capacity), 2 tenants 2:1, \
                 Pico::serve on toy(1) x 2 devices: latency is the adaptive batcher waiting for \
                 batch-mates, not compute — the opposite use of serve"
            }
            Kind::ReplanChurn => {
                "control plane only, one thread: seeded leave/rejoin/recapacity walk over the \
                 8-device heterogeneous cluster on resnet34, one plan-cache lookup, plan switch \
                 audit and invalidation per step; a quarter of the steps revisit a membership"
            }
        }
    }

    /// The tail percentile `latency_tail_ms` reports: the highest of
    /// p99/p95/p90 with at least ten samples beyond it at the sample
    /// count a default-length run produces (stated in `BENCHMARK.json`).
    pub fn tail_percentile(self) -> u32 {
        match self {
            Kind::ServeClosedTiny | Kind::ServeOpenTiny => 99,
            Kind::PipelineClosedAlexnet => 90,
            Kind::ReplanChurn => 95,
        }
    }

    /// The workload's model.
    pub fn model(self) -> Model {
        match self {
            Kind::ServeClosedTiny | Kind::ServeOpenTiny => zoo::toy(1),
            Kind::PipelineClosedAlexnet => zoo::alexnet(),
            Kind::ReplanChurn => zoo::resnet34(),
        }
    }

    /// The workload's (initial) cluster.
    pub fn cluster(self) -> Cluster {
        match self {
            Kind::ReplanChurn => Cluster::paper_heterogeneous(),
            _ => Cluster::pi_cluster(2, 1.0),
        }
    }

    /// The compute backend the workload's data path runs.
    pub fn backend(self) -> EngineBackend {
        match self {
            Kind::PipelineClosedAlexnet => EngineBackend::Simd,
            _ => EngineBackend::Im2colGemm,
        }
    }

    /// Tasks per `ExecutionSession::submit` on this workload's path:
    /// the default `max_batch` for the serve workloads, the pipeline
    /// workload's own batch otherwise.
    pub fn batch(self) -> usize {
        match self {
            Kind::ServeClosedTiny | Kind::ServeOpenTiny => 8,
            Kind::PipelineClosedAlexnet | Kind::ReplanChurn => PIPELINE_BATCH,
        }
    }
}

/// The environment every workload prices plans with.
pub fn params() -> CostParams {
    CostParams::wifi_50mbps()
}

/// What one `run` produced.
pub struct Outcome {
    /// Cold construction → end of the fixed warm-up, seconds.
    pub setup_s: f64,
    /// The timed window, when one was asked for.
    pub window: Option<Window>,
    /// The harness's spans (empty unless tracing).
    pub spans: Vec<Span>,
    /// Operations the warm-up pushed through (their program-side
    /// events precede the window's in the recorder).
    pub warmup_ops: usize,
    /// Fingerprint of the offered load (input order, schedule, walk).
    pub load_hash: u64,
}

/// A timed window's length and the rounds it is cut into.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowPlan {
    /// Seconds to measure for.
    pub secs: f64,
    /// Rounds (see [`crate::load::ROUNDS`]).
    pub rounds: usize,
}

/// A prepared workload: `run` may be called once per prepared segment,
/// each time building the program afresh.
pub trait Workload {
    /// Sets up, warms up, and — given a `window` — measures. `segment`
    /// selects which of the prepared load segments to offer;
    /// `recorder` is handed to the program's public builders; `traced`
    /// turns the harness's own spans on.
    ///
    /// # Errors
    ///
    /// A description of what the program refused or got wrong.
    fn run(
        &self,
        segment: usize,
        window: Option<WindowPlan>,
        recorder: &Recorder,
        traced: bool,
    ) -> Result<Outcome, String>;
}

/// Prepares `kind` for `seed`: generates its inputs — `segments` load
/// segments of `seconds` each — and computes the reference outputs
/// they must produce.
///
/// # Errors
///
/// Errs when reference inference fails.
pub fn prepare(
    kind: Kind,
    seed: u64,
    seconds: f64,
    segments: usize,
) -> Result<Box<dyn Workload>, String> {
    Ok(match kind {
        Kind::ServeClosedTiny => Box::new(ServeLoad {
            kind,
            seed,
            pool: pool(kind, seed)?,
            mode: ServeMode::Closed {
                outstanding: 16,
                warmup_ops: 768,
            },
        }),
        Kind::ServeOpenTiny => Box::new(ServeLoad {
            kind,
            seed,
            pool: pool(kind, seed)?,
            mode: ServeMode::Open {
                schedules: (0..segments as u64)
                    .map(|i| {
                        open_schedule(
                            segment_seed(seed, i),
                            OPEN_RATE,
                            seconds,
                            &[2, 1],
                            INPUT_POOL,
                        )
                    })
                    .collect(),
                warmup_ops: 32,
            },
        }),
        Kind::PipelineClosedAlexnet => Box::new(PipelineLoad {
            kind,
            seed,
            pool: pool(kind, seed)?,
        }),
        Kind::ReplanChurn => {
            // Each segment is sized for ten times the rate seen here,
            // in whole blocks so every segment starts a fresh block.
            let per_segment = (CHURN_WARMUP_OPS + (400.0 * seconds) as usize).next_multiple_of(8);
            let (walk, hash) = churn_walk(seed, 1 + per_segment * segments);
            Box::new(ChurnLoad {
                walk,
                hash,
                per_segment,
            })
        }
    })
}

/// The seed of a run's `segment`-th load segment.
fn segment_seed(seed: u64, segment: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(segment)
}

/// Generates the input pool and its single-device reference outputs.
/// The reference engine (a second copy of the weights) is dropped
/// before anything is timed.
fn pool(kind: Kind, seed: u64) -> Result<Pool, String> {
    let model = kind.model();
    let inputs: Vec<Tensor> = (0..INPUT_POOL as u64)
        .map(|i| Tensor::random(model.input_shape(), seed.wrapping_mul(1000).wrapping_add(i)))
        .collect();
    let engine = Engine::with_seed(&model, ENGINE_SEED).with_backend(kind.backend());
    let refs = inputs
        .iter()
        .map(|x| {
            engine
                .infer(x)
                .map_err(|e| format!("reference inference: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Pool { inputs, refs })
}

fn tracer_for(traced: bool, epoch: Instant) -> Tracer {
    if traced {
        Tracer::enabled(epoch)
    } else {
        Tracer::disabled()
    }
}

/// Room for the samples of a window, allocated before the window
/// starts so the harness's own buffers stay out of `heap_peak_mb`'s
/// movement.
fn sample_room(rate_guess: f64, secs: f64) -> Vec<Sample> {
    Vec::with_capacity((rate_guess * secs) as usize + 1024)
}

// ---------------------------------------------------------------- serve

/// Offered rate of the open loop, requests per second.
pub const OPEN_RATE: f64 = 200.0;

/// Admission policy of the open loop's tenants. An open loop keeps
/// offering while the box stalls, and a rejected request is a failed
/// operation; the default 16-deep queue overflows after 120 ms of
/// stall at the busier tenant's 133 rps, this one after half a second.
const OPEN_TENANT: TenantPolicy = TenantPolicy {
    queue_capacity: 64,
    in_flight_budget: 70,
};

enum ServeMode {
    Closed {
        outstanding: usize,
        warmup_ops: usize,
    },
    Open {
        /// One arrival schedule (and its hash) per segment.
        schedules: Vec<(Vec<Arrival>, u64)>,
        warmup_ops: usize,
    },
}

struct ServeLoad {
    kind: Kind,
    seed: u64,
    pool: Pool,
    mode: ServeMode,
}

impl Workload for ServeLoad {
    fn run(
        &self,
        segment: usize,
        window: Option<WindowPlan>,
        recorder: &Recorder,
        traced: bool,
    ) -> Result<Outcome, String> {
        let seed = segment_seed(self.seed, segment as u64);
        let cold = Instant::now();
        let pico =
            Pico::new(self.kind.model(), self.kind.cluster()).with_recorder(recorder.clone());
        let tenant = match self.mode {
            ServeMode::Closed { .. } => TenantPolicy::default(),
            ServeMode::Open { .. } => OPEN_TENANT,
        };
        let request = ServeRequest::new()
            .with_tenants(vec![tenant; TENANTS])
            .with_engine_seed(ENGINE_SEED);
        let handle = pico.serve(&request).map_err(|e| format!("serve: {e}"))?;

        let mut tracer = Tracer::disabled();
        let mut warm = Window::default();
        let (warmup_ops, outstanding) = match &self.mode {
            ServeMode::Closed {
                outstanding,
                warmup_ops,
            } => (*warmup_ops, *outstanding),
            // The open loop warms up with lone requests, one at a time.
            ServeMode::Open { warmup_ops, .. } => (*warmup_ops, 1),
        };
        let mut closed = ClosedLoop::new(&handle, &self.pool, seed, TENANTS, outstanding);
        closed.run(
            Stop::Ops(warmup_ops),
            cold,
            true,
            &mut tracer,
            &mut warm,
            None,
        )?;
        if warm.failed > 0 || warm.samples.len() != warmup_ops {
            return Err(format!(
                "warm-up: {} of {warmup_ops} outputs failed or were wrong",
                warm.failed
            ));
        }
        let setup_s = cold.elapsed().as_secs_f64();

        let mut load_hash = Fnv::default();
        load_hash.write(seed);
        let mut measured = None;
        let mut spans = Vec::new();
        if let Some(plan) = window {
            let mut w = Window::default();
            match &self.mode {
                ServeMode::Closed { .. } => {
                    w.samples = sample_room(4000.0, plan.secs);
                    let mut meter = Meter::start(plan.secs, plan.rounds)?;
                    let t0 = meter.t0();
                    let mut tracer = tracer_for(traced, t0);
                    let end = Stop::At(t0 + std::time::Duration::from_secs_f64(plan.secs));
                    let end = closed.run(end, t0, false, &mut tracer, &mut w, Some(&mut meter))?;
                    meter.stop(end, &mut w)?;
                    closed.drain();
                    spans = tracer.into_spans();
                }
                ServeMode::Open { schedules, .. } => {
                    let (schedule, hash) = schedules
                        .get(segment)
                        .ok_or_else(|| format!("segment {segment} was not prepared"))?;
                    load_hash.write(*hash);
                    w.samples = Vec::with_capacity(schedule.len());
                    w.sched_lag_ms = Vec::with_capacity(schedule.len());
                    let mut meter = Meter::start(plan.secs, plan.rounds)?;
                    let mut tracer = tracer_for(traced, meter.t0());
                    let end = open_loop(
                        &handle,
                        &self.pool,
                        schedule,
                        &mut meter,
                        false,
                        &mut tracer,
                        &mut w,
                    )?;
                    meter.stop(end, &mut w)?;
                    spans = tracer.into_spans();
                }
            }
            measured = Some(w);
        }
        drop(closed);
        let served = handle.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let rejected: u64 = served.per_tenant.iter().map(|t| t.rejected).sum();
        if let Some(w) = &measured {
            // The server's own ledger must agree that nothing was refused
            // beyond what the generator saw.
            if rejected > w.failed {
                return Err(format!(
                    "server counted {rejected} rejections, generator {}",
                    w.failed
                ));
            }
        }
        Ok(Outcome {
            setup_s,
            window: measured,
            spans,
            warmup_ops,
            load_hash: load_hash.finish(),
        })
    }
}

// ------------------------------------------------------------- pipeline

/// Tasks per `ExecutionSession::submit` in `pipeline_closed_alexnet`.
pub const PIPELINE_BATCH: usize = 4;

struct PipelineLoad {
    kind: Kind,
    seed: u64,
    pool: Pool,
}

impl PipelineLoad {
    /// Draws a batch of inputs; cloning them is harness work, done
    /// before the batch's clock starts.
    fn batch(&self, rng: &mut StdRng) -> (Vec<usize>, Vec<Tensor>) {
        let picks: Vec<usize> = (0..PIPELINE_BATCH)
            .map(|_| rng.gen_range(0..self.pool.inputs.len()))
            .collect();
        let tensors = picks.iter().map(|&i| self.pool.inputs[i].clone()).collect();
        (picks, tensors)
    }
}

impl Workload for PipelineLoad {
    fn run(
        &self,
        segment: usize,
        window: Option<WindowPlan>,
        recorder: &Recorder,
        traced: bool,
    ) -> Result<Outcome, String> {
        let seed = segment_seed(self.seed, segment as u64);
        let cold = Instant::now();
        let model = self.kind.model();
        let cluster = self.kind.cluster();
        let params = params();
        let plan = PicoPlanner
            .plan(&PlanRequest::new(&model, &cluster, &params))
            .map_err(|e| format!("plan: {e}"))?;
        let engine = Engine::with_seed(&model, ENGINE_SEED);
        let runtime = PipelineRuntime::builder(&model, &plan, &engine)
            .backend(self.kind.backend())
            .recorder(recorder.clone())
            .build();

        let mut rng = StdRng::seed_from_u64(seed);
        let session = runtime.session(|sess| {
            // `Err(String)` cannot cross the session's error type, so
            // harness-level failures are carried out in the value.
            let mut body = || -> Result<(f64, Option<Window>, Vec<Span>), String> {
                let (picks, tensors) = self.batch(&mut rng);
                let outs = sess.submit(&tensors).map_err(|e| format!("warm-up: {e}"))?;
                for (i, out) in picks.iter().zip(&outs) {
                    if !self.pool.matches(*i, out) {
                        return Err("warm-up output differs from single-device inference".into());
                    }
                }
                let setup_s = cold.elapsed().as_secs_f64();
                let Some(plan) = window else {
                    return Ok((setup_s, None, Vec::new()));
                };

                let mut w = Window {
                    samples: sample_room(100.0, plan.secs),
                    ..Window::default()
                };
                let mut meter = Meter::start(plan.secs, plan.rounds)?;
                let t0 = meter.t0();
                let mut tracer = tracer_for(traced, t0);
                let mut op = 0u32;
                // One batch is always in flight, so the window closes
                // with the first batch to complete at or after `secs`.
                let end = loop {
                    let (picks, tensors) = self.batch(&mut rng);
                    let span = tracer.begin("runtime.submit", "runtime", NO_SPAN, op);
                    let start = Instant::now();
                    let result = sess.submit(&tensors);
                    let done = Instant::now();
                    tracer.end(span);
                    meter.tick(done);
                    let outs = result.map_err(|e| format!("submit: {e}"))?;
                    // Every task of the batch is handed back together:
                    // one latency, `PIPELINE_BATCH` operations.
                    let latency_ms = done.duration_since(start).as_secs_f32() * 1e3;
                    for (i, out) in picks.iter().zip(&outs) {
                        w.attempted += 1;
                        if op.is_multiple_of(VERIFY_EVERY) && !self.pool.matches(*i, out) {
                            w.failed += 1;
                        } else {
                            w.samples.push(Sample {
                                done_s: done.duration_since(t0).as_secs_f32(),
                                latency_ms,
                            });
                        }
                        op += 1;
                    }
                    if done.duration_since(t0).as_secs_f64() >= plan.secs {
                        break done;
                    }
                };
                meter.stop(end, &mut w)?;
                Ok((setup_s, Some(w), tracer.into_spans()))
            };
            Ok(body())
        });
        let (body, _report) = session.map_err(|e| format!("session: {e}"))?;
        let (setup_s, window, spans) = body?;
        let mut load_hash = Fnv::default();
        load_hash.write(seed);
        Ok(Outcome {
            setup_s,
            window,
            spans,
            warmup_ops: PIPELINE_BATCH,
            load_hash: load_hash.finish(),
        })
    }
}

// ---------------------------------------------------------------- churn

/// Operations of the churn warm-up (≈ 0.3 s of frontier builds).
pub const CHURN_WARMUP_OPS: usize = 10;

/// Frontiers the private plan cache may hold.
const CHURN_CACHE_CAPACITY: usize = 64;

/// What moved the membership to a step's cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// The starting membership: all eight devices.
    Start,
    /// A member left.
    Leave(usize),
    /// A former member came back at the clock it left with.
    Rejoin(usize),
    /// A member was re-provisioned at a clock it never ran at before,
    /// so the membership it leaves behind can never return.
    Recapacity(usize),
}

/// One step of the membership walk.
#[derive(Debug, Clone)]
pub struct ChurnStep {
    /// What happened.
    pub event: ChurnEvent,
    /// The membership after the event.
    pub cluster: Cluster,
}

/// The seeded membership walk over `Cluster::paper_heterogeneous()`:
/// 5–8 members, in blocks of four steps —
///
/// 1. a device leaves (or, in a growing block, rejoins): a fresh
///    membership, a cache miss,
/// 2. another does the same (miss),
/// 3. step 2 is undone — the flapping device comes back, or goes
///    again — which revisits step 1's membership (a cache hit),
/// 4. a member is re-provisioned at a new clock (miss; the membership
///    left behind cannot return and is invalidated).
///
/// Shrinking and growing blocks alternate (7 → 6 → 5 → 6, then
/// 6 → 7 → 8 → 7), so every eight steps offer the same mix of cluster
/// sizes and exactly two revisits, whatever the seed; the seed picks
/// *which* devices move. Returns the walk and its hash.
pub fn churn_walk(seed: u64, steps: usize) -> (Vec<ChurnStep>, u64) {
    let base = Cluster::paper_heterogeneous();
    let base_ghz: Vec<f64> = base.devices().iter().map(|d| d.capacity / 1e9).collect();
    let n = base.len();
    let mut ghz = base_ghz.clone();
    let mut present = vec![true; n];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hash = Fnv::default();
    let mut walk = Vec::with_capacity(steps);
    let mut recapacities = 0u64;

    let snapshot = |present: &[bool], ghz: &[f64]| {
        Cluster::new(
            (0..n)
                .filter(|&i| present[i])
                .map(|i| Device::from_frequency(i, ghz[i]))
                .collect(),
        )
    };
    // A uniform draw among the devices that are (or are not) members,
    // `barred` aside.
    let pick = |rng: &mut StdRng, present: &[bool], want: bool, barred: Option<usize>| {
        let ids: Vec<usize> = (0..n)
            .filter(|&i| present[i] == want && Some(i) != barred)
            .collect();
        ids[rng.gen_range(0..ids.len())]
    };
    // The device re-provisioned last stays a member until the next one
    // is: its never-seen-before clock marks every membership of the
    // block as new, so the only revisits are the designed ones.
    let mut marker: Option<usize> = None;

    let mut push = |walk: &mut Vec<ChurnStep>, event: ChurnEvent, present: &[bool], ghz: &[f64]| {
        let (tag, id) = match event {
            ChurnEvent::Start => (0u64, 0),
            ChurnEvent::Leave(d) => (1, d),
            ChurnEvent::Rejoin(d) => (2, d),
            ChurnEvent::Recapacity(d) => (3, d),
        };
        hash.write(tag);
        hash.write(id as u64);
        walk.push(ChurnStep {
            event,
            cluster: snapshot(present, ghz),
        });
    };

    push(&mut walk, ChurnEvent::Start, &present, &ghz);
    'walk: loop {
        let mut last = ChurnEvent::Start;
        let shrinking = present.iter().filter(|p| **p).count() >= 7;
        for phase in 0..4 {
            if walk.len() >= steps {
                break 'walk;
            }
            let event = match phase {
                0 | 1 if shrinking => ChurnEvent::Leave(pick(&mut rng, &present, true, marker)),
                0 | 1 => ChurnEvent::Rejoin(pick(&mut rng, &present, false, None)),
                2 => match last {
                    ChurnEvent::Leave(d) => ChurnEvent::Rejoin(d),
                    ChurnEvent::Rejoin(d) => ChurnEvent::Leave(d),
                    _ => unreachable!("phase 1 always leaves or rejoins"),
                },
                _ => ChurnEvent::Recapacity(pick(&mut rng, &present, true, None)),
            };
            match event {
                ChurnEvent::Leave(d) => present[d] = false,
                ChurnEvent::Rejoin(d) => present[d] = true,
                ChurnEvent::Recapacity(d) => {
                    // A clock no device has run at before: the tier's
                    // base, nudged by parts per million.
                    recapacities += 1;
                    ghz[d] = base_ghz[d] * (1.0 + 1e-6 * recapacities as f64);
                    marker = Some(d);
                }
                ChurnEvent::Start => {}
            }
            last = event;
            push(&mut walk, event, &present, &ghz);
        }
    }
    let digest = hash.finish();
    (walk, digest)
}

struct ChurnLoad {
    walk: Vec<ChurnStep>,
    hash: u64,
    /// Steps of the walk each segment owns.
    per_segment: usize,
}

/// The control-plane state one churn run carries between operations.
struct ChurnState<'a> {
    model: &'a Model,
    params: CostParams,
    cache: PlanCache,
    recorder: &'a Recorder,
    prev: Option<(Plan, ClusterSignature)>,
    /// Hits kept for the hit ≡ fresh-build check after the window.
    sampled_hits: Vec<(usize, Arc<FleetFrontier>)>,
    hits_seen: u32,
}

impl ChurnState<'_> {
    /// One operation: key → cache lookup (building on a miss) → the
    /// max-throughput plan → switch audit against the previous plan →
    /// invalidation of a membership that cannot return. Returns whether
    /// the audit would allow a warm swap: a refusal (PA305–PA307) is an
    /// answer, not a failure — the deployment then swaps cold.
    fn step(
        &mut self,
        index: usize,
        walk: &[ChurnStep],
        tracer: &mut Tracer,
        request: u32,
    ) -> Result<bool, String> {
        let step = &walk[index];
        let op = tracer.begin("op", "bench", NO_SPAN, request);
        let span = tracer.begin("fleet.key", "fleet", op, request);
        let key = CacheKey::new(
            self.model,
            &step.cluster,
            &self.params,
            WorkloadBand::point(0.0),
        );
        tracer.end(span);

        let hits_before = self.cache.stats().hits;
        let lookup = tracer.begin("fleet.get_or_build", "fleet", op, request);
        let frontier = self.cache.get_or_build(key, self.recorder, || {
            let build = tracer.begin("fleet.frontier_build", "fleet.build", lookup, request);
            let built = FleetFrontier::build(
                self.model,
                &step.cluster,
                &self.params,
                FleetConfig::default(),
            );
            tracer.end(build);
            built
        });
        tracer.end(lookup);
        let frontier = frontier.map_err(|e| format!("frontier: {e}"))?;
        if self.cache.stats().hits > hits_before {
            if self.hits_seen.is_multiple_of(VERIFY_EVERY) {
                self.sampled_hits.push((index, frontier.clone()));
            }
            self.hits_seen += 1;
        }

        let span = tracer.begin("fleet.select", "fleet", op, request);
        let plan = frontier.entries()[frontier.max_throughput()].plan.clone();
        tracer.end(span);

        let mut warm_swap = true;
        if let Some((prev_plan, prev_sig)) = &self.prev {
            // The audit must know every device either plan names: after
            // a leave that is the membership being left.
            let both = match step.event {
                ChurnEvent::Leave(_) => &walk[index - 1].cluster,
                _ => &step.cluster,
            };
            let span = tracer.begin("audit.switch_pair", "audit", op, request);
            let report = Auditor::new(self.model, both)
                .with_params(self.params)
                .audit_switch_pair(prev_plan, &plan);
            tracer.end(span);
            warm_swap = report.is_executable();
            if matches!(step.event, ChurnEvent::Recapacity(_)) {
                let span = tracer.begin("fleet.invalidate", "fleet", op, request);
                self.cache.invalidate_stale(*prev_sig, self.recorder);
                tracer.end(span);
            }
        }
        tracer.end(op);
        // Outside the operation's clock: the plan must be valid for the
        // membership it was chosen for.
        plan.validate(self.model, &step.cluster)
            .map_err(|e| format!("step {index}: invalid plan: {e}"))?;
        self.prev = Some((plan, frontier.signature()));
        Ok(warm_swap)
    }
}

impl Workload for ChurnLoad {
    fn run(
        &self,
        segment: usize,
        window: Option<WindowPlan>,
        recorder: &Recorder,
        traced: bool,
    ) -> Result<Outcome, String> {
        // Each segment walks on from where the one before it could at
        // most have got to, with a cold cache of its own.
        let first = segment * self.per_segment;
        let walk = self
            .walk
            .get(first..first + self.per_segment + 1)
            .ok_or_else(|| format!("segment {segment} was not prepared"))?;
        let cold = Instant::now();
        let model = Kind::ReplanChurn.model();
        let mut state = ChurnState {
            model: &model,
            params: params(),
            cache: PlanCache::new(CHURN_CACHE_CAPACITY),
            recorder,
            prev: None,
            sampled_hits: Vec::new(),
            hits_seen: 0,
        };
        let mut off = Tracer::disabled();
        for i in 0..CHURN_WARMUP_OPS.min(walk.len()) {
            state.step(i, walk, &mut off, 0)?;
        }
        let setup_s = cold.elapsed().as_secs_f64();

        let mut measured = None;
        let mut spans = Vec::new();
        if let Some(plan) = window {
            let secs = plan.secs;
            let mut w = Window {
                samples: sample_room(400.0, secs),
                ..Window::default()
            };
            state.sampled_hits.reserve(64);
            let before = state.cache.stats();
            let mut meter = Meter::start(secs, plan.rounds)?;
            let t0 = meter.t0();
            let mut tracer = tracer_for(traced, t0);
            // One operation at a time: the window closes with the first
            // to complete at or after `secs` (or when the walk, sized
            // for ten times the rate seen here, runs out).
            let mut end = t0;
            for i in CHURN_WARMUP_OPS..walk.len() {
                let request = (i - CHURN_WARMUP_OPS) as u32;
                let start = Instant::now();
                let result = state.step(i, walk, &mut tracer, request);
                end = Instant::now();
                meter.tick(end);
                w.attempted += 1;
                match result {
                    Ok(warm_swap) => {
                        w.switch_refusals += u64::from(!warm_swap);
                        w.samples.push(Sample {
                            done_s: end.duration_since(t0).as_secs_f32(),
                            latency_ms: end.duration_since(start).as_secs_f32() * 1e3,
                        });
                    }
                    Err(_) => w.failed += 1,
                }
                if end.duration_since(t0).as_secs_f64() >= secs {
                    break;
                }
            }
            meter.stop(end, &mut w)?;
            let after = state.cache.stats();
            w.cache_hits = after.hits - before.hits;
            w.cache_lookups = w.cache_hits + after.misses - before.misses;
            spans = tracer.into_spans();

            // A sampled hit must equal what a fresh build produces.
            for (i, cached) in &state.sampled_hits {
                let fresh = FleetFrontier::build(
                    &model,
                    &walk[*i].cluster,
                    &state.params,
                    FleetConfig::default(),
                )
                .map_err(|e| format!("fresh build of step {i}: {e}"))?;
                if fresh.to_json() != cached.to_json() {
                    w.failed += 1;
                }
            }
            measured = Some(w);
        }
        Ok(Outcome {
            setup_s,
            window: measured,
            spans,
            warmup_ops: CHURN_WARMUP_OPS,
            load_hash: self.hash,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
            assert!(k.why().len() <= 400 && !k.why().contains('\n'));
        }
        assert_eq!(Kind::parse("control_warm"), None);
    }

    #[test]
    fn walk_is_fixed_by_the_seed() {
        let (a, ha) = churn_walk(3, 200);
        let (b, hb) = churn_walk(3, 200);
        let (c, hc) = churn_walk(4, 200);
        assert_eq!(ha, hb);
        assert_ne!(ha, hc);
        assert_eq!(a.len(), 200);
        let events = |w: &[ChurnStep]| w.iter().map(|s| s.event).collect::<Vec<_>>();
        assert_eq!(events(&a), events(&b));
        assert_ne!(events(&a), events(&c));
        assert!(a.iter().zip(&b).all(|(x, y)| x.cluster == y.cluster));
    }

    #[test]
    fn walk_keeps_its_shape_for_every_seed() {
        for seed in 1..=5 {
            let (walk, _) = churn_walk(seed, 1 + 4 * 60);
            assert_eq!(walk[0].event, ChurnEvent::Start);
            let mut seen = std::collections::HashSet::new();
            let mut revisits = 0;
            let mut sizes = [0usize; 9];
            for (i, step) in walk.iter().enumerate() {
                let members = step.cluster.len();
                assert!(
                    (5..=8).contains(&members),
                    "seed {seed} step {i}: {members}"
                );
                sizes[members] += 1;
                if !seen.insert(ClusterSignature::of(&step.cluster)) {
                    revisits += 1;
                    // Only a block's undo step returns to a membership.
                    assert_eq!(i % 4, 3, "seed {seed}: unexpected revisit at step {i}");
                }
                if i > 0 && i % 4 == 0 {
                    assert!(matches!(step.event, ChurnEvent::Recapacity(_)));
                }
            }
            // Exactly one step in four revisits, for every seed.
            assert_eq!(revisits, 60, "seed {seed}");
            // The size mix is the same for every seed.
            assert_eq!(&sizes[5..], &[30, 91, 90, 30], "seed {seed}");
        }
    }
}
