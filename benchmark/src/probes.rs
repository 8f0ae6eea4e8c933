//! Idle per-layer probes: each times calls into one crate's public
//! functions, from outside, with nothing else running, on the
//! workload's own model, cluster and PICO plan. A probe's value is the
//! median of its repetitions.
//!
//! Repetitions are capped by time, not only by count: thirty where a
//! call is cheap, three where one takes longer than the probe's time
//! budget, two where one takes over a second (int8 ResNet-34), so a
//! traced run stays within a minute.

use std::time::Instant;

use pico_audit::Auditor;
use pico_core::Pico;
use pico_fleet::{CacheKey, ClusterSignature, FleetConfig, FleetFrontier, PlanCache};
use pico_model::{Model, Region2, Rows};
use pico_partition::{
    pareto, Cluster, CostParams, Device, EarlyFused, GridFused, Interleaved, LayerWise,
    OptimalFused, PicoPlanner, Plan, PlanRequest, Planner,
};
use pico_runtime::PipelineRuntime;
use pico_serve::{ServeRequest, TenantPolicy};
use pico_sim::{AdaptiveBatcher, AdmissionLedger, Arrivals, BatchPolicy, Simulation, WorkloadBand};
use pico_telemetry::{names, Ctx, Recorder};
use pico_tensor::{Engine, EngineBackend, Scratch, Tensor};

use crate::alloc;
use crate::attribution::task_paths;
use crate::stats::median;
use crate::workloads::{params, Kind, ENGINE_SEED};

/// Pause before each lone serve request: long enough that the adaptive
/// batcher's gap estimate asks for batches of one.
const LONE_REQUEST_GAP: std::time::Duration = std::time::Duration::from_millis(40);

/// Named probe readings, in the unit `spec::PER_LAYER` states.
pub type Readings = Vec<(&'static str, f64)>;

/// Most repetitions of one probe.
const MAX_REPS: usize = 30;
/// Fewest repetitions of one probe.
const MIN_REPS: usize = 3;
/// Repetitions of a probe whose single call takes over a second.
const SLOW_REPS: usize = 2;
/// Seconds one probe may spend once it has its fewest repetitions.
const PROBE_BUDGET_SECS: f64 = 0.4;

/// Calls `f` under the repetition policy — at least [`MIN_REPS`]
/// times, then until [`MAX_REPS`] or the time budget — collecting what
/// it returns.
fn collect_reps<T, E>(mut f: impl FnMut() -> Result<T, E>) -> Result<Vec<T>, E> {
    let mut got = Vec::with_capacity(MAX_REPS);
    let started = Instant::now();
    while got.len() < MAX_REPS
        && (got.len() < MIN_REPS || started.elapsed().as_secs_f64() < PROBE_BUDGET_SECS)
    {
        got.push(f()?);
        // A call that takes over a second (ResNet-34 on int8) is
        // repeated once, not twice.
        if got.len() == SLOW_REPS && started.elapsed().as_secs_f64() > SLOW_REPS as f64 {
            break;
        }
    }
    Ok(got)
}

/// Seconds each repetition of `f` took.
fn time_reps<T, E>(mut f: impl FnMut() -> Result<T, E>) -> Result<Vec<f64>, E> {
    collect_reps(|| {
        let t = Instant::now();
        std::hint::black_box(f()?);
        Ok(t.elapsed().as_secs_f64())
    })
}

/// Median seconds of one call of a fallible `f`.
fn try_secs<T, E>(f: impl FnMut() -> Result<T, E>) -> Result<f64, E> {
    Ok(median(&time_reps(f)?).unwrap_or(0.0))
}

/// Median seconds of one call of `f`.
fn secs<T>(mut f: impl FnMut() -> T) -> f64 {
    let never_fails: Result<f64, std::convert::Infallible> = try_secs(|| Ok(f()));
    never_fails.unwrap_or(0.0)
}

/// Median seconds of one call of a sub-microsecond `f`, timed `inner`
/// calls at a time.
fn secs_each<T>(inner: usize, mut f: impl FnMut() -> T) -> f64 {
    secs(|| {
        for _ in 0..inner {
            std::hint::black_box(f());
        }
    }) / inner as f64
}

/// Runs every idle probe for `kind`.
///
/// # Errors
///
/// Errs when a probed call fails.
pub fn idle(kind: Kind) -> Result<Readings, String> {
    let model = kind.model();
    let cluster = kind.cluster();
    let params = params();
    let plan = PicoPlanner
        .plan(&PlanRequest::new(&model, &cluster, &params))
        .map_err(|e| format!("probe plan: {e}"))?;
    let mut out = Readings::new();
    tensor(kind, &model, &plan, &mut out)?;
    runtime(kind, &model, &plan, &mut out)?;
    serve(kind, &model, &cluster, &plan, &mut out)?;
    control_plane(&model, &cluster, &params, &plan, &mut out)?;
    policy_and_telemetry(&mut out);
    Ok(out)
}

/// One task replayed outside the runtime, stage by stage: slice every
/// tile, compute every shard, stitch. Returns (Σ shard compute,
/// critical path = Σ stages of slices + slowest shard + stitch,
/// worst stage's slowest ÷ mean shard).
fn replay(
    model: &Model,
    plan: &Plan,
    engine: &Engine<'_>,
    scratch: &mut Scratch,
    input: &Tensor,
) -> Result<(f64, f64, f64), String> {
    let mut fmap = input.clone();
    let (mut shard_sum, mut critical, mut imbalance) = (0.0, 0.0, 1.0f64);
    for stage in &plan.stages {
        let out_shape = model.unit_output_shape(stage.segment.end - 1);
        let mut tiles = Vec::new();
        let mut shard_secs = Vec::new();
        let mut slicing = 0.0;
        for a in stage.assignments.iter().filter(|a| !a.is_empty()) {
            let out_region: Region2 = a.region(out_shape.width);
            let in_region = model.segment_input_region(stage.segment, out_region);
            let t = Instant::now();
            let tile = fmap.slice_region(in_region).map_err(|e| e.to_string())?;
            slicing += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let shard = engine
                .infer_region2_with(scratch, stage.segment, out_region, &tile)
                .map_err(|e| e.to_string())?;
            shard_secs.push(t.elapsed().as_secs_f64());
            scratch.give(tile.into_vec());
            tiles.push(shard);
        }
        let t = Instant::now();
        fmap = Tensor::stitch_tiles(&tiles).map_err(|e| e.to_string())?;
        let stitching = t.elapsed().as_secs_f64();
        let slowest = shard_secs.iter().copied().fold(0.0, f64::max);
        let total: f64 = shard_secs.iter().sum();
        shard_sum += total;
        critical += slicing + slowest + stitching;
        imbalance = imbalance.max(slowest * shard_secs.len() as f64 / total);
    }
    Ok((shard_sum, critical, imbalance))
}

fn tensor(kind: Kind, model: &Model, plan: &Plan, out: &mut Readings) -> Result<(), String> {
    out.push((
        "tensor.weights_init_ms",
        secs(|| Engine::with_seed(model, ENGINE_SEED)) * 1e3,
    ));
    let base = Engine::with_seed(model, ENGINE_SEED);
    let input = Tensor::random(model.input_shape(), 7);
    let mut own_backend_secs = 0.0;
    for (name, backend) in [
        ("tensor.infer_ms.im2col", EngineBackend::Im2colGemm),
        ("tensor.infer_ms.simd", EngineBackend::Simd),
        ("tensor.infer_ms.int8", EngineBackend::Int8),
    ] {
        let engine = base.fork_backend(backend);
        engine.infer(&input).map_err(|e| e.to_string())?;
        let took = secs(|| engine.infer(&input));
        if backend == kind.backend() {
            own_backend_secs = took;
        }
        out.push((name, took * 1e3));
    }
    // FLOPs are the model's computed count, not a hardware counter.
    out.push((
        "tensor.gflops",
        model.total_flops() / own_backend_secs / 1e9,
    ));

    let engine = base.fork_backend(kind.backend());
    let mut scratch = Scratch::new();
    replay(model, plan, &engine, &mut scratch, &input)?;
    let replays = collect_reps(|| replay(model, plan, &engine, &mut scratch, &input))?;
    let shard: Vec<f64> = replays.iter().map(|r| r.0).collect();
    let imbalance: Vec<f64> = replays.iter().map(|r| r.2).collect();
    let shard_secs = median(&shard).unwrap_or(0.0);
    out.push(("tensor.shard_ms", shard_secs * 1e3));
    out.push(("tensor.redundancy_ratio", shard_secs / own_backend_secs));
    out.push(("tensor.shard_imbalance", median(&imbalance).unwrap_or(1.0)));

    // Steady state: the scratch pool serves every buffer, and the
    // output's buffer is handed back.
    let full = Region2::full(model.output_shape().height, model.output_shape().width);
    let seg = model.full_segment();
    for _ in 0..2 {
        let y = engine
            .infer_region2_with(&mut scratch, seg, full, &input)
            .map_err(|e| e.to_string())?;
        scratch.give(y.into_vec());
    }
    let before = alloc::snapshot().calls;
    let y = engine
        .infer_region2_with(&mut scratch, seg, full, &input)
        .map_err(|e| e.to_string())?;
    let after = alloc::snapshot().calls;
    scratch.give(y.into_vec());
    out.push(("tensor.allocs_per_infer", (after - before) as f64));
    Ok(())
}

fn runtime(kind: Kind, model: &Model, plan: &Plan, out: &mut Readings) -> Result<(), String> {
    let engine = Engine::with_seed(model, ENGINE_SEED);
    let input = Tensor::random(model.input_shape(), 7);
    let batch = vec![input.clone(); kind.batch()];
    let one = [input.clone()];
    let runtime = PipelineRuntime::builder(model, plan, &engine)
        .backend(kind.backend())
        .build();
    out.push((
        "runtime.session_open_ms",
        secs(|| runtime.session(|_| Ok(()))) * 1e3,
    ));

    let session = runtime.session(|sess| {
        sess.submit(&batch)?;
        let task_secs = try_secs(|| sess.submit(&one))?;
        let batch_secs = try_secs(|| sess.submit(&batch))?;
        // All threads' allocator traffic over one warm batch, counted
        // call by call; the batch before it folds the workers' backlogs.
        alloc::exact(true);
        sess.submit(&batch)?;
        let before = alloc::snapshot();
        let measured = sess.submit(&batch);
        let after = alloc::snapshot();
        alloc::exact(false);
        measured?;
        Ok((task_secs, batch_secs, before, after))
    });
    let ((task_secs, batch_secs, before, after), _) = session.map_err(|e| e.to_string())?;
    let b = kind.batch() as f64;
    out.push(("runtime.task_ms", task_secs * 1e3));
    out.push(("runtime.batch_ms", batch_secs * 1e3));
    out.push((
        "runtime.allocs_per_task",
        (after.calls - before.calls) as f64 / b,
    ));
    out.push((
        "runtime.alloc_kb_per_task",
        (after.bytes - before.bytes) as f64 / 1024.0 / b,
    ));

    // The same warm batches again with the runtime's own spans on.
    let recorder = Recorder::in_memory();
    let recorded = PipelineRuntime::builder(model, plan, &engine)
        .backend(kind.backend())
        .recorder(recorder.clone())
        .build();
    const WARM: usize = 1;
    let session = recorded.session(|sess| {
        for _ in 0..WARM {
            sess.submit(&batch)?;
        }
        time_reps(|| sess.submit(&batch))
    });
    let (batch_times, _) = session.map_err(|e| e.to_string())?;
    let paths: Vec<_> = task_paths(&recorder.snapshot())
        .into_iter()
        .skip(WARM * kind.batch())
        .flatten()
        .collect();
    let med = |f: &dyn Fn(&crate::attribution::TaskPath) -> f64| {
        median(&paths.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let compute = med(&|p| p.compute());
    let busy = med(&|p| p.busy());
    out.push(("runtime.scatter_ms", med(&|p| p.scatter()) * 1e3));
    out.push(("runtime.compute_ms", compute * 1e3));
    out.push(("runtime.halo_ms", med(&|p| p.halo()) * 1e3));
    out.push(("runtime.stitch_ms", med(&|p| p.stitch()) * 1e3));
    out.push(("runtime.noncompute_share", 1.0 - compute / busy));
    // Bottleneck stage: busiest per task.
    let stages = paths.first().map_or(0, |p| p.stages.len());
    let bottleneck = (0..stages)
        .map(|s| med(&|p| p.stages[s].end - p.stages[s].begin))
        .fold(0.0, f64::max);
    let recorded_batch = median(&batch_times).unwrap_or(0.0);
    out.push(("runtime.stage_busy_share", b * bottleneck / recorded_batch));
    out.push((
        "runtime.fill_share",
        (1.0 - b * bottleneck / recorded_batch).max(0.0),
    ));

    // Hand-off: what a lone task costs inside the runtime beyond the
    // same slice → infer_region → stitch work replayed outside it.
    let fork = engine.fork_backend(kind.backend());
    let mut scratch = Scratch::new();
    replay(model, plan, &fork, &mut scratch, &input)?;
    let critical: Vec<f64> = collect_reps(|| replay(model, plan, &fork, &mut scratch, &input))?
        .iter()
        .map(|r| r.1)
        .collect();
    out.push((
        "runtime.handoff_ms",
        (task_secs - median(&critical).unwrap_or(0.0)) * 1e3,
    ));
    Ok(())
}

fn serve(
    kind: Kind,
    model: &Model,
    cluster: &Cluster,
    plan: &Plan,
    out: &mut Readings,
) -> Result<(), String> {
    let input = Tensor::random(model.input_shape(), 7);
    let request = ServeRequest::new()
        .with_tenants(vec![TenantPolicy::default(); 2])
        .with_engine_seed(ENGINE_SEED);
    let pico = Pico::new(model.clone(), cluster.clone());
    let err = |e: pico_serve::ServeError| e.to_string();

    // Cold: construction → first response; then shutdown at idle.
    let mut ready = Vec::new();
    let mut shutdown = Vec::new();
    for _ in 0..MIN_REPS {
        let t = Instant::now();
        let handle = Pico::new(model.clone(), cluster.clone())
            .serve(&request)
            .map_err(err)?;
        handle
            .submit(0, input.clone())
            .map_err(err)?
            .wait()
            .map_err(err)?;
        ready.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        handle.shutdown().map_err(err)?;
        shutdown.push(t.elapsed().as_secs_f64());
    }
    out.push(("core.serve_ready_ms", median(&ready).unwrap_or(0.0) * 1e3));
    out.push(("serve.shutdown_ms", median(&shutdown).unwrap_or(0.0) * 1e3));
    out.push(("core.plan_ms", secs(|| pico.plan()) * 1e3));

    // Lone requests on an idle server.
    let handle = pico.serve(&request).map_err(err)?;
    handle
        .submit(0, input.clone())
        .map_err(err)?
        .wait()
        .map_err(err)?;
    // (seconds inside `submit`, seconds from submit to output); the
    // input's clone is the harness's and stays off both clocks.
    let lone = collect_reps(|| {
        let x = input.clone();
        // Back-to-back requests would shrink the batcher's gap estimate
        // and each wait out the flush tick for batch-mates that never come.
        std::thread::sleep(LONE_REQUEST_GAP);
        let t = Instant::now();
        let ticket = handle.submit(0, x)?;
        let submitted = t.elapsed().as_secs_f64();
        ticket.wait()?;
        Ok((submitted, t.elapsed().as_secs_f64()))
    })
    .map_err(err)?;
    let swap = try_secs(|| handle.swap(plan.clone())).map_err(err)?;
    handle.shutdown().map_err(err)?;
    let submit: Vec<f64> = lone.iter().map(|l| l.0).collect();
    let lone: Vec<f64> = lone.iter().map(|l| l.1).collect();
    out.push(("serve.submit_us", median(&submit).unwrap_or(0.0) * 1e6));
    out.push(("serve.swap_stall_ms", swap * 1e3));

    // The same lone task straight through the runtime, on the backend
    // the server runs (its engine's default), also at idle.
    let task_secs = match out.iter().find(|(n, _)| *n == "runtime.task_ms") {
        Some((_, ms)) if kind.backend() == EngineBackend::default() => ms / 1e3,
        _ => {
            let engine = Engine::with_seed(model, ENGINE_SEED);
            let runtime = PipelineRuntime::builder(model, plan, &engine).build();
            let one = [input.clone()];
            let (took, _) = runtime
                .session(|sess| {
                    sess.submit(&one)?;
                    try_secs(|| sess.submit(&one))
                })
                .map_err(|e| e.to_string())?;
            took
        }
    };
    let lone_secs = median(&lone).unwrap_or(0.0);
    out.push(("serve.added_latency_ms", (lone_secs - task_secs) * 1e3));
    Ok(())
}

fn control_plane(
    model: &Model,
    cluster: &Cluster,
    params: &CostParams,
    plan: &Plan,
    out: &mut Readings,
) -> Result<(), String> {
    let request = PlanRequest::new(model, cluster, params);
    let planners: [(&'static str, &dyn Planner); 6] = [
        ("partition.plan_ms.lw", &LayerWise),
        ("partition.plan_ms.efl", &EarlyFused::new()),
        ("partition.plan_ms.ofl", &OptimalFused),
        ("partition.plan_ms.grid", &GridFused::new()),
        ("partition.plan_ms.ilv", &Interleaved),
        ("partition.plan_ms.pico", &PicoPlanner::new()),
    ];
    for (name, planner) in planners {
        out.push((name, secs(|| planner.plan(&request)) * 1e3));
    }
    out.push((
        "partition.pareto_ms",
        secs(|| pareto::frontier(model, cluster, params, FleetConfig::default().steps)) * 1e3,
    ));
    let cm = params.cost_model(model);
    out.push((
        "partition.cost_eval_us",
        secs_each(64, || cm.evaluate(plan, cluster)) * 1e6,
    ));
    // The planners' DP calls `segment_flops` once per candidate split.
    let seg = model.full_segment();
    let half = Rows::new(0, (model.output_shape().height / 2).max(1));
    out.push((
        "model.segment_flops_ns",
        secs_each(256, || model.segment_flops(seg, half)) * 1e9,
    ));

    let auditor = Auditor::new(model, cluster).with_params(*params);
    out.push(("audit.deep_ms", secs(|| auditor.audit_deep(plan)) * 1e3));
    let other = OptimalFused
        .plan(&request)
        .map_err(|e| format!("probe ofl plan: {e}"))?;
    out.push((
        "audit.switch_pair_ms",
        secs(|| auditor.audit_switch_pair(plan, &other)) * 1e3,
    ));
    let sim = Simulation::new(model, cluster, params);
    out.push((
        "sim.station_profiles_us",
        secs_each(64, || sim.station_profiles(plan)) * 1e6,
    ));
    // 10^5 Poisson tasks at 70 % of the plan's capacity through the DES.
    const DES_TASKS: f64 = 1e5;
    let rate = 0.7 / cm.evaluate(plan, cluster).period;
    let arrivals = Arrivals::poisson(rate, DES_TASKS / rate, 11);
    let t = Instant::now();
    let report = sim.run(plan, &arrivals);
    out.push((
        "sim.des_tasks_per_s",
        report.completed as f64 / t.elapsed().as_secs_f64(),
    ));

    let build = || FleetFrontier::build(model, cluster, params, FleetConfig::default());
    out.push(("fleet.frontier_build_ms", secs(build) * 1e3));
    let band = WorkloadBand::point(0.0);
    out.push((
        "fleet.key_us",
        secs_each(64, || CacheKey::new(model, cluster, params, band)) * 1e6,
    ));
    let frontier = build().map_err(|e| format!("probe frontier: {e}"))?;
    let cache = PlanCache::new(64);
    let noop = Recorder::noop();
    let key = CacheKey::new(model, cluster, params, band);
    cache.insert(key, frontier.clone());
    out.push((
        "fleet.cache_hit_ns",
        secs_each(1024, || cache.get(&key, &noop)) * 1e9,
    ));
    // Distinct memberships: the same devices at clocks nudged by parts
    // per million, so every key is new and every signature unique.
    let variant = |i: usize| {
        Cluster::new(
            cluster
                .devices()
                .iter()
                .map(|d| Device::from_frequency(d.id, d.capacity / 1e9 * (1.0 + 1e-6 * i as f64)))
                .collect(),
        )
    };
    let mut inserts = Vec::new();
    let mut invalidations = Vec::new();
    for i in 1..=MAX_REPS {
        let member = variant(i);
        let key = CacheKey::new(model, &member, params, band);
        let value = frontier.clone();
        let t = Instant::now();
        std::hint::black_box(cache.insert(key, value));
        inserts.push(t.elapsed().as_secs_f64());
    }
    for i in 1..=MAX_REPS {
        let stale = ClusterSignature::of(&variant(i));
        let t = Instant::now();
        std::hint::black_box(cache.invalidate_stale(stale, &noop));
        invalidations.push(t.elapsed().as_secs_f64());
    }
    out.push((
        "fleet.cache_insert_us",
        median(&inserts).unwrap_or(0.0) * 1e6,
    ));
    out.push((
        "fleet.invalidate_us",
        median(&invalidations).unwrap_or(0.0) * 1e6,
    ));
    Ok(())
}

fn policy_and_telemetry(out: &mut Readings) {
    // The two policy objects every `ServeHandle::submit` goes through.
    let mut batcher = AdaptiveBatcher::new(BatchPolicy::default());
    let mut now = 0.0;
    out.push((
        "sim.batcher_ns",
        secs_each(1024, || {
            now += 1e-3;
            batcher.observe_arrival(now);
            batcher.target()
        }) * 1e9,
    ));
    let mut ledger = AdmissionLedger::new(vec![TenantPolicy::default(); 2]);
    out.push((
        "sim.ledger_ns",
        secs_each(1024, || {
            let admitted = ledger.offer(0).is_ok();
            if admitted {
                ledger.take(0, 1);
                ledger.complete(0, 1);
            }
            admitted
        }) * 1e9,
    ));

    let ctx = Ctx::stage(0).for_task(1);
    let noop = Recorder::noop();
    out.push((
        "telemetry.noop_ns",
        secs_each(4096, || noop.span_at(names::COMPUTE, ctx, 0.0, 1.0, 1.0, 1)) * 1e9,
    ));
    // A fresh recorder per repetition keeps the buffer's growth, which
    // a real traced run also pays, inside the measurement.
    out.push((
        "telemetry.record_ns",
        secs(|| {
            let rec = Recorder::in_memory();
            for _ in 0..4096 {
                rec.span_at(names::COMPUTE, ctx, 0.0, 1.0, 1.0, 1);
            }
            rec
        }) / 4096.0
            * 1e9,
    ));
}
