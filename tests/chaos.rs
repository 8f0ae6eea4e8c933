//! Deterministic chaos harness: scripted device failures pushed through
//! the *threaded* runtime, across a matrix of weight seeds, failure
//! schedules, and compute backends (the degraded re-planned stream runs
//! under the reference loops, the im2col/GEMM fast path, and the AVX2
//! SIMD path). Every completed task must be bit-exact against clean
//! single-device inference, the outage must be recorded in the report,
//! and throttled throughput must degrade no worse than the cost model
//! predicts for the degraded plan. The lossy int8 backend gets its own
//! schedule: degraded output must stay bit-exactly self-consistent with
//! clean int8 inference and tolerance-bounded against the f32 oracle.

use pico::model::{ConvSpec, Layer};
use pico::partition::{Assignment, ExecutionMode, Stage};
use pico::prelude::*;

fn setup() -> (Model, Cluster, CostParams) {
    (
        zoo::mnist_toy(),
        Cluster::pi_cluster(4, 1.0),
        CostParams::wifi_50mbps(),
    )
}

/// Three qualitatively different outages, aimed at devices the plan
/// actually uses: an early-stage death, a late-stage death, and a
/// two-device cascade.
fn schedules(plan: &Plan) -> Vec<ClusterSchedule> {
    let first = plan
        .stages
        .first()
        .expect("non-empty plan")
        .assignments
        .iter()
        .find(|a| !a.is_empty())
        .expect("non-empty stage")
        .device;
    let last = plan
        .stages
        .last()
        .expect("non-empty plan")
        .assignments
        .iter()
        .rev()
        .find(|a| !a.is_empty())
        .expect("non-empty stage")
        .device;
    vec![
        ClusterSchedule::new().leave(first, 1),
        ClusterSchedule::new().leave(last, 2),
        ClusterSchedule::new().leave(first, 1).leave(last, 3),
    ]
}

/// The departures of a leave-only schedule: its one epoch's
/// `(device, from_task)` slice, as both executors take it.
fn leaves(schedule: &ClusterSchedule, cluster: &Cluster) -> Vec<(usize, usize)> {
    let mut epochs = schedule.epochs(cluster).expect("legal leave-only schedule");
    epochs.remove(0).leaves
}

#[test]
fn chaos_matrix_is_bit_exact_across_seeds_and_schedules() {
    let (m, c, p) = setup();
    let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
    let n = 5;
    for seed in [11u64, 22, 33] {
        let inputs: Vec<Tensor> = (0..n)
            .map(|i| Tensor::random(m.input_shape(), seed ^ (i as u64)))
            .collect();
        let oracle = Engine::with_seed(&m, seed).with_backend(EngineBackend::Reference);
        let references: Vec<Tensor> = inputs.iter().map(|x| oracle.infer(x).unwrap()).collect();
        for backend in EngineBackend::BIT_EXACT {
            let engine = Engine::with_seed(&m, seed).with_backend(backend);
            for (si, schedule) in schedules(&plan).into_iter().enumerate() {
                let scripted: Vec<usize> = schedule.events().iter().map(|e| e.device).collect();
                let report = PipelineRuntime::builder(&m, &plan, &engine)
                    .leaves(&leaves(&schedule, &c))
                    .recovery(RecoveryPolicy::new(c.clone(), p))
                    .build()
                    .run(inputs.clone())
                    .unwrap_or_else(|e| panic!("seed {seed} schedule {si} {backend}: {e}"));
                assert_eq!(
                    report.outputs.len(),
                    n,
                    "seed {seed} schedule {si} {backend}: tasks lost"
                );
                for (i, reference) in references.iter().enumerate() {
                    assert_eq!(
                        &report.outputs[i], reference,
                        "seed {seed} schedule {si} {backend}: task {i} diverged from clean \
                         inference"
                    );
                }
                assert!(
                    !report.failures.is_empty(),
                    "seed {seed} schedule {si} {backend}: outage went unrecorded"
                );
                for f in &report.failures {
                    assert!(
                        scripted.contains(&f.device),
                        "seed {seed} schedule {si} {backend}: unscripted device {} reported dead",
                        f.device
                    );
                }
            }
        }
    }
}

#[test]
fn one_script_means_the_same_departures_in_both_executors() {
    // The same leaves slice fed to the DES and to the threaded runtime:
    // every `device_failed` instant the simulator stamps is a failure
    // the runtime records, on the same device at the same task.
    let (m, c, p) = setup();
    let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
    let n = 5;
    let engine = Engine::with_seed(&m, 7);
    let inputs: Vec<Tensor> = (0..n as u64)
        .map(|i| Tensor::random(m.input_shape(), i))
        .collect();
    for (si, schedule) in schedules(&plan).iter().enumerate() {
        let leaves = leaves(schedule, &c);
        let rec = Recorder::in_memory();
        Simulation::new(&m, &c, &p)
            .with_recorder(rec.clone())
            .with_failures(&leaves)
            .run(&plan, &Arrivals::closed_loop(n));
        let mut simulated: Vec<(usize, usize)> = rec
            .snapshot()
            .iter()
            .filter(|e| e.name == names::DEVICE_FAILED)
            .map(|e| {
                let id = |x: pico::telemetry::Id| x.get().expect("located") as usize;
                (id(e.ctx.device), id(e.ctx.task))
            })
            .collect();
        let report = PipelineRuntime::builder(&m, &plan, &engine)
            .leaves(&leaves)
            .recovery(RecoveryPolicy::new(c.clone(), p))
            .build()
            .run(inputs.clone())
            .unwrap_or_else(|e| panic!("schedule {si}: {e}"));
        let mut executed: Vec<(usize, usize)> =
            report.failures.iter().map(|f| (f.device, f.task)).collect();
        simulated.sort_unstable();
        executed.sort_unstable();
        assert_eq!(executed, simulated, "schedule {si}: {leaves:?}");
    }
}

#[test]
fn int8_chaos_schedule_degrades_within_tolerance() {
    // One cascade outage under the quantized backend. Re-planning moves
    // row ranges between devices, but static activation scales make
    // int8 region inference bit-exactly consistent with the full map:
    // the degraded stream must reproduce clean single-device int8
    // output exactly, and quantization error against the f32 reference
    // must stay inside the empirical degradation budget — the outage
    // may cost throughput, never extra accuracy.
    let (m, c, p) = setup();
    let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
    let schedule = schedules(&plan).pop().expect("cascade schedule");
    let engine = Engine::with_seed(&m, 11).with_backend(EngineBackend::Int8);
    let oracle = Engine::with_seed(&m, 11).with_backend(EngineBackend::Reference);
    let inputs: Vec<Tensor> = (0..5)
        .map(|i| Tensor::random(m.input_shape(), 70 + i))
        .collect();
    let report = PipelineRuntime::builder(&m, &plan, &engine)
        .leaves(&leaves(&schedule, &c))
        .recovery(RecoveryPolicy::new(c.clone(), p))
        .build()
        .run(inputs.clone())
        .unwrap();
    assert!(!report.failures.is_empty(), "outage went unrecorded");
    for (i, input) in inputs.iter().enumerate() {
        let clean_int8 = engine.infer(input).unwrap();
        assert_eq!(
            report.outputs[i], clean_int8,
            "task {i}: degraded int8 diverged from clean int8"
        );
        let reference = oracle.infer(input).unwrap();
        let budget = 0.05
            * reference
                .data()
                .iter()
                .fold(1.0f32, |acc, v| acc.max(v.abs()));
        let worst = report.outputs[i]
            .data()
            .iter()
            .zip(reference.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            worst <= budget,
            "task {i}: int8 error {worst} exceeds budget {budget}"
        );
    }
}

#[test]
fn chaos_runs_are_deterministic() {
    // Same seed + same schedule: identical outputs and identical
    // failure records, run after run.
    let (m, c, p) = setup();
    let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &p)).unwrap();
    let engine = Engine::with_seed(&m, 5);
    let inputs: Vec<Tensor> = (0..4)
        .map(|i| Tensor::random(m.input_shape(), 90 + i))
        .collect();
    let victim = plan.stages[0].assignments[0].device;
    let run = || {
        PipelineRuntime::builder(&m, &plan, &engine)
            .leaves(&leaves(&ClusterSchedule::new().leave(victim, 1), &c))
            .recovery(RecoveryPolicy::new(c.clone(), p))
            .build()
            .run(inputs.clone())
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.outputs, b.outputs);
    let key = |r: &RunReport| -> Vec<(usize, usize, usize)> {
        r.failures
            .iter()
            .map(|f| (f.device, f.stage, f.task))
            .collect()
    };
    assert_eq!(key(&a), key(&b));
}

#[test]
fn degraded_throughput_tracks_the_cost_model_prediction() {
    // Two equal conv stages on two devices, throttled so each stage
    // sleeps ~30 ms (compute is microseconds). Killing device 0 up
    // front forces the whole stream onto a degraded single-device plan,
    // so the clean/degraded elapsed ratio should track the cost model's
    // period ratio within the acceptance band.
    let m = Model::new(
        "chaos-small",
        Shape::new(4, 12, 12),
        vec![
            Layer::conv("a", ConvSpec::square(4, 4, 3, 1, 1)).into(),
            Layer::conv("b", ConvSpec::square(4, 4, 3, 1, 1)).into(),
        ],
    )
    .unwrap();
    let c = Cluster::pi_cluster(2, 1.0);
    // Effectively free network: periods are pure compute.
    let p = CostParams::new(1e15);
    let h = m.output_shape().height;
    let plan = Plan::new(
        Scheme::Pico,
        ExecutionMode::Pipelined,
        vec![
            Stage::new(Segment::new(0, 1), vec![Assignment::new(0, Rows::full(h))]),
            Stage::new(Segment::new(1, 2), vec![Assignment::new(1, Rows::full(h))]),
        ],
    );
    let engine = Engine::with_seed(&m, 3);
    let stage_flops = m.segment_flops(Segment::new(0, 1), Rows::full(h));
    let device_time = c.device(0).unwrap().compute_time(stage_flops);
    let scale = 0.03 / device_time;
    let n = 10;
    let inputs: Vec<Tensor> = (0..n).map(|i| Tensor::random(m.input_shape(), i)).collect();

    let clean = PipelineRuntime::builder(&m, &plan, &engine)
        .throttle(Throttle::new(c.clone(), p, scale))
        .build()
        .run(inputs.clone())
        .unwrap();
    let degraded = PipelineRuntime::builder(&m, &plan, &engine)
        .throttle(Throttle::new(c.clone(), p, scale))
        .leaves(&leaves(&ClusterSchedule::new().leave(0, 0), &c))
        .recovery(RecoveryPolicy::new(c.clone(), p))
        .build()
        .run(inputs.clone())
        .unwrap();

    // Both runs complete every task bit-exactly.
    for (i, input) in inputs.iter().enumerate() {
        let reference = engine.infer(input).unwrap();
        assert_eq!(clean.outputs[i], reference);
        assert_eq!(degraded.outputs[i], reference, "task {i} diverged");
    }
    assert!(degraded.failures.iter().any(|f| f.device == 0));
    let degraded_plan = degraded.degraded_plan.as_ref().expect("re-plan installed");

    let cm = p.cost_model(&m);
    let predicted = cm.evaluate(degraded_plan, &c).period / cm.evaluate(&plan, &c).period;
    let measured = degraded.elapsed.as_secs_f64() / clean.elapsed.as_secs_f64();
    assert!(
        measured < predicted * 1.2,
        "degraded run {measured:.2}x slower, cost model predicted {predicted:.2}x"
    );
    assert!(
        measured > predicted * 0.6,
        "degraded run only {measured:.2}x slower than clean — prediction {predicted:.2}x \
         suggests the failure was not actually degrading"
    );
}
