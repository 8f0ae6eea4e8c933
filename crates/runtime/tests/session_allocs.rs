//! Allocation budget of a warm execution session.
//!
//! The stage data plane circulates its buffers: each scatter tile's
//! buffer comes back from its worker with the answer and is sliced into
//! again, and each shard output's buffer rides back to the worker that
//! filled it on that worker's next work unit. So once a session is warm,
//! a task allocates only the map each stage stitches (the last one is
//! the task's output), and a batch adds the `Vec` its outputs come back
//! in. One test per binary: the counter is process-global.

use pico_model::{zoo, Model, Rows, Segment};
use pico_partition::{
    Assignment, Cluster, CostParams, ExecutionMode, PicoPlanner, Plan, PlanRequest, Planner,
    Scheme, Stage,
};
use pico_runtime::PipelineRuntime;
use pico_tensor::{Engine, Tensor};

pico_telemetry::install_counting_allocator!();

const BATCH: usize = 4;
/// Warm-up batches: the workers' scratch pools and the coordinators'
/// parked buffers reach their steady sizes in the first few tasks.
const WARM: usize = 8;
const MEASURED: usize = 16;

/// Allocator calls over `MEASURED` warm `submit_owned` batches of
/// `BATCH` tasks each; every output is checked afterwards against
/// single-device inference.
fn warm_session_allocations(model: &Model, plan: &Plan) -> usize {
    let engine = Engine::with_seed(model, 23);
    let runtime = PipelineRuntime::new(model, plan, &engine);
    let batch = |b: usize| -> Vec<Tensor> {
        (0..BATCH)
            .map(|i| Tensor::random(model.input_shape(), (b * BATCH + i) as u64))
            .collect()
    };
    let warm: Vec<Vec<Tensor>> = (0..WARM).map(batch).collect();
    let measured: Vec<Vec<Tensor>> = (WARM..WARM + MEASURED).map(batch).collect();
    let check = measured[MEASURED - 1].clone();
    let mut outputs = Vec::with_capacity(MEASURED);
    let (calls, _) = runtime
        .session(|sess| {
            for inputs in warm {
                sess.submit_owned(inputs)?;
            }
            let before = allocation_count();
            for inputs in measured {
                outputs.push(sess.submit_owned(inputs)?);
            }
            Ok(allocation_count() - before)
        })
        .expect("the session serves every batch");
    // Results written into recycled buffers are the reference ones.
    for (input, out) in check.iter().zip(&outputs[MEASURED - 1]) {
        assert_eq!(out, &engine.infer(input).unwrap());
    }
    calls
}

/// mnist_toy cut into two stages of two row-strip workers each.
fn two_stage_mnist(model: &Model) -> Plan {
    let mid = model.len() / 2;
    let strips = |first: usize, height: usize| {
        vec![
            Assignment::new(first, Rows::new(0, height / 2)),
            Assignment::new(first + 1, Rows::new(height / 2, height)),
        ]
    };
    Plan::new(
        Scheme::Pico,
        ExecutionMode::Pipelined,
        vec![
            Stage::new(
                Segment::new(0, mid),
                strips(0, model.unit_output_shape(mid - 1).height),
            ),
            Stage::new(
                Segment::new(mid, model.len()),
                strips(2, model.output_shape().height),
            ),
        ],
    )
}

#[test]
fn a_warm_task_allocates_only_its_stitched_maps() {
    let toy = zoo::toy(1);
    let cluster = Cluster::pi_cluster(2, 1.0);
    let params = CostParams::wifi_50mbps();
    let toy_plan = PicoPlanner
        .plan(&PlanRequest::new(&toy, &cluster, &params))
        .expect("toy(1) plans on two devices");
    let mnist = zoo::mnist_toy();
    let mnist_plan = two_stage_mnist(&mnist);
    assert_eq!(mnist_plan.stage_count(), 2);
    for (name, model, plan) in [
        ("toy(1)", &toy, &toy_plan),
        ("mnist_toy", &mnist, &mnist_plan),
    ] {
        let stages = plan.stage_count();
        let tasks = MEASURED * BATCH;
        let calls = warm_session_allocations(model, plan);
        // One stitched map per stage per task and one output `Vec` per
        // batch; the session keeps no per-task log.
        let budget = tasks * stages + MEASURED;
        assert!(
            calls <= budget,
            "{name}: {calls} allocator calls over {tasks} warm tasks ({:.2} per task), \
             budget {budget}",
            calls as f64 / tasks as f64
        );
    }
}
