//! Golden failover trace: a run with injected failures is exported as a
//! Chrome trace, re-parsed, and the recovery narrative — `device_failed`
//! then `task_retried` then `plan_degraded` — is asserted from the
//! parsed instants' timestamps, exactly as a human would read it in
//! `chrome://tracing`.

use pico::model::{ConvSpec, Layer};
use pico::partition::{Assignment, ExecutionMode, Stage};
use pico::prelude::*;
use pico::telemetry::trace::{chrome_trace, parse_chrome_trace};

#[test]
fn failover_trace_tells_the_recovery_story_in_order() {
    // Two equal conv stages on four devices: stage 0 = {d0, d1},
    // stage 1 = {d2, d3}, rows split in half.
    let m = Model::new(
        "failover",
        Shape::new(4, 12, 12),
        vec![
            Layer::conv("a", ConvSpec::square(4, 4, 3, 1, 1)).into(),
            Layer::conv("b", ConvSpec::square(4, 4, 3, 1, 1)).into(),
        ],
    )
    .unwrap();
    let c = Cluster::pi_cluster(4, 1.0);
    let p = CostParams::wifi_50mbps();
    let h = m.output_shape().height;
    let plan = Plan::new(
        Scheme::Pico,
        ExecutionMode::Pipelined,
        vec![
            Stage::new(
                Segment::new(0, 1),
                vec![
                    Assignment::new(0, Rows::new(0, h / 2)),
                    Assignment::new(1, Rows::new(h / 2, h)),
                ],
            ),
            Stage::new(
                Segment::new(1, 2),
                vec![
                    Assignment::new(2, Rows::new(0, h / 2)),
                    Assignment::new(3, Rows::new(h / 2, h)),
                ],
            ),
        ],
    );
    let engine = Engine::with_seed(&m, 17);
    let n: usize = 5;
    let inputs: Vec<Tensor> = (0..n)
        .map(|i| Tensor::random(m.input_shape(), i as u64))
        .collect();
    let references: Vec<Tensor> = inputs.iter().map(|x| engine.infer(x).unwrap()).collect();

    // d0 dies at task 1 (shard retried on d1), then d1 dies at task 2
    // (stage 0 has no survivor -> degraded re-plan on {d2, d3}).
    let rec = Recorder::in_memory();
    let report = PipelineRuntime::builder(&m, &plan, &engine)
        .recorder(rec.clone())
        .leaves(
            &ClusterSchedule::new()
                .leave(0, 1)
                .leave(1, 2)
                .epochs(&c)
                .unwrap()[0]
                .leaves,
        )
        .recovery(RecoveryPolicy::new(c.clone(), p))
        .build()
        .run(inputs)
        .unwrap();

    // The degraded run still completes everything bit-exactly.
    assert_eq!(report.outputs.len(), n);
    for (i, reference) in references.iter().enumerate() {
        assert_eq!(&report.outputs[i], reference, "task {i} diverged");
    }
    let dead: Vec<usize> = report.failures.iter().map(|f| f.device).collect();
    assert!(dead.contains(&0) && dead.contains(&1), "failures {dead:?}");
    let degraded = report.degraded_plan.as_ref().expect("re-plan installed");
    for device in degraded.used_devices() {
        assert!(device >= 2, "degraded plan still uses dead device {device}");
    }

    // Round-trip through the Chrome trace format.
    let json = chrome_trace(&rec.snapshot());
    let parsed = parse_chrome_trace(&json).expect("runtime writes valid traces");
    let first_ts = |name: &str| -> f64 {
        parsed
            .instant_events
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, ts)| *ts)
            .fold(f64::INFINITY, f64::min)
    };
    let failed = first_ts(names::DEVICE_FAILED);
    let retried = first_ts(names::TASK_RETRIED);
    let degraded_ts = first_ts(names::PLAN_DEGRADED);
    assert!(failed.is_finite(), "no device_failed instant in the trace");
    assert!(retried.is_finite(), "no task_retried instant in the trace");
    assert!(
        degraded_ts.is_finite(),
        "no plan_degraded instant in the trace"
    );
    assert!(
        failed < retried && retried < degraded_ts,
        "recovery story out of order: failed {failed} retried {retried} degraded {degraded_ts}"
    );
}
