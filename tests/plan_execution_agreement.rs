//! Cross-crate integration: plans from every planner must survive
//! validation, simulation, and *real* threaded execution with
//! bit-identical outputs — the full plan → simulate → execute loop,
//! exercised under every bit-exact [`EngineBackend`] against the
//! naive-loop oracle. The lossy `Int8` backend rides the same loop
//! with its own contract: pipelined execution is *bit-exactly*
//! self-consistent with single-device int8 inference (static
//! activation scales), and tolerance-bounded against the f32 oracle.

use pico::prelude::*;

fn models_under_test() -> Vec<Model> {
    vec![zoo::mnist_toy(), zoo::toy(6)]
}

fn planners() -> Vec<Box<dyn Planner>> {
    vec![
        Box::new(LayerWise::new()),
        Box::new(EarlyFused::new()),
        Box::new(OptimalFused::new()),
        Box::new(PicoPlanner::new()),
        Box::new(BfsOptimal::new()),
        Box::new(GridFused::new()),
    ]
}

#[test]
fn every_planner_executes_bit_exactly_on_homogeneous_cluster() {
    let cluster = Cluster::pi_cluster(4, 1.0);
    let params = CostParams::wifi_50mbps();
    for model in models_under_test() {
        let input = Tensor::random(model.input_shape(), 9);
        // One oracle for every f32 backend: the naive reference loops.
        let reference = Engine::with_seed(&model, 123)
            .with_backend(EngineBackend::Reference)
            .infer(&input)
            .unwrap();
        for backend in EngineBackend::BIT_EXACT {
            let engine = Engine::with_seed(&model, 123).with_backend(backend);
            for planner in planners() {
                let plan = planner
                    .plan(&PlanRequest::new(&model, &cluster, &params))
                    .unwrap();
                plan.validate(&model, &cluster).unwrap();
                let runtime = PipelineRuntime::new(&model, &plan, &engine);
                let report = runtime.run(vec![input.clone()]).unwrap();
                assert_eq!(
                    report.outputs[0],
                    reference,
                    "{} diverged on {} with {backend} backend",
                    planner.name(),
                    model.name()
                );
            }
        }
    }
}

#[test]
fn every_planner_executes_bit_exactly_on_heterogeneous_cluster() {
    let cluster = Cluster::paper_heterogeneous_6();
    let params = CostParams::wifi_50mbps();
    let model = zoo::mnist_toy();
    let inputs: Vec<Tensor> = (0..3)
        .map(|i| Tensor::random(model.input_shape(), 50 + i))
        .collect();
    let oracle = Engine::with_seed(&model, 7).with_backend(EngineBackend::Reference);
    let references: Vec<Tensor> = inputs.iter().map(|x| oracle.infer(x).unwrap()).collect();
    for backend in EngineBackend::BIT_EXACT {
        let engine = Engine::with_seed(&model, 7).with_backend(backend);
        for planner in planners() {
            let plan = planner
                .plan(&PlanRequest::new(&model, &cluster, &params))
                .unwrap();
            plan.validate(&model, &cluster).unwrap();
            let report = PipelineRuntime::new(&model, &plan, &engine)
                .run(inputs.clone())
                .unwrap();
            for (i, r) in references.iter().enumerate() {
                assert_eq!(
                    &report.outputs[i],
                    r,
                    "{} task {i} with {backend} backend",
                    planner.name()
                );
            }
        }
    }
}

#[test]
fn simulated_throughput_matches_analytic_for_every_scheme() {
    // The simulator and the cost model must agree in steady state.
    let model = zoo::vgg16().features();
    let cluster = Cluster::pi_cluster(8, 1.0);
    let params = CostParams::wifi_50mbps();
    let cm = params.cost_model(&model);
    let sim = Simulation::new(&model, &cluster, &params);
    for planner in planners()
        .into_iter()
        .filter(|p| p.name() != "BFS")
        .collect::<Vec<_>>()
    {
        let plan = planner
            .plan(&PlanRequest::new(&model, &cluster, &params))
            .unwrap();
        let metrics = cm.evaluate(&plan, &cluster);
        let report = sim.run(&plan, &Arrivals::closed_loop(300));
        let expected = 1.0 / metrics.period;
        assert!(
            (report.throughput - expected).abs() / expected < 0.05,
            "{}: sim {} vs analytic {expected}",
            planner.name(),
            report.throughput
        );
    }
}

#[test]
fn grid_plan_executes_bit_exactly_through_runtime() {
    // The 2-D extension end to end: a grid-fused plan through the real
    // threaded pipeline (rectangular scatter, grid stitch) equals
    // single-device inference.
    let model = zoo::mnist_toy();
    let cluster = Cluster::pi_cluster(6, 1.0);
    let params = CostParams::wifi_50mbps();
    let plan = GridFused::new()
        .with_grid(2, 3)
        .plan(&PlanRequest::new(&model, &cluster, &params))
        .unwrap();
    plan.validate(&model, &cluster).unwrap();
    assert!(plan.stages[0].is_grid());
    let inputs: Vec<Tensor> = (0..3)
        .map(|i| Tensor::random(model.input_shape(), 200 + i))
        .collect();
    for backend in EngineBackend::ALL {
        let engine = Engine::with_seed(&model, 17).with_backend(backend);
        let report = PipelineRuntime::new(&model, &plan, &engine)
            .run(inputs.clone())
            .unwrap();
        for (i, input) in inputs.iter().enumerate() {
            assert_eq!(
                report.outputs[i],
                engine.infer(input).unwrap(),
                "task {i} with {backend} backend"
            );
        }
    }
}

#[test]
fn int8_plans_are_self_consistent_and_tolerance_bounded() {
    // The lossy backend's pipeline contract, split in two: static
    // activation scales make region inference bit-exactly consistent
    // with full-map int8 inference, so a pipelined int8 plan must
    // reproduce single-device int8 output *exactly* under every
    // planner — quantization error is a property of the backend, not
    // of the partitioning. Against the f32 reference the output only
    // has to stay inside the empirical degradation budget.
    let cluster = Cluster::paper_heterogeneous_6();
    let params = CostParams::wifi_50mbps();
    let model = zoo::mnist_toy();
    let input = Tensor::random(model.input_shape(), 33);
    let reference = Engine::with_seed(&model, 7)
        .with_backend(EngineBackend::Reference)
        .infer(&input)
        .unwrap();
    let engine = Engine::with_seed(&model, 7).with_backend(EngineBackend::Int8);
    let full = engine.infer(&input).unwrap();
    let budget = 0.05
        * reference
            .data()
            .iter()
            .fold(1.0f32, |acc, v| acc.max(v.abs()));
    for planner in planners() {
        let plan = planner
            .plan(&PlanRequest::new(&model, &cluster, &params))
            .unwrap();
        plan.validate(&model, &cluster).unwrap();
        let report = PipelineRuntime::new(&model, &plan, &engine)
            .run(vec![input.clone()])
            .unwrap();
        assert_eq!(
            report.outputs[0],
            full,
            "{} int8 pipeline diverged from single-device int8",
            planner.name()
        );
        let worst = report.outputs[0]
            .data()
            .iter()
            .zip(reference.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            worst <= budget,
            "{}: int8 error {worst} exceeds budget {budget}",
            planner.name()
        );
    }
}

#[test]
fn plans_are_deterministic() {
    let model = zoo::vgg16().features();
    let cluster = Cluster::paper_heterogeneous();
    let params = CostParams::wifi_50mbps();
    for planner in planners().into_iter().filter(|p| p.name() != "BFS") {
        let a = planner
            .plan(&PlanRequest::new(&model, &cluster, &params))
            .unwrap();
        let b = planner
            .plan(&PlanRequest::new(&model, &cluster, &params))
            .unwrap();
        assert_eq!(a, b, "{} is nondeterministic", planner.name());
    }
}

#[test]
fn graph_models_flow_end_to_end() {
    // Small residual model through plan -> validate -> simulate ->
    // execute; covers the block-as-special-layer path everywhere.
    let model = Model::new(
        "mini-resnet",
        Shape::new(3, 32, 32),
        vec![
            pico::model::Layer::conv("stem", pico::model::ConvSpec::square(3, 8, 3, 1, 1)).into(),
            pico::model::Unit::Block(pico::model::Block::residual(
                "res1",
                vec![
                    pico::model::Layer::conv("a", pico::model::ConvSpec::square(8, 8, 3, 1, 1)),
                    pico::model::Layer::conv("b", pico::model::ConvSpec::square(8, 8, 3, 1, 1)),
                ],
                vec![],
            )),
            pico::model::Layer::pool("pool", pico::model::PoolSpec::max(2, 2)).into(),
            pico::model::Unit::Block(pico::model::Block::residual(
                "res2",
                vec![
                    pico::model::Layer::conv("c", pico::model::ConvSpec::square(8, 16, 3, 2, 1)),
                    pico::model::Layer::conv("d", pico::model::ConvSpec::square(16, 16, 3, 1, 1)),
                ],
                vec![pico::model::Layer::conv(
                    "proj",
                    pico::model::ConvSpec::square(8, 16, 1, 2, 0),
                )],
            )),
        ],
    )
    .unwrap();
    let deployment = Pico::new(model, Cluster::pi_cluster(3, 1.0));
    let plan = deployment.plan().unwrap();
    let input = Tensor::random(deployment.model().input_shape(), 1);
    let report = deployment.execute(&plan, vec![input.clone()], 55).unwrap();
    assert_eq!(report.outputs.len(), 1);
    assert_eq!(
        report.outputs[0],
        deployment.engine(55).infer(&input).unwrap()
    );
    let sim_report = deployment.simulate(&plan, &Arrivals::closed_loop(20));
    assert!(sim_report.throughput > 0.0);
}
