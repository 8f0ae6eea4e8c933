//! Property-based tests over the planners: every strategy must produce
//! valid plans on arbitrary (model, cluster, bandwidth) combinations,
//! and the DP must be exact where an exact answer is checkable.

use pico_model::{zoo, ConvSpec, Layer, Model, PoolSpec, Shape};
use pico_partition::{
    structural_diagnostics, BfsOptimal, Cluster, CostParams, Device, EarlyFused, LayerWise,
    OptimalFused, PicoPlanner, PlanRequest, Planner,
};
use proptest::prelude::*;

/// Random small conv/pool chains (kernels >= strides, shapes kept valid).
fn arb_model() -> impl Strategy<Value = Model> {
    let layer = prop_oneof![
        (1usize..=4, 1usize..=2, 0usize..=1).prop_map(|(k, s, p)| (k.max(s), s, p, true)),
        (2usize..=2, 2usize..=2).prop_map(|(k, s)| (k, s, 0usize, false)),
    ];
    proptest::collection::vec(layer, 1..8).prop_map(|specs| {
        let input = Shape::new(3, 48, 48);
        let mut units: Vec<pico_model::Unit> = Vec::new();
        let mut shape = input;
        for (i, (k, s, p, conv)) in specs.into_iter().enumerate() {
            let layer = if conv {
                Layer::conv(
                    format!("c{i}"),
                    ConvSpec::square(shape.channels, 8, k, s, p),
                )
            } else {
                Layer::pool(format!("p{i}"), PoolSpec::max(k, s))
            };
            if let Ok(next) = layer.output_shape(shape) {
                if next.height >= 2 && next.width >= 2 {
                    shape = next;
                    units.push(layer.into());
                }
            }
        }
        if units.is_empty() {
            units.push(Layer::conv("fallback", ConvSpec::square(3, 8, 3, 1, 1)).into());
        }
        Model::new("prop", input, units).expect("chain is consistent")
    })
}

/// Random clusters: 1..6 devices with frequencies in [0.4, 2.0] GHz.
fn arb_cluster() -> impl Strategy<Value = Cluster> {
    proptest::collection::vec(0.4f64..2.0, 1..6).prop_map(|freqs| {
        Cluster::new(
            freqs
                .into_iter()
                .enumerate()
                .map(|(i, f)| Device::from_frequency(i, f))
                .collect(),
        )
    })
}

fn planners() -> Vec<Box<dyn Planner>> {
    vec![
        Box::new(LayerWise::new()),
        Box::new(EarlyFused::new()),
        Box::new(OptimalFused::new()),
        Box::new(PicoPlanner::new()),
    ]
}

fn check_pico_at_least_matches_single_stage(
    model: &Model,
    cluster: &Cluster,
) -> Result<(), TestCaseError> {
    let params = CostParams::wifi_50mbps();
    let cm = params.cost_model(model);
    let plan = PicoPlanner::new()
        .plan(&PlanRequest::new(model, cluster, &params))
        .expect("plans");
    let metrics = cm.evaluate(&plan, cluster);
    // Single stage over the averaged cluster with every device.
    // The DP optimizes on the averaged cluster, then Algorithm 2
    // re-maps to the real devices, which can shift the period by a
    // few percent — the bound is therefore loose, catching only
    // structural regressions.
    let single = cm.even_stage_cost(model.full_segment(), &cluster.averaged(), cluster.len());
    prop_assert!(
        metrics.period <= single.total() * 1.25 + 1e-9,
        "pico {} single {}",
        metrics.period,
        single.total()
    );
    Ok(())
}

fn check_cost_model_scales_linearly(model: &Model, cluster: &Cluster) -> Result<(), TestCaseError> {
    let params = CostParams::new(50e6);
    let plan = PicoPlanner::new()
        .plan(&PlanRequest::new(model, cluster, &params))
        .expect("plans");
    let m1 = params.cost_model(model).evaluate(&plan, cluster);
    let fast: Cluster = cluster
        .devices()
        .iter()
        .map(|d| Device::new(d.id, d.name.clone(), d.capacity * 2.0).with_alpha(d.alpha))
        .collect();
    let fast_params = CostParams::new(100e6);
    let m2 = fast_params.cost_model(model).evaluate(&plan, &fast);
    prop_assert!((m2.period - m1.period / 2.0).abs() < 1e-9 * m1.period.max(1.0));
    prop_assert!((m2.latency - m1.latency / 2.0).abs() < 1e-9 * m1.latency.max(1.0));
    Ok(())
}

fn check_redundancy_accounting_is_exact(
    model: &Model,
    cluster: &Cluster,
) -> Result<(), TestCaseError> {
    use pico_partition::redundancy::stage_work;
    let params = CostParams::wifi_50mbps();
    let plan = PicoPlanner::new()
        .plan(&PlanRequest::new(model, cluster, &params))
        .expect("plans");
    for stage in &plan.stages {
        let work = stage_work(model, stage);
        let computed: f64 = work.iter().map(|w| w.total_flops).sum();
        let redundant: f64 = work.iter().map(|w| w.redundant_flops).sum();
        let out = model.unit_output_shape(stage.segment.end - 1);
        // Compare against the fully lazy (rows AND cols) trace: the
        // region bookkeeping skips edge columns strided layers never
        // read, exactly like the engine does.
        let lazy = model.segment_region_flops(
            stage.segment,
            pico_model::Region2::full(out.height, out.width),
        );
        prop_assert!(
            (computed - redundant - lazy).abs() <= 1e-6 * lazy.max(1.0),
            "computed {computed} redundant {redundant} lazy {lazy}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every planner yields a plan that validates, with finite positive
    /// period and latency, period <= latency.
    #[test]
    fn all_planners_produce_valid_plans(
        model in arb_model(),
        cluster in arb_cluster(),
        mbps in 1.0f64..500.0,
    ) {
        let params = CostParams::new(mbps * 1e6);
        let cm = params.cost_model(&model);
        for planner in planners() {
            let plan = planner.plan(&PlanRequest::new(&model, &cluster, &params)).expect("planner succeeds");
            // Stricter than `validate`: the complete structural scan
            // must come back empty, and its emptiness must agree with
            // the validate wrapper built on top of it.
            let diags = structural_diagnostics(&plan, &model, &cluster);
            prop_assert!(diags.is_empty(), "{}: {:?}", planner.name(), diags);
            prop_assert!(plan.validate(&model, &cluster).is_ok(), "{} invalid", planner.name());
            let metrics = cm.evaluate(&plan, &cluster);
            prop_assert!(metrics.period.is_finite() && metrics.period > 0.0);
            prop_assert!(metrics.latency >= metrics.period - 1e-12);
        }
    }

    /// PICO's period never exceeds the single-stage whole-cluster plan
    /// it could always fall back to.
    #[test]
    fn pico_at_least_matches_single_stage(
        model in arb_model(),
        cluster in arb_cluster(),
    ) {
        check_pico_at_least_matches_single_stage(&model, &cluster)?;
    }

    /// Capacity scaling invariance: doubling every device's speed and
    /// the bandwidth leaves *plan structure* decisions unchanged in
    /// their relative quality — period exactly halves for the same plan.
    #[test]
    fn cost_model_scales_linearly(model in arb_model(), cluster in arb_cluster()) {
        check_cost_model_scales_linearly(&model, &cluster)?;
    }

    /// The redundancy bookkeeping is exact: per-stage totals minus
    /// redundancy equal the lazy monolithic cost.
    #[test]
    fn redundancy_accounting_is_exact(model in arb_model(), cluster in arb_cluster()) {
        check_redundancy_accounting_is_exact(&model, &cluster)?;
    }
}

proptest! {
    // BFS is expensive; keep the exactness check small and rare.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On tiny instances, the heuristic never beats the exhaustive
    /// optimum (with identical share balancing).
    #[test]
    fn bfs_lower_bounds_pico(layers in 2usize..5, devices in 2usize..4, seed in 0u64..100) {
        let model = zoo::toy(layers);
        let freqs: Vec<f64> = (0..devices)
            .map(|i| 0.6 + 0.2 * ((seed as usize + i) % 4) as f64)
            .collect();
        let cluster = Cluster::new(
            freqs
                .into_iter()
                .enumerate()
                .map(|(i, f)| Device::from_frequency(i, f))
                .collect(),
        );
        let params = CostParams::wifi_50mbps();
        let cm = params.cost_model(&model);
        let bfs = BfsOptimal::new().search(&model, &cluster, &params).expect("searches");
        let pico = PicoPlanner::new().plan(&PlanRequest::new(&model, &cluster, &params)).expect("plans");
        let pico_period = cm.evaluate(&pico, &cluster).period;
        prop_assert!(bfs.period <= pico_period * 1.0001,
            "bfs {} pico {pico_period}", bfs.period);
    }
}

/// The two shrunk counter-examples proptest recorded for this file,
/// pinned as plain cases. The record names the `(model, cluster)` inputs
/// but not which property drew them, so each runs through all three
/// properties of that signature.
#[test]
fn recorded_counterexamples_hold() {
    let chain = |units: Vec<pico_model::Unit>| {
        Model::new("prop", Shape::new(3, 48, 48), units).expect("chain is consistent")
    };
    let cluster = |freqs: &[f64]| {
        Cluster::new(
            freqs
                .iter()
                .enumerate()
                .map(|(i, f)| Device::from_frequency(i, *f))
                .collect(),
        )
    };
    let pool = |name: &str| Layer::pool(name, PoolSpec::max(2, 2)).into();
    let cases = [
        (chain(vec![pool("p0")]), cluster(&[0.4, 1.515323571947985])),
        (
            chain(vec![
                Layer::conv("c0", ConvSpec::square(3, 8, 3, 2, 0)).into(),
                pool("p1"),
            ]),
            cluster(&[0.4]),
        ),
    ];
    for (model, cluster) in &cases {
        assert_eq!(
            check_pico_at_least_matches_single_stage(model, cluster),
            Ok(())
        );
        assert_eq!(check_cost_model_scales_linearly(model, cluster), Ok(()));
        assert_eq!(check_redundancy_accounting_is_exact(model, cluster), Ok(()));
    }
}
