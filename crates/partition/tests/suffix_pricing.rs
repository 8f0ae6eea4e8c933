//! Differential battery for the shared segment pricing: the one-walk
//! [`CostModel::suffix_stage_costs`], the eager `Ts` table built from it
//! and the `T_lim` sweep that runs over one such table must reproduce,
//! bit for bit, what the per-segment [`CostModel::stage_cost`] walk and
//! a planner call per limit produce.

use pico_model::{rows_split_even, rows_split_weighted, zoo, Model, Rows, Segment};
use pico_partition::pareto::{self, FrontierPoint};
use pico_partition::{
    Assignment, Cluster, CostParams, PicoPlanner, PlanError, PlanRequest, Planner, Stage,
};

/// Chains and graph models, with their fully-connected tails where the
/// zoo has them (a one-row map: most shares come out empty).
fn models() -> Vec<Model> {
    vec![
        zoo::vgg16(),
        zoo::resnet34(),
        zoo::inception_v3(),
        zoo::yolov2(),
        zoo::mnist_toy(),
    ]
}

fn clusters() -> Vec<Cluster> {
    vec![
        Cluster::pi_cluster(1, 1.0),
        Cluster::pi_cluster(2, 1.0),
        Cluster::pi_cluster(4, 0.8),
        Cluster::pi_cluster(8, 0.6),
        Cluster::paper_heterogeneous(),
        Cluster::paper_heterogeneous_6(),
        // Non-contiguous ids.
        Cluster::paper_heterogeneous()
            .without(&[1, 3])
            .expect("six devices remain"),
    ]
}

/// Row-strip layouts of an `h`-row map: even over the first `p`
/// devices and capacity-weighted over the `p` strongest, for every `p`
/// — on short maps that is more devices than rows — plus the even
/// split handed out in reverse device order.
fn layouts(cluster: &Cluster, h: usize) -> Vec<Vec<Assignment>> {
    let full = Rows::full(h);
    let strongest = cluster.ids_by_capacity_desc();
    let mut out = Vec::new();
    for p in 1..=cluster.len() {
        let even = rows_split_even(full, p);
        out.push(
            cluster
                .devices()
                .iter()
                .zip(&even)
                .map(|(d, r)| Assignment::new(d.id, *r))
                .collect(),
        );
        let weights: Vec<f64> = strongest[..p]
            .iter()
            .map(|id| cluster.device(*id).expect("listed id").capacity)
            .collect();
        out.push(
            strongest[..p]
                .iter()
                .zip(rows_split_weighted(full, &weights))
                .map(|(id, r)| Assignment::new(*id, r))
                .collect(),
        );
        if p == cluster.len() {
            out.push(
                cluster
                    .devices()
                    .iter()
                    .rev()
                    .zip(&even)
                    .map(|(d, r)| Assignment::new(d.id, *r))
                    .collect(),
            );
        }
    }
    out
}

#[test]
fn suffix_costs_equal_per_segment_stage_costs_bit_for_bit() {
    let params = CostParams::wifi_50mbps();
    for model in models() {
        let cm = params.cost_model(&model);
        for cluster in clusters() {
            for end in 1..=model.len() {
                let h = model.unit_output_shape(end - 1).height;
                for shares in layouts(&cluster, h) {
                    let got = cm.suffix_stage_costs(end, &shares, &cluster);
                    assert_eq!(got.len(), end);
                    for (start, got) in got.iter().enumerate() {
                        let stage = Stage::new(Segment::new(start, end), shares.clone());
                        let want = cm.stage_cost(&stage, &cluster);
                        assert_eq!(
                            (got.comp.to_bits(), got.comm.to_bits()),
                            (want.comp.to_bits(), want.comm.to_bits()),
                            "{} x {} devices, [{start}, {end}), shares {shares:?}: \
                             {got:?} vs {want:?}",
                            model.name(),
                            cluster.len(),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn suffix_costs_follow_every_cost_parameter() {
    // A calibrated, backend-priced environment: the compute
    // coefficient composes in the same order on both paths.
    let mut params = CostParams::new(17.5e6).with_backend_speedup(3.7);
    params.alpha_scale = 0.31;
    let model = zoo::resnet34();
    let cluster = Cluster::paper_heterogeneous();
    let cm = params.cost_model(&model);
    for end in 1..=model.len() {
        let h = model.unit_output_shape(end - 1).height;
        for shares in layouts(&cluster, h) {
            for (start, got) in cm
                .suffix_stage_costs(end, &shares, &cluster)
                .iter()
                .enumerate()
            {
                let stage = Stage::new(Segment::new(start, end), shares.clone());
                let want = cm.stage_cost(&stage, &cluster);
                assert_eq!(got.comp.to_bits(), want.comp.to_bits());
                assert_eq!(got.comm.to_bits(), want.comm.to_bits());
            }
        }
    }
}

#[test]
fn an_all_empty_layout_prices_like_the_stage_walk() {
    let model = zoo::mnist_toy();
    let cluster = Cluster::pi_cluster(2, 1.0);
    let cm = CostParams::wifi_50mbps().cost_model(&model);
    let shares = vec![
        Assignment::new(0, Rows::empty()),
        Assignment::new(1, Rows::new(3, 3)),
    ];
    let end = model.len();
    for (start, got) in cm
        .suffix_stage_costs(end, &shares, &cluster)
        .iter()
        .enumerate()
    {
        let want = cm.stage_cost(
            &Stage::new(Segment::new(start, end), shares.clone()),
            &cluster,
        );
        assert_eq!(got.comp.to_bits(), want.comp.to_bits());
        assert_eq!(got.comm.to_bits(), want.comm.to_bits());
    }
}

#[test]
fn table_cells_equal_even_stage_cost_totals() {
    let params = CostParams::wifi_50mbps();
    for model in models() {
        let cm = params.cost_model(&model);
        for cluster in clusters() {
            // PICO prices the averaged cluster; the raw one exercises
            // unequal capacities under the even split.
            for priced in [cluster.averaged(), cluster] {
                let table = cm.even_stage_table(&priced);
                assert_eq!(table.units(), model.len());
                assert_eq!(table.devices(), priced.len());
                for end in 1..=model.len() {
                    for start in 0..end {
                        let seg = Segment::new(start, end);
                        for p in 1..=priced.len() {
                            let want = cm.even_stage_cost(seg, &priced, p).total();
                            assert_eq!(
                                table.total(seg, p).to_bits(),
                                want.to_bits(),
                                "{} x {} devices, Ts{seg}[{p}]",
                                model.name(),
                                priced.len(),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// `pareto::frontier` as it was before the sweep shared one table: one
/// full `PicoPlanner` run per limit.
fn frontier_one_plan_per_limit(
    model: &Model,
    cluster: &Cluster,
    params: &CostParams,
    steps: usize,
) -> Vec<FrontierPoint> {
    let base_params = CostParams {
        t_lim: None,
        ..*params
    };
    let cm = base_params.cost_model(model);
    let planner = PicoPlanner::new();
    let unconstrained = planner
        .plan(&PlanRequest::new(model, cluster, &base_params))
        .expect("unconstrained planning always succeeds");
    let top = cm.evaluate(&unconstrained, cluster);
    let mut points = vec![FrontierPoint {
        t_lim: None,
        period: top.period,
        latency: top.latency,
        plan: unconstrained,
    }];
    for i in 1..=steps {
        let t_lim = top.latency * (1.0 - i as f64 / (steps as f64 + 1.0));
        if t_lim <= 0.0 {
            continue;
        }
        let constrained = base_params.with_t_lim(t_lim);
        if let Ok(plan) = planner.plan(&PlanRequest::new(model, cluster, &constrained)) {
            let m = cm.evaluate(&plan, cluster);
            points.push(FrontierPoint {
                t_lim: Some(t_lim),
                period: m.period,
                latency: m.latency,
                plan,
            });
        }
    }
    points.sort_by(|a, b| {
        a.period
            .partial_cmp(&b.period)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                a.latency
                    .partial_cmp(&b.latency)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
    });
    let mut out: Vec<FrontierPoint> = Vec::new();
    for p in points {
        match out.last() {
            Some(last) if p.latency >= last.latency - 1e-12 => {}
            Some(last)
                if (p.period - last.period).abs() < 1e-12
                    && (p.latency - last.latency).abs() < 1e-12 => {}
            _ => out.push(p),
        }
    }
    out
}

#[test]
fn the_shared_table_sweep_equals_one_plan_per_limit() {
    let deployments = [
        (zoo::resnet34(), Cluster::paper_heterogeneous()),
        (
            zoo::resnet34(),
            Cluster::paper_heterogeneous()
                .without(&[1, 3])
                .expect("six devices remain"),
        ),
        (zoo::vgg16().features(), Cluster::pi_cluster(8, 1.0)),
        (
            zoo::inception_v3().features(),
            Cluster::paper_heterogeneous_6(),
        ),
        (zoo::yolov2(), Cluster::pi_cluster(4, 0.8)),
        (zoo::mnist_toy(), Cluster::pi_cluster(1, 1.0)),
    ];
    // A limit already in the parameters is ignored by the sweep.
    let environments = [
        CostParams::wifi_50mbps(),
        CostParams::new(8e6)
            .with_backend_speedup(4.0)
            .with_t_lim(0.5),
    ];
    for (model, cluster) in &deployments {
        for params in &environments {
            for steps in [1, 6, 11] {
                let want = frontier_one_plan_per_limit(model, cluster, params, steps);
                let (unconstrained, got) = pareto::sweep(model, cluster, params, steps);
                let tag = format!(
                    "{} x {} devices, {steps} steps",
                    model.name(),
                    cluster.len()
                );
                assert_eq!(got.len(), want.len(), "{tag}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(
                        g.t_lim.map(f64::to_bits),
                        w.t_lim.map(f64::to_bits),
                        "{tag}"
                    );
                    assert_eq!(g.period.to_bits(), w.period.to_bits(), "{tag}");
                    assert_eq!(g.latency.to_bits(), w.latency.to_bits(), "{tag}");
                    assert_eq!(g.plan, w.plan, "{tag}");
                }
                let free = CostParams {
                    t_lim: None,
                    ..*params
                };
                assert_eq!(
                    unconstrained,
                    PicoPlanner
                        .plan(&PlanRequest::new(model, cluster, &free))
                        .expect("unconstrained"),
                    "{tag}"
                );
                let same = pareto::frontier(model, cluster, params, steps);
                assert_eq!(same.len(), got.len(), "{tag}");
                for (a, b) in same.iter().zip(&got) {
                    assert_eq!(a.plan, b.plan, "{tag}");
                }
            }
        }
    }
}

#[test]
fn an_infeasible_limit_reports_the_best_single_stage_latency() {
    // When no pipeline meets the limit every DP cell is still its
    // single-stage seed, so `best` is the cheapest `Ts[0][L][p]` — here
    // recomputed through the per-segment walk.
    let params = CostParams::wifi_50mbps();
    for (model, cluster) in [
        (zoo::resnet34(), Cluster::paper_heterogeneous()),
        (zoo::vgg16().features(), Cluster::pi_cluster(8, 1.0)),
        (zoo::mnist_toy(), Cluster::pi_cluster(2, 1.0)),
    ] {
        let cm = params.cost_model(&model);
        let avg = cluster.averaged();
        let want = (1..=avg.len())
            .map(|p| cm.even_stage_cost(model.full_segment(), &avg, p).total())
            .fold(f64::INFINITY, f64::min);
        for limit in [1e-9, want * 1e-3] {
            let tight = params.with_t_lim(limit);
            match PicoPlanner.plan(&PlanRequest::new(&model, &cluster, &tight)) {
                Err(PlanError::LatencyInfeasible { limit: l, best }) => {
                    assert_eq!(l.to_bits(), limit.to_bits());
                    assert_eq!(best.to_bits(), want.to_bits(), "{}", model.name());
                }
                other => panic!(
                    "{}: expected LatencyInfeasible, got {other:?}",
                    model.name()
                ),
            }
        }
    }
}
