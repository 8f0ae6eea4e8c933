//! The period/latency Pareto frontier of Eq. 1.
//!
//! PICO minimizes the pipeline period subject to `T ≤ T_lim`; sweeping
//! `T_lim` therefore traces the achievable (period, latency) trade-off
//! curve — deep pipelines cycle fast but take long to traverse, shallow
//! ones the reverse. Deployment tools use the frontier to pick an
//! operating point against an application's latency SLO.

use pico_model::Model;

use crate::pico::plan_over_table;
use crate::{Cluster, CostParams, Plan};

/// One achievable operating point.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// The latency limit that produced this plan (`None` =
    /// unconstrained).
    pub t_lim: Option<f64>,
    /// Predicted pipeline period (s).
    pub period: f64,
    /// Predicted pipeline latency (s).
    pub latency: f64,
    /// The plan realizing the point.
    pub plan: Plan,
}

/// Traces the period/latency frontier by sweeping `T_lim` over `steps`
/// values between the tightest feasible latency and the unconstrained
/// optimum's latency. Points are deduplicated and returned in
/// ascending-period (descending-latency) order; the result always
/// contains at least the unconstrained plan.
///
/// # Example
///
/// ```
/// use pico_model::zoo;
/// use pico_partition::pareto::frontier;
/// use pico_partition::{Cluster, CostParams, PlanRequest};
///
/// let model = zoo::vgg16().features();
/// let cluster = Cluster::pi_cluster(8, 1.0);
/// let points = frontier(&model, &cluster, &CostParams::wifi_50mbps(), 8);
/// // The frontier is a genuine trade-off: as latency falls, period rises.
/// for w in points.windows(2) {
///     assert!(w[1].period >= w[0].period);
///     assert!(w[1].latency <= w[0].latency + 1e-9);
/// }
/// ```
///
/// # Panics
///
/// Panics if `steps == 0` or the unconstrained planner fails (which it
/// cannot for a valid model/cluster without a `t_lim` in `params`).
pub fn frontier(
    model: &Model,
    cluster: &Cluster,
    params: &CostParams,
    steps: usize,
) -> Vec<FrontierPoint> {
    sweep(model, cluster, params, steps).1
}

/// [`frontier`], plus the unconstrained PICO plan the sweep starts from
/// (what [`PicoPlanner`](crate::PicoPlanner) returns for `params`
/// without a `t_lim`) — the frontier itself may drop that plan when a
/// constrained one dominates it. A caller that wants both, like the
/// fleet builder, gets them from the one priced `Ts` table.
///
/// # Panics
///
/// As [`frontier`].
pub fn sweep(
    model: &Model,
    cluster: &Cluster,
    params: &CostParams,
    steps: usize,
) -> (Plan, Vec<FrontierPoint>) {
    assert!(steps > 0, "need at least one step");
    // Same environment minus the latency limit; the calibrated compute
    // coefficient must survive the rebuild.
    let base_params = CostParams {
        t_lim: None,
        ..*params
    };
    let cm = base_params.cost_model(model);
    // `Ts` does not depend on `T_lim`: price it once, run every DP of
    // the sweep over it.
    let ts = cm.even_stage_table(&cluster.averaged());

    let unconstrained =
        plan_over_table(model, cluster, &ts, None).expect("unconstrained planning always succeeds");
    let top = cm.evaluate(&unconstrained, cluster);

    let mut points = vec![FrontierPoint {
        t_lim: None,
        period: top.period,
        latency: top.latency,
        plan: unconstrained.clone(),
    }];

    // Tighten the limit step by step below the unconstrained latency;
    // infeasible limits simply contribute no point.
    for i in 1..=steps {
        let t_lim = top.latency * (1.0 - i as f64 / (steps as f64 + 1.0));
        if t_lim <= 0.0 {
            continue;
        }
        if let Ok(plan) = plan_over_table(model, cluster, &ts, Some(t_lim)) {
            let m = cm.evaluate(&plan, cluster);
            points.push(FrontierPoint {
                t_lim: Some(t_lim),
                period: m.period,
                latency: m.latency,
                plan,
            });
        }
    }

    // Keep the Pareto-optimal, deduplicated set, ascending by period.
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
            Some(last) if p.latency >= last.latency - 1e-12 => {} // dominated
            Some(last)
                if (p.period - last.period).abs() < 1e-12
                    && (p.latency - last.latency).abs() < 1e-12 => {}
            _ => out.push(p),
        }
    }
    (unconstrained, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pico_model::zoo;

    #[test]
    fn frontier_is_monotone_and_nonempty() {
        let model = zoo::vgg16().features();
        let cluster = Cluster::pi_cluster(8, 1.0);
        let points = frontier(&model, &cluster, &CostParams::wifi_50mbps(), 10);
        assert!(!points.is_empty());
        for w in points.windows(2) {
            assert!(w[1].period >= w[0].period - 1e-12);
            assert!(w[1].latency <= w[0].latency + 1e-9);
        }
        // The first point is the unconstrained optimum.
        assert_eq!(points[0].t_lim, None);
    }

    #[test]
    fn frontier_has_multiple_points_when_tradeoff_exists() {
        let model = zoo::vgg16().features();
        let cluster = Cluster::pi_cluster(8, 1.0);
        let points = frontier(&model, &cluster, &CostParams::wifi_50mbps(), 12);
        assert!(
            points.len() >= 2,
            "expected a real trade-off, got {}",
            points.len()
        );
    }

    #[test]
    fn every_frontier_plan_validates_and_honors_its_limit() {
        let model = zoo::vgg16().features();
        let cluster = Cluster::paper_heterogeneous();
        for p in frontier(&model, &cluster, &CostParams::wifi_50mbps(), 8) {
            let diags = crate::diag::structural_diagnostics(&p.plan, &model, &cluster);
            assert!(diags.is_empty(), "{diags:?}");
            if let Some(t) = p.t_lim {
                assert!(
                    p.latency <= t + 1e-9,
                    "latency {} over limit {t}",
                    p.latency
                );
            }
        }
    }

    #[test]
    fn single_device_frontier_is_one_point() {
        let model = zoo::toy(4);
        let cluster = Cluster::pi_cluster(1, 1.0);
        let points = frontier(&model, &cluster, &CostParams::wifi_50mbps(), 6);
        assert_eq!(points.len(), 1);
    }
}
