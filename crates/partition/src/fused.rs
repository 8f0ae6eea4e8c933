use pico_model::{rows_split_weighted, Model, Rows, Segment};
use pico_telemetry::names;

use crate::{
    Assignment, Cluster, Device, ExecutionMode, Plan, PlanError, PlanRequest, Planner, Scheme,
    Stage,
};

/// Capacity-weighted row shares of an `h`-row output map over
/// `devices`, in the given order.
fn weighted_shares<'d>(
    h: usize,
    devices: impl Iterator<Item = &'d Device> + Clone,
) -> Vec<Assignment> {
    let weights: Vec<f64> = devices.clone().map(|d| d.capacity).collect();
    devices
        .zip(rows_split_weighted(Rows::full(h), &weights))
        .map(|(d, r)| Assignment::new(d.id, r))
        .collect()
}

/// Builds the capacity-weighted all-device stage for `seg`.
fn weighted_stage(model: &Model, cluster: &Cluster, seg: Segment) -> Stage {
    let h = model.unit_output_shape(seg.end - 1).height;
    Stage::new(seg, weighted_shares(h, cluster.devices().iter()))
}

/// Builds the single-device stage for `seg` on device `device`.
fn solo_stage(model: &Model, seg: Segment, device: usize) -> Stage {
    let h = model.unit_output_shape(seg.end - 1).height;
    Stage::new(seg, vec![Assignment::new(device, Rows::full(h))])
}

/// Index of the first unit that cannot be row-partitioned, or the model
/// length if all units can.
fn first_unpartitionable(model: &Model) -> usize {
    (0..model.len())
        .find(|&i| !model.unit(i).is_partitionable())
        .unwrap_or(model.len())
}

/// The early-fused-layer (EFL) baseline, "an extension of the
/// implementation of DeepThings": the first few convolution layers are
/// fused and scattered across the whole cluster; the remaining layers
/// execute on a single device.
///
/// By default the fused prefix extends until the feature map has shrunk
/// to an eighth of the input height (DeepThings fuses deep into the
/// early convolution stack, which is exactly what makes its halo
/// redundancy high — Table I); override with
/// [`EarlyFused::with_fused_units`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EarlyFused {
    fused_units: Option<usize>,
}

impl EarlyFused {
    /// Creates the EFL planner with the default fused prefix.
    pub fn new() -> Self {
        EarlyFused::default()
    }

    /// Fuses exactly the first `k` units instead of the heuristic prefix.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_fused_units(k: usize) -> Self {
        assert!(k > 0, "must fuse at least one unit");
        EarlyFused {
            fused_units: Some(k),
        }
    }

    /// The fused prefix length for `model`.
    fn prefix(&self, model: &Model) -> usize {
        let cap = first_unpartitionable(model).max(1);
        match self.fused_units {
            Some(k) => k.min(model.len()).min(cap),
            None => {
                let target = model.input_shape().height.div_ceil(8);
                let mut k = model.len();
                for i in 0..model.len() {
                    if model.unit_output_shape(i).height <= target {
                        k = i + 1;
                        break;
                    }
                }
                k.min(cap)
            }
        }
    }
}

impl Planner for EarlyFused {
    fn name(&self) -> &'static str {
        "EFL"
    }

    fn plan(&self, req: &PlanRequest<'_>) -> Result<Plan, PlanError> {
        let _plan_span = req.recorder().span(names::PLAN);
        let model = req.model();
        let cluster = req.cluster();
        let k = self.prefix(model);
        let fastest = cluster.ids_by_capacity_desc()[0];
        let mut stages = vec![weighted_stage(model, cluster, Segment::new(0, k))];
        if k < model.len() {
            stages.push(solo_stage(model, Segment::new(k, model.len()), fastest));
        }
        req.admit(Plan::new(
            Scheme::EarlyFused,
            ExecutionMode::Sequential,
            stages,
        ))
    }
}

/// The optimal-fused-layer (OFL) baseline, after AOFL ("adaptive
/// parallel execution"): a dynamic program "selectively fuses
/// convolution layers at different parts of a model", trading
/// per-segment communication against halo redundancy.
///
/// For each candidate segment the planner additionally adapts the
/// degree of parallelism: it evaluates running the segment on the `p`
/// strongest devices for `p` in {1, 2, 4, ..., |D|}
/// (capacity-weighted shares) and keeps the cheapest, then minimizes
/// the summed segment cost over all fusion-point placements. Like all
/// one-stage schemes, the resulting plan is
/// [`ExecutionMode::Sequential`] (period = latency).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimalFused;

impl OptimalFused {
    /// Creates the OFL planner.
    pub fn new() -> Self {
        OptimalFused
    }
}

/// One way OFL may run the segments that end at a given unit.
struct Layout {
    /// Row shares of that unit's output.
    shares: Vec<Assignment>,
    /// `totals[i]`: stage time (Eq. 9) of units `[i, end)` under `shares`.
    totals: Vec<f64>,
}

impl Planner for OptimalFused {
    fn name(&self) -> &'static str {
        "OFL"
    }

    fn plan(&self, req: &PlanRequest<'_>) -> Result<Plan, PlanError> {
        let _plan_span = req.recorder().span(names::PLAN);
        let model = req.model();
        let cluster = req.cluster();
        let params = req.params();
        let cm = params.cost_model(model);
        let l = model.len();
        let by_capacity: Vec<&Device> = cluster
            .ids_by_capacity_desc()
            .iter()
            .map(|id| cluster.device(*id).expect("id from this cluster"))
            .collect();

        // The ways to run a segment ending at unit `j`: solo on the
        // fastest device, or capacity-weighted across the p strongest
        // devices for p in {2, 4, ..., |D|}. A layout's shares depend on
        // `j` only, so one suffix walk prices it for every start `i`.
        let layouts_ending_at = |j: usize| -> Vec<Layout> {
            let h = model.unit_output_shape(j - 1).height;
            let mut options = vec![vec![Assignment::new(by_capacity[0].id, Rows::full(h))]];
            if cluster.len() > 1 && model.unit(j - 1).is_partitionable() {
                let mut p = 2;
                loop {
                    let p_eff = p.min(cluster.len());
                    options.push(weighted_shares(h, by_capacity[..p_eff].iter().copied()));
                    if p_eff == cluster.len() {
                        break;
                    }
                    p *= 2;
                }
            }
            options
                .into_iter()
                .map(|shares| Layout {
                    totals: cm
                        .suffix_stage_costs(j, &shares, cluster)
                        .iter()
                        .map(|c| c.total())
                        .collect(),
                    shares,
                })
                .collect()
        };
        let layouts: Vec<Vec<Layout>> = (1..=l).map(layouts_ending_at).collect();
        // Cheapest layout of units [i, j); the least parallel wins ties.
        let candidate = |i: usize, j: usize| -> &Layout {
            let mut best = &layouts[j - 1][0];
            for layout in &layouts[j - 1][1..] {
                if layout.totals[i] < best.totals[i] {
                    best = layout;
                }
            }
            best
        };

        // dp[j] = (best cost for units [0, j), predecessor split point).
        let mut dp: Vec<(f64, usize)> = vec![(f64::INFINITY, 0); l + 1];
        dp[0] = (0.0, 0);
        for j in 1..=l {
            for i in 0..j {
                if dp[i].0.is_infinite() {
                    continue;
                }
                let total = dp[i].0 + candidate(i, j).totals[i];
                if total < dp[j].0 {
                    dp[j] = (total, i);
                }
            }
        }

        // Reconstruct fusion points.
        let mut cuts = vec![l];
        let mut j = l;
        while j > 0 {
            j = dp[j].1;
            cuts.push(j);
        }
        cuts.reverse();
        let stages: Vec<Stage> = cuts
            .windows(2)
            .map(|w| {
                Stage::new(
                    Segment::new(w[0], w[1]),
                    candidate(w[0], w[1]).shares.clone(),
                )
            })
            .collect();
        let plan = Plan::new(Scheme::OptimalFused, ExecutionMode::Sequential, stages);
        if let Some(t_lim) = params.t_lim {
            let latency = cm.evaluate(&plan, cluster).latency;
            if latency > t_lim {
                return Err(PlanError::LatencyInfeasible {
                    limit: t_lim,
                    best: latency,
                });
            }
        }
        req.admit(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostParams, LayerWise, PlanRequest};
    use pico_model::zoo;

    #[test]
    fn efl_has_fused_prefix_and_solo_tail() {
        let m = zoo::vgg16().features();
        let c = Cluster::pi_cluster(8, 1.0);
        let plan = EarlyFused::new()
            .plan(&PlanRequest::new(&m, &c, &CostParams::default()))
            .unwrap();
        assert_eq!(plan.stage_count(), 2);
        assert!(plan.stages[0].worker_count() == 8);
        assert_eq!(plan.stages[1].worker_count(), 1);
        let diags = crate::diag::structural_diagnostics(&plan, &m, &c);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn efl_explicit_prefix() {
        let m = zoo::toy(8);
        let c = Cluster::pi_cluster(4, 1.0);
        let plan = EarlyFused::with_fused_units(3)
            .plan(&PlanRequest::new(&m, &c, &CostParams::default()))
            .unwrap();
        assert_eq!(plan.stages[0].segment, Segment::new(0, 3));
        plan.validate(&m, &c).unwrap();
    }

    #[test]
    fn efl_prefix_covering_whole_model_is_single_stage() {
        let m = zoo::toy(4);
        let c = Cluster::pi_cluster(2, 1.0);
        let plan = EarlyFused::with_fused_units(99)
            .plan(&PlanRequest::new(&m, &c, &CostParams::default()))
            .unwrap();
        assert_eq!(plan.stage_count(), 1);
        plan.validate(&m, &c).unwrap();
    }

    #[test]
    fn ofl_beats_or_matches_efl_and_lw() {
        // OFL optimizes fusion points, so its one-shot latency can never
        // exceed the other one-stage baselines under the same cost model.
        let m = zoo::vgg16().features();
        let c = Cluster::pi_cluster(8, 1.0);
        let params = CostParams::wifi_50mbps();
        let cm = params.cost_model(&m);
        let ofl = cm.evaluate(
            &OptimalFused
                .plan(&PlanRequest::new(&m, &c, &params))
                .unwrap(),
            &c,
        );
        let efl = cm.evaluate(
            &EarlyFused::new()
                .plan(&PlanRequest::new(&m, &c, &params))
                .unwrap(),
            &c,
        );
        let lw = cm.evaluate(
            &LayerWise.plan(&PlanRequest::new(&m, &c, &params)).unwrap(),
            &c,
        );
        assert!(
            ofl.latency <= efl.latency * 1.0001,
            "{} vs {}",
            ofl.latency,
            efl.latency
        );
        assert!(ofl.latency <= lw.latency * 1.0001);
    }

    #[test]
    fn ofl_single_device_is_one_solo_stage() {
        let m = zoo::toy(6);
        let c = Cluster::pi_cluster(1, 1.0);
        let plan = OptimalFused
            .plan(&PlanRequest::new(&m, &c, &CostParams::default()))
            .unwrap();
        plan.validate(&m, &c).unwrap();
        // A single device minimizes transfers by fusing everything into
        // one segment (one input in, one output out).
        assert_eq!(plan.stage_count(), 1);
    }

    #[test]
    fn ofl_respects_t_lim() {
        let m = zoo::vgg16().features();
        let c = Cluster::pi_cluster(8, 1.0);
        let params = CostParams::wifi_50mbps().with_t_lim(1e-9);
        assert!(matches!(
            OptimalFused.plan(&PlanRequest::new(&m, &c, &params)),
            Err(PlanError::LatencyInfeasible { .. })
        ));
    }

    #[test]
    fn ofl_handles_fc_tails() {
        let m = zoo::vgg16(); // includes FC layers
        let c = Cluster::pi_cluster(4, 1.0);
        let plan = OptimalFused
            .plan(&PlanRequest::new(&m, &c, &CostParams::default()))
            .unwrap();
        plan.validate(&m, &c).unwrap();
    }

    #[test]
    fn fused_schemes_are_sequential() {
        let m = zoo::toy(4);
        let c = Cluster::pi_cluster(2, 1.0);
        for plan in [
            EarlyFused::new()
                .plan(&PlanRequest::new(&m, &c, &CostParams::default()))
                .unwrap(),
            OptimalFused
                .plan(&PlanRequest::new(&m, &c, &CostParams::default()))
                .unwrap(),
        ] {
            assert_eq!(plan.mode, ExecutionMode::Sequential);
        }
    }
}
