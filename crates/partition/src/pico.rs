use pico_model::{Model, Rows, Segment};
use pico_telemetry::names;

use crate::cost::StageTable;
use crate::{
    Assignment, Cluster, Device, ExecutionMode, Plan, PlanError, PlanRequest, Planner, Scheme,
    Stage,
};

/// The paper's pipelined cooperation planner (Sec. IV):
///
/// 1. **Algorithm 1** — dynamic programming over (segment end, device
///    count) on the idealized homogeneous cluster `D'` (Eq. 12/13),
///    minimizing the pipeline period with `T_lim` pruning;
/// 2. **Algorithm 2** — a greedy pass that hands real heterogeneous
///    devices to stages in order of per-slot computing demand
///    (strongest devices to the most demanding stages);
/// 3. **divide-and-conquer share balancing** ([`balance_rows`]) that
///    re-partitions each stage's output rows across its actual devices.
///
/// The resulting plan is [`ExecutionMode::Pipelined`]: stages own
/// disjoint device subsets and process different tasks concurrently.
/// PICO may deliberately leave devices idle when adding them would not
/// shrink the period (Table I: "PICO uses a subset of edge devices
/// instead of the entire cluster").
///
/// # Example
///
/// ```
/// use pico_model::zoo;
/// use pico_partition::{Cluster, CostParams, PicoPlanner, PlanRequest, Planner};
///
/// let model = zoo::mnist_toy();
/// let cluster = Cluster::paper_heterogeneous_6();
/// let plan = PicoPlanner::new().plan(&PlanRequest::new(&model, &cluster, &CostParams::wifi_50mbps()))?;
/// plan.validate(&model, &cluster)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PicoPlanner;

impl PicoPlanner {
    /// Creates the PICO planner.
    pub fn new() -> Self {
        PicoPlanner
    }
}

/// One stage of the homogeneous solution: a segment replicated over `p`
/// average-capacity workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HomoStage {
    seg: Segment,
    p: usize,
}

/// Result of Algorithm 1 on the averaged cluster.
#[derive(Debug, Clone)]
struct HomoSolution {
    stages: Vec<HomoStage>,
    period: f64,
    latency: f64,
}

/// Algorithm 1: DP for the optimal homogeneous pipeline over the
/// priced stage table `ts` (`Ts[i][j][p]` on the averaged cluster).
///
/// `dp[j][p]` is the best (period, latency) for units `[0, j)` using
/// exactly `p` workers; the final answer minimizes over `p <= |D|`
/// (PICO may idle devices). Candidates whose accumulated latency exceed
/// `t_lim` are pruned, mirroring the paper's greedy pruning — the DP is
/// a heuristic under a latency constraint, exact without one.
fn homogeneous_dp(ts: &StageTable, t_lim: Option<f64>) -> Result<HomoSolution, PlanError> {
    let l = ts.units();
    let d = ts.devices();

    #[derive(Clone, Copy)]
    struct Cell {
        period: f64,
        latency: f64,
        /// `None` = single stage [0, j); `Some((s, p_tail))` = optimal
        /// sub-pipeline [0, s) with `p - p_tail` workers plus a final
        /// stage [s, j) on `p_tail` workers.
        parent: Option<(usize, usize)>,
    }
    let empty = Cell {
        period: f64::INFINITY,
        latency: f64::INFINITY,
        parent: None,
    };
    // dp[j][p], j in 0..=l, p in 0..=d (j=0 / p=0 unused).
    let mut dp = vec![empty; (l + 1) * (d + 1)];
    let at = |j: usize, p: usize| j * (d + 1) + p;

    for j in 1..=l {
        for p in 1..=d {
            // Single stage covering everything so far.
            let single = ts.total(Segment::new(0, j), p);
            let mut best = Cell {
                period: single,
                latency: single,
                parent: None,
            };
            // Split: sub-pipeline [0, s) + final stage [s, j).
            for s in 1..j {
                for p_tail in 1..p {
                    let head = dp[at(s, p - p_tail)];
                    if head.period.is_infinite() {
                        continue;
                    }
                    let tail = ts.total(Segment::new(s, j), p_tail);
                    let period = head.period.max(tail);
                    let latency = head.latency + tail;
                    if let Some(lim) = t_lim {
                        if latency > lim {
                            continue;
                        }
                    }
                    if period < best.period || (period == best.period && latency < best.latency) {
                        best = Cell {
                            period,
                            latency,
                            parent: Some((s, p_tail)),
                        };
                    }
                }
            }
            dp[at(j, p)] = best;
        }
    }

    // Answer: best over worker counts, honoring t_lim.
    let mut best_p = 0;
    let mut best = empty;
    let mut best_unconstrained_latency = f64::INFINITY;
    for p in 1..=d {
        let cell = dp[at(l, p)];
        best_unconstrained_latency = best_unconstrained_latency.min(cell.latency);
        let feasible = t_lim.is_none_or(|lim| cell.latency <= lim);
        if feasible
            && (cell.period < best.period
                || (cell.period == best.period && cell.latency < best.latency))
        {
            best = cell;
            best_p = p;
        }
    }
    if best.period.is_infinite() {
        return Err(PlanError::LatencyInfeasible {
            limit: t_lim.unwrap_or(f64::INFINITY),
            best: best_unconstrained_latency,
        });
    }

    // BuildStrategy: walk parents back from (l, best_p).
    let mut stages = Vec::new();
    let (mut j, mut p) = (l, best_p);
    loop {
        let cell = dp[at(j, p)];
        match cell.parent {
            Some((s, p_tail)) => {
                stages.push(HomoStage {
                    seg: Segment::new(s, j),
                    p: p_tail,
                });
                p -= p_tail;
                j = s;
            }
            None => {
                stages.push(HomoStage {
                    seg: Segment::new(0, j),
                    p,
                });
                break;
            }
        }
    }
    stages.reverse();
    Ok(HomoSolution {
        stages,
        period: best.period,
        latency: best.latency,
    })
}

/// Divide-and-conquer share balancing: recursively bisects the device
/// list and searches the row split point that equalizes the two halves'
/// estimated compute time (`flops / Σ capacity`).
///
/// Shares are returned in the order of `devices` and tile `rows`
/// contiguously and exactly. Devices may receive empty shares when there
/// are more devices than rows.
///
/// # Example
///
/// ```
/// use pico_model::{zoo, Rows};
/// use pico_partition::{Device, PlanRequest, balance_rows};
///
/// let model = zoo::toy(4);
/// let fast = Device::from_frequency(0, 1.2);
/// let slow = Device::from_frequency(1, 0.6);
/// let shares = balance_rows(&model, model.full_segment(), Rows::full(64), &[&fast, &slow]);
/// // The 2x faster device gets roughly 2x the rows.
/// assert!(shares[0].len() > shares[1].len());
/// ```
///
/// # Panics
///
/// Panics if `devices` is empty.
pub fn balance_rows(model: &Model, seg: Segment, rows: Rows, devices: &[&Device]) -> Vec<Rows> {
    assert!(!devices.is_empty(), "cannot balance rows over no devices");
    if devices.len() == 1 {
        return vec![rows];
    }
    let mid = devices.len() / 2;
    let (left, right) = devices.split_at(mid);
    let cap_left: f64 = left.iter().map(|d| d.capacity / d.alpha).sum();
    let cap_right: f64 = right.iter().map(|d| d.capacity / d.alpha).sum();

    // Find the split minimizing max(flops_left / cap_left,
    // flops_right / cap_right); the left term is non-decreasing in the
    // split point and the right term non-increasing, so scan for the
    // crossover.
    let mut best_split = rows.start;
    let mut best_cost = f64::INFINITY;
    for split in rows.start..=rows.end {
        let t_left = if split > rows.start {
            model.segment_flops(seg, Rows::new(rows.start, split)) / cap_left
        } else {
            0.0
        };
        let t_right = if split < rows.end {
            model.segment_flops(seg, Rows::new(split, rows.end)) / cap_right
        } else {
            0.0
        };
        let cost = t_left.max(t_right);
        if cost < best_cost {
            best_cost = cost;
            best_split = split;
        } else if t_left > t_right {
            // Past the crossover; no better split ahead.
            break;
        }
    }

    let mut shares = balance_rows(model, seg, Rows::new(rows.start, best_split), left);
    shares.extend(balance_rows(
        model,
        seg,
        Rows::new(best_split, rows.end),
        right,
    ));
    shares
}

/// Algorithm 2: hands real devices to the homogeneous stages.
///
/// Stages are served in order of per-slot computing demand `Θ'/|D'|`
/// (largest first), devices in order of capacity (strongest first); once
/// a stage has its full complement its output rows are re-balanced over
/// its actual devices with [`balance_rows`].
fn adjust_stages(model: &Model, cluster: &Cluster, homo: &HomoSolution) -> Vec<Stage> {
    // Per-slot demand Θ'_{i->j} / |D'_{i->j}| (Eq. 14): total flops the
    // homogeneous stage performs, including halo redundancy.
    let mut order: Vec<usize> = (0..homo.stages.len()).collect();
    let demand: Vec<f64> = homo
        .stages
        .iter()
        .map(|hs| {
            let h = model.unit_output_shape(hs.seg.end - 1).height;
            let shares = pico_model::rows_split_even(Rows::full(h), hs.p);
            let theta: f64 = shares.iter().map(|r| model.segment_flops(hs.seg, *r)).sum();
            theta / hs.p as f64
        })
        .collect();
    order.sort_by(|&a, &b| {
        demand[b]
            .partial_cmp(&demand[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    // Strongest devices feed the most demanding stages.
    let ids = cluster.ids_by_capacity_desc();
    let mut cursor = 0usize;
    let mut device_sets: Vec<Vec<usize>> = vec![Vec::new(); homo.stages.len()];
    for &s in &order {
        for _ in 0..homo.stages[s].p {
            if cursor < ids.len() {
                device_sets[s].push(ids[cursor]);
                cursor += 1;
            }
        }
    }
    homo.stages
        .iter()
        .enumerate()
        .map(|(s, hs)| {
            let devices: Vec<&Device> = device_sets[s]
                .iter()
                .map(|id| cluster.device(*id).expect("id from this cluster"))
                .collect();
            let h = model.unit_output_shape(hs.seg.end - 1).height;
            let shares = balance_rows(model, hs.seg, Rows::full(h), &devices);
            let assignments = devices
                .iter()
                .zip(shares)
                .map(|(d, r)| Assignment::new(d.id, r))
                .collect();
            Stage::new(hs.seg, assignments)
        })
        .collect()
}

impl Planner for PicoPlanner {
    fn name(&self) -> &'static str {
        "PICO"
    }

    fn plan(&self, req: &PlanRequest<'_>) -> Result<Plan, PlanError> {
        let _plan_span = req.recorder().span(names::PLAN);
        let model = req.model();
        let cluster = req.cluster();
        let params = req.params();
        let ts = params
            .cost_model(model)
            .even_stage_table(&cluster.averaged());
        req.admit(plan_over_table(model, cluster, &ts, params.t_lim)?)
    }
}

/// Algorithms 1 and 2 over an already-priced stage table — `ts` must be
/// [`CostModel::even_stage_table`](crate::CostModel::even_stage_table)
/// of `model` on `cluster.averaged()`. The table does not depend on
/// `t_lim`, so a `T_lim` sweep ([`crate::pareto`]) prices it once and
/// calls this per limit.
pub(crate) fn plan_over_table(
    model: &Model,
    cluster: &Cluster,
    ts: &StageTable,
    t_lim: Option<f64>,
) -> Result<Plan, PlanError> {
    let homo = homogeneous_dp(ts, t_lim)?;
    debug_assert!(homo.period <= homo.latency + 1e-12);
    let stages = adjust_stages(model, cluster, &homo);
    let plan = Plan::new(Scheme::Pico, ExecutionMode::Pipelined, stages);
    debug_assert!(plan.validate(model, cluster).is_ok());
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostParams, EarlyFused, OptimalFused, PlanRequest};
    use pico_model::zoo;

    fn plan_for(model: &Model, cluster: &Cluster, params: &CostParams) -> Plan {
        let plan = PicoPlanner
            .plan(&PlanRequest::new(model, cluster, params))
            .unwrap();
        let diags = crate::diag::structural_diagnostics(&plan, model, cluster);
        assert!(diags.is_empty(), "{diags:?}");
        plan
    }

    #[test]
    fn vgg16_pipeline_is_multi_stage() {
        let m = zoo::vgg16().features();
        let c = Cluster::pi_cluster(8, 1.0);
        let plan = plan_for(&m, &c, &CostParams::wifi_50mbps());
        assert!(plan.stage_count() >= 2, "got {} stages", plan.stage_count());
    }

    #[test]
    fn pico_period_beats_one_stage_schemes() {
        // The headline property: pipeline period < any sequential
        // scheme's period on a well-provisioned cluster.
        let m = zoo::vgg16().features();
        let c = Cluster::pi_cluster(8, 1.0);
        let params = CostParams::wifi_50mbps();
        let cm = params.cost_model(&m);
        let pico = cm.evaluate(&plan_for(&m, &c, &params), &c);
        let efl = cm.evaluate(
            &EarlyFused::new()
                .plan(&PlanRequest::new(&m, &c, &params))
                .unwrap(),
            &c,
        );
        let ofl = cm.evaluate(
            &OptimalFused
                .plan(&PlanRequest::new(&m, &c, &params))
                .unwrap(),
            &c,
        );
        assert!(
            pico.period < efl.period,
            "pico {} efl {}",
            pico.period,
            efl.period
        );
        assert!(
            pico.period < ofl.period,
            "pico {} ofl {}",
            pico.period,
            ofl.period
        );
    }

    #[test]
    fn single_device_degenerates_to_one_stage() {
        let m = zoo::toy(6);
        let c = Cluster::pi_cluster(1, 1.0);
        let plan = plan_for(&m, &c, &CostParams::default());
        assert_eq!(plan.stage_count(), 1);
        assert_eq!(plan.stages[0].worker_count(), 1);
    }

    #[test]
    fn pipelined_plans_use_disjoint_devices() {
        let m = zoo::yolov2();
        let c = Cluster::paper_heterogeneous();
        let plan = plan_for(&m, &c, &CostParams::wifi_50mbps());
        let mut all: Vec<usize> = plan
            .stages
            .iter()
            .flat_map(|s| s.device_ids().collect::<Vec<_>>())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn heterogeneous_shares_scale_with_capacity() {
        let m = zoo::vgg16().features();
        let c = Cluster::paper_heterogeneous();
        let params = CostParams::wifi_50mbps();
        let plan = plan_for(&m, &c, &params);
        let cm = params.cost_model(&m);
        // Within each multi-device stage, per-device compute times should
        // be within ~2.5x of each other (balanced), far tighter than the
        // 2x capacity spread would make an even split.
        for stage in &plan.stages {
            let times: Vec<f64> = stage
                .assignments
                .iter()
                .filter(|a| !a.rows.is_empty())
                .map(|a| {
                    cm.assignment_comp_time(c.device(a.device).unwrap(), stage.segment, a.rows)
                })
                .collect();
            if times.len() < 2 {
                continue;
            }
            let max = times.iter().cloned().fold(0.0, f64::max);
            let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(max / min < 3.0, "unbalanced stage: {times:?}");
        }
    }

    #[test]
    fn t_lim_is_honored_or_infeasible() {
        let m = zoo::vgg16().features();
        let c = Cluster::pi_cluster(8, 1.0);
        let unconstrained = CostParams::wifi_50mbps();
        let cm = unconstrained.cost_model(&m);
        let base = cm.evaluate(&plan_for(&m, &c, &unconstrained), &c);

        // A generous limit must be met.
        let loose = unconstrained.with_t_lim(base.latency * 2.0);
        let plan = PicoPlanner.plan(&PlanRequest::new(&m, &c, &loose)).unwrap();
        assert!(cm.evaluate(&plan, &c).latency <= base.latency * 2.0);

        // An impossible limit errors out.
        let tight = unconstrained.with_t_lim(1e-9);
        assert!(matches!(
            PicoPlanner.plan(&PlanRequest::new(&m, &c, &tight)),
            Err(PlanError::LatencyInfeasible { .. })
        ));
    }

    #[test]
    fn t_lim_trades_period_for_latency() {
        let m = zoo::vgg16().features();
        let c = Cluster::pi_cluster(8, 1.0);
        let free = CostParams::wifi_50mbps();
        let cm = free.cost_model(&m);
        let unlimited = cm.evaluate(&plan_for(&m, &c, &free), &c);
        // Constrain latency to just above the single-stage latency: the
        // planner must pick fewer stages (higher period, lower latency).
        let single = cm.even_stage_cost(m.full_segment(), &c, 8).total();
        let constrained_params = free.with_t_lim(single * 1.05);
        let constrained = cm.evaluate(&plan_for(&m, &c, &constrained_params), &c);
        assert!(constrained.latency <= single * 1.05 + 1e-9);
        assert!(constrained.period >= unlimited.period - 1e-12);
    }

    #[test]
    fn graph_models_plan_cleanly() {
        let params = CostParams::wifi_50mbps();
        let c = Cluster::pi_cluster(8, 0.6);
        for m in [zoo::resnet34().features(), zoo::inception_v3().features()] {
            let plan = plan_for(&m, &c, &params);
            assert!(
                plan.stage_count() >= 2,
                "{}: {}",
                m.name(),
                plan.stage_count()
            );
        }
    }

    #[test]
    fn balance_rows_equalizes_times() {
        let m = zoo::toy(4);
        let seg = m.full_segment();
        let fast = Device::from_frequency(0, 1.2);
        let slow = Device::from_frequency(1, 0.6);
        let shares = balance_rows(&m, seg, Rows::full(64), &[&fast, &slow]);
        assert_eq!(shares.len(), 2);
        assert_eq!(shares[0].start, 0);
        assert_eq!(shares[1].end, 64);
        // Fast device gets roughly twice the rows.
        assert!(shares[0].len() > shares[1].len());
        let t0 = fast.compute_time(m.segment_flops(seg, shares[0]));
        let t1 = slow.compute_time(m.segment_flops(seg, shares[1]));
        assert!((t0 - t1).abs() / t0.max(t1) < 0.25, "t0={t0} t1={t1}");
    }

    #[test]
    fn balance_rows_single_device_takes_all() {
        let m = zoo::toy(2);
        let d = Device::from_frequency(0, 1.0);
        let shares = balance_rows(&m, m.full_segment(), Rows::new(3, 40), &[&d]);
        assert_eq!(shares, vec![Rows::new(3, 40)]);
    }

    #[test]
    fn balance_rows_more_devices_than_rows() {
        let m = zoo::toy(2);
        let devices: Vec<Device> = (0..6).map(|i| Device::from_frequency(i, 1.0)).collect();
        let refs: Vec<&Device> = devices.iter().collect();
        let shares = balance_rows(&m, m.full_segment(), Rows::new(0, 3), &refs);
        assert_eq!(shares.len(), 6);
        assert_eq!(shares.iter().map(Rows::len).sum::<usize>(), 3);
    }

    #[test]
    fn identical_layers_split_evenly() {
        // The Theorem 1 construction has no halo; on a homogeneous
        // cluster the DP should find period ~= total/(devices) modulo
        // communication.
        let m = zoo::identical_1x1(8);
        let c = Cluster::pi_cluster(4, 1.0);
        let params = CostParams::new(1e12); // effectively free network
        let plan = plan_for(&m, &c, &params);
        let cm = params.cost_model(&m);
        let metrics = cm.evaluate(&plan, &c);
        let ideal = c.device(0).unwrap().compute_time(m.total_flops()) / 4.0;
        assert!(
            metrics.period <= ideal * 1.3,
            "period {} ideal {}",
            metrics.period,
            ideal
        );
    }
}
