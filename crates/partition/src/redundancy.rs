//! Redundant-computation accounting.
//!
//! Partitioning a fused segment forces devices to recompute overlapping
//! halo rows (Sec. II-B). This module quantifies that: per-device total
//! and redundant FLOPs for a stage or a whole plan (Table I's "Redu"
//! rows, Fig. 13's orange bars) and the fused-layer FLOPs sweep of
//! Fig. 4.
//!
//! Attribution rule: at every layer, rows computed by two adjacent
//! devices are counted half-redundant for each of them; rows computed
//! once are never redundant. Summing per-device redundancy therefore
//! equals the stage's total duplicated work exactly.

use pico_model::{rows_split_even, Model, Region2, Rows, Segment};

use crate::{Plan, Stage};

/// FLOPs a single device performs (for one task), split into useful and
/// redundant parts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceWork {
    /// Device id.
    pub device: usize,
    /// Total FLOPs the device computes per task.
    pub total_flops: f64,
    /// FLOPs duplicated with other devices (halo overlap).
    pub redundant_flops: f64,
}

impl DeviceWork {
    /// Fraction of this device's work that is redundant.
    pub fn redundancy_ratio(&self) -> f64 {
        if self.total_flops > 0.0 {
            self.redundant_flops / self.total_flops
        } else {
            0.0
        }
    }
}

/// Per-device work for one stage (non-empty assignments only, in
/// assignment order).
///
/// Works for both row strips and 2-D grid tiles: every output cell of
/// every intermediate unit carries a coverage count; a cell computed by
/// `m > 1` devices contributes `(m-1)/m` of its cost as redundancy to
/// each of them (so summed per-device redundancy exactly equals the
/// stage's duplicated work). Per-cell cost is the unit's region cost
/// divided by its area — exact for plain layers, a uniform
/// approximation inside blocks (whose internal halo varies slightly by
/// position).
pub fn stage_work(model: &Model, stage: &Stage) -> Vec<DeviceWork> {
    let seg = stage.segment;
    let out_width = model.unit_output_shape(seg.end - 1).width;
    let workers: Vec<(usize, Region2)> = stage
        .assignments
        .iter()
        .filter(|a| !a.is_empty())
        .map(|a| (a.device, a.region(out_width)))
        .collect();
    // Per-worker, per-unit region traces.
    let traces: Vec<Vec<Region2>> = workers
        .iter()
        .map(|(_, region)| model.segment_region_trace(seg, *region))
        .collect();

    let mut out: Vec<DeviceWork> = workers
        .iter()
        .map(|(d, _)| DeviceWork {
            device: *d,
            total_flops: 0.0,
            redundant_flops: 0.0,
        })
        .collect();

    for (m, i) in seg.iter().enumerate() {
        let input = model.unit_input_shape(i);
        let output = model.unit_output_shape(i);
        // Coverage counts over this unit's output map.
        let mut coverage = vec![0u16; output.height * output.width];
        for trace in &traces {
            let region = trace[m];
            for r in region.rows.iter() {
                for c in region.cols.iter() {
                    coverage[r * output.width + c] += 1;
                }
            }
        }
        for k in 0..workers.len() {
            let region = traces[k][m];
            if region.is_empty() {
                continue;
            }
            let flops = model.unit(i).region_flops(region, input, output);
            let per_cell = flops / region.area() as f64;
            let mut shared_cells = 0.0f64;
            for r in region.rows.iter() {
                for c in region.cols.iter() {
                    let cnt = coverage[r * output.width + c];
                    if cnt > 1 {
                        shared_cells += (cnt as f64 - 1.0) / cnt as f64;
                    }
                }
            }
            out[k].total_flops += flops;
            out[k].redundant_flops += (shared_cells * per_cell).min(flops);
        }
    }
    out
}

/// Per-device work aggregated over every stage of a plan, in device-id
/// order. Devices that never work are omitted.
pub fn plan_work(model: &Model, plan: &Plan) -> Vec<DeviceWork> {
    let mut by_device: std::collections::BTreeMap<usize, DeviceWork> =
        std::collections::BTreeMap::new();
    for stage in &plan.stages {
        for w in stage_work(model, stage) {
            let entry = by_device.entry(w.device).or_insert(DeviceWork {
                device: w.device,
                total_flops: 0.0,
                redundant_flops: 0.0,
            });
            entry.total_flops += w.total_flops;
            entry.redundant_flops += w.redundant_flops;
        }
    }
    by_device.into_values().collect()
}

/// Cluster-wide redundancy ratio: duplicated FLOPs over total computed
/// FLOPs.
pub fn redundancy_ratio(work: &[DeviceWork]) -> f64 {
    let total: f64 = work.iter().map(|w| w.total_flops).sum();
    let redundant: f64 = work.iter().map(|w| w.redundant_flops).sum();
    if total > 0.0 {
        redundant / total
    } else {
        0.0
    }
}

/// One point of the Fig. 4 sweep: FLOPs when the first `fused_units`
/// units of a model are fused and split evenly over `devices` devices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedFlopsPoint {
    /// Number of cooperating devices.
    pub devices: usize,
    /// Number of fused leading units.
    pub fused_units: usize,
    /// FLOPs of the busiest device (Fig. 4a, "FLOPs per device").
    pub per_device_flops: f64,
    /// Summed FLOPs over all devices (Fig. 4b, "sum of FLOPs").
    pub total_flops: f64,
    /// FLOPs of the same segment computed once (no parallelization).
    pub monolithic_flops: f64,
}

/// Computes one point of the Fig. 4 fused-layer redundancy sweep.
///
/// # Panics
///
/// Panics if `fused_units == 0`, `fused_units > model.len()`, or
/// `devices == 0`.
pub fn fused_layer_flops(model: &Model, fused_units: usize, devices: usize) -> FusedFlopsPoint {
    assert!(
        fused_units >= 1 && fused_units <= model.len(),
        "bad fused unit count"
    );
    assert!(devices >= 1, "need at least one device");
    let seg = Segment::new(0, fused_units);
    let h = model.unit_output_shape(fused_units - 1).height;
    let shares = rows_split_even(Rows::full(h), devices);
    let per: Vec<f64> = shares
        .iter()
        .map(|r| model.segment_flops(seg, *r))
        .collect();
    FusedFlopsPoint {
        devices,
        fused_units,
        per_device_flops: per.iter().cloned().fold(0.0, f64::max),
        total_flops: per.iter().sum(),
        monolithic_flops: model.segment_flops(seg, Rows::full(h)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Assignment, Cluster, CostParams, ExecutionMode, PlanRequest, Planner, Scheme};
    use pico_model::zoo;

    #[test]
    fn single_worker_has_no_redundancy() {
        let m = zoo::toy(4);
        let h = m.output_shape().height;
        let stage = Stage::new(m.full_segment(), vec![Assignment::new(0, Rows::full(h))]);
        let work = stage_work(&m, &stage);
        assert_eq!(work.len(), 1);
        assert_eq!(work[0].redundant_flops, 0.0);
        assert!((work[0].total_flops - m.total_flops()).abs() < 1e-6);
    }

    #[test]
    fn split_redundancy_equals_duplicated_work() {
        let m = zoo::toy(4);
        let seg = m.full_segment();
        let h = m.output_shape().height;
        let shares = rows_split_even(Rows::full(h), 4);
        let stage = Stage::new(
            seg,
            shares
                .iter()
                .enumerate()
                .map(|(i, r)| Assignment::new(i, *r))
                .collect(),
        );
        let work = stage_work(&m, &stage);
        let total: f64 = work.iter().map(|w| w.total_flops).sum();
        let redundant: f64 = work.iter().map(|w| w.redundant_flops).sum();
        let lazy_full = m.segment_flops(seg, Rows::full(h));
        assert!(
            (total - redundant - lazy_full).abs() / lazy_full < 1e-9,
            "total {total} redundant {redundant} mono {lazy_full}"
        );
    }

    #[test]
    fn interior_devices_have_more_redundancy() {
        let m = zoo::toy(6);
        let h = m.output_shape().height;
        let shares = rows_split_even(Rows::full(h), 4);
        let stage = Stage::new(
            m.full_segment(),
            shares
                .iter()
                .enumerate()
                .map(|(i, r)| Assignment::new(i, *r))
                .collect(),
        );
        let work = stage_work(&m, &stage);
        // Border devices share one boundary, interior devices two.
        assert!(work[1].redundant_flops > work[0].redundant_flops);
        assert!(work[2].redundant_flops > work[3].redundant_flops);
    }

    #[test]
    fn no_halo_means_no_redundancy() {
        let m = zoo::identical_1x1(5);
        let h = m.output_shape().height;
        let shares = rows_split_even(Rows::full(h), 5);
        let stage = Stage::new(
            m.full_segment(),
            shares
                .iter()
                .enumerate()
                .map(|(i, r)| Assignment::new(i, *r))
                .collect(),
        );
        let work = stage_work(&m, &stage);
        assert!(work.iter().all(|w| w.redundant_flops == 0.0));
    }

    #[test]
    fn plan_work_aggregates_sequential_stages() {
        let m = zoo::toy(4);
        let h = m.output_shape().height;
        let plan = Plan::new(
            Scheme::OptimalFused,
            ExecutionMode::Sequential,
            vec![
                Stage::new(Segment::new(0, 2), vec![Assignment::new(0, Rows::full(h))]),
                Stage::new(Segment::new(2, 4), vec![Assignment::new(0, Rows::full(h))]),
            ],
        );
        let work = plan_work(&m, &plan);
        assert_eq!(work.len(), 1);
        assert!((work[0].total_flops - m.total_flops()).abs() < 1e-6);
    }

    #[test]
    fn fused_sweep_grows_with_devices_and_depth() {
        // The Fig. 4 story: total FLOPs grow with devices (more halo)
        // and redundancy grows with fused depth.
        let m = zoo::vgg16().features();
        let shallow_few = fused_layer_flops(&m, 4, 2);
        let shallow_many = fused_layer_flops(&m, 4, 8);
        let deep_many = fused_layer_flops(&m, 12, 8);
        assert!(shallow_many.total_flops > shallow_few.total_flops);
        let red = |p: &FusedFlopsPoint| (p.total_flops - p.monolithic_flops) / p.total_flops;
        assert!(red(&deep_many) > red(&shallow_many));
        // Per-device work shrinks as devices grow (parallelism wins
        // despite redundancy at these depths).
        assert!(shallow_many.per_device_flops < shallow_few.per_device_flops);
    }

    #[test]
    fn lw_redundancy_below_fused_redundancy() {
        // Table I: LW has minimal redundancy, EFL the most.
        let m = zoo::vgg16().features();
        let c = Cluster::pi_cluster(8, 1.0);
        let params = CostParams::wifi_50mbps();
        let lw = crate::LayerWise
            .plan(&PlanRequest::new(&m, &c, &params))
            .unwrap();
        let efl = crate::EarlyFused::new()
            .plan(&PlanRequest::new(&m, &c, &params))
            .unwrap();
        let lw_ratio = redundancy_ratio(&plan_work(&m, &lw));
        let efl_ratio = redundancy_ratio(&plan_work(&m, &efl));
        assert!(lw_ratio < efl_ratio, "lw {lw_ratio} efl {efl_ratio}");
    }
}
