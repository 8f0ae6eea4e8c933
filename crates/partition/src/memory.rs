//! Per-device memory footprint accounting.
//!
//! The paper's introduction motivates cooperative inference with memory:
//! "executing CNN inference locally requires large computational
//! resources and memory footprints that are usually not available in a
//! single IoT device", and "since each device only processes part of the
//! original data, the memory consumption ... can be reduced".
//!
//! This module quantifies that per plan and device:
//!
//! * **weights** — each device "owns a copy of model segment `M_{i->j}`"
//!   for every stage it serves, so it holds those segments' parameters;
//! * **activations** — executing a fused segment layer by layer needs, at
//!   the peak, one layer's input tile plus its output tile resident
//!   simultaneously (tiles shrink with the device's row share).

use pico_model::{Model, Region2, Unit, BYTES_PER_ELEMENT};

use crate::Plan;

/// Memory footprint of one device under a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceMemory {
    /// Device id.
    pub device: usize,
    /// Bytes of model parameters the device must hold.
    pub weights_bytes: usize,
    /// Peak bytes of feature-map tiles resident at once.
    pub peak_activation_bytes: usize,
}

impl DeviceMemory {
    /// Total resident bytes.
    pub fn total_bytes(&self) -> usize {
        self.weights_bytes + self.peak_activation_bytes
    }
}

/// Computes each device's memory footprint under `plan`. Devices are
/// returned in ascending id order; devices with no work are omitted.
///
/// # Example
///
/// ```
/// use pico_model::zoo;
/// use pico_partition::memory::{plan_memory, single_device_memory};
/// use pico_partition::{Cluster, CostParams, PicoPlanner, PlanRequest, Planner};
///
/// let model = zoo::vgg16().features();
/// let cluster = Cluster::pi_cluster(8, 1.0);
/// let plan = PicoPlanner::new().plan(&PlanRequest::new(&model, &cluster, &CostParams::default()))?;
/// let worst = plan_memory(&model, &plan)
///     .iter()
///     .map(|d| d.total_bytes())
///     .max()
///     .unwrap();
/// // Cooperation shrinks the worst device's footprint vs a single device.
/// assert!(worst < single_device_memory(&model).total_bytes());
/// # Ok::<(), pico_partition::PlanError>(())
/// ```
pub fn plan_memory(model: &Model, plan: &Plan) -> Vec<DeviceMemory> {
    let mut by_device: std::collections::BTreeMap<usize, DeviceMemory> =
        std::collections::BTreeMap::new();
    for stage in &plan.stages {
        let seg = stage.segment;
        let seg_weights: usize = seg
            .iter()
            .map(|i| model.unit(i).parameters() * BYTES_PER_ELEMENT)
            .sum();
        let out_width = model.unit_output_shape(seg.end - 1).width;
        for a in stage.assignments.iter().filter(|a| !a.is_empty()) {
            let peak = peak_activation(model, seg, a.region(out_width));
            let entry = by_device.entry(a.device).or_insert(DeviceMemory {
                device: a.device,
                weights_bytes: 0,
                peak_activation_bytes: 0,
            });
            // A device serving several stages (sequential schemes) holds
            // all their weights, but activations of different stages are
            // not resident together.
            entry.weights_bytes += seg_weights;
            entry.peak_activation_bytes = entry.peak_activation_bytes.max(peak);
        }
    }
    by_device.into_values().collect()
}

/// Peak activation bytes while a device computes `region` of segment
/// `seg`: the maximum over consecutive units of (input tile + output
/// tile). Blocks additionally keep every path output resident before
/// merging. Works for row strips and grid tiles alike.
fn peak_activation(model: &Model, seg: pico_model::Segment, region: Region2) -> usize {
    let trace = model.segment_region_trace(seg, region);
    let mut peak = 0usize;
    for (k, i) in seg.iter().enumerate() {
        let out_shape = model.unit_output_shape(i);
        let in_shape = model.unit_input_shape(i);
        let out_region = trace[k];
        let in_region = model.unit(i).input_region(out_region, in_shape);
        let in_bytes = in_region.bytes(in_shape.channels);
        let out_bytes = match model.unit(i) {
            Unit::Block(b) if b.merge == pico_model::Merge::Concat => {
                // Concat: all path outputs live until the merge; their
                // combined size equals the merged output.
                out_region.bytes(out_shape.channels)
            }
            Unit::Block(_) => {
                // Add: merged output plus one path output buffer.
                2 * out_region.bytes(out_shape.channels)
            }
            Unit::Layer(_) => out_region.bytes(out_shape.channels),
        };
        peak = peak.max(in_bytes + out_bytes);
    }
    peak
}

/// The single-device baseline: all weights plus the largest
/// consecutive-layer activation pair for the full feature maps.
pub fn single_device_memory(model: &Model) -> DeviceMemory {
    let out = model.output_shape();
    DeviceMemory {
        device: usize::MAX,
        weights_bytes: model.parameters() * BYTES_PER_ELEMENT,
        peak_activation_bytes: peak_activation(
            model,
            model.full_segment(),
            Region2::full(out.height, out.width),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, CostParams, EarlyFused, LayerWise, PicoPlanner, PlanRequest, Planner};
    use pico_model::zoo;

    #[test]
    fn single_device_holds_everything() {
        let m = zoo::vgg16().features();
        let base = single_device_memory(&m);
        assert_eq!(base.weights_bytes, m.parameters() * 4);
        assert!(base.peak_activation_bytes > 0);
    }

    #[test]
    fn pico_splits_weights_across_devices() {
        // Pipelined stages hold disjoint segments: summed weight bytes,
        // counted once per (stage, device), cover the model with only
        // within-stage duplication.
        let m = zoo::vgg16().features();
        let c = Cluster::pi_cluster(8, 1.0);
        let plan = PicoPlanner::new()
            .plan(&PlanRequest::new(&m, &c, &CostParams::default()))
            .unwrap();
        let mem = plan_memory(&m, &plan);
        let max_dev = mem.iter().map(|d| d.weights_bytes).max().unwrap();
        // No single device holds the whole model.
        assert!(max_dev < m.parameters() * 4, "{max_dev}");
    }

    #[test]
    fn pico_reduces_peak_activation_vs_single_device() {
        let m = zoo::vgg16().features();
        let c = Cluster::pi_cluster(8, 1.0);
        let plan = PicoPlanner::new()
            .plan(&PlanRequest::new(&m, &c, &CostParams::default()))
            .unwrap();
        let base = single_device_memory(&m).peak_activation_bytes;
        for d in plan_memory(&m, &plan) {
            assert!(
                d.peak_activation_bytes < base,
                "device {} tile {} vs monolithic {base}",
                d.device,
                d.peak_activation_bytes
            );
        }
    }

    #[test]
    fn layer_wise_devices_hold_the_whole_model() {
        // LW's devices participate in every layer, so each carries all
        // the weights — the memory cost of that scheme.
        let m = zoo::toy(4);
        let c = Cluster::pi_cluster(2, 1.0);
        let plan = LayerWise
            .plan(&PlanRequest::new(&m, &c, &CostParams::default()))
            .unwrap();
        for d in plan_memory(&m, &plan) {
            assert_eq!(d.weights_bytes, m.parameters() * 4);
        }
    }

    #[test]
    fn efl_tail_device_dominates_weights() {
        let m = zoo::vgg16().features();
        let c = Cluster::pi_cluster(8, 1.0);
        let plan = EarlyFused::new()
            .plan(&PlanRequest::new(&m, &c, &CostParams::default()))
            .unwrap();
        let mem = plan_memory(&m, &plan);
        let tail_device = plan.stages[1].assignments[0].device;
        let tail = mem.iter().find(|d| d.device == tail_device).unwrap();
        for d in &mem {
            assert!(d.weights_bytes <= tail.weights_bytes);
        }
    }

    #[test]
    fn idle_devices_are_omitted() {
        let m = zoo::toy(2);
        let c = Cluster::pi_cluster(8, 1.0);
        let plan = PicoPlanner::new()
            .plan(&PlanRequest::new(&m, &c, &CostParams::default()))
            .unwrap();
        let mem = plan_memory(&m, &plan);
        assert_eq!(mem.len(), plan.used_devices().len());
    }

    #[test]
    fn block_models_account_activation() {
        let m = zoo::resnet34().features();
        let c = Cluster::pi_cluster(4, 1.0);
        let plan = PicoPlanner::new()
            .plan(&PlanRequest::new(&m, &c, &CostParams::default()))
            .unwrap();
        for d in plan_memory(&m, &plan) {
            assert!(d.peak_activation_bytes > 0);
            assert!(d.total_bytes() > d.weights_bytes);
        }
    }
}
