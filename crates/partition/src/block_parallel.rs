//! Intra-block path parallelism — the paper's stated limitation turned
//! into an analysis.
//!
//! Sec. V-B explains InceptionV3's smaller speedup: "the optimal model
//! partition is more likely to exist within blocks. And PICO currently
//! does not support such a partition." Inception blocks bundle many
//! independent paths into one planning unit, so PICO can only
//! row-partition the whole block.
//!
//! This module quantifies what a path-level partitioner could gain:
//! paths are independent given the block input, so they can run on
//! different devices (model parallelism), LPT-scheduled by FLOPs onto
//! the strongest devices, each device paying to receive the block input
//! and ship its paths' outputs.

use pico_model::{Model, Region2, Unit};

use crate::{Cluster, CostParams};

/// Path-parallel potential of one block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockParallelism {
    /// Unit index of the block within the model.
    pub unit: usize,
    /// Block name.
    pub name: String,
    /// Number of parallel paths.
    pub paths: usize,
    /// Per-path FLOPs (full output), descending.
    pub path_flops: Vec<f64>,
    /// Time on the fastest single device (no communication).
    pub single_device_time: f64,
    /// LPT makespan across the given devices, including per-device
    /// input broadcast and output gather on the shared link.
    pub path_parallel_time: f64,
}

impl BlockParallelism {
    /// Speedup path parallelism would give for this block.
    pub fn speedup(&self) -> f64 {
        self.single_device_time / self.path_parallel_time
    }
}

/// Analyzes every block unit of `model` for path-parallel potential on
/// up to `max_devices` of the cluster's strongest devices.
///
/// # Example
///
/// ```
/// use pico_model::zoo;
/// use pico_partition::block_parallel::analyze_blocks;
/// use pico_partition::{Cluster, CostParams};
///
/// let model = zoo::inception_v3().features();
/// let cluster = Cluster::pi_cluster(4, 1.0);
/// // On a fast LAN, some inception block gains > 1.5x from
/// // path-level parallelism — the paper's future-work item.
/// let blocks = analyze_blocks(&model, &cluster, &CostParams::new(1e9), 4);
/// assert!(blocks.iter().any(|b| b.speedup() > 1.5));
/// ```
pub fn analyze_blocks(
    model: &Model,
    cluster: &Cluster,
    params: &CostParams,
    max_devices: usize,
) -> Vec<BlockParallelism> {
    let ids = cluster.ids_by_capacity_desc();
    let devices: Vec<&crate::Device> = ids
        .iter()
        .take(max_devices.max(1))
        .map(|id| cluster.device(*id).expect("id from this cluster"))
        .collect();
    let fastest = devices[0];

    let mut out = Vec::new();
    for i in 0..model.len() {
        let Unit::Block(block) = model.unit(i) else {
            continue;
        };
        let input = model.unit_input_shape(i);
        // Per-path FLOPs over the full output region.
        let mut path_flops: Vec<f64> = block
            .paths
            .iter()
            .map(|path| {
                let single = pico_model::Block::new("one", vec![path.clone()], block.merge);
                let out_shape = single
                    .output_shape(input)
                    .expect("validated at construction");
                single
                    .region_flops(Region2::full(out_shape.height, out_shape.width), input)
                    .expect("validated at construction")
            })
            .collect();
        path_flops.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        let total: f64 = path_flops.iter().sum();
        let single_device_time = fastest.compute_time(total);

        // LPT: heaviest path to the device that finishes it earliest.
        let mut loads = vec![0.0f64; devices.len()];
        let mut used = vec![false; devices.len()];
        for f in &path_flops {
            let (best, _) = loads
                .iter()
                .enumerate()
                .map(|(k, l)| (k, (l + f) / (devices[k].capacity / devices[k].alpha)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("devices non-empty");
            loads[best] += f;
            used[best] = true;
        }
        let comp = loads
            .iter()
            .enumerate()
            .map(|(k, l)| devices[k].compute_time(*l))
            .fold(0.0, f64::max);
        // Communication: every participating extra device receives the
        // block input and returns its share of the output (approximated
        // as output bytes split by work share).
        let out_shape = model.unit_output_shape(i);
        let in_bytes = input.bytes() as f64;
        let out_bytes = out_shape.bytes() as f64;
        let extra_devices = used.iter().skip(1).filter(|u| **u).count() as f64;
        let comm_bytes = extra_devices * in_bytes
            + if total > 0.0 {
                out_bytes * (1.0 - loads[0] / total)
            } else {
                0.0
            };
        let comm = comm_bytes * 8.0 / params.bandwidth_bps;

        out.push(BlockParallelism {
            unit: i,
            name: block.name.clone(),
            paths: block.paths.len(),
            path_flops,
            single_device_time,
            path_parallel_time: comp + comm,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pico_model::zoo;

    #[test]
    fn inception_blocks_have_exploitable_parallelism() {
        // With a fast network, inception blocks (4-6 comparable paths)
        // show real path-parallel speedup on 4 devices.
        let m = zoo::inception_v3().features();
        let c = Cluster::pi_cluster(4, 1.0);
        let params = CostParams::new(1e9); // fast LAN
        let blocks = analyze_blocks(&m, &c, &params, 4);
        assert_eq!(blocks.len(), 11);
        let best = blocks
            .iter()
            .map(BlockParallelism::speedup)
            .fold(0.0, f64::max);
        assert!(best > 1.5, "best inception block speedup {best}");
    }

    #[test]
    fn residual_blocks_gain_little() {
        // A basic residual block has one heavy path and an (almost)
        // empty shortcut: path parallelism cannot help.
        let m = zoo::resnet34().features();
        let c = Cluster::pi_cluster(4, 1.0);
        let params = CostParams::new(1e9);
        let blocks = analyze_blocks(&m, &c, &params, 4);
        for b in &blocks {
            assert!(
                b.speedup() < 1.2,
                "{}: residual speedup {}",
                b.name,
                b.speedup()
            );
        }
    }

    #[test]
    fn slow_networks_erase_the_gain() {
        // On the paper's 50 Mbps WiFi the broadcast eats the benefit —
        // consistent with the authors deferring this to future work.
        let m = zoo::inception_v3().features();
        let c = Cluster::pi_cluster(4, 1.0);
        let fast = analyze_blocks(&m, &c, &CostParams::new(1e9), 4);
        let slow = analyze_blocks(&m, &c, &CostParams::wifi_50mbps(), 4);
        let best_fast = fast
            .iter()
            .map(BlockParallelism::speedup)
            .fold(0.0, f64::max);
        let best_slow = slow
            .iter()
            .map(BlockParallelism::speedup)
            .fold(0.0, f64::max);
        assert!(best_slow < best_fast);
    }

    #[test]
    fn single_device_equals_no_parallelism() {
        let m = zoo::inception_v3().features();
        let c = Cluster::pi_cluster(1, 1.0);
        let params = CostParams::new(1e9);
        for b in analyze_blocks(&m, &c, &params, 1) {
            // One device: parallel time = single time (no comm).
            assert!(
                (b.speedup() - 1.0).abs() < 1e-9,
                "{}: {}",
                b.name,
                b.speedup()
            );
        }
    }

    #[test]
    fn chain_models_have_no_blocks() {
        let m = zoo::vgg16().features();
        let c = Cluster::pi_cluster(4, 1.0);
        assert!(analyze_blocks(&m, &c, &CostParams::default(), 4).is_empty());
    }
}
