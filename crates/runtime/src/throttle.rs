use std::time::Duration;

use pico_partition::{Cluster, CostParams};

/// Optional cost-model throttling.
///
/// The laptop running the tests computes every tile at the same real
/// speed; a throttle stretches each device's compute step and each
/// stage's transfers to `cost_model_seconds * scale` of wall-clock
/// time, so heterogeneous capacities and pipeline overlap become
/// observable without Raspberry Pi hardware. `scale` is typically
/// `1e-3`–`1e-2` to keep runs fast.
#[derive(Debug, Clone)]
pub struct Throttle {
    cluster: Cluster,
    params: CostParams,
    scale: f64,
}

impl Throttle {
    /// Creates a throttle that stretches compute to cost-model
    /// proportions scaled by `scale`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive and finite.
    pub fn new(cluster: Cluster, params: CostParams, scale: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        Throttle {
            cluster,
            params,
            scale,
        }
    }

    /// The environment parameters the throttle prices with.
    pub fn params(&self) -> CostParams {
        self.params
    }

    /// Minimum wall-clock duration device `device` should spend on
    /// `flops` floating-point operations.
    pub fn compute_duration(&self, device: usize, flops: f64) -> Duration {
        match self.cluster.device(device) {
            Some(d) => Duration::from_secs_f64(
                d.compute_time(flops) * self.params.alpha_scale * self.scale,
            ),
            None => Duration::ZERO,
        }
    }

    /// Minimum wall-clock duration shipping `bytes` over the emulated
    /// link should take. The runtime charges it once per task for a
    /// stage's summed bytes (Eq. 8), so transfers are shared within a
    /// stage; concurrent stages do not contend with each other.
    pub fn transfer_duration(&self, bytes: usize) -> Duration {
        Duration::from_secs_f64(bytes as f64 * 8.0 / self.params.bandwidth_bps * self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slower_devices_get_longer_durations() {
        let cluster = Cluster::paper_heterogeneous();
        let t = Throttle::new(cluster, CostParams::wifi_50mbps(), 1e-3);
        let fast = t.compute_duration(0, 1e9); // 1.2 GHz
        let slow = t.compute_duration(7, 1e9); // 600 MHz
        assert!(slow > fast);
        assert_eq!(t.compute_duration(99, 1e9), Duration::ZERO);
    }

    #[test]
    fn transfer_scales_with_bytes() {
        let t = Throttle::new(Cluster::pi_cluster(1, 1.0), CostParams::new(8e6), 1.0);
        // 1 MB at 1 MB/s = 1 s.
        assert!((t.transfer_duration(1_000_000).as_secs_f64() - 1.0).abs() < 1e-9);
    }
}
