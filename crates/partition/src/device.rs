/// Effective floating-point operations per CPU cycle assumed for an
/// edge-class ARM core running an optimized conv kernel (NNPACK-style).
///
/// 1.0 effective FLOP/cycle (0.6 GFLOP/s at 600 MHz, 1.2 GFLOP/s at
/// 1.2 GHz) matches measured single-core NNPACK conv throughput on a
/// Cortex-A72 and puts the compute/communication balance where the
/// paper's 50 Mbps testbed sits. The absolute value only scales
/// wall-clock estimates; the comparisons the paper makes (speedups,
/// crossovers) shift only through this compute-vs-network ratio.
pub const FLOPS_PER_CYCLE: f64 = 1.0;

/// One edge computing device, reduced — exactly like the paper's cost
/// model (Sec. III-B) — to a computing capacity `ϑ` (FLOP/s) and a
/// calibration coefficient `α` (Eq. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Stable identifier, unique within a [`Cluster`].
    pub id: usize,
    /// Human-readable name (e.g. `pi-0 @1.2GHz`).
    pub name: String,
    /// Computing capacity `ϑ(d_k)` in FLOP/s.
    pub capacity: f64,
    /// Regression coefficient `α_k` of Eq. 5 (1.0 = ideal).
    pub alpha: f64,
}

impl Device {
    /// Creates a device with an explicit FLOP/s capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive and finite.
    pub fn new(id: usize, name: impl Into<String>, capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "device capacity must be positive and finite"
        );
        Device {
            id,
            name: name.into(),
            capacity,
            alpha: 1.0,
        }
    }

    /// Creates a Raspberry-Pi-style single-core device from its CPU
    /// frequency in GHz (`capacity = f * FLOPS_PER_CYCLE`).
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive and finite.
    pub fn from_frequency(id: usize, ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "frequency must be positive");
        Device::new(
            id,
            format!("pi-{id} @{ghz}GHz"),
            ghz * 1e9 * FLOPS_PER_CYCLE,
        )
    }

    /// Returns this device with a different `α` coefficient.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive");
        self.alpha = alpha;
        self
    }

    /// Seconds this device needs for `flops` floating-point operations
    /// (Eq. 5: `t = α · θ / ϑ`).
    pub fn compute_time(&self, flops: f64) -> f64 {
        self.alpha * flops / self.capacity
    }

    /// Calibrates `α` from measured `(flops, seconds)` samples — the
    /// paper's "coefficient computed by a regression model" (Eq. 5).
    ///
    /// Least-squares fit of `seconds = α · flops / capacity` through the
    /// origin; returns the device with the fitted `α`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains non-positive FLOPs.
    pub fn calibrated(mut self, samples: &[(f64, f64)]) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        assert!(
            samples.iter().all(|(f, t)| *f > 0.0 && *t >= 0.0),
            "samples must have positive flops and non-negative times"
        );
        // Minimize sum (t_i - a x_i)^2 with x_i = flops_i / capacity:
        // a = sum(x t) / sum(x^2).
        let mut num = 0.0;
        let mut den = 0.0;
        for (flops, secs) in samples {
            let x = flops / self.capacity;
            num += x * secs;
            den += x * x;
        }
        self.alpha = (num / den).max(f64::MIN_POSITIVE);
        self
    }
}

/// An edge cluster: a set of [`Device`]s with unique ids.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    devices: Vec<Device>,
}

impl Cluster {
    /// Creates a cluster from a device list.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty or contains duplicate ids.
    pub fn new(devices: Vec<Device>) -> Self {
        assert!(!devices.is_empty(), "cluster must have at least one device");
        let mut ids: Vec<usize> = devices.iter().map(|d| d.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), devices.len(), "device ids must be unique");
        Cluster { devices }
    }

    /// A homogeneous cluster of `n` Raspberry-Pi-style devices running
    /// at `ghz` GHz — the paper's capacity experiments (Figs. 8/9) use
    /// 1–8 such devices at several frequencies.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `ghz` is not positive.
    pub fn pi_cluster(n: usize, ghz: f64) -> Self {
        assert!(n > 0, "cluster must have at least one device");
        Cluster::new((0..n).map(|i| Device::from_frequency(i, ghz)).collect())
    }

    /// The paper's 8-device heterogeneous mix from Table I:
    /// 2 x 1.2 GHz + 2 x 800 MHz + 4 x 600 MHz.
    pub fn paper_heterogeneous() -> Self {
        let freqs = [1.2, 1.2, 0.8, 0.8, 0.6, 0.6, 0.6, 0.6];
        Cluster::new(
            freqs
                .iter()
                .enumerate()
                .map(|(i, f)| Device::from_frequency(i, *f))
                .collect(),
        )
    }

    /// The 6-device heterogeneous cluster used for the Fig. 13
    /// PICO-vs-BFS comparison (a smaller mix of the same three tiers).
    pub fn paper_heterogeneous_6() -> Self {
        let freqs = [1.2, 1.2, 0.8, 0.8, 0.6, 0.6];
        Cluster::new(
            freqs
                .iter()
                .enumerate()
                .map(|(i, f)| Device::from_frequency(i, *f))
                .collect(),
        )
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the cluster is empty (never true for a constructed cluster).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The devices in declaration order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Looks up a device by id.
    pub fn device(&self, id: usize) -> Option<&Device> {
        self.devices.iter().find(|d| d.id == id)
    }

    /// Sum of all device capacities.
    pub fn total_capacity(&self) -> f64 {
        self.devices.iter().map(|d| d.capacity).sum()
    }

    /// Mean device capacity.
    pub fn average_capacity(&self) -> f64 {
        self.total_capacity() / self.len() as f64
    }

    /// The idealized homogeneous cluster `D'` of Eq. 12: same size, every
    /// device at the average capacity (and average α).
    pub fn averaged(&self) -> Cluster {
        let cap = self.average_capacity();
        let alpha = self.devices.iter().map(|d| d.alpha).sum::<f64>() / self.len() as f64;
        Cluster::new(
            (0..self.len())
                .map(|i| Device::new(i, format!("avg-{i}"), cap).with_alpha(alpha))
                .collect(),
        )
    }

    /// Device ids sorted by capacity, strongest first (Algorithm 2
    /// line 3 sorts "by compute capabilities").
    pub fn ids_by_capacity_desc(&self) -> Vec<usize> {
        // Sort positions (O(1) lookups in the comparator), then swap
        // each position for its device's id in place.
        let mut order: Vec<usize> = (0..self.devices.len()).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (&self.devices[a], &self.devices[b]);
            b.capacity
                .partial_cmp(&a.capacity)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        for slot in &mut order {
            *slot = self.devices[*slot].id;
        }
        order
    }

    /// This cluster without the given devices — the re-planning input
    /// after failures.
    ///
    /// # Errors
    ///
    /// Returns `None` when removing them would empty the cluster.
    pub fn without(&self, failed: &[usize]) -> Option<Cluster> {
        let rest: Vec<Device> = self
            .devices
            .iter()
            .filter(|d| !failed.contains(&d.id))
            .cloned()
            .collect();
        if rest.is_empty() {
            None
        } else {
            Some(Cluster::new(rest))
        }
    }

    /// Whether every device has the same capacity and α.
    pub fn is_homogeneous(&self) -> bool {
        let first = &self.devices[0];
        self.devices
            .iter()
            .all(|d| d.capacity == first.capacity && d.alpha == first.alpha)
    }
}

impl FromIterator<Device> for Cluster {
    fn from_iter<T: IntoIterator<Item = Device>>(iter: T) -> Self {
        Cluster::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_frequency_scales_capacity() {
        let d = Device::from_frequency(0, 1.2);
        assert_eq!(d.capacity, 1.2e9 * FLOPS_PER_CYCLE);
        assert_eq!(d.compute_time(d.capacity), 1.0);
    }

    #[test]
    fn alpha_scales_compute_time() {
        let d = Device::from_frequency(0, 1.0).with_alpha(2.0);
        assert_eq!(d.compute_time(d.capacity), 2.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        Device::new(0, "bad", 0.0);
    }

    #[test]
    #[should_panic(expected = "ids must be unique")]
    fn duplicate_ids_rejected() {
        Cluster::new(vec![
            Device::from_frequency(0, 1.0),
            Device::from_frequency(0, 1.0),
        ]);
    }

    #[test]
    fn paper_cluster_composition() {
        let c = Cluster::paper_heterogeneous();
        assert_eq!(c.len(), 8);
        assert!(!c.is_homogeneous());
        let fast = c
            .devices()
            .iter()
            .filter(|d| d.capacity > 1e9 * FLOPS_PER_CYCLE)
            .count();
        assert_eq!(fast, 2);
    }

    #[test]
    fn averaged_preserves_total_capacity() {
        let c = Cluster::paper_heterogeneous();
        let avg = c.averaged();
        assert_eq!(avg.len(), c.len());
        assert!((avg.total_capacity() - c.total_capacity()).abs() < 1e-3);
        assert!(avg.is_homogeneous());
    }

    #[test]
    fn ids_by_capacity_desc_is_sorted() {
        let c = Cluster::paper_heterogeneous();
        let ids = c.ids_by_capacity_desc();
        let caps: Vec<f64> = ids.iter().map(|i| c.device(*i).unwrap().capacity).collect();
        assert!(caps.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(ids.len(), 8);
    }

    #[test]
    fn ids_by_capacity_desc_breaks_ties_by_id() {
        // Declaration order is not id order; equal clocks sort by id.
        let c = Cluster::new(vec![
            Device::from_frequency(7, 0.6),
            Device::from_frequency(2, 0.8),
            Device::from_frequency(5, 1.2),
            Device::from_frequency(4, 0.6),
            Device::from_frequency(0, 1.2),
        ]);
        assert_eq!(c.ids_by_capacity_desc(), vec![0, 5, 2, 4, 7]);
    }

    #[test]
    fn homogeneous_detection() {
        assert!(Cluster::pi_cluster(4, 1.0).is_homogeneous());
        assert!(!Cluster::paper_heterogeneous_6().is_homogeneous());
    }

    #[test]
    fn calibration_fits_alpha() {
        let d = Device::from_frequency(0, 1.0);
        // Perfect samples at alpha = 1.5.
        let samples: Vec<(f64, f64)> = [1e9, 2e9, 5e9]
            .iter()
            .map(|f| (*f, 1.5 * f / d.capacity))
            .collect();
        let d = d.calibrated(&samples);
        assert!((d.alpha - 1.5).abs() < 1e-9);
    }

    #[test]
    fn calibration_averages_noise() {
        let d = Device::from_frequency(0, 1.0);
        let base = d.capacity;
        let samples = vec![(1e9, 2.2e9 / base), (1e9, 1.8e9 / base)];
        let d = d.calibrated(&samples);
        assert!((d.alpha - 2.0).abs() < 1e-9);
    }

    #[test]
    fn without_removes_devices() {
        let c = Cluster::paper_heterogeneous();
        let c2 = c.without(&[0, 7]).unwrap();
        assert_eq!(c2.len(), 6);
        assert!(c2.device(0).is_none());
        assert!(c.without(&(0..8).collect::<Vec<_>>()).is_none());
    }

    #[test]
    fn collect_into_cluster() {
        let c: Cluster = (0..3).map(|i| Device::from_frequency(i, 1.0)).collect();
        assert_eq!(c.len(), 3);
    }
}
