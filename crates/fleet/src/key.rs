//! Canonical cache keys: model fingerprints and cluster signatures.
//!
//! The plan cache must recognize "the same deployment" across
//! independently constructed values, so keys are content hashes rather
//! than pointers: a model hashes its architecture, a cluster hashes its
//! *sorted* device set (two permutations of the same devices are the
//! same cluster — declaration order is an artifact of construction, not
//! a property of the hardware).

use pico_model::Model;
use pico_partition::{Cluster, CostParams};
use pico_sim::WorkloadBand;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Minimal FNV-1a, enough to fingerprint keys without external crates.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Content hash of a model's architecture (name, depth, parameters,
/// FLOPs, input shape). Two structurally identical models collide by
/// design — that is what makes the cache useful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelFingerprint(u64);

impl ModelFingerprint {
    /// Fingerprints `model`.
    pub fn of(model: &Model) -> Self {
        let mut h = Fnv::new();
        h.write(model.name().as_bytes());
        h.write_u64(model.len() as u64);
        h.write_u64(model.layer_count() as u64);
        h.write_u64(model.parameters() as u64);
        h.write_u64(model.total_flops().to_bits());
        let shape = model.input_shape();
        h.write_u64(shape.channels as u64);
        h.write_u64(shape.height as u64);
        h.write_u64(shape.width as u64);
        ModelFingerprint(h.finish())
    }

    /// The raw 64-bit hash.
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

/// Content hash of a cluster's device set, *order-canonical*: devices
/// are sorted by `(id, capacity, alpha)` before hashing, so two
/// permutations of the same devices produce the same signature and hit
/// the same cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterSignature(u64);

impl ClusterSignature {
    /// Signs `cluster`.
    pub fn of(cluster: &Cluster) -> Self {
        let mut rows: Vec<(usize, u64, u64)> = cluster
            .devices()
            .iter()
            .map(|d| (d.id, d.capacity.to_bits(), d.alpha.to_bits()))
            .collect();
        rows.sort_unstable();
        let mut h = Fnv::new();
        h.write_u64(rows.len() as u64);
        for (id, capacity, alpha) in rows {
            h.write_u64(id as u64);
            h.write_u64(capacity);
            h.write_u64(alpha);
        }
        ClusterSignature(h.finish())
    }

    /// The raw 64-bit hash.
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

/// Full plan-cache key: deployment identity (model, cluster, cost
/// parameters) plus the workload band the frontier was requested for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The model's architecture fingerprint.
    pub model: ModelFingerprint,
    /// The cluster's order-canonical signature.
    pub cluster: ClusterSignature,
    /// Hash of the [`CostParams`] the frontier was priced with —
    /// different bandwidths or calibration scales are different
    /// deployments.
    pub params_bits: u64,
    /// `band.lo` as raw bits (exact-match keying, no float comparison).
    pub band_lo_bits: u64,
    /// `band.hi` as raw bits.
    pub band_hi_bits: u64,
}

impl CacheKey {
    /// Builds the key for `(model, cluster, params, band)`.
    pub fn new(model: &Model, cluster: &Cluster, params: &CostParams, band: WorkloadBand) -> Self {
        let mut h = Fnv::new();
        h.write_u64(params.bandwidth_bps.to_bits());
        match params.t_lim {
            Some(t) => {
                h.write_u64(1);
                h.write_u64(t.to_bits());
            }
            None => h.write_u64(0),
        }
        h.write_u64(params.alpha_scale.to_bits());
        h.write_u64(params.backend_alpha.to_bits());
        CacheKey {
            model: ModelFingerprint::of(model),
            cluster: ClusterSignature::of(cluster),
            params_bits: h.finish(),
            band_lo_bits: band.lo.to_bits(),
            band_hi_bits: band.hi.to_bits(),
        }
    }

    /// A stable 64-bit digest of the whole key (shard selection and
    /// display).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.model.as_u64());
        h.write_u64(self.cluster.as_u64());
        h.write_u64(self.params_bits);
        h.write_u64(self.band_lo_bits);
        h.write_u64(self.band_hi_bits);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pico_model::zoo;
    use pico_partition::Device;

    fn devices() -> Vec<Device> {
        vec![
            Device::from_frequency(0, 1.2),
            Device::from_frequency(1, 0.9),
            Device::from_frequency(2, 1.5).with_alpha(0.8),
            Device::from_frequency(3, 0.6),
        ]
    }

    #[test]
    fn permuted_clusters_share_a_signature() {
        let forward = Cluster::new(devices());
        let mut reversed_devices = devices();
        reversed_devices.reverse();
        let reversed = Cluster::new(reversed_devices);
        assert_eq!(
            ClusterSignature::of(&forward),
            ClusterSignature::of(&reversed)
        );
        let band = WorkloadBand::new(0.0, 3.0);
        let model = zoo::mnist_toy();
        let params = CostParams::default();
        assert_eq!(
            CacheKey::new(&model, &forward, &params, band),
            CacheKey::new(&model, &reversed, &params, band)
        );
    }

    #[test]
    fn different_hardware_changes_the_signature() {
        let base = Cluster::new(devices());
        let mut slower = devices();
        slower[2] = Device::from_frequency(2, 1.4).with_alpha(0.8);
        assert_ne!(
            ClusterSignature::of(&base),
            ClusterSignature::of(&Cluster::new(slower))
        );
        let mut drifted_alpha = devices();
        drifted_alpha[0] = drifted_alpha[0].clone().with_alpha(0.7);
        assert_ne!(
            ClusterSignature::of(&base),
            ClusterSignature::of(&Cluster::new(drifted_alpha))
        );
    }

    #[test]
    fn fingerprint_separates_models_and_bands_separate_keys() {
        let cluster = Cluster::pi_cluster(4, 1.0);
        let a = zoo::mnist_toy();
        let b = zoo::vgg16().features();
        assert_ne!(ModelFingerprint::of(&a), ModelFingerprint::of(&b));
        let params = CostParams::default();
        let k1 = CacheKey::new(&a, &cluster, &params, WorkloadBand::new(0.0, 2.0));
        let k2 = CacheKey::new(&a, &cluster, &params, WorkloadBand::new(0.0, 3.0));
        assert_ne!(k1, k2);
        assert_ne!(k1.digest(), k2.digest());
    }

    #[test]
    fn cost_params_separate_keys() {
        let cluster = Cluster::pi_cluster(4, 1.0);
        let model = zoo::mnist_toy();
        let band = WorkloadBand::point(0.0);
        let base = CacheKey::new(&model, &cluster, &CostParams::new(50e6), band);
        let faster = CacheKey::new(&model, &cluster, &CostParams::new(100e6), band);
        assert_ne!(base, faster);
        let mut scaled = CostParams::new(50e6);
        scaled.alpha_scale = 1.5;
        assert_ne!(base, CacheKey::new(&model, &cluster, &scaled, band));
        // Pricing a faster backend is a different plan space too.
        let vectorized = CostParams::new(50e6).with_backend_speedup(6.0);
        assert_ne!(base, CacheKey::new(&model, &cluster, &vectorized, band));
    }
}
