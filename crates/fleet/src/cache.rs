//! The concurrent plan cache: sharded, read-heavy, deterministic.
//!
//! Frontier construction runs every planner and `O(n²)` switch audits —
//! far too expensive to repeat per request — while lookups happen on
//! the serving path. The cache is therefore a fixed array of
//! `RwLock<HashMap>` shards (many concurrent readers, rare writers);
//! a hit takes one shard read-lock, one hash probe, and an `Arc` clone
//! — no allocation, which `tests/cache_allocs.rs` pins down with a
//! counting allocator. Eviction is deterministic FIFO by insertion
//! sequence, so two processes that perform the same operations hold the
//! same entries.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LockResult, OnceLock, PoisonError, RwLock};

use pico_telemetry::{names, Recorder};

use crate::frontier::{FleetError, FleetFrontier};
use crate::key::{CacheKey, ClusterSignature};

const SHARDS: usize = 8;

/// Enters a shard lock whether or not an earlier holder panicked: the
/// critical sections below are whole-map reads and single `HashMap`
/// calls, so a shard is valid at every step.
fn enter<G>(guard: LockResult<G>) -> G {
    guard.unwrap_or_else(PoisonError::into_inner)
}

/// Default capacity (entries) of the process-global cache.
pub const GLOBAL_CACHE_CAPACITY: usize = 64;

struct CachedEntry {
    frontier: Arc<FleetFrontier>,
    seq: u64,
}

/// Counters describing cache behavior so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required building a frontier.
    pub misses: u64,
    /// Entries evicted to respect capacity.
    pub evictions: u64,
    /// Entries dropped because their cluster signature went stale
    /// (membership churn).
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// A sharded, read-optimized map from [`CacheKey`] to built
/// [`FleetFrontier`]s.
pub struct PlanCache {
    shards: [RwLock<HashMap<CacheKey, CachedEntry>>; SHARDS],
    per_shard_capacity: usize,
    seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` frontiers (split
    /// evenly across shards, at least one per shard).
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be at least 1");
        PlanCache {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            per_shard_capacity: capacity.div_ceil(SHARDS).max(1),
            seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The process-global cache shared by the serving layer and the
    /// CLI.
    pub fn global() -> &'static PlanCache {
        static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
        GLOBAL.get_or_init(|| PlanCache::new(GLOBAL_CACHE_CAPACITY))
    }

    fn shard(&self, key: &CacheKey) -> &RwLock<HashMap<CacheKey, CachedEntry>> {
        &self.shards[(key.digest() % SHARDS as u64) as usize]
    }

    /// Looks up `key`, counting a hit or miss on `rec`
    /// (`plan_cache_hit` / `plan_cache_miss`).
    pub fn get(&self, key: &CacheKey, rec: &Recorder) -> Option<Arc<FleetFrontier>> {
        let found = enter(self.shard(key).read())
            .get(key)
            .map(|e| e.frontier.clone());
        match found {
            Some(frontier) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                rec.count(names::PLAN_CACHE_HIT, 1.0);
                Some(frontier)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                rec.count(names::PLAN_CACHE_MISS, 1.0);
                None
            }
        }
    }

    /// Inserts `frontier` under `key`, evicting the oldest entry of the
    /// key's shard when the shard is over capacity. Returns the shared
    /// handle now resident (an earlier racing insert wins — all racers
    /// built from identical inputs, so any one of them serves).
    pub fn insert(&self, key: CacheKey, frontier: FleetFrontier) -> Arc<FleetFrontier> {
        let mut shard = enter(self.shard(&key).write());
        if let Some(existing) = shard.get(&key) {
            return existing.frontier.clone();
        }
        let handle = Arc::new(frontier);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        shard.insert(
            key,
            CachedEntry {
                frontier: handle.clone(),
                seq,
            },
        );
        while shard.len() > self.per_shard_capacity {
            // Deterministic FIFO: drop the oldest insertion.
            let oldest = shard
                .iter()
                .min_by_key(|(_, e)| e.seq)
                .map(|(k, _)| *k)
                .expect("non-empty shard");
            shard.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        handle
    }

    /// Returns the cached frontier for `key`, or builds one with
    /// `build`, caches it, and returns it. Builds run outside any shard
    /// lock, so readers of other keys never stall behind a build.
    pub fn get_or_build(
        &self,
        key: CacheKey,
        rec: &Recorder,
        build: impl FnOnce() -> Result<FleetFrontier, FleetError>,
    ) -> Result<Arc<FleetFrontier>, FleetError> {
        if let Some(hit) = self.get(&key, rec) {
            return Ok(hit);
        }
        let built = build()?;
        Ok(self.insert(key, built))
    }

    /// Drops every resident frontier whose cluster signature equals
    /// `stale` — the membership it was planned for no longer exists
    /// (a device left, rejoined at a new clock, or was re-provisioned),
    /// so serving those plans would route work to hardware that is not
    /// there. Returns how many entries were dropped; each one counts a
    /// `plan_cache_invalidated` on `rec` and in
    /// [`CacheStats::invalidations`].
    pub fn invalidate_stale(&self, stale: ClusterSignature, rec: &Recorder) -> u64 {
        let mut dropped = 0u64;
        for shard in &self.shards {
            let mut shard = enter(shard.write());
            let doomed: Vec<CacheKey> = shard
                .iter()
                .filter(|(k, _)| k.cluster == stale)
                .map(|(k, _)| *k)
                .collect();
            for k in doomed {
                shard.remove(&k);
                dropped += 1;
            }
        }
        if dropped > 0 {
            self.invalidations.fetch_add(dropped, Ordering::Relaxed);
            rec.count(names::PLAN_CACHE_INVALIDATED, dropped as f64);
        }
        dropped
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| enter(s.read()).len()).sum(),
        }
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("per_shard_capacity", &self.per_shard_capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::FleetConfig;
    use pico_model::zoo;
    use pico_partition::{Cluster, CostParams};
    use pico_sim::WorkloadBand;

    fn frontier(devices: usize) -> (CacheKey, FleetFrontier) {
        let model = zoo::mnist_toy();
        let cluster = Cluster::pi_cluster(devices, 1.0);
        let params = CostParams::wifi_50mbps();
        let key = CacheKey::new(&model, &cluster, &params, WorkloadBand::point(0.0));
        let f = FleetFrontier::build(&model, &cluster, &params, FleetConfig::default()).unwrap();
        (key, f)
    }

    #[test]
    fn hit_after_insert_and_stats_track() {
        let cache = PlanCache::new(8);
        let rec = Recorder::noop();
        let (key, f) = frontier(4);
        assert!(cache.get(&key, &rec).is_none());
        cache.insert(key, f);
        let hit = cache.get(&key, &rec).expect("hit");
        assert!(!hit.entries().is_empty());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn get_or_build_builds_once() {
        let cache = PlanCache::new(8);
        let rec = Recorder::noop();
        let (key, f) = frontier(4);
        let mut builds = 0;
        for _ in 0..3 {
            let f = f.clone();
            let out = cache
                .get_or_build(key, &rec, || {
                    builds += 1;
                    Ok(f)
                })
                .unwrap();
            assert!(!out.entries().is_empty());
        }
        assert_eq!(builds, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn eviction_is_fifo_and_counted() {
        // Single-entry-per-shard capacity: keys hashing to the same
        // shard evict their eldest sibling.
        let cache = PlanCache::new(1);
        let rec = Recorder::noop();
        let (base_key, f) = frontier(4);
        // Synthesize distinct keys; at least two must share a shard
        // once we insert SHARDS + 1 of them.
        let keys: Vec<CacheKey> = (0..=SHARDS as u64)
            .map(|i| CacheKey {
                band_hi_bits: base_key.band_hi_bits ^ i,
                ..base_key
            })
            .collect();
        for k in &keys {
            cache.insert(*k, f.clone());
        }
        let stats = cache.stats();
        assert!(stats.evictions >= 1, "{stats:?}");
        assert!(stats.entries <= SHARDS);
        // The newest key always survives its own shard's eviction.
        assert!(cache.get(keys.last().unwrap(), &rec).is_some());
    }

    #[test]
    fn invalidate_stale_drops_only_matching_signatures() {
        let cache = PlanCache::new(8);
        let rec = Recorder::noop();
        let (key4, f4) = frontier(4);
        let (key2, f2) = frontier(2);
        cache.insert(key4, f4);
        cache.insert(key2, f2);
        assert_eq!(cache.stats().entries, 2);
        // Invalidate the 4-device membership only.
        let dropped = cache.invalidate_stale(key4.cluster, &rec);
        assert_eq!(dropped, 1);
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.entries, 1);
        assert!(cache.get(&key4, &rec).is_none());
        assert!(cache.get(&key2, &rec).is_some());
        // A second invalidation of the same signature is a no-op.
        assert_eq!(cache.invalidate_stale(key4.cluster, &rec), 0);
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn racing_insert_returns_resident_entry() {
        let cache = PlanCache::new(8);
        let (key, f) = frontier(4);
        let first = cache.insert(key, f.clone());
        let second = cache.insert(key, f);
        assert!(Arc::ptr_eq(&first, &second));
    }
}
