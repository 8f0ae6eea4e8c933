//! Concurrency regression test for the fleet plan cache: many reader
//! threads against a writer. The counting-allocator proof that
//! steady-state hits are allocation-free is `cache_allocs.rs`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pico_fleet::{CacheKey, FleetConfig, FleetFrontier, PlanCache};
use pico_model::zoo;
use pico_partition::{Cluster, CostParams};
use pico_sim::WorkloadBand;
use pico_telemetry::Recorder;

fn deployment(devices: usize) -> (CacheKey, FleetFrontier) {
    let model = zoo::mnist_toy();
    let cluster = Cluster::pi_cluster(devices, 1.0);
    let params = CostParams::wifi_50mbps();
    let key = CacheKey::new(&model, &cluster, &params, WorkloadBand::point(0.0));
    let frontier =
        FleetFrontier::build(&model, &cluster, &params, FleetConfig::default()).expect("frontier");
    (key, frontier)
}

#[test]
fn readers_race_a_writer_without_losing_entries() {
    const READERS: usize = 6;
    const READS_PER_THREAD: usize = 2_000;

    let cache = Arc::new(PlanCache::new(64));
    let (hot_key, hot_frontier) = deployment(4);
    let expected_entries = hot_frontier.entries().len();
    cache.insert(hot_key, hot_frontier);

    // The writer churns *other* deployments through the cache while the
    // readers hammer the hot key. It cycles a bounded key set so no
    // shard ever overflows — FIFO eviction must never reap the hot
    // entry out from under the readers.
    let (cold_key, cold_frontier) = deployment(3);
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let cache = Arc::clone(&cache);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut inserted = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Distinct band bits → distinct keys.
                let key = CacheKey {
                    band_hi_bits: cold_key.band_hi_bits ^ (inserted % 6),
                    ..cold_key
                };
                cache.insert(key, cold_frontier.clone());
                inserted += 1;
            }
            inserted
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let rec = Recorder::noop();
                for _ in 0..READS_PER_THREAD {
                    let frontier = cache
                        .get(&hot_key, &rec)
                        .expect("hot entry must never vanish mid-stress");
                    assert_eq!(frontier.entries().len(), expected_entries);
                }
            })
        })
        .collect();
    for r in readers {
        r.join().expect("reader panicked");
    }
    stop.store(true, Ordering::Relaxed);
    let inserted = writer.join().expect("writer panicked");
    assert!(inserted > 0, "writer made no progress");

    let stats = cache.stats();
    assert_eq!(stats.hits, (READERS * READS_PER_THREAD) as u64);
    assert!(stats.entries <= 7, "unexpected entry count: {stats:?}");
}
