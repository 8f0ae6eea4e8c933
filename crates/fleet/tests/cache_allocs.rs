//! A steady-state `PlanCache::get` hit is a read lock plus an `Arc`
//! clone, and must not touch the allocator.
//!
//! The allocation counter is process-global, so this binary holds
//! exactly one test: nothing else runs beside the measured loop.

use pico_fleet::{CacheKey, FleetConfig, FleetFrontier, PlanCache};
use pico_model::zoo;
use pico_partition::{Cluster, CostParams};
use pico_sim::WorkloadBand;
use pico_telemetry::Recorder;

pico_telemetry::install_counting_allocator!();

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
fn steady_state_hits_are_allocation_free() {
    let cache = PlanCache::new(8);
    let rec = Recorder::noop();
    let (key, frontier) = deployment(4);
    cache.insert(key, frontier);

    // Warm up: the first lookup may lazily touch thread-locals.
    let warm = cache.get(&key, &rec).expect("hit");
    drop(warm);

    let before = allocation_count();
    for _ in 0..1_000 {
        let hit = cache.get(&key, &rec).expect("hit");
        assert!(!hit.entries().is_empty());
    }
    let delta = allocation_count() - before;
    assert_eq!(delta, 0, "steady-state cache hits allocated {delta} times");
}
