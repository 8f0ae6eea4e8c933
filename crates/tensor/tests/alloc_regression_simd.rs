//! Steady-state allocation regression test for the parallel `Simd`
//! backend, pool threads included; see `alloc_regression.rs`.

use pico_tensor::{Engine, EngineBackend};

mod steady_state;

pico_telemetry::install_counting_allocator!();

#[test]
fn parallel_simd_steady_state_performs_zero_allocations() {
    // The parallel SIMD path must hit the same zero-allocation steady
    // state as the scalar fast backend: the pool's workers are spawned
    // once at engine build, `ThreadPool::run` dispatches chunks through
    // preallocated shared state (no channels, no boxing per call), and
    // every buffer comes from the caller's `Scratch`. A zero delta here
    // also proves the pool *reuses* its threads — spawning a thread
    // allocates, so any per-task respawn would fail this count.
    let model = steady_state::chain();
    let engine = Engine::with_seed(&model, 42)
        .with_backend(EngineBackend::Simd)
        .with_threads(4);
    let delta = steady_state::steady_state_allocations(&engine, allocation_count);
    assert_eq!(
        delta, 0,
        "steady-state parallel SIMD inference allocated {delta} times"
    );
}
