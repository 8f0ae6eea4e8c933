//! Steady-state allocation regression test for the `Simd` backend; see
//! `alloc_regression.rs`.

use pico_tensor::{Engine, EngineBackend};

mod steady_state;

pico_telemetry::install_counting_allocator!();

#[test]
fn simd_steady_state_performs_zero_allocations() {
    // The SIMD path must hit the same zero-allocation steady state as
    // the scalar fast backend: the packed GEMM and the vectorized GEMV
    // take every buffer from the caller's `Scratch`.
    let model = steady_state::chain();
    let engine = Engine::with_seed(&model, 42).with_backend(EngineBackend::Simd);
    let delta = steady_state::steady_state_allocations(&engine, allocation_count);
    assert_eq!(
        delta, 0,
        "steady-state SIMD inference allocated {delta} times"
    );
}
