//! Steady-state allocation regression test for the `Int8` backend; see
//! `alloc_regression.rs`.

use pico_tensor::{Engine, EngineBackend};

mod steady_state;

pico_telemetry::install_counting_allocator!();

#[test]
fn int8_steady_state_performs_zero_allocations() {
    // Quantization tables are built once at `with_backend` time; the
    // serving path only quantizes activations into the pooled
    // `qpatches` buffer, so int8 inference is allocation-free too.
    let model = steady_state::chain();
    let engine = Engine::with_seed(&model, 42).with_backend(EngineBackend::Int8);
    let delta = steady_state::steady_state_allocations(&engine, allocation_count);
    assert_eq!(
        delta, 0,
        "steady-state int8 inference allocated {delta} times"
    );
}
