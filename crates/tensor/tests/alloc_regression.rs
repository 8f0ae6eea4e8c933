//! Steady-state allocation regression test for the forced-scalar fast
//! backend (`Im2colGemm`); `alloc_regression_simd.rs` and
//! `alloc_regression_int8.rs` hold the `Simd` (default) and `Int8`
//! ones.
//!
//! A worker that keeps one [`Scratch`](pico_tensor::Scratch) across its
//! task stream and hands result buffers back via `Scratch::give` must
//! reach a state where an inference task performs **zero** heap
//! allocations: the patch matrix, the output buffers, and the per-call
//! region trace are all pooled. This test counts every
//! `alloc`/`realloc` in the process via the shared counting-allocator
//! harness and asserts the delta is exactly zero — any new allocation
//! on the hot path (like the region trace this test originally caught)
//! fails it.
//!
//! This binary covers plain-layer chains. Graph-structured blocks pool
//! their path bookkeeping, shortcut slices and merged maps too;
//! `alloc_regression_blocks.rs` pins them at zero under `Im2colGemm`
//! and `Simd`.

use pico_tensor::{Engine, EngineBackend};

mod steady_state;

pico_telemetry::install_counting_allocator!();

#[test]
fn steady_state_inference_performs_zero_allocations() {
    let model = steady_state::chain();
    let engine = Engine::with_seed(&model, 42).with_backend(EngineBackend::Im2colGemm);
    let delta = steady_state::steady_state_allocations(&engine, allocation_count);
    assert_eq!(
        delta, 0,
        "steady-state fast-backend inference allocated {delta} times"
    );
}
