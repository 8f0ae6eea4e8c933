//! The two tests that count or compare without asserting a zero, so
//! they can share a binary: the `Reference` oracle *does* allocate per
//! layer, and parallel `Simd` runs are bit-exact for every thread count.

use pico_tensor::{Engine, EngineBackend, Tensor};

mod steady_state;

pico_telemetry::install_counting_allocator!();

#[test]
fn repeated_runs_are_bit_exact_for_every_thread_count() {
    // Chunking is deterministic (disjoint MR-aligned row ranges, no
    // cross-thread reduction), so the parallel SIMD result must be
    // bit-identical run to run and thread count to thread count.
    let model = steady_state::chain();
    let input = Tensor::random(model.input_shape(), 7);
    let baseline = Engine::with_seed(&model, 42)
        .with_backend(EngineBackend::Simd)
        .infer(&input)
        .expect("inference works");
    for threads in [1usize, 2, 3, 4, 7] {
        let engine = Engine::with_seed(&model, 42)
            .with_backend(EngineBackend::Simd)
            .with_threads(threads);
        for run in 0..3 {
            let got = engine.infer(&input).expect("inference works");
            assert_eq!(got, baseline, "threads {threads} run {run}");
        }
    }
}

#[test]
fn reference_backend_allocates_per_layer_as_documented() {
    // The naive oracle is *expected* to allocate (one fresh output
    // buffer per layer); this pins the contrast so a future "optimize
    // the reference" change that breaks the oracle's simplicity shows
    // up in review.
    let model = steady_state::chain();
    let engine = Engine::with_seed(&model, 42).with_backend(EngineBackend::Reference);
    let input = Tensor::random(model.input_shape(), 7);
    let _ = engine.infer(&input).expect("inference works");

    let before = allocation_count();
    let _ = engine.infer(&input).expect("inference works");
    assert!(
        allocation_count() - before >= model.len(),
        "reference backend should allocate at least one buffer per layer"
    );
}
