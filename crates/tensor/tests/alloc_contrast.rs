//! The counting test that asserts a floor rather than a zero: the
//! `Reference` oracle *does* allocate per layer.

use pico_tensor::{Engine, EngineBackend, Tensor};

mod steady_state;

pico_telemetry::install_counting_allocator!();

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
