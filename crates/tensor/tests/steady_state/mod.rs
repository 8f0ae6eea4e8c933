//! The model and the measured loop the `alloc_regression*` binaries
//! share. Each of those holds exactly one test: the allocation counter
//! is process-global, and with a second `#[test]` in the binary the
//! harness reporting it allocates inside the measured window.
#![allow(dead_code)]

use pico_model::{ConvSpec, Layer, Model, PoolSpec, Region2, Shape};
use pico_tensor::{Engine, Scratch, Tensor};

pub fn chain() -> Model {
    Model::new(
        "alloc-chain",
        Shape::new(8, 16, 16),
        vec![
            Layer::conv("c1", ConvSpec::square(8, 16, 3, 1, 1)).into(),
            Layer::pool("p1", PoolSpec::max(2, 2)).into(),
            Layer::conv("c2", ConvSpec::square(16, 16, 3, 1, 1)).into(),
            // 40 rows: two 16-row AVX2 GEMV passes plus a scalar remainder.
            Layer::fc("f3", 16 * 8 * 8, 40).into(),
        ],
    )
    .expect("chain is consistent")
}

/// Allocator calls over 16 full-model inferences through one warmed
/// [`Scratch`], result buffers handed back.
pub fn steady_state_allocations(engine: &Engine, allocation_count: fn() -> usize) -> usize {
    let model = chain();
    let seg = model.full_segment();
    let out = model.output_shape();
    let region = Region2::full(out.height, out.width);
    let input = Tensor::random(model.input_shape(), 7);

    let mut scratch = Scratch::new();
    // Warm the pool: the first few tasks grow the patch matrix, the
    // output buffers, and the region trace to their steady-state sizes.
    for _ in 0..4 {
        let t = engine
            .infer_region2_with(&mut scratch, seg, region, &input)
            .expect("inference works");
        scratch.give(t.into_vec());
    }

    let before = allocation_count();
    for _ in 0..16 {
        let t = engine
            .infer_region2_with(&mut scratch, seg, region, &input)
            .expect("inference works");
        scratch.give(t.into_vec());
    }
    allocation_count() - before
}
