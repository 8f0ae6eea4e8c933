//! Steady-state allocation regression test for graph blocks.
//!
//! A residual block keeps per-path bookkeeping (forward shapes,
//! backward regions, the finished path outputs), slices its identity
//! shortcut out of the block input, and merges the paths into a new
//! map. All of it comes from the worker's [`Scratch`], so a warm
//! ResNet-34 prefix — the stem, three identity blocks and the first
//! projection block — infers a row strip with **zero** allocator calls
//! once its result buffer is handed back. One test per binary: the
//! counter is process-global.

use pico_model::{zoo, Region2, Rows, Segment, Unit};
use pico_tensor::{Engine, EngineBackend, Scratch, Tensor};

pico_telemetry::install_counting_allocator!();

#[test]
fn warm_residual_blocks_perform_zero_allocations() {
    let model = zoo::resnet34();
    // conv1, maxpool, res2_1..res2_3 (identity shortcuts), res3_1
    // (1x1 projection shortcut).
    let seg = Segment::new(0, 6);
    let Unit::Block(projection) = model.unit(5) else {
        panic!("res3_1 is a block")
    };
    assert!(
        projection.paths.iter().all(|p| !p.is_empty()),
        "res3_1 projects its shortcut"
    );
    let out_shape = model.unit_output_shape(seg.end - 1);
    let strip = Region2::new(Rows::new(4, 8), Rows::full(out_shape.width));
    let input = Tensor::random(model.input_shape(), 3)
        .slice_region(model.segment_input_region(seg, strip))
        .expect("the input covers the strip's halo");
    let base = Engine::with_seed(&model, 17);
    for backend in [EngineBackend::Im2colGemm, EngineBackend::Simd] {
        let engine = base.fork_backend(backend);
        let reference = base
            .fork_backend(EngineBackend::Reference)
            .infer_region2(seg, strip, &input)
            .expect("reference inference works");
        let mut scratch = Scratch::new();
        for _ in 0..3 {
            let t = engine
                .infer_region2_with(&mut scratch, seg, strip, &input)
                .expect("inference works");
            scratch.give(t.into_vec());
        }
        let before = allocation_count();
        for _ in 0..4 {
            let t = engine
                .infer_region2_with(&mut scratch, seg, strip, &input)
                .expect("inference works");
            scratch.give(t.into_vec());
        }
        let delta = allocation_count() - before;
        assert_eq!(
            delta, 0,
            "{backend}: warm residual blocks allocated {delta} times"
        );
        // Pooled merges and shortcut slices stay bit-exact.
        let t = engine
            .infer_region2_with(&mut scratch, seg, strip, &input)
            .expect("inference works");
        assert_eq!(t, reference, "{backend}: pooled blocks diverged");
    }
}
