//! Edge shapes of the im2col fill. For each kernel slot the fill splits
//! an output row into a left-padding run, a run read from the map and a
//! right-padding run; these cases put the run boundaries everywhere they
//! can fall — unit and non-unit strides, padding wider than one column,
//! 1×1 kernels, kernels wider than the map, grouped channels, and grid
//! tiles whose first column is not 0, with the map's left and right
//! padding inside or outside the tile.
//!
//! The f32 backends (`Im2colGemm`, `Simd`) are compared against
//! `Reference` by bit pattern, on the full map and on every tile of two
//! grids. `Int8` shares the fill, so its tiles must stitch bit-exactly
//! to its own full map. One `Scratch` per backend serves every case, so
//! each fill lands on a patch matrix left dirty by a different shape.

use pico_model::{grid_split_even, ConvSpec, Layer, Model, Region2, Shape};
use pico_tensor::{Engine, EngineBackend, Scratch, Tensor};

fn conv(
    channels: (usize, usize),
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    groups: usize,
) -> ConvSpec {
    ConvSpec {
        in_channels: channels.0,
        out_channels: channels.1,
        kernel,
        stride,
        padding,
        groups,
    }
}

/// (name, conv, input map) for every edge the fill's runs can hit.
fn cases() -> Vec<(&'static str, ConvSpec, Shape)> {
    let sq = ConvSpec::square;
    let map = Shape::new;
    vec![
        // toy(1)'s conv: 3→16, 3×3, unit stride, padding 1.
        ("s1p1", sq(3, 16, 3, 1, 1), map(3, 13, 17)),
        ("s1p2", sq(2, 5, 5, 1, 2), map(2, 9, 11)),
        ("s2p1", sq(3, 4, 3, 2, 1), map(3, 13, 15)),
        // Asymmetric: stride 2 across, padding only across.
        (
            "s2x_p2x",
            conv((2, 3), (3, 5), (1, 2), (0, 2), 1),
            map(2, 7, 12),
        ),
        // AlexNet conv1: 11×11 at stride 4, unpadded, then padded.
        ("s4_alexnet", sq(3, 8, 11, 4, 0), map(3, 47, 51)),
        ("s4p2", sq(3, 6, 11, 4, 2), map(3, 30, 33)),
        ("pointwise", ConvSpec::pointwise(4, 6), map(4, 7, 9)),
        // Kernel wider than the map: every tap but the centre column
        // reads padding on some output column.
        (
            "wide_kernel",
            conv((2, 3), (3, 7), (1, 1), (1, 3), 1),
            map(2, 5, 4),
        ),
        (
            "wide_kernel_s2",
            conv((2, 2), (1, 9), (1, 2), (0, 4), 1),
            map(2, 3, 3),
        ),
        // Padding wider than the kernel reach: whole rows and columns of
        // output read only padding.
        ("pad_beyond", sq(2, 3, 2, 1, 2), map(2, 4, 5)),
        (
            "grouped",
            conv((4, 6), (3, 3), (1, 1), (1, 1), 2),
            map(4, 8, 10),
        ),
        (
            "depthwise_s2",
            conv((4, 4), (3, 3), (2, 2), (1, 1), 4),
            map(4, 9, 11),
        ),
    ]
}

/// The output's bit patterns, so `-0.0`/`0.0` and NaN payloads count.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Every tile of two grids over a `height × width` output: three column
/// bands (a left tile holding the left padding, a middle one with
/// `col0 > 0` holding neither, a right one holding the right padding)
/// and one tile per output column.
fn tiles(height: usize, width: usize) -> Vec<Region2> {
    let mut tiles = grid_split_even(height, width, 2.min(height), 3.min(width));
    tiles.extend(grid_split_even(height, width, 1, width));
    tiles
}

/// Runs `engine` over output region `region` from the smallest input
/// tile that covers it (so the tile's own `col0` is usually > 0).
fn infer_tile(engine: &Engine, scratch: &mut Scratch, input: &Tensor, region: Region2) -> Tensor {
    let model = engine.model();
    let seg = model.full_segment();
    let tile = input
        .slice_region(model.segment_input_region(seg, region))
        .expect("the receptive field lies inside the map");
    engine
        .infer_region2_with(scratch, seg, region, &tile)
        .expect("the tile covers its receptive field")
}

#[test]
fn f32_fills_match_reference_bit_for_bit() {
    let fast = [EngineBackend::Im2colGemm, EngineBackend::Simd];
    let mut scratch: Vec<Scratch> = fast.iter().map(|_| Scratch::new()).collect();
    for (name, spec, shape) in cases() {
        let model = Model::new(name, shape, vec![Layer::conv(name, spec).into()]).unwrap();
        let base = Engine::with_seed(&model, 5);
        let reference = base.fork_backend(EngineBackend::Reference);
        let input = Tensor::random(shape, 6);
        let want = reference.infer(&input).unwrap();
        let out = model.output_shape();
        for (backend, scratch) in fast.iter().zip(&mut scratch) {
            let engine = base.fork_backend(*backend);
            assert_eq!(
                bits(&engine.infer(&input).unwrap()),
                bits(&want),
                "{name} {backend}: full map"
            );
            for region in tiles(out.height, out.width) {
                let got = infer_tile(&engine, scratch, &input, region);
                let expect = want.slice_region(region).unwrap();
                assert_eq!(got.shape(), expect.shape(), "{name} {backend} {region}");
                assert_eq!(bits(&got), bits(&expect), "{name} {backend} {region}");
            }
        }
    }
}

#[test]
fn int8_tiles_stitch_to_its_full_map() {
    let mut scratch = Scratch::new();
    for (name, spec, shape) in cases() {
        let model = Model::new(name, shape, vec![Layer::conv(name, spec).into()]).unwrap();
        let engine = Engine::with_seed(&model, 7).with_backend(EngineBackend::Int8);
        let input = Tensor::random(shape, 8);
        let full = engine.infer(&input).unwrap();
        let out = model.output_shape();
        for region in tiles(out.height, out.width) {
            let got = infer_tile(&engine, &mut scratch, &input, region);
            let expect = full.slice_region(region).unwrap();
            assert_eq!(bits(&got), bits(&expect), "{name} int8 {region}");
        }
    }
}
