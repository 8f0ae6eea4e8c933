//! The differential kernel-oracle battery: every fast backend against
//! the naive `Reference` loops on every layer kind, region shape, and
//! error case proptest can throw at it — grouped/depthwise
//! convolutions, stride/padding edge cases, non-multiple-of-8
//! remainders, dirty-scratch reuse, full maps, row strips, grid tiles
//! with halos, and halo-short failures.
//!
//! Two equality regimes:
//!
//! - **f32 backends** (`Im2colGemm`, `Simd`): `Tensor == Tensor`,
//!   exact bit patterns — the kernels preserve each output element's
//!   addition chain, so there is nothing to tolerate. The vectorized
//!   backend's max-ulp distance from the reference is **zero** by
//!   contract.
//! - **`Int8`**: quantization is lossy by design, so outputs are held
//!   to the *analytic* per-channel bound
//!   [`QuantizedLayer::channel_tolerance`] (worst-case rounding of
//!   weights and activations propagated through the i32 accumulator),
//!   plus 2 ulp of the reference value for the two dequantization
//!   roundings (`acc as f32 * scale`, then `+ bias`) — the documented
//!   max-ulp bound of the int8 arithmetic itself. Across shards of the
//!   same model the int8 backend is still **bit-exactly**
//!   self-consistent, because activation scales are static per layer.

use pico_model::{
    grid_split_even, rows_split_even, ConvSpec, Layer, Model, PoolKind, PoolSpec, Region2, Rows,
    Shape,
};
use pico_tensor::{Engine, EngineBackend, QuantizedUnit, Scratch, Tensor, TensorError};
use proptest::prelude::*;

/// One generated layer before shape validation.
#[derive(Debug, Clone, Copy)]
enum Pick {
    Conv {
        kh: usize,
        kw: usize,
        stride: usize,
        padding: usize,
        /// 0 = dense, 1 = two groups (if divisible), 2 = depthwise.
        grouping: u8,
        /// Output channels per group.
        out_per_group: usize,
    },
    Pool {
        kernel: usize,
        stride: usize,
        padding: usize,
        avg: bool,
    },
}

fn arb_pick() -> impl Strategy<Value = Pick> {
    prop_oneof![
        3 => (1usize..=3, 1usize..=3, 1usize..=2, 0usize..=2, 0u8..=2, 1usize..=3).prop_map(
            |(kh, kw, stride, padding, grouping, out_per_group)| Pick::Conv {
                kh,
                kw,
                stride,
                padding,
                grouping,
                out_per_group,
            }
        ),
        1 => (2usize..=3, 1usize..=2, 0usize..=1, any::<bool>()).prop_map(
            |(kernel, stride, padding, avg)| Pick::Pool {
                kernel,
                stride,
                padding,
                avg,
            }
        ),
    ]
}

/// Random conv/pool chains over a 12x12 input, including grouped and
/// depthwise convolutions and padded average pooling, with an optional
/// fully-connected tail (`fc_out > 0`). Invalid picks (shape collapse,
/// padding >= kernel) are skipped, keeping every generated model
/// runnable.
fn arb_model() -> impl Strategy<Value = Model> {
    let fc_out = prop_oneof![2 => Just(0usize), 1 => 1usize..=40];
    (proptest::collection::vec(arb_pick(), 1..5), fc_out).prop_map(|(picks, fc_out)| {
        let input = Shape::new(4, 12, 12);
        let mut units: Vec<pico_model::Unit> = Vec::new();
        let mut shape = input;
        for (i, pick) in picks.into_iter().enumerate() {
            let layer = match pick {
                Pick::Conv {
                    kh,
                    kw,
                    stride,
                    padding,
                    grouping,
                    out_per_group,
                } => {
                    let groups = match grouping {
                        0 => 1,
                        1 if shape.channels.is_multiple_of(2) => 2,
                        1 => 1,
                        _ => shape.channels,
                    };
                    if padding >= kh.min(kw) {
                        continue;
                    }
                    Layer::conv(
                        format!("c{i}"),
                        ConvSpec {
                            in_channels: shape.channels,
                            out_channels: groups * out_per_group,
                            kernel: (kh, kw),
                            stride: (stride, stride),
                            padding: (padding, padding),
                            groups,
                        },
                    )
                }
                Pick::Pool {
                    kernel,
                    stride,
                    padding,
                    avg,
                } => {
                    if padding >= kernel {
                        continue;
                    }
                    Layer::pool(
                        format!("p{i}"),
                        PoolSpec {
                            kind: if avg { PoolKind::Avg } else { PoolKind::Max },
                            kernel: (kernel, kernel),
                            stride: (stride, stride),
                            padding: (padding, padding),
                        },
                    )
                }
            };
            if let Ok(next) = layer.output_shape(shape) {
                if next.height >= 2 && next.width >= 2 {
                    shape = next;
                    units.push(layer.into());
                }
            }
        }
        if units.is_empty() {
            let fallback = Layer::conv("fb", ConvSpec::square(4, 3, 3, 1, 1));
            shape = fallback.output_shape(input).expect("fallback conv fits");
            units.push(fallback.into());
        }
        if fc_out > 0 {
            units.push(Layer::fc("fc", shape.elements(), fc_out).into());
        }
        Model::new("diff", input, units).expect("chain is consistent")
    })
}

/// Engines over identical seeded weights, one per backend.
fn engine_pair(model: &Model, seed: u64) -> (Engine<'_>, Engine<'_>) {
    (
        Engine::with_seed(model, seed).with_backend(EngineBackend::Reference),
        Engine::with_seed(model, seed).with_backend(EngineBackend::Im2colGemm),
    )
}

/// The fast f32 backends, each of which must be bit-identical to
/// `Reference` (the first entry of [`EngineBackend::BIT_EXACT`]).
const FAST_BIT_EXACT: [EngineBackend; 2] = [EngineBackend::Im2colGemm, EngineBackend::Simd];

/// The oracle plus one engine per fast bit-exact backend, all sharing
/// seeded weights.
fn oracle_and_fast(model: &Model, seed: u64) -> (Engine<'_>, Vec<(EngineBackend, Engine<'_>)>) {
    let oracle = Engine::with_seed(model, seed).with_backend(EngineBackend::Reference);
    let fast = FAST_BIT_EXACT
        .iter()
        .map(|&b| (b, oracle.fork_backend(b)))
        .collect();
    (oracle, fast)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full-map inference is bit-identical between the reference and
    /// every fast f32 backend.
    #[test]
    fn full_maps_are_bit_identical(model in arb_model(), seed in 0u64..1000) {
        let (reference, fast) = oracle_and_fast(&model, seed);
        let input = Tensor::random(model.input_shape(), seed.wrapping_add(1));
        let want = reference.infer(&input).expect("reference inference works");
        for (backend, engine) in &fast {
            let got = engine.infer(&input).expect("fast inference works");
            prop_assert_eq!(&got, &want, "backend {}", backend);
        }
    }

    /// Every row strip of every even split matches the oracle under
    /// every fast backend, with one dirty scratch pool reused across
    /// strips *and* backends (recycled buffers must be fully
    /// overwritten, never leak stale values).
    #[test]
    fn row_strips_are_bit_identical(
        model in arb_model(),
        parts in 1usize..4,
        seed in 0u64..1000,
    ) {
        let (reference, fast) = oracle_and_fast(&model, seed);
        let input = Tensor::random(model.input_shape(), seed.wrapping_add(2));
        let seg = model.full_segment();
        let h = model.output_shape().height;
        let mut scratch = Scratch::new();
        for rows in rows_split_even(Rows::full(h), parts) {
            if rows.is_empty() {
                continue;
            }
            let need = model.segment_input_rows(seg, rows);
            let tile = input.slice_rows(need).expect("halo available");
            let want = reference
                .infer_region(seg, rows, &tile)
                .expect("reference region works");
            for (backend, engine) in &fast {
                let got = engine
                    .infer_region2_with(
                        &mut scratch,
                        seg,
                        Region2::new(rows, Rows::full(model.output_shape().width)),
                        &tile,
                    )
                    .expect("fast region works");
                prop_assert_eq!(&got, &want, "backend {}", backend);
                scratch.give(got.into_vec());
            }
        }
    }

    /// Every grid tile of every even 2-D split matches the oracle
    /// under every fast backend.
    #[test]
    fn grid_tiles_are_bit_identical(
        model in arb_model(),
        gr in 1usize..3,
        gc in 1usize..3,
        seed in 0u64..1000,
    ) {
        let (reference, fast) = oracle_and_fast(&model, seed);
        let input = Tensor::random(model.input_shape(), seed.wrapping_add(3));
        let out = model.output_shape();
        // An FC tail's 1×1 output has no two-way split.
        prop_assume!(gr <= out.height && gc <= out.width);
        let seg = model.full_segment();
        for region in grid_split_even(out.height, out.width, gr, gc) {
            let need = model.segment_input_region(seg, region);
            let tile = input.slice_region(need).expect("halo available");
            let want = reference
                .infer_region2(seg, region, &tile)
                .expect("reference region works");
            for (backend, engine) in &fast {
                let got = engine
                    .infer_region2(seg, region, &tile)
                    .expect("fast region works");
                prop_assert_eq!(&got, &want, "backend {}", backend);
            }
        }
    }

    /// A halo-short tile fails with the *same* error on every backend —
    /// variant and fields, not just "some error".
    #[test]
    fn halo_short_tiles_fail_identically(model in arb_model(), seed in 0u64..1000) {
        let (reference, fast) = oracle_and_fast(&model, seed);
        let input = Tensor::random(model.input_shape(), seed.wrapping_add(4));
        let seg = model.full_segment();
        let h = model.output_shape().height;
        let in_h = model.input_shape().height;
        prop_assume!(h >= 2);
        // The bottom half's receptive field; a tile starting one row
        // below it is short exactly when the field reaches row 0's side.
        let rows = Rows::new(h / 2, h);
        let need = model.segment_input_rows(seg, rows);
        prop_assume!(need.start + 1 < in_h);
        let tile = input
            .slice_rows(Rows::new(need.start + 1, in_h))
            .expect("slice is in range");
        let want = reference.infer_region(seg, rows, &tile);
        prop_assert!(want.is_err(), "tile was genuinely short");
        for (backend, engine) in &fast {
            let got = engine.infer_region(seg, rows, &tile);
            prop_assert_eq!(&got, &want, "backend {}", backend);
        }
        let int8 = reference.fork_backend(EngineBackend::Int8);
        prop_assert_eq!(int8.infer_region(seg, rows, &tile), want);
    }

    /// Int8 shards stitch bit-exactly to full int8 inference for any
    /// (model, shard) pair: activation scales are static per layer, so
    /// a region sees the identical quantization a full map does.
    #[test]
    fn int8_shards_stitch_bit_exactly_to_full_int8(
        model in arb_model(),
        parts in 1usize..4,
        seed in 0u64..1000,
    ) {
        let int8 = Engine::with_seed(&model, seed).with_backend(EngineBackend::Int8);
        let input = Tensor::random(model.input_shape(), seed.wrapping_add(5));
        let full = int8.infer(&input).expect("int8 inference works");
        let seg = model.full_segment();
        let h = model.output_shape().height;
        let tiles: Vec<Tensor> = rows_split_even(Rows::full(h), parts)
            .into_iter()
            .filter(|r| !r.is_empty())
            .map(|rows| {
                let need = model.segment_input_rows(seg, rows);
                let tile = input.slice_rows(need).expect("halo available");
                int8.infer_region(seg, rows, &tile).expect("int8 region works")
            })
            .collect();
        let stitched = Tensor::stitch_rows(&tiles).expect("tiles stitch");
        prop_assert_eq!(stitched, full);
    }
}

#[test]
fn fc_and_relu_tails_match_exactly() {
    // Deterministic conv -> pool -> fc chain: the GEMV path and its
    // fused ReLU against the reference dot products.
    let model = Model::new(
        "fc-tail",
        Shape::new(3, 12, 12),
        vec![
            Layer::conv("c", ConvSpec::square(3, 8, 3, 1, 1)).into(),
            Layer::pool("p", PoolSpec::max(2, 2)).into(),
            Layer::fc("fc", 8 * 6 * 6, 32).into(),
        ],
    )
    .unwrap();
    for seed in 0..8 {
        let (reference, fast) = oracle_and_fast(&model, seed);
        let input = Tensor::random(model.input_shape(), seed ^ 0x5a);
        let want = reference.infer(&input).unwrap();
        for (backend, engine) in &fast {
            assert_eq!(engine.infer(&input).unwrap(), want, "seed {seed} {backend}");
        }
    }
}

#[test]
fn int8_error_stays_within_the_analytic_channel_bound() {
    // Single dense conv: output channel oc occupies the contiguous
    // slice [oc*h*w, (oc+1)*h*w), so every element can be held to its
    // own channel's worst-case quantization bound — plus 2 ulp of the
    // reference value for the dequantization's two f32 roundings (see
    // the module doc's error-regime contract).
    let model = Model::new(
        "int8-bound",
        Shape::new(6, 12, 12),
        vec![Layer::conv("c", ConvSpec::square(6, 16, 3, 1, 1)).into()],
    )
    .unwrap();
    for seed in 0..10u64 {
        let reference = Engine::with_seed(&model, seed).with_backend(EngineBackend::Reference);
        let int8 = reference.fork_backend(EngineBackend::Int8);
        let quant = int8.quantized().expect("int8 engine carries tables");
        let QuantizedUnit::Layer(Some(layer)) = quant.unit(0) else {
            panic!("conv unit quantizes to a layer table");
        };
        let input = Tensor::random(model.input_shape(), seed ^ 0xA8);
        let want = reference.infer(&input).unwrap();
        let got = int8.infer(&input).unwrap();
        let out = model.output_shape();
        let pixels = out.height * out.width;
        for (idx, (&w, &g)) in want.data().iter().zip(got.data()).enumerate() {
            let oc = idx / pixels;
            let tol = layer.channel_tolerance(oc) + 2.0 * (w.abs() * f32::EPSILON);
            assert!(
                (w - g).abs() <= tol,
                "seed {seed} oc {oc}: |{w} - {g}| > {tol}"
            );
        }
    }
}

#[test]
fn wrong_channel_inputs_fail_identically() {
    let model = Model::new(
        "chan",
        Shape::new(4, 8, 8),
        vec![Layer::conv("c", ConvSpec::square(4, 4, 3, 1, 1)).into()],
    )
    .unwrap();
    let (reference, fast) = engine_pair(&model, 3);
    let bad = Tensor::random(Shape::new(3, 8, 8), 4);
    let want = reference.infer(&bad);
    let got = fast.infer(&bad);
    assert!(matches!(want, Err(TensorError::ShapeMismatch { .. })));
    assert_eq!(got, want);
}

#[test]
fn mixed_stride_padding_edge_cases_match() {
    // Hand-picked shapes that stress partial register tiles: output
    // widths 1, 7, 8, 9 around the NR=8 pixel tile, odd heights, and a
    // stride-2 asymmetric kernel.
    let cases = vec![
        ("w1", ConvSpec::square(2, 4, 3, 1, 0), Shape::new(2, 3, 3)),
        ("w7", ConvSpec::square(2, 5, 3, 1, 1), Shape::new(2, 7, 7)),
        ("w8", ConvSpec::square(3, 4, 3, 1, 1), Shape::new(3, 8, 8)),
        ("w9", ConvSpec::square(3, 4, 3, 1, 1), Shape::new(3, 9, 9)),
        (
            "asym",
            ConvSpec {
                in_channels: 2,
                out_channels: 6,
                kernel: (1, 7),
                stride: (1, 1),
                padding: (0, 3),
                groups: 1,
            },
            Shape::new(2, 9, 9),
        ),
        (
            "s2",
            ConvSpec {
                in_channels: 4,
                out_channels: 4,
                kernel: (3, 3),
                stride: (2, 2),
                padding: (1, 1),
                groups: 2,
            },
            Shape::new(4, 11, 11),
        ),
    ];
    for (name, spec, input_shape) in cases {
        let model = Model::new(name, input_shape, vec![Layer::conv(name, spec).into()]).unwrap();
        let (reference, fast) = oracle_and_fast(&model, 9);
        let input = Tensor::random(input_shape, 10);
        let want = reference.infer(&input).unwrap();
        for (backend, engine) in &fast {
            assert_eq!(engine.infer(&input).unwrap(), want, "{name} {backend}");
        }
    }
}

#[test]
fn remainder_k_and_n_shapes_cover_the_simd_tail_paths() {
    // K = in_channels·kh·kw and N = out_h·out_w chosen so neither is a
    // multiple of 8: the AVX2 kernel must take its scalar column tail
    // and the 4-row remainder on every one of these, bit-exactly.
    let cases = vec![
        // K = 3*3*3 = 27, N = 5*5 = 25, M = 5 (not a multiple of 4).
        (
            "k27n25m5",
            ConvSpec::square(3, 5, 3, 1, 1),
            Shape::new(3, 5, 5),
        ),
        // K = 1*1*5 = 5 (pointwise), N = 7*9 = 63, M = 9.
        ("k5n63m9", ConvSpec::pointwise(5, 9), Shape::new(5, 7, 9)),
        // K = 2*2*7 = 28, N = 3*3 = 9, M = 1 — everything is tail.
        (
            "k28n9m1",
            ConvSpec {
                in_channels: 7,
                out_channels: 1,
                kernel: (2, 2),
                stride: (2, 2),
                padding: (0, 0),
                groups: 1,
            },
            Shape::new(7, 6, 6),
        ),
    ];
    for (name, spec, input_shape) in cases {
        let model = Model::new(name, input_shape, vec![Layer::conv(name, spec).into()]).unwrap();
        let (reference, fast) = oracle_and_fast(&model, 31);
        let input = Tensor::random(input_shape, 32);
        let want = reference.infer(&input).unwrap();
        for (backend, engine) in &fast {
            assert_eq!(engine.infer(&input).unwrap(), want, "{name} {backend}");
        }
    }
}

/// The output's bit patterns, so `-0.0`/`0.0` and NaN payloads count.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn workload_conv_shapes_cross_k_blocks_bit_exactly() {
    // AlexNet's conv3–conv5 regime: K = 64·3·3 = 576 spans three of the
    // packed kernel's 256-deep K blocks, and N = 13·13 = 169 = 10·16 + 9
    // leaves a 9-column panel tail. The grouped twin has the same K per
    // group.
    let grouped = ConvSpec {
        in_channels: 128,
        out_channels: 96,
        kernel: (3, 3),
        stride: (1, 1),
        padding: (1, 1),
        groups: 2,
    };
    for (name, spec) in [
        ("dense", ConvSpec::square(64, 96, 3, 1, 1)),
        ("grouped", grouped),
    ] {
        let input_shape = Shape::new(spec.in_channels, 13, 13);
        let model = Model::new(name, input_shape, vec![Layer::conv(name, spec).into()]).unwrap();
        let (reference, fast) = oracle_and_fast(&model, 41);
        let input = Tensor::random(input_shape, 42);
        let want = bits(&reference.infer(&input).unwrap());
        for (backend, engine) in &fast {
            assert_eq!(
                bits(&engine.infer(&input).unwrap()),
                want,
                "{name} {backend}"
            );
        }
    }
}

#[test]
fn workload_fc_shapes_are_bit_exact() {
    // AlexNet's fc6 (9216→4096: whole 16-row GEMV passes) and fc8
    // (4096→1000: an 8-row scalar remainder).
    for (in_features, out_features) in [(9216, 4096), (4096, 1000)] {
        let input_shape = Shape::new(in_features, 1, 1);
        let model = Model::new(
            "fc",
            input_shape,
            vec![Layer::fc("fc", in_features, out_features).into()],
        )
        .unwrap();
        let (reference, fast) = oracle_and_fast(&model, 43);
        let input = Tensor::random(input_shape, 44);
        let want = bits(&reference.infer(&input).unwrap());
        for (backend, engine) in &fast {
            let got = bits(&engine.infer(&input).unwrap());
            assert_eq!(got, want, "{in_features}->{out_features} {backend}");
        }
    }
}
