//! Region-aware compute kernels.
//!
//! Every kernel computes an arbitrary **global** output region (row and
//! column ranges) from an input *tile* (a rectangular slice that
//! remembers its global offsets). Running the same kernel on the full
//! map, on row strips, or on grid tiles performs the identical
//! per-element arithmetic in the identical order, which is what makes
//! split-compute-stitch bit-exact for both 1-D (PICO) and 2-D
//! (DeepThings-style) partitioning.

use pico_model::{ConvSpec, PoolKind, PoolSpec, Region2, Shape};

use crate::{LayerWeights, Tensor, TensorError};

/// Checks the tile covers the region a receptive field needs.
pub(crate) fn require_region(tile: &Tensor, required: Region2) -> Result<(), TensorError> {
    if tile.region().contains(required) {
        Ok(())
    } else {
        Err(TensorError::MissingHalo {
            required: required.rows,
            available: tile.rows(),
        })
    }
}

/// The input region a (kernel, stride, padding) op needs for output
/// region `out`, clamped to the global input map.
pub(crate) fn receptive(
    out: Region2,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    in_shape: Shape,
) -> Region2 {
    let axis = |o: pico_model::Rows, k: usize, s: usize, p: usize, n: usize| {
        if o.is_empty() {
            return pico_model::Rows::empty();
        }
        let start = (o.start * s).saturating_sub(p).min(n);
        let end = ((o.end - 1) * s + k).saturating_sub(p).min(n);
        pico_model::Rows::new(start, end.max(start))
    };
    Region2::new(
        axis(out.rows, kernel.0, stride.0, padding.0, in_shape.height),
        axis(out.cols, kernel.1, stride.1, padding.1, in_shape.width),
    )
}

/// Convolution (+ ReLU) over output region `out` of the global output
/// map. `in_shape` is the full global input shape (padding bounds); the
/// tile must cover the receptive field of `out`.
pub(crate) fn conv_region(
    input: &Tensor,
    in_shape: Shape,
    spec: &ConvSpec,
    weights: &LayerWeights,
    out: Region2,
    relu: bool,
) -> Result<Tensor, TensorError> {
    if input.shape().channels != spec.in_channels {
        return Err(TensorError::ShapeMismatch {
            op: "conv".to_owned(),
            expected: Shape::new(spec.in_channels, in_shape.height, in_shape.width),
            found: input.shape(),
        });
    }
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    require_region(
        input,
        receptive(out, spec.kernel, spec.stride, spec.padding, in_shape),
    )?;

    // Grouped convolution: output channel `oc` reads input channels
    // [group * in_per_group, (group + 1) * in_per_group) where
    // group = oc / (out_channels / groups). Dense conv is groups = 1.
    let in_per_group = spec.in_per_group();
    let out_per_group = spec.out_channels / spec.groups;
    let mut data = Vec::with_capacity(spec.out_channels * out.area());
    for oc in 0..spec.out_channels {
        let ic_base = (oc / out_per_group) * in_per_group;
        for r in out.rows.iter() {
            for col in out.cols.iter() {
                let mut acc = weights.bias[oc];
                for ic in 0..in_per_group {
                    for kr in 0..kh {
                        // Global input row; skip rows in the zero padding.
                        let gr = (r * sh + kr).wrapping_sub(ph);
                        if gr >= in_shape.height {
                            continue;
                        }
                        for kc in 0..kw {
                            let gc = (col * sw + kc).wrapping_sub(pw);
                            if gc >= in_shape.width {
                                continue;
                            }
                            let w = weights.kernel[((oc * in_per_group + ic) * kh + kr) * kw + kc];
                            acc += w * input.at_global(ic_base + ic, gr, gc);
                        }
                    }
                }
                data.push(if relu { acc.max(0.0) } else { acc });
            }
        }
    }
    Tensor::from_parts(
        Shape::new(spec.out_channels, out.rows.len(), out.cols.len()),
        out.rows.start,
        out.cols.start,
        data,
    )
}

/// Pooling over output region `out` of the global output map.
pub(crate) fn pool_region(
    input: &Tensor,
    in_shape: Shape,
    spec: &PoolSpec,
    out: Region2,
) -> Result<Tensor, TensorError> {
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let c = input.shape().channels;
    require_region(
        input,
        receptive(out, spec.kernel, spec.stride, spec.padding, in_shape),
    )?;

    let mut data = Vec::with_capacity(c * out.area());
    for ch in 0..c {
        for r in out.rows.iter() {
            for col in out.cols.iter() {
                let value = match spec.kind {
                    PoolKind::Max => {
                        let mut best = f32::NEG_INFINITY;
                        for kr in 0..kh {
                            let gr = (r * sh + kr).wrapping_sub(ph);
                            if gr >= in_shape.height {
                                continue;
                            }
                            for kc in 0..kw {
                                let gc = (col * sw + kc).wrapping_sub(pw);
                                if gc >= in_shape.width {
                                    continue;
                                }
                                best = best.max(input.at_global(ch, gr, gc));
                            }
                        }
                        if best == f32::NEG_INFINITY {
                            0.0
                        } else {
                            best
                        }
                    }
                    PoolKind::Avg => {
                        // Padding counts as zero (fixed divisor), the
                        // common `count_include_pad` convention.
                        let mut sum = 0.0;
                        for kr in 0..kh {
                            let gr = (r * sh + kr).wrapping_sub(ph);
                            if gr >= in_shape.height {
                                continue;
                            }
                            for kc in 0..kw {
                                let gc = (col * sw + kc).wrapping_sub(pw);
                                if gc >= in_shape.width {
                                    continue;
                                }
                                sum += input.at_global(ch, gr, gc);
                            }
                        }
                        sum / (kh * kw) as f32
                    }
                };
                data.push(value);
            }
        }
    }
    Tensor::from_parts(
        Shape::new(c, out.rows.len(), out.cols.len()),
        out.rows.start,
        out.cols.start,
        data,
    )
}

/// Fully-connected layer (+ ReLU) on the flattened input. Requires the
/// complete input map (FC layers cannot be partitioned spatially).
pub(crate) fn fc_full(
    input: &Tensor,
    in_features: usize,
    out_features: usize,
    weights: &LayerWeights,
    relu: bool,
) -> Result<Tensor, TensorError> {
    if input.shape().elements() != in_features || input.row0() != 0 || input.col0() != 0 {
        return Err(TensorError::ShapeMismatch {
            op: "fc".to_owned(),
            expected: Shape::new(in_features, 1, 1),
            found: input.shape(),
        });
    }
    let x = input.data();
    let mut data = Vec::with_capacity(out_features);
    for o in 0..out_features {
        let mut acc = weights.bias[o];
        let row = &weights.kernel[o * in_features..(o + 1) * in_features];
        for (w, v) in row.iter().zip(x) {
            acc += w * v;
        }
        data.push(if relu { acc.max(0.0) } else { acc });
    }
    Tensor::from_parts(Shape::new(out_features, 1, 1), 0, 0, data)
}

/// Element-wise addition of tiles covering identical global regions.
pub(crate) fn add(tiles: &[Tensor]) -> Result<Tensor, TensorError> {
    add_into(tiles, Vec::new())
}

/// [`add`] into a recycled buffer (cleared first; the sum starts from
/// a copy of the first tile and adds the rest in order).
pub(crate) fn add_into(tiles: &[Tensor], mut buf: Vec<f32>) -> Result<Tensor, TensorError> {
    let first = tiles.first().ok_or(TensorError::Empty)?;
    for t in &tiles[1..] {
        if t.shape() != first.shape() || t.region() != first.region() {
            return Err(TensorError::StitchMismatch {
                detail: format!(
                    "add requires identical tiles, got {} @{} vs {} @{}",
                    t.shape(),
                    t.region(),
                    first.shape(),
                    first.region()
                ),
            });
        }
    }
    buf.clear();
    buf.extend_from_slice(first.data());
    for t in &tiles[1..] {
        for (o, v) in buf.iter_mut().zip(t.data()) {
            *o += v;
        }
    }
    let region = first.region();
    Tensor::from_parts(first.shape(), region.rows.start, region.cols.start, buf)
}

/// Channel-wise concatenation of tiles covering identical global regions.
pub(crate) fn concat_channels(tiles: &[Tensor]) -> Result<Tensor, TensorError> {
    concat_channels_into(tiles, Vec::new())
}

/// [`concat_channels`] into a recycled buffer (cleared first).
pub(crate) fn concat_channels_into(
    tiles: &[Tensor],
    mut buf: Vec<f32>,
) -> Result<Tensor, TensorError> {
    let first = tiles.first().ok_or(TensorError::Empty)?;
    let region = first.region();
    let (h, w) = (first.shape().height, first.shape().width);
    let mut channels = 0;
    for t in tiles {
        if t.shape().height != h || t.shape().width != w || t.region() != region {
            return Err(TensorError::StitchMismatch {
                detail: "concat requires equal spatial dims and offsets".to_owned(),
            });
        }
        channels += t.shape().channels;
    }
    buf.clear();
    buf.reserve_exact(channels * h * w);
    for t in tiles {
        buf.extend_from_slice(t.data());
    }
    Tensor::from_parts(
        Shape::new(channels, h, w),
        region.rows.start,
        region.cols.start,
        buf,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pico_model::{ConvSpec, Rows};

    fn tensor(shape: Shape, vals: &[f32]) -> Tensor {
        Tensor::from_vec(shape, vals.to_vec()).unwrap()
    }

    fn full(shape: Shape) -> Region2 {
        Region2::full(shape.height, shape.width)
    }

    #[test]
    fn conv_1x1_identity() {
        let input = tensor(Shape::new(1, 2, 2), &[1.0, 2.0, 3.0, 4.0]);
        let spec = ConvSpec::pointwise(1, 1);
        let w = LayerWeights {
            kernel: vec![1.0],
            bias: vec![0.0],
        };
        let out =
            conv_region(&input, input.shape(), &spec, &w, full(input.shape()), false).unwrap();
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn conv_3x3_hand_computed() {
        // 3x3 all-ones kernel over a 3x3 all-ones input, padding 1:
        // center sees 9 ones, edges 6, corners 4.
        let input = tensor(Shape::new(1, 3, 3), &[1.0; 9]);
        let spec = ConvSpec::square(1, 1, 3, 1, 1);
        let w = LayerWeights {
            kernel: vec![1.0; 9],
            bias: vec![0.0],
        };
        let out =
            conv_region(&input, input.shape(), &spec, &w, full(input.shape()), false).unwrap();
        assert_eq!(out.data(), &[4.0, 6.0, 4.0, 6.0, 9.0, 6.0, 4.0, 6.0, 4.0]);
    }

    #[test]
    fn depthwise_conv_keeps_channels_independent() {
        // 2-channel depthwise 1x1 with per-channel weights 2 and 3:
        // channels scale independently, never mix.
        let input = tensor(Shape::new(2, 1, 2), &[1.0, 2.0, /* ch1 */ 10.0, 20.0]);
        let mut spec = ConvSpec::depthwise(2, 1, 1, 0);
        spec.kernel = (1, 1);
        let w = LayerWeights {
            kernel: vec![2.0, 3.0],
            bias: vec![0.0, 0.0],
        };
        let out =
            conv_region(&input, input.shape(), &spec, &w, full(input.shape()), false).unwrap();
        assert_eq!(out.data(), &[2.0, 4.0, 30.0, 60.0]);
    }

    #[test]
    fn grouped_conv_reads_only_its_group() {
        // 4 in channels, 2 out channels, 2 groups: out0 reads in0..2,
        // out1 reads in2..4.
        let input = tensor(Shape::new(4, 1, 1), &[1.0, 2.0, 4.0, 8.0]);
        let spec = ConvSpec {
            in_channels: 4,
            out_channels: 2,
            kernel: (1, 1),
            stride: (1, 1),
            padding: (0, 0),
            groups: 2,
        };
        let w = LayerWeights {
            kernel: vec![1.0, 1.0, 1.0, 1.0],
            bias: vec![0.0, 0.0],
        };
        let out =
            conv_region(&input, input.shape(), &spec, &w, full(input.shape()), false).unwrap();
        assert_eq!(out.data(), &[3.0, 12.0]);
    }

    #[test]
    fn conv_row_strip_matches_full() {
        let input = Tensor::random(Shape::new(2, 8, 6), 3);
        let spec = ConvSpec::square(2, 3, 3, 1, 1);
        let w = LayerWeights {
            kernel: (0..(3 * 2 * 9)).map(|i| (i as f32) * 0.01 - 0.2).collect(),
            bias: vec![0.1, -0.1, 0.0],
        };
        let full_out =
            conv_region(&input, input.shape(), &spec, &w, full(input.shape()), true).unwrap();
        let tile = input.slice_rows(Rows::new(2, 7)).unwrap();
        let region = Region2::new(Rows::new(3, 6), Rows::full(6));
        let part = conv_region(&tile, input.shape(), &spec, &w, region, true).unwrap();
        for c in 0..3 {
            for r in 3..6 {
                for col in 0..6 {
                    assert_eq!(part.at_global(c, r, col), full_out.at(c, r, col));
                }
            }
        }
    }

    #[test]
    fn conv_grid_tile_matches_full() {
        // A 2-D tile with halo on all four sides is bit-identical to
        // the full map.
        let input = Tensor::random(Shape::new(2, 10, 10), 4);
        let spec = ConvSpec::square(2, 2, 3, 1, 1);
        let w = LayerWeights {
            kernel: (0..(2 * 2 * 9)).map(|i| (i as f32) * 0.02 - 0.3).collect(),
            bias: vec![0.05, -0.05],
        };
        let full_out =
            conv_region(&input, input.shape(), &spec, &w, full(input.shape()), true).unwrap();
        let out_region = Region2::new(Rows::new(3, 7), Rows::new(4, 9));
        let need = Region2::new(Rows::new(2, 8), Rows::new(3, 10));
        let tile = input.slice_region(need).unwrap();
        let part = conv_region(&tile, input.shape(), &spec, &w, out_region, true).unwrap();
        for c in 0..2 {
            for r in 3..7 {
                for col in 4..9 {
                    assert_eq!(part.at_global(c, r, col), full_out.at(c, r, col));
                }
            }
        }
    }

    #[test]
    fn conv_missing_halo_errors() {
        let input = Tensor::random(Shape::new(1, 8, 4), 0);
        let tile = input.slice_rows(Rows::new(4, 8)).unwrap();
        let spec = ConvSpec::square(1, 1, 3, 1, 1);
        let w = LayerWeights {
            kernel: vec![0.0; 9],
            bias: vec![0.0],
        };
        // Rows 2..4 need input rows 1..5; the tile starts at 4.
        let region = Region2::new(Rows::new(2, 4), Rows::full(4));
        assert!(matches!(
            conv_region(&tile, input.shape(), &spec, &w, region, false),
            Err(TensorError::MissingHalo { .. })
        ));
    }

    #[test]
    fn conv_missing_col_halo_errors() {
        let input = Tensor::random(Shape::new(1, 6, 8), 0);
        let tile = input
            .slice_region(Region2::new(Rows::full(6), Rows::new(4, 8)))
            .unwrap();
        let spec = ConvSpec::square(1, 1, 3, 1, 1);
        let w = LayerWeights {
            kernel: vec![0.0; 9],
            bias: vec![0.0],
        };
        let region = Region2::new(Rows::new(1, 3), Rows::new(2, 4));
        assert!(conv_region(&tile, input.shape(), &spec, &w, region, false).is_err());
    }

    #[test]
    fn strided_conv_shapes() {
        let input = Tensor::random(Shape::new(1, 9, 9), 1);
        let spec = ConvSpec::square(1, 2, 3, 2, 0);
        let w = LayerWeights {
            kernel: vec![0.5; 2 * 9],
            bias: vec![0.0, 0.0],
        };
        let region = Region2::new(Rows::new(0, 4), Rows::new(0, 4));
        let out = conv_region(&input, input.shape(), &spec, &w, region, false).unwrap();
        assert_eq!(out.shape(), Shape::new(2, 4, 4));
    }

    #[test]
    fn max_pool_hand_computed() {
        let input = tensor(
            Shape::new(1, 4, 4),
            &[
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
        );
        let spec = PoolSpec::max(2, 2);
        let region = Region2::new(Rows::new(0, 2), Rows::new(0, 2));
        let out = pool_region(&input, input.shape(), &spec, region).unwrap();
        assert_eq!(out.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn avg_pool_counts_padding_as_zero() {
        let input = tensor(Shape::new(1, 2, 2), &[4.0, 4.0, 4.0, 4.0]);
        let spec = PoolSpec {
            kind: PoolKind::Avg,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
        };
        let out = pool_region(&input, input.shape(), &spec, full(input.shape())).unwrap();
        // Corner window sees four 4.0s of nine slots.
        assert!((out.at(0, 0, 0) - 16.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn pool_grid_tile_matches_full() {
        let input = Tensor::random(Shape::new(3, 10, 8), 5);
        let spec = PoolSpec::max(2, 2);
        let full_out = pool_region(
            &input,
            input.shape(),
            &spec,
            Region2::new(Rows::new(0, 5), Rows::new(0, 4)),
        )
        .unwrap();
        let region = Region2::new(Rows::new(2, 5), Rows::new(1, 4));
        let need = Region2::new(Rows::new(4, 10), Rows::new(2, 8));
        let tile = input.slice_region(need).unwrap();
        let part = pool_region(&tile, input.shape(), &spec, region).unwrap();
        for c in 0..3 {
            for r in 2..5 {
                for col in 1..4 {
                    assert_eq!(part.at_global(c, r, col), full_out.at(c, r, col));
                }
            }
        }
    }

    #[test]
    fn fc_hand_computed() {
        let input = tensor(Shape::new(4, 1, 1), &[1.0, 2.0, 3.0, 4.0]);
        let w = LayerWeights {
            kernel: vec![1.0, 0.0, 0.0, 0.0, /* row 2 */ 0.25, 0.25, 0.25, 0.25],
            bias: vec![0.0, 1.0],
        };
        let out = fc_full(&input, 4, 2, &w, false).unwrap();
        assert_eq!(out.data(), &[1.0, 3.5]);
    }

    #[test]
    fn fc_rejects_partial_input() {
        let input = Tensor::random(Shape::new(1, 8, 1), 0);
        let tile = input.slice_rows(Rows::new(2, 8)).unwrap();
        let w = LayerWeights {
            kernel: vec![0.0; 8],
            bias: vec![0.0],
        };
        assert!(fc_full(&tile, 8, 1, &w, false).is_err());
    }

    #[test]
    fn add_and_concat() {
        let a = tensor(Shape::new(1, 2, 2), &[1.0, 2.0, 3.0, 4.0]);
        let b = tensor(Shape::new(1, 2, 2), &[10.0, 20.0, 30.0, 40.0]);
        let sum = add(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(sum.data(), &[11.0, 22.0, 33.0, 44.0]);
        let cat = concat_channels(&[a, b]).unwrap();
        assert_eq!(cat.shape(), Shape::new(2, 2, 2));
        assert_eq!(cat.data()[4..], [10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn add_rejects_offset_mismatch() {
        let base = Tensor::random(Shape::new(1, 6, 2), 0);
        let a = base.slice_rows(Rows::new(0, 2)).unwrap();
        let b = base.slice_rows(Rows::new(2, 4)).unwrap();
        assert!(add(&[a, b]).is_err());
    }

    #[test]
    fn relu_clamps_negatives() {
        let input = tensor(Shape::new(1, 1, 2), &[1.0, -1.0]);
        let spec = ConvSpec::pointwise(1, 1);
        let w = LayerWeights {
            kernel: vec![1.0],
            bias: vec![0.0],
        };
        let out = conv_region(&input, input.shape(), &spec, &w, full(input.shape()), true).unwrap();
        assert_eq!(out.data(), &[1.0, 0.0]);
    }
}
