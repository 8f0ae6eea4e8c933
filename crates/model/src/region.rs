//! Two-dimensional feature-map regions.
//!
//! PICO partitions along rows only (MoDNN-style strips); DeepThings —
//! one of the paper's baselines — "partitions the feature map into 2D
//! grids to further reduce memory overhead". This module provides the
//! rectangular-region arithmetic needed to support (and study) grid
//! partitioning: per-axis receptive-field back-propagation and FLOPs
//! accounting for a `rows x cols` tile.

use crate::{rows_split_even, ConvSpec, LayerKind, PoolSpec, Rows, Shape};
use crate::{Block, Layer, Model, ModelError, Segment, Unit};

/// A rectangular region of a feature map: a row range and a column
/// range (both half-open, in global coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region2 {
    /// Row interval.
    pub rows: Rows,
    /// Column interval ([`Rows`] doubles as a generic interval type).
    pub cols: Rows,
}

impl Region2 {
    /// Creates a region.
    pub fn new(rows: Rows, cols: Rows) -> Self {
        Region2 { rows, cols }
    }

    /// The whole `height x width` map.
    pub fn full(height: usize, width: usize) -> Self {
        Region2 {
            rows: Rows::full(height),
            cols: Rows::full(width),
        }
    }

    /// Number of elements per channel.
    pub fn area(&self) -> usize {
        self.rows.len() * self.cols.len()
    }

    /// Whether the region contains no elements.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty() || self.cols.is_empty()
    }

    /// Clamps both axes to a map of `height x width`.
    pub fn clamp_to(&self, height: usize, width: usize) -> Region2 {
        Region2 {
            rows: self.rows.clamp_to(height),
            cols: self.cols.clamp_to(width),
        }
    }

    /// Whether `other` lies fully within this region.
    pub fn contains(&self, other: Region2) -> bool {
        other.is_empty() || (self.rows.contains(other.rows) && self.cols.contains(other.cols))
    }

    /// Smallest region containing both.
    pub fn hull(&self, other: Region2) -> Region2 {
        Region2 {
            rows: self.rows.hull(other.rows),
            cols: self.cols.hull(other.cols),
        }
    }

    /// Bytes of `channels` channels of this region as f32.
    pub fn bytes(&self, channels: usize) -> usize {
        channels * self.area() * crate::BYTES_PER_ELEMENT
    }
}

impl std::fmt::Display for Region2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

/// Splits a `height x width` map into a `grid_rows x grid_cols` grid of
/// nearly-equal rectangular tiles, row-major.
///
/// # Panics
///
/// Panics if either grid dimension is zero.
pub fn grid_split_even(
    height: usize,
    width: usize,
    grid_rows: usize,
    grid_cols: usize,
) -> Vec<Region2> {
    let row_bands = rows_split_even(Rows::full(height), grid_rows);
    let col_bands = rows_split_even(Rows::full(width), grid_cols);
    let mut out = Vec::with_capacity(grid_rows * grid_cols);
    for r in &row_bands {
        for c in &col_bands {
            out.push(Region2::new(*r, *c));
        }
    }
    out
}

/// Horizontal analogue of [`Layer::input_rows`]: input columns needed to
/// produce output columns `out`, clamped to the `in_width`-column map.
pub(crate) fn layer_input_cols(layer: &Layer, out: Rows, in_width: usize) -> Rows {
    if out.is_empty() {
        return Rows::empty();
    }
    match &layer.kind {
        LayerKind::Conv(ConvSpec {
            kernel,
            stride,
            padding,
            ..
        })
        | LayerKind::Pool(PoolSpec {
            kernel,
            stride,
            padding,
            ..
        }) => {
            let (k, s, p) = (kernel.1, stride.1, padding.1);
            let start = (out.start * s).saturating_sub(p).min(in_width);
            let end = ((out.end - 1) * s + k).saturating_sub(p).min(in_width);
            Rows::new(start, end.max(start))
        }
        LayerKind::Fc(_) => Rows::full(in_width),
    }
}

impl Layer {
    /// Input region needed to produce output region `out` (both axes of
    /// Eq. 3), for an `input`-shaped map.
    pub fn input_region(&self, out: Region2, input: Shape) -> Region2 {
        Region2 {
            rows: self.input_rows(out.rows, input.height),
            cols: layer_input_cols(self, out.cols, input.width),
        }
    }

    /// FLOPs to produce output region `out` of a map with shape
    /// `out_shape` (Eq. 2 restricted to a rectangle).
    pub fn region_flops(&self, out: Region2, out_shape: Shape) -> f64 {
        let out = out.clamp_to(out_shape.height, out_shape.width);
        match &self.kind {
            LayerKind::Conv(c) => {
                (c.kernel.0 * c.kernel.1 * c.in_per_group()) as f64
                    * (out.area() * c.out_channels) as f64
            }
            LayerKind::Pool(p) => {
                (p.kernel.0 * p.kernel.1) as f64 * (out_shape.channels * out.area()) as f64
            }
            LayerKind::Fc(fc) => {
                if out.is_empty() {
                    0.0
                } else {
                    (fc.in_features * fc.out_features) as f64
                }
            }
        }
    }
}

impl Block {
    /// Input region required to produce output region `out`: the union
    /// hull over paths (both axes).
    pub fn input_region(&self, out: Region2, input: Shape) -> Result<Region2, ModelError> {
        let mut hull = Region2::new(Rows::empty(), Rows::empty());
        for path in &self.paths {
            hull = hull.hull(path_input_region(path, input, out)?);
        }
        Ok(hull)
    }

    /// FLOPs to compute output region `out` of this block.
    pub fn region_flops(&self, out: Region2, input: Shape) -> Result<f64, ModelError> {
        let mut total = 0.0;
        for path in &self.paths {
            let mut shapes = Vec::with_capacity(path.len() + 1);
            shapes.push(input);
            for layer in path {
                let prev = *shapes.last().expect("shapes starts non-empty");
                shapes.push(layer.output_shape(prev)?);
            }
            let mut region = out;
            for (l, layer) in path.iter().enumerate().rev() {
                let out_shape = shapes[l + 1];
                let produced = region.clamp_to(out_shape.height, out_shape.width);
                total += layer.region_flops(produced, out_shape);
                region = layer.input_region(produced, shapes[l]);
            }
        }
        Ok(total)
    }
}

/// Region of `path`'s input needed for region `out` of its output,
/// where `input` is the shape entering the path. Like the row walk in
/// `block.rs`, recursion carries each layer's shape forward and the
/// region back, so a task's per-unit trace allocates nothing.
fn path_input_region(path: &[Layer], input: Shape, out: Region2) -> Result<Region2, ModelError> {
    let Some((first, rest)) = path.split_first() else {
        return Ok(out);
    };
    let region = path_input_region(rest, first.output_shape(input)?, out)?;
    Ok(first.input_region(region, input))
}

impl Unit {
    /// Input region required to produce output region `out`.
    pub fn input_region(&self, out: Region2, input: Shape) -> Region2 {
        match self {
            Unit::Layer(l) => l.input_region(out, input),
            Unit::Block(b) => b
                .input_region(out, input)
                .expect("input shape was validated at model construction"),
        }
    }

    /// FLOPs to produce output region `out`.
    pub fn region_flops(&self, out: Region2, input: Shape, output: Shape) -> f64 {
        let out = out.clamp_to(output.height, output.width);
        match self {
            Unit::Layer(l) => l.region_flops(out, output),
            Unit::Block(b) => b
                .region_flops(out, input)
                .expect("input shape was validated at model construction"),
        }
    }
}

impl Model {
    /// 2-D analogue of [`Model::segment_input_rows`]: the input region
    /// of segment `seg` required to produce output region `out`.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of bounds.
    pub fn segment_input_region(&self, seg: Segment, out: Region2) -> Region2 {
        self.check_segment(seg).expect("segment out of bounds");
        let out_shape = self.unit_output_shape(seg.end - 1);
        let mut region = out.clamp_to(out_shape.height, out_shape.width);
        for i in seg.iter().rev() {
            region = self.unit(i).input_region(region, self.unit_input_shape(i));
        }
        region
    }

    /// 2-D analogue of [`Model::segment_row_trace`].
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of bounds.
    pub fn segment_region_trace(&self, seg: Segment, out: Region2) -> Vec<Region2> {
        let mut trace = Vec::new();
        self.segment_region_trace_into(seg, out, &mut trace);
        trace
    }

    /// [`Model::segment_region_trace`] into a caller-provided buffer
    /// (cleared first), so per-task hot paths can reuse its capacity
    /// instead of allocating a fresh trace every call.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of bounds.
    pub fn segment_region_trace_into(&self, seg: Segment, out: Region2, trace: &mut Vec<Region2>) {
        self.check_segment(seg).expect("segment out of bounds");
        let out_shape = self.unit_output_shape(seg.end - 1);
        trace.clear();
        trace.resize(seg.len(), Region2::new(Rows::empty(), Rows::empty()));
        let mut region = out.clamp_to(out_shape.height, out_shape.width);
        for (k, i) in seg.iter().enumerate().rev() {
            trace[k] = region;
            region = self.unit(i).input_region(region, self.unit_input_shape(i));
        }
    }

    /// 2-D analogue of [`Model::segment_flops`]: FLOPs a device spends
    /// producing output region `out` of segment `seg`, halo included.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of bounds.
    pub fn segment_region_flops(&self, seg: Segment, out: Region2) -> f64 {
        let trace = self.segment_region_trace(seg, out);
        let mut total = 0.0;
        for (k, i) in seg.iter().enumerate() {
            total += self.unit(i).region_flops(
                trace[k],
                self.unit_input_shape(i),
                self.unit_output_shape(i),
            );
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn region_basics() {
        let r = Region2::new(Rows::new(2, 6), Rows::new(1, 5));
        assert_eq!(r.area(), 16);
        assert!(!r.is_empty());
        assert!(r.contains(Region2::new(Rows::new(3, 4), Rows::new(2, 3))));
        assert_eq!(r.bytes(2), 2 * 16 * 4);
        assert_eq!(r.to_string(), "[2, 6)x[1, 5)");
    }

    #[test]
    fn grid_split_tiles_exactly() {
        let tiles = grid_split_even(10, 8, 2, 3);
        assert_eq!(tiles.len(), 6);
        let total: usize = tiles.iter().map(Region2::area).sum();
        assert_eq!(total, 80);
        // Row-major: first three tiles share the top row band.
        assert_eq!(tiles[0].rows, tiles[2].rows);
        assert_ne!(tiles[0].cols, tiles[1].cols);
    }

    #[test]
    fn region_receptive_field_is_separable() {
        // 2-D back-propagation must agree with the two 1-D ones.
        let m = zoo::mnist_toy();
        let seg = m.full_segment();
        let out = Region2::new(Rows::new(3, 9), Rows::new(2, 7));
        let region = m.segment_input_region(seg, out);
        assert_eq!(region.rows, m.segment_input_rows(seg, out.rows));
        // Columns back-propagate with the same arithmetic (square
        // kernels here), so the interval width matches.
        let col_like = m.segment_input_rows(seg, out.cols);
        assert_eq!(region.cols, col_like);
    }

    #[test]
    fn full_region_flops_match_row_api() {
        let m = zoo::mnist_toy();
        let seg = m.full_segment();
        let h = m.output_shape().height;
        let w = m.output_shape().width;
        let full2 = m.segment_region_flops(seg, Region2::full(h, w));
        let full1 = m.segment_flops(seg, Rows::full(h));
        assert!((full2 - full1).abs() < 1e-6);
    }

    #[test]
    fn strip_regions_match_row_api() {
        let m = zoo::toy(4);
        let seg = m.full_segment();
        let w = m.output_shape().width;
        let rows = Rows::new(10, 30);
        let strip = Region2::new(rows, Rows::full(w));
        assert!((m.segment_region_flops(seg, strip) - m.segment_flops(seg, rows)).abs() < 1e-6);
    }

    #[test]
    fn grid_tiles_have_perimeter_halo() {
        // An interior tile of a 3x3 conv needs a 1-element halo on all
        // four sides.
        let m = zoo::toy(1);
        let seg = m.full_segment();
        let tile = Region2::new(Rows::new(10, 20), Rows::new(10, 20));
        let need = m.segment_input_region(seg, tile);
        assert_eq!(need, Region2::new(Rows::new(9, 21), Rows::new(9, 21)));
    }

    #[test]
    fn nonsquare_kernels_have_asymmetric_halo() {
        // A 1x7 conv needs horizontal but no vertical halo.
        let l = Layer::conv(
            "c17",
            ConvSpec {
                in_channels: 4,
                out_channels: 4,
                kernel: (1, 7),
                stride: (1, 1),
                padding: (0, 3),
                groups: 1,
            },
        );
        let input = Shape::new(4, 17, 17);
        let out = Region2::new(Rows::new(5, 9), Rows::new(5, 9));
        let need = l.input_region(out, input);
        assert_eq!(need.rows, Rows::new(5, 9));
        assert_eq!(need.cols, Rows::new(2, 12));
    }

    #[test]
    fn grid_total_flops_below_strip_total_for_deep_fusion() {
        // DeepThings' motivation: for deep fusion on p devices, a
        // near-square grid duplicates fewer halo elements than p thin
        // strips (perimeter vs full-width overlap).
        let m = zoo::vgg16().features();
        let seg = Segment::new(0, 10);
        let out = m.unit_output_shape(9);
        let strips = grid_split_even(out.height, out.width, 8, 1);
        let grid = grid_split_even(out.height, out.width, 4, 2);
        let strip_total: f64 = strips.iter().map(|r| m.segment_region_flops(seg, *r)).sum();
        let grid_total: f64 = grid.iter().map(|r| m.segment_region_flops(seg, *r)).sum();
        assert!(
            grid_total < strip_total,
            "grid {grid_total:.3e} vs strips {strip_total:.3e}"
        );
    }

    #[test]
    fn blocks_support_regions() {
        let m = zoo::resnet34().features();
        let seg = Segment::new(2, 5); // three residual blocks at 56x56
        let tile = Region2::new(Rows::new(10, 20), Rows::new(20, 40));
        let flops = m.segment_region_flops(seg, tile);
        assert!(flops > 0.0);
        let need = m.segment_input_region(seg, tile);
        assert!(need.contains(tile));
    }
}
