//! 1-D strips vs 2-D grid partition analysis.
//!
//! PICO partitions feature maps into full-width row strips (MoDNN
//! style); DeepThings "partitions the feature map into 2D grids to
//! further reduce memory overhead" (paper Sec. VI). This module
//! quantifies the trade-off for any fused segment: duplicated halo
//! FLOPs and per-device input-tile memory as a function of grid shape.
//! Interior grid tiles pay halo on all four sides but their perimeter
//! shrinks as tiles approach squares, so for deep fusion a near-square
//! grid usually beats `p` thin strips on both metrics.

use pico_model::{grid_split_even, Model, Region2, Segment};

/// FLOPs/memory of one (fused depth, grid shape) configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Grid rows.
    pub grid_rows: usize,
    /// Grid columns (1 = the paper's strip partitioning).
    pub grid_cols: usize,
    /// Fused leading units.
    pub fused_units: usize,
    /// FLOPs of the busiest device.
    pub per_device_flops: f64,
    /// Summed FLOPs over all devices (halo included).
    pub total_flops: f64,
    /// FLOPs of the segment computed once.
    pub monolithic_flops: f64,
    /// Largest input tile any device must hold, in bytes.
    pub max_input_tile_bytes: usize,
}

impl GridPoint {
    /// Fraction of the total work that is duplicated halo.
    pub fn redundancy(&self) -> f64 {
        if self.total_flops > 0.0 {
            (self.total_flops - self.monolithic_flops) / self.total_flops
        } else {
            0.0
        }
    }
}

/// Evaluates fusing the first `fused_units` units of `model` over a
/// `grid_rows x grid_cols` device grid.
///
/// # Panics
///
/// Panics if `fused_units` is zero or exceeds the model length, or
/// either grid dimension is zero.
pub fn grid_fused_flops(
    model: &Model,
    fused_units: usize,
    grid_rows: usize,
    grid_cols: usize,
) -> GridPoint {
    assert!(
        fused_units >= 1 && fused_units <= model.len(),
        "bad fused unit count"
    );
    assert!(grid_rows >= 1 && grid_cols >= 1, "bad grid shape");
    let seg = Segment::new(0, fused_units);
    let out = model.unit_output_shape(fused_units - 1);
    let in_shape = model.unit_input_shape(0);
    let tiles = grid_split_even(out.height, out.width, grid_rows, grid_cols);

    let mut per_device: f64 = 0.0;
    let mut total = 0.0;
    let mut max_tile = 0usize;
    for t in &tiles {
        let flops = model.segment_region_flops(seg, *t);
        per_device = per_device.max(flops);
        total += flops;
        let need = model.segment_input_region(seg, *t);
        max_tile = max_tile.max(need.bytes(in_shape.channels));
    }
    GridPoint {
        grid_rows,
        grid_cols,
        fused_units,
        per_device_flops: per_device,
        total_flops: total,
        monolithic_flops: model.segment_region_flops(seg, Region2::full(out.height, out.width)),
        max_input_tile_bytes: max_tile,
    }
}

/// All factorizations `r x c = devices` (including the 1-D strips
/// `devices x 1`), evaluated for the given fused depth.
pub fn grid_shapes_for(model: &Model, fused_units: usize, devices: usize) -> Vec<GridPoint> {
    (1..=devices)
        .filter(|r| devices.is_multiple_of(*r))
        .map(|r| grid_fused_flops(model, fused_units, r, devices / r))
        .collect()
}

/// The grid shape minimizing total (halo-inclusive) FLOPs for a device
/// count.
///
/// # Example
///
/// ```
/// use pico_model::zoo;
/// use pico_partition::grid::{best_grid, grid_fused_flops};
///
/// let model = zoo::vgg16().features();
/// let best = best_grid(&model, 10, 8);
/// let strips = grid_fused_flops(&model, 10, 8, 1);
/// assert!(best.total_flops <= strips.total_flops);
/// ```
pub fn best_grid(model: &Model, fused_units: usize, devices: usize) -> GridPoint {
    grid_shapes_for(model, fused_units, devices)
        .into_iter()
        .min_by(|a, b| {
            a.total_flops
                .partial_cmp(&b.total_flops)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("at least the strip factorization exists")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pico_model::zoo;

    #[test]
    fn strips_are_the_c_equals_1_case() {
        let m = zoo::vgg16().features();
        let strips = grid_fused_flops(&m, 10, 8, 1);
        let fig4 = crate::redundancy::fused_layer_flops(&m, 10, 8);
        assert!((strips.total_flops - fig4.total_flops).abs() / fig4.total_flops < 1e-9);
        assert!((strips.per_device_flops - fig4.per_device_flops).abs() < 1e-3);
    }

    #[test]
    fn near_square_grid_beats_strips_on_deep_fusion() {
        // DeepThings' claim, quantified: at 8 devices and deep fusion, a
        // 4x2 grid duplicates less work than 8x1 strips...
        let m = zoo::vgg16().features();
        let strips = grid_fused_flops(&m, 10, 8, 1);
        let grid = grid_fused_flops(&m, 10, 4, 2);
        assert!(grid.total_flops < strips.total_flops);
        // ...and each device holds a smaller input tile.
        assert!(grid.max_input_tile_bytes < strips.max_input_tile_bytes);
    }

    #[test]
    fn single_device_grid_has_no_redundancy() {
        let m = zoo::vgg16().features();
        let p = grid_fused_flops(&m, 13, 1, 1);
        assert!(p.redundancy().abs() < 1e-12);
    }

    #[test]
    fn grid_shapes_cover_all_factorizations() {
        let m = zoo::toy(4);
        let shapes = grid_shapes_for(&m, 4, 12);
        let dims: Vec<(usize, usize)> = shapes.iter().map(|p| (p.grid_rows, p.grid_cols)).collect();
        assert_eq!(dims, vec![(1, 12), (2, 6), (3, 4), (4, 3), (6, 2), (12, 1)]);
        for p in &shapes {
            assert_eq!(p.grid_rows * p.grid_cols, 12);
        }
    }

    #[test]
    fn best_grid_is_at_least_as_good_as_strips() {
        let m = zoo::vgg16().features();
        for devices in [4usize, 8] {
            let best = best_grid(&m, 10, devices);
            let strips = grid_fused_flops(&m, 10, devices, 1);
            assert!(best.total_flops <= strips.total_flops);
        }
    }

    #[test]
    fn redundancy_grows_with_grid_size() {
        let m = zoo::vgg16().features();
        let small = best_grid(&m, 10, 2);
        let large = best_grid(&m, 10, 16);
        assert!(large.redundancy() > small.redundancy());
    }
}
