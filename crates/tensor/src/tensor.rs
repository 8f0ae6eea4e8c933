use pico_model::rng::SplitMix64;
use pico_model::{Region2, Rows, Shape};

use crate::TensorError;

/// Tiles [`Tensor::stitch_tiles`] orders without a heap buffer.
const STACK_TILES: usize = 32;

/// A dense CHW `f32` tensor (one sample; no batch dimension).
///
/// Feature maps are indexed `(channel, row, column)`; PICO partitions
/// along rows, so [`Tensor::slice_rows`] / [`Tensor::stitch_rows`] are
/// the primitive split/stitch operations of the paper's Fig. 6 workflow.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    /// The first global row this tensor represents (0 for whole maps;
    /// the tile offset for row slices).
    row0: usize,
    /// The first global column this tensor represents (0 for whole maps
    /// and row strips; the tile offset for grid tiles).
    col0: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    pub fn zeros(shape: Shape) -> Self {
        Tensor {
            shape,
            row0: 0,
            col0: 0,
            data: vec![0.0; shape.elements()],
        }
    }

    /// Creates a tensor from raw CHW data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] when `data.len()` does not
    /// match `shape.elements()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != shape.elements() {
            return Err(TensorError::DataLength {
                expected: shape.elements(),
                found: data.len(),
            });
        }
        Ok(Tensor {
            shape,
            row0: 0,
            col0: 0,
            data,
        })
    }

    /// Creates a tensor from raw CHW data plus its global offsets —
    /// the kernel-output constructor (the filled buffer becomes the
    /// tensor with no intermediate copy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] when `data.len()` does not
    /// match `shape.elements()`.
    pub(crate) fn from_parts(
        shape: Shape,
        row0: usize,
        col0: usize,
        data: Vec<f32>,
    ) -> Result<Self, TensorError> {
        if data.len() != shape.elements() {
            return Err(TensorError::DataLength {
                expected: shape.elements(),
                found: data.len(),
            });
        }
        Ok(Tensor {
            shape,
            row0,
            col0,
            data,
        })
    }

    /// Creates a deterministic pseudo-random tensor (uniform in
    /// `[-1, 1]`) — synthetic sensor input for tests and examples.
    pub fn random(shape: Shape, seed: u64) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed);
        Tensor {
            shape,
            row0: 0,
            col0: 0,
            data: (0..shape.elements())
                .map(|_| rng.range_f32(-1.0..1.0))
                .collect(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// The global row index of this tensor's first row (non-zero for
    /// row tiles).
    pub fn row0(&self) -> usize {
        self.row0
    }

    /// The global column index of this tensor's first column (non-zero
    /// for grid tiles).
    pub fn col0(&self) -> usize {
        self.col0
    }

    /// Global columns covered by this tensor.
    pub fn cols(&self) -> Rows {
        Rows::new(self.col0, self.col0 + self.shape.width)
    }

    /// The global rectangular region this tensor covers.
    pub fn region(&self) -> Region2 {
        Region2::new(self.rows(), self.cols())
    }

    /// Global rows covered by this tensor.
    pub fn rows(&self) -> Rows {
        Rows::new(self.row0, self.row0 + self.shape.height)
    }

    /// Read access to the raw CHW data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the raw CHW data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at (channel, **local** row, column).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn at(&self, c: usize, r: usize, col: usize) -> f32 {
        debug_assert!(c < self.shape.channels && r < self.shape.height && col < self.shape.width);
        self.data[(c * self.shape.height + r) * self.shape.width + col]
    }

    /// Sets the element at (channel, **local** row, column).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, c: usize, r: usize, col: usize, v: f32) {
        debug_assert!(c < self.shape.channels && r < self.shape.height && col < self.shape.width);
        self.data[(c * self.shape.height + r) * self.shape.width + col] = v;
    }

    /// Element at (channel, **global** row, column), where the global
    /// row is relative to the full feature map this tile was cut from.
    ///
    /// # Panics
    ///
    /// Panics if the global row is outside this tile.
    #[inline]
    pub fn at_global(&self, c: usize, global_row: usize, global_col: usize) -> f32 {
        debug_assert!(
            global_row >= self.row0 && global_row < self.row0 + self.shape.height,
            "global row {global_row} outside tile rows {:?}",
            self.rows()
        );
        debug_assert!(
            global_col >= self.col0 && global_col < self.col0 + self.shape.width,
            "global col {global_col} outside tile cols {:?}",
            self.cols()
        );
        self.at(c, global_row - self.row0, global_col - self.col0)
    }

    /// Extracts global rows `rows` as a new tile that remembers its
    /// offset (the scatter half of split/stitch).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RowsOutOfRange`] when `rows` is not fully
    /// inside this tensor.
    pub fn slice_rows(&self, rows: Rows) -> Result<Tensor, TensorError> {
        self.slice_region(Region2::new(rows, self.cols()))
    }

    /// Extracts the global region `region` as a new tile that remembers
    /// both offsets (grid scatter).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RowsOutOfRange`] when `region` is not
    /// fully inside this tensor.
    pub fn slice_region(&self, region: Region2) -> Result<Tensor, TensorError> {
        self.slice_region_into(region, Vec::new())
    }

    /// [`slice_region`](Self::slice_region) into a recycled buffer: `buf`
    /// is cleared and refilled, so a caller that hands the same buffer
    /// back task after task slices without allocating once its capacity
    /// fits. Whatever `buf` held before never reaches the tile.
    ///
    /// # Errors
    ///
    /// As [`slice_region`](Self::slice_region); `buf` is dropped.
    pub fn slice_region_into(
        &self,
        region: Region2,
        mut buf: Vec<f32>,
    ) -> Result<Tensor, TensorError> {
        if !self.region().contains(region) {
            return Err(TensorError::RowsOutOfRange {
                rows: if self.rows().contains(region.rows) {
                    region.cols
                } else {
                    region.rows
                },
                available: if self.rows().contains(region.rows) {
                    self.cols()
                } else {
                    self.rows()
                },
            });
        }
        let c = self.shape.channels;
        let (h, w) = (region.rows.len(), region.cols.len());
        buf.clear();
        buf.reserve_exact(c * h * w);
        for ch in 0..c {
            for r in region.rows.iter() {
                let local_r = r - self.row0;
                let local_c = region.cols.start - self.col0;
                let base = (ch * self.shape.height + local_r) * self.shape.width + local_c;
                buf.extend_from_slice(&self.data[base..base + w]);
            }
        }
        Ok(Tensor {
            shape: Shape::new(c, h, w),
            row0: region.rows.start,
            col0: region.cols.start,
            data: buf,
        })
    }

    /// Concatenates row tiles back into one contiguous map (the gather
    /// half of split/stitch). Tiles must be contiguous in row order and
    /// agree on channels/width; empty tiles are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::StitchMismatch`] on gaps, overlaps, or
    /// shape disagreement, and [`TensorError::Empty`] for no tiles.
    pub fn stitch_rows(tiles: &[Tensor]) -> Result<Tensor, TensorError> {
        let parts: Vec<&Tensor> = tiles.iter().filter(|t| t.shape.height > 0).collect();
        let first = parts.first().ok_or(TensorError::Empty)?;
        let (c, w) = (first.shape.channels, first.shape.width);
        let mut cursor = first.row0;
        let mut total_h = 0usize;
        for t in &parts {
            if t.col0 != first.col0 {
                return Err(TensorError::StitchMismatch {
                    detail: format!("tile col offset {} disagrees with {}", t.col0, first.col0),
                });
            }
            if t.shape.channels != c || t.shape.width != w {
                return Err(TensorError::StitchMismatch {
                    detail: format!("tile shape {} disagrees with {}x_x{w}", t.shape, c),
                });
            }
            if t.row0 != cursor {
                return Err(TensorError::StitchMismatch {
                    detail: format!("tile starts at row {} but cover reached {cursor}", t.row0),
                });
            }
            cursor += t.shape.height;
            total_h += t.shape.height;
        }
        let shape = Shape::new(c, total_h, w);
        let mut out = Tensor::zeros(shape);
        out.row0 = first.row0;
        out.col0 = first.col0;
        for ch in 0..c {
            let mut offset = 0usize;
            for t in &parts {
                let src = &t.data[ch * t.shape.height * w..(ch + 1) * t.shape.height * w];
                let dst_base = (ch * total_h + offset) * w;
                out.data[dst_base..dst_base + src.len()].copy_from_slice(src);
                offset += t.shape.height;
            }
        }
        Ok(out)
    }

    /// Concatenates column tiles (same rows, contiguous columns) into
    /// one band.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::StitchMismatch`] on gaps, overlaps, or
    /// row disagreement, and [`TensorError::Empty`] for no tiles.
    pub fn stitch_cols(tiles: &[Tensor]) -> Result<Tensor, TensorError> {
        let parts: Vec<&Tensor> = tiles.iter().filter(|t| t.shape.width > 0).collect();
        let first = parts.first().ok_or(TensorError::Empty)?;
        let (c, h) = (first.shape.channels, first.shape.height);
        let mut cursor = first.col0;
        let mut total_w = 0usize;
        for t in &parts {
            if t.shape.channels != c || t.shape.height != h || t.row0 != first.row0 {
                return Err(TensorError::StitchMismatch {
                    detail: format!(
                        "tile {} @r{} disagrees with {}x{h}x_ @r{}",
                        t.shape, t.row0, c, first.row0
                    ),
                });
            }
            if t.col0 != cursor {
                return Err(TensorError::StitchMismatch {
                    detail: format!("tile starts at col {} but cover reached {cursor}", t.col0),
                });
            }
            cursor += t.shape.width;
            total_w += t.shape.width;
        }
        let mut out = Tensor::zeros(Shape::new(c, h, total_w));
        out.row0 = first.row0;
        out.col0 = first.col0;
        for ch in 0..c {
            for r in 0..h {
                let mut offset = 0usize;
                for t in &parts {
                    let w = t.shape.width;
                    let src = &t.data[(ch * h + r) * w..(ch * h + r + 1) * w];
                    let dst = (ch * h + r) * total_w + offset;
                    out.data[dst..dst + w].copy_from_slice(src);
                    offset += w;
                }
            }
        }
        Ok(out)
    }

    /// Reassembles a row-major grid of tiles (`grid_cols` tiles per row
    /// band) into one map: each band is stitched along columns, then the
    /// bands along rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::StitchMismatch`] when the tiles do not
    /// tile a rectangle, and [`TensorError::Empty`] for no tiles.
    pub fn stitch_grid(tiles: &[Tensor], grid_cols: usize) -> Result<Tensor, TensorError> {
        if tiles.is_empty() || grid_cols == 0 {
            return Err(TensorError::Empty);
        }
        if !tiles.len().is_multiple_of(grid_cols) {
            return Err(TensorError::StitchMismatch {
                detail: format!("{} tiles do not form rows of {grid_cols}", tiles.len()),
            });
        }
        let bands: Vec<Tensor> = tiles
            .chunks(grid_cols)
            .map(Tensor::stitch_cols)
            .collect::<Result<_, _>>()?;
        Tensor::stitch_rows(&bands)
    }

    /// Reassembles arbitrary rectangular tiles into one map: tiles are
    /// sorted by (row, col) offset and grouped into row bands, the
    /// tiling is validated (each band contiguous along columns, the
    /// bands contiguous along rows and equally wide), then every tile
    /// row is written once into the output — no intermediate band
    /// tensors. Works for row strips (each its own band) and regular
    /// grids alike; [`stitch_grid`](Self::stitch_grid) is the
    /// band-by-band reference it is tested against.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::StitchMismatch`] when the tiles do not
    /// tile a rectangle, and [`TensorError::Empty`] for no tiles.
    pub fn stitch_tiles(tiles: &[Tensor]) -> Result<Tensor, TensorError> {
        Self::stitch_tiles_into(tiles, Vec::new())
    }

    /// [`stitch_tiles`](Self::stitch_tiles) into a caller-provided
    /// buffer: `buf` is cleared and refilled, so a caller holding a
    /// buffer of the map's size stitches without allocating. Whatever
    /// `buf` held before never reaches the map.
    ///
    /// # Errors
    ///
    /// As [`stitch_tiles`](Self::stitch_tiles); `buf` is dropped.
    pub fn stitch_tiles_into(tiles: &[Tensor], mut buf: Vec<f32>) -> Result<Tensor, TensorError> {
        let live = |t: &&Tensor| t.shape.height > 0 && t.shape.width > 0;
        let filler = tiles.iter().find(live).ok_or(TensorError::Empty)?;
        // The sort order lives on the stack for any stage up to
        // `STACK_TILES` shards, so a stitch allocates only its output.
        let n = tiles.iter().filter(live).count();
        let mut stack = [filler; STACK_TILES];
        let mut heap = Vec::new();
        let parts: &mut [&Tensor] = if n <= STACK_TILES {
            for (slot, t) in stack.iter_mut().zip(tiles.iter().filter(live)) {
                *slot = t;
            }
            &mut stack[..n]
        } else {
            heap.extend(tiles.iter().filter(live));
            &mut heap
        };
        parts.sort_by_key(|t| (t.row0, t.col0));
        let parts = &*parts;
        let first = parts[0];
        let (c, row0, col0) = (first.shape.channels, first.row0, first.col0);
        let same_band = |a: &&Tensor, b: &&Tensor| a.row0 == b.row0;
        let mismatch = |detail: String| Err(TensorError::StitchMismatch { detail });
        // The first band sets the cover's width; every band must match it.
        let total_w: usize = parts
            .iter()
            .take_while(|t| t.row0 == row0)
            .map(|t| t.shape.width)
            .sum();
        let mut total_h = 0usize;
        for band in parts.chunk_by(same_band) {
            let (h, top) = (band[0].shape.height, band[0].row0);
            if top != row0 + total_h {
                let reached = row0 + total_h;
                return mismatch(format!(
                    "band starts at row {top} but cover reached {reached}"
                ));
            }
            let mut cursor = col0;
            for t in band {
                if t.shape.channels != c || t.shape.height != h {
                    return mismatch(format!("tile {} @r{top} disagrees with {c}x{h}x_", t.shape));
                }
                if t.col0 != cursor {
                    return mismatch(format!(
                        "tile starts at col {} but cover reached {cursor}",
                        t.col0
                    ));
                }
                cursor += t.shape.width;
            }
            if cursor - col0 != total_w {
                let w = cursor - col0;
                return mismatch(format!(
                    "band @r{top} is {w} wide but the cover is {total_w}"
                ));
            }
            total_h += h;
        }
        // CHW order is channel → band → row → tile, so appending in that
        // order writes every output element exactly once.
        buf.clear();
        buf.reserve_exact(c * total_h * total_w);
        for ch in 0..c {
            for band in parts.chunk_by(same_band) {
                let h = band[0].shape.height;
                if let [strip] = band {
                    // A full-width tile's channel plane is already laid
                    // out as the output wants it.
                    buf.extend_from_slice(&strip.data[ch * h * total_w..(ch + 1) * h * total_w]);
                    continue;
                }
                for r in 0..h {
                    for t in band {
                        let w = t.shape.width;
                        buf.extend_from_slice(&t.data[(ch * h + r) * w..(ch * h + r + 1) * w]);
                    }
                }
            }
        }
        Ok(Tensor {
            shape: Shape::new(c, total_h, total_w),
            row0,
            col0,
            data: buf,
        })
    }

    /// Flattens to a CHW-ordered vector (consumes the tensor).
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Maximum absolute difference to another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tensor(c: usize, h: usize, w: usize) -> Tensor {
        let shape = Shape::new(c, h, w);
        Tensor::from_vec(shape, (0..shape.elements()).map(|i| i as f32).collect()).unwrap()
    }

    #[test]
    fn random_stream_is_pinned() {
        // Captured through the `rand` stand-in every golden and
        // benchmark input was generated with, before the generator
        // moved into `pico_model::rng`: the stream is part of the
        // repo's reproducibility contract.
        let t = Tensor::random(Shape::new(3, 8, 8), 7);
        let bits: Vec<u32> = t.data()[..8].iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits,
            [
                0xbe61a0f8, 0xbf776788, 0x3f4d3080, 0x3e29d758, 0xbdc2cc50, 0xbf004a84, 0xbd8343c0,
                0xbeb00ca8
            ]
        );
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(matches!(
            Tensor::from_vec(Shape::new(1, 2, 2), vec![0.0; 3]),
            Err(TensorError::DataLength {
                expected: 4,
                found: 3
            })
        ));
    }

    #[test]
    fn indexing_is_chw() {
        let t = seq_tensor(2, 3, 4);
        assert_eq!(t.at(0, 0, 0), 0.0);
        assert_eq!(t.at(0, 1, 2), 6.0);
        assert_eq!(t.at(1, 0, 0), 12.0);
    }

    #[test]
    fn slice_rows_keeps_offset() {
        let t = seq_tensor(2, 6, 3);
        let s = t.slice_rows(Rows::new(2, 5)).unwrap();
        assert_eq!(s.shape(), Shape::new(2, 3, 3));
        assert_eq!(s.row0(), 2);
        assert_eq!(s.at(0, 0, 0), t.at(0, 2, 0));
        assert_eq!(s.at_global(0, 2, 0), t.at(0, 2, 0));
        assert_eq!(s.at(1, 2, 2), t.at(1, 4, 2));
    }

    #[test]
    fn slice_rows_rejects_out_of_range() {
        let t = seq_tensor(1, 4, 2);
        assert!(t.slice_rows(Rows::new(2, 6)).is_err());
    }

    #[test]
    fn slice_of_slice_uses_global_rows() {
        let t = seq_tensor(1, 10, 2);
        let a = t.slice_rows(Rows::new(3, 9)).unwrap();
        let b = a.slice_rows(Rows::new(5, 7)).unwrap();
        assert_eq!(b.row0(), 5);
        assert_eq!(b.at(0, 0, 1), t.at(0, 5, 1));
    }

    #[test]
    fn stitch_roundtrips_split() {
        let t = seq_tensor(3, 8, 5);
        let parts: Vec<Tensor> = [Rows::new(0, 3), Rows::new(3, 4), Rows::new(4, 8)]
            .iter()
            .map(|r| t.slice_rows(*r).unwrap())
            .collect();
        assert_eq!(Tensor::stitch_rows(&parts).unwrap(), t);
    }

    #[test]
    fn stitch_rejects_gap() {
        let t = seq_tensor(1, 8, 2);
        let parts = vec![
            t.slice_rows(Rows::new(0, 3)).unwrap(),
            t.slice_rows(Rows::new(4, 8)).unwrap(),
        ];
        assert!(matches!(
            Tensor::stitch_rows(&parts),
            Err(TensorError::StitchMismatch { .. })
        ));
    }

    #[test]
    fn stitch_rejects_channel_mismatch() {
        let a = seq_tensor(1, 2, 2);
        let b = seq_tensor(2, 2, 2);
        assert!(Tensor::stitch_rows(&[a, b]).is_err());
    }

    #[test]
    fn stitch_skips_empty_tiles() {
        let t = seq_tensor(1, 4, 2);
        let parts = vec![
            t.slice_rows(Rows::new(0, 2)).unwrap(),
            t.slice_rows(Rows::new(2, 2)).unwrap(),
            t.slice_rows(Rows::new(2, 4)).unwrap(),
        ];
        assert_eq!(Tensor::stitch_rows(&parts).unwrap(), t);
    }

    #[test]
    fn stitch_empty_list_errors() {
        assert!(matches!(Tensor::stitch_rows(&[]), Err(TensorError::Empty)));
    }

    #[test]
    fn random_is_deterministic() {
        let a = Tensor::random(Shape::new(2, 3, 3), 9);
        let b = Tensor::random(Shape::new(2, 3, 3), 9);
        let c = Tensor::random(Shape::new(2, 3, 3), 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.data().iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn slice_region_keeps_both_offsets() {
        let t = seq_tensor(2, 6, 5);
        let r = t
            .slice_region(Region2::new(Rows::new(1, 4), Rows::new(2, 5)))
            .unwrap();
        assert_eq!(r.shape(), Shape::new(2, 3, 3));
        assert_eq!((r.row0(), r.col0()), (1, 2));
        assert_eq!(r.at(0, 0, 0), t.at(0, 1, 2));
        assert_eq!(r.at_global(1, 3, 4), t.at(1, 3, 4));
    }

    #[test]
    fn slice_region_rejects_out_of_bounds_cols() {
        let t = seq_tensor(1, 4, 4);
        assert!(t
            .slice_region(Region2::new(Rows::new(0, 2), Rows::new(2, 6)))
            .is_err());
    }

    #[test]
    fn grid_roundtrips_through_stitch_grid() {
        let t = seq_tensor(3, 9, 8);
        let regions = pico_model::grid_split_even(9, 8, 3, 2);
        let tiles: Vec<Tensor> = regions
            .iter()
            .map(|r| t.slice_region(*r).unwrap())
            .collect();
        let back = Tensor::stitch_grid(&tiles, 2).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn stitch_cols_rejects_row_mismatch() {
        let t = seq_tensor(1, 6, 6);
        let a = t
            .slice_region(Region2::new(Rows::new(0, 3), Rows::new(0, 3)))
            .unwrap();
        let b = t
            .slice_region(Region2::new(Rows::new(3, 6), Rows::new(3, 6)))
            .unwrap();
        assert!(Tensor::stitch_cols(&[a, b]).is_err());
    }

    #[test]
    fn stitch_grid_rejects_ragged_input() {
        let t = seq_tensor(1, 4, 4);
        let a = t.slice_rows(Rows::new(0, 2)).unwrap();
        let b = t.slice_rows(Rows::new(2, 4)).unwrap();
        let c = t.slice_rows(Rows::new(2, 4)).unwrap();
        assert!(matches!(
            Tensor::stitch_grid(&[a, b, c], 2),
            Err(TensorError::StitchMismatch { .. })
        ));
    }

    #[test]
    fn recycled_buffers_carry_nothing_stale() {
        let t = interior_window();
        let region = Region2::new(Rows::new(5, 12), Rows::new(4, 13));
        let fresh = t.slice_region(region).unwrap();
        let stale = vec![f32::NAN; 4 * fresh.data().len()];
        let ptr = stale.as_ptr();
        let reused = t.slice_region_into(region, stale).unwrap();
        assert_eq!(reused.data().as_ptr(), ptr, "the buffer was reused");
        assert_eq!(reused.region(), fresh.region());
        assert_eq!(reused.shape(), fresh.shape());
        let bits = |x: &Tensor| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&reused), bits(&fresh));
        // Out of bounds errs exactly as `slice_region` does.
        let outside = Region2::new(Rows::new(0, 4), Rows::new(4, 13));
        assert_eq!(
            t.slice_region_into(outside, vec![f32::NAN; 8]),
            t.slice_region(outside)
        );
        // Stitching into a stale, larger buffer reproduces the map.
        let tiles = cut(
            &t,
            &[Rows::new(3, 9), Rows::new(9, 16)],
            &[Rows::new(2, 15)],
        );
        let stale = vec![f32::NAN; 2 * t.data().len()];
        let stitched = Tensor::stitch_tiles_into(&tiles, stale).unwrap();
        assert_eq!(bits(&stitched), bits(&t));
        assert_eq!(stitched.region(), t.region());
    }

    #[test]
    fn stitch_tiles_handles_strips_and_grids_and_shuffles() {
        let t = seq_tensor(2, 12, 9);
        // Grid, deliberately out of order.
        let mut tiles: Vec<Tensor> = pico_model::grid_split_even(12, 9, 3, 3)
            .into_iter()
            .map(|r| t.slice_region(r).unwrap())
            .collect();
        tiles.reverse();
        tiles.swap(1, 5);
        assert_eq!(Tensor::stitch_tiles(&tiles).unwrap(), t);
        // Strips.
        let strips: Vec<Tensor> = pico_model::rows_split_even(Rows::full(12), 4)
            .into_iter()
            .map(|r| t.slice_rows(r).unwrap())
            .collect();
        assert_eq!(Tensor::stitch_tiles(&strips).unwrap(), t);
    }

    #[test]
    fn stitch_tiles_orders_more_tiles_than_fit_on_the_stack() {
        let t = seq_tensor(2, 12, 9);
        let mut tiles: Vec<Tensor> = pico_model::grid_split_even(12, 9, 6, 9)
            .into_iter()
            .map(|r| t.slice_region(r).unwrap())
            .collect();
        assert!(tiles.len() > STACK_TILES);
        tiles.reverse();
        assert_eq!(Tensor::stitch_tiles(&tiles).unwrap(), t);
    }

    /// An interior window of a larger map, so every tile carries a
    /// non-zero `row0`/`col0`.
    fn interior_window() -> Tensor {
        seq_tensor(3, 20, 17)
            .slice_region(Region2::new(Rows::new(3, 16), Rows::new(2, 15)))
            .unwrap()
    }

    fn cut(t: &Tensor, rows: &[Rows], cols: &[Rows]) -> Vec<Tensor> {
        let mut tiles = Vec::new();
        for &r in rows {
            for &c in cols {
                tiles.push(t.slice_region(Region2::new(r, c)).unwrap());
            }
        }
        tiles
    }

    #[test]
    fn one_pass_stitch_agrees_with_the_band_by_band_reference() {
        let t = interior_window();
        let full_cols = [Rows::new(2, 15)];
        let grids: [(&[Rows], &[Rows]); 3] = [
            // Strips: one tile per band.
            (
                &[Rows::new(3, 4), Rows::new(4, 11), Rows::new(11, 16)],
                &full_cols,
            ),
            // Uneven 2x3.
            (
                &[Rows::new(3, 12), Rows::new(12, 16)],
                &[Rows::new(2, 3), Rows::new(3, 10), Rows::new(10, 15)],
            ),
            // 4x4.
            (
                &[
                    Rows::new(3, 6),
                    Rows::new(6, 10),
                    Rows::new(10, 13),
                    Rows::new(13, 16),
                ],
                &[
                    Rows::new(2, 6),
                    Rows::new(6, 9),
                    Rows::new(9, 12),
                    Rows::new(12, 15),
                ],
            ),
        ];
        for (rows, cols) in grids {
            let tiles = cut(&t, rows, cols);
            let reference = Tensor::stitch_grid(&tiles, cols.len()).unwrap();
            assert_eq!(reference, t);
            assert_eq!(Tensor::stitch_tiles(&tiles).unwrap(), reference);
            // Order is not part of the contract: rotate and interleave.
            let mut shuffled = tiles.clone();
            shuffled.rotate_left(tiles.len() / 2 + 1);
            shuffled.reverse();
            shuffled.swap(0, tiles.len() - 1);
            assert_eq!(Tensor::stitch_tiles(&shuffled).unwrap(), reference);
            // Empty tiles are skipped wherever they sit.
            shuffled.insert(1, t.slice_rows(Rows::new(5, 5)).unwrap());
            assert_eq!(Tensor::stitch_tiles(&shuffled).unwrap(), reference);
        }
    }

    #[test]
    fn stitch_tiles_rejects_what_does_not_tile_a_rectangle() {
        let t = interior_window();
        let rows = [Rows::new(3, 8), Rows::new(8, 12), Rows::new(12, 16)];
        let cols = [Rows::new(2, 7), Rows::new(7, 11), Rows::new(11, 15)];
        let tiles = cut(&t, &rows, &cols);
        let mismatch = |tiles: &[Tensor], what: &str| {
            assert!(
                matches!(
                    Tensor::stitch_tiles(tiles),
                    Err(TensorError::StitchMismatch { .. })
                ),
                "{what}"
            );
        };

        let mut hole = tiles.clone();
        hole.remove(4);
        mismatch(&hole, "hole inside a band");

        mismatch(&[&tiles[..3], &tiles[6..]].concat(), "missing middle band");

        let mut ragged = tiles.clone();
        ragged.pop();
        mismatch(&ragged, "last band narrower than the cover");

        let mut shifted = tiles[..3].to_vec();
        shifted.extend(cut(&t, &rows[1..2], &[Rows::new(3, 8), Rows::new(8, 15)]));
        mismatch(&shifted, "band starting at another column");

        let mut channels = tiles.clone();
        channels[5] = seq_tensor(2, 20, 17)
            .slice_region(Region2::new(rows[1], cols[2]))
            .unwrap();
        mismatch(&channels, "channel disagreement");

        let mut heights = tiles.clone();
        heights[4] = t
            .slice_region(Region2::new(Rows::new(8, 11), cols[1]))
            .unwrap();
        mismatch(&heights, "height disagreement inside a band");

        assert!(matches!(Tensor::stitch_tiles(&[]), Err(TensorError::Empty)));
        let empties = [
            t.slice_rows(Rows::new(4, 4)).unwrap(),
            t.slice_region(Region2::new(rows[0], Rows::new(5, 5)))
                .unwrap(),
        ];
        assert!(matches!(
            Tensor::stitch_tiles(&empties),
            Err(TensorError::Empty)
        ));
    }

    #[test]
    fn max_abs_diff_zero_for_identical() {
        let a = seq_tensor(2, 2, 2);
        assert_eq!(a.max_abs_diff(&a.clone()), 0.0);
    }
}
