//! Scratch-buffer pool and im2col lowering for the fast backends.
//!
//! A [`Scratch`] owns every transient buffer the im2col backends
//! (`Simd`, the default, plus `Im2colGemm` and `Int8`) need: the im2col
//! patch matrix plus a small pool of recycled output buffers. Kernels borrow from it instead of allocating, so a worker
//! that keeps one `Scratch` across its task stream reaches a steady
//! state where inference performs **no heap allocations** beyond the
//! result tensor it hands back — and callers that return even that
//! buffer via [`Scratch::give`] allocate nothing at all (asserted by
//! the counting-allocator regression test).
//!
//! Lifetime rules: a `Scratch` is plain mutable state — one per thread,
//! borrowed for the duration of a single inference call. Buffers only
//! ever grow; [`Scratch::new`] performs no allocation.

use pico_model::{ConvSpec, PoolKind, PoolSpec, Region2, Shape};

use crate::gemm;
use crate::ops;
use crate::quant;
use crate::simd;
use crate::weights::QuantizedLayer;
use crate::{LayerWeights, Tensor, TensorError};

/// Upper bound on pooled buffers; beyond this, returned buffers are
/// dropped. A pipeline worker touches one segment (a handful of layers),
/// so the pool stays small.
const POOL_CAP: usize = 8;

/// Reusable buffers for the im2col backends (one per thread).
#[derive(Debug, Default)]
pub struct Scratch {
    /// The im2col patch matrix (`k × pixels`, row-major), reused and
    /// regrown across layers and tasks.
    patches: Vec<f32>,
    /// Quantized mirror of `patches` for the `Int8` backend, reused
    /// the same way.
    qpatches: Vec<i8>,
    /// Recycled output/staging buffers, returned by finished layers and
    /// handed out to the next one.
    pool: Vec<Vec<f32>>,
    /// Recycled per-layer region trace, reused across inference calls.
    trace: Vec<Region2>,
    /// Recycled graph-block bookkeeping, reused across blocks and calls.
    block: BlockBufs,
}

/// The bookkeeping one graph block keeps while its paths run: one
/// path's forward shapes and backward regions, and every finished
/// path's output. Moved out of the pool for the block's duration (see
/// [`Scratch::take_block`]).
#[derive(Debug, Default)]
pub(crate) struct BlockBufs {
    pub(crate) shapes: Vec<Shape>,
    pub(crate) regions: Vec<Region2>,
    pub(crate) outputs: Vec<Tensor>,
}

impl Scratch {
    /// Creates an empty scratch pool. Allocation-free; buffers grow on
    /// first use and are reused afterwards.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Takes a zeroed buffer of exactly `len` elements, reusing pooled
    /// capacity when any fits (smallest adequate wins; otherwise the
    /// largest is grown).
    pub(crate) fn take(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_empty(len);
        buf.resize(len, 0.0);
        buf
    }

    /// Takes an empty buffer with room for `len` elements, picked as
    /// [`take`](Self::take) picks, for a caller that fills it by
    /// appending.
    pub(crate) fn take_empty(&mut self, len: usize) -> Vec<f32> {
        let pick = self
            .pool
            .iter()
            .enumerate()
            .filter(|(_, v)| v.capacity() >= len)
            .min_by_key(|(_, v)| v.capacity())
            .or_else(|| {
                self.pool
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, v)| v.capacity())
            })
            .map(|(i, _)| i);
        let mut buf = match pick {
            Some(i) => self.pool.swap_remove(i),
            None => Vec::new(),
        };
        buf.clear();
        buf.reserve(len);
        buf
    }

    /// Returns a buffer to the pool for reuse by later layers/tasks.
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 && self.pool.len() < POOL_CAP {
            self.pool.push(buf);
        }
    }

    /// The patch matrix resized to `len` elements (contents arbitrary —
    /// the im2col fill overwrites every slot).
    fn patches_mut(&mut self, len: usize) -> &mut [f32] {
        if self.patches.len() < len {
            self.patches.resize(len, 0.0);
        }
        &mut self.patches[..len]
    }

    /// The quantized patch matrix resized to `len` elements (contents
    /// arbitrary — the quantize pass overwrites every slot).
    fn qpatches_mut(&mut self, len: usize) -> &mut [i8] {
        if self.qpatches.len() < len {
            self.qpatches.resize(len, 0);
        }
        &mut self.qpatches[..len]
    }

    /// Both patch matrices at once (f32 source + i8 destination), for
    /// the quantize step that reads one and writes the other.
    fn patches_and_qpatches(&mut self, len: usize) -> (&[f32], &mut [i8]) {
        if self.patches.len() < len {
            self.patches.resize(len, 0.0);
        }
        if self.qpatches.len() < len {
            self.qpatches.resize(len, 0);
        }
        (&self.patches[..len], &mut self.qpatches[..len])
    }

    /// Moves the pooled region-trace buffer out for the duration of one
    /// inference call (pair with [`Scratch::give_trace`]).
    pub(crate) fn take_trace(&mut self) -> Vec<Region2> {
        std::mem::take(&mut self.trace)
    }

    /// Returns the region-trace buffer so later calls reuse its
    /// capacity.
    pub(crate) fn give_trace(&mut self, trace: Vec<Region2>) {
        self.trace = trace;
    }

    /// Moves the block bookkeeping out for one graph block (pair with
    /// [`Scratch::give_block`]).
    pub(crate) fn take_block(&mut self) -> BlockBufs {
        std::mem::take(&mut self.block)
    }

    /// Returns the block bookkeeping, handing its path outputs' buffers
    /// back to the pool.
    pub(crate) fn give_block(&mut self, mut block: BlockBufs) {
        for t in block.outputs.drain(..) {
            self.give(t.into_vec());
        }
        self.block = block;
    }
}

/// Fast convolution: im2col lowering + blocked GEMM, one group at a
/// time. Checks and error variants mirror `ops::conv_region` exactly.
/// `simd` picks the micro-kernel (scalar or SIMD — both bit-identical).
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_region(
    input: &Tensor,
    in_shape: Shape,
    spec: &ConvSpec,
    weights: &LayerWeights,
    out: Region2,
    relu: bool,
    simd: bool,
    scratch: &mut Scratch,
) -> Result<Tensor, TensorError> {
    if input.shape().channels != spec.in_channels {
        return Err(TensorError::ShapeMismatch {
            op: "conv".to_owned(),
            expected: Shape::new(spec.in_channels, in_shape.height, in_shape.width),
            found: input.shape(),
        });
    }
    ops::require_region(
        input,
        ops::receptive(out, spec.kernel, spec.stride, spec.padding, in_shape),
    )?;

    let (kh, kw) = spec.kernel;
    let in_per_group = spec.in_per_group();
    let out_per_group = spec.out_channels / spec.groups;
    let n = out.area();
    let k = in_per_group * kh * kw;

    let kernel = if simd {
        simd::gemm_bias_relu
    } else {
        gemm::gemm_bias_relu
    };
    let mut data = scratch.take(spec.out_channels * n);
    let patches = scratch.patches_mut(k * n);
    for g in 0..spec.groups {
        im2col(input, in_shape, spec, g * in_per_group, out, patches);
        let oc0 = g * out_per_group;
        kernel(
            &weights.kernel[oc0 * k..(oc0 + out_per_group) * k],
            patches,
            &weights.bias[oc0..oc0 + out_per_group],
            out_per_group,
            k,
            n,
            relu,
            &mut data[oc0 * n..(oc0 + out_per_group) * n],
        );
    }
    Tensor::from_parts(
        Shape::new(spec.out_channels, out.rows.len(), out.cols.len()),
        out.rows.start,
        out.cols.start,
        data,
    )
}

/// Int8 convolution: f32 im2col, quantize patches with the layer's
/// static activation scale, integer GEMM, dequantize per channel.
///
/// Because the activation scale is static (calibration-time), every
/// element quantizes identically whether it appears in a full map or
/// any region tile — so int8 split/stitch is bit-exactly
/// self-consistent, even though it only tracks f32 within the
/// documented tolerance.
pub(crate) fn conv_region_q(
    input: &Tensor,
    in_shape: Shape,
    spec: &ConvSpec,
    q: &QuantizedLayer,
    out: Region2,
    relu: bool,
    scratch: &mut Scratch,
) -> Result<Tensor, TensorError> {
    if input.shape().channels != spec.in_channels {
        return Err(TensorError::ShapeMismatch {
            op: "conv".to_owned(),
            expected: Shape::new(spec.in_channels, in_shape.height, in_shape.width),
            found: input.shape(),
        });
    }
    ops::require_region(
        input,
        ops::receptive(out, spec.kernel, spec.stride, spec.padding, in_shape),
    )?;

    let (kh, kw) = spec.kernel;
    let in_per_group = spec.in_per_group();
    let out_per_group = spec.out_channels / spec.groups;
    let n = out.area();
    let k = in_per_group * kh * kw;

    let mut data = scratch.take(spec.out_channels * n);
    for g in 0..spec.groups {
        let patches = scratch.patches_mut(k * n);
        im2col(input, in_shape, spec, g * in_per_group, out, patches);
        let oc0 = g * out_per_group;
        // Split borrows: `patches`/`qpatches` live in the same Scratch.
        let (patches, qpatches) = scratch.patches_and_qpatches(k * n);
        quant::quantize_into(patches, q.in_scale, qpatches);
        quant::gemm_i8_bias_relu(
            &q.kernel[oc0 * k..(oc0 + out_per_group) * k],
            qpatches,
            &q.bias[oc0..oc0 + out_per_group],
            &q.dequant[oc0..oc0 + out_per_group],
            out_per_group,
            k,
            n,
            relu,
            &mut data[oc0 * n..(oc0 + out_per_group) * n],
        );
    }
    Tensor::from_parts(
        Shape::new(spec.out_channels, out.rows.len(), out.cols.len()),
        out.rows.start,
        out.cols.start,
        data,
    )
}

/// Fills `patches[(ic·kh+kr)·kw+kc][pixel]` with the input value each
/// output pixel's kernel slot reads — zero for padding — in the exact
/// (ic, kr, kc) order the reference accumulation walks.
///
/// For each kernel slot the output columns split into three runs: one
/// that reads left padding, one that reads the map and one that reads
/// right padding. The runs are worked out once per (ic, kr, kc), so an
/// output row is two zero fills around one copy of the input row (a
/// `copy_from_slice` at unit stride, a strided walk otherwise), with no
/// per-pixel bounds test.
fn im2col(
    input: &Tensor,
    in_shape: Shape,
    spec: &ConvSpec,
    ic_base: usize,
    out: Region2,
    patches: &mut [f32],
) {
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let n = out.area();
    let width = out.cols.len();
    let tile = input.shape();
    let (row0, col0) = (input.row0(), input.col0());
    let data = input.data();
    let in_per_group = spec.in_per_group();
    if n == 0 {
        return;
    }

    for ic in 0..in_per_group {
        let ch = ic_base + ic;
        for kr in 0..kh {
            for kc in 0..kw {
                // Output column `col` reads input column `col·sw + kc − pw`,
                // which lies inside the map exactly for `col` in [lo, hi).
                let lo = pw.saturating_sub(kc).div_ceil(sw);
                let hi = (in_shape.width + pw).saturating_sub(kc).div_ceil(sw);
                let lo = lo.clamp(out.cols.start, out.cols.end);
                let hi = hi.clamp(lo, out.cols.end);
                let (left, inside) = (lo - out.cols.start, hi - lo);
                // The run's tile-local first read and the span of input
                // columns it walks (an empty run reads nothing).
                let (first, span) = match inside {
                    0 => (0, 0),
                    _ => (lo * sw + kc - pw - col0, (inside - 1) * sw + 1),
                };
                let dst = &mut patches[((ic * kh + kr) * kw + kc) * n..][..n];
                for (r, dst_row) in out.rows.iter().zip(dst.chunks_exact_mut(width)) {
                    let gr = (r * sh + kr).wrapping_sub(ph);
                    if gr >= in_shape.height {
                        // Entire output row reads zero padding.
                        dst_row.fill(0.0);
                        continue;
                    }
                    let row = &data[(ch * tile.height + (gr - row0)) * tile.width..][..tile.width];
                    let src = &row[first..first + span];
                    let (pad_left, rest) = dst_row.split_at_mut(left);
                    let (run, pad_right) = rest.split_at_mut(inside);
                    pad_left.fill(0.0);
                    if sw == 1 {
                        run.copy_from_slice(src);
                    } else {
                        for (d, s) in run.iter_mut().zip(src.iter().step_by(sw)) {
                            *d = *s;
                        }
                    }
                    pad_right.fill(0.0);
                }
            }
        }
    }
}

/// Fast pooling: identical window walk to `ops::pool_region` (same skip
/// conditions, same accumulation order) writing straight into a pooled
/// buffer through direct row slices.
pub(crate) fn pool_region(
    input: &Tensor,
    in_shape: Shape,
    spec: &PoolSpec,
    out: Region2,
    scratch: &mut Scratch,
) -> Result<Tensor, TensorError> {
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let c = input.shape().channels;
    ops::require_region(
        input,
        ops::receptive(out, spec.kernel, spec.stride, spec.padding, in_shape),
    )?;

    let tile = input.shape();
    let (row0, col0) = (input.row0(), input.col0());
    let src = input.data();
    let mut data = scratch.take(c * out.area());
    let mut idx = 0;
    for ch in 0..c {
        let plane = &src[ch * tile.height * tile.width..][..tile.height * tile.width];
        for r in out.rows.iter() {
            for col in out.cols.iter() {
                let mut best = f32::NEG_INFINITY;
                let mut sum = 0.0;
                for kr in 0..kh {
                    let gr = (r * sh + kr).wrapping_sub(ph);
                    if gr >= in_shape.height {
                        continue;
                    }
                    let row = &plane[(gr - row0) * tile.width..][..tile.width];
                    for kc in 0..kw {
                        let gc = (col * sw + kc).wrapping_sub(pw);
                        if gc >= in_shape.width {
                            continue;
                        }
                        let v = row[gc - col0];
                        match spec.kind {
                            PoolKind::Max => best = best.max(v),
                            PoolKind::Avg => sum += v,
                        }
                    }
                }
                data[idx] = match spec.kind {
                    PoolKind::Max => {
                        if best == f32::NEG_INFINITY {
                            0.0
                        } else {
                            best
                        }
                    }
                    PoolKind::Avg => sum / (kh * kw) as f32,
                };
                idx += 1;
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

/// Fast fully-connected layer: blocked GEMV into a pooled buffer, on
/// the `simd.rs` kernel when `simd` is set (bit-identical to scalar).
/// Checks and error variants mirror `ops::fc_full` exactly.
pub(crate) fn fc_full(
    input: &Tensor,
    in_features: usize,
    out_features: usize,
    weights: &LayerWeights,
    relu: bool,
    simd: bool,
    scratch: &mut Scratch,
) -> Result<Tensor, TensorError> {
    if input.shape().elements() != in_features || input.row0() != 0 || input.col0() != 0 {
        return Err(TensorError::ShapeMismatch {
            op: "fc".to_owned(),
            expected: Shape::new(in_features, 1, 1),
            found: input.shape(),
        });
    }
    let mut data = scratch.take(out_features);
    let kernel = if simd {
        simd::gemv_bias_relu
    } else {
        gemm::gemv_bias_relu
    };
    kernel(
        &weights.kernel,
        input.data(),
        &weights.bias,
        out_features,
        in_features,
        relu,
        &mut data,
    );
    Tensor::from_parts(Shape::new(out_features, 1, 1), 0, 0, data)
}

/// Int8 fully-connected layer: quantize the input vector with the
/// layer's static scale, integer GEMV, dequantize per output feature.
/// Checks and error variants mirror `ops::fc_full` exactly.
pub(crate) fn fc_full_q(
    input: &Tensor,
    in_features: usize,
    out_features: usize,
    q: &QuantizedLayer,
    relu: bool,
    scratch: &mut Scratch,
) -> Result<Tensor, TensorError> {
    if input.shape().elements() != in_features || input.row0() != 0 || input.col0() != 0 {
        return Err(TensorError::ShapeMismatch {
            op: "fc".to_owned(),
            expected: Shape::new(in_features, 1, 1),
            found: input.shape(),
        });
    }
    let mut data = scratch.take(out_features);
    let x_q = scratch.qpatches_mut(in_features);
    quant::quantize_into(input.data(), q.in_scale, x_q);
    quant::gemv_i8_bias_relu(&q.kernel, x_q, &q.bias, &q.dequant, relu, &mut data);
    Tensor::from_parts(Shape::new(out_features, 1, 1), 0, 0, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_pooled_capacity() {
        let mut s = Scratch::new();
        let mut buf = s.take(64);
        buf[0] = 7.0;
        let ptr = buf.as_ptr();
        s.give(buf);
        // A smaller request reuses the same backing store, zeroed.
        let again = s.take(32);
        assert_eq!(again.as_ptr(), ptr);
        assert!(again.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn take_prefers_smallest_adequate_buffer() {
        let mut s = Scratch::new();
        let small = s.take(16);
        let big = s.take(1024);
        let small_ptr = small.as_ptr();
        s.give(big);
        s.give(small);
        let reused = s.take(10);
        assert_eq!(reused.as_ptr(), small_ptr);
        let mut s2 = Scratch::new();
        let small2 = s2.take(16);
        let sp2 = small2.as_ptr();
        s2.give(small2);
        // Nothing fits 64: the largest pooled buffer is grown in place
        // of a fresh allocation.
        let grown = s2.take(64);
        assert!(grown.len() == 64 && (grown.capacity() >= 64 || grown.as_ptr() != sp2));
    }

    #[test]
    fn pool_is_bounded() {
        let mut s = Scratch::new();
        for _ in 0..2 * POOL_CAP {
            let buf = s.take(8);
            s.give(buf);
            let extra = vec![0.0f32; 8];
            s.give(extra);
        }
        assert!(s.pool.len() <= POOL_CAP);
    }
}
