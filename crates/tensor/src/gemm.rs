//! Cache-blocked scalar f32 GEMM micro-kernels: the `Im2colGemm`
//! backend's, and the `Simd` backend's on hosts without AVX2.
//!
//! These are the inner kernels of the fast compute backend: plain-slice
//! routines with **no heap allocation and no panic shortcuts** (the
//! `cargo xtask lint` serving-path rule is extended to this file). All
//! buffers are provided by the caller, normally out of a
//! [`crate::Scratch`] pool.
//!
//! # Bit-exactness contract
//!
//! The reference kernels in `ops.rs` accumulate each output element as
//! `bias + Σ_p w[p]·x[p]` with `p` strictly ascending in a single f32
//! accumulator. Every routine here preserves that exact addition chain:
//! register tiling spreads *independent* output elements across
//! accumulators, but no per-element chain is ever split, reordered, or
//! fused (`mul_add` is deliberately not used). Padding slots enter the
//! im2col patch matrix as literal zeros, so the extra `acc += w * 0.0`
//! terms leave every value unchanged (weights are finite; `-0.0 == 0.0`
//! under IEEE comparison, which is what [`crate::Tensor`] equality
//! uses). The differential proptest suite in
//! `tests/backend_equivalence.rs` pins this down against the oracle.

/// Output channels per register tile.
const MR: usize = 4;
/// Output pixels per register tile — eight f32 lanes vectorize well on
/// both 128- and 256-bit SIMD units.
const NR: usize = 8;

/// `c[m×n] = relu?(bias ⊕ a[m×k] · b[k×n])`, row-major, all dense.
///
/// `a` is the weight panel (one row per output channel), `b` the im2col
/// patch matrix (one row per kernel position, one column per output
/// pixel), `bias` one value per output channel. `c` must hold `m * n`
/// elements; every element is written.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_bias_relu(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    m: usize,
    k: usize,
    n: usize,
    relu: bool,
    c: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(bias.len(), m);
    debug_assert_eq!(c.len(), m * n);

    let mut i = 0;
    while i + MR <= m {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let a2 = &a[(i + 2) * k..(i + 3) * k];
        let a3 = &a[(i + 3) * k..(i + 4) * k];
        let mut j = 0;
        while j + NR <= n {
            // 4×8 register tile: 32 independent accumulators, each
            // fed in ascending-p order from its bias.
            let mut acc = [[0.0f32; NR]; MR];
            for (r, row) in acc.iter_mut().enumerate() {
                *row = [bias[i + r]; NR];
            }
            for p in 0..k {
                let x = &b[p * n + j..p * n + j + NR];
                let (w0, w1, w2, w3) = (a0[p], a1[p], a2[p], a3[p]);
                for l in 0..NR {
                    acc[0][l] += w0 * x[l];
                    acc[1][l] += w1 * x[l];
                    acc[2][l] += w2 * x[l];
                    acc[3][l] += w3 * x[l];
                }
            }
            for (r, row) in acc.iter().enumerate() {
                let out = &mut c[(i + r) * n + j..(i + r) * n + j + NR];
                for l in 0..NR {
                    out[l] = if relu { row[l].max(0.0) } else { row[l] };
                }
            }
            j += NR;
        }
        // Rightmost partial pixel tile: scalar, same addition chains.
        for jj in j..n {
            let rows = [a0, a1, a2, a3];
            for (r, ar) in rows.iter().enumerate() {
                let mut acc = bias[i + r];
                for p in 0..k {
                    acc += ar[p] * b[p * n + jj];
                }
                c[(i + r) * n + jj] = if relu { acc.max(0.0) } else { acc };
            }
        }
        i += MR;
    }
    // Bottom partial channel tile: one row at a time.
    for ii in i..m {
        let ar = &a[ii * k..(ii + 1) * k];
        for jj in 0..n {
            let mut acc = bias[ii];
            for p in 0..k {
                acc += ar[p] * b[p * n + jj];
            }
            c[ii * n + jj] = if relu { acc.max(0.0) } else { acc };
        }
    }
}

/// `out[m] = relu?(bias ⊕ a[m×k] · x[k])` — the fully-connected case.
///
/// Four output rows share each load of `x`; every row's accumulation
/// chain is still `bias + Σ_p w[p]·x[p]` in ascending `p`.
pub(crate) fn gemv_bias_relu(
    a: &[f32],
    x: &[f32],
    bias: &[f32],
    m: usize,
    k: usize,
    relu: bool,
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(x.len(), k);
    debug_assert_eq!(bias.len(), m);
    debug_assert_eq!(out.len(), m);

    let mut i = 0;
    while i + MR <= m {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let a2 = &a[(i + 2) * k..(i + 3) * k];
        let a3 = &a[(i + 3) * k..(i + 4) * k];
        let mut acc = [bias[i], bias[i + 1], bias[i + 2], bias[i + 3]];
        for p in 0..k {
            let v = x[p];
            acc[0] += a0[p] * v;
            acc[1] += a1[p] * v;
            acc[2] += a2[p] * v;
            acc[3] += a3[p] * v;
        }
        for (r, v) in acc.iter().enumerate() {
            out[i + r] = if relu { v.max(0.0) } else { *v };
        }
        i += MR;
    }
    for ii in i..m {
        let ar = &a[ii * k..(ii + 1) * k];
        let mut acc = bias[ii];
        for p in 0..k {
            acc += ar[p] * x[p];
        }
        out[ii] = if relu { acc.max(0.0) } else { acc };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference chain the kernels must reproduce exactly.
    fn naive(
        a: &[f32],
        b: &[f32],
        bias: &[f32],
        m: usize,
        k: usize,
        n: usize,
        relu: bool,
    ) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = bias[i];
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = if relu { acc.max(0.0) } else { acc };
            }
        }
        c
    }

    fn series(len: usize, scale: f32, shift: f32) -> Vec<f32> {
        (0..len).map(|i| (i as f32).sin() * scale + shift).collect()
    }

    #[test]
    fn gemm_matches_naive_across_tile_edges() {
        // Dimensions straddling the 4×8 tile in every combination,
        // including degenerate 0/1 extents.
        for &m in &[1usize, 3, 4, 5, 8, 9] {
            for &k in &[1usize, 2, 7, 16] {
                for &n in &[1usize, 7, 8, 9, 16, 19] {
                    let a = series(m * k, 0.7, -0.1);
                    let b = series(k * n, 1.3, 0.2);
                    let bias = series(m, 0.5, 0.01);
                    for relu in [false, true] {
                        let mut c = vec![0.0; m * n];
                        gemm_bias_relu(&a, &b, &bias, m, k, n, relu, &mut c);
                        assert_eq!(c, naive(&a, &b, &bias, m, k, n, relu), "m={m} k={k} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn gemv_matches_naive() {
        for &m in &[1usize, 4, 6, 11] {
            for &k in &[1usize, 3, 9, 32] {
                let a = series(m * k, 0.9, 0.05);
                let x = series(k, 1.1, -0.3);
                let bias = series(m, 0.2, 0.0);
                for relu in [false, true] {
                    let mut out = vec![0.0; m];
                    gemv_bias_relu(&a, &x, &bias, m, k, relu, &mut out);
                    let full = naive(&a, &x, &bias, m, k, 1, relu);
                    assert_eq!(out, full, "m={m} k={k}");
                }
            }
        }
    }

    #[test]
    fn every_remainder_modulus_of_the_4x8_block_is_exact() {
        // Exhaustive residue sweep: m ≡ 0..3 (mod MR) by n ≡ 0..7
        // (mod NR), so each combination of full-tile, partial-row, and
        // partial-column paths runs at least once — including the
        // all-remainder corner (m < 4 and n < 8 simultaneously).
        let k = 5;
        for rm in 0..MR {
            for rn in 0..NR {
                for (m, n) in [(MR + rm, 2 * NR + rn), (rm.max(1), rn.max(1))] {
                    let a = series(m * k, 0.8, -0.2);
                    let b = series(k * n, 1.1, 0.3);
                    let bias = series(m, 0.4, -0.05);
                    let mut c = vec![0.0; m * n];
                    gemm_bias_relu(&a, &b, &bias, m, k, n, true, &mut c);
                    assert_eq!(c, naive(&a, &b, &bias, m, k, n, true), "m={m} k={k} n={n}");
                }
            }
        }
    }

    #[test]
    fn prime_dimensions_hit_no_full_tile_boundary() {
        // 13×31×23: nothing divides MR or NR, so the kernel runs
        // mostly remainder code — still bit-exact against the oracle.
        let (m, k, n) = (13, 31, 23);
        let a = series(m * k, 0.6, 0.02);
        let b = series(k * n, 0.9, -0.15);
        let bias = series(m, 0.3, 0.1);
        for relu in [false, true] {
            let mut c = vec![0.0; m * n];
            gemm_bias_relu(&a, &b, &bias, m, k, n, relu, &mut c);
            assert_eq!(c, naive(&a, &b, &bias, m, k, n, relu));
        }
    }

    #[test]
    fn dirty_output_buffer_is_fully_overwritten() {
        // Scratch pools recycle buffers without zeroing; every element
        // of `c` must be written, so NaN poison cannot survive.
        let (m, k, n) = (6, 3, 11);
        let a = series(m * k, 1.0, 0.0);
        let b = series(k * n, 1.0, 0.5);
        let bias = series(m, 0.1, 0.0);
        let mut c = vec![f32::NAN; m * n];
        gemm_bias_relu(&a, &b, &bias, m, k, n, false, &mut c);
        assert!(c.iter().all(|v| v.is_finite()));
        assert_eq!(c, naive(&a, &b, &bias, m, k, n, false));
        let mut out = vec![f32::NAN; m];
        gemv_bias_relu(&a, &b[..k], &bias, m, k, false, &mut out);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn zero_k_yields_bias() {
        let bias = [1.5f32, -2.0];
        let mut c = vec![0.0; 2 * 3];
        gemm_bias_relu(&[], &[], &bias, 2, 0, 3, false, &mut c);
        assert_eq!(c, [1.5, 1.5, 1.5, -2.0, -2.0, -2.0]);
        let mut v = vec![0.0; 2];
        gemv_bias_relu(&[], &[], &bias, 2, 0, true, &mut v);
        assert_eq!(v, [1.5, 0.0]);
    }
}
