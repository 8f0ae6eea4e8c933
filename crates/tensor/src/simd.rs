//! Explicitly vectorized f32 GEMM and GEMV kernels for the `Simd`
//! backend.
//!
//! On x86_64 with AVX2 (runtime-detected, cached):
//!
//! - **GEMM** (convolutions, via im2col) runs a packed, K-blocked 4×16
//!   register tile. For each 16-column slice of `b`, a `KC`-deep panel
//!   is copied into a 32-byte-aligned stack array, with the columns
//!   past `n` zero-padded so the column tail stays vectorized. Four
//!   rows × two `f32x8` vectors give eight accumulators, one output
//!   pixel per lane; a 1-row tile takes the `m % 4` rows.
//! - **GEMV** (fully-connected layers) produces 16 output rows per
//!   pass. Each 8×8 block of weights is transposed in registers, so
//!   lane `r` of an accumulator is output row `r`. Each lane finishes
//!   its row's `k % 8` tail in scalar; the `m % 16` rows run the scalar
//!   kernel.
//!
//! Everywhere else — or when the feature probe fails — both fall back to
//! the portable scalar kernels of `gemm.rs`.
//!
//! # Bit-exactness contract
//!
//! Both kernels preserve the reference addition chain
//! `bias + Σ_p w[p]·x[p]` (ascending `p`, one accumulator) **per
//! lane**: lanes are independent output elements, and `_mm256_mul_ps`
//! then `_mm256_add_ps` round each step exactly like the scalar `w * x`
//! then `acc + t` (no FMA — `_mm256_fmadd_ps` is deliberately not
//! used, for the same reason `mul_add` is banned in `gemm.rs`). The
//! GEMM stores each element's partial sum into `c` after a K block and
//! reloads it for the next; storing and reloading an f32 is exact, so
//! the chain is unbroken, and ReLU is applied only after the last
//! block. Zero-padded panel columns feed lanes that are never stored.
//! `_mm256_max_ps(acc, 0)` matches `f32::max(0.0)` on every finite
//! value the engine produces. The differential battery in
//! `tests/backend_equivalence.rs` holds `Simd` bit-identical to
//! `Reference` on every shape, including the tile and block edges.
//!
//! This file is `unsafe`-bearing (`std::arch` loads and stores require
//! it) and is policed by xtask lint rule 10: unsafe is confined to
//! `simd.rs`, every `unsafe` needs a `SAFETY:` comment, and
//! the kernel-hot-path rule (no allocation, no `unwrap`/`expect`)
//! applies.
#![allow(unsafe_code)]

use crate::gemm;

/// Output channels per GEMM register tile.
#[cfg(target_arch = "x86_64")]
const MR: usize = 4;
/// Columns per packed `b` panel — two AVX2 `f32x8` vectors.
#[cfg(target_arch = "x86_64")]
const NR: usize = 16;
/// Depth of one packed panel (the K block): `KC × NR` f32 is 16 KiB,
/// which stays in L1 while every row tile streams past it.
#[cfg(target_arch = "x86_64")]
const KC: usize = 256;
/// Output rows per GEMV pass — two transposed groups of eight.
#[cfg(target_arch = "x86_64")]
const GEMV_ROWS: usize = 16;

/// Whether the vector path is available on this machine.
///
/// The probe runs once and is cached; the result is stable for the
/// process lifetime, so dispatch is branch-predicted free after the
/// first call.
pub(crate) fn vector_path_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::atomic::{AtomicU8, Ordering};
        // 0 = unprobed, 1 = unavailable, 2 = available.
        static PROBE: AtomicU8 = AtomicU8::new(0);
        match PROBE.load(Ordering::Relaxed) {
            2 => true,
            1 => false,
            _ => {
                let avail = std::arch::is_x86_feature_detected!("avx2");
                PROBE.store(if avail { 2 } else { 1 }, Ordering::Relaxed);
                avail
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `c[m×n] = relu?(bias ⊕ a[m×k] · b[k×n])` — the `Simd` backend's
/// GEMM. Vectorized when AVX2 is present, otherwise the portable
/// scalar kernel; both produce bit-identical results.
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

    #[cfg(target_arch = "x86_64")]
    if vector_path_available() {
        // SAFETY: the AVX2 probe above just confirmed the target
        // feature is present on this CPU, which is the only
        // precondition of the `target_feature(enable = "avx2")` fn.
        unsafe { gemm_avx2(a, b, bias, m, k, n, relu, c) };
        return;
    }
    gemm::gemm_bias_relu(a, b, bias, m, k, n, relu, c);
}

/// `out[m] = relu?(bias ⊕ a[m×k] · x[k])` — the `Simd` backend's
/// fully-connected GEMV. Vectorized when AVX2 is present, otherwise the
/// portable scalar kernel; both produce bit-identical results.
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

    #[cfg(target_arch = "x86_64")]
    if vector_path_available() {
        // SAFETY: as in `gemm_bias_relu` — AVX2 was just probed.
        unsafe { gemv_avx2(a, x, bias, m, k, relu, out) };
        return;
    }
    gemm::gemv_bias_relu(a, x, bias, m, k, relu, out);
}

/// One packed `KC × NR` slice of `b`, row-major, aligned for
/// `_mm256_load_ps`.
#[cfg(target_arch = "x86_64")]
#[repr(C, align(32))]
struct Panel([f32; KC * NR]);

/// Where a packed panel sits in the GEMM: its columns `j0..j0 + w` of
/// `b`/`c` and its depth `p0..p0 + kc`.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Block {
    j0: usize,
    w: usize,
    p0: usize,
    kc: usize,
}

/// The packed AVX2 GEMM. Walks K in `KC`-deep blocks, ascending; within
/// a block, each 16-column slice of `b` is packed into the panel and
/// every row tile accumulates it into its partial sums in `c`. K is
/// the outer loop so `a`'s `m × KC` block stays cache-resident across
/// the slices.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn gemm_avx2(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    m: usize,
    k: usize,
    n: usize,
    relu: bool,
    c: &mut [f32],
) {
    let mut panel = Panel([0.0; KC * NR]);
    // `k == 0` still runs one empty block, which writes the bias.
    let mut p0 = 0;
    loop {
        let kc = KC.min(k - p0);
        let (first, last) = (p0 == 0, p0 + kc == k);
        let mut j0 = 0;
        while j0 < n {
            let w = NR.min(n - j0);
            for (p, dst) in panel.0.chunks_exact_mut(NR).take(kc).enumerate() {
                dst[..w].copy_from_slice(&b[(p0 + p) * n + j0..][..w]);
                dst[w..].fill(0.0);
            }
            let blk = Block { j0, w, p0, kc };
            let mut i = 0;
            while i + MR <= m {
                tile::<MR>(a, k, i, &panel, blk, bias, first, last && relu, n, c);
                i += MR;
            }
            while i < m {
                tile::<1>(a, k, i, &panel, blk, bias, first, last && relu, n, c);
                i += 1;
            }
            j0 += NR;
        }
        p0 += kc;
        if p0 >= k {
            break;
        }
    }
}

/// One `R × 16` register tile over one packed block: rows `i..i + R`
/// of `c`, columns `blk.j0..blk.j0 + blk.w`. The first block starts
/// from the bias, later ones from the partial sums stored in `c`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn tile<const R: usize>(
    a: &[f32],
    k: usize,
    i: usize,
    panel: &Panel,
    blk: Block,
    bias: &[f32],
    first: bool,
    relu: bool,
    n: usize,
    c: &mut [f32],
) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_load_ps, _mm256_max_ps, _mm256_mul_ps, _mm256_set1_ps,
        _mm256_setzero_ps,
    };

    let mut acc = [[_mm256_setzero_ps(); 2]; R];
    let mut rows: [&[f32]; R] = [&[]; R];
    for (r, (acc, row)) in acc.iter_mut().zip(&mut rows).enumerate() {
        *row = &a[(i + r) * k + blk.p0..][..blk.kc];
        *acc = if first {
            let v = _mm256_set1_ps(bias[i + r]);
            [v, v]
        } else {
            load16(&c[(i + r) * n + blk.j0..][..blk.w])
        };
    }
    for (p, x) in panel.0.chunks_exact(NR).take(blk.kc).enumerate() {
        // SAFETY: `x` holds NR = 16 floats starting a multiple of 16
        // floats into the 32-byte-aligned panel, so both loads are in
        // bounds and aligned.
        let (x0, x1) = unsafe {
            (
                _mm256_load_ps(x.as_ptr()),
                _mm256_load_ps(x.as_ptr().add(8)),
            )
        };
        for (acc, row) in acc.iter_mut().zip(&rows) {
            let wv = _mm256_set1_ps(row[p]);
            acc[0] = _mm256_add_ps(acc[0], _mm256_mul_ps(wv, x0));
            acc[1] = _mm256_add_ps(acc[1], _mm256_mul_ps(wv, x1));
        }
    }
    let zero = _mm256_setzero_ps();
    for (r, v) in acc.iter().enumerate() {
        let v = if relu {
            [_mm256_max_ps(v[0], zero), _mm256_max_ps(v[1], zero)]
        } else {
            *v
        };
        store16(&mut c[(i + r) * n + blk.j0..][..blk.w], v);
    }
}

/// Loads up to 16 floats into two vectors; lanes past `src.len()` are
/// zero.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn load16(src: &[f32]) -> [std::arch::x86_64::__m256; 2] {
    use std::arch::x86_64::_mm256_loadu_ps;
    let mut buf = [0.0f32; NR];
    let from = if src.len() == NR {
        src
    } else {
        buf[..src.len()].copy_from_slice(src);
        &buf
    };
    // SAFETY: `from` holds exactly NR = 16 floats.
    unsafe {
        [
            _mm256_loadu_ps(from.as_ptr()),
            _mm256_loadu_ps(from.as_ptr().add(8)),
        ]
    }
}

/// Stores the first `dst.len()` (≤ 16) lanes of two vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn store16(dst: &mut [f32], v: [std::arch::x86_64::__m256; 2]) {
    use std::arch::x86_64::_mm256_storeu_ps;
    if dst.len() == NR {
        // SAFETY: `dst` holds exactly NR = 16 floats.
        unsafe {
            _mm256_storeu_ps(dst.as_mut_ptr(), v[0]);
            _mm256_storeu_ps(dst.as_mut_ptr().add(8), v[1]);
        }
    } else {
        let mut buf = [0.0f32; NR];
        // SAFETY: `buf` holds exactly NR = 16 floats.
        unsafe {
            _mm256_storeu_ps(buf.as_mut_ptr(), v[0]);
            _mm256_storeu_ps(buf.as_mut_ptr().add(8), v[1]);
        }
        let len = dst.len();
        dst.copy_from_slice(&buf[..len]);
    }
}

/// The AVX2 GEMV: 16 output rows per pass, as two groups of eight.
/// Each group's 8×8 weight blocks are transposed in registers, so lane
/// `r` accumulates row `r` in ascending `p`. Leftover rows run the
/// scalar kernel.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemv_avx2(a: &[f32], x: &[f32], bias: &[f32], m: usize, k: usize, relu: bool, out: &mut [f32]) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_permute2f128_ps, _mm256_set1_ps,
        _mm256_shuffle_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps,
    };

    let k8 = k - k % 8;
    let mut i = 0;
    while i + GEMV_ROWS <= m {
        let groups = [&a[i * k..(i + 8) * k], &a[(i + 8) * k..(i + 16) * k]];
        let mut accs = [0, 8].map(|g| {
            let lanes = &bias[i + g..][..8];
            // SAFETY: `lanes` holds exactly eight floats.
            unsafe { _mm256_loadu_ps(lanes.as_ptr()) }
        });
        let mut p = 0;
        while p < k8 {
            let xs: [_; 8] = std::array::from_fn(|q| _mm256_set1_ps(x[p + q]));
            for (acc, rows) in accs.iter_mut().zip(groups) {
                let [r0, r1, r2, r3, r4, r5, r6, r7] = std::array::from_fn(|r| {
                    let row = &rows[r * k + p..][..8];
                    // SAFETY: `row` holds exactly eight floats.
                    unsafe { _mm256_loadu_ps(row.as_ptr()) }
                });
                // Row pairs: t0 = r0[0] r1[0] r0[1] r1[1] | r0[4] r1[4] ..
                let (t0, t1) = (_mm256_unpacklo_ps(r0, r1), _mm256_unpackhi_ps(r0, r1));
                let (t2, t3) = (_mm256_unpacklo_ps(r2, r3), _mm256_unpackhi_ps(r2, r3));
                let (t4, t5) = (_mm256_unpacklo_ps(r4, r5), _mm256_unpackhi_ps(r4, r5));
                let (t6, t7) = (_mm256_unpacklo_ps(r6, r7), _mm256_unpackhi_ps(r6, r7));
                // Row quads: s0 = column 0 of rows 0–3 | column 4 of rows 0–3.
                let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
                let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
                let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
                let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
                let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
                let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
                let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
                let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
                // Whole columns: lane r of `cols[q]` is row r's weight p + q.
                let cols = [
                    _mm256_permute2f128_ps::<0x20>(s0, s4),
                    _mm256_permute2f128_ps::<0x20>(s1, s5),
                    _mm256_permute2f128_ps::<0x20>(s2, s6),
                    _mm256_permute2f128_ps::<0x20>(s3, s7),
                    _mm256_permute2f128_ps::<0x31>(s0, s4),
                    _mm256_permute2f128_ps::<0x31>(s1, s5),
                    _mm256_permute2f128_ps::<0x31>(s2, s6),
                    _mm256_permute2f128_ps::<0x31>(s3, s7),
                ];
                for (col, xv) in cols.iter().zip(&xs) {
                    *acc = _mm256_add_ps(*acc, _mm256_mul_ps(*col, *xv));
                }
            }
            p += 8;
        }
        let outs = out[i..i + GEMV_ROWS].chunks_exact_mut(8);
        for ((acc, rows), o) in accs.into_iter().zip(groups).zip(outs) {
            finish_rows(acc, rows, x, k, k8, relu, o);
        }
        i += GEMV_ROWS;
    }
    gemm::gemv_bias_relu(&a[i * k..], x, &bias[i..], m - i, k, relu, &mut out[i..]);
}

/// Finishes eight rows' chains: lane `r` of `acc` continues in scalar
/// over columns `k8..k`, then ReLU and store to `out[r]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn finish_rows(
    acc: std::arch::x86_64::__m256,
    rows: &[f32],
    x: &[f32],
    k: usize,
    k8: usize,
    relu: bool,
    out: &mut [f32],
) {
    use std::arch::x86_64::_mm256_storeu_ps;
    let mut lanes = [0.0f32; 8];
    // SAFETY: `lanes` holds exactly eight floats.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
    for (r, (o, mut v)) in out.iter_mut().zip(lanes).enumerate() {
        for (w, xv) in rows[r * k + k8..(r + 1) * k].iter().zip(&x[k8..]) {
            v += w * xv;
        }
        *o = if relu { v.max(0.0) } else { v };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(len: usize, scale: f32, shift: f32) -> Vec<f32> {
        (0..len).map(|i| (i as f32).sin() * scale + shift).collect()
    }

    /// The reference chain, element by element: `bias + Σ_p a·b` in
    /// ascending `p`, one accumulator.
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn probe_is_stable() {
        let first = vector_path_available();
        for _ in 0..3 {
            assert_eq!(vector_path_available(), first);
        }
    }

    #[test]
    fn simd_gemm_is_bit_identical_across_tile_and_block_edges() {
        // Every residue of the 4-row tile, every column tail of the
        // 16-wide panel, small K, and K on both sides of each 256-deep
        // block boundary (so partial sums round-trip through `c` once
        // and twice). Oracles: the scalar kernel and the naive chain.
        let ms = [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17];
        let ns = [1usize, 5, 7, 8, 9, 15, 16, 17, 24, 31, 33];
        let ks = [0usize, 1, 2, 7, 16, 33, 255, 256, 257, 600];
        for &k in &ks {
            let b_all = series(k * 33, 1.3, 0.2);
            for &m in &ms {
                let a = series(m * k, 0.7, -0.1);
                let bias = series(m, 0.5, 0.01);
                for &n in &ns {
                    let b = &b_all[..k * n];
                    for relu in [false, true] {
                        let mut fast = vec![0.0; m * n];
                        let mut scalar = vec![0.0; m * n];
                        gemm_bias_relu(&a, b, &bias, m, k, n, relu, &mut fast);
                        gemm::gemm_bias_relu(&a, b, &bias, m, k, n, relu, &mut scalar);
                        let want = bits(&naive(&a, b, &bias, m, k, n, relu));
                        assert_eq!(bits(&fast), want, "m={m} k={k} n={n} relu={relu}");
                        assert_eq!(bits(&scalar), want, "scalar m={m} k={k} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn nan_poisoned_output_never_leaks_into_multi_block_sums() {
        // The kernel reads back what it wrote between K blocks; a dirty
        // recycled `c` must never be read before it is written.
        let (m, k, n) = (9, 600, 33);
        let a = series(m * k, 0.6, 0.05);
        let b = series(k * n, 0.9, -0.1);
        let bias = series(m, 0.3, 0.0);
        for relu in [false, true] {
            let mut c = vec![f32::NAN; m * n];
            gemm_bias_relu(&a, &b, &bias, m, k, n, relu, &mut c);
            assert!(c.iter().all(|v| v.is_finite()));
            assert_eq!(bits(&c), bits(&naive(&a, &b, &bias, m, k, n, relu)));
        }
    }

    #[test]
    fn simd_gemv_is_bit_identical_across_row_and_column_edges() {
        // 16-row passes with every kind of leftover, and k on both
        // sides of the 8-column transpose block.
        for &m in &[1usize, 7, 15, 16, 17, 33, 1000] {
            for &k in &[1usize, 7, 8, 9, 4099] {
                let a = series(m * k, 0.9, 0.05);
                let x = series(k, 1.1, -0.3);
                let bias = series(m, 0.2, 0.0);
                for relu in [false, true] {
                    let mut fast = vec![f32::NAN; m];
                    let mut scalar = vec![0.0; m];
                    gemv_bias_relu(&a, &x, &bias, m, k, relu, &mut fast);
                    gemm::gemv_bias_relu(&a, &x, &bias, m, k, relu, &mut scalar);
                    let want = bits(&naive(&a, &x, &bias, m, k, 1, relu));
                    assert_eq!(bits(&fast), want, "m={m} k={k} relu={relu}");
                    assert_eq!(bits(&scalar), want, "scalar m={m} k={k}");
                }
            }
        }
    }

    #[test]
    fn zero_k_yields_bias() {
        let bias = [1.5f32, -2.0, 0.25, -0.5, 3.0];
        let mut c = vec![0.0; 5 * 9];
        gemm_bias_relu(&[], &[], &bias, 5, 0, 9, false, &mut c);
        for (i, &b) in bias.iter().enumerate() {
            assert!(c[i * 9..(i + 1) * 9].iter().all(|&v| v == b));
        }
        let mut v = vec![0.0; 5];
        gemv_bias_relu(&[], &[], &bias, 5, 0, true, &mut v);
        assert_eq!(v, [1.5, 0.0, 0.25, 0.0, 3.0]);
    }
}
