//! Int8 GEMM kernels for the `Int8` backend.
//!
//! The quantization *scheme* (per-output-channel symmetric weight
//! scales, static per-layer activation scales from a deterministic
//! calibration pass) lives in `weights.rs`; this module holds only the
//! allocation-free hot-path kernels, policed by xtask lint rule 10
//! alongside `gemm.rs`/`simd.rs`.
//!
//! # Numerics
//!
//! Activations are quantized `q = round(x / s_in)` clamped to ±127;
//! weights were quantized offline the same way with per-channel scale
//! `s_w[oc] = max|w[oc]| / 127`. The kernel accumulates in `i32`
//! (safe: `k · 127 · 127 ≤ k · 16129`, so any `k < 2^17` stays far
//! from overflow — our largest layer has `k ≤ 2^12`) and dequantizes
//! as `bias[oc] + acc · (s_w[oc] · s_in)` in f32, then applies ReLU.
//! Results are **deterministic** (integer arithmetic, fixed order) but
//! only *tolerance-close* to the f32 reference; `weights.rs` exposes
//! the analytic per-channel bound the oracle tests assert against.

/// Quantizes `src` into `dst` as `round(x / scale)` clamped to ±127.
/// `dst` must already be sized; no allocation.
pub(crate) fn quantize_into(src: &[f32], scale: f32, dst: &mut [i8]) {
    debug_assert_eq!(src.len(), dst.len());
    debug_assert!(scale > 0.0);
    let inv = 1.0 / scale;
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = (x * inv).round().clamp(-127.0, 127.0) as i8;
    }
}

/// `c[m×n] = relu?(bias ⊕ dequant(a_q[m×k] · b_q[k×n]))` with
/// per-row (output-channel) weight scales.
///
/// `a_q` holds the quantized weights (`m` rows), `b_q` the quantized
/// activation patches (`k×n` column-major pixels, same layout as the
/// f32 im2col buffer), `scales[oc] = s_w[oc] · s_in` the combined
/// dequantization factor per output channel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_i8_bias_relu(
    a_q: &[i8],
    b_q: &[i8],
    bias: &[f32],
    scales: &[f32],
    m: usize,
    k: usize,
    n: usize,
    relu: bool,
    c: &mut [f32],
) {
    debug_assert_eq!(a_q.len(), m * k);
    debug_assert_eq!(b_q.len(), k * n);
    debug_assert_eq!(bias.len(), m);
    debug_assert_eq!(scales.len(), m);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        let ar = &a_q[i * k..(i + 1) * k];
        let (b0, s) = (bias[i], scales[i]);
        let row = &mut c[i * n..(i + 1) * n];
        for (j, out) in row.iter_mut().enumerate() {
            let mut acc: i32 = 0;
            for (p, &w) in ar.iter().enumerate() {
                acc += w as i32 * b_q[p * n + j] as i32;
            }
            let v = b0 + acc as f32 * s;
            *out = if relu { v.max(0.0) } else { v };
        }
    }
}

/// Fully-connected variant: `y[oc] = relu?(bias ⊕ dequant(Σ w_q·x_q))`
/// over a single quantized input vector.
pub(crate) fn gemv_i8_bias_relu(
    a_q: &[i8],
    x_q: &[i8],
    bias: &[f32],
    scales: &[f32],
    relu: bool,
    y: &mut [f32],
) {
    let k = x_q.len();
    debug_assert_eq!(a_q.len(), y.len() * k);
    debug_assert_eq!(bias.len(), y.len());
    debug_assert_eq!(scales.len(), y.len());
    for (i, out) in y.iter_mut().enumerate() {
        let ar = &a_q[i * k..(i + 1) * k];
        let mut acc: i32 = 0;
        for (w, x) in ar.iter().zip(x_q) {
            acc += *w as i32 * *x as i32;
        }
        let v = bias[i] + acc as f32 * scales[i];
        *out = if relu { v.max(0.0) } else { v };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_rounds_and_clamps() {
        let src = [0.0f32, 0.26, -0.26, 12.0, -12.0, 0.24];
        let mut dst = [0i8; 6];
        quantize_into(&src, 0.5, &mut dst);
        assert_eq!(dst, [0, 1, -1, 24, -24, 0]);
        quantize_into(&[1000.0, -1000.0], 1.0, &mut dst[..2]);
        assert_eq!(&dst[..2], &[127, -127]);
    }

    #[test]
    fn i8_gemm_tracks_the_f32_product_within_quant_error() {
        // Quantize a small f32 problem, run the i8 kernel, and check
        // the dequantized result lands within the coarse error budget
        // (k+1 half-steps per output; the exact analytic per-channel
        // bound is asserted in weights.rs / backend_equivalence.rs).
        let (m, k, n) = (5, 13, 9);
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 7 % 23) as f32 - 11.0) / 17.0)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 5 % 19) as f32 - 9.0) / 13.0)
            .collect();
        let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.1 - 0.2).collect();
        let s_in = b.iter().fold(0.0f32, |mx, x| mx.max(x.abs())) / 127.0;
        let mut b_q = vec![0i8; b.len()];
        quantize_into(&b, s_in, &mut b_q);
        let mut a_q = vec![0i8; a.len()];
        let mut scales = vec![0.0f32; m];
        for i in 0..m {
            let row = &a[i * k..(i + 1) * k];
            let s_w =
                (row.iter().fold(0.0f32, |mx, x| mx.max(x.abs())) / 127.0).max(f32::MIN_POSITIVE);
            quantize_into(row, s_w, &mut a_q[i * k..(i + 1) * k]);
            scales[i] = s_w * s_in;
        }
        let mut got = vec![0.0f32; m * n];
        gemm_i8_bias_relu(&a_q, &b_q, &bias, &scales, m, k, n, false, &mut got);
        for i in 0..m {
            let s_w = scales[i] / s_in;
            // Worst case: every product off by up to (0.5·|w|·s_x +
            // 0.5·|x|·s_w + 0.25·s_w·s_x) ≤ generous per-term slack.
            let tol = k as f32 * (0.5 * 127.0 * s_w * s_in + 0.5 * 127.0 * s_w * s_in + s_w * s_in)
                + 1e-5;
            for j in 0..n {
                let mut exact = bias[i];
                for p in 0..k {
                    exact += a[i * k + p] * b[p * n + j];
                }
                let err = (got[i * n + j] - exact).abs();
                assert!(err <= tol, "i={i} j={j} err={err} tol={tol}");
            }
        }
    }

    #[test]
    fn gemv_matches_gemm_single_column() {
        let (m, k) = (6, 11);
        let a_q: Vec<i8> = (0..m * k).map(|i| (i as i32 % 250 - 120) as i8).collect();
        let x_q: Vec<i8> = (0..k).map(|i| (i as i32 * 13 % 200 - 100) as i8).collect();
        let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.3).collect();
        let scales: Vec<f32> = (0..m).map(|i| 0.001 + i as f32 * 1e-4).collect();
        let mut via_gemm = vec![0.0f32; m];
        let mut via_gemv = vec![0.0f32; m];
        gemm_i8_bias_relu(&a_q, &x_q, &bias, &scales, m, k, 1, true, &mut via_gemm);
        gemv_i8_bias_relu(&a_q, &x_q, &bias, &scales, true, &mut via_gemv);
        assert_eq!(via_gemm, via_gemv);
    }
}
