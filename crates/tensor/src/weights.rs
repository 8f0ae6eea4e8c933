use pico_model::rng::SplitMix64;
use pico_model::{LayerKind, Merge, Model, Region2, Rows, Shape, Unit};

use crate::{ops, Tensor, TensorError};

/// Weights of one layer: a flat kernel plus per-output bias.
///
/// * Convolution: kernel laid out `[out_ch][in_ch][kh][kw]`.
/// * Fully-connected: kernel laid out `[out][in]`.
/// * Pooling: empty.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWeights {
    /// Flat kernel values.
    pub kernel: Vec<f32>,
    /// Per-output-channel (or per-output-feature) bias.
    pub bias: Vec<f32>,
}

impl LayerWeights {
    /// The empty weights of a parameterless layer.
    pub fn none() -> Self {
        LayerWeights {
            kernel: Vec::new(),
            bias: Vec::new(),
        }
    }
}

/// Weights of one planning unit.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitWeights {
    /// A single layer's weights.
    Layer(LayerWeights),
    /// Per-path, per-layer weights of a block.
    Block(Vec<Vec<LayerWeights>>),
}

/// Synthetic weights for an entire model.
///
/// Generated with a seeded RNG and He-style scaling
/// (`U(-s, s)` with `s = sqrt(3 / fan_in)`) so activations stay bounded
/// through deep networks. Partitioning does not alter accuracy, so
/// random weights are sufficient for every experiment in the paper;
/// determinism (same seed, same weights) is what the correctness tests
/// rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkWeights {
    units: Vec<UnitWeights>,
}

impl NetworkWeights {
    /// Generates weights for `model` from `seed`.
    pub fn generate(model: &Model, seed: u64) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let units = model
            .units()
            .iter()
            .map(|u| match u {
                Unit::Layer(l) => UnitWeights::Layer(layer_weights(&l.kind, &mut rng)),
                Unit::Block(b) => UnitWeights::Block(
                    b.paths
                        .iter()
                        .map(|p| p.iter().map(|l| layer_weights(&l.kind, &mut rng)).collect())
                        .collect(),
                ),
            })
            .collect();
        NetworkWeights { units }
    }

    /// Weights of unit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn unit(&self, index: usize) -> &UnitWeights {
        &self.units[index]
    }

    /// Number of units covered.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether there are no units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }
}

fn layer_weights(kind: &LayerKind, rng: &mut SplitMix64) -> LayerWeights {
    match kind {
        LayerKind::Conv(c) => {
            let fan_in = (c.kernel.0 * c.kernel.1 * c.in_per_group()) as f32;
            let s = (3.0 / fan_in).sqrt();
            let n = c.out_channels * c.in_per_group() * c.kernel.0 * c.kernel.1;
            LayerWeights {
                kernel: (0..n).map(|_| rng.range_f32(-s..s)).collect(),
                bias: (0..c.out_channels)
                    .map(|_| rng.range_f32(-0.01..0.01))
                    .collect(),
            }
        }
        LayerKind::Fc(fc) => {
            let s = (3.0 / fc.in_features as f32).sqrt();
            LayerWeights {
                kernel: (0..fc.in_features * fc.out_features)
                    .map(|_| rng.range_f32(-s..s))
                    .collect(),
                bias: (0..fc.out_features)
                    .map(|_| rng.range_f32(-0.01..0.01))
                    .collect(),
            }
        }
        LayerKind::Pool(_) => LayerWeights::none(),
    }
}

/// Seed of the deterministic calibration input (`Tensor::random`):
/// the `Int8` backend's activation scales are **static**, derived from
/// one reference forward pass at quantization time, never from the
/// inference input. Static scales are what make int8 region inference
/// bit-exactly self-consistent with int8 full-map inference — every
/// tile quantizes the same element with the same scale.
const CAL_SEED: u64 = 0x5EED_CA1B;

/// Headroom multiplier on the calibration pass's observed max-abs
/// activation, absorbing input-to-input variation so same-distribution
/// inputs stay inside the representable range (no clipping, which the
/// analytic error bound assumes).
const CAL_MARGIN: f32 = 1.5;

/// Floor on quantization scales so all-zero maps never divide by zero.
const MIN_SCALE: f32 = 1e-12;

/// One layer's int8 weights: per-output-channel symmetric scales plus
/// the static input-activation scale chosen at calibration.
///
/// Quantization is `q = round(v / s)` clamped to ±127 with
/// `s_w[oc] = max|w[oc,·]| / 127` per output channel (so weights never
/// clip) and `s_in = CAL_MARGIN · max|x_cal| / 127` for activations.
/// Bias stays f32 and is added after dequantization.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedLayer {
    /// Quantized kernel, same `[oc][row of k]` layout as the f32 one.
    pub(crate) kernel: Vec<i8>,
    /// Per-output-channel weight scales `s_w[oc]`.
    pub(crate) w_scales: Vec<f32>,
    /// Combined dequantization factors `s_w[oc] · s_in`, precomputed so
    /// the hot kernel multiplies once per output.
    pub(crate) dequant: Vec<f32>,
    /// f32 bias, applied post-dequantization.
    pub(crate) bias: Vec<f32>,
    /// Static activation scale for this layer's input.
    pub(crate) in_scale: f32,
}

impl QuantizedLayer {
    /// Reduction length per output (`k` of the lowered GEMM).
    pub fn k(&self) -> usize {
        if self.bias.is_empty() {
            0
        } else {
            self.kernel.len() / self.bias.len()
        }
    }

    /// The static input-activation scale.
    pub fn in_scale(&self) -> f32 {
        self.in_scale
    }

    /// Analytic worst-case absolute error of output channel `oc`
    /// versus exact f32 arithmetic, assuming no activation clipping
    /// (guaranteed for inputs within `CAL_MARGIN` of the calibration
    /// range).
    ///
    /// With `x = s_x(q_x + e_x)`, `w = s_w(q_w + e_w)`, `|e| ≤ ½`:
    /// `|Σ w·x − s_w s_x Σ q_w q_x| ≤ s_w s_x (½·Σ|q_w| + k·127/2 + k/4)`.
    /// A small absolute epsilon absorbs the f32 rounding of the
    /// reference accumulation itself.
    pub fn channel_tolerance(&self, oc: usize) -> f32 {
        let k = self.k();
        let row = &self.kernel[oc * k..(oc + 1) * k];
        let sum_abs_q: f32 = row.iter().map(|&q| (q as i32).abs() as f32).sum();
        let s = self.w_scales[oc] * self.in_scale;
        s * (0.5 * sum_abs_q + k as f32 * (127.0 / 2.0 + 0.25)) + 1e-6
    }
}

/// Quantized weights of one planning unit. Pooling layers carry no
/// weights, hence the `Option`.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantizedUnit {
    /// A single layer (None for pooling).
    Layer(Option<QuantizedLayer>),
    /// Per-path, per-layer quantized weights of a block.
    Block(Vec<Vec<Option<QuantizedLayer>>>),
}

/// Per-channel symmetric int8 quantization of a whole network, with
/// static activation scales from a deterministic calibration pass.
///
/// Built once per engine (see `Engine::with_backend(Int8)`); the hot
/// path only reads it. Deterministic: same model + weights produce the
/// same quantization, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedNetwork {
    units: Vec<QuantizedUnit>,
}

impl QuantizedNetwork {
    /// Quantizes `weights` for `model`, running the reference kernels
    /// over a seeded calibration input to fix every layer's static
    /// activation scale.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::WeightMismatch`] when weights do not
    /// match the model's units, and propagates shape errors from the
    /// calibration forward pass.
    pub fn quantize(model: &Model, weights: &NetworkWeights) -> Result<Self, TensorError> {
        if weights.len() != model.len() {
            return Err(TensorError::WeightMismatch {
                detail: format!(
                    "weights cover {} units, model has {}",
                    weights.len(),
                    model.len()
                ),
            });
        }
        let mut cur = Tensor::random(model.input_shape(), CAL_SEED);
        let mut units = Vec::with_capacity(model.len());
        for (i, unit) in model.units().iter().enumerate() {
            let in_shape = model.unit_input_shape(i);
            match (unit, weights.unit(i)) {
                (Unit::Layer(l), UnitWeights::Layer(w)) => {
                    let out_shape = model.unit_output_shape(i);
                    let (q, next) = calibrate_layer(&l.kind, w, &cur, in_shape, out_shape)?;
                    units.push(QuantizedUnit::Layer(q));
                    cur = next;
                }
                (Unit::Block(b), UnitWeights::Block(pw)) => {
                    let mut paths = Vec::with_capacity(b.paths.len());
                    let mut outs = Vec::with_capacity(b.paths.len());
                    for (path, ws) in b.paths.iter().zip(pw) {
                        let mut qs = Vec::with_capacity(path.len());
                        let mut t = cur.clone();
                        let mut shape = in_shape;
                        for (layer, w) in path.iter().zip(ws) {
                            let next_shape = layer.output_shape(shape).map_err(|e| {
                                TensorError::WeightMismatch {
                                    detail: format!("path layer rejected validated shape: {e}"),
                                }
                            })?;
                            let (q, next) = calibrate_layer(&layer.kind, w, &t, shape, next_shape)?;
                            qs.push(q);
                            t = next;
                            shape = next_shape;
                        }
                        paths.push(qs);
                        outs.push(t);
                    }
                    cur = match b.merge {
                        Merge::Add => ops::add(&outs)?,
                        Merge::Concat => ops::concat_channels(&outs)?,
                    };
                    units.push(QuantizedUnit::Block(paths));
                }
                _ => {
                    return Err(TensorError::WeightMismatch {
                        detail: format!("unit {i} weights do not match its kind"),
                    })
                }
            }
        }
        Ok(QuantizedNetwork { units })
    }

    /// Quantized weights of unit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn unit(&self, index: usize) -> &QuantizedUnit {
        &self.units[index]
    }

    /// Number of units covered.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether there are no units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }
}

/// The static activation scale for a map: `CAL_MARGIN · max|x| / 127`.
fn act_scale(t: &Tensor) -> f32 {
    let max_abs = t.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    (CAL_MARGIN * max_abs / 127.0).max(MIN_SCALE)
}

/// Quantizes one layer's kernel per output channel.
fn quantize_rows(w: &LayerWeights, out_ch: usize, in_scale: f32) -> QuantizedLayer {
    let k = w.kernel.len().checked_div(out_ch).unwrap_or(0);
    let mut kernel = vec![0i8; w.kernel.len()];
    let mut w_scales = vec![0.0f32; out_ch];
    let mut dequant = vec![0.0f32; out_ch];
    for oc in 0..out_ch {
        let row = &w.kernel[oc * k..(oc + 1) * k];
        let max_abs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let s = (max_abs / 127.0).max(MIN_SCALE);
        crate::quant::quantize_into(row, s, &mut kernel[oc * k..(oc + 1) * k]);
        w_scales[oc] = s;
        dequant[oc] = s * in_scale;
    }
    QuantizedLayer {
        kernel,
        w_scales,
        dequant,
        bias: w.bias.clone(),
        in_scale,
    }
}

/// Quantizes one layer (if it has weights) and advances the
/// calibration map through it with the reference kernels.
fn calibrate_layer(
    kind: &LayerKind,
    w: &LayerWeights,
    input: &Tensor,
    in_shape: Shape,
    out_shape: Shape,
) -> Result<(Option<QuantizedLayer>, Tensor), TensorError> {
    let full = Region2::new(Rows::full(out_shape.height), Rows::full(out_shape.width));
    match kind {
        LayerKind::Conv(spec) => {
            let q = quantize_rows(w, spec.out_channels, act_scale(input));
            let out = ops::conv_region(input, in_shape, spec, w, full, true)?;
            Ok((Some(q), out))
        }
        LayerKind::Pool(spec) => {
            let out = ops::pool_region(input, in_shape, spec, full)?;
            Ok((None, out))
        }
        LayerKind::Fc(fc) => {
            let q = quantize_rows(w, fc.out_features, act_scale(input));
            let out = ops::fc_full(input, fc.in_features, fc.out_features, w, true)?;
            Ok((Some(q), out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pico_model::zoo;

    #[test]
    fn generation_is_deterministic() {
        let m = zoo::mnist_toy();
        assert_eq!(
            NetworkWeights::generate(&m, 1),
            NetworkWeights::generate(&m, 1)
        );
        assert_ne!(
            NetworkWeights::generate(&m, 1),
            NetworkWeights::generate(&m, 2)
        );
    }

    #[test]
    fn kernel_sizes_match_layers() {
        let m = zoo::toy(2);
        let w = NetworkWeights::generate(&m, 0);
        match w.unit(0) {
            UnitWeights::Layer(lw) => {
                assert_eq!(lw.kernel.len(), 16 * 3 * 3 * 3);
                assert_eq!(lw.bias.len(), 16);
            }
            other => panic!("expected layer weights, got {other:?}"),
        }
    }

    #[test]
    fn block_weights_follow_paths() {
        let m = zoo::resnet34();
        let w = NetworkWeights::generate(&m, 0);
        // Unit 2 is the first residual block: main path (2 convs) +
        // identity shortcut (0 layers).
        match w.unit(2) {
            UnitWeights::Block(paths) => {
                assert_eq!(paths.len(), 2);
                assert_eq!(paths[0].len(), 2);
                assert_eq!(paths[1].len(), 0);
            }
            other => panic!("expected block weights, got {other:?}"),
        }
    }

    #[test]
    fn pool_layers_have_no_weights() {
        let m = zoo::mnist_toy();
        let w = NetworkWeights::generate(&m, 0);
        // Unit 3 is pool1 in mnist_toy.
        match w.unit(3) {
            UnitWeights::Layer(lw) => assert!(lw.kernel.is_empty() && lw.bias.is_empty()),
            other => panic!("expected layer weights, got {other:?}"),
        }
    }

    #[test]
    fn quantization_is_deterministic_and_covers_every_unit() {
        let m = zoo::mnist_toy();
        let w = NetworkWeights::generate(&m, 9);
        let a = QuantizedNetwork::quantize(&m, &w).unwrap();
        let b = QuantizedNetwork::quantize(&m, &w).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), m.len());
        // Pool units quantize to None, conv/fc to Some.
        match a.unit(3) {
            QuantizedUnit::Layer(None) => {}
            other => panic!("expected unquantized pool unit, got {other:?}"),
        }
        match a.unit(0) {
            QuantizedUnit::Layer(Some(q)) => {
                assert!(q.in_scale() > 0.0);
                assert!(q.w_scales.iter().all(|&s| s > 0.0));
                assert_eq!(q.dequant.len(), q.bias.len());
            }
            other => panic!("expected quantized conv unit, got {other:?}"),
        }
    }

    #[test]
    fn weight_quantization_never_clips() {
        // s_w = max|row|/127 by construction, so the largest weight
        // maps to exactly ±127 and nothing saturates past it.
        let m = zoo::mnist_toy();
        let w = NetworkWeights::generate(&m, 4);
        let q = QuantizedNetwork::quantize(&m, &w).unwrap();
        for i in 0..q.len() {
            if let QuantizedUnit::Layer(Some(ql)) = q.unit(i) {
                assert!(ql
                    .kernel
                    .iter()
                    .all(|&v| (-127..=127).contains(&(v as i32))));
                assert!(ql.kernel.iter().any(|&v| v.unsigned_abs() == 127));
            }
        }
    }

    #[test]
    fn mismatched_weights_are_rejected() {
        let m = zoo::mnist_toy();
        let w = NetworkWeights::generate(&zoo::toy(2), 0);
        assert!(matches!(
            QuantizedNetwork::quantize(&m, &w),
            Err(TensorError::WeightMismatch { .. })
        ));
    }
}
