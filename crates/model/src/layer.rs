use crate::{ModelError, Rows, Shape};

/// Parameters of a 2-D convolution layer.
///
/// Non-square kernels (e.g. the `1x7` / `7x1` convolutions of
/// InceptionV3) are supported by keeping separate vertical/horizontal
/// kernel, stride, and padding values. Only the *vertical* parameters
/// participate in row-range receptive-field arithmetic because PICO
/// partitions feature maps along the height axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvSpec {
    /// Input channels (`c_{i-1}` in Eq. 2).
    pub in_channels: usize,
    /// Output channels (`c_i` in Eq. 2).
    pub out_channels: usize,
    /// Kernel height and width (`k_i`).
    pub kernel: (usize, usize),
    /// Vertical and horizontal stride (`s_i`).
    pub stride: (usize, usize),
    /// Vertical and horizontal zero padding.
    pub padding: (usize, usize),
    /// Channel groups (1 = dense convolution; `in_channels` = depthwise,
    /// the MobileNet building block). Must divide both channel counts.
    pub groups: usize,
}

impl ConvSpec {
    /// A square-kernel convolution with equal stride/padding on both axes.
    pub const fn square(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        ConvSpec {
            in_channels,
            out_channels,
            kernel: (kernel, kernel),
            stride: (stride, stride),
            padding: (padding, padding),
            groups: 1,
        }
    }

    /// A depthwise convolution: one kernel per channel
    /// (`groups = channels`), MobileNet-style.
    pub const fn depthwise(channels: usize, kernel: usize, stride: usize, padding: usize) -> Self {
        ConvSpec {
            in_channels: channels,
            out_channels: channels,
            kernel: (kernel, kernel),
            stride: (stride, stride),
            padding: (padding, padding),
            groups: channels,
        }
    }

    /// Input channels each output channel reads (`in_channels / groups`).
    pub const fn in_per_group(&self) -> usize {
        self.in_channels / self.groups
    }

    /// A 1x1 "pointwise" convolution (stride 1, no padding).
    pub const fn pointwise(in_channels: usize, out_channels: usize) -> Self {
        Self::square(in_channels, out_channels, 1, 1, 0)
    }
}

/// Pooling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling.
    Avg,
}

/// Parameters of a pooling layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolSpec {
    /// Pooling flavour.
    pub kind: PoolKind,
    /// Kernel height and width.
    pub kernel: (usize, usize),
    /// Vertical and horizontal stride.
    pub stride: (usize, usize),
    /// Vertical and horizontal zero padding.
    pub padding: (usize, usize),
}

impl PoolSpec {
    /// A square max-pool with no padding.
    pub const fn max(kernel: usize, stride: usize) -> Self {
        PoolSpec {
            kind: PoolKind::Max,
            kernel: (kernel, kernel),
            stride: (stride, stride),
            padding: (0, 0),
        }
    }

    /// A square average-pool with no padding.
    pub const fn avg(kernel: usize, stride: usize) -> Self {
        PoolSpec {
            kind: PoolKind::Avg,
            kernel: (kernel, kernel),
            stride: (stride, stride),
            padding: (0, 0),
        }
    }
}

/// Parameters of a fully-connected layer.
///
/// The input feature map is flattened (`channels * height * width`
/// must equal `in_features`). Fully-connected layers require the
/// *entire* input, so they cannot be row-partitioned; the planners keep
/// them in single-device stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FcSpec {
    /// Flattened input features.
    pub in_features: usize,
    /// Output features.
    pub out_features: usize,
}

/// What a [`Layer`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// 2-D convolution (with an implicit fused activation; activation
    /// FLOPs are negligible and ignored, like the paper does).
    Conv(ConvSpec),
    /// Spatial pooling.
    Pool(PoolSpec),
    /// Fully-connected layer on the flattened feature map.
    Fc(FcSpec),
}

/// One neural layer: a named [`LayerKind`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layer {
    /// Human-readable name (e.g. `conv1_1`).
    pub name: String,
    /// The layer's computation.
    pub kind: LayerKind,
}

impl Layer {
    /// Creates a named layer.
    pub fn new(name: impl Into<String>, kind: LayerKind) -> Self {
        Layer {
            name: name.into(),
            kind,
        }
    }

    /// Convenience constructor for a convolution layer.
    pub fn conv(name: impl Into<String>, spec: ConvSpec) -> Self {
        Layer::new(name, LayerKind::Conv(spec))
    }

    /// Convenience constructor for a pooling layer.
    pub fn pool(name: impl Into<String>, spec: PoolSpec) -> Self {
        Layer::new(name, LayerKind::Pool(spec))
    }

    /// Convenience constructor for a fully-connected layer.
    pub fn fc(name: impl Into<String>, in_features: usize, out_features: usize) -> Self {
        Layer::new(
            name,
            LayerKind::Fc(FcSpec {
                in_features,
                out_features,
            }),
        )
    }

    /// Whether this layer is a convolution.
    pub fn is_conv(&self) -> bool {
        matches!(self.kind, LayerKind::Conv(_))
    }

    /// Whether this layer is a pooling layer.
    pub fn is_pool(&self) -> bool {
        matches!(self.kind, LayerKind::Pool(_))
    }

    /// Whether this layer is fully-connected.
    pub fn is_fc(&self) -> bool {
        matches!(self.kind, LayerKind::Fc(_))
    }

    /// Output shape for a given input shape.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] when the input is
    /// incompatible (wrong channel count, kernel larger than the padded
    /// input, or a flattened size that does not match an FC layer).
    pub fn output_shape(&self, input: Shape) -> Result<Shape, ModelError> {
        match &self.kind {
            LayerKind::Conv(c) => {
                if input.channels != c.in_channels {
                    return Err(ModelError::shape_mismatch(
                        &self.name,
                        format!(
                            "conv expects {} input channels, got {}",
                            c.in_channels, input.channels
                        ),
                    ));
                }
                if c.groups == 0 || c.in_channels % c.groups != 0 || c.out_channels % c.groups != 0
                {
                    return Err(ModelError::shape_mismatch(
                        &self.name,
                        format!(
                            "groups {} must divide channels {}->{}",
                            c.groups, c.in_channels, c.out_channels
                        ),
                    ));
                }
                let h = conv_out_dim(input.height, c.kernel.0, c.stride.0, c.padding.0)
                    .ok_or_else(|| {
                        ModelError::shape_mismatch(
                            &self.name,
                            format!(
                                "kernel {}x{} too large for input {input}",
                                c.kernel.0, c.kernel.1
                            ),
                        )
                    })?;
                let w = conv_out_dim(input.width, c.kernel.1, c.stride.1, c.padding.1).ok_or_else(
                    || {
                        ModelError::shape_mismatch(
                            &self.name,
                            format!(
                                "kernel {}x{} too large for input {input}",
                                c.kernel.0, c.kernel.1
                            ),
                        )
                    },
                )?;
                Ok(Shape::new(c.out_channels, h, w))
            }
            LayerKind::Pool(p) => {
                let h = conv_out_dim(input.height, p.kernel.0, p.stride.0, p.padding.0)
                    .ok_or_else(|| {
                        ModelError::shape_mismatch(
                            &self.name,
                            format!("pool kernel too large for input {input}"),
                        )
                    })?;
                let w = conv_out_dim(input.width, p.kernel.1, p.stride.1, p.padding.1).ok_or_else(
                    || {
                        ModelError::shape_mismatch(
                            &self.name,
                            format!("pool kernel too large for input {input}"),
                        )
                    },
                )?;
                Ok(Shape::new(input.channels, h, w))
            }
            LayerKind::Fc(fc) => {
                if input.elements() != fc.in_features {
                    return Err(ModelError::shape_mismatch(
                        &self.name,
                        format!(
                            "fc expects {} flattened features, got {} ({input})",
                            fc.in_features,
                            input.elements()
                        ),
                    ));
                }
                Ok(Shape::new(fc.out_features, 1, 1))
            }
        }
    }

    /// Input rows needed to produce output rows `out` (Eq. 3, extended
    /// with padding), clamped to the `in_height`-row input map.
    ///
    /// For a convolution/pool with vertical kernel `k`, stride `s`, and
    /// padding `p`, output row `r` reads input rows
    /// `[r*s - p, r*s - p + k)`; the result is the hull over `out`
    /// clamped to valid rows. FC layers always require every input row.
    pub fn input_rows(&self, out: Rows, in_height: usize) -> Rows {
        if out.is_empty() {
            return Rows::empty();
        }
        match &self.kind {
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
                let (k, s, p) = (kernel.0, stride.0, padding.0);
                let start = (out.start * s).saturating_sub(p).min(in_height);
                let end = ((out.end - 1) * s + k).saturating_sub(p).min(in_height);
                Rows::new(start, end.max(start))
            }
            LayerKind::Fc(_) => Rows::full(in_height),
        }
    }

    /// FLOPs to produce `rows` output rows of an output map with shape
    /// `out_shape` (Eq. 2, restricted to the row range).
    ///
    /// * Conv: `k_h * k_w * c_in * rows * w_out * c_out` multiply-accumulates.
    /// * Pool: `k_h * k_w * c * rows * w_out` comparisons/adds — tiny, but
    ///   counted so that pool-only stages never cost exactly zero.
    /// * FC: `in_features * out_features` (only meaningful for the full map).
    pub fn flops(&self, rows: usize, out_shape: Shape) -> f64 {
        match &self.kind {
            LayerKind::Conv(c) => {
                (c.kernel.0 * c.kernel.1 * c.in_per_group()) as f64
                    * (rows * out_shape.width * c.out_channels) as f64
            }
            LayerKind::Pool(p) => {
                (p.kernel.0 * p.kernel.1) as f64
                    * (out_shape.channels * rows * out_shape.width) as f64
            }
            LayerKind::Fc(fc) => {
                if rows == 0 {
                    0.0
                } else {
                    (fc.in_features * fc.out_features) as f64
                }
            }
        }
    }

    /// Number of learnable parameters (weights + biases).
    pub fn parameters(&self) -> usize {
        match &self.kind {
            LayerKind::Conv(c) => {
                c.kernel.0 * c.kernel.1 * c.in_per_group() * c.out_channels + c.out_channels
            }
            LayerKind::Pool(_) => 0,
            LayerKind::Fc(fc) => fc.in_features * fc.out_features + fc.out_features,
        }
    }
}

/// Standard convolution output-dimension formula:
/// `(n + 2p - k) / s + 1`, or `None` when the kernel does not fit.
pub(crate) fn conv_out_dim(n: usize, k: usize, s: usize, p: usize) -> Option<usize> {
    let padded = n + 2 * p;
    if padded < k || s == 0 {
        return None;
    }
    Some((padded - k) / s + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_shape_inference() {
        let l = Layer::conv("c", ConvSpec::square(3, 64, 3, 1, 1));
        let out = l.output_shape(Shape::new(3, 224, 224)).unwrap();
        assert_eq!(out, Shape::new(64, 224, 224));
    }

    #[test]
    fn strided_conv_halves() {
        let l = Layer::conv("c", ConvSpec::square(3, 32, 3, 2, 1));
        let out = l.output_shape(Shape::new(3, 224, 224)).unwrap();
        assert_eq!(out, Shape::new(32, 112, 112));
    }

    #[test]
    fn nonsquare_kernel_shape() {
        // InceptionV3-style 1x7 convolution.
        let l = Layer::conv(
            "c",
            ConvSpec {
                in_channels: 128,
                out_channels: 128,
                kernel: (1, 7),
                stride: (1, 1),
                padding: (0, 3),
                groups: 1,
            },
        );
        let out = l.output_shape(Shape::new(128, 17, 17)).unwrap();
        assert_eq!(out, Shape::new(128, 17, 17));
    }

    #[test]
    fn conv_rejects_channel_mismatch() {
        let l = Layer::conv("c", ConvSpec::square(3, 64, 3, 1, 1));
        assert!(l.output_shape(Shape::new(4, 10, 10)).is_err());
    }

    #[test]
    fn pool_shape_inference() {
        let l = Layer::pool("p", PoolSpec::max(2, 2));
        let out = l.output_shape(Shape::new(64, 224, 224)).unwrap();
        assert_eq!(out, Shape::new(64, 112, 112));
    }

    #[test]
    fn fc_flattens() {
        let l = Layer::fc("fc", 512 * 7 * 7, 4096);
        let out = l.output_shape(Shape::new(512, 7, 7)).unwrap();
        assert_eq!(out, Shape::new(4096, 1, 1));
    }

    #[test]
    fn fc_rejects_bad_flatten() {
        let l = Layer::fc("fc", 100, 10);
        assert!(l.output_shape(Shape::new(3, 10, 10)).is_err());
    }

    #[test]
    fn input_rows_3x3_stride1_pad1() {
        let l = Layer::conv("c", ConvSpec::square(3, 8, 3, 1, 1));
        // Interior rows need a 1-row halo on each side.
        assert_eq!(l.input_rows(Rows::new(4, 8), 20), Rows::new(3, 9));
        // Border rows get clamped.
        assert_eq!(l.input_rows(Rows::new(0, 4), 20), Rows::new(0, 5));
        assert_eq!(l.input_rows(Rows::new(16, 20), 20), Rows::new(15, 20));
    }

    #[test]
    fn input_rows_pool_2x2_stride2() {
        let l = Layer::pool("p", PoolSpec::max(2, 2));
        assert_eq!(l.input_rows(Rows::new(0, 5), 20), Rows::new(0, 10));
        assert_eq!(l.input_rows(Rows::new(5, 10), 20), Rows::new(10, 20));
    }

    #[test]
    fn input_rows_matches_paper_eq3_without_padding() {
        // Eq. 3: h_i = (h_{i+1} - 1) s + k, for an unpadded layer.
        let l = Layer::conv("c", ConvSpec::square(3, 8, 5, 2, 0));
        let out = Rows::new(0, 10);
        let input = l.input_rows(out, 1000);
        assert_eq!(input.len(), (10 - 1) * 2 + 5);
    }

    #[test]
    fn input_rows_empty_output() {
        let l = Layer::conv("c", ConvSpec::square(3, 8, 3, 1, 1));
        assert!(l.input_rows(Rows::empty(), 20).is_empty());
    }

    #[test]
    fn fc_needs_full_input() {
        let l = Layer::fc("fc", 100, 10);
        assert_eq!(l.input_rows(Rows::new(0, 1), 10), Rows::full(10));
    }

    #[test]
    fn conv_flops_match_eq2() {
        // Eq. 2: k^2 * c_{i-1} * w_i * h_i * c_i
        let l = Layer::conv("c", ConvSpec::square(64, 128, 3, 1, 1));
        let out = Shape::new(128, 56, 56);
        assert_eq!(l.flops(56, out), (3 * 3 * 64 * 56 * 56 * 128) as f64);
        // Restricted to 7 rows.
        assert_eq!(l.flops(7, out), (3 * 3 * 64 * 7 * 56 * 128) as f64);
    }

    #[test]
    fn pool_flops_are_small() {
        let pool = Layer::pool("p", PoolSpec::max(2, 2));
        let conv = Layer::conv("c", ConvSpec::square(64, 64, 3, 1, 1));
        let out = Shape::new(64, 112, 112);
        assert!(pool.flops(112, out) < conv.flops(112, out) / 100.0);
    }

    #[test]
    fn parameter_counts() {
        let l = Layer::conv("c", ConvSpec::square(3, 64, 3, 1, 1));
        assert_eq!(l.parameters(), 3 * 3 * 3 * 64 + 64);
        assert_eq!(Layer::pool("p", PoolSpec::max(2, 2)).parameters(), 0);
        assert_eq!(Layer::fc("f", 10, 5).parameters(), 55);
    }

    #[test]
    fn out_dim_formula() {
        assert_eq!(conv_out_dim(224, 3, 1, 1), Some(224));
        assert_eq!(conv_out_dim(224, 2, 2, 0), Some(112));
        assert_eq!(conv_out_dim(5, 7, 1, 0), None);
        assert_eq!(conv_out_dim(5, 7, 1, 1), Some(1));
    }
}
