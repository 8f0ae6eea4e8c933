//! Per-layer communication/computation profiling (the data behind
//! Fig. 2 of the paper).

use crate::{Model, Rows, Unit};

/// Computation and communication footprint of one unit.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitProfile {
    /// Unit index within the model.
    pub index: usize,
    /// Unit name.
    pub name: String,
    /// FLOPs to compute the full output map.
    pub flops: f64,
    /// Output feature-map size in bytes (what a layer-wise scheme must
    /// gather/scatter after this unit).
    pub output_bytes: usize,
    /// Fraction of the model's total FLOPs.
    pub flops_share: f64,
    /// Fraction of the model's total inter-layer traffic.
    pub comm_share: f64,
    /// Whether the unit is a convolution (or a conv-bearing block).
    pub is_conv: bool,
}

/// Profiles every unit of `model`: FLOPs, output bytes, and their shares
/// of the model totals.
///
/// # Example
///
/// ```
/// use pico_model::{profile::layer_profile, zoo};
///
/// let profs = layer_profile(&zoo::vgg16());
/// let conv_share: f64 = profs.iter().filter(|p| p.is_conv).map(|p| p.flops_share).sum();
/// // The paper reports conv layers provide 99.19% of VGG16 computation.
/// assert!(conv_share > 0.99);
/// ```
pub fn layer_profile(model: &Model) -> Vec<UnitProfile> {
    let mut raw = Vec::with_capacity(model.len());
    for i in 0..model.len() {
        let out = model.unit_output_shape(i);
        let unit = model.unit(i);
        let flops = unit.flops(Rows::full(out.height), model.unit_input_shape(i), out);
        raw.push((i, unit.name().to_owned(), flops, out.bytes(), is_conv(unit)));
    }
    let total_flops: f64 = raw.iter().map(|r| r.2).sum();
    let total_bytes: f64 = raw.iter().map(|r| r.3 as f64).sum();
    raw.into_iter()
        .map(|(index, name, flops, output_bytes, conv)| UnitProfile {
            index,
            name,
            flops,
            output_bytes,
            flops_share: if total_flops > 0.0 {
                flops / total_flops
            } else {
                0.0
            },
            comm_share: if total_bytes > 0.0 {
                output_bytes as f64 / total_bytes
            } else {
                0.0
            },
            is_conv: conv,
        })
        .collect()
}

fn is_conv(unit: &Unit) -> bool {
    match unit {
        Unit::Layer(l) => l.is_conv(),
        Unit::Block(_) => true,
    }
}

/// Fraction of total model FLOPs contributed by convolution units
/// (the paper's "conv layers provide 99.19% computation in VGG16 and
/// 99.59% in YOLOv2").
pub fn conv_flops_share(model: &Model) -> f64 {
    layer_profile(model)
        .iter()
        .filter(|p| p.is_conv)
        .map(|p| p.flops_share)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConvSpec, Layer, Shape};

    fn model() -> Model {
        Model::new(
            "m",
            Shape::new(3, 8, 8),
            vec![
                Layer::conv("c1", ConvSpec::square(3, 4, 3, 1, 1)).into(),
                Layer::pool("p1", crate::PoolSpec::max(2, 2)).into(),
                Layer::fc("fc", 4 * 4 * 4, 10).into(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn shares_sum_to_one() {
        let profs = layer_profile(&model());
        let f: f64 = profs.iter().map(|p| p.flops_share).sum();
        let c: f64 = profs.iter().map(|p| p.comm_share).sum();
        assert!((f - 1.0).abs() < 1e-9);
        assert!((c - 1.0).abs() < 1e-9);
    }

    #[test]
    fn profile_has_one_entry_per_unit() {
        let m = model();
        let profs = layer_profile(&m);
        assert_eq!(profs.len(), m.len());
        assert_eq!(profs[0].name, "c1");
        assert!(profs[0].is_conv);
        assert!(!profs[1].is_conv);
    }

    #[test]
    fn output_bytes_match_shapes() {
        let m = model();
        let profs = layer_profile(&m);
        assert_eq!(profs[0].output_bytes, Shape::new(4, 8, 8).bytes());
        assert_eq!(profs[1].output_bytes, Shape::new(4, 4, 4).bytes());
    }

    #[test]
    fn conv_dominates_flops() {
        assert!(conv_flops_share(&model()) > 0.5);
    }
}
