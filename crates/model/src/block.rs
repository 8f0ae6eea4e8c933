use crate::{Layer, ModelError, Rows, Shape};

/// How the outputs of a block's parallel paths are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Merge {
    /// Element-wise addition (residual connection). All paths must
    /// produce identical shapes.
    Add,
    /// Channel-wise concatenation (inception). All paths must agree on
    /// height and width; channels are summed.
    Concat,
}

/// One branch of a [`Block`]: a chain of layers. An empty path is the
/// identity shortcut of a residual block.
pub type Path = Vec<Layer>;

/// A graph-structured "special layer" (Sec. IV-B of the paper): several
/// parallel layer chains from one input feature map, merged into one
/// output feature map.
///
/// ResNet34's residual blocks and InceptionV3's inception blocks are both
/// expressed this way. For planning purposes a block behaves like a
/// single layer whose input row requirement is the *union hull* over its
/// paths ("we first calculate the partition of input feature map for
/// every path in one block, and then combine them into a bigger one").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Human-readable name (e.g. `res2a`, `mixed_5b`).
    pub name: String,
    /// The parallel paths.
    pub paths: Vec<Path>,
    /// How path outputs merge.
    pub merge: Merge,
}

impl Block {
    /// Creates a block from its paths.
    pub fn new(name: impl Into<String>, paths: Vec<Path>, merge: Merge) -> Self {
        Block {
            name: name.into(),
            paths,
            merge,
        }
    }

    /// A residual block: `main` path plus a shortcut path (empty =
    /// identity, or a projection convolution for dimension changes).
    pub fn residual(name: impl Into<String>, main: Path, shortcut: Path) -> Self {
        Block::new(name, vec![main, shortcut], Merge::Add)
    }

    /// Output shape of one path for a given block input shape.
    fn path_output_shape(&self, path: &[Layer], input: Shape) -> Result<Shape, ModelError> {
        let mut shape = input;
        for layer in path {
            shape = layer.output_shape(shape)?;
        }
        Ok(shape)
    }

    /// Output shape of the whole block.
    ///
    /// # Errors
    ///
    /// Returns an error if any path rejects the input shape, or the path
    /// outputs cannot be merged (mismatched shapes for [`Merge::Add`],
    /// mismatched spatial dims for [`Merge::Concat`]).
    pub fn output_shape(&self, input: Shape) -> Result<Shape, ModelError> {
        if self.paths.is_empty() {
            return Err(ModelError::merge_mismatch(&self.name, "block has no paths"));
        }
        let shapes: Vec<Shape> = self
            .paths
            .iter()
            .map(|p| self.path_output_shape(p, input))
            .collect::<Result<_, _>>()?;
        match self.merge {
            Merge::Add => {
                let first = shapes[0];
                if shapes.iter().any(|s| *s != first) {
                    return Err(ModelError::merge_mismatch(
                        &self.name,
                        format!("add requires identical path outputs, got {shapes:?}"),
                    ));
                }
                Ok(first)
            }
            Merge::Concat => {
                let (h, w) = (shapes[0].height, shapes[0].width);
                if shapes.iter().any(|s| s.height != h || s.width != w) {
                    return Err(ModelError::merge_mismatch(
                        &self.name,
                        format!("concat requires equal spatial dims, got {shapes:?}"),
                    ));
                }
                let channels = shapes.iter().map(|s| s.channels).sum();
                Ok(Shape::new(channels, h, w))
            }
        }
    }

    /// Input rows required to produce output rows `out`, as the union
    /// hull over all paths (each path back-propagates `out` through its
    /// layers; `in_height` is the block's input height).
    pub fn input_rows(&self, out: Rows, input: Shape) -> Result<Rows, ModelError> {
        let mut hull = Rows::empty();
        for path in &self.paths {
            hull = hull.hull(path_input_rows(path, input, out)?);
        }
        Ok(hull)
    }

    /// FLOPs to compute output rows `out` of this block, summed over all
    /// paths with per-layer receptive-field back-propagation.
    pub fn flops(&self, out: Rows, input: Shape) -> Result<f64, ModelError> {
        let mut total = 0.0;
        for path in &self.paths {
            path_flops(path, input, out, &mut total)?;
        }
        Ok(total)
    }

    /// Total learnable parameters across all paths.
    pub fn parameters(&self) -> usize {
        self.paths
            .iter()
            .flat_map(|p| p.iter())
            .map(Layer::parameters)
            .sum()
    }

    /// Number of layers across all paths.
    pub fn layer_count(&self) -> usize {
        self.paths.iter().map(Vec::len).sum()
    }
}

/// Rows of `path`'s input needed for rows `out` of its output, where
/// `input` is the shape entering the path. Recursion carries each
/// layer's shape forward and the row range back, so the walk needs no
/// scratch buffer (planners call it once per share per unit).
fn path_input_rows(path: &[Layer], input: Shape, out: Rows) -> Result<Rows, ModelError> {
    let Some((first, rest)) = path.split_first() else {
        return Ok(out);
    };
    let rows = path_input_rows(rest, first.output_shape(input)?, out)?;
    Ok(first.input_rows(rows, input.height))
}

/// Adds to `total`, last layer first, the FLOPs `path` spends on rows
/// `out` of its output; returns the rows of the path's input that takes.
fn path_flops(
    path: &[Layer],
    input: Shape,
    out: Rows,
    total: &mut f64,
) -> Result<Rows, ModelError> {
    let Some((first, rest)) = path.split_first() else {
        return Ok(out);
    };
    let out_shape = first.output_shape(input)?;
    let produced = path_flops(rest, out_shape, out, total)?.clamp_to(out_shape.height);
    *total += first.flops(produced.len(), out_shape);
    Ok(first.input_rows(produced, input.height))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConvSpec;

    fn identity_residual() -> Block {
        Block::residual(
            "res",
            vec![
                Layer::conv("a", ConvSpec::square(64, 64, 3, 1, 1)),
                Layer::conv("b", ConvSpec::square(64, 64, 3, 1, 1)),
            ],
            vec![],
        )
    }

    #[test]
    fn residual_shape_is_preserved() {
        let b = identity_residual();
        let out = b.output_shape(Shape::new(64, 56, 56)).unwrap();
        assert_eq!(out, Shape::new(64, 56, 56));
    }

    #[test]
    fn residual_rejects_mismatched_add() {
        let b = Block::residual(
            "res",
            vec![Layer::conv("a", ConvSpec::square(64, 128, 3, 1, 1))],
            vec![],
        );
        assert!(matches!(
            b.output_shape(Shape::new(64, 56, 56)),
            Err(ModelError::MergeMismatch { .. })
        ));
    }

    #[test]
    fn concat_sums_channels() {
        let b = Block::new(
            "inc",
            vec![
                vec![Layer::conv("p1", ConvSpec::pointwise(192, 64))],
                vec![
                    Layer::conv("p2a", ConvSpec::pointwise(192, 48)),
                    Layer::conv("p2b", ConvSpec::square(48, 64, 5, 1, 2)),
                ],
            ],
            Merge::Concat,
        );
        let out = b.output_shape(Shape::new(192, 35, 35)).unwrap();
        assert_eq!(out, Shape::new(128, 35, 35));
    }

    #[test]
    fn concat_rejects_spatial_mismatch() {
        let b = Block::new(
            "bad",
            vec![
                vec![Layer::conv("a", ConvSpec::pointwise(8, 8))],
                vec![Layer::conv("b", ConvSpec::square(8, 8, 3, 2, 1))],
            ],
            Merge::Concat,
        );
        assert!(b.output_shape(Shape::new(8, 16, 16)).is_err());
    }

    #[test]
    fn empty_block_is_rejected() {
        let b = Block::new("none", vec![], Merge::Add);
        assert!(b.output_shape(Shape::new(8, 8, 8)).is_err());
    }

    #[test]
    fn input_rows_is_union_hull_of_paths() {
        // Main path: two 3x3 convs -> needs 2-row halo each side.
        // Shortcut: identity -> needs exactly the output rows.
        let b = identity_residual();
        let input = Shape::new(64, 56, 56);
        let rows = b.input_rows(Rows::new(10, 20), input).unwrap();
        assert_eq!(rows, Rows::new(8, 22));
    }

    #[test]
    fn input_rows_identity_only() {
        let b = Block::new("id", vec![vec![]], Merge::Add);
        let rows = b
            .input_rows(Rows::new(3, 7), Shape::new(8, 16, 16))
            .unwrap();
        assert_eq!(rows, Rows::new(3, 7));
    }

    #[test]
    fn flops_full_equals_sum_of_paths() {
        let b = identity_residual();
        let input = Shape::new(64, 56, 56);
        let full = b.flops(Rows::full(56), input).unwrap();
        let per_conv = (3 * 3 * 64 * 56 * 56 * 64) as f64;
        assert_eq!(full, 2.0 * per_conv);
    }

    #[test]
    fn flops_partial_rows_accounts_halo() {
        let b = identity_residual();
        let input = Shape::new(64, 56, 56);
        // Output rows 10..20: conv "b" produces 10 rows, conv "a" must
        // produce its receptive field 9..21 = 12 rows.
        let flops = b.flops(Rows::new(10, 20), input).unwrap();
        let w = 56;
        let expected = (3 * 3 * 64 * 64 * w) as f64 * (10.0 + 12.0);
        assert_eq!(flops, expected);
    }

    #[test]
    fn parameters_and_layer_count() {
        let b = identity_residual();
        assert_eq!(b.layer_count(), 2);
        assert_eq!(b.parameters(), 2 * (3 * 3 * 64 * 64 + 64));
    }
}
