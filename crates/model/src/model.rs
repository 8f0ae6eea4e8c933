use crate::{Block, Layer, ModelError, Rows, Shape};

/// A planning unit of a model: a plain layer, or a graph-structured
/// block treated as a "special layer" (Sec. IV-B).
#[derive(Debug, Clone, PartialEq)]
pub enum Unit {
    /// A single layer.
    Layer(Layer),
    /// A residual/inception block.
    Block(Block),
}

impl Unit {
    /// The unit's name.
    pub fn name(&self) -> &str {
        match self {
            Unit::Layer(l) => &l.name,
            Unit::Block(b) => &b.name,
        }
    }

    /// Output shape for the given input shape.
    ///
    /// # Errors
    ///
    /// Propagates shape/merge mismatches from the underlying layer or
    /// block.
    pub fn output_shape(&self, input: Shape) -> Result<Shape, ModelError> {
        match self {
            Unit::Layer(l) => l.output_shape(input),
            Unit::Block(b) => b.output_shape(input),
        }
    }

    /// Input rows required to produce output rows `out`, given this
    /// unit's input shape.
    pub fn input_rows(&self, out: Rows, input: Shape) -> Rows {
        match self {
            Unit::Layer(l) => l.input_rows(out, input.height),
            Unit::Block(b) => b
                .input_rows(out, input)
                .expect("input shape was validated at model construction"),
        }
    }

    /// FLOPs to produce output rows `out`, given the unit's input and
    /// output shapes.
    pub fn flops(&self, out: Rows, input: Shape, output: Shape) -> f64 {
        let out = out.clamp_to(output.height);
        match self {
            Unit::Layer(l) => l.flops(out.len(), output),
            Unit::Block(b) => b
                .flops(out, input)
                .expect("input shape was validated at model construction"),
        }
    }

    /// Number of learnable parameters.
    pub fn parameters(&self) -> usize {
        match self {
            Unit::Layer(l) => l.parameters(),
            Unit::Block(b) => b.parameters(),
        }
    }

    /// Number of underlying layers (1 for a plain layer; all paths'
    /// layers for a block).
    pub fn layer_count(&self) -> usize {
        match self {
            Unit::Layer(_) => 1,
            Unit::Block(b) => b.layer_count(),
        }
    }

    /// Whether the unit's output can be row-partitioned across devices.
    /// Fully-connected layers cannot (they consume the whole input).
    pub fn is_partitionable(&self) -> bool {
        match self {
            Unit::Layer(l) => !l.is_fc(),
            Unit::Block(_) => true,
        }
    }

    /// Whether the unit is (or contains only) convolution layers.
    pub fn is_conv(&self) -> bool {
        match self {
            Unit::Layer(l) => l.is_conv(),
            Unit::Block(_) => true,
        }
    }
}

impl From<Layer> for Unit {
    fn from(l: Layer) -> Self {
        Unit::Layer(l)
    }
}

impl From<Block> for Unit {
    fn from(b: Block) -> Self {
        Unit::Block(b)
    }
}

/// A contiguous, half-open range of model units `[start, end)` — the
/// paper's model segment `M_{i->j}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Segment {
    /// First unit index (inclusive).
    pub start: usize,
    /// One past the last unit index (exclusive).
    pub end: usize,
}

impl Segment {
    /// Creates a segment `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end` (segments must be non-empty).
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start < end, "segment [{start}, {end}) must be non-empty");
        Segment { start, end }
    }

    /// Number of units in the segment.
    pub const fn len(&self) -> usize {
        self.end - self.start
    }

    /// Always `false`: segments are non-empty by construction.
    pub const fn is_empty(&self) -> bool {
        false
    }

    /// Iterates unit indices in the segment.
    pub fn iter(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

impl std::fmt::Display for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// A CNN model: a named chain of [`Unit`]s with a fixed input shape and
/// pre-computed per-unit shapes.
///
/// Shapes are inferred once at construction; all segment analyses
/// (receptive fields, FLOPs, communication volumes) are then cheap
/// lookups plus interval arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    name: String,
    units: Vec<Unit>,
    /// `shapes[0]` is the model input; `shapes[i + 1]` is unit `i`'s output.
    shapes: Vec<Shape>,
}

impl Model {
    /// Builds a model, validating that every unit accepts its
    /// predecessor's output shape.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyModel`] for an empty unit list, or the
    /// first shape/merge mismatch found during inference.
    pub fn new(
        name: impl Into<String>,
        input: Shape,
        units: Vec<Unit>,
    ) -> Result<Self, ModelError> {
        if units.is_empty() {
            return Err(ModelError::EmptyModel);
        }
        let mut shapes = Vec::with_capacity(units.len() + 1);
        shapes.push(input);
        for unit in &units {
            let prev = *shapes.last().expect("shapes starts non-empty");
            shapes.push(unit.output_shape(prev)?);
        }
        Ok(Model {
            name: name.into(),
            units,
            shapes,
        })
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of planning units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the model has no units (never true for a constructed model).
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The units, in execution order.
    pub fn units(&self) -> &[Unit] {
        &self.units
    }

    /// A single unit by index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn unit(&self, index: usize) -> &Unit {
        &self.units[index]
    }

    /// The model's input shape.
    pub fn input_shape(&self) -> Shape {
        self.shapes[0]
    }

    /// The model's final output shape.
    pub fn output_shape(&self) -> Shape {
        *self.shapes.last().expect("shapes is never empty")
    }

    /// Input shape of unit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn unit_input_shape(&self, index: usize) -> Shape {
        assert!(index < self.len(), "unit index {index} out of bounds");
        self.shapes[index]
    }

    /// Output shape of unit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn unit_output_shape(&self, index: usize) -> Shape {
        assert!(index < self.len(), "unit index {index} out of bounds");
        self.shapes[index + 1]
    }

    /// The segment covering the whole model.
    pub fn full_segment(&self) -> Segment {
        Segment::new(0, self.len())
    }

    /// Validates that `seg` addresses units of this model.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSegment`] when out of bounds.
    pub fn check_segment(&self, seg: Segment) -> Result<(), ModelError> {
        if seg.end > self.len() {
            return Err(ModelError::InvalidSegment {
                start: seg.start,
                end: seg.end,
                len: self.len(),
            });
        }
        Ok(())
    }

    /// Back-propagates an output row range through segment `seg`
    /// (Eq. 3 applied unit by unit), returning the rows of the
    /// *segment input* required to produce `out_rows` of the segment's
    /// final unit.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of bounds.
    pub fn segment_input_rows(&self, seg: Segment, out_rows: Rows) -> Rows {
        self.check_segment(seg).expect("segment out of bounds");
        let mut rows = out_rows.clamp_to(self.unit_output_shape(seg.end - 1).height);
        for i in seg.iter().rev() {
            rows = self.units[i].input_rows(rows, self.unit_input_shape(i));
        }
        rows
    }

    /// Per-unit output rows a device computes when assigned output rows
    /// `out_rows` of segment `seg`. `result[k]` is the rows of unit
    /// `seg.start + k`'s output.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of bounds.
    pub fn segment_row_trace(&self, seg: Segment, out_rows: Rows) -> Vec<Rows> {
        self.check_segment(seg).expect("segment out of bounds");
        let mut trace = vec![Rows::empty(); seg.len()];
        let mut rows = out_rows.clamp_to(self.unit_output_shape(seg.end - 1).height);
        for (k, i) in seg.iter().enumerate().rev() {
            trace[k] = rows;
            rows = self.units[i].input_rows(rows, self.unit_input_shape(i));
        }
        trace
    }

    /// FLOPs a device spends producing output rows `out_rows` of segment
    /// `seg`, including all halo (redundant) computation of intermediate
    /// units (Eq. 4 with Eq. 3 expansion).
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of bounds.
    pub fn segment_flops(&self, seg: Segment, out_rows: Rows) -> f64 {
        self.check_segment(seg).expect("segment out of bounds");
        // Accumulated along the backward row walk, last unit first.
        // Every unit's count is an integer far below 2^53, so the sum
        // is exact in any order (tests/flops_exact.rs pins this against
        // the forward-order sum).
        let mut total = 0.0;
        let mut rows = out_rows.clamp_to(self.unit_output_shape(seg.end - 1).height);
        for i in seg.iter().rev() {
            let input = self.unit_input_shape(i);
            total += self.units[i].flops(rows, input, self.unit_output_shape(i));
            rows = self.units[i].input_rows(rows, input);
        }
        total
    }

    /// FLOPs of the whole segment computed exactly once (no redundancy):
    /// the sum over units of their full-map cost.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of bounds.
    pub fn segment_total_flops(&self, seg: Segment) -> f64 {
        self.check_segment(seg).expect("segment out of bounds");
        seg.iter()
            .map(|i| {
                let out = self.unit_output_shape(i);
                self.units[i].flops(Rows::full(out.height), self.unit_input_shape(i), out)
            })
            .sum()
    }

    /// Total FLOPs of the whole model (single-device inference).
    pub fn total_flops(&self) -> f64 {
        self.segment_total_flops(self.full_segment())
    }

    /// Total learnable parameters.
    pub fn parameters(&self) -> usize {
        self.units.iter().map(Unit::parameters).sum()
    }

    /// Number of underlying layers, expanding blocks.
    pub fn layer_count(&self) -> usize {
        self.units.iter().map(Unit::layer_count).sum()
    }

    /// A copy of this model without its trailing non-partitionable
    /// (fully-connected) units — the "feature extractor" the paper's
    /// planners operate on (its layer counts for VGG16/YOLOv2 exclude
    /// FC layers).
    ///
    /// Returns `self` unchanged if the model has no trailing FC units.
    pub fn features(&self) -> Model {
        let mut end = self.len();
        while end > 1 && !self.units[end - 1].is_partitionable() {
            end -= 1;
        }
        Model {
            name: format!("{}-features", self.name),
            units: self.units[..end].to_vec(),
            shapes: self.shapes[..=end].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConvSpec, PoolSpec};

    fn chain() -> Model {
        Model::new(
            "tiny",
            Shape::new(3, 32, 32),
            vec![
                Layer::conv("c1", ConvSpec::square(3, 8, 3, 1, 1)).into(),
                Layer::pool("p1", PoolSpec::max(2, 2)).into(),
                Layer::conv("c2", ConvSpec::square(8, 16, 3, 1, 1)).into(),
                Layer::fc("fc", 16 * 16 * 16, 10).into(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn shapes_are_inferred() {
        let m = chain();
        assert_eq!(m.input_shape(), Shape::new(3, 32, 32));
        assert_eq!(m.unit_output_shape(0), Shape::new(8, 32, 32));
        assert_eq!(m.unit_output_shape(1), Shape::new(8, 16, 16));
        assert_eq!(m.unit_output_shape(2), Shape::new(16, 16, 16));
        assert_eq!(m.output_shape(), Shape::new(10, 1, 1));
    }

    #[test]
    fn empty_model_rejected() {
        assert_eq!(
            Model::new("x", Shape::new(1, 1, 1), vec![]),
            Err(ModelError::EmptyModel)
        );
    }

    #[test]
    fn invalid_chain_rejected() {
        let err = Model::new(
            "x",
            Shape::new(3, 32, 32),
            vec![
                Layer::conv("c1", ConvSpec::square(3, 8, 3, 1, 1)).into(),
                Layer::conv("c2", ConvSpec::square(999, 8, 3, 1, 1)).into(),
            ],
        );
        assert!(matches!(err, Err(ModelError::ShapeMismatch { .. })));
    }

    #[test]
    fn segment_input_rows_composes() {
        let m = chain();
        // Through conv(3x3, pad 1) then pool(2x2): pool rows 0..4 need
        // conv-out rows 0..8, which need input rows 0..9.
        let rows = m.segment_input_rows(Segment::new(0, 2), Rows::new(0, 4));
        assert_eq!(rows, Rows::new(0, 9));
    }

    #[test]
    fn segment_row_trace_matches_inputs() {
        let m = chain();
        let trace = m.segment_row_trace(Segment::new(0, 2), Rows::new(4, 8));
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[1], Rows::new(4, 8)); // pool output rows
        assert_eq!(trace[0], Rows::new(8, 16)); // conv output rows (pool input)
    }

    #[test]
    fn segment_flops_full_has_no_redundancy() {
        let m = chain();
        let seg = Segment::new(0, 3);
        let full = m.segment_flops(seg, Rows::full(16));
        assert_eq!(full, m.segment_total_flops(seg));
    }

    #[test]
    fn split_segment_flops_exceed_total() {
        // Two half-splits each carry halo rows, so their sum exceeds the
        // monolithic cost — the redundancy the paper minimizes.
        let m = chain();
        let seg = Segment::new(0, 3);
        let top = m.segment_flops(seg, Rows::new(0, 8));
        let bottom = m.segment_flops(seg, Rows::new(8, 16));
        assert!(top + bottom > m.segment_total_flops(seg));
    }

    #[test]
    fn out_of_range_rows_are_clamped() {
        let m = chain();
        let seg = Segment::new(0, 1);
        assert_eq!(
            m.segment_flops(seg, Rows::new(0, 1000)),
            m.segment_flops(seg, Rows::full(32))
        );
    }

    #[test]
    fn features_strips_trailing_fc() {
        let m = chain();
        let f = m.features();
        assert_eq!(f.len(), 3);
        assert_eq!(f.output_shape(), Shape::new(16, 16, 16));
        assert_eq!(f.name(), "tiny-features");
        // Idempotent on a model with no FC.
        assert_eq!(f.features().len(), 3);
    }

    #[test]
    fn check_segment_bounds() {
        let m = chain();
        assert!(m.check_segment(Segment::new(0, 4)).is_ok());
        assert!(matches!(
            m.check_segment(Segment::new(2, 5)),
            Err(ModelError::InvalidSegment { .. })
        ));
    }

    #[test]
    fn layer_and_parameter_counts() {
        let m = chain();
        assert_eq!(m.layer_count(), 4);
        let expected = (3 * 3 * 3 * 8 + 8) + (3 * 3 * 8 * 16 + 16) + (16 * 16 * 16 * 10 + 10);
        assert_eq!(m.parameters(), expected);
    }

    #[test]
    fn model_with_block_unit() {
        let m = Model::new(
            "resnetty",
            Shape::new(16, 16, 16),
            vec![Unit::Block(Block::residual(
                "res",
                vec![
                    Layer::conv("a", ConvSpec::square(16, 16, 3, 1, 1)),
                    Layer::conv("b", ConvSpec::square(16, 16, 3, 1, 1)),
                ],
                vec![],
            ))],
        )
        .unwrap();
        assert_eq!(m.output_shape(), Shape::new(16, 16, 16));
        assert_eq!(m.layer_count(), 2);
        // Halo through two 3x3 convs: 2 rows each side.
        assert_eq!(
            m.segment_input_rows(m.full_segment(), Rows::new(5, 9)),
            Rows::new(3, 11)
        );
    }
}
