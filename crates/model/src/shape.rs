use crate::BYTES_PER_ELEMENT;

/// The shape of a CHW feature map: `channels x height x width`.
///
/// PICO partitions feature maps along the **height** dimension (rows),
/// following MoDNN's horizontal partitioning, so `height` is the axis
/// all region arithmetic in this workspace operates on.
///
/// # Example
///
/// ```
/// use pico_model::Shape;
///
/// let s = Shape::new(64, 112, 112);
/// assert_eq!(s.elements(), 64 * 112 * 112);
/// assert_eq!(s.bytes(), 4 * s.elements());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Number of channels.
    pub channels: usize,
    /// Feature-map height (the partitioned axis).
    pub height: usize,
    /// Feature-map width.
    pub width: usize,
}

impl Shape {
    /// Creates a new shape.
    pub const fn new(channels: usize, height: usize, width: usize) -> Self {
        Shape {
            channels,
            height,
            width,
        }
    }

    /// Total number of scalar elements.
    pub const fn elements(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Size in bytes when stored as f32 (the paper's φ(F), Eq. 7).
    pub const fn bytes(&self) -> usize {
        self.elements() * BYTES_PER_ELEMENT
    }

    /// Bytes occupied by `rows` rows of this feature map.
    pub const fn row_bytes(&self, rows: usize) -> usize {
        self.channels * rows * self.width * BYTES_PER_ELEMENT
    }

    /// Returns this shape with a different number of rows.
    pub const fn with_height(&self, height: usize) -> Self {
        Shape {
            channels: self.channels,
            height,
            width: self.width,
        }
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.channels, self.height, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elements_and_bytes() {
        let s = Shape::new(3, 224, 224);
        assert_eq!(s.elements(), 3 * 224 * 224);
        assert_eq!(s.bytes(), 4 * 3 * 224 * 224);
    }

    #[test]
    fn row_bytes_counts_partial_maps() {
        let s = Shape::new(16, 10, 8);
        assert_eq!(s.row_bytes(0), 0);
        assert_eq!(s.row_bytes(3), 16 * 3 * 8 * 4);
        assert_eq!(s.row_bytes(10), s.bytes());
    }

    #[test]
    fn with_height_preserves_other_dims() {
        let s = Shape::new(8, 20, 30).with_height(5);
        assert_eq!(s, Shape::new(8, 5, 30));
    }

    #[test]
    fn display_is_c_h_w() {
        assert_eq!(Shape::new(3, 224, 200).to_string(), "3x224x200");
    }
}
