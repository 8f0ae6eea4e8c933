/// A half-open range of feature-map rows `[start, end)`.
///
/// This is the unit of feature-map partitioning in PICO: each device in a
/// stage is responsible for producing a `Rows` slice of the stage's output
/// feature map (the paper's region `F_j^k`).
///
/// Unlike [`std::ops::Range`], `Rows` is `Copy` and provides the interval
/// arithmetic (intersection, union-hull, clamping) that receptive-field
/// propagation needs.
///
/// # Example
///
/// ```
/// use pico_model::Rows;
///
/// let a = Rows::new(2, 8);
/// let b = Rows::new(6, 12);
/// assert_eq!(a.len(), 6);
/// assert_eq!(a.intersect(b), Rows::new(6, 8));
/// assert_eq!(a.hull(b), Rows::new(2, 12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rows {
    /// First row (inclusive).
    pub start: usize,
    /// One past the last row (exclusive).
    pub end: usize,
}

impl Rows {
    /// Creates a row range `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start <= end, "invalid row range {start}..{end}");
        Rows { start, end }
    }

    /// The empty range anchored at 0.
    pub const fn empty() -> Self {
        Rows { start: 0, end: 0 }
    }

    /// A range covering all `height` rows.
    pub const fn full(height: usize) -> Self {
        Rows {
            start: 0,
            end: height,
        }
    }

    /// Number of rows in the range.
    pub const fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the range contains no rows.
    pub const fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Intersection of two ranges (empty anchored at `self.start.max(other.start)`
    /// when disjoint).
    pub fn intersect(&self, other: Rows) -> Rows {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end).max(start);
        Rows { start, end }
    }

    /// Smallest range containing both (the union hull). Empty ranges are
    /// absorbed by non-empty ones.
    pub fn hull(&self, other: Rows) -> Rows {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return *self;
        }
        Rows {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Clamps the range to `[0, height)`.
    pub fn clamp_to(&self, height: usize) -> Rows {
        let start = self.start.min(height);
        let end = self.end.min(height).max(start);
        Rows { start, end }
    }

    /// Whether `other` lies fully within this range.
    pub fn contains(&self, other: Rows) -> bool {
        other.is_empty() || (self.start <= other.start && other.end <= self.end)
    }

    /// Number of rows shared with `other`.
    pub fn overlap(&self, other: Rows) -> usize {
        self.intersect(other).len()
    }

    /// Iterates over row indices in the range.
    pub fn iter(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

impl From<std::ops::Range<usize>> for Rows {
    fn from(r: std::ops::Range<usize>) -> Self {
        Rows::new(r.start, r.end)
    }
}

impl From<Rows> for std::ops::Range<usize> {
    fn from(r: Rows) -> Self {
        r.start..r.end
    }
}

impl std::fmt::Display for Rows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// Splits `rows` into `parts` contiguous, nearly-equal chunks (the
/// "equivalently partitioned" feature map of the homogeneous DP step).
///
/// The first `rows.len() % parts` chunks get one extra row, so the chunk
/// sizes differ by at most one. Chunks may be empty when
/// `parts > rows.len()`.
///
/// # Example
///
/// ```
/// use pico_model::{rows_split_even, Rows};
///
/// let chunks = rows_split_even(Rows::new(0, 10), 4);
/// assert_eq!(chunks, vec![
///     Rows::new(0, 3), Rows::new(3, 6), Rows::new(6, 8), Rows::new(8, 10),
/// ]);
/// ```
pub fn rows_split_even(rows: Rows, parts: usize) -> Vec<Rows> {
    assert!(parts > 0, "cannot split rows into zero parts");
    let n = rows.len();
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut cursor = rows.start;
    for i in 0..parts {
        let take = base + usize::from(i < extra);
        out.push(Rows::new(cursor, cursor + take));
        cursor += take;
    }
    debug_assert_eq!(cursor, rows.end);
    out
}

/// Splits `rows` into contiguous chunks proportional to `weights`, using
/// largest-remainder rounding so the chunk lengths sum exactly to
/// `rows.len()`.
///
/// Used by the divide-and-conquer share balancing of Algorithm 2: a
/// device with twice the computing capacity receives (approximately)
/// twice the rows.
///
/// # Panics
///
/// Panics if `weights` is empty or any weight is negative or non-finite,
/// or if all weights are zero.
pub fn rows_split_weighted(rows: Rows, weights: &[f64]) -> Vec<Rows> {
    assert!(!weights.is_empty(), "cannot split rows with no weights");
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "weights must be finite and non-negative"
    );
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must not all be zero");

    let n = rows.len();
    // Ideal fractional share per weight; floor it, then hand out the
    // remaining rows to the largest fractional remainders.
    let ideals: Vec<f64> = weights.iter().map(|w| n as f64 * w / total).collect();
    let mut sizes: Vec<usize> = ideals.iter().map(|x| x.floor() as usize).collect();
    let assigned: usize = sizes.iter().sum();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = ideals[a] - ideals[a].floor();
        let fb = ideals[b] - ideals[b].floor();
        fb.partial_cmp(&fa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    for &i in order.iter().take(n - assigned) {
        sizes[i] += 1;
    }

    let mut out = Vec::with_capacity(weights.len());
    let mut cursor = rows.start;
    for size in sizes {
        out.push(Rows::new(cursor, cursor + size));
        cursor += size;
    }
    debug_assert_eq!(cursor, rows.end);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_disjoint_is_empty() {
        let a = Rows::new(0, 3);
        let b = Rows::new(5, 9);
        assert!(a.intersect(b).is_empty());
    }

    #[test]
    fn hull_absorbs_empty() {
        let a = Rows::new(4, 9);
        assert_eq!(a.hull(Rows::empty()), a);
        assert_eq!(Rows::empty().hull(a), a);
    }

    #[test]
    fn clamp_truncates() {
        assert_eq!(Rows::new(3, 12).clamp_to(10), Rows::new(3, 10));
        assert_eq!(Rows::new(11, 12).clamp_to(10), Rows::new(10, 10));
    }

    #[test]
    fn contains_and_overlap() {
        let a = Rows::new(2, 10);
        assert!(a.contains(Rows::new(2, 10)));
        assert!(a.contains(Rows::new(4, 5)));
        assert!(!a.contains(Rows::new(1, 5)));
        assert_eq!(a.overlap(Rows::new(8, 14)), 2);
    }

    #[test]
    fn split_even_covers_exactly() {
        let chunks = rows_split_even(Rows::new(3, 17), 4);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0].start, 3);
        assert_eq!(chunks.last().unwrap().end, 17);
        for w in chunks.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        let max = chunks.iter().map(Rows::len).max().unwrap();
        let min = chunks.iter().map(Rows::len).min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn split_even_more_parts_than_rows() {
        let chunks = rows_split_even(Rows::new(0, 2), 5);
        assert_eq!(chunks.iter().map(Rows::len).sum::<usize>(), 2);
        assert_eq!(chunks.len(), 5);
    }

    #[test]
    fn split_weighted_is_proportional() {
        let chunks = rows_split_weighted(Rows::new(0, 12), &[2.0, 1.0, 1.0]);
        assert_eq!(chunks[0].len(), 6);
        assert_eq!(chunks[1].len(), 3);
        assert_eq!(chunks[2].len(), 3);
    }

    #[test]
    fn split_weighted_largest_remainder() {
        let chunks = rows_split_weighted(Rows::new(0, 10), &[1.0, 1.0, 1.0]);
        let total: usize = chunks.iter().map(Rows::len).sum();
        assert_eq!(total, 10);
        let max = chunks.iter().map(Rows::len).max().unwrap();
        let min = chunks.iter().map(Rows::len).min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    #[should_panic(expected = "weights must not all be zero")]
    fn split_weighted_rejects_zero_total() {
        rows_split_weighted(Rows::new(0, 4), &[0.0, 0.0]);
    }

    #[test]
    fn range_conversions_roundtrip() {
        let r: Rows = (3..9).into();
        let back: std::ops::Range<usize> = r.into();
        assert_eq!(back, 3..9);
    }
}
