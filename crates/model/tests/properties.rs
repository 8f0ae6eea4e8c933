//! Property-based tests for the model crate's interval arithmetic and
//! cost accounting — the foundations every planner builds on.

use pico_model::{
    rows_split_even, rows_split_weighted, zoo, ConvSpec, Layer, Model, PoolSpec, Rows, Segment,
    Shape,
};
use proptest::prelude::*;

/// A random small conv/pool chain with consistent channels. Kernels are
/// never smaller than strides (`k >= s`), matching real CNNs — `k < s`
/// layers read their input with gaps, which breaks interval-hull
/// reasoning by design.
fn arb_chain() -> impl Strategy<Value = Model> {
    let layer = prop_oneof![
        (1usize..=5, 1usize..=2, 0usize..=2).prop_map(|(k, s, p)| (k.max(s), s, p, true)),
        (2usize..=3, 1usize..=2).prop_map(|(k, s)| (k, s, 0usize, false)),
    ];
    proptest::collection::vec(layer, 1..6).prop_map(|specs| {
        let input = Shape::new(3, 64, 64);
        let mut units: Vec<pico_model::Unit> = Vec::new();
        let mut shape = input;
        for (i, (k, s, p, is_conv)) in specs.into_iter().enumerate() {
            let layer = if is_conv {
                let out_ch = 4 + (i % 3) * 4;
                Layer::conv(
                    format!("c{i}"),
                    ConvSpec::square(shape.channels, out_ch, k, s, p),
                )
            } else {
                Layer::pool(format!("p{i}"), PoolSpec::max(k, s))
            };
            // Skip layers the shrinking feature map can no longer fit.
            match layer.output_shape(shape) {
                Ok(next) if next.height >= 1 && next.width >= 1 => {
                    shape = next;
                    units.push(layer.into());
                }
                _ => {}
            }
        }
        if units.is_empty() {
            units.push(Layer::conv("fallback", ConvSpec::square(3, 4, 3, 1, 1)).into());
        }
        Model::new("prop", input, units).expect("chain is consistent")
    })
}

fn check_receptive_field_monotone(
    m: &Model,
    a: usize,
    b: usize,
    c: usize,
) -> Result<(), TestCaseError> {
    let h = m.output_shape().height;
    let (x, y) = (a % h, b % h);
    let (lo, hi) = (x.min(y), x.max(y) + 1);
    let inner = Rows::new(lo, hi.min(h).max(lo));
    let outer = Rows::new(lo.saturating_sub(c), (hi + c).min(h)).clamp_to(h);
    let seg = m.full_segment();
    prop_assert!(m
        .segment_input_rows(seg, outer)
        .contains(m.segment_input_rows(seg, inner)));
    Ok(())
}

fn check_full_output_receptive_field_in_bounds(m: &Model) -> Result<(), TestCaseError> {
    let seg = m.full_segment();
    let h_out = m.output_shape().height;
    let h_in = m.input_shape().height;
    let field = m.segment_input_rows(seg, Rows::full(h_out));
    prop_assert_eq!(field.start, 0);
    prop_assert!(field.end <= h_in);
    prop_assert!(!field.is_empty());
    Ok(())
}

fn check_partition_flops_superadditive(m: &Model, parts: usize) -> Result<(), TestCaseError> {
    let seg = m.full_segment();
    let h = m.output_shape().height;
    let chunks = rows_split_even(Rows::full(h), parts);
    let split_total: f64 = chunks.iter().map(|r| m.segment_flops(seg, *r)).sum();
    // Compare against the lazy full trace (only rows the output
    // actually depends on), not segment_total_flops: a monolithic
    // pass may compute bottom rows that strided layers never read.
    let mono = m.segment_flops(seg, Rows::full(h));
    prop_assert!(
        split_total >= mono - 1e-6,
        "split {split_total} < monolithic {mono}"
    );
    for r in &chunks {
        prop_assert!(m.segment_flops(seg, *r) <= mono + 1e-6);
    }
    Ok(())
}

proptest! {
    /// Back-propagated input rows of a larger output range contain those
    /// of a smaller one (receptive fields are monotone).
    #[test]
    fn receptive_field_monotone(m in arb_chain(), a in 0usize..32, b in 0usize..32, c in 0usize..8) {
        check_receptive_field_monotone(&m, a, b, c)?;
    }

    /// The receptive field of the full output starts at row 0 and stays
    /// inside the input map. (It may legitimately stop short of the last
    /// input row when stride arithmetic leaves unused bottom rows.)
    #[test]
    fn full_output_receptive_field_in_bounds(m in arb_chain()) {
        check_full_output_receptive_field_in_bounds(&m)?;
    }

    /// Splitting the output across devices always costs at least as much
    /// as computing it once (halo redundancy is non-negative), and each
    /// device costs no more than the whole segment.
    #[test]
    fn partition_flops_superadditive(m in arb_chain(), parts in 1usize..6) {
        check_partition_flops_superadditive(&m, parts)?;
    }

    /// Chained back-propagation through two sub-segments equals
    /// back-propagation through their concatenation.
    #[test]
    fn segment_composition(m in arb_chain(), cut in 0usize..6, lo in 0usize..16, len in 1usize..16) {
        prop_assume!(m.len() >= 2);
        let cut = 1 + cut % (m.len() - 1);
        let h = m.output_shape().height;
        let rows = Rows::new(lo % h, ((lo % h) + len).min(h));
        prop_assume!(!rows.is_empty());
        let full = m.segment_input_rows(m.full_segment(), rows);
        let mid = m.segment_input_rows(Segment::new(cut, m.len()), rows);
        let composed = m.segment_input_rows(Segment::new(0, cut), mid);
        prop_assert_eq!(full, composed);
    }

    /// Even splits cover the range exactly, contiguously, in order.
    #[test]
    fn split_even_partitions(start in 0usize..50, len in 0usize..200, parts in 1usize..10) {
        let rows = Rows::new(start, start + len);
        let chunks = rows_split_even(rows, parts);
        prop_assert_eq!(chunks.len(), parts);
        prop_assert_eq!(chunks[0].start, rows.start);
        prop_assert_eq!(chunks[parts - 1].end, rows.end);
        for w in chunks.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        let sizes: Vec<usize> = chunks.iter().map(Rows::len).collect();
        prop_assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    /// Weighted splits cover the range exactly and roughly follow the
    /// weights (within one row of the ideal share).
    #[test]
    fn split_weighted_partitions(
        start in 0usize..50,
        len in 0usize..200,
        weights in proptest::collection::vec(0.01f64..10.0, 1..8),
    ) {
        let rows = Rows::new(start, start + len);
        let chunks = rows_split_weighted(rows, &weights);
        prop_assert_eq!(chunks.len(), weights.len());
        prop_assert_eq!(chunks[0].start, rows.start);
        prop_assert_eq!(chunks.last().unwrap().end, rows.end);
        for w in chunks.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        let total: f64 = weights.iter().sum();
        for (chunk, w) in chunks.iter().zip(&weights) {
            let ideal = len as f64 * w / total;
            prop_assert!((chunk.len() as f64 - ideal).abs() <= 1.0 + 1e-9);
        }
    }

    /// Rows interval algebra: intersection is contained in both, hull
    /// contains both.
    #[test]
    fn rows_algebra(a in 0usize..100, b in 0usize..100, c in 0usize..100, d in 0usize..100) {
        let r1 = Rows::new(a.min(b), a.max(b));
        let r2 = Rows::new(c.min(d), c.max(d));
        let i = r1.intersect(r2);
        let h = r1.hull(r2);
        prop_assert!(r1.contains(i) && r2.contains(i));
        prop_assert!(h.contains(r1) && h.contains(r2));
        prop_assert_eq!(i.len() + h.len() >= r1.len() + r2.len(), true);
    }
}

/// The shrunk counter-examples proptest recorded while these
/// properties (and `arb_chain`, which then still drew `k < s`) were
/// being written, pinned as plain cases.
#[test]
fn recorded_counterexamples_hold() {
    let chain = |units: Vec<pico_model::Unit>| {
        Model::new("prop", Shape::new(3, 64, 64), units).expect("chain is consistent")
    };
    let conv = |name: &str, i, o, k, s| Layer::conv(name, ConvSpec::square(i, o, k, s, 0)).into();
    let pool = |name: &str, k, s| Layer::pool(name, PoolSpec::max(k, s)).into();

    let m = chain(vec![pool("p0", 2, 1), pool("p1", 2, 2)]);
    assert_eq!(check_full_output_receptive_field_in_bounds(&m), Ok(()));

    let m = chain(vec![conv("c0", 3, 4, 1, 1), conv("c1", 4, 8, 1, 2)]);
    assert_eq!(check_partition_flops_superadditive(&m, 1), Ok(()));

    let m = chain(vec![
        conv("c0", 3, 4, 1, 1),
        pool("p1", 2, 2),
        pool("p2", 3, 1),
    ]);
    assert_eq!(check_receptive_field_monotone(&m, 2, 30, 0), Ok(()));
}

#[test]
fn zoo_models_survive_random_region_queries() {
    // Deterministic spot-check over the real zoo (cheap smoke, not proptest,
    // because building InceptionV3 per-case would dominate runtime).
    for m in [
        zoo::vgg16().features(),
        zoo::yolov2(),
        zoo::resnet34().features(),
    ] {
        let h = m.output_shape().height;
        for parts in [1, 3, 8] {
            let chunks = rows_split_even(Rows::full(h), parts);
            let total: f64 = chunks
                .iter()
                .map(|r| m.segment_flops(m.full_segment(), *r))
                .sum();
            assert!(total >= m.total_flops() - 1.0, "{}", m.name());
        }
    }
}
