//! `Model::segment_flops` accumulates along its backward row walk
//! instead of tracing rows into a `Vec` and summing forward. The two
//! orders agree bit for bit only because every unit's FLOP count is an
//! integer-valued `f64` far below 2^53; this suite pins both facts over
//! every zoo model.

use pico_model::{zoo, Model, Rows, Segment};

fn zoo_models() -> Vec<Model> {
    vec![
        zoo::alexnet(),
        zoo::tiny_yolo(),
        zoo::inception_v3(),
        zoo::mobilenet_v1(),
        zoo::resnet34(),
        zoo::vgg16(),
        zoo::yolov2(),
        zoo::mnist_toy(),
        zoo::toy(6),
        zoo::identical_1x1(8),
    ]
}

/// The pre-change definition: per-unit rows traced backward, counts
/// summed from the segment's first unit to its last.
fn forward_order_flops(m: &Model, seg: Segment, rows: Rows) -> f64 {
    let trace = m.segment_row_trace(seg, rows);
    let mut total = 0.0;
    for (k, i) in seg.iter().enumerate() {
        let count = m
            .unit(i)
            .flops(trace[k], m.unit_input_shape(i), m.unit_output_shape(i));
        assert_eq!(
            count.fract(),
            0.0,
            "{} unit {i}: non-integer count",
            m.name()
        );
        total += count;
    }
    assert!(
        total < (1u64 << 53) as f64,
        "{}: sum leaves the exact range",
        m.name()
    );
    total
}

/// Row ranges worth pricing on an `h`-row map: the whole map, halves,
/// an interior strip, single edge rows, an empty range and one that
/// overruns the map (clamped by the walk).
fn row_ranges(h: usize) -> Vec<Rows> {
    vec![
        Rows::full(h),
        Rows::new(0, h.div_ceil(2)),
        Rows::new(h / 2, h),
        Rows::new(h / 3, (2 * h).div_ceil(3).max(h / 3)),
        Rows::new(0, 1),
        Rows::new(h - 1, h),
        Rows::empty(),
        Rows::new(0, h + 7),
    ]
}

#[test]
fn backward_accumulation_equals_the_forward_order_sum_bit_for_bit() {
    for m in zoo_models() {
        let l = m.len();
        let mut segments = vec![m.full_segment(), Segment::new(l - 1, l), Segment::new(0, 1)];
        for start in 0..l {
            for end in (start + 1..=l).step_by(3) {
                segments.push(Segment::new(start, end));
            }
        }
        for seg in segments {
            let h = m.unit_output_shape(seg.end - 1).height;
            for rows in row_ranges(h) {
                let want = forward_order_flops(&m, seg, rows);
                let got = m.segment_flops(seg, rows);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{} {seg} rows {rows:?}: {got} vs {want}",
                    m.name()
                );
            }
        }
    }
}
