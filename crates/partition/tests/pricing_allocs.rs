//! `Model::segment_flops` and `Model::segment_input_rows` are the
//! innermost calls of every planner (`balance_rows` prices one per
//! candidate split row); neither may touch the allocator, on chains or
//! on graph blocks.
//!
//! The allocation counter is process-global, so this binary holds
//! exactly one test: nothing else runs beside the measured loop.

use pico_model::{zoo, Rows};

pico_telemetry::install_counting_allocator!();

#[test]
fn segment_walks_do_not_allocate() {
    let models = [
        zoo::vgg16(),
        zoo::resnet34(),
        zoo::inception_v3(),
        zoo::yolov2(),
        zoo::mobilenet_v1(),
    ];
    for model in &models {
        let seg = model.full_segment();
        let h = model.output_shape().height;
        let rows = Rows::new(0, h.div_ceil(2));
        let before = allocation_count();
        let mut sink = 0.0;
        for _ in 0..16 {
            sink += model.segment_flops(seg, rows);
            sink += model.segment_input_rows(seg, rows).len() as f64;
        }
        let delta = allocation_count() - before;
        assert!(sink > 0.0);
        assert_eq!(
            delta,
            0,
            "{}: segment walks allocated {delta} times",
            model.name()
        );
    }
}
