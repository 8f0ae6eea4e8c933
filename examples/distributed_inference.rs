//! Real distributed execution: run the toy MNIST-style CNN through the
//! threaded pipeline runtime (coordinator split/scatter/gather/stitch
//! per Fig. 6), verify the outputs are bit-identical to single-device
//! inference, and show the pipeline overlapping tasks under throttling.
//!
//! Run with: `cargo run --release --example distributed_inference`

use pico::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = zoo::mnist_toy();
    let cluster = Cluster::paper_heterogeneous_6();
    let pico = Pico::new(model, cluster);

    let plan = pico.plan()?;
    println!("{}", pico.describe(&plan));

    // Eight synthetic 64x64 frames.
    let inputs: Vec<Tensor> = (0..8)
        .map(|i| Tensor::random(pico.model().input_shape(), 1000 + i))
        .collect();

    // Execute on real threads and verify against single-device
    // inference (bit-exact split/stitch).
    let engine = pico.engine(42);
    let report = pico.runtime(&plan, &engine).build().run(inputs.clone())?;
    for (input, output) in inputs.iter().zip(&report.outputs) {
        assert_eq!(output, &engine.infer(input)?, "split/stitch diverged");
    }
    println!(
        "pipeline processed {} frames in {:.1} ms; all outputs verified bit-exact",
        report.outputs.len(),
        report.elapsed.as_secs_f64() * 1e3
    );
    for t in &report.timings {
        println!(
            "  frame {} done at {:>7.2} ms",
            t.task,
            t.completed_at * 1e3
        );
    }

    // Throttled run: stretch compute to cost-model proportions (1 ms of
    // simulated time per second of Pi time) so the heterogeneous stage
    // balance is visible in wall-clock completion gaps.
    let throttled = pico
        .runtime(&plan, &engine)
        .throttle(Throttle::new(pico.cluster().clone(), pico.params(), 1e-3))
        .build()
        .run(inputs)?;
    println!(
        "\nthrottled run (1000x faster than the real cluster): {:.1} ms total",
        throttled.elapsed.as_secs_f64() * 1e3
    );
    let gaps: Vec<f64> = throttled
        .timings
        .windows(2)
        .map(|w| (w[1].completed_at - w[0].completed_at) * 1e3)
        .collect();
    println!("completion gaps between frames (ms): {gaps:.1?}");
    println!("(steady-state gap ~= pipeline period; smaller than full latency = overlap)");

    // Failure injection: script one device's departure from the first
    // task on and watch the error surface (no recovery policy).
    let victim = plan.stages[0].assignments[0].device;
    let departures = ClusterSchedule::new().leave(victim, 0);
    let epochs = departures.epochs(pico.cluster())?;
    let faulty = pico
        .runtime(&plan, &engine)
        .leaves(&epochs[0].leaves)
        .build();
    match faulty.run(vec![Tensor::random(pico.model().input_shape(), 7)]) {
        Err(e) => println!("\nwith device {victim} failed: error surfaced as expected: {e}"),
        Ok(_) => println!("\nunexpected success with a failed device"),
    }
    Ok(())
}
