//! One run of one workload: the untraced run yields the end-to-end
//! metrics, the traced run the per-layer ones.

use pico_telemetry::Recorder;

use crate::attribution;
use crate::cli::RunConfig;
use crate::host;
use crate::load::{Window, ROUNDS};
use crate::probes;
use crate::report::{Metric, Summary};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, round_rates, sorted, Fnv};
use crate::workloads::{prepare, Kind, WindowPlan};

/// Fresh set-ups per run, each followed by its share of the timed
/// window; `setup_s` is their median.
const SEGMENTS: usize = 5;

/// Longest window of the traced run, each for its untraced reference
/// and its traced repetition.
const TRACED_WINDOW_SECS: f64 = 10.0;

/// The end-to-end readings of a window.
#[derive(Debug, Clone, Copy)]
pub struct Readings {
    /// Operations completed per second.
    pub throughput_rps: f64,
    /// Pooled median latency, ms.
    pub latency_p50_ms: f64,
    /// Pooled tail latency at the workload's percentile, ms.
    pub latency_tail_ms: f64,
    /// Process CPU milliseconds per completed operation.
    pub cpu_ms_per_op: f64,
    /// Peak live heap of the median round, MiB.
    pub heap_peak_mb: f64,
    /// Inter-quartile spread of the per-round rates, percent of their median.
    pub round_spread_pct: f64,
    /// Pooled latency at [`SHOWN_PERCENTILES`], ms (printed, not reported).
    pub latency_ms: [f64; 5],
}

/// The latency percentiles every run prints beside its metrics.
const SHOWN_PERCENTILES: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// Reduces a run's timed windows — one per freshly set-up segment —
/// to its end-to-end readings: latencies pooled, rates and heap peaks
/// per round, CPU time per completed operation overall.
///
/// # Errors
///
/// Errs when a window completed nothing.
pub fn readings(kind: Kind, windows: &[Window]) -> Result<Readings, String> {
    if windows
        .iter()
        .any(|w| w.samples.is_empty() || w.secs <= 0.0)
    {
        return Err("a timed window completed no operation".to_owned());
    }
    let rounds = (ROUNDS / windows.len()).max(1);
    let completed: f64 = windows.iter().map(|w| w.samples.len() as f64).sum();
    let secs: f64 = windows.iter().map(|w| w.secs).sum();
    let cpu_secs: f64 = windows.iter().map(|w| w.cpu_secs).sum();
    let latencies = sorted(
        windows
            .iter()
            .flat_map(|w| w.samples.iter().map(|s| f64::from(s.latency_ms)))
            .collect(),
    );
    let mut rates = Vec::with_capacity(ROUNDS);
    let mut peaks = Vec::with_capacity(ROUNDS);
    for w in windows {
        let done: Vec<f64> = w.samples.iter().map(|s| f64::from(s.done_s)).collect();
        rates.extend(round_rates(&done, w.secs, rounds));
        peaks.extend(w.round_peaks.iter().map(|p| *p as f64));
    }
    let throughput_rps = match kind {
        // An open loop completes what its schedule offers, no more: the
        // schedule's own Poisson clumping would be all a per-round
        // median could show, so its rate is taken over the whole window.
        Kind::ServeOpenTiny => completed / secs,
        _ => median(&rates).unwrap_or(0.0),
    };
    Ok(Readings {
        throughput_rps,
        latency_p50_ms: percentile(&latencies, 50.0).unwrap_or(0.0),
        latency_tail_ms: percentile(&latencies, f64::from(kind.tail_percentile())).unwrap_or(0.0),
        cpu_ms_per_op: cpu_secs * 1e3 / completed,
        heap_peak_mb: median(&peaks).unwrap_or(0.0) / (1u64 << 20) as f64,
        round_spread_pct: crate::stats::iqr_share(&rates).unwrap_or(0.0) * 100.0,
        latency_ms: SHOWN_PERCENTILES.map(|p| percentile(&latencies, p).unwrap_or(0.0)),
    })
}

fn warn_if_drifted(before: f64, after: f64) {
    let drift = host::drift_pct(before, after);
    if drift.abs() > host::DRIFT_FLAG_PCT {
        println!(
            "WARNING: host reference loop moved {drift:+.1} % during this run \
             ({before:.2} ms -> {after:.2} ms): the box changed under the measurement"
        );
    }
}

fn warn_if_tail_unsupported(kind: Kind, samples: usize) {
    let supported = crate::stats::tail_percentile_for(samples).unwrap_or(0);
    if supported < kind.tail_percentile() {
        println!(
            "note: p{} has fewer than ten of {samples} samples beyond it at this run length",
            kind.tail_percentile()
        );
    }
}

/// The untraced run: `SEGMENTS` times over, set the program up afresh
/// and measure a window of `seconds ÷ SEGMENTS`. Which cores the
/// program's threads settle on is drawn anew with every set-up and
/// then sticks; a run that pooled one instance's window would report
/// that draw, where five instances report their mix.
///
/// # Errors
///
/// Errs when the program refuses to set up or run.
pub fn untraced(cfg: &RunConfig) -> Result<Summary, String> {
    let plan = WindowPlan {
        secs: cfg.seconds / SEGMENTS as f64,
        rounds: ROUNDS / SEGMENTS,
    };
    let workload = prepare(cfg.kind, cfg.seed, plan.secs, SEGMENTS)?;
    let host_before = host::reference_loop_ms();
    let noop = Recorder::noop();
    let mut setups = Vec::with_capacity(SEGMENTS);
    let mut windows = Vec::with_capacity(SEGMENTS);
    let mut load_hash = Fnv::default();
    for segment in 0..SEGMENTS {
        let outcome = workload.run(segment, Some(plan), &noop, false)?;
        setups.push(outcome.setup_s);
        load_hash.write(outcome.load_hash);
        windows.push(outcome.window.ok_or("the run produced no window")?);
    }
    let host_after = host::reference_loop_ms();
    let r = readings(cfg.kind, &windows)?;
    let setup_s = median(&setups).unwrap_or(0.0);
    let total = |f: &dyn Fn(&Window) -> u64| windows.iter().map(f).sum::<u64>();
    let (attempted, failed) = (total(&|w| w.attempted), total(&|w| w.failed));
    let completed = total(&|w| w.samples.len() as u64);

    println!(
        "workload {}  seed {}  seconds {}  load hash {:016x}",
        cfg.kind.name(),
        cfg.seed,
        cfg.seconds,
        load_hash.finish()
    );
    println!(
        "  {SEGMENTS} fresh set-ups x {:.3} s windows = {:.3} s, {completed} completed, \
         {attempted} attempted, {failed} failed, tail = p{}",
        plan.secs,
        windows.iter().map(|w| w.secs).sum::<f64>(),
        cfg.kind.tail_percentile()
    );
    println!(
        "  set-ups (s): {}",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "  rounds: {ROUNDS}, inter-quartile spread of round rates {:.2} %; host ref {:.2} -> {:.2} ms",
        r.round_spread_pct, host_before, host_after
    );
    println!(
        "  latency (ms): {}",
        SHOWN_PERCENTILES
            .iter()
            .zip(r.latency_ms)
            .map(|(p, ms)| format!("p{p} {ms:.3}"))
            .collect::<Vec<_>>()
            .join("  ")
    );
    let lag = sorted(
        windows
            .iter()
            .flat_map(|w| w.sched_lag_ms.clone())
            .collect(),
    );
    if let Some(p95) = percentile(&lag, 95.0) {
        println!("  generator lateness p95 {p95:.3} ms");
    }
    if total(&|w| w.cache_lookups) > 0 {
        println!(
            "  plan cache: {} hits of {} lookups; {} plan switches audited cold-only",
            total(&|w| w.cache_hits),
            total(&|w| w.cache_lookups),
            total(&|w| w.switch_refusals)
        );
    }
    warn_if_drifted(host_before, host_after);
    warn_if_tail_unsupported(cfg.kind, completed as usize);

    let values = [
        setup_s,
        r.throughput_rps,
        r.latency_p50_ms,
        r.latency_tail_ms,
        r.cpu_ms_per_op,
        r.heap_peak_mb,
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            value,
            unit: m.unit,
        })
        .collect();
    for (m, spec) in metrics.iter().zip(&END_TO_END) {
        println!(
            "  {:<18} {:>14.4} {:<4} ({} is better, bound {:.0} %)",
            m.name,
            m.value,
            m.unit,
            spec.better.word(),
            spec.bound * 100.0
        );
    }
    Ok(Summary {
        correct: failed == 0 && metrics.iter().all(|m| m.value.is_finite()),
        attempted,
        failed,
        metrics,
    })
}

/// The traced run: an untraced reference window, the same window again
/// with the harness's spans on and `Recorder::in_memory()` handed to
/// the program's builders, then the idle probes. Prints the self-time
/// table for one operation and every per-layer metric; writes
/// `benchmark/out/trace_<workload>.json`.
///
/// # Errors
///
/// Errs when the program refuses to set up or run.
pub fn traced(cfg: &RunConfig) -> Result<Summary, String> {
    let secs = (cfg.seconds * 0.4).min(TRACED_WINDOW_SECS);
    let plan = WindowPlan {
        secs,
        rounds: ROUNDS,
    };
    // One load segment, offered twice: untraced, then traced.
    let workload = prepare(cfg.kind, cfg.seed, secs, 1)?;
    let host_before = host::reference_loop_ms();

    let reference = workload.run(0, Some(plan), &Recorder::noop(), false)?;
    let ref_window = reference
        .window
        .ok_or("the reference run produced no window")?;
    let ref_readings = readings(cfg.kind, std::slice::from_ref(&ref_window))?;

    let recorder = Recorder::in_memory();
    let outcome = workload.run(0, Some(plan), &recorder, true)?;
    let events = recorder.snapshot();
    let window = outcome
        .window
        .as_ref()
        .ok_or("the traced run produced no window")?;
    let traced_readings = readings(cfg.kind, std::slice::from_ref(window))?;

    let table = attribution::attribute(
        cfg.kind,
        &outcome.spans,
        &events,
        outcome.warmup_ops,
        window,
    );
    let reconciled_ms = table.per_op_total_ms;
    let overhead_pct = (traced_readings.latency_p50_ms - ref_readings.latency_p50_ms)
        / ref_readings.latency_p50_ms
        * 100.0;
    let reconcile_pct =
        (reconciled_ms - ref_readings.latency_p50_ms).abs() / ref_readings.latency_p50_ms * 100.0;

    println!(
        "workload {}  seed {}  traced window {:.1} s  load hash {:016x}",
        cfg.kind.name(),
        cfg.seed,
        secs,
        outcome.load_hash
    );
    println!(
        "  untraced p50 {:.4} ms ({} ops), traced p50 {:.4} ms ({} ops), {} harness spans, {} program events",
        ref_readings.latency_p50_ms,
        ref_window.samples.len(),
        traced_readings.latency_p50_ms,
        window.samples.len(),
        outcome.spans.len(),
        events.len()
    );
    println!("  self time along one operation (median operation of the traced window):");
    for row in &table.rows {
        println!(
            "    {:<10} {:<24} {:>10.4} ms  {:>5.1} %",
            row.layer,
            row.what,
            row.ms,
            row.ms / reconciled_ms.max(f64::MIN_POSITIVE) * 100.0
        );
    }
    println!(
        "    {:<35} {:>10.4} ms  vs untraced p50 {:.4} ms",
        "sum", reconciled_ms, ref_readings.latency_p50_ms
    );

    let mut values = probes::idle(cfg.kind)?;
    let host_after = host::reference_loop_ms();
    let lag_p95 = percentile(&sorted(window.sched_lag_ms.clone()), 95.0).unwrap_or(0.0);
    let hit_ratio = if window.cache_lookups > 0 {
        window.cache_hits as f64 / window.cache_lookups as f64
    } else {
        0.0
    };
    values.extend([
        ("serve.mean_batch", table.mean_batch),
        (
            "serve.rejected_share",
            table.rejected as f64 / window.attempted.max(1) as f64,
        ),
        ("fleet.hit_ratio", hit_ratio),
        ("bench.trace_overhead_pct", overhead_pct),
        ("bench.reconcile_err_pct", reconcile_pct),
        ("bench.sched_lag_p95_ms", lag_p95),
        ("bench.host_ref_ms", host_before),
        (
            "bench.host_drift_pct",
            host::drift_pct(host_before, host_after),
        ),
        ("bench.round_spread_pct", ref_readings.round_spread_pct),
    ]);
    warn_if_drifted(host_before, host_after);

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for m in &PER_LAYER {
        let value = values
            .iter()
            .find(|(name, _)| *name == m.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("no probe produced {}", m.name))?;
        metrics.push(Metric {
            name: m.name,
            value,
            unit: m.unit,
        });
    }
    println!("  per-layer metrics:");
    for (m, spec) in metrics.iter().zip(&PER_LAYER) {
        println!(
            "    {:<28} {:>16.4} {:<8} ({} is better)",
            m.name,
            m.value,
            m.unit,
            spec.better.word()
        );
    }

    let path = attribution::write_trace(cfg, &outcome.spans, &events, &table, &metrics)?;
    println!("  trace written to {path}");

    let failed = window.failed + ref_window.failed;
    Ok(Summary {
        correct: failed == 0 && metrics.iter().all(|m| m.value.is_finite()),
        attempted: window.attempted + ref_window.attempted,
        failed,
        metrics,
    })
}
