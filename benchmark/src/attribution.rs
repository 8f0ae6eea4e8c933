//! Layer attribution of the traced window: where one operation's time
//! goes, from the harness's own spans plus the spans the runtime and
//! serve crates already emit into `Recorder::in_memory()`.
//!
//! Every number here comes from the *one* traced window — nothing is
//! derived by subtracting readings taken under different load. The
//! harness's spans and the program's events run on different clocks
//! (the harness's epoch, the server's start, the session's start), so
//! only durations on one clock are ever combined, never instants
//! across clocks.

use std::collections::HashMap;

use pico_telemetry::json::fmt_f64;
use pico_telemetry::{names, Ctx, Event, EventKind};

use crate::cli::RunConfig;
use crate::load::Window;
use crate::report::Metric;
use crate::spans::{self_times, spans_json, Span};
use crate::stats::median;
use crate::workloads::Kind;

/// One stage's handling of one task, from the runtime's own spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StagePath {
    /// `stage_busy` begin, seconds on the session's clock.
    pub begin: f64,
    /// `stage_busy` end.
    pub end: f64,
    /// `scatter` span duration.
    pub scatter: f64,
    /// Longest `compute` span among the stage's workers — the slowest
    /// shard sets the stage time.
    pub compute: f64,
    /// `stitch` span duration.
    pub stitch: f64,
    /// Bytes the scatter shipped.
    pub scatter_bytes: u64,
    /// Of those, halo bytes beyond the exact cover.
    pub halo_bytes: u64,
}

/// One task's way through the pipeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskPath {
    /// Per stage, ascending.
    pub stages: Vec<StagePath>,
}

impl TaskPath {
    fn sum(&self, f: impl Fn(&StagePath) -> f64) -> f64 {
        self.stages.iter().map(f).sum()
    }

    /// Scatter time over all stages.
    pub fn scatter(&self) -> f64 {
        self.sum(|s| s.scatter)
    }

    /// Critical-path compute time over all stages.
    pub fn compute(&self) -> f64 {
        self.sum(|s| s.compute)
    }

    /// Stitch time over all stages.
    pub fn stitch(&self) -> f64 {
        self.sum(|s| s.stitch)
    }

    /// Stage busy time over all stages.
    pub fn busy(&self) -> f64 {
        self.sum(|s| s.end - s.begin)
    }

    /// Busy time that is neither scatter, critical compute nor stitch:
    /// the coordinator ↔ worker hand-offs inside the stages.
    pub fn handoff(&self) -> f64 {
        (self.busy() - self.scatter() - self.compute() - self.stitch()).max(0.0)
    }

    /// Time spent between stages, in the inter-stage queues.
    pub fn link(&self) -> f64 {
        self.stages
            .windows(2)
            .map(|w| (w[1].begin - w[0].end).max(0.0))
            .sum()
    }

    /// Share of scatter time that moved halo bytes.
    pub fn halo(&self) -> f64 {
        self.sum(|s| {
            if s.scatter_bytes == 0 {
                0.0
            } else {
                s.scatter * s.halo_bytes as f64 / s.scatter_bytes as f64
            }
        })
    }

    /// First stage's begin.
    pub fn begin(&self) -> f64 {
        self.stages.first().map_or(0.0, |s| s.begin)
    }

    /// Last stage's end.
    pub fn end(&self) -> f64 {
        self.stages.last().map_or(0.0, |s| s.end)
    }
}

/// Rebuilds per-task pipeline paths from the runtime's recorded spans.
/// Tasks whose spans are incomplete (still in flight at the snapshot)
/// are left out; the result is indexed by task id.
pub fn task_paths(events: &[Event]) -> Vec<Option<TaskPath>> {
    // A span is a begin and an end with the same name and context.
    let mut open: HashMap<(&'static str, Ctx), (f64, u64)> = HashMap::new();
    let mut paths: Vec<Option<TaskPath>> = Vec::new();
    fn slot(paths: &mut Vec<Option<TaskPath>>, task: u32, stage: u32) -> &mut StagePath {
        let task = task as usize;
        if paths.len() <= task {
            paths.resize(task + 1, None);
        }
        let path = paths[task].get_or_insert_with(TaskPath::default);
        let stage = stage as usize;
        if path.stages.len() <= stage {
            path.stages.resize(stage + 1, StagePath::default());
        }
        &mut path.stages[stage]
    }
    for e in events {
        let (Some(task), Some(stage)) = (e.ctx.task.get(), e.ctx.stage.get()) else {
            continue;
        };
        let tracked = [
            names::SCATTER,
            names::COMPUTE,
            names::STITCH,
            names::STAGE_BUSY,
        ];
        match e.kind {
            EventKind::SpanBegin if tracked.contains(&e.name) => {
                open.insert((e.name, e.ctx), (e.ts, e.bytes));
            }
            EventKind::SpanEnd => {
                let Some((begin, bytes)) = open.remove(&(e.name, e.ctx)) else {
                    continue;
                };
                let s = slot(&mut paths, task, stage);
                let took = e.ts - begin;
                if e.name == names::SCATTER {
                    s.scatter = took;
                    s.scatter_bytes = bytes;
                } else if e.name == names::COMPUTE {
                    s.compute = s.compute.max(took);
                } else if e.name == names::STITCH {
                    s.stitch = took;
                } else {
                    s.begin = begin;
                    s.end = e.ts;
                }
            }
            EventKind::Instant if e.name == names::HALO_EXCHANGE => {
                slot(&mut paths, task, stage).halo_bytes = e.bytes;
            }
            _ => {}
        }
    }
    // A task is complete once every stage of the plan has its busy span.
    let stage_count = paths.iter().flatten().map(|t| t.stages.len()).max();
    for p in &mut paths {
        let complete = p.as_ref().is_some_and(|t| {
            Some(t.stages.len()) == stage_count && t.stages.iter().all(|s| s.end > 0.0)
        });
        if !complete {
            *p = None;
        }
    }
    paths
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The crate the time belongs to.
    pub layer: &'static str,
    /// What the time is.
    pub what: &'static str,
    /// Median over the window's operations, milliseconds.
    pub ms: f64,
}

/// The traced window's attribution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    /// Self time per layer step along one operation.
    pub rows: Vec<Row>,
    /// Median over operations of the sum of their steps, milliseconds:
    /// what the layers account for, held against the untraced p50.
    pub per_op_total_ms: f64,
    /// Mean micro-batch size the server formed in the window (0 when
    /// the workload bypasses serve).
    pub mean_batch: f64,
    /// Requests the server rejected in the window.
    pub rejected: u64,
}

const PIPELINE_STEPS: [(&str, &str); 6] = [
    ("runtime", "scatter"),
    ("tensor", "compute (slowest shard)"),
    ("runtime", "worker hand-off"),
    ("runtime", "stitch"),
    ("runtime", "inter-stage link"),
    ("runtime", "wait for batch-mates"),
];

fn pipeline_steps(own: &TaskPath, batch_begin: f64, batch_end: f64) -> [f64; 6] {
    let waited = (batch_end - batch_begin) - (own.busy() + own.link());
    [
        own.scatter(),
        own.compute(),
        own.handoff(),
        own.stitch(),
        own.link(),
        waited.max(0.0),
    ]
}

fn batch_bounds(paths: &[Option<TaskPath>], first: usize, len: usize) -> Option<(f64, f64)> {
    let mut begin = f64::INFINITY;
    let mut end = f64::NEG_INFINITY;
    for p in paths.get(first..first + len)? {
        let p = p.as_ref()?;
        begin = begin.min(p.begin());
        end = end.max(p.end());
    }
    Some((begin, end))
}

fn table_from(steps: &[(&'static str, &'static str)], ops: &[Vec<f64>]) -> (Vec<Row>, f64) {
    let rows = steps
        .iter()
        .enumerate()
        .map(|(c, (layer, what))| {
            let column: Vec<f64> = ops.iter().map(|op| op[c]).collect();
            Row {
                layer,
                what,
                ms: median(&column).unwrap_or(0.0) * 1e3,
            }
        })
        .collect();
    let totals: Vec<f64> = ops.iter().map(|op| op.iter().sum()).collect();
    (rows, median(&totals).unwrap_or(0.0) * 1e3)
}

/// Builds the self-time table for `kind` from the traced window.
pub fn attribute(
    kind: Kind,
    spans: &[Span],
    events: &[Event],
    warmup_ops: usize,
    window: &Window,
) -> Table {
    match kind {
        Kind::ReplanChurn => churn_table(spans),
        Kind::PipelineClosedAlexnet => pipeline_table(events, warmup_ops, kind.batch()),
        Kind::ServeClosedTiny | Kind::ServeOpenTiny => {
            serve_table(spans, events, warmup_ops, window)
        }
    }
}

/// Single thread, harness spans only: each call's self time.
fn churn_table(spans: &[Span]) -> Table {
    const STEPS: [(&str, &str, &str); 6] = [
        ("fleet", "CacheKey::new", "fleet.key"),
        ("fleet", "cache lookup + insert", "fleet.get_or_build"),
        (
            "fleet.build",
            "FleetFrontier::build",
            "fleet.frontier_build",
        ),
        ("fleet", "max_throughput + clone", "fleet.select"),
        ("audit", "audit_switch_pair", "audit.switch_pair"),
        ("fleet", "invalidate_stale", "fleet.invalidate"),
    ];
    let own = self_times(spans);
    let ops_count = spans.iter().filter(|s| s.name == "op").count();
    let mut ops = vec![vec![0.0; STEPS.len()]; ops_count];
    for (s, t) in spans.iter().zip(own) {
        if let Some(c) = STEPS.iter().position(|(_, _, name)| *name == s.name) {
            if let Some(op) = ops.get_mut(s.request as usize) {
                op[c] += t;
            }
        }
    }
    let steps: Vec<(&str, &str)> = STEPS.iter().map(|(l, w, _)| (*l, *w)).collect();
    let (rows, per_op_total_ms) = table_from(&steps, &ops);
    Table {
        rows,
        per_op_total_ms,
        ..Table::default()
    }
}

/// Direct `ExecutionSession::submit`: the runtime's spans per task.
fn pipeline_table(events: &[Event], warmup_ops: usize, batch: usize) -> Table {
    let paths = task_paths(events);
    let mut ops = Vec::new();
    let mut first = warmup_ops;
    while let Some((begin, end)) = batch_bounds(&paths, first, batch) {
        for p in paths[first..first + batch].iter().flatten() {
            ops.push(pipeline_steps(p, begin, end).to_vec());
        }
        first += batch;
    }
    let (rows, per_op_total_ms) = table_from(&PIPELINE_STEPS, &ops);
    Table {
        rows,
        per_op_total_ms,
        ..Table::default()
    }
}

/// `Pico::serve`: the harness's submit spans, the server's admission
/// and batch-formation events, and the runtime's spans per task.
///
/// Requests are matched to runtime tasks by order: the k-th admitted
/// request is the k-th task the round-robin batcher takes, which holds
/// while every tenant has work queued whenever a batch forms (and
/// costs at most a misattributed batch-mate otherwise).
fn serve_table(spans: &[Span], events: &[Event], warmup_ops: usize, window: &Window) -> Table {
    let admitted: Vec<f64> = events
        .iter()
        .filter(|e| e.name == names::TASK_ADMITTED)
        .map(|e| e.ts)
        .collect();
    let formed: Vec<(f64, usize)> = events
        .iter()
        .filter(|e| e.name == names::BATCH_FORMED)
        .map(|e| (e.ts, e.value as usize))
        .collect();
    let rejected = events
        .iter()
        .filter(|e| e.name == names::TASK_REJECTED)
        .count() as u64;
    let paths = task_paths(events);

    let mut submits: Vec<&Span> = spans.iter().filter(|s| s.name == "serve.submit").collect();
    submits.sort_by(|a, b| a.start.total_cmp(&b.start));
    // Open loop only: the request was due before it was submitted.
    let mut dues: HashMap<u32, f64> = HashMap::new();
    if !window.sched_lag_ms.is_empty() {
        for s in spans.iter().filter(|s| s.name == "op") {
            dues.insert(s.request, s.start);
        }
    }

    let mut steps = vec![
        ("bench", "generator lateness"),
        ("serve", "submit call"),
        ("serve", "queue + batch formation"),
    ];
    steps.extend(PIPELINE_STEPS);

    let mut ops = Vec::new();
    let mut batch_sizes = Vec::new();
    let mut first = 0usize;
    for &(formed_at, size) in &formed {
        let in_window = first >= warmup_ops;
        if in_window {
            batch_sizes.push(size as f64);
        }
        if let (true, Some((begin, end))) = (in_window, batch_bounds(&paths, first, size)) {
            for i in first..first + size {
                let (Some(Some(path)), Some(at), Some(call)) =
                    (paths.get(i), admitted.get(i), submits.get(i - warmup_ops))
                else {
                    continue;
                };
                let late = dues
                    .get(&call.request)
                    .map_or(0.0, |due| (call.start - due).max(0.0));
                let mut op = vec![late, call.end - call.start, (formed_at - at).max(0.0)];
                op.extend(pipeline_steps(path, begin, end));
                ops.push(op);
            }
        }
        first += size;
    }
    let (rows, per_op_total_ms) = table_from(&steps, &ops);
    let mean_batch = if batch_sizes.is_empty() {
        0.0
    } else {
        batch_sizes.iter().sum::<f64>() / batch_sizes.len() as f64
    };
    Table {
        rows,
        per_op_total_ms,
        mean_batch,
        rejected,
    }
}

/// Writes the run's trace file and returns its path.
///
/// # Errors
///
/// Errs when the output directory or file cannot be written.
pub fn write_trace(
    cfg: &RunConfig,
    spans: &[Span],
    events: &[Event],
    table: &Table,
    metrics: &[Metric],
) -> Result<String, String> {
    // Run from the repo root (the driver, `cargo run --manifest-path`)
    // or from inside `benchmark/`.
    let dir = if std::path::Path::new("benchmark/Cargo.toml").exists() {
        "benchmark/out"
    } else {
        "out"
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let path = format!("{dir}/trace_{}.json", cfg.kind.name());

    // Program events are summarized per name; the full list of a
    // 1.5 k rps window would run to tens of megabytes.
    let mut by_name: Vec<(&'static str, usize)> = Vec::new();
    for e in events {
        match by_name.iter_mut().find(|(n, _)| *n == e.name) {
            Some(row) => row.1 += 1,
            None => by_name.push((e.name, 1)),
        }
    }
    let rows: Vec<String> = table
        .rows
        .iter()
        .map(|r| {
            format!(
                "{{\"layer\": \"{}\", \"what\": \"{}\", \"ms\": {}}}",
                r.layer,
                r.what,
                fmt_f64(r.ms)
            )
        })
        .collect();
    let layer: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_f64(m.value),
                m.unit
            )
        })
        .collect();
    let program: Vec<String> = by_name
        .iter()
        .map(|(n, c)| format!("\"{n}\": {c}"))
        .collect();
    const SPAN_LIMIT: usize = 20_000;
    let doc = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"self_time_per_op\": [{}],\n  \
         \"per_op_total_ms\": {},\n  \"per_layer\": {{{}}},\n  \"program_event_counts\": {{{}}},\n  \
         \"harness_spans_total\": {},\n  \"harness_spans\": {}\n}}\n",
        cfg.kind.name(),
        cfg.seed,
        rows.join(", "),
        fmt_f64(table.per_op_total_ms),
        layer.join(", "),
        program.join(", "),
        spans.len(),
        spans_json(spans, SPAN_LIMIT)
    );
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_pair(name: &'static str, ctx: Ctx, begin: f64, end: f64, bytes: u64) -> [Event; 2] {
        [
            Event::span_begin(begin, name, ctx).with_bytes(bytes),
            Event::span_end(end, name, ctx),
        ]
    }

    /// One task over two stages; stage 0 has two workers.
    fn two_stage_task(task: usize, t: f64) -> Vec<Event> {
        let s0 = Ctx::stage(0).for_task(task);
        let s1 = Ctx::stage(1).for_task(task);
        let mut ev = Vec::new();
        ev.extend(span_pair(names::SCATTER, s0, t, t + 1.0, 100));
        ev.push(Event::instant(t + 1.0, names::HALO_EXCHANGE, s0).with_bytes(25));
        ev.extend(span_pair(
            names::COMPUTE,
            s0.on_device(0),
            t + 1.0,
            t + 4.0,
            0,
        ));
        ev.extend(span_pair(
            names::COMPUTE,
            s0.on_device(1),
            t + 1.0,
            t + 6.0,
            0,
        ));
        ev.extend(span_pair(names::STITCH, s0, t + 7.0, t + 8.0, 0));
        ev.extend(span_pair(names::STAGE_BUSY, s0, t, t + 8.0, 0));
        ev.extend(span_pair(names::SCATTER, s1, t + 10.0, t + 10.5, 40));
        ev.extend(span_pair(
            names::COMPUTE,
            s1.on_device(2),
            t + 10.5,
            t + 12.5,
            0,
        ));
        ev.extend(span_pair(names::STITCH, s1, t + 12.5, t + 13.0, 0));
        ev.extend(span_pair(names::STAGE_BUSY, s1, t + 10.0, t + 13.0, 0));
        ev
    }

    #[test]
    fn task_paths_follow_the_runtime_spans() {
        let mut events = two_stage_task(0, 0.0);
        // Task 1 is still in flight: stage 1 never finished.
        let s0 = Ctx::stage(0).for_task(1);
        events.extend(span_pair(names::STAGE_BUSY, s0, 20.0, 21.0, 0));
        events.push(Event::span_begin(
            22.0,
            names::STAGE_BUSY,
            Ctx::stage(1).for_task(1),
        ));
        let paths = task_paths(&events);
        assert_eq!(paths.len(), 2);
        assert!(paths[1].is_none());
        let p = paths[0].as_ref().unwrap();
        assert_eq!(p.scatter(), 1.5);
        assert_eq!(p.compute(), 5.0 + 2.0); // slowest worker per stage
        assert_eq!(p.stitch(), 1.5);
        assert_eq!(p.busy(), 11.0);
        assert_eq!(p.handoff(), 1.0);
        assert_eq!(p.link(), 2.0);
        assert_eq!(p.halo(), 0.25);
        assert_eq!((p.begin(), p.end()), (0.0, 13.0));
    }

    #[test]
    fn pipeline_steps_partition_the_batch_span() {
        let mut events = two_stage_task(0, 0.0);
        events.extend(two_stage_task(1, 5.0));
        let table = pipeline_table(&events, 0, 2);
        // Batch span 0 → 18 for both tasks; each task's steps sum to it.
        assert_eq!(table.per_op_total_ms, 18.0 * 1e3);
        let wait = table.rows.iter().find(|r| r.what == "wait for batch-mates");
        assert_eq!(wait.unwrap().ms, 5.0 * 1e3);
        assert_eq!(table.mean_batch, 0.0);
    }

    #[test]
    fn churn_table_charges_each_call_its_self_time() {
        let mk = |name, layer, start, end, parent, request| Span {
            name,
            layer,
            start,
            end,
            parent,
            request,
        };
        let none = crate::spans::NO_SPAN;
        let spans = vec![
            mk("op", "bench", 0.0, 10.0, none, 0),
            mk("fleet.key", "fleet", 0.0, 1.0, 0, 0),
            mk("fleet.get_or_build", "fleet", 1.0, 8.0, 0, 0),
            mk("fleet.frontier_build", "fleet.build", 2.0, 7.0, 2, 0),
            mk("audit.switch_pair", "audit", 8.0, 9.5, 0, 0),
        ];
        let t = churn_table(&spans);
        let ms = |what: &str| t.rows.iter().find(|r| r.what == what).unwrap().ms;
        assert_eq!(ms("CacheKey::new"), 1e3);
        assert_eq!(ms("cache lookup + insert"), 2e3);
        assert_eq!(ms("FleetFrontier::build"), 5e3);
        assert_eq!(ms("audit_switch_pair"), 1.5e3);
        assert_eq!(ms("invalidate_stale"), 0.0);
        // The op's own 0.5 s of glue is not a layer's.
        assert_eq!(t.per_op_total_ms, 9.5e3);
    }
}
