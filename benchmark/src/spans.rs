//! The harness's own in-memory spans.
//!
//! In a traced run every call the harness makes into a layer is
//! wrapped in a span — name, layer, start, end, the span that caused
//! it, and the request it belongs to. Spans live in a plain `Vec` owned
//! by the recording thread (no lock, no shared state) and are written
//! out once, when the benchmark ends. A disabled [`Tracer`] reads no
//! clock and stores nothing, so the untraced run pays one branch.

use std::time::Instant;

/// Index of a span inside its [`Tracer`]; [`NO_SPAN`] when tracing is off
/// or the span has no parent.
pub type SpanId = u32;

/// "No span": the parent of a root span, and what a disabled tracer returns.
pub const NO_SPAN: SpanId = u32::MAX;

/// One recorded span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `serve.submit`.
    pub name: &'static str,
    /// The crate (layer) the time belongs to, e.g. `serve`.
    pub layer: &'static str,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch (`start` until the span is closed).
    pub end: f64,
    /// The span that caused this one, or [`NO_SPAN`].
    pub parent: SpanId,
    /// The operation (request) this span belongs to.
    pub request: u32,
}

/// A single-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing and never reads the clock.
    pub fn disabled() -> Self {
        Tracer {
            epoch: None,
            spans: Vec::new(),
        }
    }

    /// A recording tracer whose timestamps count from `epoch`. Threads
    /// of one run share the epoch so their spans line up.
    pub fn enabled(epoch: Instant) -> Self {
        Tracer {
            epoch: Some(epoch),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Whether spans are kept.
    pub fn is_enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: SpanId,
        request: u32,
    ) -> SpanId {
        let Some(epoch) = self.epoch else {
            return NO_SPAN;
        };
        let now = epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            layer,
            start: now,
            end: now,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, id: SpanId) {
        if let (Some(epoch), Some(span)) = (self.epoch, self.spans.get_mut(id as usize)) {
            span.end = epoch.elapsed().as_secs_f64();
        }
    }

    /// Records a span from instants measured elsewhere (the open loop's
    /// request span starts at its *due* time, which is not "now").
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
        request: u32,
    ) {
        if let Some(epoch) = self.epoch {
            self.spans.push(Span {
                name,
                layer,
                start: start.saturating_duration_since(epoch).as_secs_f64(),
                end: end.saturating_duration_since(epoch).as_secs_f64(),
                parent: NO_SPAN,
                request,
            });
        }
    }

    /// Takes over a root span recorded by another thread's tracer of
    /// the same epoch.
    pub fn adopt(&mut self, span: Span) {
        if self.epoch.is_some() {
            self.spans.push(span);
        }
    }

    /// Consumes the tracer, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover (overlapping children are
/// counted once). Index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = children.get_mut(s.parent as usize) {
            kids.push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start - covered).max(0.0)
        })
        .collect()
}

/// Writes spans as a JSON array body (one object per span), keeping at
/// most `limit` so a 10 s trace of a 1.5 k rps workload stays readable.
pub fn spans_json(spans: &[Span], limit: usize) -> String {
    use pico_telemetry::json::fmt_f64;
    let mut out = String::from("[");
    for (i, s) in spans.iter().take(limit).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"layer\": \"{}\", \"start_s\": {}, \"end_s\": {}, \
             \"parent\": {}, \"request\": {}}}",
            s.name,
            s.layer,
            fmt_f64(s.start),
            fmt_f64(s.end),
            if s.parent == NO_SPAN {
                "null".to_owned()
            } else {
                s.parent.to_string()
            },
            s.request
        ));
    }
    out.push_str("\n  ]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: f64, end: f64, parent: SpanId) -> Span {
        Span {
            name: "x",
            layer,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let id = t.begin("a", "serve", NO_SPAN, 1);
        assert_eq!(id, NO_SPAN);
        t.end(id);
        t.record("b", "serve", Instant::now(), Instant::now(), 2);
        assert!(!t.is_enabled());
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parent_and_request() {
        let mut t = Tracer::enabled(Instant::now());
        let op = t.begin("op", "bench", NO_SPAN, 7);
        let call = t.begin("serve.submit", "serve", op, 7);
        t.end(call);
        t.end(op);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, op);
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("bench", 0.0, 10.0, NO_SPAN),
            span("fleet", 1.0, 4.0, 0),
            span("fleet", 3.0, 6.0, 0),  // overlaps the first child by 1
            span("audit", 3.5, 3.75, 2), // grandchild: not the root's child
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![5.0, 3.0, 2.75, 0.25]);
        // Self times partition the root's duration.
        assert_eq!(own.iter().sum::<f64>(), 11.0);
    }

    #[test]
    fn spans_json_parses_back() {
        let spans = vec![span("bench", 0.0, 1.5, NO_SPAN), span("fleet", 0.5, 1.0, 0)];
        let doc = format!("{{\"spans\": {}}}", spans_json(&spans, 10));
        let parsed = pico_telemetry::json::parse(&doc).unwrap();
        let arr = parsed.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(arr[1].get("layer").unwrap().as_str(), Some("fleet"));
    }
}
