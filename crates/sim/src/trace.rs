//! Distributed request tracing over the simulated wire.
//!
//! A [`Tracer`] lives inside the simulation next to [`crate::Metrics`].
//! Actors open spans with [`crate::Context::span_start`], close them with
//! [`crate::Context::span_end`], and propagate them across the network by
//! sending with [`crate::Context::send_spanned`]; the receiving actor finds
//! the context in [`crate::Context::incoming_span`] and can parent its own
//! spans under it. Span timestamps come from the virtual clock, so traces
//! are exactly reproducible for a given seed.
//!
//! Finished span durations are folded into per-name log-scale histograms
//! ([`crate::Hist`]), which is what the bench harness reads for per-stage
//! latency breakdowns. Spans that outlive a configured threshold are also
//! formatted — with their full ancestry — into a slow-op log.

use std::collections::BTreeMap;
use std::fmt::Display;

use crate::metrics::Hist;
use crate::{NodeId, SimDuration, SimTime};

/// Identifies one end-to-end request; shared by every span in the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifies one span within a [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// The portable part of a span: what travels on the wire so a remote actor
/// can parent its work under the sender's span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The request this span belongs to.
    pub trace: TraceId,
    /// The span itself.
    pub span: SpanId,
}

/// One operation interval on one node.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// This span's id (its index in the tracer).
    pub id: SpanId,
    /// The request it belongs to.
    pub trace: TraceId,
    /// The span it was parented under, if any.
    pub parent: Option<SpanId>,
    /// Stage name, e.g. `"osd.journal_commit"`.
    pub name: String,
    /// Node the span was opened on.
    pub node: NodeId,
    /// Virtual time the span opened.
    pub start: SimTime,
    /// Virtual time the span closed; `None` while still open.
    pub end: Option<SimTime>,
    /// Free-form key/value annotations.
    pub tags: Vec<(String, String)>,
}

impl SpanRecord {
    /// Elapsed virtual time, `None` while the span is open.
    pub fn duration(&self) -> Option<SimDuration> {
        self.end.map(|e| e.saturating_since(self.start))
    }
}

/// Sentinel context returned when tracing is disabled; `end`/`tag` on it are
/// no-ops.
const NULL_SPAN: SpanContext = SpanContext {
    trace: TraceId(u64::MAX),
    span: SpanId(u64::MAX),
};

/// Collects spans for every request in a simulation.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<SpanRecord>,
    next_trace: u64,
    hists: BTreeMap<String, Hist>,
    slow_threshold: Option<SimDuration>,
    slow_log: Vec<String>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            enabled: true,
            spans: Vec::new(),
            next_trace: 0,
            hists: BTreeMap::new(),
            slow_threshold: None,
            slow_log: Vec::new(),
        }
    }
}

impl Tracer {
    /// Creates an enabled tracer with no slow-op threshold.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Turns span collection on or off. Disabled tracers hand out a
    /// sentinel context and record nothing.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether span collection is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans closing after more than `threshold` are dumped (with full
    /// ancestry) into the slow-op log. `None` disables the log.
    pub fn set_slow_threshold(&mut self, threshold: Option<SimDuration>) {
        self.slow_threshold = threshold;
    }

    /// Opens a span on `node` at `at`. With a parent the span joins the
    /// parent's trace; without one it roots a fresh trace.
    pub fn start(
        &mut self,
        node: NodeId,
        name: &str,
        parent: Option<SpanContext>,
        at: SimTime,
    ) -> SpanContext {
        if !self.enabled {
            return NULL_SPAN;
        }
        let id = SpanId(self.spans.len() as u64);
        let (trace, parent_span) = match parent {
            Some(p) if p != NULL_SPAN => (p.trace, Some(p.span)),
            _ => {
                let t = TraceId(self.next_trace);
                self.next_trace += 1;
                (t, None)
            }
        };
        self.spans.push(SpanRecord {
            id,
            trace,
            parent: parent_span,
            name: name.to_string(),
            node,
            start: at,
            end: None,
            tags: Vec::new(),
        });
        SpanContext { trace, span: id }
    }

    /// Closes a span at `at`, folding its duration into the per-name
    /// histogram and the slow-op log. Closing an already-closed or sentinel
    /// span is a no-op.
    pub fn end(&mut self, span: SpanContext, at: SimTime) {
        let Some(rec) = self.spans.get_mut(span.span.0 as usize) else {
            return;
        };
        if rec.end.is_some() {
            return;
        }
        rec.end = Some(at);
        let dur = at.saturating_since(rec.start);
        let name = rec.name.clone();
        self.hists
            .entry(name)
            .or_default()
            .observe(dur.as_micros() as f64);
        if let Some(thr) = self.slow_threshold {
            if dur > thr {
                let line = self.format_slow(span.span, dur);
                self.slow_log.push(line);
            }
        }
    }

    /// Attaches a key/value annotation to an open or closed span.
    pub fn tag(&mut self, span: SpanContext, key: &str, value: &str) {
        self.tag_display(span, key, value);
    }

    /// [`Tracer::tag`] with the value formatted here, and only when `span`
    /// is recorded (a disabled tracer hands out a sentinel that is not).
    pub fn tag_display(&mut self, span: SpanContext, key: &str, value: impl Display) {
        if let Some(rec) = self.spans.get_mut(span.span.0 as usize) {
            rec.tags.push((key.to_string(), value.to_string()));
        }
    }

    /// All spans recorded so far, in open order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Looks up one span.
    pub fn span(&self, id: SpanId) -> Option<&SpanRecord> {
        self.spans.get(id.0 as usize)
    }

    /// Every span belonging to `trace`, in open order.
    pub fn trace_spans(&self, trace: TraceId) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.trace == trace).collect()
    }

    /// The chain of ancestors of `id`, root first, ending with `id` itself.
    pub fn ancestry(&self, id: SpanId) -> Vec<&SpanRecord> {
        let mut chain = Vec::new();
        let mut cur = self.span(id);
        while let Some(rec) = cur {
            chain.push(rec);
            cur = rec.parent.and_then(|p| self.span(p));
        }
        chain.reverse();
        chain
    }

    /// The duration histogram (in microseconds) of finished spans named
    /// `name`.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// Iterates over `(span name, duration histogram)` pairs.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Hist)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Formatted entries for spans that exceeded the slow threshold.
    pub fn slow_ops(&self) -> &[String] {
        &self.slow_log
    }

    /// Drops all spans, histograms, and slow-op entries (used between
    /// experiment phases). Keeps enablement and the threshold.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.next_trace = 0;
        self.hists.clear();
        self.slow_log.clear();
    }

    fn format_slow(&self, id: SpanId, dur: SimDuration) -> String {
        let chain = self.ancestry(id);
        let path: Vec<String> = chain
            .iter()
            .map(|s| format!("{}@{}", s.name, s.node))
            .collect();
        let trace = chain.first().map(|s| s.trace.0).unwrap_or(u64::MAX);
        format!(
            "slow op: trace={} span={} took {}us: {}",
            trace,
            id.0,
            dur.as_micros(),
            path.join(" -> ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parentless_span_roots_a_new_trace() {
        let mut t = Tracer::new();
        let a = t.start(NodeId(1), "a", None, SimTime(0));
        let b = t.start(NodeId(1), "b", None, SimTime(0));
        assert_ne!(a.trace, b.trace);
        assert!(t.span(a.span).unwrap().parent.is_none());
    }

    #[test]
    fn child_spans_share_the_trace_and_link_parents() {
        let mut t = Tracer::new();
        let root = t.start(NodeId(1), "req", None, SimTime(0));
        let child = t.start(NodeId(2), "osd", Some(root), SimTime(10));
        let grand = t.start(NodeId(3), "repl", Some(child), SimTime(20));
        assert_eq!(child.trace, root.trace);
        assert_eq!(grand.trace, root.trace);
        let chain = t.ancestry(grand.span);
        let names: Vec<&str> = chain.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["req", "osd", "repl"]);
        assert_eq!(t.trace_spans(root.trace).len(), 3);
    }

    #[test]
    fn end_records_duration_histogram() {
        let mut t = Tracer::new();
        for i in 1..=100u64 {
            let s = t.start(NodeId(0), "op", None, SimTime(0));
            t.end(s, SimTime(i * 100));
        }
        let h = t.hist("op").unwrap();
        assert_eq!(h.count(), 100);
        // Double-end is a no-op.
        let s = t.start(NodeId(0), "op", None, SimTime(0));
        t.end(s, SimTime(50));
        t.end(s, SimTime(5_000_000));
        assert_eq!(t.hist("op").unwrap().count(), 101);
    }

    #[test]
    fn slow_ops_dump_ancestry() {
        let mut t = Tracer::new();
        t.set_slow_threshold(Some(SimDuration::from_millis(1)));
        let root = t.start(NodeId(1), "append", None, SimTime(0));
        let child = t.start(NodeId(2), "write", Some(root), SimTime(10));
        t.end(child, SimTime(5_000));
        t.end(root, SimTime(5_100));
        assert_eq!(t.slow_ops().len(), 2);
        assert!(t.slow_ops()[0].contains("append@n1 -> write@n2"));
        assert!(t.slow_ops()[1].contains("append@n1"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        t.set_enabled(false);
        let s = t.start(NodeId(0), "x", None, SimTime(0));
        t.end(s, SimTime(10));
        t.tag(s, "k", "v");
        assert!(t.spans().is_empty());
        assert!(t.hist("x").is_none());
    }

    #[test]
    fn tags_attach() {
        let mut t = Tracer::new();
        let s = t.start(NodeId(0), "x", None, SimTime(0));
        t.tag(s, "oid", "obj.3");
        assert_eq!(
            t.span(s.span).unwrap().tags,
            vec![("oid".to_string(), "obj.3".to_string())]
        );
    }

    #[test]
    fn clear_resets() {
        let mut t = Tracer::new();
        let s = t.start(NodeId(0), "x", None, SimTime(0));
        t.end(s, SimTime(10));
        t.clear();
        assert!(t.spans().is_empty());
        assert!(t.hist("x").is_none());
    }
}
