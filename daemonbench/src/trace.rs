//! In-memory spans around the benchmark's calls into each crate, and the
//! per-layer self-time table built from them.
//!
//! A span has a name (`<layer>.<op>`, the layer being the crate), a
//! start, an end, a parent and an optional request id. Spans stay in
//! memory until the run ends; [`write_spans`] then writes them out.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span; times are offsets from the run's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// `<layer>.<op>`.
    pub name: &'static str,
    /// The client request this span served, if any.
    pub request: Option<u64>,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
}

impl Span {
    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A per-thread span recorder. Disabled recorders keep nothing, so the
/// untraced runs pay one branch per call site.
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    next: u64,
    stack: Vec<(u64, Duration)>,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A recorder whose ids start at `tag << 48` (one tag per thread, so
    /// ids stay unique when logs merge).
    pub fn new(on: bool, epoch: Instant, tag: u64) -> Self {
        SpanLog {
            on,
            epoch,
            next: tag << 48,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The instant span offsets count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Offset of `now` from the epoch.
    pub fn offset(&self, at: Instant) -> Duration {
        at.saturating_duration_since(self.epoch)
    }

    /// The innermost open span, if any.
    pub fn current(&self) -> Option<u64> {
        self.stack.last().map(|(id, _)| *id)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.span_for(name, None, f)
    }

    /// [`Self::span`] tagged with a request id.
    pub fn span_for<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.next;
        self.next += 1;
        let parent = self.current();
        self.stack.push((id, self.offset(Instant::now())));
        let out = f(self);
        let (_, start) = self.stack.pop().expect("span stack balanced");
        let end = self.offset(Instant::now());
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start,
            end,
        });
        out
    }

    /// Records a span measured elsewhere (for example a request's whole
    /// due → answer interval), returning its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Duration,
        end: Duration,
    ) -> Option<u64> {
        if !self.on {
            return None;
        }
        let id = self.next;
        self.next += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start,
            end,
        });
        Some(id)
    }

    /// Takes every span kept so far.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }

    /// Re-parents spans merged from another thread.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        if self.on {
            self.spans.extend(spans);
        }
    }

    /// Spans kept so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Mean cost of one recorded span in nanoseconds, measured on a scratch
/// recorder (used to state the tracing overhead of a traced run).
pub fn span_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let mut log = SpanLog::new(true, Instant::now(), 0);
    let t0 = Instant::now();
    for _ in 0..N {
        log.span("trace.probe", |_| std::hint::black_box(()));
    }
    t0.elapsed().as_secs_f64() * 1e9 / f64::from(N)
}

/// Self time of every span: its duration minus the part of it its
/// children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, Duration> {
    let mut children: BTreeMap<u64, Vec<(Duration, Duration)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut cursor = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (
                s.id,
                (s.end.saturating_sub(s.start)).saturating_sub(covered),
            )
        })
        .collect()
}

/// Per-layer totals: `(spans, self time)`.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, (usize, Duration)> {
    let selfs = self_times(spans);
    let mut table: BTreeMap<&'static str, (usize, Duration)> = BTreeMap::new();
    for s in spans {
        let row = table.entry(s.layer()).or_default();
        row.0 += 1;
        row.1 += selfs[&s.id];
    }
    table
}

/// Per-span-name totals: `(spans, total time, self time)`.
pub fn op_table(spans: &[Span]) -> BTreeMap<&'static str, (usize, Duration, Duration)> {
    let selfs = self_times(spans);
    let mut table: BTreeMap<&'static str, (usize, Duration, Duration)> = BTreeMap::new();
    for s in spans {
        let row = table.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.end.saturating_sub(s.start);
        row.2 += selfs[&s.id];
    }
    table
}

/// Spans as JSON lines.
pub fn write_spans(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"request\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}}}",
            s.id,
            opt(s.parent),
            s.name,
            opt(s.request),
            s.start.as_secs_f64() * 1e6,
            s.end.as_secs_f64() * 1e6
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            request: None,
            start: Duration::from_millis(a),
            end: Duration::from_millis(b),
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            span(1, None, "loadgen.request", 0, 100),
            span(2, Some(1), "service.encode", 10, 30),
            span(3, Some(1), "service.decode", 20, 40),
            span(4, Some(1), "service.decode", 90, 120),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], Duration::from_millis(100 - 30 - 10));
        let t = layer_table(&spans);
        assert_eq!(t["loadgen"].0, 1);
        assert_eq!(t["service"], (3, Duration::from_millis(20 + 20 + 30)));
    }

    #[test]
    fn nested_spans_record_parents() {
        let mut log = SpanLog::new(true, Instant::now(), 1);
        log.span("core.outer", |log| {
            log.span_for("pairing.inner", Some(9), |_| ());
        });
        let spans = log.take();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "pairing.inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "core.outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.request, Some(9));
        assert!(outer.id >> 48 == 1);
    }

    #[test]
    fn disabled_log_keeps_nothing() {
        let mut log = SpanLog::new(false, Instant::now(), 0);
        assert_eq!(log.span("core.x", |_| 5), 5);
        assert!(log
            .record("core.y", None, None, Duration::ZERO, Duration::ZERO)
            .is_none());
        assert!(log.spans().is_empty());
    }
}
