//! The benchmark's own span recorder. Spans are opened and closed around
//! calls into the layers' public functions, kept in memory, and written
//! as a Chrome trace when the run ends. It never reads the program's
//! `telemetry` spans, so moving or renaming those cannot change a number
//! reported here.
//!
//! A span's layer is the part of its name before the first dot
//! (`tensor.backward` belongs to `tensor`). Root spans are named `op.*`;
//! their self time is the part of an operation no layer span covered.

use std::collections::BTreeMap;
use std::time::Instant;

use matgnn::telemetry::json::escape_str_into;

use crate::stats::self_time;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation (step, request).
    pub op: u64,
}

/// Handle returned by [`Recorder::open`]; pass it to [`Recorder::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Open {
    /// No span: the parent of a root recorded with [`Recorder::record`].
    pub fn none() -> Open {
        Open(None)
    }
}

/// One thread's span log. A disabled recorder does nothing, which is how
/// the same code path runs untraced for the overhead comparison.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    /// Chrome-trace thread id: the rank for multi-rank workloads.
    pub tid: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new(enabled: bool, origin: Instant, tid: u32) -> Self {
        Recorder {
            enabled,
            origin,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts the next operation; spans opened from here on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn close(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close in the order they nest");
    }

    /// Times `f` under a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.open(name);
        let out = f();
        self.close(open);
        out
    }

    /// Records a span after the fact, from timestamps taken elsewhere
    /// (the batcher reports a request's queue wait only when it replies).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Open,
    ) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let rel = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: rel(start),
            end_ns: rel(end),
            parent: parent.0,
            op: self.op,
        });
        Open(Some(self.spans.len() - 1))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name, and the totals the shares are taken against.
#[derive(Debug, Default, Clone)]
pub struct Attribution {
    /// Summed self time per span name, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Summed duration (children included) per span name, ns.
    pub dur_ns: BTreeMap<&'static str, u64>,
    /// Number of spans per name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Summed duration of root (`op.*`) spans, ns.
    pub root_ns: u64,
}

impl Attribution {
    /// Accumulates one recorder's spans.
    pub fn absorb(&mut self, spans: &[Span]) {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        for (s, kids) in spans.iter().zip(&children) {
            *self.self_ns.entry(s.name).or_default() += self_time((s.start_ns, s.end_ns), kids);
            *self.dur_ns.entry(s.name).or_default() += s.end_ns - s.start_ns;
            *self.calls.entry(s.name).or_default() += 1;
            if s.parent.is_none() {
                self.root_ns += s.end_ns - s.start_ns;
            }
        }
    }

    /// Summed self time of every span whose name starts with `prefix`.
    pub fn self_ns_of(&self, prefix: &str) -> u64 {
        self.self_ns
            .iter()
            .filter(|(name, _)| {
                **name == prefix
                    || name
                        .strip_prefix(prefix)
                        .is_some_and(|r| r.starts_with('.'))
            })
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Self-time share of `prefix` in the traced operations' wall time.
    pub fn share(&self, prefix: &str) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        self.self_ns_of(prefix) as f64 / self.root_ns as f64
    }

    /// Share of operation wall time covered by layer spans.
    pub fn coverage(&self) -> f64 {
        1.0 - self.share("op")
    }

    /// Mean duration per call of `name`, children included, ms; 0 when
    /// it never ran.
    pub fn mean_ms(&self, name: &str) -> f64 {
        match (self.dur_ns.get(name), self.calls.get(name)) {
            (Some(&ns), Some(&n)) if n > 0 => ns as f64 / n as f64 / 1e6,
            _ => 0.0,
        }
    }

    pub fn calls_of(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }
}

/// Renders recorders as one Chrome trace (`chrome://tracing`, Perfetto).
pub fn chrome_trace(recorders: &[&Recorder]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for rec in recorders {
        for s in rec.spans() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            escape_str_into(&mut out, s.name);
            out.push_str(&format!(
                ",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"op\":{}}}}}",
                s.name.split('.').next().unwrap_or(""),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                rec.tid,
                s.op
            ));
        }
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn attribution_splits_self_time_by_layer() {
        let spans = vec![
            span("op.step", 0, 100, None),
            span("data.collate", 0, 20, Some(0)),
            span("graph.batch", 5, 15, Some(1)),
            span("model.forward", 20, 60, Some(0)),
            span("tensor.backward", 60, 90, Some(0)),
        ];
        let mut a = Attribution::default();
        a.absorb(&spans);
        assert_eq!(a.root_ns, 100);
        assert_eq!(a.self_ns["op.step"], 10);
        assert_eq!(a.self_ns["data.collate"], 10);
        assert_eq!(a.self_ns["graph.batch"], 10);
        assert!((a.share("model") - 0.4).abs() < 1e-12);
        assert!((a.share("tensor") - 0.3).abs() < 1e-12);
        assert!((a.coverage() - 0.9).abs() < 1e-12);
        assert!((a.mean_ms("data.collate") - 20e-6).abs() < 1e-15);
        assert_eq!(a.calls_of("op.step"), 1);
        assert_eq!(a.mean_ms("never.ran"), 0.0);
        // Shares of all layers and the uncovered rest sum to one.
        let total: u64 = a.self_ns.values().sum();
        assert_eq!(total, 100);
        // `share("data")` must not match a sibling such as `database`.
        assert_eq!(a.self_ns_of("dat"), 0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false, Instant::now(), 0);
        let o = r.open("op.step");
        r.close(o);
        assert_eq!(r.span("x.y", || 7), 7);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn recorder_nests_and_renders_loadable_json() {
        let mut r = Recorder::new(true, Instant::now(), 3);
        r.next_op();
        let root = r.open("op.step");
        r.span("model.forward", || std::hint::black_box(1 + 1));
        r.close(root);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);
        let text = chrome_trace(&[&r]);
        let doc = matgnn::telemetry::json::parse(&text).expect("trace parses");
        let events = doc.get("traceEvents").expect("traceEvents");
        match events {
            matgnn::telemetry::json::Json::Arr(v) => assert_eq!(v.len(), 2),
            other => panic!("traceEvents is not an array: {other:?}"),
        }
    }
}
