//! Spans recorded by the benchmark around its calls into the crates.
//!
//! A span is (name, start, end, parent, op id): the name is
//! `<layer>.<call>`, the parent is the span that was open when this one
//! began, and all spans of one operation (one slice, one campaign run,
//! one plan, one live run) share an op id. Spans are kept in memory and
//! written out as Chrome trace events when the run ends. With tracing
//! off every method is a branch and nothing else, so the end-to-end
//! numbers are taken without it.

use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u64,
    /// Lane in the trace viewer: 0 is the benchmark's main thread.
    lane: u32,
}

/// Handle to an open span (`None` while tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            // Sized once so recording does not allocate inside a timed
            // region in the common case.
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            open: Vec::with_capacity(16),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span on the main lane; its parent is the innermost span
    /// still open.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
            lane: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close a span opened by [`Tracer::begin`] (innermost first).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.ns(Instant::now());
        self.spans[id as usize].end_ns = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Record a span that was timed elsewhere (a worker thread hands
    /// back its instants; the main thread files them). The parent is
    /// the innermost span open on the main lane.
    pub fn record(&mut self, name: &'static str, op: u64, lane: u32, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            lane,
        });
    }

    /// Durations (µs) of every closed span with this name, in recording
    /// order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete (`"ph":"X"`) event per span, parent and op id in `args`.
    pub fn to_chrome_json(&self, process: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 128);
        out.push_str("{\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            crate::json::escape(process)
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.op
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_link_to_their_parent() {
        let mut t = Tracer::new(true);
        let a = t.begin("sim.run_until", 7);
        let b = t.begin("sim.inner", 7);
        t.end(b);
        t.end(a);
        let now = Instant::now();
        t.record("core.run", 8, 1, now, now);
        assert_eq!(t.len(), 3);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[0].parent, NO_PARENT);
        assert_eq!(t.durations_us("sim.inner").len(), 1);
        let json = crate::json::parse(&t.to_chrome_json("test")).expect("valid JSON");
        let events = json
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("array");
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[2]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_f64()),
            Some(0.0)
        );
    }

    #[test]
    fn tracing_off_records_nothing() {
        let mut t = Tracer::new(false);
        let a = t.begin("x.y", 1);
        t.end(a);
        t.record("x.z", 1, 0, Instant::now(), Instant::now());
        assert_eq!(t.len(), 0);
    }
}
