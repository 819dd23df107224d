//! Chrome `trace_event` JSON export.
//!
//! Emits the subset of the Trace Event Format that `chrome://tracing`
//! and Perfetto accept: an object with a `traceEvents` array of
//! complete ("X", with `dur`) and instant ("i") events, timestamps in
//! microseconds. Process ids map to substrates ("sim" = 1, "live" = 2
//! by convention of the callers), thread ids to node ids, so a
//! recovery renders as one lane per node with the phase spans stacked
//! over the dispatch instants.
//!
//! The file is written by [`crate::json`], compact, one event per line.

use crate::json::{self, Layout};

/// Builder for one trace file.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    /// Each event rendered as a compact object.
    events: Vec<String>,
}

impl TraceBuilder {
    /// An empty trace.
    pub fn new() -> TraceBuilder {
        TraceBuilder { events: Vec::new() }
    }

    /// A complete event: a span of `dur_us` starting at `ts_us` on
    /// process `pid`, lane `tid`.
    pub fn span(&mut self, name: &str, pid: u32, tid: u32, ts_us: u64, dur_us: u64) {
        self.events.push(json::object(Layout::Compact, |o| {
            o.field("name", name);
            o.field("ph", "X");
            o.field("ts", ts_us);
            o.field("dur", dur_us);
            o.field("pid", pid);
            o.field("tid", tid);
        }));
    }

    /// An instant event at `ts_us` on process `pid`, lane `tid`
    /// (thread scope).
    pub fn instant(&mut self, name: &str, pid: u32, tid: u32, ts_us: u64) {
        self.events.push(json::object(Layout::Compact, |o| {
            o.field("name", name);
            o.field("ph", "i");
            o.field("s", "t");
            o.field("ts", ts_us);
            o.field("pid", pid);
            o.field("tid", tid);
        }));
    }

    /// Name a process lane (metadata event, shown as the group title).
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.events.push(json::object(Layout::Compact, |o| {
            o.field("name", "process_name");
            o.field("ph", "M");
            o.field("pid", pid);
            o.object("args", Layout::Compact, |o| o.field("name", name));
        }));
    }

    /// Render the complete trace file.
    pub fn finish(&self) -> String {
        json::document(Layout::Compact, |o| {
            o.field("displayTimeUnit", "ms");
            o.array("traceEvents", Layout::Compact, |a| {
                for e in &self.events {
                    a.newline();
                    a.raw(e);
                }
                a.newline();
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_is_valid() {
        let t = TraceBuilder::new();
        assert!(t.events.is_empty());
        assert_eq!(t.finish(), EMPTY);
    }

    #[test]
    fn events_render() {
        let mut t = TraceBuilder::new();
        t.process_name(2, "live");
        t.span("detect", 2, 6, 42_000, 8_000);
        t.instant("actuate", 2, 0, 50_000);
        assert_eq!(t.events.len(), 3);
        assert_eq!(t.finish(), EVENTS);
    }

    #[test]
    fn names_are_escaped() {
        let mut t = TraceBuilder::new();
        t.instant("we\"ird\\na\tme\n\u{1}", 1, 0, 0);
        t.process_name(1, "q\"p");
        assert_eq!(t.finish(), ESCAPED);
    }

    // `finish()` of the traces above, as the hand-laid writer of PR 24
    // produced them.
    const EMPTY: &str = r#"{"displayTimeUnit":"ms","traceEvents":[
]}
"#;
    const EVENTS: &str = r#"{"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":2,"args":{"name":"live"}},
{"name":"detect","ph":"X","ts":42000,"dur":8000,"pid":2,"tid":6},
{"name":"actuate","ph":"i","s":"t","ts":50000,"pid":2,"tid":0}
]}
"#;
    const ESCAPED: &str = r#"{"displayTimeUnit":"ms","traceEvents":[
{"name":"we\"ird\\na\tme\n\u0001","ph":"i","s":"t","ts":0,"pid":1,"tid":0},
{"name":"process_name","ph":"M","pid":1,"args":{"name":"q\"p"}}
]}
"#;
}
