//! The traced run's span recorder. Spans are timed from outside the
//! program, around the benchmark's calls into each layer's public
//! functions, kept in memory, and written at exit in the flight-recorder
//! schema (`span_start` + `span` records with id, parent and tid) that
//! `cloudalloc trace-report` reads.

use std::fmt::Write as _;
use std::time::Instant;

use cloudalloc_cli::trace::TraceForest;

/// Identifies an open or closed span; 0 is "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// The parent of top-level spans.
    pub const ROOT: SpanId = SpanId(0);
}

#[derive(Debug)]
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    /// Correlation id of the request a `req` root stands for.
    req: Option<u64>,
    start_ns: u64,
    end_ns: Option<u64>,
}

/// An in-memory span recorder.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Starts the recorder's clock.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        self.open_req(name, parent, None)
    }

    /// Opens a span that stands for request `req` (a `req` root).
    pub fn open_req(&mut self, name: &'static str, parent: SpanId, req: Option<u64>) -> SpanId {
        let id = self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent: parent.0, name, req, start_ns, end_ns: None });
        SpanId(id)
    }

    /// Closes a span; returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id.0 as usize - 1];
        span.end_ns = Some(now);
        now - span.start_ns
    }

    /// Times `f` as a closed span under `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = std::hint::black_box(f());
        self.close(id);
        out
    }

    /// Durations, in nanoseconds, of every closed span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.end_ns.map(|e| (e - s.start_ns) as f64))
            .collect()
    }

    /// Ancestors of span `i`.
    fn depth(&self, mut i: usize) -> usize {
        let mut d = 0;
        while self.spans[i].parent != 0 {
            i = self.spans[i].parent as usize - 1;
            d += 1;
        }
        d
    }

    /// Renders every span as flight-recorder JSONL, ordered by time.
    pub fn to_jsonl(&self) -> String {
        // (timestamp, start-before-end at equal times, span index)
        let mut events: Vec<(u64, u8, usize)> = Vec::with_capacity(2 * self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            events.push((s.start_ns, 0, i));
            if let Some(end) = s.end_ns {
                events.push((end, 1, i));
            }
        }
        events.sort_unstable();
        let mut out = String::new();
        for (ts, kind, i) in events {
            let s = &self.spans[i];
            let req = s.req.map(|r| format!(",\"req\":{r}")).unwrap_or_default();
            if kind == 0 {
                let _ = writeln!(
                    out,
                    r#"{{"t":"span_start","ts":{ts},"id":{},"parent":{},"name":"{}","tid":0{req}}}"#,
                    s.id, s.parent, s.name
                );
            } else {
                let _ = writeln!(
                    out,
                    r#"{{"t":"span","ts":{ts},"name":"{}","depth":{},"ns":{},"id":{},"parent":{},"tid":0{req}}}"#,
                    s.name,
                    self.depth(i),
                    ts - s.start_ns,
                    s.id,
                    s.parent
                );
            }
        }
        out
    }
}

/// Reads a span file back the way `cloudalloc trace-report` does and
/// returns `(spans, orphans, unclosed)`.
pub fn reread(jsonl: &str) -> Result<(usize, usize, usize), String> {
    let forest = TraceForest::from_jsonl(jsonl).map_err(|e| e.to_string())?;
    Ok((forest.nodes.len(), forest.orphans, forest.unclosed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_reread_without_orphans() {
        let mut rec = Recorder::new();
        let req = rec.open_req("req", SpanId::ROOT, Some(7));
        let sum = rec.time("engine.handle", req, || (0..100u64).sum::<u64>());
        assert_eq!(sum, 4950);
        rec.close(req);
        let jsonl = rec.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.lines().next().expect("first line").contains(r#""req":7"#));
        assert_eq!(reread(&jsonl), Ok((2, 0, 0)));
        assert_eq!(rec.durations_ns("engine.handle").len(), 1);
    }

    #[test]
    fn an_unclosed_span_is_reported() {
        let mut rec = Recorder::new();
        rec.open("left.open", SpanId::ROOT);
        assert_eq!(reread(&rec.to_jsonl()), Ok((1, 0, 1)));
    }
}
