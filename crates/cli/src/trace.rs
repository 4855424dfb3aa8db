//! Flight-recorder consumer: reconstructs the causal span forest from a
//! telemetry JSONL file and renders it two ways — a Chrome-trace/Perfetto
//! JSON timeline and an ASCII summary with top-k self-time hotspots and a
//! critical-path analysis of every parallel dispatch.
//!
//! # Record schema
//!
//! The recorder (telemetry `imp`) writes, per span, a
//! `{"t":"span_start","ts","id","parent","name","tid"}` record at entry
//! and a `{"t":"span","ts","name","depth","ns","id","parent","tid"}`
//! record at exit. `id` is process-unique, `parent` is the id of the
//! span that was innermost on the opening thread (0 = root) — across
//! `run_parallel` fan-outs the dispatch passes a parent handle to each
//! worker, so per-worker `par.lane` spans nest under the `par.dispatch`
//! span that spawned them. `{"t":"mem",…}` records from the background
//! sampler carry the VmRSS/VmHWM and streamed-compile staging timeline.
//! Metric flushes write `counter`/`fcounter` records (cumulative value,
//! so the last one per name wins) and `hist` rows; everything else —
//! the `meta` header, domain events, record types a newer recorder adds —
//! is tallied per type. Every record carries its `t` and `ts`.
//!
//! Reconstruction is tolerant by design: end-only records from
//! pre-flight-recorder files become parentless legacy nodes, spans whose
//! end record never arrived (crash, truncated file) get a synthesized
//! end at the last observed timestamp, and parent ids that resolve to no
//! known span demote the node to a root. All three cases are counted and
//! reported, never fatal.
//!
//! # Critical path
//!
//! For one dispatch with lanes `l ∈ L` of duration `d_l`, the critical
//! path is `max d_l` (the dispatch cannot finish earlier), the useful
//! work is `Σ d_l`, and the idle (imbalance) ratio is
//! `(|L|·max − Σ) / (|L|·max)` — the fraction of worker-seconds spent
//! waiting on the longest lane. Efficiency is the complement.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs;

use cloudalloc_metrics::Table;
use serde::{Deserialize, Error as SerdeError, Value};

use crate::args::Parsed;
use crate::CliError;

/// One reconstructed span.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Process-unique span id (0 for legacy end-only records).
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Span name (the `span!` call-site label).
    pub name: String,
    /// Lane (thread) id that opened the span.
    pub tid: u64,
    /// Start timestamp, ns since recorder start.
    pub start_ns: u64,
    /// Duration in ns (synthesized for unclosed spans).
    pub dur_ns: u64,
    /// True when the end record never arrived and the duration was
    /// synthesized up to the last observed timestamp.
    pub unclosed: bool,
}

/// One `{"t":"mem",…}` sample from the background memory sampler.
#[derive(Debug, Clone, Copy)]
pub struct MemSample {
    /// Timestamp, ns since recorder start.
    pub ts_ns: u64,
    /// Resident set size, bytes (0 when /proc was unavailable).
    pub rss_bytes: u64,
    /// Peak resident set size, bytes.
    pub hwm_bytes: u64,
    /// Streamed-compile staging in flight, bytes.
    pub staging_bytes: u64,
    /// High-watermark of staging bytes.
    pub staging_peak_bytes: u64,
}

/// The last flushed value of one counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CounterValue {
    /// An integer `"counter"` record.
    Int(u64),
    /// A `"fcounter"` record.
    Float(f64),
}

impl fmt::Display for CounterValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CounterValue::Int(v) => write!(f, "{v}"),
            CounterValue::Float(v) => write!(f, "{v:.4}"),
        }
    }
}

/// The fields of a `"hist"` record that [`TraceForest::hists`] keeps, in
/// order.
pub const HIST_FIELDS: [&str; 5] = ["count", "p50", "p90", "p99", "max"];

/// The reconstructed span forest, the memory timeline and the metric
/// flushes of one telemetry file.
#[derive(Debug, Default)]
pub struct TraceForest {
    /// Every reconstructed span, in record order.
    pub nodes: Vec<SpanNode>,
    /// Indices of parentless spans.
    pub roots: Vec<usize>,
    /// `children[i]` = indices of spans whose parent is `nodes[i]`.
    pub children: Vec<Vec<usize>>,
    /// Spans whose end record never arrived.
    pub unclosed: usize,
    /// Spans whose parent id resolved to no known span (demoted to
    /// roots).
    pub orphans: usize,
    /// End-only records with no id (pre-flight-recorder files).
    pub legacy: usize,
    /// Memory timeline samples in record order.
    pub mem: Vec<MemSample>,
    /// Largest timestamp observed anywhere in the file, ns.
    pub max_ts_ns: u64,
    /// Non-empty lines read.
    pub records: usize,
    /// Last flushed value per counter name.
    pub counters: BTreeMap<String, CounterValue>,
    /// Last flushed row per histogram name, one value per
    /// [`HIST_FIELDS`] entry.
    pub hists: BTreeMap<String, [u64; 5]>,
    /// Count per record type of every record that is neither a span, a
    /// memory sample nor a metric.
    pub other_records: BTreeMap<String, u64>,
}

fn req_u64(v: &Value, name: &str) -> Result<u64, SerdeError> {
    u64::from_value(v.field(name)?)
}

fn opt_u64(v: &Value, name: &str) -> Result<Option<u64>, SerdeError> {
    match v.field_or_null(name)? {
        Value::Null => Ok(None),
        x => Ok(Some(u64::from_value(x)?)),
    }
}

impl TraceForest {
    /// Parses a telemetry JSONL stream: rebuilds the span forest and
    /// keeps the memory timeline and metric flushes.
    ///
    /// # Errors
    ///
    /// Fails (with a line number) on lines that are not JSON objects, on
    /// records without `t` and `ts`, and on span, memory or metric records
    /// missing their required fields. Unknown record types are tallied in
    /// [`TraceForest::other_records`] — the recorder is free to grow new
    /// ones.
    pub fn from_jsonl(text: &str) -> Result<TraceForest, SerdeError> {
        let mut forest = TraceForest::default();
        // id → index into nodes, for joining starts with ends.
        let mut by_id: HashMap<u64, usize> = HashMap::new();
        // Spans that have started but not yet ended.
        let mut open: Vec<usize> = Vec::new();

        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            forest.records += 1;
            let v: Value = serde_json::from_str(line)
                .map_err(|e| SerdeError::custom(format!("line {}: {e}", idx + 1)))?;
            let located = |e: SerdeError| SerdeError::custom(format!("line {}: {e}", idx + 1));
            let ty = v.field("t").and_then(Value::as_str).map_err(located)?;
            let ts = req_u64(&v, "ts").map_err(located)?;
            forest.max_ts_ns = forest.max_ts_ns.max(ts);
            match ty {
                "span_start" => {
                    let id = req_u64(&v, "id").map_err(located)?;
                    let parent = req_u64(&v, "parent").map_err(located)?;
                    let name =
                        v.field("name").and_then(Value::as_str).map_err(located)?.to_string();
                    let tid = opt_u64(&v, "tid").map_err(located)?.unwrap_or(0);
                    let node =
                        SpanNode { id, parent, name, tid, start_ns: ts, dur_ns: 0, unclosed: true };
                    let slot = forest.nodes.len();
                    forest.nodes.push(node);
                    by_id.insert(id, slot);
                    open.push(slot);
                }
                "span" => {
                    let name =
                        v.field("name").and_then(Value::as_str).map_err(located)?.to_string();
                    let ns = req_u64(&v, "ns").map_err(located)?;
                    match opt_u64(&v, "id").map_err(located)? {
                        Some(id) if id != 0 => {
                            if let Some(&slot) = by_id.get(&id) {
                                let node = &mut forest.nodes[slot];
                                node.dur_ns = ns;
                                node.unclosed = false;
                            } else {
                                // End without a start (file opened
                                // mid-run): recover the start from the
                                // end timestamp and duration.
                                let parent = opt_u64(&v, "parent").map_err(located)?.unwrap_or(0);
                                let tid = opt_u64(&v, "tid").map_err(located)?.unwrap_or(0);
                                let slot = forest.nodes.len();
                                forest.nodes.push(SpanNode {
                                    id,
                                    parent,
                                    name,
                                    tid,
                                    start_ns: ts.saturating_sub(ns),
                                    dur_ns: ns,
                                    unclosed: false,
                                });
                                by_id.insert(id, slot);
                            }
                        }
                        _ => {
                            // Pre-flight-recorder record: timing only,
                            // no identity, no links.
                            forest.legacy += 1;
                            forest.nodes.push(SpanNode {
                                id: 0,
                                parent: 0,
                                name,
                                tid: 0,
                                start_ns: ts.saturating_sub(ns),
                                dur_ns: ns,
                                unclosed: false,
                            });
                        }
                    }
                }
                "mem" => {
                    forest.mem.push(MemSample {
                        ts_ns: ts,
                        rss_bytes: opt_u64(&v, "rss_bytes").map_err(located)?.unwrap_or(0),
                        hwm_bytes: opt_u64(&v, "hwm_bytes").map_err(located)?.unwrap_or(0),
                        staging_bytes: opt_u64(&v, "staging_bytes").map_err(located)?.unwrap_or(0),
                        staging_peak_bytes: opt_u64(&v, "staging_peak_bytes")
                            .map_err(located)?
                            .unwrap_or(0),
                    });
                }
                "counter" | "fcounter" => {
                    let name =
                        v.field("name").and_then(Value::as_str).map_err(located)?.to_string();
                    let value = v.field("value").map_err(located)?;
                    let value = if ty == "counter" {
                        CounterValue::Int(u64::from_value(value).map_err(located)?)
                    } else {
                        CounterValue::Float(f64::from_value(value).map_err(located)?)
                    };
                    forest.counters.insert(name, value);
                }
                "hist" => {
                    let name =
                        v.field("name").and_then(Value::as_str).map_err(located)?.to_string();
                    let mut row = [0u64; 5];
                    for (slot, field) in row.iter_mut().zip(HIST_FIELDS) {
                        *slot = req_u64(&v, field).map_err(located)?;
                    }
                    forest.hists.insert(name, row);
                }
                other => *forest.other_records.entry(other.to_string()).or_insert(0) += 1,
            }
        }

        // Synthesize ends for spans that never closed.
        for &slot in &open {
            let node = &mut forest.nodes[slot];
            if node.unclosed {
                node.dur_ns = forest.max_ts_ns.saturating_sub(node.start_ns);
                forest.unclosed += 1;
            }
        }

        // Link children. Parent ids always precede child ids (a parent's
        // id is allocated before any child opens), so no cycle checks
        // are needed; unknown parents demote to roots.
        forest.children = vec![Vec::new(); forest.nodes.len()];
        for i in 0..forest.nodes.len() {
            let parent = forest.nodes[i].parent;
            match (parent != 0).then(|| by_id.get(&parent)).flatten() {
                Some(&p) if p != i => forest.children[p].push(i),
                _ => {
                    if parent != 0 {
                        forest.orphans += 1;
                    }
                    forest.roots.push(i);
                }
            }
        }
        Ok(forest)
    }

    /// Self-time of node `i`: its duration minus the duration of its
    /// same-lane children (cross-lane children run concurrently and are
    /// not subtracted), clamped at zero.
    pub fn self_ns(&self, i: usize) -> u64 {
        let node = &self.nodes[i];
        let child_ns: u64 = self.children[i]
            .iter()
            .map(|&c| &self.nodes[c])
            .filter(|c| c.tid == node.tid)
            .map(|c| c.dur_ns)
            .sum();
        node.dur_ns.saturating_sub(child_ns)
    }

    /// The forest's causal shape, order- and timing-insensitive: one
    /// canonical string per root, sorted. Nodes whose name matches any
    /// prefix in `elide_prefixes` are spliced out (their children are
    /// promoted), which is how the thread-shape tests compare a serial
    /// run (no `par.*` wrappers at all) to a parallel one (lanes differ
    /// per thread count, causal structure identical).
    pub fn canonical_shape(&self, elide_prefixes: &[&str]) -> Vec<String> {
        fn render(
            forest: &TraceForest,
            i: usize,
            elide: &dyn Fn(&str) -> bool,
            out: &mut Vec<String>,
        ) {
            if elide(&forest.nodes[i].name) {
                for &c in &forest.children[i] {
                    render(forest, c, elide, out);
                }
                return;
            }
            let mut kids = Vec::new();
            for &c in &forest.children[i] {
                render(forest, c, elide, &mut kids);
            }
            kids.sort();
            out.push(format!("{}({})", forest.nodes[i].name, kids.join(",")));
        }
        let elide = |name: &str| elide_prefixes.iter().any(|p| name.starts_with(p));
        let mut shapes = Vec::new();
        for &r in &self.roots {
            render(self, r, &elide, &mut shapes);
        }
        shapes.sort();
        shapes
    }

    /// Critical-path rows aggregated per dispatch site (the name of the
    /// span enclosing each `par.dispatch`).
    pub fn critical_paths(&self) -> Vec<DispatchAgg> {
        let mut sites: Vec<DispatchAgg> = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if node.name != "par.dispatch" {
                continue;
            }
            let lanes: Vec<u64> = self.children[i]
                .iter()
                .map(|&c| &self.nodes[c])
                .filter(|c| c.name == "par.lane")
                .map(|c| c.dur_ns)
                .collect();
            if lanes.is_empty() {
                continue;
            }
            let site = (node.parent != 0)
                .then(|| self.nodes.iter().find(|n| n.id == node.parent).map(|n| n.name.clone()))
                .flatten()
                .unwrap_or_else(|| "<root>".to_string());
            let max = *lanes.iter().max().expect("non-empty");
            let sum: u64 = lanes.iter().sum();
            let agg = match sites.iter_mut().find(|s| s.site == site) {
                Some(agg) => agg,
                None => {
                    sites.push(DispatchAgg { site, ..DispatchAgg::default() });
                    sites.last_mut().expect("just pushed")
                }
            };
            agg.dispatches += 1;
            agg.lanes += lanes.len() as u64;
            agg.critical_ns += max;
            agg.lane_sum_ns += sum;
            agg.span_ns += lanes.len() as u64 * max;
        }
        sites.sort_by_key(|s| std::cmp::Reverse(s.critical_ns));
        sites
    }

    /// Renders the ASCII report: forest stats, top-`top_k` self-time
    /// hotspots, the per-site critical-path table, the memory timeline
    /// summary, and the counter, histogram and other-record tables.
    pub fn ascii_summary(&self, top_k: usize) -> String {
        let mut out = String::new();
        let lanes: std::collections::BTreeSet<u64> = self.nodes.iter().map(|n| n.tid).collect();
        out.push_str(&format!(
            "{} spans in {} trees across {} lanes; wall {:.3} ms\n",
            self.nodes.len(),
            self.roots.len(),
            lanes.len(),
            self.max_ts_ns as f64 / 1e6
        ));
        if self.unclosed + self.orphans + self.legacy > 0 {
            out.push_str(&format!(
                "degraded records: {} unclosed (end synthesized), {} orphaned parents, \
                 {} legacy end-only\n",
                self.unclosed, self.orphans, self.legacy
            ));
        }

        // Top-k self time per span name.
        let mut by_name: Vec<(String, u64, u64, u64)> = Vec::new(); // name, count, total, self
        for i in 0..self.nodes.len() {
            let name = &self.nodes[i].name;
            let self_ns = self.self_ns(i);
            match by_name.iter_mut().find(|(n, ..)| n == name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += self.nodes[i].dur_ns;
                    row.3 += self_ns;
                }
                None => by_name.push((name.clone(), 1, self.nodes[i].dur_ns, self_ns)),
            }
        }
        by_name.sort_by_key(|r| std::cmp::Reverse(r.3));
        let total_self: u64 = by_name.iter().map(|r| r.3).sum();
        if !by_name.is_empty() {
            let mut table = Table::new(vec![
                "span".into(),
                "count".into(),
                "total_ms".into(),
                "self_ms".into(),
                "self_%".into(),
            ]);
            for (name, count, total, own) in by_name.iter().take(top_k) {
                table.row(vec![
                    name.clone(),
                    count.to_string(),
                    format!("{:.3}", *total as f64 / 1e6),
                    format!("{:.3}", *own as f64 / 1e6),
                    format!("{:.1}", *own as f64 / total_self.max(1) as f64 * 100.0),
                ]);
            }
            out.push_str(&format!("\ntop self-time hotspots (of {} span names)\n", by_name.len()));
            out.push_str(&table.to_string());
        }

        let sites = self.critical_paths();
        if !sites.is_empty() {
            let mut table = Table::new(vec![
                "dispatch site".into(),
                "dispatches".into(),
                "lanes".into(),
                "critical_ms".into(),
                "lane_sum_ms".into(),
                "efficiency".into(),
                "idle_%".into(),
            ]);
            for s in &sites {
                table.row(vec![
                    s.site.clone(),
                    s.dispatches.to_string(),
                    s.lanes.to_string(),
                    format!("{:.3}", s.critical_ns as f64 / 1e6),
                    format!("{:.3}", s.lane_sum_ns as f64 / 1e6),
                    format!("{:.2}", s.efficiency()),
                    format!("{:.1}", s.idle_ratio() * 100.0),
                ]);
            }
            out.push_str("\nparallel dispatch critical paths\n");
            out.push_str(&table.to_string());
        }

        if !self.mem.is_empty() {
            let rss_max = self.mem.iter().map(|m| m.rss_bytes).max().unwrap_or(0);
            let hwm_max = self.mem.iter().map(|m| m.hwm_bytes).max().unwrap_or(0);
            let staging_peak = self.mem.iter().map(|m| m.staging_peak_bytes).max().unwrap_or(0);
            let mib = |b: u64| b as f64 / (1 << 20) as f64;
            out.push_str(&format!(
                "\nmemory timeline: {} samples, peak RSS {:.1} MiB (VmHWM {:.1} MiB), \
                 peak staging {:.3} MiB\n",
                self.mem.len(),
                mib(rss_max),
                mib(hwm_max),
                mib(staging_peak)
            ));
        }

        if !self.counters.is_empty() {
            let mut table = Table::new(vec!["counter".into(), "value".into()]);
            for (name, value) in &self.counters {
                table.row(vec![name.clone(), value.to_string()]);
            }
            out.push_str("\ncounters\n");
            out.push_str(&table.to_string());
        }
        if !self.hists.is_empty() {
            let mut header = vec!["histogram".to_string()];
            header.extend(HIST_FIELDS.map(String::from));
            let mut table = Table::new(header);
            for (name, row) in &self.hists {
                let mut cells = vec![name.clone()];
                cells.extend(row.iter().map(u64::to_string));
                table.row(cells);
            }
            out.push_str("\nhistograms\n");
            out.push_str(&table.to_string());
        }
        if !self.other_records.is_empty() {
            let mut table = Table::new(vec!["record".into(), "count".into()]);
            for (ty, count) in &self.other_records {
                table.row(vec![ty.clone(), count.to_string()]);
            }
            out.push_str("\nother records\n");
            out.push_str(&table.to_string());
        }
        out
    }

    /// Serializes the forest as Chrome-trace/Perfetto JSON: complete
    /// (`ph:"X"`) duration events in microseconds plus a `ph:"C"`
    /// counter track for the memory timeline. Loadable by
    /// `ui.perfetto.dev` and `chrome://tracing`.
    pub fn perfetto_json(&self) -> String {
        let us = |ns: u64| Value::F64(ns as f64 / 1e3);
        let mut events = Vec::with_capacity(self.nodes.len() + self.mem.len());
        for node in &self.nodes {
            events.push(Value::Map(vec![
                ("name".into(), Value::Str(node.name.clone())),
                ("cat".into(), Value::Str("span".into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), us(node.start_ns)),
                ("dur".into(), us(node.dur_ns)),
                ("pid".into(), Value::U64(1)),
                ("tid".into(), Value::U64(node.tid)),
                (
                    "args".into(),
                    Value::Map(vec![
                        ("id".into(), Value::U64(node.id)),
                        ("parent".into(), Value::U64(node.parent)),
                        ("unclosed".into(), Value::Bool(node.unclosed)),
                    ]),
                ),
            ]));
        }
        let mib = |b: u64| Value::F64(b as f64 / (1 << 20) as f64);
        for m in &self.mem {
            events.push(Value::Map(vec![
                ("name".into(), Value::Str("memory".into())),
                ("ph".into(), Value::Str("C".into())),
                ("ts".into(), us(m.ts_ns)),
                ("pid".into(), Value::U64(1)),
                (
                    "args".into(),
                    Value::Map(vec![
                        ("rss_mib".into(), mib(m.rss_bytes)),
                        ("staging_mib".into(), mib(m.staging_bytes)),
                    ]),
                ),
            ]));
        }
        let doc = Value::Map(vec![
            ("displayTimeUnit".into(), Value::Str("ms".into())),
            ("traceEvents".into(), Value::Seq(events)),
        ]);
        serde_json::to_string(&doc).expect("a Value tree always serializes")
    }
}

/// Critical-path aggregate for one dispatch site.
#[derive(Debug, Default, Clone)]
pub struct DispatchAgg {
    /// Name of the span enclosing the dispatches (`<root>` if none).
    pub site: String,
    /// Number of `par.dispatch` spans under this site.
    pub dispatches: u64,
    /// Total worker lanes across those dispatches.
    pub lanes: u64,
    /// Σ over dispatches of the longest lane (the critical path).
    pub critical_ns: u64,
    /// Σ over dispatches of all lane durations (useful work).
    pub lane_sum_ns: u64,
    /// Σ over dispatches of `lanes × longest lane` (worker-time span).
    pub span_ns: u64,
}

impl DispatchAgg {
    /// Fraction of worker-seconds doing useful work: `Σ lanes / Σ span`.
    pub fn efficiency(&self) -> f64 {
        if self.span_ns == 0 {
            return 1.0;
        }
        self.lane_sum_ns as f64 / self.span_ns as f64
    }

    /// Fraction of worker-seconds idle behind the longest lane.
    pub fn idle_ratio(&self) -> f64 {
        1.0 - self.efficiency()
    }
}

fn jerr(e: SerdeError) -> CliError {
    CliError::Json(e.into())
}

/// The `trace-report` command: `--in FILE [--perfetto OUT] [--top K]`.
pub(crate) fn cmd_trace_report(parsed: &Parsed) -> Result<String, CliError> {
    let path = parsed.require("--in")?;
    let top_k = parsed.num("--top", 10usize)?;
    let text = fs::read_to_string(path)?;
    let forest = TraceForest::from_jsonl(&text)
        .map_err(|e| jerr(SerdeError::custom(format!("{path}: {e}"))))?;
    let mut out = format!("trace report for {path} ({} records)\n", forest.records);
    out.push_str(&forest.ascii_summary(top_k));
    if let Some(out_path) = parsed.get("--perfetto") {
        fs::write(out_path, forest.perfetto_json())?;
        out.push_str(&format!("wrote Perfetto timeline to {out_path} (open at ui.perfetto.dev)\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic SplitMix64 — the tests hand-roll their property
    /// loops (the proptest shim has no arbitrary-interleaving support).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    fn start_line(id: u64, parent: u64, name: &str, tid: u64, ts: u64) -> String {
        format!(
            "{{\"t\":\"span_start\",\"ts\":{ts},\"id\":{id},\"parent\":{parent},\
             \"name\":\"{name}\",\"tid\":{tid}}}"
        )
    }

    fn end_line(id: u64, parent: u64, name: &str, tid: u64, ts: u64, ns: u64) -> String {
        format!(
            "{{\"t\":\"span\",\"ts\":{ts},\"name\":\"{name}\",\"depth\":0,\"ns\":{ns},\
             \"id\":{id},\"parent\":{parent},\"tid\":{tid}}}"
        )
    }

    #[test]
    fn reconstructs_a_simple_tree() {
        let text = [
            "{\"t\":\"meta\",\"ts\":0,\"version\":1}".to_string(),
            start_line(1, 0, "root", 1, 10),
            start_line(2, 1, "child", 1, 20),
            end_line(2, 1, "child", 1, 50, 30),
            end_line(1, 0, "root", 1, 100, 90),
        ]
        .join("\n");
        let forest = TraceForest::from_jsonl(&text).unwrap();
        assert_eq!(forest.nodes.len(), 2);
        assert_eq!(forest.roots.len(), 1);
        assert_eq!(forest.unclosed, 0);
        assert_eq!(forest.orphans, 0);
        let root = forest.roots[0];
        assert_eq!(forest.nodes[root].name, "root");
        assert_eq!(forest.children[root].len(), 1);
        let child = forest.children[root][0];
        assert_eq!(forest.nodes[child].name, "child");
        assert_eq!(forest.nodes[child].dur_ns, 30);
        // Self time of the root excludes its same-lane child.
        assert_eq!(forest.self_ns(root), 60);
    }

    #[test]
    fn unclosed_spans_get_synthesized_ends() {
        let text = [start_line(1, 0, "root", 1, 10), start_line(2, 1, "hung", 1, 20)].join("\n");
        let forest = TraceForest::from_jsonl(&text).unwrap();
        assert_eq!(forest.unclosed, 2);
        assert!(forest.nodes.iter().all(|n| n.unclosed));
        // Ends are synthesized at the last observed timestamp.
        assert_eq!(forest.nodes[0].dur_ns, 10);
    }

    #[test]
    fn legacy_and_orphan_records_degrade_gracefully() {
        let text = [
            // Pre-flight-recorder end-only record: no id.
            "{\"t\":\"span\",\"ts\":40,\"name\":\"old\",\"depth\":0,\"ns\":15}".to_string(),
            // Parent id 99 was never seen.
            start_line(3, 99, "stray", 2, 50),
            end_line(3, 99, "stray", 2, 60, 10),
        ]
        .join("\n");
        let forest = TraceForest::from_jsonl(&text).unwrap();
        assert_eq!(forest.legacy, 1);
        assert_eq!(forest.orphans, 1);
        assert_eq!(forest.roots.len(), 2);
        let legacy = &forest.nodes[0];
        assert_eq!((legacy.name.as_str(), legacy.start_ns, legacy.dur_ns), ("old", 25, 15));
    }

    #[test]
    fn critical_path_math_matches_the_definition() {
        // One dispatch under "site", two lanes of 30 and 10 ns.
        let text = [
            start_line(1, 0, "site", 1, 0),
            start_line(2, 1, "par.dispatch", 1, 5),
            start_line(3, 2, "par.lane", 1, 6),
            start_line(4, 2, "par.lane", 2, 6),
            end_line(4, 2, "par.lane", 2, 16, 10),
            end_line(3, 2, "par.lane", 1, 36, 30),
            end_line(2, 1, "par.dispatch", 1, 40, 35),
            end_line(1, 0, "site", 1, 50, 50),
        ]
        .join("\n");
        let forest = TraceForest::from_jsonl(&text).unwrap();
        let sites = forest.critical_paths();
        assert_eq!(sites.len(), 1);
        let s = &sites[0];
        assert_eq!(s.site, "site");
        assert_eq!((s.dispatches, s.lanes), (1, 2));
        assert_eq!(s.critical_ns, 30);
        assert_eq!(s.lane_sum_ns, 40);
        // Idle = (2·30 − 40) / (2·30) = 1/3.
        assert!((s.idle_ratio() - 1.0 / 3.0).abs() < 1e-12);
        let report = forest.ascii_summary(5);
        assert!(report.contains("parallel dispatch critical paths"), "{report}");
        assert!(report.contains("site"), "{report}");
    }

    /// Satellite property: arbitrary interleavings of start/end records
    /// from N worker lanes rebuild into exactly the generating forest.
    #[test]
    fn interleaved_lane_records_rebuild_the_generating_forest() {
        for seed in 0..40u64 {
            let mut rng = Rng(seed);
            let lanes = 1 + rng.below(6) as usize;
            let mut next_id = 1u64;
            let mut clock = 0u64;
            // Per-lane record streams: each lane opens/closes a random
            // nesting of spans; records within a lane stay ordered.
            let mut streams: Vec<Vec<String>> = Vec::new();
            let mut expected: Vec<(u64, u64)> = Vec::new(); // (id, parent)
            for lane in 0..lanes {
                let tid = lane as u64 + 1;
                let mut records = Vec::new();
                let mut stack: Vec<(u64, u64)> = Vec::new(); // (id, start)
                let ops = 2 + rng.below(10);
                for _ in 0..ops {
                    clock += 1 + rng.below(5);
                    let close = !stack.is_empty() && rng.below(2) == 0;
                    if close {
                        let (id, start) = stack.pop().unwrap();
                        let parent = stack.last().map_or(0, |&(p, _)| p);
                        records.push(end_line(
                            id,
                            parent,
                            &format!("span{id}"),
                            tid,
                            clock,
                            clock - start,
                        ));
                    } else {
                        let id = next_id;
                        next_id += 1;
                        let parent = stack.last().map_or(0, |&(p, _)| p);
                        expected.push((id, parent));
                        records.push(start_line(id, parent, &format!("span{id}"), tid, clock));
                        stack.push((id, clock));
                    }
                }
                while let Some((id, start)) = stack.pop() {
                    clock += 1;
                    let parent = stack.last().map_or(0, |&(p, _)| p);
                    records.push(end_line(
                        id,
                        parent,
                        &format!("span{id}"),
                        tid,
                        clock,
                        clock - start,
                    ));
                }
                streams.push(records);
            }
            // Random interleave preserving per-lane order — the only
            // ordering the real recorder guarantees.
            let mut merged = Vec::new();
            loop {
                let live: Vec<usize> =
                    (0..streams.len()).filter(|&l| !streams[l].is_empty()).collect();
                if live.is_empty() {
                    break;
                }
                let pick = live[rng.below(live.len() as u64) as usize];
                merged.push(streams[pick].remove(0));
            }
            let forest = TraceForest::from_jsonl(&merged.join("\n")).unwrap();
            assert_eq!(forest.nodes.len(), expected.len(), "seed {seed}");
            assert_eq!(forest.unclosed, 0, "seed {seed}");
            assert_eq!(forest.orphans, 0, "seed {seed}");
            for (id, parent) in expected {
                let node = forest.nodes.iter().find(|n| n.id == id).unwrap();
                assert_eq!(node.parent, parent, "seed {seed}, span {id}");
            }
            // Every non-root is reachable exactly once via child links.
            let linked: usize =
                forest.children.iter().map(Vec::len).sum::<usize>() + forest.roots.len();
            assert_eq!(linked, forest.nodes.len(), "seed {seed}");
        }
    }

    #[test]
    fn perfetto_export_has_the_chrome_trace_schema() {
        let text = [
            start_line(1, 0, "root", 1, 10),
            start_line(2, 1, "child", 2, 20),
            end_line(2, 1, "child", 2, 50, 30),
            end_line(1, 0, "root", 1, 100, 90),
            "{\"t\":\"mem\",\"ts\":60,\"rss_bytes\":1048576,\"hwm_bytes\":2097152,\
             \"staging_bytes\":512,\"staging_peak_bytes\":1024}"
                .to_string(),
        ]
        .join("\n");
        let forest = TraceForest::from_jsonl(&text).unwrap();
        let json = forest.perfetto_json();
        let doc: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(doc.field("displayTimeUnit").unwrap().as_str().unwrap(), "ms");
        let events = doc.field("traceEvents").unwrap().as_seq().unwrap();
        assert_eq!(events.len(), 3);
        for e in events {
            let ph = e.field("ph").unwrap().as_str().unwrap();
            assert!(matches!(ph, "X" | "C"), "unexpected phase {ph}");
            assert!(e.field("name").unwrap().as_str().is_ok());
            assert!(matches!(e.field("ts").unwrap(), Value::F64(_) | Value::U64(_)));
            assert!(u64::from_value(e.field("pid").unwrap()).is_ok());
            if ph == "X" {
                assert!(matches!(e.field("dur").unwrap(), Value::F64(_) | Value::U64(_)));
                assert!(u64::from_value(e.field("tid").unwrap()).is_ok());
            }
        }
        // The memory counter landed with both series.
        let mem = events
            .iter()
            .find(|e| e.field("ph").unwrap().as_str().unwrap() == "C")
            .expect("counter event");
        assert!(mem.field("args").unwrap().field("rss_mib").is_ok());
        assert!(mem.field("args").unwrap().field("staging_mib").is_ok());
    }

    #[test]
    fn canonical_shape_elides_wrappers() {
        // site → par.dispatch → two par.lane → one leaf each, vs the
        // serial shape site → two leaves.
        let parallel = [
            start_line(1, 0, "site", 1, 0),
            start_line(2, 1, "par.dispatch", 1, 1),
            start_line(3, 2, "par.lane", 1, 2),
            start_line(4, 3, "leaf", 1, 3),
            end_line(4, 3, "leaf", 1, 4, 1),
            end_line(3, 2, "par.lane", 1, 5, 3),
            start_line(5, 2, "par.lane", 2, 2),
            start_line(6, 5, "leaf", 2, 3),
            end_line(6, 5, "leaf", 2, 4, 1),
            end_line(5, 2, "par.lane", 2, 5, 3),
            end_line(2, 1, "par.dispatch", 1, 6, 5),
            end_line(1, 0, "site", 1, 7, 7),
        ]
        .join("\n");
        let serial = [
            start_line(1, 0, "site", 1, 0),
            start_line(2, 1, "leaf", 1, 1),
            end_line(2, 1, "leaf", 1, 2, 1),
            start_line(3, 1, "leaf", 1, 3),
            end_line(3, 1, "leaf", 1, 4, 1),
            end_line(1, 0, "site", 1, 5, 5),
        ]
        .join("\n");
        let par_forest = TraceForest::from_jsonl(&parallel).unwrap();
        let ser_forest = TraceForest::from_jsonl(&serial).unwrap();
        assert_ne!(par_forest.canonical_shape(&[]), ser_forest.canonical_shape(&[]));
        assert_eq!(
            par_forest.canonical_shape(&["par."]),
            ser_forest.canonical_shape(&["par."]),
            "eliding par.* wrappers must equalize the causal shape"
        );
    }
}
