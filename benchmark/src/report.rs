//! The result of one run: named metrics with units, the correctness
//! verdict, and the one-line JSON the run ends with.

use serde::Value;

/// End-to-end metrics every workload reports in an untraced run, with
/// their units. `BENCHMARK.json` declares the same names.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("throughput_per_s", "1/s"),
    ("profit_share", "share"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics every workload reports in a traced run.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("workload.generate_ms", "ms"),
    ("model.lower_ms", "ms"),
    ("model.population_build_ms", "ms"),
    ("model.mask_ms", "ms"),
    ("model.replay_ms", "ms"),
    ("model.score_init_ms", "ms"),
    ("model.evaluate_ms", "ms"),
    ("core.best_cluster_us", "us"),
    ("core.assign_distribute_us", "us"),
    ("core.kkt_shares_ns", "ns"),
    ("core.greedy_ms", "ms"),
    ("core.local_search_ms", "ms"),
    ("core.rounds_mean", "count"),
    ("hier.groups", "count"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.bytes_per_msg", "B"),
    ("engine.admit_us_p50", "us"),
    ("engine.depart_us_p50", "us"),
    ("engine.renegotiate_us_p50", "us"),
    ("engine.query_us_p50", "us"),
    ("engine.fold_share", "share"),
    ("engine.folds", "count"),
    ("engine.admit_accept_share", "share"),
    ("engine.busy_share", "share"),
    ("net.overhead_ms_p50", "ms"),
    ("net.overhead_ms_p99", "ms"),
    ("net.deltas_per_req", "count"),
    ("gen.late_ms_p99", "ms"),
    ("gen.lag_stalls", "count"),
    ("trace.overhead_share", "share"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: Vec<(&'static str, f64)>,
    checks: Vec<(String, bool)>,
    /// Operations attempted (solves or requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Outcome {
    /// Records a metric by name; its unit comes from the tables above.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not declared");
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// Records a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        let what = what.into();
        println!("check {:<58} {}", what, if ok { "ok" } else { "FAILED" });
        self.checks.push((what, ok));
    }

    /// True when every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok) && self.failed == 0
    }

    /// The value of a recorded metric.
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Keeps exactly the metrics of `table`, in its order, checking that
    /// each was measured and is finite.
    pub fn select(&mut self, table: &[(&'static str, &'static str)]) {
        let mut kept = Vec::with_capacity(table.len());
        for &(name, _) in table {
            match self.get(name) {
                Some(v) if v.is_finite() => kept.push((name, v)),
                other => self.check(format!("metric {name} measured (got {other:?})"), false),
            }
        }
        self.metrics = kept;
    }

    /// Prints the metric table for a reader.
    pub fn print_table(&self) {
        for &(name, value) in &self.metrics {
            println!("metric {:<28} {:>16.6} {}", name, value, unit_of(name).unwrap_or("?"));
        }
    }

    /// The run's result as one JSON object.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let entry = Value::Map(vec![
                    ("value".into(), Value::F64(value)),
                    ("unit".into(), Value::Str(unit_of(name).unwrap_or("?").into())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ])
    }
}

/// The declared unit of a metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map(|&(_, u)| u)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    vm_hwm_kib(&std::fs::read_to_string("/proc/self/status").unwrap_or_default()) / 1024.0
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in KiB (0 if absent).
pub fn vm_hwm_kib(status: &str) -> f64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and the declaration in `BENCHMARK.json`
    /// must name the same end-to-end and per-layer metrics and units.
    #[test]
    fn tables_match_the_benchmark_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let declared: Vec<(String, String)> = spec
                .field(key)
                .and_then(Value::as_seq)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let name = m.field("name").and_then(Value::as_str).expect("name");
                    let unit = m.field("unit").and_then(Value::as_str).expect("unit");
                    (name.to_string(), unit.to_string())
                })
                .collect();
            let ours: Vec<(String, String)> =
                table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(declared, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn json_carries_every_selected_metric() {
        let mut out = Outcome { attempted: 3, ..Outcome::default() };
        for &(name, _) in &END_TO_END {
            out.set(name, 1.5);
        }
        out.set("engine.folds", 2.0);
        out.select(&END_TO_END);
        assert!(out.correct());
        let text = serde_json::to_string(&out.to_json()).expect("encodes");
        assert!(text.starts_with(r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"#));
        assert!(text.contains(r#""setup_s":{"value":1.5,"unit":"s"}"#));
        assert!(!text.contains("engine.folds"));
    }

    #[test]
    fn hwm_parses_the_status_line() {
        assert_eq!(vm_hwm_kib("Name:\tx\nVmHWM:\t   20480 kB\nVmRSS: 1 kB\n"), 20480.0);
        assert_eq!(vm_hwm_kib(""), 0.0);
    }
}
