//! Run sets: `suite` records several runs of every workload, each in its
//! own child process, and `compare` judges a current set against a base
//! set with each metric's direction and bound from `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::Command;

use serde::Value;

use crate::stats::{quartiles, spread};

/// Absolute rise in the failed share that counts as a regression.
const FAILED_SHARE_SLACK: f64 = 0.001;

/// One end-to-end metric's declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// True when lower values are better.
    pub lower_is_better: bool,
    /// Share of the base median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end declarations of a `BENCHMARK.json` text.
pub fn read_spec(text: &str) -> Result<Vec<MetricSpec>, String> {
    let spec: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = spec.field("end_to_end").and_then(Value::as_seq).map_err(|e| e.to_string())?;
    list.iter()
        .map(|m| {
            let name = m.field("name").and_then(Value::as_str).map_err(|e| e.to_string())?;
            let better = m.field("better").and_then(Value::as_str).map_err(|e| e.to_string())?;
            Ok(MetricSpec {
                name: name.to_string(),
                lower_is_better: better == "lower",
                bound: number(m.field("bound").map_err(|e| e.to_string())?)
                    .ok_or("bound is not a number")?,
            })
        })
        .collect()
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(x) => Some(x),
        Value::U64(x) => Some(x as f64),
        Value::I64(x) => Some(x as f64),
        _ => None,
    }
}

/// One recorded run.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Whether every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Run {
    /// Parses a run's result object, tagged with its workload.
    pub fn from_result(workload: &str, v: &Value) -> Result<Run, String> {
        let err = |e: serde::Error| e.to_string();
        let mut metrics = BTreeMap::new();
        for (name, m) in v.field("metrics").and_then(Value::as_map).map_err(err)? {
            let value = number(m.field("value").map_err(err)?).ok_or("metric value")?;
            metrics.insert(name.clone(), value);
        }
        let count = |k: &str| v.field(k).ok().and_then(number).map_or(0, |x| x as u64);
        Ok(Run {
            workload: workload.to_string(),
            correct: matches!(v.field("correct"), Ok(Value::Bool(true))),
            attempted: count("attempted"),
            failed: count("failed"),
            metrics,
        })
    }
}

/// Reads the runs of a file `suite` wrote.
pub fn read_runs(text: &str) -> Result<Vec<Run>, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let runs = v.field("runs").and_then(Value::as_seq).map_err(|e| e.to_string())?;
    runs.iter()
        .map(|r| {
            let workload =
                r.field("workload").and_then(Value::as_str).map_err(|e| e.to_string())?;
            Run::from_result(workload, r)
        })
        .collect()
}

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// The base runs' own spread exceeds the bound and the current runs
    /// do not all beat every base run.
    Unresolved,
    /// One side has no value.
    Missing,
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Base median.
    pub base: f64,
    /// Spread of the base runs (IQR over median).
    pub base_spread: f64,
    /// Current median.
    pub cur: f64,
    /// How much worse the current median is, as a share of the base
    /// median (negative: better).
    pub worse: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn median(v: &[f64]) -> f64 {
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        _ => quartiles(v).map_or(f64::NAN, |q| q[1]),
    }
}

/// Judges every (metric, workload) pair of `cur` against `base`, plus
/// the failed share and correctness of each workload.
pub fn compare(spec: &[MetricSpec], base: &[Run], cur: &[Run]) -> Vec<Row> {
    let mut workloads: Vec<&str> = base.iter().chain(cur).map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut rows = Vec::new();
    for w in workloads {
        let of =
            |runs: &[Run]| runs.iter().filter(|r| r.workload == w).cloned().collect::<Vec<_>>();
        let (b, c) = (of(base), of(cur));
        for m in spec {
            let values = |runs: &[Run]| {
                runs.iter().filter_map(|r| r.metrics.get(&m.name).copied()).collect::<Vec<_>>()
            };
            let (bv, cv) = (values(&b), values(&c));
            let (bm, cm) = (median(&bv), median(&cv));
            let base_spread = spread(&bv).unwrap_or(0.0);
            let sign = if m.lower_is_better { 1.0 } else { -1.0 };
            let worse = sign * (cm - bm) / bm.abs();
            let better = |x: f64, y: f64| if m.lower_is_better { x < y } else { x > y };
            let all_better = cv.iter().all(|&x| bv.iter().all(|&y| better(x, y)));
            let verdict = if bv.is_empty() || cv.is_empty() || !worse.is_finite() {
                Verdict::Missing
            } else if base_spread > m.bound {
                if all_better {
                    Verdict::Improved
                } else {
                    Verdict::Unresolved
                }
            } else if worse > m.bound {
                Verdict::Regressed
            } else if -worse > m.bound {
                Verdict::Improved
            } else {
                Verdict::Same
            };
            rows.push(Row {
                workload: w.to_string(),
                metric: m.name.clone(),
                base: bm,
                base_spread,
                cur: cm,
                worse,
                verdict,
            });
        }
        let share = |runs: &[Run]| {
            let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
            runs.iter().map(|r| r.failed).sum::<u64>() as f64 / attempted.max(1) as f64
        };
        let (bs, cs) = (share(&b), share(&c));
        let incorrect = c.iter().any(|r| !r.correct);
        rows.push(Row {
            workload: w.to_string(),
            metric: "failed_share".into(),
            base: bs,
            base_spread: 0.0,
            cur: cs,
            worse: cs - bs,
            verdict: if incorrect || cs - bs > FAILED_SHARE_SLACK {
                Verdict::Regressed
            } else {
                Verdict::Same
            },
        });
    }
    rows
}

/// `benchmark compare BASE.json CUR.json [--spec BENCHMARK.json]`.
pub fn compare_cmd(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => spec_path = it.next().ok_or("--spec needs a path")?.clone(),
            _ => files.push(a.clone()),
        }
    }
    let [base, cur] = files.as_slice() else {
        return Err("usage: benchmark compare BASE.json CUR.json [--spec BENCHMARK.json]".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let spec = read_spec(&read(&spec_path)?)?;
    let rows = compare(&spec, &read_runs(&read(base)?)?, &read_runs(&read(cur)?)?);
    println!(
        "{:<12} {:<18} {:>14} {:>7} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "spread", "current", "worse"
    );
    for r in &rows {
        println!(
            "{:<12} {:<18} {:>14.6} {:>6.1}% {:>14.6} {:>7.1}%  {:?}",
            r.workload,
            r.metric,
            r.base,
            100.0 * r.base_spread,
            r.cur,
            100.0 * r.worse,
            r.verdict
        );
    }
    let regressions = rows.iter().filter(|r| r.verdict == Verdict::Regressed).count();
    println!("compare: {} rows, {regressions} regressions", rows.len());
    Ok(regressions == 0)
}

/// `benchmark suite --seeds 1,2,3 [--seconds S] --out FILE`: runs each
/// workload once per seed, each run in its own process.
pub fn suite_cmd(args: &[String]) -> Result<bool, String> {
    let mut seeds = vec![1u64];
    let mut seconds = "10".to_string();
    let mut out_path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--seeds" => {
                seeds = value()?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|_| format!("bad seed {s:?}")))
                    .collect::<Result<_, _>>()?
            }
            "--seconds" => seconds = value()?,
            "--out" => out_path = Some(value()?),
            other => return Err(format!("unknown suite flag {other}")),
        }
    }
    let out_path = out_path.ok_or("suite needs --out FILE")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut records = Vec::new();
    for &seed in &seeds {
        for w in crate::WORKLOADS {
            let output = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string(), "--seconds", &seconds])
                .args(["--trace", "0"])
                .output()
                .map_err(|e| format!("run {w}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let v: Value = serde_json::from_str(last)
                .map_err(|e| format!("{w} seed {seed}: no result line ({e})"))?;
            let run = Run::from_result(w, &v)?;
            eprintln!("suite: {w} seed {seed}: correct {}", run.correct);
            let mut entry = vec![
                ("workload".to_string(), Value::Str(w.to_string())),
                ("seed".to_string(), Value::U64(seed)),
            ];
            entry.extend(v.as_map().map_err(|e| e.to_string())?.iter().cloned());
            records.push(Value::Map(entry));
            runs.push(run);
        }
    }
    let summary = summarize(&runs);
    let doc = Value::Map(vec![
        ("available_cores".into(), Value::U64(crate::available_cores() as u64)),
        ("commit".into(), Value::Str(crate::commit())),
        ("seconds".into(), Value::Str(seconds)),
        ("runs".into(), Value::Seq(records)),
        ("summary".into(), summary),
    ]);
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&out_path, text + "\n").map_err(|e| format!("{out_path}: {e}"))?;
    println!("suite: {} runs written to {out_path}", runs.len());
    Ok(runs.iter().all(|r| r.correct))
}

/// Per workload and metric: median, quartiles, their spread, and the
/// min-to-max spread over the median.
fn summarize(runs: &[Run]) -> Value {
    let mut by: BTreeMap<&str, BTreeMap<&str, Vec<f64>>> = BTreeMap::new();
    for r in runs {
        for (m, &v) in &r.metrics {
            by.entry(&r.workload).or_default().entry(m).or_default().push(v);
        }
    }
    let workloads = by
        .into_iter()
        .map(|(w, metrics)| {
            let rows = metrics
                .into_iter()
                .map(|(m, vals)| {
                    let [q1, q2, q3] = quartiles(&vals).unwrap_or([vals[0]; 3]);
                    let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let stat = Value::Map(vec![
                        ("median".into(), Value::F64(q2)),
                        ("q1".into(), Value::F64(q1)),
                        ("q3".into(), Value::F64(q3)),
                        ("spread".into(), Value::F64(spread(&vals).unwrap_or(0.0))),
                        ("min".into(), Value::F64(lo)),
                        ("max".into(), Value::F64(hi)),
                        ("minmax_spread".into(), Value::F64((hi - lo) / q2.abs())),
                    ]);
                    (m.to_string(), stat)
                })
                .collect();
            (w.to_string(), Value::Map(rows))
        })
        .collect();
    Value::Map(workloads)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Vec<MetricSpec> {
        vec![
            MetricSpec { name: "latency_ms_p50".into(), lower_is_better: true, bound: 0.1 },
            MetricSpec { name: "throughput_per_s".into(), lower_is_better: false, bound: 0.1 },
        ]
    }

    fn runs(workload: &str, latency: &[f64], throughput: &[f64], failed: u64) -> Vec<Run> {
        latency
            .iter()
            .zip(throughput)
            .map(|(&l, &t)| Run {
                workload: workload.into(),
                correct: true,
                attempted: 1000,
                failed,
                metrics: [("latency_ms_p50".to_string(), l), ("throughput_per_s".to_string(), t)]
                    .into_iter()
                    .collect(),
            })
            .collect()
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).expect("row").verdict
    }

    #[test]
    fn a_slower_median_beyond_the_bound_regresses() {
        let base = runs("w", &[10.0, 10.1, 9.9, 10.0, 10.05], &[100.0; 5], 0);
        let cur = runs("w", &[11.5, 11.6, 11.4, 11.5, 11.55], &[100.0; 5], 0);
        let rows = compare(&spec(), &base, &cur);
        assert_eq!(verdict(&rows, "latency_ms_p50"), Verdict::Regressed);
        assert_eq!(verdict(&rows, "throughput_per_s"), Verdict::Same);
        assert_eq!(verdict(&rows, "failed_share"), Verdict::Same);
    }

    #[test]
    fn higher_is_better_metrics_improve_upward() {
        let base = runs("w", &[10.0; 5], &[100.0, 101.0, 99.0, 100.0, 100.5], 0);
        let cur = runs("w", &[10.0; 5], &[130.0, 131.0, 129.0, 130.0, 130.5], 0);
        let rows = compare(&spec(), &base, &cur);
        assert_eq!(verdict(&rows, "throughput_per_s"), Verdict::Improved);
        let rows = compare(&spec(), &cur, &base);
        assert_eq!(verdict(&rows, "throughput_per_s"), Verdict::Regressed);
    }

    #[test]
    fn a_wide_base_spread_leaves_the_pair_unresolved() {
        let base = runs("w", &[8.0, 10.0, 12.0, 9.0, 11.0], &[100.0; 5], 0);
        let cur = runs("w", &[11.0, 12.0, 13.0, 11.5, 12.5], &[100.0; 5], 0);
        let rows = compare(&spec(), &base, &cur);
        assert_eq!(verdict(&rows, "latency_ms_p50"), Verdict::Unresolved);
        // ...unless every current run beats every base run.
        let cur = runs("w", &[5.0, 5.5, 6.0, 5.2, 5.8], &[100.0; 5], 0);
        let rows = compare(&spec(), &base, &cur);
        assert_eq!(verdict(&rows, "latency_ms_p50"), Verdict::Improved);
    }

    #[test]
    fn any_rise_in_failures_regresses() {
        let base = runs("w", &[10.0; 3], &[100.0; 3], 0);
        let cur = runs("w", &[10.0; 3], &[100.0; 3], 2);
        let rows = compare(&spec(), &base, &cur);
        assert_eq!(verdict(&rows, "failed_share"), Verdict::Regressed);
        let mut wrong = runs("w", &[10.0; 3], &[100.0; 3], 0);
        wrong[1].correct = false;
        assert_eq!(verdict(&compare(&spec(), &base, &wrong), "failed_share"), Verdict::Regressed);
    }

    #[test]
    fn each_workload_gets_its_own_rows() {
        let mut base = runs("a", &[10.0; 3], &[100.0; 3], 0);
        base.extend(runs("b", &[20.0; 3], &[50.0; 3], 0));
        let mut cur = runs("a", &[10.0; 3], &[100.0; 3], 0);
        cur.extend(runs("b", &[30.0; 3], &[50.0; 3], 0));
        let rows = compare(&spec(), &base, &cur);
        assert_eq!(rows.len(), 6);
        let b_latency = rows.iter().find(|r| r.workload == "b" && r.metric == "latency_ms_p50");
        assert_eq!(b_latency.expect("row").verdict, Verdict::Regressed);
        let a_latency = rows.iter().find(|r| r.workload == "a" && r.metric == "latency_ms_p50");
        assert_eq!(a_latency.expect("row").verdict, Verdict::Same);
    }

    #[test]
    fn the_declared_spec_parses() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json");
        let spec = read_spec(&text).expect("spec");
        assert!(spec.iter().any(|m| m.name == "setup_s" && m.lower_is_better));
        assert!(spec.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
