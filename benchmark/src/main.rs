//! End-to-end benchmark of the cloud profit-allocation system.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--trace-out F]
//! benchmark suite --seeds 1,2,3 [--seconds S] --out RUNS.json
//! benchmark compare BASE.json CUR.json [--spec BENCHMARK.json]
//! ```
//!
//! A run prints its checks and metrics for a reader, then, as its last
//! line, one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (every end-to-end metric untraced, every per-layer metric traced). It
//! exits 1 when a check fails and 2 on bad arguments. See README.md.

mod batch;
mod compare;
mod datacenter;
mod loadgen;
mod probes;
mod report;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Outcome, END_TO_END, PER_LAYER};
use spans::Recorder;

/// Solver and server worker threads. Results are the same at every
/// thread count; on the two-core shared host this benchmark was tuned on,
/// two threads made each parallel phase wait for the slower core and
/// widened the run-to-run spread of scale-hier's solve time sixfold.
pub const THREADS: usize = 1;

/// The workloads, in the order `suite` runs them.
pub const WORKLOADS: [&str; 4] = ["paper-batch", "scale-hier", "serve-churn", "serve-large"];

/// Where runs write their scratch files and traces, under the working
/// directory.
const WORK_DIR: &str = ".bench_work";

/// The options of one run.
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed of every input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics.
    pub trace: bool,
    /// Tiny inputs, for the test suite.
    pub smoke: bool,
    /// Span file of a traced run.
    pub trace_out: PathBuf,
    /// Scratch directory.
    pub work: PathBuf,
}

impl RunArgs {
    fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace, mut smoke) = (1u64, 10.0f64, false, false);
        let mut trace_out = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = value.parse().map_err(|_| bad("an integer"))?,
                "--seconds" => seconds = value.parse().map_err(|_| bad("a number"))?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--trace-out" => trace_out = Some(PathBuf::from(value)),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
        }
        if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must lie in (0, 600], got {seconds}"));
        }
        let work = PathBuf::from(WORK_DIR);
        let trace_out =
            trace_out.unwrap_or_else(|| work.join(format!("trace-{workload}-{seed}.jsonl")));
        Ok(RunArgs { workload, seed, seconds, trace, smoke, trace_out, work })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("__serve") => return serve_child(&args[1..]),
        Some("compare") => compare::compare_cmd(&args[1..]),
        Some("suite") => compare::suite_cmd(&args[1..]),
        _ => run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(raw: &[String]) -> Result<bool, String> {
    let args = RunArgs::parse(raw)?;
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    println!(
        "benchmark: workload {} seed {} seconds {} trace {} smoke {} | available_cores {} commit {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        available_cores(),
        commit()
    );
    let mut out: Outcome = match args.workload.as_str() {
        "paper-batch" => batch::paper_batch(&args),
        "scale-hier" => batch::scale_hier(&args),
        "serve-churn" => serve::run(&serve::churn(args.smoke), &args),
        "serve-large" => serve::run(&serve::large(args.smoke), &args),
        _ => unreachable!("workload names are validated"),
    };
    out.select(if args.trace { &PER_LAYER } else { &END_TO_END });
    out.print_table();
    let line = serde_json::to_string(&out.to_json()).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(out.correct())
}

/// Writes a traced run's spans and reads them back the way
/// `cloudalloc trace-report` does: no orphan and no unclosed span.
pub fn write_trace(rec: &Recorder, args: &RunArgs, out: &mut Outcome) {
    let jsonl = rec.to_jsonl();
    if let Err(e) = std::fs::write(&args.trace_out, &jsonl) {
        out.check(format!("trace written to {} ({e})", args.trace_out.display()), false);
        return;
    }
    match spans::reread(&jsonl) {
        Ok((spans, orphans, unclosed)) => out.check(
            format!(
                "{spans} spans in {}: {orphans} orphans, {unclosed} unclosed",
                args.trace_out.display()
            ),
            orphans == 0 && unclosed == 0,
        ),
        Err(e) => {
            out.check(format!("trace-report reads {} ({e})", args.trace_out.display()), false)
        }
    }
}

/// The hidden server mode: `__serve --rss-out FILE <cloudalloc args>`
/// runs the `cloudalloc` command line in this process and then copies
/// its `/proc/self/status` (with the peak RSS) to `FILE`, so the serve
/// workloads need no separately built binary.
fn serve_child(args: &[String]) -> ExitCode {
    let [flag, rss_out, cli @ ..] = args else {
        eprintln!("benchmark __serve: usage: __serve --rss-out FILE <cloudalloc args>");
        return ExitCode::from(2);
    };
    if flag != "--rss-out" {
        eprintln!("benchmark __serve: expected --rss-out, got {flag}");
        return ExitCode::from(2);
    }
    let result = cloudalloc_cli::Parsed::parse(cli.iter().cloned())
        .map_err(cloudalloc_cli::CliError::from)
        .and_then(|parsed| cloudalloc_cli::run(&parsed));
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    if let Err(e) = std::fs::write(rss_out, status) {
        eprintln!("benchmark __serve: {rss_out}: {e}");
        return ExitCode::FAILURE;
    }
    match result {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Cores this process may run on.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the working directory's `.git` points at, or `unknown`
/// (benchmark checkouts need not be repositories). Reads only files
/// under the working directory.
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".into() } else { head.to_string() };
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}
