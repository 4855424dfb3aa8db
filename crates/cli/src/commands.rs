//! The subcommand implementations.

use std::error::Error;
use std::fmt;
use std::fs;

use cloudalloc_baselines::{modified_ps, monte_carlo, McConfig, PsConfig};
use cloudalloc_core::{solve, solve_hierarchical_streamed, HierConfig, HierError, SolverConfig};
use cloudalloc_metrics::Table;
use cloudalloc_model::{
    check_feasibility, evaluate, Allocation, CloudSystem, LoweredClients, Violation,
};
use cloudalloc_simulator::{
    simulate, validate, FailureConfig, GpsMode, RoutingPolicy, ServiceDistribution, SimConfig,
};
use cloudalloc_telemetry as telemetry;
use cloudalloc_workload::{generate, FaultPlan, FaultRecord, ScenarioConfig};

use crate::args::{ArgError, Parsed};

/// Any failure a command can produce.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments.
    Args(ArgError),
    /// Filesystem trouble.
    Io(std::io::Error),
    /// Malformed JSON artifact.
    Json(serde_json::Error),
    /// A scenario parsed as JSON but violates a model invariant (bad ids,
    /// out-of-range numbers, inconsistent structures).
    Model(cloudalloc_model::ModelError),
    /// Invalid hierarchical-solve knobs (`--group-size`,
    /// `--memory-budget`). Typed pass-through of the solver's own
    /// validation, so no zero value can reach a solver panic from here.
    Hier(HierError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Args(e) => write!(f, "{e}"),
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::Json(e) => write!(f, "json error: {e}"),
            Self::Model(e) => write!(f, "invalid system: {e}"),
            Self::Hier(e) => write!(f, "{e}"),
        }
    }
}
impl Error for CliError {}
impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        Self::Args(e)
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}
impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        Self::Json(e)
    }
}
impl From<cloudalloc_model::ModelError> for CliError {
    fn from(e: cloudalloc_model::ModelError) -> Self {
        Self::Model(e)
    }
}
impl From<HierError> for CliError {
    fn from(e: HierError) -> Self {
        Self::Hier(e)
    }
}

pub(crate) fn load_system(parsed: &Parsed) -> Result<CloudSystem, CliError> {
    let path = parsed.require("--system")?;
    let system: CloudSystem = serde_json::from_str(&fs::read_to_string(path)?)?;
    // Deserialization only checks shape; a hand-edited or corrupted file
    // can still break model invariants the solver would otherwise trip
    // over as panics deep in the lowering. Surface those as typed errors.
    system.validate()?;
    Ok(system)
}

fn load_allocation(parsed: &Parsed) -> Result<Allocation, CliError> {
    let path = parsed.require("--allocation")?;
    Ok(serde_json::from_str(&fs::read_to_string(path)?)?)
}

pub(crate) fn solver_config(parsed: &Parsed) -> Result<SolverConfig, CliError> {
    // `--threads 0` would trip the config validator's assert; surface it
    // as a CLI error instead. Absent flag → `None`, which defers to the
    // CLOUDALLOC_THREADS environment variable and then all cores.
    let num_threads = match parsed.get("--threads") {
        None => None,
        Some(_) => match parsed.num("--threads", 1usize)? {
            0 => return Err(ArgError("--threads needs at least 1".into()).into()),
            t => Some(t),
        },
    };
    Ok(SolverConfig {
        alpha_granularity: parsed.num("--granularity", 10usize)?,
        num_init_solns: parsed.num("--init", 3usize)?,
        require_service: parsed.switch("--require-service"),
        num_threads,
        ..Default::default()
    })
}

/// Arms the JSONL telemetry sink when `--telemetry-out` was passed.
/// Returns the target path so [`telemetry_finish`] can report it.
pub(crate) fn telemetry_begin(parsed: &Parsed) -> Result<Option<&str>, CliError> {
    match parsed.get("--telemetry-out") {
        None => Ok(None),
        Some(path) => {
            if telemetry::ENABLED {
                telemetry::init_jsonl(path)?;
                // Background memory timeline (VmRSS/VmHWM + streamed
                // staging watermarks) for the flight recorder.
                telemetry::start_memory_sampler(std::time::Duration::from_millis(50));
            }
            Ok(Some(path))
        }
    }
}

/// Flushes accumulated metrics, closes the sink and appends a note about
/// where the telemetry went (or why it didn't).
pub(crate) fn telemetry_finish(path: Option<&str>, out: &mut String) {
    let Some(path) = path else { return };
    if telemetry::ENABLED {
        telemetry::stop_memory_sampler();
        telemetry::flush_metrics();
        telemetry::close_sink();
        out.push_str(&format!("telemetry written to {path}\n"));
    } else {
        out.push_str(
            "telemetry disabled at build time; rebuild with --features telemetry to capture it\n",
        );
    }
}

fn cmd_generate(parsed: &Parsed) -> Result<String, CliError> {
    let clients = parsed.num("--clients", 40usize)?;
    let seed = parsed.num("--seed", 1u64)?;
    let config = match parsed.get("--preset").unwrap_or("paper") {
        "paper" => ScenarioConfig::paper(clients),
        "small" => ScenarioConfig::small(clients),
        "overloaded" => ScenarioConfig::overloaded(clients),
        "scale" => ScenarioConfig::scale(clients),
        other => return Err(ArgError(format!("unknown preset {other:?}")).into()),
    };
    let system = generate(&config, seed);
    let mut out = format!(
        "generated {} clients over {} servers in {} clusters (seed {seed})\n",
        system.num_clients(),
        system.num_servers(),
        system.num_clusters()
    );
    if let Some(path) = parsed.get("--out") {
        fs::write(path, serde_json::to_string_pretty(&system)?)?;
        out.push_str(&format!("wrote {path}\n"));
    }
    Ok(out)
}

fn render_report(system: &CloudSystem, alloc: &Allocation) -> String {
    let report = evaluate(system, alloc);
    let violations = check_feasibility(system, alloc);
    let declined = violations.iter().filter(|v| matches!(v, Violation::Unassigned { .. })).count();
    let hard = violations.len() - declined;
    let mut out = String::new();
    out.push_str(&format!(
        "profit {:.4} = revenue {:.4} − cost {:.4}\n",
        report.profit, report.revenue, report.cost
    ));
    out.push_str(&format!(
        "{} active servers, {} clients served, {} declined, {} hard violations\n",
        report.active_servers,
        report.clients.iter().filter(|c| c.response_time.is_finite()).count(),
        declined,
        hard
    ));
    out
}

/// Peak resident-set size of this process in bytes, from
/// `/proc/self/status` (`VmHWM`, in kB); `None` off Linux.
fn peak_rss_bytes() -> Option<usize> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn cmd_solve(parsed: &Parsed) -> Result<String, CliError> {
    let system = load_system(parsed)?;
    let seed = parsed.num("--seed", 0u64)?;
    let config = solver_config(parsed)?;
    // The one validation site for the hierarchical knobs: zero values
    // surface as typed `CliError::Hier` before any solving (for *all*
    // paths — `--memory-budget` also gates flat runs below), and the
    // solver's panicking validators become unreachable from CLI input.
    let group_size = match parsed.get("--group-size") {
        None => None,
        Some(_) => Some(parsed.num("--group-size", 8usize)?),
    };
    let budget_mib = match parsed.get("--memory-budget") {
        None => None,
        Some(_) => Some(parsed.num("--memory-budget", 0usize)?),
    };
    let hier = HierConfig::try_new(group_size, budget_mib)?;
    let telemetry_path = telemetry_begin(parsed)?;
    let result = if parsed.switch("--hierarchical") {
        // The file is already in memory, so lower it in one chunk.
        let mut clients = LoweredClients::new(system.num_clients(), system.server_classes().len());
        clients.push_chunk(system.server_classes(), system.utility_classes(), system.clients());
        solve_hierarchical_streamed(&system, clients, &config, &hier, seed)
    } else {
        solve(&system, &config, seed)
    };
    let mut out = format!(
        "initial {:.4} → final {:.4} in {} rounds (converged: {})\n",
        result.initial_profit, result.report.profit, result.stats.rounds, result.stats.converged
    );
    out.push_str(&render_report(&system, &result.allocation));
    if let Some(path) = parsed.get("--out") {
        fs::write(path, serde_json::to_string_pretty(&result.allocation)?)?;
        out.push_str(&format!("wrote {path}\n"));
    }
    // An operational guard for scale runs: fail loudly when the solve
    // blew past its memory envelope instead of letting a quietly swapping
    // process report success. (On hierarchical runs the same budget also
    // bounds the solve waves above, so the gate and the scheduler agree.)
    if let Some(budget_mib) = budget_mib {
        match peak_rss_bytes() {
            Some(rss) if rss > budget_mib << 20 => {
                return Err(ArgError(format!(
                    "peak RSS {:.1} MiB exceeded --memory-budget {budget_mib} MiB",
                    rss as f64 / (1 << 20) as f64
                ))
                .into());
            }
            Some(rss) => out.push_str(&format!(
                "peak RSS {:.1} MiB within the {budget_mib} MiB budget\n",
                rss as f64 / (1 << 20) as f64
            )),
            None => out
                .push_str("peak RSS unavailable on this platform; --memory-budget not enforced\n"),
        }
    }
    telemetry_finish(telemetry_path, &mut out);
    Ok(out)
}

fn cmd_evaluate(parsed: &Parsed) -> Result<String, CliError> {
    let system = load_system(parsed)?;
    let alloc = load_allocation(parsed)?;
    Ok(render_report(&system, &alloc))
}

fn cmd_explain(parsed: &Parsed) -> Result<String, CliError> {
    let system = load_system(parsed)?;
    let alloc = load_allocation(parsed)?;
    Ok(cloudalloc_core::explain(&system, &alloc))
}

fn cmd_simulate(parsed: &Parsed) -> Result<String, CliError> {
    let system = load_system(parsed)?;
    let alloc = load_allocation(parsed)?;
    let horizon = parsed.num("--horizon", 5_000.0f64)?;
    let mut config = SimConfig {
        horizon,
        warmup: horizon * 0.1,
        seed: parsed.num("--seed", 0u64)?,
        mode: if parsed.switch("--shared") { GpsMode::Shared } else { GpsMode::Isolated },
        routing: if parsed.switch("--least-work") {
            RoutingPolicy::LeastWork
        } else {
            RoutingPolicy::Static
        },
        ..Default::default()
    };
    if let Some(cv2) = parsed.get("--cv2") {
        let cv2: f64 = cv2.parse().map_err(|_| ArgError(format!("--cv2 got {cv2:?}")))?;
        config.service = ServiceDistribution::HyperExponential { cv2 };
    }
    if let Some(avail) = parsed.get("--availability") {
        let a: f64 =
            avail.parse().map_err(|_| ArgError(format!("--availability got {avail:?}")))?;
        if !(0.0 < a && a < 1.0) {
            return Err(ArgError("--availability must lie in (0,1)".into()).into());
        }
        let mttr = 20.0;
        config.failures = Some(FailureConfig::new(mttr * a / (1.0 - a), mttr));
    }
    config.validate();

    let rows = validate(&system, &alloc, &config);
    let report = simulate(&system, &alloc, &config);
    let mut table = Table::new(vec![
        "client".into(),
        "analytic".into(),
        "measured".into(),
        "rel_err".into(),
        "completed".into(),
    ]);
    for row in &rows {
        table.row(vec![
            row.client.to_string(),
            format!("{:.4}", row.analytic),
            format!("{:.4}", row.measured),
            format!("{:+.1}%", (row.measured / row.analytic - 1.0) * 100.0),
            row.samples.to_string(),
        ]);
    }
    let mut out = table.to_string();
    out.push_str(&format!(
        "measured revenue {:.4} over {} events\n",
        report.measured_revenue(&system),
        report.events
    ));
    Ok(out)
}

pub(crate) fn load_fault_plan(
    parsed: &Parsed,
    system: &CloudSystem,
) -> Result<Option<FaultPlan>, CliError> {
    let Some(path) = parsed.get("--faults") else { return Ok(None) };
    let plan: FaultPlan = serde_json::from_str(&fs::read_to_string(path)?)?;
    plan.validate(system.num_servers(), system.num_clients())
        .map_err(|e| ArgError(format!("--faults {path}: {e}")))?;
    Ok(Some(plan))
}

fn cmd_epochs(parsed: &Parsed) -> Result<String, CliError> {
    use cloudalloc_epoch::{
        DriftConfig, EpochConfig, EpochManager, EwmaPredictor, OperationsLog, RepairPolicy,
        WorkloadDrift,
    };
    let system = load_system(parsed)?;
    let seed = parsed.num("--seed", 0u64)?;
    let epochs = parsed.num("--epochs", 8usize)?;
    if epochs == 0 {
        return Err(ArgError("--epochs must be at least 1".into()).into());
    }
    let volatility = parsed.num("--volatility", 0.08f64)?;
    let degradation_threshold = parsed.num("--degradation-threshold", 0.5f64)?;
    if degradation_threshold.is_nan() || degradation_threshold < 0.0 {
        return Err(ArgError("--degradation-threshold must be non-negative".into()).into());
    }
    let faults = load_fault_plan(parsed, &system)?;
    let telemetry_path = telemetry_begin(parsed)?;
    let base: Vec<f64> = system.clients().iter().map(|c| c.rate_predicted).collect();
    let num_clients = system.num_clients();
    let predictor = EwmaPredictor::new(0.4, &base);
    let config = EpochConfig {
        solver: solver_config(parsed)?,
        resolve_threshold: 0.15,
        repair: RepairPolicy {
            degradation_threshold,
            max_resolve_retries: parsed.num("--retries", 2usize)?,
        },
    };
    let mut manager = EpochManager::new(system, predictor, config, seed);
    let mut drift =
        WorkloadDrift::new(DriftConfig { volatility, ..Default::default() }, &base, seed ^ 0xD21F);
    let mut log = OperationsLog::new();
    let mut table = Table::new(vec![
        "epoch".into(),
        "pred_err".into(),
        "planned".into(),
        "realized".into(),
        "unstable".into(),
        "replan".into(),
        "faults".into(),
        "repair".into(),
    ]);
    let no_events: &[FaultRecord] = &[];
    for epoch in 0..epochs {
        let events = faults.as_ref().map_or(no_events, |p| p.events_at(epoch));
        let report = manager.step_faulted(&drift.step(), events);
        table.row(vec![
            report.epoch.to_string(),
            format!("{:.1}%", report.prediction_error * 100.0),
            format!("{:.2}", report.predicted_profit),
            format!("{:.2}", report.actual_profit),
            report.unstable_clients.to_string(),
            if report.resolved_fully { "full".into() } else { "warm".into() },
            events.len().to_string(),
            match &report.repair {
                None => "-".into(),
                Some(r) => format!(
                    "{}v/{}s{}",
                    r.victims,
                    r.shed + r.shed_low_utility,
                    if r.escalated { "!" } else { "" }
                ),
            },
        ]);
        log.record(report);
    }
    let summary = log.summary(num_clients);
    let mut out = table.to_string();
    out.push_str(&format!(
        "total realized profit {:.2}; replan rate {:.0}%, SLA instability {:.1}%,          mean prediction error {:.1}%
",
        summary.total_profit,
        summary.replan_rate * 100.0,
        summary.instability_rate * 100.0,
        summary.mean_prediction_error * 100.0
    ));
    if faults.is_some() {
        out.push_str(&format!(
            "repairs in {:.0}% of epochs, {} clients shed, {} escalations to full re-solve\n",
            summary.repair_rate * 100.0,
            summary.total_shed,
            summary.escalations
        ));
    }
    telemetry_finish(telemetry_path, &mut out);
    Ok(out)
}

fn cmd_gen_faults(parsed: &Parsed) -> Result<String, CliError> {
    let system = load_system(parsed)?;
    let epochs = parsed.num("--epochs", 8usize)?;
    let seed = parsed.num("--seed", 0u64)?;
    // Mean time between failures / to repair, measured in epochs.
    let mtbf = parsed.num("--mtbf", 6.0f64)?;
    let mttr = parsed.num("--mttr", 2.0f64)?;
    if !(mtbf > 0.0 && mtbf.is_finite() && mttr > 0.0 && mttr.is_finite()) {
        return Err(ArgError("--mtbf and --mttr must be positive epochs".into()).into());
    }
    let failures = FailureConfig::new(mtbf, mttr);
    let plan = failures.sample_epoch_plan(system.num_servers(), epochs, 1.0, seed);
    let mut out = format!(
        "sampled {} fault events over {} epochs for {} servers (availability {:.0}%)\n",
        plan.len(),
        epochs,
        system.num_servers(),
        failures.availability() * 100.0
    );
    if let Some(path) = parsed.get("--out") {
        fs::write(path, serde_json::to_string_pretty(&plan)?)?;
        out.push_str(&format!("wrote {path}\n"));
    }
    Ok(out)
}

fn cmd_baseline(parsed: &Parsed) -> Result<String, CliError> {
    let system = load_system(parsed)?;
    let seed = parsed.num("--seed", 0u64)?;
    let config = solver_config(parsed)?;
    let proposed = solve(&system, &config, seed).report.profit;
    let ps = evaluate(&system, &modified_ps(&system, &PsConfig::default())).profit;
    let mc = monte_carlo(
        &system,
        &McConfig { iterations: parsed.num("--mc", 120usize)?, solver: config, polish_best: true },
        seed,
    );
    let bound = cloudalloc_core::profit_upper_bound(&system);
    let best = proposed.max(ps).max(mc.best_profit);
    let mut table = Table::new(vec!["method".into(), "profit".into(), "normalized".into()]);
    for (name, profit) in [
        ("relaxation upper bound", bound),
        ("proposed (Resource_Alloc)", proposed),
        ("modified PS", ps),
        ("Monte-Carlo best", mc.best_profit),
        ("Monte-Carlo worst raw", mc.mc_worst_raw()),
    ] {
        table.row(vec![
            name.into(),
            format!("{profit:.4}"),
            if best > 0.0 { format!("{:.4}", profit / best) } else { "-".into() },
        ]);
    }
    Ok(table.to_string())
}

/// The help text.
pub const HELP: &str = "cloudalloc — SLA-driven profit-maximizing cloud resource allocation

USAGE: cloudalloc <command> [--flag value] [--switch]

COMMANDS
  generate  --clients N [--preset paper|small|overloaded|scale] [--seed S]
            [--out FILE]
  solve     --system FILE [--seed S] [--granularity G] [--init N]
            [--threads T] [--require-service] [--hierarchical]
            [--group-size K] [--memory-budget MIB] [--out FILE]
            [--telemetry-out FILE]
  evaluate  --system FILE --allocation FILE
  explain   --system FILE --allocation FILE
  simulate  --system FILE --allocation FILE [--horizon H] [--seed S]
            [--shared] [--least-work] [--cv2 X] [--availability A]
  baseline  --system FILE [--mc N] [--seed S] [--granularity G]
            [--init N] [--threads T] [--require-service]
  epochs    --system FILE [--epochs N] [--volatility V] [--seed S]
            [--faults FILE] [--degradation-threshold X] [--retries N]
            [--granularity G] [--init N] [--threads T]
            [--require-service] [--telemetry-out FILE]
  gen-faults --system FILE [--epochs N] [--mtbf E] [--mttr E] [--seed S]
            [--out FILE]
  serve     --system FILE [--addr HOST:PORT] [--addr-file FILE]
            [--slo-ms MS] [--epoch-every N] [--seed S] [--accept N]
            [--faults FILE] [--degradation-threshold X] [--retries N]
            [--logical-clock-us STEP] [--threads T] [--granularity G]
            [--init N] [--require-service] [--telemetry-out FILE]
  client    (--addr HOST:PORT | --addr-file FILE) --script FILE
            [--out FILE]
  trace-report  --in FILE [--perfetto FILE] [--top K]
  help

The solver parallelizes best-of-N construction and the per-cluster
searches and operators inside each pass; worker count comes from
--threads, else the CLOUDALLOC_THREADS environment variable, else all
cores. Results are identical for every thread count.

`--hierarchical` switches `solve` to the datacenter-scale scheme: a
sketch pass routes every client to a group of clusters, then each group
runs the exact solver independently (deterministic at every thread
count; one group reproduces the flat solve exactly). Group size defaults
to an adaptive rule — roughly the square root of the cluster count,
shrunk to fit --memory-budget — and --group-size K pins it explicitly.
`--memory-budget MIB` bounds solve-side residency: groups are extracted
and solved in waves sized to the budget (wave boundaries never change
the result), and the run fails afterwards if the process's peak RSS
exceeded the budget. The `scale` generate preset grows the cluster
count with the client population (one cluster per ~500 clients).

`gen-faults` samples a server up/down fault plan (exponential MTBF/MTTR,
in epochs) for a system; `epochs --faults` replays such a plan through
the control loop, repairing incrementally, shedding unprofitable clients
and escalating to a full re-solve when repaired profit drops below
--degradation-threshold × the pre-fault profit.

Builds with the `telemetry` feature stream solver spans, counters and
events to --telemetry-out as JSONL. Spans carry process-unique ids and
parent links (causal trees across parallel fan-outs) and a background
sampler adds a memory timeline. `trace-report` reads such a file: it
rebuilds the span forest, prints self-time hotspots, per-dispatch
critical-path/imbalance numbers, the memory timeline, final counter
values, histogram rows and a tally of every other record type, and
exports a Perfetto/Chrome-trace timeline with --perfetto.
Telemetry never changes results: allocations are bit-identical with the
feature on, off, or recording suppressed.
";

/// One subcommand: its word, its implementation and every flag and
/// switch it reads.
type Command = (&'static str, fn(&Parsed) -> Result<String, CliError>, &'static [&'static str]);

/// Every subcommand but `help`. [`run`] rejects a flag outside a
/// command's list before dispatching, and [`HELP`] lists exactly these
/// flags (pinned by a unit test).
const COMMANDS: &[Command] = &[
    ("generate", cmd_generate, &["--clients", "--preset", "--seed", "--out"]),
    (
        "solve",
        cmd_solve,
        &[
            "--system",
            "--seed",
            "--granularity",
            "--init",
            "--threads",
            "--require-service",
            "--hierarchical",
            "--group-size",
            "--memory-budget",
            "--out",
            "--telemetry-out",
        ],
    ),
    ("evaluate", cmd_evaluate, &["--system", "--allocation"]),
    ("explain", cmd_explain, &["--system", "--allocation"]),
    (
        "simulate",
        cmd_simulate,
        &[
            "--system",
            "--allocation",
            "--horizon",
            "--seed",
            "--shared",
            "--least-work",
            "--cv2",
            "--availability",
        ],
    ),
    (
        "baseline",
        cmd_baseline,
        &[
            "--system",
            "--mc",
            "--seed",
            "--granularity",
            "--init",
            "--threads",
            "--require-service",
        ],
    ),
    (
        "epochs",
        cmd_epochs,
        &[
            "--system",
            "--epochs",
            "--volatility",
            "--seed",
            "--faults",
            "--degradation-threshold",
            "--retries",
            "--granularity",
            "--init",
            "--threads",
            "--require-service",
            "--telemetry-out",
        ],
    ),
    (
        "gen-faults",
        cmd_gen_faults,
        &["--system", "--epochs", "--mtbf", "--mttr", "--seed", "--out"],
    ),
    (
        "serve",
        crate::serve::cmd_serve,
        &[
            "--system",
            "--addr",
            "--addr-file",
            "--slo-ms",
            "--epoch-every",
            "--seed",
            "--accept",
            "--faults",
            "--degradation-threshold",
            "--retries",
            "--logical-clock-us",
            "--threads",
            "--granularity",
            "--init",
            "--require-service",
            "--telemetry-out",
        ],
    ),
    ("client", crate::serve::cmd_client, &["--addr", "--addr-file", "--script", "--out"]),
    ("trace-report", crate::trace::cmd_trace_report, &["--in", "--perfetto", "--top"]),
];

/// Dispatches one parsed command and returns its rendered output.
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands, flags the command does not
/// read, bad flag values, unreadable artifacts or malformed JSON.
pub fn run(parsed: &Parsed) -> Result<String, CliError> {
    let name = parsed.command.as_str();
    if matches!(name, "help" | "--help" | "-h") {
        parsed.check_flags(&[])?;
        return Ok(HELP.to_string());
    }
    let Some(&(_, command, flags)) = COMMANDS.iter().find(|(word, ..)| *word == name) else {
        return Err(ArgError(format!("unknown command {name:?}; try `cloudalloc help`")).into());
    };
    parsed.check_flags(flags)?;
    command(parsed)
}

// The Monte-Carlo outcome field is named differently; a tiny adapter so
// the table code above reads naturally.
trait McWorst {
    fn mc_worst_raw(&self) -> f64;
}
impl McWorst for cloudalloc_baselines::McOutcome {
    fn mc_worst_raw(&self) -> f64 {
        self.worst_raw_profit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Parsed;
    use serde::Value;

    fn parse(words: &[&str]) -> Parsed {
        Parsed::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    fn temp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join("cloudalloc-cli-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_solve_evaluate_round_trip() {
        let sys_path = temp_path("sys.json");
        let alloc_path = temp_path("alloc.json");
        let out = run(&parse(&[
            "generate",
            "--clients",
            "6",
            "--preset",
            "small",
            "--seed",
            "3",
            "--out",
            &sys_path,
        ]))
        .unwrap();
        assert!(out.contains("generated 6 clients"));

        let out =
            run(&parse(&["solve", "--system", &sys_path, "--seed", "1", "--out", &alloc_path]))
                .unwrap();
        assert!(out.contains("final"));
        assert!(out.contains("wrote"));

        let out =
            run(&parse(&["evaluate", "--system", &sys_path, "--allocation", &alloc_path])).unwrap();
        assert!(out.contains("profit"));
        assert!(out.contains("0 hard violations"));
    }

    #[test]
    fn solve_output_is_identical_for_any_thread_count() {
        let sys_path = temp_path("sys_threads.json");
        run(&parse(&[
            "generate",
            "--clients",
            "6",
            "--preset",
            "small",
            "--seed",
            "13",
            "--out",
            &sys_path,
        ]))
        .unwrap();
        let one = run(&parse(&[
            "solve",
            "--system",
            &sys_path,
            "--seed",
            "2",
            "--init",
            "4",
            "--threads",
            "1",
        ]))
        .unwrap();
        let four = run(&parse(&[
            "solve",
            "--system",
            &sys_path,
            "--seed",
            "2",
            "--init",
            "4",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert_eq!(one, four);
    }

    #[test]
    fn hierarchical_solve_runs_and_matches_flat_with_one_group() {
        let sys_path = temp_path("sys_hier.json");
        let alloc_path = temp_path("alloc_hier.json");
        run(&parse(&[
            "generate",
            "--clients",
            "12",
            "--preset",
            "scale",
            "--seed",
            "19",
            "--out",
            &sys_path,
        ]))
        .unwrap();
        let hier = run(&parse(&[
            "solve",
            "--system",
            &sys_path,
            "--seed",
            "2",
            "--hierarchical",
            "--group-size",
            "2",
            "--out",
            &alloc_path,
        ]))
        .unwrap();
        assert!(hier.contains("final"), "no result line:\n{hier}");
        let out =
            run(&parse(&["evaluate", "--system", &sys_path, "--allocation", &alloc_path])).unwrap();
        assert!(out.contains("0 hard violations"), "infeasible hierarchical solve:\n{out}");

        // One group spans every cluster → identical to the flat solve.
        let wide = run(&parse(&[
            "solve",
            "--system",
            &sys_path,
            "--seed",
            "2",
            "--hierarchical",
            "--group-size",
            "1000",
        ]))
        .unwrap();
        let flat = run(&parse(&["solve", "--system", &sys_path, "--seed", "2"])).unwrap();
        assert_eq!(wide, flat);
    }

    #[test]
    fn memory_budget_gates_peak_rss() {
        let sys_path = temp_path("sys_budget.json");
        run(&parse(&[
            "generate",
            "--clients",
            "6",
            "--preset",
            "small",
            "--seed",
            "23",
            "--out",
            &sys_path,
        ]))
        .unwrap();
        if peak_rss_bytes().is_none() {
            return; // gate unavailable off Linux
        }
        // Any real process peaks above 1 MiB; the gate must trip.
        let err =
            run(&parse(&["solve", "--system", &sys_path, "--memory-budget", "1"])).unwrap_err();
        assert!(err.to_string().contains("exceeded"), "unhelpful: {err}");
        // A generous budget passes and reports the measurement.
        let out =
            run(&parse(&["solve", "--system", &sys_path, "--memory-budget", "65536"])).unwrap();
        assert!(out.contains("within the 65536 MiB budget"), "missing note:\n{out}");
        // Zero is a config error, not a trivially-failing gate.
        let err =
            run(&parse(&["solve", "--system", &sys_path, "--memory-budget", "0"])).unwrap_err();
        assert!(matches!(err, CliError::Hier(_)), "wrong variant: {err:?}");
        assert!(err.to_string().contains("at least 1"), "unhelpful: {err}");
    }

    #[test]
    fn zero_group_size_is_a_typed_cli_error() {
        let sys_path = temp_path("sys_gs0.json");
        run(&parse(&[
            "generate",
            "--clients",
            "4",
            "--preset",
            "small",
            "--seed",
            "29",
            "--out",
            &sys_path,
        ]))
        .unwrap();
        let err =
            run(&parse(&["solve", "--system", &sys_path, "--hierarchical", "--group-size", "0"]))
                .unwrap_err();
        assert!(matches!(err, CliError::Hier(_)), "wrong variant: {err:?}");
        assert!(err.to_string().contains("at least one cluster per group"), "unhelpful: {err}");
        // The knob is validated up front even on the flat path.
        let err = run(&parse(&["solve", "--system", &sys_path, "--group-size", "0"])).unwrap_err();
        assert!(matches!(err, CliError::Hier(_)), "wrong variant: {err:?}");
    }

    #[test]
    fn hierarchical_defaults_to_adaptive_grouping() {
        let sys_path = temp_path("sys_adaptive.json");
        run(&parse(&[
            "generate",
            "--clients",
            "12",
            "--preset",
            "scale",
            "--seed",
            "31",
            "--out",
            &sys_path,
        ]))
        .unwrap();
        // No --group-size: the adaptive rule picks one; with a budget the
        // waves are bounded and the RSS gate reports the measurement.
        let out = run(&parse(&[
            "solve",
            "--system",
            &sys_path,
            "--seed",
            "2",
            "--hierarchical",
            "--memory-budget",
            "65536",
        ]))
        .unwrap();
        assert!(out.contains("final"), "no result line:\n{out}");
    }

    #[test]
    fn zero_threads_is_rejected() {
        let sys_path = temp_path("sys_threads0.json");
        run(&parse(&[
            "generate",
            "--clients",
            "4",
            "--preset",
            "small",
            "--seed",
            "13",
            "--out",
            &sys_path,
        ]))
        .unwrap();
        let err = run(&parse(&["solve", "--system", &sys_path, "--threads", "0"])).unwrap_err();
        assert!(err.to_string().contains("at least 1"));
    }

    #[test]
    fn simulate_reports_measured_rows() {
        let sys_path = temp_path("sys2.json");
        let alloc_path = temp_path("alloc2.json");
        run(&parse(&[
            "generate",
            "--clients",
            "4",
            "--preset",
            "small",
            "--seed",
            "5",
            "--out",
            &sys_path,
        ]))
        .unwrap();
        run(&parse(&["solve", "--system", &sys_path, "--out", &alloc_path])).unwrap();
        let out = run(&parse(&[
            "simulate",
            "--system",
            &sys_path,
            "--allocation",
            &alloc_path,
            "--horizon",
            "500",
        ]))
        .unwrap();
        assert!(out.contains("measured revenue"));
        assert!(out.contains("rel_err"));
    }

    #[test]
    fn explain_renders_the_operator_view() {
        let sys_path = temp_path("sys4.json");
        let alloc_path = temp_path("alloc4.json");
        run(&parse(&[
            "generate",
            "--clients",
            "5",
            "--preset",
            "small",
            "--seed",
            "9",
            "--out",
            &sys_path,
        ]))
        .unwrap();
        run(&parse(&["solve", "--system", &sys_path, "--out", &alloc_path])).unwrap();
        let out =
            run(&parse(&["explain", "--system", &sys_path, "--allocation", &alloc_path])).unwrap();
        assert!(out.contains("clusters:"));
        assert!(out.contains("busiest servers:"));
    }

    #[test]
    fn baseline_renders_the_comparison_table() {
        let sys_path = temp_path("sys3.json");
        run(&parse(&[
            "generate",
            "--clients",
            "6",
            "--preset",
            "small",
            "--seed",
            "8",
            "--out",
            &sys_path,
        ]))
        .unwrap();
        let out = run(&parse(&["baseline", "--system", &sys_path, "--mc", "5"])).unwrap();
        assert!(out.contains("relaxation upper bound"));
        assert!(out.contains("proposed (Resource_Alloc)"));
        assert!(out.contains("modified PS"));
        assert!(out.contains("Monte-Carlo best"));
    }

    #[test]
    fn epochs_runs_the_operational_loop() {
        let sys_path = temp_path("sys5.json");
        run(&parse(&[
            "generate",
            "--clients",
            "6",
            "--preset",
            "small",
            "--seed",
            "11",
            "--out",
            &sys_path,
        ]))
        .unwrap();
        let out = run(&parse(&["epochs", "--system", &sys_path, "--epochs", "3", "--init", "1"]))
            .unwrap();
        assert!(out.contains("total realized profit"));
        assert!(out.lines().count() >= 5, "missing table rows:\n{out}");
    }

    #[test]
    fn gen_faults_feeds_the_epochs_loop() {
        let sys_path = temp_path("sys_faults.json");
        let plan_path = temp_path("faults.json");
        run(&parse(&[
            "generate",
            "--clients",
            "6",
            "--preset",
            "small",
            "--seed",
            "11",
            "--out",
            &sys_path,
        ]))
        .unwrap();
        let out = run(&parse(&[
            "gen-faults",
            "--system",
            &sys_path,
            "--epochs",
            "4",
            "--mtbf",
            "2",
            "--mttr",
            "2",
            "--seed",
            "5",
            "--out",
            &plan_path,
        ]))
        .unwrap();
        assert!(out.contains("sampled"), "no sample note:\n{out}");
        assert!(out.contains("wrote"), "no plan written:\n{out}");

        let out = run(&parse(&[
            "epochs", "--system", &sys_path, "--epochs", "4", "--init", "1", "--faults", &plan_path,
        ]))
        .unwrap();
        assert!(out.contains("faults"), "missing faults column:\n{out}");
        assert!(out.contains("repairs in"), "missing repair summary:\n{out}");
        // Same plan, same seed → byte-identical run.
        let again = run(&parse(&[
            "epochs", "--system", &sys_path, "--epochs", "4", "--init", "1", "--faults", &plan_path,
        ]))
        .unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn epochs_rejects_a_fault_plan_that_does_not_fit_the_system() {
        use cloudalloc_model::ServerId;
        use cloudalloc_workload::{FaultEvent, FaultPlan, FaultRecord};
        let sys_path = temp_path("sys_badfaults.json");
        let plan_path = temp_path("bad_faults.json");
        run(&parse(&[
            "generate",
            "--clients",
            "4",
            "--preset",
            "small",
            "--seed",
            "3",
            "--out",
            &sys_path,
        ]))
        .unwrap();
        let plan = FaultPlan::new(vec![FaultRecord {
            epoch: 0,
            event: FaultEvent::ServerFail { server: ServerId(999) },
        }]);
        fs::write(&plan_path, serde_json::to_string(&plan).unwrap()).unwrap();
        let err =
            run(&parse(&["epochs", "--system", &sys_path, "--faults", &plan_path])).unwrap_err();
        assert!(err.to_string().contains("out of range"), "unhelpful: {err}");
    }

    #[test]
    fn trace_report_summarizes_a_jsonl_file() {
        let path = temp_path("telemetry_sample.jsonl");
        fs::write(
            &path,
            concat!(
                "{\"t\":\"meta\",\"ts\":0,\"version\":1}\n",
                "{\"t\":\"span\",\"ts\":10,\"name\":\"solve.round\",\"depth\":0,\"ns\":1500}\n",
                "{\"t\":\"span\",\"ts\":20,\"name\":\"solve.round\",\"depth\":0,\"ns\":2500}\n",
                "{\"t\":\"progress\",\"ts\":30,\"msg\":\"working\"}\n",
                "{\"t\":\"counter\",\"ts\":40,\"name\":\"op.swap.tried\",\"value\":12}\n",
                "{\"t\":\"fcounter\",\"ts\":50,\"name\":\"op.swap.gain\",\"value\":1.5}\n",
                "{\"t\":\"hist\",\"ts\":60,\"name\":\"incr.rollback_depth\",\"count\":4,\
                 \"sum\":10,\"p50\":2,\"p90\":3,\"p99\":3,\"max\":4}\n",
                "{\"t\":\"solve\",\"ts\":70,\"seed\":0,\"profit\":12.5}\n",
                "{\"t\":\"counter\",\"ts\":80,\"name\":\"op.swap.tried\",\"value\":15}\n",
            ),
        )
        .unwrap();
        let out = run(&parse(&["trace-report", "--in", &path])).unwrap();
        // The cells of the table row whose first cell is `name`.
        let row = |name: &str| -> Vec<String> {
            out.lines()
                .map(|l| l.split_whitespace().map(str::to_string).collect::<Vec<_>>())
                .find(|cells| cells.first().is_some_and(|c| c == name))
                .unwrap_or_else(|| panic!("no {name} row:\n{out}"))
        };
        assert!(out.contains("(9 records)"), "record count missing:\n{out}");
        assert!(out.contains("2 spans in 2 trees"), "forest stats missing:\n{out}");
        // Two legacy span records of 1500 + 2500 ns → one hotspot row.
        assert_eq!(row("solve.round")[1..3], ["2", "0.004"], "span row:\n{out}");
        // A counter keeps its last flushed value.
        assert_eq!(row("op.swap.tried")[1], "15", "counter:\n{out}");
        assert_eq!(row("op.swap.gain")[1], "1.5000", "fcounter:\n{out}");
        assert_eq!(row("incr.rollback_depth")[1..], ["4", "2", "3", "3", "4"], "hist:\n{out}");
        // meta / progress / solve all land in the record tally.
        for ty in ["meta", "progress", "solve"] {
            assert_eq!(row(ty)[1], "1", "record type {ty}:\n{out}");
        }
    }

    #[test]
    fn trace_report_tallies_unfamiliar_record_types() {
        // Record types from future recorder versions are counted, never
        // conflated into the span forest or rejected as errors; a
        // start/end pair sharing an id is one span.
        let path = temp_path("telemetry_future.jsonl");
        fs::write(
            &path,
            concat!(
                "{\"t\":\"span_start\",\"ts\":5,\"id\":1,\"parent\":0,\
                 \"name\":\"solve.total\",\"tid\":1}\n",
                "{\"t\":\"span\",\"ts\":10,\"name\":\"solve.total\",\"depth\":0,\"ns\":5,\
                 \"id\":1,\"parent\":0,\"tid\":1}\n",
                "{\"t\":\"mem\",\"ts\":12,\"rss_bytes\":1,\"hwm_bytes\":2,\
                 \"staging_bytes\":0,\"staging_peak_bytes\":0}\n",
                "{\"t\":\"quux\",\"ts\":15,\"payload\":42}\n",
                "{\"t\":\"quux\",\"ts\":16,\"payload\":43}\n",
            ),
        )
        .unwrap();
        let out = run(&parse(&["trace-report", "--in", &path])).unwrap();
        assert!(out.contains("(5 records)"), "record count missing:\n{out}");
        assert!(out.contains("1 spans in 1 trees"), "span pair miscounted:\n{out}");
        assert!(out.contains("memory timeline: 1 samples"), "memory sample lost:\n{out}");
        assert!(
            out.lines().any(|l| l.split_whitespace().eq(["quux", "2"])),
            "future record type dropped:\n{out}"
        );
    }

    #[test]
    fn trace_report_renders_the_causal_view() {
        let path = temp_path("trace_sample.jsonl");
        let perfetto = temp_path("trace_sample_perfetto.json");
        fs::write(
            &path,
            concat!(
                "{\"t\":\"span_start\",\"ts\":0,\"id\":1,\"parent\":0,\
                 \"name\":\"solve.total\",\"tid\":1}\n",
                "{\"t\":\"span_start\",\"ts\":10,\"id\":2,\"parent\":1,\
                 \"name\":\"par.dispatch\",\"tid\":1}\n",
                "{\"t\":\"span_start\",\"ts\":12,\"id\":3,\"parent\":2,\
                 \"name\":\"par.lane\",\"tid\":1}\n",
                "{\"t\":\"span_start\",\"ts\":12,\"id\":4,\"parent\":2,\
                 \"name\":\"par.lane\",\"tid\":2}\n",
                "{\"t\":\"span\",\"ts\":42,\"name\":\"par.lane\",\"depth\":1,\"ns\":30,\
                 \"id\":3,\"parent\":2,\"tid\":1}\n",
                "{\"t\":\"span\",\"ts\":22,\"name\":\"par.lane\",\"depth\":1,\"ns\":10,\
                 \"id\":4,\"parent\":2,\"tid\":2}\n",
                "{\"t\":\"span\",\"ts\":45,\"name\":\"par.dispatch\",\"depth\":0,\"ns\":35,\
                 \"id\":2,\"parent\":1,\"tid\":1}\n",
                "{\"t\":\"span\",\"ts\":50,\"name\":\"solve.total\",\"depth\":0,\"ns\":50,\
                 \"id\":1,\"parent\":0,\"tid\":1}\n",
                "{\"t\":\"mem\",\"ts\":30,\"rss_bytes\":2097152,\"hwm_bytes\":4194304,\
                 \"staging_bytes\":0,\"staging_peak_bytes\":128}\n",
            ),
        )
        .unwrap();
        let out = run(&parse(&["trace-report", "--in", &path, "--perfetto", &perfetto])).unwrap();
        assert!(out.contains("4 spans in 1 trees"), "forest stats missing:\n{out}");
        assert!(out.contains("parallel dispatch critical paths"), "no dispatch table:\n{out}");
        assert!(out.contains("solve.total"), "dispatch site missing:\n{out}");
        assert!(out.contains("memory timeline"), "memory summary missing:\n{out}");
        assert!(out.contains("wrote Perfetto timeline"), "no export note:\n{out}");
        // The export is valid JSON with the Chrome-trace envelope.
        let doc: Value = serde_json::from_str(&fs::read_to_string(&perfetto).unwrap()).unwrap();
        assert!(doc.field("traceEvents").unwrap().as_seq().unwrap().len() >= 5);
    }

    #[test]
    fn trace_report_rejects_malformed_lines() {
        let path = temp_path("telemetry_bad.jsonl");
        fs::write(&path, "{\"t\":\"meta\",\"ts\":0,\"version\":1}\nnot json\n").unwrap();
        let err = run(&parse(&["trace-report", "--in", &path])).unwrap_err();
        assert!(matches!(err, CliError::Json(_)), "got {err:?}");
        assert!(err.to_string().contains("line 2:"), "no line number in: {err}");
    }

    #[test]
    fn solve_telemetry_out_matches_the_build_mode() {
        let sys_path = temp_path("sys_telemetry.json");
        let jsonl_path = temp_path("solve_telemetry.jsonl");
        let _ = fs::remove_file(&jsonl_path);
        run(&parse(&[
            "generate",
            "--clients",
            "5",
            "--preset",
            "small",
            "--seed",
            "21",
            "--out",
            &sys_path,
        ]))
        .unwrap();
        let out = run(&parse(&[
            "solve",
            "--system",
            &sys_path,
            "--seed",
            "1",
            "--telemetry-out",
            &jsonl_path,
        ]))
        .unwrap();
        if cloudalloc_telemetry::ENABLED {
            assert!(out.contains("telemetry written to"), "missing note:\n{out}");
            let text = fs::read_to_string(&jsonl_path).unwrap();
            assert!(text.starts_with("{\"t\":\"meta\""), "no meta header:\n{text}");
            assert!(text.contains("\"t\":\"span\""), "no spans captured");
            // The report command digests what the solve just wrote.
            let report = run(&parse(&["trace-report", "--in", &jsonl_path])).unwrap();
            assert!(report.contains("solve.total"), "report misses spans:\n{report}");
            assert!(report.contains("\ncounters\n"), "report misses counters:\n{report}");
            assert!(report.contains("meta"), "report misses the header record:\n{report}");
        } else {
            assert!(out.contains("disabled at build time"), "missing note:\n{out}");
            assert!(!std::path::Path::new(&jsonl_path).exists(), "no-op build wrote a file");
        }
    }

    #[test]
    fn unknown_command_and_missing_files_error_cleanly() {
        assert!(run(&parse(&["frobnicate"])).is_err());
        let err = run(&parse(&["solve", "--system", "/nonexistent.json"])).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }

    #[test]
    fn invalid_system_is_rejected_with_a_typed_error() {
        // A hand-corrupted scenario that still parses as JSON but breaks a
        // model invariant must surface as CliError::Model, not a panic
        // deep inside the solver.
        let sys_path = temp_path("sys_invalid.json");
        run(&parse(&[
            "generate",
            "--clients",
            "4",
            "--preset",
            "small",
            "--seed",
            "7",
            "--out",
            &sys_path,
        ]))
        .unwrap();
        let text = fs::read_to_string(&sys_path).unwrap();
        let field = "\"rate_predicted\":";
        let at = text.find(field).expect("serialized client field");
        let rest = &text[at + field.len()..];
        let end = rest.find(',').expect("field separator");
        let corrupted = format!("{}{field}-1.0{}", &text[..at], &rest[end..]);
        fs::write(&sys_path, corrupted).unwrap();
        let err = run(&parse(&["solve", "--system", &sys_path])).unwrap_err();
        assert!(matches!(err, CliError::Model(_)), "got {err:?}");
        assert!(err.to_string().contains("rate_predicted"), "unhelpful message: {err}");
    }

    #[test]
    fn help_lists_exactly_the_flags_each_command_reads() {
        // The COMMANDS block of HELP: one entry per command, continuation
        // lines indented, ending at the first blank line.
        let block = HELP.split("COMMANDS\n").nth(1).unwrap().split("\n\n").next().unwrap();
        let mut entries: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in block.lines() {
            let rest = line.trim_start();
            if line.len() - rest.len() == 2 {
                entries.push((rest.split_whitespace().next().unwrap(), Vec::new()));
            }
            let flags = &mut entries.last_mut().unwrap().1;
            flags.extend(
                rest.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .filter(|word| word.starts_with("--") && word.len() > 2),
            );
        }
        assert_eq!(entries.pop(), Some(("help", Vec::new())));
        let names: Vec<&str> = entries.iter().map(|&(name, _)| name).collect();
        let table: Vec<&str> = COMMANDS.iter().map(|&(name, ..)| name).collect();
        assert_eq!(names, table);
        for ((name, mut listed), &(_, _, reads)) in entries.into_iter().zip(COMMANDS) {
            let mut reads = reads.to_vec();
            listed.sort_unstable();
            reads.sort_unstable();
            assert_eq!(listed, reads, "HELP and COMMANDS disagree on {name}");
        }
    }

    #[test]
    fn misspelt_flags_are_rejected_before_the_command_runs() {
        let sys_path = temp_path("sys_typo.json");
        run(&parse(&["generate", "--clients", "4", "--preset", "small", "--out", &sys_path]))
            .unwrap();
        let err = run(&parse(&["solve", "--system", &sys_path, "--seeed", "5"])).unwrap_err();
        assert!(matches!(err, CliError::Args(_)), "got {err:?}");
        assert!(err.to_string().contains("solve does not take --seeed"), "message: {err}");
        // A switch another command reads is still foreign here.
        let err = run(&parse(&["evaluate", "--system", &sys_path, "--shared"])).unwrap_err();
        assert!(err.to_string().contains("evaluate does not take --shared"), "message: {err}");
        assert!(run(&parse(&["solve", "--system", &sys_path, "--seed", "5"])).is_ok());
    }

    #[test]
    fn help_lists_every_command() {
        let out = run(&parse(&["help"])).unwrap();
        for cmd in [
            "generate",
            "solve",
            "evaluate",
            "explain",
            "simulate",
            "baseline",
            "epochs",
            "gen-faults",
            "trace-report",
        ] {
            assert!(out.contains(cmd), "help misses {cmd}");
        }
    }
}
