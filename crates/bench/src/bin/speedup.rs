//! Experiment **E5**: decision-time speedups, one section per mechanism.
//!
//! * **E5b — incremental scoring.** Replays an identical trace of local
//!   moves through the journaled [`ScoredAllocation`] evaluator and
//!   through from-scratch [`evaluate`] calls (the pre-incremental scoring
//!   discipline), asserting the final profits agree to 1e-6 and reporting
//!   the wall-clock ratio.
//! * **E5c — restart fan-out.** Times `solve` with one worker thread vs
//!   all available cores on a best-of-N configuration; the per-pass RNG
//!   streams make the result identical for any thread count. Records the
//!   thread count actually requested for the parallel leg *and* the
//!   machine's core count (earlier revisions wrote whatever
//!   `available_parallelism` returned into `threads`, which on a one-core
//!   CI box rendered every "parallel" row as `"threads": 1`).
//! * **E5d — candidate search.** The allocation-free, run-deduplicated,
//!   slack-pruned `assign_distribute` path vs the retained exhaustive
//!   reference. An untimed verification pass first asserts every candidate
//!   is **bit-for-bit** identical (placements, score, response time) on a
//!   greedy construction plus a loaded-state re-search sweep; then each
//!   path is timed separately on identical inputs.
//! * **E5e — telemetry overhead.** On builds with the `telemetry` feature,
//!   times identical solves with recording enabled vs suppressed (the
//!   runtime gate) and asserts the profits **bit-identical** — telemetry
//!   observes the solver but never steers it. A third leg measures the
//!   full flight recorder (JSONL sink armed, span-tree records and the
//!   background memory sampler streaming to a temp file) against the
//!   same suppressed baseline; it is skipped when `--telemetry-out`
//!   already owns the process-wide sink. Without the feature the layer
//!   compiles to no-ops and the section reports itself skipped.
//! * **E5g — fault repair.** Fails 20% of the active servers and compares
//!   the incremental repair (`evict → re-disperse / re-place / shed`, then
//!   an admission-shedding pass) against a bounded full re-solve on the
//!   masked system. Asserts the repair never falls below the naive
//!   drop-the-victims baseline **and** that it is strictly faster than the
//!   re-solve — the latency headroom that justifies the epoch loop's
//!   repair-first, escalate-late policy.
//! * **E5i — datacenter scale.** Sweeps the [`ScenarioConfig::scale`]
//!   family from 10k clients up to a million (full mode only; `--smoke`
//!   stops at 100k), generating each system through the *streaming*
//!   scenario pipeline under a fixed staging [`MemoryBudget`] and
//!   solving it with the hierarchical sketch-then-exact scheme
//!   ([`solve_hierarchical_streamed`]). Records wall-clock, profit, the
//!   process's peak RSS (self-measured from `/proc/self/status`
//!   `VmHWM`, no dependencies), and — where the flat solve is still
//!   tractable — the hierarchical-vs-flat profit gap, asserted within
//!   the documented one-sided [`PROFIT_BAND`]. Rows of 100k clients and
//!   beyond gate peak RSS against a per-size budget; the 10k row
//!   additionally re-runs the hierarchical solve single-threaded and
//!   asserts the profit bit-identical to the pooled run.
//! * **E5h — intra-solve fan-out.** A *single* paper-scale solve
//!   (`num_init_solns = 1`, so the restart fan-out of E5c contributes
//!   nothing) with one worker vs eight. This isolates the per-cluster
//!   fan-out inside the solve: candidate searches and the cluster-grained
//!   local-search phases dispatch over the pool with a deterministic
//!   fixed-order reduction, so the profit is asserted **bit-identical**
//!   across thread counts. The ≥3x wall-clock gate additionally applies
//!   whenever the machine exposes at least eight cores; on smaller boxes
//!   the bit-identity assertion still runs and the gate reports itself
//!   skipped.
//!
//! ```text
//! cargo run -p cloudalloc-bench --release --bin speedup [--seed N] [--json PATH] [--smoke]
//! ```
//!
//! The per-seed records of every section are always written as JSON
//! (default `BENCH_speedup.json`, the committed full-run baseline that
//! `bench-diff` gates against; `BENCH_speedup_smoke.json` under
//! `--smoke`, so a smoke run never replaces it; override with `--json`).
//! `--smoke` runs the E5d/E5e/E5g/E5h equivalence assertions on tiny
//! configurations plus the E5i scale rows up to 100k clients — the CI
//! gate: the process exits non-zero when any pair of paths disagrees, a
//! profit leaves the hierarchical band, or the peak RSS blows its budget.
//! `--smoke --deep` extends E5i to the million-client row, solved in
//! memory-budgeted waves so the deep tier runs routinely rather than
//! full-mode-only.

use std::time::Instant;

use serde::Serialize;

use cloudalloc_core::{
    best_cluster, best_cluster_reference, commit, greedy_pass, solve, solve_hierarchical_streamed,
    Candidate, HierConfig, SolverConfig, SolverCtx, PROFIT_BAND,
};
use cloudalloc_metrics::Table;
use cloudalloc_model::{
    evaluate, Allocation, ClientId, ClusterId, MemoryBudget, Placement, ScoredAllocation, ServerId,
};
use cloudalloc_workload::{generate, Range, ScenarioConfig, ScenarioStream};

const NUM_CLIENTS: usize = 200;
const SCORING_CLIENTS: usize = 80;
const SCORING_STEPS: usize = 4_000;
const SCORING_SEEDS: usize = 3;
const REPS: usize = 3;
/// E5d runs are only milliseconds long; extra reps tame timer noise.
const SEARCH_REPS: usize = 7;
/// Worker count for the E5h parallel leg.
const INTRA_THREADS: usize = 8;
/// Minimum E5h wall-clock speedup demanded when the machine actually has
/// [`INTRA_THREADS`] cores to run on.
const INTRA_SPEEDUP_FLOOR: f64 = 3.0;
/// Clusters per sketch group in the E5i hierarchical solves.
const SCALE_GROUP_SIZE: usize = 8;
/// Staging budget handed to the streaming scenario assembly in E5i: the
/// client-draw buffer is bounded to this many mebibytes regardless of the
/// population size (1 MiB ≈ 18k staged clients per chunk).
const SCALE_STAGING_MIB: usize = 1;
/// Solve-side residency budget of the E5i hierarchical runs: group
/// sub-problems are extracted and solved in waves whose estimated
/// footprint fits this many mebibytes (≈ a handful of scale-preset
/// groups per wave), so only a sliver of the population's sub-problems
/// is ever resident at once. Wave boundaries never change the result.
const SCALE_SOLVE_MIB: usize = 8;

/// One local-search move of the scoring trace, pre-resolved so both
/// engines replay bit-identical mutations.
enum TraceOp {
    Clear(ClientId),
    Move { client: ClientId, cluster: ClusterId, server: ServerId, placement: Placement },
}

/// SplitMix64 step for the trace generator.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds a deterministic trace of churn resembling the solver's local
/// search: clients clear out, hop clusters and resize their shares. The
/// trace is resolved against a scratch allocation so every op is valid
/// regardless of which engine replays it.
fn build_trace(
    system: &cloudalloc_model::CloudSystem,
    start: &Allocation,
    seed: u64,
    steps: usize,
) -> Vec<TraceOp> {
    let mut scratch = start.clone();
    let mut state = seed;
    let mut trace = Vec::with_capacity(steps);
    for _ in 0..steps {
        let client = ClientId(mix(&mut state) as usize % system.num_clients());
        if mix(&mut state).is_multiple_of(8) {
            scratch.clear_client(system, client);
            trace.push(TraceOp::Clear(client));
            continue;
        }
        let cluster = ClusterId(mix(&mut state) as usize % system.num_clusters());
        let servers: Vec<ServerId> = system.servers_in(cluster).map(|s| s.id).collect();
        if servers.is_empty() {
            continue;
        }
        if scratch.cluster_of(client) != Some(cluster) {
            scratch.clear_client(system, client);
            trace.push(TraceOp::Clear(client));
        }
        let server = servers[mix(&mut state) as usize % servers.len()];
        let unit = |state: &mut u64| (mix(state) % 1_000) as f64 / 1_000.0;
        let placement = Placement {
            alpha: 0.05 + 0.95 * unit(&mut state),
            phi_p: 0.05 + 0.45 * unit(&mut state),
            phi_c: 0.05 + 0.45 * unit(&mut state),
        };
        scratch.assign_cluster(client, cluster);
        scratch.place(system, client, server, placement);
        trace.push(TraceOp::Move { client, cluster, server, placement });
    }
    trace
}

/// Replays the trace with from-scratch scoring: every move is followed by
/// a full [`evaluate`] pass, exactly how the solver scored candidates
/// before the incremental engine.
fn replay_full(
    system: &cloudalloc_model::CloudSystem,
    start: &Allocation,
    trace: &[TraceOp],
) -> (f64, f64) {
    let mut alloc = start.clone();
    let begin = Instant::now();
    let mut profit = 0.0;
    for op in trace {
        match *op {
            TraceOp::Clear(client) => {
                alloc.clear_client(system, client);
            }
            TraceOp::Move { client, cluster, server, placement } => {
                alloc.assign_cluster(client, cluster);
                alloc.place(system, client, server, placement);
            }
        }
        profit = evaluate(system, &alloc).profit;
    }
    (begin.elapsed().as_secs_f64(), profit)
}

/// Replays the trace through the journaled incremental evaluator, querying
/// the cached score after every move.
fn replay_incremental(
    system: &cloudalloc_model::CloudSystem,
    start: &Allocation,
    trace: &[TraceOp],
) -> (f64, f64) {
    let mut scored = ScoredAllocation::new(system, start.clone());
    let begin = Instant::now();
    let mut profit = 0.0;
    for op in trace {
        match *op {
            TraceOp::Clear(client) => {
                scored.clear_client(client);
            }
            TraceOp::Move { client, cluster, server, placement } => {
                scored.assign_cluster(client, cluster);
                scored.place(client, server, placement);
            }
        }
        profit = scored.profit();
    }
    (begin.elapsed().as_secs_f64(), profit)
}

/// Per-seed record of the incremental-vs-full scoring comparison (E5b).
#[derive(Debug, Serialize)]
struct ScoringRecord {
    seed: u64,
    clients: usize,
    servers: usize,
    steps: usize,
    full_seconds: f64,
    incremental_seconds: f64,
    speedup: f64,
    full_profit: f64,
    incremental_profit: f64,
}

/// Per-seed record of the one-thread-vs-all-cores restart comparison
/// (E5c). `threads` is the worker count the parallel leg *requested*;
/// `available_cores` is what the machine actually offers — on a one-core
/// box the two legs run the same schedule and the speedup is ~1.
#[derive(Debug, Serialize)]
struct RestartsRecord {
    seed: u64,
    clients: usize,
    threads: usize,
    available_cores: usize,
    single_seconds: f64,
    parallel_seconds: f64,
    speedup: f64,
    single_profit: f64,
    parallel_profit: f64,
}

/// Per-seed record of the single-solve intra-solve fan-out comparison
/// (E5h): one paper-scale solve, one worker vs [`INTRA_THREADS`].
#[derive(Debug, Serialize)]
struct IntraSolveRecord {
    seed: u64,
    clients: usize,
    clusters: usize,
    threads: usize,
    available_cores: usize,
    serial_seconds: f64,
    parallel_seconds: f64,
    speedup: f64,
    serial_profit: f64,
    parallel_profit: f64,
}

/// Per-seed record of the deduplicated-vs-reference candidate search
/// comparison (E5d).
#[derive(Debug, Serialize)]
struct CandidateSearchRecord {
    seed: u64,
    clients: usize,
    servers: usize,
    searches: usize,
    old_seconds: f64,
    new_seconds: f64,
    speedup: f64,
    old_profit: f64,
    new_profit: f64,
}

/// Per-seed record of the recording-on vs recording-suppressed solve
/// comparison (E5e). Empty on builds without the `telemetry` feature.
#[derive(Debug, Serialize)]
struct TelemetryOverheadRecord {
    seed: u64,
    clients: usize,
    recording_seconds: f64,
    suppressed_seconds: f64,
    /// `(recording − suppressed) / suppressed`; noise can make it negative.
    overhead: f64,
    recording_profit: f64,
    suppressed_profit: f64,
    /// Full flight recording (JSONL sink + memory sampler) wall clock;
    /// `None` when `--telemetry-out` already owns the sink.
    flight_seconds: Option<f64>,
    /// `(flight − suppressed) / suppressed`.
    flight_overhead: Option<f64>,
    /// Bit-identical to the other two profits (asserted).
    flight_profit: Option<f64>,
}

/// Per-seed record of the incremental-repair vs full-re-solve comparison
/// on a fault scenario (E5g).
#[derive(Debug, Serialize)]
struct RepairLatencyRecord {
    seed: u64,
    clients: usize,
    failed_servers: usize,
    victims: usize,
    repair_seconds: f64,
    resolve_seconds: f64,
    speedup: f64,
    naive_profit: f64,
    repair_profit: f64,
    resolve_profit: f64,
}

/// Per-size record of the datacenter-scale sweep (E5i). `flat_*` and
/// `gap` are `None` where the flat solve is no longer tractable;
/// `peak_rss_bytes` is `None` off Linux (no `/proc/self/status`).
#[derive(Debug, Serialize)]
struct ScaleRecord {
    seed: u64,
    clients: usize,
    servers: usize,
    clusters: usize,
    groups: usize,
    generate_seconds: f64,
    hier_seconds: f64,
    hier_profit: f64,
    flat_seconds: Option<f64>,
    flat_profit: Option<f64>,
    /// `1 − hier_profit / flat_profit`; negative when hierarchical wins.
    gap: Option<f64>,
    peak_rss_bytes: Option<usize>,
    rss_budget_bytes: usize,
    /// Wave budget the hierarchical solve ran under ([`SCALE_SOLVE_MIB`]).
    solve_budget_mib: usize,
}

#[derive(Debug, Serialize)]
struct SpeedupReport {
    scoring: Vec<ScoringRecord>,
    restarts: Vec<RestartsRecord>,
    intra_solve: Vec<IntraSolveRecord>,
    candidate_search: Vec<CandidateSearchRecord>,
    telemetry_overhead: Vec<TelemetryOverheadRecord>,
    repair: Vec<RepairLatencyRecord>,
    scale: Vec<ScaleRecord>,
}

fn bench_incremental_scoring(base_seed: u64) -> Vec<ScoringRecord> {
    let mut table = Table::new(vec![
        "seed".into(),
        "servers".into(),
        "full".into(),
        "incremental".into(),
        "speedup".into(),
        "profit_full".into(),
        "profit_incr".into(),
    ]);
    println!(
        "E5b — scoring a trace of {SCORING_STEPS} local moves \
         (N={SCORING_CLIENTS}, best of {REPS} reps per engine)"
    );
    let mut records = Vec::new();
    for offset in 0..SCORING_SEEDS as u64 {
        let seed = base_seed.wrapping_add(offset);
        let system = generate(&ScenarioConfig::paper(SCORING_CLIENTS), seed);
        let solver = SolverConfig::default();
        let ctx = SolverCtx::new(&system, &solver);
        let order: Vec<ClientId> = (0..system.num_clients()).map(ClientId).collect();
        let start = greedy_pass(&ctx, &order);
        let trace = build_trace(&system, &start, seed ^ 0xE5B, SCORING_STEPS);

        let mut full = (f64::INFINITY, 0.0);
        let mut incremental = (f64::INFINITY, 0.0);
        for _ in 0..REPS {
            let (t, p) = replay_full(&system, &start, &trace);
            if t < full.0 {
                full = (t, p);
            }
            let (t, p) = replay_incremental(&system, &start, &trace);
            if t < incremental.0 {
                incremental = (t, p);
            }
        }
        assert!(
            (full.1 - incremental.1).abs() <= 1e-6 * (1.0 + full.1.abs()),
            "seed {seed}: engines disagree on the final profit: \
             full {} vs incremental {}",
            full.1,
            incremental.1
        );
        let speedup = full.0 / incremental.0;
        table.row(vec![
            seed.to_string(),
            system.num_servers().to_string(),
            format!("{:.4}s", full.0),
            format!("{:.4}s", incremental.0),
            format!("{speedup:.1}x"),
            format!("{:.4}", full.1),
            format!("{:.4}", incremental.1),
        ]);
        records.push(ScoringRecord {
            seed,
            clients: SCORING_CLIENTS,
            servers: system.num_servers(),
            steps: SCORING_STEPS,
            full_seconds: full.0,
            incremental_seconds: incremental.0,
            speedup,
            full_profit: full.1,
            incremental_profit: incremental.1,
        });
    }
    println!("{table}");
    println!(
        "expected shape: the incremental engine rescores only the clients and\n\
         servers a move touched, so the ratio grows with the system size\n"
    );
    records
}

fn bench_restarts(base_seed: u64) -> Vec<RestartsRecord> {
    let available_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let threads = available_cores;
    let mut table = Table::new(vec![
        "seed".into(),
        "1 thread".into(),
        format!("{threads} threads"),
        "speedup".into(),
        "profit_1".into(),
        format!("profit_{threads}"),
    ]);
    println!(
        "E5c — best-of-8 construction + local search, 1 worker vs {threads} \
         (N={SCORING_CLIENTS}, {available_cores} cores, best of {REPS} reps)"
    );
    let mut records = Vec::new();
    for offset in 0..SCORING_SEEDS as u64 {
        let seed = base_seed.wrapping_add(offset);
        let system = generate(&ScenarioConfig::paper(SCORING_CLIENTS), seed);
        let single_cfg =
            SolverConfig { num_init_solns: 8, num_threads: Some(1), ..SolverConfig::default() };
        let parallel_cfg =
            SolverConfig { num_init_solns: 8, num_threads: Some(threads), ..single_cfg.clone() };

        let mut single = (f64::INFINITY, 0.0);
        let mut parallel = (f64::INFINITY, 0.0);
        for _ in 0..REPS {
            let begin = Instant::now();
            let result = solve(&system, &single_cfg, seed);
            let t = begin.elapsed().as_secs_f64();
            if t < single.0 {
                single = (t, result.report.profit);
            }
            let begin = Instant::now();
            let result = solve(&system, &parallel_cfg, seed);
            let t = begin.elapsed().as_secs_f64();
            if t < parallel.0 {
                parallel = (t, result.report.profit);
            }
        }
        assert!(
            (single.1 - parallel.1).abs() <= 1e-6 * (1.0 + single.1.abs()),
            "seed {seed}: thread count changed the result: {} vs {}",
            single.1,
            parallel.1
        );
        table.row(vec![
            seed.to_string(),
            format!("{:.3}s", single.0),
            format!("{:.3}s", parallel.0),
            format!("{:.2}x", single.0 / parallel.0),
            format!("{:.4}", single.1),
            format!("{:.4}", parallel.1),
        ]);
        records.push(RestartsRecord {
            seed,
            clients: SCORING_CLIENTS,
            threads,
            available_cores,
            single_seconds: single.0,
            parallel_seconds: parallel.0,
            speedup: single.0 / parallel.0,
            single_profit: single.1,
            parallel_profit: parallel.1,
        });
    }
    println!("{table}");
    println!(
        "expected shape: identical profits per seed for every thread count;\n\
         wall-clock speedup bounded by min(8 passes, physical cores)\n"
    );
    records
}

/// E5h: one paper-scale solve (`num_init_solns = 1`) so the only
/// parallelism in play is the intra-solve per-cluster fan-out — candidate
/// searches and the cluster-grained local-search phases dispatched over
/// the solver pool with the deterministic fixed-order reduction.
///
/// Profit bit-identity between the serial and parallel legs is asserted
/// unconditionally. The ≥[`INTRA_SPEEDUP_FLOOR`]x wall-clock gate applies
/// only when the machine exposes at least [`INTRA_THREADS`] cores: the
/// schedule is identical either way, but a one-core CI box cannot
/// manufacture wall-clock parallelism to measure.
fn bench_intra_solve(base_seed: u64, smoke: bool) -> Vec<IntraSolveRecord> {
    let available_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // A cluster count comfortably above the worker count keeps every
    // worker's chunk non-trivial; the paper family's default of 5 would
    // leave most of an 8-worker pool idle.
    let (clients, clusters, reps) = if smoke { (48, 8, 1) } else { (NUM_CLIENTS, 16, REPS) };
    let mut table = Table::new(vec![
        "seed".into(),
        "clusters".into(),
        "1 thread".into(),
        format!("{INTRA_THREADS} threads"),
        "speedup".into(),
        "profit_1".into(),
        format!("profit_{INTRA_THREADS}"),
    ]);
    println!(
        "E5h — intra-solve fan-out, single solve (num_init_solns=1), 1 worker \
         vs {INTRA_THREADS} (N={clients}, K={clusters}, {available_cores} \
         cores, best of {reps} reps)"
    );
    let mut records = Vec::new();
    let seed = base_seed;
    let scenario = ScenarioConfig { num_clusters: clusters, ..ScenarioConfig::paper(clients) };
    let system = generate(&scenario, seed);
    let base_cfg = if smoke { SolverConfig::fast() } else { SolverConfig::default() };
    let serial_cfg = SolverConfig { num_init_solns: 1, num_threads: Some(1), ..base_cfg };
    let parallel_cfg = SolverConfig { num_threads: Some(INTRA_THREADS), ..serial_cfg.clone() };

    let mut serial = (f64::INFINITY, 0.0);
    let mut parallel = (f64::INFINITY, 0.0);
    for _ in 0..reps {
        let begin = Instant::now();
        let result = solve(&system, &serial_cfg, seed);
        let t = begin.elapsed().as_secs_f64();
        if t < serial.0 {
            serial = (t, result.report.profit);
        }
        let begin = Instant::now();
        let result = solve(&system, &parallel_cfg, seed);
        let t = begin.elapsed().as_secs_f64();
        if t < parallel.0 {
            parallel = (t, result.report.profit);
        }
    }
    assert_eq!(
        serial.1.to_bits(),
        parallel.1.to_bits(),
        "seed {seed}: intra-solve fan-out changed the result: {} vs {}",
        serial.1,
        parallel.1
    );
    let speedup = serial.0 / parallel.0;
    if available_cores >= INTRA_THREADS {
        assert!(
            speedup >= INTRA_SPEEDUP_FLOOR,
            "seed {seed}: intra-solve speedup {speedup:.2}x fell below the \
             {INTRA_SPEEDUP_FLOOR}x floor on a {available_cores}-core machine"
        );
    } else {
        println!(
            "note: {available_cores} core(s) < {INTRA_THREADS} workers — the \
             {INTRA_SPEEDUP_FLOOR}x wall-clock gate is skipped; profit \
             bit-identity was asserted regardless"
        );
    }
    table.row(vec![
        seed.to_string(),
        clusters.to_string(),
        format!("{:.3}s", serial.0),
        format!("{:.3}s", parallel.0),
        format!("{speedup:.2}x"),
        format!("{:.4}", serial.1),
        format!("{:.4}", parallel.1),
    ]);
    records.push(IntraSolveRecord {
        seed,
        clients,
        clusters,
        threads: INTRA_THREADS,
        available_cores,
        serial_seconds: serial.0,
        parallel_seconds: parallel.0,
        speedup,
        serial_profit: serial.1,
        parallel_profit: parallel.1,
    });
    println!("{table}");
    println!(
        "expected shape: profits bit-identical by construction (asserted);\n\
         wall-clock speedup tracks min(workers, cores, clusters/chunk) — the\n\
         fan-out covers candidate search and the cluster-local phases, while\n\
         delta replay and the global-profit operators stay serial\n"
    );
    records
}

/// Peak resident-set size of this process in bytes, read from
/// `/proc/self/status` (`VmHWM`, reported in kB). `None` where the file
/// or the field is unavailable (non-Linux); no dependency needed.
fn read_vm_hwm() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// E5i: the datacenter-scale sweep. Every system is *streamed* into
/// existence — the generator stages at most [`SCALE_STAGING_MIB`] MiB of
/// drawn clients at a time while lowering them chunk-by-chunk (asserted
/// by `within_budget`), and the finished lowering is handed straight to
/// [`solve_hierarchical_streamed`], so the population is lowered exactly
/// once per run and the solve adds only one [`SCALE_SOLVE_MIB`]-MiB wave
/// of group sub-problems on top of assemble-time residency. The
/// hierarchical solve handles the sizes where the flat solver's
/// every-client-against-every-cluster coupling stops being tractable;
/// where flat still runs (10k clients) the profit gap is asserted within
/// the one-sided [`PROFIT_BAND`] and the hierarchical solve is re-run
/// single-threaded to assert profit bit-identity across worker counts.
/// From 100k clients up, the process's peak RSS is gated against a
/// per-size budget. `deep` extends a smoke run to the million-client
/// row — the budget-bounded deep tier that lets CI run it routinely
/// instead of full-mode-only.
fn bench_scale(base_seed: u64, smoke: bool, deep: bool) -> Vec<ScaleRecord> {
    // (clients, run flat comparison, peak-RSS budget in bytes).
    const MIB: usize = 1 << 20;
    let mut sizes = vec![(10_000, true, 512 * MIB), (100_000, false, 512 * MIB)];
    if !smoke || deep {
        sizes.push((1_000_000, false, 1024 * MIB));
    }
    let mut table = Table::new(vec![
        "clients".into(),
        "servers".into(),
        "clusters".into(),
        "groups".into(),
        "generate".into(),
        "hier".into(),
        "flat".into(),
        "gap".into(),
        "peak_rss".into(),
    ]);
    println!(
        "E5i — datacenter scale: streamed generation ({SCALE_STAGING_MIB} MiB staging) \
         + hierarchical solve (groups of {SCALE_GROUP_SIZE} clusters, {SCALE_SOLVE_MIB} MiB \
         wave budget), up to {} clients",
        sizes.last().expect("non-empty sweep").0
    );
    let seed = base_seed;
    let config = SolverConfig { max_rounds: 2, ..SolverConfig::fast() };
    let hier_cfg = HierConfig {
        group_size: Some(SCALE_GROUP_SIZE),
        memory_budget: Some(MemoryBudget::from_mib(SCALE_SOLVE_MIB)),
    };
    let mut records = Vec::new();
    for &(clients, run_flat, rss_budget_bytes) in &sizes {
        let scenario = ScenarioConfig::scale(clients);
        let begin = Instant::now();
        let streamed =
            ScenarioStream::new(scenario, seed).assemble(MemoryBudget::from_mib(SCALE_STAGING_MIB));
        let generate_seconds = begin.elapsed().as_secs_f64();
        assert!(
            streamed.within_budget(),
            "{clients} clients: staging peak {} bytes exceeded the {} MiB budget",
            streamed.peak_staging_bytes(),
            SCALE_STAGING_MIB
        );
        let system = streamed.system;
        let lowered = streamed.clients;
        // Flat rows re-run the hierarchical solve single-threaded below;
        // keep a copy of the lowering for it (tiny at 10k clients). The
        // big rows hand the one-and-only lowering straight to the solve.
        let serial_lowered = run_flat.then(|| lowered.clone());
        let groups = system.num_clusters().div_ceil(SCALE_GROUP_SIZE);

        let begin = Instant::now();
        let hier = solve_hierarchical_streamed(&system, lowered, &config, &hier_cfg, seed);
        let hier_seconds = begin.elapsed().as_secs_f64();

        let (flat_seconds, flat_profit, gap) = if run_flat {
            let begin = Instant::now();
            let flat = solve(&system, &config, seed);
            let flat_seconds = begin.elapsed().as_secs_f64();
            assert!(
                hier.report.profit >= (1.0 - PROFIT_BAND) * flat.report.profit,
                "{clients} clients: hierarchical profit {} fell out of the \
                 {PROFIT_BAND} band below flat {}",
                hier.report.profit,
                flat.report.profit
            );
            // Worker-count invariance on the sweep's own workload: the
            // pooled run above (session default threads) must match a
            // single-worker run bit for bit.
            let serial_cfg = SolverConfig { num_threads: Some(1), ..config.clone() };
            let serial = solve_hierarchical_streamed(
                &system,
                serial_lowered.expect("cloned for flat rows"),
                &serial_cfg,
                &hier_cfg,
                seed,
            );
            assert_eq!(
                serial.report.profit.to_bits(),
                hier.report.profit.to_bits(),
                "{clients} clients: hierarchical profit depends on the worker count"
            );
            let gap = 1.0 - hier.report.profit / flat.report.profit;
            (Some(flat_seconds), Some(flat.report.profit), Some(gap))
        } else {
            (None, None, None)
        };

        let peak_rss_bytes = read_vm_hwm();
        match peak_rss_bytes {
            Some(rss) if clients >= 100_000 => {
                assert!(
                    rss <= rss_budget_bytes,
                    "{clients} clients: peak RSS {:.1} MiB exceeded the {:.0} MiB budget",
                    rss as f64 / MIB as f64,
                    rss_budget_bytes as f64 / MIB as f64
                );
            }
            None => println!("note: /proc/self/status unavailable — peak-RSS gate skipped"),
            _ => {}
        }

        table.row(vec![
            clients.to_string(),
            system.num_servers().to_string(),
            system.num_clusters().to_string(),
            groups.to_string(),
            format!("{generate_seconds:.2}s"),
            format!("{hier_seconds:.2}s"),
            flat_seconds.map_or_else(|| "-".into(), |t| format!("{t:.2}s")),
            gap.map_or_else(|| "-".into(), |g| format!("{:+.2}%", g * 100.0)),
            peak_rss_bytes
                .map_or_else(|| "-".into(), |b| format!("{:.0}MiB", b as f64 / MIB as f64)),
        ]);
        records.push(ScaleRecord {
            seed,
            clients,
            servers: system.num_servers(),
            clusters: system.num_clusters(),
            groups,
            generate_seconds,
            hier_seconds,
            hier_profit: hier.report.profit,
            flat_seconds,
            flat_profit,
            gap,
            peak_rss_bytes,
            rss_budget_bytes,
            solve_budget_mib: SCALE_SOLVE_MIB,
        });
    }
    println!("{table}");
    println!(
        "expected shape: hierarchical wall-clock grows near-linearly with the\n\
         population (sketch is O(clients x groups), groups solve independently)\n\
         while the profit stays within the documented band of flat where flat\n\
         is feasible; peak RSS is gated per size, with the staging buffer and\n\
         the solve waves both bounded by their budgets regardless of population\n"
    );
    records
}

/// Panics (non-zero exit — the CI gate) unless two search results are
/// bit-for-bit identical: same servers, same placement bits, same score
/// and response-time bits.
fn assert_candidates_identical(
    fast: &Option<Candidate>,
    reference: &Option<Candidate>,
    what: &str,
) {
    match (fast, reference) {
        (None, None) => {}
        (Some(f), Some(r)) => {
            assert_eq!(f.cluster, r.cluster, "{what}: cluster");
            assert_eq!(f.placements.len(), r.placements.len(), "{what}: placement count");
            for (a, b) in f.placements.iter().zip(r.placements.iter()) {
                assert_eq!(a.0, b.0, "{what}: server id");
                assert_eq!(a.1.alpha.to_bits(), b.1.alpha.to_bits(), "{what}: alpha bits");
                assert_eq!(a.1.phi_p.to_bits(), b.1.phi_p.to_bits(), "{what}: phi_p bits");
                assert_eq!(a.1.phi_c.to_bits(), b.1.phi_c.to_bits(), "{what}: phi_c bits");
            }
            assert_eq!(f.score.to_bits(), r.score.to_bits(), "{what}: score bits");
            assert_eq!(
                f.response_time.to_bits(),
                r.response_time.to_bits(),
                "{what}: response-time bits"
            );
        }
        _ => panic!("{what}: fast = {fast:?} but reference = {reference:?}"),
    }
}

/// The E5d workload: a full greedy construction followed by a clear +
/// re-search sweep against the loaded allocation. Both paths see identical
/// allocation states (the committed candidates are bitwise equal, as the
/// verification pass proves), so timing each alone is a fair comparison.
/// The timer covers only the searches and commits — not the final
/// from-scratch profit evaluation, which is identical for both paths.
/// Returns the final profit, the number of `best_cluster` searches, and
/// the elapsed search time in seconds.
fn run_candidate_searches(
    system: &cloudalloc_model::CloudSystem,
    ctx: &SolverCtx<'_>,
    use_reference: bool,
) -> (f64, usize, f64) {
    let search = |alloc: &Allocation, client: ClientId| {
        if use_reference {
            best_cluster_reference(ctx, alloc, client)
        } else {
            best_cluster(ctx, alloc, client)
        }
    };
    let mut alloc = Allocation::new(system);
    let mut searches = 0;
    let begin = Instant::now();
    for i in 0..system.num_clients() {
        searches += 1;
        if let Some(cand) = search(&alloc, ClientId(i)) {
            commit(ctx, &mut alloc, ClientId(i), &cand);
        }
    }
    for i in 0..system.num_clients() {
        if alloc.cluster_of(ClientId(i)).is_none() {
            continue;
        }
        alloc.clear_client(system, ClientId(i));
        searches += 1;
        if let Some(cand) = search(&alloc, ClientId(i)) {
            commit(ctx, &mut alloc, ClientId(i), &cand);
        }
    }
    let seconds = begin.elapsed().as_secs_f64();
    (evaluate(system, &alloc).profit, searches, seconds)
}

/// Untimed verification: walks the same workload once with both paths in
/// lock-step, asserting every candidate bitwise identical. Returns the
/// profits of both final allocations (asserted bit-equal too).
fn verify_candidate_searches(
    system: &cloudalloc_model::CloudSystem,
    ctx: &SolverCtx<'_>,
) -> (f64, f64) {
    let mut fast_alloc = Allocation::new(system);
    let mut ref_alloc = Allocation::new(system);
    let step = |fast_alloc: &mut Allocation, ref_alloc: &mut Allocation, i: usize| {
        let fast = best_cluster(ctx, fast_alloc, ClientId(i));
        let reference = best_cluster_reference(ctx, ref_alloc, ClientId(i));
        assert_candidates_identical(&fast, &reference, &format!("client {i}"));
        if let Some(cand) = fast {
            commit(ctx, fast_alloc, ClientId(i), &cand);
            commit(ctx, ref_alloc, ClientId(i), &cand);
        }
    };
    for i in 0..system.num_clients() {
        step(&mut fast_alloc, &mut ref_alloc, i);
    }
    for i in 0..system.num_clients() {
        if fast_alloc.cluster_of(ClientId(i)).is_none() {
            continue;
        }
        fast_alloc.clear_client(system, ClientId(i));
        ref_alloc.clear_client(system, ClientId(i));
        step(&mut fast_alloc, &mut ref_alloc, i);
    }
    let new_profit = evaluate(system, &fast_alloc).profit;
    let old_profit = evaluate(system, &ref_alloc).profit;
    assert_eq!(
        new_profit.to_bits(),
        old_profit.to_bits(),
        "old/new candidate-search profits must be bit-identical"
    );
    (old_profit, new_profit)
}

fn bench_candidate_search(base_seed: u64, smoke: bool) -> Vec<CandidateSearchRecord> {
    let mut table = Table::new(vec![
        "seed".into(),
        "servers".into(),
        "searches".into(),
        "old".into(),
        "new".into(),
        "speedup".into(),
        "profit_old".into(),
        "profit_new".into(),
    ]);
    let (clients, seeds) = if smoke { (16, 1) } else { (SCORING_CLIENTS, SCORING_SEEDS as u64) };
    println!(
        "E5d — candidate search, deduplicated/indexed vs exhaustive reference \
         (N={clients}, best of {SEARCH_REPS} reps per path)"
    );
    let mut records = Vec::new();
    for offset in 0..seeds {
        let seed = base_seed.wrapping_add(offset);
        let scenario = if smoke {
            let mut cfg = ScenarioConfig::small(clients);
            cfg.servers_per_class = Range::new(1.0, 2.0);
            cfg
        } else {
            ScenarioConfig::paper(clients)
        };
        let system = generate(&scenario, seed);
        let solver = SolverConfig::default();
        let ctx = SolverCtx::new(&system, &solver);

        // Correctness first, untimed: every candidate bit-for-bit equal.
        let (old_profit, new_profit) = verify_candidate_searches(&system, &ctx);

        let mut old_seconds = f64::INFINITY;
        let mut new_seconds = f64::INFINITY;
        let mut searches = 0;
        for _ in 0..SEARCH_REPS {
            let (_, n, t) = run_candidate_searches(&system, &ctx, true);
            old_seconds = old_seconds.min(t);
            let (_, n2, t) = run_candidate_searches(&system, &ctx, false);
            new_seconds = new_seconds.min(t);
            assert_eq!(n, n2, "both paths must perform the same searches");
            searches = n;
        }
        let speedup = old_seconds / new_seconds;
        table.row(vec![
            seed.to_string(),
            system.num_servers().to_string(),
            searches.to_string(),
            format!("{old_seconds:.4}s"),
            format!("{new_seconds:.4}s"),
            format!("{speedup:.1}x"),
            format!("{old_profit:.4}"),
            format!("{new_profit:.4}"),
        ]);
        records.push(CandidateSearchRecord {
            seed,
            clients,
            servers: system.num_servers(),
            searches,
            old_seconds,
            new_seconds,
            speedup,
            old_profit,
            new_profit,
        });
    }
    println!("{table}");
    println!(
        "expected shape: identical profits by construction (asserted bitwise);\n\
         server-class run dedup and slack pruning give a multi-x speedup that\n\
         grows with servers-per-class\n"
    );
    records
}

fn bench_repair_latency(base_seed: u64, smoke: bool) -> Vec<RepairLatencyRecord> {
    use cloudalloc_core::ops;
    let mut table = Table::new(vec![
        "seed".into(),
        "failed".into(),
        "victims".into(),
        "repair".into(),
        "resolve".into(),
        "speedup".into(),
        "profit_naive".into(),
        "profit_repair".into(),
        "profit_resolve".into(),
    ]);
    let (clients, seeds) = if smoke { (16, 1) } else { (SCORING_CLIENTS, SCORING_SEEDS as u64) };
    println!(
        "E5g — fault repair, incremental evict/re-place/shed vs full re-solve \
         on the masked system (N={clients}, 20% of active servers failed, \
         best of {REPS} reps per path)"
    );
    let mut records = Vec::new();
    for offset in 0..seeds {
        let seed = base_seed.wrapping_add(offset);
        let scenario =
            if smoke { ScenarioConfig::small(clients) } else { ScenarioConfig::paper(clients) };
        let system = generate(&scenario, seed);
        let solver = SolverConfig::default();
        let alloc = solve(&system, &solver, seed).allocation;
        let active: Vec<ServerId> = alloc.active_servers().collect();
        if active.is_empty() {
            println!("seed {seed}: no active servers, skipping");
            continue;
        }
        let failed: Vec<ServerId> = active[..(active.len() / 5).max(1)].to_vec();
        let masked = system.with_failed_servers(&failed);
        let ctx = SolverCtx::new(&masked, &solver);
        let stale = alloc.replayed_onto(&masked);

        // The baseline the repair must beat: drop every victim outright.
        let (naive, victims) = ops::drop_victims(&masked, &stale, &failed);
        let naive_profit = evaluate(&masked, &naive).profit;

        let mut repair = (f64::INFINITY, 0.0);
        let mut resolve = (f64::INFINITY, 0.0);
        for _ in 0..REPS {
            let fresh = stale.clone();
            let begin = Instant::now();
            let mut scored = ScoredAllocation::lowered(&ctx.compiled, fresh);
            ops::repair_failed_servers(&ctx, &mut scored, &failed);
            ops::shed_unprofitable(&ctx, &mut scored);
            let t = begin.elapsed().as_secs_f64();
            if t < repair.0 {
                repair = (t, scored.profit());
            }
            let begin = Instant::now();
            let result = solve(&masked, &solver, seed);
            let t = begin.elapsed().as_secs_f64();
            if t < resolve.0 {
                resolve = (t, result.report.profit);
            }
        }
        assert!(
            repair.1 >= naive_profit - 1e-9,
            "seed {seed}: repair profit {} fell below the naive drop baseline {naive_profit}",
            repair.1
        );
        assert!(
            repair.0 < resolve.0,
            "seed {seed}: incremental repair ({:.4}s) must be faster than the \
             full re-solve ({:.4}s)",
            repair.0,
            resolve.0
        );
        let speedup = resolve.0 / repair.0;
        table.row(vec![
            seed.to_string(),
            failed.len().to_string(),
            victims.to_string(),
            format!("{:.4}s", repair.0),
            format!("{:.4}s", resolve.0),
            format!("{speedup:.1}x"),
            format!("{naive_profit:.4}"),
            format!("{:.4}", repair.1),
            format!("{:.4}", resolve.1),
        ]);
        records.push(RepairLatencyRecord {
            seed,
            clients,
            failed_servers: failed.len(),
            victims,
            repair_seconds: repair.0,
            resolve_seconds: resolve.0,
            speedup,
            naive_profit,
            repair_profit: repair.1,
            resolve_profit: resolve.1,
        });
    }
    println!("{table}");
    println!(
        "expected shape: repair touches only the victims, the re-solve\n\
         reconstructs everything — a multi-x latency gap (asserted), at a\n\
         profit never below the drop-the-victims baseline (asserted)\n"
    );
    records
}

/// E5e with the `telemetry` feature: identical solves with recording on vs
/// suppressed via the runtime gate, profits asserted bit-identical. The
/// single-binary comparison isolates exactly the per-event atomics cost
/// (both runs carry the same code, only the gate differs).
#[cfg(feature = "telemetry")]
fn bench_telemetry_overhead(base_seed: u64, smoke: bool) -> Vec<TelemetryOverheadRecord> {
    use cloudalloc_telemetry as telemetry;
    let (clients, seeds) = if smoke { (16, 1) } else { (SCORING_CLIENTS, SCORING_SEEDS as u64) };
    let mut table = Table::new(vec![
        "seed".into(),
        "recording".into(),
        "suppressed".into(),
        "overhead".into(),
        "flight".into(),
        "flight_ovh".into(),
        "profit_rec".into(),
        "profit_sup".into(),
    ]);
    println!(
        "E5e — telemetry overhead, recording on vs suppressed \
         (N={clients}, best of {REPS} reps per mode)"
    );
    let mut records = Vec::new();
    for offset in 0..seeds {
        let seed = base_seed.wrapping_add(offset);
        let scenario =
            if smoke { ScenarioConfig::small(clients) } else { ScenarioConfig::paper(clients) };
        let system = generate(&scenario, seed);
        let config = SolverConfig::default();

        let mut recording = (f64::INFINITY, 0.0);
        let mut suppressed = (f64::INFINITY, 0.0);
        for _ in 0..REPS {
            telemetry::set_recording(true);
            let begin = Instant::now();
            let result = solve(&system, &config, seed);
            let t = begin.elapsed().as_secs_f64();
            if t < recording.0 {
                recording = (t, result.report.profit);
            }
            telemetry::set_recording(false);
            let begin = Instant::now();
            let result = solve(&system, &config, seed);
            let t = begin.elapsed().as_secs_f64();
            if t < suppressed.0 {
                suppressed = (t, result.report.profit);
            }
            telemetry::set_recording(true);
        }
        assert_eq!(
            recording.1.to_bits(),
            suppressed.1.to_bits(),
            "seed {seed}: telemetry recording changed the solver result: \
             {} vs {}",
            recording.1,
            suppressed.1
        );

        // Third leg: the full flight recorder — JSONL sink armed (span
        // start/end records stream to disk) plus the background memory
        // sampler. Skipped when the harness's own --telemetry-out owns
        // the process-wide sink.
        let mut flight = None;
        if !telemetry::sink_active() {
            let dir = std::env::temp_dir().join("cloudalloc-bench-flight");
            std::fs::create_dir_all(&dir).expect("temp dir for flight sink");
            let sink = dir.join(format!("e5e_seed{seed}.jsonl"));
            let mut best = (f64::INFINITY, 0.0);
            for _ in 0..REPS {
                telemetry::init_jsonl(&sink).expect("writable flight sink");
                telemetry::start_memory_sampler(std::time::Duration::from_millis(25));
                telemetry::set_recording(true);
                let begin = Instant::now();
                let result = solve(&system, &config, seed);
                let t = begin.elapsed().as_secs_f64();
                telemetry::stop_memory_sampler();
                telemetry::close_sink();
                if t < best.0 {
                    best = (t, result.report.profit);
                }
            }
            assert_eq!(
                best.1.to_bits(),
                suppressed.1.to_bits(),
                "seed {seed}: flight recording changed the solver result: \
                 {} vs {}",
                best.1,
                suppressed.1
            );
            flight = Some(best);
        }

        let overhead = (recording.0 - suppressed.0) / suppressed.0;
        let flight_overhead = flight.map(|(t, _)| (t - suppressed.0) / suppressed.0);
        table.row(vec![
            seed.to_string(),
            format!("{:.4}s", recording.0),
            format!("{:.4}s", suppressed.0),
            format!("{:+.2}%", overhead * 100.0),
            flight.map_or("-".into(), |(t, _)| format!("{t:.4}s")),
            flight_overhead.map_or("-".into(), |o| format!("{:+.2}%", o * 100.0)),
            format!("{:.4}", recording.1),
            format!("{:.4}", suppressed.1),
        ]);
        records.push(TelemetryOverheadRecord {
            seed,
            clients,
            recording_seconds: recording.0,
            suppressed_seconds: suppressed.0,
            overhead,
            recording_profit: recording.1,
            suppressed_profit: suppressed.1,
            flight_seconds: flight.map(|(t, _)| t),
            flight_overhead,
            flight_profit: flight.map(|(_, p)| p),
        });
    }
    println!("{table}");
    println!(
        "expected shape: profits bit-identical (asserted); counter-only\n\
         overhead within a couple percent, full flight recording (span\n\
         tree + memory sampler on disk) under ten percent\n"
    );
    records
}

/// E5e without the feature: nothing to measure — every telemetry call is
/// an empty inline function, so the cost is zero by construction.
#[cfg(not(feature = "telemetry"))]
fn bench_telemetry_overhead(_base_seed: u64, _smoke: bool) -> Vec<TelemetryOverheadRecord> {
    println!(
        "E5e — telemetry overhead: skipped (built without the `telemetry`\n\
         feature; the layer compiles to no-ops and costs nothing)\n"
    );
    Vec::new()
}

fn main() {
    let args = cloudalloc_bench::HarnessArgs::from_env();
    args.init_telemetry();
    let default_path = if args.smoke { "BENCH_speedup_smoke.json" } else { "BENCH_speedup.json" };
    let path = args.json.clone().unwrap_or_else(|| default_path.into());
    if args.smoke {
        // CI smoke gate: the E5d equivalence assertions, the E5e
        // telemetry bit-identity assertion, the E5h intra-solve
        // thread-invariance assertion (tiny configs), and the E5i scale
        // rows (10k with flat comparison, 100k hierarchical + RSS gate;
        // --deep adds the budget-bounded million-client row).
        let candidate_search = bench_candidate_search(args.seed, true);
        let telemetry_overhead = bench_telemetry_overhead(args.seed, true);
        let repair = bench_repair_latency(args.seed, true);
        let intra_solve = bench_intra_solve(args.seed, true);
        let scale = bench_scale(args.seed, true, args.deep);
        let report = SpeedupReport {
            scoring: Vec::new(),
            restarts: Vec::new(),
            intra_solve,
            candidate_search,
            telemetry_overhead,
            repair,
            scale,
        };
        std::fs::write(&path, serde_json::to_string_pretty(&report).expect("serializable"))
            .expect("writable json path");
        cloudalloc_telemetry::progress!("wrote {path}");
        args.finish_telemetry();
        return;
    }
    let scoring = bench_incremental_scoring(args.seed);
    let restarts = bench_restarts(args.seed);
    let intra_solve = bench_intra_solve(args.seed, false);
    let candidate_search = bench_candidate_search(args.seed, false);
    let telemetry_overhead = bench_telemetry_overhead(args.seed, false);
    let repair = bench_repair_latency(args.seed, false);
    let scale = bench_scale(args.seed, false, true);

    let report = SpeedupReport {
        scoring,
        restarts,
        intra_solve,
        candidate_search,
        telemetry_overhead,
        repair,
        scale,
    };
    std::fs::write(&path, serde_json::to_string_pretty(&report).expect("serializable"))
        .expect("writable json path");
    cloudalloc_telemetry::progress!("wrote {path}");
    args.finish_telemetry();
}
