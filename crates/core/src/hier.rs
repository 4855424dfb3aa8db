//! Hierarchical solve for datacenter-scale systems (DESIGN.md §3i, §3k).
//!
//! The flat `Resource_Alloc` pipeline prices every client against every
//! cluster: one greedy insertion is `O(clusters × servers_per_cluster ×
//! G)`, and the local-search rounds repeat that coupling. At the paper's
//! five clusters that is the right trade; at thousands of clusters almost
//! all of that work is spent rejecting clusters the client was never
//! going to win.
//!
//! [`solve_hierarchical_streamed`] cuts the coupling with a streamed,
//! two-level scheme over the *compiled* view of the system:
//!
//! 1. **Sketch pass** — clusters are partitioned into contiguous
//!    *groups* of [`HierConfig::effective_group_size`] clusters. Each
//!    group is summarized by three numbers (its best per-server
//!    processing and communication capacity, and its total processing
//!    capacity), and every client picks one group by a closed-form
//!    score: the revenue its SLA would earn at the group's optimistic
//!    single-server response time, discounted by the group's running
//!    load pressure. Below [`SKETCH_PARALLEL_MIN`] clients the pass is
//!    the historical serial `O(clients × groups)` loop in client-id
//!    order. At scale it runs in fixed *windows* of [`SKETCH_WINDOW`]
//!    clients: within a window every client scores against the group
//!    loads frozen at window start (plus its own work, as always), the
//!    scoring fans out over [`crate::par::run_parallel`] in fixed
//!    [`SKETCH_JOB`]-client jobs, and a serial fold applies the picked
//!    loads in client-id order. Window and job boundaries are pure
//!    functions of the population — never of the worker count — and each
//!    pick is a pure function of `(client, frozen loads)`, so the pass
//!    is bit-identical at every thread count.
//! 2. **Exact pass, in waves** — each group becomes a self-contained
//!    sub-system extracted straight from the parent's compiled arrays
//!    (`cloudalloc_model::compile_group`: dense renumbering plus a
//!    verbatim copy of the client lowering), and the *existing* flat
//!    pipeline runs on it via [`crate::solve_prelowered`]: same greedy
//!    construction, same operators, same per-cluster fan-out semantics.
//!    Groups are solved in contiguous *waves* sized so the estimated
//!    footprint of the extracted sub-problems fits
//!    [`HierConfig::memory_budget`]; each wave is extracted, solved on
//!    the pool (one derived seed per *global* group index, via
//!    [`crate::pass_seed`]), stitched back onto the original ids
//!    serially in group order, and dropped before the next wave — a
//!    group's working set exists only while its solve runs. Because the
//!    per-group seeds come from global indices and each group solve is a
//!    pure function of `(sub-system, config, seed)`, wave boundaries
//!    cannot change the result: any budget produces output bit-identical
//!    to unbounded all-at-once extraction.
//!
//! Every stage is a pure function of `(system, config, hier, seed)`, so
//! the result is bit-identical at every thread count. The price is that
//! clients can no longer migrate between groups during the local search;
//! EXPERIMENTS.md §E5i documents the resulting one-sided profit band
//! against the flat solve at paper scale (hierarchical profit within
//! [`PROFIT_BAND`] below flat, and free to exceed it). With a single
//! group the scheme degenerates to the flat solve exactly.

use std::fmt;
use std::ops::Range;

use cloudalloc_model::{
    compile_group, compile_streamed, evaluate, Allocation, ClientId, CloudSystem, ClusterId,
    CompiledSystem, GroupProblem, LoweredClients, MemoryBudget,
};
use cloudalloc_telemetry as telemetry;

use crate::config::SolverConfig;
use crate::par::{pass_seed, run_parallel};
use crate::solve::{solve_prelowered, SearchStats, SolveResult};

/// Documented one-sided profit band of the hierarchical solve vs the
/// flat solve at paper scale: hierarchical profit stays within this
/// fraction *below* the flat profit (and may exceed it). Asserted by the
/// `hierarchical_profit_stays_in_band_at_paper_scale` test and the E5i
/// bench gate.
pub const PROFIT_BAND: f64 = 0.15;

/// Population below which the sketch pass keeps the historical fully
/// serial scan (one client at a time, loads updated after each). The
/// windowed parallel schedule only pays off — and only changes routing —
/// past this size.
const SKETCH_PARALLEL_MIN: usize = 4096;

/// Clients per frozen-pressure window of the parallel sketch: every
/// client in a window scores against the group loads as of window start.
const SKETCH_WINDOW: usize = 1024;

/// Clients per scoring job inside one sketch window. Fixed — job
/// boundaries must be a pure function of the population, never of the
/// worker count, or the fold order would vary across machines.
const SKETCH_JOB: usize = 128;

/// Upper clamp of the adaptive group size: past this, one sub-problem's
/// exact solve dominates the pipeline regardless of cluster count.
const ADAPTIVE_GROUP_CAP: usize = 64;

/// A hierarchical configuration the solver cannot run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierError {
    /// An explicit group size of zero clusters was requested.
    ZeroGroupSize,
    /// A memory budget of zero was requested.
    ZeroMemoryBudget,
}

impl fmt::Display for HierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroGroupSize => write!(f, "group size needs at least one cluster per group"),
            Self::ZeroMemoryBudget => write!(f, "memory budget needs at least 1 MiB"),
        }
    }
}

impl std::error::Error for HierError {}

/// Tuning of the hierarchical scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HierConfig {
    /// Explicit clusters-per-group override. `None` (the default)
    /// derives the size from the system shape and the budget; see
    /// [`HierConfig::effective_group_size`]. One group reproduces the
    /// flat solve.
    pub group_size: Option<usize>,
    /// Solve-side residency budget: groups are solved in contiguous
    /// waves whose estimated extracted footprint fits the budget, each
    /// wave dropped after stitching. `None` (the default) extracts and
    /// solves every group in a single wave. Wave boundaries never change
    /// the result — only peak memory.
    pub memory_budget: Option<MemoryBudget>,
}

impl HierConfig {
    /// A config with a fixed group size and no budget (the historical
    /// shape; used by tests and benches pinning the group structure).
    pub fn fixed(group_size: usize) -> Self {
        Self { group_size: Some(group_size), memory_budget: None }
    }

    /// Builds a config from optional raw CLI-style inputs, rejecting the
    /// zero values [`HierConfig::validate`] (and the panicking
    /// [`MemoryBudget`] constructors) would otherwise trap on. This is
    /// the one validation site for hierarchical knobs: callers parsing
    /// user input surface the [`HierError`] instead of panicking.
    pub fn try_new(
        group_size: Option<usize>,
        memory_budget_mib: Option<usize>,
    ) -> Result<Self, HierError> {
        let memory_budget = match memory_budget_mib {
            Some(0) => return Err(HierError::ZeroMemoryBudget),
            Some(mib) => Some(MemoryBudget::from_mib(mib)),
            None => None,
        };
        let config = Self { group_size, memory_budget };
        config.validate()?;
        Ok(config)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`HierError::ZeroGroupSize`] when an explicit group size of zero
    /// was set. (A zero budget is unrepresentable: [`MemoryBudget`]
    /// cannot hold zero bytes — [`HierConfig::try_new`] rejects it while
    /// still typed.)
    pub fn validate(&self) -> Result<(), HierError> {
        match self.group_size {
            Some(0) => Err(HierError::ZeroGroupSize),
            _ => Ok(()),
        }
    }

    /// Resolves the clusters-per-group for a system of `clusters`
    /// clusters, `servers` servers and `clients` clients against a
    /// catalog of `num_classes` hardware classes.
    ///
    /// An explicit [`HierConfig::group_size`] always wins. Otherwise the
    /// adaptive rule is:
    ///
    /// 1. start from `⌈√clusters⌉`, clamped to `[1, 64]` — the sketch
    ///    costs `O(clients × clusters / g)` while the per-group exact
    ///    solve grows superlinearly in `g`, so `√clusters` balances the
    ///    two ends of the pipeline and the cap keeps any single
    ///    sub-problem tractable;
    /// 2. while a [`HierConfig::memory_budget`] is set and an
    ///    average-shaped group (`servers·g/clusters` servers,
    ///    `clients·g/clusters` clients, rounded up) is estimated by
    ///    [`GroupProblem::estimated_bytes`] not to fit it, halve `g`
    ///    (never below one) — so on uniform layouts no single
    ///    sub-problem is expected to exceed the budget.
    ///
    /// The rule reads only the given counts — never the thread count or
    /// the environment — so the resolved size (and therefore the whole
    /// solve) stays a pure function of `(system, config)`.
    pub fn effective_group_size(
        &self,
        clusters: usize,
        servers: usize,
        clients: usize,
        num_classes: usize,
    ) -> usize {
        if let Some(size) = self.group_size {
            return size;
        }
        let mut g = ((clusters as f64).sqrt().ceil() as usize).clamp(1, ADAPTIVE_GROUP_CAP);
        if let Some(budget) = self.memory_budget {
            while g > 1 {
                let group_servers = (servers * g).div_ceil(clusters.max(1));
                let group_clients = (clients * g).div_ceil(clusters.max(1));
                if GroupProblem::estimated_bytes(group_servers, group_clients, num_classes)
                    <= budget.bytes()
                {
                    break;
                }
                g /= 2;
            }
        }
        g
    }
}

/// Cluster-group capacity summary driving the sketch pass.
struct GroupSketch {
    /// First cluster id of the group (groups are contiguous ranges).
    cluster_start: usize,
    /// One past the last cluster id of the group.
    cluster_end: usize,
    /// Servers in the group (sizes the wave scheduler's estimate).
    num_servers: usize,
    /// Best per-server processing capacity in the group.
    max_cap_p: f64,
    /// Best per-server communication capacity in the group.
    max_cap_c: f64,
    /// Total processing capacity of the group.
    total_cap_p: f64,
    /// Running processing work (`λ·t̄^p`) of sketch-assigned clients.
    load: f64,
}

/// Builds the per-group capacity summaries — `O(servers)` over the
/// compiled per-server arrays (same resolved capacities, same scan
/// order, hence the same bits as the historical frontend walk).
fn summarize_groups(compiled: &CompiledSystem<'_>, group_size: usize) -> Vec<GroupSketch> {
    let clusters = compiled.num_clusters();
    let num_groups = clusters.div_ceil(group_size);
    let mut groups = Vec::with_capacity(num_groups);
    for g in 0..num_groups {
        let cluster_start = g * group_size;
        let cluster_end = ((g + 1) * group_size).min(clusters);
        let mut sketch = GroupSketch {
            cluster_start,
            cluster_end,
            num_servers: 0,
            max_cap_p: 0.0,
            max_cap_c: 0.0,
            total_cap_p: 0.0,
            load: 0.0,
        };
        for k in cluster_start..cluster_end {
            for &server in compiled.cluster_servers(ClusterId(k)) {
                sketch.num_servers += 1;
                sketch.max_cap_p = sketch.max_cap_p.max(compiled.cap_processing(server));
                sketch.max_cap_c = sketch.max_cap_c.max(compiled.cap_communication(server));
                sketch.total_cap_p += compiled.cap_processing(server);
            }
        }
        groups.push(sketch);
    }
    groups
}

/// Scores one client against every group at the *current* (frozen) loads
/// and returns its pick and processing work — the pure per-client kernel
/// shared by the serial and parallel sketch schedules. Pressure includes
/// the client's own work, as the historical serial loop always did.
#[inline]
fn best_group(compiled: &CompiledSystem<'_>, id: ClientId, groups: &[GroupSketch]) -> (usize, f64) {
    let exec_p = compiled.exec_processing(id);
    let exec_c = compiled.exec_communication(id);
    let work = compiled.rate_predicted(id) * exec_p;
    let rate_agreed = compiled.rate_agreed(id);
    let utility = compiled.utility(id);
    let mut best_group = 0;
    let mut best_score = f64::NEG_INFINITY;
    for (g, sketch) in groups.iter().enumerate() {
        if sketch.total_cap_p <= 0.0 {
            continue;
        }
        // Optimistic response time on the group's best hardware: one
        // server carrying the whole client at full share.
        let r_hat = exec_p / sketch.max_cap_p + exec_c / sketch.max_cap_c;
        let revenue_est = rate_agreed * utility.value(r_hat);
        let pressure = (sketch.load + work) / sketch.total_cap_p;
        let score = revenue_est * (1.0 - pressure);
        // Strict improvement only: ties break toward the lowest
        // group id, mirroring the flat solver's cluster tie-break.
        if score > best_score {
            best_score = score;
            best_group = g;
        }
    }
    (best_group, work)
}

/// The sketch pass: assigns every client to one cluster group, returning
/// `group_of[client]`. Serial below [`SKETCH_PARALLEL_MIN`] clients; at
/// scale, frozen-pressure windows of [`SKETCH_WINDOW`] clients whose
/// scoring fans out in fixed [`SKETCH_JOB`]-client jobs, folded serially
/// in client-id order. Deterministic at every worker count by
/// construction (see the module docs).
fn sketch_assign(
    compiled: &CompiledSystem<'_>,
    groups: &mut [GroupSketch],
    threads: usize,
) -> Vec<usize> {
    let n = compiled.num_clients();
    let window = if n < SKETCH_PARALLEL_MIN { 1 } else { SKETCH_WINDOW };
    let mut group_of = Vec::with_capacity(n);
    let mut start = 0;
    while start < n {
        let end = (start + window).min(n);
        if end - start == 1 {
            let (g, work) = best_group(compiled, ClientId(start), groups);
            groups[g].load += work;
            group_of.push(g);
        } else {
            let jobs = (end - start).div_ceil(SKETCH_JOB);
            let picks: Vec<Vec<(usize, f64)>> = {
                let frozen: &[GroupSketch] = groups;
                run_parallel(jobs, threads.min(jobs), |j| {
                    let lo = start + j * SKETCH_JOB;
                    let hi = (lo + SKETCH_JOB).min(end);
                    (lo..hi).map(|i| best_group(compiled, ClientId(i), frozen)).collect()
                })
            };
            // The exact deterministic reduction: loads applied one client
            // at a time in id order, independent of how the jobs ran.
            for (g, work) in picks.into_iter().flatten() {
                groups[g].load += work;
                group_of.push(g);
            }
        }
        start = end;
    }
    group_of
}

/// Partitions the groups into contiguous solve waves whose combined
/// estimated sub-problem footprint fits the budget — always at least one
/// group per wave, so a tiny budget degrades to group-at-a-time instead
/// of deadlock. `None` keeps everything in one wave.
fn plan_waves(
    groups: &[GroupSketch],
    members: &[Vec<ClientId>],
    num_classes: usize,
    budget: Option<MemoryBudget>,
) -> Vec<Range<usize>> {
    let Some(budget) = budget else {
        return std::iter::once(0..groups.len()).collect();
    };
    let mut waves = Vec::new();
    let mut start = 0;
    let mut bytes = 0usize;
    for (g, (sketch, group_members)) in groups.iter().zip(members).enumerate() {
        let cost =
            GroupProblem::estimated_bytes(sketch.num_servers, group_members.len(), num_classes);
        if g > start && bytes.saturating_add(cost) > budget.bytes() {
            waves.push(start..g);
            start = g;
            bytes = 0;
        }
        bytes = bytes.saturating_add(cost);
    }
    if start < groups.len() {
        waves.push(start..groups.len());
    }
    waves
}

/// Runs the hierarchical scheme on a population lowered ahead of time:
/// sketch pass, budget-bounded waves of per-group exact solves fanned
/// over the solver pool, serial stitch, full re-evaluation. Every group
/// sub-problem is extracted from the compiled arrays, so the population
/// is lowered exactly once — by the caller, either streamed through
/// [`LoweredClients::push_chunk`] as a generator draws it or in one
/// chunk (what [`CompiledSystem::new`] does). Streamed and one-shot
/// lowerings are bit-identical by construction, so both give the same
/// result.
///
/// The returned [`SolveResult`] reports the stitched allocation and its
/// exact profit; `initial_profit` aggregates the groups' greedy starts
/// and `stats` their search traces (max rounds, converged iff every
/// group converged).
///
/// # Panics
///
/// Panics if `config` fails [`SolverConfig::validate`], `hier` fails
/// [`HierConfig::validate`], or `clients` disagrees with `system`
/// (incomplete, or a different population).
pub fn solve_hierarchical_streamed(
    system: &CloudSystem,
    clients: LoweredClients,
    config: &SolverConfig,
    hier: &HierConfig,
    seed: u64,
) -> SolveResult {
    let _span = telemetry::span!("hier.total");
    let compiled = &compile_streamed(system, clients);
    config.validate();
    if let Err(e) = hier.validate() {
        panic!("{e}");
    }
    let num_classes = compiled.server_classes().len();
    let group_size = hier.effective_group_size(
        compiled.num_clusters(),
        compiled.num_servers(),
        compiled.num_clients(),
        num_classes,
    );
    let threads = config.effective_threads();

    let mut groups = summarize_groups(compiled, group_size);
    let group_of = {
        let _span = telemetry::span!("hier.sketch");
        sketch_assign(compiled, &mut groups, threads)
    };

    let mut members: Vec<Vec<ClientId>> = vec![Vec::new(); groups.len()];
    for (i, &g) in group_of.iter().enumerate() {
        members[g].push(ClientId(i));
    }

    telemetry::counter!("hier.groups").add(groups.len() as u64);
    // Per-group routing shape: how many clients the sketch sent to each
    // group and how hard it loaded the group relative to its capacity.
    // PR 7 landed the hierarchical solve nearly blind; these are the
    // numbers needed to judge sketch balance without re-deriving it.
    for (g, (sketch, group_members)) in groups.iter().zip(&members).enumerate() {
        telemetry::histogram!("hier.group.clients").record(group_members.len() as u64);
        let pressure =
            if sketch.total_cap_p > 0.0 { sketch.load / sketch.total_cap_p } else { 0.0 };
        telemetry::float_counter!("hier.routing.pressure").add(pressure);
        telemetry::Event::new("hier.group")
            .field_u64("group", g as u64)
            .field_u64("clients", group_members.len() as u64)
            .field_u64("clusters", (sketch.cluster_end - sketch.cluster_start) as u64)
            .field_f64("load", sketch.load)
            .field_f64("total_cap_p", sketch.total_cap_p)
            .field_f64("pressure", pressure)
            .emit();
    }

    let waves = plan_waves(&groups, &members, num_classes, hier.memory_budget);
    telemetry::counter!("hier.waves").add(waves.len() as u64);

    // Budget-bounded group pipeline: per wave, extract from the compiled
    // parent, solve on the pool (seeds derive from *global* group
    // indices, so wave boundaries cannot change any group's result),
    // stitch serially in group order, drop the sub-problems. Group
    // cluster `k` is original cluster `cluster_start + k`; servers and
    // clients map through the recorded id tables.
    let num_waves = waves.len();
    let groups_span = telemetry::span!("hier.groups.solve");
    let mut allocation = Allocation::new(system);
    let mut initial_profit = 0.0;
    let mut rounds = 0;
    let mut converged = true;
    for wave in waves {
        let wave_start = wave.start;
        let problems: Vec<GroupProblem> = {
            let _span = telemetry::span!("hier.extract");
            wave.clone()
                .map(|g| {
                    compile_group(
                        compiled,
                        groups[g].cluster_start..groups[g].cluster_end,
                        &members[g],
                    )
                })
                .collect()
        };
        let results: Vec<SolveResult> = {
            let _span = telemetry::span!("hier.wave.solve");
            let problems = &problems;
            run_parallel(problems.len(), threads.min(problems.len()), |j| {
                let _span = telemetry::span!("hier.group.solve");
                let problem = &problems[j];
                solve_prelowered(
                    &problem.system,
                    problem.clients.clone(),
                    config,
                    pass_seed(seed, (wave_start + j) as u64),
                )
            })
        };
        let _span = telemetry::span!("hier.stitch");
        for (j, (result, problem)) in results.iter().zip(&problems).enumerate() {
            let sketch = &groups[wave_start + j];
            for (new_i, &orig_client) in problem.client_ids.iter().enumerate() {
                let new_id = ClientId(new_i);
                if let Some(sub_cluster) = result.allocation.cluster_of(new_id) {
                    allocation.assign_cluster(
                        orig_client,
                        ClusterId(sketch.cluster_start + sub_cluster.0),
                    );
                    for &(sub_server, placement) in result.allocation.placements(new_id) {
                        let orig_server = problem.server_ids[sub_server.index()];
                        allocation.place(system, orig_client, orig_server, placement);
                    }
                }
            }
            initial_profit += result.initial_profit;
            rounds = rounds.max(result.stats.rounds);
            converged &= result.stats.converged;
        }
    }
    drop(groups_span);

    let report = {
        let _span = telemetry::span!("hier.rescore");
        evaluate(system, &allocation)
    };
    let stats = SearchStats { rounds, history: vec![initial_profit, report.profit], converged };
    telemetry::Event::new("hier.solve")
        .field_u64("seed", seed)
        .field_u64("groups", groups.len() as u64)
        .field_u64("group_size", group_size as u64)
        .field_u64("waves", num_waves as u64)
        .field_f64("profit", report.profit)
        .emit();
    SolveResult { allocation, report, initial_profit, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::solve;
    use cloudalloc_model::check_feasibility;
    use cloudalloc_workload::{generate, ScenarioConfig};
    use proptest::prelude::*;

    /// The one entry on a one-shot lowering, as the CLI drives it.
    fn solve_hier(
        system: &CloudSystem,
        config: &SolverConfig,
        hier: &HierConfig,
        seed: u64,
    ) -> SolveResult {
        let mut clients = LoweredClients::new(system.num_clients(), system.server_classes().len());
        clients.push_chunk(system.server_classes(), system.utility_classes(), system.clients());
        solve_hierarchical_streamed(system, clients, config, hier, seed)
    }

    /// Full bit-for-bit equality of two hierarchical results.
    fn assert_identical(a: &SolveResult, b: &SolveResult, what: &str) {
        assert_eq!(a.allocation, b.allocation, "{what}: allocation diverged");
        assert_eq!(a.report.profit.to_bits(), b.report.profit.to_bits(), "{what}: profit bits");
        assert_eq!(
            a.initial_profit.to_bits(),
            b.initial_profit.to_bits(),
            "{what}: initial profit bits"
        );
        assert_eq!(a.stats.rounds, b.stats.rounds, "{what}: rounds");
        assert_eq!(a.stats.converged, b.stats.converged, "{what}: convergence");
    }

    #[test]
    fn one_group_reproduces_the_flat_solve_exactly() {
        // group_size >= num_clusters puts everything in group 0, whose
        // sub-system is an id-identical copy solved with the raw seed, so
        // the result must be bit-identical to the flat solve.
        let system = generate(&ScenarioConfig::paper(24), 91);
        let config = SolverConfig::fast();
        let flat = solve(&system, &config, 7);
        let hier = solve_hier(&system, &config, &HierConfig::fixed(100), 7);
        assert_eq!(hier.allocation, flat.allocation);
        assert_eq!(hier.report.profit.to_bits(), flat.report.profit.to_bits());
        assert_eq!(hier.initial_profit.to_bits(), flat.initial_profit.to_bits());
    }

    #[test]
    fn hierarchical_solutions_are_feasible() {
        let system = generate(&ScenarioConfig::paper(40), 92);
        let config = SolverConfig::fast();
        let result = solve_hier(&system, &config, &HierConfig::fixed(2), 5);
        assert!(result.report.profit.is_finite());
        assert!(check_feasibility(&system, &result.allocation)
            .iter()
            .all(|v| matches!(v, cloudalloc_model::Violation::Unassigned { .. })));
        result.allocation.assert_consistent(&system);
    }

    #[test]
    fn hierarchical_is_identical_across_thread_counts() {
        let system = generate(&ScenarioConfig::paper(30), 93);
        let hier = HierConfig::fixed(2);
        let base = {
            let config = SolverConfig { num_threads: Some(1), ..SolverConfig::fast() };
            solve_hier(&system, &config, &hier, 11)
        };
        for threads in [2, 4, 8] {
            let config = SolverConfig { num_threads: Some(threads), ..SolverConfig::fast() };
            let result = solve_hier(&system, &config, &hier, 11);
            assert_identical(&base, &result, &format!("threads={threads}"));
        }
    }

    #[test]
    fn sketch_is_identical_across_thread_counts() {
        // Above SKETCH_PARALLEL_MIN clients the windowed parallel
        // schedule engages; picks and final loads must not depend on the
        // worker count.
        let system = generate(&ScenarioConfig::scale(6000), 95);
        assert!(system.num_clients() >= SKETCH_PARALLEL_MIN);
        let compiled = CompiledSystem::new(&system);
        let (base_of, base_loads) = {
            let mut groups = summarize_groups(&compiled, 2);
            let group_of = sketch_assign(&compiled, &mut groups, 1);
            (group_of, groups.iter().map(|g| g.load.to_bits()).collect::<Vec<_>>())
        };
        assert!(base_of.iter().collect::<std::collections::HashSet<_>>().len() > 1);
        for threads in [2, 8] {
            let mut groups = summarize_groups(&compiled, 2);
            let group_of = sketch_assign(&compiled, &mut groups, threads);
            assert_eq!(group_of, base_of, "threads={threads}: picks diverged");
            let loads: Vec<u64> = groups.iter().map(|g| g.load.to_bits()).collect();
            assert_eq!(loads, base_loads, "threads={threads}: load bits diverged");
        }
    }

    #[test]
    fn hierarchical_profit_stays_in_band_at_paper_scale() {
        // The documented one-sided band: hierarchical profit within
        // PROFIT_BAND below flat (free to exceed it) on paper-family
        // scenarios.
        for seed in [3_u64, 17] {
            let system = generate(&ScenarioConfig::paper(60), seed);
            let config = SolverConfig::fast();
            let flat = solve(&system, &config, 9);
            let hier = solve_hier(&system, &config, &HierConfig::fixed(2), 9);
            assert!(flat.report.profit > 0.0, "fixture must be profitable");
            assert!(
                hier.report.profit >= (1.0 - PROFIT_BAND) * flat.report.profit,
                "seed {seed}: hierarchical profit {} fell out of the {PROFIT_BAND} band \
                 below flat {}",
                hier.report.profit,
                flat.report.profit
            );
        }
    }

    #[test]
    fn sketch_spreads_load_across_groups() {
        // With the pressure discount, a large population must not pile
        // into a single group.
        let system = generate(&ScenarioConfig::paper(80), 94);
        let compiled = CompiledSystem::new(&system);
        let mut groups = summarize_groups(&compiled, 2);
        let group_of = sketch_assign(&compiled, &mut groups, 1);
        let mut counts = vec![0usize; groups.len()];
        for &g in &group_of {
            counts[g] += 1;
        }
        assert!(counts.iter().filter(|&&c| c > 0).count() > 1, "sketch used one group: {counts:?}");
    }

    #[test]
    fn wave_solve_matches_unbounded_extraction() {
        // A one-byte budget forces group-at-a-time waves; the stitched
        // output must match the single-wave run bit for bit.
        let system = generate(&ScenarioConfig::paper(40), 92);
        let config = SolverConfig::fast();
        let unbounded = solve_hier(&system, &config, &HierConfig::fixed(1), 5);
        let bounded =
            HierConfig { group_size: Some(1), memory_budget: Some(MemoryBudget::from_bytes(1)) };
        let waved = solve_hier(&system, &config, &bounded, 5);
        assert_identical(&unbounded, &waved, "one-byte budget");
    }

    #[test]
    fn chunked_lowering_matches_the_one_shot_lowering() {
        let system = generate(&ScenarioConfig::paper(30), 96);
        let config = SolverConfig::fast();
        let hier = HierConfig::fixed(2);
        let one_shot = solve_hier(&system, &config, &hier, 13);
        let mut clients = LoweredClients::new(system.num_clients(), system.server_classes().len());
        for chunk in system.clients().chunks(7) {
            clients.push_chunk(system.server_classes(), system.utility_classes(), chunk);
        }
        let streamed = solve_hierarchical_streamed(&system, clients, &config, &hier, 13);
        assert_identical(&one_shot, &streamed, "7-client chunks");
    }

    #[test]
    fn adaptive_group_size_follows_the_documented_rule() {
        let adaptive = HierConfig::default();
        // ⌈√clusters⌉, clamped to [1, 64].
        assert_eq!(adaptive.effective_group_size(5, 50, 100, 4), 3);
        assert_eq!(adaptive.effective_group_size(100, 1000, 1000, 4), 10);
        assert_eq!(adaptive.effective_group_size(10_000, 10_000, 10_000, 4), 64);
        assert_eq!(adaptive.effective_group_size(0, 0, 0, 4), 1);
        // An explicit override always wins.
        assert_eq!(HierConfig::fixed(7).effective_group_size(100, 1000, 1000, 4), 7);
        // A tight budget halves the size toward one.
        let tight =
            HierConfig { group_size: None, memory_budget: Some(MemoryBudget::from_bytes(1)) };
        assert_eq!(tight.effective_group_size(100, 10_000, 100_000, 4), 1);
        // A huge budget leaves the √ rule untouched.
        let loose =
            HierConfig { group_size: None, memory_budget: Some(MemoryBudget::from_mib(4096)) };
        assert_eq!(loose.effective_group_size(100, 1000, 1000, 4), 10);
    }

    #[test]
    fn typed_validation_rejects_zero_values() {
        assert_eq!(HierConfig::try_new(Some(0), None), Err(HierError::ZeroGroupSize));
        assert_eq!(HierConfig::try_new(None, Some(0)), Err(HierError::ZeroMemoryBudget));
        assert_eq!(
            HierConfig { group_size: Some(0), ..Default::default() }.validate(),
            Err(HierError::ZeroGroupSize)
        );
        assert!(HierError::ZeroGroupSize.to_string().contains("at least one cluster per group"));
        assert!(HierError::ZeroMemoryBudget.to_string().contains("at least 1"));
        let ok = HierConfig::try_new(Some(4), Some(64)).expect("valid knobs");
        assert_eq!(ok.group_size, Some(4));
        assert_eq!(ok.memory_budget, Some(MemoryBudget::from_mib(64)));
    }

    #[test]
    #[should_panic(expected = "at least one cluster per group")]
    fn zero_group_size_is_rejected() {
        let system = generate(&ScenarioConfig::small(4), 1);
        let _ = solve_hier(
            &system,
            &SolverConfig::fast(),
            &HierConfig { group_size: Some(0), memory_budget: None },
            1,
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Adaptive grouping ≡ the fixed size it resolves to, on uniform
        /// cluster layouts (the paper family lays clusters out
        /// uniformly): the adaptive path introduces no behavioral fork.
        #[test]
        fn adaptive_grouping_equals_fixed_group_size(
            clients in 16_usize..48,
            seed in 0_u64..1000,
        ) {
            let system = generate(&ScenarioConfig::paper(clients), seed);
            let config = SolverConfig::fast();
            let adaptive = HierConfig::default();
            let resolved = adaptive.effective_group_size(
                system.num_clusters(),
                system.num_servers(),
                system.num_clients(),
                system.server_classes().len(),
            );
            let a = solve_hier(&system, &config, &adaptive, 3);
            let f = solve_hier(&system, &config, &HierConfig::fixed(resolved), 3);
            assert_identical(&a, &f, &format!("clients={clients} seed={seed}"));
        }

        /// Wave-solve under *any* budget ≡ unbounded extraction, bit for
        /// bit: wave boundaries are a memory knob, never a result knob.
        #[test]
        fn any_budget_wave_solve_is_bit_identical(
            budget_bytes in 1_usize..(1 << 22),
            seed in 0_u64..1000,
        ) {
            let system = generate(&ScenarioConfig::paper(30), 97);
            let config = SolverConfig::fast();
            let unbounded = solve_hier(&system, &config, &HierConfig::fixed(1), seed);
            let bounded = HierConfig {
                group_size: Some(1),
                memory_budget: Some(MemoryBudget::from_bytes(budget_bytes)),
            };
            let waved = solve_hier(&system, &config, &bounded, seed);
            assert_identical(&unbounded, &waved, &format!("budget={budget_bytes} seed={seed}"));
        }
    }
}
