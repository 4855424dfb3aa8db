//! The manager–agent protocol: scatter–gather greedy construction and
//! per-cluster parallel local search.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use cloudalloc_core::{assign_distribute, commit, ops, Candidate, SolverConfig, SolverCtx};
use cloudalloc_model::{
    evaluate, Allocation, ClientId, CloudSystem, ClusterId, ScoredAllocation, ServerId,
};

use crate::merge::merge_cluster_allocations;

/// Manager → agent messages.
enum ToAgent {
    /// Compute this cluster's best candidate for the client.
    Evaluate(ClientId),
    /// Commit the candidate just evaluated for the client.
    Commit(ClientId),
    /// Hand the final partial allocation back and stop.
    Finish,
}

/// Agent → manager messages.
enum FromAgent {
    /// Evaluation result: the candidate's score, if the cluster can host.
    Score(Option<f64>),
    /// Final partial allocation plus the agent's accumulated compute time.
    Done(Box<Allocation>, Duration),
}

/// Timing and topology statistics of a distributed run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistStats {
    /// Agents (= clusters) used.
    pub agents: usize,
    /// Wall-clock of the greedy construction phase.
    pub greedy_wall: Duration,
    /// Wall-clock of the local-search phase.
    pub search_wall: Duration,
    /// Local-search rounds executed.
    pub rounds: usize,
}

/// One cluster agent: answers `Evaluate` with its best candidate score and
/// commits on request, owning the partial allocation of its cluster.
fn agent_loop(
    ctx: &SolverCtx<'_>,
    cluster: ClusterId,
    rx: Receiver<ToAgent>,
    tx: Sender<FromAgent>,
) {
    let mut alloc = Allocation::new(ctx.system);
    let mut cached: Option<(ClientId, Candidate)> = None;
    let mut busy = Duration::ZERO;
    while let Ok(msg) = rx.recv() {
        match msg {
            ToAgent::Evaluate(client) => {
                let start = Instant::now();
                let candidate = assign_distribute(ctx, &alloc, client, cluster);
                busy += start.elapsed();
                let score = candidate.as_ref().map(|c| c.score);
                cached = candidate.map(|c| (client, c));
                let _ = tx.send(FromAgent::Score(score));
            }
            ToAgent::Commit(client) => {
                let start = Instant::now();
                let (cached_client, candidate) =
                    cached.take().expect("commit must follow an evaluate");
                assert_eq!(cached_client, client, "commit/evaluate mismatch");
                commit(ctx, &mut alloc, client, &candidate);
                busy += start.elapsed();
            }
            ToAgent::Finish => {
                let _ = tx.send(FromAgent::Done(Box::new(alloc), busy));
                return;
            }
        }
    }
}

/// Runs one distributed greedy pass over `order`: the manager broadcasts
/// every client to all cluster agents, each agent proposes its cluster's
/// candidate, and the manager commits the argmax (ties break toward the
/// lowest cluster id, matching the sequential solver).
pub fn greedy_distributed(ctx: &SolverCtx<'_>, order: &[ClientId]) -> Allocation {
    greedy_distributed_timed(ctx, order).0
}

/// Like [`greedy_distributed`], additionally returning each agent's
/// accumulated compute time. The maximum entry is the critical path of
/// the pass on ideal parallel hardware — the quantity behind the paper's
/// "÷K with K clusters" speedup claim — independent of how many physical
/// cores this machine happens to have.
pub fn greedy_distributed_timed(
    ctx: &SolverCtx<'_>,
    order: &[ClientId],
) -> (Allocation, Vec<Duration>) {
    let system = ctx.system;
    let k = system.num_clusters();
    thread::scope(|scope| {
        let mut to_agents = Vec::with_capacity(k);
        let mut from_agents = Vec::with_capacity(k);
        for cluster in 0..k {
            let (tx_cmd, rx_cmd) = channel::<ToAgent>();
            let (tx_res, rx_res) = channel::<FromAgent>();
            // Agents share the manager's context (and its lowering) by
            // reference; the scope guarantees it outlives them.
            let agent_ctx = ctx;
            scope.spawn(move || agent_loop(agent_ctx, ClusterId(cluster), rx_cmd, tx_res));
            to_agents.push(tx_cmd);
            from_agents.push(rx_res);
        }
        for &client in order {
            for tx in &to_agents {
                tx.send(ToAgent::Evaluate(client)).expect("agent alive");
            }
            let mut best: Option<(usize, f64)> = None;
            for (cluster, rx) in from_agents.iter().enumerate() {
                let FromAgent::Score(score) = rx.recv().expect("agent alive") else {
                    unreachable!("protocol violation: expected Score")
                };
                if let Some(score) = score {
                    if best.is_none_or(|(_, s)| score > s) {
                        best = Some((cluster, score));
                    }
                }
            }
            if let Some((winner, score)) = best {
                if score > 0.0 || ctx.config.require_service {
                    to_agents[winner].send(ToAgent::Commit(client)).expect("agent alive");
                }
            }
        }
        let mut parts = Vec::with_capacity(k);
        let mut busy = Vec::with_capacity(k);
        for (tx, rx) in to_agents.iter().zip(&from_agents) {
            tx.send(ToAgent::Finish).expect("agent alive");
            let FromAgent::Done(alloc, agent_busy) = rx.recv().expect("agent alive") else {
                unreachable!("protocol violation: expected Done")
            };
            parts.push(*alloc);
            busy.push(agent_busy);
        }
        (merge_cluster_allocations(system, &parts), busy)
    })
}

/// One parallel local-search round: every cluster agent runs the
/// cluster-local operators (share re-balance, dispersion re-balance,
/// activation, shutdown) on its own view; the manager merges the views and
/// runs the inter-cluster reassignment centrally.
fn parallel_round(ctx: &SolverCtx<'_>, alloc: &Allocation) -> Allocation {
    let system = ctx.system;
    let parts: Vec<Allocation> = thread::scope(|scope| {
        let handles: Vec<_> = (0..system.num_clusters())
            .map(|k| {
                let cluster = ClusterId(k);
                let agent_ctx = ctx;
                let base = alloc.clone();
                scope.spawn(move || {
                    let mut local = ScoredAllocation::lowered(&agent_ctx.compiled, base);
                    let config = agent_ctx.config;
                    if config.adjust_shares {
                        let servers: Vec<ServerId> = agent_ctx
                            .compiled
                            .cluster_servers(cluster)
                            .iter()
                            .copied()
                            .filter(|&s| local.alloc().is_on(s))
                            .collect();
                        for server in servers {
                            ops::adjust_resource_shares(agent_ctx, &mut local, server);
                        }
                    }
                    if config.adjust_dispersion {
                        for i in 0..agent_ctx.system.num_clients() {
                            if local.alloc().cluster_of(ClientId(i)) == Some(cluster) {
                                ops::adjust_dispersion_rates(agent_ctx, &mut local, ClientId(i));
                            }
                        }
                    }
                    if config.turn_on {
                        ops::turn_on_servers(agent_ctx, &mut local, cluster);
                    }
                    if config.turn_off {
                        ops::turn_off_servers(agent_ctx, &mut local, cluster);
                    }
                    local.into_allocation()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("agent panicked")).collect()
    });
    merge_cluster_allocations(system, &parts)
}

/// Runs the local search with per-cluster parallelism until steady.
pub fn improve_distributed(ctx: &SolverCtx<'_>, alloc: &mut Allocation, seed: u64) -> usize {
    let system = ctx.system;
    let config = ctx.config;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<ClientId> = (0..system.num_clients()).map(ClientId).collect();
    let mut profit = evaluate(system, alloc).profit;
    let mut rounds = 0;
    for _ in 0..config.max_rounds {
        *alloc = parallel_round(ctx, alloc);
        if config.reassign {
            order.shuffle(&mut rng);
            let owned = std::mem::replace(alloc, Allocation::new(system));
            let mut scored = ScoredAllocation::lowered(&ctx.compiled, owned);
            ops::reassign_clients(ctx, &mut scored, &order);
            *alloc = scored.into_allocation();
        }
        rounds += 1;
        let new_profit = evaluate(system, alloc).profit;
        if new_profit - profit <= config.steady_tol * profit.abs().max(1.0) {
            break;
        }
        profit = new_profit;
    }
    rounds
}

/// Full distributed solve: best-of-N distributed greedy passes, then the
/// parallel local search. Mirrors [`cloudalloc_core::solve`] semantics.
pub fn solve_distributed(
    system: &CloudSystem,
    config: &SolverConfig,
    seed: u64,
) -> (Allocation, DistStats) {
    let ctx = SolverCtx::new(system, config);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<ClientId> = (0..system.num_clients()).map(ClientId).collect();

    let greedy_start = Instant::now();
    let mut best: Option<(f64, Allocation)> = None;
    for _ in 0..config.num_init_solns {
        order.shuffle(&mut rng);
        let alloc = greedy_distributed(&ctx, &order);
        let profit = evaluate(system, &alloc).profit;
        if best.as_ref().is_none_or(|(p, _)| profit > *p) {
            best = Some((profit, alloc));
        }
    }
    let greedy_wall = greedy_start.elapsed();
    let (_, mut alloc) = best.expect("num_init_solns >= 1");

    let search_start = Instant::now();
    let rounds = improve_distributed(&ctx, &mut alloc, seed.wrapping_add(0x5EED));
    let search_wall = search_start.elapsed();

    (alloc, DistStats { agents: system.num_clusters(), greedy_wall, search_wall, rounds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudalloc_core::greedy_pass;
    use cloudalloc_model::check_feasibility;
    use cloudalloc_workload::{generate, ScenarioConfig};

    #[test]
    fn distributed_greedy_matches_sequential_greedy() {
        let system = generate(&ScenarioConfig::small(10), 121);
        let config = SolverConfig::default();
        let ctx = SolverCtx::new(&system, &config);
        let order: Vec<ClientId> = (0..system.num_clients()).map(ClientId).collect();
        let sequential = greedy_pass(&ctx, &order);
        let distributed = greedy_distributed(&ctx, &order);
        // The protocol computes the same argmax as the sequential loop, so
        // the results coincide (scores are generically tie-free).
        assert_eq!(distributed, sequential);
    }

    #[test]
    fn distributed_solve_is_feasible_and_profitable() {
        let system = generate(&ScenarioConfig::small(10), 122);
        let config = SolverConfig::fast();
        let (alloc, stats) = solve_distributed(&system, &config, 3);
        assert_eq!(stats.agents, system.num_clusters());
        assert!(stats.rounds >= 1);
        let violations = check_feasibility(&system, &alloc);
        assert!(
            violations.iter().all(|v| matches!(v, cloudalloc_model::Violation::Unassigned { .. })),
            "unexpected violations: {violations:?}"
        );
        alloc.assert_consistent(&system);
    }

    #[test]
    fn distributed_solve_quality_tracks_sequential_solve() {
        let system = generate(&ScenarioConfig::small(12), 123);
        let config = SolverConfig::fast();
        let (dist_alloc, _) = solve_distributed(&system, &config, 7);
        let seq = cloudalloc_core::solve(&system, &config, 7);
        let dist_profit = evaluate(&system, &dist_alloc).profit;
        // Operator interleaving differs (parallel rounds merge before the
        // global reassignment), so allow a modest gap in either direction.
        let scale = seq.report.profit.abs().max(1.0);
        assert!(
            (dist_profit - seq.report.profit) / scale > -0.2,
            "distributed {dist_profit} far below sequential {}",
            seq.report.profit
        );
    }

    #[test]
    fn improve_distributed_never_decreases_profit() {
        let system = generate(&ScenarioConfig::small(9), 124);
        let config = SolverConfig::fast();
        let ctx = SolverCtx::new(&system, &config);
        let order: Vec<ClientId> = (0..system.num_clients()).map(ClientId).collect();
        let mut alloc = greedy_distributed(&ctx, &order);
        let before = evaluate(&system, &alloc).profit;
        improve_distributed(&ctx, &mut alloc, 1);
        let after = evaluate(&system, &alloc).profit;
        assert!(after >= before - 1e-9, "profit dropped: {before} -> {after}");
    }
}
