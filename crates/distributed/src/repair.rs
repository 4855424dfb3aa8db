//! Fault repair under the sharded solve.
//!
//! Mirrors the scatter–gather split of the greedy protocol: every cluster
//! agent repairs *its own* victims in parallel, with rescue moves
//! confined to its cluster (shard-local state only); the manager merges
//! the per-cluster views and then re-auctions the clients no shard could
//! rescue across the whole datacenter — the same central argmax step the
//! greedy construction uses. The shard phase is embarrassingly parallel
//! and deterministic, so the combined result does not depend on thread
//! scheduling.

use std::thread;

use cloudalloc_core::ops::{self, RepairStats};
use cloudalloc_core::{best_cluster, commit_scored, SolverCtx};
use cloudalloc_model::{Allocation, ClientId, ClusterId, ScoredAllocation, ServerId};
use cloudalloc_telemetry as telemetry;

use crate::merge::merge_cluster_allocations;

/// Repairs `alloc` in place after the servers in `failed` died, sharding
/// the work per cluster. Returns the combined stats (central re-auction
/// rescues are counted as `replaced`, not `shed`).
///
/// The context must be built on the *masked* system (see
/// [`CloudSystem::with_failed_servers`](cloudalloc_model::CloudSystem::with_failed_servers))
/// and `alloc` rebuilt against it, exactly as for the sequential
/// [`ops::repair_failed_servers`].
pub fn repair_distributed(
    ctx: &SolverCtx<'_>,
    alloc: &mut Allocation,
    failed: &[ServerId],
) -> RepairStats {
    let mut stats = RepairStats::default();
    if failed.is_empty() {
        return stats;
    }
    let _span = telemetry::span!("dist.repair");
    let system = ctx.system;
    let mut dead = vec![false; system.num_servers()];
    for &s in failed {
        dead[s.index()] = true;
    }
    // Victim set before any shard touches the allocation; the central
    // phase re-auctions whichever of these end up unplaced.
    let victims: Vec<ClientId> = (0..system.num_clients())
        .map(ClientId)
        .filter(|&c| alloc.placements(c).iter().any(|&(s, _)| dead[s.index()]))
        .collect();

    let shard_results: Vec<(Allocation, RepairStats)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..system.num_clusters())
            .map(|k| {
                let cluster = ClusterId(k);
                let agent_ctx = ctx;
                let base = alloc.clone();
                scope.spawn(move || {
                    let mut local = ScoredAllocation::lowered(&agent_ctx.compiled, base);
                    let shard_stats =
                        ops::repair_failed_servers_within(agent_ctx, &mut local, failed, cluster);
                    (local.into_allocation(), shard_stats)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("agent panicked")).collect()
    });
    let parts: Vec<Allocation> = shard_results.iter().map(|(a, _)| a.clone()).collect();
    for &(_, shard_stats) in &shard_results {
        stats.absorb(shard_stats);
    }
    // A victim shed by its shard has no cluster in that shard's part, so
    // the merge leaves it unassigned — exactly the set the central phase
    // re-auctions below.
    let merged = merge_cluster_allocations(system, &parts);

    let mut scored = ScoredAllocation::lowered(&ctx.compiled, merged);
    for &client in &victims {
        if !scored.alloc().placements(client).is_empty() {
            continue;
        }
        if let Some(cand) = best_cluster(ctx, scored.alloc(), client) {
            if cand.score > 0.0 || ctx.config.require_service {
                commit_scored(&mut scored, client, &cand);
                stats.shed -= 1;
                stats.replaced += 1;
                telemetry::counter!("dist.repair.rescued_centrally").incr();
            }
        }
    }
    *alloc = scored.into_allocation();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudalloc_core::{solve, SolverConfig};
    use cloudalloc_model::{check_feasibility, evaluate, CloudSystem, Violation};
    use cloudalloc_workload::{generate, ScenarioConfig};

    fn scenario(seed: u64) -> (CloudSystem, Allocation, Vec<ServerId>) {
        let system = generate(&ScenarioConfig::small(16), seed);
        let config = SolverConfig::fast();
        let alloc = solve(&system, &config, seed).allocation;
        let failed: Vec<ServerId> = alloc.active_servers().take(2).collect();
        (system, alloc, failed)
    }

    #[test]
    fn distributed_repair_clears_failed_servers_and_beats_naive_drop() {
        for seed in [3_u64, 23] {
            let (system, alloc, failed) = scenario(seed);
            assert!(!failed.is_empty());
            let masked = system.with_failed_servers(&failed);
            let config = SolverConfig::fast();
            let ctx = SolverCtx::new(&masked, &config);

            let (naive, victims) =
                ops::drop_victims(&masked, &alloc.replayed_onto(&masked), &failed);
            let naive_profit = evaluate(&masked, &naive).profit;

            let mut repaired = alloc.replayed_onto(&masked);
            let stats = repair_distributed(&ctx, &mut repaired, &failed);
            assert_eq!(stats.victims, victims, "seed {seed}");
            let repaired_profit = evaluate(&masked, &repaired).profit;
            assert!(
                repaired_profit >= naive_profit - 1e-9,
                "seed {seed}: distributed repair {repaired_profit} < naive {naive_profit}"
            );
            for &s in &failed {
                assert!(repaired.residents(s).is_empty(), "mass left on {s}");
            }
            repaired.assert_consistent(&masked);
            assert!(check_feasibility(&masked, &repaired)
                .iter()
                .all(|v| matches!(v, Violation::Unassigned { .. })));
        }
    }

    #[test]
    fn distributed_repair_is_deterministic() {
        let (system, alloc, failed) = scenario(5);
        let masked = system.with_failed_servers(&failed);
        let config = SolverConfig::fast();
        let ctx = SolverCtx::new(&masked, &config);
        let run = || {
            let mut repaired = alloc.replayed_onto(&masked);
            let stats = repair_distributed(&ctx, &mut repaired, &failed);
            (stats, repaired)
        };
        let (s1, a1) = run();
        let (s2, a2) = run();
        assert_eq!(s1, s2);
        assert_eq!(a1, a2);
    }

    #[test]
    fn distributed_repair_tracks_the_sequential_repair() {
        // Same victims, same rescue economics — the sharded repair may
        // differ in exact moves (cluster-confined first pass) but must
        // land in the same profit neighbourhood as the sequential one.
        let (system, alloc, failed) = scenario(9);
        let masked = system.with_failed_servers(&failed);
        let config = SolverConfig::fast();
        let ctx = SolverCtx::new(&masked, &config);

        let mut sequential = ScoredAllocation::lowered(&ctx.compiled, alloc.replayed_onto(&masked));
        ops::repair_failed_servers(&ctx, &mut sequential, &failed);
        let sequential_profit = sequential.profit();

        let mut sharded = alloc.replayed_onto(&masked);
        repair_distributed(&ctx, &mut sharded, &failed);
        let sharded_profit = evaluate(&masked, &sharded).profit;

        let scale = sequential_profit.abs().max(1.0);
        assert!(
            (sharded_profit - sequential_profit) / scale > -0.25,
            "sharded repair {sharded_profit} fell far below sequential {sequential_profit}"
        );
    }
}
