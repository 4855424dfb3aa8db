//! Initial-solution construction (paper §V-A): repeated randomized greedy
//! insertion, keeping the best of `num_init_solns` passes. Passes are
//! independent and run on a thread pool sized by
//! [`SolverConfig::effective_threads`](crate::config::SolverConfig::effective_threads);
//! each pass owns a seeded RNG stream, so results are identical for every
//! thread count.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use cloudalloc_model::{evaluate, Allocation, ClientId};

use crate::assign::{best_cluster, commit};
use crate::ctx::SolverCtx;
use crate::par::{pass_seed, run_parallel};

/// One greedy pass: clients in `order` are inserted sequentially, each
/// into the cluster maximizing its approximate profit against the current
/// state. Clients no cluster can absorb are left unassigned (they earn
/// nothing; the local search may rescue them later once shares shift).
pub fn greedy_pass(ctx: &SolverCtx<'_>, order: &[ClientId]) -> Allocation {
    let mut alloc = Allocation::new(ctx.system);
    for &client in order {
        if let Some(candidate) = best_cluster(ctx, &alloc, client) {
            // Decline money-losing clients unless constraint (6) is
            // enforced strictly; the reassignment operator re-tests
            // declined clients every local-search round.
            if candidate.score > 0.0 || ctx.config.require_service {
                commit(ctx, &mut alloc, client, &candidate);
            }
        }
    }
    alloc
}

/// Builds `num_init_solns` randomized greedy solutions in parallel and
/// returns the most profitable one together with its profit (the paper's
/// "Select the best initial solution"). Ties go to the lowest pass index,
/// matching the sequential selection order.
pub fn best_initial(ctx: &SolverCtx<'_>, seed: u64) -> (Allocation, f64) {
    let passes = ctx.config.num_init_solns;
    let results = run_parallel(passes, ctx.config.effective_threads(), |pass| {
        let mut rng = StdRng::seed_from_u64(pass_seed(seed, pass as u64));
        let mut order: Vec<ClientId> = (0..ctx.system.num_clients()).map(ClientId).collect();
        order.shuffle(&mut rng);
        let alloc = greedy_pass(ctx, &order);
        let profit = evaluate(ctx.system, &alloc).profit;
        (alloc, profit)
    });
    results
        .into_iter()
        .reduce(|best, cand| if cand.1 > best.1 { cand } else { best })
        .expect("num_init_solns >= 1 is enforced by SolverConfig::validate")
}

/// A *uniformly random* complete assignment: every client lands in a
/// random cluster (placements via `Assign_Distribute` within that
/// cluster). Used by the Monte-Carlo baseline; failed clusters fall back
/// to the best cluster, and still-unplaceable clients stay unassigned.
pub fn random_assignment(ctx: &SolverCtx<'_>, rng: &mut StdRng) -> Allocation {
    let mut alloc = Allocation::new(ctx.system);
    let mut order: Vec<ClientId> = (0..ctx.system.num_clients()).map(ClientId).collect();
    order.shuffle(rng);
    for client in order {
        let k = cloudalloc_model::ClusterId(rng.gen_range(0..ctx.system.num_clusters()));
        let candidate = crate::assign::assign_distribute(ctx, &alloc, client, k)
            .or_else(|| best_cluster(ctx, &alloc, client));
        if let Some(candidate) = candidate {
            commit(ctx, &mut alloc, client, &candidate);
        }
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use cloudalloc_model::check_feasibility;
    use cloudalloc_workload::{generate, ScenarioConfig};

    #[test]
    fn greedy_pass_places_every_client_when_capacity_allows() {
        let system = generate(&ScenarioConfig::small(8), 2);
        // Strict constraint (6): serve everyone placeable, even at a loss.
        let config = SolverConfig { require_service: true, ..Default::default() };
        let ctx = SolverCtx::new(&system, &config);
        let order: Vec<ClientId> = (0..8).map(ClientId).collect();
        let alloc = greedy_pass(&ctx, &order);
        assert!(alloc.is_complete(1e-6));
        assert!(check_feasibility(&system, &alloc).is_empty());
    }

    #[test]
    fn best_initial_is_no_worse_than_single_pass() {
        let system = generate(&ScenarioConfig::small(10), 4);
        let one = SolverConfig { num_init_solns: 1, ..Default::default() };
        let three = SolverConfig { num_init_solns: 3, ..Default::default() };
        let p1 = {
            let ctx = SolverCtx::new(&system, &one);
            best_initial(&ctx, 99).1
        };
        let p3 = {
            let ctx = SolverCtx::new(&system, &three);
            best_initial(&ctx, 99).1
        };
        // The three-pass run sees the one-pass ordering as its pass 0
        // (pass_seed keeps the raw seed there), so it can only match or
        // beat it.
        assert!(p3 >= p1 - 1e-9);
    }

    #[test]
    fn best_initial_is_deterministic_per_seed() {
        let system = generate(&ScenarioConfig::small(6), 5);
        let config = SolverConfig::default();
        let ctx = SolverCtx::new(&system, &config);
        let (a1, p1) = best_initial(&ctx, 7);
        let (a2, p2) = best_initial(&ctx, 7);
        assert_eq!(a1, a2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn best_initial_is_identical_across_thread_counts() {
        let system = generate(&ScenarioConfig::small(10), 6);
        let serial = SolverConfig { num_threads: Some(1), num_init_solns: 4, ..Default::default() };
        let threaded =
            SolverConfig { num_threads: Some(4), num_init_solns: 4, ..Default::default() };
        let (a1, p1) = best_initial(&SolverCtx::new(&system, &serial), 11);
        let (a4, p4) = best_initial(&SolverCtx::new(&system, &threaded), 11);
        assert_eq!(a1, a4);
        assert_eq!(p1, p4);

        // A single pass runs inline rather than inside a worker, so
        // `best_cluster` itself fans its per-cluster searches out: the
        // argmax over the cluster agents' answers must match the serial
        // loop bit for bit.
        let single = |threads| SolverConfig {
            num_threads: Some(threads),
            num_init_solns: 1,
            ..Default::default()
        };
        for seed in [1_u64, 2, 3] {
            let system = generate(&ScenarioConfig::paper(40), seed);
            let (a1, p1) = best_initial(&SolverCtx::new(&system, &single(1)), seed);
            let (a4, p4) = best_initial(&SolverCtx::new(&system, &single(4)), seed);
            assert_eq!(a1, a4, "seed {seed}: allocation diverged");
            assert_eq!(p1.to_bits(), p4.to_bits(), "seed {seed}: profit bits diverged");
        }
    }

    #[test]
    fn random_assignment_is_complete_and_feasible_on_small_systems() {
        let system = generate(&ScenarioConfig::small(6), 8);
        let config = SolverConfig::default();
        let ctx = SolverCtx::new(&system, &config);
        let mut rng = StdRng::seed_from_u64(3);
        let alloc = random_assignment(&ctx, &mut rng);
        assert!(alloc.is_complete(1e-6));
        assert!(check_feasibility(&system, &alloc).is_empty());
    }

    #[test]
    fn unprofitable_clients_are_declined_by_default() {
        // Under the default economic policy, greedy passes either place a
        // client fully or decline it; declined clients hold no placements.
        let system = generate(&ScenarioConfig::overloaded(20), 3);
        let config = SolverConfig::default();
        let ctx = SolverCtx::new(&system, &config);
        let order: Vec<ClientId> = (0..20).map(ClientId).collect();
        let alloc = greedy_pass(&ctx, &order);
        for i in 0..20 {
            let held = alloc.placements(ClientId(i));
            assert!(
                held.is_empty() || (alloc.total_alpha(ClientId(i)) - 1.0).abs() < 1e-9,
                "client {i} is half-placed"
            );
        }
    }

    #[test]
    fn random_assignment_typically_trails_greedy() {
        let system = generate(&ScenarioConfig::paper(30), 10);
        let config = SolverConfig::default();
        let ctx = SolverCtx::new(&system, &config);
        let (_, greedy_profit) = best_initial(&ctx, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let avg_random: f64 = (0..5)
            .map(|_| evaluate(&system, &random_assignment(&ctx, &mut rng)).profit)
            .sum::<f64>()
            / 5.0;
        assert!(
            greedy_profit > avg_random,
            "greedy {greedy_profit} should beat average random {avg_random}"
        );
    }
}
