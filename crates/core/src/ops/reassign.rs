//! `Reassign_Clients` — inter-cluster local search: move one client at a
//! time to its currently-best cluster (paper §V: the local search "used to
//! change client assignment to decrease the resource saturation in some of
//! clusters ... and to combine the clients to decrease the number of
//! active servers").
//!
//! The pass runs in two phases so the expensive part parallelizes without
//! giving up bit-identity across thread counts:
//!
//! 1. **Propose** — for every client (in `order`) the best candidate
//!    placement is computed against the *phase-start* snapshot with the
//!    client itself removed. Each trial savepoints, searches and rolls
//!    back, so a proposal is a pure function of the snapshot and the
//!    client — which is exactly what lets blocks of clients fan out over
//!    [`crate::par`] on private forks, [`run_phase`]-style. The serial
//!    path runs the same trials in the same blocks on the live evaluator
//!    (zero forks), so it produces the identical proposal list under the
//!    identical `op.reassign.block` spans.
//! 2. **Commit** — serially, in `order`: the client is removed, the
//!    proposal is checked against the *current* loads (a proposal is
//!    stale once an earlier accepted move consumed the free capacity it
//!    was priced on — and an oversubscribed server would not show up in
//!    the profit test, whose per-client response times depend only on the
//!    client's own share), then committed and kept only when the total
//!    profit improves. Rejected moves roll back exactly.
//!
//! [`run_phase`]: crate::rounds

use cloudalloc_model::{Allocation, ClientId, ScoredAllocation};
use cloudalloc_telemetry as telemetry;

use crate::assign::{best_cluster, commit_scored, Candidate};
use crate::ctx::SolverCtx;
use crate::par;

/// Clients per proposal-block job in the parallel fan-out. Small enough
/// to balance the chunked schedule, large enough to amortize one fork of
/// the evaluator per block.
const PROPOSAL_BLOCK: usize = 64;

/// Tolerance for the stale-proposal capacity re-check; matches the
/// evaluator's feasibility slack scale.
const FIT_TOL: f64 = 1e-9;

/// One best-cluster trial against the current state with `client`
/// removed, leaving the evaluator bit-exactly untouched.
fn propose(
    ctx: &SolverCtx<'_>,
    sim: &mut ScoredAllocation<'_>,
    client: ClientId,
) -> Option<Candidate> {
    let mark = sim.savepoint();
    sim.clear_client(client);
    let candidate = best_cluster(ctx, sim.alloc(), client);
    sim.rollback_to(mark);
    candidate
}

/// True when `candidate`'s placements still fit the free capacity of the
/// current allocation (with `client` already removed from it).
fn proposal_fits(
    ctx: &SolverCtx<'_>,
    alloc: &Allocation,
    client: ClientId,
    candidate: &Candidate,
) -> bool {
    let storage = ctx.compiled.client_storage(client);
    candidate.placements.iter().all(|&(server, p)| {
        let load = alloc.load(server);
        p.phi_p <= load.free_phi_p() + FIT_TOL
            && p.phi_c <= load.free_phi_c() + FIT_TOL
            && load.storage + storage <= ctx.compiled.cap_storage(server) + FIT_TOL
    })
}

/// One pass over `order`: each client is tentatively removed and
/// re-inserted into its best cluster given the phase-start state; the
/// move commits only when it still fits and the total profit improves,
/// otherwise the journal rolls it back exactly. Unassigned clients (left
/// over from an infeasible greedy pass) get a placement attempt too.
///
/// Identical `(state, order)` inputs yield bit-identical results at every
/// thread count (see the module docs for the schedule).
///
/// Returns `true` when any client moved.
pub fn reassign_clients(
    ctx: &SolverCtx<'_>,
    scored: &mut ScoredAllocation<'_>,
    order: &[ClientId],
) -> bool {
    // Canonical flush: proposals must price against fully-rescored
    // caches, and forks snapshot whatever is cached.
    let mut current_profit = scored.profit();

    let proposals: Vec<Option<Candidate>> = if ctx.threads > 1 && !par::in_worker() {
        let base: &ScoredAllocation<'_> = scored;
        let blocks = order.len().div_ceil(PROPOSAL_BLOCK);
        let block_proposals = par::run_parallel(blocks, ctx.threads.min(blocks), |b| {
            let _span = telemetry::span!("op.reassign.block");
            let mut sim = base.fork();
            let block = &order[b * PROPOSAL_BLOCK..((b + 1) * PROPOSAL_BLOCK).min(order.len())];
            block.iter().map(|&client| propose(ctx, &mut sim, client)).collect::<Vec<_>>()
        });
        block_proposals.into_iter().flatten().collect()
    } else {
        let mut proposals = Vec::with_capacity(order.len());
        for block in order.chunks(PROPOSAL_BLOCK) {
            let _span = telemetry::span!("op.reassign.block");
            proposals.extend(block.iter().map(|&client| propose(ctx, scored, client)));
        }
        proposals
    };

    let mut changed = false;
    for (&client, proposal) in order.iter().zip(&proposals) {
        telemetry::counter!("op.reassign.tried").incr();
        let Some(candidate) = proposal else { continue };
        let mark = scored.savepoint();
        scored.clear_client(client);
        if proposal_fits(ctx, scored.alloc(), client, candidate) {
            commit_scored(scored, client, candidate);
            let new_profit = scored.profit();
            if new_profit > current_profit + 1e-9 {
                telemetry::counter!("op.reassign.accepted").incr();
                telemetry::float_counter!("op.reassign.gain").add(new_profit - current_profit);
                current_profit = new_profit;
                changed = true;
                continue;
            }
        } else {
            telemetry::counter!("op.reassign.stale").incr();
        }
        scored.rollback_to(mark);
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::initial::random_assignment;
    use cloudalloc_model::{check_feasibility, evaluate};
    use cloudalloc_workload::{generate, ScenarioConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reassignment_never_decreases_profit() {
        let system = generate(&ScenarioConfig::small(10), 61);
        let config = SolverConfig::default();
        let ctx = SolverCtx::new(&system, &config);
        let mut rng = StdRng::seed_from_u64(2);
        let mut scored = ScoredAllocation::new(&system, random_assignment(&ctx, &mut rng));
        let before = scored.profit();
        let order: Vec<ClientId> = (0..system.num_clients()).map(ClientId).collect();
        reassign_clients(&ctx, &mut scored, &order);
        let after = scored.profit();
        assert!(after >= before - 1e-9, "profit dropped: {before} -> {after}");
        let alloc = scored.into_allocation();
        assert!((evaluate(&system, &alloc).profit - after).abs() <= 1e-6 * (1.0 + after.abs()));
        // Reassignment keeps every placed client feasible; clients no
        // cluster can profitably host may stay unassigned.
        assert!(check_feasibility(&system, &alloc)
            .iter()
            .all(|v| matches!(v, cloudalloc_model::Violation::Unassigned { .. })));
        alloc.assert_consistent(&system);
    }

    #[test]
    fn random_assignments_improve_under_reassignment() {
        // A random start should usually leave room for at least one
        // improving move across several seeds.
        let mut improved = false;
        for seed in 0..5 {
            let system = generate(&ScenarioConfig::small(12), 400 + seed);
            let config = SolverConfig::default();
            let ctx = SolverCtx::new(&system, &config);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut scored = ScoredAllocation::new(&system, random_assignment(&ctx, &mut rng));
            let before = scored.profit();
            let order: Vec<ClientId> = (0..system.num_clients()).map(ClientId).collect();
            reassign_clients(&ctx, &mut scored, &order);
            if scored.profit() > before + 1e-9 {
                improved = true;
                break;
            }
        }
        assert!(improved, "reassignment never improved a random start");
    }

    #[test]
    fn rollback_restores_the_exact_allocation() {
        let system = generate(&ScenarioConfig::small(6), 63);
        let config = SolverConfig::default();
        let ctx = SolverCtx::new(&system, &config);
        let mut rng = StdRng::seed_from_u64(5);
        let alloc_before = random_assignment(&ctx, &mut rng);
        let mut scored = ScoredAllocation::new(&system, alloc_before.clone());
        let order: Vec<ClientId> = (0..system.num_clients()).map(ClientId).collect();
        let changed = reassign_clients(&ctx, &mut scored, &order);
        let alloc = scored.into_allocation();
        if !changed {
            assert_eq!(alloc, alloc_before, "no-op pass must leave the allocation intact");
        } else {
            // Changed allocations must still be complete.
            assert!(alloc.is_complete(1e-6) || !alloc_before.is_complete(1e-6));
        }
    }

    #[test]
    fn reassign_is_identical_across_thread_counts() {
        // Parallel proposals on forks vs the serial trial loop must agree
        // bit-for-bit: same accepted moves, same final profit bits.
        let system = generate(&ScenarioConfig::paper(90), 64);
        let order: Vec<ClientId> = (0..system.num_clients()).map(ClientId).collect();
        let run = |threads: usize| {
            let config = SolverConfig { num_threads: Some(threads), ..Default::default() };
            let ctx = SolverCtx::new(&system, &config);
            let mut rng = StdRng::seed_from_u64(8);
            let mut scored = ScoredAllocation::new(&system, random_assignment(&ctx, &mut rng));
            let changed = reassign_clients(&ctx, &mut scored, &order);
            let profit = scored.profit();
            (changed, profit, scored.into_allocation())
        };
        let (base_changed, base_profit, base_alloc) = run(1);
        for threads in [2, 4, 8] {
            let (changed, profit, alloc) = run(threads);
            assert_eq!(changed, base_changed, "threads={threads}: changed flag diverged");
            assert_eq!(
                profit.to_bits(),
                base_profit.to_bits(),
                "threads={threads}: profit bits diverged"
            );
            assert_eq!(alloc, base_alloc, "threads={threads}: allocation diverged");
        }
    }

    #[test]
    fn stale_proposals_never_oversubscribe() {
        // Under proposal-vs-snapshot semantics two clients can race for
        // the same free capacity; the commit-phase re-check must keep the
        // final allocation feasible on every seed.
        for seed in 0..4 {
            let system = generate(&ScenarioConfig::overloaded(16), 80 + seed);
            let config = SolverConfig::default();
            let ctx = SolverCtx::new(&system, &config);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut scored = ScoredAllocation::new(&system, random_assignment(&ctx, &mut rng));
            let order: Vec<ClientId> = (0..system.num_clients()).map(ClientId).collect();
            reassign_clients(&ctx, &mut scored, &order);
            let alloc = scored.into_allocation();
            assert!(check_feasibility(&system, &alloc)
                .iter()
                .all(|v| matches!(v, cloudalloc_model::Violation::Unassigned { .. })));
        }
    }
}
