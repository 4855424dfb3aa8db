//! The repair → shed → escalate state machine that answers server
//! failures. One machine serves every caller: the epoch loop runs it
//! mid-epoch, the admission server runs it when a fault strands served
//! clients.

use serde::{Deserialize, Serialize};

use cloudalloc_core::{ops, solve, SolverConfig, SolverCtx};
use cloudalloc_model::{evaluate, Allocation, CloudSystem, ScoredAllocation, ServerId};
use cloudalloc_telemetry as telemetry;

/// Policy of the repair → shed → escalate state machine that handles
/// server failures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RepairPolicy {
    /// Escalate from incremental repair to a bounded full re-solve when
    /// the repaired profit falls below this fraction of the pre-fault
    /// expected profit (only meaningful when that reference is positive).
    pub degradation_threshold: f64,
    /// Extra escalation re-solves (each with a freshly derived seed)
    /// allowed after the first, stopping early once the degradation
    /// threshold is recovered — the retry/backoff budget.
    pub max_resolve_retries: usize,
}

impl Default for RepairPolicy {
    fn default() -> Self {
        Self { degradation_threshold: 0.5, max_resolve_retries: 2 }
    }
}

/// What one repair did; the epoch loop attaches it to the
/// [`EpochReport`](crate::EpochReport) of the epoch whose fault events
/// triggered it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepairReport {
    /// Servers down after applying this epoch's events.
    pub failed_servers: usize,
    /// Clients that held at least one placement on a dead server.
    pub victims: usize,
    /// Placements evicted from dead servers.
    pub evicted: usize,
    /// Victims rescued by re-dispersing their surviving branches.
    pub redispersed: usize,
    /// Victims rescued by full re-placement.
    pub replaced: usize,
    /// Victims shed because no profitable rescue existed.
    pub shed: usize,
    /// Clients shed by the follow-up admission sweep (lowest marginal
    /// utility first).
    pub shed_low_utility: usize,
    /// Expected profit of the *stale* allocation on the failed system —
    /// the "do nothing" outcome repair must beat.
    pub stale_profit: f64,
    /// Expected profit of the naive drop-every-victim baseline.
    pub naive_profit: f64,
    /// Expected profit after repair (and escalation, when triggered).
    pub repaired_profit: f64,
    /// Whether repair fell back to the naive baseline allocation.
    pub used_naive_fallback: bool,
    /// Whether profit degradation escalated repair to full re-solves.
    pub escalated: bool,
    /// Escalation re-solves actually attempted minus one (0-based retry
    /// counter; 0 when escalation stopped after its first solve).
    pub resolve_retries: usize,
}

/// Seed of the `retry`-th escalation re-solve under base seed `seed`.
/// Public so tests can reproduce escalation results bit-for-bit.
pub fn escalation_seed(seed: u64, retry: u64) -> u64 {
    (seed ^ 0xFA17_5EED).wrapping_add(retry.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs the repair → shed → escalate state machine against the masked
/// system and returns the adopted allocation with its report.
///
/// `stale` is the standing allocation replayed onto `masked`, `failed`
/// the servers down in it, and `reference` the pre-fault profit the
/// degradation threshold is measured against.
///
/// 1. **Repair**: evict victims from dead servers via the journaled
///    incremental evaluator and rescue each with the most profitable
///    of re-disperse / re-place / shed, then shed any remaining
///    clients whose presence costs more than they earn. The result is
///    floored at the naive drop-every-victim baseline (which itself
///    dominates doing nothing — stranded clients earn zero revenue
///    but still hold costly shares), so repaired profit is monotone
///    versus both.
/// 2. **Escalate**: when the repaired profit falls below
///    `degradation_threshold ×` `reference`, run bounded full re-solves
///    seeded by [`escalation_seed`]`(seed, retry)`, keeping the best
///    allocation and stopping as soon as the threshold is recovered.
pub fn repair_escalate(
    masked: &CloudSystem,
    stale: Allocation,
    failed: &[ServerId],
    reference: f64,
    solver: &SolverConfig,
    policy: RepairPolicy,
    seed: u64,
) -> (Allocation, RepairReport) {
    // Doing nothing: the stale allocation scored on the failed system.
    let stale_profit = evaluate(masked, &stale).profit;
    let (naive, _) = ops::drop_victims(masked, &stale, failed);
    let naive_profit = evaluate(masked, &naive).profit;

    // Incremental repair plus the admission-control sweep.
    let ctx = SolverCtx::new(masked, solver);
    let mut scored = ScoredAllocation::lowered(&ctx.compiled, stale);
    let stats = ops::repair_failed_servers(&ctx, &mut scored, failed);
    let shed_low_utility = ops::shed_unprofitable(&ctx, &mut scored);
    let mut repaired_profit = scored.profit();
    let mut repaired = scored.into_allocation();
    let mut used_naive_fallback = false;
    if repaired_profit < naive_profit {
        repaired = naive;
        repaired_profit = naive_profit;
        used_naive_fallback = true;
    }

    let mut escalated = false;
    let mut resolve_retries = 0;
    let floor = policy.degradation_threshold * reference;
    if reference > 0.0 && repaired_profit < floor {
        escalated = true;
        telemetry::counter!("repair.escalations").incr();
        let _span = telemetry::span!("repair.escalate");
        for retry in 0..=policy.max_resolve_retries {
            resolve_retries = retry;
            let result = solve(masked, solver, escalation_seed(seed, retry as u64));
            let profit = evaluate(masked, &result.allocation).profit;
            if profit > repaired_profit {
                repaired_profit = profit;
                repaired = result.allocation;
                used_naive_fallback = false;
            }
            if repaired_profit >= floor {
                break;
            }
        }
    }

    let report = RepairReport {
        failed_servers: failed.len(),
        victims: stats.victims,
        evicted: stats.evicted,
        redispersed: stats.redispersed,
        replaced: stats.replaced,
        shed: stats.shed,
        shed_low_utility,
        stale_profit,
        naive_profit,
        repaired_profit,
        used_naive_fallback,
        escalated,
        resolve_retries,
    };
    (repaired, report)
}
