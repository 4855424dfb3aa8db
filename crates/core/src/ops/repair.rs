//! Fault repair: rescue clients stranded on failed servers.
//!
//! Works against a system masked by
//! [`CloudSystem::with_failed_servers`](cloudalloc_model::CloudSystem::with_failed_servers):
//! the caller evaluates the standing allocation on the masked system and
//! this operator evicts every placement that still points at a dead
//! server, then rescues each victim with the cheapest profitable action —
//! re-disperse its surviving branches back to `Σα = 1`, re-place it from
//! scratch through the regular candidate search, or shed it (admission
//! control) when neither is worth the capacity. A second pass,
//! [`shed_unprofitable`], extends the admission decision to *every*
//! client, dropping those whose presence costs more than they earn on the
//! shrunken system.
//!
//! All decisions are made by tentative apply → score → rollback on the
//! journaled [`ScoredAllocation`], the same machinery as the local-search
//! operators, so repair composes with everything else bit-for-bit.

use cloudalloc_model::{Allocation, ClientId, CloudSystem, Placement, ScoredAllocation, ServerId};
use cloudalloc_telemetry as telemetry;

use crate::assign::{best_cluster, commit_scored, Candidate};
use crate::ctx::SolverCtx;
use crate::dispersion::{optimal_dispersion_into, DispersionBranch};

/// What the repair pass did, summed over all victims.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Clients that held at least one placement on a failed server.
    pub victims: usize,
    /// Placements evicted from failed servers.
    pub evicted: usize,
    /// Victims rescued by re-dispersing their surviving branches.
    pub redispersed: usize,
    /// Victims rescued by a full re-placement through candidate search.
    pub replaced: usize,
    /// Victims shed entirely (no profitable rescue existed).
    pub shed: usize,
}

/// How one victim was rescued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rescue {
    Redisperse,
    Replace,
    Shed,
}

/// Evicts every placement on a failed server and rescues the victims,
/// choosing per client (ascending id — deterministic) the most profitable
/// of re-disperse / re-place / shed. Returns what it did.
///
/// The caller is expected to run this against a context built on the
/// *masked* system; the operator itself only needs the failed-id list to
/// know which placements to evict.
pub fn repair_failed_servers(
    ctx: &SolverCtx<'_>,
    scored: &mut ScoredAllocation<'_>,
    failed: &[ServerId],
) -> RepairStats {
    let _span = telemetry::span!("op.repair");
    let mut stats = RepairStats::default();
    if failed.is_empty() {
        return stats;
    }
    let dead = dead_mask(ctx.system, failed);
    for i in 0..ctx.system.num_clients() {
        let client = ClientId(i);
        let holds_dead =
            scored.alloc().placements(client).iter().any(|&(server, _)| dead[server.index()]);
        if !holds_dead {
            continue;
        }
        stats.victims += 1;
        telemetry::counter!("op.repair.victims").incr();
        stats.evicted += evict(scored, client, &dead);
        match rescue(ctx, scored, client) {
            Rescue::Redisperse => {
                stats.redispersed += 1;
                telemetry::counter!("op.repair.redispersed").incr();
            }
            Rescue::Replace => {
                stats.replaced += 1;
                telemetry::counter!("op.repair.replaced").incr();
            }
            Rescue::Shed => {
                stats.shed += 1;
                telemetry::counter!("op.repair.shed").incr();
            }
        }
        // Each victim's decision is final; sealing the journal keeps it
        // from growing with the victim count.
        scored.commit();
    }
    stats
}

/// The naive repair every rescue is measured against: drops each client
/// that holds a placement on a failed server. `stale` is the standing
/// allocation already replayed onto `masked`. Returns the trimmed
/// allocation and the number of clients dropped.
pub fn drop_victims(
    masked: &CloudSystem,
    stale: &Allocation,
    failed: &[ServerId],
) -> (Allocation, usize) {
    let dead = dead_mask(masked, failed);
    let mut naive = stale.clone();
    let mut victims = 0;
    for i in 0..masked.num_clients() {
        let client = ClientId(i);
        if naive.placements(client).iter().any(|&(s, _)| dead[s.index()]) {
            naive.clear_client(masked, client);
            victims += 1;
        }
    }
    (naive, victims)
}

/// Per-server down flags for `failed`.
fn dead_mask(system: &CloudSystem, failed: &[ServerId]) -> Vec<bool> {
    let mut dead = vec![false; system.num_servers()];
    for &s in failed {
        dead[s.index()] = true;
    }
    dead
}

/// Removes `client`'s placements on dead servers (mandatory — not part of
/// any tentative decision). Returns how many were evicted.
fn evict(scored: &mut ScoredAllocation<'_>, client: ClientId, dead: &[bool]) -> usize {
    let mut evicted = 0;
    // Collect first: `remove` edits the list under iteration.
    let on_dead: Vec<ServerId> = scored
        .alloc()
        .placements(client)
        .iter()
        .filter(|&&(server, _)| dead[server.index()])
        .map(|&(server, _)| server)
        .collect();
    for server in on_dead {
        scored.remove(client, server);
        evicted += 1;
        telemetry::counter!("op.repair.evicted").incr();
    }
    evicted
}

/// Picks the most profitable rescue for an already-evicted victim by
/// scoring all three actions tentatively from the same savepoint. Ties
/// prefer the least disruptive action (re-disperse, then re-place, then
/// shed).
fn rescue(ctx: &SolverCtx<'_>, scored: &mut ScoredAllocation<'_>, client: ClientId) -> Rescue {
    let mark = scored.savepoint();

    let profit_redisperse = match try_redisperse(ctx, scored, client) {
        Some(p) => {
            scored.rollback_to(mark);
            p
        }
        None => f64::NEG_INFINITY,
    };

    let replacement = try_replacement(ctx, scored, client);
    let profit_replace = match &replacement {
        Some(cand) => {
            scored.clear_client(client);
            commit_scored(scored, client, cand);
            let p = scored.profit();
            scored.rollback_to(mark);
            p
        }
        None => f64::NEG_INFINITY,
    };

    scored.clear_client(client);
    let profit_shed = scored.profit();
    scored.rollback_to(mark);

    let mut action = Rescue::Redisperse;
    let mut best = profit_redisperse;
    if profit_replace > best {
        action = Rescue::Replace;
        best = profit_replace;
    }
    if profit_shed > best {
        action = Rescue::Shed;
    }

    match action {
        Rescue::Redisperse => {
            let applied = try_redisperse(ctx, scored, client);
            debug_assert!(applied.is_some(), "winning redispersion must re-apply");
        }
        Rescue::Replace => {
            scored.clear_client(client);
            commit_scored(scored, client, &replacement.expect("winning candidate exists"));
        }
        Rescue::Shed => {
            scored.clear_client(client);
        }
    }
    action
}

/// Tentatively re-disperses `client`'s surviving branches back to
/// `Σα = 1`. On success the new alphas are *left applied* and the
/// resulting total profit is returned; the caller decides whether to keep
/// or roll back. Returns `None` (allocation untouched) when the survivors
/// cannot stably absorb the stream.
fn try_redisperse(
    ctx: &SolverCtx<'_>,
    scored: &mut ScoredAllocation<'_>,
    client: ClientId,
) -> Option<f64> {
    let compiled = &ctx.compiled;
    let mut guard = ctx.scratch();
    let s = &mut *guard;
    s.held.clear();
    s.held.extend_from_slice(scored.alloc().placements(client));
    if s.held.is_empty() {
        return None;
    }
    let c = compiled.client(client);
    let outcome = scored.outcome(client);
    let weight = ctx.aspiration_weight(client, outcome.response_time);
    s.branches.clear();
    s.branches.extend(s.held.iter().map(|&(server, p)| {
        let class = compiled.class_of(server);
        DispersionBranch {
            service_p: p.phi_p * class.cap_processing / c.exec_processing,
            service_c: p.phi_c * class.cap_communication / c.exec_communication,
            cost_slope: class.cost_per_utilization * c.rate_predicted * c.exec_processing
                / class.cap_processing,
        }
    }));
    if !optimal_dispersion_into(
        c.rate_predicted,
        weight,
        &s.branches,
        ctx.config.stability_margin,
        &mut s.alpha_maxes,
        &mut s.alphas,
    ) {
        return None;
    }
    for (&(server, p), &a) in s.held.iter().zip(&s.alphas) {
        if a < 1e-9 {
            scored.remove(client, server);
        } else {
            scored.place(client, server, Placement { alpha: a, ..p });
        }
    }
    Some(scored.profit())
}

/// Searches every cluster for a full re-placement of the victim. Honors
/// the admission economics of the greedy pass — a non-positive score is
/// only accepted under `require_service`.
fn try_replacement(
    ctx: &SolverCtx<'_>,
    scored: &mut ScoredAllocation<'_>,
    client: ClientId,
) -> Option<Candidate> {
    let mark = scored.savepoint();
    // Candidate search scores an unassigned client; clear tentatively.
    scored.clear_client(client);
    let cand = best_cluster(ctx, scored.alloc(), client);
    scored.rollback_to(mark);
    cand.filter(|c| c.score > 0.0 || ctx.config.require_service)
}

/// Admission-control sweep over *all* served clients, ascending by
/// (revenue, id) so the lowest-marginal-utility clients are questioned
/// first: each is tentatively cleared and stays shed only when total
/// profit strictly improves. Returns how many were shed.
///
/// Under [`SolverConfig::require_service`](crate::SolverConfig) the sweep
/// is a no-op — the operator must not break the serve-everyone contract.
pub fn shed_unprofitable(ctx: &SolverCtx<'_>, scored: &mut ScoredAllocation<'_>) -> usize {
    if ctx.config.require_service {
        return 0;
    }
    let _span = telemetry::span!("op.shed");
    let n = ctx.system.num_clients();
    let mut order: Vec<(f64, usize)> = Vec::with_capacity(n);
    for i in 0..n {
        let client = ClientId(i);
        if scored.alloc().placements(client).is_empty() {
            continue;
        }
        order.push((scored.outcome(client).revenue, i));
    }
    // Revenue is finite (INFINITY response ⇒ revenue 0), so total order.
    order.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite revenue").then(a.1.cmp(&b.1)));
    let mut shed = 0;
    for (_, i) in order {
        let client = ClientId(i);
        let before = scored.profit();
        let mark = scored.savepoint();
        scored.clear_client(client);
        let after = scored.profit();
        if after > before + 1e-12 {
            shed += 1;
            scored.commit();
            telemetry::counter!("op.shed.accepted").incr();
            telemetry::float_counter!("op.shed.gain").add(after - before);
        } else {
            scored.rollback_to(mark);
        }
    }
    shed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use cloudalloc_model::{check_feasibility, evaluate, Violation};
    use cloudalloc_workload::{generate, ScenarioConfig};

    fn greedy_scored<'a>(ctx: &SolverCtx<'_>, system: &'a CloudSystem) -> ScoredAllocation<'a> {
        let mut scored = ScoredAllocation::fresh(system);
        for i in 0..system.num_clients() {
            if let Some(cand) = best_cluster(ctx, scored.alloc(), ClientId(i)) {
                if cand.score > 0.0 {
                    commit_scored(&mut scored, ClientId(i), &cand);
                }
            }
        }
        scored
    }

    /// Fails the first `count` servers that host at least one placement.
    fn pick_failed(alloc: &Allocation, num_servers: usize, count: usize) -> Vec<ServerId> {
        (0..num_servers)
            .map(ServerId)
            .filter(|&s| !alloc.residents(s).is_empty())
            .take(count)
            .collect()
    }

    #[test]
    fn repair_clears_failed_servers_and_beats_naive_drop() {
        for seed in [3_u64, 11, 29] {
            let system = generate(&ScenarioConfig::small(12), seed);
            let config = SolverConfig::default();
            let ctx = SolverCtx::new(&system, &config);
            let scored = greedy_scored(&ctx, &system);
            let alloc = scored.into_allocation();

            let failed = pick_failed(&alloc, system.num_servers(), 2);
            assert!(!failed.is_empty(), "seed {seed} produced no loaded server");
            let masked = system.with_failed_servers(&failed);
            let stale = alloc.replayed_onto(&masked);
            let naive_profit = evaluate(&masked, &drop_victims(&masked, &stale, &failed).0).profit;

            let masked_ctx = SolverCtx::new(&masked, &config);
            let mut scored = ScoredAllocation::lowered(&masked_ctx.compiled, stale);
            let stale_profit = scored.profit();
            let stats = repair_failed_servers(&masked_ctx, &mut scored, &failed);
            assert!(stats.victims > 0, "seed {seed}: failures must strand someone");
            assert_eq!(stats.redispersed + stats.replaced + stats.shed, stats.victims);

            let repaired_profit = scored.profit();
            assert!(
                repaired_profit >= naive_profit - 1e-9,
                "seed {seed}: repair {repaired_profit} lost to naive drop {naive_profit}"
            );
            assert!(repaired_profit >= stale_profit - 1e-9);

            let repaired = scored.into_allocation();
            for &s in &failed {
                assert!(repaired.residents(s).is_empty(), "mass left on failed {s}");
            }
            repaired.assert_consistent(&masked);
            // Shed victims are unassigned by design; nothing else may be
            // violated.
            assert!(check_feasibility(&masked, &repaired)
                .iter()
                .all(|v| matches!(v, Violation::Unassigned { .. })));
        }
    }

    #[test]
    fn repair_with_no_failures_is_a_no_op() {
        let system = generate(&ScenarioConfig::small(8), 5);
        let config = SolverConfig::default();
        let ctx = SolverCtx::new(&system, &config);
        let mut scored = greedy_scored(&ctx, &system);
        let before = scored.alloc().clone();
        let stats = repair_failed_servers(&ctx, &mut scored, &[]);
        assert_eq!(stats, RepairStats::default());
        assert_eq!(scored.alloc(), &before);
    }

    #[test]
    fn shed_pass_never_decreases_profit_and_respects_require_service() {
        let system = generate(&ScenarioConfig::small(14), 13);
        let config = SolverConfig::default();
        let ctx = SolverCtx::new(&system, &config);
        let mut scored = greedy_scored(&ctx, &system);
        let before = scored.profit();
        shed_unprofitable(&ctx, &mut scored);
        assert!(scored.profit() >= before - 1e-12);

        let strict = SolverConfig { require_service: true, ..Default::default() };
        let strict_ctx = SolverCtx::new(&system, &strict);
        let mut scored = greedy_scored(&strict_ctx, &system);
        assert_eq!(shed_unprofitable(&strict_ctx, &mut scored), 0);
    }

    #[test]
    fn repair_is_deterministic() {
        let system = generate(&ScenarioConfig::small(12), 19);
        let config = SolverConfig::default();
        let ctx = SolverCtx::new(&system, &config);
        let alloc = greedy_scored(&ctx, &system).into_allocation();
        let failed = pick_failed(&alloc, system.num_servers(), 3);
        let masked = system.with_failed_servers(&failed);
        let masked_ctx = SolverCtx::new(&masked, &config);

        let run = || {
            let mut scored =
                ScoredAllocation::lowered(&masked_ctx.compiled, alloc.replayed_onto(&masked));
            let stats = repair_failed_servers(&masked_ctx, &mut scored, &failed);
            (stats, scored.into_allocation())
        };
        let (s1, a1) = run();
        let (s2, a2) = run();
        assert_eq!(s1, s2);
        assert_eq!(a1, a2);
    }
}
