//! Property tests for the fault-repair path of the epoch loop.
//!
//! Two families:
//!
//! * **safety** — on arbitrary random fault traces, a repaired plan never
//!   keeps any α/φ mass on a failed server, the masked planning system
//!   stays model-valid, and every repair is profit-monotone over both the
//!   naive drop-the-victims baseline and doing nothing;
//! * **quality** — the incremental repair never trails a from-scratch
//!   re-solve on the surviving servers by more than a documented
//!   relative band, and when the escalation state machine fires, the adopted
//!   plan is *bit-for-bit* no worse than the escalation re-solve itself
//!   (same seed, same masked system — the determinism makes the re-solve
//!   exactly reproducible outside the manager).

use proptest::prelude::*;

use cloudalloc_core::{ops, solve, SolverConfig, SolverCtx};
use cloudalloc_epoch::{EpochConfig, EpochManager, EwmaPredictor, RepairPolicy};
use cloudalloc_model::{CloudSystem, ScoredAllocation, ServerId};
use cloudalloc_workload::{generate, FaultPlan, FaultPlanConfig, ScenarioConfig};

/// How far below a from-scratch re-solve on the surviving servers the
/// bare incremental repair may land, relative to the profit scale. The
/// repair preserves the surviving placement structure instead of
/// re-searching it, so on small systems where a failure invalidates
/// half the plan it can trail a global re-solve by up to half the
/// profit — the regime the escalation state machine exists for (it
/// adopts the re-solve whenever the repair degrades past the policy
/// threshold; see the escalation property below). Exceeding the
/// re-solve is unbounded and benign: repair keeps structure a fast
/// re-solve may fail to rediscover.
const REPAIR_VS_RESOLVE_TOLERANCE: f64 = 0.5;

fn manager(system: CloudSystem, policy: RepairPolicy, seed: u64) -> EpochManager<EwmaPredictor> {
    let base: Vec<f64> = system.clients().iter().map(|c| c.rate_predicted).collect();
    let predictor = EwmaPredictor::new(0.4, &base);
    let config = EpochConfig { solver: SolverConfig::fast(), repair: policy, ..Default::default() };
    EpochManager::new(system, predictor, config, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary fault traces: after every step the plan holds no mass on
    /// any down server, the masked system still validates, and each
    /// repair respects the monotone rescue chain.
    #[test]
    fn random_fault_traces_leave_no_mass_on_failed_servers(
        clients in 6usize..12,
        seed in any::<u64>(),
        fail_probability in 0.1f64..0.5,
    ) {
        let system = generate(&ScenarioConfig::small(clients), seed);
        let epochs = 5;
        let plan = FaultPlan::random(
            &FaultPlanConfig { fail_probability, ..Default::default() },
            system.num_servers(),
            system.num_clients(),
            epochs,
            seed ^ 0xFA17,
        );
        prop_assert!(plan.validate(system.num_servers(), system.num_clients()).is_ok());
        let rates: Vec<f64> = system.clients().iter().map(|c| c.rate_predicted).collect();
        let mut mgr = manager(system.clone(), RepairPolicy::default(), seed);
        for epoch in 0..epochs {
            let report = mgr.step_faulted(&rates, plan.events_at(epoch));
            let failed = mgr.failed_servers();
            // The masked planning system is still a valid model.
            let masked = system
                .with_predicted_rates(mgr.predicted_rates())
                .with_failed_servers(&failed);
            prop_assert!(masked.validate().is_ok(), "epoch {epoch}: masked system invalid");
            // No α/φ mass survives on a dead server, and the aggregates
            // agree with the placements they summarize.
            for &s in &failed {
                prop_assert!(
                    mgr.allocation().residents(s).is_empty(),
                    "epoch {epoch}: mass on failed server {s}"
                );
            }
            mgr.allocation().assert_consistent(&masked);
            if let Some(repair) = &report.repair {
                prop_assert!(repair.repaired_profit >= repair.naive_profit - 1e-9);
                prop_assert!(repair.naive_profit >= repair.stale_profit - 1e-9);
            }
        }
    }

    /// Incremental repair vs from-scratch re-solve on the survivors:
    /// same masked system, profits within the documented relative band.
    #[test]
    fn repair_tracks_a_fresh_resolve_within_tolerance(
        clients in 8usize..14,
        seed in any::<u64>(),
    ) {
        let system = generate(&ScenarioConfig::small(clients), seed);
        let config = SolverConfig::fast();
        let alloc = solve(&system, &config, seed).allocation;
        let active: Vec<ServerId> = alloc.active_servers().collect();
        prop_assume!(active.len() >= 2);
        let failed = &active[..active.len() / 2];

        let masked = system.with_failed_servers(failed);
        let ctx = SolverCtx::new(&masked, &config);
        let mut scored = ScoredAllocation::lowered(&ctx.compiled, alloc.replayed_onto(&masked));
        ops::repair_failed_servers(&ctx, &mut scored, failed);
        ops::shed_unprofitable(&ctx, &mut scored);
        let repaired = scored.profit();

        let resolved = solve(&masked, &config, seed).report.profit;
        let scale = resolved.abs().max(repaired.abs()).max(1.0);
        prop_assert!(
            repaired - resolved >= -REPAIR_VS_RESOLVE_TOLERANCE * scale,
            "repair {repaired} trailed the fresh re-solve {resolved} \
             beyond the {REPAIR_VS_RESOLVE_TOLERANCE} band"
        );
    }

    /// Forced escalation: with `degradation_threshold = ∞` every repair
    /// escalates, and the adopted plan must be at least as good as the
    /// escalation re-solve — which the fixed escalation seed lets us
    /// reproduce bit-for-bit outside the manager.
    #[test]
    fn escalation_is_bit_for_bit_reproducible(
        clients in 6usize..11,
        seed in any::<u64>(),
    ) {
        let system = generate(&ScenarioConfig::small(clients), seed);
        let rates: Vec<f64> = system.clients().iter().map(|c| c.rate_predicted).collect();
        let policy = RepairPolicy { degradation_threshold: f64::INFINITY, max_resolve_retries: 0 };
        let mut mgr = manager(system.clone(), policy, seed);
        let active: Vec<ServerId> = mgr.allocation().active_servers().collect();
        prop_assume!(!active.is_empty());
        let failed = vec![active[0]];

        // Reproduce the escalation re-solve exactly: the same masked
        // predicted system and the same derived seed the manager will use.
        let esc_seed = mgr.escalation_seed(0);
        let masked = system
            .with_predicted_rates(mgr.predicted_rates())
            .with_failed_servers(&failed);
        let expected = solve(&masked, &SolverConfig::fast(), esc_seed).report.profit;

        let events: Vec<_> = failed
            .iter()
            .map(|&server| cloudalloc_workload::FaultRecord {
                epoch: 0,
                event: cloudalloc_workload::FaultEvent::ServerFail { server },
            })
            .collect();
        let report = mgr.step_faulted(&rates, &events);
        let repair = report.repair.expect("failing an active server must repair");
        prop_assert!(repair.escalated, "∞ threshold must force escalation");
        prop_assert!(
            repair.repaired_profit >= expected - 1e-12,
            "adopted plan {} fell below the reproducible escalation re-solve {expected}",
            repair.repaired_profit
        );
    }
}
