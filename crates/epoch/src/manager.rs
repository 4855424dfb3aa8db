//! The epoch loop: predict → (re-)allocate → realize → score — and, when
//! faults strike mid-epoch, repair → shed → escalate.

use serde::{Deserialize, Serialize};

use cloudalloc_core::{improve, solve, SolverConfig, SolverCtx};
use cloudalloc_model::{evaluate, Allocation, ClientId, CloudSystem, ServerId};
use cloudalloc_telemetry as telemetry;
use cloudalloc_workload::{FaultEvent, FaultRecord};

use crate::predictor::RatePredictor;
use crate::repair::{escalation_seed, repair_escalate, RepairPolicy, RepairReport};

/// Configuration of the epoch manager.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochConfig {
    /// Solver settings used for both full solves and warm re-optimizes.
    pub solver: SolverConfig,
    /// Relative change in total predicted processing demand that triggers
    /// a full re-solve instead of a warm-started local search — the
    /// paper's "large changes cannot be handled by the local managers".
    pub resolve_threshold: f64,
    /// Policy of the fault-repair state machine.
    pub repair: RepairPolicy,
}

impl Default for EpochConfig {
    fn default() -> Self {
        Self {
            solver: SolverConfig::default(),
            resolve_threshold: 0.15,
            repair: RepairPolicy::default(),
        }
    }
}

/// Outcome of one epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Whether a full re-solve ran (vs a warm-started local search).
    pub resolved_fully: bool,
    /// Profit the allocator *expected* under the predicted rates.
    pub predicted_profit: f64,
    /// Profit actually realized under the true rates.
    pub actual_profit: f64,
    /// Served clients whose queues turned unstable under the true rates
    /// (SLA blown because prediction under-shot).
    pub unstable_clients: usize,
    /// Active servers at the end of the epoch.
    pub active_servers: usize,
    /// Mean absolute relative prediction error of this epoch.
    pub prediction_error: f64,
    /// Present when fault events forced a mid-epoch repair.
    pub repair: Option<RepairReport>,
}

/// Runs the allocator across decision epochs.
///
/// Each [`EpochManager::step`] receives the rates that *actually*
/// materialized during the epoch, scores the standing allocation against
/// them, feeds the predictor, and prepares the next epoch's allocation —
/// warm-starting from the previous one unless predicted demand moved by
/// more than [`EpochConfig::resolve_threshold`].
#[derive(Debug)]
pub struct EpochManager<P> {
    base: CloudSystem,
    predictor: P,
    config: EpochConfig,
    allocation: Allocation,
    predicted: Vec<f64>,
    epoch: usize,
    seed: u64,
    /// Per-server down flags maintained from fault events.
    down: Vec<bool>,
}

impl<P: RatePredictor> EpochManager<P> {
    /// Creates a manager and computes the epoch-0 allocation from the
    /// predictor's initial rates.
    pub fn new(base: CloudSystem, predictor: P, config: EpochConfig, seed: u64) -> Self {
        let predicted = predictor.predict();
        let system = base.with_predicted_rates(&predicted);
        let result = solve(&system, &config.solver, seed);
        let down = vec![false; base.num_servers()];
        Self {
            base,
            predictor,
            config,
            allocation: result.allocation,
            predicted,
            epoch: 0,
            seed,
            down,
        }
    }

    /// The allocation currently in force (computed against the predicted
    /// rates of the ongoing epoch).
    pub fn allocation(&self) -> &Allocation {
        &self.allocation
    }

    /// The rates the current allocation was planned for.
    pub fn predicted_rates(&self) -> &[f64] {
        &self.predicted
    }

    /// Servers currently down (ascending id).
    pub fn failed_servers(&self) -> Vec<ServerId> {
        self.down.iter().enumerate().filter(|&(_, &d)| d).map(|(j, _)| ServerId(j)).collect()
    }

    /// Seed of the `retry`-th escalation re-solve of the *current* epoch.
    /// Public so tests can reproduce escalation results bit-for-bit.
    pub fn escalation_seed(&self, retry: u64) -> u64 {
        escalation_seed(self.seed, retry)
    }

    /// Closes the current epoch with the rates that actually occurred and
    /// prepares the next epoch's allocation.
    ///
    /// Equivalent to [`EpochManager::step_faulted`] with no fault events.
    ///
    /// # Panics
    ///
    /// Panics if `actual_rates` does not hold one positive rate per
    /// client.
    pub fn step(&mut self, actual_rates: &[f64]) -> EpochReport {
        self.step_faulted(actual_rates, &[])
    }

    /// Closes the current epoch under adversity: applies this epoch's
    /// fault events (failures flip servers down, recoveries bring them
    /// back, rate spikes multiply the *realized* rates), repairs the
    /// standing allocation in place when a failure strands clients, then
    /// runs the regular close-and-plan cycle against the masked system.
    ///
    /// With no events and no standing failures this is bit-identical to
    /// the fault-free [`EpochManager::step`].
    ///
    /// # Panics
    ///
    /// Panics if `actual_rates` does not hold one positive rate per
    /// client, an event references an out-of-range id, or a spike factor
    /// is not positive and finite.
    pub fn step_faulted(&mut self, actual_rates: &[f64], events: &[FaultRecord]) -> EpochReport {
        // 0. Apply the epoch's fault events.
        let mut spiked = actual_rates.to_vec();
        for rec in events {
            match rec.event {
                FaultEvent::ServerFail { server } => self.down[server.index()] = true,
                FaultEvent::ServerRecover { server } => self.down[server.index()] = false,
                FaultEvent::RateSpike { client, factor } => {
                    assert!(
                        factor.is_finite() && factor > 0.0,
                        "spike factor must be positive, got {factor}"
                    );
                    spiked[client.index()] *= factor;
                }
            }
        }
        let failed = self.failed_servers();

        // 1. Repair mid-epoch when the standing allocation still holds
        //    mass on a dead server (recoveries alone need no repair; the
        //    next planning step simply sees the capacity again).
        let repair = failed
            .iter()
            .any(|&s| !self.allocation.residents(s).is_empty())
            .then(|| self.repair(&failed));

        // 2. Score the (possibly repaired) allocation against reality.
        let predicted_system =
            self.base.with_predicted_rates(&self.predicted).with_failed_servers(&failed);
        let predicted_profit = evaluate(&predicted_system, &self.allocation).profit;
        let actual_system = self.base.with_predicted_rates(&spiked).with_failed_servers(&failed);
        let realized_alloc = self.allocation.replayed_onto(&actual_system);
        let actual_report = evaluate(&actual_system, &realized_alloc);
        let unstable_clients = actual_report
            .clients
            .iter()
            .enumerate()
            .filter(|(i, outcome)| {
                !realized_alloc.placements(ClientId(*i)).is_empty()
                    && !outcome.response_time.is_finite()
            })
            .count();
        // Error against the spiked reality: a spike the predictor did not
        // see is a prediction miss like any other.
        let prediction_error =
            self.predicted.iter().zip(&spiked).map(|(p, a)| (p - a).abs() / a).sum::<f64>()
                / spiked.len().max(1) as f64;

        let report = EpochReport {
            epoch: self.epoch,
            resolved_fully: false,
            predicted_profit,
            actual_profit: actual_report.profit,
            unstable_clients,
            active_servers: actual_report.active_servers,
            prediction_error,
            repair,
        };

        // 3. Learn and plan the next epoch. Spikes are transient, so the
        //    predictor learns the *base* realized rates; the down-set
        //    masks the planning system until recoveries clear it.
        self.predictor.observe(actual_rates);
        let next_predicted = self.predictor.predict();
        let old_demand: f64 = self.predicted.iter().sum();
        let new_demand: f64 = next_predicted.iter().sum();
        let shift = (new_demand - old_demand).abs() / old_demand.max(1e-9);
        let next_system =
            self.base.with_predicted_rates(&next_predicted).with_failed_servers(&failed);
        self.epoch += 1;
        self.seed = self.seed.wrapping_add(1);

        let mut resolved_fully = false;
        if shift > self.config.resolve_threshold {
            // Large change: full re-solve at the cloud level.
            telemetry::counter!("epoch.full_resolves").incr();
            resolved_fully = true;
            let _span = telemetry::span!("epoch.resolve");
            self.allocation = solve(&next_system, &self.config.solver, self.seed).allocation;
        } else {
            // Small change: keep the assignment, re-run the local search
            // from the previous epoch's state (the paper's warm start).
            // Building the context re-lowers the mutated system into its
            // compiled runtime view — the one lowering step of this epoch.
            telemetry::counter!("epoch.warm_starts").incr();
            let _span = telemetry::span!("epoch.warm_start");
            let ctx = SolverCtx::new(&next_system, &self.config.solver);
            let mut warm = self.allocation.replayed_onto(&next_system);
            improve(&ctx, &mut warm, self.seed);
            self.allocation = warm;
        }
        self.predicted = next_predicted;

        // Plan-vs-realized record, mirroring the fields `OperationsLog`
        // aggregates, so offline telemetry analysis sees the same signal.
        telemetry::Event::new("epoch")
            .field_u64("epoch", report.epoch as u64)
            .field_bool("resolved_fully", resolved_fully)
            .field_f64("predicted_profit", report.predicted_profit)
            .field_f64("actual_profit", report.actual_profit)
            .field_f64("prediction_error", report.prediction_error)
            .field_u64("unstable_clients", report.unstable_clients as u64)
            .field_u64("active_servers", report.active_servers as u64)
            .emit();

        EpochReport { resolved_fully, ..report }
    }

    /// Runs [`repair_escalate`] mid-epoch against the masked predicted
    /// system, measuring degradation against what this epoch was expected
    /// to earn, and adopts its allocation.
    fn repair(&mut self, failed: &[ServerId]) -> RepairReport {
        let _span = telemetry::span!("epoch.repair");
        telemetry::counter!("epoch.repairs").incr();

        let pre_fault = self.base.with_predicted_rates(&self.predicted);
        let reference = evaluate(&pre_fault, &self.allocation).profit;
        let masked = pre_fault.with_failed_servers(failed);
        let stale = self.allocation.replayed_onto(&masked);
        let (repaired, report) = repair_escalate(
            &masked,
            stale,
            failed,
            reference,
            &self.config.solver,
            self.config.repair,
            self.seed,
        );
        self.allocation = repaired;

        telemetry::Event::new("epoch.repair")
            .field_u64("epoch", self.epoch as u64)
            .field_u64("failed_servers", report.failed_servers as u64)
            .field_u64("victims", report.victims as u64)
            .field_u64("shed", (report.shed + report.shed_low_utility) as u64)
            .field_f64("stale_profit", report.stale_profit)
            .field_f64("naive_profit", report.naive_profit)
            .field_f64("repaired_profit", report.repaired_profit)
            .field_bool("escalated", report.escalated)
            .emit();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::{DriftConfig, WorkloadDrift};
    use crate::predictor::EwmaPredictor;
    use cloudalloc_model::check_feasibility;
    use cloudalloc_workload::{generate, ScenarioConfig};

    fn base_rates(system: &CloudSystem) -> Vec<f64> {
        system.clients().iter().map(|c| c.rate_predicted).collect()
    }

    fn manager(seed: u64) -> (EpochManager<EwmaPredictor>, Vec<f64>) {
        let system = generate(&ScenarioConfig::paper(15), seed);
        let rates = base_rates(&system);
        let predictor = EwmaPredictor::new(0.4, &rates);
        let config = EpochConfig { solver: SolverConfig::fast(), ..Default::default() };
        (EpochManager::new(system, predictor, config, seed), rates)
    }

    #[test]
    fn stable_workloads_warm_start_and_stay_profitable() {
        let (mut mgr, rates) = manager(301);
        for epoch in 0..4 {
            let report = mgr.step(&rates);
            assert_eq!(report.epoch, epoch);
            assert!(!report.resolved_fully, "no demand shift, no full solve");
            assert_eq!(report.unstable_clients, 0);
            assert!(report.actual_profit > 0.0);
            assert!(report.prediction_error < 1e-9);
        }
    }

    #[test]
    fn large_demand_shift_triggers_full_resolve() {
        let (mut mgr, rates) = manager(302);
        let surged: Vec<f64> = rates.iter().map(|r| r * 2.0).collect();
        let report = mgr.step(&surged);
        // The EWMA moved predictions by ~40% > threshold.
        assert!(report.resolved_fully);
        assert!((report.prediction_error - 0.5).abs() < 1e-9); // |r − 2r| / 2r
    }

    #[test]
    fn under_predicted_surges_blow_slas_then_recover() {
        let (mut mgr, rates) = manager(303);
        let surged: Vec<f64> = rates.iter().map(|r| r * 3.0).collect();
        // Epoch 0: the allocation was sized for the base rates, reality
        // tripled — some queues must collapse.
        let hit = mgr.step(&surged);
        assert!(hit.unstable_clients > 0, "tripled load should destabilize someone");
        // Keep the surge: the re-planned epoch absorbs it.
        let recovered = mgr.step(&surged);
        assert!(
            recovered.unstable_clients <= hit.unstable_clients,
            "re-planning must not make stability worse"
        );
        assert!(recovered.actual_profit >= hit.actual_profit - 1e-9);
    }

    #[test]
    fn allocations_stay_feasible_across_drifting_epochs() {
        let (mut mgr, rates) = manager(304);
        let mut drift = WorkloadDrift::new(DriftConfig::default(), &rates, 5);
        for _ in 0..5 {
            let actual = drift.step();
            let _ = mgr.step(&actual);
            // The standing allocation is always feasible for its
            // *predicted* system.
            let predicted_system = mgr.base.with_predicted_rates(mgr.predicted_rates());
            let violations = check_feasibility(&predicted_system, mgr.allocation());
            assert!(
                violations
                    .iter()
                    .all(|v| matches!(v, cloudalloc_model::Violation::Unassigned { .. })),
                "violations: {violations:?}"
            );
        }
    }

    #[test]
    fn last_value_predictor_also_drives_the_manager() {
        use crate::predictor::LastValue;
        let system = generate(&ScenarioConfig::paper(10), 306);
        let rates = base_rates(&system);
        let config = EpochConfig { solver: SolverConfig::fast(), ..Default::default() };
        let mut mgr = EpochManager::new(system, LastValue::new(&rates), config, 1);
        let bumped: Vec<f64> = rates.iter().map(|r| r * 1.05).collect();
        let first = mgr.step(&bumped);
        assert!(first.prediction_error > 0.04);
        // After observing, last-value predicts the bumped rates exactly.
        let second = mgr.step(&bumped);
        assert!(second.prediction_error < 1e-9);
    }

    #[test]
    fn epoch_loop_is_deterministic() {
        let run = || {
            let (mut mgr, rates) = manager(305);
            let mut drift = WorkloadDrift::new(DriftConfig::default(), &rates, 9);
            (0..3).map(|_| mgr.step(&drift.step()).actual_profit).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn step_faulted_without_events_matches_step() {
        let (mut plain, rates) = manager(307);
        let (mut faulted, _) = manager(307);
        for _ in 0..3 {
            assert_eq!(plain.step(&rates), faulted.step_faulted(&rates, &[]));
        }
    }

    #[test]
    fn failures_trigger_repair_that_beats_the_naive_baseline() {
        let (mut mgr, rates) = manager(308);
        let failed: Vec<ServerId> = mgr.allocation.active_servers().take(2).collect();
        assert_eq!(failed.len(), 2, "scenario too small to fail two servers");
        let events: Vec<FaultRecord> = failed
            .iter()
            .map(|&server| FaultRecord { epoch: 0, event: FaultEvent::ServerFail { server } })
            .collect();
        let report = mgr.step_faulted(&rates, &events);
        let repair = report.repair.expect("stranded clients force a repair");
        assert_eq!(repair.failed_servers, 2);
        assert!(repair.victims > 0);
        assert_eq!(repair.redispersed + repair.replaced + repair.shed, repair.victims);
        // Profit monotone: repaired ≥ naive drop ≥ doing nothing.
        assert!(repair.naive_profit >= repair.stale_profit - 1e-9);
        assert!(repair.repaired_profit >= repair.naive_profit - 1e-9);
        // The next plan keeps dead servers empty.
        assert_eq!(mgr.failed_servers(), failed);
        for &s in &failed {
            assert!(mgr.allocation().residents(s).is_empty(), "plan placed load on dead {s}");
        }
    }

    #[test]
    fn rate_spikes_perturb_realized_rates_only() {
        let (mut mgr, rates) = manager(311);
        let spike = FaultRecord {
            epoch: 0,
            event: FaultEvent::RateSpike { client: ClientId(0), factor: 4.0 },
        };
        let report = mgr.step_faulted(&rates, &[spike]);
        assert!(report.repair.is_none(), "spikes alone never trigger server repair");
        // One client spiked 4x: its relative error is 0.75, averaged over n.
        let expect = 0.75 / rates.len() as f64;
        assert!((report.prediction_error - expect).abs() < 1e-9);
    }

    #[test]
    fn recovery_restores_capacity_and_profit() {
        let (mut mgr, rates) = manager(309);
        let active: Vec<ServerId> = mgr.allocation.active_servers().collect();
        let subset = &active[..active.len() / 2];
        let fail: Vec<FaultRecord> = subset
            .iter()
            .map(|&server| FaultRecord { epoch: 0, event: FaultEvent::ServerFail { server } })
            .collect();
        let hit = mgr.step_faulted(&rates, &fail);
        assert!(!mgr.failed_servers().is_empty());
        let recover: Vec<FaultRecord> = subset
            .iter()
            .map(|&server| FaultRecord { epoch: 1, event: FaultEvent::ServerRecover { server } })
            .collect();
        mgr.step_faulted(&rates, &recover);
        assert!(mgr.failed_servers().is_empty());
        // With every server back and demand unchanged, the re-planned
        // epoch earns at least what the degraded one did.
        let healed = mgr.step(&rates);
        assert!(healed.actual_profit >= hit.actual_profit - 1e-9);
    }

    #[test]
    fn escalation_adopts_the_full_resolve_or_keeps_a_better_repair() {
        let (mut mgr, rates) = manager(312);
        mgr.config.repair =
            RepairPolicy { degradation_threshold: f64::INFINITY, max_resolve_retries: 0 };
        let failed: Vec<ServerId> = mgr.allocation.active_servers().collect();
        let masked =
            mgr.base.with_predicted_rates(mgr.predicted_rates()).with_failed_servers(&failed);
        let esc_seed = mgr.escalation_seed(0);
        let solver = mgr.config.solver.clone();
        let events: Vec<FaultRecord> = failed
            .iter()
            .map(|&server| FaultRecord { epoch: 0, event: FaultEvent::ServerFail { server } })
            .collect();
        let report = mgr.step_faulted(&rates, &events);
        let repair = report.repair.expect("failing every active server strands everyone");
        assert!(repair.escalated, "an infinite threshold always escalates");
        assert_eq!(repair.resolve_retries, 0);
        // The escalation solve is reproducible from the documented seed:
        // either it won and the standing-at-repair-time allocation IS its
        // result bit-for-bit, or the incremental repair was at least as
        // good and was kept.
        let resolve = solve(&masked, &solver, esc_seed);
        let resolve_profit = evaluate(&masked, &resolve.allocation).profit;
        assert!(
            repair.repaired_profit >= resolve_profit - 1e-9,
            "escalation must keep the best of repair and re-solve"
        );
    }
}
