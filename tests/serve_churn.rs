//! Churn chaos harness for the admission engine: seeded arrival and
//! departure storms interleaved with server failures, recoveries and
//! rate spikes from a [`FaultPlan`]. After every request the standing
//! state must hold three contracts:
//!
//! 1. the allocation is consistent with the masked population and
//!    violates no hard constraint (declined admission is the only
//!    tolerated violation class);
//! 2. the reported profit equals the batch scorer's verdict on the
//!    served population, bit for bit;
//! 3. a shed client is *gone*: the server never answers its next admit
//!    with `AlreadyAdmitted` — it gets a fresh decision.
//!
//! The storm is replayed twice from the same seed and must produce an
//! identical op log and profit trace: the engine has no hidden clock,
//! thread, or iteration-order dependence.

use std::collections::BTreeSet;

use cloudalloc::core::{solve, SolverConfig};
use cloudalloc::epoch::{escalation_seed, RepairPolicy};
use cloudalloc::model::{check_feasibility, evaluate, ClientId, Violation};
use cloudalloc::protocol::{ClientMessage, ModelOp, RejectReason, ServerMessage};
use cloudalloc::server::{Engine, EngineConfig, LogicalClock};
use cloudalloc::workload::{generate, FaultEvent, FaultPlan, FaultPlanConfig, ScenarioConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CLIENTS: usize = 22;
const STEPS: usize = 70;

fn storm_engine(seed: u64) -> Engine {
    let system = generate(&ScenarioConfig::paper(CLIENTS), 9000 + seed);
    let config = EngineConfig {
        solver: SolverConfig { num_threads: Some(1), ..SolverConfig::fast() },
        seed,
        // Fold only on explicit Tick steps so the storm controls cadence.
        epoch_every: 0,
        ..EngineConfig::default()
    };
    Engine::new(system, config)
}

fn storm_plan(seed: u64) -> FaultPlan {
    let config = FaultPlanConfig {
        fail_probability: 0.06,
        recover_probability: 0.5,
        spike_probability: 0.08,
        ..FaultPlanConfig::default()
    };
    let num_servers = generate(&ScenarioConfig::paper(CLIENTS), 9000 + seed).num_servers();
    FaultPlan::random(&config, num_servers, CLIENTS, STEPS, seed ^ 0xFA11)
}

/// Audits the engine's standing state after a mutation.
fn audit(engine: &Engine, step: usize) {
    let population = engine.masked_population();
    let allocation = engine.allocation();
    allocation.assert_consistent(&population);
    assert!(
        check_feasibility(&population, &allocation)
            .iter()
            .all(|v| matches!(v, Violation::Unassigned { .. })),
        "step {step}: allocation violates a hard constraint"
    );
    // Every admitted member holds a live contract: assigned to a cluster
    // with at least one placement carrying its traffic.
    for dense in 0..engine.members().len() {
        let d = ClientId(dense);
        assert!(
            allocation.cluster_of(d).is_some(),
            "step {step}: admitted client (dense {dense}) has no cluster"
        );
        assert!(
            !allocation.placements(d).is_empty(),
            "step {step}: admitted client (dense {dense}) has no placements"
        );
    }
    let batch = evaluate(&population, &allocation).profit;
    assert_eq!(
        engine.profit().to_bits(),
        batch.to_bits(),
        "step {step}: served profit {} != batch profit {batch}",
        engine.profit()
    );
}

/// Runs the storm and returns its observable trace: every op-log entry
/// plus the profit after each step, Debug-rendered.
fn run_storm(seed: u64) -> String {
    let mut engine = storm_engine(seed);
    let plan = storm_plan(seed);
    let clock = LogicalClock::new(1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57_04_12);
    let mut trace = String::new();
    let mut shed_ever: BTreeSet<usize> = BTreeSet::new();
    let mut req = 0u64;

    for step in 0..STEPS {
        // Fault storm first: the epoch's adversarial events land before
        // any client traffic, as in the epoch loop.
        for (log, op) in
            engine.apply_faults(&plan.events_at(step).iter().map(|r| r.event).collect::<Vec<_>>())
        {
            if let ModelOp::Shed { client } = op {
                shed_ever.insert(client.index());
            }
            trace.push_str(&format!("{}:{:?}\n", log.0, op));
        }
        audit(&engine, step);

        // Then a burst of client churn.
        for _ in 0..3 {
            req += 1;
            let client = ClientId(rng.gen_range(0..CLIENTS));
            let msg = match rng.gen_range(0..10u32) {
                0..=4 => ClientMessage::Admit { req, client },
                5..=6 => ClientMessage::Depart { req, client },
                7..=8 => ClientMessage::Renegotiate {
                    req,
                    client,
                    rate_agreed: 0.5 + rng.gen_range(0.0..2.0f64),
                    rate_predicted: 0.5 + rng.gen_range(0.0..2.0f64),
                },
                _ => ClientMessage::Tick { req },
            };
            let was_shed = matches!(msg, ClientMessage::Admit { client, .. }
                if shed_ever.contains(&client.index()) && !engine.is_admitted(client));
            let outcome = engine.handle(&msg, &clock);
            if was_shed {
                // Contract 3: a shed client's re-admit is a fresh decision.
                assert!(
                    !matches!(
                        outcome.response,
                        ServerMessage::Rejected { reason: RejectReason::AlreadyAdmitted, .. }
                    ),
                    "step {step}: shed client answered AlreadyAdmitted"
                );
            }
            for (log, op) in &outcome.ops {
                if let ModelOp::Shed { client } = op {
                    shed_ever.insert(client.index());
                    assert!(
                        !engine.is_admitted(*client),
                        "step {step}: client {client:?} still admitted after Shed op"
                    );
                }
                trace.push_str(&format!("{}:{:?}\n", log.0, op));
            }
            trace.push_str(&format!("{:?}\n", outcome.response));
            audit(&engine, step);
        }
        trace.push_str(&format!("profit={:?}\n", engine.profit()));
    }

    // Epilogue: explicitly re-admit every client the storm ever shed and
    // demand a fresh verdict for each.
    for &c in &shed_ever {
        let client = ClientId(c);
        if engine.is_admitted(client) {
            continue;
        }
        req += 1;
        let outcome = engine.handle(&ClientMessage::Admit { req, client }, &clock);
        assert!(
            matches!(
                outcome.response,
                ServerMessage::Admitted { .. }
                    | ServerMessage::Rejected { reason: RejectReason::Unprofitable, .. }
            ),
            "shed client {c} re-admit got {:?}",
            outcome.response
        );
        audit(&engine, STEPS);
    }

    let stats = engine.stats();
    trace.push_str(&format!(
        "final profit={:?} admitted={} requests={} shed={} folds={}\n",
        engine.profit(),
        engine.members().len(),
        stats.requests,
        stats.shed,
        stats.folds,
    ));
    trace
}

#[test]
fn churn_storm_keeps_contracts_valid() {
    let trace = run_storm(11);
    // The storm must actually exercise the machinery it claims to test.
    assert!(trace.contains("Admitted"), "storm admitted nobody");
    assert!(trace.contains("ServerDown"), "fault plan failed no server");
    assert!(trace.contains("profit="), "no profit trace recorded");
}

#[test]
fn churn_storm_replays_bit_identically() {
    let first = run_storm(23);
    let second = run_storm(23);
    assert_eq!(first, second, "same seed, different op log");
}

#[test]
fn churn_storm_other_seed_also_holds() {
    // A second seed guards against invariants that hold by accident of
    // one particular storm shape.
    let trace = run_storm(37);
    assert!(trace.contains("final profit="));
}

#[test]
fn forced_escalation_keeps_at_least_the_reproducible_resolve() {
    // An infinite degradation threshold escalates every repair. The
    // escalation re-solve is reproducible outside the engine from its
    // documented seed, and the engine must adopt a plan at least as good.
    for seed in [3_u64, 17, 41] {
        let solver = SolverConfig { num_threads: Some(1), ..SolverConfig::fast() };
        let config = EngineConfig {
            solver: solver.clone(),
            repair: RepairPolicy { degradation_threshold: f64::INFINITY, max_resolve_retries: 0 },
            seed,
            epoch_every: 0,
            ..EngineConfig::default()
        };
        let mut engine =
            Engine::new(generate(&ScenarioConfig::paper(CLIENTS), 9000 + seed), config);
        let clock = LogicalClock::new(1);
        for c in 0..CLIENTS {
            engine.handle(&ClientMessage::Admit { req: c as u64, client: ClientId(c) }, &clock);
        }
        assert!(engine.profit() > 0.0, "seed {seed}: escalation needs a profitable reference");

        let server = engine.allocation().active_servers().next().expect("someone was admitted");
        let masked = engine.masked_population().with_failed_servers(&[server]);
        let resolve = solve(&masked, &solver, escalation_seed(seed, 0));
        let resolve_profit = evaluate(&masked, &resolve.allocation).profit;

        engine.apply_faults(&[FaultEvent::ServerFail { server }]);
        assert!(
            engine.allocation().residents(server).is_empty(),
            "seed {seed}: mass left on failed {server}"
        );
        assert!(
            engine.profit() >= resolve_profit - 1e-9 * resolve_profit.abs(),
            "seed {seed}: engine profit {} fell below the escalation re-solve {resolve_profit}",
            engine.profit()
        );
    }
}
