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
//! Every Admit, Depart and Renegotiate is also checked against an
//! oracle: the rebuild-per-request decision ([`oracle::decide`]), which
//! re-derives the population, lowering and allocation from the engine's
//! public state before the request. The engine keeps that state in place
//! across requests, and its answer must match the oracle's in kind,
//! cluster or reason, emitted placements and profit bits.
//!
//! The storm is replayed twice from the same seed and must produce an
//! identical op log and profit trace: the engine has no hidden clock,
//! thread, or iteration-order dependence.

use std::collections::BTreeSet;

use cloudalloc::core::{solve, SolverConfig};
use cloudalloc::epoch::{escalation_seed, RepairPolicy};
use cloudalloc::model::{check_feasibility, evaluate, ClientId, CloudSystem, Violation};
use cloudalloc::protocol::{ClientMessage, LogPosition, ModelOp, RejectReason, ServerMessage};
use cloudalloc::server::{Clock, Engine, EngineConfig, LogicalClock, Outcome};
use cloudalloc::workload::{generate, FaultEvent, FaultPlan, FaultPlanConfig, ScenarioConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Test support: the engine's decision as it was made by rebuilding the
/// world on every request, kept as a stateless function of the engine's
/// public state.
mod oracle {
    use cloudalloc::core::{best_cluster, commit_scored, SolverConfig, SolverCtx};
    use cloudalloc::model::{
        evaluate, Allocation, ClientId, CloudSystem, ClusterId, Placement, ScoredAllocation,
        ServerId,
    };
    use cloudalloc::protocol::{ClientMessage, ModelOp, RejectReason, ServerMessage};
    use cloudalloc::server::{Engine, Outcome};

    /// The part of an answer the engine must reproduce: the response
    /// kind, cluster or reject reason, the emitted placements as
    /// `[server, alpha, phi_p, phi_c]` bits, and the profit bits.
    #[derive(Debug, PartialEq, Eq)]
    pub enum Verdict {
        Admitted { cluster: ClusterId, placements: Vec<[u64; 4]>, profit: u64 },
        Renegotiated { cluster: ClusterId, placements: Vec<[u64; 4]>, profit: u64 },
        Departed { profit: u64 },
        Rejected(RejectReason),
    }

    fn bits(placements: impl IntoIterator<Item = (ServerId, Placement)>) -> Vec<[u64; 4]> {
        placements
            .into_iter()
            .map(|(s, p)| {
                [s.index() as u64, p.alpha.to_bits(), p.phi_p.to_bits(), p.phi_c.to_bits()]
            })
            .collect()
    }

    /// What rebuilding the world decides for `msg`, given the engine's
    /// state before it and each universe client's current
    /// `(rate_agreed, rate_predicted)`. `None` for request kinds it does
    /// not judge.
    pub fn decide(
        engine: &Engine,
        universe: &CloudSystem,
        rates: &[(f64, f64)],
        solver: &SolverConfig,
        msg: &ClientMessage,
    ) -> Option<Verdict> {
        let reject = |reason| Some(Verdict::Rejected(reason));
        let dense_of = |u: ClientId| engine.members().iter().position(|&m| m == u).map(ClientId);
        match *msg {
            ClientMessage::Admit { client: u, .. } => {
                if u.index() >= universe.num_clients() {
                    return reject(RejectReason::UnknownClient);
                }
                if engine.is_admitted(u) {
                    return reject(RejectReason::AlreadyAdmitted);
                }
                let mut grown = engine.masked_population();
                let dense = ClientId(grown.num_clients());
                let mut applicant = universe.client(u).clone();
                applicant.id = dense;
                (applicant.rate_agreed, applicant.rate_predicted) = rates[u.index()];
                grown.add_client(applicant);
                let Some((cluster, alloc)) =
                    place(&grown, engine.allocation(), dense, solver, false)
                else {
                    return reject(RejectReason::Unprofitable);
                };
                Some(Verdict::Admitted {
                    cluster,
                    placements: bits(alloc.placements(dense).iter().copied()),
                    profit: evaluate(&grown, &alloc).profit.to_bits(),
                })
            }
            ClientMessage::Depart { client: u, .. } => {
                if u.index() >= universe.num_clients() {
                    return reject(RejectReason::UnknownClient);
                }
                let Some(gone) = dense_of(u) else {
                    return reject(RejectReason::NotAdmitted);
                };
                let population = engine.masked_population();
                let old = engine.allocation();
                let survivors: Vec<ClientId> =
                    (0..population.num_clients()).map(ClientId).filter(|&d| d != gone).collect();
                let clients = survivors
                    .iter()
                    .enumerate()
                    .map(|(new, &d)| {
                        let mut c = population.client(d).clone();
                        c.id = ClientId(new);
                        c
                    })
                    .collect();
                let rest = population.try_with_clients(clients).expect("survivors re-validate");
                let mut alloc = Allocation::new(&rest);
                for (new, &d) in survivors.iter().enumerate() {
                    if let Some(cluster) = old.cluster_of(d) {
                        alloc.assign_cluster(ClientId(new), cluster);
                        for &(server, p) in old.placements(d) {
                            alloc.place(&rest, ClientId(new), server, p);
                        }
                    }
                }
                Some(Verdict::Departed { profit: evaluate(&rest, &alloc).profit.to_bits() })
            }
            ClientMessage::Renegotiate { client: u, rate_agreed, rate_predicted, .. } => {
                if u.index() >= universe.num_clients() {
                    return reject(RejectReason::UnknownClient);
                }
                let valid = |r: f64| r.is_finite() && r > 0.0;
                if !(valid(rate_agreed) && valid(rate_predicted)) {
                    return reject(RejectReason::InvalidRates);
                }
                let Some(dense) = dense_of(u) else {
                    return reject(RejectReason::NotAdmitted);
                };
                let population = engine.masked_population();
                let mut clients = population.clients().to_vec();
                (clients[dense.index()].rate_agreed, clients[dense.index()].rate_predicted) =
                    (rate_agreed, rate_predicted);
                let renegotiated =
                    population.try_with_clients(clients).expect("renegotiated rates validate");
                let Some((cluster, alloc)) =
                    place(&renegotiated, engine.allocation(), dense, solver, true)
                else {
                    return reject(RejectReason::Unprofitable);
                };
                Some(Verdict::Renegotiated {
                    cluster,
                    placements: bits(alloc.placements(dense).iter().copied()),
                    profit: evaluate(&renegotiated, &alloc).profit.to_bits(),
                })
            }
            _ => None,
        }
    }

    /// Replays `alloc` onto `system`, lowers it afresh and commits the
    /// best profitable seat for `client` (cleared first when `reseat`).
    /// Returns the chosen cluster and the replayed result, or `None` when
    /// no seat is profitable.
    fn place(
        system: &CloudSystem,
        alloc: Allocation,
        client: ClientId,
        solver: &SolverConfig,
        reseat: bool,
    ) -> Option<(ClusterId, Allocation)> {
        let ctx = SolverCtx::new(system, solver);
        let mut scored = ScoredAllocation::lowered(&ctx.compiled, alloc.replayed_onto(system));
        if reseat {
            scored.clear_client(client);
        }
        let candidate = best_cluster(&ctx, scored.alloc(), client).filter(|c| c.score > 0.0)?;
        commit_scored(&mut scored, client, &candidate);
        Some((candidate.cluster, scored.into_allocation().replayed_onto(system)))
    }

    /// The engine's answer to one request, in [`Verdict`] form.
    pub fn observed(outcome: &Outcome) -> Option<Verdict> {
        let placed = |i: usize| match outcome.ops.get(i).map(|(_, op)| op) {
            Some(ModelOp::Admitted { cluster, placements, .. })
            | Some(ModelOp::Placements { cluster, placements, .. }) => (
                *cluster,
                bits(placements.iter().map(|w| {
                    (w.server, Placement { alpha: w.alpha, phi_p: w.phi_p, phi_c: w.phi_c })
                })),
            ),
            other => panic!("op {i} is {other:?}, not a placement"),
        };
        match outcome.response {
            ServerMessage::Admitted { profit, .. } => {
                let (cluster, placements) = placed(0);
                Some(Verdict::Admitted { cluster, placements, profit: profit.to_bits() })
            }
            ServerMessage::Renegotiated { profit, .. } => {
                let (cluster, placements) = placed(1);
                Some(Verdict::Renegotiated { cluster, placements, profit: profit.to_bits() })
            }
            ServerMessage::Departed { profit, .. } => {
                Some(Verdict::Departed { profit: profit.to_bits() })
            }
            ServerMessage::Rejected { reason, .. } => Some(Verdict::Rejected(reason)),
            _ => None,
        }
    }
}

/// An engine whose every Admit, Depart and Renegotiate is checked
/// against [`oracle::decide`].
struct Checked {
    engine: Engine,
    universe: CloudSystem,
    solver: SolverConfig,
    /// Current rates per universe client, mirrored from the op log.
    rates: Vec<(f64, f64)>,
}

impl Checked {
    fn new(universe: CloudSystem, config: EngineConfig) -> Self {
        let rates = universe.clients().iter().map(|c| (c.rate_agreed, c.rate_predicted)).collect();
        let solver = config.solver.clone();
        Self { engine: Engine::new(universe.clone(), config), universe, solver, rates }
    }

    fn handle(&mut self, msg: &ClientMessage, clock: &dyn Clock) -> Outcome {
        let expected = oracle::decide(&self.engine, &self.universe, &self.rates, &self.solver, msg);
        let outcome = self.engine.handle(msg, clock);
        assert_eq!(oracle::observed(&outcome), expected, "{msg:?} left the oracle's decision");
        self.mirror(&outcome.ops);
        outcome
    }

    fn apply_faults(&mut self, events: &[FaultEvent]) -> Vec<(LogPosition, ModelOp)> {
        let ops = self.engine.apply_faults(events);
        self.mirror(&ops);
        ops
    }

    fn mirror(&mut self, ops: &[(LogPosition, ModelOp)]) {
        for (_, op) in ops {
            if let ModelOp::Renegotiated { client, rate_agreed, rate_predicted } = *op {
                self.rates[client.index()] = (rate_agreed, rate_predicted);
            }
        }
    }
}

const CLIENTS: usize = 22;
const STEPS: usize = 70;

/// A single-threaded engine that folds only on explicit Tick steps, so
/// the storm controls cadence.
fn storm_config(seed: u64) -> EngineConfig {
    EngineConfig {
        solver: SolverConfig { num_threads: Some(1), ..SolverConfig::fast() },
        seed,
        epoch_every: 0,
        ..EngineConfig::default()
    }
}

fn storm_engine(seed: u64) -> Checked {
    Checked::new(generate(&ScenarioConfig::paper(CLIENTS), 9000 + seed), storm_config(seed))
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
    let mut checked = storm_engine(seed);
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
            checked.apply_faults(&plan.events_at(step).iter().map(|r| r.event).collect::<Vec<_>>())
        {
            if let ModelOp::Shed { client } = op {
                shed_ever.insert(client.index());
            }
            trace.push_str(&format!("{}:{:?}\n", log.0, op));
        }
        audit(&checked.engine, step);

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
                if shed_ever.contains(&client.index()) && !checked.engine.is_admitted(client));
            let outcome = checked.handle(&msg, &clock);
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
                        !checked.engine.is_admitted(*client),
                        "step {step}: client {client:?} still admitted after Shed op"
                    );
                }
                trace.push_str(&format!("{}:{:?}\n", log.0, op));
            }
            trace.push_str(&format!("{:?}\n", outcome.response));
            audit(&checked.engine, step);
        }
        trace.push_str(&format!("profit={:?}\n", checked.engine.profit()));
    }

    // Epilogue: explicitly re-admit every client the storm ever shed and
    // demand a fresh verdict for each.
    for &c in &shed_ever {
        let client = ClientId(c);
        if checked.engine.is_admitted(client) {
            continue;
        }
        req += 1;
        let outcome = checked.handle(&ClientMessage::Admit { req, client }, &clock);
        assert!(
            matches!(
                outcome.response,
                ServerMessage::Admitted { .. }
                    | ServerMessage::Rejected { reason: RejectReason::Unprofitable, .. }
            ),
            "shed client {c} re-admit got {:?}",
            outcome.response
        );
        audit(&checked.engine, STEPS);
    }

    let engine = &checked.engine;
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

#[test]
fn scale_churn_matches_the_rebuild_oracle() {
    // A scale universe with about 400 admitted: departures from anywhere
    // in the admission order, renegotiations that win and lose, fault
    // events and Ticks, with every Admit, Depart and Renegotiate checked
    // against the rebuild oracle.
    const UNIVERSE: usize = 4000;
    let seed = 5;
    let universe = generate(&ScenarioConfig::scale(UNIVERSE), 9100 + seed);
    let num_servers = universe.num_servers();
    let mut checked = Checked::new(universe, storm_config(seed));
    let clock = LogicalClock::new(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut req = 0u64;
    let admit = |checked: &mut Checked, client: ClientId, req: &mut u64| {
        *req += 1;
        checked.handle(&ClientMessage::Admit { req: *req, client }, &clock)
    };

    let mut order: Vec<usize> = (0..UNIVERSE).collect();
    for i in (1..UNIVERSE).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    for &c in &order {
        if checked.engine.members().len() == 400 {
            break;
        }
        admit(&mut checked, ClientId(c), &mut req);
    }
    assert_eq!(checked.engine.members().len(), 400, "the universe must seat 400");
    audit(&checked.engine, 0);

    let plan_config = FaultPlanConfig {
        fail_probability: 0.01,
        recover_probability: 0.5,
        spike_probability: 0.001,
        ..FaultPlanConfig::default()
    };
    let phases = 6;
    let plan = FaultPlan::random(&plan_config, num_servers, UNIVERSE, phases, seed ^ 0xFA11);
    // Every (request kind, answer) pair and fault op the storm produced.
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for phase in 0..phases {
        for (_, op) in
            checked.apply_faults(&plan.events_at(phase).iter().map(|r| r.event).collect::<Vec<_>>())
        {
            seen.insert(format!("{op:?}").split(' ').next().unwrap_or_default().to_string());
        }
        audit(&checked.engine, phase);
        for _ in 0..30 {
            let members = checked.engine.members();
            let member = members[rng.gen_range(0..members.len())];
            let (kind, outcome) = match rng.gen_range(0..10u32) {
                0..=3 => {
                    let client = ClientId(order[rng.gen_range(0..UNIVERSE)]);
                    ("admit", admit(&mut checked, client, &mut req))
                }
                4..=6 => {
                    req += 1;
                    (
                        "depart",
                        checked.handle(&ClientMessage::Depart { req, client: member }, &clock),
                    )
                }
                _ => {
                    req += 1;
                    // Scaling the agreed rate up while the predicted rate
                    // stays moderate tends to win; a predicted rate far
                    // past the contract tends to lose.
                    let (agreed, predicted) = checked.rates[member.index()];
                    let (agreed, predicted) = if rng.gen_bool(0.5) {
                        (agreed * 1.5, predicted)
                    } else {
                        (agreed, predicted * rng.gen_range(2.0..40.0))
                    };
                    let msg = ClientMessage::Renegotiate {
                        req,
                        client: member,
                        rate_agreed: agreed,
                        rate_predicted: predicted,
                    };
                    ("renegotiate", checked.handle(&msg, &clock))
                }
            };
            let answer = format!("{:?}", outcome.response);
            seen.insert(format!("{kind} {}", answer.split(' ').next().unwrap_or_default()));
        }
        audit(&checked.engine, phase);
        if phase % 3 == 2 {
            req += 1;
            checked.handle(&ClientMessage::Tick { req }, &clock);
            audit(&checked.engine, phase);
        }
    }
    for pair in [
        "ServerDown",
        "Shed",
        "admit Admitted",
        "admit Rejected",
        "depart Departed",
        "renegotiate Renegotiated",
        "renegotiate Rejected",
    ] {
        assert!(seen.contains(pair), "the scale storm never saw {pair}: {seen:?}");
    }
}

#[test]
fn a_refused_renegotiation_leaves_the_standing_state_bit_identical() {
    // A refused contract change puts the old rates and seat back in
    // place: the standing population, allocation and profit read the
    // same bits as before the request, and the decisions after it still
    // match the rebuild oracle.
    let seed = 11;
    let mut checked = storm_engine(seed);
    let clock = LogicalClock::new(1);
    let mut req = 0u64;
    for c in 0..CLIENTS {
        req += 1;
        checked.handle(&ClientMessage::Admit { req, client: ClientId(c) }, &clock);
    }
    let members = checked.engine.members().to_vec();
    assert!(members.len() >= 3, "the storm universe must seat a few clients");

    let mut refused = 0;
    for &member in &members {
        let population = checked.engine.masked_population();
        let allocation = checked.engine.allocation();
        let profit = checked.engine.profit().to_bits();
        let (agreed, predicted) = checked.rates[member.index()];
        req += 1;
        let msg = ClientMessage::Renegotiate {
            req,
            client: member,
            rate_agreed: agreed,
            rate_predicted: predicted * 1000.0,
        };
        let outcome = checked.handle(&msg, &clock);
        if !matches!(
            outcome.response,
            ServerMessage::Rejected { reason: RejectReason::Unprofitable, .. }
        ) {
            continue;
        }
        refused += 1;
        assert!(outcome.ops.is_empty(), "a refused renegotiation emitted {:?}", outcome.ops);
        assert_eq!(checked.engine.masked_population(), population);
        assert_eq!(checked.engine.allocation(), allocation);
        assert_eq!(checked.engine.profit().to_bits(), profit);
        audit(&checked.engine, refused);
    }
    assert!(refused > 0, "no renegotiation a thousand times past its contract was refused");

    // Departures from the middle of the admission order and re-admissions
    // run on the state the refusals left behind.
    for &member in &members[1..3] {
        req += 1;
        checked.handle(&ClientMessage::Depart { req, client: member }, &clock);
        audit(&checked.engine, req as usize);
    }
    for &member in &members[1..3] {
        req += 1;
        checked.handle(&ClientMessage::Admit { req, client: member }, &clock);
        audit(&checked.engine, req as usize);
    }
}
