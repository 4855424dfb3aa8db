//! The admission engine: a single-threaded state machine that owns the
//! served population and answers protocol requests.
//!
//! # State model
//!
//! The engine is started with a *universe*: a scenario file naming every
//! client that could ever ask for service. The *served population* is the
//! subset that asked and was admitted; it is materialized as a dense
//! [`CloudSystem`] (client ids renumbered `0..members.len()` via
//! [`CloudSystem::try_with_clients`]) so the whole solver stack — compiled
//! lowering, incremental scorer, operators — runs on it unchanged. The
//! protocol always speaks universe ids; the engine translates.
//!
//! # Decision rule
//!
//! Admission and renegotiation decisions come from the *incremental
//! scorer*: one [`best_cluster`] candidate search against the current
//! allocation, accepted iff the candidate's exact marginal profit is
//! positive — the same admission economics [`ops::shed_unprofitable`]
//! enforces in reverse. The profit *reported* to clients, however, is
//! always the canonical batch score ([`evaluate`]) of the served
//! population, so an external audit that re-scores the same population
//! matches the server's numbers exactly, not merely within the
//! incremental scorer's drift tolerance.
//!
//! # Determinism
//!
//! Everything the engine does is a pure function of (universe, config,
//! request sequence, clock observations). Time comes from the [`Clock`]
//! seam; every randomized choice inside a fold or escalation derives its
//! seed from the configured base seed and the epoch counter.

use cloudalloc_core::{best_cluster, commit_scored, ops, SolverConfig, SolverCtx};
use cloudalloc_epoch::{repair_escalate, RepairPolicy};
use cloudalloc_model::{evaluate, Allocation, ClientId, CloudSystem, ScoredAllocation, ServerId};
use cloudalloc_protocol::{
    ClientMessage, LogPosition, ModelOp, RejectReason, ServerMessage, WirePlacement,
    PROTOCOL_VERSION,
};
use cloudalloc_telemetry as telemetry;
use cloudalloc_workload::{FaultEvent, FaultPlan};

use crate::clock::Clock;

/// Tunables of the admission engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Solver configuration used for candidate searches, folds, repairs
    /// and escalations.
    pub solver: SolverConfig,
    /// Escalation policy for the fault-repair path (same semantics as the
    /// epoch manager's).
    pub repair: RepairPolicy,
    /// Latency SLO for admission decisions, in microseconds.
    pub slo_us: u64,
    /// Fold the accepted ops into an epoch (re-optimize + shed sweep)
    /// after this many accepted mutations; `0` folds only on explicit
    /// [`ClientMessage::Tick`].
    pub epoch_every: u64,
    /// Base seed; fold and escalation seeds derive from it.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            solver: SolverConfig::fast(),
            repair: RepairPolicy::default(),
            slo_us: 50_000,
            epoch_every: 16,
            seed: 0,
        }
    }
}

/// Running request/SLO accounting, reported in the serve summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests handled (all kinds).
    pub requests: u64,
    /// Admits accepted.
    pub admitted: u64,
    /// Requests rejected (any reason).
    pub rejected: u64,
    /// Departures processed.
    pub departed: u64,
    /// Renegotiations accepted.
    pub renegotiated: u64,
    /// Clients shed by folds and repairs.
    pub shed: u64,
    /// Epoch folds completed.
    pub folds: u64,
    /// Decisions that missed the latency SLO.
    pub slo_misses: u64,
    /// Worst decision latency observed, in microseconds.
    pub max_latency_us: u64,
}

/// What one handled request produced: the direct response plus any op-log
/// entries to stream to subscribers.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The response to send to the requesting connection.
    pub response: ServerMessage,
    /// Op-log entries emitted while handling the request, in log order.
    pub ops: Vec<(LogPosition, ModelOp)>,
}

/// The admission engine. See the module docs for the state model.
pub struct Engine {
    universe: CloudSystem,
    /// Current `(rate_agreed, rate_predicted)` per universe client;
    /// diverges from the universe after renegotiations.
    rates: Vec<(f64, f64)>,
    /// Universe ids of served clients, in admission order (dense id =
    /// position).
    members: Vec<ClientId>,
    /// Universe id → dense id of served clients.
    dense_of: Vec<Option<usize>>,
    /// The served population as a dense system (unmasked; fault masking
    /// is applied on demand).
    population: CloudSystem,
    /// Decision state over `population` (dense ids). Derived aggregates
    /// are rebuilt via [`Allocation::replayed_onto`] wherever a freshly
    /// parameterized system is needed.
    alloc: Allocation,
    /// Per-server down flags maintained from fault events.
    down: Vec<bool>,
    /// Fault schedule folded in by epoch index, if any.
    plan: Option<FaultPlan>,
    epoch: u64,
    /// Accepted mutations since the last fold.
    mutations: u64,
    /// Next op-log position.
    log_pos: u64,
    /// Canonical (batch-scored) profit of the served population.
    profit: f64,
    config: EngineConfig,
    stats: EngineStats,
}

impl Engine {
    /// Creates an engine serving `universe` with an empty population.
    pub fn new(universe: CloudSystem, config: EngineConfig) -> Self {
        let rates = universe.clients().iter().map(|c| (c.rate_agreed, c.rate_predicted)).collect();
        let population =
            universe.try_with_clients(Vec::new()).expect("empty population is always valid");
        let alloc = Allocation::new(&population);
        let down = vec![false; universe.num_servers()];
        let dense_of = vec![None; universe.num_clients()];
        Self {
            universe,
            rates,
            members: Vec::new(),
            dense_of,
            population,
            alloc,
            down,
            plan: None,
            epoch: 0,
            mutations: 0,
            log_pos: 0,
            profit: 0.0,
            config,
            stats: EngineStats::default(),
        }
    }

    /// Installs a fault schedule: entering epoch `e` first applies the
    /// plan's records for `e`.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = Some(plan);
    }

    // ------------------------------------------------------------------
    // Read accessors (used by the transport, the CLI and the harness)
    // ------------------------------------------------------------------

    /// Whether universe client `u` is currently served.
    pub fn is_admitted(&self, u: ClientId) -> bool {
        self.dense_of.get(u.index()).is_some_and(Option::is_some)
    }

    /// Universe ids of the served clients, in admission order.
    pub fn members(&self) -> &[ClientId] {
        &self.members
    }

    /// Canonical batch-scored profit of the served population.
    pub fn profit(&self) -> f64 {
        self.profit
    }

    /// Current epoch index.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Request/SLO accounting so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The configured admission-latency SLO, in microseconds.
    pub fn config_slo_us(&self) -> u64 {
        self.config.slo_us
    }

    /// The served population as a dense system, with fault masking
    /// applied — exactly what the engine scores against.
    pub fn masked_population(&self) -> CloudSystem {
        self.population.with_failed_servers(&self.failed())
    }

    /// The engine's decision state over the dense population, with
    /// aggregates rebuilt against [`Engine::masked_population`].
    pub fn allocation(&self) -> Allocation {
        self.alloc.replayed_onto(&self.masked_population())
    }

    /// The first message of every connection.
    pub fn welcome(&self) -> ServerMessage {
        ServerMessage::Welcome {
            protocol: PROTOCOL_VERSION,
            clients: self.universe.num_clients() as u64,
            servers: self.universe.num_servers() as u64,
            epoch: self.epoch,
        }
    }

    // ------------------------------------------------------------------
    // Request dispatch
    // ------------------------------------------------------------------

    /// Handles one request. Single-threaded by construction: the caller
    /// (transport loop or test harness) serializes requests, which is
    /// what makes clock observations — and transcripts — deterministic.
    pub fn handle(&mut self, msg: &ClientMessage, clock: &dyn Clock) -> Outcome {
        let _span = telemetry::span!("serve.request");
        self.stats.requests += 1;
        match *msg {
            ClientMessage::Admit { req, client } => self.admit(req, client, clock),
            ClientMessage::Depart { req, client } => self.depart(req, client, clock),
            ClientMessage::Renegotiate { req, client, rate_agreed, rate_predicted } => {
                self.renegotiate(req, client, rate_agreed, rate_predicted, clock)
            }
            ClientMessage::Query { req } => Outcome {
                response: ServerMessage::State {
                    req,
                    epoch: self.epoch,
                    admitted: self.members.len() as u64,
                    profit: self.profit,
                    log: LogPosition(self.log_pos),
                },
                ops: Vec::new(),
            },
            ClientMessage::Subscribe { req } => Outcome {
                response: ServerMessage::Subscribed { req, log: LogPosition(self.log_pos) },
                ops: Vec::new(),
            },
            ClientMessage::Tick { req } => self.tick(req, clock),
            ClientMessage::Bye { req } => {
                Outcome { response: ServerMessage::Bye { req }, ops: Vec::new() }
            }
        }
    }

    fn admit(&mut self, req: u64, u: ClientId, clock: &dyn Clock) -> Outcome {
        let _span = telemetry::span!("serve.admit");
        let t0 = clock.now_us();
        if u.index() >= self.universe.num_clients() {
            return self.reject(req, u, RejectReason::UnknownClient, t0, clock);
        }
        if self.is_admitted(u) {
            return self.reject(req, u, RejectReason::AlreadyAdmitted, t0, clock);
        }

        // Grow the population by the applicant and ask the incremental
        // scorer for its best marginal placement.
        let dense = ClientId(self.members.len());
        let mut next_members = self.members.clone();
        next_members.push(u);
        let grown = self.build_population(&next_members);
        let masked = grown.with_failed_servers(&self.failed());
        let ctx = SolverCtx::new(&masked, &self.config.solver);
        let mut scored =
            ScoredAllocation::lowered(&ctx.compiled, self.alloc.replayed_onto(&masked));
        let candidate = best_cluster(&ctx, scored.alloc(), dense);

        let Some(candidate) = candidate.filter(|c| c.score > 0.0) else {
            return self.reject(req, u, RejectReason::Unprofitable, t0, clock);
        };
        commit_scored(&mut scored, dense, &candidate);
        let cluster = candidate.cluster;
        let alloc = scored.into_allocation();
        let profit_before = self.profit;

        self.members = next_members;
        self.dense_of[u.index()] = Some(dense.index());
        self.population = grown;
        self.alloc = alloc;
        // Canonical profit: batch-score the *replayed* allocation, the
        // same computation any auditor reproduces from the public
        // accessors — so the reported number matches bit for bit.
        self.profit = self.canonical_profit();
        let profit = self.profit;
        self.stats.admitted += 1;
        telemetry::counter!("serve.admits").incr();

        let mut ops = vec![self.push_op(ModelOp::Admitted {
            client: u,
            cluster,
            placements: wire_placements(self.alloc.placements(dense)),
        })];
        ops.extend(self.after_mutation(clock));
        let (latency_us, slo_ok) = self.observe_latency(t0, clock);
        Outcome {
            response: ServerMessage::Admitted {
                req,
                client: u,
                cluster,
                profit,
                profit_delta: profit - profit_before,
                latency_us,
                slo_ok,
            },
            ops,
        }
    }

    fn depart(&mut self, req: u64, u: ClientId, clock: &dyn Clock) -> Outcome {
        let _span = telemetry::span!("serve.depart");
        let t0 = clock.now_us();
        if u.index() >= self.universe.num_clients() {
            return self.reject(req, u, RejectReason::UnknownClient, t0, clock);
        }
        if !self.is_admitted(u) {
            return self.reject(req, u, RejectReason::NotAdmitted, t0, clock);
        }

        self.remove_members(&[u]);
        self.profit = self.canonical_profit();
        self.stats.departed += 1;
        let mut ops = vec![self.push_op(ModelOp::Departed { client: u })];
        ops.extend(self.after_mutation(clock));
        let (latency_us, slo_ok) = self.observe_latency(t0, clock);
        Outcome {
            response: ServerMessage::Departed {
                req,
                client: u,
                profit: self.profit,
                latency_us,
                slo_ok,
            },
            ops,
        }
    }

    fn renegotiate(
        &mut self,
        req: u64,
        u: ClientId,
        rate_agreed: f64,
        rate_predicted: f64,
        clock: &dyn Clock,
    ) -> Outcome {
        let _span = telemetry::span!("serve.renegotiate");
        let t0 = clock.now_us();
        if u.index() >= self.universe.num_clients() {
            return self.reject(req, u, RejectReason::UnknownClient, t0, clock);
        }
        if !(rate_agreed.is_finite()
            && rate_agreed > 0.0
            && rate_predicted.is_finite()
            && rate_predicted > 0.0)
        {
            return self.reject(req, u, RejectReason::InvalidRates, t0, clock);
        }
        if !self.is_admitted(u) {
            return self.reject(req, u, RejectReason::NotAdmitted, t0, clock);
        }

        // Re-place the client from scratch under the proposed contract;
        // the old contract stays in force unless the new one carries a
        // positive marginal profit of its own.
        let dense = ClientId(self.dense_of[u.index()].expect("admitted"));
        let old_rates = self.rates[u.index()];
        self.rates[u.index()] = (rate_agreed, rate_predicted);
        let renegotiated = self.build_population(&self.members.clone());
        self.rates[u.index()] = old_rates;

        let masked = renegotiated.with_failed_servers(&self.failed());
        let ctx = SolverCtx::new(&masked, &self.config.solver);
        let mut scored =
            ScoredAllocation::lowered(&ctx.compiled, self.alloc.replayed_onto(&masked));
        scored.clear_client(dense);
        let candidate = best_cluster(&ctx, scored.alloc(), dense);
        let Some(candidate) = candidate.filter(|c| c.score > 0.0) else {
            return self.reject(req, u, RejectReason::Unprofitable, t0, clock);
        };
        commit_scored(&mut scored, dense, &candidate);
        let cluster = candidate.cluster;
        let alloc = scored.into_allocation();
        let profit_before = self.profit;

        self.rates[u.index()] = (rate_agreed, rate_predicted);
        self.population = renegotiated;
        self.alloc = alloc;
        self.profit = self.canonical_profit();
        let profit = self.profit;
        self.stats.renegotiated += 1;
        telemetry::counter!("serve.renegotiations").incr();

        let mut ops = vec![
            self.push_op(ModelOp::Renegotiated { client: u, rate_agreed, rate_predicted }),
            self.push_op(ModelOp::Placements {
                client: u,
                cluster,
                placements: wire_placements(self.alloc.placements(dense)),
            }),
        ];
        ops.extend(self.after_mutation(clock));
        let (latency_us, slo_ok) = self.observe_latency(t0, clock);
        Outcome {
            response: ServerMessage::Renegotiated {
                req,
                client: u,
                profit,
                profit_delta: profit - profit_before,
                latency_us,
                slo_ok,
            },
            ops,
        }
    }

    fn tick(&mut self, req: u64, clock: &dyn Clock) -> Outcome {
        let t0 = clock.now_us();
        let (ops, shed) = self.fold();
        let (latency_us, slo_ok) = self.observe_latency(t0, clock);
        Outcome {
            response: ServerMessage::Ticked {
                req,
                epoch: self.epoch,
                profit: self.profit,
                shed,
                latency_us,
                slo_ok,
            },
            ops,
        }
    }

    fn reject(
        &mut self,
        req: u64,
        client: ClientId,
        reason: RejectReason,
        t0: u64,
        clock: &dyn Clock,
    ) -> Outcome {
        self.stats.rejected += 1;
        telemetry::counter!("serve.rejections").incr();
        let (latency_us, slo_ok) = self.observe_latency(t0, clock);
        Outcome {
            response: ServerMessage::Rejected { req, client, reason, latency_us, slo_ok },
            ops: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Epoch folds and faults
    // ------------------------------------------------------------------

    /// Applies fault events immediately (out of band of any plan): flips
    /// server availability, perturbs predicted rates, and runs the
    /// repair → shed → escalate path when a failure strands placements.
    /// Returns the emitted op-log entries.
    pub fn apply_faults(&mut self, events: &[FaultEvent]) -> Vec<(LogPosition, ModelOp)> {
        let mut ops = Vec::new();
        let mut newly_failed: Vec<ServerId> = Vec::new();
        let mut spiked_members: Vec<ClientId> = Vec::new();
        for event in events {
            match *event {
                FaultEvent::ServerFail { server } => {
                    if server.index() < self.down.len() && !self.down[server.index()] {
                        self.down[server.index()] = true;
                        newly_failed.push(server);
                        ops.push(self.push_op(ModelOp::ServerDown { server }));
                    }
                }
                FaultEvent::ServerRecover { server } => {
                    if server.index() < self.down.len() && self.down[server.index()] {
                        self.down[server.index()] = false;
                        ops.push(self.push_op(ModelOp::ServerUp { server }));
                    }
                }
                FaultEvent::RateSpike { client, factor } => {
                    if client.index() < self.rates.len() && factor.is_finite() && factor > 0.0 {
                        let (agreed, predicted) = self.rates[client.index()];
                        let spiked = predicted * factor;
                        if spiked.is_finite() && spiked > 0.0 {
                            self.rates[client.index()] = (agreed, spiked);
                            if self.is_admitted(client) {
                                self.population = self.build_population(&self.members.clone());
                                spiked_members.push(client);
                            }
                            ops.push(self.push_op(ModelOp::Renegotiated {
                                client,
                                rate_agreed: agreed,
                                rate_predicted: spiked,
                            }));
                        }
                    }
                }
            }
        }

        // A failure strands placements when a served client lives on the
        // dead server; decide before any re-seating shuffles dense ids.
        let stranded = newly_failed.iter().any(|&s| {
            self.members
                .iter()
                .enumerate()
                .any(|(d, _)| self.alloc.placements(ClientId(d)).iter().any(|&(srv, _)| srv == s))
        });

        // A spiked admitted client's stale placement may now be an
        // unstable queue (its arrival rate outgrew its GPS shares), which
        // violates a hard constraint — re-seat it under the new rate, or
        // shed it when no profitable seat exists.
        if !spiked_members.is_empty() {
            ops.extend(self.reseat(&spiked_members));
        }
        if stranded {
            ops.extend(self.repair());
        } else if !ops.is_empty() && spiked_members.is_empty() {
            // Even without stranded placements the masked population
            // changed (availability flips), so the canonical profit must
            // be re-scored. Re-seating and repair already did.
            self.profit = self.canonical_profit();
        }
        ops
    }

    /// Clears and freshly re-places the given (universe-id) members under
    /// the current rates, shedding any that no longer earn a profitable
    /// seat. Used after rate spikes, whose stale placements may violate
    /// stability.
    fn reseat(&mut self, members: &[ClientId]) -> Vec<(LogPosition, ModelOp)> {
        let masked = self.masked_population();
        let ctx = SolverCtx::new(&masked, &self.config.solver);
        let mut scored =
            ScoredAllocation::lowered(&ctx.compiled, self.alloc.replayed_onto(&masked));
        for &u in members {
            let Some(dense) = self.dense_of[u.index()] else { continue };
            let dense = ClientId(dense);
            scored.clear_client(dense);
            if let Some(candidate) =
                best_cluster(&ctx, scored.alloc(), dense).filter(|c| c.score > 0.0)
            {
                commit_scored(&mut scored, dense, &candidate);
            }
            // No profitable seat: left cleared, so `adopt` sheds it.
        }
        self.adopt(scored.into_allocation())
    }

    /// Runs the epoch loop's repair → shed → escalate machine
    /// ([`repair_escalate`]) on the masked population, measuring
    /// degradation against the pre-fault canonical profit, and adopts its
    /// allocation.
    fn repair(&mut self) -> Vec<(LogPosition, ModelOp)> {
        let _span = telemetry::span!("serve.repair");
        telemetry::counter!("serve.repairs").incr();
        let failed = self.failed();
        let masked = self.population.with_failed_servers(&failed);
        let stale = self.alloc.replayed_onto(&masked);
        let (repaired, _) = repair_escalate(
            &masked,
            stale,
            &failed,
            self.profit,
            &self.config.solver,
            self.config.repair,
            self.config.seed,
        );
        self.adopt(repaired)
    }

    /// Folds the accepted ops into an epoch: applies the fault plan's
    /// records for the new epoch, re-optimizes the served population from
    /// a warm start, sheds what stopped being profitable, and streams the
    /// resulting deltas. Returns `(ops, clients shed)`.
    fn fold(&mut self) -> (Vec<(LogPosition, ModelOp)>, u64) {
        let _span = telemetry::span!("serve.fold");
        self.mutations = 0;
        self.stats.folds += 1;
        let shed_before = self.stats.shed;
        let mut ops = Vec::new();

        if let Some(plan) = self.plan.take() {
            let events: Vec<FaultEvent> =
                plan.events_at(self.epoch as usize).iter().map(|r| r.event).collect();
            ops.extend(self.apply_faults(&events));
            self.plan = Some(plan);
        }

        let masked = self.masked_population();
        let ctx = SolverCtx::new(&masked, &self.config.solver);
        let mut scored =
            ScoredAllocation::lowered(&ctx.compiled, self.alloc.replayed_onto(&masked));
        cloudalloc_core::improve_scored(&ctx, &mut scored, self.fold_seed());
        ops::shed_unprofitable(&ctx, &mut scored);
        ops.extend(self.adopt(scored.into_allocation()));

        self.epoch += 1;
        ops.push(self.push_op(ModelOp::Epoch { epoch: self.epoch, profit: self.profit }));
        telemetry::Event::new("serve.epoch")
            .field_u64("epoch", self.epoch)
            .field_u64("admitted", self.members.len() as u64)
            .field_f64("profit", self.profit)
            .emit();
        (ops, self.stats.shed - shed_before)
    }

    /// Installs a post-repair/post-fold allocation over the *current*
    /// population: emits `Placements` deltas for moved members, sheds
    /// members the new allocation no longer serves, and refreshes the
    /// canonical profit.
    fn adopt(&mut self, next: Allocation) -> Vec<(LogPosition, ModelOp)> {
        let mut moved: Vec<ModelOp> = Vec::new();
        let mut gone: Vec<ClientId> = Vec::new();
        for (d, &u) in self.members.iter().enumerate() {
            let dense = ClientId(d);
            let (old_p, new_p) = (self.alloc.placements(dense), next.placements(dense));
            if new_p.is_empty() {
                gone.push(u);
            } else if old_p != new_p || self.alloc.cluster_of(dense) != next.cluster_of(dense) {
                let cluster = next.cluster_of(dense).expect("placed clients are assigned");
                moved.push(ModelOp::Placements {
                    client: u,
                    cluster,
                    placements: wire_placements(new_p),
                });
            }
        }
        self.alloc = next;
        let mut ops: Vec<(LogPosition, ModelOp)> =
            moved.into_iter().map(|op| self.push_op(op)).collect();
        for &u in &gone {
            ops.push(self.push_op(ModelOp::Shed { client: u }));
            telemetry::counter!("serve.sheds").incr();
        }
        self.stats.shed += gone.len() as u64;
        if !gone.is_empty() {
            self.remove_members(&gone);
        }
        self.profit = self.canonical_profit();
        ops
    }

    fn after_mutation(&mut self, _clock: &dyn Clock) -> Vec<(LogPosition, ModelOp)> {
        self.mutations += 1;
        if self.config.epoch_every > 0 && self.mutations >= self.config.epoch_every {
            self.fold().0
        } else {
            Vec::new()
        }
    }

    // ------------------------------------------------------------------
    // Population plumbing
    // ------------------------------------------------------------------

    /// Builds the dense system for a membership list, applying the
    /// current (possibly renegotiated) rates.
    fn build_population(&self, members: &[ClientId]) -> CloudSystem {
        let clients = members
            .iter()
            .enumerate()
            .map(|(d, &u)| {
                let mut c = self.universe.client(u).clone();
                c.id = ClientId(d);
                (c.rate_agreed, c.rate_predicted) = self.rates[u.index()];
                c
            })
            .collect();
        self.universe
            .try_with_clients(clients)
            .expect("universe clients re-validate against their own catalog")
    }

    /// Removes members (universe ids), renumbering the dense population
    /// and carrying surviving placements over to their new dense ids.
    fn remove_members(&mut self, gone: &[ClientId]) {
        let survivors: Vec<ClientId> =
            self.members.iter().copied().filter(|u| !gone.contains(u)).collect();
        let next_population = self.build_population(&survivors);
        let mut next_alloc = Allocation::new(&next_population);
        for (new_d, &u) in survivors.iter().enumerate() {
            let old_d = ClientId(self.dense_of[u.index()].expect("member"));
            if let Some(cluster) = self.alloc.cluster_of(old_d) {
                next_alloc.assign_cluster(ClientId(new_d), cluster);
                for &(server, placement) in self.alloc.placements(old_d) {
                    next_alloc.place(&next_population, ClientId(new_d), server, placement);
                }
            }
        }
        for &u in gone {
            self.dense_of[u.index()] = None;
        }
        for (new_d, &u) in survivors.iter().enumerate() {
            self.dense_of[u.index()] = Some(new_d);
        }
        self.members = survivors;
        self.population = next_population;
        self.alloc = next_alloc;
    }

    /// The canonical batch score of the served population: `evaluate` on
    /// the masked dense system — the number an external re-score of the
    /// same population reproduces exactly.
    fn canonical_profit(&self) -> f64 {
        let masked = self.masked_population();
        evaluate(&masked, &self.alloc.replayed_onto(&masked)).profit
    }

    fn failed(&self) -> Vec<ServerId> {
        self.down.iter().enumerate().filter(|&(_, &d)| d).map(|(j, _)| ServerId(j)).collect()
    }

    fn observe_latency(&mut self, t0: u64, clock: &dyn Clock) -> (u64, bool) {
        let latency_us = clock.now_us().saturating_sub(t0);
        let slo_ok = latency_us <= self.config.slo_us;
        if !slo_ok {
            self.stats.slo_misses += 1;
            telemetry::counter!("serve.slo_misses").incr();
        }
        self.stats.max_latency_us = self.stats.max_latency_us.max(latency_us);
        telemetry::histogram!("serve.latency_us").record(latency_us);
        (latency_us, slo_ok)
    }

    fn push_op(&mut self, op: ModelOp) -> (LogPosition, ModelOp) {
        let pos = LogPosition(self.log_pos);
        self.log_pos += 1;
        (pos, op)
    }

    fn fold_seed(&self) -> u64 {
        (self.config.seed ^ 0x5E87_E5EE_D000_0000)
            .wrapping_add(self.epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

fn wire_placements(placements: &[(ServerId, cloudalloc_model::Placement)]) -> Vec<WirePlacement> {
    placements
        .iter()
        .map(|&(server, p)| WirePlacement {
            server,
            alpha: p.alpha,
            phi_p: p.phi_p,
            phi_c: p.phi_c,
        })
        .collect()
}
