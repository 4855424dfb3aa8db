//! Layer probes: each layer's public entry point, timed as a span on the
//! workload's own final state. The serve engine performs every model
//! probe below once or more per request on its live population, and the
//! solver performs the core ones thousands of times per solve, so these
//! are the costs an optimisation of that layer would move.

use cloudalloc_core::kkt::{optimal_shares, ShareDemand};
use cloudalloc_core::{
    assign_distribute, best_cluster, best_initial, improve_scored, SolverConfig, SolverCtx,
};
use cloudalloc_model::{
    evaluate, Allocation, ClientId, CloudSystem, ScoredAllocation, ServerId, MIN_SHARE,
};

use crate::spans::{Recorder, SpanId};

/// Repetitions of each whole-state probe.
const REPS: usize = 5;
/// Clients sampled by the candidate-search probes.
const SEARCH_CLIENTS: usize = 16;
/// Servers sampled by the share-allocation probe.
const KKT_SERVERS: usize = 32;
/// Clients of the slice the search probes solve.
const SLICE_CLIENTS: usize = 200;

/// Times the model's whole-population passes and the core's leaf
/// searches on `(system, alloc)`.
pub fn model_and_leaves(
    rec: &mut Recorder,
    system: &CloudSystem,
    alloc: &Allocation,
    config: &SolverConfig,
) {
    let root = rec.open("probe.layers", SpanId::ROOT);
    for _ in 0..REPS {
        rec.time("model.lower", root, || SolverCtx::new(system, config));
        let clients = system.clients().to_vec();
        rec.time("model.population_build", root, || system.try_with_clients(clients))
            .expect("a system's own clients re-validate");
        rec.time("model.mask", root, || system.with_failed_servers(&[]));
        rec.time("model.replay", root, || alloc.replayed_onto(system));
        rec.time("model.evaluate", root, || evaluate(system, alloc));
    }
    let ctx = SolverCtx::new(system, config);
    for _ in 0..REPS {
        let owned = alloc.clone();
        rec.time("model.score_init", root, || ScoredAllocation::lowered(&ctx.compiled, owned));
    }

    // Candidate searches for placed clients, re-placed from scratch the
    // way the engine re-places a renegotiating client.
    let placed: Vec<ClientId> = (0..system.num_clients())
        .map(ClientId)
        .filter(|&c| alloc.cluster_of(c).is_some())
        .collect();
    let step = (placed.len() / SEARCH_CLIENTS).max(1);
    for &client in placed.iter().step_by(step).take(SEARCH_CLIENTS) {
        let cluster = alloc.cluster_of(client).expect("placed");
        let mut cleared = alloc.clone();
        cleared.clear_client(system, client);
        rec.time("core.best_cluster", root, || best_cluster(&ctx, &cleared, client));
        rec.time("core.assign_distribute", root, || {
            assign_distribute(&ctx, &cleared, client, cluster)
        });
    }

    // Share allocation over the residents of busy servers.
    let busy: Vec<ServerId> =
        (0..system.num_servers()).map(ServerId).filter(|&s| alloc.residents(s).len() > 1).collect();
    let step = (busy.len() / KKT_SERVERS).max(1);
    for &server in busy.iter().step_by(step).take(KKT_SERVERS) {
        let class = system.class_of(server);
        let demands: Vec<ShareDemand> = alloc
            .residents(server)
            .iter()
            .map(|&client| {
                let c = system.client(client);
                let alpha = alloc.placement(client, server).map_or(1.0, |p| p.alpha);
                ShareDemand {
                    arrival: alpha * c.rate_predicted,
                    rate_per_share: class.cap_processing / c.exec_processing,
                    weight: ctx.reference_weight(client) * alpha.max(1e-9),
                }
            })
            .collect();
        let budget = 1.0 - system.background(server).phi_p;
        let margin = config.stability_margin;
        rec.time("core.kkt_shares", root, || optimal_shares(budget, &demands, MIN_SHARE, margin));
    }
    rec.close(root);
}

/// The first [`SLICE_CLIENTS`] clients of `system`, renumbered: a
/// paper-sized problem cut from the workload's own population.
pub fn slice(system: &CloudSystem) -> CloudSystem {
    let clients = system
        .clients()
        .iter()
        .take(SLICE_CLIENTS)
        .enumerate()
        .map(|(i, c)| {
            let mut c = c.clone();
            c.id = ClientId(i);
            c
        })
        .collect();
    system.try_with_clients(clients).expect("a prefix of valid clients is valid")
}

/// Times the solver's two phases — greedy construction and local
/// search — on `system`; returns the local search's round count.
pub fn search(
    rec: &mut Recorder,
    parent: SpanId,
    system: &CloudSystem,
    config: &SolverConfig,
    seed: u64,
) -> usize {
    let ctx = SolverCtx::new(system, config);
    let (alloc, _) = rec.time("core.greedy", parent, || best_initial(&ctx, seed));
    let mut scored = ScoredAllocation::lowered(&ctx.compiled, alloc);
    let stats = rec.time("core.local_search", parent, || {
        improve_scored(&ctx, &mut scored, seed.wrapping_add(0x5EED))
    });
    stats.rounds
}
