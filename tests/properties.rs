//! Cross-crate property tests: the whole pipeline holds its invariants on
//! randomized scenarios, not just hand-picked seeds.

use proptest::prelude::*;

use cloudalloc::core::{solve, SolverConfig};
use cloudalloc::model::{check_feasibility, evaluate, ClientId, Violation};
use cloudalloc::simulator::{simulate, SimConfig};
use cloudalloc::workload::{generate, Range, ScenarioConfig};

fn arbitrary_scenario() -> impl Strategy<Value = (ScenarioConfig, u64)> {
    (
        2usize..14,   // clients
        1usize..4,    // clusters
        1usize..4,    // server classes
        0.5f64..3.5,  // arrival hi
        any::<u64>(), // seed
    )
        .prop_map(|(clients, clusters, classes, rate_hi, seed)| {
            let config = ScenarioConfig {
                num_clusters: clusters,
                num_server_classes: classes,
                num_utility_classes: 2,
                num_clients: clients,
                arrival_rate: Range::new(0.4, rate_hi.max(0.5)),
                ..ScenarioConfig::small(clients)
            };
            (config, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the scenario, the solver returns a capacity-feasible
    /// allocation with a finite profit, fully-dispersed served clients,
    /// consistent bookkeeping and a monotone profit history.
    #[test]
    fn solver_invariants_hold_on_random_scenarios((config, seed) in arbitrary_scenario()) {
        let system = generate(&config, seed);
        let result = solve(&system, &SolverConfig::fast(), seed);
        prop_assert!(result.report.profit.is_finite());
        prop_assert!(result.report.profit >= result.initial_profit - 1e-9);
        let violations = check_feasibility(&system, &result.allocation);
        prop_assert!(
            violations.iter().all(|v| matches!(v, Violation::Unassigned { .. })),
            "non-admission violations: {violations:?}"
        );
        for i in 0..system.num_clients() {
            let held = result.allocation.placements(ClientId(i));
            if !held.is_empty() {
                prop_assert!((result.allocation.total_alpha(ClientId(i)) - 1.0).abs() < 1e-6);
            }
        }
        result.allocation.assert_consistent(&system);
        for pair in result.stats.history.windows(2) {
            prop_assert!(pair[1] >= pair[0] - 1e-9);
        }
        // Declining service is always weakly better than serving nobody.
        prop_assert!(result.report.profit >= -1e-9 || config.num_clients == 0);
    }

    /// Re-evaluating the solver's own report reproduces it bit-for-bit,
    /// and serde round-trips preserve the evaluation.
    #[test]
    fn evaluation_is_pure_and_portable((config, seed) in arbitrary_scenario()) {
        let system = generate(&config, seed);
        let result = solve(&system, &SolverConfig::fast(), seed);
        let fresh = evaluate(&system, &result.allocation);
        prop_assert_eq!(&fresh, &result.report);
        let json = serde_json::to_string(&result.allocation).unwrap();
        let back: cloudalloc::model::Allocation = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&evaluate(&system, &back), &fresh);
    }

    /// The simulator accepts any solver output and conserves requests:
    /// arrivals = completions + drops + in-flight (bounded backlog for
    /// stable queues).
    #[test]
    fn simulator_conserves_requests((config, seed) in arbitrary_scenario()) {
        let system = generate(&config, seed);
        let result = solve(&system, &SolverConfig::fast(), seed);
        let report = simulate(&system, &result.allocation, &SimConfig::quick(seed ^ 1));
        for (i, c) in report.clients.iter().enumerate() {
            prop_assert!(c.completed + c.dropped <= c.arrivals + 1);
            let served = !result.allocation.placements(ClientId(i)).is_empty();
            if !served {
                prop_assert_eq!(c.completed, 0);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Raising every utility intercept can only raise the optimal profit:
    /// the same allocations earn more, and the solver only improves on
    /// them. (A coarse monotonicity check of the whole pipeline.)
    #[test]
    fn profit_is_monotone_in_utility_levels(seed in any::<u64>()) {
        let mut low_cfg = ScenarioConfig::small(8);
        low_cfg.utility_intercept = Range::new(1.0, 1.5);
        let mut high_cfg = low_cfg.clone();
        high_cfg.utility_intercept = Range::new(2.5, 3.0);
        // Same seed: identical topology and clients except the intercepts.
        let low = solve(&generate(&low_cfg, seed), &SolverConfig::fast(), seed);
        let high = solve(&generate(&high_cfg, seed), &SolverConfig::fast(), seed);
        prop_assert!(
            high.report.profit >= low.report.profit - 1e-6,
            "higher prices lowered profit: {} -> {}",
            low.report.profit,
            high.report.profit
        );
    }
}

// ---------------------------------------------------------------------------
// Incremental evaluator properties
// ---------------------------------------------------------------------------

use cloudalloc::model::{ClusterId, Placement, ScoredAllocation, ServerId};

/// SplitMix64 step: cheap deterministic decisions for the mutation driver
/// without consuming proptest entropy per choice.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies one pseudo-random journaled mutation: clear a client, or move it
/// into a random cluster and (re)place it on a random server there. Every
/// path exercises the journal, including no-op removes and replacements.
fn random_mutation(scored: &mut ScoredAllocation<'_>, state: &mut u64) {
    let system = scored.system();
    let client = ClientId(mix(state) as usize % system.num_clients());
    if mix(state).is_multiple_of(4) {
        scored.clear_client(client);
        return;
    }
    let cluster = ClusterId(mix(state) as usize % system.num_clusters());
    let servers: Vec<ServerId> = system.servers_in(cluster).map(|s| s.id).collect();
    if servers.is_empty() {
        return;
    }
    if scored.alloc().cluster_of(client) != Some(cluster) {
        scored.clear_client(client);
        scored.assign_cluster(client, cluster);
    }
    let server = servers[mix(state) as usize % servers.len()];
    let unit = |state: &mut u64| (mix(state) % 1_000) as f64 / 1_000.0;
    let placement = Placement {
        alpha: 0.05 + 0.95 * unit(state),
        phi_p: 0.05 + 0.45 * unit(state),
        phi_c: 0.05 + 0.45 * unit(state),
    };
    scored.place(client, server, placement);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The incremental evaluator's cached profit equals a from-scratch
    /// `evaluate()` after any sequence of journaled mutations — including
    /// overloaded, partially-served and otherwise infeasible states the
    /// solver would never visit.
    #[test]
    fn incremental_profit_matches_full_evaluation(
        (config, seed) in arbitrary_scenario(),
        mutation_seed in any::<u64>(),
        steps in 1usize..24,
    ) {
        let system = generate(&config, seed);
        // Start from a realistic solver state, not just an empty allocation.
        let start = solve(&system, &SolverConfig::fast(), seed).allocation;
        let mut scored = ScoredAllocation::new(&system, start);
        let mut state = mutation_seed;
        for step in 0..steps {
            random_mutation(&mut scored, &mut state);
            if step % 3 == 2 {
                scored.commit();
            }
            let cached = scored.profit();
            let fresh = evaluate(&system, scored.alloc()).profit;
            prop_assert!(
                (cached - fresh).abs() <= 1e-6 * (1.0 + fresh.abs()),
                "step {step}: cached {cached} vs fresh {fresh}"
            );
        }
    }

    /// Rolling back to a savepoint restores the allocation *and* the cached
    /// score exactly, even across nested savepoints and interleaved flushes.
    #[test]
    fn rollback_restores_allocation_and_score_exactly(
        (config, seed) in arbitrary_scenario(),
        mutation_seed in any::<u64>(),
        steps in 1usize..16,
    ) {
        let system = generate(&config, seed);
        let start = solve(&system, &SolverConfig::fast(), seed).allocation;
        let mut scored = ScoredAllocation::new(&system, start);
        let profit_before = scored.profit();
        let alloc_before = scored.alloc().clone();

        let mark = scored.savepoint();
        let mut state = mutation_seed;
        for step in 0..steps {
            random_mutation(&mut scored, &mut state);
            if step == steps / 2 {
                // A nested savepoint that is itself rolled back first.
                let inner = scored.savepoint();
                random_mutation(&mut scored, &mut state);
                let _ = scored.profit(); // force a flush inside the window
                scored.rollback_to(inner);
            }
        }
        let _ = scored.profit();
        scored.rollback_to(mark);

        prop_assert_eq!(scored.alloc(), &alloc_before);
        let profit_after = scored.profit();
        prop_assert_eq!(
            profit_after.to_bits(),
            profit_before.to_bits(),
            "rollback changed the score: {} -> {}",
            profit_before,
            profit_after
        );
        prop_assert_eq!(
            &evaluate(&system, scored.alloc()),
            &evaluate(&system, &alloc_before)
        );
    }
}

// ---------------------------------------------------------------------------
// In-place population edits: the admission server's arrival, departure and
// renegotiation seams
// ---------------------------------------------------------------------------

use cloudalloc::model::{
    compile_streamed, Allocation, CloudSystem, CompiledSystem, LoweredClients,
};

/// Every client-side slot of a lowering as bits: rates, demands, storage,
/// utility index, reference weight and marginal, and both service-rate
/// tables for every server class.
fn lowering_bits(compiled: &CompiledSystem<'_>) -> Vec<u64> {
    let classes = compiled.server_classes().len();
    let mut bits = Vec::new();
    for i in 0..compiled.num_clients() {
        let id = ClientId(i);
        bits.extend(
            [
                compiled.rate_predicted(id),
                compiled.rate_agreed(id),
                compiled.exec_processing(id),
                compiled.exec_communication(id),
                compiled.client_storage(id),
                compiled.ref_weight(id),
                compiled.ref_marginal(id),
            ]
            .map(f64::to_bits),
        );
        bits.push(compiled.utility_index(id) as u64);
        for class in 0..classes {
            bits.extend([compiled.m_p(class, id).to_bits(), compiled.m_c(class, id).to_bits()]);
        }
    }
    bits
}

/// Every server's aggregate load as bits.
fn load_bits(system: &CloudSystem, alloc: &Allocation) -> Vec<[u64; 5]> {
    (0..system.num_servers())
        .map(|j| {
            let load = alloc.load(ServerId(j));
            [
                load.phi_p.to_bits(),
                load.phi_c.to_bits(),
                load.storage.to_bits(),
                load.work_processing.to_bits(),
                load.placements as u64,
            ]
        })
        .collect()
}

/// The solver's allocation with canonical aggregates: each server's load
/// summed over its background from its residents in id order, as a replay
/// leaves it.
fn replayed_solution(system: &CloudSystem, seed: u64) -> Allocation {
    solve(system, &SolverConfig::fast(), seed).allocation.replayed_onto(system)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lowering a population one arriving client at a time lands on the
    /// batch compile's slots bit for bit, whatever the catalog sizes.
    #[test]
    fn lowering_grown_one_client_at_a_time_matches_a_batch_compile(
        (config, seed) in arbitrary_scenario(),
    ) {
        let system = generate(&config, seed);
        let mut grown = LoweredClients::new(0, system.server_classes().len());
        for client in system.clients() {
            grown.push_client(system.server_classes(), system.utility_classes(), client);
        }
        prop_assert_eq!(
            lowering_bits(&compile_streamed(&system, grown)),
            lowering_bits(&CompiledSystem::new(&system))
        );
    }

    /// An arrival appended to a solved population — its row lowered in
    /// place and an unassigned slot added to the allocation — equals the
    /// grown population compiled afresh and the allocation replayed onto it.
    #[test]
    fn an_arrival_in_place_matches_a_rebuilt_population(
        (config, seed) in arbitrary_scenario(),
    ) {
        let system = generate(&config, seed);
        let (newcomer, earlier) = system.clients().split_last().unwrap();
        let mut population = system.try_with_clients(earlier.to_vec()).unwrap();
        let mut lowered = CompiledSystem::new(&population).into_clients();
        let mut alloc = replayed_solution(&population, seed);
        population.add_client(newcomer.clone());
        lowered.push_client(population.server_classes(), population.utility_classes(), newcomer);
        alloc.push_client();
        prop_assert_eq!(&population, &system);
        prop_assert_eq!(
            lowering_bits(&compile_streamed(&population, lowered)),
            lowering_bits(&CompiledSystem::new(&system))
        );
        let replay = alloc.replayed_onto(&system);
        prop_assert_eq!(load_bits(&system, &alloc), load_bits(&system, &replay));
        prop_assert_eq!(&alloc, &replay);
        alloc.assert_consistent(&system);
    }

    /// Departures edited in place — the population, its lowering and the
    /// allocation, with each vacated server re-summed — equal the survivors
    /// rebuilt from scratch and the allocation replayed onto them.
    #[test]
    fn departures_in_place_match_a_rebuilt_population(
        (config, seed) in arbitrary_scenario(),
        pick_seed in any::<u64>(),
        departures in 1usize..4,
    ) {
        let system = generate(&config, seed);
        let mut population = system.clone();
        let mut lowered = CompiledSystem::new(&system).into_clients();
        let mut alloc = replayed_solution(&system, seed);
        let mut survivors = system.clients().to_vec();
        let mut state = pick_seed;
        for _ in 0..departures.min(system.num_clients() - 1) {
            let gone = ClientId(mix(&mut state) as usize % population.num_clients());
            for (server, _) in alloc.clear_client(&population, gone) {
                alloc.recompute_load(&population, server);
            }
            alloc.remove_client(gone);
            lowered.remove_client(gone);
            prop_assert_eq!(population.remove_client(gone).id, gone);
            survivors.remove(gone.index());
        }
        for (pos, client) in survivors.iter_mut().enumerate() {
            client.id = ClientId(pos);
        }
        let rebuilt = system.try_with_clients(survivors).unwrap();
        prop_assert_eq!(&population, &rebuilt);
        prop_assert_eq!(
            lowering_bits(&compile_streamed(&population, lowered)),
            lowering_bits(&CompiledSystem::new(&rebuilt))
        );
        let replay = alloc.replayed_onto(&rebuilt);
        prop_assert_eq!(load_bits(&rebuilt, &alloc), load_bits(&rebuilt, &replay));
        prop_assert_eq!(&alloc, &replay);
        alloc.assert_consistent(&rebuilt);
    }

    /// A renegotiated contract edited in place — the client's rates, its
    /// lowered reference terms and the aggregates of the servers it holds —
    /// equals the population rebuilt under the new rates and the
    /// allocation replayed onto it.
    #[test]
    fn renegotiation_in_place_matches_a_rebuilt_population(
        (config, seed) in arbitrary_scenario(),
        pick in any::<u64>(),
        rate_agreed in 0.2f64..6.0,
        rate_predicted in 0.2f64..6.0,
    ) {
        let system = generate(&config, seed);
        let client = ClientId(pick as usize % system.num_clients());
        let mut population = system.clone();
        let mut lowered = CompiledSystem::new(&system).into_clients();
        let mut alloc = replayed_solution(&system, seed);
        population.set_client_rates(client, rate_agreed, rate_predicted);
        lowered.set_rates(population.utility_classes(), client, rate_agreed, rate_predicted);
        let held: Vec<ServerId> =
            alloc.placements(client).iter().map(|&(server, _)| server).collect();
        for server in held {
            alloc.recompute_load(&population, server);
        }
        let mut clients = system.clients().to_vec();
        clients[client.index()].rate_agreed = rate_agreed;
        clients[client.index()].rate_predicted = rate_predicted;
        let rebuilt = system.try_with_clients(clients).unwrap();
        prop_assert_eq!(&population, &rebuilt);
        prop_assert_eq!(
            lowering_bits(&compile_streamed(&population, lowered)),
            lowering_bits(&CompiledSystem::new(&rebuilt))
        );
        let replay = alloc.replayed_onto(&rebuilt);
        prop_assert_eq!(load_bits(&rebuilt, &alloc), load_bits(&rebuilt, &replay));
        prop_assert_eq!(&alloc, &replay);
    }
}
