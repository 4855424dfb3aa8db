//! Integration: the paper's manager/agent solver (§V) is the core's
//! per-cluster fan-out. Each cluster agent answers `Assign_Distribute` for
//! its own cluster, the central manager commits the argmax, and the answer
//! is the same bits whether the agents run inline or on the solver pool.

use cloudalloc::baselines::{monte_carlo, McConfig};
use cloudalloc::core::ops::{drop_victims, repair_failed_servers};
use cloudalloc::core::{
    assign_distribute, best_cluster, commit, greedy_pass, solve, Candidate, SolverConfig, SolverCtx,
};
use cloudalloc::model::{
    check_feasibility, evaluate, Allocation, ClientId, CloudSystem, ClusterId, ScoredAllocation,
    ServerId, Violation,
};
use cloudalloc::workload::{generate, scenario_seeds, ScenarioConfig};

/// A solver config pinned to `threads` workers (clamped to the machine's
/// cores, so on a one-core host every run is the serial loop).
fn with_threads(threads: usize, base: SolverConfig) -> SolverConfig {
    SolverConfig { num_threads: Some(threads), ..base }
}

/// Only unassigned (shed or declined) clients may violate the model.
fn feasible_modulo_admission(system: &CloudSystem, alloc: &Allocation) {
    let violations = check_feasibility(system, alloc);
    assert!(
        violations.iter().all(|v| matches!(v, Violation::Unassigned { .. })),
        "unexpected violations: {violations:?}"
    );
}

#[test]
fn per_cluster_greedy_is_bit_identical_across_seeds() {
    for seed in scenario_seeds(21, 18, 4) {
        let system = generate(&ScenarioConfig::paper(18), seed);
        let serial = with_threads(1, SolverConfig::default());
        let pooled = with_threads(4, SolverConfig::default());
        let order: Vec<ClientId> = (0..system.num_clients()).map(ClientId).collect();
        let a1 = greedy_pass(&SolverCtx::new(&system, &serial), &order);
        let a4 = greedy_pass(&SolverCtx::new(&system, &pooled), &order);
        assert_eq!(a1, a4, "fan-out diverged on seed {seed}");
        assert_eq!(
            evaluate(&system, &a1).profit.to_bits(),
            evaluate(&system, &a4).profit.to_bits(),
            "profit bits diverged on seed {seed}"
        );
    }
}

#[test]
fn the_manager_commits_the_argmax_of_the_agents_answers() {
    let system = generate(&ScenarioConfig::paper(24), 3001);
    let serial = with_threads(1, SolverConfig::default());
    let pooled = with_threads(4, SolverConfig::default());
    let serial_ctx = SolverCtx::new(&system, &serial);
    let pooled_ctx = SolverCtx::new(&system, &pooled);
    let order: Vec<ClientId> = (0..system.num_clients()).rev().map(ClientId).collect();

    let mut alloc = Allocation::new(&system);
    let mut committed = 0;
    for &client in &order {
        // Every agent answers for its own cluster; the manager keeps the
        // first strictly better score, so ties go to the lowest cluster.
        let mut argmax: Option<Candidate> = None;
        for k in 0..system.num_clusters() {
            let answer = assign_distribute(&serial_ctx, &alloc, client, ClusterId(k));
            if let Some(answer) = answer {
                assert_eq!(answer.cluster, ClusterId(k), "agent {k} answered for another cluster");
                if argmax.as_ref().is_none_or(|best| answer.score > best.score) {
                    argmax = Some(answer);
                }
            }
        }
        assert_eq!(best_cluster(&serial_ctx, &alloc, client), argmax, "serial, {client:?}");
        assert_eq!(best_cluster(&pooled_ctx, &alloc, client), argmax, "pooled, {client:?}");
        if let Some(winner) = argmax.filter(|c| c.score > 0.0) {
            commit(&serial_ctx, &mut alloc, client, &winner);
            committed += 1;
        }
    }
    assert!(committed > 0, "the fixture admitted nobody");
    // The walk above is exactly the greedy pass, at every thread count.
    assert_eq!(greedy_pass(&serial_ctx, &order), alloc);
    assert_eq!(greedy_pass(&pooled_ctx, &order), alloc);
    feasible_modulo_admission(&system, &alloc);
}

#[test]
fn solve_is_bit_identical_across_thread_counts() {
    // One initial pass runs inline, so both the greedy step and the
    // per-cluster local-search phases fan out over the pool.
    let base = SolverConfig { num_init_solns: 1, ..SolverConfig::fast() };
    for seed in [3001_u64, 3002] {
        let system = generate(&ScenarioConfig::paper(20), seed);
        let reference = solve(&system, &with_threads(1, base.clone()), 11);
        assert_eq!(
            reference.report.profit.to_bits(),
            evaluate(&system, &reference.allocation).profit.to_bits(),
            "seed {seed}: reported profit is not the canonical score"
        );
        feasible_modulo_admission(&system, &reference.allocation);
        for threads in [2, 4] {
            let run = solve(&system, &with_threads(threads, base.clone()), 11);
            assert_eq!(run.allocation, reference.allocation, "seed {seed}, {threads} threads");
            assert_eq!(run.report.profit.to_bits(), reference.report.profit.to_bits());
            assert_eq!(run.initial_profit.to_bits(), reference.initial_profit.to_bits());
            assert_eq!(run.stats, reference.stats, "seed {seed}, {threads} threads");
        }
    }
}

#[test]
fn monte_carlo_is_identical_across_thread_counts_and_orders_sanely() {
    let system = generate(&ScenarioConfig::small(8), 3003);
    let config = |threads| McConfig {
        iterations: 10,
        solver: with_threads(threads, SolverConfig::fast()),
        polish_best: true,
    };
    let a = monte_carlo(&system, &config(1), 5);
    let b = monte_carlo(&system, &config(4), 5);
    assert_eq!(a.best_allocation, b.best_allocation);
    assert_eq!(a.best_profit.to_bits(), b.best_profit.to_bits());
    assert_eq!(a.worst_raw_profit.to_bits(), b.worst_raw_profit.to_bits());
    assert_eq!(a.worst_polished_profit.to_bits(), b.worst_polished_profit.to_bits());

    assert!(a.best_profit >= a.worst_polished_profit);
    assert!(a.worst_polished_profit >= a.worst_raw_profit - 1e-9);
    assert_eq!(a.best_profit, evaluate(&system, &a.best_allocation).profit);
    feasible_modulo_admission(&system, &a.best_allocation);
}

#[test]
fn repair_rehomes_a_dead_clusters_clients_in_the_other_clusters() {
    let system = generate(&ScenarioConfig::paper(30), 3004);
    let serial = with_threads(1, SolverConfig::default());
    let order: Vec<ClientId> = (0..system.num_clients()).map(ClientId).collect();
    let alloc = greedy_pass(&SolverCtx::new(&system, &serial), &order);

    // Take down every server of the busiest cluster: no victim keeps a
    // surviving branch, so each is re-placed elsewhere or shed.
    let hosted = |k: usize| {
        (0..system.num_clients())
            .filter(|&i| alloc.cluster_of(ClientId(i)) == Some(ClusterId(k)))
            .count()
    };
    let dead = (0..system.num_clusters()).max_by_key(|&k| hosted(k)).unwrap();
    let victims = hosted(dead);
    assert!(victims > 0, "the fixture placed nobody");
    let failed: Vec<ServerId> = system.servers_in(ClusterId(dead)).map(|s| s.id).collect();
    let masked = system.with_failed_servers(&failed);
    let stale = alloc.replayed_onto(&masked);
    let naive_profit = evaluate(&masked, &drop_victims(&masked, &stale, &failed).0).profit;

    let repair = |threads| {
        let config = with_threads(threads, SolverConfig::default());
        let ctx = SolverCtx::new(&masked, &config);
        let mut scored = ScoredAllocation::lowered(&ctx.compiled, stale.clone());
        let stats = repair_failed_servers(&ctx, &mut scored, &failed);
        (stats, scored.into_allocation())
    };
    let (stats, repaired) = repair(1);
    assert_eq!((stats.victims, stats.redispersed), (victims, 0));
    assert_eq!(stats.replaced + stats.shed, victims);
    assert!(stats.replaced > 0, "no victim found a home in another cluster");
    for i in 0..system.num_clients() {
        assert_ne!(repaired.cluster_of(ClientId(i)), Some(ClusterId(dead)), "client {i}");
    }
    for &s in &failed {
        assert!(repaired.residents(s).is_empty(), "mass left on failed {s:?}");
    }
    assert!(evaluate(&masked, &repaired).profit >= naive_profit - 1e-9);
    feasible_modulo_admission(&masked, &repaired);

    let (pooled_stats, pooled) = repair(4);
    assert_eq!(pooled_stats, stats);
    assert_eq!(pooled, repaired);
}
