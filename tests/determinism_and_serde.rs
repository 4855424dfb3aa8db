//! Integration: reproducibility guarantees and serialization round-trips
//! across the whole stack.

use cloudalloc::baselines::{monte_carlo, McConfig};
use cloudalloc::core::{solve, SolverConfig};
use cloudalloc::model::{evaluate, Allocation, CloudSystem};
use cloudalloc::simulator::{simulate, SimConfig};
use cloudalloc::workload::{generate, ScenarioConfig};

#[test]
fn the_entire_pipeline_is_deterministic() {
    let config = ScenarioConfig::paper(15);
    let run = || {
        let system = generate(&config, 42);
        let result = solve(&system, &SolverConfig::default(), 7);
        let sim = simulate(&system, &result.allocation, &SimConfig::quick(3));
        (result.report.profit, result.allocation.clone(), sim.events)
    };
    let (p1, a1, e1) = run();
    let (p2, a2, e2) = run();
    assert_eq!(p1, p2);
    assert_eq!(a1, a2);
    assert_eq!(e1, e2);
}

#[test]
fn monte_carlo_is_deterministic() {
    let system = generate(&ScenarioConfig::small(10), 55);
    let solver = SolverConfig::fast();
    let mc_config = McConfig { iterations: 8, solver, polish_best: true };
    let m1 = monte_carlo(&system, &mc_config, 5);
    let m2 = monte_carlo(&system, &mc_config, 5);
    assert_eq!(m1.best_profit, m2.best_profit);
    assert_eq!(m1.worst_raw_profit, m2.worst_raw_profit);
}

#[test]
fn system_and_allocation_round_trip_through_json() {
    let system = generate(&ScenarioConfig::small(8), 66);
    let result = solve(&system, &SolverConfig::fast(), 1);

    let sys_json = serde_json::to_string(&system).expect("system serializes");
    let system2: CloudSystem = serde_json::from_str(&sys_json).expect("system deserializes");
    assert_eq!(system2, system);

    let alloc_json = serde_json::to_string(&result.allocation).expect("allocation serializes");
    let alloc2: Allocation = serde_json::from_str(&alloc_json).expect("allocation deserializes");
    assert_eq!(alloc2, result.allocation);

    // The deserialized pair evaluates identically — allocations are
    // portable artifacts (e.g. handed from the manager to dispatchers).
    assert_eq!(evaluate(&system2, &alloc2), result.report);
}

#[test]
fn different_seeds_explore_different_solutions() {
    let system = generate(&ScenarioConfig::paper(20), 88);
    let a = solve(&system, &SolverConfig::default(), 1);
    let b = solve(&system, &SolverConfig::default(), 2);
    // Same system, different random orderings: the *profit* may coincide
    // at the optimum, but the search paths must differ somewhere.
    assert!(
        a.allocation != b.allocation || a.initial_profit != b.initial_profit,
        "two seeds produced byte-identical runs"
    );
}
