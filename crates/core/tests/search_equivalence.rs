//! The compiled (structure-of-arrays) candidate search must return
//! candidates **bit-for-bit** equal — placements, score, response time —
//! to the exhaustive reference path, on randomized systems (varied
//! server-class mixes, background loads, granularities, excluded servers)
//! and through evolving allocation states including savepoint rollbacks.
//! `cloudalloc-model`'s `compiled_agreement.rs` pins every lowered field
//! to the frontend accessor it caches, so a divergence here that the
//! lowering cannot explain blames the dedup/pruning machinery.
//!
//! This suite runs under the default features *and* under
//! `check-incremental` (the CI job builds the whole workspace with that
//! feature), so the slack-index contract is exercised alongside the
//! incremental-scoring cross-checks.

use cloudalloc_core::{
    assign_distribute_excluding, assign_distribute_reference, best_cluster, best_cluster_reference,
    commit, commit_scored, Candidate, SolverConfig, SolverCtx,
};
use cloudalloc_model::{Allocation, ClientId, ClusterId, ScoredAllocation, ServerId};
use cloudalloc_workload::{generate, Range, ScenarioConfig};
use proptest::prelude::*;

/// Bitwise candidate equality: same servers, same placement bits, same
/// score and response-time bits.
fn assert_bitwise_equal(fast: &Option<Candidate>, reference: &Option<Candidate>, what: &str) {
    match (fast, reference) {
        (None, None) => {}
        (Some(f), Some(r)) => {
            assert_eq!(f.cluster, r.cluster, "{what}: cluster");
            assert_eq!(f.placements.len(), r.placements.len(), "{what}: placement count");
            for (a, b) in f.placements.iter().zip(r.placements.iter()) {
                assert_eq!(a.0, b.0, "{what}: server id");
                assert_eq!(a.1.alpha.to_bits(), b.1.alpha.to_bits(), "{what}: alpha bits");
                assert_eq!(a.1.phi_p.to_bits(), b.1.phi_p.to_bits(), "{what}: phi_p bits");
                assert_eq!(a.1.phi_c.to_bits(), b.1.phi_c.to_bits(), "{what}: phi_c bits");
            }
            assert_eq!(f.score.to_bits(), r.score.to_bits(), "{what}: score bits");
            assert_eq!(
                f.response_time.to_bits(),
                r.response_time.to_bits(),
                "{what}: response-time bits"
            );
        }
        _ => panic!("{what}: fast = {fast:?} but reference = {reference:?}"),
    }
}

/// Compares compiled vs reference for every cluster of one client
/// (including a possible excluded server), then for the argmax, and
/// returns the argmax.
fn compare_all_searches(
    ctx: &SolverCtx<'_>,
    alloc: &Allocation,
    client: ClientId,
    exclude: Option<ServerId>,
) -> Option<Candidate> {
    for k in 0..ctx.system.num_clusters() {
        let compiled = assign_distribute_excluding(ctx, alloc, client, ClusterId(k), exclude);
        let reference = assign_distribute_reference(ctx, alloc, client, ClusterId(k), exclude);
        assert_bitwise_equal(&compiled, &reference, &format!("{client} cluster {k}"));
    }
    let compiled = best_cluster(ctx, alloc, client);
    let reference = best_cluster_reference(ctx, alloc, client);
    assert_bitwise_equal(&compiled, &reference, &format!("{client} best_cluster"));
    compiled
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Greedy construction over a randomized scenario: every candidate at
    /// every step must match the reference bitwise as the allocation fills
    /// up (the interesting states: identical empty servers first, then
    /// progressively diverging loads).
    #[test]
    fn fast_search_matches_reference_bitwise(
        n in 2usize..12,
        granularity in 2usize..14,
        clusters in 1usize..4,
        classes in 1usize..5,
        background in 0usize..2,
        seed in any::<u64>(),
    ) {
        let mut scenario = ScenarioConfig::small(n);
        scenario.num_clusters = clusters;
        scenario.num_server_classes = classes;
        scenario.servers_per_class = Range::new(1.0, 4.0);
        scenario.background_fraction = background as f64 * 0.5;
        let system = generate(&scenario, seed);
        let config = SolverConfig { alpha_granularity: granularity, ..Default::default() };
        let ctx = SolverCtx::new(&system, &config);

        let mut alloc = Allocation::new(&system);
        for i in 0..n {
            // Exercise the excluded-server branch on a rotating server.
            let exclude = Some(ServerId(i % system.num_servers()));
            let cluster = ClusterId(i % system.num_clusters());
            let fast = assign_distribute_excluding(&ctx, &alloc, ClientId(i), cluster, exclude);
            let reference =
                assign_distribute_reference(&ctx, &alloc, ClientId(i), cluster, exclude);
            assert_bitwise_equal(&fast, &reference, &format!("client {i} excluding"));

            if let Some(cand) = compare_all_searches(&ctx, &alloc, ClientId(i), None) {
                commit(&ctx, &mut alloc, ClientId(i), &cand);
            }
        }
        // Re-search every placed client against the loaded allocation.
        for i in 0..n {
            if alloc.cluster_of(ClientId(i)).is_none() {
                continue;
            }
            alloc.clear_client(&system, ClientId(i));
            if let Some(cand) = compare_all_searches(&ctx, &alloc, ClientId(i), None) {
                commit(&ctx, &mut alloc, ClientId(i), &cand);
            }
        }
    }

    /// The slack index only ever over-estimates free capacity, so searches
    /// against a `ScoredAllocation` must stay exact through savepoint
    /// rollbacks (which restore loads but leave the bounds raised) and
    /// commits (which tighten the bounds back to exact).
    #[test]
    fn search_stays_exact_through_rollbacks(
        n in 2usize..8,
        seed in any::<u64>(),
    ) {
        let scenario = ScenarioConfig::small(n);
        let system = generate(&scenario, seed);
        let config = SolverConfig::default();
        let ctx = SolverCtx::new(&system, &config);

        let mut scored = ScoredAllocation::fresh(&system);
        for i in 0..n {
            let Some(cand) = best_cluster(&ctx, scored.alloc(), ClientId(i)) else {
                continue;
            };
            commit_scored(&mut scored, ClientId(i), &cand);
        }
        scored.commit();

        for i in 0..n {
            if scored.alloc().cluster_of(ClientId(i)).is_none() {
                continue;
            }
            // Tentatively rip the client out, search, then roll back.
            let mark = scored.savepoint();
            scored.clear_client(ClientId(i));
            compare_all_searches(&ctx, scored.alloc(), ClientId(i), None);
            scored.rollback_to(mark);
            // After the rollback the allocation is restored; searches for
            // a *different* (fresh) placement must still be exact.
            let probe = ClientId((i + 1) % n);
            if scored.alloc().cluster_of(probe).is_none() {
                compare_all_searches(&ctx, scored.alloc(), probe, None);
            }
        }
        scored.commit();
        for i in 0..n {
            if scored.alloc().cluster_of(ClientId(i)).is_some() {
                let mark = scored.savepoint();
                scored.clear_client(ClientId(i));
                compare_all_searches(&ctx, scored.alloc(), ClientId(i), None);
                scored.rollback_to(mark);
            }
        }
    }
}

/// The paper-shaped scenario (5 clusters × 10 classes × U(2,6) servers,
/// ~200 servers) is where run dedup collapses hardest; pin one
/// deterministic end-to-end equivalence on it.
#[test]
fn paper_scale_greedy_is_bitwise_identical() {
    let system = generate(&ScenarioConfig::paper(30), 1234);
    let config = SolverConfig::default();
    let ctx = SolverCtx::new(&system, &config);

    let mut fast_alloc = Allocation::new(&system);
    let mut ref_alloc = Allocation::new(&system);
    for i in 0..system.num_clients() {
        let fast = best_cluster(&ctx, &fast_alloc, ClientId(i));
        let reference = best_cluster_reference(&ctx, &ref_alloc, ClientId(i));
        assert_bitwise_equal(&fast, &reference, &format!("client {i}"));
        if let Some(cand) = fast {
            commit(&ctx, &mut fast_alloc, ClientId(i), &cand);
            commit(&ctx, &mut ref_alloc, ClientId(i), &cand);
        }
    }
    assert_eq!(fast_alloc, ref_alloc);
}
