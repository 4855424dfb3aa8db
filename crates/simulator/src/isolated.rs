//! The isolated-queues engine: every (client, server, resource) triple is
//! an independent server with the configured service distribution — with
//! exponential service, exactly the stochastic system behind the paper's
//! Eq. (1). Optionally injects server failures (exponential up/down).

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cloudalloc_metrics::Sample;
use cloudalloc_model::{Allocation, ClientId, CloudSystem, ServerId};

use crate::config::SimConfig;
use crate::event::EventQueue;
use crate::report::{ClientSimStats, SimReport};
use crate::sampling;

/// One tandem lane: the pair of FIFO queues a client holds on one server.
struct Lane {
    client: usize,
    /// Index into the failure-tracked server table.
    server_slot: usize,
    /// Service rate of the processing stage (`φ^p·C^p/t̄^p`).
    rate_p: f64,
    /// Service rate of the communication stage.
    rate_c: f64,
    /// Requests waiting/being served in the processing stage
    /// (each entry is its arrival timestamp).
    queue_p: VecDeque<f64>,
    /// Requests in the communication stage.
    queue_c: VecDeque<f64>,
    /// Bumped on failure to invalidate scheduled completions.
    version_p: u64,
    /// Bumped on failure to invalidate scheduled completions.
    version_c: u64,
}

/// Failure-tracking state of one physical server.
struct ServerState {
    up: bool,
    lanes: Vec<usize>,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Next request of a client arrives.
    Arrive(usize),
    /// The processing stage of a lane finishes its head request.
    ProcDone { lane: usize, version: u64 },
    /// The communication stage of a lane finishes its head request.
    CommDone { lane: usize, version: u64 },
    /// A server goes down.
    Fail(usize),
    /// A server comes back up.
    Repair(usize),
}

/// Draws a uniform in `(0, 1]` (the domain of the inverse-CDF samplers).
fn u01(rng: &mut StdRng) -> f64 {
    1.0 - rng.gen::<f64>()
}

/// Runs the isolated-queues simulation.
pub fn run(system: &CloudSystem, alloc: &Allocation, config: &SimConfig) -> SimReport {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = system.num_clients();
    let service = config.service;
    let draw_service = |rng: &mut StdRng, rate: f64| -> f64 {
        // `rate` is the stage's service rate; the distribution preserves
        // the mean `1/rate` and sets the shape.
        service.sample(u01(rng), u01(rng), 1.0 / rate)
    };

    // Build lanes, the per-client routing tables, and the server table.
    let mut lanes: Vec<Lane> = Vec::new();
    let mut routing: Vec<(Vec<f64>, Vec<usize>)> = Vec::with_capacity(n);
    let mut server_slot_of: Vec<Option<usize>> = vec![None; system.num_servers()];
    let mut servers: Vec<ServerState> = Vec::new();
    for i in 0..n {
        let client = system.client(ClientId(i));
        let mut probs = Vec::new();
        let mut lane_ids = Vec::new();
        for &(server, p) in alloc.placements(ClientId(i)) {
            let class = system.class_of(server);
            let slot = *server_slot_of[ServerId::index(server)].get_or_insert_with(|| {
                servers.push(ServerState { up: true, lanes: Vec::new() });
                servers.len() - 1
            });
            probs.push(p.alpha);
            lane_ids.push(lanes.len());
            servers[slot].lanes.push(lanes.len());
            lanes.push(Lane {
                client: i,
                server_slot: slot,
                rate_p: p.phi_p * class.cap_processing / client.exec_processing,
                rate_c: p.phi_c * class.cap_communication / client.exec_communication,
                queue_p: VecDeque::new(),
                queue_c: VecDeque::new(),
                version_p: 0,
                version_c: 0,
            });
        }
        routing.push((probs, lane_ids));
    }

    let mut stats: Vec<ClientSimStats> = (0..n)
        .map(|_| ClientSimStats { arrivals: 0, completed: 0, dropped: 0, responses: Sample::new() })
        .collect();

    let mut events: EventQueue<Ev> = EventQueue::new();
    for i in 0..n {
        let rate = system.client(ClientId(i)).rate_predicted;
        events.push(sampling::poisson_interarrival(u01(&mut rng), rate), Ev::Arrive(i));
    }
    if let Some(failures) = &config.failures {
        for slot in 0..servers.len() {
            events.push(sampling::exponential(u01(&mut rng), 1.0 / failures.mtbf), Ev::Fail(slot));
        }
    }

    let mut processed: u64 = 0;
    while let Some((t, ev)) = events.pop() {
        if t > config.horizon {
            break;
        }
        processed += 1;
        match ev {
            Ev::Arrive(i) => {
                let rate = system.client(ClientId(i)).rate_predicted;
                events.push(t + sampling::poisson_interarrival(u01(&mut rng), rate), Ev::Arrive(i));
                if t >= config.warmup {
                    stats[i].arrivals += 1;
                }
                let (probs, lane_ids) = &routing[i];
                let choice = match config.routing {
                    crate::routing::RoutingPolicy::Static => {
                        sampling::route(rng.gen::<f64>(), probs)
                    }
                    crate::routing::RoutingPolicy::LeastWork => {
                        // Expected wait per branch: remaining work in both
                        // stages plus the new request, at the branch rates.
                        let waits: Vec<f64> = lane_ids
                            .iter()
                            .map(|&lid| {
                                let lane = &lanes[lid];
                                if lane.rate_p <= 0.0 || lane.rate_c <= 0.0 {
                                    return f64::INFINITY;
                                }
                                (lane.queue_p.len() as f64 + 1.0) / lane.rate_p
                                    + lane.queue_c.len() as f64 / lane.rate_c
                            })
                            .collect();
                        crate::routing::least_work_choice(&waits, probs)
                    }
                };
                match choice {
                    Some(branch) => {
                        let lane_id = lane_ids[branch];
                        let lane = &mut lanes[lane_id];
                        lane.queue_p.push_back(t);
                        // Head of an idle queue starts service immediately
                        // (unless the server is down; repair restarts it).
                        if lane.queue_p.len() == 1
                            && lane.rate_p > 0.0
                            && servers[lane.server_slot].up
                        {
                            let dt = draw_service(&mut rng, lane.rate_p);
                            events.push(
                                t + dt,
                                Ev::ProcDone { lane: lane_id, version: lane.version_p },
                            );
                        }
                    }
                    None => {
                        if t >= config.warmup {
                            stats[i].dropped += 1;
                        }
                    }
                }
            }
            Ev::ProcDone { lane: lane_id, version } => {
                if lanes[lane_id].version_p != version {
                    continue; // invalidated by a failure
                }
                let slot = lanes[lane_id].server_slot;
                debug_assert!(servers[slot].up, "completions cannot fire while down");
                let dt_next = if lanes[lane_id].queue_p.len() > 1 {
                    Some(draw_service(&mut rng, lanes[lane_id].rate_p))
                } else {
                    None
                };
                let comm_was_idle = lanes[lane_id].queue_c.is_empty();
                let dt_comm = if comm_was_idle && lanes[lane_id].rate_c > 0.0 {
                    Some(draw_service(&mut rng, lanes[lane_id].rate_c))
                } else {
                    None
                };
                let lane = &mut lanes[lane_id];
                let arrival = lane.queue_p.pop_front().expect("service completion without a job");
                if let Some(dt) = dt_next {
                    events.push(t + dt, Ev::ProcDone { lane: lane_id, version: lane.version_p });
                }
                lane.queue_c.push_back(arrival);
                if let Some(dt) = dt_comm {
                    events.push(t + dt, Ev::CommDone { lane: lane_id, version: lane.version_c });
                }
            }
            Ev::CommDone { lane: lane_id, version } => {
                if lanes[lane_id].version_c != version {
                    continue;
                }
                let dt_next = if lanes[lane_id].queue_c.len() > 1 {
                    Some(draw_service(&mut rng, lanes[lane_id].rate_c))
                } else {
                    None
                };
                let lane = &mut lanes[lane_id];
                let arrival = lane.queue_c.pop_front().expect("service completion without a job");
                if let Some(dt) = dt_next {
                    events.push(t + dt, Ev::CommDone { lane: lane_id, version: lane.version_c });
                }
                if arrival >= config.warmup {
                    let client = lane.client;
                    stats[client].completed += 1;
                    stats[client].responses.push(t - arrival);
                }
            }
            Ev::Fail(slot) => {
                let failures = config.failures.expect("failure event without a config");
                servers[slot].up = false;
                // Invalidate every scheduled completion on this server;
                // queued work stalls until the repair.
                for &lane_id in &servers[slot].lanes {
                    lanes[lane_id].version_p += 1;
                    lanes[lane_id].version_c += 1;
                }
                events.push(
                    t + sampling::exponential(u01(&mut rng), 1.0 / failures.mttr),
                    Ev::Repair(slot),
                );
            }
            Ev::Repair(slot) => {
                let failures = config.failures.expect("repair event without a config");
                servers[slot].up = true;
                // Restart service at the head of every backlogged queue.
                let lane_ids = servers[slot].lanes.clone();
                for lane_id in lane_ids {
                    if !lanes[lane_id].queue_p.is_empty() && lanes[lane_id].rate_p > 0.0 {
                        let dt = draw_service(&mut rng, lanes[lane_id].rate_p);
                        events.push(
                            t + dt,
                            Ev::ProcDone { lane: lane_id, version: lanes[lane_id].version_p },
                        );
                    }
                    if !lanes[lane_id].queue_c.is_empty() && lanes[lane_id].rate_c > 0.0 {
                        let dt = draw_service(&mut rng, lanes[lane_id].rate_c);
                        events.push(
                            t + dt,
                            Ev::CommDone { lane: lane_id, version: lanes[lane_id].version_c },
                        );
                    }
                }
                events.push(
                    t + sampling::exponential(u01(&mut rng), 1.0 / failures.mtbf),
                    Ev::Fail(slot),
                );
            }
        }
    }

    SimReport { clients: stats, events: processed, measured_time: config.horizon - config.warmup }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failures::FailureConfig;
    use crate::service::ServiceDistribution;
    use cloudalloc_model::{Placement, ServerId};

    /// One client, one server, generous shares: the measured mean response
    /// must match the M/M/1 tandem formula within Monte-Carlo error.
    fn single_client_system(phi: f64) -> (CloudSystem, Allocation) {
        use cloudalloc_model::{
            Client, Cluster, ClusterId, Server, ServerClass, ServerClassId, UtilityClass,
            UtilityClassId, UtilityFunction,
        };
        let classes = vec![ServerClass::new(ServerClassId(0), 4.0, 4.0, 4.0, 1.0, 0.5)];
        let utils = vec![UtilityClass::new(UtilityClassId(0), UtilityFunction::linear(2.0, 0.5))];
        let mut sys = CloudSystem::new(classes, utils);
        let k0 = sys.add_cluster(Cluster::new(ClusterId(0)));
        sys.add_server(Server::new(ServerClassId(0), k0));
        sys.add_client(Client::new(ClientId(0), UtilityClassId(0), 1.0, 1.0, 0.5, 0.5, 0.5));
        let mut alloc = Allocation::new(&sys);
        alloc.assign_cluster(ClientId(0), k0);
        alloc.place(
            &sys,
            ClientId(0),
            ServerId(0),
            Placement { alpha: 1.0, phi_p: phi, phi_c: phi },
        );
        (sys, alloc)
    }

    #[test]
    fn matches_the_analytic_tandem_mean() {
        let (sys, alloc) = single_client_system(0.5);
        // service rate = 0.5*4/0.5 = 4 per stage, arrival 1 → R = 2/(4−1).
        let expected = 2.0 / 3.0;
        let config =
            SimConfig { horizon: 40_000.0, warmup: 2_000.0, seed: 7, ..Default::default() };
        let report = run(&sys, &alloc, &config);
        let measured = report.clients[0].mean_response();
        assert!(
            (measured - expected).abs() / expected < 0.05,
            "measured {measured}, expected {expected}"
        );
        assert_eq!(report.clients[0].dropped, 0);
        assert!(report.clients[0].completed > 10_000);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let (sys, alloc) = single_client_system(0.5);
        let config = SimConfig::quick(3);
        let a = run(&sys, &alloc, &config);
        let b = run(&sys, &alloc, &config);
        assert_eq!(a.events, b.events);
        assert_eq!(a.clients[0].responses.values(), b.clients[0].responses.values());
        let c = run(&sys, &alloc, &SimConfig::quick(4));
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn unassigned_clients_complete_nothing() {
        let (sys, _) = single_client_system(0.5);
        let empty = Allocation::new(&sys);
        let report = run(&sys, &empty, &SimConfig::quick(1));
        assert_eq!(report.clients[0].completed, 0);
        assert_eq!(report.clients[0].mean_response(), f64::INFINITY);
        // Every generated request was dropped.
        assert_eq!(report.clients[0].arrivals, report.clients[0].dropped);
    }

    #[test]
    fn tighter_shares_mean_longer_responses() {
        let config = SimConfig { horizon: 10_000.0, warmup: 500.0, seed: 5, ..Default::default() };
        let (sys_a, alloc_a) = single_client_system(0.9);
        let (sys_b, alloc_b) = single_client_system(0.3);
        let fast = run(&sys_a, &alloc_a, &config).clients[0].mean_response();
        let slow = run(&sys_b, &alloc_b, &config).clients[0].mean_response();
        assert!(slow > fast, "slow {slow} <= fast {fast}");
    }

    #[test]
    fn deterministic_service_beats_exponential() {
        // Pollaczek–Khinchine: at equal utilization, M/D/1 waits are half
        // the M/M/1 waits, so mean response must drop.
        let (sys, alloc) = single_client_system(0.5);
        let base = SimConfig { horizon: 30_000.0, warmup: 1_000.0, seed: 9, ..Default::default() };
        let exp = run(&sys, &alloc, &base).clients[0].mean_response();
        let det =
            run(&sys, &alloc, &SimConfig { service: ServiceDistribution::Deterministic, ..base })
                .clients[0]
                .mean_response();
        assert!(det < exp, "M/D/1 {det} should beat M/M/1 {exp}");
        // And the P-K prediction for the mean response of one stage:
        // R = 1/μ + ρ/(2μ(1−ρ)) with μ=4, ρ=0.25 → per stage ≈ 0.2917.
        let pk = 2.0 * (0.25 + 0.25 / (2.0 * 4.0 * 0.75));
        assert!((det - pk).abs() / pk < 0.08, "M/D/1 {det} vs P-K {pk}");
    }

    #[test]
    fn bursty_service_matches_pollaczek_khinchine() {
        // One stage at a time: the measured tandem mean must match the
        // sum of the two M/G/1 sojourns within Monte-Carlo error.
        let (sys, alloc) = single_client_system(0.5);
        let cv2 = 4.0;
        let config = SimConfig {
            horizon: 60_000.0,
            warmup: 2_000.0,
            seed: 31,
            service: ServiceDistribution::HyperExponential { cv2 },
            ..Default::default()
        };
        let measured = run(&sys, &alloc, &config).clients[0].mean_response();
        // Each stage, by P-K with μ=4, ρ=0.25, CV²=4:
        // R = 1/μ + ρ(1+CV²)/(2μ(1−ρ)) ≈ 0.4583.
        let predicted = 2.0 * (0.25 + 0.25 * (1.0 + cv2) / (2.0 * 4.0 * 0.75));
        assert!(
            (measured - predicted).abs() / predicted < 0.08,
            "measured {measured}, P-K predicts {predicted}"
        );
    }

    #[test]
    fn bursty_service_hurts_responses() {
        let (sys, alloc) = single_client_system(0.5);
        let base = SimConfig { horizon: 30_000.0, warmup: 1_000.0, seed: 11, ..Default::default() };
        let exp = run(&sys, &alloc, &base).clients[0].mean_response();
        let bursty = run(
            &sys,
            &alloc,
            &SimConfig { service: ServiceDistribution::HyperExponential { cv2: 6.0 }, ..base },
        )
        .clients[0]
            .mean_response();
        assert!(bursty > exp, "bursty {bursty} should exceed exponential {exp}");
    }

    #[test]
    fn failures_degrade_responses_but_lose_no_requests() {
        let (sys, alloc) = single_client_system(0.8);
        let base = SimConfig { horizon: 20_000.0, warmup: 1_000.0, seed: 13, ..Default::default() };
        let healthy = run(&sys, &alloc, &base);
        let faulty = run(
            &sys,
            &alloc,
            &SimConfig { failures: Some(FailureConfig::new(200.0, 20.0)), ..base },
        );
        assert!(
            faulty.clients[0].mean_response() > healthy.clients[0].mean_response(),
            "outages must inflate responses"
        );
        // Nothing is dropped: requests wait out the outage.
        assert_eq!(faulty.clients[0].dropped, 0);
        // Completions still happen at a healthy clip (availability ~0.91).
        assert!(faulty.clients[0].completed as f64 > 0.8 * healthy.clients[0].completed as f64);
    }

    #[test]
    fn least_work_routing_beats_bernoulli_splitting() {
        // A client split 50/50 over two identical servers: the work-aware
        // dispatcher avoids the sampling noise of independent splitting
        // (classic JSQ-vs-Bernoulli) and must cut the mean response.
        use cloudalloc_model::{
            Client, Cluster, ClusterId, Server, ServerClass, ServerClassId, UtilityClass,
            UtilityClassId, UtilityFunction,
        };
        let classes = vec![ServerClass::new(ServerClassId(0), 4.0, 4.0, 4.0, 1.0, 0.5)];
        let utils = vec![UtilityClass::new(UtilityClassId(0), UtilityFunction::linear(2.0, 0.5))];
        let mut sys = CloudSystem::new(classes, utils);
        let k0 = sys.add_cluster(Cluster::new(ClusterId(0)));
        let s0 = sys.add_server(Server::new(ServerClassId(0), k0));
        let s1 = sys.add_server(Server::new(ServerClassId(0), k0));
        sys.add_client(Client::new(ClientId(0), UtilityClassId(0), 3.0, 3.0, 0.5, 0.5, 0.5));
        let mut alloc = Allocation::new(&sys);
        alloc.assign_cluster(ClientId(0), k0);
        for server in [s0, s1] {
            alloc.place(
                &sys,
                ClientId(0),
                server,
                Placement { alpha: 0.5, phi_p: 0.5, phi_c: 0.5 },
            );
        }
        let base = SimConfig { horizon: 20_000.0, warmup: 1_000.0, seed: 23, ..Default::default() };
        let static_r = run(&sys, &alloc, &base).clients[0].mean_response();
        let lw = SimConfig { routing: crate::routing::RoutingPolicy::LeastWork, ..base };
        let least_work_r = run(&sys, &alloc, &lw).clients[0].mean_response();
        assert!(least_work_r < static_r, "least-work {least_work_r} should beat static {static_r}");
    }

    #[test]
    fn failure_runs_are_deterministic() {
        let (sys, alloc) = single_client_system(0.8);
        let config =
            SimConfig { failures: Some(FailureConfig::new(50.0, 10.0)), ..SimConfig::quick(21) };
        let a = run(&sys, &alloc, &config);
        let b = run(&sys, &alloc, &config);
        assert_eq!(a.events, b.events);
        assert_eq!(a.clients[0].responses.values(), b.clients[0].responses.values());
    }
}
