//! The fluid-GPS engine: each server resource is a single work-conserving
//! processor whose backlogged clients share the capacity in proportion to
//! their GPS shares `φ` (idle shares are redistributed).
//!
//! Under this discipline every client receives *at least* its guaranteed
//! rate `φ·C`, so measured response times are stochastically no worse
//! than the isolated M/M/1 model — the sense in which the analytic
//! formulas are conservative.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cloudalloc_metrics::Sample;
use cloudalloc_model::{Allocation, ClientId, CloudSystem};

use crate::config::SimConfig;
use crate::event::EventQueue;
use crate::report::{ClientSimStats, SimReport};
use crate::sampling;

/// A request in service or queued: its original arrival time and the work
/// (in capacity-units) still owed on the current stage.
#[derive(Debug, Clone, Copy)]
struct Job {
    arrival: f64,
    remaining: f64,
}

/// One client's FIFO lane on a processor.
#[derive(Debug, Clone)]
struct GpsQueue {
    phi: f64,
    jobs: VecDeque<Job>,
}

/// Where a completed job goes next.
#[derive(Debug, Clone, Copy)]
enum Next {
    /// Feed the communication processor `(pid, qid)`; new work drawn with
    /// mean `exec_mean`.
    Stage { pid: usize, qid: usize, exec_mean: f64 },
    /// Leave the system and record the response for `client`.
    Depart { client: usize },
}

/// A GPS processor: one resource of one server.
#[derive(Debug, Clone)]
struct Processor {
    capacity: f64,
    queues: Vec<GpsQueue>,
    nexts: Vec<Next>,
    last_update: f64,
    version: u64,
}

impl Processor {
    /// Sum of shares of backlogged queues.
    fn backlogged_phi(&self) -> f64 {
        self.queues.iter().filter(|q| !q.jobs.is_empty()).map(|q| q.phi).sum()
    }

    /// Drains `t − last_update` of fluid service into the head jobs.
    fn advance(&mut self, t: f64) {
        let dt = t - self.last_update;
        self.last_update = t;
        if dt <= 0.0 {
            return;
        }
        let total_phi = self.backlogged_phi();
        if total_phi <= 0.0 {
            return;
        }
        for q in &mut self.queues {
            if let Some(head) = q.jobs.front_mut() {
                head.remaining -= dt * self.capacity * q.phi / total_phi;
            }
        }
    }

    /// Time until the earliest head-of-line completion, with the queue
    /// index; `None` when idle.
    fn next_completion(&self) -> Option<(f64, usize)> {
        let total_phi = self.backlogged_phi();
        if total_phi <= 0.0 {
            return None;
        }
        let mut best: Option<(f64, usize)> = None;
        for (qid, q) in self.queues.iter().enumerate() {
            if let Some(head) = q.jobs.front() {
                let rate = self.capacity * q.phi / total_phi;
                if rate <= 0.0 {
                    continue;
                }
                let dt = (head.remaining / rate).max(0.0);
                if best.is_none_or(|(b, _)| dt < b) {
                    best = Some((dt, qid));
                }
            }
        }
        best
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrive(usize),
    /// A processor's predicted earliest completion; stale when the
    /// version no longer matches.
    Complete {
        pid: usize,
        version: u64,
    },
}

fn u01(rng: &mut StdRng) -> f64 {
    1.0 - rng.gen::<f64>()
}

/// Re-arms the completion event of processor `pid`.
fn reschedule(processors: &mut [Processor], events: &mut EventQueue<Ev>, pid: usize, now: f64) {
    let p = &mut processors[pid];
    p.version += 1;
    if let Some((dt, _)) = p.next_completion() {
        events.push(now + dt, Ev::Complete { pid, version: p.version });
    }
}

/// Runs the fluid-GPS simulation.
pub fn run(system: &CloudSystem, alloc: &Allocation, config: &SimConfig) -> SimReport {
    assert!(config.failures.is_none(), "failure injection requires the isolated engine");
    assert!(
        config.routing == crate::routing::RoutingPolicy::Static,
        "least-work routing requires the isolated engine"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = system.num_clients();
    let service = config.service;
    let draw_work = move |rng: &mut StdRng, mean: f64| -> f64 {
        service.sample(1.0 - rng.gen::<f64>(), 1.0 - rng.gen::<f64>(), mean)
    };

    // Lazily create the two processors of every server that hosts
    // traffic, registering one queue per placement and stage.
    let mut processors: Vec<Processor> = Vec::new();
    let mut server_procs: Vec<Option<(usize, usize)>> = vec![None; system.num_servers()];
    // Per client: (routing probs, per-branch (proc pid, proc qid, exec_p)).
    struct Branch {
        proc_pid: usize,
        proc_qid: usize,
        exec_p: f64,
    }
    let mut routing: Vec<(Vec<f64>, Vec<Branch>)> = Vec::with_capacity(n);

    for i in 0..n {
        let client = system.client(ClientId(i));
        let mut probs = Vec::new();
        let mut branches = Vec::new();
        for &(server, placement) in alloc.placements(ClientId(i)) {
            let class = system.class_of(server);
            let (proc_pid, comm_pid) = *server_procs[server.index()].get_or_insert_with(|| {
                let proc_pid = processors.len();
                processors.push(Processor {
                    capacity: class.cap_processing,
                    queues: Vec::new(),
                    nexts: Vec::new(),
                    last_update: 0.0,
                    version: 0,
                });
                processors.push(Processor {
                    capacity: class.cap_communication,
                    queues: Vec::new(),
                    nexts: Vec::new(),
                    last_update: 0.0,
                    version: 0,
                });
                (proc_pid, proc_pid + 1)
            });
            let comm_qid = processors[comm_pid].queues.len();
            processors[comm_pid]
                .queues
                .push(GpsQueue { phi: placement.phi_c, jobs: VecDeque::new() });
            processors[comm_pid].nexts.push(Next::Depart { client: i });
            let proc_qid = processors[proc_pid].queues.len();
            processors[proc_pid]
                .queues
                .push(GpsQueue { phi: placement.phi_p, jobs: VecDeque::new() });
            processors[proc_pid].nexts.push(Next::Stage {
                pid: comm_pid,
                qid: comm_qid,
                exec_mean: client.exec_communication,
            });
            probs.push(placement.alpha);
            branches.push(Branch { proc_pid, proc_qid, exec_p: client.exec_processing });
        }
        routing.push((probs, branches));
    }

    let mut stats: Vec<ClientSimStats> = (0..n)
        .map(|_| ClientSimStats { arrivals: 0, completed: 0, dropped: 0, responses: Sample::new() })
        .collect();

    let mut events: EventQueue<Ev> = EventQueue::new();
    for i in 0..n {
        let rate = system.client(ClientId(i)).rate_predicted;
        events.push(sampling::poisson_interarrival(u01(&mut rng), rate), Ev::Arrive(i));
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
                let (probs, branches) = &routing[i];
                match sampling::route(rng.gen::<f64>(), probs) {
                    Some(b) => {
                        let branch = &branches[b];
                        let work = draw_work(&mut rng, branch.exec_p);
                        let p = &mut processors[branch.proc_pid];
                        p.advance(t);
                        p.queues[branch.proc_qid]
                            .jobs
                            .push_back(Job { arrival: t, remaining: work });
                        reschedule(&mut processors, &mut events, branch.proc_pid, t);
                    }
                    None => {
                        if t >= config.warmup {
                            stats[i].dropped += 1;
                        }
                    }
                }
            }
            Ev::Complete { pid, version } => {
                if processors[pid].version != version {
                    continue; // stale prediction
                }
                processors[pid].advance(t);
                let Some((_, qid)) = processors[pid].next_completion() else {
                    continue;
                };
                let job = processors[pid].queues[qid]
                    .jobs
                    .pop_front()
                    .expect("completion on an empty queue");
                let next = processors[pid].nexts[qid];
                reschedule(&mut processors, &mut events, pid, t);
                match next {
                    Next::Stage { pid: comm_pid, qid: comm_qid, exec_mean } => {
                        let work = draw_work(&mut rng, exec_mean);
                        let p = &mut processors[comm_pid];
                        p.advance(t);
                        p.queues[comm_qid]
                            .jobs
                            .push_back(Job { arrival: job.arrival, remaining: work });
                        reschedule(&mut processors, &mut events, comm_pid, t);
                    }
                    Next::Depart { client } => {
                        if job.arrival >= config.warmup {
                            stats[client].completed += 1;
                            stats[client].responses.push(t - job.arrival);
                        }
                    }
                }
            }
        }
    }

    SimReport { clients: stats, events: processed, measured_time: config.horizon - config.warmup }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpsMode;
    use cloudalloc_model::{Placement, ServerId};

    fn two_client_system() -> (CloudSystem, Allocation) {
        use cloudalloc_model::{
            Client, Cluster, ClusterId, Server, ServerClass, ServerClassId, UtilityClass,
            UtilityClassId, UtilityFunction,
        };
        let classes = vec![ServerClass::new(ServerClassId(0), 4.0, 4.0, 4.0, 1.0, 0.5)];
        let utils = vec![UtilityClass::new(UtilityClassId(0), UtilityFunction::linear(2.0, 0.5))];
        let mut sys = CloudSystem::new(classes, utils);
        let k0 = sys.add_cluster(Cluster::new(ClusterId(0)));
        sys.add_server(Server::new(ServerClassId(0), k0));
        for i in 0..2 {
            sys.add_client(Client::new(ClientId(i), UtilityClassId(0), 1.0, 1.0, 0.5, 0.5, 0.5));
        }
        let mut alloc = Allocation::new(&sys);
        for i in 0..2 {
            alloc.assign_cluster(ClientId(i), k0);
            alloc.place(
                &sys,
                ClientId(i),
                ServerId(0),
                Placement { alpha: 1.0, phi_p: 0.5, phi_c: 0.5 },
            );
        }
        (sys, alloc)
    }

    #[test]
    fn shared_gps_beats_isolated_queues_on_average() {
        let (sys, alloc) = two_client_system();
        let base = SimConfig { horizon: 20_000.0, warmup: 1_000.0, seed: 11, ..Default::default() };
        let shared = run(&sys, &alloc, &SimConfig { mode: GpsMode::Shared, ..base });
        let isolated = crate::isolated::run(&sys, &alloc, &base);
        for i in 0..2 {
            let s = shared.clients[i].mean_response();
            let iso = isolated.clients[i].mean_response();
            // Work conservation redistributes idle shares: responses can
            // only improve (allow 2% Monte-Carlo slack).
            assert!(s <= iso * 1.02, "client {i}: shared {s} > isolated {iso}");
        }
    }

    #[test]
    fn single_backlogged_client_gets_full_capacity() {
        // One client holding a 0.5 share of an otherwise idle server is
        // served at the FULL capacity under GPS (work conservation):
        // service rate 4/0.5 = 8 per stage, arrival 1 → mean 2/(8−1).
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
            Placement { alpha: 1.0, phi_p: 0.5, phi_c: 0.5 },
        );
        let config = SimConfig {
            horizon: 40_000.0,
            warmup: 2_000.0,
            seed: 13,
            mode: GpsMode::Shared,
            ..Default::default()
        };
        let report = run(&sys, &alloc, &config);
        let measured = report.clients[0].mean_response();
        let expected = 2.0 / 7.0;
        assert!(
            (measured - expected).abs() / expected < 0.06,
            "measured {measured}, expected {expected}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (sys, alloc) = two_client_system();
        let config = SimConfig { mode: GpsMode::Shared, ..SimConfig::quick(9) };
        let a = run(&sys, &alloc, &config);
        let b = run(&sys, &alloc, &config);
        assert_eq!(a.events, b.events);
        assert_eq!(a.clients[0].responses.values(), b.clients[0].responses.values());
    }

    #[test]
    fn conservation_no_requests_lost() {
        let (sys, alloc) = two_client_system();
        let config = SimConfig {
            horizon: 5_000.0,
            warmup: 0.0,
            seed: 17,
            mode: GpsMode::Shared,
            ..Default::default()
        };
        let report = run(&sys, &alloc, &config);
        for c in &report.clients {
            // Everything that arrived either completed or is still in
            // flight at the horizon; nothing is dropped (Σα = 1) and
            // in-flight work is bounded by a stable queue's backlog.
            assert_eq!(c.dropped, 0);
            assert!(c.completed <= c.arrivals);
            assert!(c.arrivals - c.completed < 100, "suspicious backlog");
        }
    }
}
