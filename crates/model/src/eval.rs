//! Profit evaluation and feasibility checking for allocations.
//!
//! This module is the single source of truth for the paper's objective
//! function (problem (2)) and its constraints (3)–(12). Every solver and
//! baseline scores candidate allocations through [`evaluate`]; tests verify
//! solver-internal incremental bookkeeping against it.

use crate::allocation::{Allocation, Placement};
use crate::client::Client;
use crate::ids::{ClientId, ServerId};
use crate::server::ServerClass;
use crate::system::CloudSystem;

/// Tolerance used by [`check_feasibility`] for share sums, dispersion sums
/// and storage fit, absorbing float accumulation from incremental solvers.
pub const FEASIBILITY_TOL: f64 = 1e-6;

/// True when an M/M/1 queue with service rate `service` and arrival rate
/// `arrival` is strictly stable (`service > arrival > = 0`).
pub fn is_stable(service: f64, arrival: f64) -> bool {
    service.is_finite() && arrival >= 0.0 && service > arrival
}

/// Mean time a request of `client` spends on `server` (queueing + service)
/// under `placement`: the two M/M/1 terms of paper Eq. (1),
/// `1/(φ^p μ^p C^p − αλ) + 1/(φ^c μ^c C^c − αλ)`.
///
/// Returns `f64::INFINITY` when either queue is unstable or has no
/// capacity, which makes the corresponding utility collapse to zero instead
/// of producing negative "response times" that would corrupt the profit.
pub fn placement_response_time(class: &ServerClass, client: &Client, placement: Placement) -> f64 {
    let arrival = placement.alpha * client.rate_predicted;
    let service_p = placement.phi_p * class.cap_processing / client.exec_processing;
    let service_c = placement.phi_c * class.cap_communication / client.exec_communication;
    if !is_stable(service_p, arrival) || !is_stable(service_c, arrival) {
        return f64::INFINITY;
    }
    1.0 / (service_p - arrival) + 1.0 / (service_c - arrival)
}

/// Outcome of one client under an allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientOutcome {
    /// Mean response time `R_i = Σ_j α_{ij}·(t^p_{ij} + t^c_{ij})`;
    /// `f64::INFINITY` when unserved or unstable anywhere.
    pub response_time: f64,
    /// Revenue `λ̃_i · U_{c(i)}(R_i)`.
    pub revenue: f64,
}

/// Computes the response time and revenue of a single client.
///
/// A client with no placements (or `Σα < 1`, i.e. traffic that is dropped)
/// is charged an infinite response time and earns zero revenue; partial
/// allocations therefore never look better than complete ones.
pub fn evaluate_client(
    system: &CloudSystem,
    alloc: &Allocation,
    client: ClientId,
) -> ClientOutcome {
    let c = system.client(client);
    let placements = alloc.placements(client);
    let total_alpha: f64 = placements.iter().map(|&(_, p)| p.alpha).sum();
    if placements.is_empty() || total_alpha < 1.0 - FEASIBILITY_TOL {
        return ClientOutcome { response_time: f64::INFINITY, revenue: 0.0 };
    }
    let mut r = 0.0;
    for &(server, p) in placements {
        let t = placement_response_time(system.class_of(server), c, p);
        if !t.is_finite() {
            return ClientOutcome { response_time: f64::INFINITY, revenue: 0.0 };
        }
        r += p.alpha * t;
    }
    let revenue = c.rate_agreed * system.utility_of(client).value(r);
    ClientOutcome { response_time: r, revenue }
}

/// Full profit breakdown of an allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfitReport {
    /// Total revenue `Σ_i λ̃_i·U_i(R_i)`.
    pub revenue: f64,
    /// Total operation cost `Σ_j y_j·(P0_j + P1_j·ρ_j)`.
    pub cost: f64,
    /// `revenue − cost`, the paper's objective.
    pub profit: f64,
    /// Per-client outcomes, indexed by client id.
    pub clients: Vec<ClientOutcome>,
    /// Number of active (ON) servers.
    pub active_servers: usize,
}

/// Evaluates the paper's objective for `alloc`: total revenue minus the
/// operation cost of every active server.
///
/// The result is always finite: unstable or unserved clients earn zero
/// revenue rather than propagating infinities.
pub fn evaluate(system: &CloudSystem, alloc: &Allocation) -> ProfitReport {
    let mut revenue = 0.0;
    let clients: Vec<ClientOutcome> = (0..system.num_clients())
        .map(|i| {
            let outcome = evaluate_client(system, alloc, ClientId(i));
            revenue += outcome.revenue;
            outcome
        })
        .collect();

    let mut cost = 0.0;
    let mut active_servers = 0;
    for j in 0..system.num_servers() {
        let sid = ServerId(j);
        let load = alloc.load(sid);
        if load.is_on() {
            active_servers += 1;
            let class = system.class_of(sid);
            let rho = load.work_processing / class.cap_processing;
            cost += class.operation_cost(rho);
        }
    }
    ProfitReport { revenue, cost, profit: revenue - cost, clients, active_servers }
}

/// A violated constraint of the paper's optimization problem.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// `Σ_i φ^p_{ij} > 1` on a server (constraint (4)).
    ProcessingShareOverflow {
        /// Offending server.
        server: ServerId,
        /// Total granted share (background included).
        total: f64,
    },
    /// `Σ_i φ^c_{ij} > 1` on a server (constraint (4)).
    CommunicationShareOverflow {
        /// Offending server.
        server: ServerId,
        /// Total granted share (background included).
        total: f64,
    },
    /// Committed storage exceeds `C^m_j` (constraints (5)/(8)).
    StorageOverflow {
        /// Offending server.
        server: ServerId,
        /// Committed storage in capacity units.
        used: f64,
        /// The server's storage capacity.
        capacity: f64,
    },
    /// A client is not assigned to any cluster (constraint (6)).
    Unassigned {
        /// Offending client.
        client: ClientId,
    },
    /// `Σ_j α_{ij} ≠ 1` for an assigned client (constraint (6)).
    IncompleteDispersion {
        /// Offending client.
        client: ClientId,
        /// Its current dispersion total.
        total: f64,
    },
    /// A placement lives on a server outside the client's cluster.
    CrossClusterPlacement {
        /// Offending client.
        client: ClientId,
        /// The foreign server.
        server: ServerId,
    },
    /// A queue with positive traffic is not strictly stable.
    UnstableQueue {
        /// Offending client.
        client: ClientId,
        /// Server hosting the unstable queue.
        server: ServerId,
    },
    /// A positive-traffic placement holds less than [`crate::MIN_SHARE`]
    /// of a resource (constraint (7)).
    ShareBelowMinimum {
        /// Offending client.
        client: ClientId,
        /// Server hosting the placement.
        server: ServerId,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ProcessingShareOverflow { server, total } => {
                write!(f, "processing shares on {server} sum to {total:.6} > 1")
            }
            Self::CommunicationShareOverflow { server, total } => {
                write!(f, "communication shares on {server} sum to {total:.6} > 1")
            }
            Self::StorageOverflow { server, used, capacity } => {
                write!(f, "storage on {server} uses {used:.3} of {capacity:.3}")
            }
            Self::Unassigned { client } => write!(f, "{client} is not assigned to any cluster"),
            Self::IncompleteDispersion { client, total } => {
                write!(f, "{client} disperses {total:.6} of its traffic instead of 1")
            }
            Self::CrossClusterPlacement { client, server } => {
                write!(f, "{client} holds a placement on {server} outside its cluster")
            }
            Self::UnstableQueue { client, server } => {
                write!(f, "{client} has an unstable queue on {server}")
            }
            Self::ShareBelowMinimum { client, server } => {
                write!(f, "{client} holds a below-minimum share on {server}")
            }
        }
    }
}

/// Checks every constraint of the paper's problem for `alloc` and returns
/// all violations (empty means feasible).
pub fn check_feasibility(system: &CloudSystem, alloc: &Allocation) -> Vec<Violation> {
    let mut violations = Vec::new();

    for j in 0..system.num_servers() {
        let sid = ServerId(j);
        let load = alloc.load(sid);
        let class = system.class_of(sid);
        if load.phi_p > 1.0 + FEASIBILITY_TOL {
            violations.push(Violation::ProcessingShareOverflow { server: sid, total: load.phi_p });
        }
        if load.phi_c > 1.0 + FEASIBILITY_TOL {
            violations
                .push(Violation::CommunicationShareOverflow { server: sid, total: load.phi_c });
        }
        if load.storage > class.cap_storage + FEASIBILITY_TOL {
            violations.push(Violation::StorageOverflow {
                server: sid,
                used: load.storage,
                capacity: class.cap_storage,
            });
        }
    }

    for i in 0..system.num_clients() {
        let cid = ClientId(i);
        let Some(cluster) = alloc.cluster_of(cid) else {
            violations.push(Violation::Unassigned { client: cid });
            continue;
        };
        let total = alloc.total_alpha(cid);
        if (total - 1.0).abs() > FEASIBILITY_TOL {
            violations.push(Violation::IncompleteDispersion { client: cid, total });
        }
        let c = system.client(cid);
        for &(server, p) in alloc.placements(cid) {
            if system.server(server).cluster != cluster {
                violations.push(Violation::CrossClusterPlacement { client: cid, server });
            }
            if p.phi_p < crate::MIN_SHARE || p.phi_c < crate::MIN_SHARE {
                violations.push(Violation::ShareBelowMinimum { client: cid, server });
            }
            if !placement_response_time(system.class_of(server), c, p).is_finite() {
                violations.push(Violation::UnstableQueue { client: cid, server });
            }
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClusterId, ServerClassId, UtilityClassId};
    use crate::server::Server;
    use crate::{Cluster, UtilityClass, UtilityFunction};
    use proptest::prelude::*;

    fn system() -> CloudSystem {
        let classes = vec![ServerClass::new(ServerClassId(0), 4.0, 2.0, 4.0, 1.0, 0.5)];
        let utils = vec![UtilityClass::new(UtilityClassId(0), UtilityFunction::linear(2.0, 0.5))];
        let mut sys = CloudSystem::new(classes, utils);
        let k0 = sys.add_cluster(Cluster::new(ClusterId(0)));
        let k1 = sys.add_cluster(Cluster::new(ClusterId(1)));
        sys.add_server(Server::new(ServerClassId(0), k0));
        sys.add_server(Server::new(ServerClassId(0), k1));
        sys.add_client(Client::new(ClientId(0), UtilityClassId(0), 1.0, 2.0, 0.5, 0.5, 1.0));
        sys
    }

    fn full_placement() -> Placement {
        Placement { alpha: 1.0, phi_p: 0.5, phi_c: 0.5 }
    }

    fn assigned() -> (CloudSystem, Allocation) {
        let sys = system();
        let mut alloc = Allocation::new(&sys);
        alloc.assign_cluster(ClientId(0), ClusterId(0));
        alloc.place(&sys, ClientId(0), ServerId(0), full_placement());
        (sys, alloc)
    }

    #[test]
    fn response_time_matches_mm1_formula() {
        let (sys, alloc) = assigned();
        // service_p = 0.5*4/0.5 = 4, service_c = 0.5*4/0.5 = 4, arrival = 1
        // R = 1/3 + 1/3
        let outcome = evaluate_client(&sys, &alloc, ClientId(0));
        assert!((outcome.response_time - 2.0 / 3.0).abs() < 1e-12);
        // revenue = agreed(2) * U(2/3) = 2 * (2 - 0.5*2/3)
        assert!((outcome.revenue - 2.0 * (2.0 - 1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn profit_subtracts_affine_server_cost() {
        let (sys, alloc) = assigned();
        let report = evaluate(&sys, &alloc);
        // rho = work/C^p = (1*1*0.5)/4 = 0.125 ; cost = 1 + 0.5*0.125
        assert!((report.cost - 1.0625).abs() < 1e-12);
        assert!((report.profit - (report.revenue - report.cost)).abs() < 1e-12);
        assert_eq!(report.active_servers, 1);
        assert!(check_feasibility(&sys, &alloc).is_empty());
    }

    #[test]
    fn unstable_queue_yields_infinite_response_zero_revenue() {
        let sys = system();
        let mut alloc = Allocation::new(&sys);
        alloc.assign_cluster(ClientId(0), ClusterId(0));
        // service_p = 0.1*4/0.5 = 0.8 < arrival 1.0 → unstable.
        alloc.place(
            &sys,
            ClientId(0),
            ServerId(0),
            Placement { alpha: 1.0, phi_p: 0.1, phi_c: 0.5 },
        );
        let outcome = evaluate_client(&sys, &alloc, ClientId(0));
        assert_eq!(outcome.response_time, f64::INFINITY);
        assert_eq!(outcome.revenue, 0.0);
        assert!(check_feasibility(&sys, &alloc)
            .iter()
            .any(|v| matches!(v, Violation::UnstableQueue { .. })));
        // Profit stays finite: the server still costs money.
        let report = evaluate(&sys, &alloc);
        assert!(report.profit.is_finite());
        assert!(report.profit < 0.0);
    }

    #[test]
    fn unassigned_and_partial_clients_earn_nothing() {
        let sys = system();
        let alloc = Allocation::new(&sys);
        let report = evaluate(&sys, &alloc);
        assert_eq!(report.revenue, 0.0);
        assert_eq!(report.cost, 0.0);
        let violations = check_feasibility(&sys, &alloc);
        assert!(violations.iter().any(|v| matches!(v, Violation::Unassigned { .. })));

        let mut alloc = Allocation::new(&sys);
        alloc.assign_cluster(ClientId(0), ClusterId(0));
        alloc.place(
            &sys,
            ClientId(0),
            ServerId(0),
            Placement { alpha: 0.5, phi_p: 0.5, phi_c: 0.5 },
        );
        assert_eq!(evaluate_client(&sys, &alloc, ClientId(0)).revenue, 0.0);
        assert!(check_feasibility(&sys, &alloc)
            .iter()
            .any(|v| matches!(v, Violation::IncompleteDispersion { .. })));
    }

    #[test]
    fn share_overflow_is_reported() {
        // Background load of 0.5 plus a client share of 0.8 overflows both
        // the processing and communication share budgets.
        let classes = vec![ServerClass::new(ServerClassId(0), 4.0, 2.0, 4.0, 1.0, 0.5)];
        let utils = vec![UtilityClass::new(UtilityClassId(0), UtilityFunction::linear(2.0, 0.5))];
        let mut sys = CloudSystem::new(classes, utils);
        let k0 = sys.add_cluster(Cluster::new(ClusterId(0)));
        sys.add_server_with_background(
            Server::new(ServerClassId(0), k0),
            crate::BackgroundLoad::new(0.5, 0.5, 0.0),
        );
        sys.add_client(Client::new(ClientId(0), UtilityClassId(0), 1.0, 1.0, 0.5, 0.5, 1.0));
        let mut alloc = Allocation::new(&sys);
        alloc.assign_cluster(ClientId(0), ClusterId(0));
        alloc.place(
            &sys,
            ClientId(0),
            ServerId(0),
            Placement { alpha: 1.0, phi_p: 0.8, phi_c: 0.8 },
        );
        let violations = check_feasibility(&sys, &alloc);
        assert!(violations.iter().any(|v| matches!(v, Violation::ProcessingShareOverflow { .. })));
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::CommunicationShareOverflow { .. })));
    }

    #[test]
    fn storage_overflow_is_reported() {
        let classes = vec![ServerClass::new(ServerClassId(0), 4.0, 0.5, 4.0, 1.0, 0.5)];
        let utils = vec![UtilityClass::new(UtilityClassId(0), UtilityFunction::linear(2.0, 0.5))];
        let mut sys = CloudSystem::new(classes, utils);
        let k0 = sys.add_cluster(Cluster::new(ClusterId(0)));
        sys.add_server(Server::new(ServerClassId(0), k0));
        sys.add_client(Client::new(ClientId(0), UtilityClassId(0), 1.0, 1.0, 0.5, 0.5, 1.0));
        let mut alloc = Allocation::new(&sys);
        alloc.assign_cluster(ClientId(0), ClusterId(0));
        alloc.place(&sys, ClientId(0), ServerId(0), full_placement());
        assert!(check_feasibility(&sys, &alloc)
            .iter()
            .any(|v| matches!(v, Violation::StorageOverflow { .. })));
    }

    #[test]
    fn min_share_constraint_is_reported() {
        let (sys, mut alloc) = assigned();
        alloc.place(
            &sys,
            ClientId(0),
            ServerId(0),
            Placement { alpha: 1.0, phi_p: 1e-9, phi_c: 0.5 },
        );
        assert!(check_feasibility(&sys, &alloc)
            .iter()
            .any(|v| matches!(v, Violation::ShareBelowMinimum { .. })));
    }

    #[test]
    fn violations_render_readably() {
        let texts = [
            Violation::ProcessingShareOverflow { server: ServerId(1), total: 1.2 }.to_string(),
            Violation::Unassigned { client: ClientId(3) }.to_string(),
            Violation::IncompleteDispersion { client: ClientId(0), total: 0.5 }.to_string(),
            Violation::UnstableQueue { client: ClientId(2), server: ServerId(4) }.to_string(),
        ];
        assert!(texts[0].contains("s1") && texts[0].contains("1.2"));
        assert!(texts[1].contains("c3"));
        assert!(texts[2].contains("0.5"));
        assert!(texts[3].contains("unstable"));
        for t in &texts {
            // Lowercase, no trailing punctuation (C-GOOD-ERR style).
            assert!(!t.ends_with('.'));
        }
    }

    #[test]
    fn is_stable_boundary() {
        assert!(is_stable(1.0, 0.5));
        assert!(!is_stable(1.0, 1.0));
        assert!(!is_stable(0.0, 0.0));
        assert!(!is_stable(f64::INFINITY, 0.0));
        assert!(!is_stable(1.0, -0.1));
    }

    /// Each stage's stability floor as a share of `class`:
    /// `(processing?, λ·t̄ / C)` for the processing and communication stage.
    fn stage_floors(class: &ServerClass, client: &Client) -> [(bool, f64); 2] {
        [
            (true, client.min_processing_capacity() / class.cap_processing),
            (false, client.min_communication_capacity() / class.cap_communication),
        ]
    }

    /// All of `client`'s traffic with `share` on one stage and the other
    /// stage at `other`.
    fn stage_placement(processing: bool, share: f64, other: f64) -> Placement {
        if processing {
            Placement { alpha: 1.0, phi_p: share, phi_c: other }
        } else {
            Placement { alpha: 1.0, phi_p: other, phi_c: share }
        }
    }

    #[test]
    fn response_time_diverges_cleanly_toward_each_stability_floor() {
        // Floors 2·0.5/4 = 0.25 (processing) and 2·0.75/3 = 0.5
        // (communication), both exact; a full share keeps either stage stable.
        let class = ServerClass::new(ServerClassId(0), 4.0, 2.0, 3.0, 1.0, 0.5);
        let client = Client::new(ClientId(0), UtilityClassId(0), 2.0, 2.0, 0.5, 0.75, 1.0);
        for (processing, floor) in stage_floors(&class, &client) {
            // Shrinking toward the floor: finite, positive, strictly growing.
            let mut last = 0.0;
            for k in 1..=10 {
                let share = floor * (1.0 + 10f64.powi(-k));
                let r = placement_response_time(
                    &class,
                    &client,
                    stage_placement(processing, share, 1.0),
                );
                assert!(r.is_finite() && r > 0.0, "share {share}: response {r}");
                assert!(r > last, "share {share}: response must grow toward the floor");
                last = r;
            }
            // At or below the floor the queue is unstable: a clean +∞,
            // never NaN and never a negative time.
            for share in [floor, floor * 0.5, 0.0] {
                let r = placement_response_time(
                    &class,
                    &client,
                    stage_placement(processing, share, 1.0),
                );
                assert_eq!(r, f64::INFINITY, "share {share}");
            }
        }
    }

    proptest! {
        #[test]
        fn stability_floor_is_tight(
            rate in 0.01f64..5.0,
            exec_p in -4i32..=2,
            exec_c in -4i32..=2,
            cap_p in -2i32..=4,
            cap_c in -2i32..=4,
        ) {
            // Power-of-two execution times and capacities make each floor
            // `λ·t̄ / C` exact, so the boundary is hit bit for bit.
            let class = ServerClass::new(
                ServerClassId(0),
                2f64.powi(cap_p),
                1.0,
                2f64.powi(cap_c),
                1.0,
                0.5,
            );
            let client = Client::new(
                ClientId(0),
                UtilityClassId(0),
                rate,
                rate,
                2f64.powi(exec_p),
                2f64.powi(exec_c),
                0.0,
            );
            let [(_, floor_p), (_, floor_c)] = stage_floors(&class, &client);
            for (processing, floor) in stage_floors(&class, &client) {
                // The other stage sits at twice its own floor.
                let other = 2.0 * if processing { floor_c } else { floor_p };
                let above = placement_response_time(
                    &class,
                    &client,
                    stage_placement(processing, floor * (1.0 + 1e-9), other),
                );
                prop_assert!(above.is_finite() && above > 0.0, "just above {floor}: {above}");
                let at =
                    placement_response_time(&class, &client, stage_placement(processing, floor, other));
                prop_assert_eq!(at, f64::INFINITY);
            }
        }
    }
}
