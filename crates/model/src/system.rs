//! The [`CloudSystem`]: the full static description of one decision epoch.

use serde::{Deserialize, Serialize};

use crate::client::Client;
use crate::cluster::{BackgroundLoad, Cluster};
use crate::error::ModelError;
use crate::ids::{ClientId, ClusterId, ServerClassId, ServerId, UtilityClassId};
use crate::server::{Server, ServerClass, ServerRef};
use crate::utility::{UtilityClass, UtilityFunction};

/// Everything the resource manager knows at the start of a decision epoch:
/// the hardware catalog, the cluster topology, the pre-existing background
/// load, and the client population with its SLAs.
///
/// `CloudSystem` is immutable during optimization; all decisions live in a
/// separate [`crate::Allocation`]. Entities are stored densely and addressed
/// by their typed ids, which double as indices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CloudSystem {
    server_classes: Vec<ServerClass>,
    utility_classes: Vec<UtilityClass>,
    clusters: Vec<Cluster>,
    servers: Vec<Server>,
    background: Vec<BackgroundLoad>,
    clients: Vec<Client>,
}

impl CloudSystem {
    /// Creates a system from a hardware catalog and an SLA catalog,
    /// reporting catalog-position mismatches as typed errors.
    pub fn try_new(
        server_classes: Vec<ServerClass>,
        utility_classes: Vec<UtilityClass>,
    ) -> Result<Self, ModelError> {
        for (pos, sc) in server_classes.iter().enumerate() {
            if sc.id.index() != pos {
                return Err(ModelError::IdMismatch {
                    kind: "server class",
                    slot: "catalog",
                    declared: sc.id.index(),
                    position: pos,
                });
            }
        }
        for (pos, uc) in utility_classes.iter().enumerate() {
            if uc.id.index() != pos {
                return Err(ModelError::IdMismatch {
                    kind: "utility class",
                    slot: "catalog",
                    declared: uc.id.index(),
                    position: pos,
                });
            }
        }
        Ok(Self {
            server_classes,
            utility_classes,
            clusters: Vec::new(),
            servers: Vec::new(),
            background: Vec::new(),
            clients: Vec::new(),
        })
    }

    /// Creates a system from a hardware catalog and an SLA catalog.
    ///
    /// # Panics
    ///
    /// Panics if any catalog entry's id does not match its position.
    pub fn new(server_classes: Vec<ServerClass>, utility_classes: Vec<UtilityClass>) -> Self {
        Self::try_new(server_classes, utility_classes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Adds a cluster, returning its id, or a typed error when the
    /// declared id does not match its position or the cluster already
    /// lists servers (servers are attached via [`CloudSystem::add_server`]).
    pub fn try_add_cluster(&mut self, cluster: Cluster) -> Result<ClusterId, ModelError> {
        if cluster.id.index() != self.clusters.len() {
            return Err(ModelError::IdMismatch {
                kind: "cluster",
                slot: "insertion",
                declared: cluster.id.index(),
                position: self.clusters.len(),
            });
        }
        if !cluster.is_empty() {
            return Err(ModelError::NonEmptyCluster);
        }
        let id = cluster.id;
        self.clusters.push(cluster);
        Ok(id)
    }

    /// Adds a cluster, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the cluster's declared id does not match its position or
    /// it already lists servers (servers are attached via [`add_server`]).
    ///
    /// [`add_server`]: CloudSystem::add_server
    pub fn add_cluster(&mut self, cluster: Cluster) -> ClusterId {
        self.try_add_cluster(cluster).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Adds a server with no background load, returning its global id or
    /// a typed error for unknown class/cluster references.
    pub fn try_add_server(&mut self, server: Server) -> Result<ServerId, ModelError> {
        self.try_add_server_with_background(server, BackgroundLoad::default())
    }

    /// Adds a server with no background load, returning its global id.
    ///
    /// # Panics
    ///
    /// Panics if the server references an unknown class or cluster.
    pub fn add_server(&mut self, server: Server) -> ServerId {
        self.try_add_server(server).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Adds a server that already carries background load, returning a
    /// typed error for unknown references or background storage that does
    /// not fit the class.
    pub fn try_add_server_with_background(
        &mut self,
        server: Server,
        background: BackgroundLoad,
    ) -> Result<ServerId, ModelError> {
        let class =
            self.server_classes.get(server.class.index()).ok_or(ModelError::UnknownEntity {
                kind: "server class",
                index: server.class.index(),
            })?;
        if background.storage > class.cap_storage {
            return Err(ModelError::BackgroundStorageOverflow {
                used: background.storage,
                capacity: class.cap_storage,
            });
        }
        if server.cluster.index() >= self.clusters.len() {
            return Err(ModelError::UnknownEntity {
                kind: "cluster",
                index: server.cluster.index(),
            });
        }
        let id = ServerId(self.servers.len());
        self.clusters[server.cluster.index()].servers.push(id);
        self.servers.push(server);
        self.background.push(background);
        Ok(id)
    }

    /// Adds a server that already carries background load.
    ///
    /// # Panics
    ///
    /// Panics if the server references an unknown class or cluster, or the
    /// background storage exceeds the class's storage capacity.
    pub fn add_server_with_background(
        &mut self,
        server: Server,
        background: BackgroundLoad,
    ) -> ServerId {
        self.try_add_server_with_background(server, background).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Adds a client, returning its id or a typed error when the declared
    /// id does not match its position or the utility class is unknown.
    pub fn try_add_client(&mut self, client: Client) -> Result<ClientId, ModelError> {
        if client.id.index() != self.clients.len() {
            return Err(ModelError::IdMismatch {
                kind: "client",
                slot: "insertion",
                declared: client.id.index(),
                position: self.clients.len(),
            });
        }
        if client.utility_class.index() >= self.utility_classes.len() {
            return Err(ModelError::UnknownEntity {
                kind: "utility class",
                index: client.utility_class.index(),
            });
        }
        let id = client.id;
        self.clients.push(client);
        Ok(id)
    }

    /// Adds a client, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the client's declared id does not match its position or it
    /// references an unknown utility class.
    pub fn add_client(&mut self, client: Client) -> ClientId {
        self.try_add_client(client).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Reserves exact capacity for `additional` further clients, so a
    /// streaming producer that knows its population up front appends
    /// without amortized-doubling overshoot (at a million clients the
    /// doubling transiently holds ~1.5× the final vector).
    pub fn reserve_clients(&mut self, additional: usize) {
        self.clients.reserve_exact(additional);
    }

    /// Deletes client `id` in place and renumbers every later client down
    /// by one, so ids keep equalling positions — the admission server's
    /// departure seam, equal to re-admitting the survivors through
    /// [`CloudSystem::try_with_clients`].
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn remove_client(&mut self, id: ClientId) -> Client {
        let removed = self.clients.remove(id.index());
        for (pos, client) in self.clients.iter_mut().enumerate().skip(id.index()) {
            client.id = ClientId(pos);
        }
        removed
    }

    /// Replaces client `id`'s agreed and predicted arrival rates in place
    /// (a renegotiated contract).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or either rate is not positive
    /// and finite.
    pub fn set_client_rates(&mut self, id: ClientId, rate_agreed: f64, rate_predicted: f64) {
        for rate in [rate_agreed, rate_predicted] {
            assert!(rate.is_finite() && rate > 0.0, "rates must be positive, got {rate}");
        }
        let client = &mut self.clients[id.index()];
        client.rate_agreed = rate_agreed;
        client.rate_predicted = rate_predicted;
    }

    /// Full consistency check for systems that *bypassed* the fallible
    /// constructors — serde derives on the private fields mean a
    /// deserialized JSON scenario never went through `try_add_*`. The CLI
    /// calls this right after loading untrusted input.
    ///
    /// Verifies the structural invariants (ids match positions, every
    /// reference resolves, cluster membership lists agree with the server
    /// records) and the numeric domains every panicking constructor
    /// enforces.
    pub fn validate(&self) -> Result<(), ModelError> {
        for (pos, sc) in self.server_classes.iter().enumerate() {
            if sc.id.index() != pos {
                return Err(ModelError::IdMismatch {
                    kind: "server class",
                    slot: "catalog",
                    declared: sc.id.index(),
                    position: pos,
                });
            }
            sc.validate()?;
        }
        for (pos, uc) in self.utility_classes.iter().enumerate() {
            if uc.id.index() != pos {
                return Err(ModelError::IdMismatch {
                    kind: "utility class",
                    slot: "catalog",
                    declared: uc.id.index(),
                    position: pos,
                });
            }
            uc.function.validate()?;
        }
        if self.background.len() != self.servers.len() {
            return Err(ModelError::Inconsistent {
                what: format!(
                    "{} background entries for {} servers",
                    self.background.len(),
                    self.servers.len()
                ),
            });
        }
        for (pos, cluster) in self.clusters.iter().enumerate() {
            if cluster.id.index() != pos {
                return Err(ModelError::IdMismatch {
                    kind: "cluster",
                    slot: "insertion",
                    declared: cluster.id.index(),
                    position: pos,
                });
            }
        }
        let mut listed = vec![false; self.servers.len()];
        for cluster in &self.clusters {
            for &sid in &cluster.servers {
                let Some(server) = self.servers.get(sid.index()) else {
                    return Err(ModelError::UnknownEntity { kind: "server", index: sid.index() });
                };
                if server.cluster != cluster.id {
                    return Err(ModelError::Inconsistent {
                        what: format!(
                            "{sid} is listed by {} but records {}",
                            cluster.id, server.cluster
                        ),
                    });
                }
                if std::mem::replace(&mut listed[sid.index()], true) {
                    return Err(ModelError::Inconsistent {
                        what: format!("{sid} appears twice in cluster membership lists"),
                    });
                }
            }
        }
        if let Some(unlisted) = listed.iter().position(|&seen| !seen) {
            return Err(ModelError::Inconsistent {
                what: format!("s{unlisted} is missing from its cluster's membership list"),
            });
        }
        for (server, background) in self.servers.iter().zip(&self.background) {
            let class =
                self.server_classes.get(server.class.index()).ok_or(ModelError::UnknownEntity {
                    kind: "server class",
                    index: server.class.index(),
                })?;
            if server.cluster.index() >= self.clusters.len() {
                return Err(ModelError::UnknownEntity {
                    kind: "cluster",
                    index: server.cluster.index(),
                });
            }
            background.validate()?;
            if background.storage > class.cap_storage {
                return Err(ModelError::BackgroundStorageOverflow {
                    used: background.storage,
                    capacity: class.cap_storage,
                });
            }
        }
        for (pos, client) in self.clients.iter().enumerate() {
            if client.id.index() != pos {
                return Err(ModelError::IdMismatch {
                    kind: "client",
                    slot: "insertion",
                    declared: client.id.index(),
                    position: pos,
                });
            }
            if client.utility_class.index() >= self.utility_classes.len() {
                return Err(ModelError::UnknownEntity {
                    kind: "utility class",
                    index: client.utility_class.index(),
                });
            }
            client.validate()?;
        }
        Ok(())
    }

    /// The hardware catalog.
    pub fn server_classes(&self) -> &[ServerClass] {
        &self.server_classes
    }

    /// The SLA catalog.
    pub fn utility_classes(&self) -> &[UtilityClass] {
        &self.utility_classes
    }

    /// All clusters in id order.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// All servers in global-id order.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// All clients in id order.
    pub fn clients(&self) -> &[Client] {
        &self.clients
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Number of servers across all clusters.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Looks up a cluster.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.index()]
    }

    /// Looks up a server.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn server(&self, id: ServerId) -> &Server {
        &self.servers[id.index()]
    }

    /// Looks up a client.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn client(&self, id: ClientId) -> &Client {
        &self.clients[id.index()]
    }

    /// Looks up a server class.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn server_class(&self, id: ServerClassId) -> &ServerClass {
        &self.server_classes[id.index()]
    }

    /// Looks up a utility class.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn utility_class(&self, id: UtilityClassId) -> &UtilityClass {
        &self.utility_classes[id.index()]
    }

    /// Resolved hardware class of server `id`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn class_of(&self, id: ServerId) -> &ServerClass {
        self.server_class(self.server(id).class)
    }

    /// Utility function of client `id`'s SLA class.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn utility_of(&self, id: ClientId) -> &UtilityFunction {
        &self.utility_class(self.client(id).utility_class).function
    }

    /// Background load of server `id`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn background(&self, id: ServerId) -> BackgroundLoad {
        self.background[id.index()]
    }

    /// Resolved view of server `id` — the shared [`ServerRef`]
    /// construction site used by every iteration helper.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn server_ref(&self, id: ServerId) -> ServerRef<'_> {
        let server = self.server(id);
        ServerRef { id, server, class: self.server_class(server.class) }
    }

    /// Iterates over the servers of cluster `cluster` with resolved classes.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn servers_in(&self, cluster: ClusterId) -> impl Iterator<Item = ServerRef<'_>> + '_ {
        self.clusters[cluster.index()].servers.iter().map(move |&id| self.server_ref(id))
    }

    /// Iterates over every server in the system with resolved classes.
    pub fn all_servers(&self) -> impl Iterator<Item = ServerRef<'_>> + '_ {
        (0..self.servers.len()).map(move |idx| self.server_ref(ServerId(idx)))
    }

    /// Total raw processing capacity of the datacenter (sum of `C^p` over
    /// all servers), a quick sizing aid for workload generators.
    pub fn total_processing_capacity(&self) -> f64 {
        self.servers.iter().map(|s| self.server_class(s.class).cap_processing).sum()
    }

    /// Total predicted processing demand `Σ_i λ_i t̄^p_i` of all clients.
    pub fn total_processing_demand(&self) -> f64 {
        self.clients.iter().map(Client::min_processing_capacity).sum()
    }

    /// A copy of the system with every client's *predicted* arrival rate
    /// replaced (contract/agreed rates unchanged) — how a new decision
    /// epoch re-parameterizes the allocation problem.
    ///
    /// # Panics
    ///
    /// Panics if `rates` does not hold one positive rate per client.
    pub fn with_predicted_rates(&self, rates: &[f64]) -> CloudSystem {
        assert_eq!(rates.len(), self.clients.len(), "one rate per client required");
        let mut next = self.clone();
        for (client, &rate) in next.clients.iter_mut().zip(rates) {
            assert!(rate.is_finite() && rate > 0.0, "rates must be positive, got {rate}");
            client.rate_predicted = rate;
        }
        next
    }

    /// A copy of the system with the client population *replaced* — the
    /// admission server's population seam. The hardware catalog, cluster
    /// topology and background load carry over verbatim while the set of
    /// clients under contract changes between requests; each client is
    /// re-admitted through [`CloudSystem::try_add_client`], so id-equals-
    /// position and utility-class references are re-checked and any
    /// mismatch surfaces as a typed error instead of a panic.
    pub fn try_with_clients(&self, clients: Vec<Client>) -> Result<CloudSystem, ModelError> {
        let mut next = self.clone();
        next.clients.clear();
        next.clients.reserve_exact(clients.len());
        for client in clients {
            client.validate()?;
            next.try_add_client(client)?;
        }
        Ok(next)
    }

    /// A copy of the system where each listed server is *dead*: its class
    /// is swapped for a zero-cost twin with vanishing processing and
    /// communication capacity, and its background load saturates both
    /// shares and all storage.
    ///
    /// This masking keeps every hot path honest without special-casing
    /// failure anywhere: the saturated background leaves no free share or
    /// storage, so candidate search can never place new load on a dead
    /// server; a stale placement that still points at one sees a vanishing
    /// service rate, making its queue unstable — the client earns zero
    /// revenue until repaired; and the zero-cost twin means a dead server
    /// charges nothing whether or not stale shares keep it nominally ON.
    /// The masked copy passes [`CloudSystem::validate`] (dead twins are
    /// appended to the catalog, preserving id-equals-position).
    ///
    /// An empty `failed` list returns a plain clone, so fault-free paths
    /// stay bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn with_failed_servers(&self, failed: &[ServerId]) -> CloudSystem {
        // Small enough to starve any queue, large enough that derived
        // quantities (inverse service rates, utilizations) stay finite.
        const DEAD_CAPACITY: f64 = 1e-12;
        if failed.is_empty() {
            return self.clone();
        }
        let mut next = self.clone();
        // One dead twin per distinct original class, minted on demand.
        let mut dead_twin: Vec<Option<ServerClassId>> = vec![None; self.server_classes.len()];
        for &sid in failed {
            let orig = next.servers[sid.index()].class;
            if orig.index() >= dead_twin.len() {
                // Already repointed at a twin (duplicate id in `failed`).
                continue;
            }
            let twin = *dead_twin[orig.index()].get_or_insert_with(|| {
                let id = ServerClassId(next.server_classes.len());
                let original = &next.server_classes[orig.index()];
                next.server_classes.push(ServerClass {
                    id,
                    cap_processing: DEAD_CAPACITY,
                    cap_storage: original.cap_storage,
                    cap_communication: DEAD_CAPACITY,
                    cost_fixed: 0.0,
                    cost_per_utilization: 0.0,
                });
                id
            });
            next.servers[sid.index()].class = twin;
            let storage = next.server_classes[twin.index()].cap_storage;
            next.background[sid.index()] = BackgroundLoad::new(1.0, 1.0, storage);
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cluster_system() -> CloudSystem {
        let classes = vec![
            ServerClass::new(ServerClassId(0), 4.0, 4.0, 4.0, 1.0, 0.5),
            ServerClass::new(ServerClassId(1), 2.0, 6.0, 3.0, 2.0, 1.0),
        ];
        let utils = vec![UtilityClass::new(UtilityClassId(0), UtilityFunction::linear(2.0, 0.5))];
        let mut sys = CloudSystem::new(classes, utils);
        let k0 = sys.add_cluster(Cluster::new(ClusterId(0)));
        let k1 = sys.add_cluster(Cluster::new(ClusterId(1)));
        sys.add_server(Server::new(ServerClassId(0), k0));
        sys.add_server(Server::new(ServerClassId(1), k0));
        sys.add_server(Server::new(ServerClassId(0), k1));
        sys.add_client(Client::new(ClientId(0), UtilityClassId(0), 1.0, 1.0, 0.5, 0.5, 1.0));
        sys
    }

    #[test]
    fn servers_are_attached_to_their_clusters() {
        let sys = two_cluster_system();
        assert_eq!(sys.num_servers(), 3);
        assert_eq!(sys.cluster(ClusterId(0)).servers, vec![ServerId(0), ServerId(1)]);
        assert_eq!(sys.cluster(ClusterId(1)).servers, vec![ServerId(2)]);
        assert_eq!(sys.server(ServerId(2)).cluster, ClusterId(1));
    }

    #[test]
    fn servers_in_resolves_classes() {
        let sys = two_cluster_system();
        let caps: Vec<f64> = sys.servers_in(ClusterId(0)).map(|s| s.class.cap_processing).collect();
        assert_eq!(caps, vec![4.0, 2.0]);
        assert_eq!(sys.all_servers().count(), 3);
    }

    #[test]
    fn capacity_and_demand_totals() {
        let sys = two_cluster_system();
        assert!((sys.total_processing_capacity() - 10.0).abs() < 1e-12);
        assert!((sys.total_processing_demand() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lookups_resolve_client_utility() {
        let sys = two_cluster_system();
        assert_eq!(sys.utility_of(ClientId(0)).value(0.0), 2.0);
        assert_eq!(sys.class_of(ServerId(1)).cap_storage, 6.0);
        assert!(sys.background(ServerId(0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "client id must match")]
    fn rejects_out_of_order_client_ids() {
        let mut sys = two_cluster_system();
        sys.add_client(Client::new(ClientId(5), UtilityClassId(0), 1.0, 1.0, 1.0, 1.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "unknown server class")]
    fn rejects_unknown_server_class() {
        let mut sys = two_cluster_system();
        sys.add_server(Server::new(ServerClassId(9), ClusterId(0)));
    }

    #[test]
    #[should_panic(expected = "unknown cluster")]
    fn rejects_unknown_cluster() {
        let mut sys = two_cluster_system();
        sys.add_server(Server::new(ServerClassId(0), ClusterId(9)));
    }

    #[test]
    #[should_panic(expected = "background storage")]
    fn rejects_oversized_background_storage() {
        let mut sys = two_cluster_system();
        sys.add_server_with_background(
            Server::new(ServerClassId(0), ClusterId(0)),
            BackgroundLoad::new(0.0, 0.0, 100.0),
        );
    }

    #[test]
    fn serde_round_trip() {
        let sys = two_cluster_system();
        let json = serde_json::to_string(&sys).unwrap();
        assert_eq!(serde_json::from_str::<CloudSystem>(&json).unwrap(), sys);
    }

    #[test]
    fn validate_accepts_constructed_systems() {
        two_cluster_system().validate().expect("constructed systems are consistent");
    }

    #[test]
    fn try_constructors_report_typed_errors() {
        let mut sys = two_cluster_system();
        assert!(matches!(
            sys.try_add_server(Server::new(ServerClassId(9), ClusterId(0))),
            Err(ModelError::UnknownEntity { kind: "server class", index: 9 })
        ));
        assert!(matches!(
            sys.try_add_server(Server::new(ServerClassId(0), ClusterId(9))),
            Err(ModelError::UnknownEntity { kind: "cluster", index: 9 })
        ));
        assert!(matches!(
            sys.try_add_cluster(Cluster::new(ClusterId(7))),
            Err(ModelError::IdMismatch { kind: "cluster", .. })
        ));
        assert!(matches!(
            sys.try_add_client(Client::new(
                ClientId(5),
                UtilityClassId(0),
                1.0,
                1.0,
                1.0,
                1.0,
                0.0
            )),
            Err(ModelError::IdMismatch { kind: "client", .. })
        ));
        assert!(matches!(
            sys.try_add_server_with_background(
                Server::new(ServerClassId(0), ClusterId(0)),
                BackgroundLoad::new(0.0, 0.0, 100.0),
            ),
            Err(ModelError::BackgroundStorageOverflow { .. })
        ));
        // Failed attempts must not have mutated the system.
        sys.validate().expect("rejected inserts leave the system consistent");
        assert_eq!(sys.num_servers(), 3);
        assert_eq!(sys.num_clients(), 1);
    }

    #[test]
    fn validate_catches_serde_smuggled_domain_violations() {
        // Serde derives bypass the fallible constructors entirely, so a
        // JSON scenario can smuggle out-of-domain numbers; validate() is
        // the CLI's defense. Corrupt a distinctive value in transit.
        let mut sys = two_cluster_system();
        sys.add_client(Client::new(ClientId(1), UtilityClassId(0), 7.25, 1.0, 0.5, 0.5, 1.0));
        let json = serde_json::to_string(&sys).unwrap();
        let bad = json.replace("7.25", "-7.25");
        let smuggled: CloudSystem = serde_json::from_str(&bad).unwrap();
        assert!(matches!(
            smuggled.validate(),
            Err(ModelError::OutOfRange { field: "rate_predicted", .. })
        ));
    }

    #[test]
    fn validate_catches_serde_smuggled_membership_corruption() {
        let sys = two_cluster_system();
        let json = serde_json::to_string(&sys).unwrap();
        // Cluster 1 owns server 2; rewriting the membership list to claim
        // server 0 (owned by cluster 0) must be caught.
        let corrupted = json.replacen("[2]", "[0]", 1);
        assert_ne!(corrupted, json, "fixture drifted: cluster 1 no longer serializes as [2]");
        let smuggled: CloudSystem = serde_json::from_str(&corrupted).unwrap();
        assert!(matches!(smuggled.validate(), Err(ModelError::Inconsistent { .. })));
    }

    #[test]
    fn server_ref_resolves_id_record_and_class() {
        let sys = two_cluster_system();
        let r = sys.server_ref(ServerId(1));
        assert_eq!(r.id, ServerId(1));
        assert!(std::ptr::eq(r.server, sys.server(ServerId(1))));
        assert!(std::ptr::eq(r.class, sys.class_of(ServerId(1))));
    }

    #[test]
    fn failed_server_masking_starves_and_uncosts_dead_servers() {
        let sys = two_cluster_system();
        let masked = sys.with_failed_servers(&[ServerId(0), ServerId(2)]);
        masked.validate().unwrap();
        // Both dead servers share class 0, so exactly one twin is minted.
        assert_eq!(masked.server_classes().len(), sys.server_classes().len() + 1);
        for sid in [ServerId(0), ServerId(2)] {
            let class = masked.class_of(sid);
            assert!(class.cap_processing < 1e-9);
            assert!(class.cap_communication < 1e-9);
            assert_eq!(class.cost_fixed, 0.0);
            assert_eq!(class.cost_per_utilization, 0.0);
            let bg = masked.background(sid);
            assert_eq!(bg.phi_p, 1.0);
            assert_eq!(bg.phi_c, 1.0);
            assert_eq!(bg.storage, class.cap_storage);
        }
        // Survivors are untouched.
        assert_eq!(masked.class_of(ServerId(1)), sys.class_of(ServerId(1)));
        assert_eq!(masked.background(ServerId(1)), sys.background(ServerId(1)));
        // Duplicate ids are a no-op on top of the first failure.
        assert_eq!(masked, sys.with_failed_servers(&[ServerId(0), ServerId(2), ServerId(0)]));
    }

    #[test]
    fn in_place_client_edits_match_a_rebuilt_population() {
        let mut sys = two_cluster_system();
        sys.add_client(Client::new(ClientId(1), UtilityClassId(0), 2.0, 2.0, 0.5, 0.5, 1.0));
        sys.add_client(Client::new(ClientId(2), UtilityClassId(0), 3.0, 3.0, 0.5, 0.5, 1.0));
        let mut edited = sys.clone();
        assert_eq!(edited.remove_client(ClientId(1)).id, ClientId(1));
        edited.set_client_rates(ClientId(1), 4.0, 5.0);
        let mut survivors = vec![sys.client(ClientId(0)).clone(), sys.client(ClientId(2)).clone()];
        survivors[1].id = ClientId(1);
        (survivors[1].rate_agreed, survivors[1].rate_predicted) = (4.0, 5.0);
        assert_eq!(edited, sys.try_with_clients(survivors).unwrap());
        edited.validate().expect("ids still equal positions");
    }

    #[test]
    fn failed_server_masking_with_empty_list_is_a_plain_clone() {
        let sys = two_cluster_system();
        assert_eq!(sys.with_failed_servers(&[]), sys);
    }
}
