//! Structure-of-arrays lowering of [`CloudSystem`] for the solver hot paths.
//!
//! [`CloudSystem`] is the serde-facing frontend model: entities live in
//! id-indexed structs and every derived quantity (a server's resolved
//! class capacities, a client's per-class service rates, the reference
//! slope of its SLA) is recomputed through id → struct indirection on
//! each access. That layout is right for construction and serialization
//! and wrong for the inner loops of `Resource_Alloc`, which scan the
//! servers of a cluster millions of times per solve.
//!
//! [`CompiledSystem`] is the runtime counterpart: a one-shot lowering
//! pass (built once at solve entry, `O(classes × clients + servers)`)
//! that flattens everything the hot paths read into contiguous parallel
//! arrays:
//!
//! - per-server arrays carrying the *resolved* class capacities, power
//!   terms and background load, plus the class/cluster indices used by
//!   the curve-dedup signatures;
//! - a dense cluster-major server permutation (`cluster_start[k] ..
//!   cluster_start[k+1]` slices of `cluster_servers`), replacing the
//!   per-cluster `Vec<ServerId>` walks;
//! - per-client arrays (rates, execution times, storage, utility
//!   function, reference weights);
//! - class-major per-(class, client) service-rate tables `m^p = C^p/t̄^p`
//!   and `m^c = C^c/t̄^c` — the precomputed "inverse service time per
//!   unit share" the search re-derived on every curve.
//!
//! Every cached value is produced by the *same floating-point expression*
//! the frontend accessors use, so reading it back is bit-for-bit
//! identical to recomputing it; the equivalence suites in `core` rely on
//! this. The lowering borrows the system (`&'a CloudSystem`) — it is a
//! view, not a copy, and the frontend model remains the only
//! construction/serialization surface.

use cloudalloc_telemetry as telemetry;

use crate::allocation::Allocation;
use crate::client::Client;
use crate::cluster::BackgroundLoad;
use crate::eval::{placement_response_time, ClientOutcome, FEASIBILITY_TOL};
use crate::ids::{ClientId, ClusterId, ServerId};
use crate::server::{Server, ServerClass, ServerRef};
use crate::streamed::LoweredClients;
use crate::system::CloudSystem;
use crate::utility::UtilityFunction;

/// Flat, cache-friendly runtime view of a [`CloudSystem`].
///
/// Built once per solve via [`CompiledSystem::new`]; all solver hot paths
/// read system facts through this instead of the AoS frontend model.
/// Cheap to clone relative to a solve, but intended to be shared by
/// reference.
#[derive(Debug, Clone)]
pub struct CompiledSystem<'a> {
    system: &'a CloudSystem,
    classes: &'a [ServerClass],
    servers: &'a [Server],

    // ---- per-server arrays, indexed by ServerId ----
    server_class: Vec<usize>,
    server_cluster: Vec<usize>,
    cap_processing: Vec<f64>,
    cap_communication: Vec<f64>,
    cap_storage: Vec<f64>,
    cost_fixed: Vec<f64>,
    cost_per_utilization: Vec<f64>,
    background: Vec<BackgroundLoad>,

    // ---- dense cluster-major server permutation ----
    cluster_servers: Vec<ServerId>,
    cluster_start: Vec<usize>,

    // ---- per-client arrays, indexed by ClientId ----
    rate_predicted: Vec<f64>,
    rate_agreed: Vec<f64>,
    exec_processing: Vec<f64>,
    exec_communication: Vec<f64>,
    client_storage: Vec<f64>,
    utility_index: Vec<usize>,
    utility: Vec<&'a UtilityFunction>,
    ref_weight: Vec<f64>,
    ref_marginal: Vec<f64>,

    // ---- class-major per-(class, client) service-rate tables ----
    m_p: Vec<f64>,
    m_c: Vec<f64>,
}

impl<'a> CompiledSystem<'a> {
    /// Lowers `system` into its structure-of-arrays runtime view.
    ///
    /// This is the single explicit lowering step: solvers call it once at
    /// solve entry (via `SolverCtx::new`) and never touch the AoS model
    /// mid-search. Cost is `O(classes × clients + servers)` — negligible
    /// next to one greedy pass.
    pub fn new(system: &'a CloudSystem) -> Self {
        // Batch lowering is the streamed lowering with one full-population
        // chunk: a single code path produces the client arrays, which is
        // what makes streamed and batch compiles bit-identical by
        // construction (see `crate::streamed`).
        let mut clients = LoweredClients::new(system.num_clients(), system.server_classes().len());
        clients.push_chunk(system.server_classes(), system.utility_classes(), system.clients());
        compile_streamed(system, clients)
    }

    /// The frontend model this view was lowered from.
    pub fn system(&self) -> &'a CloudSystem {
        self.system
    }

    /// The hardware catalog (borrowed from the frontend model).
    pub fn server_classes(&self) -> &'a [ServerClass] {
        self.classes
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.rate_predicted.len()
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.cluster_start.len() - 1
    }

    // ---- server-side accessors ----

    /// Catalog index of server `id`'s hardware class.
    #[inline]
    pub fn class_index(&self, id: ServerId) -> usize {
        self.server_class[id.index()]
    }

    /// Resolved hardware class of server `id`.
    #[inline]
    pub fn class_of(&self, id: ServerId) -> &'a ServerClass {
        &self.classes[self.server_class[id.index()]]
    }

    /// Hardware class at catalog index `class`.
    #[inline]
    pub fn class_at(&self, class: usize) -> &'a ServerClass {
        &self.classes[class]
    }

    /// Cluster index of server `id`.
    #[inline]
    pub fn cluster_index(&self, id: ServerId) -> usize {
        self.server_cluster[id.index()]
    }

    /// Resolved processing capacity `C^p` of server `id`.
    #[inline]
    pub fn cap_processing(&self, id: ServerId) -> f64 {
        self.cap_processing[id.index()]
    }

    /// Resolved communication capacity `C^c` of server `id`.
    #[inline]
    pub fn cap_communication(&self, id: ServerId) -> f64 {
        self.cap_communication[id.index()]
    }

    /// Resolved storage capacity `C^m` of server `id`.
    #[inline]
    pub fn cap_storage(&self, id: ServerId) -> f64 {
        self.cap_storage[id.index()]
    }

    /// Resolved idle power cost `P0` of server `id`.
    #[inline]
    pub fn cost_fixed(&self, id: ServerId) -> f64 {
        self.cost_fixed[id.index()]
    }

    /// Resolved utilization power slope `P1` of server `id`.
    #[inline]
    pub fn cost_per_utilization(&self, id: ServerId) -> f64 {
        self.cost_per_utilization[id.index()]
    }

    /// Background load of server `id`.
    #[inline]
    pub fn background(&self, id: ServerId) -> BackgroundLoad {
        self.background[id.index()]
    }

    /// A [`ServerRef`] for server `id`, assembled from the compiled
    /// slices (the one construction site; the frontend iterators reuse
    /// the same layout).
    #[inline]
    pub fn server_ref(&self, id: ServerId) -> ServerRef<'a> {
        let server = &self.servers[id.index()];
        ServerRef { id, server, class: &self.classes[self.server_class[id.index()]] }
    }

    /// The servers of cluster `cluster` in insertion order, as a dense
    /// id slice of the cluster-major permutation.
    #[inline]
    pub fn cluster_servers(&self, cluster: ClusterId) -> &[ServerId] {
        let k = cluster.index();
        &self.cluster_servers[self.cluster_start[k]..self.cluster_start[k + 1]]
    }

    /// Iterates over the servers of cluster `cluster` with resolved
    /// classes, in the same order as `CloudSystem::servers_in`.
    pub fn servers_in(&self, cluster: ClusterId) -> impl Iterator<Item = ServerRef<'a>> + '_ {
        self.cluster_servers(cluster).iter().map(move |&id| self.server_ref(id))
    }

    // ---- client-side accessors ----

    /// The client struct itself (borrowed from the frontend model).
    #[inline]
    pub fn client(&self, id: ClientId) -> &'a Client {
        &self.system.clients()[id.index()]
    }

    /// Predicted arrival rate `λ` of client `id`.
    #[inline]
    pub fn rate_predicted(&self, id: ClientId) -> f64 {
        self.rate_predicted[id.index()]
    }

    /// Agreed (contract) rate `λ̃` of client `id`.
    #[inline]
    pub fn rate_agreed(&self, id: ClientId) -> f64 {
        self.rate_agreed[id.index()]
    }

    /// Per-request processing time `t̄^p` of client `id`.
    #[inline]
    pub fn exec_processing(&self, id: ClientId) -> f64 {
        self.exec_processing[id.index()]
    }

    /// Per-request communication time `t̄^c` of client `id`.
    #[inline]
    pub fn exec_communication(&self, id: ClientId) -> f64 {
        self.exec_communication[id.index()]
    }

    /// Storage demand of client `id`.
    #[inline]
    pub fn client_storage(&self, id: ClientId) -> f64 {
        self.client_storage[id.index()]
    }

    /// Catalog index of client `id`'s utility class.
    #[inline]
    pub fn utility_index(&self, id: ClientId) -> usize {
        self.utility_index[id.index()]
    }

    /// Utility function of client `id`'s SLA class.
    #[inline]
    pub fn utility(&self, id: ClientId) -> &'a UtilityFunction {
        self.utility[id.index()]
    }

    /// Floored reference weight `max(λ̃·U'(ref), 1e-9)` of client `id` —
    /// the cached value behind `SolverCtx::reference_weight`.
    #[inline]
    pub fn ref_weight(&self, id: ClientId) -> f64 {
        self.ref_weight[id.index()]
    }

    /// Unfloored reference marginal `λ̃·U'(ref)` of client `id`, summed
    /// by the automatic shadow-price calibration.
    #[inline]
    pub fn ref_marginal(&self, id: ClientId) -> f64 {
        self.ref_marginal[id.index()]
    }

    // ---- per-(class, client) service-rate tables ----

    /// Processing service rate per unit share, `m^p = C^p/t̄^p`, for
    /// hardware-class index `class` and client `id`.
    #[inline]
    pub fn m_p(&self, class: usize, id: ClientId) -> f64 {
        self.m_p[class * self.rate_predicted.len() + id.index()]
    }

    /// Communication service rate per unit share, `m^c = C^c/t̄^c`, for
    /// hardware-class index `class` and client `id`.
    #[inline]
    pub fn m_c(&self, class: usize, id: ClientId) -> f64 {
        self.m_c[class * self.rate_predicted.len() + id.index()]
    }

    // ---- compiled evaluation ----

    /// Response time and revenue of one client — the compiled twin of
    /// [`crate::evaluate_client`], reading system facts through the
    /// lowered arrays. Bit-for-bit identical results.
    pub fn evaluate_client(&self, alloc: &Allocation, client: ClientId) -> ClientOutcome {
        let c = self.client(client);
        let placements = alloc.placements(client);
        let total_alpha: f64 = placements.iter().map(|&(_, p)| p.alpha).sum();
        if placements.is_empty() || total_alpha < 1.0 - FEASIBILITY_TOL {
            return ClientOutcome { response_time: f64::INFINITY, revenue: 0.0 };
        }
        let mut r = 0.0;
        for &(server, p) in placements {
            let t = placement_response_time(self.class_of(server), c, p);
            if !t.is_finite() {
                return ClientOutcome { response_time: f64::INFINITY, revenue: 0.0 };
            }
            r += p.alpha * t;
        }
        let revenue = self.rate_agreed[client.index()] * self.utility(client).value(r);
        ClientOutcome { response_time: r, revenue }
    }
}

/// Finishes a streamed lowering: moves the fully-populated client arrays
/// of `clients` into a [`CompiledSystem`] over `system`, deriving only
/// the cheap `O(servers)` server-side arrays.
///
/// This is the scale-path twin of [`CompiledSystem::new`] (which routes
/// through it with one full chunk): a producer that filled `clients`
/// chunk-by-chunk under a [`crate::MemoryBudget`] never needed the whole
/// client population staged at once, and nothing client-side is
/// re-derived here — the utility-function pointers are the only per-client
/// data rebuilt, straight from the cached catalog indices.
///
/// # Panics
///
/// Panics when `clients` is incomplete or its declared population or
/// catalog size disagrees with `system`.
pub fn compile_streamed<'a>(
    system: &'a CloudSystem,
    clients: LoweredClients,
) -> CompiledSystem<'a> {
    let _span = telemetry::span!("compile.streamed");
    assert!(
        clients.is_complete(),
        "streamed lowering holds {} of {} clients",
        clients.len(),
        clients.num_clients()
    );
    assert_eq!(
        clients.num_clients(),
        system.num_clients(),
        "streamed lowering disagrees with the system's population"
    );
    let classes = system.server_classes();
    let servers = system.servers();

    let num_servers = servers.len();
    let mut server_class = Vec::with_capacity(num_servers);
    let mut server_cluster = Vec::with_capacity(num_servers);
    let mut cap_processing = Vec::with_capacity(num_servers);
    let mut cap_communication = Vec::with_capacity(num_servers);
    let mut cap_storage = Vec::with_capacity(num_servers);
    let mut cost_fixed = Vec::with_capacity(num_servers);
    let mut cost_per_utilization = Vec::with_capacity(num_servers);
    let mut background = Vec::with_capacity(num_servers);
    for (idx, server) in servers.iter().enumerate() {
        let class = &classes[server.class.index()];
        server_class.push(server.class.index());
        server_cluster.push(server.cluster.index());
        cap_processing.push(class.cap_processing);
        cap_communication.push(class.cap_communication);
        cap_storage.push(class.cap_storage);
        cost_fixed.push(class.cost_fixed);
        cost_per_utilization.push(class.cost_per_utilization);
        background.push(system.background(ServerId(idx)));
    }

    // Cluster-major permutation, preserving each cluster's insertion
    // order (the solver's tie-breaks depend on scan order).
    let mut cluster_servers = Vec::with_capacity(num_servers);
    let mut cluster_start = Vec::with_capacity(system.num_clusters() + 1);
    cluster_start.push(0);
    for cluster in system.clusters() {
        cluster_servers.extend_from_slice(&cluster.servers);
        cluster_start.push(cluster_servers.len());
    }

    let utility: Vec<&'a UtilityFunction> =
        clients.utility_index.iter().map(|&u| &system.utility_classes()[u].function).collect();

    CompiledSystem {
        system,
        classes,
        servers,
        server_class,
        server_cluster,
        cap_processing,
        cap_communication,
        cap_storage,
        cost_fixed,
        cost_per_utilization,
        background,
        cluster_servers,
        cluster_start,
        rate_predicted: clients.rate_predicted,
        rate_agreed: clients.rate_agreed,
        exec_processing: clients.exec_processing,
        exec_communication: clients.exec_communication,
        client_storage: clients.client_storage,
        utility_index: clients.utility_index,
        utility,
        ref_weight: clients.ref_weight,
        ref_marginal: clients.ref_marginal,
        m_p: clients.m_p,
        m_c: clients.m_c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::ids::{ServerClassId, UtilityClassId};
    use crate::utility::UtilityClass;

    fn sample_system() -> CloudSystem {
        let classes = vec![
            ServerClass::new(ServerClassId(0), 4.0, 4.0, 4.0, 1.0, 0.5),
            ServerClass::new(ServerClassId(1), 2.0, 6.0, 3.0, 2.0, 1.0),
        ];
        let utils = vec![
            UtilityClass::new(UtilityClassId(0), UtilityFunction::linear(2.0, 0.5)),
            UtilityClass::new(UtilityClassId(1), UtilityFunction::linear(3.0, 0.25)),
        ];
        let mut sys = CloudSystem::new(classes, utils);
        let k0 = sys.add_cluster(Cluster::new(ClusterId(0)));
        let k1 = sys.add_cluster(Cluster::new(ClusterId(1)));
        sys.add_server(Server::new(ServerClassId(0), k0));
        sys.add_server_with_background(
            Server::new(ServerClassId(1), k0),
            BackgroundLoad::new(0.25, 0.125, 1.0),
        );
        sys.add_server(Server::new(ServerClassId(0), k1));
        sys.add_client(Client::new(ClientId(0), UtilityClassId(1), 1.0, 1.5, 0.5, 0.25, 1.0));
        sys.add_client(Client::new(ClientId(1), UtilityClassId(0), 2.0, 2.0, 0.25, 0.5, 0.5));
        sys
    }

    #[test]
    fn per_server_arrays_match_frontend_accessors() {
        let sys = sample_system();
        let cs = CompiledSystem::new(&sys);
        for j in 0..sys.num_servers() {
            let id = ServerId(j);
            let class = sys.class_of(id);
            assert_eq!(cs.class_index(id), sys.server(id).class.index());
            assert_eq!(cs.cluster_index(id), sys.server(id).cluster.index());
            assert_eq!(cs.cap_processing(id).to_bits(), class.cap_processing.to_bits());
            assert_eq!(cs.cap_communication(id).to_bits(), class.cap_communication.to_bits());
            assert_eq!(cs.cap_storage(id).to_bits(), class.cap_storage.to_bits());
            assert_eq!(cs.cost_fixed(id).to_bits(), class.cost_fixed.to_bits());
            assert_eq!(cs.cost_per_utilization(id).to_bits(), class.cost_per_utilization.to_bits());
            assert_eq!(cs.background(id), sys.background(id));
            assert!(std::ptr::eq(cs.class_of(id), class));
        }
    }

    #[test]
    fn cluster_permutation_preserves_scan_order() {
        let sys = sample_system();
        let cs = CompiledSystem::new(&sys);
        for k in 0..sys.num_clusters() {
            let cluster = ClusterId(k);
            assert_eq!(cs.cluster_servers(cluster), &sys.cluster(cluster).servers[..]);
            let frontend: Vec<ServerId> = sys.servers_in(cluster).map(|s| s.id).collect();
            let compiled: Vec<ServerId> = cs.servers_in(cluster).map(|s| s.id).collect();
            assert_eq!(frontend, compiled);
        }
    }

    #[test]
    fn service_rate_tables_are_bitwise_identical_to_recomputation() {
        let sys = sample_system();
        let cs = CompiledSystem::new(&sys);
        for (ci, class) in sys.server_classes().iter().enumerate() {
            for c in sys.clients() {
                let m_p = class.cap_processing / c.exec_processing;
                let m_c = class.cap_communication / c.exec_communication;
                assert_eq!(cs.m_p(ci, c.id).to_bits(), m_p.to_bits());
                assert_eq!(cs.m_c(ci, c.id).to_bits(), m_c.to_bits());
            }
        }
    }

    #[test]
    fn client_arrays_and_reference_weights_match() {
        let sys = sample_system();
        let cs = CompiledSystem::new(&sys);
        for c in sys.clients() {
            assert_eq!(cs.rate_predicted(c.id).to_bits(), c.rate_predicted.to_bits());
            assert_eq!(cs.rate_agreed(c.id).to_bits(), c.rate_agreed.to_bits());
            assert_eq!(cs.exec_processing(c.id).to_bits(), c.exec_processing.to_bits());
            assert_eq!(cs.exec_communication(c.id).to_bits(), c.exec_communication.to_bits());
            assert_eq!(cs.client_storage(c.id).to_bits(), c.storage.to_bits());
            assert_eq!(cs.utility_index(c.id), c.utility_class.index());
            assert!(std::ptr::eq(cs.utility(c.id), sys.utility_of(c.id)));
            let marginal = c.rate_agreed * sys.utility_of(c.id).reference_slope();
            assert_eq!(cs.ref_marginal(c.id).to_bits(), marginal.to_bits());
            assert_eq!(cs.ref_weight(c.id).to_bits(), marginal.max(1e-9).to_bits());
        }
    }

    #[test]
    fn streamed_compile_matches_batch_compile() {
        let sys = sample_system();
        let batch = CompiledSystem::new(&sys);
        let mut lowered = LoweredClients::new(sys.num_clients(), sys.server_classes().len());
        for chunk in sys.clients().chunks(1) {
            lowered.push_chunk(sys.server_classes(), sys.utility_classes(), chunk);
        }
        let streamed = compile_streamed(&sys, lowered);
        for i in 0..sys.num_clients() {
            let id = ClientId(i);
            assert_eq!(streamed.ref_weight(id).to_bits(), batch.ref_weight(id).to_bits());
            assert_eq!(streamed.ref_marginal(id).to_bits(), batch.ref_marginal(id).to_bits());
            assert!(std::ptr::eq(streamed.utility(id), batch.utility(id)));
            for ci in 0..sys.server_classes().len() {
                assert_eq!(streamed.m_p(ci, id).to_bits(), batch.m_p(ci, id).to_bits());
                assert_eq!(streamed.m_c(ci, id).to_bits(), batch.m_c(ci, id).to_bits());
            }
        }
    }

    #[test]
    fn compiled_evaluate_client_matches_frontend() {
        use crate::allocation::Placement;
        let sys = sample_system();
        let cs = CompiledSystem::new(&sys);
        let mut alloc = Allocation::new(&sys);
        alloc.assign_cluster(ClientId(0), ClusterId(0));
        alloc.place(
            &sys,
            ClientId(0),
            ServerId(0),
            Placement { alpha: 1.0, phi_p: 0.5, phi_c: 0.5 },
        );
        for i in 0..sys.num_clients() {
            let id = ClientId(i);
            let frontend = crate::eval::evaluate_client(&sys, &alloc, id);
            let compiled = cs.evaluate_client(&alloc, id);
            assert_eq!(frontend.response_time.to_bits(), compiled.response_time.to_bits());
            assert_eq!(frontend.revenue.to_bits(), compiled.revenue.to_bits());
        }
    }
}
