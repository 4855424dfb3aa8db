//! Memory-budgeted client lowering for streaming scenario construction.
//!
//! [`crate::CompiledSystem`] lowers a complete [`CloudSystem`] in one
//! pass, which requires the full AoS client population to exist first.
//! At the million-client scale targeted by the E5i bench that staging
//! order is the wrong way round: the generator can produce clients in id
//! order one chunk at a time, and everything the solver reads about a
//! client is already captured by the flat per-client arrays.
//!
//! [`LoweredClients`] is the owned, incrementally-fillable form of the
//! client side of the compiled view. A producer (the workload crate's
//! `ScenarioStream`) pushes clients chunk-by-chunk via
//! [`LoweredClients::push_chunk`]; each push evaluates the *same
//! floating-point expressions* as the batch lowering, writing class-major
//! service-rate columns directly into their pre-sized slots, so the
//! finished arrays are bit-for-bit identical to a batch compile. Once the
//! declared population is complete, [`crate::compile_streamed`] moves the
//! arrays into a [`crate::CompiledSystem`] without re-deriving anything.
//!
//! The chunk size — the only staging the producer keeps in flight — is
//! chosen by a [`MemoryBudget`], so peak *transient* memory is bounded by
//! the budget instead of the client count.

use cloudalloc_telemetry as telemetry;

use crate::client::Client;
use crate::compiled::CompiledSystem;
use crate::ids::ClientId;
use crate::server::ServerClass;
use crate::utility::UtilityClass;

/// A cap on the transient staging memory a streaming producer may hold.
///
/// The budget buys AoS [`Client`] staging slots: a producer sizes its
/// chunks with [`MemoryBudget::chunk_clients`] so the in-flight chunk
/// never exceeds the budget, regardless of the total population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    bytes: usize,
}

impl MemoryBudget {
    /// Staging bytes one in-flight client occupies (its AoS struct).
    pub const STAGING_BYTES_PER_CLIENT: usize = std::mem::size_of::<Client>();

    /// A budget of `bytes` bytes of staging memory.
    ///
    /// # Panics
    ///
    /// Panics when `bytes` is zero.
    pub fn from_bytes(bytes: usize) -> Self {
        assert!(bytes > 0, "memory budget must be positive");
        Self { bytes }
    }

    /// A budget of `mib` mebibytes of staging memory.
    ///
    /// # Panics
    ///
    /// Panics when `mib` is zero.
    pub fn from_mib(mib: usize) -> Self {
        Self::from_bytes(mib << 20)
    }

    /// The budget in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Largest chunk (in clients) that fits the budget; at least one, so
    /// a pathologically small budget degrades to client-at-a-time
    /// streaming instead of deadlock.
    pub fn chunk_clients(&self) -> usize {
        (self.bytes / Self::STAGING_BYTES_PER_CLIENT).max(1)
    }
}

/// The client side of a [`crate::CompiledSystem`], owned and fillable in
/// id-order chunks.
///
/// Arrays are allocated exact-size up front from the declared population
/// (`num_clients`) and catalog size, so filling never reallocates; the
/// class-major `m^p`/`m^c` tables are written column-chunk-wise as
/// clients arrive. See the module docs for the bit-identity contract.
#[derive(Debug, Clone)]
pub struct LoweredClients {
    pub(crate) num_clients: usize,
    pub(crate) num_classes: usize,
    pub(crate) filled: usize,
    pub(crate) rate_predicted: Vec<f64>,
    pub(crate) rate_agreed: Vec<f64>,
    pub(crate) exec_processing: Vec<f64>,
    pub(crate) exec_communication: Vec<f64>,
    pub(crate) client_storage: Vec<f64>,
    pub(crate) utility_index: Vec<usize>,
    pub(crate) ref_weight: Vec<f64>,
    pub(crate) ref_marginal: Vec<f64>,
    pub(crate) m_p: Vec<f64>,
    pub(crate) m_c: Vec<f64>,
}

impl LoweredClients {
    /// Pre-sizes the arrays for `num_clients` clients against a catalog
    /// of `num_classes` server classes.
    pub fn new(num_clients: usize, num_classes: usize) -> Self {
        Self {
            num_clients,
            num_classes,
            filled: 0,
            rate_predicted: Vec::with_capacity(num_clients),
            rate_agreed: Vec::with_capacity(num_clients),
            exec_processing: Vec::with_capacity(num_clients),
            exec_communication: Vec::with_capacity(num_clients),
            client_storage: Vec::with_capacity(num_clients),
            utility_index: Vec::with_capacity(num_clients),
            ref_weight: Vec::with_capacity(num_clients),
            ref_marginal: Vec::with_capacity(num_clients),
            m_p: vec![0.0; num_classes * num_clients],
            m_c: vec![0.0; num_classes * num_clients],
        }
    }

    /// Lowers one id-ordered chunk of clients into the arrays.
    ///
    /// The expressions are exactly those of the batch lowering
    /// (`CompiledSystem::new`), so each slot is bit-identical to what a
    /// one-shot compile of the finished system would produce.
    ///
    /// # Panics
    ///
    /// Panics when the catalog size disagrees with construction or the
    /// chunk would overflow the declared population; debug builds also
    /// check that client ids arrive densely in order.
    pub fn push_chunk(
        &mut self,
        classes: &[ServerClass],
        utilities: &[UtilityClass],
        chunk: &[Client],
    ) {
        assert_eq!(classes.len(), self.num_classes, "server-class catalog changed mid-stream");
        assert!(
            self.filled + chunk.len() <= self.num_clients,
            "chunk overflows the declared population of {} clients",
            self.num_clients
        );
        telemetry::counter!("compile.stream.chunks").incr();
        telemetry::histogram!("compile.stream.chunk_clients").record(chunk.len() as u64);
        for c in chunk {
            let i = self.filled;
            debug_assert_eq!(c.id.index(), i, "clients must arrive densely in id order");
            let u = &utilities[c.utility_class.index()].function;
            self.rate_predicted.push(c.rate_predicted);
            self.rate_agreed.push(c.rate_agreed);
            self.exec_processing.push(c.exec_processing);
            self.exec_communication.push(c.exec_communication);
            self.client_storage.push(c.storage);
            self.utility_index.push(c.utility_class.index());
            self.ref_weight.push((c.rate_agreed * u.reference_slope()).max(1e-9));
            self.ref_marginal.push(c.rate_agreed * u.reference_slope());
            for (ci, class) in classes.iter().enumerate() {
                self.m_p[ci * self.num_clients + i] = class.cap_processing / c.exec_processing;
                self.m_c[ci * self.num_clients + i] =
                    class.cap_communication / c.exec_communication;
            }
            self.filled += 1;
        }
    }

    /// Verbatim sub-lowering used by [`crate::compile_group`]: copies the
    /// already-lowered slots of `members` out of a parent compiled view,
    /// renumbering them densely in member order. No floating-point
    /// expression is re-evaluated — every slot (including the class-major
    /// `m^p`/`m^c` columns) is moved bit-for-bit, so the result is
    /// indistinguishable from lowering the members from scratch while
    /// costing only the copies.
    pub(crate) fn copy_members(parent: &CompiledSystem<'_>, members: &[ClientId]) -> Self {
        let num_classes = parent.server_classes().len();
        let n = members.len();
        let mut out = Self::new(n, num_classes);
        for (new_i, &orig) in members.iter().enumerate() {
            out.rate_predicted.push(parent.rate_predicted(orig));
            out.rate_agreed.push(parent.rate_agreed(orig));
            out.exec_processing.push(parent.exec_processing(orig));
            out.exec_communication.push(parent.exec_communication(orig));
            out.client_storage.push(parent.client_storage(orig));
            out.utility_index.push(parent.utility_index(orig));
            out.ref_weight.push(parent.ref_weight(orig));
            out.ref_marginal.push(parent.ref_marginal(orig));
            for ci in 0..num_classes {
                out.m_p[ci * n + new_i] = parent.m_p(ci, orig);
                out.m_c[ci * n + new_i] = parent.m_c(ci, orig);
            }
        }
        out.filled = n;
        out
    }

    /// Appends the lowering of one more client to a complete lowering:
    /// the class-major `m^p`/`m^c` tables are re-strided in place to the
    /// grown population and the new slots are written by
    /// [`LoweredClients::push_chunk`] itself, so they are bit-identical to
    /// a batch compile of the grown population. The admission server's
    /// arrival seam.
    ///
    /// # Panics
    ///
    /// Panics when the lowering is incomplete or the catalog size
    /// disagrees with construction; debug builds also check that the
    /// client's id is the next one.
    pub fn push_client(
        &mut self,
        classes: &[ServerClass],
        utilities: &[UtilityClass],
        client: &Client,
    ) {
        assert!(self.is_complete(), "only a complete lowering grows by one client");
        let n = self.num_clients;
        for table in [&mut self.m_p, &mut self.m_c] {
            table.resize(self.num_classes * (n + 1), 0.0);
            for ci in (1..self.num_classes).rev() {
                table.copy_within(ci * n..(ci + 1) * n, ci * (n + 1));
            }
        }
        self.num_clients = n + 1;
        self.push_chunk(classes, utilities, std::slice::from_ref(client));
    }

    /// Deletes client `id`'s slots from a complete lowering, renumbering
    /// every later client down by one — the exact arrays a batch compile
    /// of the remaining population produces, moved rather than
    /// re-derived.
    ///
    /// # Panics
    ///
    /// Panics when the lowering is incomplete or the id is out of range.
    pub fn remove_client(&mut self, id: ClientId) {
        assert!(self.is_complete(), "only a complete lowering drops a client");
        let (n, i) = (self.num_clients, id.index());
        assert!(i < n, "{id} is outside a lowering of {n} clients");
        for column in [
            &mut self.rate_predicted,
            &mut self.rate_agreed,
            &mut self.exec_processing,
            &mut self.exec_communication,
            &mut self.client_storage,
            &mut self.ref_weight,
            &mut self.ref_marginal,
        ] {
            column.remove(i);
        }
        self.utility_index.remove(i);
        for table in [&mut self.m_p, &mut self.m_c] {
            let mut kept = 0;
            for ci in 0..self.num_classes {
                let start = ci * n;
                table.copy_within(start..start + i, kept);
                kept += i;
                table.copy_within(start + i + 1..start + n, kept);
                kept += n - i - 1;
            }
            table.truncate(kept);
        }
        self.num_clients = n - 1;
        self.filled = n - 1;
    }

    /// Replaces client `id`'s agreed and predicted rates, re-deriving the
    /// reference weight and marginal with [`LoweredClients::push_chunk`]'s
    /// expressions. The service-rate tables do not depend on rates.
    ///
    /// # Panics
    ///
    /// Panics when the id has not been lowered.
    pub fn set_rates(
        &mut self,
        utilities: &[UtilityClass],
        id: ClientId,
        rate_agreed: f64,
        rate_predicted: f64,
    ) {
        let i = id.index();
        assert!(i < self.filled, "{id} has not been lowered");
        let u = &utilities[self.utility_index[i]].function;
        self.rate_predicted[i] = rate_predicted;
        self.rate_agreed[i] = rate_agreed;
        self.ref_weight[i] = (rate_agreed * u.reference_slope()).max(1e-9);
        self.ref_marginal[i] = rate_agreed * u.reference_slope();
    }

    /// Clients lowered so far.
    pub fn len(&self) -> usize {
        self.filled
    }

    /// True when nothing has been lowered yet.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// The declared total population.
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// True once every declared client has been lowered.
    pub fn is_complete(&self) -> bool {
        self.filled == self.num_clients
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, ServerClassId, UtilityClassId};
    use crate::utility::UtilityFunction;

    fn catalogs() -> (Vec<ServerClass>, Vec<UtilityClass>) {
        let classes = vec![
            ServerClass::new(ServerClassId(0), 4.0, 4.0, 4.0, 1.0, 0.5),
            ServerClass::new(ServerClassId(1), 2.0, 6.0, 3.0, 2.0, 1.0),
        ];
        let utils = vec![
            UtilityClass::new(UtilityClassId(0), UtilityFunction::linear(2.0, 0.5)),
            UtilityClass::new(UtilityClassId(1), UtilityFunction::linear(3.0, 0.25)),
        ];
        (classes, utils)
    }

    fn client(i: usize, class: usize) -> Client {
        Client::new(ClientId(i), UtilityClassId(class), 1.0 + i as f64, 1.5, 0.5, 0.25, 1.0)
    }

    #[test]
    fn chunked_fill_matches_one_shot_fill() {
        let (classes, utils) = catalogs();
        let population: Vec<Client> = (0..7).map(|i| client(i, i % 2)).collect();

        let mut one_shot = LoweredClients::new(7, 2);
        one_shot.push_chunk(&classes, &utils, &population);

        let mut chunked = LoweredClients::new(7, 2);
        for chunk in population.chunks(3) {
            chunked.push_chunk(&classes, &utils, chunk);
        }

        assert!(one_shot.is_complete() && chunked.is_complete());
        for (a, b) in one_shot.m_p.iter().zip(&chunked.m_p) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in one_shot.ref_weight.iter().zip(&chunked.ref_weight) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(one_shot.utility_index, chunked.utility_index);
    }

    #[test]
    #[should_panic(expected = "overflows the declared population")]
    fn overflow_is_rejected() {
        let (classes, utils) = catalogs();
        let mut lowered = LoweredClients::new(1, 2);
        lowered.push_chunk(&classes, &utils, &[client(0, 0), client(1, 1)]);
    }

    /// Every slot of two lowerings, bitwise.
    fn assert_same(a: &LoweredClients, b: &LoweredClients) {
        assert_eq!(
            (a.num_clients, a.num_classes, a.filled),
            (b.num_clients, b.num_classes, b.filled)
        );
        assert_eq!(a.utility_index, b.utility_index);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (x, y) in [
            (&a.rate_predicted, &b.rate_predicted),
            (&a.rate_agreed, &b.rate_agreed),
            (&a.exec_processing, &b.exec_processing),
            (&a.exec_communication, &b.exec_communication),
            (&a.client_storage, &b.client_storage),
            (&a.ref_weight, &b.ref_weight),
            (&a.ref_marginal, &b.ref_marginal),
            (&a.m_p, &b.m_p),
            (&a.m_c, &b.m_c),
        ] {
            assert_eq!(bits(x), bits(y));
        }
    }

    fn lowered(
        classes: &[ServerClass],
        utils: &[UtilityClass],
        clients: &[Client],
    ) -> LoweredClients {
        let mut out = LoweredClients::new(clients.len(), classes.len());
        out.push_chunk(classes, utils, clients);
        out
    }

    #[test]
    fn in_place_edits_match_a_batch_lowering() {
        let (classes, utils) = catalogs();
        let mut population: Vec<Client> = (0..5).map(|i| client(i, i % 2)).collect();
        let mut kept = LoweredClients::new(0, 2);
        for c in &population {
            kept.push_client(&classes, &utils, c);
        }
        assert_same(&kept, &lowered(&classes, &utils, &population));

        kept.remove_client(ClientId(1));
        population.remove(1);
        for (pos, c) in population.iter_mut().enumerate() {
            c.id = ClientId(pos);
        }
        assert_same(&kept, &lowered(&classes, &utils, &population));

        kept.set_rates(&utils, ClientId(2), 7.5, 0.75);
        (population[2].rate_agreed, population[2].rate_predicted) = (7.5, 0.75);
        kept.remove_client(ClientId(3));
        population.pop();
        assert_same(&kept, &lowered(&classes, &utils, &population));
    }

    #[test]
    fn budget_translates_to_chunk_sizes() {
        let per_client = MemoryBudget::STAGING_BYTES_PER_CLIENT;
        assert_eq!(MemoryBudget::from_bytes(10 * per_client).chunk_clients(), 10);
        // A budget below one client degrades to client-at-a-time.
        assert_eq!(MemoryBudget::from_bytes(1).chunk_clients(), 1);
        assert_eq!(MemoryBudget::from_mib(1).bytes(), 1 << 20);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_budget_is_rejected() {
        let _ = MemoryBudget::from_bytes(0);
    }
}
