//! Workload inputs: a fixed datacenter populated by seeded clients.
//!
//! The paper's generator draws everything from one seed: the hardware
//! catalog, the SLA catalog (with its per-class execution times), the
//! topology and the clients. The catalog alone moves a solve's time by 3x
//! and its profit by 4x from one seed to the next, so a run-to-run spread
//! over seeds would drown any change a bound could catch. Each workload
//! therefore fixes its datacenter — catalog and topology drawn once from
//! [`CATALOG_SEED`] — and the run seed draws who shows up: every client's
//! SLA class, arrival rate and storage need come from the seed's own
//! stream of the same generator, re-expressed in the fixed SLA catalog.

use cloudalloc_model::{Client, CloudSystem, LoweredClients, MemoryBudget};
use cloudalloc_workload::{ScenarioConfig, ScenarioStream};

/// Seed of every workload's hardware catalog, SLA catalog and topology.
pub const CATALOG_SEED: u64 = 2011;

/// A fixed datacenter: the skeleton of one scenario family.
pub struct Datacenter {
    config: ScenarioConfig,
    skeleton: CloudSystem,
    /// `(exec_processing, exec_communication)` per SLA class.
    exec: Vec<(f64, f64)>,
}

/// A population drawn into a [`Datacenter`] and lowered chunk by chunk.
pub struct Streamed {
    /// The complete system.
    pub system: CloudSystem,
    /// The client lowering, filled as the chunks were drawn.
    pub lowered: LoweredClients,
    /// Largest chunk staged at once, in bytes.
    pub peak_staging_bytes: usize,
}

impl Datacenter {
    /// Draws the catalog and topology of `config` from [`CATALOG_SEED`].
    pub fn new(config: ScenarioConfig) -> Self {
        let mut stream = ScenarioStream::new(config.clone(), CATALOG_SEED);
        let skeleton = stream.skeleton().clone();
        // Clients of one SLA class share its execution times; draw until
        // every class has shown up once.
        let mut exec = vec![None; skeleton.utility_classes().len()];
        let mut buf = Vec::new();
        while exec.iter().any(Option::is_none) && stream.remaining() > 0 {
            stream.next_chunk_into(64, &mut buf);
            for c in &buf {
                exec[c.utility_class.index()]
                    .get_or_insert((c.exec_processing, c.exec_communication));
            }
        }
        let exec = exec.into_iter().map(|e| e.unwrap_or((1.0, 1.0))).collect();
        Self { config, skeleton, exec }
    }

    /// Draws the population of `seed` into a complete system.
    pub fn populate(&self, seed: u64) -> CloudSystem {
        let mut system = self.skeleton.clone();
        system.reserve_clients(self.config.num_clients);
        self.draw(seed, 4096, |chunk| {
            for c in chunk.drain(..) {
                system.add_client(c);
            }
        });
        system
    }

    /// Draws the population of `seed` in chunks that fit `budget`,
    /// lowering each chunk as it is drawn — the streamed scale path.
    pub fn stream(&self, seed: u64, budget: MemoryBudget) -> Streamed {
        let mut system = self.skeleton.clone();
        system.reserve_clients(self.config.num_clients);
        let mut lowered =
            LoweredClients::new(self.config.num_clients, system.server_classes().len());
        let mut peak = 0;
        self.draw(seed, budget.chunk_clients(), |chunk| {
            peak = peak.max(chunk.len());
            lowered.push_chunk(system.server_classes(), system.utility_classes(), chunk);
            for c in chunk.drain(..) {
                system.add_client(c);
            }
        });
        Streamed {
            system,
            lowered,
            peak_staging_bytes: peak * MemoryBudget::STAGING_BYTES_PER_CLIENT,
        }
    }

    fn draw(&self, seed: u64, chunk: usize, mut sink: impl FnMut(&mut Vec<Client>)) {
        let mut stream = ScenarioStream::new(self.config.clone(), seed);
        let mut buf = Vec::new();
        while stream.remaining() > 0 {
            stream.next_chunk_into(chunk, &mut buf);
            for c in &mut buf {
                (c.exec_processing, c.exec_communication) = self.exec[c.utility_class.index()];
            }
            sink(&mut buf);
        }
    }
}

/// Derives the seed of the `index`-th input of a run from the run seed
/// (SplitMix64 finalizer), so inputs of one run are independent draws.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn populations_share_the_catalog_and_differ_by_seed() {
        let dc = Datacenter::new(ScenarioConfig::paper(40));
        let a = dc.populate(1);
        let b = dc.populate(2);
        assert_eq!(a.server_classes(), b.server_classes());
        assert_eq!(a.num_servers(), b.num_servers());
        assert_ne!(a.clients(), b.clients());
        assert_eq!(a, dc.populate(1));
        a.validate().expect("populated system is valid");
    }

    #[test]
    fn streamed_population_equals_the_batch_one_and_respects_the_budget() {
        let dc = Datacenter::new(ScenarioConfig::scale(3000));
        let budget = MemoryBudget::from_bytes(100 * MemoryBudget::STAGING_BYTES_PER_CLIENT);
        let streamed = dc.stream(9, budget);
        assert_eq!(streamed.system, dc.populate(9));
        assert!(streamed.lowered.is_complete());
        assert!(streamed.peak_staging_bytes <= budget.bytes());
    }
}
