//! Scenario generation for the cloud profit-allocation experiments.
//!
//! The paper evaluates its heuristic on synthetic systems drawn from
//! uniform distributions (§VI): 5 clusters, 10 server classes, 5 utility
//! classes, per-class capacities in `U(2,6)`, per-client arrival rates in
//! `U(0.5,4.5)`, and so on. This crate reproduces those distributions with
//! seeded RNG so every experiment is exactly repeatable, and adds presets
//! and sweeps used by the benchmark harness.
//!
//! # Example
//!
//! ```
//! use cloudalloc_workload::{ScenarioConfig, generate};
//!
//! let config = ScenarioConfig::paper(60);
//! let system = generate(&config, 42);
//! assert_eq!(system.num_clients(), 60);
//! assert_eq!(system.num_clusters(), 5);
//! // Same seed, same scenario.
//! assert_eq!(generate(&config, 42), system);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;

mod config;
mod faults;
mod generate;
mod stream;
mod sweep;
mod trace;

pub use config::{Range, ScenarioConfig, UtilityShape};
pub use faults::{FaultEvent, FaultPlan, FaultPlanConfig, FaultRecord};
pub use generate::generate;
pub use stream::{ScenarioStream, StreamedScenario};
pub use sweep::{paper_client_counts, scenario_seeds};
pub use trace::DiurnalTrace;
