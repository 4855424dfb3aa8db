//! Discrete-event simulation of the cloud system.
//!
//! The paper's authors note they "ended up implementing all components of
//! the system, from clients to servers and clusters" to evaluate their
//! allocator. This crate is that testbed: given a [`CloudSystem`] and an
//! [`Allocation`], it generates the actual stochastic processes of the
//! model — Poisson request streams per client, probabilistic dispatch by
//! the `α` vectors, exponential service through the pipelined
//! processing → communication stages — and measures per-client response
//! times, which can then be checked against the closed-form M/M/1
//! predictions ([`validate`]).
//!
//! Two service disciplines are provided:
//!
//! * [`GpsMode::Isolated`] — every (client, server, resource) triple is an
//!   independent exponential server of rate `φ·C/t̄`, exactly the
//!   assumption behind the paper's Eq. (1);
//! * [`GpsMode::Shared`] — a fluid Generalized-Processor-Sharing server:
//!   backlogged clients share the capacity in proportion to their `φ`,
//!   idle shares are redistributed (work-conserving). Responses are
//!   stochastically **no worse** than the isolated model, confirming that
//!   the analytic formulas are a conservative design basis.
//!
//! [`CloudSystem`]: cloudalloc_model::CloudSystem
//! [`Allocation`]: cloudalloc_model::Allocation

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod event;
mod failures;
mod isolated;
mod report;
mod routing;
mod sampling;
mod service;
mod shared;
mod validate;

pub use config::{GpsMode, SimConfig};
pub use event::EventQueue;
pub use failures::FailureConfig;
pub use report::{ClientSimStats, SimReport};
pub use routing::{least_work_choice, RoutingPolicy};
pub use service::ServiceDistribution;
pub use validate::{validate, ValidationRow};

use cloudalloc_model::{Allocation, CloudSystem};

/// Runs the simulation in the configured mode.
///
/// # Panics
///
/// Panics if the allocation references placements with zero shares but
/// positive traffic (the model's feasibility checker rejects those), or
/// if `config` fails [`SimConfig::validate`].
pub fn simulate(system: &CloudSystem, alloc: &Allocation, config: &SimConfig) -> SimReport {
    config.validate();
    match config.mode {
        GpsMode::Isolated => isolated::run(system, alloc, config),
        GpsMode::Shared => shared::run(system, alloc, config),
    }
}
