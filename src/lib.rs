//! # cloudalloc — SLA-driven profit-maximizing cloud resource allocation
//!
//! Umbrella crate re-exporting the whole workspace: a reproduction of
//! *"Maximizing Profit in Cloud Computing System via Resource Allocation"*
//! (Goudarzi & Pedram, 2011).
//!
//! * [`model`] — clusters, servers, clients, utilities, allocations, profit.
//! * [`workload`] — scenario generation with the paper's §VI parameters.
//! * [`core`] — the paper's `Resource_Alloc` heuristic.
//! * [`baselines`] — modified Proportional-Share, Monte-Carlo best-found.
//! * [`simulator`] — discrete-event validation of the analytic model.
//! * [`metrics`] — statistics and figure/table rendering.
//! * [`epoch`] — decision-epoch management: prediction, drift, warm starts.
//! * [`multitier`] — multi-tier applications compiled onto the model.
//! * [`protocol`] — TCP/JSONL wire messages + op-log delta stream.
//! * [`server`] — live admission server over the incremental scorer.
//! * [`telemetry`] — feature-gated spans, counters and JSONL event export.
//!
//! See the `examples/` directory for runnable entry points, starting with
//! `quickstart.rs`.

#![forbid(unsafe_code)]

pub use cloudalloc_baselines as baselines;
pub use cloudalloc_core as core;
pub use cloudalloc_epoch as epoch;
pub use cloudalloc_metrics as metrics;
pub use cloudalloc_model as model;
pub use cloudalloc_multitier as multitier;
pub use cloudalloc_protocol as protocol;
pub use cloudalloc_server as server;
pub use cloudalloc_simulator as simulator;
pub use cloudalloc_telemetry as telemetry;
pub use cloudalloc_workload as workload;
