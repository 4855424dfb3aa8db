//! Decision-epoch management.
//!
//! The paper allocates resources once per **decision epoch**: "the
//! solution found by the presented algorithm is acceptable only as long
//! as the parameters used to find the solution are approximately valid",
//! predicted request rates drive the allocation while agreed rates drive
//! revenue, and the greedy pass starts from "the state of the cluster at
//! the end of the previous epoch". The paper scopes out the estimation
//! and prediction machinery; this crate supplies it so the allocator can
//! actually be operated over time:
//!
//! * [`RatePredictor`] — arrival-rate predictors ([`EwmaPredictor`] and
//!   the naive [`LastValue`] baseline),
//! * [`WorkloadDrift`] — a synthetic workload process (multiplicative
//!   random walk with occasional surges) standing in for real traces,
//! * [`EpochManager`] — runs the allocator epoch by epoch: re-predicts
//!   rates, warm-starts the local search from the previous allocation,
//!   falls back to a full re-solve when the workload moved too much, and
//!   scores each epoch against the *actual* (realized) rates. Under
//!   injected fault events
//!   ([`FaultPlan`](cloudalloc_workload::FaultPlan)) it additionally
//!   runs the repair → shed → escalate state machine
//!   ([`repair_escalate`], tuned by [`RepairPolicy`]) to rescue clients
//!   stranded on failed servers — the same machine the admission server
//!   runs on faults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod drift;
mod log;
mod manager;
mod predictor;
mod repair;

pub use drift::{DriftConfig, WorkloadDrift};
pub use log::{OperationsLog, OperationsSummary};
pub use manager::{EpochConfig, EpochManager, EpochReport};
pub use predictor::{EwmaPredictor, LastValue, RatePredictor};
pub use repair::{escalation_seed, repair_escalate, RepairPolicy, RepairReport};
