//! The `Resource_Alloc` heuristic of *"Maximizing Profit in Cloud
//! Computing System via Resource Allocation"* (Goudarzi & Pedram, 2011).
//!
//! The solver maximizes `Σ_i λ̃_i·U_i(R_i) − Σ_j y_j·(P0_j + P1_j·ρ_j)`
//! over client→cluster assignment (`x`), request dispersion (`α`), GPS
//! shares (`φ`) and server power states (`y`) — a non-convex MINLP — with
//! the paper's multi-stage heuristic:
//!
//! 1. **Greedy construction** ([`best_initial`]): clients inserted in
//!    random order, each into the cluster maximizing approximate profit
//!    via [`assign_distribute`] (closed-form KKT shares on an α-grid,
//!    combined by dynamic programming); best of
//!    [`SolverConfig::num_init_solns`] passes.
//! 2. **Local search** ([`improve`]): per-server share re-balancing
//!    ([`ops::adjust_resource_shares`]), per-client dispersion
//!    re-balancing ([`ops::adjust_dispersion_rates`]), server activation
//!    and shutdown ([`ops::turn_on_servers`], [`ops::turn_off_servers`]),
//!    and inter-cluster reassignment ([`ops::reassign_clients`]), looped
//!    until the profit is steady.
//!
//! Every operator commits only profit-improving changes, so
//! [`solve`] produces a monotone profit trace and always returns a
//! feasible allocation when one is reachable.
//!
//! # Example
//!
//! ```
//! use cloudalloc_core::{solve, SolverConfig};
//! use cloudalloc_workload::{generate, ScenarioConfig};
//!
//! let system = generate(&ScenarioConfig::small(8), 42);
//! let result = solve(&system, &SolverConfig::default(), 0);
//! assert!(result.report.profit >= result.initial_profit);
//! assert!(cloudalloc_model::check_feasibility(&system, &result.allocation).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assign;
mod bounds;
mod config;
mod ctx;
mod explain;
mod hier;
mod initial;
mod rounds;
mod scratch;
mod solve;

pub mod dispersion;
pub mod kkt;
pub mod ops;
pub mod par;

pub use assign::{
    assign_distribute, assign_distribute_excluding, assign_distribute_reference, best_cluster,
    best_cluster_reference, commit, commit_scored, Candidate,
};
pub use bounds::{client_bounds, profit_upper_bound, ClientBound};
pub use config::SolverConfig;
pub use ctx::SolverCtx;
pub use explain::{cluster_digests, explain, ClusterDigest};
pub use hier::{solve_hierarchical_streamed, HierConfig, HierError, PROFIT_BAND};
pub use initial::{best_initial, greedy_pass, random_assignment};
pub use solve::{
    improve, improve_scored, solve, solve_prelowered, solve_restarts, SearchStats, SolveResult,
};
