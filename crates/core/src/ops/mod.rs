//! The local-search operators of the `Resource_Alloc` heuristic
//! (paper §V-B): each takes the allocation to a neighbouring state and
//! commits only profit-improving changes, so every operator is monotone
//! in the objective.

mod disperse;
mod reassign;
mod repair;
mod shares;
mod swap;
mod turnoff;
mod turnon;

pub use disperse::adjust_dispersion_rates;
pub use reassign::reassign_clients;
pub use repair::{drop_victims, repair_failed_servers, shed_unprofitable, RepairStats};
pub use shares::{adjust_resource_shares, rebalance_server_shares};
pub use swap::swap_clients;
pub use turnoff::turn_off_servers;
pub use turnon::turn_on_servers;
