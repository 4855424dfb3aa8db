//! Statistics and reporting helpers shared by the simulator, benchmark
//! harness and examples.
//!
//! * [`OnlineStats`] — numerically stable streaming moments (Welford),
//! * [`Sample`] — buffered samples with percentiles,
//! * [`Table`] — fixed-width ASCII tables for the figure/table bins,
//! * [`Histogram`] — fixed-bin histograms with ASCII rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod sample;
mod stats;
mod table;

pub use histogram::Histogram;
pub use sample::Sample;
pub use stats::OnlineStats;
pub use table::Table;
