//! # transit-experiments
//!
//! The evaluation harness: one runner per table and figure of the paper
//! (Table 1, Figs. 1–6, 8–17), shared configuration, market construction
//! helpers, and text/JSON renderers. The `transit-experiments` binary
//! drives it from the command line:
//!
//! ```text
//! transit-experiments all            # everything except sensitivity sweeps
//! transit-experiments full           # everything
//! transit-experiments fig8 --json    # one experiment, JSON output
//! transit-experiments table1 --quick # reduced flow count
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod markets;
pub mod output;
pub mod profile;
pub mod runners;
pub mod stages;

pub use config::ExperimentConfig;
pub use output::{ExperimentResult, Figure, Series, TableOut};
pub use runners::{run, run_all, Invocation, ALL_IDS, EXTENSION_IDS, SENSITIVITY_IDS};
