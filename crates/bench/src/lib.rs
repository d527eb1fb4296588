//! # gcwc-bench
//!
//! The experiment harness that regenerates every table and figure of
//! the paper's evaluation (§VI): dataset bundles, the method registry,
//! the MKLR/FLR/MAPE evaluation loops, table formatting, the Table III
//! parameter counts, and the Figure 6 scaling record (`scaling`). The
//! `exp_runner` binary drives it all from the command line.

#![warn(missing_docs)]

pub mod ablations;
pub mod allocs;
pub mod harness;
pub mod methods;
pub mod params_table;
pub mod profile;
pub mod resumable;
pub mod scaling;
pub mod tables;
pub mod tenantbench;

pub use harness::{evaluate_average, evaluate_hist, make_bundle, Bundle, HistScores};
pub use methods::{make_model, Method};
pub use profile::{DatasetKind, Profile};
pub use tables::{run_table, Table, ALL_TABLES};
