//! # gcwc-traffic
//!
//! Traffic-data substrate for the GCWC reproduction: synthetic road
//! networks standing in for the paper's HW (highway tollgate loop
//! detectors) and CI (Chengdu taxi GPS) datasets, a stochastic traffic
//! simulator with spatially correlated congestion, equi-width speed
//! histograms, stochastic weight matrices with the §VI-A.2 removal
//! protocol, contexts, and time-ordered cross-validation datasets.

#![warn(missing_docs)]

pub mod context;
pub mod dataset;
pub mod edge_graph_ext;
pub mod generators;
pub mod histogram;
pub mod sim;
pub mod view;
pub mod viz;
pub mod weights;

pub use context::Context;
pub use dataset::{Dataset, Fold, Snapshot};
pub use gcwc_graph::{RoadClass, RoadNetwork};
pub use generators::NetworkInstance;
pub use histogram::HistogramSpec;
pub use sim::{simulate, SimConfig, TrafficData};
pub use view::{view_context, view_dataset, view_snapshot, view_weights};
pub use weights::WeightMatrix;
