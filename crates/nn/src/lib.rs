//! # gcwc-nn
//!
//! A small reverse-mode automatic-differentiation engine and neural
//! network toolkit, purpose-built for reproducing the GCWC / A-GCWC
//! models: dense layers, embeddings, dropout, 2-D convolutions (for the
//! CP-CNN context module and the classic-CNN baseline), graph polynomial
//! convolutions (Chebyshev / diffusion), graph max pooling, the paper's
//! masked KL loss, and Adam with the Table III schedule knobs.

#![warn(missing_docs)]

pub mod gradcheck;
pub mod init;
pub mod layers;
pub mod ops;
pub mod optim;
pub mod params;
pub mod persist;
pub mod tape;

pub use layers::{dropout_mask, Dense, Embedding};
pub use optim::{Adam, AdamState, OptimConfig};
pub use params::{GradBuffer, GradSink, Param, ParamId, ParamStore};
pub use persist::PersistError;
pub use tape::{ConvSpec, NodeId, PoolSpec, Tape};
