//! # gcwc-linalg
//!
//! Linear-algebra substrate for the GCWC reproduction: dense row-major
//! matrices, CSR sparse matrices, Cholesky factorisation, power-iteration
//! eigenvalue estimation, and seeded randomness helpers.
//!
//! Everything here is deliberately dependency-free (except `rand`) and
//! sized for the paper's workloads: weight matrices up to `8 600 × 8` and
//! graph Laplacians with a handful of neighbours per node.

#![warn(missing_docs)]

pub mod decomp;
pub mod eigen;
pub mod matrix;
pub mod parallel;
pub mod pool;
pub mod rng;
pub mod sparse;
pub mod tile;

pub use decomp::{Cholesky, DecompError};
pub use matrix::Matrix;
pub use pool::{BufferPool, PoolGuard};
pub use sparse::CsrMatrix;
