//! Tape-free batched inference for GCWC / A-GCWC.
//!
//! Training builds a [`gcwc_nn::Tape`] so gradients can flow backwards;
//! serving does not need gradients, so this module provides a forward
//! path that skips graph construction entirely and draws every
//! intermediate from a private [`BufferPool`] — steady-state inference
//! performs **zero heap allocations** once the pool is warm.
//!
//! The arithmetic is shared with the tape (see `gcwc_nn::ops`), and all
//! batched kernels compute each request's column block independently,
//! so the output of a coalesced batch is **bit-identical** to running
//! each request through `predict` (the [`crate::CompletionModel`]
//! method of [`crate::GcwcModel`] and [`crate::AGcwcModel`]) one at a
//! time (asserted by
//! `tests/infer_equivalence.rs`).

use gcwc_linalg::{BufferPool, Matrix};

/// One inference request: an observed (partial) weight matrix plus the
/// A-GCWC context. GCWC ignores the context fields.
#[derive(Clone, Copy)]
pub struct InferRequest<'a> {
    /// Observed `n × m` weight matrix (zero rows = missing edges).
    pub input: &'a Matrix,
    /// Time-of-day interval index (`0..intervals_per_day`).
    pub time_of_day: usize,
    /// Day-of-week index (`0..7`).
    pub day_of_week: usize,
    /// Per-edge coverage flags (`1.0` observed, `0.0` missing), length
    /// `n`.
    pub row_flags: &'a [f64],
}

/// Reusable scratch for the tape-free forward pass.
///
/// Create one per forward that may run at the same time as another
/// (the serving engine keeps one per shard) and pass it to every call; after the
/// first few passes of a given shape the internal pool is warm and
/// inference allocates nothing.
#[derive(Default)]
pub struct InferWorkspace {
    /// Buffer pool every intermediate matrix is drawn from.
    pub(crate) pool: BufferPool,
    /// Polynomial-basis tap scratch.
    pub(crate) saved: Vec<Matrix>,
    /// Max-pool argmax scratch.
    pub(crate) argmax: Vec<usize>,
    /// Per-request intermediate outputs (A-GCWC's `p(z)` head).
    pub(crate) scratch: Vec<Matrix>,
}

impl InferWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrows a `rows × cols` matrix from the workspace pool (contents
    /// unspecified). Use for output buffers passed to `infer_into`.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        self.pool.take_raw(rows, cols)
    }

    /// Returns a matrix to the workspace pool for reuse.
    pub fn give(&mut self, m: Matrix) {
        self.pool.give(m);
    }

    /// The underlying pool's hit/miss counters, for diagnostics.
    pub fn pool_stats(&self) -> (u64, u64) {
        (self.pool.hits(), self.pool.misses())
    }
}
