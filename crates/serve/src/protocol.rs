//! The decoded form of a completion answer (opcode 0x85 of the wire
//! protocol; see [`crate::wire`] for the frames and their codecs).

use gcwc_linalg::Matrix;

/// The completion part of an answer.
#[derive(Debug)]
pub struct OkResponse {
    /// The completed matrix.
    pub output: Matrix,
    /// Whether the completion came from the cache.
    pub cache_hit: bool,
    /// True for a partial completion: at least one shard's owned rows
    /// are the row-prior `P(Z)` rather than computed values.
    pub degraded: bool,
    /// Model generation that produced it.
    pub generation: u64,
    /// Number of shards K the completion was gathered from.
    pub shards: usize,
}

/// A completion answer: the tenant that served it, the graph generation
/// it was computed under, and the completion itself.
#[derive(Debug)]
pub struct TokResponse {
    /// The tenant that served the completion.
    pub tenant: u64,
    /// The graph (topology) generation of the snapshot that computed
    /// the completion, whose rows are that generation's edges; a bump
    /// between two responses means a [`gcwc_graph::GraphDelta`] was
    /// applied in between and row indices may have shifted.
    pub graph_generation: u64,
    /// The completion.
    pub body: OkResponse,
}
