//! # gcwc-serve
//!
//! Batched, cached inference server for stochastic weight completion.
//!
//! The served unit is a **shard set** — one trained GCWC / A-GCWC
//! checkpoint per edge partition (K = 1, the common case, is a single
//! model over the whole graph) — loaded into a warm [`ModelRegistry`]
//! with per-shard atomic hot swaps. Completion requests carry the
//! global weight matrix and flow through a bounded queue into worker
//! threads that coalesce up to `max_batch` requests into **one**
//! pooled, tape-free forward pass per shard, scattering each shard's
//! owned rows back into the global response. Because every batched
//! kernel computes each request's column block independently (see
//! `gcwc::infer`), the responses are bit-identical to running each
//! request alone — and K = 1 serving is bit-identical to the
//! pre-sharding pipeline. A keyed LRU [`CompletionCache`] per shard
//! short-circuits repeated `(time, day, coverage)` requests entirely;
//! keys embed the shard's own generation, so hot-swapping one shard
//! invalidates exactly that shard's entries.
//!
//! The crate is dependency-free (std plus a thin epoll shim declared
//! straight against the C library — see [`sys`]): the TCP front end is
//! a single reactor thread multiplexing every connection, speaking one
//! length-prefixed binary protocol ([`wire`]) with request pipelining.
//! Every wire request names a tenant ([`TenantId`]); counters travel
//! by name ([`StatsSnapshot::FIELDS`]). In-process callers use
//! [`Client`] directly — that path performs zero heap allocations per
//! request once warm.
//!
//! ```text
//! checkpoint ─▶ ModelRegistry ─▶ snapshot
//!                                   │
//! Client ─▶ BoundedQueue ─▶ worker ─┼▶ CompletionCache ──▶ response
//!   ▲                               └▶ batched infer ─┘
//!   └───── epoll reactor ── binary frames (tenant-scoped, pipelined, bit-exact)
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod health;
pub mod protocol;
pub mod queue;
pub mod registry;
pub mod server;
pub mod sys;
pub mod tenant;
pub mod wire;

pub use cache::{CacheKey, CompletionCache};
pub use engine::{
    Client, Completion, Engine, EngineConfig, IngestStats, RetryPolicy, StatsSnapshot,
};
pub use health::{Admission, BreakerConfig, ShardHealth};
pub use queue::BoundedQueue;
pub use registry::{AnyModel, ModelRegistry, ModelShard, ModelSnapshot, TopologyUpdate};
pub use server::{BinClient, Server, ServerConfig};
pub use tenant::{QuotaConfig, Tenant, TenantId, TenantRegistry, TokenBucket};

use gcwc_linalg::Matrix;

/// Failpoint site names this crate evaluates (see `gcwc_failpoint`;
/// sites are inert unless the `failpoints` feature is enabled *and*
/// the site is armed).
pub mod failsite {
    /// Worker dequeue loop. `err`/`panic` kill the worker between
    /// dequeue and service (the supervisor restarts it and in-flight
    /// jobs answer `ShardRestarting`); `delay(ms)` stalls it.
    pub const WORKER_LOOP: &str = "serve.worker.loop";
    /// Accept loop: a triggered site drops the fresh connection.
    pub const ACCEPT: &str = "serve.server.accept";
    /// Connection write path: a triggered site closes the connection.
    pub const WRITE: &str = "serve.server.write";
    /// Reactor event-loop tick: a triggered (or panicking) site skips
    /// one batch of readiness events. Level-triggered epoll
    /// re-delivers them, so a skipped tick delays work but never
    /// loses it.
    pub const REACTOR_TICK: &str = "serve.reactor.tick";
    /// Connection read path: a triggered site tears the connection
    /// down mid-session (peer-reset injection).
    pub const CONN_READ: &str = "serve.conn.read";
    /// Checkpoint load into a shard: `err` fails the load (the old
    /// snapshot keeps serving).
    pub const REGISTRY_LOAD: &str = "serve.registry.load";
    /// In-process model install into a shard (panic/delay site).
    pub const REGISTRY_INSTALL: &str = "serve.registry.install";

    /// Per-tenant quota admission: a triggered site rejects the
    /// request with [`crate::ServeError::QuotaExceeded`] as if the
    /// tenant's token bucket were empty. Only evaluated for tenants
    /// that carry a quota, so arming it never touches quota-free
    /// tenants (isolation holds under chaos).
    pub const TENANT_QUOTA: &str = "serve.tenant.quota";

    /// Per-shard batched forward: `err` fails the attempt, `panic`
    /// unwinds into the containment `catch_unwind` — either way the
    /// shard's circuit breaker records a failure and the batch
    /// degrades that shard's rows.
    pub fn shard_forward(k: usize) -> String {
        format!("serve.shard{k}.forward")
    }

    /// Tenant-tagged variant of [`shard_forward`]: engines created for
    /// a [`crate::TenantId`] evaluate `serve.t<id>.shard<k>.forward`
    /// instead, so a chaos schedule can open one tenant's breakers
    /// without touching any other tenant's forwards.
    pub fn tenant_shard_forward(tenant: u64, k: usize) -> String {
        format!("serve.t{tenant}.shard{k}.forward")
    }
}

/// Everything that can go wrong while serving a completion request.
#[derive(Debug)]
pub enum ServeError {
    /// The request queue is full (backpressure) — retry later.
    Overloaded,
    /// The request's deadline passed before a worker served it.
    DeadlineExceeded,
    /// The engine is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The worker serving this request died and was restarted; the
    /// request was not served. Safe to retry (the forward pass never
    /// produced a response).
    ShardRestarting,
    /// The request is malformed (wrong shape, out-of-range context…).
    BadRequest(String),
    /// The tenant's request quota is exhausted (token bucket empty) —
    /// back off and retry after the refill interval.
    QuotaExceeded,
    /// The request names a tenant this server does not host.
    UnknownTenant(u64),
    /// Loading or validating a checkpoint failed.
    Checkpoint(gcwc_nn::PersistError),
    /// Socket-level failure on the TCP front end.
    Io(std::io::Error),
    /// The peer sent bytes the wire protocol cannot decode, or a frame
    /// it does not expect.
    Protocol(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "request queue full"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::ShardRestarting => write!(f, "worker restarting; retry"),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::QuotaExceeded => write!(f, "per-tenant quota exhausted"),
            ServeError::UnknownTenant(id) => write!(f, "tenant {id} is not registered"),
            ServeError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<gcwc_nn::PersistError> for ServeError {
    fn from(e: gcwc_nn::PersistError) -> Self {
        ServeError::Checkpoint(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl ServeError {
    /// Short machine-readable code carried by the wire protocol's error
    /// frame (0xEE) ahead of the message.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Overloaded => "overloaded",
            ServeError::DeadlineExceeded => "deadline",
            ServeError::ShuttingDown => "shutdown",
            ServeError::ShardRestarting => "restarting",
            ServeError::BadRequest(_) => "bad_request",
            ServeError::QuotaExceeded => "quota",
            ServeError::UnknownTenant(_) => "unknown_tenant",
            ServeError::Checkpoint(_) => "checkpoint",
            ServeError::Io(_) => "io",
            ServeError::Protocol(_) => "protocol",
        }
    }
}

/// Derives the per-edge coverage flags A-GCWC's row context expects
/// from an observed weight matrix: `1.0` for rows with any observed
/// mass, `0.0` for all-zero (missing) rows. Reuses `flags`' capacity.
pub fn derive_row_flags(input: &Matrix, flags: &mut Vec<f64>) {
    flags.clear();
    for i in 0..input.rows() {
        flags.push(if input.row_is_zero(i) { 0.0 } else { 1.0 });
    }
}
