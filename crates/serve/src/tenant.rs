//! Multi-tenant serving: one city (graph + model shard set) per
//! tenant, hosted in a single process with **hard isolation**.
//!
//! Every serving structure is keyed by [`TenantId`]: each tenant owns
//! a complete [`Engine`] — its own bounded queue, worker threads,
//! per-shard completion caches, circuit breakers, and counters — so
//! one tenant's open breakers, degraded responses, full queue, or
//! exhausted quota cannot perturb another tenant's responses by
//! construction (there is no shared mutable serving state between
//! tenants; the chaos suite pins this bit-for-bit).
//!
//! Two tenant-scoped facilities live here rather than in the engine:
//!
//! * **Quotas** — an optional [`TokenBucket`] per tenant gates request
//!   admission ([`Tenant::admit`]); a rejected request answers
//!   [`ServeError::QuotaExceeded`] without ever reaching the tenant's
//!   queue, so a tenant hammering its quota cannot even occupy queue
//!   slots. The `serve.tenant.quota` failpoint simulates exhaustion
//!   for quota-bearing tenants.
//! * **Graph generation** — a monotonic counter bumped on every
//!   applied [`gcwc_graph::GraphDelta`]
//!   ([`Tenant::install_topology`]), carried on every tenant-form wire
//!   response so clients detect topology swaps and re-derive any
//!   row-index-dependent state.
//!
//! A single-tenant deployment ([`crate::Server::start`]) serves its
//! engine as [`TenantId::DEFAULT`] (id 0).

use crate::engine::{Engine, EngineConfig, StatsSnapshot};
use crate::registry::{ModelRegistry, TopologyUpdate};
use crate::{failsite, ServeError};
use gcwc_graph::RowView;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

/// Identifies one tenant (one city / graph) of a serving process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u64);

impl TenantId {
    /// The tenant id [`crate::Server::start`] serves its one engine as.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Token-bucket quota tuning.
#[derive(Clone, Copy, Debug)]
pub struct QuotaConfig {
    /// Bucket capacity: the largest admissible burst.
    pub burst: u64,
    /// Sustained refill rate in tokens per second (`0` disables
    /// refill — the bucket is a hard burst budget, which is what the
    /// deterministic tests use).
    pub refill_per_sec: u64,
}

/// A classic token bucket: `burst` capacity, continuous refill at
/// `refill_per_sec`, one token per request.
#[derive(Debug)]
pub struct TokenBucket {
    capacity: f64,
    tokens: f64,
    refill_per_sec: f64,
    last: Instant,
}

impl TokenBucket {
    /// A full bucket with `cfg`'s capacity and refill rate.
    pub fn new(cfg: QuotaConfig) -> Self {
        Self {
            capacity: cfg.burst as f64,
            tokens: cfg.burst as f64,
            refill_per_sec: cfg.refill_per_sec as f64,
            last: Instant::now(),
        }
    }

    /// Takes one token if available; `false` means the quota is
    /// exhausted until refill.
    pub fn try_acquire(&mut self, now: Instant) -> bool {
        let elapsed = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + elapsed * self.refill_per_sec).min(self.capacity);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// One tenant: its engine (queue, caches, breakers, counters), quota,
/// and graph-topology generation.
pub struct Tenant {
    id: TenantId,
    engine: Arc<Engine>,
    quota: Option<Mutex<TokenBucket>>,
    quota_rejected: AtomicU64,
    graph_generation: AtomicU64,
}

impl Tenant {
    fn new(id: TenantId, engine: Arc<Engine>, quota: Option<QuotaConfig>) -> Self {
        Self {
            id,
            engine,
            quota: quota.map(|q| Mutex::new(TokenBucket::new(q))),
            quota_rejected: AtomicU64::new(0),
            graph_generation: AtomicU64::new(0),
        }
    }

    /// This tenant's id.
    pub fn id(&self) -> TenantId {
        self.id
    }

    /// The tenant's own engine (and, through it, its model registry).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Admission gate evaluated once per completion request, *before*
    /// the tenant's queue: takes one quota token, or rejects with
    /// [`ServeError::QuotaExceeded`]. Tenants without a quota admit
    /// unconditionally — and also skip the `serve.tenant.quota`
    /// failpoint, so arming it never leaks across tenants that did not
    /// opt into quotas.
    pub fn admit(&self) -> Result<(), ServeError> {
        let Some(bucket) = &self.quota else { return Ok(()) };
        if gcwc_failpoint::triggered(failsite::TENANT_QUOTA) {
            self.quota_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::QuotaExceeded);
        }
        let admitted =
            bucket.lock().unwrap_or_else(PoisonError::into_inner).try_acquire(Instant::now());
        if admitted {
            Ok(())
        } else {
            self.quota_rejected.fetch_add(1, Ordering::Relaxed);
            Err(ServeError::QuotaExceeded)
        }
    }

    /// Requests rejected by this tenant's quota so far.
    pub fn quota_rejected(&self) -> u64 {
        self.quota_rejected.load(Ordering::Relaxed)
    }

    /// The tenant's current graph-topology generation (0 until the
    /// first delta is applied).
    pub fn graph_generation(&self) -> u64 {
        self.graph_generation.load(Ordering::Acquire)
    }

    /// Absorbs a repaired topology into the tenant's registry (see
    /// [`ModelRegistry::install_topology`]) and bumps the graph
    /// generation clients observe on tenant-form responses. Returns
    /// `(model_generation, graph_generation)`.
    pub fn install_topology(
        &self,
        updates: Vec<TopologyUpdate>,
        views: Vec<RowView>,
    ) -> (u64, u64) {
        let model_gen = self.engine.registry().install_topology(updates, views);
        let graph_gen = self.graph_generation.fetch_add(1, Ordering::AcqRel) + 1;
        (model_gen, graph_gen)
    }

    /// The tenant's engine counters with the tenant-layer fields
    /// (graph generation, quota rejections) filled in.
    pub fn stats(&self) -> StatsSnapshot {
        let mut s = self.engine.stats();
        s.graph_generation = self.graph_generation();
        s.quota_rejected = self.quota_rejected();
        s
    }
}

/// The tenant table of a multi-tenant serving process.
#[derive(Default)]
pub struct TenantRegistry {
    tenants: RwLock<BTreeMap<u64, Arc<Tenant>>>,
}

impl TenantRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tenant with its own engine over `models`. The
    /// engine's forward failpoint sites are tagged with the tenant id
    /// (`serve.t<id>.shard<k>.forward`), so chaos schedules can target
    /// exactly one tenant.
    ///
    /// # Panics
    /// Panics if `id` is already registered.
    pub fn register(
        &self,
        id: TenantId,
        models: Arc<ModelRegistry>,
        engine_cfg: EngineConfig,
        quota: Option<QuotaConfig>,
    ) -> Arc<Tenant> {
        let cfg = EngineConfig { tenant_site: Some(id.0), ..engine_cfg };
        self.adopt(id, Arc::new(Engine::new(models, cfg)), quota)
    }

    /// Registers an already-running engine as tenant `id` (the
    /// single-tenant path: [`crate::Server::start`] adopts its engine
    /// as [`TenantId::DEFAULT`], keeping the untagged failpoint site
    /// names).
    ///
    /// # Panics
    /// Panics if `id` is already registered.
    pub fn adopt(
        &self,
        id: TenantId,
        engine: Arc<Engine>,
        quota: Option<QuotaConfig>,
    ) -> Arc<Tenant> {
        let tenant = Arc::new(Tenant::new(id, engine, quota));
        let mut tenants = self.tenants.write().unwrap();
        let prev = tenants.insert(id.0, Arc::clone(&tenant));
        assert!(prev.is_none(), "tenant {id} registered twice");
        tenant
    }

    /// Looks a tenant up by id.
    pub fn get(&self, id: TenantId) -> Option<Arc<Tenant>> {
        self.tenants.read().unwrap().get(&id.0).cloned()
    }

    /// Registered tenant ids, ascending.
    pub fn ids(&self) -> Vec<TenantId> {
        self.tenants.read().unwrap().keys().map(|&id| TenantId(id)).collect()
    }

    /// All registered tenants, ascending by id.
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        self.tenants.read().unwrap().values().cloned().collect()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.read().unwrap().len()
    }

    /// True when no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.read().unwrap().is_empty()
    }

    /// Gracefully shuts every tenant's engine down (each drains its
    /// own queue; tenants are independent, so order is irrelevant).
    pub fn shutdown(&self) {
        for tenant in self.tenants() {
            tenant.engine().shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn token_bucket_burst_and_refill() {
        let mut b = TokenBucket::new(QuotaConfig { burst: 2, refill_per_sec: 0 });
        let t0 = Instant::now();
        assert!(b.try_acquire(t0));
        assert!(b.try_acquire(t0));
        assert!(!b.try_acquire(t0), "burst of 2 admits exactly 2");
        // No refill configured: still empty arbitrarily later.
        assert!(!b.try_acquire(t0 + Duration::from_secs(3600)));

        let mut b = TokenBucket::new(QuotaConfig { burst: 1, refill_per_sec: 10 });
        let t0 = Instant::now();
        assert!(b.try_acquire(t0));
        assert!(!b.try_acquire(t0));
        // 100 ms at 10 tokens/s refills the single token.
        assert!(b.try_acquire(t0 + Duration::from_millis(100)));
    }

    #[test]
    fn bucket_never_exceeds_capacity() {
        let mut b = TokenBucket::new(QuotaConfig { burst: 2, refill_per_sec: 1000 });
        let t0 = Instant::now();
        // A long idle stretch refills to capacity, not beyond.
        let later = t0 + Duration::from_secs(60);
        assert!(b.try_acquire(later));
        assert!(b.try_acquire(later));
        assert!(!b.try_acquire(later), "capacity caps the burst after idling");
    }
}
